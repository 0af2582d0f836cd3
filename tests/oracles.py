"""Brute-force reference implementations used to pin expected values.

Everything here recomputes from first principles (trial division,
double loops, exact rationals) so the code under test is never checked
against itself. Keep these slow and obvious.
"""

import math
from fractions import Fraction

import mpmath as mp


def divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def sigma_k(n: int, k: int) -> int:
    return sum(d**k for d in divisors(n))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def least_prime_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def mu(n: int) -> int:
    f = factor(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def max_prime_factor(n: int) -> int:
    if n == 1:
        return 1
    return max(factor(n))


def psi(x: int, y: float) -> int:
    """Count of n <= x with every prime factor <= y, by full factorization."""
    return sum(1 for n in range(1, x + 1) if max_prime_factor(n) <= y)


def psi_buchstab(x: int, y: float) -> int:
    """Psi(x, y) by Buchstab's recursion on the largest prime factor.

    Psi(t, p_k) = 1 + sum_{i <= k} Psi(t // p_i, p_i): n = 1, or n = p_i m
    with p_i its largest prime factor and m <= t // p_i p_i-smooth. A term
    is t // p_i itself once t // p_i < p_i (every m below p_i is p_i-smooth),
    and Psi(t, 2) = t.bit_length() counts 1, 2, 4, ... <= t. The primes come
    from a sieve of Eratosthenes of its own. Counts at t < 2^16, where the
    recursion meets the same (t, k) again and again, are kept for this call.
    """
    top = min(math.floor(y), x)
    sieve = bytearray([1]) * max(top + 1, 2)
    sieve[0] = sieve[1] = 0
    for d in range(2, math.isqrt(top) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(sieve[d * d :: d]))
    primes = [n for n in range(2, top + 1) if sieve[n]]
    small: dict[tuple[int, int], int] = {}

    def count(t: int, k: int) -> int:  # Psi(t, primes[k - 1])
        if k == 1:
            return t.bit_length()
        if t < 2**16 and (t, k) in small:
            return small[t, k]
        total = 1
        for i, p in enumerate(primes[:k]):
            m = t // p
            if m < p:  # so m < p_j for every later j as well
                total += sum(t // q for q in primes[i:k] if q <= t)
                break
            total += count(m, i + 1)
        if t < 2**16:
            small[t, k] = total
        return total

    return count(x, len(primes)) if primes else min(x, 1)


def beta_weights(D, z) -> tuple[dict[int, int], dict[int, int]]:
    """The beta = 2 weights (upper, lower) by their definition, d -> mu(d).

    Every d <= D is factored from a least-factor table of its own; d is a
    weight when it is squarefree, its primes are all <= z, and, written
    p_1 > p_2 > ..., it keeps p_1 ... p_{m-1} p_m^3 < D at each
    constrained position m: the odd ones for the upper side, the even ones
    for the lower.
    """
    top = math.floor(D) if D >= 1 else 0
    least = list(range(top + 1))
    for p in range(2, math.isqrt(top) + 1):
        if least[p] == p:
            for m in range(p * p, top + 1, p):
                if least[m] == m:
                    least[m] = p
    upper, lower = {}, {}
    for d in range(1, top + 1):
        chain, m = [], d
        while m > 1:
            chain.append(least[m])
            m //= least[m]
        if len(set(chain)) < len(chain) or any(p > z for p in chain):
            continue
        chain.reverse()
        for side, first in ((upper, 1), (lower, 2)):
            prod, kept = 1, True
            for pos, p in enumerate(chain, 1):
                if pos % 2 == first % 2 and prod * p**3 >= D:
                    kept = False
                prod *= p
            if kept:
                side[d] = -1 if len(chain) % 2 else 1
    return upper, lower


def vector_trials(count: int, seed: int, shift: int = 0) -> dict:
    """The two-variable sandwich d1 d2 >= d1+ d2- + d1- d2+ - d1+ d2+ on
    count tuples, all held at once: the columns d1, d2 and the steps up to
    d1+, d2+ and down to d1-, d2- are six consecutive integers(0, 2^15,
    size=count) draws from one default_rng(seed). A trial fails where its
    slack is below shift."""
    import numpy as np
    rng = np.random.default_rng(seed)
    d1, d2, up1, up2, down1, down2 = [rng.integers(0, 1 << 15, size=count) for _ in range(6)]
    slack = d1 * d2 - ((d1 + up1) * (d2 - down2) + (d1 - down1) * (d2 + up2) - (d1 + up1) * (d2 + up2)) - shift
    bad = slack < 0
    return {
        "trials": count,
        "seed": seed,
        "violations": int(bad.sum()),
        "first_violation_index": int(bad.argmax()) if bad.any() else None,
        "min_slack": int(slack.min()),
        "ok": not bad.any(),
    }


def nearest_int_distance(q: Fraction) -> Fraction:
    f = q % 1
    return min(f, 1 - f)


def stat(p: int) -> Fraction:
    """|| sigma_4(p+1) / (p (p+1)) + 1/16 || from scratch."""
    theta = Fraction(sigma_k(p + 1, 4), p * (p + 1)) + Fraction(1, 16)
    return nearest_int_distance(theta)


def stat_r(p: int, r: int) -> Fraction:
    theta = (
        Fraction(sigma_k(p + 1, 4), p * (p + 1))
        + Fraction(1, 16)
        + Fraction(p + 1, r**4)
    )
    return nearest_int_distance(theta)


def alpha_partial_exact(k: int, n_terms: int) -> Fraction:
    total = Fraction(0)
    fact = 1
    for n in range(1, n_terms + 1):
        fact *= n
        total += Fraction(sigma_k(n, k), fact)
    return total


def factorial_tail_exact(p: int, n1: int, k: int = 4) -> Fraction:
    """(p-1)! sum_{n=p}^{n1} sigma_k(n)/n!, one Fraction add per term."""
    total = Fraction(0)
    den = 1
    for n in range(p, n1 + 1):
        den *= n
        total += Fraction(sigma_k(n, k), den)
    return total


def phase_basic(A: Fraction, B: Fraction, n: int) -> Fraction:
    """A (n^2 + n^-2) + B (n + n^-3)."""
    return A * (n * n + Fraction(1, n * n)) + B * (n + Fraction(1, n**3))


def phase_lemma61(h: int, m: int, r: int, v: int, l: int) -> Fraction:
    """A1 (2 v r l + r^2 l^2 + (v + r l)^-2) + A2 r l + (h m / r^3) l,
    A1 = h sigma_4(m) / m^2, A2 = h sigma_4(m) / m^3."""
    s4 = sigma_k(m, 4)
    a1, a2 = Fraction(h * s4, m * m), Fraction(h * s4, m**3)
    return a1 * (2 * v * r * l + r * r * l * l + Fraction(1, (v + r * l) ** 2)) + a2 * r * l + Fraction(h * m, r**3) * l


def phase_lemma62_inner(h: int, m: int, r: int, j: int, l1: int, l2: int, n: int) -> Fraction:
    """C n, C = A (2 j r^2 (l1 - l2) + r^-2 [(l1+j)^-2 - l1^-2 - (l2+j)^-2 + l2^-2]),
    A = h sigma_4(m) / m^2."""
    a = Fraction(h * sigma_k(m, 4), m * m)
    bracket = Fraction(1, (l1 + j) ** 2) - Fraction(1, l1 * l1) - Fraction(1, (l2 + j) ** 2) + Fraction(1, l2 * l2)
    return a * (2 * j * r * r * (l1 - l2) + bracket / (r * r)) * n


# -- the mpf phase and the rho Horner through mpf operators ----------------
# The phase sum is the operator form of the phase, run 320 bits past the
# phase's size: a containment reference, not a bit-for-bit one, since the
# package's certified engine must hold it within its derived radius. The rho
# Horner stays a bit-for-bit reference for the package's panels, which run
# it on raw libmp tuples.


def mpf_coefficient(x):
    """A phase coefficient at the ambient precision, rounded once from its
    exact value (None passes through): the numerator is read exactly, at a
    precision of its own length, and one division rounds the quotient."""
    if x is None:
        return x
    x = Fraction(x)
    num = mp.mpf(x.numerator, prec=max(1, x.numerator.bit_length()))
    return mp.fdiv(num, x.denominator)


def phase_mpf(spec, n: int, coefficients):
    """The phase at n by mpf operators; spec is read for kind, v and r."""
    A, B, lin, C = coefficients
    nn = mp.mpf(n)
    if spec.kind == "basic":
        return A * (nn**2 + 1 / nn**2) + B * (nn + 1 / nn**3)
    if spec.kind == "lemma61":
        v, r = spec.v, spec.r
        return A * (2 * v * r * n + r**2 * n**2 + 1 / mp.mpf(v + r * n) ** 2) + (B + lin) * r * nn
    return C * nn


def mpf_phase_sum(spec, prec: int):
    """sum e(phase(n)) over (lo, hi] with mpf and mpc objects at prec bits."""
    with mp.workprec(prec):
        coefficients = tuple(map(mpf_coefficient, spec.coefficients))
        re = im = mp.mpf(0)
        for n in range(spec.lo + 1, spec.hi + 1):
            ph = phase_mpf(spec, n, coefficients)
            c, s = mp.cospi_sinpi(2 * (ph - mp.floor(ph)))
            re += c
            im += s
        return mp.mpc(re, im)


def rho_horner(panels, u: float, dps: int):
    """rho(u) from panel coefficients (lists of mpf, panel k centred at
    k + 1/2) by Horner's rule with mpf operators; rho = 1 on [0, 1]."""
    if u <= 1:
        return mp.mpf(1)
    with mp.workdps(dps):
        k = int(math.floor(u))
        if k == u:
            k -= 1
        k = min(k, len(panels) - 1)
        y = mp.mpf(u) - (2 * k + 1) / mp.mpf(2)
        s = mp.mpf(0)
        for c in reversed(panels[k]):
            s = s * y + c
        return s


def f_ell_integral(A, B, k: int, l: int, n):
    """The amplitude's wedge quadrature at 30 digits with its integrand in
    mpf operator form, a numerical reference for the package's exact
    wedge integral."""
    with mp.workdps(30):
        Af, Bf, nf = map(mpf_coefficient, (A, B, n))
        lo, hi = min(k, l), max(k, l)
        return mp.quad(
            lambda w: (6 * Af / (nf + w) ** 4 + 12 * Bf / (nf + w) ** 5) * min(w, lo, k + l - w),
            [0, lo, hi, k + l],
        )


# -- the linear-sieve limit functions past their elementary closed forms ----
# From s F(s) = 3 F(3) + int_3^s f(t-1) dt and s f(s) = int_2^s F(t-1) dt
# with F = 2 e^gamma / s on [1, 3] and f = (2 e^gamma / s) log(s-1) on
# [2, 4]; Li2 is mpmath's polylog(2, .). Each form is one quadrature at
# most, and none reads another.


def _dilog_part(u):
    """g(u) = (log(u-2) log(u-1) + Li2(2-u) + pi^2/12) / u, the integral
    int_3^u log(t-2)/(t-1) dt divided by u; s F(s) = 2 e^gamma (1 + s g(s))
    on [3, 5]."""
    return (mp.log(u - 2) * mp.log(u - 1) + mp.polylog(2, 2 - u) + mp.pi**2 / 12) / u


def linear_F_dilog(s, dps: int = 34):
    """F on [3, 5]: s F(s) = 2 e^gamma (1 + log(s-2) log(s-1) + Li2(2-s) + pi^2/12)."""
    with mp.workdps(dps):
        s = mp.mpf(s)
        return 2 * mp.exp(mp.euler) * (1 + s * _dilog_part(s)) / s


def linear_f_single_integral(points, dps: int = 34):
    """f at increasing points of [4, 6]: s f(s) = 2 e^gamma (log(s-1) +
    int_3^{s-1} g), by Gauss-Legendre pieces between successive points."""
    out = []
    with mp.workdps(dps):
        acc, lo = mp.mpf(0), mp.mpf(3)
        for s in map(mp.mpf, points):
            acc += mp.quad(_dilog_part, [lo, s - 1], method="gauss-legendre")
            lo = s - 1
            out.append(2 * mp.exp(mp.euler) * (mp.log(s - 1) + acc) / s)
    return out


def linear_F_past_five(s, dps: int = 34):
    """F on [5, 6]: s F(s) = 5 F(5) + int_4^{s-1} f, with f's single integral
    put in and the order of the double integral swapped:

        s F(s) / (2 e^gamma) = 1 + 5 g(5) + int_4^{s-1} log(v-1)/v dv
                               + int_3^{s-2} g(u) log((s-1)/(u+1)) du.
    """
    with mp.workdps(dps):
        s = mp.mpf(s)
        inner = mp.quad(lambda v: mp.log(v - 1) / v, [4, s - 1], method="gauss-legendre")
        swapped = mp.quad(lambda u: _dilog_part(u) * mp.log((s - 1) / (u + 1)), [3, s - 2],
                          method="gauss-legendre")
        return 2 * mp.exp(mp.euler) * (1 + 5 * _dilog_part(mp.mpf(5)) + inner + swapped) / s
