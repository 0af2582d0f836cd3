"""The factorial series of divisor-power sums and its behaviour at primes.

The central object is alpha_k = sum_{n>=1} sigma_k(n)/n!. Partial sums
are exact rationals; certified values come with a tail majorant. For a
prime p, multiplying the tail from n = p by (p-1)! gives an integer plus
a small fractional part, and the four leading terms of that tail admit
an exact expansion whose residuals this module tracks term by term.

sigma_k of a single n comes from arith.sigma_k, which reads the (prime,
exponent) pairs of factorize. Every sigma_4 near a prime that the tail
sums read comes from sigma4_windows: arith.sieve_runs' runs, their pairs
multiplied into sigma_4 columns, one window per prime. The
near-integer statistic is written once, in prop1_ratio, as an integer
pair, and the four-term expansion holds integers, building Fractions
only when they are read. Only alpha_k computes in mpf, so only it
imports mpmath and bigreal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import factorize, is_prime, require_budget, require_products, sieve_runs, sigma_k
from .errors import PreconditionError

__all__ = [
    "zeta_upper",
    "ZETA4_UPPER",
    "E_UPPER",
    "alpha_partial",
    "tail_bound",
    "terms_needed",
    "alpha_k",
    "TailExpansion",
    "tail_expansion",
    "tail_partial",
    "factorial_tail_exact",
    "factorial_series",
    "tail_remainder_bound",
    "tail_remainder_scaled",
    "sigma4_window_bytes",
    "sigma4_windows",
    "prop1_ratio",
    "prop1_statistic_exact",
    "expansion_residuals",
]

MAX_K = 8
MAX_BITS = 1 << 14


def zeta_upper(k: int) -> Fraction:
    """A rational upper bound for zeta(k), k >= 2.

    Partial sum to cutoff = 40 plus the integral tail bound
    sum_{n>cutoff} n^-k <= cutoff^(1-k)/(k-1).
    """
    if k < 2:
        raise PreconditionError("zeta_upper needs k >= 2")
    cutoff = 40
    part = sum(Fraction(1, n**k) for n in range(1, cutoff + 1))
    return part + Fraction(1, (k - 1) * cutoff ** (k - 1))


ZETA4_UPPER = zeta_upper(4)
# rational upper bound for e, used in geometric tail majorants
E_UPPER = Fraction(27183, 10000)
# the coefficient of tail_remainder_bound's first term
_TAIL_COEF = ZETA4_UPPER * E_UPPER


def alpha_partial(k: int, n_terms: int) -> Fraction:
    """Exact partial sum sum_{n=1}^{n_terms} sigma_k(n)/n!."""
    if k < 1 or n_terms < 1:
        raise PreconditionError("alpha_partial needs k >= 1 and n_terms >= 1")
    # n_terms is at most a few thousand: single values factor faster in
    # pure Python than numpy loads
    return Fraction(*factorial_series([sigma_k(n, k) for n in range(1, n_terms + 1)], 1))


def _majorant(k: int) -> tuple[int, Fraction]:
    """(kk, coef) with sigma_k(n) <= coef n^kk for every n >= 1."""
    if k < 1:
        raise PreconditionError("tail_bound needs k >= 1")
    return (k, zeta_upper(k)) if k >= 2 else (2, Fraction(1))


def tail_bound(k: int, n0: int) -> Fraction:
    """Rational majorant for sum_{n > n0} sigma_k(n)/n!.

    For k >= 2, sigma_k(n) <= zeta(k) n^k; for k = 1, sigma_1(n) <= n^2.
    With the effective exponent kk, consecutive majorant terms shrink by
    e^(kk/n)/(n+1) <= e/(n0+2) <= 1/2 once n0 >= max(kk, 5), so the tail
    is at most twice its first term.
    """
    kk, coef = _majorant(k)
    if n0 < max(kk, 5):
        raise PreconditionError(f"tail_bound needs n0 >= {max(kk, 5)} for k={k}")
    return 2 * coef * Fraction((n0 + 1) ** kk, math.factorial(n0 + 1))


def terms_needed(k: int, bits: int) -> int:
    """Smallest n0 (>= max(k,5)) with tail_bound(k, n0) <= 2^-(bits+1),
    tested as 2 coef (n0+1)^kk 2^(bits+1) <= (n0+1)! in integers."""
    kk, coef = _majorant(k)
    scale = 2 * coef.numerator << (bits + 1)
    n0 = max(k, 2, 5)
    fact = math.factorial(n0 + 1)
    while scale * (n0 + 1) ** kk > coef.denominator * fact:
        n0 += 1
        fact *= n0 + 1
    return n0


def alpha_k(k: int, target_precision: int = 128) -> BigRealWithError:
    """Certified value of sum_n sigma_k(n)/n! with err <= 2^-target_precision."""
    import mpmath as mp
    from .bigreal import BigRealWithError
    if not 1 <= k <= MAX_K:
        raise PreconditionError(f"k must be in 1..{MAX_K}, got {k}")
    if not 1 <= target_precision <= MAX_BITS:
        raise PreconditionError(f"target_precision must be in 1..{MAX_BITS}")
    n0 = terms_needed(k, target_precision)
    partial = alpha_partial(k, n0)
    tail = tail_bound(k, n0)
    with mp.workprec(target_precision + 64):
        out = BigRealWithError.exact(partial).widen(tail)
        if out.err > mp.ldexp(mp.mpf(1), -target_precision):
            raise PreconditionError(
                "internal: certified radius exceeds the requested precision"
            )
    return out


# -- the tail at a prime ----------------------------------------------------


def factorial_series(values: list[int], a: int, num: int = 0, d: int = 1) -> tuple[int, int]:
    """(num, d) with d = a (a+1) ... (a+len(values)-1) and num/d =
    sum_i values[i] / (a (a+1) ... (a+i)), by integer Horner from the top;
    no gcd is taken, so a caller can compare num/d in integers. A given
    (num, d), the series from a + len(values) on, is continued."""
    for n in range(a + len(values) - 1, a - 1, -1):
        num = values[n - a] * d + num
        d *= n
    return num, d


def sigma4_window_bytes(count: int, p_max: int, j_max: int) -> int:
    """The bytes sigma4_windows charges for count windows of j_max + 1
    values, the largest reaching p_max + j_max: a term per value and one
    for the sieving primes, whatever the count."""
    # a value peaks at up to 120 bytes: its int64 columns, its sigma_4 and the leftover
    # prime's term (tracemalloc: 100 to 116, at 13 to 50 bits); a sieving prime q <= L
    # at 48, its int64, list slot and int, and there are at most 1.25506 L / ln L of them
    # (Rosser and Schoenfeld, Illinois J. Math. 6, 1962)
    top = max(2, min(math.isqrt(p_max + j_max), 1 << 16))
    return count * (j_max + 1) * 120 + 48 * math.ceil(1.25506 * top / math.log(top))


# sigma4_windows sieves a block of primes whose windows it charges at most
# this much: 424 primes at p <= 10^6 and j_max = 40. Their Python ints cost
# more RSS than traced bytes: 4 MiB (852 primes) peaked tail_identity at
# 39.0-39.3 MB, above special_set's 39.05 MB; with 2 MiB it stays at the
# 37.6 MB it holds before its first block
WINDOW_BLOCK_BYTES = 2 << 20


def sigma4_windows(primes: list[int], j_max: int):
    """For each p in primes, in order, [sigma_4(p), sigma_4(p+1), ...,
    sigma_4(p+j_max)]: every value the tail sums at p read, p + j_max < 2^63.
    The windows are sieved a block of primes at a time, as many as
    WINDOW_BLOCK_BYTES of charge holds (at least one), each block as
    arith.sieve_runs' runs: each (q, e) it yields multiplies sigma_4(q^e)
    into its value's column, and each prime q it leaves q^4 + 1. The (q, e)
    must multiply back to every value (require_products), or
    PreconditionError."""
    import numpy as np
    width, p_max = j_max + 1, max(primes, default=0)
    sieving = sigma4_window_bytes(0, p_max, j_max)
    block = max(1, (WINDOW_BLOCK_BYTES - sieving) // (sigma4_window_bytes(1, p_max, j_max) - sieving))
    count = min(block, len(primes))
    require_budget(sigma4_window_bytes(count, p_max, j_max), f"sigma_4 windows of {count * width} values")
    if min(primes, default=1) < 1 or p_max + j_max >= 2**63:
        raise PreconditionError(f"sigma4_windows needs 1 <= p, p + j_max < 2^63; got {min(primes)}..{p_max}")
    for i in range(0, len(primes), block):
        values = (np.array(primes[i : i + block], dtype=np.int64)[:, None] + np.arange(width)).ravel()
        acc = np.ones(values.size, dtype=object)  # sigma_4 of the pairs found so far
        back, mag = np.ones_like(values), np.ones(values.size)  # their product, as require_products reads it
        for rows, q, e in sieve_runs(values, width):
            back[rows] *= q**e
            mag[rows] *= np.float64(q) ** e
            if isinstance(q, int):
                q4 = q**4
                acc[rows] *= np.array([(q4 ** (k + 1) - 1) // (q4 - 1) for k in range(e.max() + 1)], dtype=object)[e]
            else:  # the primes left over, each once, as an int64 column; 0 where none is
                left = np.zeros_like(values)
                left[rows] = q
        require_products(back, mag, values)
        del values, back, mag  # so the peak holds the sigma_4 columns and not these
        left = left.astype(object)
        left **= 4  # in place, so each new term replaces its prime
        left += 1  # 0^4 + 1 = 1 = sigma_4(1)
        acc *= left
        del left
        yield from acc.reshape(-1, width).tolist()


def factorial_tail_exact(p: int, n1: int) -> Fraction:
    """Exact (p-1)! * sum_{n=p}^{n1} sigma_4(n)/n!, from p's sigma_4 window.

    (p-1)!/n! collapses to 1/(p(p+1)...n), so no large factorials appear.
    """
    if p < 2 or n1 < p:
        raise PreconditionError("factorial_tail_exact needs 2 <= p <= n1")
    return Fraction(*factorial_series(next(sigma4_windows([p], n1 - p)), p))


def tail_remainder_bound(p: int, j_from: int) -> Fraction:
    """Majorant for (p-1)! sum_{n >= p+j_from} sigma_4(n)/n!, j_from >= 4.

    Each term is at most ZETA4_UPPER (p+j)^4 / (p...(p+j)); the term
    ratio is below e^(4/(p+j))/(p+j+1) <= 1 - 1/E_UPPER for p >= 2 and
    j >= 4, so the sum is at most E_UPPER times its first term.
    """
    if p < 2 or j_from < 4:
        raise PreconditionError("remainder bound needs p >= 2 and j_from >= 4")
    a, b = tail_remainder_scaled(p, j_from)
    return Fraction(a, b * math.prod(range(p, p + j_from)))


def tail_remainder_scaled(p: int, j_from: int) -> tuple[int, int]:
    """(a, b) with tail_remainder_bound(p, j_from) = a / (b p (p+1) ... (p+j_from-1)),
    for a caller that holds that product and compares in integers."""
    return _TAIL_COEF.numerator * (p + j_from) ** 3, _TAIL_COEF.denominator


@dataclass(frozen=True)
class TailExpansion:
    """Four leading terms of (p-1)! sum_{n>=p} sigma_4(n)/n!, plus a tail bound,
    held as integers.

    Term j = 0..3 is sigma4[j] / (p (p+1) ... (p+j)), sigma4[j] = sigma_4(p+j);
    bound = (a, b), b >= 1, is tail_remainder_scaled(p, 4): a / (b p (p+1)
    (p+2) (p+3)) majorizes everything from n = p+4 on. terms and
    remainder_bound build their Fractions on demand.
    """

    p: int
    sigma4: tuple[int, int, int, int]
    bound: tuple[int, int]

    def __post_init__(self):
        a, b = self.bound
        if a < 0 or b < 1:
            raise PreconditionError("remainder bound must be nonnegative")
        # a / (b p (p+1) (p+2) (p+3)) > 6/p, in integers
        if a * self.p > 6 * b * math.prod(range(self.p, self.p + 4)):
            raise PreconditionError(
                f"remainder bound {float(self.remainder_bound):.4g} exceeds 6/p at p={self.p}"
            )

    @property
    def terms(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return tuple(Fraction(v, math.prod(range(self.p, self.p + j + 1))) for j, v in enumerate(self.sigma4))

    @property
    def remainder_bound(self) -> Fraction:
        a, b = self.bound
        return Fraction(a, b * math.prod(range(self.p, self.p + 4)))

    def leading_pair(self) -> tuple[int, int]:
        """(num, d), d = p (p+1) (p+2) (p+3), with num/d the four terms' sum."""
        return factorial_series(list(self.sigma4), self.p)


def tail_expansion(p: int, sigma4: list[int] | None = None) -> TailExpansion:
    """The four-term expansion at a prime p >= 11, read from sigma4, p's
    sigma4_windows entry (sieved here when not given). p is prime exactly
    when sigma_4(p) = p^4 + 1, since any other divisor d adds d^4."""
    if p < 11:
        raise PreconditionError(f"tail_expansion needs p >= 11, got {p}")
    if sigma4 is None:
        sigma4 = next(sigma4_windows([p], 3))
    if sigma4[0] != p**4 + 1:
        raise PreconditionError(f"tail_expansion needs a prime, got {p}")
    return TailExpansion(p=p, sigma4=tuple(sigma4[:4]), bound=tail_remainder_scaled(p, 4))


def tail_partial(p: int, j_max: int, sigma4: list[int] | None = None) -> tuple[Fraction, Fraction]:
    """Exact sum of tail terms j = 4..j_max, plus a bound for j > j_max,
    read from sigma4, p's sigma4_windows entry (sieved here when not given)."""
    if j_max < 4:
        raise PreconditionError("tail_partial needs j_max >= 4")
    if sigma4 is None:
        sigma4 = next(sigma4_windows([p], j_max))
    if len(sigma4) <= j_max:
        raise PreconditionError(f"sigma4 window ends at p+{len(sigma4) - 1}, p+{j_max} needed")
    num, d = factorial_series(sigma4[4 : j_max + 1], p + 4)
    return Fraction(num, d * math.prod(range(p, p + 4))), tail_remainder_bound(p, j_max + 1)


# -- the near-integer statistic ---------------------------------------------


def _require_prime(p: int, r: int | None = None) -> None:
    """Refuse a p that is not prime, or an r that is not a divisor > 1 of p+2."""
    if not is_prime(p):
        raise PreconditionError(f"expected a prime, got {p}")
    if r is not None and (r <= 1 or (p + 2) % r != 0):
        raise PreconditionError(f"r={r} must be a divisor > 1 of p+2 = {p + 2}")


def prop1_ratio(p: int, sigma4_p1: int, r: int | None = None) -> tuple[int, int]:
    """(a, den), den > 0, with a/den = || sigma_4(p+1)/(p(p+1)) + 1/16 [+ (p+1)/r^4] ||
    given sigma_4(p+1); no gcd is taken, so a caller can compare a/den
    with a rational in integers.

    The caller vouches that p is prime and that r, if given, is a divisor
    > 1 of p+2; the public statistics below check both.
    """
    num, den = 16 * sigma4_p1 + p * (p + 1), 16 * p * (p + 1)
    if r is not None:
        num, den = num * r**4 + 16 * p * (p + 1) ** 2, den * r**4
    f = num % den
    return min(f, den - f), den


def prop1_statistic_exact(p: int, r: int | None = None) -> Fraction:
    """Exact || sigma_4(p+1)/(p(p+1)) + 1/16 [+ (p+1)/r^4] || at a prime p,
    r a divisor > 1 of p+2 when given."""
    _require_prime(p, r)
    return Fraction(*prop1_ratio(p, sigma_k(p + 1, 4), r))


# -- residuals of the term-by-term expansion ---------------------------------


def _divisor_defect_bound(m: int) -> Fraction:
    """Bound for sigma_4(m)/m^4 - 1 = sum_{d|m, d>1} d^-4 via the least factor.

    Divisors above q0 are distinct integers, so their fourth-power
    reciprocals are dominated by q0^-4 plus the integral tail q0^-3/3.
    """
    if m == 1:
        return Fraction(0)
    q0 = factorize(m)[0][0]
    return Fraction(1, q0**4) + Fraction(1, 3 * q0**3)


def expansion_residuals(p: int, r: int | None = None, j_max: int = 32, sigma4: list[int] | None = None) -> list[dict]:
    """Labeled residuals of the four-term expansion at a prime p, read from
    sigma4, p's sigma4_windows entry to p + max(j_max, 3) (sieved here when not given).

    Each row is {label, value, bound} with exact rational value and, for
    all rows except the reported-only one, an explicit rational bound
    that the value is asserted (by the test layer) to respect:

      p_term            sigma_4(p)/p - p^3, equal to 1/p exactly
      seventeen_sixteenths  (p = 3 mod 4 only) the (p+3)-term minus 17/16
      p2_split          inverse-cube substitution error in the (p+2)-term
      p2_divisor_tail   divisors of p+2 beyond the leading (and r) parts
      p2_quartic_drop   3 sigma_4(p+2)/(p+2)^4 - 3, reported without a bound
      tail_majorant     exact j>=4 partial sum + remainder vs the majorant
    """
    _require_prime(p, r)
    rows: list[dict] = []
    # sigma_4(p..p+j_max), to p+3 at least for the leading terms; tail_partial refuses j_max < 4
    window = next(sigma4_windows([p], max(j_max, 3))) if sigma4 is None else sigma4

    # n = p: sigma_4(p) = p^4 + 1, so the term is p^3 + 1/p on the nose
    v0 = Fraction(window[0], p) - p**3
    if v0 != Fraction(1, p):
        raise PreconditionError("sigma_4(p)/p - p^3 != 1/p; p is not prime")
    rows.append({"label": "p_term", "value": v0, "bound": Fraction(1, p)})

    # n = p+3: for p = 3 mod 4, (p+3)/2 is odd and sigma_4(p+3) = 17 sigma_4((p+3)/2)
    if p % 4 == 3:
        m = (p + 3) // 2
        v3 = Fraction(window[3], math.prod(range(p, p + 4))) - Fraction(17, 16)
        defect = _divisor_defect_bound(m)
        b3 = Fraction(17, 16) * (ZETA4_UPPER * Fraction(8, p) + defect)
        rows.append({"label": "seventeen_sixteenths", "value": v3, "bound": b3})

    # n = p+2: replacing 1/(p(p+1)(p+2)) by (p+2)^-3 + 3(p+2)^-4
    s4p2 = window[2]
    split = (
        Fraction(1, p * (p + 1) * (p + 2))
        - Fraction(1, (p + 2) ** 3)
        - Fraction(3, (p + 2) ** 4)
    )
    rows.append(
        {
            "label": "p2_split",
            "value": s4p2 * split,
            "bound": 16 * ZETA4_UPPER * Fraction(1, p + 2),
        }
    )

    # divisors of p+2 beyond d=1 (and beyond d=r when an r is singled out)
    n2 = p + 2
    dtail = Fraction(s4p2, n2**3) - n2
    if r is not None:
        dtail -= Fraction(n2, r**4)
    divisors = [1]
    for q, e in factorize(n2):
        divisors = [d * q**i for d in divisors for i in range(e + 1)]
    counted = [d for d in divisors if d not in (1, r)]
    if counted:
        q0 = min(counted)
        btail = n2 * (Fraction(1, q0**4) + Fraction(1, 3 * q0**3))
    else:
        btail = Fraction(0)
    rows.append({"label": "p2_divisor_tail", "value": dtail, "bound": btail})

    # the quartic term the expansion rounds to 3: reported, never asserted
    rows.append(
        {
            "label": "p2_quartic_drop",
            "value": Fraction(3 * s4p2, n2**4) - 3,
            "bound": None,
        }
    )

    # everything from n = p+4: exact partial plus remainder, against the majorant
    part, rem = tail_partial(p, j_max, window)
    rows.append(
        {
            "label": "tail_majorant",
            "value": part + rem,
            "bound": tail_remainder_bound(p, 4),
        }
    )
    return rows
