"""Exponential sums with exact-rational phase reduction.

Phases come in three shapes: a quadratic-plus-inverse phase in a single
variable, its restriction to an arithmetic progression n = v + r*l
rewritten in the progression variable, and the linear inner phase left
by double differencing. Coefficients are exact rationals (Fraction) in
all three; each spec computes them once (PhaseSpec.coefficients).

Every exact phase comes from one integer core: _phase_ratio(spec) does
the per-spec work once and returns n -> (N, D), phase(n) = N/D, with no
gcd. A residue is the double N % D / D; int/int true division is
correctly rounded, so it is the double float(phase % 1) would give.
_sum_e is the one e(t) kernel: it takes residue pairs (a, d) meaning
a/d, turns each into the double TAU * (a / d) once, and adds the cosines
and the sines with math.fsum, so each part is the correctly rounded sum
of its terms. The exact engine of eval_phase sums each fixed 4096-term
chunk that way and combines the chunk partials by a fixed-order pairwise
tree, so its result does not depend on the worker count. The Weyl inner
sums S_k and S_{k,l} difference one table of residue pairs (N mod D, D)
over products of denominators, and lemma61_ap_oracle feeds the pairs of
its own phase formula to _sum_e. The mpf engine runs one core,
_phase_raw, which replays on signed (mantissa, exponent) integer pairs
the libmp calls the mpf operator form makes, each rounded as libmp
rounds it (arith.round_nearest_int). mpmath is imported by the functions
that compute with it, so the exact and Weyl sums never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .arith import add_nearest_int, exact_rational, int_pair, require_budget, require_work, round_nearest_int, sigma_k
from .errors import PreconditionError

__all__ = [
    "PHASE_KINDS",
    "PhaseSpec",
    "ExpSumResult",
    "make_basic_phase",
    "make_lemma61_phase",
    "make_lemma62_inner_phase",
    "minus_inverse_residue",
    "phase_fraction",
    "required_prec_bits",
    "eval_phase",
    "lemma61_change_of_variables",
    "lemma61_ap_oracle",
    "weyl_difference_check",
    "f_ell_closed",
    "f_ell_integral",
    "f_ell_derivative",
    "f_ell_derivative_profile",
    "cancellation_scan",
    "SmoothingWindow",
    "smoothing_window",
]

PHASE_KINDS = ("basic", "lemma61", "lemma62_inner")
CHUNK = 4096
MAX_PREC_BITS = 2**16  # eval_phase refuses a finer explicit precision (the checks use 320)
TAU = 2 * math.pi
# bytes a cancellation_scan row holds: 7 or 8 fields, and lemma61's 11 (tracemalloc)
_SCAN_ROW_BYTES = {"random": 448, "resonant": 448, "lemma61": 704}


# -- specs ---------------------------------------------------------------


@dataclass(frozen=True)
class PhaseSpec:
    """A summation task: which phase, its coefficients, and the range (lo, hi].

    basic:         A (n^2 + n^-2) + B (n + n^-3)
    lemma61:       A1 (2 v r l + r^2 l^2 + (v + r l)^-2) + A2 r l + (h m / r^3) l
                   with A1 = h sigma_4(m)/m^2, A2 = h sigma_4(m)/m^3,
                   summed over the progression variable l
    lemma62_inner: C(l1, l2) * n, the linear phase of the innermost sum
                   after differencing twice with shift j
    """

    kind: str
    lo: int
    hi: int
    A: Fraction | None = None
    B: Fraction | None = None
    h: int = 0
    m: int = 0
    r: int = 0
    v: int = 0
    j: int = 0
    l1: int = 0
    l2: int = 0
    sigma4_m: int = 0

    def __post_init__(self):
        if self.kind not in PHASE_KINDS:
            raise PreconditionError(f"kind must be one of {PHASE_KINDS}, got {self.kind!r}")
        if self.hi < self.lo:
            raise PreconditionError(f"empty-ordered range ({self.lo}, {self.hi}]")

    @property
    def n_terms(self) -> int:
        return self.hi - self.lo

    @cached_property
    def coefficients(self) -> _Coefficients:
        """The phase coefficients, computed once per spec.

        basic:         A, B as given
        lemma61:       A = h sigma_4(m)/m^2, B = A/m, lin = h m / r^4
        lemma62_inner: A as for lemma61 and its slope C = C(l1, l2)
        """
        if self.kind == "basic":
            return _Coefficients(self.A, self.B)
        A = Fraction(self.h * self.sigma4_m, self.m**2)
        if self.kind == "lemma61":
            return _Coefficients(A, A / self.m, lin=Fraction(self.h * self.m, self.r**4))
        return _Coefficients(A, C=_slope62(A, self.j, self.r, self.l1, self.l2))


class _Coefficients(NamedTuple):
    A: Fraction
    B: Fraction | None = None
    lin: Fraction | None = None
    C: Fraction | None = None


def _slope62(A: Fraction, j: int, r: int, l1: int, l2: int) -> Fraction:
    """C(l1, l2) = A (2 j r^2 (l1 - l2) + r^-2 [(l1+j)^-2 - l1^-2 - (l2+j)^-2 + l2^-2])."""
    if l1 < 1 or l2 < 1:
        raise PreconditionError("l1, l2 must be >= 1")
    return A * (
        2 * j * r**2 * (l1 - l2)
        + Fraction(1, r**2)
        * (Fraction(1, (l1 + j) ** 2) - Fraction(1, l1**2) - Fraction(1, (l2 + j) ** 2) + Fraction(1, l2**2))
    )


def make_basic_phase(A, B, lo: int, hi: int) -> PhaseSpec:
    if lo < 0:
        raise PreconditionError("basic phase needs lo >= 0 (n^-2 requires n >= 1)")
    return PhaseSpec(kind="basic", lo=lo, hi=hi, A=exact_rational(A, "A"), B=exact_rational(B, "B"))


def minus_inverse_residue(m: int, r: int) -> int:
    """The representative of -m^(-1) mod r in (-r/2, r/2]."""
    if r < 2:
        raise PreconditionError(f"modulus r must be >= 2, got {r}")
    if math.gcd(m, r) != 1:
        raise PreconditionError(f"m={m} is not invertible mod r={r}")
    v = (-pow(m, -1, r)) % r
    if 2 * v > r:
        v -= r
    return v


def make_lemma61_phase(h: int, m: int, r: int, lo: int, hi: int, v: int | None = None) -> PhaseSpec:
    if m < 1 or r < 2:
        raise PreconditionError("need m >= 1 and r >= 2")
    if math.gcd(m, r) != 1:
        raise PreconditionError(f"m={m} and r={r} must be coprime")
    if lo < 0:
        raise PreconditionError("progression variable range needs lo >= 0")
    if v is None:
        v = minus_inverse_residue(m, r)
    else:
        if not -r < 2 * v <= r:
            raise PreconditionError(f"|v|={abs(v)} must satisfy -r/2 < v <= r/2")
        if (m * v + 1) % r != 0:
            raise PreconditionError(f"v={v} is not -m^(-1) mod r")
    return PhaseSpec(
        kind="lemma61", lo=lo, hi=hi, h=h, m=m, r=r, v=v, sigma4_m=sigma_k(m, 4)
    )


def make_lemma62_inner_phase(
    h: int, m: int, r: int, j: int, l1: int, l2: int, lo: int, hi: int
) -> PhaseSpec:
    if m < 1 or r < 1 or j < 1:
        raise PreconditionError("need m >= 1, r >= 1, j >= 1")
    if l1 < 1 or l2 < 1:
        raise PreconditionError("shift variables l1, l2 must be >= 1")
    return PhaseSpec(
        kind="lemma62_inner",
        lo=lo,
        hi=hi,
        h=h,
        m=m,
        r=r,
        j=j,
        l1=l1,
        l2=l2,
        sigma4_m=sigma_k(m, 4),
    )


# -- coefficients and phase values -----------------------------------------


def _phase_ratio(spec: PhaseSpec):
    """n -> (N, D) with phase(n) = N/D, D > 0 and no gcd taken.

    basic:         (n^4 + 1)(a n + b) / (d0 n^3), with A = a/d0, B = b/d0
    lemma61:       (a ((q^2 - v^2) q^2 + 1) + b n q^2) / (d0 q^2), q = v + r n,
                   with A = a/d0, (B + lin) r = b/d0 (2 v r n + r^2 n^2 = q^2 - v^2)
    lemma62_inner: (C.num n, C.den)
    """
    c = spec.coefficients
    if spec.kind == "lemma62_inner":
        num, den = c.C.numerator, c.C.denominator
        return lambda n: (num * n, den)
    # lemma61: B r l + (h m / r^3) l = (B + lin) r l
    second = c.B if spec.kind == "basic" else (c.B + c.lin) * spec.r
    d0 = math.lcm(c.A.denominator, second.denominator)
    a, b = c.A.numerator * (d0 // c.A.denominator), second.numerator * (d0 // second.denominator)
    v, r = spec.v, spec.r

    def basic(n):
        if n == 0:
            raise PreconditionError("basic phase is undefined at n = 0")
        n3 = n * n * n
        return (n3 * n + 1) * (a * n + b), d0 * n3

    def lemma61(n):
        q2 = (v + r * n) ** 2
        if q2 == 0:
            raise PreconditionError("progression hits v + r l = 0")
        return a * ((q2 - v * v) * q2 + 1) + b * n * q2, d0 * q2

    return basic if spec.kind == "basic" else lemma61


def phase_fraction(spec: PhaseSpec, n: int) -> Fraction:
    """The exact phase value at index n."""
    return Fraction(*_phase_ratio(spec)(n))


def _phase_raw(spec: PhaseSpec, prec: int):
    """n -> the phase at n as a signed (mantissa, exponent) pair at prec
    bits, round-nearest (the rounding of mpmath's context).

    The core of the mpf engine. It reads the coefficients and never
    _phase_ratio, so the two engines check each other. Each coefficient is
    rounded once from its exact value, at prec. Every step then replays in integers the
    libmp call that the mpf operator form of the phase makes, with the
    same precision and rounding, so the bits are those of the expressions

        basic:         A (n^2 + 1/n^2) + B (n + 1/n^3)
        lemma61:       A (2 v r n + r^2 n^2 + 1/mpf(v + r n)^2) + (B + lin) r n
        lemma62_inner: C n

    with n = mpf(n): mpf(int) is from_int(n, prec, rnd), int + mpf adds
    from_int(int) unrounded, 1/x is mpf_rdiv_int and int * x mpf_mul_int.
    All but _cube are correctly rounded: the exact result rounded once.
    Values the operator form computes twice (n^2, and (B + lin) r in every
    term) are computed once; nothing is reordered or fused.
    """
    from mpmath.libmp import from_rational, round_nearest
    rn, add = round_nearest_int, add_nearest_int
    A, B, lin, C = (None if x is None else int_pair(from_rational(x.numerator, x.denominator, prec, round_nearest))
                    for x in spec.coefficients)

    def mul(x, y):  # mpf_mul
        return rn(x[0] * y[0], x[1] + y[1], prec)

    if spec.kind == "basic":

        def basic(n):
            if n == 0:
                raise PreconditionError("basic phase is undefined at n = 0")
            nn = rn(n, 0, prec)
            n2 = mul(nn, nn)  # mpf_pow_int(nn, 2) squares exactly, then rounds
            a_term = mul(A, add(n2, _inv(n2, prec), prec))
            b_term = mul(B, add(nn, _inv(_cube(nn, prec), prec), prec))
            return add(a_term, b_term, prec)

        return basic
    if spec.kind == "lemma61":
        v, r = spec.v, spec.r
        slope = mul(add(B, lin, prec), (r, 0))

        def lemma61(n):
            q = rn(v + r * n, 0, prec)
            poly = add(_inv(mul(q, q), prec), (2 * v * r * n + r**2 * n**2, 0), prec)
            return add(mul(A, poly), mul(slope, rn(n, 0, prec)), prec)

        return lemma61
    return lambda n: mul(C, rn(n, 0, prec))


def _inv(x, prec: int):
    """mpf_rdiv_int(1, x): prec + 2 quotient bits and a sticky bit, rounded."""
    (m, e), k = x, prec + 1 + x[0].bit_length()
    q, r = divmod(1 << k, abs(m))
    return round_nearest_int((q << 1 | (r > 0)) * (1 if m > 0 else -1), -e - k - 1, prec)


def _cube(x, prec: int):
    """mpf_pow_int(x, 3): exact while the odd part of the mantissa has bc
    bits, 3 bc < 1000; past that, libmp truncates a^2, then a a^2, to
    prec + 12 bits before it rounds."""
    (m, e), w = x, prec + 12
    if 3 * (m.bit_length() - (m & -m).bit_length() + 1) < 1000:
        return round_nearest_int(m**3, 3 * e, prec)
    a = abs(m)
    k = max((a * a).bit_length() - w, 0)
    p = a * (a * a >> k)
    j = max(p.bit_length() - w, 0)
    return round_nearest_int(p >> j if m > 0 else -(p >> j), 3 * e + k + j, prec)


def required_prec_bits(spec: PhaseSpec) -> int:
    """Working precision for the mpf engine: bits of the largest phase plus 64.

    The size is summed as in floats, each input and step rounded once to
    53 bits, but on mpf, whose exponent has no ceiling; its int(log2) adds
    the exponent to math.log2 of the mantissa, as math.log2 rounds it."""
    import mpmath as mp
    from mpmath.libmp import from_rational, round_nearest
    hi, c = max(abs(spec.lo) + 1, abs(spec.hi), 1), spec.coefficients

    def d(x):  # float(x) of a Fraction or int
        return mp.make_mpf(from_rational(x.numerator, x.denominator, 53, round_nearest))

    with mp.workprec(53):
        if spec.kind == "basic":
            mag = (abs(d(c.A)) + 1) * d(hi) * d(hi) + (abs(d(c.B)) + 1) * d(hi)
        elif spec.kind == "lemma61":
            mag = (abs(d(c.A)) + 1) * d((spec.r * hi + abs(spec.v)) ** 2) + d(abs(spec.h) * spec.m * hi)
        else:
            mag = (abs(d(c.C)) + 1) * d(hi)
        man, exp = (mag + 2).man_exp
    bc = man.bit_length()
    return max(64, int(exp + bc - 1 + math.log2(man / 2 ** (bc - 1)))) + 64


# -- deterministic summation ------------------------------------------------


def _sum_e(pairs) -> complex:
    """The sum of e(a/d) over residue pairs (a, d), 0 <= a < d: each term's
    angle is TAU * (a / d), and each part is its terms correctly rounded
    (math.fsum). It holds one float a term."""
    ts = [TAU * (a / d) for a, d in pairs]
    return complex(math.fsum(map(math.cos, ts)), math.fsum(map(math.sin, ts)))


def _chunk_exact(args) -> complex:
    spec, a, b = args
    return _sum_e((N % D, D) for N, D in map(_phase_ratio(spec), range(a + 1, b + 1)))


def _tree_reduce(parts: list[complex]) -> complex:
    while len(parts) > 1:
        nxt = []
        for i in range(0, len(parts) - 1, 2):
            nxt.append(parts[i] + parts[i + 1])
        if len(parts) % 2:
            nxt.append(parts[-1])
        parts = nxt
    return parts[0] if parts else 0j


@dataclass(frozen=True)
class ExpSumResult:
    """value may be a complex or an mpc; normalized_modulus = |value|/n_terms."""

    value: object
    n_terms: int
    normalized_modulus: float


def eval_phase(
    spec: PhaseSpec,
    threads: int = 1,
    engine: str | None = None,
    prec_bits: int | None = None,
) -> ExpSumResult:
    """Sum e(phase(n)) over n in (lo, hi].

    engine "exact" reduces each integer phase pair (N, D) to the correctly
    rounded double N % D / D and sums the unit vectors with _sum_e, each
    part correctly rounded. Engine "mpf" works at 1 <= prec_bits <= MAX_PREC_BITS
    (default: enough for the largest phase plus 64 guard bits, refused
    past the cap too) on integer (mantissa, exponent) pairs, round-nearest:
    the phase from _phase_raw, its fraction 2 (ph - floor ph) rounded as
    mpf_sub rounds it, one mpf_cos_sin_pi call (what mp.cospi_sinpi wraps;
    not correctly rounded, so libmp's) for cos and sin, and two sums
    rounded as mpf_add rounds them, so the bits are those of the same steps
    on mpf objects; one mpc is built at the end.
    Both engines read the same exact coefficients; the default is "exact".
    """
    n = spec.n_terms
    require_work(n, f"{n} terms")
    engine = "exact" if engine is None else engine
    if engine not in ("exact", "mpf"):
        raise PreconditionError(f"engine must be 'exact' or 'mpf', got {engine!r}")
    prec = required_prec_bits(spec) if engine == "mpf" and prec_bits is None else prec_bits
    if prec is not None and not 1 <= prec <= MAX_PREC_BITS:
        given = "" if prec_bits is not None else " (the default for this phase)"
        raise PreconditionError(f"prec_bits must be between 1 and {MAX_PREC_BITS}, got {prec}{given}")
    if n == 0:
        return ExpSumResult(value=0j, n_terms=0, normalized_modulus=0.0)

    if engine == "exact":
        bounds = list(range(spec.lo, spec.hi, CHUNK)) + [spec.hi]
        jobs = [(spec, a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        if threads > 1 and n >= 64 * CHUNK:  # 2^18 terms: on two CPUs the pool loses at 2e5, wins at 4e5
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(_chunk_exact, jobs, chunksize=4))
        else:
            parts = [_chunk_exact(j) for j in jobs]
        total = _tree_reduce(parts)
        mod = abs(total)
    else:
        import mpmath as mp
        from mpmath.libmp import from_man_exp, mpf_cos_sin_pi, round_nearest
        rnd, add = round_nearest, add_nearest_int
        phase = _phase_raw(spec, prec)
        re = im = (0, 0)
        for k in range(spec.lo + 1, spec.hi + 1):
            m, e = phase(k)
            # ph - floor(ph) is exact unless -1 < ph < 0; mpf_sub rounds it
            m, e = round_nearest_int(m & ((1 << -e) - 1), e, prec) if e < 0 else (0, 0)
            c, s = mpf_cos_sin_pi(from_man_exp(m, e + 1), prec, rnd)
            re = add(re, int_pair(c), prec)
            im = add(im, int_pair(s), prec)
        with mp.workprec(prec):
            total = mp.mpc(mp.make_mpf(from_man_exp(*re)), mp.make_mpf(from_man_exp(*im)))
            mod = float(abs(total))
    return ExpSumResult(value=total, n_terms=n, normalized_modulus=min(1.0, mod / n))


# -- progression rewrite checks ---------------------------------------------


def lemma61_change_of_variables(spec: PhaseSpec) -> dict:
    """Verify the rewrite of the basic phase along n = v + r l, exactly.

    With A = h sigma_4(m)/m^2 and B = h sigma_4(m)/m^3, for every l in
    the range:

        [A (n^2 + n^-2) + B (n + n^-3) + (h m / r^4) n] - phase(l)
            = A v^2 + B v + h m v / r^4 + B / n^3,   n = v + r l.

    The left side is the full single-variable phase (with its linear
    completion) minus the progression phase; the right side is a
    constant plus the cubic-inverse term the progression phase drops.
    Equality is checked as Fraction identities, term by term.
    """
    if spec.kind != "lemma61":
        raise PreconditionError("change-of-variables check needs a lemma61 spec")
    A, B, lin, _ = spec.coefficients
    const = A * spec.v**2 + B * spec.v + lin * spec.v
    max_dropped = Fraction(0)
    for l in range(spec.lo + 1, spec.hi + 1):
        n = spec.v + spec.r * l
        single = A * (Fraction(n**2) + Fraction(1, n**2)) + B * (n + Fraction(1, n**3)) + lin * n
        diff = single - phase_fraction(spec, l)
        dropped = B * Fraction(1, n**3)
        if diff != const + dropped:
            return {
                "ok": False,
                "first_failure_l": l,
                "constant": const,
                "mismatch": diff - (const + dropped),
            }
        if abs(dropped) > max_dropped:
            max_dropped = abs(dropped)
    return {
        "ok": True,
        "constant": const,
        "max_dropped_term": max_dropped,
        "checked_terms": spec.n_terms,
    }


def lemma61_ap_oracle(spec: PhaseSpec) -> float:
    """|sum over the progression of e(A(n^2+n^-2) + B n + (h m / r^4) n)|.

    This equals |eval_phase(spec).value| exactly: the two phase families
    differ by a constant phase (modulus-invariant) once the B n^-3 term
    is dropped from both.
    """
    if spec.kind != "lemma61":
        raise PreconditionError("the progression oracle needs a lemma61 spec")
    A, B, lin, _ = spec.coefficients
    ns = (spec.v + spec.r * l for l in range(spec.lo + 1, spec.hi + 1))
    return abs(_sum_e(((A * (Fraction(n**2) + Fraction(1, n**2)) + (B + lin) * n) % 1).as_integer_ratio()
                      for n in ns))


# -- differencing ------------------------------------------------------------


def _diff_mod1(R: list, k: int):
    """(R[i+k] - R[i]) mod 1, one at a time, for residue pairs (a, d) meaning a/d,
    0 <= a < d, each over the product of its two denominators (twice: over four), no gcd."""
    return (((b * d - a * e) % (d * e), d * e) for (a, d), (b, e) in zip(R, R[k:]))


def weyl_difference_check(spec: PhaseSpec, K: int, L: int | None = None) -> dict:
    """Compare |S|^2 (and |S|^4) against differenced right-hand sides.

    First display (a theorem for 1 <= K <= N, boundary-restricted inner
    sums S_k over n with both n and n+k in range):

        |S|^2 <= 3 ( N^2/K + (N/K) sum_{1<=|k|<=K} |S_k| ).

    Second display (reported with the same constant; in the operating
    ranges exercised here the N^4/K^2 and N^3 max|S_{k,l}| terms leave
    wide slack):

        |S|^4 <= 3 ( N^4/K^2 + N^4/L + N^3 max_{k<=K, l<=L} |S_{k,l}| ).
    """
    N = spec.n_terms
    if not 1 <= K <= N:
        raise PreconditionError(f"need 1 <= K <= N = {N}, got K = {K}")
    if L is not None and not 1 <= L <= N:
        raise PreconditionError(f"need 1 <= L <= N = {N}, got L = {L}")
    inner = K * N * (1 + (L or 0))  # at most N terms in each S_k and S_{k,l}
    require_work(inner, f"{inner} inner terms of the Weyl sums")
    ratio = _phase_ratio(spec)
    # one table of N pairs of b-bit ints lives beside one of S_k's 2b-bit pairs,
    # its Rk[l:] slice and _sum_e's N floats; S_{k,l}'s pairs stream into those
    # floats. A pair holds a list slot, a tuple and two ints of 28 + 4 ceil(w / 30)
    # bytes, a float 24 bytes and its slot, a slice slot 8 (CPython, tracemalloc).
    # The fixed 64 KiB covers the frames, fsum's partials and the tuples CPython's
    # free list keeps from an earlier sum in the same process
    b = max(ratio(n)[1].bit_length() for n in (spec.lo + 1, spec.hi))
    need = N * (40 + sum(120 + 8 * -(-w // 30) for w in (b, 2 * b))) + (1 << 16)
    require_budget(need, f"Weyl residue tables of {N} terms")
    S = abs(eval_phase(spec).value)
    # R[i]: the residue of n = lo+1+i as (N mod D, D)
    R = [(N % D, D) for N, D in map(ratio, range(spec.lo + 1, spec.hi + 1))]
    sum_sk = 0.0
    max_skl = 0.0
    for k in range(1, K + 1):
        Rk = list(_diff_mod1(R, k))  # each S_{k,l} reads it
        sum_sk += 2 * abs(_sum_e(Rk))  # |S_-k| = |S_k|
        for l in range(1, (L or 0) + 1):
            max_skl = max(max_skl, abs(_sum_e(_diff_mod1(Rk, l))))
        del Rk  # so the next S_k's table is not built beside this one
    lhs2 = S**2
    rhs2 = 3 * (N**2 / K + (N / K) * sum_sk)
    out = {
        "n_terms": N,
        "K": K,
        "abs_sum": S,
        "first_lhs": lhs2,
        "first_rhs": rhs2,
        "first_ratio": lhs2 / rhs2 if rhs2 else float("inf"),
        "first_ok": lhs2 <= rhs2,
        "first_is_theorem": True,
    }
    if L is not None:
        lhs4 = S**4
        rhs4 = 3 * (N**4 / K**2 + N**4 / L + N**3 * max_skl)
        out.update(
            {
                "L": L,
                "max_inner_abs": max_skl,
                "second_lhs": lhs4,
                "second_rhs": rhs4,
                "second_ratio": lhs4 / rhs4 if rhs4 else float("inf"),
                "second_ok": lhs4 <= rhs4,
                "second_is_theorem": False,
            }
        )
    return out


# -- the differenced amplitude function ---------------------------------------


def _delta2(g, n, k, l):
    return g(n) - g(n + k) - g(n + l) + g(n + k + l)


def _require_positive(k: int, l: int, n) -> None:
    if min(n, n + k, n + l, n + k + l) <= 0:
        raise PreconditionError("arguments must stay positive")


def f_ell_closed(A, B, k: int, l: int, n) -> Fraction:
    """A [n^-2 - (n+k)^-2 - (n+l)^-2 + (n+k+l)^-2] + B [same with cubes]:
    the derivative of order 0."""
    _require_positive(k, l, n)
    return f_ell_derivative(A, B, k, l, n, 0)


def f_ell_integral(A, B, k: int, l: int, n) -> Fraction:
    """The same amplitude as the exact wedge integral.

    f is the integral of g(n+s+t), g(u) = 6 A u^-4 + 12 B u^-5, over
    [0,k] x [0,l]; with w = s + t it is int_0^(k+l) g(n+w) K(w) dw, where
    K(w) = min(w, min(k,l), k+l-w) is the length of the segment s + t = w
    inside the rectangle. Between K's corners min(k,l) and max(k,l),
    K(w) = a w + b; with u = n + w and c = b - a n, (a u + c) g(u) has the
    antiderivative -3 A a u^-2 - (2 A c + 4 B a) u^-3 - 3 B c u^-4, so each
    piece, and the sum, is an exact rational.
    """
    _require_positive(k, l, n)
    A, B, n = Fraction(A), Fraction(B), Fraction(n)

    def antiderivative(u, a, c):
        return -(3 * A * a + (2 * A * c + 4 * B * a + 3 * B * c / u) / u) / u**2

    lo, hi = min(k, l), max(k, l)
    total = Fraction(0)
    for w0, w1, a, b in ((0, lo, 1, 0), (lo, hi, 0, lo), (hi, k + l, -1, k + l)):
        total += antiderivative(n + w1, a, b - a * n) - antiderivative(n + w0, a, b - a * n)
    return total


def f_ell_derivative(A, B, k: int, l: int, n, j: int) -> Fraction:
    """Exact j-th derivative in n: inverse powers differentiate termwise."""
    if j < 0:
        raise PreconditionError("derivative order must be >= 0")
    A, B = Fraction(A), Fraction(B)
    n = Fraction(n)
    sign = -1 if j % 2 else 1
    ca = math.factorial(j + 1)          # d^j n^-2 = (-1)^j (j+1)! n^-(2+j)
    cb = math.factorial(j + 2) // 2     # d^j n^-3 = (-1)^j ((j+2)!/2) n^-(3+j)
    sq = _delta2(lambda t: 1 / t ** (2 + j), n, k, l)
    cu = _delta2(lambda t: 1 / t ** (3 + j), n, k, l)
    return sign * (A * ca * sq + B * cb * cu)


def f_ell_derivative_profile(A, B, k: int, l: int, Q: int, j_max: int = 4, samples: int = 9) -> dict:
    """Scaled derivative magnitudes of the amplitude over n in [Q, 2Q].

    For each order j <= j_max the ratio |f^(j)(n)| Q^(4+j) / (|A| k l)
    is reported against the bracket

        c1(j) = 0.9 (j+3)! / 2.5^(4+j),   c2(j) = 1.1 (j+3)!,

    which holds whenever Q >= 256, 1 <= k, l <= Q/4 and |B| <= |A|/Q
    (the mean-value argument places the A-term between (2.5Q)^-(4+j) and
    Q^-(4+j) times (j+3)! k l |A|, and the B-term is then a sub-percent
    correction). The sign of f itself is also compared against sign(A).
    """
    A, B = Fraction(A), Fraction(B)
    if A == 0:
        raise PreconditionError("A must be nonzero")
    if Q < 256:
        raise PreconditionError(f"profile brackets need Q >= 256, got {Q}")
    if not (1 <= k <= Q // 4 and 1 <= l <= Q // 4):
        raise PreconditionError("need 1 <= k, l <= Q/4")
    if abs(B) > abs(A) / Q:
        raise PreconditionError("need |B| <= |A|/Q for the stated brackets")
    if not 0 <= j_max <= 4:
        raise PreconditionError("j_max must be in 0..4")
    grid = [Q + (Q * i) // (samples - 1) for i in range(samples)]
    scale = abs(A) * k * l
    orders = []
    for j in range(j_max + 1):
        c1 = 0.9 * math.factorial(j + 3) / 2.5 ** (4 + j)
        c2 = 1.1 * math.factorial(j + 3)
        ratios = []
        for n in grid:
            val = f_ell_derivative(A, B, k, l, n, j)
            ratios.append(float(abs(val) * Fraction(Q) ** (4 + j) / scale))
        orders.append(
            {
                "j": j,
                "c1": c1,
                "c2": c2,
                "min_ratio": min(ratios),
                "max_ratio": max(ratios),
                "in_bracket": all(c1 <= rr <= c2 for rr in ratios),
            }
        )
    sign_ok = all(
        (f_ell_closed(A, B, k, l, n) > 0) == (A > 0) for n in grid
    )
    return {
        "Q": Q,
        "k": k,
        "l": l,
        "grid": grid,
        "orders": orders,
        "all_in_bracket": all(o["in_bracket"] for o in orders),
        "sign_matches_A": sign_ok,
    }


# -- cancellation surveys ------------------------------------------------------


def _dyadic_uniform(rng, lo: Fraction, hi: Fraction) -> Fraction:
    """An exact dyadic rational uniform in [lo, hi] at 53-bit resolution."""
    return lo + Fraction(rng.random()) * (hi - lo)


def _scan_row(family: str, spec: PhaseSpec, flag_above: float = math.inf, **labels) -> dict:
    """One survey row: the family, the labels in the order given (csv column
    order follows it), then the sum's size; flagged when |S|/sqrt(N) > flag_above."""
    res = eval_phase(spec)
    ratio = abs(res.value) / math.sqrt(res.n_terms)
    return {
        "family": family,
        **labels,
        "n_terms": res.n_terms,
        "abs_sum": abs(res.value),
        "normalized_modulus": res.normalized_modulus,
        "ratio_vs_sqrt": ratio,
        "flagged": ratio > flag_above,
    }


def cancellation_scan(
    family: str,
    count: int = 12,
    seed: int = 0,
    qs: tuple[int, ...] | None = None,
) -> dict:
    """Survey normalized moduli across a family of phase sums.

    family "random": basic phases with A dyadic-uniform in [Q^5, Q^6]
    and |B| <= |A|/Q^2, over n in (Q, 2Q], for Q in qs. The median of
    |S|/sqrt(N) per Q is reported; genuine cancellation keeps it O(1)
    and softly flat-to-decreasing in Q. Nothing is asserted here.

    family "resonant": rational A with tiny denominator; the sum locks
    onto few phase classes, the normalized modulus stays large, and the
    row is flagged rather than rejected.

    family "lemma61": progression sums at the operating scale x = 10^8
    (m near x/Q, r near x^(1/4), short l-ranges); magnitudes only.
    """
    import random

    if family not in _SCAN_ROW_BYTES:
        raise PreconditionError(f"unknown scan family {family!r}")
    if count < 1:
        raise PreconditionError(f"count must be >= 1, got {count}")
    qs = qs or ((1 << 10, 1 << 12, 1 << 14) if family == "random" else (1 << 10,))
    scales = 1 if family == "lemma61" else len(qs)  # lemma61 has the one scale x = 10^8
    require_budget(_SCAN_ROW_BYTES[family] * count * scales, f"{family} scan of {count} x {scales} rows")
    rng = random.Random(seed)
    rows: list[dict] = []
    if family == "random":
        for Q in qs:
            for _ in range(count):
                A = _dyadic_uniform(rng, Fraction(Q) ** 5, Fraction(Q) ** 6)
                B = A * Fraction(rng.random()) / Q**2
                rows.append(_scan_row(family, make_basic_phase(A, B, Q, 2 * Q), Q=Q))
    elif family == "resonant":
        dens = (2, 3, 4, 6, 8)
        for Q in qs:
            for i in range(count):
                q = dens[i % len(dens)]
                A = Fraction(1 + rng.randrange(q), q)
                spec = make_basic_phase(A, Fraction(0), Q, 2 * Q)
                rows.append(_scan_row(family, spec, flag_above=3.0, Q=Q, A_denominator=q))
    else:
        r, x_scale = 101, 10**8
        Q = round(x_scale ** 0.35)
        for i in range(count):
            m = x_scale // Q + rng.randrange(1, 50)
            while math.gcd(m, r) != 1:
                m += 1
            h = 1 + rng.randrange(3)
            spec = make_lemma61_phase(h, m, r, 0, max(16, Q // r))
            rows.append(_scan_row(family, spec, x_scale=x_scale, h=h, m=m, r=r, v=spec.v))
    medians: dict = {}
    for row in rows:
        key = row.get("Q", row.get("x_scale"))
        medians.setdefault(key, []).append(row["ratio_vs_sqrt"])
    med = {
        k: sorted(v)[len(v) // 2] for k, v in medians.items()
    }
    keys = sorted(med)
    soft_decreasing = all(med[keys[i + 1]] <= 2.0 * med[keys[i]] for i in range(len(keys) - 1))
    return {
        "family": family,
        "seed": seed,
        "rows": rows,
        "median_ratio_by_scale": med,
        "soft_nonincreasing": soft_decreasing,
        "flag_count": sum(1 for rr in rows if rr["flagged"]),
    }


# -- the smoothing window -------------------------------------------------------


@dataclass(frozen=True)
class SmoothingWindow:
    """A 1-periodic bump: the indicator of [-2 delta, 2 delta] convolved
    with a J-fold box convolution supported on [-delta, delta].

    Exactly 1 on [-delta, delta], exactly 0 outside [-3 delta, 3 delta]
    (mod 1), and C^(J-1) in between; values at rational points are exact
    rationals via the piecewise-polynomial spline CDF. Fourier
    coefficients are products of sinc powers:

        w_hat(h) = 4 delta sinc(4 delta h) sinc(2 delta h / J)^J,

    real and even, with w_hat(0) = 4 delta <= 8 delta and the decay
    |w_hat(h)| <= 8 delta (1 + |h| delta / J)^-J (grid-verified; the
    sinc factors give it analytically in the regimes |h| delta <= 0.69
    and |h| delta >= J/5, and the single-sinc bound 1/(pi h) covers the
    strip between for J <= 8).
    """

    delta: Fraction
    J: int

    def __post_init__(self):
        if not 0 < self.delta <= Fraction(1, 12):
            raise PreconditionError("delta must be in (0, 1/12]")  # an exact delta may be too long to print
        if not 1 <= self.J <= 8:
            raise PreconditionError(f"J must be in 1..8, got {self.J}")

    def _box_cdf(self, x: Fraction) -> Fraction:
        """CDF of the J-fold sum of uniform [0,1] variables, exactly."""
        J = self.J
        if x <= 0:
            return Fraction(0)
        if x >= J:
            return Fraction(1)
        total = Fraction(0)
        for kk in range(int(x) + 1):
            total += (-1) ** kk * math.comb(J, kk) * (x - kk) ** J
        return total / math.factorial(J)

    def _bump_cdf(self, t: Fraction) -> Fraction:
        # the J-fold box convolution rescaled to [-delta, delta]
        return self._box_cdf((t + self.delta) * self.J / (2 * self.delta))

    def value(self, y) -> Fraction:
        """w(y), exact for rational y (floats enter at their binary value)."""
        y = Fraction(y) % 1
        if 2 * y > 1:
            y -= 1
        y = abs(y)
        d = self.delta
        if y >= 3 * d:
            return Fraction(0)
        if y <= d:
            return Fraction(1)
        return self._bump_cdf(y + 2 * d) - self._bump_cdf(y - 2 * d)

    def fourier0(self) -> Fraction:
        return 4 * self.delta

    def fourier(self, h: int) -> mp.mpf:
        """w_hat(h) for integer h (the window is 1-periodic), at 30 digits."""
        import mpmath as mp
        h = int(h)
        with mp.workdps(30):
            d = mp.mpf(self.delta.numerator) / self.delta.denominator
            out = 4 * d * _sinc(4 * d * h) * _sinc(2 * d * h / self.J) ** self.J
            return out

    def decay_bound(self, h: int) -> mp.mpf:
        import mpmath as mp
        with mp.workdps(30):
            d = mp.mpf(self.delta.numerator) / self.delta.denominator
            return 8 * d * (1 + abs(h) * d / self.J) ** (-self.J)

    def decay_check(self, h_max: int = 10**6) -> dict:
        """max of |w_hat(h)| / decay_bound(h) over 200 log-spaced h in [1, h_max] (expect <= 1)."""
        if h_max < 1:
            raise PreconditionError(f"h_max must be at least 1, got {h_max}")
        hs = sorted({int(round(math.exp(i * math.log(h_max) / 199))) for i in range(200)})
        worst = 0.0
        worst_h = None
        for h in hs:
            num = abs(self.fourier(h))
            den = self.decay_bound(h)
            ratio = float(num / den)
            if ratio > worst:
                worst, worst_h = ratio, h
        return {"h_max": h_max, "max_ratio": worst, "at_h": worst_h, "ok": worst <= 1.0}


def _sinc(x) -> mp.mpf:
    import mpmath as mp
    if x == 0:
        return mp.mpf(1)
    return mp.sinpi(x) / (mp.pi * x)


def smoothing_window(delta, J: int) -> SmoothingWindow:
    """Build the window; delta is taken exactly (exact_rational)."""
    return SmoothingWindow(delta=exact_rational(delta, "delta"), J=int(J))
