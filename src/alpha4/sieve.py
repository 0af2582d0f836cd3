"""Combinatorial sieve support: weights, sandwich checks, scale parameters.

The weight system is the beta = 2 construction: upper and lower weight
sets are signed Moebius values on squarefree products of sifting primes,
where a product p_1 > p_2 > ... (written in decreasing order) is kept
when every odd-position (upper) or even-position (lower) extension step
m satisfies p_1 ... p_{m-1} p_m^3 < D, and the product itself stays
at or below D. The truncated Moebius sums behind the fundamental lemma
keep the products at most n_limit with at most 2R (+1) primes. One
enumerator, _squarefree_weights, builds both kinds of weights, and one
comparison, _sandwich_slacks, reads either against the sifted indicator.
The two-variable sandwich used for simultaneous conditions and the
scale-parameter bookkeeping live here too.

The linear-sieve limit functions F and f are closed forms where these
hold, F = 2 e^gamma / s on [1, 3] and f = (2 e^gamma / s) log(s-1) on
[2, 4] (f = 0 below 2). Beyond them, G(u) = (u+1) F(u+1) and
H(u) = (u+1) f(u+1), scaled by 1/(2 e^gamma), solve the unit-delay pair

    u G'(u) = H(u-1),   u H'(u) = G(u-1),   G = 1, H = 0 on [0, 1],

which dickman.delay_panels marches on the same power-series panels as
Dickman's rho, over u in [0, 5] (s in [1, 6]). Only F and f import
mpmath and dickman, so the rest of the module never loads them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .arith import PrimeRange, exact_rational, primes_upto, require_budget, require_work
from .errors import PreconditionError

__all__ = [
    "SieveWeightSystem",
    "beta_sieve_weights",
    "verify_sandwich",
    "FundamentalLemmaTruncation",
    "fundamental_lemma_check",
    "vector_sieve_check",
    "vector_sieve_random_trials",
    "linear_F",
    "linear_f",
    "ScaleParams",
    "make_scale_params",
    "mertens_window",
    "mertens_window_report",
]


# -- one weight enumerator and one sandwich comparison --------------------------


def _squarefree_weights(primes, fits):
    """Yield (d, mu(d)) for d = 1 and every product d = p_1 p_2 ... p_k,
    p_1 > p_2 > ..., of the increasing list primes whose every step passes
    fits(p_1 ... p_{i-1}, p_i, i).

    fits must be monotone in p (when a prime fits, every smaller one does),
    so a chain grows through the primes below its last one in increasing
    order and stops at the first that fails: one step per weight. It holds
    one generator per factor of the current chain and no weight it has
    yielded.
    """
    def chains(prod, below, k):  # extensions of prod (k factors) by primes[:below]
        for j in range(below):
            if not fits(prod, primes[j], k + 1):
                return
            yield prod * primes[j], 1 if k % 2 else -1
            yield from chains(prod * primes[j], j, k + 1)

    yield 1, 1
    yield from chains(1, len(primes), 0)


def _sandwich_slacks(sides, primes, n_limit: int) -> list[dict]:
    """Read sum_{d | n} w(d) against [n has no prime factor in primes] on
    1..n_limit, for each (weights, sign) in sides: weights is an iterable
    of (d, w(d)), sign is +1 for a majorant, -1 for a minorant, and the
    slack sign * (sum - indicator) is negative exactly where the sandwich
    fails. Per side: the violation count, the first violating n (or None)
    and the extremal slacks. Beside what weights holds, its peak is two
    int64 columns and two bool masks of n_limit + 1 entries.
    """
    import numpy as np
    ind = np.ones(n_limit + 1, dtype=np.int64)
    for p in primes:
        ind[p::p] = 0
    out = []
    acc = np.empty(n_limit + 1, dtype=np.int64)  # one column for every side
    for weights, sign in sides:
        acc[:] = 0
        for d, w in weights:
            if d <= n_limit:
                acc[d::d] += w
        acc -= ind
        acc *= sign  # in place, so the peak stays at two columns
        slack = acc[1:]
        bad = slack < 0
        count = int(np.count_nonzero(bad))
        out.append({
            "violations": count,
            "first_violation": int(bad.argmax()) + 1 if count else None,
            "min_slack": int(slack.min()),
            "max_slack": int(slack.max()),
        })
    return out


# -- beta = 2 weight systems -------------------------------------------------

# bytes a kept weight holds: its dict entry and int key, with room for the
# dict's growth (tracemalloc peaks reach about 105)
_WEIGHT_BYTES = 200
# bytes per n of _sandwich_slacks: tracemalloc peaks are 18.0 (verify_sandwich),
# 17.0 (flemma at z = 30) and 20.1-20.6 (flemma at z = n_limit) at n = 2e5 and 1e6
_SANDWICH_BYTES = 24


@dataclass(frozen=True)
class SieveWeightSystem:
    """Signed weights lambda+ / lambda- supported on divisors of P(z).

    Both dicts map a squarefree d (product of sifting primes, d <= D) to
    mu(d); membership encodes the chain conditions. s = log D / log z.
    """

    level_D: float
    z: float
    lambda_plus: dict[int, int]
    lambda_minus: dict[int, int]
    s: float


def beta_sieve_weights(D, z) -> SieveWeightSystem:
    """Build the beta = 2 upper/lower weight sets at level D, sifting to z.

    D must be positive and finite; D below 2 degenerates to the single
    weight on d = 1. The weight dicts are charged to the budget as they
    grow, and refused before the sieve runs when the primes up to
    min(z, D), each of them a lower weight, cannot fit.
    """
    if not 0 < D < math.inf:  # NaN fails the comparison too
        raise PreconditionError(f"level D must be positive and finite, got {D}")
    if not z >= 2:
        raise PreconditionError(f"sifting limit z must be >= 2, got {z}")
    what = f"beta weights at D={D}, z={z}"
    top = int(min(z, D))  # no weight d <= D holds a prime above D
    if top >= 17:  # pi(x) > x / log x from 17 on (Rosser & Schoenfeld 1962)
        require_budget(_WEIGHT_BYTES * int(top / math.log(top)), what)
    primes = primes_upto(top).tolist()

    def fits(parity: int):  # positions of this parity need prod * p^3 < D, the others prod * p <= D
        return lambda prod, p, i: prod * p**3 < D if i % 2 == parity else prod * p <= D

    def collect(parity: int, held: int = 0) -> dict[int, int]:
        out, weights = {}, _squarefree_weights(primes, fits(parity))
        while True:  # charged every 4096 weights
            before = len(out)
            out.update(itertools.islice(weights, 4096))
            if len(out) == before:
                return out
            require_budget(held + _WEIGHT_BYTES * len(out), what)

    # the majorant constrains its odd positions, the minorant its even ones
    plus = collect(1)
    minus = collect(0, held=_WEIGHT_BYTES * len(plus))
    return SieveWeightSystem(
        level_D=float(D),
        z=float(z),
        lambda_plus=plus,
        lambda_minus=minus,
        s=math.log(D) / math.log(z),
    )


def verify_sandwich(ws: SieveWeightSystem, n_limit: int) -> dict:
    """Check lambda- * 1 <= [coprime to P(z)] <= lambda+ * 1 on 1..n_limit.

    Returns counts, the first violating n per side (or None), and the
    smallest slacks. The comparison and the weights it is given, which
    are held together, are charged first, and refused past the budget.
    """
    if n_limit < 1:
        raise PreconditionError("n_limit must be >= 1")
    held = _WEIGHT_BYTES * (len(ws.lambda_plus) + len(ws.lambda_minus))
    require_budget(held + _SANDWICH_BYTES * (n_limit + 1), f"weight sandwich to n_limit={n_limit}")
    # a prime above n_limit divides no n <= n_limit, so z may be far larger
    primes = primes_upto(int(min(ws.z, n_limit))).tolist()
    sides = ((ws.lambda_plus.items(), 1), (ws.lambda_minus.items(), -1))
    up, low = _sandwich_slacks(sides, primes, n_limit)
    return {
        "checked": n_limit,
        "upper_support": len(ws.lambda_plus),
        "lower_support": len(ws.lambda_minus),
        "upper_violations": up["violations"],
        "lower_violations": low["violations"],
        "first_upper_violation": up["first_violation"],
        "first_lower_violation": low["first_violation"],
        "min_upper_slack": up["min_slack"],
        "min_lower_slack": low["min_slack"],
        "ok": not (up["violations"] or low["violations"]),
    }


# -- truncated Moebius sandwiches ---------------------------------------------


@dataclass(frozen=True)
class FundamentalLemmaTruncation:
    """Truncation of sum_{d | (n, P(z))} mu(d) to omega(d) <= 2R (+1).

    parity "even" keeps terms with omega(d) <= 2R and majorizes the
    coprimality indicator; parity "odd" keeps omega(d) <= 2R + 1 and
    minorizes it (Bonferroni).
    """

    z: int
    R: int
    parity: str

    def __post_init__(self):
        if self.R < 1:
            raise PreconditionError(f"R must be >= 1, got {self.R}")
        if self.parity not in ("even", "odd"):
            raise PreconditionError(f"parity must be 'even' or 'odd', got {self.parity!r}")
        if self.z < 2:
            raise PreconditionError(f"z must be >= 2, got {self.z}")

    @property
    def omega_cap(self) -> int:
        return 2 * self.R if self.parity == "even" else 2 * self.R + 1


def fundamental_lemma_check(t: FundamentalLemmaTruncation, n_limit: int) -> dict:
    """Compare the truncated Moebius sum against the sifted indicator.

    Returns violation counts (expected zero: the inequality is a
    theorem) and the extremal slack over 1..n_limit. The weights stream
    into the comparison as they are enumerated, so none is kept. The
    comparison is charged first, and refused past the budget.
    """
    if n_limit < 1:
        raise PreconditionError("n_limit must be >= 1")
    require_budget(_SANDWICH_BYTES * (n_limit + 1), f"truncated sandwich to n_limit={n_limit}")
    # a prime above n_limit divides no n <= n_limit, so z may be far larger
    primes = primes_upto(min(t.z, n_limit)).tolist()
    cap = t.omega_cap
    weights = _squarefree_weights(primes, lambda prod, p, i: i <= cap and prod * p <= n_limit)
    (side,) = _sandwich_slacks([(weights, 1 if t.parity == "even" else -1)], primes, n_limit)
    return {
        "z": t.z,
        "R": t.R,
        "parity": t.parity,
        "omega_cap": cap,
        "checked": n_limit,
        **side,
        "ok": not side["violations"],
    }


# -- the two-variable sandwich -------------------------------------------------


_TRIAL_BLOCK = 1 << 14  # trials drawn and checked at once
_TRIAL_BLOCK_BYTES = 2 << 20  # tracemalloc peak of a run, 1.99 MB at 10^6 trials


def _vector_slack(d1_minus, d1, d1_plus, d2_minus, d2, d2_plus):
    """d1 d2 - (d1+ d2- + d1- d2+ - d1+ d2+), on exact numbers and int64
    columns alike: the two-variable sandwich holds where it is >= 0."""
    return d1 * d2 - (d1_plus * d2_minus + d1_minus * d2_plus - d1_plus * d2_plus)


def vector_sieve_check(d1_minus, d1, d1_plus, d2_minus, d2, d2_plus) -> bool:
    """Exact check of d1 d2 >= d1+ d2- + d1- d2+ - d1+ d2+.

    Preconditions (each reported by name when violated): d1, d2 >= 0,
    and each triple must be ordered minus <= value <= plus, which makes
    plus nonnegative too.
    """
    names = ("d1_minus", "d1", "d1_plus", "d2_minus", "d2", "d2_plus")
    vals = [exact_rational(x, name) for x, name in zip((d1_minus, d1, d1_plus, d2_minus, d2, d2_plus), names)]
    for side, (lo, mid, hi) in (("d1", vals[:3]), ("d2", vals[3:])):
        if mid < 0:
            raise PreconditionError(f"{side} must be nonnegative, got {mid}")
        if not lo <= mid <= hi:
            raise PreconditionError(
                f"{side} triple must be ordered: {lo} <= {mid} <= {hi} fails"
            )
    return _vector_slack(*vals) >= 0


def vector_sieve_random_trials(count: int = 10**6, seed: int = 0) -> dict:
    """Bulk-check the two-variable sandwich on random integer tuples.

    Tuples are drawn on an integer grid with |values| <= 2^16, so the
    int64 products are exact; lower bounds may go negative, upper bounds
    stay above the value by construction. The six columns are those of six
    consecutive rng.integers(0, 2^15, size=count) calls on
    default_rng(seed). Each value is one 32-bit half of a PCG64 output, low
    half first, and none is rejected, as 2^15 divides 2^32, so column k is
    the 32-bit draws [k count, (k+1) count). Each column is read from its
    own generator advanced to its start, _TRIAL_BLOCK trials at a time, so
    memory follows the block and a work budget bounds count.
    """
    if count < 1:
        raise PreconditionError("count must be >= 1")
    if seed < 0:
        raise PreconditionError(f"seed must be nonnegative, got {seed}")
    require_work(count, f"{count} trials")
    require_budget(_TRIAL_BLOCK_BYTES, f"vector sandwich in blocks of {_TRIAL_BLOCK} trials")
    import numpy as np
    span, columns = 1 << 15, []
    for k in range(6):
        rng = np.random.Generator(np.random.PCG64(seed))
        rng.bit_generator.advance(k * count // 2)
        if k * count % 2:
            rng.integers(0, span)  # the low half of a word the previous column ends in
        columns.append(rng)
    violations, first, least = 0, None, math.inf
    for lo in range(0, count, _TRIAL_BLOCK):
        d1, d2, e1p, e2p, e1m, e2m = (rng.integers(0, span, size=min(_TRIAL_BLOCK, count - lo)) for rng in columns)
        slack = _vector_slack(d1 - e1m, d1, d1 + e1p, d2 - e2m, d2, d2 + e2p)
        bad = slack < 0
        if first is None and bad.any():
            first = lo + int(bad.argmax())
        violations += int(np.count_nonzero(bad))
        least = min(least, int(slack.min()))
    return {
        "trials": count,
        "seed": seed,
        "violations": violations,
        "first_violation_index": first,
        "min_slack": least,
        "ok": not violations,
    }


# -- linear-sieve limit functions ----------------------------------------------

_FF_DPS = 30


@functools.cache
def _ff_panels():
    """(G, H) of the module docstring."""
    from .dickman import delay_panels
    return delay_panels((1, 0), 1, 5)


def _ff_arg(s, lo: int, name: str) -> mp.mpf:
    import mpmath as mp
    s = mp.mpf(str(s)) if isinstance(s, float) else mp.mpf(s)
    if not lo <= s <= 6:
        raise PreconditionError(f"{name} domain is [{lo}, 6], got {float(s)}")
    return s


def linear_F(s) -> mp.mpf:
    """Upper limit function: 2 e^gamma / s on [1, 3], and (2 e^gamma / s) G(s-1)
    beyond, supported on 1 <= s <= 6."""
    import mpmath as mp
    with mp.workdps(_FF_DPS):
        s = _ff_arg(s, 1, "linear_F")
        out = 2 * mp.exp(mp.euler) / s
        return out if s <= 3 else out * _ff_panels()[0].value(s - 1)[0]


def linear_f(s) -> mp.mpf:
    """Lower limit function: 0 on [0, 2], (2 e^gamma / s) log(s-1) on [2, 4], and
    (2 e^gamma / s) H(s-1) beyond, supported on 0 <= s <= 6."""
    import mpmath as mp
    with mp.workdps(_FF_DPS):
        s = _ff_arg(s, 0, "linear_f")
        if s <= 2:
            return mp.mpf(0)
        h = mp.log(s - 1) if s <= 4 else _ff_panels()[1].value(s - 1)[0]
        return 2 * mp.exp(mp.euler) / s * h


# -- scale parameters ------------------------------------------------------------


@dataclass(frozen=True)
class ScaleParams:
    """Sifting thresholds for a run at scale x.

    z_small, z_quarter_lo, z_quarter_hi are positive integers with
    z_small < z_quarter_lo < z_quarter_hi < x at desk scales; the paper
    preset keeps the literal formulas and records which of them
    degenerate at reachable x instead of failing.
    """

    x: int
    epsilon: float
    D0: float
    W: int
    z_small: int
    z_quarter_lo: int
    z_quarter_hi: int
    smooth_exp: float
    preset: str
    degeneracies: tuple[str, ...]
    w_in_range: bool


def _w_from_d0(x: int) -> tuple[float, int, bool]:
    d0 = 0.5 * math.log(math.log(x))
    w = 12
    if d0 > 4:  # below that the window (4, d0] holds no primes
        for p in PrimeRange(4, int(d0)):
            w *= p
    lx = math.log(x)
    in_range = lx ** (1 / 3) <= w <= lx ** (2 / 3)
    return d0, w, in_range


# the paper's epsilon, and the exponent y = x^smooth_exp of the smooth part
_EPSILON, _SMOOTH_EXP = 0.005, 0.3


def make_scale_params(x: int, preset: str = "desk", overrides: dict | None = None) -> ScaleParams:
    """Thresholds at scale x (>= 10^4), with epsilon = 0.005 and smooth_exp = 0.3.

    The desk preset uses exponents that keep every window nonempty at
    desk scales: z_small = x^0.05, z_quarter_lo = x^0.22,
    z_quarter_hi = x^0.27, rounded. The paper preset evaluates the
    asymptotic formulas literally -- z_small = (log x)^100,
    z_quarter_lo = x^(1/4 - epsilon), z_quarter_hi = x^(1/4) (log x)^100
    -- and records degeneracies (thresholds crossing each other or x)
    rather than raising. overrides replaces named thresholds after the
    preset computation; desk-preset ordering is then re-checked.
    """
    x = int(x)
    if x < 10**4:
        raise PreconditionError(f"scale x must be >= 10^4, got {x}")
    if preset not in ("desk", "paper"):
        raise PreconditionError(f"preset must be 'desk' or 'paper', got {preset!r}")
    d0, w, in_range = _w_from_d0(x)
    if preset == "desk":
        fields = {
            "z_small": max(2, round(x**0.05)),
            "z_quarter_lo": round(x**0.22),
            "z_quarter_hi": round(x**0.27),
        }
    else:
        fields = {
            "z_small": round(math.log(x) ** 100),
            "z_quarter_lo": round(x ** (0.25 - _EPSILON)),
            "z_quarter_hi": round(x**0.25 * math.log(x) ** 100),
        }
    if overrides:
        unknown = set(overrides) - set(fields)
        if unknown:
            raise PreconditionError(f"unknown override fields: {sorted(unknown)}")
        fields.update(overrides)
    zs, zl, zh = fields["z_small"], fields["z_quarter_lo"], fields["z_quarter_hi"]
    for name, v in (("z_small", zs), ("z_quarter_lo", zl), ("z_quarter_hi", zh)):
        if not isinstance(v, int) or v < 1:
            raise PreconditionError(f"{name} must be a positive integer, got {v!r}")
    degeneracies = []
    if not zs < zl:
        degeneracies.append("z_small >= z_quarter_lo")
    if not zl < zh:
        degeneracies.append("z_quarter_lo >= z_quarter_hi")
    if not zh < x:
        degeneracies.append("z_quarter_hi >= x")
    if preset == "desk" and degeneracies:
        raise PreconditionError(
            f"desk thresholds must be strictly ordered below x: {degeneracies}"
        )
    return ScaleParams(
        x=x,
        epsilon=_EPSILON,
        D0=d0,
        W=w,
        z_small=zs,
        z_quarter_lo=zl,
        z_quarter_hi=zh,
        smooth_exp=_SMOOTH_EXP,
        preset=preset,
        degeneracies=tuple(degeneracies),
        w_in_range=in_range,
    )


# -- Mertens windows ---------------------------------------------------------------

# bytes a prime holds in a window's list: its int and its list slot
_PRIME_BYTES = 48


def _window_primes(a, b) -> list[int]:
    """The primes in (a, b] for finite ends a <= b, charged to the budget
    before the sieve runs: an interval of length y > 1 holds at most
    2y / log y primes (Montgomery & Vaughan 1973), which bounds the window
    and the base primes up to sqrt(b)."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise PreconditionError(f"window ends must be finite, got ({a}, {b}]")
    if b < a:
        raise PreconditionError(f"empty-ordered window ({a}, {b}]")
    rng = PrimeRange(int(a), int(b))
    most = sum(2 * (y / math.log(y)) if y > 1 else 1 for y in (rng.hi - rng.lo, math.isqrt(rng.hi)))
    require_budget(_PRIME_BYTES * math.ceil(most), f"prime list of the window ({a}, {b}]")
    return list(rng)


def mertens_window(a, b) -> tuple[int, float, float]:
    """(count, product, reciprocal sum) over the primes a < p <= b, sieved
    once: prod (1 - 1/p) via a compensated log sum, and sum 1/p."""
    primes = _window_primes(a, b)
    product = math.exp(math.fsum(math.log1p(-1.0 / p) for p in primes))
    return len(primes), product, math.fsum(1.0 / p for p in primes)


def mertens_window_report(x: int, epsilon: float) -> dict:
    """Reciprocal sum over (x^(1/4-eps), x^(1/4)] against -log(1 - 4 eps).

    At desk scales the window holds few primes, so the gap to the
    asymptotic target is reported, not asserted.
    """
    if not 16 <= x <= 1e300:  # a float power of x must not overflow
        raise PreconditionError(f"x must be in [16, 1e300] for a quarter-power window, got {x}")
    if not 0 < epsilon < 0.25:
        raise PreconditionError(f"epsilon must be in (0, 1/4), got {epsilon}")
    lo = x ** (0.25 - epsilon)
    hi = x**0.25
    count, _, s = mertens_window(lo, hi)
    target = -math.log1p(-4 * epsilon)
    return {
        "x": x,
        "epsilon": epsilon,
        "window": [lo, hi],
        "primes_in_window": count,
        "reciprocal_sum": s,
        "target": target,
        "gap": s - target,
        "relative_gap": (s - target) / target,  # target > 0 for every epsilon in (0, 1/4)
    }
