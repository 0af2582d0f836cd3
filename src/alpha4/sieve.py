"""Combinatorial sieve support: weights, sandwich checks, scale parameters.

The weight system is the beta = 2 construction: upper and lower weight
sets are signed Moebius values on squarefree products of sifting primes,
where a product p_1 > p_2 > ... (written in decreasing order) is kept
when every odd-position (upper) or even-position (lower) extension step
m satisfies p_1 ... p_{m-1} p_m^3 < D, and the product itself stays
at or below D. The truncated Moebius sandwiches behind the fundamental
lemma, the two-variable sandwich used for simultaneous conditions, and the
scale-parameter bookkeeping live here too.

The linear-sieve limit functions F and f are closed forms where these
hold, F = 2 e^gamma / s on [1, 3] and f = (2 e^gamma / s) log(s-1) on
[2, 4] (f = 0 below 2). Beyond them, G(u) = (u+1) F(u+1) and
H(u) = (u+1) f(u+1), scaled by 1/(2 e^gamma), solve the unit-delay pair

    u G'(u) = H(u-1),   u H'(u) = G(u-1),   G = 1, H = 0 on [0, 1],

which dickman.delay_panels marches on the same power-series panels as
Dickman's rho, over u in [0, 5] (s in [1, 6]).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath as mp

from .arith import exact_rational, primes_in, primes_upto, require_budget
from .dickman import delay_panels
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
    "mertens_product",
    "prime_reciprocal_sum",
    "mertens_window_report",
]


# -- beta = 2 weight systems -------------------------------------------------


@dataclass(frozen=True)
class SieveWeightSystem:
    """Signed weights lambda+ / lambda- supported on divisors of P(z).

    Both dicts map a squarefree d (product of sifting primes, d <= D) to
    mu(d); membership encodes the chain conditions. s = log D / log z.
    """

    level_D: float
    z: float
    sift_primes: tuple[int, ...]
    lambda_plus: dict[int, int]
    lambda_minus: dict[int, int]
    s: float


def beta_sieve_weights(D, z, primes=None) -> SieveWeightSystem:
    """Build the beta = 2 upper/lower weight sets at level D, sifting to z.

    primes defaults to all primes <= z; passing an explicit (sub)set
    restricts the sifting set. D must be positive and finite; D below 2
    degenerates to the single weight on d = 1.
    """
    if not 0 < D < math.inf:  # NaN fails the comparison too
        raise PreconditionError(f"level D must be positive and finite, got {D}")
    if z < 2:
        raise PreconditionError(f"sifting limit z must be >= 2, got {z}")
    if primes is None:
        primes = [int(p) for p in primes_upto(int(z))]
    else:
        primes = sorted(int(p) for p in primes)
        if any(p > z for p in primes):
            raise PreconditionError("sifting primes must all be <= z")
    if not primes:
        raise PreconditionError("empty sifting prime set")
    desc = sorted(primes, reverse=True)

    def collect(upper: bool) -> dict[int, int]:
        # chains p_1 > p_2 > ... in decreasing order; position m (1-based)
        # is constrained when its parity matches the side being built
        out = {1: 1}
        stack = [(1, 0, 1)]  # (product so far, next prime index, mu)
        while stack:
            prod, start, mu = stack.pop()
            # mu = (-1)^(chain length); the next position is constrained
            # after an even chain on the upper side, an odd one on the lower
            constrained = (mu == 1) == upper
            for i in range(start, len(desc)):
                p = desc[i]
                new = prod * p
                if new > D:
                    continue
                if constrained and prod * p**3 >= D:
                    continue
                out[new] = -mu
                stack.append((new, i + 1, -mu))
        return out

    lam_plus = collect(upper=True)
    lam_minus = collect(upper=False)
    return SieveWeightSystem(
        level_D=float(D),
        z=float(z),
        sift_primes=tuple(primes),
        lambda_plus=lam_plus,
        lambda_minus=lam_minus,
        s=math.log(D) / math.log(z),
    )


def verify_sandwich(ws: SieveWeightSystem, n_limit: int, budget_mb: int | None = None) -> dict:
    """Check lambda- * 1 <= [coprime to P(z)] <= lambda+ * 1 on 1..n_limit.

    Convolutions are accumulated with slice adds; returns counts, the
    first violating n per side (or None), and the extremal slacks. At its
    peak it holds five int64 columns and a bool mask of n_limit + 1
    entries, and refuses more than budget_mb of them.
    """
    if n_limit < 1:
        raise PreconditionError("n_limit must be >= 1")
    require_budget(41 * (n_limit + 1), budget_mb, f"weight sandwich to n_limit={n_limit}")
    import numpy as np
    upper = np.zeros(n_limit + 1, dtype=np.int64)
    lower = np.zeros(n_limit + 1, dtype=np.int64)
    for d, mu in ws.lambda_plus.items():
        if d <= n_limit:
            upper[d::d] += mu
    for d, mu in ws.lambda_minus.items():
        if d <= n_limit:
            lower[d::d] += mu
    ind = np.ones(n_limit + 1, dtype=np.int64)
    for p in ws.sift_primes:
        if p <= n_limit:
            ind[p::p] = 0
    ind[0] = 0
    up_slack = upper[1:] - ind[1:]
    low_slack = ind[1:] - lower[1:]
    up_bad = np.nonzero(up_slack < 0)[0]
    low_bad = np.nonzero(low_slack < 0)[0]
    return {
        "checked": n_limit,
        "upper_support": len(ws.lambda_plus),
        "lower_support": len(ws.lambda_minus),
        "upper_violations": int(up_bad.size),
        "lower_violations": int(low_bad.size),
        "first_upper_violation": int(up_bad[0]) + 1 if up_bad.size else None,
        "first_lower_violation": int(low_bad[0]) + 1 if low_bad.size else None,
        "min_upper_slack": int(up_slack.min()),
        "min_lower_slack": int(low_slack.min()),
        "ok": not up_bad.size and not low_bad.size,
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


def fundamental_lemma_check(
    t: FundamentalLemmaTruncation, n_limit: int, budget_mb: int | None = None
) -> dict:
    """Compare the truncated Moebius sum against the sifted indicator.

    Returns violation counts (expected zero: the inequality is a
    theorem) and the extremal slack over 1..n_limit. At its peak it holds
    three int64 columns and a bool mask of n_limit + 1 entries, and
    refuses more than budget_mb of them.
    """
    if n_limit < 1:
        raise PreconditionError("n_limit must be >= 1")
    require_budget(25 * (n_limit + 1), budget_mb, f"truncated sandwich to n_limit={n_limit}")
    # a prime above n_limit divides no n <= n_limit, so z may be far larger
    primes = [int(p) for p in primes_upto(min(t.z, n_limit))]
    cap = t.omega_cap
    import numpy as np
    acc = np.zeros(n_limit + 1, dtype=np.int64)
    # enumerate squarefree products of sifting primes, <= n_limit, with
    # at most cap factors, accumulating mu(d) over multiples
    stack = [(1, 0, 0)]  # (product, next index, count)
    while stack:
        prod, start, cnt = stack.pop()
        if cnt == cap:
            continue
        for i in range(start, len(primes)):
            new = prod * primes[i]
            if new > n_limit:
                break
            mu = -1 if (cnt + 1) % 2 else 1
            acc[new::new] += mu
            stack.append((new, i + 1, cnt + 1))
    acc[1:] += 1  # the d = 1 term
    ind = np.ones(n_limit + 1, dtype=np.int64)
    for p in primes:
        ind[p::p] = 0
    ind[0] = 0
    # even cap: acc >= ind everywhere; odd cap: acc <= ind everywhere
    slack = (acc[1:] - ind[1:]) if t.parity == "even" else (ind[1:] - acc[1:])
    bad = np.nonzero(slack < 0)[0]
    return {
        "z": t.z,
        "R": t.R,
        "parity": t.parity,
        "omega_cap": cap,
        "checked": n_limit,
        "violations": int(bad.size),
        "first_violation": int(bad[0]) + 1 if bad.size else None,
        "min_slack": int(slack.min()),
        "max_slack": int(slack.max()),
        "ok": not bad.size,
    }


# -- the two-variable sandwich -------------------------------------------------


def vector_sieve_check(d1_minus, d1, d1_plus, d2_minus, d2, d2_plus) -> bool:
    """Exact check of d1 d2 >= d1+ d2- + d1- d2+ - d1+ d2+.

    Preconditions (each reported by name when violated): d1, d2 >= 0,
    and each triple must be ordered minus <= value <= plus with a
    nonnegative plus.
    """
    vals = {}
    for name, x in (
        ("d1_minus", d1_minus), ("d1", d1), ("d1_plus", d1_plus),
        ("d2_minus", d2_minus), ("d2", d2), ("d2_plus", d2_plus),
    ):
        vals[name] = exact_rational(x, name)
    for side in ("d1", "d2"):
        lo, mid, hi = vals[side + "_minus"], vals[side], vals[side + "_plus"]
        if mid < 0:
            raise PreconditionError(f"{side} must be nonnegative, got {mid}")
        if not lo <= mid <= hi:
            raise PreconditionError(
                f"{side} triple must be ordered: {lo} <= {mid} <= {hi} fails"
            )
        if hi < 0:
            raise PreconditionError(f"{side}_plus must be nonnegative, got {hi}")
    lhs = vals["d1"] * vals["d2"]
    rhs = (
        vals["d1_plus"] * vals["d2_minus"]
        + vals["d1_minus"] * vals["d2_plus"]
        - vals["d1_plus"] * vals["d2_plus"]
    )
    return lhs >= rhs


def vector_sieve_random_trials(
    count: int = 10**6, seed: int = 0, span: int = 1 << 15, budget_mb: int | None = None
) -> dict:
    """Bulk-check the two-variable sandwich on random integer tuples.

    Tuples are drawn on an integer grid with |values| <= 2 span, so the
    int64 products are exact; lower bounds may go negative, upper bounds
    stay above the value by construction. At its peak it holds ten int64
    columns and a bool mask of count entries, and refuses more than
    budget_mb of them.
    """
    if count < 1:
        raise PreconditionError("count must be >= 1")
    require_budget(81 * count, budget_mb, f"vector sandwich with {count} trials")
    import numpy as np
    rng = np.random.default_rng(seed)
    d1 = rng.integers(0, span, size=count)
    d2 = rng.integers(0, span, size=count)
    d1p = d1 + rng.integers(0, span, size=count)
    d2p = d2 + rng.integers(0, span, size=count)
    d1m = d1 - rng.integers(0, span, size=count)
    d2m = d2 - rng.integers(0, span, size=count)
    lhs = d1 * d2
    rhs = d1p * d2m + d1m * d2p - d1p * d2p
    slack = lhs - rhs
    bad = np.nonzero(slack < 0)[0]
    return {
        "trials": count,
        "seed": seed,
        "violations": int(bad.size),
        "first_violation_index": int(bad[0]) if bad.size else None,
        "min_slack": int(slack.min()),
        "ok": not bad.size,
    }


# -- linear-sieve limit functions ----------------------------------------------

_FF_DPS = 30


@functools.cache
def _ff_panels():
    """(G, H) of the module docstring."""
    return delay_panels((1, 0), 1, 5)


def _ff_arg(s, lo: int, name: str) -> mp.mpf:
    s = mp.mpf(str(s)) if isinstance(s, float) else mp.mpf(s)
    if not lo <= s <= 6:
        raise PreconditionError(f"{name} domain is [{lo}, 6], got {float(s)}")
    return s


def linear_F(s) -> mp.mpf:
    """Upper limit function: 2 e^gamma / s on [1, 3], and (2 e^gamma / s) G(s-1)
    beyond, supported on 1 <= s <= 6."""
    with mp.workdps(_FF_DPS):
        s = _ff_arg(s, 1, "linear_F")
        out = 2 * mp.exp(mp.euler) / s
        return out if s <= 3 else out * _ff_panels()[0].value(s - 1)[0]


def linear_f(s) -> mp.mpf:
    """Lower limit function: 0 on [0, 2], (2 e^gamma / s) log(s-1) on [2, 4], and
    (2 e^gamma / s) H(s-1) beyond, supported on 0 <= s <= 6."""
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
        for p in primes_in(4, int(d0)):
            w *= p
    lx = math.log(x)
    in_range = lx ** (1 / 3) <= w <= lx ** (2 / 3)
    return d0, w, in_range


def make_scale_params(
    x: int,
    epsilon: float = 0.005,
    preset: str = "desk",
    overrides: dict | None = None,
) -> ScaleParams:
    """Thresholds at scale x (>= 10^4).

    The desk preset uses exponents that keep every window nonempty at
    desk scales: z_small = x^0.05, z_quarter_lo = x^0.22,
    z_quarter_hi = x^0.27, rounded. The paper preset evaluates the
    asymptotic formulas literally -- z_small = (log x)^100,
    z_quarter_lo = x^(1/4 - epsilon), z_quarter_hi = x^(1/4) (log x)^100
    -- and records degeneracies (thresholds crossing each other or x)
    rather than raising. overrides replaces named fields after the
    preset computation; desk-preset ordering is then re-checked.
    """
    x = int(x)
    if x < 10**4:
        raise PreconditionError(f"scale x must be >= 10^4, got {x}")
    if not 0 < epsilon < 0.01:
        raise PreconditionError(f"epsilon must be in (0, 1/100), got {epsilon}")
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
            "z_quarter_lo": round(x ** (0.25 - epsilon)),
            "z_quarter_hi": round(x**0.25 * math.log(x) ** 100),
        }
    if overrides:
        unknown = set(overrides) - {"z_small", "z_quarter_lo", "z_quarter_hi", "smooth_exp"}
        if unknown:
            raise PreconditionError(f"unknown override fields: {sorted(unknown)}")
        fields.update({k: v for k, v in overrides.items() if k != "smooth_exp"})
    smooth_exp = float(overrides.get("smooth_exp", 0.3)) if overrides else 0.3
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
        epsilon=float(epsilon),
        D0=d0,
        W=w,
        z_small=zs,
        z_quarter_lo=zl,
        z_quarter_hi=zh,
        smooth_exp=smooth_exp,
        preset=preset,
        degeneracies=tuple(degeneracies),
        w_in_range=in_range,
    )


# -- Mertens windows ---------------------------------------------------------------


def _window_primes(a, b):
    """The primes in (a, b] for finite ends a <= b."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise PreconditionError(f"window ends must be finite, got ({a}, {b}]")
    if b < a:
        raise PreconditionError(f"empty-ordered window ({a}, {b}]")
    return primes_in(int(a), int(b))


def mertens_product(a, b) -> float:
    """prod_{a < p <= b} (1 - 1/p), via a compensated log sum."""
    return math.exp(math.fsum([math.log1p(-1.0 / p) for p in _window_primes(a, b)]))


def prime_reciprocal_sum(a, b) -> float:
    """sum_{a < p <= b} 1/p."""
    return math.fsum(1.0 / p for p in _window_primes(a, b))


def mertens_window_report(x: int, epsilon: float) -> dict:
    """Reciprocal sum over (x^(1/4-eps), x^(1/4)] against -log(1 - 4 eps).

    At desk scales the window holds few primes, so the gap to the
    asymptotic target is reported, not asserted.
    """
    if x < 16:
        raise PreconditionError("x too small for a quarter-power window")
    if not 0 < epsilon < 0.25:
        raise PreconditionError(f"epsilon must be in (0, 1/4), got {epsilon}")
    lo = x ** (0.25 - epsilon)
    hi = x**0.25
    s = prime_reciprocal_sum(lo, hi)
    target = -math.log1p(-4 * epsilon)
    return {
        "x": x,
        "epsilon": epsilon,
        "window": [lo, hi],
        "primes_in_window": len(primes_in(lo, hi)),
        "reciprocal_sum": s,
        "target": target,
        "gap": s - target,
        "relative_gap": (s - target) / target,  # target > 0 for every epsilon in (0, 1/4)
    }

