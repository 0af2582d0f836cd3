"""The smooth-number density and exact smooth counts.

delay_panels solves the unit-delay equations u p_i'(u) = sigma p_j(u-1),
j = i or its partner: it marches unit panels [k, k+1], one power series
per component around the midpoint, where the equation turns into a
two-term coefficient recurrence and continuity at the left edge fixes the
constant term. Dickman's rho is the single equation u rho'(u) =
-rho(u-1), rho = 1 on [0,1]; sieve's limit functions F and f read a pair.
1 - log u on [1,2] and a direct quadrature at u = 10/3 cross-check rho.

Exact counts Psi(x, y) walk the smooth numbers, never 1..x: each product m
of primes in (13, min(y, sqrt x)] reads the 13-smooth numbers <= x // m
from one sorted table, and each prime q in (sqrt x, y] adds x // q; only
that last sum sieves, so numpy loads only when y > sqrt x.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_man_exp

from .arith import PrimeRange, add_nearest_int, int_pair, is_prime, require_budget, round_nearest_int
from .bigreal import BigRealWithError
from .errors import PreconditionError

__all__ = [
    "U_MAX",
    "rho",
    "rho_solution",
    "RhoTenThirds",
    "rho_ten_thirds_quadrature",
    "SmoothCount",
    "psi_exact",
    "psi_hildebrand",
    "smooth_count",
]

U_MAX = 20
DEFAULT_TOL = 1e-10
MIN_TOL = 1e-12
HILDEBRAND_U_MAX = 10

_SERIES_TERMS = 72
_WORK_DPS = 40
_LEAF_PRIMES = (2, 3, 5, 7, 11, 13)
_LEAVES = 38_168  # the 13-smooth numbers below 2^32: the most psi_exact's leaf table holds
_LEAF_BYTES, _NODE_BYTES = 48, 160  # a table entry with its sort buffer; a walk prime with its stack entry
_ROW_BYTES = 512  # a rho table row in memory (about 260) and while printed (about 230 more)


@dataclass(frozen=True)
class _Panels:
    """One component of a delay system: pairs[k] holds the coefficients
    a_0..a_J of p(c + y) on [k, k+1], c = k + 1/2, |y| <= 1/2, as signed
    (mantissa, exponent) integer pairs, and errs[k] bounds the panel's
    error. value() runs Horner's rule in integers at the working
    precision, each product and each sum rounded once as mpf_mul and
    mpf_add round them: the bits of s * y + a_j on mpf objects."""

    pairs: list
    errs: list
    dps: int

    def value(self, u) -> tuple[mp.mpf, mp.mpf]:
        k = int(math.floor(u))
        if k == u and k > 0:
            k -= 1  # integer u: evaluate at the right edge of the panel below
        with mp.workdps(self.dps):
            ym, ye = int_pair((mp.mpf(u) - (2 * k + 1) / mp.mpf(2))._mpf_)
            prec = mp.mp.prec
        s = (0, 0)
        for c in reversed(self.pairs[k]):
            s = add_nearest_int(round_nearest_int(s[0] * ym, s[1] + ye, prec), c, prec)
        return mp.make_mpf(from_man_exp(*s)), self.errs[k]


def delay_panels(start, sigma: int, u_max: int):
    """March u p_i'(u) = sigma p_{n-1-i}(u-1), i < n = len(start), over [0, u_max].

    Component i is the constant start[i] on [0, 1] and is driven by
    component n-1-i: itself for a single equation, its partner for a pair.
    On panel k >= 1, c = k + 1/2, with b_j the driver's coefficients on
    panel k-1, the equation gives

        a_{j+1} = (sigma b_j - j a_j) / (c (j+1)),

    and a_0 comes from matching the component's value at the left edge.

    Error tracking: per-panel truncation is charged as 2^-J times the last
    two coefficient magnitudes (the series converges out to the
    singularity at u = 0, a radius c >= 3/2, so the tail at |y| = 1/2 is
    dominated by a geometric series with ratio <= 1/3); an error eps in
    the component's own edge value and in its driver passes through one
    panel multiplied by at most 1 + log 2 < 1.7 (the edge value carries
    over, and the driver enters through int_k^u dt/t <= log 2), so the
    larger of the two errors is what propagates. A per-panel rounding
    floor covers the working precision of _WORK_DPS digits; J = _SERIES_TERMS.
    """
    n, terms, dps = len(start), _SERIES_TERMS, _WORK_DPS
    with mp.workdps(dps):
        half = mp.mpf("0.5")
        rounding_floor = mp.mpf(10) ** (5 - dps)
        left = [mp.mpf(v) for v in start]  # values at the left edge of the next panel
        panels = [[[v] + [mp.mpf(0)] * terms] for v in left]
        errs = [[mp.mpf(0)] for _ in left]
        for k in range(1, u_max):
            c = mp.mpf(2 * k + 1) / 2
            for i in range(n):
                prev = panels[n - 1 - i][k - 1]
                a = [mp.mpf(0)] * (terms + 1)
                for j in range(terms):
                    a[j + 1] = (sigma * prev[j] - j * a[j]) / (c * (j + 1))
                # continuity: the series at y = -1/2 must equal the edge value
                s = mp.mpf(0)
                for j in range(terms, 0, -1):
                    s = (s + a[j]) * (-half)
                a[0] = left[i] - s
                panels[i].append(a)
                trunc = (abs(a[terms]) + abs(a[terms - 1])) * half**terms
                err = max(errs[i][k - 1], errs[n - 1 - i][k - 1])
                errs[i].append(err * mp.mpf("1.7") + 2 * trunc + rounding_floor)
                # advance the edge value: the series at y = +1/2
                s = mp.mpf(0)
                for j in range(terms, -1, -1):
                    s = s * half + a[j]
                left[i] = s
    return tuple(_Panels([[int_pair(c._mpf_) for c in a] for a in p], e, dps) for p, e in zip(panels, errs))


@functools.cache
def _get_panels() -> _Panels:
    return delay_panels((1,), -1, U_MAX)[0]


def rho(u, tol: float = DEFAULT_TOL) -> BigRealWithError:
    """Dickman's rho at u in [0, 20], certified to within tol (>= 1e-12)."""
    u = float(u)
    if not 0 <= u <= U_MAX:
        raise PreconditionError(f"rho domain is [0, {U_MAX}], got {u}")
    if not MIN_TOL <= tol < math.inf:
        raise PreconditionError(f"tol must be finite and >= {MIN_TOL}, got {tol}")
    if u <= 1:
        return BigRealWithError(mp.mpf(1), mp.mpf(0))
    v, err = _get_panels().value(u)
    if err > tol:
        raise PreconditionError(f"cannot certify rho({u}) to {tol}: reached error {float(err)}")
    return BigRealWithError(v, err)


def rho_solution(u_max: float = U_MAX, grid_step: float = 0.25, tol: float = DEFAULT_TOL) -> list[dict]:
    """rho on the grid 0, grid_step, ... up to u_max: JSON-native rows {u, rho, err}, budgeted first."""
    if not 0 < u_max <= U_MAX:
        raise PreconditionError(f"u_max must be in (0, {U_MAX}]")
    if not 0 < grid_step < math.inf:
        raise PreconditionError(f"grid_step must be positive and finite, got {grid_step}")
    # exact, since u_max / grid_step overflows a float for a subnormal step
    require_budget(_ROW_BYTES * (Fraction(u_max) / Fraction(grid_step) + 1), f"rho table at step {grid_step}")
    rows = []
    for i in range(int(math.floor(u_max / grid_step + 1e-9)) + 1):
        u = min(i * grid_step, u_max)
        v = rho(u, tol)
        rows.append({"u": float(u), "rho": float(v.value), "err": float(v.err)})
    return rows


# -- the value at 10/3 by direct quadrature ----------------------------------


@dataclass(frozen=True)
class RhoTenThirds:
    """rho(10/3) two ways, plus the one-sided bound from dropping a term.

    value         iterated-integral evaluation
    dropped_bound the same with the final (nonnegative) integral dropped,
                  hence an upper bound for the value
    marching      the panel evaluator's certified result
    agreement     |value - marching.value|
    """

    value: float
    dropped_bound: float
    marching: BigRealWithError
    agreement: float


def rho_ten_thirds_quadrature() -> RhoTenThirds:
    """Evaluate rho(10/3) by unfolding the delay integral three times, at 30 digits.

    With u0 = 10/3: rho on (3, u0] pulls back to integrals of rho on
    [1, 2] where rho = 1 - log t, giving

        rho(u0) = 1 - log u0 + I1 - I2,
        I1 = int_1^{7/3} log t / (t+1) dt,
        I2 = int_1^{4/3} (log t / (t+1)) (log u0 - log(t+2)) dt,

    and I2 >= 0, so dropping it leaves a one-sided upper bound.
    """
    with mp.workdps(30):
        u0 = mp.mpf(10) / 3
        t1 = 1 - mp.log(u0)
        t2 = mp.quad(lambda t: mp.log(t) / (t + 1), [1, mp.mpf(7) / 3])
        t3 = mp.quad(
            lambda t: mp.log(t) / (t + 1) * (mp.log(u0) - mp.log(t + 2)),
            [1, mp.mpf(4) / 3],
        )
        full = t1 + t2 - t3
        dropped = t1 + t2
    marching = rho(10 / 3, tol=1e-12)
    return RhoTenThirds(
        value=float(full),
        dropped_bound=float(dropped),
        marching=marching,
        agreement=float(abs(full - marching.value)),
    )


# -- exact and approximate smooth counts --------------------------------------


@dataclass(frozen=True)
class SmoothCount:
    """Psi(x, y): the number of y-smooth integers in [1, x].

    exact is None when only the density approximation was requested;
    band is the relative-error scale log(u+1)/log y that the acceptance
    checks multiply by a small constant.
    """

    x: int
    y: float
    exact: int | None
    approx: BigRealWithError
    band: float


def psi_exact(x: int, y: float) -> int:
    """Exact Psi(x, y) by walking the smooth numbers, never sieving 1..x.

    With z = min(y, isqrt(x)), Psi(x, y) = Psi(x, z) + sum x // q over the
    primes sqrt(x) < q <= min(y, x), as n <= x has at most one prime factor
    above sqrt(x). Psi(x, z) sums, over the m <= x built from the walk
    primes (13, z], the leaf count of x // m (the numbers <= x // m built
    from the primes <= min(z, 13)), bisected in one sorted table. A node
    t = x // m on the walk's stack adds the leaf counts of all its children
    t // p and pushes those that can still hold a walk prime, so the stack
    holds at most one entry per walk prime (pending siblings on the path
    cover disjoint ranges of primes). Table, stack and the segment sieved
    when y > sqrt(x) are charged before they are built.
    """
    x = int(x)
    if x < 1:
        raise PreconditionError(f"psi_exact needs x >= 1, got {x}")
    if not math.isfinite(y):
        raise PreconditionError(f"psi_exact needs a finite y, got {y}")
    if y < 1:
        raise PreconditionError(f"psi_exact needs y >= 1, got {y}")
    if x >= 2**32:
        raise PreconditionError(f"psi_exact walks primes below 2^16, so x must be < 2^32, got {x}")
    limit, r = min(math.floor(y), x), math.isqrt(x)
    z = min(limit, r)
    walk = [p for p in range(_LEAF_PRIMES[-1] + 2, z + 1, 2) if is_prime(p)]
    segment = 4 * min(max(limit - r, 0), PrimeRange.segment)  # its mask and prime arrays
    require_budget(_LEAF_BYTES * _LEAVES + _NODE_BYTES * len(walk) + segment, f"psi_exact walk at x={x}")
    leaves = [1]
    for p in (q for q in _LEAF_PRIMES if q <= z):
        for i in range(len(leaves)):  # times each power of p, in place
            m = leaves[i] * p
            while m <= x:
                leaves.append(m)
                m *= p
    leaves.sort()
    count, stack = bisect_right(leaves, x), [(x, 0)]
    while stack:
        t, i = stack.pop()
        k = max(i, bisect_right(walk, math.isqrt(t)))  # walk[i:k] can be followed by a walk prime
        for j in range(i, k):
            s = t // walk[j]
            count += bisect_right(leaves, s)
            stack.append((s, j))
        end = bisect_right(walk, t)
        if k < end:  # the leaf children p = walk[k:end] add, for each leaf l, the p <= t // l
            n = bisect_right(leaves, t // walk[k])
            count += sum(min(bisect_right(walk, t // leaf), end) for leaf in leaves[:n]) - k * n
    if limit > r:
        count += sum(int((x // seg).sum()) for seg in PrimeRange(r, limit).segments())
    return count


def psi_hildebrand(x, y) -> SmoothCount:
    """Density approximation x * rho(u), u = log x / log y, with its band."""
    x = int(x)
    if not math.isfinite(y):
        raise PreconditionError(f"psi_hildebrand needs a finite y, got {y}")
    if x < 2 or y < 2:
        raise PreconditionError("psi_hildebrand needs x >= 2 and y >= 2")
    u = math.log(x) / math.log(y)
    if u > HILDEBRAND_U_MAX:
        raise PreconditionError(
            f"density approximation is kept to u <= {HILDEBRAND_U_MAX}, got u = {u:.3f}"
        )
    approx = rho(max(u, 0.0)) * BigRealWithError.exact(x)
    band = math.log(u + 1) / math.log(y)
    return SmoothCount(x=x, y=float(y), exact=None, approx=approx, band=band)


def smooth_count(x, y, with_exact: bool = True) -> SmoothCount:
    """Psi(x, y) exactly (optional) and by the density approximation."""
    sc = psi_hildebrand(x, y)
    if not with_exact:
        return sc
    exact = psi_exact(x, y)
    return SmoothCount(x=sc.x, y=sc.y, exact=exact, approx=sc.approx, band=sc.band)
