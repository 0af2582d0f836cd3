"""End-to-end verification checks.

Each check re-derives one headline claim from scratch at desk scale and
returns a CheckResult; the CLI command `verify-all` and the acceptance
test module both run exactly these functions, so a green CLI run and a
green test run certify the same thing.

The special-set check carries its own independent oracle: a pure trial-
division enumeration that shares no code with the package's sieve or
factorization paths. The tail-identity check recomputes a seeded sample
of its sigma_4 windows by the same trial division. Each check imports
the layers it runs, so the registry, and a run of one check, load
nothing else.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import zip_longest

from .errors import PreconditionError

__all__ = ["CheckResult", "CHECKS", "check_names", "run_check"]


@dataclass
class CheckResult:
    name: str
    ok: bool
    elapsed: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        return f"[{'PASS' if self.ok else 'FAIL'}] {self.name} ({self.elapsed:.2f}s)"


# -- 1: the certified series value ------------------------------------------


def check_alpha_digits(ctx: dict) -> dict:
    import mpmath as mp
    from . import series
    val = series.alpha_k(4, target_precision=128)
    printed = val.leading_decimal(7)
    return {
        "ok": printed == "42.30104" and val.err < mp.mpf("1e-20"),
        "printed_7_digits": printed,
        "certified_err": float(val.err),
        "budget_s": 5.0,
    }


# -- 2: the density two ways ---------------------------------------------------


def check_rho_two_routes(ctx: dict) -> dict:
    from . import dickman
    r = dickman.rho_ten_thirds_quadrature()
    ok = (
        r.agreement <= 1e-8
        and r.value <= 0.025
        and r.dropped_bound <= 0.025
        and r.value <= r.dropped_bound
        and float(r.marching.value) <= 0.025
    )
    return {
        "ok": ok,
        "quadrature": r.value,
        "dropped_bound": r.dropped_bound,
        "marching": float(r.marching.value),
        "marching_err": float(r.marching.err),
        "agreement": r.agreement,
        "budget_s": 1.0,
    }


# -- 3: exact vs approximate smooth counts ---------------------------------------


def check_smooth_counts(ctx: dict) -> dict:
    """Exact counts against the density approximation, both normalizations.

    The density model understates the counts at these scales, so the two
    relative gaps differ: normalizing by the exact count stays within 3x
    the band, while normalizing by the approximation needs constant 4
    (measured: 3.7 at x = 10^5, shrinking as x grows). Both inequalities
    are asserted at those constants and both gaps are reported.
    """
    from . import dickman
    rho_val = float(dickman.rho(10 / 3).value)
    rows = []
    ok = True
    for x in (10**5, 10**6, 10**7):
        y = x**0.3
        exact = dickman.psi_exact(x, y)
        approx = x * rho_val
        band = math.log(10 / 3 + 1) / math.log(y)
        rel_by_exact = abs(approx / exact - 1)
        rel_by_approx = abs(exact / approx - 1)
        rows.append(
            {
                "x": x,
                "y": y,
                "exact": exact,
                "approx": approx,
                "band": band,
                "rel_by_exact": rel_by_exact,
                "rel_by_approx": rel_by_approx,
                "needed_constant_by_approx": rel_by_approx / band,
            }
        )
        ok = ok and rel_by_exact <= 3 * band and rel_by_approx <= 4 * band
    return {"ok": ok, "rows": rows, "band_constants": {"by_exact": 3.0, "by_approx": 4.0}, "budget_s": 60.0}


# -- 4: the weight sandwich -------------------------------------------------------


def check_sieve_sandwich(ctx: dict) -> dict:
    from . import sieve
    inject = bool(ctx.get("inject_bad_weights"))
    rows = []
    ok = True
    for z, d in ((30, 900), (100, 10**4)):
        ws = sieve.beta_sieve_weights(d, z)
        if inject:
            # flip a negative lower weight to +1: raising the minorant at
            # multiples of the victim divisor must break the sandwich
            lam = ws.lambda_minus
            negatives = [k for k, wt in lam.items() if k > 1 and wt < 0]
            victim = max(negatives) if negatives else max(k for k in lam if k > 1)
            ws = replace(ws, lambda_minus={**lam, victim: -lam[victim]})
        rep = sieve.verify_sandwich(ws, 10**5)
        rows.append(rep)
        ok = ok and rep["ok"]
    return {"ok": ok, "rows": rows, "injected_fault": inject, "budget_s": 30.0}


# -- 5: truncated Moebius sandwiches -----------------------------------------------


def check_fundamental_lemma(ctx: dict) -> dict:
    from . import sieve
    rows = []
    ok = True
    for R in (1, 2, 3):
        for parity in ("even", "odd"):
            t = sieve.FundamentalLemmaTruncation(z=30, R=R, parity=parity)
            rep = sieve.fundamental_lemma_check(t, 10**5)
            rows.append(rep)
            ok = ok and rep["ok"]
    return {"ok": ok, "rows": rows, "budget_s": 30.0}


# -- 6: the linear-sieve limit functions ---------------------------------------------


def check_limit_functions(ctx: dict) -> dict:
    import mpmath as mp
    from . import sieve
    with mp.workdps(30):
        tge = 2 * mp.exp(mp.euler)
        h = mp.mpf("1e-11")
        f3_closed = tge / 3 * mp.log(2)
        checks = {
            "F2_equals_2egamma_over_2": abs(sieve.linear_F(2) - tge / 2) <= mp.mpf("1e-10"),
            "f2_equals_zero": abs(sieve.linear_f(2)) <= mp.mpf("1e-10"),
            "f3_closed_form": abs(sieve.linear_f(3) - f3_closed) <= mp.mpf("1e-10"),
            "F_continuous_at_3": abs(sieve.linear_F(3 + h) - sieve.linear_F(3)) <= mp.mpf("1e-10"),
            "f_continuous_at_2": abs(sieve.linear_f(2 + h) - sieve.linear_f(2)) <= mp.mpf("1e-10"),
        }
        # the delay-integral extension reproduces the closed form on [2, 4]
        worst = mp.mpf(0)
        for s in (mp.mpf("2.5"), mp.mpf(3), mp.mpf("3.5"), mp.mpf(4)):
            via_integral = mp.quad(lambda t: sieve.linear_F(t - 1), [2, s]) / s
            worst = max(worst, abs(via_integral - sieve.linear_f(s)))
        checks["f_extension_matches_closed"] = worst <= mp.mpf("1e-8")
        # the panels' F on (3, 5] against its dilogarithm form
        def dilog_form(s):  # s F(s) = 2 e^gamma (1 + log(s-2) log(s-1) + Li2(2-s) + pi^2/12)
            return tge * (1 + mp.log(s - 2) * mp.log(s - 1) + mp.polylog(2, 2 - s) + mp.pi**2 / 12) / s

        li2_worst = max(abs(sieve.linear_F(s) - dilog_form(s)) for s in (3 + mp.mpf(k) / 4 for k in range(1, 9)))
        checks["F_matches_dilogarithm_form"] = li2_worst <= mp.mpf("1e-25")
        return {
            "ok": all(checks.values()),
            "checks": {k: bool(v) for k, v in checks.items()},
            "f_extension_worst_gap": float(worst),
            "F_dilogarithm_worst_gap": float(li2_worst),
            "F5": float(sieve.linear_F(5)),
            "budget_s": 30.0,
        }


# -- 7: the two-variable sandwich -----------------------------------------------------


def check_vector_sandwich(ctx: dict) -> dict:
    from . import sieve
    rep = sieve.vector_sieve_random_trials(10**6, seed=0)
    return {"ok": rep["ok"], "report": rep, "budget_s": 30.0}


# -- 8: phase-sum engines and differencing ---------------------------------------------


def _seeded_specs(rng, count: int) -> list[expsums.PhaseSpec]:
    from . import expsums
    specs = []
    primes_r = (101, 103, 211, 401)
    for i in range(count):
        shape = i % 4
        if shape == 0:
            A = Fraction(rng.randrange(1, 10**12), rng.randrange(1, 10**6))
            B = Fraction(rng.randrange(0, 10**8), rng.randrange(1, 10**4))
            n = 64 + rng.randrange(448)
            specs.append(expsums.make_basic_phase(A, B, 0, n))
        elif shape == 1:
            A = Fraction(rng.random()) * 10**6
            B = Fraction(rng.random()) * 10**3
            n = 64 + rng.randrange(448)
            specs.append(expsums.make_basic_phase(A, B, 0, n))
        elif shape == 2:
            r = primes_r[i % len(primes_r)]
            m = rng.randrange(10**3, 10**5)
            while math.gcd(m, r) != 1:
                m += 1
            h = 1 + rng.randrange(4)
            specs.append(expsums.make_lemma61_phase(h, m, r, 0, 16 + rng.randrange(48)))
        else:
            r = 3 + rng.randrange(48)
            m = 10**3 + rng.randrange(10**4)
            j = 1 + rng.randrange(3)
            l1 = 1 + rng.randrange(9)
            l2 = 1 + rng.randrange(9)
            if l2 == l1:
                l2 += 1
            specs.append(
                expsums.make_lemma62_inner_phase(h=1 + rng.randrange(3), m=m, r=r, j=j, l1=l1, l2=l2, lo=0, hi=64)
            )
    return specs


def check_phase_engines(ctx: dict) -> dict:
    """The exact engine against the certified one on 100 seeded specs: each
    exact sum within 1e-9 of the certified midpoint, each radius at most
    1e-20. Then the Weyl differencing displays on 20 more specs."""
    import random
    from . import expsums
    rng = random.Random(20260819)
    specs = _seeded_specs(rng, 100)
    worst_rad = 0.0
    worst_xm = 0.0
    failing = None
    for i, spec in enumerate(specs):
        re, im, rad = expsums.certified_sum(spec)
        radius = math.ldexp(rad, -expsums.F)
        gap = abs(expsums.eval_phase(spec, engine="exact").value - complex(math.ldexp(re, -expsums.F),
                                                                           math.ldexp(im, -expsums.F)))
        worst_rad, worst_xm = max(worst_rad, radius), max(worst_xm, gap)
        if failing is None and (gap > 1e-9 or radius > 1e-20):
            failing = {"index": i, "kind": spec.kind, "failed": "engine_gap" if gap > 1e-9 else "radius"}
    zero = expsums.eval_phase(expsums.make_basic_phase(0, 0, 0, 777))
    zero_exact = zero.value == complex(777, 0)

    weyl_rows = []
    wrng = random.Random(77)
    wspecs: list[expsums.PhaseSpec] = []
    for _ in range(14):
        A = Fraction(wrng.randrange(1, 2**40), 2**20)
        B = Fraction(wrng.randrange(0, 2**20), 2**20)
        wspecs.append(expsums.make_basic_phase(A, B, 0, 512))
    for _ in range(6):
        r = 101
        m = wrng.randrange(10**4, 10**5)
        while math.gcd(m, r) != 1:
            m += 1
        wspecs.append(expsums.make_lemma61_phase(1 + wrng.randrange(3), m, r, 0, 256))
    for spec in wspecs:
        rep = expsums.weyl_difference_check(spec, K=8, L=8)
        weyl_rows.append(
            {
                "kind": spec.kind,
                "first_ratio": rep["first_ratio"],
                "second_ratio": rep["second_ratio"],
                "ok": rep["first_ok"] and rep["second_ok"],
            }
        )
    weyl_ok = all(r["ok"] for r in weyl_rows)
    out = {
        "ok": failing is None and zero_exact and weyl_ok,
        "specs": len(specs),
        "worst_certified_radius": worst_rad,
        "worst_engine_gap": worst_xm,
        "zero_phase_exact": zero_exact,
        "weyl_suite": len(wspecs),
        "weyl_all_ok": weyl_ok,
        "weyl_worst_first_ratio": max(r["first_ratio"] for r in weyl_rows),
        "weyl_worst_second_ratio": max(r["second_ratio"] for r in weyl_rows),
        "budget_s": 120.0,
    }
    if failing is not None:
        out["first_failing_spec"] = failing
    if not weyl_ok:
        out["first_failing_weyl"] = next(i for i, r in enumerate(weyl_rows) if not r["ok"])
    return out


# -- 9: the differenced amplitude ---------------------------------------------------


def check_amplitude_grid(ctx: dict) -> dict:
    from . import expsums
    A, B = Fraction(2), Fraction(1)
    k, l = 30, 20
    Q = 500
    grid = [Q + (Q * i) // 49 for i in range(50)]
    unequal = [n for n in grid if expsums.f_ell_integral(A, B, k, l, n) != expsums.f_ell_closed(A, B, k, l, n)]
    prof = expsums.f_ell_derivative_profile(Fraction(3), Fraction(3, 2048), 64, 100, 1024)
    out = {
        "ok": not unequal and prof["all_in_bracket"] and prof["sign_matches_A"],
        "grid_points": len(grid),
        "points_equal": len(grid) - len(unequal),
        "profile_in_bracket": prof["all_in_bracket"],
        "profile_sign_ok": prof["sign_matches_A"],
        "budget_s": 60.0,
    }
    if unequal:
        out["first_unequal_n"] = unequal[0]
    return out


# -- 10: the special set against a from-scratch oracle --------------------------------


def _tf_primes(n: int) -> list[int]:
    """The primes up to n by a sieve of Eratosthenes (oracle path, no shared code)."""
    composite = bytearray(n + 1)
    primes = []
    for d in range(2, n + 1):
        if not composite[d]:
            primes.append(d)
            composite[d * d :: d] = b"\x01" * len(range(d * d, n + 1, d))
    return primes


def _tf(n: int, primes: list[int]) -> list[tuple[int, int]]:
    """Trial-division factorization by primes, which must reach isqrt(n) (oracle path, no shared code)."""
    out = []
    for p in primes:
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return out


def _lpf(n: int, primes: list[int]) -> int:
    """Least prime factor of n > 1 by trial division by primes, which must reach isqrt(n) (oracle path, no shared code)."""
    for p in primes:
        if p * p > n:
            break
        if n % p == 0:
            return p
    return n


def _tf_sigma4(fac: list[tuple[int, int]]) -> int:
    out = 1
    for p, e in fac:
        out *= (p ** (4 * (e + 1)) - 1) // (p**4 - 1)
    return out


def _oracle_stat(p: int, fac_p1: list[tuple[int, int]], r: int | None, delta: Fraction) -> bool:
    """Whether ||sigma_4(p+1)/(p(p+1)) + 1/16 [+ (p+1)/r^4]|| = ||a/b|| <= delta,
    in integers (oracle path, no shared code)."""
    b = 16 * p * (p + 1)
    a = 16 * _tf_sigma4(fac_p1) + p * (p + 1)
    if r is not None:
        a, b = a * r**4 + b * (p + 1), b * r**4
    f = a % b
    return min(f, b - f) * delta.denominator <= delta.numerator * b


def _oracle_special(x, w, zs, zl, zh, y_smooth, delta: Fraction):
    """Members (p, r) of S and the four sigma counts from one walk: primes
    from a sieve of Eratosthenes over (x/2, x], factors by trial division."""
    members = []
    s1 = s2 = s3 = s4 = 0
    start = x // 2 + 1
    primes = _tf_primes(math.isqrt(x + 3))  # they factor every value up to p + 3
    composite = bytearray(x + 1 - start)  # entry i stands for start + i; 1 marks a composite
    for d in primes:
        lo = max(d * d, -(-start // d) * d)
        composite[lo - start :: d] = b"\x01" * len(range(lo, x + 1, d))
    first = start + ((w - 1 - start) % w)
    for p in range(first, x + 1, w):
        if composite[p - start]:
            continue
        if _lpf((p + 3) // 2, primes) <= zs:
            continue
        f2 = _tf(p + 2, primes)
        window_rs = [q for q, _ in f2 if zl < q <= zh]
        rough = f2[0][0] > zl
        if rough and all(e == 1 for _, e in f2) and len(window_rs) <= 1:
            members.append((p, window_rs[0] if window_rs else None))
        fac_p1 = _tf(p + 1, primes)
        if f2[0][0] > zh and _oracle_stat(p, fac_p1, None, delta):
            s1 += 1
        if not window_rs:
            continue
        smooth = max(q for q, _ in fac_p1) <= y_smooth
        for r in window_rs:
            cof = (p + 2) // r
            cof_ok = cof == 1 or _lpf(cof, primes) > zh
            if cof_ok and _oracle_stat(p, fac_p1, r, delta):
                s2 += 1
            if rough:
                if smooth:
                    s3 += 1
                elif _oracle_stat(p, fac_p1, r, delta):
                    s4 += 1
    return members, [s1, s2, s3, s4]


def _special_context(ctx: dict):
    from . import sieve, special
    if "params" not in ctx:
        ctx["params"] = sieve.make_scale_params(10**6)
    if "records" not in ctx:
        ctx["records"] = special.enumerate_S(ctx["params"])
    return ctx["params"], ctx["records"]


def check_special_set(ctx: dict) -> dict:
    from . import special
    params, records = _special_context(ctx)
    delta = 0.05
    counters = special.count_sigmas(params, delta)
    part = special.partition_check(records, params)

    oracle_members, oracle_sigmas = _oracle_special(
        params.x,
        params.W,
        params.z_small,
        params.z_quarter_lo,
        params.z_quarter_hi,
        params.x**params.smooth_exp,
        Fraction(delta),
    )
    members = [(rec.p, rec.r) for rec in records]
    members_match = members == oracle_members
    sigmas = [counters.sigma1, counters.sigma2, counters.sigma3, counters.sigma4]
    sigmas_match = sigmas == oracle_sigmas
    pair_bound = counters.sigma2 <= counters.sigma3 + counters.sigma4
    ok = members_match and sigmas_match and part["ok"] and pair_bound
    out = {
        "ok": ok,
        "x": params.x,
        "preset": params.preset,
        "thresholds": [params.z_small, params.z_quarter_lo, params.z_quarter_hi],
        "S_size": len(records),
        "members_match_oracle": members_match,
        "sigmas": sigmas,
        "oracle_sigmas": oracle_sigmas,
        "sigmas_match_oracle": sigmas_match,
        "partition_ok": part["ok"],
        "pair_bound_holds": pair_bound,
        "witness_gap": counters.witness_gap(),
        "budget_s": 60.0,
    }
    if not members_match:
        # the first place where they part: [walk's (p, r), oracle's (p, r)], None past an end
        out["first_member_mismatch"] = next([a, b] for a, b in zip_longest(members, oracle_members) if a != b)
    if not sigmas_match:
        out["first_sigma_mismatch"] = next(i for i, (a, b) in enumerate(zip(sigmas, oracle_sigmas)) if a != b)
    return out


# -- 11: the exact tail identity over S ------------------------------------------------


# how many primes' windows tail_identity recomputes by the oracle's trial
# division: 1,968 values, about 16 ms at 10^6
ORACLE_WINDOWS = 48


def check_tail_identity(ctx: dict) -> dict:
    """The exact tail identity at every prime of S, in integers, on windows
    sigma_4(p..p+40) whose run sieve multiplied its pairs back to each value;
    a seeded sample of windows faces the oracle's trial division."""
    import random
    from . import series
    _, records = _special_context(ctx)
    j_max = 40
    checked = oracle_values = 0
    worst = 0.0  # the largest (tail from p+4) / (its bound)
    primes = [rec.p for rec in records]
    # the windows of a seeded sample of the primes face the oracle's trial division
    p_max = max(primes, default=0)
    sample = set(random.Random(20261020).sample(primes, min(ORACLE_WINDOWS, len(primes))))
    oracle_primes = _tf_primes(math.isqrt(p_max + j_max))
    # one sigma_4 window per prime feeds both sides of the identity
    for p, window in zip(primes, series.sigma4_windows(primes, j_max)):
        # terms[0] = sigma_4(p)/p, and terms[0] - p^3 = 1/p says sigma_4(p) = p^4 + 1:
        # a data failure here, before tail_expansion refuses a p that is not prime
        if window[0] != p**4 + 1:
            return {"ok": False, "failed_p": p, "reason": "p-term residual is not 1/p"}
        # the four leading terms, with tail_expansion's 6/p guard
        exp = series.tail_expansion(p, sigma4=window)
        # lead / d4 and bound_a / (bound_b d4), d4 = p (p+1) (p+2) (p+3)
        (lead, d4), (bound_a, bound_b) = exp.leading_pair(), exp.bound
        # one Horner pass: the sum from p+4, continued to the sum from p over den = p ... (p+j_max)
        part, d = series.factorial_series(window[4:], p + 4)
        whole, den = series.factorial_series(window[:4], p, part, d)
        if (whole - part) * d4 != lead * den:
            return {"ok": False, "failed_p": p, "gap": float(Fraction(whole - part, den) - Fraction(lead, d4))}
        # the exact terms j = 4..j_max and the bound past j_max, rem_a / (rem_b den),
        # stay under the bound for everything from p+4: this reads the other window values
        rem_a, rem_b = series.tail_remainder_scaled(p, j_max + 1)
        top = (part * rem_b + rem_a) * bound_b * d4
        bottom = bound_a * den * rem_b
        # int / int rounds once, and rounding keeps the order, so worst is the largest ratio rounded
        ratio = top / bottom
        if top > bottom:
            return {"ok": False, "failed_p": p, "reason": "tail from p+4 exceeds its bound", "ratio": ratio}
        if p in sample:
            for j, value in enumerate(window):
                if value != _tf_sigma4(_tf(p + j, oracle_primes)):
                    return {"ok": False, "failed_p": p, "j": j, "reason": "sigma_4(p+j) differs from the oracle's"}
            oracle_values += len(window)
        worst = max(worst, ratio)
        checked += 1
    return {"ok": True, "primes_checked": checked, "j_max": j_max, "max_tail_to_bound": worst,
            "oracle_window_values": oracle_values, "budget_s": 60.0}


# -- registry ---------------------------------------------------------------------------

CHECKS: list[tuple[str, object]] = [
    ("alpha_digits", check_alpha_digits),
    ("rho_two_routes", check_rho_two_routes),
    ("smooth_counts", check_smooth_counts),
    ("sieve_sandwich", check_sieve_sandwich),
    ("fundamental_lemma", check_fundamental_lemma),
    ("limit_functions", check_limit_functions),
    ("vector_sandwich", check_vector_sandwich),
    ("phase_engines", check_phase_engines),
    ("amplitude_grid", check_amplitude_grid),
    ("special_set", check_special_set),
    ("tail_identity", check_tail_identity),
]


def check_names() -> list[str]:
    return [name for name, _ in CHECKS]


def run_check(name: str, ctx: dict | None = None) -> CheckResult:
    ctx = ctx if ctx is not None else {}
    for n, fn in CHECKS:
        if n == name:
            t0 = time.perf_counter()
            details = fn(ctx)
            elapsed = time.perf_counter() - t0
            ok = bool(details.pop("ok"))
            budget = details.get("budget_s")
            if budget is not None and elapsed > budget:
                ok = False
                details["over_time_budget"] = True
            return CheckResult(name=name, ok=ok, elapsed=elapsed, details=details)
    raise PreconditionError(f"unknown check {name!r}; known: {check_names()}")
