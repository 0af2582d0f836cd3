"""The delay-equation solution, its quadrature cross-check, and smooth counts."""

import math
import random

import pytest
from mpmath import mp
from mpmath.libmp import from_man_exp

import oracles
import peaks
from alpha4 import arith, dickman, sieve
from alpha4.errors import BudgetError, PreconditionError

# frozen from the certified marching run (err <= 6.5e-35); parse at high
# precision where used, the ambient default would truncate it to 53 bits
RHO_103_MARCHING = "0.02365013826528735912518812378626979465391"


def test_rho_is_one_up_to_one():
    assert dickman.rho(0).value == 1
    assert dickman.rho(0.5).value == 1
    assert dickman.rho(1).value == 1
    assert dickman.rho(1).err == 0


def test_rho_matches_one_minus_log_on_second_interval():
    # rho(u) = 1 - log u for 1 <= u <= 2
    with mp.workdps(45):
        for u in ("1.25", "1.5", "1.75", "2.0"):
            got = dickman.rho(float(u))
            ref = 1 - mp.log(mp.mpf(u))
            assert abs(got.value - ref) <= got.err + mp.mpf("1e-30"), u


def test_rho_certificates_are_tiny():
    for u in (1.5, 2.5, 10 / 3, 5.0):
        assert float(dickman.rho(u).err) < 1e-30, u


def test_default_panels_meet_the_tightest_tolerance():
    # every panel certifies below MIN_TOL, so rho needs no deeper series
    assert max(dickman._get_panels().errs) <= dickman.MIN_TOL


def test_rho_horner_is_bit_identical_to_mpf_operators():
    # every value of `rho --table --step 0.01` against Horner's rule on
    # mpf objects: equal tuples, not nearby values
    panels = dickman._get_panels()
    coefficients = [[mp.make_mpf(from_man_exp(*c)) for c in a] for a in panels.pairs]
    steps = math.floor(dickman.U_MAX / 0.01 + 1e-9)
    for i in range(steps + 1):
        u = min(i * 0.01, dickman.U_MAX)
        want = oracles.rho_horner(coefficients, u, panels.dps)
        assert dickman.rho(u).value._mpf_ == want._mpf_, u


def test_rho_horner_matches_mpf_operators_at_random_and_mpf_arguments():
    panels = dickman._get_panels()
    coefficients = [[mp.make_mpf(from_man_exp(*c)) for c in a] for a in panels.pairs]
    rng = random.Random(20)
    for u in [rng.uniform(0, dickman.U_MAX) for _ in range(1000)] + [1.0 + 2**-40, 7.5, 19.999999999]:
        assert dickman.rho(u).value._mpf_ == oracles.rho_horner(coefficients, u, panels.dps)._mpf_, u
    # sieve's limit functions pass mpf arguments at 30 digits
    with mp.workdps(30):
        args = [mp.mpf(1) + mp.mpf(rng.getrandbits(100)) / 2**96 for _ in range(100)] + [mp.mpf(10) / 3]
    for u in args:
        assert panels.value(u)[0]._mpf_ == oracles.rho_horner(coefficients, u, panels.dps)._mpf_, u


def test_pair_panels_horner_matches_mpf_operators():
    # the (F, f) pair of the linear sieve reads the same Horner core
    rng = random.Random(5)
    points = [rng.uniform(1, 5) for _ in range(199)] + [5.0]
    for component in sieve._ff_panels():
        coefficients = [[mp.make_mpf(from_man_exp(*c)) for c in a] for a in component.pairs]
        for u in points:
            want = oracles.rho_horner(coefficients, u, component.dps)
            assert component.value(u)[0]._mpf_ == want._mpf_, u


def test_rho_monotone_decreasing():
    vals = [float(dickman.rho(u).value) for u in (1.0, 1.5, 2.0, 2.5, 3.0, 10 / 3, 4.0)]
    assert vals == sorted(vals, reverse=True)
    assert vals[-1] > 0


def test_rho_integral_identity():
    # u rho(u) = int_{u-1}^{u} rho(t) dt, the integrated delay equation,
    # with a breakpoint at floor(u) where rho' jumps; the float() node
    # coercion limits the agreement to roughly double precision
    for u in (2.5, 2.75, 3.3, 4.7):
        with mp.workdps(30):
            integral = mp.quad(lambda t: dickman.rho(float(t)).value, [u - 1, int(u), u])
            assert abs(u * dickman.rho(u).value - integral) < 1e-13, u


def test_rho_domain_checks():
    with pytest.raises(PreconditionError):
        dickman.rho(-0.5)
    with pytest.raises(PreconditionError):
        dickman.rho(25)
    with pytest.raises(PreconditionError):
        dickman.rho(2, tol=1e-40)  # beyond the certifiable floor


def test_rho_solution_grid():
    rows = dickman.rho_solution(4.0, grid_step=0.5)
    us = [row["u"] for row in rows]
    assert us[0] == 0.0 and us[-1] == 4.0
    assert len(us) == 9
    for row in rows:
        assert abs(row["rho"] - float(dickman.rho(row["u"]).value)) <= row["err"] + 1e-16


def test_rho_solution_charges_its_rows_to_the_budget(monkeypatch):
    with pytest.raises(BudgetError, match="rho table"):
        dickman.rho_solution(20, grid_step=1e-300)
    with pytest.raises(BudgetError, match="rho table"):
        dickman.rho_solution(20, grid_step=5e-324)  # 20 / step overflows a float
    monkeypatch.setattr(arith, "budget_mb", 0)
    with pytest.raises(BudgetError, match="needs 1 MB, budget is 0 MB"):
        dickman.rho_solution(20, grid_step=0.01)
    monkeypatch.setattr(arith, "budget_mb", 1)
    assert len(dickman.rho_solution(20, grid_step=0.01)) == 2001


@pytest.mark.parametrize("step", [0, -0.5, math.nan, math.inf])
def test_rho_solution_refuses_a_step_that_is_not_positive_and_finite(step):
    with pytest.raises(PreconditionError, match="grid_step"):
        dickman.rho_solution(4.0, grid_step=step)


def test_rho_ten_thirds_two_routes_agree():
    q = dickman.rho_ten_thirds_quadrature()
    v = dickman.rho(10 / 3)
    with mp.workdps(45):
        ref = mp.mpf(RHO_103_MARCHING)
        assert abs(v.value - ref) <= v.err
    # the quadrature evaluates at the exact rational 10/3, the marching
    # at the binary float; the drift of rho between the two arguments
    # is below 4e-18, so the routes must agree to ~1e-15
    assert abs(q.value - float(mp.mpf(RHO_103_MARCHING))) < 1e-15
    assert q.agreement < 1e-15
    assert float(mp.mpf(RHO_103_MARCHING)) < q.dropped_bound <= 0.025


def test_rho_ten_thirds_dropped_term_is_one_sided():
    q = dickman.rho_ten_thirds_quadrature()
    # dropping I2 >= 0 can only raise the value
    assert q.value <= q.dropped_bound
    assert q.dropped_bound == pytest.approx(0.02446492910365614, abs=1e-15)


def test_psi_exact_small_cases():
    assert dickman.psi_exact(100, 2) == 7  # 1, 2, 4, 8, 16, 32, 64
    assert dickman.psi_exact(100, 10) == 46
    assert dickman.psi_exact(1, 5) == 1
    assert dickman.psi_exact(10, 10) == 10  # y = x counts everything


def test_psi_exact_sieves_no_further_than_x():
    # y far beyond x counts everything without a sieve to y
    assert dickman.psi_exact(1000, 10**12) == 1000
    assert dickman.psi_exact(1000, 1e300) == 1000


def test_psi_exact_matches_brute_force():
    for x, y in ((300, 5), (300, 13), (1000, 7), (1000, 31), (2000, 50)):
        assert dickman.psi_exact(x, y) == oracles.psi(x, y), (x, y)


def test_psi_exact_matches_buchstab_across_window_edges():
    # x around one and three of the old sieve's windows of 2^18; y on both
    # sides of sqrt(x), where the walk stops and the lone primes q > sqrt(x) start
    for x in (2**18 - 1, 2**18, 2**18 + 1, 3 * 2**18 + 5, 10**6):
        r = math.isqrt(x)
        for y in (2, 2.5, 7, 512, 513, r - 1, r, r + 1, 10**5, x, 10**12):
            assert dickman.psi_exact(x, y) == oracles.psi_buchstab(x, y), (x, y)
    assert dickman.psi_exact(10**7, 125.89) == oracles.psi_buchstab(10**7, 125.89) == 362933
    # y on both sides of the leaf primes (those <= 13, read from the table)
    # and of the first walk prime 17
    for x in (10**5, 2**20 + 7):
        for y in (11, 12, 13, 16, 17, 18.5):
            assert dickman.psi_exact(x, y) == oracles.psi_buchstab(x, y), (x, y)
    # x at the square of a prime p and its neighbours, where p turns from a
    # lone prime past sqrt(x) into the last walk prime, with y at, below and
    # above p and past sqrt(x); the square of 10007 is read at y = p only
    for x in (1009**2 - 1, 1009**2, 1009**2 + 1):
        for y in (1008, 1009, 1010, 10**4):
            assert dickman.psi_exact(x, y) == oracles.psi_buchstab(x, y), (x, y)
    assert dickman.psi_exact(10007**2, 10007) == oracles.psi_buchstab(10007**2, 10007)


def test_psi_exact_peaks_stay_under_their_charges():
    # the leaf table is charged at its most, the 38,168 13-smooth numbers
    # below 2^32, so the largest x fills it; (10^7, 3*10^6) also sieves
    # three prime segments past sqrt(x). The warm-up count past sqrt(x)
    # loads numpy outside the trace
    cases = [(10**7, 125.89), (10**9, 100), (10**7, 3 * 10**6), (2**32 - 1, 100)]
    setup = "from alpha4 import dickman\ndickman.psi_exact(100, 50)"
    (rows,) = peaks.traced(setup, [f"dickman.psi_exact({x}, {y})" for x, y in cases])
    for (x, y), (peak, charges) in zip(cases, rows):
        charge = charges[f"psi_exact walk at x={x}"]
        assert peak <= charge, (x, y, peak, charge)
    assert charge <= 1.5 * peak, (peak, charge)


def test_psi_exact_frozen_desk_values():
    y = 10**1.8
    assert dickman.psi_exact(10**5, y) == 12165
    assert dickman.psi_exact(10**6, y) == 44627


def test_psi_dyadic_window():
    # window count by two exact calls vs a direct double loop
    lo, hi, y = 500, 1000, 11
    window = dickman.psi_exact(hi, y) - dickman.psi_exact(lo, y)
    brute = sum(1 for n in range(lo + 1, hi + 1) if oracles.max_prime_factor(n) <= y)
    assert window == brute


def test_psi_budget_refusal(monkeypatch):
    # the leaf table is charged at its most, about 2 MB whatever x is, so a budget below it refuses
    monkeypatch.setattr(arith, "budget_mb", 0)
    with pytest.raises(BudgetError):
        dickman.psi_exact(10**9, 100)


def test_psi_refuses_x_from_2_to_the_32_before_its_budget(monkeypatch):
    # refused before the budget is consulted or anything is allocated
    monkeypatch.setattr(arith, "budget_mb", 2**20)
    with pytest.raises(PreconditionError, match="2\\^32"):
        dickman.psi_exact(2**32, 100)
    # one below, the budget is what refuses
    monkeypatch.setattr(arith, "budget_mb", 0)
    with pytest.raises(BudgetError, match="needs 2 MB"):
        dickman.psi_exact(2**32 - 1, 100)


def test_psi_refuses_a_y_that_is_not_finite():
    for y in (math.inf, math.nan):
        with pytest.raises(PreconditionError, match="finite y"):
            dickman.psi_exact(100, y)
        with pytest.raises(PreconditionError, match="finite y"):
            dickman.psi_hildebrand(100, y)


def test_psi_hildebrand_band_and_domain():
    sc = dickman.psi_hildebrand(10**6, 10**1.8)
    assert sc.exact is None
    assert float(sc.approx.value) == pytest.approx(10**6 * float(dickman.rho(10 / 3).value), rel=1e-12)
    assert 0 < sc.band < 1
    with pytest.raises(PreconditionError):
        dickman.psi_hildebrand(10**6, 3)  # u far beyond the kept range


def test_smooth_count_bundles_both_routes():
    sc = dickman.smooth_count(10**5, 10**1.8)
    assert sc.exact == 12165
    rel = abs(sc.exact / float(sc.approx.value) - 1)
    assert rel < 4 * sc.band

