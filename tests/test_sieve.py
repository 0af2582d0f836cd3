"""Beta-sieve weights, truncation lemmas, limit functions, scale thresholds."""

import math
from fractions import Fraction

import pytest
from mpmath import mp

import oracles
import peaks
from alpha4 import arith, sieve
from alpha4.arith import PrimeRange
from alpha4.errors import BudgetError, PreconditionError


def test_weights_full_table_small_case():
    # hand-enumerable: sift primes {2, 3, 5, 7}, level 100, z = 10.
    # chains die when the cube condition prod * p^3 < D fails at the
    # constrained positions (odd for the majorant, even for the minorant)
    ws = sieve.beta_sieve_weights(100, 10)
    assert ws.s == 2.0
    assert dict(sorted(ws.lambda_plus.items())) == {1: 1, 2: -1, 3: -1, 6: 1}
    assert dict(sorted(ws.lambda_minus.items())) == {
        1: 1, 2: -1, 3: -1, 5: -1, 6: 1, 7: -1, 10: 1, 14: 1,
    }


def test_weights_are_signed_by_mobius():
    ws = sieve.beta_sieve_weights(10**4, 100)
    for lam in (ws.lambda_plus, ws.lambda_minus):
        for d, w in lam.items():
            assert w == oracles.mu(d), d


def test_weight_support_sizes_at_reference_levels():
    ws = sieve.beta_sieve_weights(900, 30)
    assert (len(ws.lambda_plus), len(ws.lambda_minus)) == (14, 40)
    ws = sieve.beta_sieve_weights(10**4, 100)
    assert (len(ws.lambda_plus), len(ws.lambda_minus)) == (92, 208)
    ws = sieve.beta_sieve_weights(10**6, 1000)
    assert (len(ws.lambda_plus), len(ws.lambda_minus)) == (3274, 7532)


@pytest.mark.parametrize(
    "D, z",
    [(100, 10), (900, 30), (500, 10**4), (12345.5, 200), (1.5, 10), (100, 2), (10**6, 1000)],
)
def test_weights_match_the_brute_force_definition(D, z):
    # D < z, a non-integer D, D < 2 and z = 2 among them
    upper, lower = oracles.beta_weights(D, z)
    ws = sieve.beta_sieve_weights(D, z)
    assert ws.lambda_plus == upper
    assert ws.lambda_minus == lower


def test_weights_read_no_prime_above_the_level():
    # no weight d <= D holds a prime above D, so a huge z sieves nothing more
    huge = sieve.beta_sieve_weights(100, 10**11)
    small = sieve.beta_sieve_weights(100, 100)
    assert (huge.lambda_plus, huge.lambda_minus) == (small.lambda_plus, small.lambda_minus)
    assert sieve.verify_sandwich(huge, 100) == sieve.verify_sandwich(small, 100)


def test_weights_are_charged_to_the_budget(monkeypatch):
    # the primes up to min(z, D) are refused before the sieve runs, and a
    # level whose chains never end is refused as its dicts grow
    with pytest.raises(BudgetError, match="beta weights"):
        sieve.beta_sieve_weights(1e11, 10**11)
    monkeypatch.setattr(arith, "budget_mb", 1)
    with pytest.raises(BudgetError, match="beta weights at D=1e\\+30, z=1000 needs 2 MB, budget is 1 MB"):
        sieve.beta_sieve_weights(1e30, 1000)
    monkeypatch.setattr(arith, "budget_mb", 3)
    assert len(sieve.beta_sieve_weights(10**6, 1000).lambda_minus) == 7532


def test_weights_degenerate_level():
    ws = sieve.beta_sieve_weights(1.5, 10)
    assert ws.lambda_plus == {1: 1}
    assert ws.lambda_minus == {1: 1}


@pytest.mark.parametrize("D", [0, -1, 0.0, math.nan, math.inf])
def test_weights_refuse_a_level_that_is_not_positive_and_finite(D):
    with pytest.raises(PreconditionError, match="level D"):
        sieve.beta_sieve_weights(D, 10)


def test_weights_reject_tiny_z():
    with pytest.raises(PreconditionError):
        sieve.beta_sieve_weights(100, 1.5)


def test_sandwich_holds_and_brackets_the_indicator():
    ws = sieve.beta_sieve_weights(100, 10)
    rep = sieve.verify_sandwich(ws, 3000)
    assert rep["ok"]
    assert rep["upper_violations"] == 0 and rep["lower_violations"] == 0
    assert rep["checked"] == 3000
    assert rep["min_upper_slack"] == 0 and rep["min_lower_slack"] == 0


def test_sandwich_against_direct_sums():
    # recompute sum_{d | (n, P(z))} lambda_d for a strip of n by brute
    # force and compare with the sifted indicator directly
    ws = sieve.beta_sieve_weights(100, 10)
    for n in range(1, 400):
        up = sum(w for d, w in ws.lambda_plus.items() if n % d == 0)
        low = sum(w for d, w in ws.lambda_minus.items() if n % d == 0)
        sifted = 1 if all(n % p for p in (2, 3, 5, 7)) else 0
        assert low <= sifted <= up, n


def test_fundamental_lemma_even_and_odd():
    even = sieve.FundamentalLemmaTruncation(z=10, R=1, parity="even")
    odd = sieve.FundamentalLemmaTruncation(z=10, R=1, parity="odd")
    assert even.omega_cap == 2 and odd.omega_cap == 3
    rep_e = sieve.fundamental_lemma_check(even, 3000)
    rep_o = sieve.fundamental_lemma_check(odd, 3000)
    assert rep_e["ok"] and rep_o["ok"]
    assert rep_e["violations"] == 0 and rep_o["violations"] == 0
    assert rep_e["min_slack"] >= 0  # even truncation majorizes
    assert rep_o["max_slack"] <= 0 or rep_o["min_slack"] <= 0  # odd minorizes


@pytest.mark.parametrize("z", [10, 30, 10**9])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_fundamental_lemma_against_direct_moebius_sum(z, parity):
    # the truncated sum over d | (n, P(z)) with omega(d) <= cap, by divisors
    t = sieve.FundamentalLemmaTruncation(z=z, R=1, parity=parity)
    sign = 1 if parity == "even" else -1
    slacks = []
    for n in range(1, 500):
        total = 0
        for d in oracles.divisors(n):
            f = oracles.factor(d)
            if all(p <= z for p in f) and len(f) <= t.omega_cap:
                total += oracles.mu(d)
        sifted = 1 if all(n % p for p in range(2, min(z, n) + 1) if oracles.is_prime(p)) else 0
        slacks.append(sign * (total - sifted))
    rep = sieve.fundamental_lemma_check(t, 499)
    assert min(slacks) >= 0  # the even cap majorizes, the odd one minorizes
    assert (rep["violations"], rep["first_violation"]) == (0, None)
    assert (rep["min_slack"], rep["max_slack"]) == (min(slacks), max(slacks))


def test_sandwich_peaks_stay_under_their_charges():
    # both comparisons are charged one constant per n, verify_sandwich its
    # weights too; the charge must cover the traced peak without overstating
    # it by half. With z = n_limit nearly every squarefree n is a truncated
    # weight, and those must stream into the comparison, not be kept
    setup = """
from alpha4 import sieve
ws = sieve.beta_sieve_weights(10**4, 100)
n = 2 * 10**5
few = sieve.FundamentalLemmaTruncation(z=30, R=3, parity="odd")
most = sieve.FundamentalLemmaTruncation(z=n, R=3, parity="even")
"""
    cases = ["sieve.verify_sandwich(ws, n)", "sieve.fundamental_lemma_check(few, n)",
             "sieve.fundamental_lemma_check(most, n)"]
    (rows,) = peaks.traced(setup + "\n".join(cases), cases)  # each once untraced, so no peak holds an import
    peaks.charges_cover_peaks(rows)


def test_fundamental_lemma_rejects_bad_inputs():
    with pytest.raises(PreconditionError):
        sieve.FundamentalLemmaTruncation(z=10, R=0, parity="even")
    with pytest.raises(PreconditionError):
        sieve.FundamentalLemmaTruncation(z=10, R=1, parity="both")


def test_vector_check_accepts_and_orders():
    assert sieve.vector_sieve_check(1, 2, 3, 1, 2, 3)
    # negative lower bounds are fine
    assert sieve.vector_sieve_check(-5, 2, 3, -1, 1, 4)
    assert sieve.vector_sieve_check(
        Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
        Fraction(1, 5), Fraction(1, 4), Fraction(1, 3),
    )


def test_vector_check_rejects_disorder():
    with pytest.raises(PreconditionError, match="ordered"):
        sieve.vector_sieve_check(3, 2, 1, 1, 2, 3)
    with pytest.raises(PreconditionError, match="nonnegative"):
        sieve.vector_sieve_check(-3, -2, 1, 1, 2, 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, "nan", "1/0"], ids=repr)
def test_vector_check_refuses_a_value_that_is_not_a_finite_number(bad):
    with pytest.raises(PreconditionError, match="d1_minus must be a finite number"):
        sieve.vector_sieve_check(bad, 1, 1, 1, 1, 1)


def test_vector_random_trials_refuse_a_negative_seed():
    with pytest.raises(PreconditionError, match="seed must be nonnegative"):
        sieve.vector_sieve_random_trials(count=100, seed=-1)


def test_vector_random_trials_deterministic():
    rep = sieve.vector_sieve_random_trials(count=20000, seed=5)
    assert rep["ok"]
    assert rep["violations"] == 0
    assert rep["min_slack"] >= 0
    again = sieve.vector_sieve_random_trials(count=20000, seed=5)
    assert again == rep


_TRIAL_CASES = [(1, 0), (7, 3), (20000, 5), (65537, 2), (131071, 9), (999999, 1), (10**6, 0), (3 << 14, 4)]


@pytest.mark.parametrize("count, seed", _TRIAL_CASES, ids=[f"{c}-{s}" for c, s in _TRIAL_CASES])
def test_vector_random_trials_in_blocks_equal_the_full_columns(count, seed):
    # odd counts start columns in the high half of a 64-bit draw; 3 * 2^14 is whole blocks
    assert sieve.vector_sieve_random_trials(count, seed) == oracles.vector_trials(count, seed)


def test_vector_random_trials_add_up_violations_across_blocks(monkeypatch):
    # no valid tuple breaks the sandwich, so shift the slack: seed 0 then
    # fails 3 of 65,537 trials, in the third and fourth blocks
    real, shift = sieve._vector_slack, 2 * 10**7
    monkeypatch.setattr(sieve, "_vector_slack", lambda *cols: real(*cols) - shift)
    rep = sieve.vector_sieve_random_trials(65537, 0)
    assert rep == oracles.vector_trials(65537, 0, shift)
    assert rep["violations"] == 3 and rep["first_violation_index"] == 44850


def test_vector_random_trials_charge_one_block():
    # the warm-up keeps numpy's import out of the check's peak
    setup = "from alpha4 import sieve\nsieve.vector_sieve_random_trials(1)"
    (((peak, _),),) = peaks.traced(setup, ["sieve.vector_sieve_random_trials(10**6)"])
    assert peak <= sieve._TRIAL_BLOCK_BYTES <= 1.5 * peak


def test_limit_function_values():
    with mp.workdps(30):
        assert abs(sieve.linear_F(2) - 2 * mp.exp(mp.euler) / 2) < mp.mpf("1e-25")
        assert abs(sieve.linear_f(2)) < mp.mpf("1e-25")
        f3 = sieve.linear_f(3)
        ref = (2 * mp.exp(mp.euler) / 3) * mp.log(2)
        assert abs(f3 - ref) < mp.mpf("1e-25")
    assert float(sieve.linear_F(5)) == pytest.approx(1.0017404102339066, abs=1e-13)


def test_limit_functions_converge_and_order():
    prev_F, prev_f = None, None
    for s in (2.0, 2.5, 3.0, 3.5, 4.0, 5.0):
        F, f = sieve.linear_F(s), sieve.linear_f(s)
        assert F > 1 > f >= 0
        if prev_F is not None:
            assert F < prev_F and f > prev_f
        prev_F, prev_f = F, f


def test_limit_function_gap_frozen_values():
    for s, gap in (
        (2.0, "1.78107241799019798523650410307"),
        (2.5, "0.847127757985066095088965878297"),
        (3.0, "0.364351395391471891961413638491"),
        (3.5, "0.132633472630851400913952234739"),
        (4.0, "0.0432875298341460638439229323723"),
    ):
        with mp.workdps(30):
            got = sieve.linear_F(s) - sieve.linear_f(s)
            assert abs(got - mp.mpf(gap)) < mp.mpf("1e-24"), s


# (4, 5] first: f's first panel past its closed form is where a wrong
# march shows soonest and costs least to evaluate
FF_GRID = [4 + k / 8 for k in range(1, 9)] + [3 + k / 8 for k in range(1, 9)] + [5.25, 5.5, 5.75, 6.0]


def test_limit_functions_match_independent_forms_past_three():
    tol = mp.mpf("1e-25")
    past_four = sorted(s for s in FF_GRID if s > 4)
    f_ref = dict(zip(past_four, oracles.linear_f_single_integral(past_four)))
    for s in FF_GRID:
        F_ref = oracles.linear_F_dilog(s) if s <= 5 else oracles.linear_F_past_five(s)
        with mp.workdps(34):
            f_want = f_ref[s] if s > 4 else 2 * mp.exp(mp.euler) / s * mp.log(s - 1)
            assert abs(sieve.linear_f(s) - f_want) < tol, ("f", s)
            assert abs(sieve.linear_F(s) - F_ref) < tol, ("F", s)


def test_limit_function_panels_certify_below_the_printed_digits():
    for part in sieve._ff_panels():
        assert max(part.errs) < mp.mpf("1e-30")


def test_limit_functions_domain():
    with pytest.raises(PreconditionError):
        sieve.linear_F(0.5)
    with pytest.raises(PreconditionError):
        sieve.linear_F(6.5)
    with pytest.raises(PreconditionError):
        sieve.linear_f(-0.1)
    assert sieve.linear_f(1.0) == 0  # flat zero segment below 2


def test_scale_params_desk():
    p = sieve.make_scale_params(10**6)
    assert (p.z_small, p.z_quarter_lo, p.z_quarter_hi) == (2, 21, 42)
    assert p.W == 12
    assert p.preset == "desk"
    assert p.degeneracies == ()
    q = sieve.make_scale_params(10**4)
    assert (q.z_small, q.z_quarter_lo, q.z_quarter_hi) == (2, 8, 12)


def test_scale_params_paper_records_degeneracies():
    p = sieve.make_scale_params(10**6, preset="paper")
    assert "z_small >= z_quarter_lo" in p.degeneracies
    assert "z_quarter_hi >= x" in p.degeneracies


def test_scale_params_overrides():
    p = sieve.make_scale_params(10**6, overrides={"z_small": 20, "z_quarter_lo": 25, "z_quarter_hi": 60})
    assert (p.z_small, p.z_quarter_lo, p.z_quarter_hi) == (20, 25, 60)
    with pytest.raises(PreconditionError):
        sieve.make_scale_params(10**6, overrides={"bogus": 1})


def test_scale_params_domain():
    with pytest.raises(PreconditionError):
        sieve.make_scale_params(5000)


def test_w_localization_at_huge_scale():
    # a scale whose double log reaches 10 pulls the prime 5 into W
    d0, w, in_range = sieve._w_from_d0(10**9570)
    assert w == 60
    assert 4.99 < d0 < 5.01
    assert in_range
    d0, w, _ = sieve._w_from_d0(10**6)
    assert w == 12 and d0 < 2


def test_mertens_window_report():
    rep = sieve.mertens_window_report(10**6, 0.05)
    assert rep["primes_in_window"] == 5
    assert rep["reciprocal_sum"] == pytest.approx(0.22167419236551703, abs=1e-14)
    assert abs(rep["gap"]) < 0.01  # desk-scale window sits near its target
    with pytest.raises(PreconditionError):
        sieve.mertens_window_report(10**6, 0.3)


def test_mertens_sums_over_explicit_window():
    count, prod, got = sieve.mertens_window(10**3, 10**6)
    primes = list(PrimeRange(1000, 10**6))
    assert count == len(primes) == 78330  # pi(10^6) - pi(10^3)
    assert got == pytest.approx(sum(1.0 / p for p in primes), abs=1e-12)
    assert got == pytest.approx(0.6892479723925852, abs=1e-12)
    # the double-log difference is the asymptotic target
    target = math.log(math.log(10**6)) - math.log(math.log(10**3))
    assert abs(got - target) < 0.005
    assert prod == pytest.approx(0.5019215452589002, abs=1e-12)


def test_mertens_windows_are_charged_before_the_sieve(monkeypatch):
    # at most 2y / log y primes in a window of length y, 48 bytes each
    with pytest.raises(BudgetError, match="prime list of the window"):
        sieve.mertens_window(10, 1e300)
    with pytest.raises(BudgetError, match="prime list of the window"):
        sieve.mertens_window_report(10**60, 0.05)
    monkeypatch.setattr(arith, "budget_mb", 0)
    with pytest.raises(BudgetError, match="needs 1 MB, budget is 0 MB"):
        sieve.mertens_window(10, 100)
    monkeypatch.setattr(arith, "budget_mb", 1)
    assert sieve.mertens_window_report(10**6, 0.05)["primes_in_window"] == 5


@pytest.mark.parametrize("a, b", [(10, math.nan), (math.nan, 10), (math.inf, math.inf), (-math.inf, 10)])
def test_mertens_windows_need_finite_ends(a, b):
    with pytest.raises(PreconditionError, match="finite"):
        sieve.mertens_window(a, b)

