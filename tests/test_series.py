"""The divisor-power series, its tail expansion, and the near-integer statistic."""

import ast
import inspect
import random
from fractions import Fraction

import pytest
from mpmath import mp

import oracles
import peaks
from alpha4 import arith, series, sieve, special, verify
from alpha4.bigreal import _exact_fraction
from alpha4.errors import PreconditionError

# frozen from an exact-rational run; the leading block is a truncation,
# not a rounding, so the final digit matches the next digit's floor
ALPHA4_34 = "42.30104750373350806686428406253076"


def test_alpha4_leading_digits():
    val = series.alpha_k(4, 192)
    assert val.leading_decimal(7) == "42.30104"
    assert val.leading_decimal(34) == ALPHA4_34


def test_alpha4_err_at_target_precision():
    val = series.alpha_k(4, 192)
    assert float(val.err) < 2.0**-192 * 2**10  # small slack for conversions


def test_alpha1_against_exact_partial_sum():
    val = series.alpha_k(1, 64)
    partial = oracles.alpha_partial_exact(1, 120)
    # the dropped tail beyond 120 terms is far below the certificate
    assert abs(_exact_fraction(val.value) - partial) <= _exact_fraction(val.err) + Fraction(
        1, 10**30
    )


def test_alpha_partial_matches_brute_force():
    assert series.alpha_partial(4, 30) == oracles.alpha_partial_exact(4, 30)
    assert series.alpha_partial(1, 1) == Fraction(1)
    for k in (1, 4):
        for n_terms in (1, 2, 7, 60):
            assert series.alpha_partial(k, n_terms) == oracles.alpha_partial_exact(k, n_terms), (k, n_terms)


def test_tail_bound_dominates_true_tail():
    # exact tail from n0 to 80 must sit below the claimed bound
    full = oracles.alpha_partial_exact(4, 80)
    head = oracles.alpha_partial_exact(4, 25)
    assert full - head < series.tail_bound(4, 25)


def test_terms_needed_monotone():
    assert series.terms_needed(4, 64) <= series.terms_needed(4, 192)
    n0 = series.terms_needed(4, 128)
    assert series.tail_bound(4, n0) < Fraction(1, 2**128)


# n0 for k = 1..8 at bits 1, 64, 128, 4096, 16384, frozen from the
# candidate-by-candidate search that called tail_bound for every n0
TERMS_NEEDED = {
    1: (5, 23, 36, 538, 1756),
    2: (5, 23, 36, 538, 1756),
    3: (6, 24, 37, 539, 1757),
    4: (7, 25, 38, 540, 1758),
    5: (9, 26, 39, 541, 1759),
    6: (10, 27, 40, 542, 1760),
    7: (11, 28, 41, 543, 1761),
    8: (13, 29, 42, 544, 1762),
}


@pytest.mark.parametrize("k", list(TERMS_NEEDED))
def test_terms_needed_frozen(k):
    got = tuple(series.terms_needed(k, bits) for bits in (1, 64, 128, 4096, 16384))
    assert got == TERMS_NEEDED[k]


def test_terms_needed_is_the_first_n0_under_budget():
    for k in (1, 4, 8):
        for bits in (64, 300):
            n0 = series.terms_needed(k, bits)
            budget = Fraction(1, 2 ** (bits + 1))
            assert series.tail_bound(k, n0) <= budget < series.tail_bound(k, n0 - 1)


def test_zeta_upper_is_an_upper_bound():
    zu = series.zeta_upper(4)
    pi4_90 = 1.082323233711138  # converged reference
    assert float(zu) >= pi4_90
    assert float(zu) - pi4_90 < 1e-6


def test_tail_expansion_leading_term():
    te = series.tail_expansion(11)
    assert te.terms[0] == Fraction(14642, 11)  # sigma_4(11)/11 with 11^4+1 = 14642
    assert te.terms[1] == Fraction(oracles.sigma_k(12, 4), 11 * 12)
    assert te.terms[2] == Fraction(oracles.sigma_k(13, 4), 11 * 12 * 13)
    assert te.terms[3] == Fraction(oracles.sigma_k(14, 4), 11 * 12 * 13 * 14)
    assert te.remainder_bound < 1


def test_tail_expansion_remainder_majorizes_exact_tail():
    for p in (11, 13, 101):
        te = series.tail_expansion(p)
        exact_tail = series.factorial_tail_exact(p, p + 60) - Fraction(*te.leading_pair())
        assert 0 < exact_tail < te.remainder_bound, p


def test_tail_partial_refines_the_bound():
    p = 13
    te = series.tail_expansion(p)
    mid, rest = series.tail_partial(p, 12)
    exact_tail = series.factorial_tail_exact(p, p + 60) - Fraction(*te.leading_pair())
    assert mid < exact_tail < mid + rest
    assert rest < te.remainder_bound


def test_factorial_tail_exact_matches_direct_sum():
    # (p-1)! sum_{n=p}^{n1} sigma_4(n)/n! via the oracle's factorials
    p, n1 = 7, 20
    fact_p1 = 1
    for i in range(1, p):
        fact_p1 *= i
    total = Fraction(0)
    fact = fact_p1
    for n in range(p, n1 + 1):
        fact *= n
        total += Fraction(oracles.sigma_k(n, 4) * fact_p1, fact)
    assert series.factorial_tail_exact(p, n1) == total


def test_tail_expansion_rejects_small_or_composite():
    with pytest.raises(PreconditionError, match="^tail_expansion needs p >= 11, got 7$"):
        series.tail_expansion(7)
    # sigma_4(15) = 15^4 + 3^4 + 5^4 + 1, not 15^4 + 1
    with pytest.raises(PreconditionError, match="^tail_expansion needs a prime, got 15$"):
        series.tail_expansion(15)


def test_prop1_statistic_exact_small_prime():
    assert series.prop1_statistic_exact(2) == Fraction(13, 48)


def test_prop1_statistic_matches_oracle():
    for p in (2, 3, 5, 7, 11, 13, 101, 997):
        assert series.prop1_statistic_exact(p) == oracles.stat(p), p


def test_prop1_statistic_with_r():
    assert series.prop1_statistic_exact(13, 3) == oracles.stat_r(13, 3)
    assert series.prop1_statistic_exact(13, 5) == oracles.stat_r(13, 5)
    assert series.prop1_statistic_exact(13, 3) == Fraction(47413, 117936)


def test_prop1_statistic_with_r_rejects_bad_r():
    with pytest.raises(PreconditionError):
        series.prop1_statistic_exact(13, 4)  # 4 does not divide 15
    with pytest.raises(PreconditionError):
        series.prop1_statistic_exact(13, 1)


def test_prop1_statistic_rejects_composites():
    with pytest.raises(PreconditionError):
        series.prop1_statistic_exact(9)


def test_expansion_residuals_within_bounds():
    rows = series.expansion_residuals(101, j_max=32)
    labels = [row["label"] for row in rows]
    assert "p_term" in labels
    assert "tail_majorant" in labels
    for row in rows:
        if row["bound"] is None:
            # the quartic-drop row is report-only by design
            assert row["label"] == "p2_quartic_drop"
            continue
        assert abs(row["value"]) <= row["bound"], row


def test_expansion_residuals_r_moves_divisor_mass():
    # singling out r subtracts its divisor contribution from the tail row
    base = {row["label"]: row for row in series.expansion_residuals(13)}
    with_r = {row["label"]: row for row in series.expansion_residuals(13, r=3)}
    assert set(base) == set(with_r)
    b, w = base["p2_divisor_tail"], with_r["p2_divisor_tail"]
    assert w["value"] == b["value"] - Fraction(15, 3**4)
    assert abs(w["value"]) <= w["bound"]


@pytest.mark.parametrize("p, r, q0", [(7, 3, 9), (43, 3, 5), (43, None, 3)])
def test_p2_divisor_tail_bound_reads_the_least_other_divisor(p, r, q0):
    # the bound's q0 is the least divisor of p+2 above 1 other than r:
    # 9 = 3^2 for p+2 = 9, the prime 5 for p+2 = 45, and 3 with no r
    n2 = p + 2
    assert q0 == min(d for d in oracles.divisors(n2) if d not in (1, r))
    rows = {row["label"]: row for row in series.expansion_residuals(p, r=r)}
    assert rows["p2_divisor_tail"]["bound"] == n2 * (Fraction(1, q0**4) + Fraction(1, 3 * q0**3))


def test_multiplicativity_shortcut_for_p_plus_one():
    # p = 13: p + 1 = 2 * 7, so sigma_4(p+1) factors cleanly
    p = 13
    lhs = oracles.sigma_k(p + 1, 4)
    assert lhs == oracles.sigma_k(2, 4) * oracles.sigma_k(7, 4)
    theta = Fraction(lhs, p * (p + 1)) + Fraction(1, 16)
    assert series.prop1_statistic_exact(p) == oracles.nearest_int_distance(theta)


def _random_primes(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = rng.randrange(11, 10**6)
        if oracles.is_prime(p):
            out.append(p)
    return out


@pytest.mark.parametrize("j_max", [4, 5, 40])
def test_tail_sums_against_term_by_term_oracle(j_max):
    for p in [11, 13] + _random_primes(j_max, 3):
        naive = oracles.factorial_tail_exact(p, p + j_max)
        assert series.factorial_tail_exact(p, p + j_max) == naive, p
        te = series.tail_expansion(p)
        part, _ = series.tail_partial(p, j_max)
        assert part == naive - oracles.factorial_tail_exact(p, p + 3), p
        assert series.factorial_tail_exact(p, p + j_max) == Fraction(*te.leading_pair()) + part, p


@pytest.mark.parametrize("j_max", [4, 5, 40])
def test_tail_sums_read_one_sigma4_window(j_max):
    # a window given gives the same expansion and partial sum as one sieved per call
    for p in [11, 13] + _random_primes(j_max + 7, 3):
        window = next(series.sigma4_windows([p], j_max))
        assert window == [oracles.sigma_k(n, 4) for n in range(p, p + j_max + 1)]
        assert series.tail_expansion(p, sigma4=window) == series.tail_expansion(p)
        assert series.tail_partial(p, j_max, sigma4=window) == series.tail_partial(p, j_max)


def test_tail_identity_block_stays_under_its_charge_cap(desk_records, monkeypatch):
    # the charge formula of sigma4_windows, not a traced run: a block is
    # the most primes whose windows it charges at most WINDOW_BLOCK_BYTES
    primes = [rec.p for rec in desk_records]
    p_max = max(primes)
    sieved = []
    real = series.sieve_runs
    monkeypatch.setattr(series, "sieve_runs", lambda values, width: sieved.append(values.size // width)
                        or real(values, width))
    assert sum(1 for _ in series.sigma4_windows(primes, 40)) == len(primes) == 4110
    block = sieved[0]
    assert sieved == [block] * (len(primes) // block) + [len(primes) % block]
    assert series.sigma4_window_bytes(block, p_max, 40) <= series.WINDOW_BLOCK_BYTES
    assert series.sigma4_window_bytes(block + 1, p_max, 40) > series.WINDOW_BLOCK_BYTES
    assert block == 424


def _tail_identity_with(monkeypatch, edit):
    """tail_identity over S at x = 10^5, with edit(p, window) applied to every window."""
    real = series.sigma4_windows

    def edited(primes, j_max):
        for p, w in zip(primes, real(primes, j_max)):
            edit(p, w)
            yield w

    monkeypatch.setattr(series, "sigma4_windows", edited)
    return verify.run_check("tail_identity", {"params": sieve.make_scale_params(10**5)})


def test_tail_identity_reads_the_window_past_p(monkeypatch):
    # the identity holds for any window values; the bound for the terms from
    # p+4 on does not hold once sigma_4(p+4) is tripled
    res = _tail_identity_with(monkeypatch, lambda p, w: None)
    assert res.ok and 0 < res.details["max_tail_to_bound"] < 0.35
    victim = 50591  # the eighth member of S at 10^5
    res = _tail_identity_with(monkeypatch, lambda p, w: w.__setitem__(4, 3 * w[4]) if p == victim else None)
    assert not res.ok
    assert res.details["failed_p"] == victim
    assert res.details["ratio"] > 1


def test_tail_identity_fails_on_sigma4_p_off_by_one(monkeypatch):
    res = _tail_identity_with(monkeypatch, lambda p, w: w.__setitem__(0, w[0] + 1))
    assert not res.ok
    assert res.details == {"failed_p": 50051, "reason": "p-term residual is not 1/p"}


@pytest.mark.parametrize("j, edit", [(5, lambda w: w.__setitem__(5, w[5] + 12345)),
                                     (4, lambda w: w.__setitem__(4, 2 * w[4])),
                                     (17, lambda w: w.__setitem__(17, 0))],
                         ids=["p+5_plus_12345", "p+4_doubled", "p+17_zero"])
def test_tail_identity_checks_windows_against_the_oracle(monkeypatch, j, edit):
    # each edit leaves the identity and the bound standing; the sampled
    # windows, recomputed by trial division, still catch it
    res = _tail_identity_with(monkeypatch, lambda p, w: edit(w))
    assert not res.ok
    members = {rec.p for rec in special.enumerate_S(sieve.make_scale_params(10**5))}
    assert res.details["failed_p"] in members
    assert res.details["j"] == j
    assert "oracle" in res.details["reason"]


def test_tail_identity_counts_the_oracle_values():
    res = verify.run_check("tail_identity", {"params": sieve.make_scale_params(10**5)})
    assert res.ok
    n = min(verify.ORACLE_WINDOWS, res.details["primes_checked"])
    assert res.details["oracle_window_values"] == 41 * n


def test_tail_identity_sieves_once_and_runs_no_primality_test(monkeypatch):
    # the walk of S certified each p, and the window's sigma_4(p) = p^4 + 1
    # is the guard tail_expansion reads: one sieve, no Miller-Rabin test
    tests, sieves = [], []
    real_is_prime, real_windows = arith.is_prime, series.sigma4_windows
    for module in (arith, series):
        monkeypatch.setattr(module, "is_prime", lambda n: tests.append(n) or real_is_prime(n))
    monkeypatch.setattr(series, "sigma4_windows", lambda primes, j_max: sieves.append(len(primes))
                        or real_windows(primes, j_max))
    res = verify.run_check("tail_identity", {"params": sieve.make_scale_params(10**5)})
    assert res.ok
    assert tests == [] and sieves == [res.details["primes_checked"]]


def test_sigma4_windows_build_no_factorization():
    primes = [101, 103, 10007]
    windows = list(series.sigma4_windows(primes, 40))
    assert windows == [[oracles.sigma_k(n, 4) for n in range(p, p + 41)] for p in primes]


# (start, j_max): runs from 2, 11 and 13; runs crossing q^2 and q^3 for q
# below the width (11^2 = 121 and 5^3 = 125 in a run of 21) and above it
# (47^2 = 2209, 53^3 = 148877), and powers of two (2^17, 2^20)
SIEVE_RUNS = [(2, 40), (11, 40), (13, 40), (115, 20), (2200, 20), (148870, 20),
              (131060, 20), (1048570, 20)]


@pytest.mark.parametrize("start, j_max", SIEVE_RUNS)
def test_sigma4_run_sieve_matches_the_oracle(start, j_max):
    window = next(series.sigma4_windows([start], j_max))
    assert window == [oracles.sigma_k(n, 4) for n in range(start, start + j_max + 1)]


def test_sigma4_run_sieve_matches_the_oracle_on_a_wide_run():
    window = next(series.sigma4_windows([13], 20000))
    assert window == [oracles.sigma_k(n, 4) for n in range(13, 20014)]


def test_sigma4_run_sieve_splits_a_leftover_past_2_32(monkeypatch):
    # p itself is a prime past 2^32, so its leftover goes to the splitter
    p = 4294967311
    split = []
    real = arith._cofactor_pairs
    monkeypatch.setattr(arith, "_cofactor_pairs", lambda n: split.append(n) or real(n))
    window = next(series.sigma4_windows([p], 8))
    assert p in split
    assert window == [oracles.sigma_k(n, 4) for n in range(p, p + 9)]


def test_sigma4_windows_read_no_private_name_of_arith():
    # the run sieve is arith.sieve_runs: series consumes its yields and
    # reaches into none of the loop's pieces
    tree = ast.parse(inspect.getsource(series))
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "arith"
             for a in node.names]
    assert "sieve_runs" in names and not [name for name in names if name.startswith("_")]


def test_sigma4_run_sieve_matches_factor_many_on_the_desk_windows(desk_records):
    primes = [rec.p for rec in desk_records]
    flat = [v for w in series.sigma4_windows(primes, 40) for v in w]
    assert len(flat) == 168510
    assert flat == arith.factor_many(p + j for p in primes for j in range(41)).sigma4(range(len(flat)))


def test_sigma4_run_sieve_refuses_exponents_that_do_not_multiply_back(monkeypatch):
    # the stripping is right, the exponent fed to the accumulation is not
    real = arith.strip_exponents

    def one_too_many(rem, hit, q):
        e = real(rem, hit, q)
        if q == 3:
            e[0] += 1
        return e

    monkeypatch.setattr(arith, "strip_exponents", one_too_many)
    with pytest.raises(PreconditionError, match="multiply"):
        next(series.sigma4_windows([101], 40))


def test_sigma4_window_peaks_stay_under_their_charge():
    # the charge must cover the traced peak without overstating it by half,
    # for a small and a large p, and for a short window past 2^32, whose
    # peak is the 6,542 sieving primes to 2^16
    setup = "from alpha4 import series\nnext(series.sigma4_windows([13], 10))"
    cases = ["next(series.sigma4_windows([13], 5000))", "next(series.sigma4_windows([10**6 + 3], 20000))",
             "next(series.sigma4_windows([1000000000039], 40))"]
    (rows,) = peaks.traced(setup, cases)
    peaks.charges_cover_peaks(rows)


def test_expansion_residuals_hold_memory_linear_in_j_max():
    # the remainder bound multiplies p..p+j_max once; it kept every partial
    # product, 71 MB at j_max = 10^4 and 310 MB at 2 * 10^4
    setup = "from alpha4 import series\nseries.expansion_residuals(13, j_max=50)"
    (((peak, _),),) = peaks.traced(setup, ["series.expansion_residuals(13, j_max=10**4)"])
    assert peak < 8 * 2**20


def test_short_sigma4_window_is_refused():
    window = next(series.sigma4_windows([101], 10))
    with pytest.raises(PreconditionError, match="p\\+11 needed"):
        series.tail_partial(101, 11, sigma4=window)


def test_factorial_tail_exact_splits_at_any_point():
    # sum over [p, n1] = sum over [p, m] + (1/(p...m)) * sum over [m+1, n1]
    p, n1 = 101, 141
    whole = series.factorial_tail_exact(p, n1)
    for m in (p, p + 1, p + 17, n1 - 1):
        head_den = 1
        for n in range(p, m + 1):
            head_den *= n
        split = series.factorial_tail_exact(p, m) + series.factorial_tail_exact(m + 1, n1) / head_den
        assert split == whole, m
