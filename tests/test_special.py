"""The special prime set, its class split, counters, and diagnostics."""

import ast
import inspect
import json
import math
import sys
import weakref
from collections import Counter
from fractions import Fraction
from functools import cache, partial

import pytest

import oracles
import peaks
from alpha4 import cli, sieve, special, verify
from alpha4.errors import PreconditionError

X4 = 10**4


def params_at_1e4():
    return sieve.make_scale_params(X4)


def brute_members(x, w, zs, zl, zh):
    """Trial-division enumeration of S: (p, r_or_None) in increasing p."""
    out = []
    for p in range(x // 2 + 1, x + 1):
        if p % w != w - 1 or not oracles.is_prime(p):
            continue
        f2 = oracles.factor(p + 2)
        if any(e > 1 for e in f2.values()):
            continue
        if min(f2) <= zl:
            continue
        mids = [q for q in f2 if zl < q <= zh]
        if len(mids) > 1:
            continue
        half = (p + 3) // 2
        if half > 1 and oracles.least_prime_factor(half) <= zs:
            continue
        out.append((p, mids[0] if mids else None))
    return out


def brute_sigmas(x, w, zs, zl, zh, smooth_exp, delta):
    """Independent recount of the four families over the base candidates."""
    d = Fraction(delta)
    y_smooth = x**smooth_exp
    s1 = s2 = s3 = s4 = 0
    for p in range(x // 2 + 1, x + 1):
        if p % w != w - 1 or not oracles.is_prime(p):
            continue
        half = (p + 3) // 2
        if half > 1 and oracles.least_prime_factor(half) <= zs:
            continue
        f2 = oracles.factor(p + 2)
        lpf2 = min(f2)
        if lpf2 > zh and oracles.stat(p) <= d:
            s1 += 1
        window_rs = [q for q in f2 if zl < q <= zh]
        if not window_rs:
            continue
        rough = lpf2 > zl
        for r in window_rs:
            cof = (p + 2) // r
            cof_ok = cof == 1 or oracles.least_prime_factor(cof) > zh
            if cof_ok and oracles.stat_r(p, r) <= d:
                s2 += 1
            if rough:
                if oracles.max_prime_factor(p + 1) <= y_smooth:
                    s3 += 1
                elif oracles.stat_r(p, r) <= d:
                    s4 += 1
    return s1, s2, s3, s4


def test_enumerate_matches_brute_force_at_1e4():
    params = params_at_1e4()
    recs = special.enumerate_S(params)
    got = [(rec.p, rec.r) for rec in recs]
    want = brute_members(X4, params.W, params.z_small, params.z_quarter_lo, params.z_quarter_hi)
    assert got == want
    assert len(recs) == 81
    assert Counter(r.klass for r in recs) == {"no_mid_factor": 71, "one_mid_factor": 10}


def test_record_invariants_at_1e4():
    params = params_at_1e4()
    for rec in special.enumerate_S(params):
        assert rec.p % 12 == 11
        assert X4 // 2 < rec.p <= X4
        assert dict(rec.pairs_p1) == oracles.factor(rec.p + 1)
        assert dict(rec.pairs_p2) == oracles.factor(rec.p + 2)
        assert dict(rec.pairs_p3) == oracles.factor((rec.p + 3) // 2)
        assert Fraction(*rec.ratio_plain) == oracles.stat(rec.p)
        if rec.klass == "one_mid_factor":
            assert params.z_quarter_lo < rec.r <= params.z_quarter_hi
            assert (rec.p + 2) % rec.r == 0
            assert Fraction(*rec.ratio_r) == oracles.stat_r(rec.p, rec.r)
        else:
            assert rec.r is None and rec.ratio_r is None


def test_record_constructor_validates():
    params = params_at_1e4()
    rec = special.enumerate_S(params)[0]
    with pytest.raises(PreconditionError):
        special.SpecialPrimeRecord(
            p=rec.p,
            klass="mystery",
            r=None,
            pairs_p1=rec.pairs_p1,
            pairs_p2=rec.pairs_p2,
            pairs_p3=rec.pairs_p3,
            ratio_plain=rec.ratio_plain,
            ratio_r=None,
        )


def test_crt_locates_an_enumerated_pair():
    # a one-mid member satisfies p = -1 (W) and p = -2 (r) with coprime
    # moduli, so it sits in one residue class mod 12 r
    params = params_at_1e4()
    rec = next(
        r for r in special.enumerate_S(params) if r.klass == "one_mid_factor"
    )
    assert params.W == 12 and math.gcd(params.W, rec.r) == 1
    assert rec.p % params.W == params.W - 1
    assert (rec.p + 2) % rec.r == 0


def test_sigma_counters_match_brute_force():
    params = params_at_1e4()
    for delta in (0.05, 0.5):
        c = special.count_sigmas(params, delta)
        want = brute_sigmas(
            X4, params.W, params.z_small, params.z_quarter_lo, params.z_quarter_hi,
            params.smooth_exp, delta,
        )
        assert (c.sigma1, c.sigma2, c.sigma3, c.sigma4) == want, delta
    c = special.count_sigmas(params, 0.05)
    assert (c.sigma1, c.sigma2, c.sigma3, c.sigma4) == (10, 0, 2, 0)
    assert c.S_total == 81


def test_sigma_counters_at_half_cover_the_classes():
    # delta = 1/2 makes every statistic condition vacuous, so sigma2
    # counts exactly the one-mid pairs with a rough cofactor
    params = params_at_1e4()
    recs = special.enumerate_S(params)
    c = special.count_sigmas(params, 0.5)
    one_mid = sum(1 for r in recs if r.klass == "one_mid_factor")
    assert c.sigma2 == one_mid == 10
    # sigma1 also admits non-squarefree p+2, so it can only exceed the class
    no_mid = sum(1 for r in recs if r.klass == "no_mid_factor")
    assert c.sigma1 >= no_mid
    assert (c.sigma1, c.sigma3, c.sigma4) == (73, 2, 9)


def test_count_sigmas_walks_once(monkeypatch):
    # S_total comes from count_sigmas' own walk, never from enumerate_S
    def refuse(*args, **kwargs):
        raise AssertionError("count_sigmas enumerated S a second time")

    monkeypatch.setattr(special, "enumerate_S", refuse)
    c = special.count_sigmas(params_at_1e4(), 0.05)
    assert c.S_total == 81
    assert (c.sigma1, c.sigma2, c.sigma3, c.sigma4) == (10, 0, 2, 0)


def test_count_sigmas_builds_no_factorization():
    c = special.count_sigmas(sieve.make_scale_params(10**5), 0.05)
    assert (c.S_total, [c.sigma1, c.sigma2, c.sigma3, c.sigma4]) == (569, [59, 6, 13, 6])


def test_enumerate_builds_no_factorization():
    # the records, the partition check and the printed rows all read the
    # batch's pairs
    params = sieve.make_scale_params(10**5)
    recs = special.enumerate_S(params)
    assert special.partition_check(recs, params)["ok"]
    rows = [cli._enumerate_row(rec) for rec in recs]
    assert len(recs) == len(rows) == 569


def test_count_sigmas_at_desk_scale(desk_params):
    c = special.count_sigmas(desk_params, 0.05)
    assert c.S_total == 4110
    assert [c.sigma1, c.sigma2, c.sigma3, c.sigma4] == [338, 58, 87, 65]


def test_verify_oracle_walk_gives_members_and_sigmas():
    # the special_set check's trial-division oracle answers both questions in one walk
    p = sieve.make_scale_params(10**5)
    members, sigmas = verify._oracle_special(
        p.x, p.W, p.z_small, p.z_quarter_lo, p.z_quarter_hi, p.x**p.smooth_exp, Fraction(0.05)
    )
    assert members == [(rec.p, rec.r) for rec in special.enumerate_S(p)]
    assert len(members) == 569
    assert sigmas == [59, 6, 13, 6]


def test_verify_oracle_factors_values_past_the_square_root_of_x():
    # p = 167 and p + 2 = 13^2 with 13 > isqrt(167): trial division must reach
    # isqrt(p + 2), or 169 reads as a prime and 167 joins S
    members, _ = verify._oracle_special(167, 1, 2, 5, 20, 167**0.3, Fraction(1, 20))
    assert members == [(107, None)]


def test_special_set_names_where_walk_and_oracle_part(monkeypatch):
    real = verify._oracle_special

    def skewed(*args):
        members, sigmas = real(*args)
        return members[:5] + members[6:], sigmas[:2] + [sigmas[2] + 1, sigmas[3]]

    ctx = {"params": sieve.make_scale_params(10**5)}
    monkeypatch.setattr(verify, "_oracle_special", skewed)
    res = verify.run_check("special_set", ctx)
    assert not res.ok
    members, _ = real(*_oracle_args(ctx["params"]))
    assert res.details["first_member_mismatch"] == [members[5], members[6]]
    assert res.details["first_sigma_mismatch"] == 2
    monkeypatch.setattr(verify, "_oracle_special", real)
    res = verify.run_check("special_set", ctx)
    assert res.ok
    assert "first_member_mismatch" not in res.details and "first_sigma_mismatch" not in res.details


def _oracle_args(p):
    return p.x, p.W, p.z_small, p.z_quarter_lo, p.z_quarter_hi, p.x**p.smooth_exp, Fraction(0.05)


VERIFY_ORACLES = ("_tf_primes", "_tf", "_lpf", "_tf_sigma4", "_oracle_stat", "_oracle_special")


def _alpha4_names(module, tree, allowed=()) -> list[str]:
    # imports of the package, and global names that resolve to its modules, functions, classes or instances
    found = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "alpha4")
        or isinstance(node, ast.Import) and any(a.name.split(".")[0] == "alpha4" for a in node.names)
    ]
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id not in allowed:
            obj = getattr(module, node.id, None)
            home = obj.__name__ if inspect.ismodule(obj) else getattr(obj, "__module__", None)
            if isinstance(home, str) and home.split(".")[0] == "alpha4":
                found.append(node.id)
    return found


@pytest.mark.parametrize("delta", [Fraction(0.05), Fraction(0.5)], ids=["0.05", "0.5"])
def test_oracle_stat_agrees_with_the_test_oracle(monkeypatch, delta):
    # verify's integer comparison decides every call as tests/oracles.py's
    # Fraction statistics do, at each call the special-set oracle makes
    calls = []
    real = verify._oracle_stat

    def recorded(p, fac_p1, r, d):
        calls.append((p, r, real(p, fac_p1, r, d)))
        return calls[-1][2]

    monkeypatch.setattr(verify, "_oracle_stat", recorded)
    args = list(_oracle_args(sieve.make_scale_params(10**5)))
    verify._oracle_special(*args[:-1], delta)
    assert any(r is None for _, r, _ in calls) and any(r is not None for _, r, _ in calls)
    for p, r, within in calls:
        stat = oracles.stat(p) if r is None else oracles.stat_r(p, r)
        assert within == (stat <= delta), (p, r)


def test_oracles_use_no_name_from_the_package():
    # tests/oracles.py and verify's trial-division oracle recompute from first
    # principles, so a defect shared with the code they check cannot pass both
    assert _alpha4_names(oracles, ast.parse(inspect.getsource(oracles))) == []
    for name in VERIFY_ORACLES:
        tree = ast.parse(inspect.getsource(getattr(verify, name)))
        assert _alpha4_names(verify, tree, allowed=VERIFY_ORACLES) == [], name


# (preset, overrides, witness): each witness (p, r) puts a window square
# r^2 | p+2 in the sigma3/sigma4 pairs. The paper-preset rows have
# z_lo >= z_hi; the second puts z_small beyond sqrt(x) and above some odd
# halves, so the exact odd-half rule must still run after the prefilter
PREFILTER_CASES = {
    "desk": ("desk", None, (66179, 17)),
    "window_13_40": ("desk", {"z_quarter_lo": 13, "z_quarter_hi": 40}, (50651, 37)),
    "window_21_42": ("desk", {"z_quarter_lo": 21, "z_quarter_hi": 42}, (95747, 23)),
    "paper_lo_above_hi": ("paper", {"z_small": 2, "z_quarter_lo": 40, "z_quarter_hi": 20}, None),
    "paper_wide_odd_half": ("paper", {"z_small": 40000, "z_quarter_lo": 40, "z_quarter_hi": 20}, None),
}


def table_factor(table, n):
    out = {}
    while n > 1:
        q = table.least_prime_factor(n)
        out[q] = out.get(q, 0) + 1
        n //= q
    return out


@pytest.mark.parametrize("spf", ["table", None])
@pytest.mark.parametrize("case", list(PREFILTER_CASES))
def test_prefiltered_walk_matches_oracle(case, spf, spf_million):
    # the walk's prefilter may only drop candidates no family counts:
    # members and all four sigmas equal the independent oracle's. The spf
    # axis names the reference each member's batch-factored p+1, p+2 and
    # odd half are checked against: the least-factor table or trial division
    preset, overrides, witness = PREFILTER_CASES[case]
    p = sieve.make_scale_params(10**5, preset=preset, overrides=overrides)
    reference = partial(table_factor, spf_million) if spf == "table" else oracles.factor
    if witness is not None:
        q, r = witness
        assert (q + 2) % (r * r) == 0 and p.z_quarter_lo < r <= p.z_quarter_hi
    recs = special.enumerate_S(p)
    for rec in recs:
        for n, pairs in ((rec.p + 1, rec.pairs_p1), (rec.p + 2, rec.pairs_p2), ((rec.p + 3) // 2, rec.pairs_p3)):
            assert dict(pairs) == reference(n), (rec.p, n)
    members = [(rec.p, rec.r) for rec in recs]
    for delta in (0.05, 0.5):
        want_members, want_sigmas = verify._oracle_special(
            p.x, p.W, p.z_small, p.z_quarter_lo, p.z_quarter_hi, p.x**p.smooth_exp,
            Fraction(delta),
        )
        c = special.count_sigmas(p, delta)
        assert members == want_members
        assert [c.sigma1, c.sigma2, c.sigma3, c.sigma4] == want_sigmas
        assert c.S_total == len(want_members)


def test_a_failed_pair_bound_is_printed_and_exits_1(capsys, monkeypatch):
    # sigma2 > sigma3 + sigma4 is a wrong count, not a bad input: it is
    # printed as data and fails the command with status 1, not 2
    def wrong(params, delta):
        return special.SigmaCounters(sigma1=1, sigma2=5, sigma3=1, sigma4=1, S_total=10, parameters=params, delta=delta)

    monkeypatch.setattr(special, "count_sigmas", wrong)
    rc = cli.dispatch(["special", "sigmas", "--x", "10000", "--delta", "0.05"])
    out, err = capsys.readouterr()
    assert rc == 1 and err == ""
    res = json.loads(out)["result"]
    assert res["pair_bound_holds"] is False
    assert [res["sigma2"], res["sigma3"], res["sigma4"]] == [5, 1, 1]


def test_witness_gap():
    params = params_at_1e4()
    c = special.SigmaCounters(
        sigma1=10, sigma2=0, sigma3=2, sigma4=0, S_total=81,
        parameters=params, delta=0.05,
    )
    assert c.witness_gap() == 71


def test_partition_check_clean(desk_params, desk_records):
    rep = special.partition_check(desk_records, desk_params)
    assert rep["ok"]
    assert rep["n_records"] == 4110
    assert rep["class_counts"] == {"no_mid_factor": 3513, "one_mid_factor": 597}
    assert rep["first_failure"] is None
    assert all(v == 0 for v in rep["condition_failures"].values())


def test_partition_check_flags_mislabels(desk_params, desk_records):
    import dataclasses

    bad = list(desk_records)
    # relabel a no-mid record as one-mid: class_label and stat_fields fire
    victim = next(r for r in bad if r.klass == "no_mid_factor")
    forged = dataclasses.replace(victim, klass="one_mid_factor", r=23)
    bad[bad.index(victim)] = forged
    rep = special.partition_check(bad, desk_params)
    assert not rep["ok"]
    assert rep["condition_failures"]["class_label"] >= 1
    assert rep["first_failure"]["p"] == victim.p


def test_partition_check_flags_a_square_in_p_plus_2(desk_params, desk_records):
    import dataclasses

    # forged p+2 pairs with a square: the check reads the pairs themselves,
    # and they no longer multiply back to p+2
    victim = desk_records[0]
    q, _ = victim.pairs_p2[-1]
    forged = dataclasses.replace(victim, pairs_p2=victim.pairs_p2[:-1] + ((q, 2),))
    rep = special.partition_check([forged], desk_params)
    assert not rep["ok"]
    assert rep["condition_failures"]["squarefree"] == 1
    assert rep["first_failure"] == {"p": victim.p, "failed": ["pair_products", "squarefree"]}


def test_partition_check_multiplies_the_pairs_back():
    import dataclasses

    # p = 50051 given the pairs of p = 50159 passes every condition read
    # off the pairs; only multiplying them back to p+1, p+2 and (p+3)/2 fails
    params = sieve.make_scale_params(10**5)
    recs = {rec.p: rec for rec in special.enumerate_S(params)}
    donor = recs[50159]
    forged = dataclasses.replace(
        recs[50051], pairs_p1=donor.pairs_p1, pairs_p2=donor.pairs_p2, pairs_p3=donor.pairs_p3
    )
    assert special.partition_check([recs[50051]], params)["ok"]
    rep = special.partition_check([forged], params)
    assert not rep["ok"]
    assert rep["condition_failures"]["pair_products"] == 1
    assert rep["first_failure"] == {"p": 50051, "failed": ["pair_products"]}


@pytest.mark.parametrize("order", ["duplicate", "swap"])
def test_partition_check_wants_p_strictly_increasing(order, desk_params, desk_records):
    # the check keeps the previous p, not a set of every p: a repeat and a
    # swapped pair each break the strict increase once
    recs = list(desk_records[:5])
    if order == "duplicate":
        recs.insert(3, recs[2])
    else:
        recs[2], recs[3] = recs[3], recs[2]
    rep = special.partition_check(iter(recs), desk_params)
    assert not rep["ok"]
    assert rep["n_records"] == len(recs)
    assert rep["condition_failures"] == dict.fromkeys(rep["condition_failures"], 0) | {"range": 1}
    assert rep["first_failure"] == {"p": recs[3].p, "failed": ["range"]}


def test_partition_stream_passes_every_record_on(desk_params, desk_records):
    report = {}
    stream = special.partition_stream(iter(desk_records), desk_params, report)
    assert next(stream) is desk_records[0] and report == {}
    assert list(stream) == desk_records[1:]
    assert report == special.partition_check(desk_records, desk_params)


def test_iter_S_is_enumerate_S_in_segments():
    # (1.5*10^6, 3*10^6] is two segments of the walk
    params = sieve.make_scale_params(3 * 10**6)
    stream = special.iter_S(params)
    first = next(stream)
    assert [first, *stream] == special.enumerate_S(params)


@pytest.mark.parametrize("walk", [
    lambda params: special.count_sigmas(params, 0.05),
    lambda params: [rec.p for rec in special.iter_S(params)],
], ids=["count_sigmas", "iter_S"])
def test_the_walk_holds_one_segment_at_a_time(walk, monkeypatch):
    # (1.5*10^6, 3*10^6] is two segments; the first must be gone by the time
    # the second is built, or the walk holds two batches and their pairs
    alive_at_build, built = [], []

    class Spy(special._Segment):
        def __init__(self, *args):
            alive_at_build.append(sum(ref() is not None for ref in built))
            super().__init__(*args)
            built.append(weakref.ref(self))

    monkeypatch.setattr(special, "_Segment", Spy)
    walk(sieve.make_scale_params(3 * 10**6))
    assert alive_at_build == [0, 0]


# `special enumerate` at each (x, format), each in its own fresh child after a
# warm-up walk at x = 10^4: the traced peak and charges of each, by (x, format)
_ENUMERATE_CASES = [(2 * 10**6, "json"), (2 * 10**6, "jsonl"), (4 * 10**6, "jsonl"), (2 * 10**6, "csv")]
_ENUMERATE_SETUP = """
from alpha4 import cli, sieve, special
special.enumerate_S(sieve.make_scale_params(10**4))
parse = cli.build_parser().parse_args
"""


@cache
def _enumerate_peaks() -> dict:
    run = 'assert cli.cmd_special_enumerate(parse(["special", "enumerate", "--x", "{}", "--format", "{}"])) == 0'
    children = peaks.traced(_ENUMERATE_SETUP, *([run.format(*case)] for case in _ENUMERATE_CASES))
    return {case: row for case, (row,) in zip(_ENUMERATE_CASES, children)}


def test_enumerate_jsonl_memory_follows_the_segment():
    # x = 2*10^6 walks one segment, 4*10^6 two; jsonl holds one at a time,
    # where holding every record made the second peak 1.5 times the first.
    # csv holds nothing more, so it peaks with jsonl; holding its rows put
    # it 1.23 times above at 2*10^6
    measured = _enumerate_peaks()
    one, two, csv = (measured[case][0] for case in [(2 * 10**6, "jsonl"), (4 * 10**6, "jsonl"), (2 * 10**6, "csv")])
    assert two <= 1.2 * one, (one, two)
    assert csv <= 1.1 * one, (one, csv)


def test_enumerate_json_charges_the_text_it_holds():
    # json holds each row's text until the rows end: the charge is their
    # measured size, each with its list slot, and it must cover json's traced
    # growth over jsonl at the same x without overstating it by half
    x = 2 * 10**6
    (json_peak, json_charges), (jsonl_peak, jsonl_charges) = (_enumerate_peaks()[x, fmt] for fmt in ("json", "jsonl"))
    what = "the json output of special enumerate"
    assert what not in jsonl_charges
    charge = json_charges[what]
    grown = json_peak - jsonl_peak
    rows = map(cli._enumerate_row, special.iter_S(sieve.make_scale_params(x)))
    assert charge == sum(sys.getsizeof(json.dumps(row, sort_keys=True)) + 8 for row in rows)
    assert grown <= charge <= 1.5 * grown, (grown, charge)


def test_overrides_config_at_1e6(desk_params):
    params = sieve.make_scale_params(
        10**6, overrides={"z_small": 20, "z_quarter_lo": 25, "z_quarter_hi": 60}
    )
    recs = special.enumerate_S(params)
    assert len(recs) == 1486
    assert Counter(r.klass for r in recs) == {
        "no_mid_factor": 1237, "one_mid_factor": 249,
    }
    rep = special.partition_check(recs, params)
    assert rep["ok"]
    # spot-check the defining conditions against trial division
    for rec in recs[:: len(recs) // 20]:
        f2 = oracles.factor(rec.p + 2)
        assert all(e == 1 for e in f2.values())
        assert min(f2) > 25
        assert oracles.least_prime_factor((rec.p + 3) // 2) > 20


def test_degenerate_window_forces_prime_p_plus_2():
    # window beyond sqrt(x): a surviving p+2 cannot have two factors
    params = sieve.make_scale_params(
        X4, overrides={"z_quarter_lo": 110, "z_quarter_hi": 130}
    )
    recs = special.enumerate_S(params)
    assert len(recs) == 39
    assert all(r.klass == "no_mid_factor" for r in recs)
    assert all(len(r.pairs_p2) == 1 for r in recs)
    assert all(oracles.is_prime(r.p + 2) for r in recs)


def test_histogram_mass_and_ks(desk_records):
    rep = special.near_integer_histogram(desk_records, bins=20)
    assert rep["bins"] == 20
    assert len(rep["plain_counts"]) == 20
    assert sum(rep["plain_counts"]) == rep["n_plain"] == len(desk_records)
    n_r = sum(1 for r in desk_records if r.ratio_r is not None)
    assert sum(rep["r_counts"]) == rep["n_r"] == n_r
    assert 0 <= rep["ks_plain"] <= 1
    assert 0 <= rep["ks_r"] <= 1
    assert rep["edges"][0] == 0 and rep["edges"][-1] == 0.5


def test_histogram_bins_stay_under_their_charge():
    # a bin's edge, its counts and its `special hist` row are charged one
    # constant; it must cover the traced peak without overstating it by
    # half. jsonl streams the rows, so no JSON document adds to the peak
    setup = """
from alpha4 import cli, sieve, special
records = special.enumerate_S(sieve.make_scale_params(10**4))
special.iter_S = lambda params: iter(records)
hist = lambda bins: cli.cmd_special_hist(cli.build_parser().parse_args(
    ["special", "hist", "--x", "10000", "--bins", str(bins), "--format", "jsonl"]))
hist(10)
"""
    (rows,) = peaks.traced(setup, ["hist(5000)", "hist(20000)"])
    peaks.charges_cover_peaks(rows)


def test_histogram_statistics_stay_under_their_charge():
    # the histogram keeps only its two lists of floats from the stream,
    # charged with the bins as they grow
    setup = """
from types import SimpleNamespace
from alpha4 import special
records = [SimpleNamespace(ratio_plain=(k, 2 * 10**4 + 1), ratio_r=(k, 3 * 10**4) if k % 3 == 0 else None)
           for k in range(10**4)]
"""
    case = 'rep = special.near_integer_histogram(iter(records), bins=1)\nassert rep["n_plain"] + rep["n_r"] == 13334'
    (rows,) = peaks.traced(setup, [case])
    ((_, charges),) = rows
    assert charges["histogram of 1 bins and its statistics"] == special._BIN_BYTES + special._VALUE_BYTES * 13334
    peaks.charges_cover_peaks(rows)


def test_histogram_empty_r_column():
    rep = special.near_integer_histogram([], bins=5)
    assert rep["ks_plain"] is None
    assert rep["n_plain"] == 0


def test_sigmas_at_1e5_are_frozen(capsys):
    rc = cli.dispatch(["special", "sigmas", "--x", "100000", "--delta", "0.05"])
    res = json.loads(capsys.readouterr().out)["result"]
    assert rc == 0
    assert res["S_total"] == 569
    assert (res["sigma1"], res["sigma2"], res["sigma3"], res["sigma4"]) == (59, 6, 13, 6)

