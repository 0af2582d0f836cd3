"""In-process command-line coverage: payload shape, exit codes, formats."""

import argparse
import csv
import io
import json
import signal
import sys
import time

import pytest

from alpha4 import arith, cli, expsums, sieve
from alpha4.errors import BudgetError


def run(argv, capsys):
    rc = cli.dispatch(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(argv, capsys):
    rc, out, _ = run(argv, capsys)
    payload = json.loads(out)
    assert payload["schema"] == 1
    return rc, payload


def test_no_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        cli.dispatch([])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["nonsense"],
        ["sieve"],
        ["alpha", "--zzz"],
        ["alpha", "--k", "x"],
        ["expsum", "basic", "--A", "1/3", "--B", "1/7"],
        ["expsum", "weyl", "--A", "1/3", "--B", "1", "--hi", "10", "--K", "2", "--check-rewrite"],
        ["expsum", "basic", "--A", "1/3", "--B", "1/7", "--hi", "10", "--kind", "basic"],
        ["expsum", "lemma61", "--h", "2", "--m", "97", "--r", "13", "--hi", "60", "--A", "1"],
        ["expsum", "weyl", "--kind", "lemma61", "--A", "1/3", "--h", "1", "--m", "5", "--r", "7", "--hi", "10", "--K", "2"],
        ["expsum", "weyl", "--kind", "lemma61", "--B", "1", "--h", "1", "--m", "5", "--r", "7", "--hi", "10", "--K", "2"],
        ["expsum", "weyl", "--A", "1/3", "--B", "1", "--h", "1", "--hi", "10", "--K", "2"],
        ["expsum", "weyl", "--kind", "basic", "--A", "1/3", "--B", "1", "--v", "2", "--hi", "10", "--K", "2"],
    ],
    ids=" ".join,
)
def test_usage_errors_are_one_error_line(argv, capsys, monkeypatch):
    # each phase command refuses the spec flags of the other kind; argparse
    # refuses some and the command the rest, so run the process entry point
    monkeypatch.setattr(sys, "argv", ["alpha4", *argv])
    with pytest.raises(SystemExit) as e:
        cli.main()
    assert e.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


def test_a_value_with_a_leading_minus_is_a_value(capsys):
    rc, spaced = run_json(["expsum", "basic", "--A", "-1/3", "--B", "1/7", "--hi", "10"], capsys)
    assert rc == 0
    assert spaced["result"]["spec"]["A"] == "-1/3"
    assert run_json(["expsum", "basic", "--A=-1/3", "--B", "1/7", "--hi", "10"], capsys) == (rc, spaced)


def test_alpha_payload(capsys):
    rc, payload = run_json(["alpha"], capsys)
    assert rc == 0
    assert payload["command"] == "alpha"
    res = payload["result"]
    assert res["digits7"] == "42.30104"
    assert res["value"]["value"].startswith("42.30104750373350806686428406")
    assert float(res["value"]["err"]) < 1e-35
    assert res["k"] == 4


def test_alpha_other_k(capsys):
    rc, payload = run_json(["alpha", "--k", "1", "--bits", "64"], capsys)
    assert rc == 0
    assert payload["result"]["value"]["value"].startswith("3.52700047")


def test_json_keys_are_sorted(capsys):
    _, out, _ = run(["alpha"], capsys)
    keys = list(json.loads(out))
    assert keys == sorted(keys)


def test_prop1_exact_fraction(capsys):
    rc, payload = run_json(["prop1", "--p", "2"], capsys)
    assert rc == 0
    res = payload["result"]
    assert res["stat_plain"] == "13/48"
    rc, payload = run_json(["prop1", "--p", "13", "--r", "3"], capsys)
    assert payload["result"]["stat_r"] == "47413/117936"


def test_prop1_answers_past_the_old_primality_limit(capsys):
    # 10^15 + 37 is prime; bases 2..17 certified primes only below 3.3e14,
    # so it exited 2. sympy's divisor_sigma(p + 1, 4) gives the same statistic
    rc, payload = run_json(["prop1", "--p", "1000000000000037"], capsys)
    assert rc == 0
    assert payload["result"]["stat_plain"] == "2163362551104915659040839306737/8000000000000600000000000011248"


def test_prop1_residuals_within(capsys):
    rc, payload = run_json(["prop1", "--p", "101", "--residuals"], capsys)
    assert rc == 0
    rows = payload["result"]["residuals"]
    for row in rows:
        if row["bound"] is not None:
            assert row["within"], row["label"]


@pytest.mark.parametrize("p", ["13", "13 --r 3", "50051", "1000003", "4294967311"])
def test_prop1_expansion_and_residuals_sieve_one_window(p, capsys, monkeypatch):
    from alpha4 import series
    calls = []
    real = series.sigma4_windows

    def spy(primes, j_max):
        calls.append((list(primes), j_max))
        return real(primes, j_max)

    monkeypatch.setattr(series, "sigma4_windows", spy)
    rc, _, _ = run(["prop1", "--p", *p.split(), "--expansion", "--residuals"], capsys)
    assert rc == 0
    assert calls == [([int(p.split()[0])], 32)]


def test_rho_value_and_routes(capsys):
    rc, payload = run_json(["rho", "--u", "2.5"], capsys)
    assert rc == 0
    assert float(payload["result"]["rho"]["value"]) == pytest.approx(0.1303195, abs=1e-6)
    rc, payload = run_json(["rho", "--ten-thirds"], capsys)
    assert rc == 0
    res = payload["result"]
    assert abs(res["agreement"]) < 1e-14
    assert res["marching"]["value"].startswith("0.0236501382652873591")


def test_rho_domain_exit_code(capsys):
    rc, _, err = run(["rho", "--u", "25"], capsys)
    assert rc == 2
    assert "domain" in err


def test_psi_payload(capsys):
    rc, payload = run_json(["psi", "--x", "100000", "--y", "63.0957"], capsys)
    assert rc == 0
    res = payload["result"]
    assert res["exact"] == 12165
    assert abs(res["relative_gap"]) < 1


def test_psi_budget_exit_code(capsys):
    # the leaf table is charged at its most, about 2 MB whatever x is, so a budget below it refuses
    rc, _, err = run(["psi", "--x", "1000000000", "--y", "100", "--budget-mb", "0"], capsys)
    assert rc == 2
    assert "budget" in err.lower()


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["sieve", "weights", "--d", "900", "--z", "30", "--n-limit", str(2**62)], "budget is 512 MB"),
        (["sieve", "flemma", "--z", "30", "--r", "1", "--parity", "even", "--n-limit", str(2**62)], "budget is 512 MB"),
        (["sieve", "vector", "--trials", str(2**62)], "trials exceed the work budget 1000000000"),
    ],
    ids=["weights", "flemma", "vector"],
)
def test_oversized_sieve_arrays_are_budget_errors(argv, reason, capsys):
    # refused before any n-sized array exists or any trial is drawn, with
    # status 2, not a traceback; the trials are drawn a block at a time, so
    # only the work budget bounds their number
    rc, out, err = run(argv, capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert reason in err


@pytest.mark.parametrize("d, z", [("1e30", "1000"), ("1e11", "100000000000")])
def test_sieve_weights_past_the_budget_are_budget_errors(d, z, capsys):
    # the weight dicts are charged as they grow, the primes <= min(z, D) before the sieve
    rc, out, err = run(["sieve", "weights", "--d", d, "--z", z, "--n-limit", "100", "--budget-mb", "16"], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: beta weights at D={float(d)}, z={z} needs ") and err.count("\n") == 1


def test_budget_refusal_rounds_the_need_up(capsys):
    # 24 bytes an n: n_limit 22,369,621 is 16 bytes over 512 MiB, one less fits
    rc, out, err = run(["sieve", "flemma", "--z", "30", "--r", "1", "--parity", "even", "--n-limit", "22369621"], capsys)
    assert rc == 2
    assert out == ""
    assert err == "error: truncated sandwich to n_limit=22369621 needs 513 MB, budget is 512 MB\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["rho", "--table", "--step", "1e-300"], "rho table at step 1e-300 needs more than 10^297 MB"),
        (["sieve", "mertens", "--a", "10", "--b", "1e300"],
         "prime list of the window (10.0, 1e+300] needs more than 10^293 MB"),
        (["sieve", "mertens", "--a", "10", "--b", str(2**63)],
         "prime list of the window (10.0, 9.223372036854776e+18] needs more than 10^13 MB"),
    ],
    ids=["rho", "mertens-1e300", "mertens-2^63"],
)
def test_a_huge_need_prints_as_a_power_of_ten_below_it(argv, err, capsys):
    rc, out, got = run(argv, capsys)
    assert rc == 2
    assert out == ""
    assert got == f"error: {err}, budget is 512 MB\n"


def test_sieve_weights_ok_and_dump(capsys):
    rc, payload = run_json(
        ["sieve", "weights", "--d", "100", "--z", "10", "--n-limit", "2000"], capsys
    )
    assert rc == 0
    res = payload["result"]
    assert res["sandwich"]["ok"]
    assert (res["upper_support"], res["lower_support"]) == (4, 8)
    rc, payload = run_json(
        ["sieve", "weights", "--d", "100", "--z", "10", "--dump-weights"], capsys
    )
    assert payload["result"]["lambda_plus"] == {"1": 1, "2": -1, "3": -1, "6": 1}


def test_sieve_ff(capsys):
    rc, payload = run_json(["sieve", "Ff", "--s", "3"], capsys)
    assert rc == 0
    res = payload["result"]
    assert float(res["F"]) == pytest.approx(1.1873816119934653, abs=1e-12)
    assert float(res["f"]) == pytest.approx(0.8230302166019934, abs=1e-12)


def test_sieve_flemma(capsys):
    rc, payload = run_json(
        ["sieve", "flemma", "--z", "10", "--r", "1", "--parity", "even", "--n-limit", "2000"],
        capsys,
    )
    assert rc == 0
    assert payload["result"]["violations"] == 0


def test_flemma_sieves_only_to_n_limit(capsys):
    # primes above n_limit divide no n <= n_limit, so a huge z costs nothing
    argv = ["sieve", "flemma", "--r", "1", "--parity", "even", "--n-limit", "100", "--z"]
    start = time.perf_counter()
    rc, huge = run_json(argv + ["100000000000"], capsys)
    assert time.perf_counter() - start < 5
    _, small = run_json(argv + ["100"], capsys)
    assert rc == 0
    assert huge["result"].pop("z") == 100000000000
    assert small["result"].pop("z") == 100
    assert huge == small


def test_sieve_vector_tuple(capsys):
    rc, payload = run_json(
        ["sieve", "vector", "--tuple", "1", "2", "3", "1", "2", "3"], capsys
    )
    assert rc == 0
    assert payload["result"]["holds"]


def test_sieve_mertens_window_is_sieved_once(capsys, monkeypatch):
    calls = []
    window_primes = sieve._window_primes
    monkeypatch.setattr(sieve, "_window_primes", lambda *a: calls.append(a) or window_primes(*a))
    rc, _, _ = run(["sieve", "mertens", "--a", "1000", "--b", "1000000"], capsys)
    assert rc == 0 and len(calls) == 1


def test_sieve_mertens_both_modes(capsys):
    rc, payload = run_json(["sieve", "mertens", "--a", "1000", "--b", "1000000"], capsys)
    assert rc == 0
    assert payload["result"]["reciprocal_sum"] == pytest.approx(0.6892479723925852, abs=1e-12)
    rc, payload = run_json(["sieve", "mertens", "--x", "1000000", "--epsilon", "0.05"], capsys)
    assert payload["result"]["primes_in_window"] == 5


def test_expsum_basic_and_lemma61(capsys):
    rc, payload = run_json(
        ["expsum", "basic", "--A", "1/7", "--B", "1/3", "--lo", "3", "--hi", "60"], capsys
    )
    assert rc == 0
    assert payload["result"]["result"]["n_terms"] == 57
    assert payload["result"]["spec"]["A"] == "1/7"
    rc, payload = run_json(
        ["expsum", "lemma61", "--h", "2", "--m", "97", "--r", "13", "--hi", "60",
         "--check-rewrite"],
        capsys,
    )
    assert rc == 0
    res = payload["result"]
    assert res["change_of_variables"]["ok"]
    val = res["result"]["value"]
    direct = (val["re"] ** 2 + val["im"] ** 2) ** 0.5
    assert res["progression_oracle_abs"] == pytest.approx(direct, abs=1e-9)


def test_mpf_engine_takes_a_coefficient_past_the_float_range(capsys):
    # 10^3000 is past the float range; both engines reduce it exactly and agree
    argv = ["expsum", "basic", "--A", "1e3000", "--B", "0", "--hi", "3"]
    rc, mpf = run_json([*argv, "--engine", "mpf"], capsys)
    assert rc == 0
    rc, exact = run_json([*argv, "--engine", "exact"], capsys)
    assert rc == 0
    got, want = mpf["result"]["result"]["value"], exact["result"]["result"]["value"]
    assert abs(complex(float(got["re"]), float(got["im"])) - complex(want["re"], want["im"])) < 1e-9


def test_expsum_weyl_exit_codes(capsys):
    rc, payload = run_json(
        ["expsum", "weyl", "--A", "1/7", "--B", "0", "--hi", "300", "--K", "10"], capsys
    )
    assert rc == 0
    assert payload["result"]["first_ok"]
    rc, _, err = run(
        ["expsum", "weyl", "--A", "1/7", "--B", "0", "--hi", "50", "--K", "100"], capsys
    )
    assert rc == 2  # K beyond the term count


def test_expsum_scan_jsonl(capsys):
    rc, out, _ = run(
        ["expsum", "scan", "--count", "2", "--format", "jsonl"], capsys
    )
    assert rc == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[-1]["type"] == "summary"
    assert all("normalized_modulus" in row for row in lines[:-1])


def test_expsum_window(capsys):
    rc, payload = run_json(
        ["expsum", "window", "--delta", "1/1000", "--J", "4", "--h-max", "10000"], capsys
    )
    assert rc == 0
    res = payload["result"]
    assert res["fourier0"] == "1/250"
    assert res["value_at_3delta"] == "0/1"
    assert res["value_at_delta"] == "1/1"
    assert res["decay"]["ok"]


def test_special_enumerate_and_partition(capsys):
    rc, payload = run_json(["special", "enumerate", "--x", "10000"], capsys)
    assert rc == 0
    res = payload["result"]
    assert res["count"] == 81
    assert res["partition_ok"]
    assert res["class_counts"] == {"no_mid_factor": 71, "one_mid_factor": 10}
    assert len(res["rows"]) == 81
    assert res["rows"][0]["p"] % 12 == 11
    assert res["rows"][0]["stat_plain_float"] < 0.5


def test_special_sigmas(capsys):
    rc, payload = run_json(
        ["special", "sigmas", "--x", "10000", "--delta", "0.05"], capsys
    )
    assert rc == 0
    res = payload["result"]
    assert [res["sigma1"], res["sigma2"], res["sigma3"], res["sigma4"]] == [10, 0, 2, 0]


@pytest.mark.parametrize("delta", ["nan", "inf", "-1"])
def test_special_sigmas_rejects_bad_delta(delta, capsys):
    rc, out, err = run(["special", "sigmas", "--x", "10000", "--delta", delta], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "delta" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--threads", "0", "expsum", "basic", "--A", "1/7", "--B", "1/3", "--hi", "60"],
        ["expsum", "basic", "--A", "1/7", "--B", "1/3", "--hi", "60", "--threads", "-4"],
        ["expsum", "basic", "--A", "1/7", "--B", "1/3", "--hi", "60", "--threads", "65"],
        ["expsum", "basic", "--A", "1/7", "--B", "1/3", "--hi", "60", "--threads", "100000"],
        ["special", "sigmas", "--x", "10000", "--delta", "0.05", "--budget-mb", "-1"],
    ],
    ids=["threads=0", "threads=-4", "threads=65", "threads=100000", "budget-mb=-1"],
)
def test_bad_global_flags_are_input_errors(argv, capsys):
    rc, out, err = run(argv, capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: --") and err.count("\n") == 1


def test_default_threads_stop_at_the_cap(monkeypatch, capsys):
    # the default is the CPU count, but never a count that --threads refuses
    seen = []
    real = expsums.eval_phase
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4096)
    monkeypatch.setattr(expsums, "eval_phase", lambda spec, threads, **kw: seen.append(threads) or real(spec, **kw))
    rc, out, err = run(["expsum", "basic", "--A", "1/7", "--B", "1/3", "--hi", "60"], capsys)
    assert (rc, err, seen) == (0, "", [cli.MAX_THREADS])


@pytest.mark.parametrize(
    "argv",
    [["prop1", "--p", "13", "--residuals", "--j-max", "2000"], ["expsum", "basic", "--A", "1e5000", "--B", "0", "--hi", "3"]],
    ids=["prop1_tail_majorant", "expsum_basic_A"],
)
def test_a_rational_past_the_int_to_str_limit_is_refused(argv, capsys):
    # a 5,001-digit A, and the tail majorant at j_max = 2000, have no decimal
    # string under Python's default limit of 4,300 digits
    rc, out, err = run(argv, capsys)
    assert (rc, out) == (2, "")
    assert err == ("error: an exact rational with a numerator or denominator of more than 4300 digits "
                   "passes Python's int-to-str limit\n")


@pytest.mark.parametrize(
    "argv",
    [["sieve", "Ff", "--s", s] for s in ("7", "-1", "nan", "inf")]
    + [["sieve", "weights", "--d", d, "--z", "10", "--n-limit", "100"] for d in ("0", "-1", "nan", "inf")]
    + [["expsum", "basic", "--A", v, "--B", "1/3", "--hi", "60"] for v in ("1/0", "nan", "inf")]
    + [["expsum", "basic", "--A", "1/7", "--B", v, "--hi", "60"] for v in ("1/0", "nan", "inf")]
    + [["psi", "--x", "100", "--y", y] for y in ("inf", "nan", "-inf")]
    + [["sieve", "vector", "--tuple", v, "1", "1", "1", "1", "1"] for v in ("nan", "1/0")]
    + [["expsum", "window", "--delta", d] for d in ("nan", "1/0", "abc")]
    + [["sieve", "mertens", "--a", "10", "--b", "nan"], ["sieve", "mertens", "--a", "inf", "--b", "inf"]]
    + [["rho", "--table", "--step", s] for s in ("nan", "inf")]
    + [["rho", "--u", "2", "--tol", "nan"]]
    + [["sieve", "weights", "--d", "100", "--z", "10", "--n-limit", "0"]]
    + [["expsum", "scan", "--count", c] for c in ("0", "-1")]
    + [["rho", "--table", "--step", s] for s in ("1e-300", "5e-324", "1e-5")]
    + [["--budget-mb", "0", "rho", "--table", "--step", "0.01"]],
    ids=" ".join,
)
def test_numbers_outside_a_domain_are_input_errors(argv, capsys):
    # refused with one error line, not a traceback, a failed check or a bare payload
    rc, out, err = run(argv, capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# each sieve subcommand's sound argv, which the sweep varies one option at a time
_SIEVE_BASES = {
    "weights": [["--d", "100", "--z", "10", "--n-limit", "100"]],
    "Ff": [["--s", "3"]],
    "flemma": [["--z", "10", "--r", "1", "--parity", "even", "--n-limit", "100"]],
    "vector": [["--trials", "100"]],
    "mertens": [["--x", "10000"], ["--a", "10", "--b", "100"]],
}
_EDGE_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e300", "1e5000", str(2**63), "1/0", ""]


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class _Overran(Exception):
    pass


def _overran(signum, frame):
    raise _Overran


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _has_failed_verdict(x):
    if isinstance(x, dict):
        return x.get("ok") is False or any(_has_failed_verdict(v) for v in x.values())
    return False


def _edge_value_failures(command, bases, options, capsys) -> list:
    """Give each option each edge value, one at a time in each sound base
    argv, under a 16 MB budget and a 5 s cap. A run ends well with status
    0, 1 with a failed verdict, or 2 with one error line, and stdout is
    strict JSON; the runs that end otherwise are returned."""
    bad = []
    previous = signal.signal(signal.SIGALRM, _overran)
    try:
        for base in bases:
            for opt in options:
                for value in _EDGE_VALUES:
                    argv = list(base)
                    if opt in argv:
                        argv[argv.index(opt) + 1] = value
                    else:
                        argv += [opt, value]
                    argv = [*command, *argv, "--budget-mb", "16"]
                    signal.setitimer(signal.ITIMER_REAL, 5)
                    try:
                        rc = cli.dispatch(argv)
                    except SystemExit as e:
                        rc = e.code
                    except _Overran:
                        rc = "over 5 s"
                    except Exception as e:
                        rc = f"raised {type(e).__name__}"
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                    out, err = capsys.readouterr()
                    if rc == 2:
                        fine = out == "" and err.startswith("error: ") and err.count("\n") == 1
                    elif rc in (0, 1):
                        try:
                            payload = json.loads(out, parse_constant=_reject_constant)
                        except ValueError:
                            fine = False
                        else:
                            fine = "Traceback" not in err and _has_failed_verdict(payload) == (rc == 1)
                    else:
                        fine = False
                    if not fine:
                        bad.append((" ".join(argv), rc))
    finally:
        signal.signal(signal.SIGALRM, previous)
    return bad


@pytest.mark.parametrize("name", list(_SIEVE_BASES))
def test_sieve_numeric_options_end_cleanly_on_edge_values(name, capsys):
    # every numeric option of the subcommand but the budget is swept
    subcommands = _subcommands(_subcommands(cli.build_parser())["sieve"])
    assert set(subcommands) == set(_SIEVE_BASES)
    options = [a.option_strings[0] for a in subcommands[name]._actions
               if a.type in (int, float) and a.dest != "budget_mb"]
    assert options
    bad = _edge_value_failures(["sieve", name], _SIEVE_BASES[name], options, capsys)
    assert not bad, bad


def test_expsum_window_options_end_cleanly_on_edge_values(capsys):
    # the window's own numbers, the exact --delta among them
    bad = _edge_value_failures(["expsum", "window"], [[]], ["--h-max", "--J", "--delta"], capsys)
    assert not bad, bad


def test_prop1_options_end_cleanly_on_edge_values(capsys):
    # --j-max is read only with --residuals, whose tail sums it bounds
    bad = _edge_value_failures(["prop1"], [["--p", "13", "--residuals"]], ["--p", "--r", "--j-max"], capsys)
    assert not bad, bad


def test_expsum_scan_options_end_cleanly_on_edge_values(capsys):
    bad = _edge_value_failures(["expsum", "scan"], [["--count", "1"]], ["--count", "--seed"], capsys)
    assert not bad, bad


# expsum's summing subcommands, one sound argv per phase kind and engine; each
# sums under 2^18 terms, so no swept --threads value can start a pool
_EXPSUM_BASES = {
    "basic": [["--A", "1/7", "--B", "1/3", "--hi", "60"], ["--A", "1/7", "--B", "1/3", "--hi", "60", "--engine", "mpf"]],
    "lemma61": [["--h", "2", "--m", "97", "--r", "13", "--hi", "60"],
                ["--h", "2", "--m", "97", "--r", "13", "--hi", "60", "--engine", "mpf"]],
    "weyl": [["--A", "1/7", "--B", "1/3", "--hi", "60", "--K", "2", "--L", "2"],
             ["--kind", "lemma61", "--h", "2", "--m", "97", "--r", "13", "--hi", "60", "--K", "2", "--L", "2"]],
}


@pytest.mark.parametrize("name", list(_EXPSUM_BASES))
def test_expsum_sum_options_end_cleanly_on_edge_values(name, capsys):
    # every int option but the budget, and the exact --A and --B where the subcommand has them
    parser = _subcommands(_subcommands(cli.build_parser())["expsum"])[name]
    options = [a.option_strings[0] for a in parser._actions
               if a.type is int and a.dest != "budget_mb" or a.dest in ("A", "B")]
    bad = _edge_value_failures(["expsum", name], _EXPSUM_BASES[name], options, capsys)
    assert not bad, bad


def test_special_hist_options_end_cleanly_on_edge_values(capsys):
    # the walk over (x/2, x] is held to the work budget, so --x ends too
    options = ["--x", "--bins", "--z-small", "--z-lo", "--z-hi"]
    bad = _edge_value_failures(["special", "hist"], [["--x", "10000"]], options, capsys)
    assert not bad, bad


# the remaining commands, each with its sound argvs and the options swept in
# them; rho's three bases are its three modes: one value, the table, both routes at 10/3
_COMMAND_SWEEPS = {
    "alpha": ([[]], ["--k", "--bits"]),
    "rho": ([["--u", "2.5"], ["--table", "--step", "1"], ["--ten-thirds"]], ["--u", "--tol", "--step"]),
    "psi": ([["--x", "100000", "--y", "10"]], ["--x", "--y"]),
    "special enumerate": ([["--x", "10000"]], ["--x", "--z-small", "--z-lo", "--z-hi"]),
    "special sigmas": ([["--x", "10000", "--delta", "0.05"]], ["--x", "--z-small", "--z-lo", "--z-hi", "--delta"]),
    "verify-all": ([["--only", "alpha_digits"]], ["--seed"]),
}


@pytest.mark.parametrize("name", list(_COMMAND_SWEEPS))
def test_command_options_end_cleanly_on_edge_values(name, capsys):
    bases, options = _COMMAND_SWEEPS[name]
    bad = _edge_value_failures(name.split(), bases, options, capsys)
    assert not bad, bad


def test_budget_mb_holds_for_the_command_it_is_given(capsys):
    # verify-all's checks read the same budget as every other command, and
    # dispatch restores the default after each command, refused or not
    rc, out, err = run(["verify-all", "--only", "vector_sandwich", "--budget-mb", "1"], capsys)
    assert (rc, out) == (2, "")
    assert err == "error: vector sandwich in blocks of 16384 trials needs 2 MB, budget is 1 MB\n"
    assert arith.budget_mb == arith.DEFAULT_BUDGET_MB
    assert sieve.vector_sieve_random_trials(10**6)["ok"]
    rc, out, err = run(["sieve", "vector", "--trials", "1000", "--budget-mb", "2"], capsys)
    assert rc == 0 and err == ""
    assert arith.budget_mb == arith.DEFAULT_BUDGET_MB
    assert sieve.vector_sieve_random_trials(10**6)["ok"]


def test_special_sigmas_honors_budget(capsys, monkeypatch):
    # the special walk charges nothing to the budget and builds no
    # least-factor table, so a zero budget changes nothing
    argv = ["special", "sigmas", "--x", "100000", "--delta", "0.05"]
    rc, plain, err = run(argv, capsys)
    assert rc == 0 and err == ""
    calls = []
    real = arith.build_spf_table

    def spy(limit):
        calls.append(limit)
        return real(limit)

    monkeypatch.setattr(arith, "build_spf_table", spy)
    rc, out, err = run(argv + ["--budget-mb", "0"], capsys)
    assert rc == 0
    assert out == plain
    assert err == ""
    assert calls == []
    res = json.loads(out)["result"]
    assert [res["sigma1"], res["sigma2"], res["sigma3"], res["sigma4"]] == [59, 6, 13, 6]
    assert res["S_total"] == 569


def test_special_hist(capsys):
    rc, payload = run_json(["special", "hist", "--x", "10000", "--bins", "10"], capsys)
    assert rc == 0
    res = payload["result"]
    assert res["n_plain"] == 81
    assert sum(row["plain"] for row in res["rows"]) == 81


def test_special_overrides_flags(capsys):
    rc, payload = run_json(
        ["special", "enumerate", "--x", "10000", "--z-lo", "110", "--z-hi", "130"], capsys
    )
    assert rc == 0
    assert payload["result"]["count"] == 39


def test_verify_list(capsys):
    rc, payload = run_json(["verify-all", "--list"], capsys)
    assert rc == 0
    names = payload["result"]["checks"]
    assert "alpha_digits" in names and "tail_identity" in names
    assert len(names) == 11


def test_verify_single_check(capsys):
    rc, out, err = run(["verify-all", "--only", "alpha_digits"], capsys)
    assert rc == 0
    assert "[PASS] alpha_digits" in err
    payload = json.loads(out)
    assert payload["result"]["all_ok"]


def test_verify_injected_fault_fails_loudly(capsys):
    rc, out, err = run(
        ["verify-all", "--only", "sieve_sandwich", "--inject-bad-weights"], capsys
    )
    assert rc == 1
    assert "[FAIL] sieve_sandwich" in err


def test_global_flags_accepted_on_either_side(capsys):
    rc1, out1, _ = run(["--seed", "3", "expsum", "scan", "--count", "2"], capsys)
    rc2, out2, _ = run(["expsum", "scan", "--count", "2", "--seed", "3"], capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_runs_are_byte_deterministic(capsys):
    a = run(["expsum", "scan", "--count", "3", "--seed", "9"], capsys)
    b = run(["expsum", "scan", "--count", "3", "--seed", "9"], capsys)
    assert a == b


def test_csv_format(capsys):
    rc, out, _ = run(
        ["expsum", "scan", "--count", "2", "--format", "csv"], capsys
    )
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows
    assert "normalized_modulus" in rows[0]


@pytest.mark.parametrize(
    "fmt, rows_key, payload",
    [
        ("json", None, {"x": float("nan")}),
        ("json", "rows", {"rows": [{"x": [float("inf")]}]}),
        ("jsonl", None, {"x": float("-inf")}),
        ("jsonl", "rows", {"rows": [{"x": float("nan")}]}),
        ("jsonl", "rows", {"rows": [], "x": float("inf")}),  # the summary line
        ("csv", None, {"x": float("nan")}),
        ("csv", "rows", {"rows": [{"x": [float("inf")]}]}),  # a JSON cell
    ],
    ids=["json", "json-rows", "jsonl-document", "jsonl-row", "jsonl-summary", "csv-result", "csv-cell"],
)
def test_emit_refuses_a_float_that_is_not_json(fmt, rows_key, payload, capsys):
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli.emit(payload, fmt, "probe", rows_key)
    out = capsys.readouterr().out
    assert "NaN" not in out and "Infinity" not in out


@pytest.mark.parametrize("fmt", ["json", "jsonl", "csv"])
def test_emit_reads_the_summary_after_the_rows(fmt, capsys):
    seen = []

    def rows():
        for i in range(3):
            seen.append(i)
            yield {"i": i}

    cli.emit({"rows": rows(), "k": 1}, fmt, "probe", "rows", summary=lambda: {"n": len(seen)})
    out = capsys.readouterr().out
    if fmt == "json":
        assert json.loads(out)["result"] == {"k": 1, "n": 3, "rows": [{"i": 0}, {"i": 1}, {"i": 2}]}
    elif fmt == "jsonl":
        assert out.splitlines()[-1] == '{"k": 1, "n": 3, "type": "summary"}'
    else:
        assert out.splitlines() == ["i", "0", "1", "2"]


def test_emit_writes_jsonl_rows_in_blocks(monkeypatch):
    # one write a row is one system call a row when stdout is unbuffered
    writes = []
    monkeypatch.setattr(sys, "stdout", type("Out", (), {"write": lambda self, s: writes.append(s)})())
    rows = [{"i": i, "pad": "x" * (i % 50)} for i in range(20000)]
    cli.emit({"rows": iter(rows), "k": 1}, "jsonl", "probe", "rows")
    want = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows) + '{"k": 1, "type": "summary"}\n'
    assert "".join(writes) == want
    assert len(writes) <= len(want) // 2**16 + 2


def test_emit_charges_the_rows_it_holds(capsys):
    # json holds each row's text, 119 bytes with its list slot here, so 10^4
    # rows pass a 1 MB budget before anything is printed; csv holds none
    # and prints every row under the same budget
    rows = [{"i": i, "pad": "x" * 40} for i in range(1000, 11000)]
    arith.budget_mb = 1
    try:
        with pytest.raises(BudgetError, match="^the json output of probe needs 2 MB, budget is 1 MB$"):
            cli.emit({"rows": iter(rows)}, "json", "probe", "rows")
        assert capsys.readouterr().out == ""
        cli.emit({"rows": iter(rows)}, "csv", "probe", "rows")
    finally:
        arith.budget_mb = arith.DEFAULT_BUDGET_MB
    assert capsys.readouterr().out.count("\n") == 1 + len(rows)


@pytest.mark.parametrize(
    "fmt, want",
    [
        ("json", '{"command": "probe", "result": {"k": 1, "rows": []}, "schema": 1}\n'),
        ("jsonl", '{"k": 1, "type": "summary"}\n'),
        ("csv", "\r\n"),
    ],
)
def test_emit_prints_no_rows_as_it_always_has(fmt, want, capsys):
    cli.emit({"rows": iter([]), "k": 1}, fmt, "probe", "rows")
    assert capsys.readouterr().out == want


def test_emit_refuses_csv_rows_whose_columns_differ(capsys):
    with pytest.raises(ValueError, match="columns"):
        cli.emit({"rows": [{"a": 1, "b": 2}, {"a": 1, "c": 2}]}, "csv", "probe", "rows")
    assert capsys.readouterr().out == "a,b\r\n1,2\r\n"


def test_unknown_check_name_is_an_input_error(capsys):
    rc, _, err = run(["verify-all", "--only", "nonsense"], capsys)
    assert rc == 2
    assert "unknown check" in err
