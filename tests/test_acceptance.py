"""End-to-end acceptance: the eleven headline checks at their stated tolerances.

Each test runs one registered check (sharing the session tables), prints
its one-line verdict, asserts the check's own ok flag, and re-asserts
the headline numbers so a silent weakening of a check would fail here.
Every details field (all but the wall time) must also equal its frozen
value in golden/verify_all.json exactly; after a deliberate change,
refreeze.py rewrites that file and names each moved field, which belongs
in the change's notes.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from alpha4 import verify

GOLDEN = Path(__file__).parent / "golden" / "verify_all.json"

_cache: dict[str, verify.CheckResult] = {}


def _run(name: str, ctx: dict) -> verify.CheckResult:
    if name not in _cache:
        _cache[name] = verify.run_check(name, ctx)
    return _cache[name]


@pytest.fixture
def result(request, shared_ctx):
    res = _run(request.node.get_closest_marker("check").args[0], shared_ctx)
    print(res.line())
    return res


def frozen(x):
    """details in a JSON form that compares exactly: Fractions as "p/q", floats by repr."""
    if isinstance(x, dict):
        return {str(k): frozen(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [frozen(v) for v in x]
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return repr(x)
    if x is None or isinstance(x, (bool, int, str)):
        return x
    raise TypeError(f"no frozen form for {type(x).__name__}")


def test_registry_is_complete():
    assert verify.check_names() == [
        "alpha_digits",
        "rho_two_routes",
        "smooth_counts",
        "sieve_sandwich",
        "fundamental_lemma",
        "limit_functions",
        "vector_sandwich",
        "phase_engines",
        "amplitude_grid",
        "special_set",
        "tail_identity",
    ]


@pytest.mark.check("alpha_digits")
def test_alpha_digits(result):
    assert result.ok, result.line()
    assert result.details["printed_7_digits"] == "42.30104"
    assert float(result.details["certified_err"]) < 1e-30


@pytest.mark.check("rho_two_routes")
def test_rho_two_routes(result):
    assert result.ok, result.line()
    d = result.details
    assert abs(d["agreement"]) < 1e-15
    assert float(d["marching_err"]) < 1e-30
    assert d["quadrature"] <= d["dropped_bound"] <= 0.025


@pytest.mark.check("smooth_counts")
def test_smooth_counts(result):
    assert result.ok, result.line()
    d = result.details
    assert d["band_constants"] == {"by_exact": 3.0, "by_approx": 4.0}
    assert {row["x"] for row in d["rows"]} == {10**5, 10**6, 10**7}
    for row in d["rows"]:
        assert row["rel_by_exact"] <= 3 * row["band"], row
        assert row["rel_by_approx"] <= 4 * row["band"], row


@pytest.mark.check("sieve_sandwich")
def test_sieve_sandwich(result):
    assert result.ok, result.line()
    for row in result.details["rows"]:
        assert row["ok"], row
        assert row["upper_violations"] == 0 and row["lower_violations"] == 0


@pytest.mark.check("fundamental_lemma")
def test_fundamental_lemma(result):
    assert result.ok, result.line()
    rows = result.details["rows"]
    assert rows
    for row in rows:
        assert row["violations"] == 0, row


@pytest.mark.check("limit_functions")
def test_limit_functions(result):
    assert result.ok, result.line()
    d = result.details
    assert float(d["f_extension_worst_gap"]) < 1e-25
    assert float(d["F_dilogarithm_worst_gap"]) < 1e-25
    assert 1 < float(d["F5"]) < 1.002
    assert all(d["checks"].values()), d["checks"]


@pytest.mark.check("vector_sandwich")
def test_vector_sandwich(result):
    assert result.ok, result.line()
    rep = result.details["report"]
    assert rep["trials"] == 10**6
    assert rep["violations"] == 0
    assert rep["min_slack"] >= 0


@pytest.mark.check("phase_engines")
def test_phase_engines(result):
    assert result.ok, result.line()
    d = result.details
    assert float(d["worst_precision_gap"]) < 1e-24
    assert float(d["worst_engine_gap"]) < 1e-9
    assert d["zero_phase_exact"]
    assert d["weyl_all_ok"]
    assert d["weyl_worst_first_ratio"] <= 1
    assert d["weyl_worst_second_ratio"] <= 1


@pytest.mark.check("amplitude_grid")
def test_amplitude_grid(result):
    assert result.ok, result.line()
    d = result.details
    assert d["points_equal"] == d["grid_points"] == 50
    assert "first_unequal_n" not in d
    assert d["profile_in_bracket"]
    assert d["profile_sign_ok"]


@pytest.mark.check("special_set")
def test_special_set(result):
    assert result.ok, result.line()
    d = result.details
    assert d["S_size"] == 4110
    assert d["members_match_oracle"]
    assert d["sigmas"] == d["oracle_sigmas"] == [338, 58, 87, 65]
    assert d["partition_ok"]
    assert d["pair_bound_holds"]
    assert d["witness_gap"] == 4110 - 338 - 58


@pytest.mark.check("tail_identity")
def test_tail_identity(result):
    assert result.ok, result.line()
    assert result.details["primes_checked"] == 4110
    assert result.details["j_max"] == 40
    assert 0 < result.details["max_tail_to_bound"] < 1


@pytest.mark.parametrize("name", verify.check_names())
def test_details_match_golden(name, shared_ctx):
    # reuses the result of the check's own test above; no check runs twice
    want = json.loads(GOLDEN.read_text())[name]
    assert frozen(_run(name, shared_ctx).details) == want

