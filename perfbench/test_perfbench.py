"""Tests of the benchmark itself (not collected by the package's own test run).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(table) -> dict[str, str]:
    return {m.name: m.unit for m in table}


def test_benchmark_json_matches_metric_tables():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER
    ]
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(workload, trace):
    out = run.run(workload, seed=5, seconds=0.1, trace=trace, tiny=True)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out["summary"]["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = _units(metrics.PER_LAYER if trace else metrics.END_TO_END)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(math.isfinite(m["value"]) and m["value"] >= 0 for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_reference_counts_as_failure():
    refs = workloads.load_references()
    sigmas, enum = (op.key for op in workloads.ops("special_1e7", 0, tiny=True))
    refs[sigmas] = dict(refs[sigmas], S_total=refs[sigmas]["S_total"] + 1)
    refs[enum] = "0" * 64
    out = run.run("special_1e7", seed=0, seconds=0.1, trace=False, tiny=True, refs=refs)
    assert not out["result"]["correct"]
    assert out["result"]["failed"] == out["result"]["attempted"] == 2
    assert out["summary"]["fail_ratio"] > 0


def test_wrong_engine_sum_fails_its_oracle():
    op = workloads.ops("long_sums", 3, tiny=True)[0]
    a, b, hi = workloads._coefficients(op)
    good = workloads._oracle_sum(a, b, hi)
    doc = {"result": {"result": {"n_terms": hi, "value": {"re": good.real, "im": good.imag}}}}
    assert workloads.check_oracle(op, json.dumps(doc).encode(), {}, {}) is None
    doc["result"]["result"]["value"]["re"] += 1e-3
    assert workloads.check_oracle(op, json.dumps(doc).encode(), {}, {}) is not None


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None], ["c", 2.0, 3.0, 1, None], ["d", 5.0, 6.0, 0, None]]
    assert run.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_candidate_count_matches_trial_division():
    def is_prime(n):
        return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))

    for x, w in ((1000, 12), (5003, 6)):
        assert run.candidates(x, w) == sum(1 for p in range(x // 2 + 1, x + 1) if is_prime(p) and p % w == w - 1)


def test_wrappers_replace_rebound_names():
    code = (
        "import spans, alpha4.cli\n"
        "from alpha4 import arith, cli, special, verify\n"
        "spans.install(spans.Recorder())\n"
        "assert verify.build_spf_table is arith.build_spf_table is cli.build_spf_table\n"
        "assert special.build_spf_table is arith.build_spf_table\n"
        "assert hasattr(arith.build_spf_table, '__wrapped__')\n"
        "assert not hasattr(alpha4.expsums.phase_fraction, '__wrapped__')\n"
    )
    env = run._env()
    env["PYTHONPATH"] += ":" + str(HERE)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long_sums", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
