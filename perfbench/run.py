"""alpha4 benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a single closed-loop client: its CLI commands run one
after another, each in a fresh ``python -m alpha4.cli`` process, and whole
repetitions of the command list repeat until the next one would overrun
``--seconds`` (at least one always runs). Every output is checked against
its reference, so a wrong answer counts as a failed operation, and only
repetitions without a failure contribute timings.

With ``--trace 0`` the result carries the end-to-end metrics of
metrics.END_TO_END. With ``--trace 1`` the commands run in-process under
spans.py (each still in a fresh process), alternating with untraced
repetitions, and the result carries the per-layer metrics of
metrics.PER_LAYER, including the traced/untraced wall-time ratio.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give the machine record and each
metric by name and unit. The program under test is built from ``src/`` of
the checkout this file sits in; without it the benchmark exits with 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import metrics
import workloads
from spans import MARKER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# fresh-interpreter imports timed per run; the first one may also compile bytecode
SETUP_SAMPLES = 7


@dataclass
class OpResult:
    wall: float
    cpu: float
    rss_mb: float
    out_bytes: int
    failure: str | None
    spans: list | None = None
    checks: dict = field(default_factory=dict)  # verify-all check name -> (elapsed, budget_s)


@dataclass
class Rep:
    traced: bool
    ops: list[OpResult]

    @property
    def ok(self) -> bool:
        return all(o.failure is None for o in self.ops)

    @property
    def wall(self) -> float:
        return sum(o.wall for o in self.ops)

    @property
    def cpu(self) -> float:
        return sum(o.cpu for o in self.ops)


def _env() -> dict:
    """Environment of every measured process.

    src/ is importable, and bytecode is always cached, under .bench_build/ of
    the checkout, so a caller's PYTHONDONTWRITEBYTECODE cannot change what
    a command costs and nothing is written outside the checkout.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    return env


def spawn(argv: list[str], env: dict) -> tuple[int, bytes, bytes, float, float, float]:
    """Run argv to completion: (exit code, stdout, stderr, wall s, cpu s, max RSS MB).

    os.wait4 reports the child's own usage together with the descendants it
    reaped, so pool workers count in cpu and max RSS.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, out, err[0], wall, cpu, usage.ru_maxrss / 1024


def run_op(op: workloads.Op, traced: bool, refs: dict, seen: dict, env: dict) -> OpResult:
    entry = [str(HERE / "spans.py")] if traced else ["-m", "alpha4.cli"]
    rc, out, err, wall, cpu, rss = spawn([sys.executable, *entry, *op.argv], env)
    spans = None
    if traced:
        lines = err.decode(errors="replace").splitlines()
        if lines and lines[-1].startswith(MARKER):
            spans = json.loads(lines.pop()[len(MARKER):])
        err = "\n".join(lines).encode()
    failure = None
    checks = {}
    if rc != 0:
        failure = f"exit {rc}: {err.decode(errors='replace').strip()[-300:]}"
    else:
        try:
            failure = op.check(op, out, refs, seen)
            if op.argv[0] == "verify-all":
                for res in json.loads(out)["result"]["results"]:
                    checks[res["name"]] = (res["elapsed"], res["details"]["budget_s"])
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            failure = f"unreadable output: {type(exc).__name__}: {exc}"
        if traced and spans is None:
            failure = failure or "traced run wrote no spans"
    return OpResult(wall, cpu, rss, len(out), failure, spans, checks)


def run_rep(ops: list[workloads.Op], traced: bool, refs: dict, env: dict) -> Rep:
    seen: dict = {}
    return Rep(traced, [run_op(op, traced, refs, seen, env) for op in ops])


def setup_time(env: dict) -> float:
    rc, _, err, wall, _, _ = spawn([sys.executable, "-c", "import alpha4.cli"], env)
    if rc != 0:
        raise RuntimeError(f"import alpha4.cli failed: {err.decode(errors='replace').strip()}")
    return wall


# -- per-layer metrics from spans --------------------------------------------------


@functools.lru_cache(maxsize=None)
def candidates(x: int, w: int) -> int:
    """Candidates p = -1 mod W in (x/2, x] of enumerate_S, counted here from its inputs."""
    sieve = np.ones(x + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(x) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    lo = x // 2 + 1
    primes = np.nonzero(sieve[lo:])[0] + lo
    return int(np.count_nonzero(primes % w == w - 1))


def self_times(spans: list) -> list[float]:
    """Span duration minus the time its child spans cover (children never overlap)."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(rep: Rep) -> dict[str, float]:
    """Per-layer numbers of one traced repetition; layers the workload never enters read 0."""
    values = {m.name: 0.0 for m in metrics.PER_LAYER}
    spf_mb = 0.0
    for op in rep.ops:
        spans = op.spans or []
        for (name, _, _, _, counters), own in zip(spans, self_times(spans)):
            counters = counters or {}
            key = "sieve" if name.startswith("sieve.") else name
            values[f"{key}.s"] = values.get(f"{key}.s", 0.0) + own
            values[f"{key}.calls"] = values.get(f"{key}.calls", 0.0) + 1
            if name.startswith("expsums.eval_phase."):
                values[f"{name}.terms"] += counters["terms"]
            elif name == "expsums.weyl_difference_check":
                values["expsums.weyl.inner_terms"] += counters["inner_terms"]
            elif name == "special.enumerate_S":
                values["special.candidates"] += candidates(counters["x"], counters["W"])
                values["special.S_size"] += counters["S_size"]
            elif name == "arith.build_spf_table":
                spf_mb = max(spf_mb, counters["mb"])
        for check, (elapsed, _) in op.checks.items():
            values[f"verify.{check}.s"] = elapsed
        values["cli.bytes_out"] += op.out_bytes
    headrooms = [budget / elapsed for op in rep.ops for elapsed, budget in op.checks.values()]
    values["verify.min_headroom"] = min(headrooms, default=0.0)
    values["arith.spf_table_mb"] = spf_mb
    if values["special.candidates"]:
        values["special.survival_ratio"] = values["special.S_size"] / values["special.candidates"]
    for engine in ("exact", "mpf"):
        terms = values[f"expsums.eval_phase.{engine}.terms"]
        if terms:
            values[f"expsums.ns_per_term.{engine}"] = values[f"expsums.eval_phase.{engine}.s"] / terms * 1e9
    return {m.name: values[m.name] for m in metrics.PER_LAYER}


# -- one run ---------------------------------------------------------------------


def machine() -> dict:
    import mpmath

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": np.__version__,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        refs: dict | None = None) -> dict:
    """Run one workload for about `seconds`; return the result object and a summary."""
    ops = workloads.ops(workload, seed, tiny)
    refs = workloads.load_references() if refs is None else refs
    env = _env()
    start = time.perf_counter()
    setups = [setup_time(env) for _ in range(SETUP_SAMPLES)]
    reps: list[Rep] = []
    while True:
        # a traced run alternates untraced and traced repetitions
        traced = trace and len(reps) % 2 == 1
        reps.append(run_rep(ops, traced, refs, env))
        elapsed = time.perf_counter() - start
        kinds_missing = trace and len(reps) < 2
        if not kinds_missing and elapsed + reps[-1].wall > seconds:
            break

    def timed(kind_traced: bool) -> list[Rep]:
        same = [r for r in reps if r.traced == kind_traced]
        return [r for r in same if r.ok] or same

    all_ops = [o for r in reps for o in r.ops]
    failures = [o.failure for o in all_ops if o.failure]
    plain = timed(False)
    if trace:
        traced = timed(True)
        per_rep = [layer_metrics(r) for r in traced]
        values = {name: statistics.median(r[name] for r in per_rep) for name in per_rep[0]}
        values["trace.overhead_ratio"] = (
            statistics.median(r.wall for r in traced) / statistics.median(r.wall for r in plain)
        )
        units = {m.name: m.unit for m in metrics.PER_LAYER}
    else:
        values = {
            "wall_s": statistics.median(r.wall for r in plain),
            "cpu_s": statistics.median(r.cpu for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(o.rss_mb for o in all_ops),
        }
        units = {m.name: m.unit for m in metrics.END_TO_END}
    result = {
        "correct": not failures,
        "attempted": len(all_ops),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    summary = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "repetitions": len(reps),
        "timed_repetitions": len(plain),
        "repetition_wall_s": [round(r.wall, 3) for r in reps],
        "setup_samples": len(setups),
        "fail_ratio": len(failures) / len(all_ops),
        "failures": failures[:5],
    }
    return {"result": result, "summary": summary}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "alpha4" / "cli.py").is_file():
        print(f"error: no alpha4 sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    summary, result = out["summary"], out["result"]
    for reason in summary["failures"]:
        print(f"FAILED: {reason}", file=sys.stderr)
    print("machine " + json.dumps(machine(), sort_keys=True))
    print("run " + json.dumps({k: v for k, v in summary.items() if k != "failures"}, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
