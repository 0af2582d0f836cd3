"""The CLI's process-wide settings, each checked in a fresh process: the
OpenBLAS thread count, and the memory budget and the work budget under a
memory limit."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# the CLI in a process that may map at most 1 GB
_CAPPED_CLI = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "from alpha4 import cli\n"
    "sys.exit(cli.dispatch(sys.argv[1:]))\n"
)


def _python(code: str, *args: str, timeout: float = 120, **env: str | None) -> subprocess.CompletedProcess:
    full = {k: v for k, v in os.environ.items() if k not in env}
    full.update({k: v for k, v in env.items() if v is not None})
    full["PYTHONPATH"] = str(SRC) + (os.pathsep + full["PYTHONPATH"] if full.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=full, capture_output=True, text=True, timeout=timeout
    )


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the thread count from /proc")
@pytest.mark.parametrize("setting", [None, "2"], ids=["unset", "user_set_2"])
def test_cli_runs_openblas_on_one_thread_unless_the_user_set_a_count(setting):
    # OpenBLAS starts its threads when numpy loads, capped at the CPUs this process may use
    code = (
        "import os, re, alpha4.cli, numpy\n"
        "status = open('/proc/self/status').read()\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], re.search(r'Threads:\\s+(\\d+)', status)[1])\n"
    )
    done = _python(code, OPENBLAS_NUM_THREADS=setting)
    assert done.returncode == 0, done.stderr
    want = setting or "1"
    assert done.stdout.split() == [want, str(min(int(want), len(os.sched_getaffinity(0))))]


@pytest.mark.parametrize(
    "argv",
    [
        ["special", "hist", "--x", "10000", "--bins", str(2**63 - 1)],
        ["expsum", "scan", "--count", str(2**63 - 1)],
        ["prop1", "--p", "13", "--residuals", "--j-max", str(2**63 - 1)],
        ["expsum", "weyl", "--A", "1/7", "--B", "0", "--hi", "100000000", "--K", "1"],
    ],
    ids=["special_hist_bins", "expsum_scan_count", "prop1_j_max", "expsum_weyl_hi"],
)
def test_a_list_past_the_budget_exits_2_at_once_under_a_memory_limit(argv):
    # without its charge, each list grows item by item for longer than 10 s
    # (the Weyl check first sums its 10^8 terms, then builds its residue tables)
    start = time.monotonic()
    done = _python(_CAPPED_CLI, *argv)
    assert time.monotonic() - start < 10
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.endswith(", budget is 512 MB\n")
    assert done.stderr.count("\n") == 1


def test_enumerate_json_past_the_budget_exits_2():
    # json holds every row's text before it prints; uncharged, the run
    # reached 194 MB of RSS and exited 0
    done = _python(_CAPPED_CLI, "special", "enumerate", "--x", "30000000", "--format", "json", "--budget-mb", "16")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: the json output of special enumerate needs ")
    assert done.stderr.endswith(", budget is 16 MB\n") and done.stderr.count("\n") == 1


def test_enumerate_csv_streams_under_a_budget_that_refuses_json():
    # at x = 10^6 json's 4,110 row texts need 2 MB; csv holds none of them
    argv = [_CAPPED_CLI, "special", "enumerate", "--x", "1000000"]
    small = _python(*argv, "--format", "csv", "--budget-mb", "1")
    assert small.returncode == 0
    assert small.stdout == _python(*argv, "--format", "csv", "--budget-mb", "512").stdout
    refused = _python(*argv, "--format", "json", "--budget-mb", "1")
    assert refused.returncode == 2
    assert refused.stdout == ""
    assert refused.stderr.startswith("error: the json output of special enumerate needs ")
    assert refused.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["expsum", "weyl", "--A", "1/7", "--B", "0", "--hi", "200000", "--K", "200000"],
        ["special", "sigmas", "--x", str(2**63), "--delta", "0.05"],
        ["special", "enumerate", "--x", str(10**12)],
        ["sieve", "vector", "--trials", str(2**62)],
    ],
    ids=["expsum_weyl_K", "special_sigmas_x", "special_enumerate_x", "sieve_vector_trials"],
)
def test_a_walk_past_the_work_budget_exits_2_within_a_second(argv):
    # without the work budget the first three ran for longer than 8 s, and
    # the trials, drawn a block at a time, would run without end
    done = _python(_CAPPED_CLI, *argv, timeout=1)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.endswith(" exceed the work budget 1000000000\n")
    assert done.stderr.count("\n") == 1
