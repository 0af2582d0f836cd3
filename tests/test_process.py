"""The CLI's process-wide settings, each checked in a fresh process: the
OpenBLAS thread count, and the precision cap under a memory limit."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _python(code: str, *args: str, **env: str | None) -> subprocess.CompletedProcess:
    full = {k: v for k, v in os.environ.items() if k not in env}
    full.update({k: v for k, v in env.items() if v is not None})
    full["PYTHONPATH"] = str(SRC) + (os.pathsep + full["PYTHONPATH"] if full.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=full, capture_output=True, text=True, timeout=120
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
    "kind",
    [["basic", "--A", "1/7", "--B", "1/3"], ["lemma61", "--h", "2", "--m", "97", "--r", "13"]],
    ids=["basic", "lemma61"],
)
def test_a_precision_past_the_cap_exits_2_under_a_memory_limit(kind):
    # without the cap, 2^63 bits ended in a MemoryError traceback; the limit
    # keeps a regression from taking the machine's memory
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from alpha4 import cli\n"
        "sys.exit(cli.dispatch(sys.argv[1:]))\n"
    )
    done = _python(code, "expsum", *kind, "--hi", "5", "--engine", "mpf", "--prec-bits", str(2**63))
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: prec_bits") and done.stderr.count("\n") == 1
