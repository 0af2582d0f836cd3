"""Take tracemalloc peaks in fresh processes: the one way tier-1 measures memory.

A tracemalloc peak taken inside the test process moves with whatever
earlier tests left behind. A fresh `python -c` child with `src/` on its
path sees only what its snippet does, so the memory tests take their
peaks there and read back what the child prints.

`traced(setup, *children)` is the protocol, and every memory test runs
on it. Each child, side by side with the others:

- wraps `alpha4.arith.require_budget` before any layer is imported. Each
  layer binds that name from arith, and `cli.emit` reads it there, so
  every charge is seen with its `what` and still goes through the real
  check;
- runs setup once, untraced: the imports, any patches, and one small
  warm-up call, so the peaks hold no first-use import or cache;
- starts tracemalloc and runs its cases in order, each after
  `tracemalloc.reset_peak()`, with stdout sent to devnull;
- returns, for each case, its traced peak and the charges made while it
  ran: the last need charged under each `what`, in the order of those
  last charges. One entry per `what` keeps a per-item charge from
  growing the peak it is checked against.

What a case allocates and keeps counts in the peaks of the cases after
it, so a case whose peak must not see another's runs in its own child.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROTOCOL = """
import contextlib, json, os, sys, tracemalloc
from alpha4 import arith
charges, real = {}, arith.require_budget

def spy(need, what):
    charges.pop(what, None)
    charges[what] = need
    real(need, what)

arith.require_budget = spy
scope, rows = {}, []
cases = [compile(case, "<case>", "exec") for case in json.loads(sys.argv[2])]
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    exec(sys.argv[1], scope)
    tracemalloc.start()
    for case in cases:
        charges.clear()
        tracemalloc.reset_peak()
        exec(case, scope)
        rows.append((tracemalloc.get_traced_memory()[1], dict(charges)))
print(json.dumps(rows))
"""


def child_env() -> dict:
    """The environment with `src/` first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def in_children(snippet: str, *argvs: list[str]) -> list[str]:
    """Run snippet once per argv, each in a fresh process (side by side), and
    return what each child printed; a child that fails fails the test."""
    children = [subprocess.Popen([sys.executable, "-c", snippet, *argv], env=child_env(), text=True,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE) for argv in argvs]
    out = []
    for child in children:
        stdout, stderr = child.communicate(timeout=300)
        assert child.returncode == 0, stderr
        out.append(stdout)
    return out


def traced(setup: str, *children: list[str]) -> list[list]:
    """Run setup and then each list of cases in a fresh child, side by side,
    and return each child's rows: per case, [peak, {what: need}]."""
    return [json.loads(out) for out in in_children(_PROTOCOL, *([setup, json.dumps(cases)] for cases in children))]


def charges_cover_peaks(rows) -> None:
    """Each case's last charge covers its traced peak without overstating it by half."""
    for case, (peak, charges) in enumerate(rows):
        assert charges, f"case {case} made no charge"
        charge = [*charges.values()][-1]
        assert peak <= charge <= 1.5 * peak, (case, peak, charges)
