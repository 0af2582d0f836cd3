"""Run a measuring snippet in fresh processes.

A tracemalloc peak taken inside the test process moves with whatever
earlier tests left behind. A fresh `python -c` child with `src/` on its
path sees only what its snippet does, so the memory tests take their
peaks there and read back what the child prints.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def in_children(snippet: str, *argvs: list[str]) -> list[str]:
    """Run snippet once per argv, each in a fresh process (side by side), and
    return what each child printed; a child that fails fails the test."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    children = [subprocess.Popen([sys.executable, "-c", snippet, *argv], env=env, text=True,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE) for argv in argvs]
    out = []
    for child in children:
        stdout, stderr = child.communicate(timeout=300)
        assert child.returncode == 0, stderr
        out.append(stdout)
    return out
