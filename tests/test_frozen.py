"""Frozen bytes: every command in golden/frozen.json prints what it printed.

The manifest maps each argv to the SHA-256 of its stdout, and each entry
runs in-process through cli.dispatch. Its first 29 entries are README's
command tour, in README's order, except that the tour's
`expsum scan --count 40` line takes about 20 s and runs here at --count 4
(same seed, a prefix of the same survey). Some later entries guard a case
rather than a command: `psi` on both sides of y = sqrt(x); in
`expsum lemma61 --h 3`, the progression oracle and a two-chunk sum; in
the `special enumerate` csv lines, factor-pair cells printed as JSON
arrays; and every `expsum scan` family in jsonl and csv, whose columns
follow the row's key order. After a deliberate change, refreeze.py
rewrites the manifest; see its docstring.
"""

import ast
import json
import re
from pathlib import Path

import pytest

from refreeze import MANIFEST, stdout_digest

TESTS = Path(__file__).resolve().parent
FROZEN = json.loads(MANIFEST.read_text())


@pytest.mark.parametrize("argv", list(FROZEN))
def test_stdout_is_frozen(argv):
    assert stdout_digest(argv) == FROZEN[argv]


def test_benchmark_digests_are_frozen_here():
    # a digest perfbench pins must not move while tier-1 passes
    refs = json.loads((TESTS.parent / "perfbench" / "references.json").read_text())
    pinned = {argv: v for argv, v in refs.items()
              if isinstance(v, str) and re.fullmatch("[0-9a-f]{64}", v)}
    assert pinned
    assert {argv: FROZEN.get(argv) for argv in pinned} == pinned


def _imports_hashlib(path: Path) -> bool:
    return any(isinstance(node, ast.Import) and any(a.name == "hashlib" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "hashlib"
               for node in ast.walk(ast.parse(path.read_text())))


def test_only_the_manifest_hashes_stdout():
    hashing = [path.name for path in sorted(TESTS.glob("*.py")) if _imports_hashlib(path)]
    assert hashing == ["refreeze.py"], hashing
