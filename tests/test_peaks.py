"""Tier-1 takes every tracemalloc peak one way: in a fresh child, through `peaks.traced`."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _starts(path: Path) -> list[str]:
    """Where the file calls tracemalloc.start(); a call inside a snippet
    string runs in a child and is no call here."""
    return [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "start"
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "tracemalloc"]


def test_no_test_starts_tracemalloc_in_the_pytest_process():
    started = [at for path in sorted(TESTS.glob("*.py")) for at in _starts(path)]
    assert started == [], started
