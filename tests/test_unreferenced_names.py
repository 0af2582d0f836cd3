"""Every function, class and method under src/ is used somewhere under src/.

A name that only tests call is a second path the package itself never
runs. The scan is by name: a definition counts as used when any other
line under src/ names it (a call, an attribute, a reference passed on).
Dunder methods are called by Python itself and are not scanned.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "alpha4"

# perfbench/spans.py traces these by name from outside the package, and
# argparse calls _Parser.error
ALLOWED = {
    "arith.SpfTable",
    "arith.SpfTable.least_prime_factor",
    "arith.build_spf_table",
    "series.factorial_tail_exact",
    "cli._Parser.error",
}


class _Scan(ast.NodeVisitor):
    """Every definition, by qualified name, and every name used."""

    def __init__(self):
        self.defined: dict[str, str] = {}  # qualified name -> bare name
        self.used: Counter = Counter()
        self.scope: list[str] = []

    def _define(self, node):
        self.scope.append(node.name)
        self.defined[".".join(self.scope)] = node.name
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

    def visit_Name(self, node):
        self.used[node.id] += 1

    def visit_Attribute(self, node):
        self.used[node.attr] += 1
        self.generic_visit(node)


def _scan() -> _Scan:
    scan = _Scan()
    for path in sorted(SRC.glob("*.py")):
        scan.scope = [path.stem]
        scan.visit(ast.parse(path.read_text()))
    return scan


def test_every_name_under_src_is_used_under_src():
    scan = _scan()
    defined, used = scan.defined, scan.used
    assert ALLOWED <= set(defined), ALLOWED - set(defined)
    unused = sorted(qual for qual, name in defined.items()
                    if not used[name] and not (name.startswith("__") and name.endswith("__")))
    assert set(unused) <= ALLOWED, sorted(set(unused) - ALLOWED)
