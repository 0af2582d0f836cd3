"""Rewrite the frozen bytes after a deliberate change to what they freeze:

    PYTHONPATH=src python tests/refreeze.py

reruns every command in golden/frozen.json and every verify-all check, and
rewrites golden/frozen.json (in its order) and golden/verify_all.json. It
prints each entry whose digest moved as `argv: old → new`, and each moved
golden field as `check.field`; on an unchanged tree it prints nothing.
`git diff tests/golden` then shows what the change's notes must list.
"""

import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

from alpha4 import cli, verify

MANIFEST = Path(__file__).resolve().parent / "golden" / "frozen.json"


def stdout_digest(argv: str) -> str:
    """SHA-256 of what `argv` prints, run in this process through cli.dispatch."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.dispatch(shlex.split(argv))
    if rc != 0:
        raise RuntimeError(f"{argv!r} exited {rc}")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def main() -> None:
    from test_acceptance import GOLDEN, frozen

    old = json.loads(MANIFEST.read_text())
    new = {argv: stdout_digest(argv) for argv in old}
    for argv, digest in new.items():
        if digest != old[argv]:
            print(f"{argv}: {old[argv]} → {digest}")
    MANIFEST.write_text(json.dumps(new, indent=1) + "\n")

    old = json.loads(GOLDEN.read_text())
    new = {name: frozen(verify.run_check(name, {}).details) for name in verify.check_names()}
    for name in sorted(old.keys() | new.keys()):
        was, now = old.get(name, {}), new.get(name, {})
        for field in sorted(was.keys() | now.keys()):
            if field not in was or field not in now or was[field] != now[field]:
                print(f"{name}.{field}")
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
