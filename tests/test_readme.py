"""Facts the README states about the repository, kept true by tier-1."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_states_the_line_count_under_src():
    # the tracked size of the package: every line of every Python file under src/
    stated = re.search(r"The package is ([\d,]+) lines under `src/`", (ROOT / "README.md").read_text())
    assert stated, "README no longer states the line count"
    lines = sum(f.read_bytes().count(b"\n") for f in (ROOT / "src").rglob("*.py"))
    assert int(stated.group(1).replace(",", "")) == lines
