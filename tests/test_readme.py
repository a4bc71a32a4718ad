"""Figures stated in the README that a test can hold to the code."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_line_count_of_src():
    # The README states the count that `cat src/greencell/*.py | wc -l` prints.
    (stated,) = re.findall(r"`src/greencell` is (\d+) lines\s+of Python\.",
                           (ROOT / "README.md").read_text())
    counted = sum(p.read_text().count("\n") for p in (ROOT / "src" / "greencell").glob("*.py"))
    assert int(stated) == counted
