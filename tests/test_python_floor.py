"""The oldest Python that pyproject.toml declares can parse every source file.

The check is best effort: ast.parse with feature_version rejects syntax
newer than the floor (except*, type aliases, PEP 695 generics), but it
does not see library differences, such as a default argument that a
later Python added (int.to_bytes's byteorder, for one). Only a run under
that Python finds those.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = tuple(int(part) for part in re.search(
    r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M).groups())
SOURCES = sorted(path for folder in ("src", "tests", "perfbench")
                 for path in (ROOT / folder).rglob("*.py"))


def _parses_at_floor(source: str) -> bool:
    try:
        ast.parse(source, feature_version=FLOOR)
    except SyntaxError:
        return False
    return True


def test_every_source_file_parses_at_the_python_floor():
    assert FLOOR == (3, 10) and len(SOURCES) > 30
    late = [str(path.relative_to(ROOT)) for path in SOURCES
            if not _parses_at_floor(path.read_text())]
    assert late == []


# syntax newer than 3.10, with the first Python that parses it
@pytest.mark.parametrize("source, since", [
    ("try:\n    pass\nexcept* ValueError:\n    pass\n", (3, 11)),
    ("type Vector = list[float]\n", (3, 12)),
    ("def first[T](items: list[T]) -> T:\n    return items[0]\n", (3, 12)),
    ("class Box[T]:\n    pass\n", (3, 12)),
])
def test_the_floor_check_rejects_newer_syntax(source, since):
    if sys.version_info >= since:
        ast.parse(source)
    assert not _parses_at_floor(source)
