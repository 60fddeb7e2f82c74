"""Checks over the package source itself."""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).parent.parent / "src" / "rarelm").glob("*.py"))


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_assert_statements(path):
    # python -O strips asserts, so invariant checks must raise explicitly
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, "%s: assert at line(s) %s" % (path.name, lines)
