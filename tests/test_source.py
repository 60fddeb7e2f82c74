"""Checks over the package source itself."""

import ast
import inspect
from pathlib import Path

import pytest

from rarelm import cli

SRC = sorted((Path(__file__).parent.parent / "src" / "rarelm").glob("*.py"))


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_assert_statements(path):
    # python -O strips asserts, so invariant checks must raise explicitly
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, "%s: assert at line(s) %s" % (path.name, lines)


def test_every_option_is_read():
    # an option that its command never reads only changes the stamp's digest
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    unread = []
    for name, parser in sub.choices.items():
        source = inspect.getsource(parser.get_default("func"))
        unread += ["%s %s" % (name, a.option_strings[0] if a.option_strings else a.dest)
                   for a in parser._actions
                   if a.dest != "help" and "args.%s" % a.dest not in source]
    assert not unread, "options no command reads: %s" % unread
