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


def reader_source(fn):
    """The source of fn and of every cli function it passes `args` to."""
    source = inspect.getsource(fn)
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in vars(cli)
                and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)):
            source += reader_source(getattr(cli, node.func.id))
    return source


def test_every_option_is_read():
    # an option that its command never reads only changes the stamp's digest
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    unread = []
    for name, parser in sub.choices.items():
        source = reader_source(parser.get_default("func"))
        unread += ["%s %s" % (name, a.option_strings[0] if a.option_strings else a.dest)
                   for a in parser._actions
                   if a.dest != "help" and "args.%s" % a.dest not in source]
    assert not unread, "options no command reads: %s" % unread


def is_frozen_dataclass(decorator):
    return (isinstance(decorator, ast.Call)
            and getattr(decorator.func, "id", None) == "dataclass"
            and any(k.arg == "frozen" and getattr(k.value, "value", None) is True
                    for k in decorator.keywords))


def test_every_config_is_frozen():
    # a config is checked once, when it is built, so it must not change after
    thawed = ["%s.%s" % (path.name, node.name)
              for path in SRC
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.ClassDef) and node.name.endswith("Config")
              and not any(map(is_frozen_dataclass, node.decorator_list))]
    assert not thawed, "config classes that are not frozen dataclasses: %s" % thawed
