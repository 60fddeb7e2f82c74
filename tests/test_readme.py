"""The README's CLI walkthrough parses with the current command line."""

import re
import shlex
from pathlib import Path

import pytest

from rarelm import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def walkthrough_commands():
    """The arguments of each `rarelm ...` line of the README's sh blocks,
    with backslash-continued lines joined."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    lines = "".join(blocks).replace("\\\n", "").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("rarelm ")]


COMMANDS = walkthrough_commands()


def test_walkthrough_runs_every_command():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert {argv[0] for argv in COMMANDS} == set(sub.choices)


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a[:2]) for a in COMMANDS])
def test_walkthrough_command_parses(argv):
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail("README command does not parse: rarelm %s" % " ".join(argv))
