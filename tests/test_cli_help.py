"""The CLI's help text. ``main`` builds only the invoked subcommand's
parser, so each subcommand's ``--help`` is held to a golden file
captured from the single all-commands parser that preceded it."""

import re
import sys
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser, main

GOLDEN = Path(__file__).parent / "fixtures" / "cli_help"
SUBCOMMANDS = [
    (name,) for name in COMMANDS
] + [("snapshot", action) for action in ("capture", "report", "diff")]


@pytest.fixture(autouse=True)
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def help_text(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def comparable(text):
    # Python 3.9's argparse titles the options "optional arguments:" and
    # appends "(default: True)" to --verify's help, which re-wraps it;
    # there only the words are compared.
    if sys.version_info >= (3, 11):
        return text
    text = text.replace("optional arguments:", "options:")
    return text.replace(" (default: True)", "").split()


def test_top_level_help_lists_every_subcommand(capsys):
    text = help_text(capsys)
    assert comparable(text) == comparable((GOLDEN / "repro.txt").read_text())
    assert len(COMMANDS) == 12
    for name in COMMANDS:
        assert f"\n    {name} " in text


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids="-".join)
def test_subcommand_help_matches_golden(capsys, argv):
    golden = (GOLDEN / f"{'-'.join(argv)}.txt").read_text()
    assert comparable(help_text(capsys, *argv)) == comparable(golden)


@pytest.mark.parametrize("argv", [["bogus"], ["bogus", "run"]])
def test_unknown_subcommand_exits_2_listing_the_choices(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err
    assert re.findall(r"\w+", err.split("choose from", 1)[1]) == list(COMMANDS)


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "required: command" in capsys.readouterr().err


def test_one_command_parser_holds_that_command_only(capsys):
    with pytest.raises(SystemExit):
        build_parser("trace").parse_args(["run"])
    assert re.findall(r"\w+", capsys.readouterr().err.split("choose from", 1)[1]) == ["trace"]
