"""Every `apolar ...` line in README.md runs and exits 0."""

import io
import shlex

from pathlib import Path

import pytest

from apolar import cli

_README = Path(__file__).resolve().parent.parent / "README.md"
_COMMANDS = [line for line in _README.read_text().splitlines()
             if line.startswith("apolar ")]


def test_readme_lists_commands():
    assert len(_COMMANDS) >= 13


@pytest.mark.parametrize("line", _COMMANDS)
def test_readme_command_exits_0(line, capsys, monkeypatch):
    stdin = None
    for command in line.split("|"):
        argv = shlex.split(command)
        assert argv[0] == "apolar"
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert cli.main(argv[1:]) == 0, command
        stdin = capsys.readouterr().out
