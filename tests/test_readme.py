"""README.md runs as written: every `apolar ...` line exits 0, and the
library example gives the values in its comments."""

import ast
import io
import os
import re
import shlex
import subprocess
import sys
import tokenize

from pathlib import Path

import pytest

import apolar
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


def _expected_value(comment, namespace):
    """The value a `# ...` comment states, without a trailing '(note)'."""
    text = re.fullmatch(r"#\s*(.+?)(?:\s+\([^()]*\))?", comment.strip()).group(1)
    return eval(text, namespace)


def test_readme_library_example_gives_its_commented_values():
    source = _README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    lines = source.splitlines()
    comments = {tok.start[0]: tok.string
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        # the value is stated on the expression's last line, or alone on the next
        row = stmt.end_lineno
        if row not in comments and lines[row].lstrip().startswith("#"):
            row += 1
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert value == _expected_value(comments[row], namespace), ast.unparse(stmt)
        checked += 1
    assert checked == 5


def test_every_exported_name_resolves_lazily():
    # `import apolar` loads no submodule; `from apolar import *` loads the
    # ones that define __all__, and each name is its home module's object
    script = ("import sys, apolar\n"
              "assert not [m for m in sys.modules if m.startswith('apolar.')]\n"
              "from apolar import *\n"
              "for name in apolar.__all__:\n"
              "    home = sys.modules[globals()[name].__module__]\n"
              "    assert getattr(home, name) is globals()[name], name\n"
              "print(len(apolar.__all__))\n")
    src = os.path.dirname(os.path.dirname(apolar.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "%d\n" % len(apolar.__all__) == "36\n"
    with pytest.raises(AttributeError):
        apolar.no_such_name
