"""CLI surface: envelopes, schema validation, exit codes, determinism."""

import contextlib
import io
import json
import os
import re
import string
import subprocess
import sys

from importlib import resources
from unittest import mock

import jsonschema
import pytest

from hypothesis import given, settings, strategies as st

import apolar
from apolar import cli
from apolar.tensor import DenseTensor, tensor_from_json


_SCHEMA = json.loads(
    (resources.files("apolar") / "schemas" / "report.schema.json").read_text())


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--output", "json")
    assert err == ""
    envelope = json.loads(out)
    jsonschema.validate(envelope, _SCHEMA)
    return code, envelope


@pytest.fixture(scope="module")
def schema():
    return _SCHEMA


def test_rank_binary(capsys, schema):
    code, env = run_json(capsys, "rank", "binary", "--form", "x0*x1^2")
    assert code == 0
    assert env["result"]["rank"] == 3
    assert env["result"]["witness"] == "y0^2"
    jsonschema.validate(env, schema)


def test_rank_monomial_and_quadratic(capsys, schema):
    code, env = run_json(capsys, "rank", "monomial", "--exponents", "1,1,1")
    assert code == 0 and env["result"]["rank"] == 4
    jsonschema.validate(env, schema)
    code, env = run_json(capsys, "rank", "quadratic", "--form", "x0^2+x1^2",
                         "--vars", "2")
    assert code == 0 and env["result"]["rank"] == 2


def test_perp_command(capsys):
    code, env = run_json(capsys, "perp", "--form", "x0*x1^2", "--t", "2")
    assert code == 0
    assert env["result"]["basis"] == ["y0^2"]


def test_hilbert_command(capsys):
    code, env = run_json(capsys, "hilbert", "--form", "x0^3", "--vars", "2")
    assert code == 0
    assert env["result"]["hf"] == [1, 1, 1, 1, 0]
    code, env = run_json(capsys, "hilbert", "--generic", "2", "4")
    assert code == 0
    assert env["result"]["hf"] == [1, 3, 6, 3, 1, 0]
    code, env = run_json(capsys, "hilbert", "--generic", "1", "3")
    assert code == 0
    assert env["result"]["hf"] == [1, 2, 2, 1, 0]


def test_catalecticant_command(capsys):
    code, env = run_json(capsys, "catalecticant", "--form", "x0^2*x1", "--t", "1")
    assert code == 0
    assert env["result"]["rows"] == 3 and env["result"]["cols"] == 2
    assert env["result"]["rank"] == 2


def test_decompose_check_command(capsys):
    code, env = run_json(capsys, "decompose-check", "--form", "x0^2*x1",
                         "--points", "1,1;-1,1;0,1")
    assert code == 0
    assert env["result"]["feasible"] is True
    assert env["result"]["coefficients"] == ["1/6", "1/6", "-1/3"]
    code, env = run_json(capsys, "decompose-check", "--form", "x0*x1^2",
                         "--points", "1,1;0,1")
    assert env["result"]["feasible"] is False


def test_secant_dim_commands(capsys, schema):
    code, env = run_json(capsys, "secant-dim", "veronese",
                         "--n", "2", "--d", "4", "--s", "5")
    assert code == 0
    assert env["result"]["computed_dim"] == 13
    assert env["result"]["defect"] == 1
    assert env["provenance"]["certified"] is True
    jsonschema.validate(env, schema)
    code, env = run_json(capsys, "secant-dim", "segre",
                         "--dims", "3,3,3", "--s", "7")
    assert env["result"]["computed_dim"] == 63
    assert env["result"]["defect"] == 0


def test_secant_dim_modular_flag(capsys):
    code, env = run_json(capsys, "secant-dim", "veronese",
                         "--n", "2", "--d", "3", "--s", "3",
                         "--arithmetic", "modular")
    assert code == 0
    assert env["result"]["probabilistic_lower_bound"] is True
    assert env["provenance"]["arithmetic_mode"] == "modular"


def test_ah_g_command(capsys):
    code, env = run_json(capsys, "ah-g", "--n", "2", "--d", "4")
    assert code == 0 and env["result"]["g"] == 6


def test_tensor_pipe(capsys, monkeypatch):
    code, env = run_json(capsys, "tensor", "matmul", "--n", "2")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(env)))
    code, env2 = run_json(capsys, "tensor", "mlrank")
    assert code == 0
    assert env2["result"]["multilinear_rank"] == [4, 4, 4]


def test_tensor_file_commands(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"rank_one_sum": [
        {"factors": [[1, 2, 3], [4, 5, 6], [7, 8, 9]]},
    ]}))
    code, env = run_json(capsys, "tensor", "mlrank", "--file", str(path))
    assert env["result"]["multilinear_rank"] == [1, 1, 1]
    code, env = run_json(capsys, "tensor", "strassen", "--file", str(path))
    assert env["result"]["rank"] == 2 and env["result"]["det"] == 0
    code, env = run_json(capsys, "tensor", "minors", "--file", str(path), "--r", "1")
    assert env["result"]["within_bound"] is True
    code, env = run_json(capsys, "tensor", "flatten", "--file", str(path),
                         "--modes", "1")
    assert env["result"]["rank"] == 1 and env["result"]["rows"] == 3


def test_tensor_strassen_expand(capsys, schema):
    code, env = run_json(capsys, "tensor", "strassen-expand")
    assert code == 0
    assert env["result"] == {"terms": 9216, "degree": 9}
    jsonschema.validate(env, schema)


def test_tensor_minors_on_a_vector(capsys, tmp_path):
    # a vector has rank <= 1, so it is within every bound; the multilinear
    # rank, defined from order 2 on, still refuses it
    path = tmp_path / "vector.json"
    path.write_text(json.dumps({"shape": [3], "entries": [1, 2, 3]}))
    code, env = run_json(capsys, "tensor", "minors", "--file", str(path), "--r", "1")
    assert code == 0 and env["result"] == {"bound": 1, "within_bound": True}
    assert run_cli(capsys, "tensor", "mlrank", "--file", str(path)) == (
        2, "", "error: multilinear rank needs order at least 2\n")


@pytest.mark.parametrize("output", ["text", "json"])
@pytest.mark.parametrize("argv, inputs", [
    (["flatten", "--modes", "1,2"], {"shape": [3, 3, 3], "modes": [1, 2]}),
    (["mlrank"], {"shape": [3, 3, 3]}),
    (["strassen"], {"shape": [3, 3, 3]}),
    (["minors", "--r", "2"], {"shape": [3, 3, 3], "r": 2}),
    (["strassen-expand"], {}),
    (["matmul", "--n", "1"], {"n": 1}),
], ids=["flatten", "mlrank", "strassen", "minors", "strassen-expand", "matmul"])
def test_tensor_command_and_inputs(argv, inputs, output, capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"rank_one_sum": [{"factors": [[1, 2, 3]] * 3}]}))
    file = [] if argv[0] in ("strassen-expand", "matmul") else ["--file", str(path)]
    code, out, err = run_cli(capsys, "tensor", *argv, *file, "--output", output)
    assert (code, err) == (0, "")
    command = "tensor." + argv[0]
    if output == "json":
        envelope = json.loads(out)
        assert (envelope["command"], envelope["inputs"]) == (command, inputs)
    else:
        head = ["command: " + command] + ["input %s: %s" % kv for kv in sorted(inputs.items())]
        assert out.splitlines()[:len(head)] == head


def test_fixture_list(capsys, schema):
    code, env = run_json(capsys, "paper-fixtures", "--list")
    assert code == 0
    assert "quartic-catalecticant-entries" in env["result"]["fixtures"]
    jsonschema.validate(env, schema)


def test_fixture_suite_passes(capsys, schema):
    code, env = run_json(capsys, "paper-fixtures")
    assert code == 0, env["result"]
    assert env["result"]["failed"] == 0
    assert env["provenance"]["certified"] is True
    jsonschema.validate(env, schema)


def test_fixture_suite_modular_mode(capsys):
    code, env = run_json(capsys, "paper-fixtures", "--arithmetic", "modular")
    assert code == 0, env["result"]
    assert env["result"]["failed"] == 0


def test_determinism_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "secant-dim", "veronese", "--n", "2", "--d", "3",
                         "--s", "3", "--seed", "42", "--output", "json")
    _, out2, _ = run_cli(capsys, "secant-dim", "veronese", "--n", "2", "--d", "3",
                         "--s", "3", "--seed", "42", "--output", "json")
    assert out1 == out2


def test_text_output_mode(capsys):
    code, out, err = run_cli(capsys, "rank", "binary", "--form", "x0*x1^2")
    assert code == 0
    assert "rank: 3" in out
    assert "certified=true" in out


def test_input_error_exit_code(capsys, monkeypatch, tmp_path):
    code, out, err = run_cli(capsys, "rank", "binary", "--form", "x0 + x1^2")
    assert code == 2
    assert "error:" in err
    code, out, err = run_cli(capsys, "hilbert", "--form", "x0^^2")
    assert code == 2
    code, out, err = run_cli(capsys, "catalecticant", "--form", "x0^2", "--t", "5")
    assert code == 2
    code, out, err = run_cli(capsys, "decompose-check", "--form", "x0^2*x1",
                             "--points", "1,1;2,2")
    assert code == 2
    code, out, err = run_cli(capsys, "tensor", "mlrank", "--file", "/no/such/file")
    assert code == 2
    bad_bytes = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    for stdin, message in (
            (b'{"shape": [2, 2], "entries": [1, "1/0", 2, 3]}',
             "tensor entry '1/0' has a zero denominator"),
            (b'{"rank_one_sum": [{"coeff": 1}]}',
             "rank_one_sum items must be objects with a 'factors' field"),
            (b'not json', "cannot read stdin as JSON: Expecting value: line 1 column 1 (char 0)"),
            (b'\xff{}', "cannot read stdin as JSON: " + bad_bytes),
            (b'{"shape": 5, "entries": [1]}', "shape must be a JSON list"),
            (b'{"rank_one_sum": [5]}',
             "rank_one_sum items must be objects with a 'factors' field"),
            (b'{"rank_one_sum": [{"factors": 5}]}', "factors must be a JSON list")):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8"))
        code, out, err = run_cli(capsys, "tensor", "mlrank")
        assert (code, out, err) == (2, "", "error: %s\n" % message)
    for content, message in ((b'not json', "Expecting value: line 1 column 1 (char 0)"),
                             (b'\xff{}', bad_bytes)):
        path = tmp_path / "tensor.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "tensor", "mlrank", "--file", str(path))
        assert (code, out, err) == (
            2, "", "error: cannot read tensor file %r as JSON: %s\n" % (str(path), message))
    # nesting too deep for the JSON decoder, past CPython's C recursion guard
    # too; the reason after the colon is CPython's wording
    deep = "[" * 100000 + "]" * 100000
    monkeypatch.setattr("sys.stdin", io.StringIO(deep))
    code, out, err = run_cli(capsys, "tensor", "mlrank")
    assert (code, out) == (2, "") and err.startswith("error: cannot read stdin as JSON: ")
    path = tmp_path / "deep.json"
    path.write_text(deep)
    code, out, err = run_cli(capsys, "tensor", "mlrank", "--file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read tensor file %r as JSON: " % str(path))
    # an entry is -?digits or -?digits/digits; Fraction(str) would also take
    # exponents (1e10000000 builds a ten-million-digit integer), decimals,
    # padding and digit separators
    for entry in ("1e5", "1e5000", "1e10000000", "1.5", " 3 ", "1_000", "+3"):
        stdin = json.dumps({"shape": [2, 2], "entries": [1, entry, 0, 1]})
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, out, err = run_cli(capsys, "tensor", "flatten", "--modes", "1")
        assert code == 2 and out == "" and repr(entry) in err
    # --vars 0 is a value to reject, not an absent flag to infer
    code, out, err = run_cli(capsys, "perp", "--form", "x0^2", "--vars", "0", "--t", "1")
    assert code == 2 and "number of variables" in err
    for generic in (["16", "2"], ["2", "65"], ["0", "3"]):
        code, out, err = run_cli(capsys, "hilbert", "--generic", *generic)
        assert code == 2
        assert "--generic needs 1 <= N <= 15 and 1 <= D <= 64" in err
    # a generic form's variable count is N + 1; --vars would be ignored
    code, out, err = run_cli(capsys, "hilbert", "--generic", "2", "4", "--vars", "7")
    assert code == 2 and out == "" and "--vars and --generic are mutually exclusive" in err
    code, out, err = run_cli(capsys, "hilbert", "--generic", "2", "4", "--form", "x0")
    assert code == 2 and out == "" and "--form and --generic are mutually exclusive" in err


@pytest.mark.parametrize("argv, message", [
    (["hilbert", "--form", "", "--generic", "2", "4"],
     "--form and --generic are mutually exclusive"),
    (["hilbert", "--form", ""], "empty input"),
    (["perp", "--form", "", "--t", "1"], "empty input"),
], ids=["hilbert-generic", "hilbert", "perp"])
def test_empty_form_is_given(argv, message, capsys):
    # an empty --form is a form to reject, not an absent flag
    assert run_cli(capsys, *argv) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("argv", [
    ["veronese", "--n", "1000000", "--d", "1000000", "--s=0"],
    ["veronese", "--n", "1000000", "--d", "1000000", "--s=-1"],
    ["segre", "--dims", "1,1", "--s=0"],
], ids=["veronese-0", "veronese-negative", "segre-0"])
def test_secant_dim_needs_a_positive_s(argv, capsys):
    # the size guard passes s <= 0, and expected_dim refuses it before the
    # ambient dimension of a huge Veronese is counted
    assert run_cli(capsys, "secant-dim", *argv) == (2, "", "error: s must be at least 1\n")


@pytest.mark.parametrize("output", ["text", "json"])
def test_result_too_long_to_print(output, capsys):
    # g(7152, 7152) has 4300 digits, the most str() converts by default
    code, out, err = run_cli(capsys, "ah-g", "--n", "7152", "--d", "7152", "--output", output)
    assert code == 0 and err == ""
    assert len(max(out.split(), key=len).strip('",')) == 4300
    for argv in (["ah-g", "--n", "7153", "--d", "7153"],
                 ["ah-g", "--n", "10000", "--d", "10000"],
                 ["catalecticant", "--form", "9" * 4290 + "*x0^64", "--t", "32"]):
        code, out, err = run_cli(capsys, *argv, "--output", output)
        assert code == 2 and out == ""
        assert err == ("error: the result has an integer of more than 4300 digits, "
                       "too long to print\n")
        assert "set_int_max_str_digits" not in err


_NINES = "9" * 5000


@pytest.mark.parametrize("argv, stdin", [
    (["rank", "binary", "--form", "x" + _NINES], ""),
    (["perp", "--form", _NINES + "*x0", "--t", "1"], ""),
    (["rank", "monomial", "--exponents", _NINES], ""),
    (["decompose-check", "--form", "x0", "--points", _NINES + ",1"], ""),
    (["secant-dim", "segre", "--dims", _NINES + ",1", "--s", "2"], ""),
    (["tensor", "flatten", "--modes", "1"], '{"shape": [1], "entries": [%s]}' % _NINES),
    (["tensor", "flatten", "--modes", "1"], '{"shape": [1], "entries": ["1/%s"]}' % _NINES),
], ids=["binary", "perp", "monomial", "points", "dims", "json-int", "json-string"])
def test_number_too_long_to_read(argv, stdin, capsys, monkeypatch):
    # int() refuses more than 4300 digits with a hint the CLI user cannot follow
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: the input has a number of more than 4300 digits, too long to read\n"
    assert "set_int_max_str_digits" not in err


def test_non_integer_is_named(capsys):
    for argv, text in ((["rank", "monomial", "--exponents", "1,,2"], ""),
                       (["rank", "monomial", "--exponents", "1.5"], "1.5"),
                       (["secant-dim", "segre", "--dims", "1,a", "--s", "2"], "a"),
                       (["decompose-check", "--form", "x0^2", "--points", "1,1;;0,1"], "")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "error: expected an integer, got %r\n" % text)
    # what int() takes is still taken: padding, signs and digit separators
    code, env = run_json(capsys, "rank", "monomial", "--exponents", " 1,+2,1_0")
    assert code == 0 and env["inputs"]["exponents"] == [1, 2, 10]


def test_commands_import_only_the_standard_library():
    # apolar has no dependencies: after a generic Waring rank, a Hilbert
    # function, an exact and a modular Terracini rank, the expanded Strassen
    # determinant and a binary Waring rank, every loaded module is apolar's
    # own or the standard library's.  -S skips site, whose .pth hooks load
    # modules of other installed packages before apolar is imported.
    script = ("import sys, apolar.cli\n"
              "for argv in (['ah-g', '--n', '2', '--d', '4'],\n"
              "             ['hilbert', '--generic', '2', '4'],\n"
              "             ['secant-dim', 'veronese', '--n', '4', '--d', '4', '--s', '14'],\n"
              "             ['secant-dim', 'veronese', '--n', '4', '--d', '4', '--s', '14',\n"
              "              '--arithmetic', 'modular'],\n"
              "             ['tensor', 'strassen-expand'],\n"
              "             ['rank', 'binary', '--form', 'x0*x1^2']):\n"
              "    assert apolar.cli.main(argv) == 0, argv\n"
              "tops = {name.partition('.')[0] for name in list(sys.modules)}\n"
              "print(sorted(tops - set(sys.stdlib_module_names) - {'apolar', '__main__'}))\n"
              "print('dataclasses' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(apolar.__file__))
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the result records are namedtuples: importing dataclasses would also
    # load inspect, ast, dis and tokenize on every invocation
    assert proc.stdout.splitlines()[-2:] == ["[]", "False"]


_FORM_COMMANDS = [
    ["hilbert", "--generic", "2", "4"],
    ["hilbert", "--form", "x0*x1^2"],
    ["perp", "--form", "x0*x1^2", "--t", "2"],
    ["catalecticant", "--form", "1/2*x0^2*x1", "--t", "1"],
    ["decompose-check", "--form", "x0*x1*x2", "--points", "1,1,1;1,1,-1;1,-1,1;-1,1,1"],
    ["rank", "binary", "--form", "x0*x1^2"],
    ["rank", "monomial", "--exponents", "1,1,1"],
    ["rank", "quadratic", "--form", "x0^2+x1^2"],
    ["ah-g", "--n", "2", "--d", "4"],
    ["secant-dim", "veronese", "--n", "2", "--d", "4", "--s", "5"],
    ["secant-dim", "segre", "--dims", "1,1,1", "--s", "2", "--arithmetic", "modular"],
    ["tensor", "matmul", "--n", "2"],
]


def _apolar_modules_after(argv, cwd):
    """(exit code, apolar submodules loaded) after one command in a fresh process."""
    script = ("import sys, apolar.cli\n"
              "code = apolar.cli.main(sys.argv[1:])\n"
              "print(sorted(m for m in sys.modules if m.startswith('apolar.')), "
              "file=sys.stderr)\n"
              "sys.exit(code)\n")
    src = os.path.dirname(os.path.dirname(apolar.__file__))
    proc = subprocess.run([sys.executable, "-c", script] + argv, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), cwd=cwd,
                          timeout=120)
    return proc.returncode, proc.stderr.splitlines()[-1]


@pytest.mark.parametrize("argv", _FORM_COMMANDS, ids=[" ".join(a[:2]) for a in _FORM_COMMANDS])
def test_form_and_secant_commands_skip_fixtures_and_tensor(argv, tmp_path):
    # each command imports only the modules it runs: paper-fixtures alone
    # needs apolar.fixtures, the tensor commands alone apolar.tensor, and
    # neither the secant commands nor the tensor commands apolar.apolarity
    code, modules = _apolar_modules_after(argv, tmp_path)
    assert code == 0, modules
    assert "apolar.fixtures" not in modules
    assert ("apolar.tensor" in modules) == (argv[0] == "tensor")
    assert ("apolar.apolarity" in modules) == (argv[0] not in ("secant-dim", "ah-g", "tensor"))
    if argv[0] == "hilbert":
        assert "apolar.secant" not in modules


def test_lazily_imported_commands_still_run(tmp_path):
    pencil = {"rank_one_sum": [{"factors": [[1, 2, 0], [0, 1, 3], [2, 0, 1]]},
                               {"factors": [[0, 1, 1], [1, 0, 2], [3, 1, 0]], "coeff": "1/2"}]}
    (tmp_path / "pencil.json").write_text(json.dumps(pencil))
    for argv in (["paper-fixtures", "--list"], ["paper-fixtures"],
                 ["tensor", "matmul", "--n", "2"],
                 ["tensor", "strassen-expand"],
                 ["tensor", "flatten", "--file", "pencil.json", "--modes", "1"],
                 ["tensor", "mlrank", "--file", "pencil.json"],
                 ["tensor", "strassen", "--file", "pencil.json"],
                 ["tensor", "minors", "--file", "pencil.json", "--r", "2"]):
        code, modules = _apolar_modules_after(argv, tmp_path)
        assert code == 0, (argv, modules)
        assert "apolar." + argv[0].replace("paper-", "") in modules


def test_exact_secant_dim_of_a_462_square_tangent_matrix(capsys):
    # Bareiss alone took minutes here; the GF(p) rank meets the bound 462
    code, env = run_json(capsys, "secant-dim", "veronese", "--n", "5", "--d", "6", "--s", "77")
    assert code == 0
    assert env["result"]["computed_dim"] == 461
    assert env["provenance"]["certified"] is True
    assert env["provenance"]["arithmetic_mode"] == "exact"


def test_perp_beyond_socle_degree(capsys):
    code, env = run_json(capsys, "perp", "--form", "x0^2", "--vars", "2", "--t", "3")
    assert code == 0
    assert env["result"]["dimension"] == 4


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["rank", "binary"])  # missing --form
    assert exc.value.code == 2


# every leaf command and its options in declaration order: the shared flags
# first, then the shared form or tensor-file flags, then the command's own
_LEAF_OPTIONS = {
    "rank binary": "--seed --output --form",
    "rank monomial": "--seed --output --exponents",
    "rank quadratic": "--seed --output --form --vars",
    "perp": "--seed --output --form --vars --t",
    "hilbert": "--seed --output --form --vars --generic",
    "catalecticant": "--seed --output --form --vars --t",
    "decompose-check": "--seed --output --form --vars --points",
    "secant-dim veronese": "--seed --output --arithmetic --n --d --s",
    "secant-dim segre": "--seed --output --arithmetic --dims --s",
    "ah-g": "--seed --output --n --d",
    "tensor flatten": "--seed --output --file --modes",
    "tensor mlrank": "--seed --output --file",
    "tensor strassen": "--seed --output --file",
    "tensor strassen-expand": "--seed --output",
    "tensor matmul": "--seed --output --n",
    "tensor minors": "--seed --output --file --r",
    "paper-fixtures": "--seed --output --arithmetic --list",
}


@pytest.mark.parametrize("command", sorted(_LEAF_OPTIONS))
def test_leaf_help_lists_options_in_order(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(command.split() + ["--help"])
    assert exc.value.code == 0
    # the order of first mention, not the layout, which varies across Pythons
    seen = []
    for option in re.findall(r"(?<![\w-])--[a-z][\w-]*", capsys.readouterr().out):
        if option not in seen and option != "--help":
            seen.append(option)
    assert seen == _LEAF_OPTIONS[command].split()


_EARLY_OR_UNHONOURED_FLAGS = [
    # flags before the leaf command were silently replaced by its defaults,
    # then argparse read their values as the subcommand word
    (["secant-dim", "--seed", "5", "--output", "json", "veronese",
      "--n", "2", "--d", "2", "--s", "2"],
     "--seed goes after the subcommand word"),
    # hilbert runs exact arithmetic only; provenance must not claim modular
    (["hilbert", "--generic", "2", "4", "--arithmetic", "modular", "--output", "json"],
     "unrecognized arguments: --arithmetic modular"),
    (["secant-dim", "--seed", "5", "veronese", "--n", "2", "--d", "2", "--s", "2"],
     "--seed goes after the subcommand word"),
    (["rank", "--seed", "3", "binary", "--form", "x0*x1^2"],
     "--seed goes after the subcommand word"),
    (["tensor", "--output", "json", "matmul", "--n", "2"],
     "--output goes after the subcommand word"),
    # modular mode works mod 2^19 - 1 only; there is no modulus to choose
    (["secant-dim", "veronese", "--n", "2", "--d", "2", "--s", "2",
      "--arithmetic", "modular", "--modulus", "10"],
     "unrecognized arguments: --modulus 10"),
    # a report takes up to secant.TRIALS samples; there is no count to choose
    (["secant-dim", "veronese", "--n", "2", "--d", "2", "--s", "2", "--trials", "2"],
     "unrecognized arguments: --trials 2"),
]


@pytest.mark.parametrize("argv, message", _EARLY_OR_UNHONOURED_FLAGS,
                         ids=["argv%d" % i for i in range(len(_EARLY_OR_UNHONOURED_FLAGS))])
def test_flags_rejected_where_not_honoured(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


_OVERSIZED = [
    (["hilbert", "--generic", "15", "64"], "generic form"),
    (["hilbert", "--form", "x0^64", "--vars", "16"], "catalecticant"),
    (["catalecticant", "--form", "x0^64", "--vars", "16", "--t", "32"], "catalecticant"),
    (["perp", "--form", "x0", "--vars", "16", "--t", "1000"], "degree-1000 monomial basis"),
    (["decompose-check", "--form", "x0^64", "--vars", "16",
      "--points", "1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0"], "decomposition system"),
    (["secant-dim", "veronese", "--n", "15", "--d", "20", "--s", "1000"], "tangent matrix"),
    (["secant-dim", "segre", "--dims", "99,99,99", "--s", "1"], "tangent matrix"),
    (["tensor", "matmul", "--n", "11"], "matrix multiplication tensor"),
    # counts of more digits than str() converts: the exact ambient dimension
    # of the first alone took over a second to compute
    (["secant-dim", "veronese", "--n", "100000", "--d", "100000", "--s", "1"],
     "tangent matrix"),
    (["secant-dim", "segre", "--dims", ",".join(["100000"] * 2000), "--s", "1"],
     "tangent matrix"),
    (["tensor", "matmul", "--n", "1" + "0" * 800], "matrix multiplication tensor"),
]


@pytest.mark.parametrize("argv, what", _OVERSIZED,
                         ids=["argv%d" % i for i in range(len(_OVERSIZED))])
def test_oversized_input_rejected_before_building(argv, what, capsys):
    # each would build far more than linalg.MAX_ENTRIES entries
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: %s would have more than the limit of 1000000 entries\n" % what


def test_oversized_rank_one_sum_rejected_before_building(capsys, tmp_path):
    # a 1 KB file whose three factors span 101^3 = 1,030,301 entries
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"rank_one_sum": [{"factors": [[1] * 101] * 3}]}))
    code, out, err = run_cli(capsys, "tensor", "strassen", "--file", str(path))
    assert code == 2
    assert out == ""
    assert "more than the limit" in err


@pytest.mark.parametrize("tensor", [
    {"shape": [2] * 300000, "entries": [1]},
    {"rank_one_sum": [{"factors": [[1, 1]] * 300000}]},
    {"shape": [1500, 1000], "entries": [1] * 1500000},
    # sized before any entry or coordinate is converted, so the malformed one is not reached
    {"shape": [1500, 1000], "entries": ["1e5"] + [1] * 1499999},
    {"rank_one_sum": [{"factors": [["x", 1]] + [[1, 1]] * 299999}]},
], ids=["long-shape", "many-factors", "dense", "dense-bad-entry", "many-factors-bad-entry"])
def test_oversized_tensor_shape_rejected_before_converting(tensor, capsys, tmp_path):
    # 2^300000 entries, whose full count took seconds and more digits than
    # str() converts; and a full tensor of 1.5 million entries
    path = tmp_path / "big.json"
    path.write_text(json.dumps(tensor))
    code, out, err = run_cli(capsys, "tensor", "mlrank", "--file", str(path))
    assert code == 2
    assert out == ""
    assert "more than the limit" in err
    assert "sys.set_int_max_str_digits" not in err


def test_tensor_order_limit(capsys, tmp_path):
    # 300,000 one-entry factors pass the size guard (one entry) and are refused
    # by their order before a coordinate is converted; flattening them took
    # O(order^2) per mode.  64 modes are still read and ranked.
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"rank_one_sum": [{"factors": [[1]] * 300000}]}))
    code, out, err = run_cli(capsys, "tensor", "mlrank", "--file", str(path))
    assert (code, out, err) == (2, "", "error: tensor order 300000 exceeds limit 64\n")
    path.write_text(json.dumps({"shape": [1] * 65, "entries": [1]}))
    code, out, err = run_cli(capsys, "tensor", "mlrank", "--file", str(path))
    assert (code, out, err) == (2, "", "error: tensor order 65 exceeds limit 64\n")
    path.write_text(json.dumps({"rank_one_sum": [{"factors": [[1, 1]] * 3 + [[1]] * 61}]}))
    code, envelope = run_json(capsys, "tensor", "mlrank", "--file", str(path))
    assert code == 0 and envelope["result"]["multilinear_rank"] == [1] * 64


# both tensor JSON layouts, with an arbitrary small JSON value possible at every level
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(-2, 3)
    | st.text(string.digits + "/-x", max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["shape", "factors", "x"]), inner, max_size=2),
    max_leaves=8)
_ENTRY = st.integers(-2, 3) | st.sampled_from(["1/2", "-3", "1/0", "x"]) | _ANY_JSON
_ENTRIES = (st.lists(st.integers(-2, 3) | st.just("1/2"), max_size=9)
            | st.lists(_ENTRY, max_size=9) | _ANY_JSON)
_ITEM = st.fixed_dictionaries(
    {"factors": st.lists(st.lists(st.integers(-2, 3), min_size=1, max_size=3), max_size=3)
     | st.lists(_ENTRIES, max_size=3) | _ENTRY},
    optional={"coeff": _ENTRY}) | _ANY_JSON
_TENSOR_JSON = (
    st.fixed_dictionaries({"shape": st.lists(st.integers(0, 3), max_size=3) | _ANY_JSON,
                           "entries": _ENTRIES})
    | st.fixed_dictionaries({"rank_one_sum": st.lists(_ITEM, max_size=3) | _ANY_JSON})
    | _ANY_JSON)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_TENSOR_JSON)
def test_tensor_json_is_a_tensor_or_an_input_error(obj):
    # anything else would escape cli.main as a traceback instead of exit 2
    try:
        tensor = tensor_from_json(obj)
    except cli._INPUT_ERRORS:
        return
    assert isinstance(tensor, DenseTensor)


_FUZZ_VALUES = st.sampled_from(["-1", "0", "1", "2", "3", "10000", "1e5000"])


@st.composite
def _fuzz_argv(draw):
    """One cheap command line with every number drawn from the fuzz values,
    and the stdin it reads."""
    def v():
        return draw(_FUZZ_VALUES)

    form = draw(st.sampled_from(["x0^{}", "{}*x0^2 + x1^2", "x0^2*x1^{}", "x0*x1"]))
    form = form.format(v())
    vars_ = draw(st.sampled_from([[], ["--vars", v()]]))
    argv = draw(st.sampled_from([
        ["ah-g", "--n", v(), "--d", v()],
        ["perp", "--form", form, "--t", v()] + vars_,
        ["catalecticant", "--form", form, "--t", v()] + vars_,
        ["rank", "quadratic", "--form", form] + vars_,
        ["hilbert", "--form", form] + vars_,
        ["tensor", "flatten", "--modes", ",".join(v() for _ in range(draw(st.integers(1, 2))))],
    ]))
    entry = v()
    entries = [1, 2, 3, entry if entry == "1e5000" else int(entry)]
    stdin = json.dumps({"shape": [2, 2], "entries": entries})
    return argv + ["--output", draw(st.sampled_from(["text", "json"]))], stdin


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_fuzz_argv())
def test_argv_fuzz_exits_0_or_2(case):
    argv, stdin = case
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch("sys.stdin", io.StringIO(stdin)),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        try:
            code = cli.main(argv)
        except SystemExit as exc:     # argparse rejects a value this way
            code = exc.code
    assert code in (0, 2), (argv, code)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue(), argv
    else:
        assert out.getvalue() and err.getvalue() == "", argv
