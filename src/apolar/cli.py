"""Command-line front end with deterministic seeding and JSON envelopes.

Every command prints a report envelope {command, inputs, result, provenance}
either as human-readable text or as canonical JSON (sorted keys), so
identical invocations produce byte-identical output.  Exit codes: 0 on
success, 1 when the golden fixture suite reports a failure, 2 on usage or
input errors.
"""

import argparse
import io
import json
import sys

from .linalg import check_entries, mat_det, mat_rank
from .poly import (MAX_DEGREE, MAX_VARS, HomogPoly, format_rational,
                   monomial_count, parse_int, parse_poly, render_poly)
from .seeding import TRIALS, random_coefficients, trial_rng

# apolarity, fixtures, secant and tensor are imported by the commands that use
# them, so the other commands neither compile nor run them

# Every apolar input error is a ValueError, as is json.JSONDecodeError.
_INPUT_ERRORS = (ValueError, OSError)


def _leaf_flags():
    """Parent parsers for leaf commands: `--seed` and `--output`, which every
    command takes; those plus `--arithmetic`, which only `secant-dim` and
    `paper-fixtures` honour; those plus the `--form` and `--vars` of the form
    commands; and those plus the `--file` of the tensor commands that read one."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    common.add_argument("--output", choices=["text", "json"], default="text")
    arithmetic = argparse.ArgumentParser(add_help=False, parents=[common])
    arithmetic.add_argument("--arithmetic", choices=["exact", "modular"], default="exact",
                            help="exact rational arithmetic or modular lower-bound mode")
    form = argparse.ArgumentParser(add_help=False, parents=[common])
    form.add_argument("--form", required=True)
    form.add_argument("--vars", type=int)
    tensor_file = argparse.ArgumentParser(add_help=False, parents=[common])
    tensor_file.add_argument("--file", default="-")
    return common, arithmetic, form, tensor_file


class _BeforeSubcommand(argparse.Action):
    """A leaf flag given before its subcommand word, where argparse would
    take the flag's value for that word: exit 2 naming the flag instead."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error("%s goes after the subcommand word, not before it" % option_string)


def _reject_before_subcommand(parser, arithmetic=False):
    flags = ["--seed", "--output"]
    if arithmetic:
        flags.append("--arithmetic")
    for flag in flags:
        parser.add_argument(flag, action=_BeforeSubcommand,
                            default=argparse.SUPPRESS, help=argparse.SUPPRESS)


def build_parser():
    common, arithmetic, form, tensor_file = _leaf_flags()
    parser = argparse.ArgumentParser(
        prog="apolar",
        description="Exact Waring ranks, apolar ideals, catalecticants, "
                    "tensor flattenings and secant-variety dimensions.")
    # provenance of commands without --arithmetic records exact arithmetic
    parser.set_defaults(arithmetic="exact")
    _reject_before_subcommand(parser, arithmetic=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="Waring rank of a form")
    _reject_before_subcommand(p)
    rank_sub = p.add_subparsers(dest="kind", required=True)
    q = rank_sub.add_parser("binary", parents=[common])
    q.add_argument("--form", required=True)
    q = rank_sub.add_parser("monomial", parents=[common])
    q.add_argument("--exponents", required=True, help="comma-separated, e.g. 1,1,1")
    rank_sub.add_parser("quadratic", parents=[form])

    p = sub.add_parser("perp", parents=[form], help="graded piece of the annihilator")
    p.add_argument("--t", type=int, required=True)

    p = sub.add_parser("hilbert", parents=[common], help="Hilbert function of T/F-perp")
    p.add_argument("--form")
    p.add_argument("--vars", type=int)
    p.add_argument("--generic", nargs=2, type=int, metavar=("N", "D"),
                   help="use a seed-generated generic form on P^N of degree D")

    p = sub.add_parser("catalecticant", parents=[form], help="matrix of the degree-t pairing")
    p.add_argument("--t", type=int, required=True)

    p = sub.add_parser("decompose-check", parents=[form],
                       help="fit form as a combination of powers at given points")
    p.add_argument("--points", required=True,
                   help="semicolon-separated points, e.g. '1,1;-1,1;0,1'")

    p = sub.add_parser("secant-dim", help="secant-variety dimension")
    _reject_before_subcommand(p, arithmetic=True)
    var_sub = p.add_subparsers(dest="variety", required=True)
    q = var_sub.add_parser("veronese", parents=[arithmetic])
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--s", type=int, required=True)
    q = var_sub.add_parser("segre", parents=[arithmetic])
    q.add_argument("--dims", required=True, help="comma-separated, e.g. 1,1,1")
    q.add_argument("--s", type=int, required=True)

    p = sub.add_parser("ah-g", parents=[common], help="generic Waring rank g(n, d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("tensor", help="tensor computations")
    _reject_before_subcommand(p)
    t_sub = p.add_subparsers(dest="action", required=True)
    q = t_sub.add_parser("flatten", parents=[tensor_file])
    q.add_argument("--modes", required=True, help="1-based left modes, e.g. 1,2")
    t_sub.add_parser("mlrank", parents=[tensor_file])
    t_sub.add_parser("strassen", parents=[tensor_file])
    t_sub.add_parser("strassen-expand", parents=[common])
    q = t_sub.add_parser("matmul", parents=[common])
    q.add_argument("--n", type=int, required=True)
    q = t_sub.add_parser("minors", parents=[tensor_file])
    q.add_argument("--r", type=int, required=True)

    p = sub.add_parser("paper-fixtures", parents=[arithmetic],
                       help="run the golden suite of published values")
    p.add_argument("--list", action="store_true", help="print fixture names only")

    return parser


def _int_list(text):
    return [parse_int(x) for x in text.split(",")]


def _envelope(args, command, inputs, result, certified=True):
    return {
        "command": command,
        "inputs": inputs,
        "result": result,
        "provenance": {
            "seed": args.seed,
            "trials": TRIALS,
            "arithmetic_mode": args.arithmetic,
            "certified": bool(certified),
        },
    }


def _poly_payload(form):
    return {"form": render_poly(form), "vars": form.num_vars, "degree": form.degree}


def _matrix_payload(matrix):
    return {"rows": matrix.rows, "cols": matrix.cols,
            "matrix": [[format_rational(matrix.at(i, j)) for j in range(matrix.cols)]
                       for i in range(matrix.rows)]}


def _read_tensor(path):
    from .tensor import tensor_from_json
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        obj = json.loads(text, parse_int=parse_int)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        source = "stdin" if path == "-" else "tensor file %r" % path
        raise ValueError("cannot read %s as JSON: %s" % (source, exc))
    if isinstance(obj, dict) and "result" in obj and isinstance(obj["result"], dict):
        inner = obj["result"]
        if "shape" in inner or "rank_one_sum" in inner:
            obj = inner
    return tensor_from_json(obj)


def _dim_report_result(args, report):
    return {
        "variety": report.spec.describe(),
        "computed_dim": report.computed_dim,
        "expected_dim": report.expected_dim,
        "defect": report.defect,
        "ambient_dim": report.spec.ambient_dim,
        "variety_dim": report.spec.variety_dim,
        "probabilistic_lower_bound": args.arithmetic == "modular",
    }


def _cmd_rank(args):
    from .apolarity import monomial_rank, quadratic_rank, sylvester_rank
    if args.kind == "binary":
        form = parse_poly(args.form, 2)
        cert = sylvester_rank(form)
        result = {"rank": cert.rank, "branch": cert.branch,
                  "witness": render_poly(cert.witness, var="y"),
                  "witness_degree": cert.witness.degree}
        return _envelope(args, "rank.binary", _poly_payload(form), result)
    if args.kind == "monomial":
        exponents = _int_list(args.exponents)
        result = {"rank": monomial_rank(exponents)}
        return _envelope(args, "rank.monomial", {"exponents": exponents}, result)
    form = parse_poly(args.form, args.vars)
    return _envelope(args, "rank.quadratic", _poly_payload(form),
                     {"rank": quadratic_rank(form)})


def _cmd_perp(args):
    from .apolarity import perp_piece
    form = parse_poly(args.form, args.vars)
    basis = perp_piece(form, args.t)
    result = {"t": args.t, "dimension": len(basis),
              "basis": [render_poly(b, var="y") for b in basis]}
    return _envelope(args, "perp", _poly_payload(form) | {"t": args.t}, result)


def _cmd_hilbert(args):
    from .apolarity import hilbert_function
    if args.generic:
        if args.form is not None:
            raise ValueError("--form and --generic are mutually exclusive")
        if args.vars is not None:
            raise ValueError("--vars and --generic are mutually exclusive")
        n, d = args.generic
        if not 1 <= n < MAX_VARS or not 1 <= d <= MAX_DEGREE:
            raise ValueError("--generic needs 1 <= N <= %d and 1 <= D <= %d"
                             % (MAX_VARS - 1, MAX_DEGREE))
        count = check_entries((monomial_count(n + 1, d),), "generic form")
        coeffs = random_coefficients(trial_rng(args.seed, 0), count)
        form = HomogPoly.from_coeff_vector(n + 1, d, coeffs)
    elif args.form is not None:
        form = parse_poly(args.form, args.vars)
    else:
        raise ValueError("hilbert needs --form or --generic")
    profile = hilbert_function(form)
    result = {"hf": profile.hf, "perp_dims": profile.perp_dims}
    return _envelope(args, "hilbert", _poly_payload(form), result)


def _cmd_catalecticant(args):
    from .apolarity import catalecticant
    form = parse_poly(args.form, args.vars)
    cat = catalecticant(form, args.t)
    result = _matrix_payload(cat.matrix)
    result["t"] = args.t
    result["rank"] = mat_rank(cat.matrix)
    return _envelope(args, "catalecticant", _poly_payload(form) | {"t": args.t}, result)


def _cmd_decompose_check(args):
    from .apolarity import decompose_check
    form = parse_poly(args.form, args.vars)
    points = []
    for chunk in args.points.split(";"):
        points.append(_int_list(chunk))
    coeffs = decompose_check(form, points)
    if coeffs is None:
        result = {"feasible": False}
    else:
        result = {"feasible": True,
                  "coefficients": [format_rational(c) for c in coeffs]}
    inputs = _poly_payload(form) | {"points": points}
    return _envelope(args, "decompose-check", inputs, result)


def _cmd_secant_dim(args):
    from . import secant
    if args.variety == "veronese":
        report = secant.terracini_dim_veronese(
            args.n, args.d, args.s, seed=args.seed, arithmetic=args.arithmetic)
        inputs = {"variety": "veronese", "n": args.n, "d": args.d, "s": args.s}
    else:
        dims = tuple(_int_list(args.dims))
        report = secant.terracini_dim_segre(
            dims, args.s, seed=args.seed, arithmetic=args.arithmetic)
        inputs = {"variety": "segre", "dims": list(dims), "s": args.s}
    return _envelope(args, "secant-dim", inputs, _dim_report_result(args, report),
                     certified=report.certified)


def _cmd_ah_g(args):
    from .secant import big_waring_g
    result = {"g": big_waring_g(args.n, args.d)}
    return _envelope(args, "ah-g", {"n": args.n, "d": args.d}, result)


def _cmd_tensor(args):
    from .tensor import (flatten, gss_minor_test, matmul_tensor, multilinear_rank,
                         strassen_det_symbolic, strassen_matrix, tensor_to_json)
    if args.action == "strassen-expand":
        sd = strassen_det_symbolic()
        result = {"terms": sd.term_count, "degree": sd.total_degree}
        return _envelope(args, "tensor.strassen-expand", {}, result)
    if args.action == "matmul":
        t = matmul_tensor(args.n)
        return _envelope(args, "tensor.matmul", {"n": args.n}, tensor_to_json(t))
    t = _read_tensor(args.file)  # flatten, mlrank, strassen or minors
    inputs = {"shape": list(t.shape)}
    if args.action == "flatten":
        modes = inputs["modes"] = _int_list(args.modes)
        matrix = flatten(t, modes)
        result = _matrix_payload(matrix) | {"modes": modes, "rank": mat_rank(matrix)}
    elif args.action == "mlrank":
        result = {"multilinear_rank": list(multilinear_rank(t))}
    elif args.action == "strassen":
        pencil = strassen_matrix(t)
        result = {"rank": mat_rank(pencil), "det": format_rational(mat_det(pencil))}
    else:
        inputs["r"] = args.r
        result = {"bound": args.r, "within_bound": gss_minor_test(t, args.r)}
    return _envelope(args, "tensor." + args.action, inputs, result)


def _cmd_paper_fixtures(args):
    from . import fixtures as fixture_mod
    if args.list:
        result = {"fixtures": fixture_mod.fixture_names()}
        return _envelope(args, "paper-fixtures", {"list": True}, result)
    records = fixture_mod.run_fixtures(seed=args.seed, arithmetic=args.arithmetic)
    failed = [r for r in records if r["status"] == "fail"]
    result = {"total": len(records), "failed": len(failed), "fixtures": records}
    return _envelope(args, "paper-fixtures", {"list": False}, result,
                     certified=not failed)


_DISPATCH = {
    "rank": _cmd_rank,
    "perp": _cmd_perp,
    "hilbert": _cmd_hilbert,
    "catalecticant": _cmd_catalecticant,
    "decompose-check": _cmd_decompose_check,
    "secant-dim": _cmd_secant_dim,
    "ah-g": _cmd_ah_g,
    "tensor": _cmd_tensor,
    "paper-fixtures": _cmd_paper_fixtures,
}


def _print_text(envelope, stream):
    print("command: %s" % envelope["command"], file=stream)
    for key, value in sorted(envelope["inputs"].items()):
        print("input %s: %s" % (key, value), file=stream)
    _print_result(envelope["result"], stream)
    prov = envelope["provenance"]
    print("provenance: seed=%d trials=%d arithmetic=%s certified=%s"
          % (prov["seed"], prov["trials"], prov["arithmetic_mode"],
             str(prov["certified"]).lower()), file=stream)


def _print_result(result, stream):
    for key in sorted(result):
        value = result[key]
        if key == "matrix":
            print("matrix:", file=stream)
            for row in value:
                print("  [%s]" % ", ".join(str(e) for e in row), file=stream)
        elif key == "fixtures":
            for rec in value:
                if isinstance(rec, dict):
                    print("%s: %s (%s)" % (rec["status"], rec["name"], rec["detail"]),
                          file=stream)
                else:
                    print("- %s" % rec, file=stream)
        elif isinstance(value, dict):
            print("%s: %s" % (key, " ".join("%s=%s" % kv for kv in sorted(value.items()))),
                  file=stream)
        else:
            print("%s: %s" % (key, value), file=stream)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _DISPATCH[args.command]
    try:
        envelope = handler(args)
    except _INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        # an integer too long for str() raises ValueError here, before any output
        if args.output == "json":
            text = json.dumps(envelope, sort_keys=True, indent=2) + "\n"
        else:
            buffer = io.StringIO()
            _print_text(envelope, buffer)
            text = buffer.getvalue()
    except ValueError:
        print("error: the result has an integer of more than %d digits, too long to print"
              % sys.get_int_max_str_digits(), file=sys.stderr)
        return 2
    sys.stdout.write(text)
    if envelope["command"] == "paper-fixtures" and not envelope["provenance"]["certified"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
