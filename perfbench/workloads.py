"""The benchmark's four workloads: apolar CLI invocations with pinned results.

Every expected value below is a literal mathematical fact, written here and
not read from `apolar.fixtures` or `apolar.secant`, so the benchmark does not
trust the code it measures.  None depends on the workload seed: generic
dimensions, table-certified defects, Hilbert functions of generic forms
(Iarrobino-Kanev, *Power Sums, Gorenstein Algebras, and Determinantal Loci*,
LNM 1721: a general form has catalecticants of maximal rank) and of
monomials (the divisors of x^a counted by degree), and the 9216 terms of the
expanded slice-pencil determinant.

The seed reaches the program as `--seed` on every invocation and, for
`cli-small`, as the rank-one summands of a generated tensor file.
"""

import json
import random
from dataclasses import dataclass, field
from math import comb
from pathlib import Path


@dataclass
class Invocation:
    """One `apolar` command line and what its output must be."""

    label: str
    args: list
    expect: dict = field(default_factory=dict)   # result field -> exact value
    exit_code: int = 0
    save_stdout: Path = None                     # later invocations read this file

    def argv(self, seed):
        return self.args + ["--seed", str(seed), "--output", "json"]

    def check(self, returncode, stdout, stderr):
        """None when the output matches its pinned values, else the reason."""
        if returncode != self.exit_code:
            return "exit code %d, want %d" % (returncode, self.exit_code)
        if self.exit_code == 2:
            if stdout or not stderr.startswith("error: "):
                return "input error must print only an 'error: ' message"
            return None
        try:
            envelope = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return "stdout is not JSON: %s" % exc
        if envelope["provenance"]["certified"] is not True:
            return "certified is %r" % envelope["provenance"]["certified"]
        result = envelope["result"]
        for key, want in self.expect.items():
            if key.startswith("len:"):
                got = len(result[key[4:]])
            else:
                got = result.get(key)
            if got != want:
                return "%s = %r, want %r" % (key, got, want)
        return None


def _secant(variety, args, computed, expected, modular=False):
    extra = ["--arithmetic", "modular"] if modular else []
    return Invocation(
        "secant-dim %s %s" % (variety, " ".join(args[1::2])),
        ["secant-dim", variety] + args + extra,
        {"computed_dim": computed, "expected_dim": expected,
         "defect": expected - computed, "probabilistic_lower_bound": modular})


def _veronese(n, d, s, computed, expected, modular=False):
    return _secant("veronese", ["--n", str(n), "--d", str(d), "--s", str(s)],
                   computed, expected, modular)


def _segre(dims, s, computed, expected, modular=False):
    return _secant("segre", ["--dims", dims, "--s", str(s)], computed, expected, modular)


def _generic_hilbert(n, d, hf):
    """hilbert --generic N D; hf[t] = min(C(N+t, N), C(N+D-t, N)) for a general form."""
    perp = [comb(n + t, n) - h for t, h in enumerate(hf)]
    return Invocation("hilbert --generic %d %d" % (n, d),
                      ["hilbert", "--generic", str(n), str(d)],
                      {"hf": hf, "perp_dims": perp})


def _rank_one_sum(seed, terms):
    """A sum of `terms` rank-one 3x3x3 tensors with 32-bit factors from the seed.

    Such a sum has multilinear rank (3, 3, 3) for terms >= 3, and for
    terms = 4 its 9x9 slice pencil has rank 8 and determinant 0 (Strassen's
    equation); the wide factor range keeps a degenerate draw improbable.
    """
    rng = random.Random(seed)
    bound = 1 << 31
    return {"rank_one_sum": [
        {"factors": [[rng.randint(-bound, bound) for _ in range(3)] for _ in range(3)]}
        for _ in range(terms)]}


def cli_small(seed, work):
    """Every subcommand once on small inputs, plus one malformed form."""
    matmul = work / "matmul.json"
    pencil = work / "rank_one_sum.json"
    pencil.write_text(json.dumps(_rank_one_sum(seed, 4)))
    return [
        Invocation("rank binary", ["rank", "binary", "--form", "x0*x1^2"],
                   {"rank": 3, "branch": "fell_through_to_d2", "witness": "y0^2"}),
        Invocation("rank monomial", ["rank", "monomial", "--exponents", "1,1,1"],
                   {"rank": 4}),
        Invocation("rank quadratic",
                   ["rank", "quadratic", "--form", "x0^2+x1^2", "--vars", "2"],
                   {"rank": 2}),
        Invocation("perp", ["perp", "--form", "x0*x1^2", "--t", "2"],
                   {"dimension": 1, "basis": ["y0^2"]}),
        _generic_hilbert(2, 4, [1, 3, 6, 3, 1, 0]),
        Invocation("catalecticant", ["catalecticant", "--form", "x0^2*x1", "--t", "1"],
                   {"rows": 3, "cols": 2, "rank": 2, "matrix": [[0, 1], [2, 0], [0, 0]]}),
        Invocation("decompose-check",
                   ["decompose-check", "--form", "x0^2*x1", "--points", "1,1;-1,1;0,1"],
                   {"feasible": True, "coefficients": ["1/6", "1/6", "-1/3"]}),
        # Ternary quartics: sigma_5 is a hypersurface (Clebsch; Alexander-Hirschowitz 1995).
        _veronese(2, 4, 5, 13, 14),
        _segre("1,1,1", 2, 7, 7),
        Invocation("ah-g", ["ah-g", "--n", "2", "--d", "4"], {"g": 6}),
        Invocation("tensor matmul", ["tensor", "matmul", "--n", "2"],
                   {"shape": [4, 4, 4], "len:entries": 64}, save_stdout=matmul),
        Invocation("tensor mlrank", ["tensor", "mlrank", "--file", str(matmul)],
                   {"multilinear_rank": [4, 4, 4]}),
        Invocation("tensor flatten",
                   ["tensor", "flatten", "--file", str(matmul), "--modes", "1"],
                   {"rows": 4, "cols": 16, "rank": 4}),
        Invocation("tensor strassen", ["tensor", "strassen", "--file", str(pencil)],
                   {"rank": 8, "det": 0}),
        Invocation("tensor minors", ["tensor", "minors", "--file", str(pencil), "--r", "2"],
                   {"within_bound": False}),
        Invocation("tensor strassen-expand", ["tensor", "strassen-expand"],
                   {"terms": 9216, "degree": 9}),
        Invocation("paper-fixtures --list", ["paper-fixtures", "--list"],
                   {"len:fixtures": 28}),
        Invocation("rank binary (malformed)", ["rank", "binary", "--form", "x0*x1^2+x0"],
                   exit_code=2),
    ]


def secant_exact(seed, work):
    """Exact Terracini ranks: half meet their a-priori bound, half are defective."""
    return [
        # Generic: the rank meets its a-priori upper bound
        # min(s*(dim X + 1), N + 1), which proves the value.
        _veronese(3, 5, 13, 51, 51),
        _veronese(5, 3, 9, 53, 53),
        _segre("3,3,3", 7, 63, 63),
        # Classified defective: the rank falls below the bound by exactly 1.
        # Veronese (4,4,14), (3,4,9), (4,3,7): Alexander-Hirschowitz,
        # J. Algebraic Geom. 4 (1995).
        _veronese(4, 4, 14, 68, 69),
        _veronese(3, 4, 9, 33, 34),
        _veronese(4, 3, 7, 33, 34),
        # P2 x P2 x P2, s = 4: Strassen (1983); Abo-Ottaviani-Peterson,
        # Trans. AMS 361 (2009).
        _segre("2,2,2", 4, 25, 26),
        # (P1)^4, s = 3: dimension 13, not 14; Catalisano-Geramita-Gimigliano,
        # J. Algebraic Geom. 20 (2011).
        _segre("1,1,1,1", 3, 13, 14),
        Invocation("paper-fixtures", ["paper-fixtures"], {"total": 28, "failed": 0}),
    ]


def hilbert_exact(seed, work):
    """Hilbert functions: the catalecticant build dominates, no Terracini work."""
    return [
        _generic_hilbert(5, 6, [1, 6, 21, 56, 21, 6, 1, 0]),
        _generic_hilbert(4, 6, [1, 5, 15, 35, 15, 5, 1, 0]),
        _generic_hilbert(3, 8, [1, 4, 10, 20, 35, 20, 10, 4, 1, 0]),
        _generic_hilbert(2, 12, [1, 3, 6, 10, 15, 21, 28, 21, 15, 10, 6, 3, 1, 0]),
        # Monomials: HF(t) is the coefficient of q^t in prod (1 + q + ... + q^a_i).
        Invocation("hilbert x0^2*..*x4^2", ["hilbert", "--form", "x0^2*x1^2*x2^2*x3^2*x4^2"],
                   {"hf": [1, 5, 15, 30, 45, 51, 45, 30, 15, 5, 1, 0],
                    "perp_dims": [0, 0, 0, 5, 25, 75, 165, 300, 480, 710, 1000, 1365]}),
        Invocation("hilbert x0^3*..*x3^3", ["hilbert", "--form", "x0^3*x1^3*x2^3*x3^3"],
                   {"hf": [1, 4, 10, 20, 31, 40, 44, 40, 31, 20, 10, 4, 1, 0],
                    "perp_dims": [0, 0, 0, 0, 4, 16, 40, 80, 134, 200, 276, 360, 454, 560]}),
        Invocation("perp x0^2*..*x4^2 t=6",
                   ["perp", "--form", "x0^2*x1^2*x2^2*x3^2*x4^2", "--t", "6"],
                   {"t": 6, "dimension": 165, "len:basis": 165}),
        Invocation("catalecticant x0^3*..*x3^3 t=6",
                   ["catalecticant", "--form", "x0^3*x1^3*x2^3*x3^3", "--t", "6"],
                   {"t": 6, "rows": 84, "cols": 84, "rank": 44}),
    ]


def secant_modular(seed, work):
    """GF(p) Terracini ranks on tangent matrices of 200-500 rows."""
    return [
        _veronese(5, 6, 77, 461, 461, modular=True),
        _veronese(4, 8, 99, 494, 494, modular=True),
        # Alexander-Hirschowitz (1995), as in secant-exact.
        _veronese(4, 4, 14, 68, 69, modular=True),
        # A GF(p) rank is at most the rational rank, so meeting the bound
        # proves the generic value here too.
        _segre("5,5,5", 13, 207, 207, modular=True),
        _segre("3,3,3,3", 10, 129, 129, modular=True),
        Invocation("paper-fixtures --arithmetic modular",
                   ["paper-fixtures", "--arithmetic", "modular"], {"total": 28, "failed": 0}),
    ]


# name -> (list constructor, seconds of one pass at the commit that defined it)
WORKLOADS = {
    "cli-small": (cli_small, 4.2),
    "secant-exact": (secant_exact, 7.4),
    "hilbert-exact": (hilbert_exact, 3.8),
    "secant-modular": (secant_modular, 5.2),
}
