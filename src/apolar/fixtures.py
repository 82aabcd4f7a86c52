"""Golden regression suite: classical worked examples with pinned values.

Each fixture recomputes one published quantity from scratch and checks it
exactly.  Fixtures that rely on a generic choice (random coefficients or
points) draw them from the run seed; the runner retries such a fixture once
on a fresh derived seed before declaring failure, and reports both
outcomes.
"""

import random
from fractions import Fraction
from math import factorial

from . import secant
from .apolarity import (catalecticant, decompose_check, hilbert_function,
                        monomial_rank, perp_piece, quadratic_rank,
                        sylvester_rank)
from .linalg import QMatrix, mat_det, mat_kernel, mat_rank, solve_linear
from .poly import (HomogPoly, apolar_apply, monomial_basis, monomial_count,
                   parse_poly, power_linear)
from .seeding import derive_seed, random_coefficients
from .tensor import (DenseTensor, gss_minor_test, matmul_tensor,
                     multilinear_rank, strassen_det_symbolic, strassen_matrix)


class FixtureFailure(AssertionError):
    pass


def _expect(condition, message):
    if not condition:
        raise FixtureFailure(message)


class FixtureContext:
    def __init__(self, seed=0, attempt=0, arithmetic=secant.EXACT):
        self.seed = seed
        self.attempt = attempt
        self.arithmetic = arithmetic

    def seed_for(self, salt):
        # the retry attempt flows into every derived seed
        return derive_seed(self.seed ^ (0xF1D0 + salt), self.attempt)

    def rng(self, salt):
        return random.Random(self.seed_for(salt))

    def generic_form(self, salt, num_vars, degree):
        coeffs = random_coefficients(self.rng(salt), monomial_count(num_vars, degree))
        return HomogPoly.from_coeff_vector(num_vars, degree, coeffs)


# --- exact linear algebra -------------------------------------------------

def fx_outer_product_rank_one(ctx):
    rng = ctx.rng(1)
    a = [rng.randint(1, 99) for _ in range(4)]
    b = [rng.randint(1, 99) for _ in range(5)]
    m = QMatrix.from_rows([[ai * bj for bj in b] for ai in a])
    _expect(mat_rank(m) == 1, "outer product must have rank 1")
    return "rank(a b^T) = 1"


def fx_generic_two_by_two_det(ctx):
    m = QMatrix.from_rows([[1, 2], [3, 4]])
    _expect(mat_det(m) == -2, "det [[1,2],[3,4]] must be -2")
    return "z0*z3 - z1*z2 at (1,2,3,4) = -2"


def fx_kernel_of_binary_catalecticant(ctx):
    form = parse_poly("x0*x1^2", 2)
    kernel = mat_kernel(catalecticant(form, 2).matrix)
    _expect(len(kernel) == 1, "kernel must be one-dimensional")
    op = HomogPoly.from_coeff_vector(2, 2, kernel[0])
    _expect(op == HomogPoly.monomial((2, 0)), "kernel must be spanned by y0^2")
    return "(x0*x1^2 annihilator)_2 = <y0^2>"


def fx_power_sum_interpolation_system(ctx):
    form = parse_poly("x0^2*x1", 2)
    cols = [power_linear(p, 3).coeff_vector() for p in ([1, 1], [-1, 1], [0, 1])]
    system = QMatrix.from_rows([[c[i] for c in cols] for i in range(4)])
    sol = solve_linear(system, form.coeff_vector())
    _expect(sol == [Fraction(1, 6), Fraction(1, 6), Fraction(-1, 3)],
            "cubic identity coefficients must be (1/6, 1/6, -1/3)")
    return "x0^2*x1 = 1/6 (x0+x1)^3 + 1/6 (x1-x0)^3 - 1/3 x1^3"


# --- polynomials and the pairing -----------------------------------------

def fx_quadratic_veronese_coordinates(ctx):
    rng = ctx.rng(2)
    a, b, c = (rng.randint(1, 50) for _ in range(3))
    sq = power_linear([a, b, c], 2)
    want = {(2, 0, 0): a * a, (1, 1, 0): 2 * a * b, (1, 0, 1): 2 * a * c,
            (0, 2, 0): b * b, (0, 1, 1): 2 * b * c, (0, 0, 2): c * c}
    _expect(sq.terms == {k: Fraction(v) for k, v in want.items()},
            "(ax+by+cz)^2 must have coordinates a^2, 2ab, 2ac, b^2, 2bc, c^2")
    return "degree-2 power map in coordinates"


def fx_pairing_factorials(ctx):
    rng = ctx.rng(3)
    mono = tuple(rng.randint(0, 3) for _ in range(3))
    op = HomogPoly.monomial(mono)
    val = apolar_apply(op, HomogPoly.monomial(mono))
    want = 1
    for e in mono:
        want *= factorial(e)
    _expect(val.coeff((0, 0, 0)) == want, "y^a applied to x^a must equal the factorial product")
    return "y^a x^a = a0! a1! a2!"


def fx_annihilator_membership(ctx):
    val = apolar_apply(HomogPoly.monomial((2, 0)), parse_poly("x0*x1^2", 2))
    _expect(val.is_zero(), "y0^2 must annihilate x0*x1^2")
    return "y0^2 kills x0*x1^2"


def fx_tangent_space_of_power(ctx):
    # row i: the x_i-partials of x0^2, x0*x1, x0*x2, x1^2, x1*x2, x2^2 at [1:0:0]
    rows = secant.Veronese(2, 2).tangent_rows([[1, 0, 0]])
    want = [[2, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]]
    _expect(rows == want, "tangent rows at [x0^2] must span x0^2, x0*x1, x0*x2")
    return "tangent space at a square is x^2, xy, xz"


# --- catalecticants and Hilbert functions ---------------------------------

QUARTIC_CATALECTICANT_PATTERN = [
    [(12, 0), (3, 1), (3, 2), (2, 3), (1, 4), (2, 5)],
    [(6, 1), (4, 3), (2, 4), (6, 6), (2, 7), (2, 8)],
    [(6, 2), (2, 4), (4, 5), (2, 7), (2, 8), (6, 9)],
    [(2, 3), (3, 6), (1, 7), (12, 10), (3, 11), (2, 12)],
    [(2, 4), (2, 7), (2, 8), (6, 11), (4, 12), (6, 13)],
    [(2, 5), (1, 8), (3, 9), (2, 12), (3, 13), (12, 14)],
]


def fx_quartic_catalecticant_entries(ctx):
    rng = ctx.rng(4)
    basis = monomial_basis(3, 4)
    for _ in range(16):
        coeffs = [rng.randint(-999, 999) for _ in range(15)]
        form = HomogPoly(3, 4, dict(zip(basis, coeffs)))
        matrix = catalecticant(form, 2).matrix
        for i in range(6):
            for j in range(6):
                mult, which = QUARTIC_CATALECTICANT_PATTERN[i][j]
                _expect(matrix.at(i, j) == mult * coeffs[which],
                        "catalecticant entry (%d, %d) mismatch" % (i, j))
    return "middle catalecticant of a ternary quartic, entrywise at 16 points"


def fx_perp_of_odd_monomial(ctx):
    basis = perp_piece(parse_poly("x0*x1^5", 2), 2)
    _expect(basis == [HomogPoly.monomial((2, 0))], "degree-2 annihilator must be <y0^2>")
    return "(x0*x1^d annihilator)_2 = <y0^2>"


def fx_perp_of_three_powers(ctx):
    form = parse_poly("x0^4+x1^4+x2^4", 5)
    basis = perp_piece(form, 1)
    want = [HomogPoly.monomial(tuple(int(k == i) for k in range(5))) for i in (3, 4)]
    _expect(basis == want, "linear annihilator must be the unused dual variables")
    return "sum of three fourth powers in five variables"


def fx_hilbert_tables(ctx):
    quartic = ctx.generic_form(5, 3, 4)
    _expect(hilbert_function(quartic).hf == [1, 3, 6, 3, 1, 0],
            "generic ternary quartic must have HF (1,3,6,3,1,0)")
    cube = power_linear([2, 3], 3)
    _expect(hilbert_function(cube).hf == [1, 1, 1, 1, 0],
            "a pure cube must have HF (1,1,1,1,0)")
    cubic = ctx.generic_form(6, 2, 3)
    _expect(hilbert_function(cubic).hf == [1, 2, 2, 1, 0],
            "generic binary cubic must have HF (1,2,2,1,0)")
    quintic_vars = ctx.generic_form(7, 5, 3)
    profile = hilbert_function(quintic_vars)
    _expect(profile.perp_dims[1] == 0 and profile.hf == [1, 5, 5, 1, 0],
            "generic cubic in five variables must have HF (1,5,5,1,0)")
    return "HF tables (1,3,6,3,1,0), (1,1,1,1,0), (1,2,2,1,0), (1,5,5,1,0)"


def fx_binary_ranks(ctx):
    _expect(sylvester_rank(parse_poly("x0*x1^2", 2)).rank == 3, "rk(x0*x1^2) = 3")
    for d in range(2, 9):
        _expect(sylvester_rank(HomogPoly.monomial((1, d))).rank == d + 1,
                "rk(x0*x1^%d) = %d" % (d, d + 1))
    _expect(sylvester_rank(power_linear([2, 3], 3)).rank == 1, "rk(L^3) = 1")
    return "rk(x0*x1^d) = d + 1 and rk(L^d) = 1"


def fx_monomial_rank_formula(ctx):
    _expect(monomial_rank([1, 2]) == 3, "rk(x0*x1^2) = 3 by the product formula")
    _expect(monomial_rank([1, 1, 1]) == 4, "rk(x0*x1*x2) = 4")
    return "monomial rank product formula"


def fx_quadratic_rank_full(ctx):
    for n in range(1, 5):
        form = HomogPoly(n + 1, 2, {tuple(2 * int(k == i) for k in range(n + 1)): 1
                                    for i in range(n + 1)})
        _expect(quadratic_rank(form) == n + 1, "nondegenerate quadric rank must be n + 1")
    return "nondegenerate quadrics have rank n + 1"


def fx_cubic_decomposition(ctx):
    coeffs = decompose_check(parse_poly("x0^2*x1", 2), [[1, 1], [-1, 1], [0, 1]])
    _expect(coeffs == [Fraction(1, 6), Fraction(1, 6), Fraction(-1, 3)],
            "decomposition coefficients must be (1/6, 1/6, -1/3)")
    return "x0^2*x1 three-cube identity"


def fx_two_cubes_infeasible(ctx):
    rng = ctx.rng(8)
    form = parse_poly("x0*x1^2", 2)
    for _ in range(10):
        pts = []
        while len(pts) < 2:
            p = [rng.randint(-9, 9), rng.randint(-9, 9)]
            if any(p) and all(q[0] * p[1] != q[1] * p[0] for q in pts):
                pts.append(p)
        _expect(decompose_check(form, pts) is None,
                "x0*x1^2 must not be a combination of two cubes")
    return "x0*x1^2 is never a combination of two cubes"


# --- secant dimensions -----------------------------------------------------

def fx_expected_dim_veronese_surface(ctx):
    _expect(secant.expected_dim(secant.Veronese(2, 2), 2) == 5,
            "expected dimension of the 2nd secant of the Veronese surface is 5")
    return "expected dim = 5 for the Veronese surface, s = 2"


def _veronese_case(ctx, n, d, s, want, salt):
    report = secant.terracini_dim_veronese(
        n, d, s, seed=ctx.seed_for(salt), arithmetic=ctx.arithmetic)
    _expect(report.computed_dim == want,
            "secant dimension (n=%d, d=%d, s=%d) must be %d, got %d"
            % (n, d, s, want, report.computed_dim))
    return report


# Published secant dimensions: (n, d, s, dim) for the degree-d Veronese of
# P^n and (dims, s, dim) for Segre products; the acceptance suite extends both.
VERONESE_SECANT_DIMS = ((2, 2, 2, 4), (1, 3, 2, 3), (2, 4, 5, 13))
SEGRE_SECANT_DIMS = (((1, 1, 1), 2, 7), ((2, 2, 2), 4, 25), ((3, 3, 3), 7, 63))


def fx_secant_dims_veronese(ctx):
    for salt, (n, d, s, want) in enumerate(VERONESE_SECANT_DIMS, 11):
        _veronese_case(ctx, n, d, s, want, salt)
    return "Veronese secant dimensions " + ", ".join(str(c[-1]) for c in VERONESE_SECANT_DIMS)


def fx_secant_dims_segre(ctx):
    for salt, (dims, s, want) in enumerate(SEGRE_SECANT_DIMS, 21):
        report = secant.terracini_dim_segre(
            dims, s, seed=ctx.seed_for(salt), arithmetic=ctx.arithmetic)
        _expect(report.computed_dim == want,
                "Segre %r s=%d must give %d, got %d" % (dims, s, want, report.computed_dim))
    return "Segre secant dimensions " + ", ".join(str(c[-1]) for c in SEGRE_SECANT_DIMS)


def fx_generic_rank_function(ctx):
    _expect(secant.big_waring_g(2, 4) == 6, "g(2,4) = 6")
    _expect(secant.big_waring_g(3, 4) == 10, "g(3,4) = 10")
    _expect(secant.big_waring_g(4, 3) == 8, "g(4,3) = 8")
    _expect(secant.big_waring_g(4, 4) == 15, "g(4,4) = 15")
    _expect(secant.big_waring_g(1, 3) == 2, "g(1,3) = 2")
    for n in range(1, 6):
        _expect(secant.big_waring_g(n, 2) == n + 1, "g(n,2) = n + 1")
    return "generic rank function with all five corrections"


def fx_defect_reports(ctx):
    r = _veronese_case(ctx, 2, 2, 2, 4, 31)
    _expect(r.defect == 1, "Veronese surface s=2 defect must be 1")
    r = _veronese_case(ctx, 3, 2, 2, 6, 32)
    _expect(r.expected_dim == 7 and r.defect == 1,
            "quadric Veronese of P^3 at s=2: dimension 6 against expected 7")
    report = secant.terracini_dim_segre((1, 1, 1), 2, seed=ctx.seed_for(33),
                                        arithmetic=ctx.arithmetic)
    _expect(report.defect == 0, "three-factor Segre of lines is not 2-defective")
    return "defects 1, 1, 0"


# --- tensors ----------------------------------------------------------------

def fx_rank_one_multilinear(ctx):
    rng = ctx.rng(9)
    factors = [[rng.randint(1, 9) for _ in range(3)] for _ in range(3)]
    t = DenseTensor.rank_one(factors)
    _expect(multilinear_rank(t) == (1, 1, 1), "rank-one tensor must have multilinear rank (1,1,1)")
    _expect(gss_minor_test(t, 1), "rank-one tensor must pass the 2x2 minor test")
    return "multilinear rank (1,1,1) for a rank-one tensor"


def fx_matmul_tensor_support(ctx):
    t = matmul_tensor(2)
    nonzero = sum(1 for e in t.entries if e != 0)
    _expect(nonzero == 8, "2x2 multiplication tensor must have 8 structural entries")
    return "naive 2x2 matrix multiplication uses 8 products"


def _random_rank_one_cube(rng):
    return DenseTensor.rank_one([[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)])


def fx_pencil_rank_two(ctx):
    rng = ctx.rng(10)
    for _ in range(10):
        t = _random_rank_one_cube(rng)
        if all(e == 0 for e in t.entries):
            continue
        _expect(mat_rank(strassen_matrix(t)) == 2, "pencil of a rank-one tensor must have rank 2")
    return "slice pencil has rank 2 on rank-one tensors"


def fx_pencil_additive(ctx):
    rng = ctx.rng(11)
    a = _random_rank_one_cube(rng)
    b = _random_rank_one_cube(rng)
    lhs = strassen_matrix(a + b)
    rhs_a = strassen_matrix(a)
    rhs_b = strassen_matrix(b)
    _expect(lhs.entries == [x + y for x, y in zip(rhs_a.entries, rhs_b.entries)],
            "pencil must be additive")
    return "pencil additivity"


def fx_pencil_det_vanishes_on_rank_four(ctx):
    rng = ctx.rng(12)
    for _ in range(5):
        t = _random_rank_one_cube(rng)
        for _ in range(3):
            t = t + _random_rank_one_cube(rng)
        _expect(mat_det(strassen_matrix(t)) == 0, "pencil determinant must vanish on rank <= 4")
    return "pencil determinant vanishes on sums of four rank-ones"


def fx_pencil_expansion_size(ctx):
    sd = strassen_det_symbolic()
    _expect(sd.term_count == 9216, "expanded pencil determinant must have 9216 terms")
    _expect(sd.total_degree == 9, "expanded pencil determinant must have degree 9")
    return "9216 monomials of degree 9"


FIXTURES = [
    ("outer-product-rank-one", fx_outer_product_rank_one),
    ("two-by-two-determinant", fx_generic_two_by_two_det),
    ("binary-catalecticant-kernel", fx_kernel_of_binary_catalecticant),
    ("power-sum-linear-system", fx_power_sum_interpolation_system),
    ("quadratic-veronese-coordinates", fx_quadratic_veronese_coordinates),
    ("pairing-factorials", fx_pairing_factorials),
    ("annihilator-membership", fx_annihilator_membership),
    ("tangent-space-of-power", fx_tangent_space_of_power),
    ("quartic-catalecticant-entries", fx_quartic_catalecticant_entries),
    ("perp-of-odd-monomial", fx_perp_of_odd_monomial),
    ("perp-of-three-powers", fx_perp_of_three_powers),
    ("hilbert-tables", fx_hilbert_tables),
    ("binary-ranks", fx_binary_ranks),
    ("monomial-rank-formula", fx_monomial_rank_formula),
    ("quadratic-rank-full", fx_quadratic_rank_full),
    ("cubic-decomposition", fx_cubic_decomposition),
    ("two-cubes-infeasible", fx_two_cubes_infeasible),
    ("expected-dim-veronese-surface", fx_expected_dim_veronese_surface),
    ("secant-dims-veronese", fx_secant_dims_veronese),
    ("secant-dims-segre", fx_secant_dims_segre),
    ("generic-rank-function", fx_generic_rank_function),
    ("defect-reports", fx_defect_reports),
    ("rank-one-multilinear", fx_rank_one_multilinear),
    ("matmul-tensor-support", fx_matmul_tensor_support),
    ("pencil-rank-two", fx_pencil_rank_two),
    ("pencil-additive", fx_pencil_additive),
    ("pencil-det-vanishes-on-rank-four", fx_pencil_det_vanishes_on_rank_four),
    ("pencil-expansion-size", fx_pencil_expansion_size),
]


def fixture_names():
    return [name for name, _ in FIXTURES]


def run_fixtures(seed=0, arithmetic=secant.EXACT):
    """Run every fixture; genericity-dependent failures get one retry.

    Returns a list of dicts {name, status, detail} with status one of
    'pass', 'pass-on-retry', 'fail'.
    """
    results = []
    for name, func in FIXTURES:
        record = {"name": name}
        try:
            record["detail"] = func(FixtureContext(seed, 0, arithmetic))
            record["status"] = "pass"
        except FixtureFailure as first:
            try:
                detail = func(FixtureContext(seed, 1, arithmetic))
                record["detail"] = "first draw failed (%s); retry passed: %s" % (first, detail)
                record["status"] = "pass-on-retry"
            except FixtureFailure as second:
                record["detail"] = "failed twice: %s / %s" % (first, second)
                record["status"] = "fail"
        results.append(record)
    return results
