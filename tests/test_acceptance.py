"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
Criterion 8 asserts dim sigma_3(P1 x P1 x P1 x P1) = 13, one below the
parameter count 14: the one defective secant among Segre products of lines
(Catalisano-Geramita-Gimigliano, J. Algebraic Geom. 20, 2011;
Abo-Ottaviani-Peterson, Trans. AMS 361, 2009).  Besides the Terracini
engine's value, the criterion checks an exact witness of both bounds at one
rational point of that secant variety.
"""

import random

from fractions import Fraction
from math import comb

from apolar import modular
from apolar.apolarity import (catalecticant, decompose_check,
                              hilbert_function, monomial_rank, sylvester_rank)
from apolar.fixtures import (QUARTIC_CATALECTICANT_PATTERN, SEGRE_SECANT_DIMS,
                             VERONESE_SECANT_DIMS)
from apolar.linalg import QMatrix, mat_det, mat_kernel, mat_rank
from apolar.poly import HomogPoly, monomial_basis, parse_poly, power_linear
from apolar.secant import (Veronese, big_waring_g, terracini_dim_segre,
                           terracini_dim_veronese)
from apolar.tensor import (DenseTensor, flatten, gss_minor_test,
                           matmul_tensor, multilinear_rank,
                           strassen_det_symbolic, strassen_matrix)
from oracles import rank_one_tangent_rows


def announce(criterion, ok, detail):
    print("ACCEPTANCE %-2s %s: %s" % (criterion, "PASS" if ok else "FAIL", detail))


def rand_form(rng, num_vars, degree, bound=1000):
    basis = monomial_basis(num_vars, degree)
    f = HomogPoly(num_vars, degree, {m: rng.randint(-bound, bound) for m in basis})
    return f if not f.is_zero() else HomogPoly.monomial(basis[0])


def rand_nonzero_vector(rng, length, bound=9):
    while True:
        v = [rng.randint(-bound, bound) for _ in range(length)]
        if any(v):
            return v


def rand_rank_one_cube(rng):
    return DenseTensor.rank_one([rand_nonzero_vector(rng, 3) for _ in range(3)])


def rand_cube_sum(rng, r):
    t = rand_rank_one_cube(rng)
    for _ in range(r - 1):
        t = t + rand_rank_one_cube(rng)
    return t


def flattening_det_gradient(tensor, left_modes):
    """Gradient of det(flatten(tensor, left_modes)) in the tensor's coordinates.

    The derivative of det M in the entry M[i][j] is the (i, j) cofactor, and
    each tensor entry fills exactly one cell of the flattening; flattening
    the tensor of coordinate labels reads the cofactors back into place.
    """
    m = flatten(tensor, left_modes)
    labels = flatten(DenseTensor(tensor.shape, range(len(tensor.entries))), left_modes)
    grad = [0] * len(tensor.entries)
    for i in range(m.rows):
        for j in range(m.cols):
            minor = QMatrix.from_rows([[m.at(r, c) for c in range(m.cols) if c != j]
                                       for r in range(m.rows) if r != i])
            grad[int(labels.at(i, j))] = (-1) ** (i + j) * mat_det(minor)
    return grad


def test_criterion_1_catalecticant_fixture():
    pattern = QUARTIC_CATALECTICANT_PATTERN
    rng = random.Random(101)
    basis = monomial_basis(3, 4)
    ok = True
    for _ in range(16):
        coeffs = [rng.randint(-999, 999) for _ in range(15)]
        cat = catalecticant(HomogPoly(3, 4, dict(zip(basis, coeffs))), 2).matrix
        for i in range(6):
            for j in range(6):
                mult, which = pattern[i][j]
                ok = ok and cat.at(i, j) == mult * coeffs[which]
    announce(1, ok, "6x6 catalecticant entries match the symbolic pattern at 16 points")
    assert ok


def test_criterion_2_hilbert_tables():
    rng = random.Random(102)
    results = [
        hilbert_function(rand_form(rng, 3, 4)).hf == [1, 3, 6, 3, 1, 0],
        hilbert_function(power_linear([3, -2], 3)).hf == [1, 1, 1, 1, 0],
        hilbert_function(rand_form(rng, 2, 3)).hf == [1, 2, 2, 1, 0],
        hilbert_function(rand_form(rng, 5, 3)).hf == [1, 5, 5, 1, 0],
    ]
    ok = all(results)
    announce(2, ok, "HF tables (1,3,6,3,1,0), (1,1,1,1,0), (1,2,2,1,0), (1,5,5,1,0)")
    assert ok


def test_criterion_3_sylvester_ranks():
    ok = True
    for d in range(1, 9):
        ok = ok and sylvester_rank(HomogPoly.monomial((1, d))).rank == d + 1
    rng = random.Random(103)
    for d in range(1, 10):
        coeffs = rand_nonzero_vector(rng, 2, bound=9)
        ok = ok and sylvester_rank(power_linear(coeffs, d)).rank == 1
    failures = 0
    for d in range(2, 10):
        for trial in range(20):
            f = rand_form(random.Random(1000 * d + trial), 2, d)
            if sylvester_rank(f).rank != (d + 2) // 2:
                failures += 1
    ok = ok and failures == 0
    announce(3, ok, "rk(x0*x1^d) = d+1, rk(L^d) = 1, generic rank = ceil((d+1)/2), "
                    "0 failures over 20 seeds per degree")
    assert ok


def test_criterion_4_monomial_formula_cross_check():
    ok = True
    for a in range(1, 10):
        for b in range(1, 11 - a):
            ok = ok and (monomial_rank([a, b])
                         == sylvester_rank(HomogPoly.monomial((a, b))).rank)
    announce(4, ok, "monomial formula = Sylvester rank on all binary monomials, degree <= 10")
    assert ok


def test_criterion_5_decomposition_identity():
    coeffs = decompose_check(parse_poly("x0^2*x1", 2), [[1, 1], [-1, 1], [0, 1]])
    ok = coeffs == [Fraction(1, 6), Fraction(1, 6), Fraction(-1, 3)]
    rng = random.Random(105)
    form = parse_poly("x0*x1^2", 2)
    for _ in range(50):
        pts = []
        while len(pts) < 2:
            p = rand_nonzero_vector(rng, 2)
            if all(q[0] * p[1] != q[1] * p[0] for q in pts):
                pts.append(p)
        ok = ok and decompose_check(form, pts) is None
    announce(5, ok, "x0^2*x1 = (1/6, 1/6, -1/3) exactly; two-cube fits infeasible 50/50")
    assert ok


def test_criterion_6_veronese_secant_dimensions():
    cases = VERONESE_SECANT_DIMS + ((3, 4, 9, 33), (4, 4, 14, 68), (4, 3, 7, 33))
    got = {}
    for n, d, s, want in cases:
        report = terracini_dim_veronese(n, d, s, seed=106)
        got[(n, d, s)] = (report.computed_dim, want)
    ok = all(c == w for c, w in got.values())
    announce(6, ok, "Veronese dims " + ", ".join(
        "(%d,%d,%d)=%d" % (n, d, s, got[(n, d, s)][0]) for n, d, s, _ in cases))
    assert ok


def test_criterion_7_generic_rank_function():
    ok = True
    for n in range(1, 6):
        for d in range(1, 7):
            if d == 2:
                want = n + 1
            elif (n, d) in ((2, 4), (3, 4), (4, 3), (4, 4)):
                want = {(2, 4): 6, (3, 4): 10, (4, 3): 8, (4, 4): 15}[(n, d)]
            else:
                want = -(-comb(d + n, n) // (n + 1))
            ok = ok and big_waring_g(n, d) == want
    # cross-validation against the dimension engine: the generic rank is the
    # first s at which the secant fills; dimensions are monotone in s
    for n in range(1, 4):
        for d in range(1, 6):
            g = big_waring_g(n, d)
            ambient = Veronese(n, d).ambient_dim
            fills = terracini_dim_veronese(n, d, g, seed=107).computed_dim
            ok = ok and fills == ambient
            if g > 1:
                below = terracini_dim_veronese(n, d, g - 1, seed=107).computed_dim
                ok = ok and below < ambient
    announce(7, ok, "five corrections + ceil formula for n <= 5, d <= 6; "
                    "fill threshold matches engine for n <= 3, d <= 5")
    assert ok


def test_criterion_8_segre_secant_dimensions():
    cases = SEGRE_SECANT_DIMS + (((1, 1, 1, 1), 3, 13),)
    got = []
    for dims, s, want in cases:
        report = terracini_dim_segre(dims, s, seed=108)
        got.append((dims, s, report.computed_dim, want))
    ok = all(c == w for _, _, c, w in got)
    # (1,1,1,1), s=3 is defective: 13, not the parameter count 14
    # (Catalisano-Geramita-Gimigliano 2011; Abo-Ottaviani-Peterson 2009).
    # Exact witness at p = a + b + c, a sum of three rank-one tensors:
    # - dim >= 13: the tangent rows at a, b, c span the image of the
    #   differential of (x, y, z) -> x + y + z on three copies of the Segre
    #   cone, whose rank at any point is at most the dimension of the image,
    #   the affine cone over sigma_3; rank 14 bounds that cone below by 14.
    # - dim <= 13: the three 4x4 flattening determinants vanish on sigma_3
    #   (each flattening of p has rank <= 3), so at a general point of the
    #   cone its tangent space lies in the kernel of their gradients; the
    #   gradient rank can only rise from p to a general point, so rank 2 at
    #   p bounds the cone's dimension by 16 - 2 = 14.
    # Both bounds hold at any point of the cone, so any single point passing
    # both checks proves 13; a degenerate point can only make the check fail
    # falsely, never pass falsely.
    rng = random.Random(108)
    terms = [[rand_nonzero_vector(rng, 2) for _ in range(4)] for _ in range(3)]
    p = DenseTensor.rank_one(terms[0])
    for factors in terms[1:]:
        p = p + DenseTensor.rank_one(factors)
    splits = ((1, 2), (1, 3), (1, 4))
    dets = [mat_det(flatten(p, left)) for left in splits]
    grad_rank = mat_rank(QMatrix.from_rows(
        [flattening_det_gradient(p, left) for left in splits]))
    tangent_rank = mat_rank(QMatrix.from_rows(
        [row for factors in terms for row in rank_one_tangent_rows(factors)]))
    witness = all(d == 0 for d in dets) and grad_rank == 2 and tangent_rank == 14
    ok = ok and witness
    witness_detail = "witness dets %s, gradient rank %d, tangent rank %d" % (
        ",".join(str(d) for d in dets), grad_rank, tangent_rank)
    announce(8, ok, "Segre dims " + ", ".join(
        "%r s=%d -> %d (want %d)" % entry for entry in got) + "; " + witness_detail)
    assert ok, ("dim sigma_3(P1 x P1 x P1 x P1) = 13 (Catalisano-Geramita-Gimigliano "
                "2011; Abo-Ottaviani-Peterson 2009); got %r; %s" % (got, witness_detail))


def test_criterion_9_strassen_suite():
    rng = random.Random(109)
    ok = True
    for _ in range(100):
        ok = ok and mat_rank(strassen_matrix(rand_rank_one_cube(rng))) == 2
    for _ in range(100):
        a = rand_rank_one_cube(rng)
        b = rand_rank_one_cube(rng)
        pa = strassen_matrix(a)
        pb = strassen_matrix(b)
        psum = strassen_matrix(a + b)
        ok = ok and psum.entries == [x + y for x, y in zip(pa.entries, pb.entries)]
    for _ in range(100):
        ok = ok and mat_det(strassen_matrix(rand_cube_sum(rng, 4))) == 0
    for _ in range(100):
        ok = ok and mat_det(strassen_matrix(rand_cube_sum(rng, 5))) != 0
    sd = strassen_det_symbolic()
    ok = ok and sd.term_count == 9216 and sd.total_degree == 9
    announce(9, ok, "pencil rank 2 x100, additivity x100, det=0 on rank<=4 x100, "
                    "det!=0 on rank-5 x100, expansion 9216 terms of degree 9")
    assert ok


def test_criterion_10_flattening_ranks():
    rng = random.Random(110)
    ok = True
    for _ in range(20):
        t = DenseTensor.rank_one([rand_nonzero_vector(rng, rng.randint(2, 4))
                                  for _ in range(3)])
        ok = ok and multilinear_rank(t) == (1, 1, 1)
    ok = ok and multilinear_rank(matmul_tensor(2)) == (4, 4, 4)
    for _ in range(200):
        order = rng.choice((3, 4))
        shape = tuple(rng.randint(2, 4) for _ in range(order))
        r = rng.randint(1, 3)
        k = rng.randint(1, r)
        t = DenseTensor.rank_one([rand_nonzero_vector(rng, d) for d in shape])
        for _ in range(k - 1):
            t = t + DenseTensor.rank_one([rand_nonzero_vector(rng, d) for d in shape])
        ok = ok and gss_minor_test(t, r)
    announce(10, ok, "multilinear ranks (1,1,1) and (4,4,4); minor bound holds "
                     "on 200 randomized low-rank sums")
    assert ok


def test_criterion_11_property_suites():
    rng = random.Random(111)
    ok = True
    for _ in range(500):
        n = rng.randint(1, 3)
        d = rng.randint(1, 6)
        hf = hilbert_function(rand_form(rng, n + 1, d)).hf
        ok = ok and all(hf[t] == hf[d - t] for t in range(d + 1))
    for _ in range(1000):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        m = QMatrix.from_rows([[rng.randint(-9, 9) for _ in range(cols)]
                               for _ in range(rows)])
        ok = ok and mat_rank(m) + len(mat_kernel(m)) == cols
    equal = 0
    for _ in range(500):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        data = [[rng.randint(-999, 999) for _ in range(cols)] for _ in range(rows)]
        exact = mat_rank(QMatrix.from_rows(data))
        mod = modular.rank_mod(data)
        ok = ok and mod <= exact
        equal += int(mod == exact)
    ok = ok and equal >= 495
    announce(11, ok, "HF symmetry x500, rank+nullity x1000, modular<=exact x500 "
                     "with %d/500 equal" % equal)
    assert ok
