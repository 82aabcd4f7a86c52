"""Catalecticants, Hilbert functions, Waring ranks, decompositions."""

import random

from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from hypothesis import assume, example, given, note, settings, strategies as st

from apolar import linalg
from apolar.apolarity import (RankCertificate, catalecticant,
                              decompose_check, hilbert_function,
                              is_square_free_binary, monomial_rank, perp_piece,
                              quadratic_rank, sylvester_rank)
from apolar.linalg import QMatrix, mat_det, mat_rank
from apolar.poly import (HomogPoly, apolar_apply, monomial_basis, parse_poly,
                         power_linear, render_poly)
from oracles import (catalecticant_by_partials, poly_product, rank_fraction_gauss,
                     sylvester_rank_by_kernels)


def rand_form(rng, num_vars, degree, bound=9):
    basis = monomial_basis(num_vars, degree)
    f = HomogPoly(num_vars, degree, {m: rng.randint(-bound, bound) for m in basis})
    return f if not f.is_zero() else HomogPoly.monomial(basis[0])


def add_terms(total, terms, scale=1):
    """Accumulate scale * terms into the term map total."""
    for mono, coeff in terms.items():
        total[mono] = total.get(mono, 0) + scale * coeff


def power_sum(degree, coeffs, points):
    """Binary form sum of c * (p0 x0 + p1 x1)^degree over coeffs and points."""
    total = {}
    for c, p in zip(coeffs, points):
        add_terms(total, power_linear(p, degree).terms, c)
    return HomogPoly(2, degree, total)


def substitute(form, rows):
    """Compose with x_i -> sum_j rows[i][j] x_j, for an invertible matrix of rows."""
    n = form.num_vars
    out = {}
    for exps, coeff in form.terms.items():
        term = HomogPoly(n, 0, {(0,) * n: coeff})
        for row, e in zip(rows, exps):
            if e:
                term = poly_product(term, power_linear(row, e))
        add_terms(out, term.terms)
    return HomogPoly(n, form.degree, out)


def note_form(form):
    """Print a falsifying form in the CLI grammar, to replay through parse_poly."""
    note("%d variables, degree %d: %s" % (form.num_vars, form.degree, render_poly(form)))


def count_bareiss(monkeypatch):
    """List that gets the (rows, columns) of each linalg._bareiss call."""
    calls = []
    bareiss = linalg._bareiss

    def counting(int_rows, cols):
        calls.append((len(int_rows), cols))
        return bareiss(int_rows, cols)

    monkeypatch.setattr(linalg, "_bareiss", counting)
    return calls


def seeded_binary_form(degree, seed):
    """Binary form with coefficients randint(-999, 999) on x0^(degree - k) x1^k."""
    rng = random.Random(seed)
    return HomogPoly(2, degree, {(degree - k, k): rng.randint(-999, 999)
                                 for k in range(degree + 1)})


def test_catalecticant_of_pure_power():
    d, t = 5, 2
    form = HomogPoly.monomial((d, 0, 0))
    cat = catalecticant(form, t).matrix
    nonzero = [(i, j) for i in range(cat.rows) for j in range(cat.cols)
               if cat.at(i, j) != 0]
    assert nonzero == [(0, 0)]  # first row/col index x0^(d-t), y0^t
    assert cat.at(0, 0) == factorial(d) // factorial(d - t)


def test_catalecticant_rank_example():
    form = parse_poly("x0*x1^2", 2)
    assert mat_rank(catalecticant(form, 1).matrix) == 2


@st.composite
def forms_in_few_variables(draw):
    """(F, integral): a form in 1-4 variables of degree at most 5 whose
    coefficients are integers, or integers and p/q fractions."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    integral = draw(st.booleans())
    coeff = st.integers(-9, 9)
    if not integral:
        coeff = coeff | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    terms = draw(st.dictionaries(st.sampled_from(monomial_basis(n, d)), coeff, max_size=8))
    return HomogPoly(n, d, terms), integral


@settings(max_examples=300, deadline=None, derandomize=True)
@given(forms_in_few_variables())
def test_catalecticant_equals_repeated_partials(case):
    form, integral = case
    note_form(form)
    for t in range(form.degree + 1):
        matrix = catalecticant(form, t).matrix
        assert [matrix.row(i) for i in range(matrix.rows)] == catalecticant_by_partials(
            form.terms, form.num_vars, form.degree, t)
        if integral:
            assert all(type(e) is int for e in matrix.entries)


def test_catalecticant_t_out_of_range():
    form = parse_poly("x0^2", 2)
    with pytest.raises(ValueError, match=r"^t = 3 outside \[0, 2\]$"):
        catalecticant(form, 3)


def test_generic_quartic_catalecticant_entries():
    # entrywise pattern of the middle catalecticant of a ternary quartic:
    # (multiplier, index of the quartic coefficient in graded-lex order)
    pattern = [
        [(12, 0), (3, 1), (3, 2), (2, 3), (1, 4), (2, 5)],
        [(6, 1), (4, 3), (2, 4), (6, 6), (2, 7), (2, 8)],
        [(6, 2), (2, 4), (4, 5), (2, 7), (2, 8), (6, 9)],
        [(2, 3), (3, 6), (1, 7), (12, 10), (3, 11), (2, 12)],
        [(2, 4), (2, 7), (2, 8), (6, 11), (4, 12), (6, 13)],
        [(2, 5), (1, 8), (3, 9), (2, 12), (3, 13), (12, 14)],
    ]
    rng = random.Random(10)
    basis = monomial_basis(3, 4)
    coeffs = [rng.randint(-999, 999) for _ in range(15)]
    cat = catalecticant(HomogPoly(3, 4, dict(zip(basis, coeffs))), 2).matrix
    for i in range(6):
        for j in range(6):
            mult, which = pattern[i][j]
            assert cat.at(i, j) == mult * coeffs[which]


def test_generic_quartic_catalecticant_is_invertible():
    # a random-coefficient quartic realizes the generic nonvanishing of the
    # 6x6 determinant; both elimination routes must agree on it
    from apolar.linalg import mat_det
    from oracles import det_fraction_gauss
    rng = random.Random(99)
    f = rand_form(rng, 3, 4, bound=1000)
    cat = catalecticant(f, 2).matrix
    det = mat_det(cat)
    assert det != 0
    assert det == det_fraction_gauss(cat)
    assert mat_rank(cat) == 6


def test_perp_piece_examples():
    assert perp_piece(parse_poly("x0*x1^3", 2), 2) == [HomogPoly.monomial((2, 0))]
    d = 4
    pure = HomogPoly.monomial((d, 0, 0))
    lin = perp_piece(pure, 1)
    assert lin == [HomogPoly.monomial((0, 1, 0)), HomogPoly.monomial((0, 0, 1))]
    three = parse_poly("x0^3+x1^3+x2^3", 4)
    assert perp_piece(three, 1) == [HomogPoly.monomial((0, 0, 0, 1))]


def test_perp_piece_above_socle_is_everything():
    form = parse_poly("x0^2", 2)
    assert len(perp_piece(form, 3)) == 4


def test_perp_elements_annihilate():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 3)
        d = rng.randint(1, 5)
        f = rand_form(rng, n + 1, d)
        for t in range(d + 1):
            for op in perp_piece(f, t):
                assert apolar_apply(op, f).is_zero()


def test_hilbert_tables():
    rng = random.Random(12)
    quartic = rand_form(rng, 3, 4, bound=1000)
    assert hilbert_function(quartic).hf == [1, 3, 6, 3, 1, 0]
    assert hilbert_function(power_linear([2, -1], 3)).hf == [1, 1, 1, 1, 0]
    cubic = rand_form(rng, 2, 3, bound=1000)
    assert hilbert_function(cubic).hf == [1, 2, 2, 1, 0]
    five_vars = rand_form(rng, 5, 3, bound=1000)
    assert hilbert_function(five_vars).hf == [1, 5, 5, 1, 0]


def test_hilbert_zero_rejected():
    with pytest.raises(ValueError, match="^Hilbert function needs a nonzero form$"):
        hilbert_function(HomogPoly(2, 3, {}))


def test_hilbert_symmetry_and_profile_invariants():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 3)
        d = rng.randint(1, 6)
        f = rand_form(rng, n + 1, d)
        profile = hilbert_function(f)
        hf = profile.hf
        assert hf[0] == 1 and hf[d] == 1 and hf[d + 1] == 0
        for t in range(d + 1):
            assert hf[t] == hf[d - t]
            assert hf[t] + profile.perp_dims[t] == len(monomial_basis(n + 1, t))


_NONZERO_COEFF = (st.integers(-9, 9).filter(bool)
                  | st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(2, 6)))


@st.composite
def nonzero_forms(draw):
    """A nonzero form in 1-3 variables of degree 0-8, with integer or p/q terms."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(0, 8))
    terms = draw(st.dictionaries(st.sampled_from(monomial_basis(n, d)), _NONZERO_COEFF,
                                 min_size=1, max_size=8))
    return HomogPoly(n, d, terms)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(nonzero_forms())
@example(HomogPoly(2, 0, {(0, 0): 3}))
@example(HomogPoly(3, 1, {(0, 1, 0): Fraction(-2, 5)}))
def test_hilbert_function_is_every_catalecticant_rank(form):
    note_form(form)
    # hilbert_function ranks Cat_t for t <= d/2 only and mirrors the rest;
    # here every Cat_t is ranked, so a wrong mirror (or its length) shows
    d = form.degree
    ranks = [mat_rank(catalecticant(form, t).matrix) for t in range(d + 1)]
    assert hilbert_function(form).hf == ranks + [0]


@st.composite
def forms_and_substitutions(draw):
    """(F, M): a nonzero form in 3-4 variables of degree 2-6 and an invertible
    integer matrix M, whose rows are the images of the variables."""
    n, d = draw(st.integers(3, 4)), draw(st.integers(2, 6))
    terms = draw(st.dictionaries(st.sampled_from(monomial_basis(n, d)), _NONZERO_COEFF,
                                 min_size=1, max_size=6))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    assume(mat_det(QMatrix.from_rows(rows)) != 0)
    return HomogPoly(n, d, terms), rows


@settings(max_examples=100, deadline=None, derandomize=True)
@given(forms_and_substitutions())
@example((parse_poly("x0^3*x1 - 2*x1^4", 2), [[1, 2], [-1, 3]]))
@example((parse_poly("x0^2 + x1*x2", 3), [[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
def test_hilbert_function_and_quadric_rank_survive_a_change_of_coordinates(case):
    form, rows = case
    note_form(form)
    note("x_i -> row i of %r" % (rows,))
    moved = substitute(form, rows)
    assert hilbert_function(moved).hf == hilbert_function(form).hf
    if form.degree == 2:
        assert quadratic_rank(moved) == quadratic_rank(form)


def test_catalecticant_transpose_duality():
    rng = random.Random(14)
    for _ in range(25):
        n = rng.randint(1, 2)
        d = rng.randint(2, 5)
        f = rand_form(rng, n + 1, d)
        for t in range(d + 1):
            assert (mat_rank(catalecticant(f, t).matrix)
                    == mat_rank(catalecticant(f, d - t).matrix))


def test_square_free_binary(monkeypatch):
    assert is_square_free_binary(parse_poly("x0*x1", 2))
    assert not is_square_free_binary(parse_poly("x0^2", 2))
    assert is_square_free_binary(parse_poly("x0^2 - x1^2", 2))
    assert is_square_free_binary(parse_poly("x0^2*x1 + x0*x1^2", 2))
    assert not is_square_free_binary(parse_poly("x0^3 + x0^2*x1", 2))
    assert not is_square_free_binary(parse_poly("x0*x1^2", 2))  # doubled factor x1
    assert is_square_free_binary(parse_poly("x0^3 - x0*x1^2", 2))
    assert not is_square_free_binary(HomogPoly(2, 4, {}))
    assert is_square_free_binary(HomogPoly(2, 0, {(0, 0): 5}))
    assert is_square_free_binary(parse_poly("x1", 2))
    assert is_square_free_binary(parse_poly("2*x0 - 3*x1", 2))
    # degree 40: a full rank mod p decides the 78 x 78 Sylvester matrix alone,
    # and a squared factor leaves it singular mod p, so Bareiss decides
    calls = count_bareiss(monkeypatch)
    assert is_square_free_binary(seeded_binary_form(40, 40))
    assert calls == []
    squared = poly_product(power_linear([1, -2], 2), seeded_binary_form(38, 38))
    assert not is_square_free_binary(squared)
    assert len(calls) == 1


_LINEAR_FACTOR = st.one_of(st.just((1, 0)), st.just((0, 1)),
                           st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(any))


@st.composite
def factored_binary_forms(draw):
    """(c * prod(a x0 + b x1), factors) for 1 to 7 integer linear factors,
    the last of them often a multiple of an earlier one."""
    factors = draw(st.lists(_LINEAR_FACTOR, min_size=1, max_size=7))
    if len(factors) > 1 and draw(st.booleans()):
        a, b = draw(st.sampled_from(factors[:-1]))
        k = draw(st.sampled_from([-2, -1, 1, 3]))
        factors[-1] = (k * a, k * b)
    form = HomogPoly(2, 0, {(0, 0): draw(st.sampled_from([1, -3, Fraction(2, 5)]))})
    for a, b in factors:
        form = poly_product(form, HomogPoly(2, 1, {(1, 0): a, (0, 1): b}))
    return form, factors


@settings(max_examples=300, deadline=None, derandomize=True)
@given(factored_binary_forms())
def test_square_free_iff_no_proportional_factors(case):
    form, factors = case
    note_form(form)
    distinct = all(p[0] * q[1] != p[1] * q[0] for p, q in combinations(factors, 2))
    assert is_square_free_binary(form) == distinct


def test_sylvester_examples():
    cert = sylvester_rank(parse_poly("x0*x1^2", 2))
    assert cert.rank == 3
    assert cert.branch == RankCertificate.FELL_THROUGH_TO_D2
    assert apolar_apply(cert.witness, parse_poly("x0*x1^2", 2)).is_zero()
    for d in (3, 5, 8):
        assert sylvester_rank(HomogPoly.monomial((1, d))).rank == d + 1
    pure = power_linear([2, 3], 3)
    cert = sylvester_rank(pure)
    assert cert.rank == 1
    assert cert.branch == RankCertificate.SQUARE_FREE_AT_D1


@st.composite
def binary_forms(draw):
    """A nonzero binary form of degree 0-16: dense and random, sparse, a sum of
    1-4 powers of linear forms, or a squared linear factor times a random form."""
    d = draw(st.integers(0, 16))
    kind = draw(st.sampled_from(["random", "sparse", "powers", "squared"]))
    point = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(any)
    if kind == "powers" and d >= 1:
        points = draw(st.lists(point, min_size=1, max_size=4))
        coeffs = draw(st.lists(_NONZERO_COEFF, min_size=len(points), max_size=len(points)))
        form = power_sum(d, coeffs, points)
    elif kind == "squared" and d >= 2:
        coeffs = draw(st.lists(st.integers(-99, 99), min_size=d - 1, max_size=d - 1))
        cofactor = HomogPoly(2, d - 2, dict(zip(monomial_basis(2, d - 2), coeffs)))
        form = poly_product(power_linear(draw(point), 2), cofactor)
    else:
        size = 3 if kind == "sparse" else d + 1
        form = HomogPoly(2, d, draw(st.dictionaries(
            st.sampled_from(monomial_basis(2, d)), _NONZERO_COEFF, min_size=1, max_size=size)))
    assume(not form.is_zero())
    return form


@settings(max_examples=300, deadline=None, derandomize=True)
@given(binary_forms())
@example(HomogPoly(2, 0, {(0, 0): 3}))
@example(parse_poly("x0*x1^2", 2))
def test_sylvester_rank_equals_kernel_search(form):
    note_form(form)
    # the middle catalecticant's rank is the first degree with a kernel, and the
    # witness is that kernel's first vector
    assert sylvester_rank(form) == sylvester_rank_by_kernels(form)


def test_sylvester_rank_runs_one_kernel(monkeypatch):
    # d1 = 21 is the rank of Cat_20 and the witness decides square-free by
    # full ranks mod p; the one Bareiss run is the kernel of the 20 x 22 Cat_21
    calls = count_bareiss(monkeypatch)
    cert = sylvester_rank(seeded_binary_form(40, 40))
    assert (cert.rank, cert.branch) == (21, RankCertificate.SQUARE_FREE_AT_D1)
    assert calls == [(20, 22)]


def test_sylvester_generic_rank():
    rng = random.Random(15)
    for d in range(2, 10):
        for _ in range(5):
            f = rand_form(rng, 2, d, bound=1000)
            assert sylvester_rank(f).rank == (d + 1 + 1) // 2


def test_sylvester_change_of_basis_invariance():
    rng = random.Random(16)
    for top in (7, 16):
        for _ in range(30):
            d = rng.randint(2, top)
            f = rand_form(rng, 2, d)
            while True:
                a, b, c, e = (rng.randint(-5, 5) for _ in range(4))
                if a * e - b * c != 0:
                    break
            g = substitute(f, [[a, b], [c, e]])
            assert sylvester_rank(f).rank == sylvester_rank(g).rank
            assert hilbert_function(f).hf == hilbert_function(g).hf


def test_sylvester_constructed_three_powers():
    # rank-3 forms built from known points; the fit must recover them
    rng = random.Random(17)
    for _ in range(10):
        pts = []
        while len(pts) < 3:
            p = [rng.randint(-9, 9), rng.randint(-9, 9)]
            if any(p) and all(q[0] * p[1] != q[1] * p[0] for q in pts):
                pts.append(p)
        coeffs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3)]
        f = power_sum(5, coeffs, pts)
        assert sylvester_rank(f).rank == 3
        got = decompose_check(f, pts)
        assert got == [Fraction(c) for c in coeffs]


def test_monomial_rank():
    assert monomial_rank([1, 2]) == 3
    assert monomial_rank([7]) == 1
    assert monomial_rank([1, 1, 1]) == 4
    assert monomial_rank([0, 2, 0, 3]) == monomial_rank([2, 3]) == 4
    with pytest.raises(ValueError, match="^constant monomials have no Waring rank$"):
        monomial_rank([0, 0])
    with pytest.raises(ValueError, match="nonnegative"):
        monomial_rank([-1, -2])


def test_monomial_rank_matches_sylvester_on_binary():
    for a in range(1, 6):
        for b in range(a, 11 - a):
            assert (monomial_rank([a, b])
                    == sylvester_rank(HomogPoly.monomial((a, b))).rank)


def test_quadratic_rank():
    assert quadratic_rank(parse_poly("x0^2+x1^2", 2)) == 2
    assert quadratic_rank(parse_poly("x0*x1", 2)) == 2
    for n in range(1, 5):
        terms = {tuple(2 * int(k == i) for k in range(n + 1)): 1 for i in range(n + 1)}
        assert quadratic_rank(HomogPoly(n + 1, 2, terms)) == n + 1
    # degenerate: (x0 + x1)^2, x0 (x1 + x2), x0^2 - (x1 - x2)^2, (x0/2 + x1)^2
    assert quadratic_rank(parse_poly("x0^2 + 2*x0*x1 + x1^2", 2)) == 1
    assert quadratic_rank(parse_poly("x0*x1 + x0*x2", 3)) == 2
    assert quadratic_rank(parse_poly("x0^2 - x1^2 + 2*x1*x2 - x2^2", 3)) == 2
    assert quadratic_rank(parse_poly("1/4*x0^2 + x0*x1 + x1^2", 2)) == 1
    assert quadratic_rank(parse_poly("1/2*x0^2 - 3/4*x1^2 + 5/3*x2^2", 4)) == 3
    # sums of r rational squares of random linear forms in 4 variables
    rng = random.Random(31)
    for r in range(1, 5):
        for _ in range(5):
            terms = {}
            for _ in range(r):
                scale = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
                square = power_linear([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                       for _ in range(4)], 2)
                add_terms(terms, square.terms, scale)
            form = HomogPoly(4, 2, terms)
            want = rank_fraction_gauss(QMatrix.from_rows(
                [[form.coeff([int(k == i) + int(k == j) for k in range(4)])
                  * (1 if i == j else Fraction(1, 2)) for j in range(4)] for i in range(4)]))
            assert quadratic_rank(form) == want <= r
    with pytest.raises(ValueError, match="^quadratic form required$"):
        quadratic_rank(parse_poly("x0^3", 2))


def test_decompose_check_cubic_identity():
    coeffs = decompose_check(parse_poly("x0^2*x1", 2), [[1, 1], [-1, 1], [0, 1]])
    assert coeffs == [Fraction(1, 6), Fraction(1, 6), Fraction(-1, 3)]


def test_decompose_check_infeasible_pairs():
    rng = random.Random(18)
    f = parse_poly("x0*x1^2", 2)
    for _ in range(20):
        pts = []
        while len(pts) < 2:
            p = [rng.randint(-9, 9), rng.randint(-9, 9)]
            if any(p) and all(q[0] * p[1] != q[1] * p[0] for q in pts):
                pts.append(p)
        assert decompose_check(f, pts) is None


def test_decompose_check_pure_power_and_errors():
    f = power_linear([2, 5], 4)
    assert decompose_check(f, [[2, 5]]) == [Fraction(1)]
    with pytest.raises(ValueError, match="^points must be pairwise distinct up to scale$"):
        decompose_check(f, [[1, 1], [2, 2]])
    with pytest.raises(ValueError, match="at least one point"):
        decompose_check(f, [])


def test_decompose_success_bounds_sylvester():
    rng = random.Random(19)
    for _ in range(15):
        d = rng.randint(3, 6)
        s = rng.randint(1, 3)
        pts = []
        while len(pts) < s:
            p = [rng.randint(-9, 9), rng.randint(-9, 9)]
            if any(p) and all(q[0] * p[1] != q[1] * p[0] for q in pts):
                pts.append(p)
        f = power_sum(d, [rng.choice([1, 2, -1]) for _ in pts], pts)
        if f.is_zero():
            continue
        assert decompose_check(f, pts) is not None
        assert sylvester_rank(f).rank <= s


def test_quartic_obstruction_dimension():
    rng = random.Random(20)
    f = rand_form(rng, 3, 4, bound=1000)
    # six independent quadratic conditions leave no room for 5-point ideals
    assert hilbert_function(f).hf[2] == 6
