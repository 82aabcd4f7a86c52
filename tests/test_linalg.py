"""Exact linear algebra: examples and randomized cross-checks."""

import random

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from apolar import linalg, modular
from apolar.linalg import (QMatrix, check_entries, mat_det, mat_kernel, mat_rank,
                           rank_int_rows, solve_linear)
from oracles import (det_fraction_gauss, kernel_fraction_gauss,
                     rank_fraction_gauss, solve_fraction_gauss)


def rand_matrix(rng, rows, cols, lo=-9, hi=9):
    return QMatrix.from_rows([[rng.randint(lo, hi) for _ in range(cols)]
                              for _ in range(rows)])


def identity(n):
    return QMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def zero(rows, cols):
    return QMatrix.from_rows([[0] * cols for _ in range(rows)])


def test_qmatrix_is_a_checked_record():
    m = QMatrix.from_rows([[1, 2], [3, Fraction(1, 2)]])
    assert (m.rows, m.cols, m.entries) == (2, 2, [1, 2, 3, Fraction(1, 2)])
    assert m == QMatrix(2, 2, [1, 2, 3, Fraction(1, 2)])
    assert m != QMatrix(2, 2, [1, 2, 3, 4])
    assert QMatrix(1, 2, [1, 2]) != QMatrix(2, 1, [1, 2])
    with pytest.raises(ValueError, match="^entries length 3 != 2 x 2$"):
        QMatrix(2, 2, [1, 2, 3])
    with pytest.raises(ValueError, match="^ragged rows$"):
        QMatrix.from_rows([[1, 2], [3]])


def test_check_entries_stops_at_the_first_size_past_the_limit():
    def sizes():
        # 1000 * 1000 is the limit itself; 2 passes it, so nothing after is read
        yield from (1000, 1000, 2)
        raise AssertionError("read a size after the limit was passed")

    with pytest.raises(ValueError, match="^matrix would have more than the limit "
                                         "of 1000000 entries$"):
        check_entries(sizes(), "matrix")
    with pytest.raises(ValueError, match="^matrix would have"):
        check_entries(iter([10 ** 7, 0]), "matrix")
    assert check_entries((1000, 1000), "matrix") == 10 ** 6
    assert check_entries((3, 0, 10 ** 9), "matrix") == 0
    assert check_entries(map(len, ["ab", "cde"]), "matrix") == 6
    assert check_entries((), "matrix") == 1


def test_rational_scalars_stay_reduced():
    x = Fraction(6, -4)
    assert x.numerator == -3 and x.denominator == 2
    y = Fraction(2, 3) + Fraction(1, 3)
    assert y.numerator == 1 and y.denominator == 1


def test_identity_rank_det_kernel():
    m = identity(3)
    assert mat_rank(m) == 3
    assert mat_det(m) == 1
    assert mat_kernel(m) == []


def test_outer_product_has_rank_one():
    rng = random.Random(1)
    a = [rng.randint(1, 9) for _ in range(3)]
    b = [rng.randint(1, 9) for _ in range(4)]
    m = QMatrix.from_rows([[ai * bj for bj in b] for ai in a])
    assert mat_rank(m) == 1
    square = QMatrix.from_rows([[ai * aj for aj in a] for ai in a])
    assert mat_det(square) == 0


def test_two_by_two_det():
    assert mat_det(QMatrix.from_rows([[1, 2], [3, 4]])) == -2


def test_det_requires_square():
    with pytest.raises(ValueError, match="^determinant of 2 x 3 matrix$"):
        mat_det(zero(2, 3))


def test_kernel_of_zero_and_identity():
    assert len(mat_kernel(zero(2, 3))) == 3
    assert mat_kernel(identity(4)) == []


def test_kernel_vectors_annihilate():
    rng = random.Random(2)
    for _ in range(50):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        for vec in mat_kernel(m):
            for i in range(m.rows):
                assert sum(m.at(i, j) * vec[j] for j in range(m.cols)) == 0


def test_solve_identity_and_infeasible():
    b = [Fraction(3), Fraction(-1)]
    assert solve_linear(identity(2), b) == b
    assert solve_linear(zero(2, 2), [1, 0]) is None


def test_solve_consistency_random():
    rng = random.Random(3)
    for _ in range(50):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        x = [rng.randint(-5, 5) for _ in range(m.cols)]
        b = [sum(m.at(i, j) * x[j] for j in range(m.cols)) for i in range(m.rows)]
        sol = solve_linear(m, b)
        assert sol is not None
        for i in range(m.rows):
            assert sum(m.at(i, j) * sol[j] for j in range(m.cols)) == b[i]


def test_rank_equals_transpose_rank():
    rng = random.Random(4)
    for _ in range(100):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert mat_rank(m) == mat_rank(QMatrix.from_rows(list(zip(*(m.row(i) for i in range(m.rows))))))


def test_rank_plus_nullity():
    rng = random.Random(5)
    for _ in range(100):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert mat_rank(m) + len(mat_kernel(m)) == m.cols


def test_construction_rank_is_exact():
    rng = random.Random(6)
    for _ in range(50):
        n, m = rng.randint(2, 6), rng.randint(2, 6)
        r = rng.randint(1, min(n, m))
        left = [[rng.randint(1, 99) for _ in range(r)] for _ in range(n)]
        right = [[rng.randint(1, 99) for _ in range(m)] for _ in range(r)]
        prod = [[sum(left[i][k] * right[k][j] for k in range(r)) for j in range(m)]
                for i in range(n)]
        # generic integer factors realize rank exactly r (seeded, verified)
        assert mat_rank(QMatrix.from_rows(prod)) == r
        assert rank_int_rows(prod) == r


def test_fraction_free_agrees_with_rational_gauss():
    rng = random.Random(7)
    for _ in range(10000):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        mat = rand_matrix(rng, n, m)
        assert mat_rank(mat) == rank_fraction_gauss(mat)
        if n == m:
            assert mat_det(mat) == det_fraction_gauss(mat)


def test_structured_rank_deficiency():
    rng = random.Random(8)
    for _ in range(2000):
        n = rng.randint(2, 6)
        m = rng.randint(2, 6)
        r = rng.randint(1, min(n, m))
        left = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(n)]
        right = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(r)]
        data = [[sum(left[i][k] * right[k][j] for k in range(r)) for j in range(m)]
                for i in range(n)]
        # inject zero columns and duplicate rows to exercise pivot skipping
        if rng.random() < 0.5:
            col = rng.randrange(m)
            for row in data:
                row[col] = 0
        if rng.random() < 0.5:
            data[rng.randrange(n)] = list(data[rng.randrange(n)])
        mat = QMatrix.from_rows(data)
        assert mat_rank(mat) == rank_fraction_gauss(mat)
        if n == m:
            assert mat_det(mat) == det_fraction_gauss(mat)


def test_fractional_entries():
    m = QMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                           [Fraction(1, 4), Fraction(1, 6)]])
    assert mat_det(m) == 0
    assert mat_rank(m) == 1
    m2 = QMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                            [Fraction(1, 4), Fraction(1, 5)]])
    assert mat_det(m2) == Fraction(1, 10) - Fraction(1, 12)
    assert mat_rank(m2) == 2


def _rational_matrix(rows, cols):
    entry = st.integers(-9, 9) | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def low_rank_systems(draw):
    """(M, b, consistent): rational M of low rank with zeroed rows and columns.

    Entries are a mix of ints and Fractions, as QMatrix keeps them: an entry
    whose products are all of ints stays an int, and a zeroed one is 0 or
    Fraction(0).  A consistent b is M x for a random rational x; otherwise b
    is drawn freely and is usually outside the column space.
    """
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 7))
    r = draw(st.integers(0, min(rows, cols, 3)))
    left = draw(_rational_matrix(rows, r))
    right = draw(_rational_matrix(r, cols))
    dead_rows = draw(st.sets(st.integers(0, max(rows - 1, 0))))
    dead_cols = draw(st.sets(st.integers(0, cols - 1)))
    dead = draw(st.sampled_from([0, Fraction(0)]))
    data = [[dead if i in dead_rows or j in dead_cols
             else sum(left[i][k] * right[k][j] for k in range(r))
             for j in range(cols)] for i in range(rows)]
    matrix = QMatrix(rows, cols, [e for row in data for e in row])
    consistent = draw(st.booleans())
    if consistent:
        x = draw(_rational_matrix(1, cols))[0]
        b = [sum(row[j] * x[j] for j in range(cols)) for row in data]
    else:
        b = draw(_rational_matrix(1, rows))[0]
    return matrix, b, consistent


@settings(max_examples=300, deadline=None, derandomize=True)
@given(low_rank_systems())
def test_kernel_and_solve_equal_gauss_jordan(system):
    matrix, b, consistent = system
    assert mat_rank(matrix) == rank_fraction_gauss(matrix)
    if matrix.rows == matrix.cols:
        assert mat_det(matrix) == det_fraction_gauss(matrix)
    assert mat_kernel(matrix) == kernel_fraction_gauss(matrix)
    sol = solve_linear(matrix, b)
    assert sol == solve_fraction_gauss(matrix, b)
    if consistent:
        assert sol is not None


@st.composite
def low_rank_products(draw):
    """(rows, r): a 20-26 x 20-26 integer product through r columns, dense or
    sparse, with some rows and columns zeroed.

    The factor entries come from a drawn seed, so one example stays a few
    bytes of hypothesis data."""
    rows, cols = draw(st.integers(20, 26)), draw(st.integers(20, 26))
    r = draw(st.integers(0, 18))
    bound = draw(st.sampled_from([9, 1 << 40]))
    zero_share = draw(st.sampled_from([0.0, 0.6, 0.9]))
    rng = random.Random(draw(st.integers(0, 1 << 32)))

    def entry():
        return 0 if rng.random() < zero_share else rng.randint(-bound, bound)

    left = [[entry() for _ in range(r)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(r)]
    dead_rows = draw(st.sets(st.integers(0, rows - 1), max_size=4))
    dead_cols = draw(st.sets(st.integers(0, cols - 1), max_size=4))
    data = [[0 if i in dead_rows or j in dead_cols
             else sum(left[i][k] * right[k][j] for k in range(r))
             for j in range(cols)] for i in range(rows)]
    return data, r


@settings(max_examples=80, deadline=None, derandomize=True)
@given(low_rank_products())
def test_certified_rank_equals_gauss_jordan(case):
    rows, _ = case
    copy = [list(row) for row in rows]
    want = rank_fraction_gauss(QMatrix.from_rows(rows))
    assert rank_int_rows(rows) == want
    assert mat_rank(QMatrix.from_rows(rows)) == want
    assert rows == copy


def test_rank_singular_mod_p_falls_back_to_bareiss(monkeypatch):
    p = modular.MODULUS
    # upper triangular, ones on and above the diagonal except p at (0, 0):
    # the determinant is p, so rows 0 and 1 agree mod p
    rows = [[p if i == j == 0 else int(i <= j) for j in range(16)] for i in range(16)]
    assert modular.rank_mod(rows) == 15
    tried = []
    rank_mod = modular.rank_mod
    monkeypatch.setattr(modular, "rank_mod", lambda rows: tried.append(1) or rank_mod(rows))
    assert rank_int_rows(rows) == mat_rank(QMatrix.from_rows(rows)) == 16
    # only mat_rank tries GF(p); rank_int_rows is Bareiss alone
    assert len(tried) == 1


def test_gfp_rank_meeting_the_bound_skips_bareiss(monkeypatch):
    def no_bareiss(*args):
        raise AssertionError("Bareiss ran although the GF(p) rank met the bound")

    monkeypatch.setattr(linalg, "_bareiss", no_bareiss)
    rng = random.Random(9)
    rows = [[rng.randint(-99, 99) for _ in range(20)] for _ in range(16)]
    assert mat_rank(QMatrix.from_rows(rows)) == 16
    # a zero row and a zero column around that full-rank block: once they
    # are stripped, the GF(p) rank 16 meets min(16, 20)
    rows = [row[:7] + [0] + row[7:] for row in rows]
    rows.insert(3, [0] * 21)
    assert mat_rank(QMatrix.from_rows(rows)) == 16
