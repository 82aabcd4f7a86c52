"""Exact dense linear algebra over the rationals.

Scalars are `fractions.Fraction` (arbitrary-precision, always reduced,
positive denominator).  Rank and determinant run fraction-free: each row is
scaled to integers by the lcm of its denominators, then eliminated Bareiss
style, so intermediate entries stay integral minors instead of exploding
fractions.  Kernels and linear solves use plain rational Gauss-Jordan.
"""

from fractions import Fraction
from math import gcd


class NonSquareError(ValueError):
    pass


class QMatrix:
    """Dense row-major matrix of Fractions."""

    def __init__(self, rows, cols, entries):
        entries = [Fraction(e) for e in entries]
        if len(entries) != rows * cols:
            raise ValueError("entries length %d != %d x %d" % (len(entries), rows, cols))
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, row_lists):
        rows = len(row_lists)
        cols = len(row_lists[0]) if rows else 0
        flat = []
        for row in row_lists:
            if len(row) != cols:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(rows, cols, flat)

    def at(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def row_lists(self):
        return [self.row(i) for i in range(self.rows)]

    def __eq__(self, other):
        return (isinstance(other, QMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        return "QMatrix(%d x %d)" % (self.rows, self.cols)


def _lcm(a, b):
    return a // gcd(a, b) * b


def _integer_rows(matrix):
    """Scale each row to integers; returns (int rows, per-row scale factors)."""
    int_rows = []
    scales = []
    for i in range(matrix.rows):
        row = matrix.row(i)
        denom = 1
        for e in row:
            denom = _lcm(denom, e.denominator)
        int_rows.append([int(e * denom) for e in row])
        scales.append(denom)
    return int_rows, scales


def _bareiss(int_rows, cols):
    """Fraction-free elimination in place; returns (rank, sign, last_pivot).

    `last_pivot` is the determinant of the int matrix when it is square of
    full rank; callers detect the rank-deficient square case via `rank`.
    """
    rows = len(int_rows)
    prev = 1
    r = 0
    sign = 1
    pivot = 1
    for c in range(cols):
        piv = -1
        for i in range(r, rows):
            if int_rows[i][c] != 0:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            int_rows[piv], int_rows[r] = int_rows[r], int_rows[piv]
            sign = -sign
        pivot = int_rows[r][c]
        row_r = int_rows[r]
        for i in range(r + 1, rows):
            row_i = int_rows[i]
            head = row_i[c]
            for j in range(c + 1, cols):
                row_i[j] = (pivot * row_i[j] - head * row_r[j]) // prev
            row_i[c] = 0
        prev = pivot
        r += 1
        if r == rows:
            break
    return r, sign, pivot


def mat_rank(matrix):
    """Rank over the rationals (fraction-free elimination)."""
    int_rows, _ = _integer_rows(matrix)
    rank, _, _ = _bareiss(int_rows, matrix.cols)
    return rank


def rank_int_rows(rows_of_ints):
    """Rank of a matrix given as lists of plain integers (copied, not mutated)."""
    if not rows_of_ints:
        return 0
    work = [list(row) for row in rows_of_ints]
    rank, _, _ = _bareiss(work, len(work[0]))
    return rank


def mat_det(matrix):
    """Exact determinant; raises NonSquareError for non-square input."""
    if matrix.rows != matrix.cols:
        raise NonSquareError("determinant of %d x %d matrix" % (matrix.rows, matrix.cols))
    if matrix.rows == 0:
        return Fraction(1)
    int_rows, scales = _integer_rows(matrix)
    rank, sign, pivot = _bareiss(int_rows, matrix.cols)
    if rank < matrix.rows:
        return Fraction(0)
    det = Fraction(sign * pivot)
    for s in scales:
        det /= s
    return det


def _rref(row_lists, cols):
    """Gauss-Jordan over Fraction in place; returns pivot column list."""
    rows = len(row_lists)
    pivots = []
    r = 0
    for c in range(cols):
        piv = -1
        for i in range(r, rows):
            if row_lists[i][c] != 0:
                piv = i
                break
        if piv < 0:
            continue
        row_lists[piv], row_lists[r] = row_lists[r], row_lists[piv]
        inv = Fraction(1) / row_lists[r][c]
        row_lists[r] = [e * inv for e in row_lists[r]]
        for i in range(rows):
            if i != r and row_lists[i][c] != 0:
                f = row_lists[i][c]
                row_lists[i] = [a - f * b for a, b in zip(row_lists[i], row_lists[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def mat_kernel(matrix):
    """Basis of the right null space, as lists of Fractions.

    The basis is the standard one read off the reduced row echelon form:
    one vector per free column, with a 1 in that coordinate.
    """
    work = matrix.row_lists()
    pivots = _rref(work, matrix.cols)
    pivot_set = set(pivots)
    basis = []
    for free in range(matrix.cols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * matrix.cols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][free]
        basis.append(vec)
    return basis


def solve_linear(matrix, rhs):
    """One exact solution of M x = b, or None when b is outside the column space.

    Free variables are set to zero, so the returned solution is canonical.
    """
    if len(rhs) != matrix.rows:
        raise ValueError("rhs length %d != %d rows" % (len(rhs), matrix.rows))
    aug = [matrix.row(i) + [Fraction(rhs[i])] for i in range(matrix.rows)]
    pivots = _rref(aug, matrix.cols + 1)
    if pivots and pivots[-1] == matrix.cols:
        return None
    sol = [Fraction(0)] * matrix.cols
    for r, pc in enumerate(pivots):
        sol[pc] = aug[r][matrix.cols]
    return sol
