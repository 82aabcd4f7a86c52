"""Exact dense linear algebra over the rationals.

Entries are ints or `fractions.Fraction`s, kept as given.  Every routine
reads each row as integers, scaled by the lcm of its denominators (1 for a
row of ints).  Determinants, kernels and linear solves then run one
fraction-free elimination, Bareiss style, so intermediate entries stay
integral minors instead of exploding fractions; kernels and solves
back-substitute through its echelon rows and return Fractions.

Ranks drop all-zero rows and columns first.  `mat_rank` then tries GF(p)
(`modular`): a rank mod p never exceeds the rank over Q, which never exceeds
min(rows, cols), so a GF(p) rank meeting that is exact, with a proof and no
probability; otherwise Bareiss, the only elimination over Q, decides.
`rank_int_rows` is Bareiss alone, for callers holding their own GF(p) rank.
"""

from collections import namedtuple
from fractions import Fraction
from math import lcm

from . import modular


# Largest matrix (or coefficient vector) any command may build.  The
# biggest in the benchmark workloads is 495 x 495 = 245,025 entries.
MAX_ENTRIES = 10 ** 6


def check_entries(sizes, what):
    """The product of `sizes`, the extents of `what`; raises ValueError before
    `what` is built, and before any later size is read, as soon as the running
    product passes MAX_ENTRIES."""
    count = 1
    for size in sizes:
        count *= size
        if count > MAX_ENTRIES:
            raise ValueError("%s would have more than the limit of %d entries"
                             % (what, MAX_ENTRIES))
    return count


class QMatrix(namedtuple("QMatrix", "rows cols entries")):
    """Dense row-major matrix of ints and Fractions."""

    __slots__ = ()

    def __new__(cls, rows, cols, entries):
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ValueError("entries length %d != %d x %d" % (len(entries), rows, cols))
        return super().__new__(cls, rows, cols, entries)

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


def _integer_rows(matrix):
    """Scale each row to integers; returns (int rows, per-row scale factors)."""
    int_rows = []
    scales = []
    for i in range(matrix.rows):
        row = matrix.row(i)
        denom = lcm(*(e.denominator for e in row))
        int_rows.append([e.numerator * (denom // e.denominator) for e in row])
        scales.append(denom)
    return int_rows, scales


def _bareiss(int_rows, cols):
    """Fraction-free elimination in place; returns (pivot columns, sign).

    Afterwards row r < rank leads with its pivot at column pivots[r] and
    every later row is zero.  `sign` is the parity of the row swaps, and for
    a square matrix of full rank the last row's leading entry is the
    determinant of the int matrix up to that sign.
    """
    rows = len(int_rows)
    prev = 1
    pivots = []
    sign = 1
    for c in range(cols):
        r = len(pivots)
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
        pivots.append(c)
        if len(pivots) == rows:
            break
    return pivots, sign


def _back_substitute(echelon, pivots, cols, starts, rhs=None):
    """Complete each start vector, which holds the free coordinates, to a
    solution of the echelon rows against rhs (or 0), last pivot first."""
    tails = [[(j, row[j]) for j in range(pc + 1, cols) if row[j]]
             for row, pc in zip(echelon, pivots)]
    for x in starts:
        for r in range(len(pivots) - 1, -1, -1):
            total = Fraction(rhs[r] if rhs else 0)
            for j, e in tails[r]:
                if x[j]:
                    total -= e * x[j]
            x[pivots[r]] = total / echelon[r][pivots[r]]
    return starts


def _strip(int_rows):
    """(copy of the integer rows without all-zero rows and columns, its column count)."""
    cols = [j for j, column in enumerate(zip(*int_rows)) if any(column)]
    return [[row[j] for j in cols] for row in int_rows if any(row)], len(cols)


def mat_rank(matrix):
    """Rank over the rationals: the GF(p) rank of the stripped integer rows
    when it meets min(rows, cols) of them, else their Bareiss rank."""
    work, cols = _strip(_integer_rows(matrix)[0])
    top = min(len(work), cols)
    if modular.rank_mod(work) == top:
        return top
    return len(_bareiss(work, cols)[0])


def rank_int_rows(rows_of_ints):
    """Bareiss rank of a matrix given as lists of plain integers (not mutated)."""
    return len(_bareiss(*_strip(rows_of_ints))[0])


def mat_det(matrix):
    """Exact determinant; raises ValueError for non-square input."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant of %d x %d matrix" % (matrix.rows, matrix.cols))
    if matrix.rows == 0:
        return Fraction(1)
    int_rows, scales = _integer_rows(matrix)
    pivots, sign = _bareiss(int_rows, matrix.cols)
    if len(pivots) < matrix.rows:
        return Fraction(0)
    det = Fraction(sign * int_rows[-1][-1])
    for s in scales:
        det /= s
    return det


def mat_kernel(matrix):
    """Basis of the right null space, as lists of Fractions.

    One vector per free (non-pivot) column, with a 1 in that coordinate and
    0 in the other free ones.  Those coordinates fix the vector, so this is
    the basis read off the reduced row echelon form, zero rows dropped.
    """
    int_rows = [row for row in _integer_rows(matrix)[0] if any(row)]
    pivots, _ = _bareiss(int_rows, matrix.cols)
    zero, one = Fraction(0), Fraction(1)
    starts = [[one if j == free else zero for j in range(matrix.cols)]
              for free in range(matrix.cols) if free not in pivots]
    return _back_substitute(int_rows, pivots, matrix.cols, starts)


def solve_linear(matrix, rhs):
    """One exact solution of M x = b, or None when b is outside the column space.

    Free variables are set to zero, so the returned solution is canonical.
    """
    if len(rhs) != matrix.rows:
        raise ValueError("rhs length %d != %d rows" % (len(rhs), matrix.rows))
    aug = QMatrix.from_rows([matrix.row(i) + [rhs[i]] for i in range(matrix.rows)])
    int_rows, _ = _integer_rows(aug)
    pivots, _ = _bareiss(int_rows, matrix.cols + 1)
    if pivots and pivots[-1] == matrix.cols:
        return None
    starts = [[Fraction(0)] * matrix.cols]
    return _back_substitute(int_rows, pivots, matrix.cols, starts,
                            [row[-1] for row in int_rows])[0]
