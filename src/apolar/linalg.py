"""Exact dense linear algebra over the rationals.

Scalars are `fractions.Fraction` (arbitrary-precision, always reduced,
positive denominator).  Every routine first scales each row to integers by
the lcm of its denominators.  Determinants, kernels and linear solves then
run one fraction-free elimination, Bareiss style, so intermediate entries
stay integral minors instead of exploding fractions; kernels and solves
back-substitute through its echelon rows.

Every rank is tried over GF(p) first (`modular`).  The rank mod p of an
integer matrix never exceeds its rank over Q, which in turn never exceeds
min(nonzero rows, nonzero columns) or a bound the caller has proved.  When
the GF(p) rank meets that bound it is the exact rank, with a proof and no
probability; otherwise Bareiss, the only elimination over Q, decides.
"""

from fractions import Fraction
from math import gcd

from . import modular


# Largest matrix (or coefficient vector) any command may build.  The
# biggest in the benchmark workloads is 495 x 495 = 245,025 entries.
MAX_ENTRIES = 10 ** 6


class NonSquareError(ValueError):
    pass


def check_entries(count, what):
    """Raise ValueError before building `what` when it would have too many entries."""
    if count > MAX_ENTRIES:
        raise ValueError("%s would have %d entries, more than the limit of %d"
                         % (what, count, MAX_ENTRIES))


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


def _rank(int_rows, bound):
    """Rank over Q of integer row lists, which are left unmutated.

    The copy without all-zero rows and columns is the one eliminated.  Its
    rational rank lies between its rank mod p and top = min(rows, cols,
    bound), so a GF(p) rank equal to top is the rank; else Bareiss decides.
    """
    cols = [j for j, column in enumerate(zip(*int_rows)) if any(column)]
    work = [[row[j] for j in cols] for row in int_rows if any(row)]
    top = min(len(work), len(cols))
    if bound is not None:
        top = min(top, bound)
    if modular.rank_mod(work) == top:
        return top
    pivots, _ = _bareiss(work, len(cols))
    return len(pivots)


def mat_rank(matrix):
    """Rank over the rationals."""
    return _rank(_integer_rows(matrix)[0], None)


def rank_int_rows(rows_of_ints, bound=None):
    """Rank of a matrix given as lists of plain integers (not mutated);
    `bound`, if given, must be a proven upper bound."""
    return _rank(rows_of_ints, bound)


def mat_det(matrix):
    """Exact determinant; raises NonSquareError for non-square input."""
    if matrix.rows != matrix.cols:
        raise NonSquareError("determinant of %d x %d matrix" % (matrix.rows, matrix.cols))
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
    the basis read off the reduced row echelon form.
    """
    int_rows, _ = _integer_rows(matrix)
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
