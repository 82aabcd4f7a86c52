"""Reference routes for exact rank and determinant that tests compare against.

Both eliminate naively over `Fraction` with rational pivots, independently
of the fraction-free Bareiss kernel that `apolar.linalg` runs.
"""

from fractions import Fraction

from apolar.linalg import NonSquareError, _rref


def rank_fraction_gauss(matrix):
    """Rank by naive rational-pivot elimination (cross-check route)."""
    work = matrix.row_lists()
    return len(_rref(work, matrix.cols))


def det_fraction_gauss(matrix):
    """Determinant by naive rational elimination (cross-check route)."""
    if matrix.rows != matrix.cols:
        raise NonSquareError("determinant of %d x %d matrix" % (matrix.rows, matrix.cols))
    n = matrix.rows
    work = matrix.row_lists()
    det = Fraction(1)
    for c in range(n):
        piv = -1
        for i in range(c, n):
            if work[i][c] != 0:
                piv = i
                break
        if piv < 0:
            return Fraction(0)
        if piv != c:
            work[piv], work[c] = work[c], work[piv]
            det = -det
        det *= work[c][c]
        inv = Fraction(1) / work[c][c]
        for i in range(c + 1, n):
            if work[i][c] != 0:
                f = work[i][c] * inv
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    return det
