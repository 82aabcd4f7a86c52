"""Reference routes that tests compare the library against.

The linear-algebra routes eliminate naively over `Fraction` with rational
pivots (Gauss-Jordan), independently of the fraction-free Bareiss kernel
that `apolar.linalg` runs, or entry by entry mod p, independently of the
packed-row kernel in `apolar.modular`.  The polynomial routes multiply and
evaluate sparse term maps {exponent tuple: coefficient} term by term.  The
Segre tangent route builds rank-one tensors, independently of the Jacobian
that `apolar.secant` evaluates.
"""

from fractions import Fraction

from apolar.linalg import NonSquareError
from apolar.poly import HomogPoly
from apolar.tensor import DenseTensor


def _row_lists(matrix):
    return [matrix.row(i) for i in range(matrix.rows)]


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


def rank_fraction_gauss(matrix):
    """Rank by naive rational-pivot elimination (cross-check route)."""
    work = _row_lists(matrix)
    return len(_rref(work, matrix.cols))


def rank_mod_gauss(rows, p):
    """Rank mod p of integer row lists by scalar Gaussian elimination."""
    work = [[e % p for e in row] for row in rows]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][c], -1, p)
        for i in range(rank + 1, len(work)):
            f = work[i][c] * inv % p
            if f:
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def kernel_fraction_gauss(matrix):
    """Right null space basis read off the reduced row echelon form.

    One vector per free column, with a 1 in that coordinate.
    """
    work = _row_lists(matrix)
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


def solve_fraction_gauss(matrix, rhs):
    """Solution of M x = b with free variables 0, or None when inconsistent."""
    aug = [matrix.row(i) + [Fraction(rhs[i])] for i in range(matrix.rows)]
    pivots = _rref(aug, matrix.cols + 1)
    if pivots and pivots[-1] == matrix.cols:
        return None
    sol = [Fraction(0)] * matrix.cols
    for r, pc in enumerate(pivots):
        sol[pc] = aug[r][matrix.cols]
    return sol


def det_fraction_gauss(matrix):
    """Determinant by naive rational elimination (cross-check route)."""
    if matrix.rows != matrix.cols:
        raise NonSquareError("determinant of %d x %d matrix" % (matrix.rows, matrix.cols))
    n = matrix.rows
    work = _row_lists(matrix)
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


def poly_product(a, b):
    """Product of two HomogPolys in the same variables, term by term."""
    if a.num_vars != b.num_vars:
        raise ValueError("variable count mismatch")
    terms = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            terms[key] = terms.get(key, Fraction(0)) + ca * cb
    return HomogPoly(a.num_vars, a.degree + b.degree, terms)


def evaluate_terms(terms, point):
    """Value of the term map {exponent tuple: coefficient} at a point."""
    total = 0
    for mono, coeff in terms.items():
        val = coeff
        for p, e in zip(point, mono):
            if e:
                val *= p ** e
        total += val
    return total


def rank_one_tangent_rows(factors):
    """Spanning vectors of the tangent space to the Segre cone at v1 (x) ... (x) vt.

    One row per factor slot and unit vector: that factor replaced by the
    unit vector, the others kept.  Built from DenseTensor, apart from the
    secant engine's own tangent rows, so that it checks them independently.
    """
    rows = []
    for i, v in enumerate(factors):
        for b in range(len(v)):
            unit = [int(k == b) for k in range(len(v))]
            rows.append(DenseTensor.rank_one(factors[:i] + [unit] + factors[i + 1:]).entries)
    return rows
