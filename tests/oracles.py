"""Reference routes that tests compare the library against.

The linear-algebra routes eliminate naively over `Fraction` with rational
pivots (Gauss-Jordan), independently of the fraction-free Bareiss kernel
that `apolar.linalg` runs, or entry by entry mod p, independently of the
packed-row kernel in `apolar.modular`.  The polynomial routes multiply,
evaluate and differentiate sparse term maps {exponent tuple: coefficient}
term by term, and enumerate exponent tuples by filtering a whole box of
them, independently of the prefix-by-prefix enumerator in `apolar.poly`.  The
Segre tangent route builds rank-one tensors, independently of the Jacobian
that `apolar.secant` evaluates.  The flattening route reads a tensor entry
by entry at full multi-indices, independently of the strided offsets that
`apolar.tensor.flatten` sums.  The Sylvester route searches the annihilator
degree by degree and tests square-freeness by a resultant's value,
independently of the two ranks that `apolar.apolarity.sylvester_rank` asks.
The pencil route reads its own block table of the pencil and expands the
determinant top-down, memoizing minors on tuples of columns and monomials
as exponent tuples, independently of the table and the bottom-up,
bit-packed expansion in `apolar.tensor`.  The Terracini route
ranks every trial's exact tangent rows by Bareiss alone (`rank_int_rows`),
as exact mode did before it ranked residues mod p first.
"""

from fractions import Fraction
from itertools import product

from apolar.apolarity import RankCertificate, catalecticant, perp_piece
from apolar.linalg import QMatrix, mat_det, rank_int_rows
from apolar.poly import HomogPoly
from apolar.secant import DimReport, expected_dim, known_true_dim
from apolar.seeding import TRIALS, trial_rng
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
        raise ValueError("determinant of %d x %d matrix" % (matrix.rows, matrix.cols))
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


def sub_exponents_by_product(gamma, t):
    """Every beta <= gamma of degree t, filtered from the whole box
    product(range(g + 1) for g in gamma) and sorted largest first in
    lexicographic order, which is the graded-lex order with x0 largest."""
    return sorted((beta for beta in product(*(range(g + 1) for g in gamma))
                   if sum(beta) == t), reverse=True)


def _partial(terms, var):
    """d/dx_var of the term map {exponent tuple: coefficient}."""
    out = {}
    for mono, coeff in terms.items():
        if mono[var]:
            lower = mono[:var] + (mono[var] - 1,) + mono[var + 1:]
            out[lower] = out.get(lower, 0) + mono[var] * coeff
    return out


def catalecticant_by_partials(terms, num_vars, degree, t):
    """Row lists of the degree-t catalecticant of the term map: column beta
    is the coefficient vector of d^beta F, differentiated beta_i times in
    each variable x_i, one partial at a time."""
    rows = sub_exponents_by_product((degree - t,) * num_vars, degree - t)
    columns = []
    for beta in sub_exponents_by_product((t,) * num_vars, t):
        image = dict(terms)
        for var, times in enumerate(beta):
            for _ in range(times):
                image = _partial(image, var)
        columns.append([image.get(alpha, 0) for alpha in rows])
    return [[col[i] for col in columns] for i in range(len(rows))]


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


def flat_position(shape, multi_index):
    """Row-major position of a multi-index, the last index fastest."""
    flat = 0
    for k, d in zip(multi_index, shape, strict=True):
        assert 0 <= k < d
        flat = flat * d + k
    return flat


def flatten_by_multi_index(tensor, left_modes):
    """(rows, cols, entries) of a flattening, read entry by entry.

    Rows run lexicographically over the multi-indices of the distinct left
    modes in ascending order, columns over those of the other modes; each
    entry is the tensor's entry at the full multi-index the two make.
    """
    shape = tensor.shape
    left = sorted({m - 1 for m in left_modes})
    right = [m for m in range(len(shape)) if m not in left]
    row_idx = list(product(*(range(shape[m]) for m in left)))
    col_idx = list(product(*(range(shape[m]) for m in right)))
    entries = []
    for ri in row_idx:
        for ci in col_idx:
            full = [0] * len(shape)
            for m, k in zip(left, ri):
                full[m] = k
            for m, k in zip(right, ci):
                full[m] = k
            entries.append(tensor.entries[flat_position(shape, full)])
    return len(row_idx), len(col_idx), entries


def square_free_by_resultant(binary_form):
    """Square-freeness of a binary form: the resultant of its two partials,
    the determinant of their Sylvester matrix, is nonzero."""
    if binary_form.is_zero():
        return False
    m = binary_form.degree - 1
    if m < 1:
        return True
    cat = catalecticant(binary_form, 1).matrix
    partials = [[cat.at(i, j) for i in range(m + 1)] for j in (0, 1)]
    rows = [[0] * k + p + [0] * (m - 1 - k) for p in partials for k in range(m)]
    return mat_det(QMatrix.from_rows(rows)) != 0


def sylvester_rank_by_kernels(binary_form):
    """RankCertificate of a nonzero binary form from the first degree t = 1, 2, ...
    whose annihilator piece is nonempty: its first basis vector is the witness,
    and the rank is t when that is square-free, d + 2 - t otherwise."""
    d = binary_form.degree
    for t in range(1, d + 2):
        basis = perp_piece(binary_form, t)
        if basis:
            witness = basis[0]
            if square_free_by_resultant(witness):
                return RankCertificate(t, witness, RankCertificate.SQUARE_FREE_AT_D1)
            return RankCertificate(d + 2 - t, witness, RankCertificate.FELL_THROUGH_TO_D2)
    raise AssertionError("annihilator of a degree-%d form has a generator by degree d+1" % d)


# Strassen's pencil [[0, T0, -T1], [-T0, 0, T2], [T1, -T2, 0]] of the
# first-mode slices T_a: (block row, block col) -> (sign, a)
PENCIL_BLOCKS = {
    (0, 1): (1, 0), (0, 2): (-1, 1),
    (1, 0): (-1, 0), (1, 2): (1, 2),
    (2, 0): (1, 1), (2, 1): (-1, 2),
}


def pencil_cell(r, c):
    """Cell (r, c) of the 9x9 pencil: None in a diagonal block, else (sign,
    flat tensor position 9a + 3b + c') of the slice entry T_a[b][c'] it holds."""
    block = PENCIL_BLOCKS.get((r // 3, c // 3))
    if block is None:
        return None
    sign, a = block
    return sign, flat_position((3, 3, 3), (a, r % 3, c % 3))


def strassen_det_memoized():
    """Terms {exponent tuple: coefficient} of the generic pencil determinant,
    by cofactor expansion from the first row down, minors memoized on the
    tuple of surviving columns."""
    structure = [[pencil_cell(r, c) for c in range(9)] for r in range(9)]
    memo = {}

    def minor(cols):
        if not cols:
            return {(0,) * 27: 1}
        cached = memo.get(cols)
        if cached is not None:
            return cached
        row = structure[9 - len(cols)]
        out = {}
        for pos, c in enumerate(cols):
            cell = row[c]
            if cell is None:
                continue
            sign, var = cell
            if pos % 2:
                sign = -sign
            for mono, coeff in minor(cols[:pos] + cols[pos + 1:]).items():
                key = list(mono)
                key[var] += 1
                key = tuple(key)
                total = out.get(key, 0) + sign * coeff
                if total:
                    out[key] = total
                elif key in out:
                    del out[key]
        memo[cols] = out
        return out

    return minor(tuple(range(9)))


def exact_report_by_exact_rows(spec, s, seed):
    """The exact-mode DimReport of `secant.defect_report`, each trial ranking
    its exact tangent rows by Bareiss alone with rank_int_rows.  A trial's s
    points are distinct, or all 2^(16 dim X) points of the chart if fewer."""
    expected = expected_dim(spec, s)
    known = known_true_dim(spec, s)
    upper = expected if known is None else known
    best = -1
    for trial in range(TRIALS):
        rng = trial_rng(seed, trial)
        points = []
        while len(points) < min(s, 2 ** (16 * spec.variety_dim)):
            point = spec.sample(rng)
            if point not in points:
                points.append(point)
        best = max(best, rank_int_rows(spec.tangent_rows(points)) - 1)
        if best == upper:
            break
    return DimReport(spec=spec, computed_dim=best, expected_dim=expected,
                     defect=expected - best, certified=best == upper)
