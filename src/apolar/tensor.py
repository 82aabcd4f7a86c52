"""Dense exact tensors: flattenings, minors, and the 3x3x3 slice pencil.

Entries are stored row-major with the last index fastest, so index i of
mode m lies i strides along, a stride being the product of the later
extents.  A flattening splits the modes into a left (row) and a right
(column) group; multi-indices within each group are enumerated
lexicographically with the listed modes in ascending order, which pins the
matrix layout bit for bit.  Entry (row, col) is the tensor entry at the
row's offset plus the column's, each a sum of strided indices.

For 3x3x3 tensors the antisymmetric 9x9 pencil built from the first-mode
slices has rank 2 on rank-one tensors and is additive, so its rank bounds
twice the tensor rank from above and its determinant (degree 9, and 9216
monomials when expanded generically) vanishes on every tensor of rank at
most 4.
"""

import re
from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import product
from math import prod

from .linalg import QMatrix, check_entries, mat_rank
from .poly import format_rational, parse_int


class InvalidModeSet(ValueError):
    pass


class WrongShape(ValueError):
    pass


class DenseTensor:
    """Dense tensor over Fractions; shape is a tuple of positive extents."""

    __slots__ = ("shape", "entries")

    def __init__(self, shape, entries):
        shape = tuple(int(d) for d in shape)
        if any(d < 1 for d in shape):
            raise WrongShape("extents must be positive")
        entries = [Fraction(e) for e in entries]
        if len(entries) != prod(shape):
            raise WrongShape("expected %d entries, got %d" % (prod(shape), len(entries)))
        self.shape = shape
        self.entries = entries

    @classmethod
    def rank_one(cls, factors, coeff=1):
        """coeff * v1 (x) v2 (x) ... (x) vt for the given factor vectors."""
        check_entries(prod(len(v) for v in factors), "rank-one tensor")
        shape = tuple(len(v) for v in factors)
        entries = [Fraction(coeff)]
        for v in factors:
            entries = [e * Fraction(c) for e in entries for c in v]
        return cls(shape, entries)

    def __add__(self, other):
        if self.shape != other.shape:
            raise WrongShape("shape mismatch")
        return DenseTensor(self.shape, [a + b for a, b in zip(self.entries, other.entries)])

    def __eq__(self, other):
        return (isinstance(other, DenseTensor) and self.shape == other.shape
                and self.entries == other.entries)

    def __repr__(self):
        return "DenseTensor(shape=%r)" % (self.shape,)


def flatten(tensor, left_modes):
    """Matrix of the tensor with the given modes (1-based) indexing rows."""
    shape = tensor.shape
    order = len(shape)
    left = sorted(set(left_modes))
    if not left or any(m < 1 or m > order for m in left) or len(left) >= order:
        raise InvalidModeSet("left modes must be a nonempty proper subset of 1..%d" % order)
    # steps[m]: the flat offsets i * stride of the indices i of mode m (1-based)
    steps = {m: range(0, prod(shape[m - 1:]), prod(shape[m:])) for m in range(1, order + 1)}
    rows = [sum(index) for index in product(*(steps[m] for m in left))]
    cols = [sum(index) for index in product(*(steps[m] for m in steps if m not in left))]
    entries = tensor.entries
    return QMatrix.from_rows([[entries[r + c] for c in cols] for r in rows])


def multilinear_rank(tensor):
    """Ranks of the single-mode flattenings, one per mode."""
    if len(tensor.shape) < 2:
        raise WrongShape("multilinear rank needs order at least 2")
    return tuple(mat_rank(flatten(tensor, [m])) for m in range(1, len(tensor.shape) + 1))


def gss_minor_test(tensor, r):
    """True iff every single-mode flattening has rank at most r.

    Equivalently all (r+1)-minors of the flattenings vanish; a necessary
    condition for the tensor to lie in the r-th secant of the rank-one
    locus.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    return all(rk <= r for rk in multilinear_rank(tensor))


def matmul_tensor(n):
    """The bilinear map (A, B) -> AB on n x n matrices, as an n^2 cube."""
    if n < 1:
        raise ValueError("n must be at least 1")
    check_entries(n ** 6, "matrix multiplication tensor")
    # a_ij b_jl contributes to c_il: entry (i n + j, j n + l, i n + l) is 1
    m = n * n
    entries = [0] * m ** 3
    for i, j, l in product(range(n), repeat=3):
        entries[((i * n + j) * m + j * n + l) * m + i * n + l] = 1
    return DenseTensor((m, m, m), entries)


# block pattern: (block row, block col) -> (sign, first-mode slice)
_BLOCKS = {
    (0, 1): (1, 0), (0, 2): (-1, 1),
    (1, 0): (-1, 0), (1, 2): (1, 2),
    (2, 0): (1, 1), (2, 1): (-1, 2),
}


def _pencil_structure():
    """The 9x9 pencil, cell by cell: None for a structural zero, else
    (sign, flat tensor position 9a + 3b + c) of the entry it carries."""
    structure = []
    for r in range(9):
        row = []
        for c in range(9):
            cell = _BLOCKS.get((r // 3, c // 3))
            if cell is None:
                row.append(None)
            else:
                sign, a = cell
                row.append((sign, 9 * a + 3 * (r % 3) + (c % 3)))
        structure.append(row)
    return structure


def strassen_matrix(tensor):
    """The 9x9 antisymmetric block pencil of a 3x3x3 tensor's slices, as a
    QMatrix; its rank and determinant come from mat_rank and mat_det."""
    if tensor.shape != (3, 3, 3):
        raise WrongShape("3x3x3 tensor required, got %r" % (tensor.shape,))
    rows = [[Fraction(0) if cell is None else cell[0] * tensor.entries[cell[1]]
             for cell in row] for row in _pencil_structure()]
    return QMatrix.from_rows(rows)


# Expanded determinant of the generic slice pencil, 27 indeterminates: terms
# map exponent tuples (indexed by flat tensor position 9a + 3b + c) to
# integer coefficients.
SymbolicDet = namedtuple("SymbolicDet", "terms term_count total_degree")


@cache
def strassen_det_symbolic():
    """Expand the generic pencil determinant once; cached afterwards.

    Cofactor expansion row by row; minors are memoized on the surviving
    column set, and every block of structural zeros prunes the recursion.
    """
    structure = _pencil_structure()
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
                prev = out.get(key, 0)
                total = prev + sign * coeff
                if total:
                    out[key] = total
                elif key in out:
                    del out[key]
        memo[cols] = out
        return out

    terms = minor(tuple(range(9)))
    return SymbolicDet(terms, len(terms), max(sum(m) for m in terms))


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(value):
    """Accept int, or '-?digits' / '-?digits/digits' strings, as an exact Fraction."""
    if isinstance(value, bool):
        raise ValueError("boolean is not a tensor entry")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        num, _, den = value.partition("/")
        den = parse_int(den or "1")
        if den == 0:
            raise ValueError("tensor entry %r has a zero denominator" % value)
        return Fraction(parse_int(num), den)
    raise ValueError("tensor entries must be integers or 'p/q' strings, got %r" % (value,))


def _json_list(value, field):
    if not isinstance(value, list):
        raise ValueError("%s must be a JSON list" % field)
    return value


def tensor_from_json(obj):
    """Read a tensor from the dense or rank-one-sum JSON layouts."""
    if not isinstance(obj, dict):
        raise ValueError("tensor JSON must be an object")
    if "rank_one_sum" in obj:
        total = None
        for item in _json_list(obj["rank_one_sum"], "rank_one_sum"):
            if not isinstance(item, dict) or "factors" not in item:
                raise ValueError("rank_one_sum items must be objects with a 'factors' field")
            factors = [[parse_rational(x) for x in _json_list(v, "each factor")]
                       for v in _json_list(item["factors"], "factors")]
            coeff = parse_rational(item.get("coeff", 1))
            term = DenseTensor.rank_one(factors, coeff)
            total = term if total is None else total + term
        if total is None:
            raise ValueError("rank_one_sum must be nonempty")
        return total
    if "shape" in obj and "entries" in obj:
        shape = _json_list(obj["shape"], "shape")
        if any(isinstance(d, bool) or not isinstance(d, int) for d in shape):
            raise ValueError("shape must list integer extents")
        entries = _json_list(obj["entries"], "entries")
        return DenseTensor(shape, [parse_rational(e) for e in entries])
    raise ValueError("tensor JSON needs 'shape'+'entries' or 'rank_one_sum'")


def tensor_to_json(tensor):
    return {"shape": list(tensor.shape),
            "entries": [format_rational(e) for e in tensor.entries]}
