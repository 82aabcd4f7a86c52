"""Dense exact tensors: flattenings, minors, and the 3x3x3 slice pencil.

Entries are stored row-major with the last index fastest, so index i of
mode m lies i strides along, a stride being the product of the later
extents.  A flattening splits the modes into a left (row) and a right
(column) group; multi-indices within each group are enumerated
lexicographically with the listed modes in ascending order, which pins the
matrix layout bit for bit.  Entry (row, col) is the tensor entry at the
row's offset plus the column's, each a sum of strided indices.

For a 3x3x3 tensor with first-mode slices T0, T1, T2 the pencil is the 9x9
block matrix [[0, T0, -T1], [-T0, 0, T2], [T1, -T2, 0]], the table `_PENCIL`.
It has rank 2 on rank-one tensors and is linear in the tensor, so its rank
bounds twice the tensor rank from above and its determinant, of degree 9,
vanishes on every tensor of rank at most 4.  Expanded generically, as the
determinant of the pencil of the tensor whose entry k is variable k, it has
9216 terms.
"""

import re
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, combinations, product
from math import prod
from operator import mul

from .linalg import QMatrix, check_entries, mat_rank
from .poly import format_rational, parse_int

MAX_ORDER = 64  # modes of a tensor


def _check_order(order):
    if order > MAX_ORDER:
        raise ValueError("tensor order %d exceeds limit %d" % (order, MAX_ORDER))


class DenseTensor(namedtuple("DenseTensor", "shape entries")):
    """Dense tensor over Fractions; shape is a tuple of at most MAX_ORDER positive extents."""

    __slots__ = ()

    def __new__(cls, shape, entries):
        shape = tuple(int(d) for d in shape)
        if any(d < 1 for d in shape):
            raise ValueError("extents must be positive")
        size = check_entries(shape, "tensor")
        _check_order(len(shape))
        entries = [Fraction(e) for e in entries]
        if len(entries) != size:
            raise ValueError("expected %d entries, got %d" % (size, len(entries)))
        return super().__new__(cls, shape, entries)

    @classmethod
    def rank_one(cls, factors, coeff=1):
        """coeff * v1 (x) v2 (x) ... (x) vt for the given factor vectors."""
        shape = tuple(len(v) for v in factors)
        check_entries(shape, "rank-one tensor")
        entries = [Fraction(coeff)]
        for v in factors:
            entries = [e * Fraction(c) for e in entries for c in v]
        return cls(shape, entries)

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return DenseTensor(self.shape, [a + b for a, b in zip(self.entries, other.entries)])


def flatten(tensor, left_modes):
    """Matrix of the tensor with the given modes (1-based) indexing rows."""
    shape = tensor.shape
    order = len(shape)
    left = set(left_modes)
    if not left or any(m < 1 or m > order for m in left) or len(left) >= order:
        raise ValueError("left modes must be a nonempty proper subset of 1..%d" % order)
    # steps[m - 1]: the flat offsets i * stride of the indices i of mode m
    strides = list(accumulate(reversed(shape[1:]), mul, initial=1))[::-1]
    steps = [range(0, d * stride, stride) for d, stride in zip(shape, strides)]
    rows = [sum(index) for index in product(*(steps[m - 1] for m in sorted(left)))]
    cols = [sum(index) for index in product(*(steps[m - 1] for m in range(1, order + 1)
                                              if m not in left))]
    entries = tensor.entries
    return QMatrix.from_rows([[entries[r + c] for c in cols] for r in rows])


def multilinear_rank(tensor):
    """Ranks of the single-mode flattenings, one per mode."""
    if len(tensor.shape) < 2:
        raise ValueError("multilinear rank needs order at least 2")
    return tuple(mat_rank(flatten(tensor, [m])) for m in range(1, len(tensor.shape) + 1))


def gss_minor_test(tensor, r):
    """True iff every flattening has rank at most r.

    Equivalently all (r+1)-minors of the flattenings of every bipartition of
    the modes vanish, the Garcia-Stillman-Sturmfels equations; a necessary
    condition for the tensor to lie in the r-th secant of the rank-one locus.
    A mode of extent 1 changes no flattening and a flattening with a side of
    at most r indices passes by its shape, so neither is built: a tensor with
    at most one mode of extent > 1, order 0 or 1 say, passes for every r >= 1,
    as a vector has rank <= 1.  The bipartitions with two or more modes on each
    side add one flattening of all the entries each, sized before any is built.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    shape = tensor.shape
    size = len(tensor.entries)
    # each bipartition once, by its side holding the first mode of extent > 1
    modes = [m for m, d in enumerate(shape, 1) if d > 1]
    first, rest = tuple(modes[:1]), modes[1:]
    check_entries((max(0, (1 << len(rest)) - 1 - len(modes)), size), "flattenings")
    for k in range(len(rest)):
        for others in combinations(rest, k):
            left = first + others
            rows = prod(shape[m - 1] for m in left)
            if min(rows, size // rows) > r and mat_rank(flatten(tensor, left)) > r:
                return False
    return True


def matmul_tensor(n):
    """The bilinear map (A, B) -> AB on n x n matrices, as an n^2 cube."""
    if n < 1:
        raise ValueError("n must be at least 1")
    check_entries((n,) * 6, "matrix multiplication tensor")
    # a_ij b_jl contributes to c_il: entry (i n + j, j n + l, i n + l) is 1
    m = n * n
    entries = [0] * m ** 3
    for i, j, l in product(range(n), repeat=3):
        entries[((i * n + j) * m + j * n + l) * m + i * n + l] = 1
    return DenseTensor((m, m, m), entries)


# the pencil's 3x3 blocks, each (sign, first-mode slice); None on the diagonal
_PENCIL = (
    (None, (1, 0), (-1, 1)),
    ((-1, 0), None, (1, 2)),
    ((1, 1), (-1, 2), None),
)


def _pencil_rows(entries):
    """The 9 rows of the pencil of the tensor with these 27 flat entries: cell
    (3i + b, 3j + c) is sign * entries[9a + 3b + c] for block (i, j) = (sign, a)."""
    return [[0 if block is None else block[0] * entries[9 * block[1] + 3 * b + c]
             for block in blocks for c in range(3)]
            for blocks in _PENCIL for b in range(3)]


def strassen_matrix(tensor):
    """The 9x9 antisymmetric block pencil of a 3x3x3 tensor's slices, as a
    QMatrix; its rank and determinant come from mat_rank and mat_det."""
    if tensor.shape != (3, 3, 3):
        raise ValueError("3x3x3 tensor required, got %r" % (tensor.shape,))
    return QMatrix.from_rows(_pencil_rows(tensor.entries))


# Expanded determinant of the generic slice pencil, 27 indeterminates: terms
# map exponent tuples (indexed by flat tensor position 9a + 3b + c) to
# integer coefficients.
SymbolicDet = namedtuple("SymbolicDet", "terms term_count total_degree")


def _laplace(strips):
    """Generalized Laplace expansion by strips of rows, the lowest first.

    Each strip, and the result, maps a column set (a bit mask) to the
    nonzero minor on those columns, {packed monomial: coefficient}.  The
    running minors are popped as the next strip's level is built from them.
    """
    minors = {0: {0: 1}}
    for strip in strips:
        level = {}
        while minors:
            used, terms = minors.popitem()
            for mask, block in strip.items():
                if used & mask:
                    continue
                # (-1)^(pairs of a used column before a new one)
                flip = sum((used & (1 << c) - 1).bit_count()
                           for c in range(9) if mask >> c & 1) % 2
                out = level.setdefault(used | mask, {})
                for step, factor in block.items():
                    if flip:
                        factor = -factor
                    for mono, coeff in terms.items():
                        key = mono + step
                        total = out.get(key, 0) + factor * coeff
                        if total:
                            out[key] = total
                        elif key in out:
                            del out[key]
        minors = level
    return minors


def strassen_det_symbolic():
    """Expand the generic pencil determinant.

    Laplace expansion by the three block rows, from the last up, each a
    strip of its 3x3 minors; a diagonal block is zero, so each block row has
    20 column triples with a nonzero minor.  A monomial is an int with one
    byte per variable, variable 0 in the lowest, until the expansion is
    popped, term by term, into exponent tuples, so one copy of the 9216
    terms is live at a time.
    """
    # the generic tensor: entry k is variable k, the packed monomial 1 << 8k
    cells = [{1 << c: {abs(e): e // abs(e)} for c, e in enumerate(row) if e}
             for row in _pencil_rows([1 << 8 * k for k in range(27)])]
    blocks = [_laplace(reversed(cells[top:top + 3])) for top in (6, 3, 0)]
    _, packed = _laplace(blocks).popitem()
    terms = {}
    while packed:
        mono, coeff = packed.popitem()
        terms[tuple(mono.to_bytes(27, "little"))] = coeff
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
            factors = [_json_list(v, "each factor")
                       for v in _json_list(item["factors"], "factors")]
            # sized, and its order checked, before any coordinate is converted
            check_entries(map(len, factors), "rank-one tensor")
            _check_order(len(factors))
            factors = [[parse_rational(x) for x in v] for v in factors]
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
        return DenseTensor(shape, map(parse_rational, entries))
    raise ValueError("tensor JSON needs 'shape'+'entries' or 'rank_one_sum'")


def tensor_to_json(tensor):
    return {"shape": list(tensor.shape),
            "entries": [format_rational(e) for e in tensor.entries]}
