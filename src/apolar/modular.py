"""Rank over GF(p) for the one prime p = 2^k - 1, k = 19, in pure Python.

Each row of residues is packed into one int, a fixed-width slot per column
of w = 8 * ceil((2k + bitlen m) / 8) bits for m = min(rows, cols) (48 bits
from 4 to 1023 pivots), column 0 in the top slot and the last column in the
bottom one, so clearing a column below the pivot is one big-int multiply-add
per row, by a multiplier of one CPython digit: h times the pivot row negated
when h < 2^(k-1), else (p - h) times the pivot row.  No slot carries into
the next.  As p is a Mersenne prime, 2^k = 1 mod p: a fold that adds each
slot's bits above the k-th to its low k bits shrinks every slot of the pivot
row at once and keeps its residue.  Only integer entries are accepted: a
rational entry raises TypeError, not truncation.

Elimination runs from the bottom slot up, the last column first.  A row joins
the active rows at its lowest nonzero slot, its last nonzero column; until
then it is neither scanned nor shifted, and when no row is active the kernel
jumps to the slot of the next waiting row.  Tangent rows of a Veronese have
zeros on every monomial free of their variable, the last columns in
graded-lex order, so most of them join late.  Active rows keep their original
order and each column's pivot is the earliest one nonzero there mod p, which
is the earliest row of the matrix nonzero there.  So every row stays its
original plus multiples of earlier rows, and the pivot rows are the greedy row
basis: the rows independent of the rows before them.

p is the smallest Mersenne prime above 2^16, the range of sampled
coordinates, so distinct sample points stay distinct mod p, and above every
exponent of a Veronese of P^1 that the size guard admits, so every Jacobian
factor is a unit mod p.

A rank mod p never exceeds the rational rank.  `linalg.mat_rank` proves it
exact when it meets min(rows, cols), `secant.defect_report` when it meets the
bound + 1; `--arithmetic modular` reports it as it is, a lower bound.
"""

from bisect import bisect
from collections import namedtuple
from struct import Struct, error as StructError

MODULUS = (1 << 19) - 1  # Mersenne prime 2^19 - 1
_K = MODULUS.bit_length()  # 2^k = 1 mod p

# rows[i] holds the residue of entry (i, j) in slot cols - 1 - j:
# bits [(cols - 1 - j) * width, (cols - j) * width)
Packed = namedtuple("Packed", "rows cols width size")


def reduce_matrix(rows_of_entries):
    """Reduce an integer matrix to packed rows of residues mod p."""
    rows = len(rows_of_entries)
    cols = len(rows_of_entries[0]) if rows else 0
    if not cols:
        return Packed([], 0, 0, 0)
    # a residue plus m = min(rows, cols) updates below 2^(2k-1) (1 + 2^(1-k))
    # each stays below 2^(2k + bitlen m), with one bit spare
    width = 8 * -(-(2 * _K + min(rows, cols).bit_length()) // 8)
    pack = Struct(">" + "%dxI" % (width // 8 - 4) * cols).pack
    try:
        packed = [int.from_bytes(pack(*[e % MODULUS for e in row]), "big")
                  for row in rows_of_entries]
    except StructError:
        raise TypeError("GF(p) rank needs integer entries") from None
    return Packed(packed, cols, width, rows * cols)


def rank_mod(rows_of_entries):
    """Rank of the integer matrix over GF(p); a lower bound for the rational rank."""
    packed, cols, width, _ = reduce_matrix(rows_of_entries)
    if not packed:
        return 0
    low, high = (int.from_bytes(mask.to_bytes(width // 8, "little") * cols, "little")
                 for mask in (MODULUS, (1 << width - _K) - 1))

    def fold(x):
        return (x & low) + ((x >> _K) & high)

    # original indices and rows of the active rows, in that order: at first the
    # rows nonzero in the last column
    bottom = (1 << width) - 1
    order = [i for i, row in enumerate(packed) if row & bottom]
    rows = [packed[i] for i in order]
    # (lowest nonzero slot, index, row) of each other nonzero row, to be popped in order
    pending = sorted(((((row & -row).bit_length() - 1) // width, i, row)
                      for i, row in enumerate(packed) if row and not row & bottom), reverse=True)
    del packed  # a row is held once: waiting, then shifted among the active rows
    rank = c = base = 0  # at slot c; the active rows have dropped their lowest base slots
    while c < cols and (rows or pending):
        if not rows:
            c = pending[-1][0]
        if c - base >= 16:  # drop dead low slots, so reading a slot stays cheap
            for at, row in enumerate(rows):
                rows[at] = row >> (c - base) * width
            base = c
        while pending and pending[-1][0] == c:
            _, i, row = pending.pop()
            at = bisect(order, i)
            order.insert(at, i)
            rows.insert(at, row >> base * width)
        shift = (c - base) * width
        below = (1 << shift + width) - 1
        c += 1
        for at, row in enumerate(rows):
            if ((row & below) >> shift) % MODULUS:
                break
        else:
            continue
        del order[at]
        # Two folds take each slot below 2^k + 2^(w-2k) + 1, scaling by a residue
        # keeps it below 2^(2k+1) <= 2^w (as w <= 3k for every m < 2^18), and two
        # more leave it <= 2^k + 1, leading 1 mod p (-1 in `negative`).  So an
        # update by a multiplier below 2^(k-1) adds below 2^(2k-1) (1 + 2^(1-k)).
        pivot = fold(fold(rows.pop(at)))
        pivot = fold(fold(pivot * pow((pivot & below) >> shift, MODULUS - 2, MODULUS)))
        negative = fold(fold(pivot * (MODULUS - 1)))
        rank += 1
        for at, row in enumerate(rows):
            h = ((row & below) >> shift) % MODULUS
            if h >> _K - 1:
                rows[at] = row + (MODULUS - h) * pivot
            elif h:
                rows[at] = row + h * negative
    return rank
