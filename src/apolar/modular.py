"""Rank over GF(p) for the one prime p = 2^31 - 1, in pure Python.

Each row of residues is packed into one int, a fixed-width slot per column,
so clearing a column below the pivot is one big-int multiply-add per row,
`row += (p - h) * pivot`, and slots are wide enough that none carries into
the next.  As p is a Mersenne prime, 2^31 = 1 mod p: a fold that adds each
slot's bits above the 31st to its low 31 bits shrinks every slot of the
pivot row at once and keeps its residue.  Only integer entries are
accepted: a rational entry raises TypeError rather than being truncated.

A rank mod p never exceeds the rational rank.  `linalg` keeps it as the
exact rank when it meets a proven upper bound, and Bareiss decides
otherwise; `--arithmetic modular` reports it as it is, a lower bound.
"""

from collections import namedtuple
from struct import Struct, error as StructError

MODULUS = (1 << 31) - 1  # Mersenne prime 2^31 - 1

# rows[i] holds the residue of entry (i, j) in bits [j * width, (j + 1) * width)
Packed = namedtuple("Packed", "rows cols width size")


def reduce_matrix(rows_of_entries):
    """Reduce an integer matrix to packed rows of residues mod p."""
    rows = len(rows_of_entries)
    cols = len(rows_of_entries[0]) if rows else 0
    if not cols:
        return Packed([], 0, 0, 0)
    # a slot holds a residue plus at most min(rows, cols) products below p * 2^32
    width = 8 * -(-(65 + min(rows, cols).bit_length()) // 8)
    pack = Struct("<" + "I%dx" % (width // 8 - 4) * cols).pack
    try:
        packed = [int.from_bytes(pack(*[e % MODULUS for e in row]), "little")
                  for row in rows_of_entries]
    except StructError:
        raise TypeError("GF(p) rank needs integer entries") from None
    return Packed(packed, cols, width, rows * cols)


def rank_mod(rows_of_entries):
    """Rank of the integer matrix over GF(p); a lower bound for the rational rank."""
    rows, cols, width, _ = reduce_matrix(rows_of_entries)
    if not rows:
        return 0
    low, high = (int.from_bytes(mask.to_bytes(width // 8, "little") * cols, "little")
                 for mask in (MODULUS, (1 << width - 31) - 1))

    def fold(x):
        return (x & low) + ((x >> 31) & high)

    rank = 0
    for c in range(cols):
        if c and not c % 16:  # drop dead low slots, so reading a slot stays cheap
            rows = [row >> 16 * width for row in rows]
        shift = c % 16 * width
        below = (1 << shift + width) - 1
        for i, row in enumerate(rows):
            if ((row & below) >> shift) % MODULUS:
                break
        else:
            continue
        # Two folds take each pivot slot below 2^31 + 2^(width-61), scaling keeps
        # it below 2^63, and two more leave it <= 2^31 + 1, the leading one 1 mod p.
        pivot = fold(fold(rows.pop(i)))
        pivot = fold(fold(pivot * pow((pivot & below) >> shift, MODULUS - 2, MODULUS)))
        rank += 1
        for i, row in enumerate(rows):
            h = ((row & below) >> shift) % MODULUS
            if h:
                rows[i] = row + (MODULUS - h) * pivot
        if not rows:
            break
    return rank
