"""Rank over GF(p) for the one prime p = 2^31 - 1.

One numpy kernel reduces the integer matrix to int64 residues and runs
Gaussian elimination mod p on whole rows at once.  p is the largest prime
below 2^31, so every product of two residues fits in a signed 64-bit word.
Only integer entries are accepted: a rational entry raises TypeError rather
than being truncated to a wrong residue.

A rank mod p never exceeds the rational rank.  `linalg` keeps it as the
exact rank when it meets a proven upper bound, and Bareiss decides
otherwise; `--arithmetic modular` reports it as it is, a lower bound.
numpy is imported on first use, so commands that rank no large matrix
never load it.
"""

MODULUS = (1 << 31) - 1  # Mersenne prime 2^31 - 1


def reduce_matrix(rows_of_entries):
    """Reduce an integer matrix to an int64 numpy array of residues mod p."""
    import numpy as np

    a = np.array(rows_of_entries, dtype=object)
    if a.size == 0:
        return np.zeros((len(a), 0), dtype=np.int64)
    a %= MODULUS
    out = a.astype(np.int64)
    if (out != a).any():
        raise TypeError("GF(p) rank needs integer entries")
    return out


def _eliminate(a):
    """Row-reduce the residue array `a` in place; returns its rank mod p."""
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), MODULUS - 2, MODULUS)
        a[r, c:] = a[r, c:] * inv % MODULUS
        heads = a[r + 1:, c]
        if heads.size:
            a[r + 1:, c:] = (a[r + 1:, c:] - heads[:, None] * a[r, c:][None, :]) % MODULUS
        r += 1
        if r == rows:
            break
    return r


def rank_mod(rows_of_entries):
    """Rank of the integer matrix over GF(p); a lower bound for the rational rank."""
    a = reduce_matrix(rows_of_entries)
    if a.shape[0] == 0 or a.shape[1] == 0:
        return 0
    return _eliminate(a)
