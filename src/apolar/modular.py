"""Rank over a prime field, as a fast probabilistic lower-bound mode.

One numpy kernel reduces the matrix to int64 residues and runs Gaussian
elimination mod p on whole rows at once.  The modulus must stay below 2^31
so that every intermediate product of two residues fits in a signed 64-bit
word.

Ranks computed here never exceed the exact rational rank, so every figure
derived from this mode is a certified lower bound and is flagged as
probabilistic by callers.
"""

import numpy as np

from fractions import Fraction

DEFAULT_MODULUS = (1 << 31) - 1  # Mersenne prime 2^31 - 1

_MAX_MODULUS = 1 << 31


def is_prime(n):
    """Deterministic Miller-Rabin, valid for every 64-bit integer."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _reduce_entry(entry, p):
    if isinstance(entry, Fraction):
        den = entry.denominator % p
        if den == 0:
            raise ZeroDivisionError("denominator divisible by modulus")
        return entry.numerator % p * pow(den, p - 2, p) % p
    return int(entry) % p


def reduce_matrix(rows_of_entries, p):
    """Entrywise reduction to an int64 numpy array of residues."""
    if p >= _MAX_MODULUS:
        raise ValueError("modulus must be below 2^31 for int64 elimination")
    data = [[_reduce_entry(e, p) for e in row] for row in rows_of_entries]
    if not data or not data[0]:
        return np.zeros((len(data), 0), dtype=np.int64)
    return np.array(data, dtype=np.int64)


def _eliminate(a, p):
    """Row-reduce the residue array `a` in place; returns its rank mod p."""
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r, c:] = a[r, c:] * inv % p
        heads = a[r + 1:, c]
        if heads.size:
            a[r + 1:, c:] = (a[r + 1:, c:] - heads[:, None] * a[r, c:][None, :]) % p
        r += 1
        if r == rows:
            break
    return r


def rank_mod(rows_of_entries, p=DEFAULT_MODULUS):
    """Rank of the matrix over GF(p); a lower bound for the rational rank."""
    if not is_prime(p):
        raise ValueError("modulus %d is not prime" % p)
    a = reduce_matrix(rows_of_entries, p)
    if a.shape[0] == 0 or a.shape[1] == 0:
        return 0
    return _eliminate(a, p)
