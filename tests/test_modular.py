"""Prime-field rank kernel: soundness and exactness against the exact rank."""

import random

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from apolar import modular
from apolar.linalg import QMatrix, mat_rank


def rand_rows(rng, n, m, lo=-99, hi=99):
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


@st.composite
def small_rank_matrices(draw):
    """Integer matrices with |entries| <= 99 and min(rows, cols) <= 4."""
    short, long = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    rows, cols = (short, long) if draw(st.booleans()) else (long, short)
    entry = st.integers(-99, 99)
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_rank_matrices())
def test_rank_mod_equals_exact_below_hadamard_bound(rows):
    # Every minor has order k <= 4, so by Hadamard |minor| <= (99 sqrt(k))^k
    # <= 198^4 = 1,536,953,616 < p = 2^31 - 1: no nonzero minor vanishes mod
    # p, and the GF(p) rank is the rational rank, not just a lower bound.
    assert modular.rank_mod(rows) == mat_rank(QMatrix.from_rows(rows))


def test_rank_mod_never_exceeds_exact():
    rng = random.Random(12)
    for _ in range(200)  :
        rows = rand_rows(rng, rng.randint(1, 7), rng.randint(1, 7))
        assert modular.rank_mod(rows) <= mat_rank(QMatrix.from_rows(rows))


def test_rank_mod_detects_char_p_degeneration():
    p = modular.MODULUS
    # both determinants equal p: singular mod p, invertible over Q
    for rows in ([[1, 1], [1, p + 1]], [[p, 0], [0, 1]]):
        assert modular.rank_mod(rows) == 1
        assert mat_rank(QMatrix.from_rows(rows)) == 2


def test_fraction_entries_rejected():
    # the matrix is singular over Q; truncating 1/2 to 0 would give rank 2
    with pytest.raises(TypeError):
        modular.rank_mod([[Fraction(1, 2), 4], [1, 8]])


def test_modulus_is_an_int64_safe_prime():
    p = modular.MODULUS
    assert p < 2 ** 31  # a product of two residues fits in a signed 64-bit word
    assert 46340 ** 2 < p < 46341 ** 2
    assert all(p % k for k in range(2, 46341))
