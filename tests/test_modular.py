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
    p = 7
    rows = [[7, 0], [0, 1]]
    assert modular.rank_mod(rows, p) == 1
    assert mat_rank(QMatrix.from_rows(rows)) == 2


def test_fraction_entries_reduce():
    p = 7
    # 1/2 = 4 mod 7; the matrix [[1/2, 4], [1, 8]] is singular mod 7 and over Q
    rows = [[Fraction(1, 2), 4], [1, 8]]
    assert modular.rank_mod(rows, p) == 1


def test_modulus_validation():
    with pytest.raises(ValueError):
        modular.rank_mod([[1]], 10)
    with pytest.raises(ValueError):
        modular.rank_mod([[1]], (1 << 31) + 11)  # beyond the int64-safe range


def test_is_prime():
    assert modular.is_prime(2)
    assert modular.is_prime((1 << 31) - 1)
    assert not modular.is_prime(1)
    assert not modular.is_prime((1 << 31) - 3)
    assert modular.is_prime(999999937)
