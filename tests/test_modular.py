"""Prime-field rank kernel: soundness and exactness against the exact rank."""

import random

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from apolar import modular
from apolar.linalg import QMatrix, mat_rank
from oracles import rank_mod_gauss


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


def test_modulus_is_the_mersenne_prime_2_31_minus_1():
    p = modular.MODULUS
    assert p == 2 ** 31 - 1  # the pivot row fold uses 2^31 = 1 mod p
    assert 46340 ** 2 < p < 46341 ** 2
    assert all(p % k for k in range(2, 46341))


def _entry(rng):
    """Small, negative, beyond 2^62 or a multiple of p, in equal shares."""
    p = modular.MODULUS
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-3, 3)
    if kind == 1:
        return rng.randint(-2 ** 64, -1)
    if kind == 2:
        return rng.randint(2 ** 62, 2 ** 70)
    return rng.randint(-5, 5) * p


@st.composite
def mixed_integer_matrices(draw):
    """Up to 9 x 9, 0 x n and n x 0 included, with rows that repeat combinations
    of earlier rows, and all-zero rows and columns."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    data = [[_entry(rng) for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.sets(st.integers(2, 8), max_size=3)):
        if i < rows:
            a, b = _entry(rng), _entry(rng)
            data[i] = [a * x + b * y for x, y in zip(data[i - 1], data[i - 2])]
    for j in draw(st.sets(st.integers(0, 8), max_size=2)):
        if j < cols:
            for row in data:
                row[j] = 0
    if rows and draw(st.booleans()):
        data[draw(st.integers(0, rows - 1))] = [0] * cols
    return data


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mixed_integer_matrices())
def test_rank_mod_equals_scalar_elimination(rows):
    assert modular.rank_mod(rows) == rank_mod_gauss(rows, modular.MODULUS)


@pytest.mark.parametrize("short, long", [(127, 130), (128, 130)])
@pytest.mark.parametrize("tall", [False, True])
def test_rank_deficient_on_either_side_of_a_slot_width_step(short, long, tall):
    # min(rows, cols) 127 packs 72-bit slots and 128 packs 80-bit slots
    p = modular.MODULUS
    rng = random.Random(short)
    data = [[_entry(rng) for _ in range(long)] for _ in range(short)]
    data[5] = [x - 7 * y for x, y in zip(data[1], data[2])]
    data[9] = [p * rng.randint(1, 9) for _ in range(long)]
    data[short - 1] = [-x for x in data[3]]
    if tall:
        data = [list(column) for column in zip(*data)]
    assert modular.reduce_matrix(data).width == (72 if short < 128 else 80)
    assert modular.rank_mod(data) == rank_mod_gauss(data, p) == short - 3
