"""Prime-field rank kernel: soundness and exactness against the exact rank."""

import random

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from apolar import modular, seeding
from apolar.linalg import QMatrix, check_entries, mat_rank
from apolar.secant import Veronese
from oracles import rank_mod_gauss

# the largest B with (2B)^4 < p: by Hadamard a minor of order k <= 4 with
# |entries| <= B is at most (B sqrt(k))^k <= (2B)^4 in absolute value
_HADAMARD_ENTRY = max(b for b in range(1, 1 << 8) if (2 * b) ** 4 < modular.MODULUS)


def rand_rows(rng, n, m, lo=-99, hi=99):
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


@st.composite
def small_rank_matrices(draw):
    """Integer matrices with |entries| <= _HADAMARD_ENTRY and min(rows, cols) <= 4."""
    short, long = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    rows, cols = (short, long) if draw(st.booleans()) else (long, short)
    entry = st.integers(-_HADAMARD_ENTRY, _HADAMARD_ENTRY)
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_rank_matrices())
def test_rank_mod_equals_exact_below_hadamard_bound(rows):
    # Every minor has order k <= 4, so |minor| <= (2 * 13)^4 = 456,976 < p =
    # 2^19 - 1: no nonzero minor vanishes mod p, and the GF(p) rank is the
    # rational rank, not just a lower bound.
    assert _HADAMARD_ENTRY == 13
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


def test_modulus_is_a_mersenne_prime_above_samples_and_admitted_exponents():
    p = modular.MODULUS
    assert p & (p + 1) == 0  # p + 1 = 2^k, and the pivot row fold uses 2^k = 1 mod p
    assert 724 ** 2 < p < 725 ** 2
    assert all(p % k for k in range(2, 725))
    # distinct coordinates sampled from [1, CHART_BOUND] stay distinct mod p
    assert p > seeding.CHART_BOUND
    # the size guard admits the degree-499999 Veronese of P^1 and refuses the
    # next, so every Jacobian factor E_v <= 499999 is a unit mod p
    def tangent_entries(d, s=1):
        spec = Veronese(1, d)  # sized only, nothing built
        return check_entries([s * spec.rows_per_point, *spec.column_counts()], "tangent")

    assert tangent_entries(499999) == 2 * 500000
    with pytest.raises(ValueError):
        tangent_entries(500000)
    assert 499999 < p


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


def _profile_entry(rng):
    """Nonzero as an integer: small, negative, in [p, 2^32), at least 2^32 or a
    multiple of p (zero mod p, so its row may join at an earlier column)."""
    p = modular.MODULUS
    return rng.choice([rng.randint(1, 9), rng.randint(-2 ** 40, -1), rng.randint(p, 2 ** 32 - 1),
                       rng.randint(2 ** 32, 2 ** 70), p * rng.randint(1, 8191)])


@st.composite
def zero_profile_matrices(draw):
    """Up to 12 x 12 rows, each nonzero only in one band of columns: staircases,
    where the row order follows the bands, and shuffled bands.  Bands include the
    first or last column alone, and rows may be all zero."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    bands = []
    for _ in range(rows):
        kind = rng.randrange(5)
        if kind == 0:
            bands.append((0, 1))
        elif kind == 1:
            bands.append((cols - 1, cols))
        elif kind == 2:
            bands.append((0, 0))
        else:
            start = rng.randrange(cols)
            bands.append((start, rng.randint(start + 1, cols)))
    # in a staircase the rows end in column order, so read from the last column
    # they join one at a time, often once every active row is a pivot
    if draw(st.booleans()):
        bands.sort(key=lambda band: (band[1], band[0]))
    return [[_profile_entry(rng) if start <= j < stop else 0 for j in range(cols)]
            for start, stop in bands]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(zero_profile_matrices())
def test_rank_mod_follows_the_zero_profile(rows):
    # rank_mod runs from the last column to the first, and a row joins at its
    # last nonzero column: rows ending early wait, and when every active row is
    # a pivot the kernel jumps to the next row still waiting
    assert modular.rank_mod(rows) == rank_mod_gauss(rows, modular.MODULUS)


@pytest.mark.parametrize("short, long", [(127, 130), (128, 130)])
@pytest.mark.parametrize("tall", [False, True])
def test_rank_deficient_on_either_side_of_a_slot_width_step(short, long, tall):
    # min(rows, cols) 127 and 128 differ in bit length, which sets the slot
    # width; both pack 48-bit slots
    p = modular.MODULUS
    rng = random.Random(short)
    data = [[_entry(rng) for _ in range(long)] for _ in range(short)]
    data[5] = [x - 7 * y for x, y in zip(data[1], data[2])]
    data[9] = [p * rng.randint(1, 9) for _ in range(long)]
    data[short - 1] = [-x for x in data[3]]
    if tall:
        data = [list(column) for column in zip(*data)]
    assert modular.reduce_matrix(data).width == 48
    assert modular.rank_mod(data) == rank_mod_gauss(data, p) == short - 3


@pytest.mark.parametrize("m, width", [
    (1, 40), (3, 40), (4, 48), (127, 48), (128, 48), (1023, 48), (1024, 56)])
def test_slot_width_steps_at_1024_pivots(m, width):
    # a slot stays below 2^19 + m * 2^37 (1 + 2^-18) < 2^(37 + bitlen m); with
    # one bit spare that is 40 bits up to m = 3, 48 up to 1023 and 56 from
    # 1024.  The m x m matrix of one shared zero row is only reduced, never
    # eliminated.
    assert modular.reduce_matrix([[0] * m] * m).width == width


@pytest.mark.parametrize("tall", [False, True])
def test_rank_of_a_mixed_trapezoid_at_realistic_size(tall):
    # 300 unit-trapezoidal rows and 40 zero rows in 320 columns have rank 300
    # over every field, and row operations with integer multipliers keep it
    p = modular.MODULUS
    rng = random.Random(300)
    rows, cols, rank = 340, 320, 300
    leads = sorted(rng.sample(range(cols), rank))
    data = [[0] * lead + [1] + [rng.randrange(p) for _ in range(cols - lead - 1)]
            for lead in leads] + [[0] * cols for _ in range(rows - rank)]
    for a in range(1, rows):  # fill column leads[0], the first pivot column
        c = rng.randrange(p)
        data[a] = [x + c * y for x, y in zip(data[a], data[0])]
    for _ in range(2 * rows):
        a, b = rng.sample(range(rows), 2)
        c = rng.randrange(p)
        data[a] = [x + c * y for x, y in zip(data[a], data[b])]
    rng.shuffle(data)
    # the first pivot clears rows with residues h below 2^18, through
    # `negative`, and at least 2^18, through `pivot`
    heads = [h for h in (row[leads[0]] % p for row in data) if h]
    assert {h >> 18 for h in heads[1:]} == {0, 1}
    if tall:
        data = [list(column) for column in zip(*data)]
    assert modular.rank_mod(data) == rank
