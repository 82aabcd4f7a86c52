"""Secant dimension engines, expected dimensions, and the generic rank map."""

import random
import tracemalloc

from math import comb, prod
from types import SimpleNamespace

import pytest

from hypothesis import example, given, settings, strategies as st

from apolar import linalg, modular, secant
from apolar.linalg import QMatrix, check_entries, rank_int_rows
from apolar.poly import HomogPoly, apolar_apply, monomial_basis
from apolar.secant import (Segre, Veronese, big_waring_g, defect_report,
                           expected_dim, terracini_dim_segre,
                           terracini_dim_veronese)
from apolar.seeding import random_point, trial_rng
from oracles import (evaluate_terms, exact_report_by_exact_rows, rank_fraction_gauss,
                     rank_one_tangent_rows)


def test_ambient_and_variety_dims():
    v = Veronese(2, 4)
    assert v.ambient_dim == 14 and v.variety_dim == 2
    s = Segre((1, 1, 1, 1))
    assert s.ambient_dim == 15 and s.variety_dim == 4


_SPECS = (st.builds(Veronese, st.integers(1, 40), st.integers(1, 40))
          | st.builds(Segre, st.lists(st.integers(1, 60), min_size=1, max_size=5).map(tuple)))


def columns_up_to_limit(spec, limit):
    """ambient_dim + 1, or None once past limit.  Each block's C(c - 1 + k, k)
    grows with k = 0..d, so C(2 * 10^6, 10^6), whose comb takes tens of seconds,
    is never finished."""
    total = 1
    for c, d in spec.blocks:
        count = 1
        for k in range(1, d + 1):
            count = count * (c - 1 + k) // k
            if total * count > limit:
                return None
        total *= count
    return total


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_SPECS)
@example(Veronese(100, 100))
@example(Veronese(10 ** 6, 10 ** 6))
def test_tangent_check_is_the_column_count_or_raises(spec):
    # the tangent matrix has one column per coordinate of the ambient space;
    # the two examples count a block as 2^64, a lower bound, without comb
    columns = columns_up_to_limit(spec, 10 ** 6)
    if columns is not None:
        assert columns == spec.ambient_dim + 1
        assert check_entries(spec.column_counts(), "tangent matrix") == columns
    else:
        with pytest.raises(ValueError, match="^tangent matrix would have more than "
                                             "the limit of 1000000 entries$"):
            check_entries(spec.column_counts(), "tangent matrix")


def test_specs_validate_and_compare_by_value():
    # specs are records: built positionally or by keyword, equal by value,
    # and rejected on construction when a dimension or degree is below 1
    assert Veronese(n=2, d=4) == Veronese(2, 4) != Veronese(2, 3)
    assert Segre(dims=(1, 2)) == Segre((1, 2)) != Segre((2, 1))
    assert (Veronese(2, 4).n, Veronese(2, 4).d, Segre((1, 2)).dims) == (2, 4, (1, 2))
    for build, args in ((Veronese, (0, 2)), (Veronese, (2, 0)), (Segre, ((),)),
                        (Segre, ((1, 0),))):
        with pytest.raises(ValueError):
            build(*args)


def test_segre_dims_given_as_a_list_are_kept_as_a_tuple():
    # the defective-case table is keyed by the dims tuple: a list once built a
    # spec whose report raised TypeError (unhashable type: 'list')
    for dims, s in (([1, 1], 2), ([1, 1, 1, 1], 3)):
        spec = Segre(dims)
        assert spec == Segre(tuple(dims)) and type(spec.dims) is tuple
        assert defect_report(spec, s) == defect_report(Segre(tuple(dims)), s)
    assert defect_report(Segre([1, 1, 1, 1]), 3).computed_dim == 13


def test_veronese_tangent_rows_examples():
    # row i: the x_i-partials of the graded-lex monomials at the point
    got = Veronese(2, 2).tangent_rows([[1, 0, 0]])
    assert got == [[2, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]]
    assert Veronese(1, 1).tangent_rows([[1, 2]]) == [[1, 0], [0, 1]]


def test_veronese_tangent_rows_span_dimension():
    rng = random.Random(5)
    for _ in range(10):
        coeffs = [rng.randint(1, 50) for _ in range(4)]
        assert rank_int_rows(Veronese(3, 4).tangent_rows([coeffs])) == 4


def veronese_tangent_oracle(n, d, point):
    """Row i: the x_i-derivative of each degree-d monomial, by apolar_apply, at the point."""
    rows = []
    for i in range(n + 1):
        partial = HomogPoly.monomial([int(k == i) for k in range(n + 1)])
        rows.append([evaluate_terms(apolar_apply(partial, HomogPoly.monomial(m)).terms, point)
                     for m in monomial_basis(n + 1, d)])
    return rows


# coordinates include 0 and negatives: the Jacobian must not divide by them
_COORD = st.integers(-3, 5)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_tangent_rows_match_oracles(data):
    # exact rows equal the oracle's; with the modulus, rows of residues
    # equal the oracle's rows reduced mod p, negative coordinates included
    if data.draw(st.booleans()):
        n, d = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
        points = data.draw(st.lists(st.lists(_COORD, min_size=n + 1, max_size=n + 1),
                                    min_size=1, max_size=3))
        want = [row for pt in points for row in veronese_tangent_oracle(n, d, pt)]
        spec = Veronese(n, d)
    else:
        dims = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
        factors = data.draw(st.lists(
            st.tuples(*(st.lists(_COORD, min_size=m + 1, max_size=m + 1) for m in dims)),
            min_size=1, max_size=3))
        points = [[x for v in f for x in v] for f in factors]
        want = [row for f in factors for row in rank_one_tangent_rows(list(f))]
        spec = Segre(dims)
    assert spec.tangent_rows(points) == want
    residues = spec.tangent_rows(points, modular.MODULUS)
    assert [list(row) for row in residues] == [[e % modular.MODULUS for e in row]
                                               for row in want]


@pytest.mark.parametrize("blocks", [((2, 1),), ((3, 4),), ((5, 6),), ((5, 8),),
                                    ((2, 1), (2, 1)), ((3, 1), (4, 1), (4, 1)),
                                    ((2, 1), (3, 1), (2, 1), (5, 1))])
def test_tangent_rows_evaluate_each_lowered_monomial_once(blocks, monkeypatch):
    # each distinct x^(E - e_v) is one prod per point, however many entries
    # share it: the monomials of degree d - 1 for a Veronese, one coordinate
    # from every block but one for a Segre
    if len(blocks) == 1:
        (c, d), = blocks
        spec, lowered = Veronese(c - 1, d), comb(c + d - 2, d - 1)
    else:
        spec = Segre(tuple(c - 1 for c, _ in blocks))
        lowered = sum(prod(c for c, _ in blocks) // c for c, _ in blocks)
    rng = random.Random(7)
    points = [spec.sample(rng) for _ in range(3)]
    calls = []
    monkeypatch.setattr(secant, "prod", lambda xs: calls.append(1) or prod(xs))

    def prods(pts, modulus):
        calls.clear()
        spec.tangent_rows(pts, modulus)
        return len(calls)

    for modulus in (None, modular.MODULUS):
        # with no point, only the column count calls prod
        assert prods(points, modulus) - prods([], modulus) == lowered * len(points)


def test_sample_concatenates_affine_charts():
    rng = random.Random(4)
    point = Segre((1, 2)).sample(random.Random(4))
    assert point == random_point(rng, 2) + random_point(rng, 3)
    assert point[1] == point[4] == 1


def test_expected_dim_examples():
    assert expected_dim(Veronese(2, 2), 2) == 5
    assert expected_dim(Veronese(2, 2), 1) == 2
    assert expected_dim(Segre((1, 1, 1)), 1) == 3
    # honest parameter count: 3 * 4 + 2 = 14, capped by the ambient 15
    assert expected_dim(Segre((1, 1, 1, 1)), 3) == 14
    with pytest.raises(ValueError):
        expected_dim(Veronese(1, 1), 0)


def test_veronese_dimensions_small():
    assert terracini_dim_veronese(2, 2, 2, seed=0).computed_dim == 4
    assert terracini_dim_veronese(1, 3, 2, seed=0).computed_dim == 3
    assert terracini_dim_veronese(2, 4, 5, seed=0).computed_dim == 13


def test_segre_dimensions_small():
    assert terracini_dim_segre((1, 1, 1), 2, seed=0).computed_dim == 7
    report = terracini_dim_segre((1, 1, 1, 1), 3, seed=0)
    # the four-factor product of lines is honestly defective here: three
    # distinct flattening determinants vanish, so the dimension is 13
    assert report.computed_dim == 13
    assert report.defect == 1
    assert report.certified


def test_defect_reports():
    r = defect_report(Veronese(2, 2), 2, seed=0)
    assert (r.computed_dim, r.expected_dim, r.defect) == (4, 5, 1)
    assert r.certified
    r = defect_report(Veronese(3, 2), 2, seed=0)
    assert (r.computed_dim, r.expected_dim, r.defect) == (6, 7, 1)
    r = defect_report(Segre((1, 1, 1)), 2, seed=0)
    assert r.defect == 0 and r.certified


def test_big_waring_g():
    assert big_waring_g(2, 4) == 6
    assert big_waring_g(3, 4) == 10
    assert big_waring_g(4, 3) == 8
    assert big_waring_g(4, 4) == 15
    assert big_waring_g(1, 3) == 2
    for n in range(1, 6):
        assert big_waring_g(n, 2) == n + 1
    for d in range(1, 10):
        assert big_waring_g(1, d) == (d + 2) // 2
    with pytest.raises(ValueError):
        big_waring_g(0, 3)
    # g is printed in decimal: one with more digits than str() converts is
    # rejected before C(n + d, n), which takes 43 s to build here
    with pytest.raises(ValueError, match="more than 4300 digits"):
        big_waring_g(10 ** 6, 10 ** 6)
    assert big_waring_g(10 ** 18, 3) == 166666666666666667500000000000000001


def test_monotonicity_in_s():
    prev = -1
    for s in range(1, 7):
        cur = terracini_dim_veronese(2, 3, s, seed=5).computed_dim
        if prev >= 0:
            assert prev <= cur <= prev + 3
        assert cur <= expected_dim(Veronese(2, 3), s)
        prev = cur


def test_quadric_veronese_rank_stratification():
    for n in range(1, 5):
        for s in range(1, n + 2):
            want = comb(n + 2, 2) - comb(n + 2 - s, 2) - 1
            got = terracini_dim_veronese(n, 2, s, seed=1).computed_dim
            assert got == want


_SMALL_SPECS = st.one_of(
    st.builds(Veronese, st.integers(1, 2), st.integers(1, 4)),
    st.builds(Segre, st.lists(st.integers(1, 2), min_size=1, max_size=3).map(tuple)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_SMALL_SPECS, st.integers(1, 5), st.integers(0, (1 << 64) - 1))
def test_report_keeps_the_best_of_all_trials(spec, s, seed):
    # a trial that meets the expected dimension ends the loop; no later
    # trial could have done better
    ranks = []
    for trial in range(secant.TRIALS):
        rng = trial_rng(seed, trial)
        rows = spec.tangent_rows([spec.sample(rng) for _ in range(s)])
        ranks.append(rank_fraction_gauss(QMatrix.from_rows(rows)))
    assert defect_report(spec, s, seed).computed_dim == max(ranks) - 1


@pytest.mark.parametrize("arithmetic", [secant.EXACT, secant.MODULAR])
def test_trials_stop_at_the_expected_dimension(arithmetic, monkeypatch):
    # the loop stops once a trial meets the proven upper bound: the expected
    # dimension, or the tabulated one of a classified defective case.  Each
    # trial makes one GF(p) rank call, seen through the `modular` that secant
    # holds; exact mode builds exact rows only for a trial short of the bound,
    # and rank_int_rows ranks them by Bareiss alone.
    calls, exact_calls = [], []
    rank_mod, rank_exact = modular.rank_mod, secant.rank_int_rows
    monkeypatch.setattr(secant, "modular", SimpleNamespace(
        MODULUS=modular.MODULUS, rank_mod=lambda rows: calls.append(1) or rank_mod(rows)))
    monkeypatch.setattr(secant, "rank_int_rows",
                        lambda rows: exact_calls.append(1) or rank_exact(rows))
    exact = 1 if arithmetic == secant.EXACT else 0
    # Segre (1,1,1), s=2 meets its expected dimension 7 at the first sample
    assert defect_report(Segre((1, 1, 1)), 2, arithmetic=arithmetic).defect == 0
    assert (len(calls), len(exact_calls)) == (1, 0)
    # Veronese (2,4), s=5 is defective and meets its tabulated 13 at once
    report = defect_report(Veronese(2, 4), 5, arithmetic=arithmetic)
    assert (report.defect, report.certified) == (1, True)
    assert (len(calls), len(exact_calls)) == (2, 0)
    # Segre (1,1,3), s=3 is defective but untabulated: no sample can meet 15
    report = defect_report(Segre((1, 1, 3)), 3, arithmetic=arithmetic)
    assert (report.computed_dim, report.certified) == (14, False)
    assert len(calls) == 2 + secant.TRIALS == 5
    assert len(exact_calls) == exact * secant.TRIALS


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_SMALL_SPECS, st.integers(1, 5), st.integers(0, (1 << 64) - 1))
def test_exact_report_matches_the_exact_row_loop(spec, s, seed):
    # residues first, exact rows on a shortfall: the same report as ranking
    # every trial's exact rows.  A GF(p) rank one short forces the fallback
    # on every trial, and Bareiss still gives the exact ranks.
    want = exact_report_by_exact_rows(spec, s, seed)
    assert defect_report(spec, s, seed) == want
    mod_calls, exact_calls = [], []
    rank_mod, rank_exact = modular.rank_mod, secant.rank_int_rows
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modular, "rank_mod", lambda rows: mod_calls.append(1) or rank_mod(rows) - 1)
        patch.setattr(secant, "rank_int_rows",
                      lambda rows: exact_calls.append(1) or rank_exact(rows))
        assert defect_report(spec, s, seed) == want
    # one GF(p) call per trial, on residues; rank_int_rows makes none
    assert exact_calls and len(mod_calls) == len(exact_calls)


@pytest.mark.parametrize("arithmetic, bareiss_calls", [(secant.EXACT, 3), (secant.MODULAR, 0)])
def test_shortfall_runs_one_gfp_elimination_per_trial(arithmetic, bareiss_calls, monkeypatch):
    # Segre (1,1,3), s=3 is defective but untabulated, so all three trials fall
    # short of 15 + 1: each is ranked once over GF(p), and exact mode adds one
    # Bareiss elimination of its exact rows, with no second GF(p) attempt
    mod_calls, exact_calls = [], []
    rank_mod, bareiss = modular.rank_mod, linalg._bareiss
    monkeypatch.setattr(modular, "rank_mod", lambda rows: mod_calls.append(1) or rank_mod(rows))
    monkeypatch.setattr(linalg, "_bareiss",
                        lambda rows, cols: exact_calls.append(1) or bareiss(rows, cols))
    report = defect_report(Segre((1, 1, 3)), 3, arithmetic=arithmetic)
    assert (report.computed_dim, report.certified) == (14, False)
    assert (len(mod_calls), len(exact_calls)) == (3, bareiss_calls)


@pytest.mark.parametrize("arithmetic", [secant.EXACT, secant.MODULAR])
def test_repeated_point_is_drawn_again(arithmetic, monkeypatch):
    # 200 points on the degree-399 rational normal curve: at seed 0, trial 0
    # draws only 198 distinct ones, whose rows span at most 396 < 399 + 1.
    # Drawing again on a repeat, 200 distinct points certify it with one
    # GF(p) rank.
    spec = Veronese(1, 399)
    rng = trial_rng(0, 0)
    assert len({tuple(spec.sample(rng)) for _ in range(200)}) < 200
    mod_calls = []
    rank_mod = modular.rank_mod

    def refuse(rows):
        raise AssertionError("exact rows ranked")

    monkeypatch.setattr(modular, "rank_mod", lambda rows: mod_calls.append(1) or rank_mod(rows))
    monkeypatch.setattr(secant, "rank_int_rows", refuse)
    report = defect_report(spec, 200, seed=0, arithmetic=arithmetic)
    assert (report.computed_dim, report.certified) == (399, True)
    assert len(mod_calls) == 1


def test_sample_larger_than_the_chart_takes_the_whole_chart(monkeypatch):
    # the chart of P^1 has 2^16 points, fewer than s = 70000: a trial stops
    # drawing once it has all of them, which already span every tangent row
    drawn = []
    tangent_rows = secant._MonomialMap.tangent_rows

    def spy(self, points, modulus=None):
        drawn.append(points)
        return tangent_rows(self, points, modulus)

    monkeypatch.setattr(secant._MonomialMap, "tangent_rows", spy)
    report = defect_report(Veronese(1, 1), 70000)
    assert (report.computed_dim, report.certified) == (1, True)
    assert len(drawn) == 1
    assert len(set(map(tuple, drawn[0]))) == len(drawn[0]) == 1 << 16


@pytest.mark.parametrize("arithmetic", [secant.EXACT, secant.MODULAR])
def test_huge_degree_veronese_ranks_residues_only(arithmetic, monkeypatch):
    # a 2 x 2001 tangent matrix whose exact entries run to 2000 * 16 bits:
    # every entry ranked is a residue, and no exact row is built
    largest = []
    rank_mod = modular.rank_mod

    def spy(rows):
        largest.append(max(max(row) for row in rows))
        return rank_mod(rows)

    def refuse(*args):
        raise AssertionError("exact rows ranked")

    monkeypatch.setattr(modular, "rank_mod", spy)
    monkeypatch.setattr(secant, "rank_int_rows", refuse)
    report = defect_report(Veronese(1, 2000), 1, arithmetic=arithmetic)
    assert (report.computed_dim, report.certified) == (1, True)
    assert len(largest) == 1 and largest[0] < modular.MODULUS


@pytest.mark.parametrize("arithmetic", [secant.EXACT, secant.MODULAR])
def test_certified_report_peak_allocation(arithmetic):
    # Veronese (4,6), s=42: 210 x 210 tangent rows of residues, 4 bytes
    # each, where exact rows of ints up to 83 bits traced 2.1 MB or more
    spec = Veronese(4, 6)
    tracemalloc.start()
    try:
        report = defect_report(spec, 42, arithmetic=arithmetic)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.certified
    assert peak < 1.2e6


def test_report_keeps_the_largest_rank(monkeypatch):
    # a special sample can rank below a later one; the largest rank counts
    ranks = iter([13, 15, 14])
    monkeypatch.setattr(secant, "rank_int_rows", lambda rows: next(ranks))
    assert defect_report(Segre((1, 1, 3)), 3).computed_dim == 14


def test_determinism_given_seed():
    a = terracini_dim_segre((2, 2), 3, seed=1234)
    b = terracini_dim_segre((2, 2), 3, seed=1234)
    assert a == b


def test_modular_mode_never_exceeds_exact():
    for (n, d, s) in [(2, 3, 4), (3, 2, 2), (2, 4, 5)]:
        exact = terracini_dim_veronese(n, d, s, seed=3).computed_dim
        modular = terracini_dim_veronese(n, d, s, seed=3,
                                         arithmetic=secant.MODULAR).computed_dim
        assert modular <= exact
    for (dims, s) in [((1, 1, 1), 2), ((2, 2), 3)]:
        exact = terracini_dim_segre(dims, s, seed=3).computed_dim
        modular = terracini_dim_segre(dims, s, seed=3,
                                      arithmetic=secant.MODULAR).computed_dim
        assert modular <= exact


def test_fill_threshold_matches_generic_rank_small():
    for n in range(1, 3):
        for d in range(2, 4):
            g = big_waring_g(n, d)
            ambient = Veronese(n, d).ambient_dim
            assert terracini_dim_veronese(n, d, g, seed=7).computed_dim == ambient
            if g > 1:
                below = terracini_dim_veronese(n, d, g - 1, seed=7).computed_dim
                assert below < ambient


def _table_cases():
    """Every (spec, s) that known_true_dim tabulates, quadrics up to n = 4."""
    for (n, d), g in secant._BIG_WARING_EXCEPTIONS.items():
        yield Veronese(n, d), g - 1
    for dims, s in secant._SEGRE_DEFECTIVE:
        yield Segre(dims), s
    for n in range(1, 5):
        for s in range(1, n + 1):
            yield Veronese(n, 2), s


@pytest.mark.parametrize("spec, s", list(_table_cases()), ids=repr)
def test_known_true_dim_has_an_exact_witness(spec, s):
    # defect_report stops at, and certifies, the tabulated value: a sample
    # whose rank - 1 reaches it shows the entry is not below the dimension
    rng = random.Random(1)
    points = [[rng.randint(-9, 9) for _ in range(spec.rows_per_point)] for _ in range(s)]
    rows = spec.tangent_rows(points)
    assert rank_fraction_gauss(QMatrix.from_rows(rows)) - 1 == secant.known_true_dim(spec, s)


def test_known_true_dim_table():
    assert secant.known_true_dim(Veronese(2, 4), 5) == 13
    assert secant.known_true_dim(Veronese(4, 3), 7) == 33
    assert secant.known_true_dim(Segre((1, 1, 1, 1)), 3) == 13
    assert secant.known_true_dim(Veronese(3, 2), 2) == 6
    assert secant.known_true_dim(Veronese(3, 4), 9) == 33
    assert secant.known_true_dim(Veronese(4, 4), 14) == 68
    assert secant.known_true_dim(Veronese(2, 4), 4) is None
    assert secant.known_true_dim(Veronese(2, 4), 6) is None
