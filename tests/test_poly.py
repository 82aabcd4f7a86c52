"""Polynomial layer: parsing, powers, and the differentiation pairing.

Derived values are checked against a brute-force differentiator that
repeatedly applies single-variable partials, independent of the
falling-factorial shortcut used by the library.
"""

import random
import tracemalloc

from fractions import Fraction
from math import factorial

import pytest

from hypothesis import example, given, settings, strategies as st

from apolar.linalg import QMatrix, mat_rank
from apolar.poly import (HomogPoly, _sub_exponents, apolar_apply, canonical_point,
                         monomial_basis, monomial_count, parse_poly, power_linear, render_poly)
from oracles import evaluate_terms, poly_product, sub_exponents_by_product


def diff_once(terms, var):
    out = {}
    for mono, c in terms.items():
        e = mono[var]
        if e:
            key = mono[:var] + (e - 1,) + mono[var + 1:]
            out[key] = out.get(key, Fraction(0)) + c * e
    return out


def apply_brute_force(op, target):
    """Oracle: apply the operator monomial by monomial via repeated partials."""
    total = {}
    for op_mono, op_coeff in op.terms.items():
        cur = dict(target.terms)
        for var, e in enumerate(op_mono):
            for _ in range(e):
                cur = diff_once(cur, var)
        for mono, c in cur.items():
            total[mono] = total.get(mono, Fraction(0)) + op_coeff * c
    return {m: c for m, c in total.items() if c != 0}


def rand_poly(rng, num_vars, degree, bound=9):
    basis = monomial_basis(num_vars, degree)
    terms = {m: rng.randint(-bound, bound) for m in basis}
    poly = HomogPoly(num_vars, degree, terms)
    if poly.is_zero():
        return HomogPoly.monomial(basis[0])
    return poly


def test_monomial_order_matches_documented_basis():
    assert monomial_basis(3, 2) == ((2, 0, 0), (1, 1, 0), (1, 0, 1),
                                    (0, 2, 0), (0, 1, 1), (0, 0, 2))


def test_monomial_basis_without_variables():
    # no variables: the empty monomial has degree 0, and no monomial has degree >= 1
    assert monomial_basis(0, 0) == ((),)
    assert monomial_basis(0, 3) == ()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 6), max_size=6).map(tuple), st.integers(0, 6))
@example((), 0)
def test_sub_exponents_match_the_box_filter(gamma, d):
    for t in range(-1, sum(gamma) + 2):
        betas = _sub_exponents(gamma, t)
        assert iter(betas) is betas   # an iterator, not a stored list
        assert list(betas) == sub_exponents_by_product(gamma, t)
    assert len(monomial_basis(len(gamma), d)) == monomial_count(len(gamma), d)


def test_monomial_basis_peak_allocation():
    # the last exponent of each monomial is generated, not stored with its
    # prefix, so the peak is 1.85 times the basis it keeps
    monomial_basis.cache_clear()
    tracemalloc.start()
    try:
        basis = monomial_basis(2, 100000)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        monomial_basis.cache_clear()
    assert len(basis) == 100001
    assert peak < 2.5 * retained


def test_parse_examples():
    f = parse_poly("x0^2*x1 + 3*x1^3", 2)
    assert f.degree == 3
    assert f.terms == {(2, 1): Fraction(1), (0, 3): Fraction(3)}
    g = parse_poly("-1/6*x0^3", 2)
    assert g.terms == {(3, 0): Fraction(-1, 6)}


def test_parse_rejects_mixed_degrees():
    with pytest.raises(ValueError, match=r"^mixed degrees \[1, 2\]$"):
        parse_poly("x0 + x1^2", 2)


def test_parse_errors():
    with pytest.raises(ValueError, match="^expected integer exponent$"):
        parse_poly("x0^", 2)
    with pytest.raises(ValueError, match=r"^expected \+ or - between terms, got 'x0'$"):
        parse_poly("2 x0", 2)  # implicit multiplication is not allowed
    with pytest.raises(ValueError, match="^variable x5 out of range for 2 variables$"):
        parse_poly("x5", 2)
    with pytest.raises(ValueError, match="^unexpected character '@' at position 3$"):
        parse_poly("x0 @ x1", 2)
    with pytest.raises(ValueError, match="^empty input$"):
        parse_poly("", 2)
    with pytest.raises(ValueError, match="^degree 65 exceeds limit 64$"):
        parse_poly("x0^65", 1)
    with pytest.raises(ValueError, match="^unexpected end of input$"):
        parse_poly("x0 +", 2)
    with pytest.raises(ValueError, match=r"^expected coefficient or variable, got '\*'$"):
        parse_poly("*x0", 2)
    with pytest.raises(ValueError, match="^expected nonzero integer denominator$"):
        parse_poly("1/0*x0", 2)
    # a bad character wins over an inferred count; a given count is checked
    # before the text is read, and an inferred one before the grammar
    with pytest.raises(ValueError, match="^unexpected character '@' at position 4$"):
        parse_poly("x20 @")
    with pytest.raises(ValueError, match=r"^number of variables must be in \[1, 16\]$"):
        parse_poly("x20 +")
    with pytest.raises(ValueError, match="^variable x5 out of range for 2 variables$"):
        parse_poly("x5 +", 2)
    with pytest.raises(ValueError, match=r"^number of variables must be in \[1, 16\]$"):
        parse_poly("@", 0)


def test_infer_num_vars():
    assert parse_poly("x0*x3^2 + x1^3").num_vars == 4


def test_power_linear_binomial():
    cube = power_linear([1, 1], 3)
    assert cube.terms == {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}
    assert power_linear([0, 1], 5) == HomogPoly.monomial((0, 5))


def test_power_linear_quadratic_coordinates():
    rng = random.Random(0)
    a, b, c = (rng.randint(1, 20) for _ in range(3))
    sq = power_linear([a, b, c], 2)
    assert sq.coeff_vector() == [a * a, 2 * a * b, 2 * a * c, b * b, 2 * b * c, c * c]


def test_power_linear_matches_repeated_multiplication():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(1, 4)
        d = rng.randint(1, 5)
        coeffs = [rng.randint(-4, 4) for _ in range(n)]
        if not any(coeffs):
            coeffs[0] = 1
        lin = HomogPoly(n, 1, {tuple(int(j == i) for j in range(n)): coeffs[i]
                               for i in range(n)})
        expected = lin
        for _ in range(d - 1):
            expected = poly_product(expected, lin)
        assert power_linear(coeffs, d) == expected


def test_apolar_factorials():
    for mono in ((2, 1, 0), (3, 0, 2), (1, 1, 1)):
        val = apolar_apply(HomogPoly.monomial(mono), HomogPoly.monomial(mono))
        want = 1
        for e in mono:
            want *= factorial(e)
        assert val.coeff((0, 0, 0)) == want


def test_apolar_annihilation_and_derived_value():
    f = parse_poly("x0*x1^2", 2)
    assert apolar_apply(HomogPoly.monomial((2, 0)), f).is_zero()
    # d^3/dx0 dx1^2 (x0 x1^2) = 2, frozen from the brute-force oracle
    val = apolar_apply(HomogPoly.monomial((1, 2)), f)
    assert val.terms == {(0, 0): Fraction(2)}
    assert apply_brute_force(HomogPoly.monomial((1, 2)), f) == {(0, 0): Fraction(2)}


def test_apolar_matches_brute_force_randomized():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(1, 3)
        d = rng.randint(1, 5)
        t = rng.randint(1, d)
        f = rand_poly(rng, n, d)
        op = rand_poly(rng, n, t)
        assert apolar_apply(op, f).terms == apply_brute_force(op, f)


def test_partials_commute():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 4)
        f = rand_poly(rng, n, rng.randint(2, 5))
        i, j = rng.sample(range(n), 2)
        yi = HomogPoly.monomial(tuple(int(k == i) for k in range(n)))
        yj = HomogPoly.monomial(tuple(int(k == j) for k in range(n)))
        assert apolar_apply(yi, apolar_apply(yj, f)) == apolar_apply(yj, apolar_apply(yi, f))


def test_apolar_on_powers_of_linear_forms():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(2, 4)
        d = rng.randint(1, 6)
        t = rng.randint(0, d)
        coeffs = [rng.randint(-5, 5) for _ in range(n)]
        if not any(coeffs):
            coeffs[0] = 1
        op = rand_poly(rng, n, t)
        power = power_linear(coeffs, d)
        image = apolar_apply(op, power)
        scalar = Fraction(factorial(d), factorial(d - t)) * evaluate_terms(op.terms, coeffs)
        if t == d:
            assert image.coeff((0,) * n) == scalar
        elif scalar == 0:
            assert image.is_zero()
        else:
            want = {m: scalar * c for m, c in power_linear(coeffs, d - t).terms.items()}
            assert image == HomogPoly(n, d - t, want)


def test_perfect_pairing_gram_matrix():
    for n in range(1, 4):
        for i in range(1, 6 - n):
            basis = monomial_basis(n + 1, i)
            gram = [[apolar_apply(HomogPoly.monomial(a),
                                  HomogPoly.monomial(b)).coeff((0,) * (n + 1))
                     for b in basis] for a in basis]
            assert mat_rank(QMatrix.from_rows(gram)) == len(basis)


@st.composite
def rational_forms(draw):
    """A form in 1-5 variables of degree 0-6 with int and p/q coefficients of
    both signs; the zero form when no term is drawn."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(0, 6))
    coeff = st.integers(-99, 99) | st.builds(Fraction, st.integers(-99, 99), st.integers(1, 99))
    return HomogPoly(n, d, draw(st.dictionaries(
        st.sampled_from(monomial_basis(n, d)), coeff, max_size=8)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rational_forms())
@example(HomogPoly(3, 2, {}))
def test_render_parse_round_trip(f):
    text = render_poly(f)
    g = parse_poly(text, f.num_vars)
    assert g == f and (f.is_zero() or g.degree == f.degree)
    used = [i for mono in f.terms for i, e in enumerate(mono) if e]
    assert parse_poly(text).num_vars == max(used, default=0) + 1


def test_canonical_point():
    assert canonical_point([0, -2, 4]) == [0, 1, -2]
    with pytest.raises(ValueError):
        canonical_point([0, 0])
