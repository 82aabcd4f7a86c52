"""Catalecticants, annihilator ideals, Hilbert functions and Waring ranks.

Every graded piece of the annihilator of a form F is the kernel of a
catalecticant matrix: the matrix of the map sending a degree-t operator to
its derivative of F, written in the graded-lex monomial bases on both
sides.  Because the pairing is honest differentiation, the entries carry
multinomial factors (the catalecticant of a generic ternary quartic at
t = 2 starts 12a, 3b, 3c, 2d, e, 2f in its first row).
"""

from collections import namedtuple
from math import prod

from .linalg import QMatrix, check_entries, mat_kernel, mat_rank, solve_linear
from .poly import (HomogPoly, canonical_point, monomial_basis, monomial_count,
                   monomial_derivatives, power_linear)


CatalecticantMatrix = namedtuple("CatalecticantMatrix", "form t matrix")
# hf and perp_dims: HF(T/F-perp, t) and dim (F-perp)_t for t = 0..d+1
ApolarProfile = namedtuple("ApolarProfile", "form hf perp_dims")


class RankCertificate(namedtuple("RankCertificate", "rank witness branch")):
    """Waring rank, the annihilating operator that decided it, and which branch."""

    __slots__ = ()
    SQUARE_FREE_AT_D1 = "square_free_at_d1"
    FELL_THROUGH_TO_D2 = "fell_through_to_d2"


def catalecticant(form, t):
    """Matrix of the degree-t differentiation map against F, built from F's terms:
    rows are the alpha of degree d - t and columns the beta of degree t, each in
    monomial_basis order, and entry (alpha, beta) is f_gamma * gamma!/alpha! for
    gamma = alpha + beta, an int where f_gamma is an integer."""
    d = form.degree
    if t < 0 or t > d:
        raise ValueError("t = %d outside [0, %d]" % (t, d))
    n = form.num_vars
    check_entries((monomial_count(n, d - t), monomial_count(n, t)), "catalecticant")
    col_index = {m: i for i, m in enumerate(monomial_basis(n, t))}
    row_index = {m: i for i, m in enumerate(monomial_basis(n, d - t))}
    entries = [[0] * len(col_index) for _ in row_index]
    for gamma, coeff in form.terms.items():
        if coeff.denominator == 1:
            coeff = coeff.numerator
        for beta, alpha, scalar in monomial_derivatives(gamma, t):
            entries[row_index[alpha]][col_index[beta]] = coeff * scalar
    return CatalecticantMatrix(form, t, QMatrix.from_rows(entries))


def perp_piece(form, t):
    """Basis of the degree-t piece of the annihilator, in dual variables."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if form.is_zero():
        raise ValueError("annihilator of the zero form is everything")
    n = form.num_vars
    if t > form.degree:
        check_entries((monomial_count(n, t),), "degree-%d monomial basis" % t)
        return [HomogPoly.monomial(m) for m in monomial_basis(n, t)]
    kernel = mat_kernel(catalecticant(form, t).matrix)
    return [HomogPoly.from_coeff_vector(n, t, vec) for vec in kernel]


def hilbert_function(form):
    """Hilbert function of T modulo the annihilator, degrees 0 through d+1.

    diag(alpha!) Cat_t is the transpose of diag(beta!) Cat_{d-t}, both entries
    being f_gamma * gamma! for gamma = alpha + beta, so HF(t) = HF(d - t), the
    symmetry of an Artinian Gorenstein algebra: only t <= d/2 is ranked.
    """
    if form.is_zero():
        raise ValueError("Hilbert function needs a nonzero form")
    d = form.degree
    n = form.num_vars
    half = [mat_rank(catalecticant(form, t).matrix) for t in range(d // 2 + 1)]
    hf = half + half[:(d + 1) // 2][::-1] + [0]
    perp_dims = [monomial_count(n, t) - hf[t] for t in range(d + 2)]
    return ApolarProfile(form, hf, perp_dims)


def is_square_free_binary(binary_form):
    """Square-freeness of a binary form g, from the rank of one matrix.

    By Euler's identity deg(g) * g = x0 * g_x0 + x1 * g_x1, a repeated factor
    of g is exactly a common factor of g_x0 and g_x1 over Q, so g is
    square-free iff their (2d-2) x (2d-2) Sylvester matrix has full rank, and
    a full rank mod p proves it (only a matrix singular mod p goes to Bareiss).
    A root at [1:0] needs no special case; the zero form is not square-free,
    and forms of degree 0 and 1 are.
    """
    if binary_form.is_zero():
        return False
    m = binary_form.degree - 1
    if m < 1:
        return True
    cat = catalecticant(binary_form, 1).matrix          # columns: the two partials
    partials = [[cat.at(i, j) for i in range(m + 1)] for j in (0, 1)]
    rows = [[0] * k + p + [0] * (m - 1 - k) for p in partials for k in range(m)]
    return mat_rank(QMatrix.from_rows(rows)) == 2 * m


def sylvester_rank(binary_form):
    """Waring rank of a binary form, with the deciding operator as witness.

    The annihilator of a nonzero binary form of degree d is generated in two
    degrees d1 <= d2 with d1 + d2 = d + 2, so HF(t) = min(t + 1, d1) for
    t < d2: d1 is HF(d // 2), the rank of the middle catalecticant, and the
    first kernel vector in degree d1 is a minimal generator.  The rank is d1
    when it is square-free and d2 otherwise.
    """
    if binary_form.num_vars != 2:
        raise ValueError("binary form required")
    if binary_form.is_zero():
        raise ValueError("rank of the zero form is undefined")
    d = binary_form.degree
    d1 = mat_rank(catalecticant(binary_form, d // 2).matrix)
    witness = perp_piece(binary_form, d1)[0]
    if is_square_free_binary(witness):
        return RankCertificate(d1, witness, RankCertificate.SQUARE_FREE_AT_D1)
    return RankCertificate(d + 2 - d1, witness, RankCertificate.FELL_THROUGH_TO_D2)


def monomial_rank(exponents):
    """Waring rank of a monomial from its exponents.

    With the positive exponents sorted so a0 is smallest, the rank is the
    product of (ai + 1) over i >= 1; zero exponents are irrelevant because
    the monomial lives in the smaller variable set.
    """
    if any(e < 0 for e in exponents):
        raise ValueError("exponents must be nonnegative")
    positive = sorted(e for e in exponents if e > 0)
    if not positive:
        raise ValueError("constant monomials have no Waring rank")
    return prod(e + 1 for e in positive) // (positive[0] + 1)


def quadratic_rank(form):
    """Waring rank of a quadratic form: the rank of Cat_1, twice its symmetric matrix."""
    if form.degree != 2:
        raise ValueError("quadratic form required")
    return mat_rank(catalecticant(form, 1).matrix)


def decompose_check(form, points):
    """Fit form = sum of c_i * L_i^d for the given projective points.

    Each L_i uses the point's coordinates exactly as supplied, so the
    returned coefficients refer to those representatives.  Returns the list
    of coefficients, or None when no exact combination exists.
    """
    if form.is_zero():
        raise ValueError("decomposition of the zero form")
    if not points:
        raise ValueError("decomposition needs at least one point")
    seen = []
    for pt in points:
        if len(pt) != form.num_vars:
            raise ValueError("point length %d != %d variables" % (len(pt), form.num_vars))
        canon = canonical_point(pt)
        if canon in seen:
            raise ValueError("points must be pairwise distinct up to scale")
        seen.append(canon)
    d = form.degree
    check_entries((monomial_count(form.num_vars, d), len(points)), "decomposition system")
    columns = [power_linear(pt, d).coeff_vector() for pt in points]
    rows = len(columns[0])
    system = QMatrix.from_rows([[col[i] for col in columns] for i in range(rows)])
    return solve_linear(system, form.coeff_vector())
