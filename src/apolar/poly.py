"""Homogeneous multivariate polynomials and the differentiation pairing.

Polynomials are sparse term maps {exponent tuple: Fraction}.  The monomial
basis of each graded piece is enumerated in graded-lexicographic order with
earlier variables largest (x0 > x1 > ...), e.g. for three variables in
degree 2: x0^2, x0*x1, x0*x2, x1^2, x1*x2, x2^2.  Every matrix built
downstream (catalecticants, interpolation systems) indexes its rows and
columns by this enumeration, so it is part of the public contract.

Operators in the dual variables act by honest partial differentiation:
y^a applied to x^a gives the product of the factorials of the exponents,
not 1 as under the contraction convention.
"""

import re
import sys

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm, prod
from operator import sub

MAX_VARS = 16
MAX_DEGREE = 64


def _sub_exponents(gamma, t):
    """Each beta <= gamma of degree t, graded-lex with x0 largest, lazily: the last
    exponent is what is left of t, and an empty gamma gives () for t = 0 alone."""
    if not gamma:
        return iter(((),) if t == 0 else ())
    partial, room = [((), t)], sum(gamma)
    for g in gamma[:-1]:
        room -= g
        partial = [(beta + (b,), left - b) for beta, left in partial
                   for b in range(min(g, left), max(0, left - room) - 1, -1)]
    return (beta + (left,) for beta, left in partial if 0 <= left <= room)


@lru_cache(maxsize=None)
def monomial_basis(num_vars, degree):
    """The tuple of _sub_exponents((degree,) * num_vars, degree): graded-lex, x0 largest."""
    return tuple(_sub_exponents((degree,) * num_vars, degree))


def monomial_count(num_vars, degree):
    """len(monomial_basis(num_vars, degree)), without enumerating it."""
    if num_vars == degree == 0:
        return 1  # the empty monomial
    return comb(num_vars - 1 + degree, degree)


class HomogPoly:
    """Homogeneous polynomial as a sparse map from exponent tuple to Fraction."""

    __slots__ = ("num_vars", "degree", "terms")

    def __init__(self, num_vars, degree, terms):
        self.num_vars = num_vars
        self.degree = degree
        clean = {}
        for mono, coeff in terms.items():
            if not coeff:
                continue
            coeff = Fraction(coeff)
            if len(mono) != num_vars or sum(mono) != degree:
                raise ValueError("term %r does not have degree %d in %d variables"
                                 % (mono, degree, num_vars))
            clean[tuple(mono)] = coeff
        self.terms = clean

    @classmethod
    def monomial(cls, exponents):
        exponents = tuple(exponents)
        return cls(len(exponents), sum(exponents), {exponents: 1})

    @classmethod
    def from_coeff_vector(cls, num_vars, degree, vector):
        basis = monomial_basis(num_vars, degree)
        if len(vector) != len(basis):
            raise ValueError("coefficient vector has wrong length")
        return cls(num_vars, degree, dict(zip(basis, vector)))

    def is_zero(self):
        return not self.terms

    def coeff(self, exponents):
        return self.terms.get(tuple(exponents), Fraction(0))

    def coeff_vector(self):
        """Dense coefficients in the monomial_basis order of this graded piece."""
        return [self.terms.get(m, Fraction(0)) for m in monomial_basis(self.num_vars, self.degree)]

    def __eq__(self, other):
        return (isinstance(other, HomogPoly) and self.num_vars == other.num_vars
                and self.terms == other.terms)


def render_poly(poly, var="x"):
    """Text form in the CLI grammar; parse_poly inverts this exactly."""
    if poly.is_zero():
        return "0"
    pieces = []
    for mono in sorted(poly.terms, reverse=True):   # monomial_basis order
        coeff = poly.terms[mono]
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append("%s%d" % (var, i))
            elif e > 1:
                factors.append("%s%d^%d" % (var, i, e))
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)


_TOKEN = re.compile(r"(x\d+)|(\d+)|([-+*/^])|(\S)")


def _check_digits(count):
    """Reject a number of more digits than int() converts, in this program's words."""
    limit = sys.get_int_max_str_digits()
    if limit and count > limit:
        raise ValueError("the input has a number of more than %d digits, too long to read"
                         % limit)


def parse_int(text):
    """int(text), with the digit limit checked first and a non-integer named."""
    if len(text) > sys.get_int_max_str_digits():
        _check_digits(sum(ch.isdecimal() for ch in text))
    try:
        return int(text)
    except ValueError:
        raise ValueError("expected an integer, got %r" % text) from None


def _check_num_vars(num_vars):
    if num_vars < 1 or num_vars > MAX_VARS:
        raise ValueError("number of variables must be in [1, %d]" % MAX_VARS)


def parse_poly(text, num_vars=None):
    """Parse the textual grammar into a HomogPoly; rejects mixed degrees.

    Without num_vars the variable count is one more than the largest index
    in the text, or 1 when no variable appears.
    """
    if num_vars is not None:
        _check_num_vars(num_vars)
    tokens = []
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if m.lastindex == 4:
            raise ValueError("unexpected character %r at position %d" % (tok, m.start()))
        _check_digits(len(tok.lstrip("x")))
        tokens.append(tok)
    if num_vars is None:
        num_vars = max((int(tok[1:]) + 1 for tok in tokens if tok[0] == "x"), default=1)
        _check_num_vars(num_vars)
    if not tokens:
        raise ValueError("empty input")
    tokens.append(None)  # end of input; a factor reads at most two tokens past itself
    # a term is factors joined by *, each xN or xN^E or P or P/Q; + and - join terms
    i = 1 if tokens[0] in ("+", "-") else 0
    coeff, exponents = Fraction(-1 if tokens[0] == "-" else 1), [0] * num_vars
    terms, degrees = {}, set()
    while True:
        tok = tokens[i]
        if tok is None:
            raise ValueError("unexpected end of input")
        if tok[0] == "x":
            idx = int(tok[1:])
            if idx >= num_vars:
                raise ValueError("variable %s out of range for %d variables" % (tok, num_vars))
            power = 1
            if tokens[i + 1] == "^":
                power = tokens[i + 2]
                if power is None or not power.isdigit():
                    raise ValueError("expected integer exponent")
                i += 2
            exponents[idx] += int(power)
        elif tok.isdigit():
            if tokens[i + 1] == "/":
                den = tokens[i + 2]
                if den is None or not den.isdigit() or int(den) == 0:
                    raise ValueError("expected nonzero integer denominator")
                coeff *= Fraction(int(tok), int(den))
                i += 2
            else:
                coeff *= int(tok)
        else:
            raise ValueError("expected coefficient or variable, got %r" % tok)
        sep = tokens[i + 1]
        i += 2
        if sep == "*":
            continue
        if coeff:
            mono = tuple(exponents)
            degrees.add(sum(mono))
            terms[mono] = terms.get(mono, 0) + coeff
        if sep is None:
            break
        if sep not in ("+", "-"):
            raise ValueError("expected + or - between terms, got %r" % sep)
        coeff, exponents = Fraction(-1 if sep == "-" else 1), [0] * num_vars
    if len(degrees) > 1:
        raise ValueError("mixed degrees %s" % sorted(degrees))
    degree = degrees.pop() if degrees else 0
    if degree > MAX_DEGREE:
        raise ValueError("degree %d exceeds limit %d" % (degree, MAX_DEGREE))
    return HomogPoly(num_vars, degree, terms)


def power_linear(coefficients, degree):
    """Multinomial expansion of (c0*x0 + ... + cn*xn)^degree."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    coefficients = [Fraction(c) for c in coefficients]
    if not any(coefficients):
        raise ValueError("linear form must have a nonzero coefficient")
    n = len(coefficients)
    terms = {}
    d_fact = factorial(degree)
    for mono in monomial_basis(n, degree):
        coeff = Fraction(d_fact)
        for c, e in zip(coefficients, mono):
            coeff *= c ** e / factorial(e)
        if coeff != 0:
            terms[mono] = coeff
    return HomogPoly(n, degree, terms)


def monomial_derivatives(gamma, t):
    """(beta, alpha, gamma!/alpha!) for each beta <= gamma of degree t, alpha = gamma - beta:
    y^beta applied to x^gamma is gamma!/alpha! * x^alpha, and 0 unless beta <= gamma."""
    return [(beta, tuple(map(sub, gamma, beta)), prod(map(perm, gamma, beta)))
            for beta in _sub_exponents(gamma, t)]


def apolar_apply(operator, target):
    """Apply a dual-variable operator to a polynomial by differentiation.

    Bilinear; the result lives in degree deg(target) - deg(operator), and is
    the zero polynomial when the operator degree exceeds the target degree.
    """
    if operator.num_vars != target.num_vars:
        raise ValueError("variable count mismatch")
    terms = {}
    for gamma, coeff in target.terms.items():
        for beta, alpha, scalar in monomial_derivatives(gamma, operator.degree):
            if beta in operator.terms:
                terms[alpha] = terms.get(alpha, 0) + operator.terms[beta] * coeff * scalar
    return HomogPoly(target.num_vars, max(target.degree - operator.degree, 0), terms)


def format_rational(value):
    """Integers stay JSON integers; everything else becomes 'p/q'."""
    value = Fraction(value)
    if value.denominator == 1:
        return int(value)
    return "%d/%d" % (value.numerator, value.denominator)


def canonical_point(coordinates):
    """Scale a projective point so its first nonzero coordinate is 1."""
    coords = [Fraction(c) for c in coordinates]
    for c in coords:
        if c != 0:
            return [x / c for x in coords]
    raise ValueError("projective point cannot be the zero vector")
