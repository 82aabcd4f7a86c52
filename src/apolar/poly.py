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

MAX_VARS = 16
MAX_DEGREE = 64


class ParseError(ValueError):
    pass


class NotHomogeneous(ValueError):
    pass


def _sub_exponents(gamma, t):
    """(beta, gamma - beta) for each beta <= gamma of degree t, beta in
    graded-lex order with x0 largest."""
    partial = [((), (), t)]
    room = sum(gamma)
    for g in gamma:
        room -= g
        partial = [(beta + (b,), alpha + (g - b,), left - b)
                   for beta, alpha, left in partial
                   for b in range(min(g, left), max(0, left - room) - 1, -1)]
    return [(beta, alpha) for beta, alpha, _ in partial]


@lru_cache(maxsize=None)
def monomial_basis(num_vars, degree):
    """Exponent tuples of the given degree, graded-lex, x0 largest."""
    return tuple(beta for beta, _ in _sub_exponents((degree,) * num_vars, degree))


def monomial_count(num_vars, degree):
    """len(monomial_basis(num_vars, degree)), without enumerating it."""
    return comb(num_vars - 1 + degree, degree)


@lru_cache(maxsize=None)
def monomial_index(num_vars, degree):
    """Position of each exponent tuple inside monomial_basis(num_vars, degree)."""
    return {m: i for i, m in enumerate(monomial_basis(num_vars, degree))}


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
    def monomial(cls, exponents, coeff=1):
        exponents = tuple(exponents)
        return cls(len(exponents), sum(exponents), {exponents: Fraction(coeff)})

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

    def __repr__(self):
        return "HomogPoly(%s)" % render_poly(self)


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


_TOKEN = re.compile(r"(x\d+)|(\d+)|([-+*/^])")


def _check_digits(count):
    """Reject a number of more digits than int() converts, in this program's words."""
    limit = sys.get_int_max_str_digits()
    if limit and count > limit:
        raise ParseError("the input has a number of more than %d digits, too long to read"
                         % limit)


def parse_int(text):
    """int(text), with the digit limit checked first and a non-integer named."""
    _check_digits(sum(ch.isdecimal() for ch in text))
    try:
        return int(text)
    except ValueError:
        raise ParseError("expected an integer, got %r" % text) from None


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError("unexpected character %r at position %d" % (text[pos], pos))
        tokens.append(m.group(m.lastindex))
        _check_digits(len(tokens[-1].lstrip("x")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, num_vars):
        self.tokens = tokens
        self.pos = 0
        self.num_vars = num_vars

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        terms = []
        sign = 1
        tok = self.peek()
        if tok in ("+", "-"):
            self.take()
            sign = -1 if tok == "-" else 1
        terms.append(self.term(sign))
        while self.peek() is not None:
            tok = self.take()
            if tok not in ("+", "-"):
                raise ParseError("expected + or - between terms, got %r" % tok)
            terms.append(self.term(-1 if tok == "-" else 1))
        return terms

    def term(self, sign):
        coeff = Fraction(sign)
        exponents = [0] * self.num_vars
        while True:
            tok = self.peek()
            if tok is None:
                raise ParseError("unexpected end of input")
            if tok.startswith("x"):
                self.take()
                idx = int(tok[1:])
                if idx >= self.num_vars:
                    raise ParseError("variable %s out of range for %d variables"
                                     % (tok, self.num_vars))
                power = 1
                if self.peek() == "^":
                    self.take()
                    p = self.take()
                    if p is None or not p.isdigit():
                        raise ParseError("expected integer exponent")
                    power = int(p)
                exponents[idx] += power
            elif tok.isdigit():
                self.take()
                num = int(tok)
                if self.peek() == "/":
                    self.take()
                    den = self.take()
                    if den is None or not den.isdigit() or int(den) == 0:
                        raise ParseError("expected nonzero integer denominator")
                    coeff *= Fraction(num, int(den))
                else:
                    coeff *= num
            else:
                raise ParseError("expected coefficient or variable, got %r" % tok)
            if self.peek() == "*":
                self.take()
                continue
            return coeff, tuple(exponents)


def parse_poly(text, num_vars):
    """Parse the textual grammar into a HomogPoly; rejects mixed degrees."""
    if num_vars < 1 or num_vars > MAX_VARS:
        raise ParseError("number of variables must be in [1, %d]" % MAX_VARS)
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input")
    raw_terms = _Parser(tokens, num_vars).parse()
    degrees = {sum(m) for c, m in raw_terms if c != 0}
    if len(degrees) > 1:
        raise NotHomogeneous("mixed degrees %s" % sorted(degrees))
    degree = degrees.pop() if degrees else 0
    if degree > MAX_DEGREE:
        raise ParseError("degree %d exceeds limit %d" % (degree, MAX_DEGREE))
    terms = {}
    for coeff, mono in raw_terms:
        if coeff == 0:
            continue
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return HomogPoly(num_vars, degree, terms)


def infer_num_vars(text):
    """Smallest variable count covering every index mentioned in the text."""
    indices = [int(tok[1:]) for tok in _tokenize(text) if tok.startswith("x")]
    if not indices:
        return 1
    return max(indices) + 1


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
            if e:
                if c == 0:
                    coeff = Fraction(0)
                    break
                coeff *= c ** e / factorial(e)
        if coeff != 0:
            terms[mono] = coeff
    return HomogPoly(n, degree, terms)


def monomial_derivatives(gamma, t):
    """(beta, gamma - beta, gamma!/(gamma - beta)!) for each beta <= gamma of degree t:
    y^beta applied to x^gamma is gamma!/(gamma - beta)! * x^(gamma - beta), and 0
    unless beta <= gamma."""
    return [(beta, alpha, prod(map(perm, gamma, beta)))
            for beta, alpha in _sub_exponents(gamma, t)]


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
