"""Secant-variety dimensions of Veronese and Segre varieties.

Both are images of monomial maps, given by `blocks`, one (coordinates,
degree) pair per factor: each coordinate of the map is a product of one
monomial of that degree per block.  The affine tangent space at a point is
the row space of the map's Jacobian there, so by Terracini's lemma the
dimension of the s-th secant variety is one less than the rank of the
Jacobians stacked at s general points.  Points are sampled with integer
coordinates uniform in [1, 2^16] in an affine chart of each factor (last
coordinate 1); the resulting rank is a lower bound for the generic secant
dimension and agrees with it off a proper closed locus.  The proven upper
bound is the published dimension of a classified defective case, and the
expected dimension min(s*dim X + s - 1, N) everywhere else; no sample's rank
exceeds that bound + 1.  A report takes up to TRIALS independent samples,
keeps the largest rank seen, and stops at the first whose rank meets the
bound, which certifies it.  In exact mode the bound also lets
`rank_int_rows` keep a GF(p) rank that meets it, without Bareiss.
"""

import sys
from collections import namedtuple
from functools import cache
from itertools import product
from math import comb, prod

from . import modular
from .linalg import MAX_ENTRIES, rank_int_rows
from .poly import monomial_basis
from .seeding import TRIALS, random_point, trial_rng

EXACT = "exact"
MODULAR = "modular"


@cache
def _tangent_plan(blocks):
    """(stride, columns, lowered, entries) for the Jacobian of the map.

    stride is the top degree + 1; columns x^E run in itertools.product order
    over the blocks' monomial bases.  lowered holds each distinct x^(E - e_v)
    once, as indices u * stride + exponent; entries lists, column by column,
    (v, column, E[v], index in lowered) for each v with E[v] > 0.
    """
    stride = max(d for _, d in blocks) + 1
    lowered, entries = {}, []
    for j, parts in enumerate(product(*(monomial_basis(c, d) for c, d in blocks))):
        exps = sum(parts, ())
        for v, e in enumerate(exps):
            if e:
                low = exps[:v] + (e - 1,) + exps[v + 1:]
                low = tuple(u * stride + f for u, f in enumerate(low) if f)
                entries.append((v, j, e, lowered.setdefault(low, len(lowered))))
    return stride, j + 1, tuple(lowered), tuple(entries)


class _MonomialMap:
    """A variety given by `blocks`, one (coordinates, degree) pair per factor."""

    __slots__ = ()

    @property
    def variety_dim(self):
        return sum(c - 1 for c, _ in self.blocks)

    @property
    def ambient_dim(self):
        return prod(comb(c - 1 + d, d) for c, d in self.blocks) - 1

    def columns_up_to(self, cap):
        """Monomials of the map (the tangent matrix's columns), or None when
        more than cap.  A block's C(c - 1 + d, d) >= 2^min(c - 1, d), so one
        past cap by that bound is never counted."""
        total = 1
        for c, d in self.blocks:
            if min(c - 1, d) >= cap.bit_length():
                return None
            total *= comb(c - 1 + d, d)
            if total > cap:
                return None
        return total

    @property
    def rows_per_point(self):
        return sum(c for c, _ in self.blocks)

    def sample(self, rng):
        """A random point in the affine chart of every factor, coordinates concatenated."""
        return [x for c, _ in self.blocks for x in random_point(rng, c)]

    def tangent_rows(self, points):
        """Jacobian of the map at each point, one row per coordinate.

        Entry (v, j) is E_j[v] * x^(E_j - e_v).  Each distinct lowered monomial
        is evaluated once per point from a table of powers of its coordinates,
        so an entry is one multiply and zero coordinates need no division.
        """
        stride, columns, lowered, entries = _tangent_plan(self.blocks)
        rows = []
        for pt in points:
            powers = [x ** f for x in pt for f in range(stride)]
            values = [prod([powers[i] for i in low]) for low in lowered]
            block = [[0] * columns for _ in pt]
            for v, j, e, k in entries:
                block[v][j] = e * values[k]
            rows.extend(block)
        return rows


class Veronese(_MonomialMap, namedtuple("Veronese", "n d")):
    __slots__ = ()

    def __new__(cls, n, d):
        if n < 1 or d < 1:
            raise ValueError("need n >= 1 and d >= 1")
        return super().__new__(cls, n, d)

    @property
    def blocks(self):
        return ((self.n + 1, self.d),)

    def describe(self):
        return {"kind": "veronese", "n": self.n, "d": self.d}


class Segre(_MonomialMap, namedtuple("Segre", "dims")):
    __slots__ = ()

    def __new__(cls, dims):
        if not dims or any(n < 1 for n in dims):
            raise ValueError("need at least one factor, every factor dimension >= 1")
        return super().__new__(cls, dims)

    @property
    def blocks(self):
        return tuple((m + 1, 1) for m in self.dims)

    def describe(self):
        return {"kind": "segre", "dims": list(self.dims)}


DimReport = namedtuple("DimReport", "spec computed_dim expected_dim defect "
                       "arithmetic_mode certified")


def expected_dim(spec, s):
    """min(s * dim X + s - 1, ambient dimension), the naive parameter count."""
    if s < 1:
        raise ValueError("s must be at least 1")
    return min(s * spec.variety_dim + s - 1, spec.ambient_dim)


def defect_report(spec, s, seed=0, arithmetic=EXACT):
    """Computed vs expected dimension of the s-th secant of a Veronese or Segre.

    Each trial stacks the tangent rows at s points sampled from its own
    derived generator; the report keeps the largest rank minus one, and
    stops at the first trial that reaches the proven upper bound `upper`,
    which certifies it.
    """
    if not isinstance(spec, _MonomialMap):
        raise TypeError("unknown variety spec %r" % (spec,))
    if s < 1:
        raise ValueError("s must be at least 1")
    # bounded before ambient_dim, whose exact count can run to millions of digits
    if spec.columns_up_to(MAX_ENTRIES // (s * spec.rows_per_point)) is None:
        raise ValueError("tangent matrix would have more than the limit of %d entries"
                         % MAX_ENTRIES)
    expected = expected_dim(spec, s)
    known = known_true_dim(spec, s)
    upper = expected if known is None else known
    best = -1
    for trial in range(TRIALS):
        rng = trial_rng(seed, trial)
        points = [spec.sample(rng) for _ in range(s)]
        if arithmetic == MODULAR:
            rank = modular.rank_mod(spec.tangent_rows(points))
        else:
            rank = rank_int_rows(spec.tangent_rows(points), upper + 1)
        best = max(best, rank - 1)
        if best == upper:
            break
    return DimReport(spec=spec, computed_dim=best, expected_dim=expected,
                     defect=expected - best, arithmetic_mode=arithmetic,
                     certified=best == upper)


def terracini_dim_veronese(n, d, s, seed=0, arithmetic=EXACT):
    """Dimension report for the s-th secant of the degree-d Veronese of P^n."""
    return defect_report(Veronese(n, d), s, seed, arithmetic)


def terracini_dim_segre(dims, s, seed=0, arithmetic=EXACT):
    """Dimension report for the s-th secant of a Segre product."""
    return defect_report(Segre(tuple(dims)), s, seed, arithmetic)


# Alexander-Hirschowitz: the (n, d) with d >= 3 whose generic rank exceeds
# the parameter count, and that rank g.  At each, sigma_{g-1} is a hypersurface.
_BIG_WARING_EXCEPTIONS = {
    (2, 4): 6,
    (3, 4): 10,
    (4, 3): 8,
    (4, 4): 15,
}

# Defective Segre secants with published dimensions, keyed by (dims, s).
_SEGRE_DEFECTIVE = {
    ((1, 1, 1, 1), 3): 13,
    ((2, 2, 2), 4): 25,
}


def known_true_dim(spec, s):
    """Classified true dimension for the defective cases; None elsewhere.

    defect_report takes it as its upper bound in place of the naive count,
    which bounds every other case, so only dimensions below it are tabulated:
    the quadric Veronese stratification (symmetric matrices of bounded rank)
    and the finitely many deficient higher-degree cases reproduced here.
    """
    if isinstance(spec, Veronese):
        n, d = spec.n, spec.d
        if d == 2 and s <= n:
            return comb(n + 2, 2) - comb(n + 2 - s, 2) - 1
        if _BIG_WARING_EXCEPTIONS.get((n, d)) == s + 1:
            return spec.ambient_dim - 1
        return None
    if isinstance(spec, Segre):
        return _SEGRE_DEFECTIVE.get((spec.dims, s))
    return None


def big_waring_g(n, d):
    """Rank of a generic degree-d form in n+1 variables.

    The parameter count C(d+n, n)/(n+1), rounded up, except in the five
    classified defective families.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if d == 2:
        return n + 1
    if (n, d) in _BIG_WARING_EXCEPTIONS:
        return _BIG_WARING_EXCEPTIONS[(n, d)]
    # C(n+d, k) >= r^k for k = min(n, d) and r = (n+d) // k, so log2 g exceeds
    # this bound; reject before comb a g surely too long to print (2^4L > 10^L)
    k = min(n, d)
    limit = sys.get_int_max_str_digits()
    if limit and k * (((n + d) // k).bit_length() - 1) - (n + 1).bit_length() > 4 * limit:
        raise ValueError("g(n, d) has more than %d digits" % limit)
    return -(-comb(d + n, n) // (n + 1))
