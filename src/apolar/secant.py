"""Secant-variety dimensions of Veronese and Segre varieties.

Both are images of monomial maps, given by `blocks`, one (coordinates,
degree) pair per factor: each coordinate of the map is a product of one
monomial of that degree per block.  The affine tangent space at a point is
the row space of the map's Jacobian there, so by Terracini's lemma the
dimension of the s-th secant variety is one less than the rank of the
Jacobians stacked at s general points.  Points are sampled with integer
coordinates uniform in [1, 2^16] in an affine chart of each factor (last
coordinate 1), and a sample's s points are distinct: a repeated point adds no
rank, so it is drawn again, and an s beyond the chart's 2^(16 dim X) points
takes them all.  The resulting rank is a lower bound for the generic secant
dimension and agrees with it off a proper closed locus.  The proven upper
bound is the published dimension of a classified defective case, and the
expected dimension min(s*dim X + s - 1, N) everywhere else; no sample's rank
exceeds that bound + 1.  A report takes up to TRIALS independent samples,
keeps the largest rank seen, and stops at the first whose rank meets the
bound, which certifies it.  A trial's one GF(p) rank, of residues built
directly, is exact when it meets the bound + 1; on a shortfall, exact mode
ranks the exact rows by Bareiss alone (`rank_int_rows`).
"""

import sys
from array import array
from collections import namedtuple
from itertools import accumulate, chain, product, repeat
from math import comb, prod
from operator import mul

from . import modular
from .linalg import check_entries, rank_int_rows
from .poly import monomial_basis
from .seeding import CHART_BOUND, TRIALS, random_point, trial_rng

EXACT = "exact"
MODULAR = "modular"


class _MonomialMap:
    """A variety given by `blocks`, one (coordinates, degree) pair per factor."""

    __slots__ = ()

    @property
    def variety_dim(self):
        return sum(c - 1 for c, _ in self.blocks)

    @property
    def ambient_dim(self):
        return prod(comb(c - 1 + d, d) for c, d in self.blocks) - 1

    def column_counts(self):
        """Each block's monomial count, lazily; their product is the tangent
        matrix's columns.  C(c - 1 + d, d) >= 2^min(c - 1, d), so a block with
        min(c - 1, d) >= 64 yields 2^64, a lower bound, and no huge binomial."""
        return (2 ** 64 if min(c - 1, d) >= 64 else comb(c - 1 + d, d)
                for c, d in self.blocks)

    @property
    def rows_per_point(self):
        return sum(c for c, _ in self.blocks)

    def sample(self, rng):
        """A random point in the affine chart of every factor, coordinates concatenated."""
        return [x for c, _ in self.blocks for x in random_point(rng, c)]

    def tangent_rows(self, points, modulus=None):
        """Jacobian of the map at each point, one row per coordinate.

        Entry (v, j) is E_j[v] * x^(E_j - e_v), for the columns x^(E_j) in
        itertools.product order over the blocks' monomial bases.  One walk
        over the columns fills every point's rows: the first time a lowered
        monomial x^(E - e_v) appears, it is evaluated at every point from
        that point's table of powers of its coordinates (each power the one
        before it times the coordinate), and kept for the rest of the call,
        so an entry is one multiply and zero coordinates need no division.
        Given a modulus below 2^32, every value is a residue mod it and each
        row an array("I"); else each row is a list of exact ints.
        """
        stride = max(d for _, d in self.blocks) + 1
        columns, width = self.ambient_dim + 1, self.rows_per_point
        step = mul if modulus is None else lambda y, x: y * x % modulus
        tables = [[y for x in pt for y in accumulate(repeat(x, stride - 1), step, initial=1)]
                  for pt in points]
        zero = [0] if modulus is None else array("I", [0])
        rows = [zero * columns for _ in range(width * len(tables))]
        by_var = [rows[v::width] for v in range(width)]
        # a monomial's key holds u * stride + exponent for each coordinate u it has
        lowered = {}  # key of x^(E - e_v) -> its value at each point
        for j, parts in enumerate(product(*(monomial_basis(c, d) for c, d in self.blocks))):
            column = tuple(u * stride + f for u, f in enumerate(sum(parts, ())) if f)
            for k, i in enumerate(column):
                v, e = divmod(i, stride)
                key = column[:k] + (i - 1,) * (e > 1) + column[k + 1:]  # x_v^0 leaves the key
                values = lowered.get(key)
                if values is None:
                    if modulus is None:
                        values = [prod(map(table.__getitem__, key)) for table in tables]
                    else:
                        values = array("I", [prod(map(table.__getitem__, key)) % modulus
                                             for table in tables])
                    lowered[key] = values
                if modulus is None:
                    for row, x in zip(by_var[v], values):
                        row[j] = e * x
                else:
                    for row, x in zip(by_var[v], values):
                        row[j] = e * x % modulus
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
        dims = tuple(dims)  # hashable, so the table of defective cases can look it up
        if not dims or any(n < 1 for n in dims):
            raise ValueError("need at least one factor, every factor dimension >= 1")
        return super().__new__(cls, dims)

    @property
    def blocks(self):
        return tuple((m + 1, 1) for m in self.dims)

    def describe(self):
        return {"kind": "segre", "dims": list(self.dims)}


DimReport = namedtuple("DimReport", "spec computed_dim expected_dim defect certified")


def expected_dim(spec, s):
    """min(s * dim X + s - 1, ambient dimension), the naive parameter count."""
    if s < 1:
        raise ValueError("s must be at least 1")
    return min(s * spec.variety_dim + s - 1, spec.ambient_dim)


def defect_report(spec, s, seed=0, arithmetic=EXACT):
    """Computed vs expected dimension of the s-th secant of a Veronese or Segre.

    Each trial stacks the tangent rows at s distinct points sampled from its
    own derived generator; the report keeps the largest rank minus one, and
    stops at the first trial that reaches the proven upper bound `upper`,
    which certifies it.
    """
    if not isinstance(spec, _MonomialMap):
        raise TypeError("unknown variety spec %r" % (spec,))
    # bounded before ambient_dim, whose exact count can run to millions of
    # digits; s < 1 makes the product <= 0, so expected_dim is what refuses it
    check_entries(chain((s * spec.rows_per_point,), spec.column_counts()), "tangent matrix")
    expected = expected_dim(spec, s)
    known = known_true_dim(spec, s)
    upper = expected if known is None else known
    # a repeated point adds no rank; the chart has CHART_BOUND values per coordinate
    distinct = min(s, CHART_BOUND ** spec.variety_dim)
    best = -1
    for trial in range(TRIALS):
        rng = trial_rng(seed, trial)
        points = {}  # distinct, in the order drawn
        while len(points) < distinct:
            points[tuple(spec.sample(rng))] = None
        rank = modular.rank_mod(spec.tangent_rows(points, modular.MODULUS))
        if arithmetic != MODULAR and rank <= upper:
            rank = rank_int_rows(spec.tangent_rows(points))
        best = max(best, rank - 1)
        if best == upper:
            break
    return DimReport(spec=spec, computed_dim=best, expected_dim=expected,
                     defect=expected - best, certified=best == upper)


def terracini_dim_veronese(n, d, s, seed=0, arithmetic=EXACT):
    """Dimension report for the s-th secant of the degree-d Veronese of P^n."""
    return defect_report(Veronese(n, d), s, seed, arithmetic)


def terracini_dim_segre(dims, s, seed=0, arithmetic=EXACT):
    """Dimension report for the s-th secant of a Segre product."""
    return defect_report(Segre(dims), s, seed, arithmetic)


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
