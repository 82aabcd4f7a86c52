"""Secant-variety dimensions of Veronese and Segre varieties.

The dimension of the s-th secant variety equals, at a general point, one
less than the rank of the matrix stacking the tangent spaces at s general
points of the variety.  Points are sampled with integer coordinates
uniform in [1, 2^16] in an affine chart (last coordinate 1); the resulting
rank is a lower bound for the generic secant dimension and agrees with it
off a proper closed locus, so the reported dimension is the maximum over
independent trials.  The expected dimension min(s*dim X + s - 1, N) is a
hard upper bound, so a report whose two numbers agree is certified; the
defective cases reproduced here are certified against their published
dimensions instead.
"""

from dataclasses import dataclass
from itertools import product
from math import comb, prod

from . import modular
from .linalg import check_entries, rank_int_rows
from .poly import monomial_basis
from .seeding import random_point, trial_rng

EXACT = "exact"
MODULAR = "modular"


@dataclass(frozen=True)
class Veronese:
    n: int
    d: int

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("need n >= 1 and d >= 1")

    @property
    def variety_dim(self):
        return self.n

    @property
    def ambient_dim(self):
        return comb(self.n + self.d, self.d) - 1

    @property
    def rows_per_point(self):
        return self.n + 1

    def describe(self):
        return {"kind": "veronese", "n": self.n, "d": self.d}

    def sample(self, rng):
        """A random point of P^n in the affine chart."""
        return random_point(rng, self.n + 1)

    def tangent_rows(self, points):
        """Gradient of every degree-d monomial at each point, one row per partial."""
        n, d = self.n, self.d
        mons = monomial_basis(n + 1, d)
        rows = []
        for pt in points:
            powers = [[1] * (d + 1) for _ in range(n + 1)]
            for k in range(n + 1):
                for j in range(1, d + 1):
                    powers[k][j] = powers[k][j - 1] * pt[k]
            for i in range(n + 1):
                row = []
                for mono in mons:
                    e = mono[i]
                    if e == 0:
                        row.append(0)
                    else:
                        val = e
                        for k in range(n + 1):
                            val *= powers[k][mono[k] - (1 if k == i else 0)]
                        row.append(val)
                rows.append(row)
        return rows


@dataclass(frozen=True)
class Segre:
    dims: tuple

    def __post_init__(self):
        if not self.dims or any(n < 1 for n in self.dims):
            raise ValueError("need at least one factor, every factor dimension >= 1")

    @property
    def variety_dim(self):
        return sum(self.dims)

    @property
    def ambient_dim(self):
        return prod(n + 1 for n in self.dims) - 1

    @property
    def rows_per_point(self):
        return sum(m + 1 for m in self.dims)

    def describe(self):
        return {"kind": "segre", "dims": list(self.dims)}

    def sample(self, rng):
        """Factor vectors of a random rank-one tensor, one per factor, in affine charts."""
        return [random_point(rng, m + 1) for m in self.dims]

    def tangent_rows(self, points):
        """Tangent spanning vectors of rank-one tensors, one row per replacement."""
        sizes = [m + 1 for m in self.dims]
        index_list = list(product(*map(range, sizes)))  # row-major, last index fastest
        rows = []
        for factors in points:
            for i in range(len(sizes)):
                for b in range(sizes[i]):
                    row = []
                    for idx in index_list:
                        if idx[i] != b:
                            row.append(0)
                            continue
                        val = 1
                        for j, k in enumerate(idx):
                            if j != i:
                                val *= factors[j][k]
                        row.append(val)
                    rows.append(row)
        return rows


@dataclass
class DimReport:
    spec: object
    computed_dim: int
    expected_dim: int
    defect: int
    arithmetic_mode: str
    certified: bool


def expected_dim(spec, s):
    """min(s * dim X + s - 1, ambient dimension), the naive parameter count."""
    if s < 1:
        raise ValueError("s must be at least 1")
    return min(s * spec.variety_dim + s - 1, spec.ambient_dim)


def defect_report(spec, s, seed=0, trials=3, arithmetic=EXACT):
    """Computed vs expected dimension of the s-th secant of a Veronese or Segre.

    Each trial stacks the tangent rows at s points sampled from its own
    derived generator; the report keeps the largest rank minus one.
    """
    if not isinstance(spec, (Veronese, Segre)):
        raise TypeError("unknown variety spec %r" % (spec,))
    if s < 1:
        raise ValueError("s must be at least 1")
    check_entries(s * spec.rows_per_point * (spec.ambient_dim + 1), "tangent matrix")
    best = -1
    for trial in range(trials):
        rng = trial_rng(seed, trial)
        points = [spec.sample(rng) for _ in range(s)]
        if arithmetic == MODULAR:
            rank = modular.rank_mod(spec.tangent_rows(points))
        else:
            rank = rank_int_rows(spec.tangent_rows(points))
        best = max(best, rank - 1)
    return _report(spec, s, best, arithmetic)


def terracini_dim_veronese(n, d, s, seed=0, trials=3, arithmetic=EXACT):
    """Dimension report for the s-th secant of the degree-d Veronese of P^n."""
    return defect_report(Veronese(n, d), s, seed, trials, arithmetic)


def terracini_dim_segre(dims, s, seed=0, trials=3, arithmetic=EXACT):
    """Dimension report for the s-th secant of a Segre product."""
    return defect_report(Segre(tuple(dims)), s, seed, trials, arithmetic)


def _report(spec, s, computed, arithmetic):
    expected = expected_dim(spec, s)
    known = known_true_dim(spec, s)
    certified = computed == expected or (known is not None and computed == known)
    return DimReport(spec=spec, computed_dim=computed, expected_dim=expected,
                     defect=expected - computed, arithmetic_mode=arithmetic,
                     certified=certified)


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

    Reports whose computed dimension meets the naive count are certified by
    that equality alone, so only dimensions strictly below it are tabulated:
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
    return -(-comb(d + n, n) // (n + 1))
