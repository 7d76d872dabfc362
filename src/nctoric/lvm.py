"""LVM configurations: admissibility, the linear system coupling the
configuration, its Gale transform, polytope reconstruction, the
compact-tori/dense-leaves dichotomy, and generic moment-fiber data.

A configuration is n vectors in C^m (n > 2m) with exact (re, im) Scalar
entries.  The attached homogeneous system asks for real n-vectors s with
sum_i s_i Lambda_i = 0 and sum_i s_i = 0; its solution space (dimension
n - 2m - 1 in the nondegenerate case) drives everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import (DegenerateFoliation, DegenerateSystem, InputError,
                     IrrationalWeights, WrongDimension, _quote)
from .linalg import (_free_kernel, _plane_extremes, _primitive, _row_reduce,
                     pair_det, transpose, zero_in_hull)
from .polytope import SimplePolytope, _subsets
from .scalars import Scalar, _pair_row, common_field

COMPACT_TORI = "CompactTori"
DENSE_LEAVES = "DenseLeaves"


class Configuration:
    """n exact complex vectors in C^m with n > 2m.

    Immutable after construction: the solution space of the attached
    system is computed on first use, by one reduced echelon form that
    every later query reads; so are the points' integer pair rows."""

    def __init__(self, lambdas, m: int | None = None):
        self.lambdas = []
        for lam in lambdas:
            vec = []
            for z in lam if isinstance(lam, (list, tuple)) else [lam]:
                if isinstance(z, tuple):
                    re, im = z
                else:
                    re, im = z, 0
                vec.append((Scalar._coerce(re), Scalar._coerce(im)))
            self.lambdas.append(vec)
        if m is not None and (type(m) is not int or m < 0):
            raise InputError(
                f"m must be a non-negative integer, got m={_quote(m)}")
        self.n = len(self.lambdas)
        self.m = m if m is not None else (len(self.lambdas[0]) if self.lambdas else 0)
        if any(len(v) != self.m for v in self.lambdas):
            raise InputError("vectors of mixed dimension")
        if self.n <= 2 * self.m:
            raise InputError(f"need n > 2m, got n={self.n}, m={self.m}")
        self._field = common_field(
            [x for v in self.lambdas for z in v for x in z])

    def real_points(self):
        """Lambda_i as points of R^{2m} (re_1, im_1, ..., re_m, im_m)."""
        return [[x for z in v for x in z] for v in self.lambdas]

    @cached_property
    def _cleared(self):
        """(points, rows, d): real_points(), each scaled by a positive
        integer to an integer pair row over Z[sqrt(d)] (scalars._pair_row),
        which keeps determinants' zero-ness, hulls and lines through 0."""
        pts = self.real_points()
        return pts, [_pair_row(p)[0] for p in pts], self._field

    def _hull_holds_zero(self, idx) -> bool:
        """Is 0 in the convex hull of the points Lambda_i, i in idx?  In C^1
        iff their cleared rows lie in no open half-plane
        (linalg._plane_extremes), else by phase I (linalg.zero_in_hull)."""
        pts, rows, d = self._cleared
        if self.m == 1:
            return _plane_extremes([rows[i] for i in idx], d) is None
        return zero_in_hull([pts[i] for i in idx])

    @cached_property
    def _echelon(self):
        """Reduced echelon form of [A | e] for A = _system_rows(self) and e
        the last unit vector, as (rows, pivots) tuples.  Its first n
        columns are the reduced form of A; a pivot in column n means that
        A x = e has no solution."""
        *phase, ones = _system_rows(self)
        rows, pivots = _row_reduce([row + [Scalar(0)] for row in phase] +
                                   [ones + [Scalar(1)]])
        return tuple(map(tuple, rows)), tuple(pivots)

    @cached_property
    def _kernel(self):
        """Basis of the solution space, one tuple per free column of A."""
        rows, pivots = self._echelon
        if pivots and pivots[-1] == self.n:
            pivots = pivots[:-1]
        return tuple(map(tuple, _free_kernel(rows, pivots, self.n)))


def configuration_to_json(cfg: Configuration) -> dict:
    return {"m": cfg.m,
            "lambdas": [[{"re": re.to_json(), "im": im.to_json()}
                         for re, im in v] for v in cfg.lambdas]}


def configuration_from_json(obj) -> Configuration:
    try:
        lambdas = [[(Scalar.from_json(z["re"]), Scalar.from_json(z["im"]))
                    for z in v] for v in obj["lambdas"]]
        return Configuration(lambdas, obj.get("m"))
    except (KeyError, TypeError) as e:
        raise InputError(f"bad configuration JSON: {e}") from e


def check_admissible(cfg: Configuration) -> dict:
    """Siegel: 0 in conv(Lambda); weak hyperbolicity: no 2m-subset's hull
    contains 0 (TooManySubsets past polytope.SUBSET_LIMIT subsets).

    If 0 = sum t_i p_i with sum t_i = 1, the points p_i are linearly
    dependent, so 2m points in R^2m with a nonzero determinant settle their
    subset and only singular subsets run a hull test.  The determinants
    and the planar hull tests read the cleared rows of the points
    (Configuration._cleared)."""
    subs = _subsets(range(cfg.n), 2 * cfg.m, "the weak hyperbolicity check")
    _, rows, d = cfg._cleared
    return {"siegel": cfg._hull_holds_zero(range(cfg.n)),
            "weak_hyperbolic": not any(
                cfg._hull_holds_zero(s) for s in subs
                if pair_det([rows[i] for i in s], d) == (0, 0))}


def _system_rows(cfg: Configuration):
    """Coefficient rows of the homogeneous system: 2m hull equations plus
    the sum-zero equation, as an (2m+1) x n Scalar matrix."""
    return transpose(cfg.real_points()) + [[Scalar(1)] * cfg.n]


def solution_basis(cfg: Configuration):
    """Basis of the solution space; must have dimension n - 2m - 1."""
    expected = cfg.n - 2 * cfg.m - 1
    if len(cfg._kernel) != expected:
        raise DegenerateSystem(f"solution space has dimension "
                               f"{len(cfg._kernel)}, expected {expected}")
    return [list(v) for v in cfg._kernel]


def condition_K(cfg: Configuration) -> bool:
    """True iff the solution space is defined over Q (equivalently admits
    an integer basis).  A subspace W of Q(sqrt d)^n has one reduced row
    echelon form, and Galois conjugation maps it to that of the conjugate
    space, so W is defined over Q iff that form has rational entries.  The
    solution basis is read off the reduced form of the system (one vector
    per free column, holding minus that column), so (K) holds iff every
    entry of the basis is rational."""
    return all(x.is_rational for v in solution_basis(cfg) for x in v)


def leaf_dichotomy(cfg: Configuration) -> str:
    return COMPACT_TORI if condition_K(cfg) else DENSE_LEAVES


@dataclass
class GaleData:
    vectors: list        # n rows, each of length n - 2m - 1
    epsilons: list       # Scalar vector of length n


def gale_transform(cfg: Configuration, epsilons=None) -> GaleData:
    """Row i lists the i-th coordinates of the chosen solution basis, so
    that solutions are exactly x_i = <v_i, u>."""
    basis = solution_basis(cfg)
    k = len(basis)
    vectors = [[basis[j][i] for j in range(k)] for i in range(cfg.n)]
    if epsilons is None:
        epsilons = [Scalar(1)] * cfg.n
    else:
        epsilons = [Scalar._coerce(e) for e in epsilons]
        if len(epsilons) != cfg.n:
            raise InputError("need one epsilon per vector")
    return GaleData(vectors=vectors, epsilons=epsilons)


def polytope_from_gale(g: GaleData) -> SimplePolytope:
    """P = {u : <v_i, u> >= -eps_i}; zero rows are retained (and flagged
    redundant by the polytope itself)."""
    if not g.vectors or not g.vectors[0]:
        raise WrongDimension("empty Gale data defines no polytope")
    facets = [(list(v), -e) for v, e in zip(g.vectors, g.epsilons)]
    return SimplePolytope(facets)


def minimal_forbidden_zero_sets(cfg: Configuration):
    """Inclusion-minimal zero-sets J such that every point vanishing on J
    lies outside the union of admissible leaves (0 not in the hull of the
    complementary sub-configuration)."""
    allidx = set(range(cfg.n))
    minimal = []
    for k in range(1, cfg.n + 1):
        for J in combinations(range(cfg.n), k):
            s = frozenset(J)
            if any(m0 <= s for m0 in minimal):
                continue
            if not cfg._hull_holds_zero(sorted(allidx - s)):
                minimal.append(s)
    return sorted(minimal, key=lambda s: (len(s), sorted(s)))


@dataclass
class FiberReport:
    torus_rank: int
    foliation_subspace: list     # basis vectors in R^n (mod the diagonal)
    rational: bool
    slope: Scalar | None = None


def _same_line(c, e, i: int, d: int) -> bool:
    """Do two columns, integer pair rows over Z[sqrt(d)] (scalars._pair_row)
    whose first nonzero entries sit at index i, lie on one line through 0?
    They do iff c_j e_i = e_j c_i for every j, by cross-multiplying."""
    h = len(c) // 2
    ax, ay, bx, by = c[i], c[h + i], e[i], e[h + i]
    return all(c[j] * bx + c[h + j] * by * d == e[j] * ax + e[h + j] * ay * d
               and c[j] * by + c[h + j] * bx == e[j] * ay + e[h + j] * ax
               for j in range(h))


def generic_fiber(cfg: Configuration) -> FiberReport:
    """Foliation data of the fiber torus T^{n-1}: the span of the phase
    directions (Re and Im of each coordinate row of Lambda) modulo the
    diagonal circle.

    Slope extraction follows the exhibited reductions: project the phase
    plane onto coordinate pairs; pairs where the projection is a line off
    the axes carry a Kronecker slope: these are the pairs of nonzero
    parallel phase columns.  The slope of the first irrational such pair
    (i, j) is reported when one exists, else that of the first pair."""
    n, m = cfg.n, cfg.m
    rows = _system_rows(cfg)[:-1]  # the phase rows
    dim_mod_diag = n - len(cfg._kernel) - 1
    if dim_mod_diag < 2 * m:
        raise DegenerateFoliation(
            f"phase directions span only {dim_mod_diag} dims mod the diagonal")
    # the span is defined over Q iff its kernel is (see condition_K)
    rational = all(x.is_rational for v in cfg._kernel for x in v)
    # group the nonzero columns, the points, by their line, in first-seen
    # order, keeping each column's first nonzero entry; a ratio of two
    # columns is irrational only if one of their ratios to the line's first
    # column is, so the first pair (i, j) and the first irrational pair
    # both start at the first column
    pts, cleared, d = cfg._cleared
    lines = []  # (index of the first nonzero entry, cleared column, entries)
    for col, c in zip(pts, cleared):
        i = next((k for k, x in enumerate(col) if not x.is_zero()), None)
        if i is None:
            continue
        for j, e, firsts in lines:
            if j == i and _same_line(c, e, i, d):
                firsts.append(col[i])
                break
        else:
            lines.append((i, c, [col[i]]))
    slopes = [b / a if abs(b / a) >= Scalar(1) else a / b
              for _, _, (a, *rest) in lines for b in rest]
    slope = next((s for s in slopes if not s.is_rational),
                 slopes[0] if slopes else None)
    return FiberReport(torus_rank=n - 1, foliation_subspace=rows,
                       rational=rational, slope=slope)


def canonical_moment_interval(cfg: Configuration):
    """For n - 2m - 1 = 1: the canonical moment polytope
    {x >= 0 : sum x_i = 1, sum x_i Lambda_i = 0} as a segment in x-space.

    Returns (endpoints, active_sets): the two endpoint x-vectors and the
    facet indices active (x_i = 0) at each."""
    if cfg.n - 2 * cfg.m - 1 != 1:
        raise WrongDimension("canonical interval needs n - 2m - 1 = 1")
    rows, pivots = cfg._echelon
    if (pivots and pivots[-1] == cfg.n) or len(cfg._kernel) != 1:
        raise DegenerateSystem("canonical moment fiber is not a segment")
    part = [Scalar(0)] * cfg.n  # the particular solution, from column n
    for row, c in zip(rows, pivots):
        part[c] = row[cfg.n]
    (direction,) = cfg._kernel
    # move along the line until coordinates hit zero: t range intersection
    lo, hi = None, None
    for p, d in zip(part, direction):
        if d.is_zero():
            if p.sign() < 0:
                raise DegenerateSystem("canonical slice misses the orthant")
            continue
        bound = -p / d
        if d.sign() > 0:
            lo = bound if lo is None or bound > lo else lo
        else:
            hi = bound if hi is None or bound < hi else hi
    if lo is None or hi is None or lo > hi:
        raise DegenerateSystem("canonical slice unbounded or empty")
    endpoints = []
    active_sets = []
    for t in (lo, hi):
        x = [p + d * t for p, d in zip(part, direction)]
        endpoints.append(x)
        active_sets.append(frozenset(i for i, xi in enumerate(x) if xi.is_zero()))
    return endpoints, active_sets


def orbifold_weights_1d(cfg: Configuration):
    """Orbifold orders at the two endpoints of the 1D moment polytope: the
    absolute integer solution-vector weights active at each endpoint of the
    canonical moment segment."""
    basis = solution_basis(cfg)
    if not all(x.is_rational for v in basis for x in v):  # condition (K)
        raise IrrationalWeights("rationality condition fails; no integer weights")
    if len(basis) != 1:
        raise WrongDimension("endpoint weights need n - 2m - 1 = 1")
    v = _primitive(basis[0])
    _, active_sets = canonical_moment_interval(cfg)
    orders = []
    for act in active_sets:
        weights = sorted(abs(v[i]) for i in act)
        orders.append(weights)
    return orders
