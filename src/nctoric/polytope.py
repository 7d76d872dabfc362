"""Simple convex polytopes from facet halfspaces.

The halfspace convention is <x, normal> >= offset (inward-pointing
normals).  Vertices, the facet-incidence family F and the Delzant
classification, read off the facet normals at each vertex, are derived
eagerly at construction; the object is immutable afterwards.  F is closed
once, from the essential facet sets of the vertices, and is also kept as
bit masks for the normal fan and the forbidden strata.  Each nonzero
normal is kept with its scale as the ray that cones and fans store
(linalg._stored_ray), which `fan.normal_fan` negates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import (Empty, InputError, IrrationalNormals, NotSimple,
                     TooManySubsets, Unbounded)
from .linalg import (_stored_ray, has_nonneg_solution, pair_det, scalar_rank,
                     solve_exact, transpose)
from .scalars import Scalar, _pair_row, common_field, sorted_vectors

IRRATIONAL = "Irrational"
RATIONAL_DELZANT = "RationalDelzant"
INTEGRAL_DELZANT = "IntegralDelzant"

#: most index subsets one search may try: the C(N, n) facet subsets of
#: vertex enumeration and the C(n, 2m) sub-configurations of the LVM weak
#: hyperbolicity check, each costing one exact solve, or one determinant
#: and, for a singular subset, a hull test
SUBSET_LIMIT = 500


def _subsets(items, k: int, search: str):
    """combinations(items, k), after checking that there are at most
    SUBSET_LIMIT of them (TooManySubsets otherwise)."""
    count = comb(len(items), k)
    if count > SUBSET_LIMIT:
        raise TooManySubsets(
            f"{search} would try C({len(items)}, {k}) = {count} index "
            f"subsets, more than SUBSET_LIMIT = {SUBSET_LIMIT}")
    return combinations(items, k)


def _closure(tops):
    """(family, maximal) of the subset closure of index sets given as bit
    masks by non-increasing size: `family` maps each member mask to its
    frozenset of indices, and `maximal` lists the given masks that no
    earlier one contains.  The submasks of a top are built by adding its
    bits from the lowest up, so each new member is an earlier one plus one
    index, and a top already in the family adds nothing."""
    family, maximal = {}, []
    for top in tops:
        if top in family:
            continue
        maximal.append(top)
        family.setdefault(0, frozenset())
        subs = [0]
        rest = top
        while rest:
            low = rest & -rest
            rest ^= low
            added = {low.bit_length() - 1}
            grown = []
            for s in subs:
                t = s | low
                if t not in family:
                    family[t] = family[s] | added
                grown.append(t)
            subs += grown
    return family, maximal


def _minimal_non_faces(is_face, N: int):
    """The minimal non-faces of a subset-closed family of subsets of
    range(N), whose nonempty members `is_face` recognises by bit mask, as
    frozensets by size and then as sorted lists, the order the levels are
    built in.  Breadth-first from the empty face, F + {j} for a face F and
    j above its indices is asked about only if F + {j} minus each index of
    F is a face: once per face and per minimal non-face, and no more."""
    # level: the faces of one size, each bit mask -> its sorted indices
    minimal, level = [], {0: []}
    while level:
        grown = {}
        for F, face in level.items():
            for j in range(F.bit_length(), N):
                S = F | 1 << j
                for i in face:
                    if S ^ 1 << i not in level:
                        break
                else:
                    if is_face(S):
                        grown[S] = face + [j]
                    else:
                        minimal.append(face + [j])
        level = grown
    return [frozenset(s) for s in minimal]


def _as_scalars(vec):
    return [Scalar._coerce(x) for x in vec]


def _ray_and_scale(nrm):
    """(ray, t) with ray = _stored_ray(nrm) and nrm = t * ray, t > 0."""
    ray = _stored_ray(nrm)
    j = next(i for i, x in enumerate(nrm) if not x.is_zero())
    return ray, nrm[j] / ray[j]


class SimplePolytope:
    """Bounded full-dimensional simple polytope {x : <x, n_i> >= c_i}."""

    def __init__(self, facets):
        """facets: list of (normal, offset) with Scalar-coercible entries."""
        if not facets:
            raise InputError("no facets")
        self.facets = [( _as_scalars(n), Scalar._coerce(c)) for n, c in facets]
        self.dim = len(self.facets[0][0])
        if any(len(n) != self.dim for n, _ in self.facets):
            raise InputError("facet normals of mixed dimension")
        common_field([x for n, c in self.facets for x in n + [c]])
        self.N = len(self.facets)
        self._compute()

    # -- construction-time derivation ------------------------------------

    def _compute(self):
        n = self.dim
        candidates = _subsets(range(self.N), n, "vertex enumeration")
        if self._unbounded():
            raise Unbounded("recession cone is nontrivial")
        verts = set()
        for I in candidates:
            rows = [self.facets[i][0] for i in I]
            rhs = [self.facets[i][1] for i in I]
            res = solve_exact(rows, rhs)
            if res[0] != "unique":
                continue
            x = res[1]
            if self._feasible(x):
                verts.add(tuple(x))
        if not verts:
            raise Empty("no vertices: empty or unbounded halfspace data")
        # tighten active sets to all facets through the vertex
        self.vertices = []
        self.vertex_facets = []
        for vx in sorted_vectors(verts):
            x = list(vx)
            active = frozenset(i for i in range(self.N)
                               if (self._eval(i, x) - self.facets[i][1]).is_zero())
            self.vertices.append(x)
            self.vertex_facets.append(active)
        # (stored ray, scale) of each nonzero normal, None for a zero row
        self._normal_rays = [
            None if all(x.is_zero() for x in nrm) else _ray_and_scale(nrm)
            for nrm, _ in self.facets]
        self.redundant = self._redundancy_flags()
        # the essential facet sets of the vertices, as bit masks; n facets
        # through a point fix it, so each vertex has its own
        tops = []
        for active in self.vertex_facets:
            essential = [i for i in active if not self.redundant[i]]
            if len(essential) != n:
                raise NotSimple(f"vertex on {len(essential)} facets in dimension {n}")
            tops.append(sum(1 << i for i in essential))
        # the family as a dict mask -> frozenset, closed once; every member
        # is a face of a vertex's facet set, and those are its maximal faces
        self._masks, _ = _closure(tops)
        self._maximal = [self._masks[m] for m in tops]
        self.incidence = set(self._masks.values())
        self.delzant_class = self._classify()

    def _eval(self, i, x):
        nrm, _ = self.facets[i]
        s = Scalar(0)
        for a, b in zip(nrm, x):
            s = s + a * b
        return s

    def _feasible(self, x) -> bool:
        return all((self._eval(i, x) - self.facets[i][1]).sign() >= 0
                   for i in range(self.N))

    def _redundancy_flags(self):
        """A facet is flagged redundant when it is tight at no vertex, is a
        zero row, or duplicates an earlier facet's halfspace."""
        flags = [True] * self.N
        seen = set()
        tight = set().union(*self.vertex_facets)
        for i, ((_, c), ray_and_scale) in enumerate(
                zip(self.facets, self._normal_rays)):
            if ray_and_scale is None:
                continue
            ray, t = ray_and_scale
            key = (ray, c / t)
            flags[i] = key in seen or i not in tight
            seen.add(key)
        return flags

    def _unbounded(self) -> bool:
        """Exact recession-cone test: {y : <y, n_i> >= 0 for all i} != {0}.

        By Stiemke's alternative the cone is {0} iff the normals have rank
        dim and sum lambda_i n_i = 0 for some lambda with every lambda_i
        >= 1; with lambda = 1 + mu that asks for mu >= 0 solving
        N^T mu = -N^T 1."""
        normals = [nrm for nrm, _ in self.facets]
        if scalar_rank(normals) < self.dim:
            return True
        cols = transpose(normals)
        return not has_nonneg_solution(cols, [-sum(c, Scalar(0)) for c in cols])

    def _classify(self):
        """Delzant class from the canonical rays of the n essential facets
        at each vertex.  Those normals are independent (the vertex is a
        point) and the edges there are the columns of the inverse of their
        matrix, so the edges are rational iff the normals are, and the
        primitive edges form a lattice basis iff the primitive normals do:
        a simplicial cone is smooth iff its dual is."""
        integral = True
        for top in self._maximal:
            rays = [self._normal_rays[i][0] for i in top]
            if any(type(r[0]) is not int for r in rays):
                return IRRATIONAL
            if abs(pair_det([_pair_row(r)[0] for r in rays])[0]) != 1:
                integral = False
        return INTEGRAL_DELZANT if integral else RATIONAL_DELZANT


def classify_delzant(P: SimplePolytope) -> str:
    return P.delzant_class


def normal_data(P: SimplePolytope):
    """Primitive inward integer normals rho (N x n) and exact offsets.

    Row i and offset i are scaled together so that P = {x : <x, rho_i> >=
    lambda_i} still holds verbatim: a normal t rho_i with t > 0, rational
    or not, gives lambda_i = c_i / t."""
    if P.delzant_class == IRRATIONAL:
        raise IrrationalNormals("polytope has irrational facet normals")
    rho = []
    lam = []
    for (_, c), ray_and_scale in zip(P.facets, P._normal_rays):
        if ray_and_scale is None:
            rho.append([0] * P.dim)
            lam.append(c)
            continue
        r, t = ray_and_scale
        if type(r[0]) is not int:
            raise IrrationalNormals("irrational facet normal")
        rho.append(list(r))
        lam.append(c / t)
    return rho, lam


def face_counts(P: SimplePolytope):
    """f-vector (f_-1=1, f_0, ..., f_{d-1}) of the dual simplicial polytope:
    f_i counts the (d-1-i)-dimensional faces of P, read off from F."""
    d = P.dim
    by_size = [0] * (d + 1)
    for I in P.incidence:
        by_size[len(I)] += 1
    # size-k members of F are (d-k)-faces of P, i.e. (k-1)-faces of the dual
    return [1] + [by_size[k] for k in range(1, d + 1)]


# -- convenience constructors ------------------------------------------------


def cube(d: int, side=1) -> SimplePolytope:
    facets = []
    for i in range(d):
        e = [0] * d
        e[i] = 1
        facets.append((list(e), 0))
        facets.append(([-x for x in e], -Fraction(side)))
    return SimplePolytope(facets)


def simplex(d: int) -> SimplePolytope:
    """Standard simplex x_i >= 0, sum x_i <= 1."""
    facets = []
    for i in range(d):
        e = [0] * d
        e[i] = 1
        facets.append((list(e), 0))
    facets.append(([-1] * d, -1))
    return SimplePolytope(facets)


def from_json(obj) -> SimplePolytope:
    try:
        facets = [([Scalar.from_json(x) for x in f["normal"]],
                   Scalar.from_json(f["offset"])) for f in obj["facets"]]
    except (KeyError, TypeError) as e:
        raise InputError(f"bad polytope JSON: {e}") from e
    return SimplePolytope(facets)


def to_json(P: SimplePolytope) -> dict:
    return {"dim": P.dim,
            "facets": [{"normal": [x.to_json() for x in nrm],
                        "offset": c.to_json()} for nrm, c in P.facets]}
