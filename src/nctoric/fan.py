"""Cones and fans: normal fans, smoothness/orbifold classification, the
Hirzebruch-Jung chain of a 2D cone, 2D dual cones with their Hilbert
bases, and refinement checking.

Cones and fans keep each ray one way (linalg._stored_ray): a rational ray
as its primitive integer vector, an irrational one as canonical Scalars;
their `rays` are all Scalars, built once, when first read.  A Fan stores
its rays once, in exact lexicographic order, and its faces as a
subset-closed family of frozensets of ray indices, the form of
SimplePolytope.incidence.  That family is the face lattice of a simplicial
cone only, so every maximal cone of a fan has independent rays
(NotSimplicial otherwise)."""

from __future__ import annotations

from functools import cached_property, cmp_to_key

from .errors import (ChainTooLong, DimensionMismatch, InputError,
                     NonRational, NotSimplicial, WrongDimension, _quote)
from .linalg import (_orientation, _plane_extremes, _primitive, _scalar_ray,
                     _stored_ray, has_nonneg_solution, pair_det, scalar_rank,
                     transpose, zero_in_hull)
from .polytope import SimplePolytope, _closure
from .scalars import Scalar, _pair_row, common_field, sorted_vectors

SMOOTH = "Smooth"
NON_RATIONAL = "NonRational"
#: most digits of one Hirzebruch-Jung chain: the longest rational chain
#: `hj_digits` builds and the largest `depth` that `hj.hj_expand` and
#: `hj.resolve_cone` accept
DEPTH_LIMIT = 1000


def _ray_table(rays):
    """(table, positions): the distinct stored rays of a list in exact
    lexicographic order, and the index in that table of each given ray.
    Primitive integer vectors sort on their ints, as their rays do; a list
    with an irrational ray sorts as Scalars (sorted_vectors)."""
    distinct = set(rays)
    if all(type(r[0]) is int for r in distinct):
        order = sorted(distinct)
    else:
        ray_of = {_scalar_ray(r): r for r in distinct}
        order = [ray_of[v] for v in sorted_vectors(ray_of)]
    pos = {r: i for i, r in enumerate(order)}
    return tuple(order), [pos[r] for r in rays]


class Cone:
    """Strictly convex polyhedral cone given by its extreme rays, kept as
    `_stored` in their stored form; rational ones are found on primitive
    integer rows, and the rays become Scalars once, when first read."""

    def __init__(self, rays, ambient_dim=None):
        rays = list(rays)
        d = 0
        if any(isinstance(x, Scalar) and x.d for r in rays for x in r):
            rays = [_stored_ray(r) for r in rays]
            d = common_field(x for r in rays for x in r
                             if isinstance(x, Scalar))
        else:
            rays = [_primitive(r) for r in rays]
        if rays:
            if ambient_dim not in (None, len(rays[0])):
                raise InputError(f"a ray of dimension {len(rays[0])} in a "
                                 f"cone of ambient dimension {ambient_dim}")
            ambient_dim = len(rays[0])
        elif ambient_dim is None:
            raise InputError("empty cone needs an explicit ambient dimension")
        if any(len(r) != ambient_dim for r in rays):
            raise InputError("rays of mixed dimension")
        self.ambient_dim = ambient_dim
        # primitive integer rows sort as their rays do
        table = _ray_table(rays)[0] if d else sorted(set(rays))
        if ambient_dim == 2:
            # the rays are nonzero, so the cone is pointed iff they lie in
            # an open half-plane, and then the extreme ones are the
            # clockwise-most and the counterclockwise-most
            extreme = _plane_extremes(
                [_pair_row(r)[0] for r in table] if d else table, d)
            if extreme is None:
                raise InputError("cone contains a line (not strictly convex)")
            table = [table[i] for i in extreme]
        # the rays are nonzero, so the cone holds a line iff some
        # nonnegative combination of them with weights summing to 1
        # vanishes; that makes them dependent, so n independent rays in R^n
        # span a pointed cone, all of them extreme, without an LP
        elif not (len(table) == ambient_dim and
                  _independent(table, ambient_dim)):
            if zero_in_hull(table):
                raise InputError("cone contains a line (not strictly convex)")
            if len(table) > 2:
                # two distinct rays of a pointed cone are both extreme;
                # past that, drop each ray in the cone of the others
                table = [r for r in table if not has_nonneg_solution(
                    transpose([s for s in table if s != r]), r)]
        self._stored = tuple(table)

    @cached_property
    def rays(self):
        """The extreme rays, canonical (linalg.canonical_ray) and in exact
        lexicographic order, built from the stored rays when first read."""
        return tuple(map(_scalar_ray, self._stored))

    @classmethod
    def _view(cls, stored, ambient_dim):
        """Cone on stored rays that are already sorted."""
        c = object.__new__(cls)
        c._stored, c.ambient_dim = stored, ambient_dim
        return c

    def __eq__(self, other):
        return isinstance(other, Cone) and self._stored == other._stored \
            and self.ambient_dim == other.ambient_dim

    def __hash__(self):
        return hash((self.ambient_dim, self._stored))

    def __repr__(self):
        rays = ", ".join(f"({','.join(map(str, r))})" for r in self._stored)
        return f"Cone[{rays}]"

    def is_rational(self):
        return all(type(r[0]) is int for r in self._stored)

    def contains(self, v) -> bool:
        """Exact membership in every dimension: is v a nonnegative
        combination of the rays?  The cone is pointed, so that is 0 in the
        hull of the rays and -v: a hull combination with no weight on -v
        would put 0 in the hull of the rays.  So a cone with no rays holds
        only 0, and in R^1 and R^2 no LP runs."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch(f"a vector of dimension {len(v)} in a "
                                    f"cone of dimension {self.ambient_dim}")
        return zero_in_hull([*self._stored, [-x for x in v]])


def _cross(u, w):
    return u[0] * w[1] - u[1] * w[0]


def _det(rays) -> tuple:
    """(x, y, d): the determinant x + y sqrt(d) of n rays of R^n, integer
    rows or Scalar rays, each cleared of denominators (scalars._pair_row)."""
    d = common_field(x for r in rays for x in r if isinstance(x, Scalar))
    return (*pair_det([_pair_row(r)[0] for r in rays], d), d)


def _independent(rays, n):
    """Are these nonzero rays of R^n (as for _det) linearly independent?
    n of them are iff their determinant is nonzero."""
    k = len(rays)
    if k != n:
        return k <= 1 or (k < n and scalar_rank(rays) == k)
    return any(_det(rays)[:2])


def _face_key(face):
    return (len(face), sorted(face))


class Fan:
    """Finite simplicial fan; faces of member cones are filled in
    automatically.

    `_stored` is the sorted table of stored rays, `rays` the same rays as
    Scalars, and `faces` the subset-closed family of cones as frozensets
    of indices into the table; its maximal faces are recorded as they are
    built."""

    def __init__(self, cones, ambient_dim=None):
        cones = list(cones)
        if cones:
            if ambient_dim not in (None, cones[0].ambient_dim):
                raise InputError(f"a cone of dimension {cones[0].ambient_dim} "
                                 f"in a fan of ambient dimension {ambient_dim}")
            ambient_dim = cones[0].ambient_dim
        elif ambient_dim is None:
            raise InputError("empty fan needs an ambient dimension")
        if any(c.ambient_dim != ambient_dim for c in cones):
            raise DimensionMismatch("cones of different ambient dimensions")
        self._build(ambient_dim, {r: r for c in cones for r in c._stored},
                    [c._stored for c in cones])

    @classmethod
    def from_faces(cls, ambient_dim, rays, faces):
        """Fan on rays given as a mapping key -> nonzero vector on the ray,
        with cones given as sets of keys; faces of the cones are filled
        in, and each maximal cone must have independent rays."""
        F = object.__new__(cls)
        F._build(ambient_dim,
                 {k: _stored_ray(r) for k, r in rays.items()}, faces)
        return F

    @classmethod
    def _closed(cls, ambient_dim, stored, faces, maximal):
        """Fan on a sorted table of stored rays with a subset-closed
        family of simplicial faces and its maximal faces, all frozensets
        of indices into the table; nothing is closed or checked."""
        F = object.__new__(cls)
        F.ambient_dim, F._stored = ambient_dim, stored
        F.faces = frozenset(faces)
        F._maximal = sorted(maximal, key=_face_key)
        return F

    def _build(self, ambient_dim, rays, faces):
        """Close the given cones, on stored rays given as a mapping key ->
        ray, then check that every maximal cone has independent rays.
        Rays that are dependent raise InputError when their cone holds a
        line, whichever cone that is, and NotSimplicial otherwise:
        independent rays span a pointed cone."""
        table, pos = _ray_table(list(rays.values()))
        index = dict(zip(rays, pos))
        # by decreasing size, a face not yet in the closure lies in no other
        # face, so it is maximal
        tops = sorted({sum(1 << i for i in {index[k] for k in f})
                       for f in faces}, key=int.bit_count, reverse=True)
        family, maximal = _closure(tops)
        self.ambient_dim = ambient_dim
        self._stored = table
        self.faces = frozenset(family.values())
        self._maximal = sorted((family[m] for m in maximal), key=_face_key)
        cones = [[table[i] for i in f] for f in self._maximal]
        dependent = [c for c in cones if not _independent(c, ambient_dim)]
        if any(zero_in_hull(rays) for rays in dependent):
            raise InputError("cone contains a line (not strictly convex)")
        if dependent:
            raise NotSimplicial(
                f"a cone on {len(dependent[0])} dependent rays in dimension "
                f"{ambient_dim}; fans are simplicial")

    @cached_property
    def rays(self):
        """The canonical rays as Scalars, built from the table when first
        read."""
        return tuple(map(_scalar_ray, self._stored))

    def __eq__(self, other):
        return isinstance(other, Fan) and self.ambient_dim == other.ambient_dim \
            and self._stored == other._stored and self.faces == other.faces

    def __hash__(self):
        return hash((self._stored, self.faces))

    def __len__(self):
        return len(self.faces)

    def _cone(self, face):
        return Cone._view(tuple(self._stored[i] for i in sorted(face)),
                          self.ambient_dim)

    @property
    def cones(self):
        return frozenset(self._cone(f) for f in self.faces)

    def maximal_cones(self):
        return [self._cone(f) for f in self._maximal]


def normal_fan(P: SimplePolytope) -> Fan:
    """Fan with one cone per member of F, generated by the outward facet
    normals, so the unit square yields the four coordinate quadrants.  An
    outward ray is the negated stored ray of its inward normal, which the
    polytope keeps (SimplePolytope._normal_rays): the stored form of -v is
    minus that of v, over Q and Q(sqrt(d)) alike.  The family is closed
    already: only its facet indices become positions in the ray table."""
    used = sorted(set().union(*P._maximal))
    table, pos = _ray_table([tuple(-x for x in P._normal_rays[i][0])
                             for i in used])
    where = dict(zip(used, pos))
    return Fan._closed(
        P.dim, table,
        [frozenset(map(where.__getitem__, f)) for f in P.incidence],
        [frozenset(map(where.__getitem__, f)) for f in P._maximal])


def cone_classify(sigma: Cone):
    """"Smooth", ("Orbifold", index) or "NonRational" for a full-dimensional
    simplicial cone.  n rays are independent iff their determinant over
    Z[sqrt(d)], each ray cleared of denominators, is nonzero; for rational
    rays, primitive integer vectors, its absolute value is the index."""
    n = sigma.ambient_dim
    rays = sigma._stored
    if len(rays) == n:
        x, y, d = _det(rays)
        if d and (x or y):
            return NON_RATIONAL
        if x:
            return SMOOTH if abs(x) == 1 else ("Orbifold", abs(x))
    raise NotSimplicial(f"expected {n} independent rays")


# -- the Hirzebruch-Jung chain of a 2D cone ------------------------------------


def _bezout(p, q):
    """(s, t) with s p + t q = 1 for coprime integers p, q."""
    r0, r1, s0, s1, t0, t1 = p, q, 1, 0, 0, 1
    while r1:
        k = r0 // r1
        r0, r1 = r1, r0 - k * r1
        s0, s1 = s1, s0 - k * s1
        t0, t1 = t1, t0 - k * t1
    return (s0, t0) if r0 > 0 else (-s0, -t0)


def hj_frame(v, w):
    """Bezout normalisation of cone(v, w), for v a primitive integer vector
    and w a ray off the line of v: ints and Fractions for a rational ray,
    integral or not, or Scalars.

    Returns (e, x, y): e is integral, {v, e} is a lattice basis and
    w = x e - y v with x > 0 <= y < x, so in the frame (e, v) the cone is
    cone((0, 1), (x, -y)) and its chain is driven by the HJ digits of x/y.
    x and y are exact in the field of w: ints or Fractions for a rational
    ray, Scalars otherwise."""
    p, q = v
    s, t = _bezout(p, q)
    cross = _cross(v, w)
    eps = 1 if cross > 0 else -1
    e = (-eps * t, eps * s)             # cross(v, e) = eps
    x = eps * cross                     # w = x e + beta v
    beta = -eps * _cross(e, w)
    c = -(-beta // x)                   # the ceiling of beta / x
    return (e[0] + c * p, e[1] + c * q), x, x * c - beta


def hj_digits(m, k) -> list:
    """Digits a_i >= 2 of the descending fraction of m/k > 1 for ints or
    Fractions m, k (none when k = 0): a = ceil(m/k), then continue with
    k/(a k - m).  A fraction of more than DEPTH_LIMIT digits raises
    ChainTooLong before its next digit is computed."""
    digits = []
    while k:
        if len(digits) == DEPTH_LIMIT:
            raise ChainTooLong(
                f"the Hirzebruch-Jung chain is longer than DEPTH_LIMIT = "
                f"{DEPTH_LIMIT} digits")
        a = -(-m // k)
        digits.append(a)
        m, k = k, a * k - m
    return digits


def hj_chain(v, e, digits) -> list:
    """Rays u_1, ..., u_r (r = len(digits)) of u_0 = v, u_1 = e,
    u_{j+1} = a_j u_j - u_{j-1}; for the full digits of a rational cone
    u_{r+1} would be its second ray."""
    if not digits:
        return []
    chain = [list(v), list(e)]
    for a in digits[:-1]:
        (x0, y0), (x1, y1) = chain[-2], chain[-1]
        chain.append([a * x1 - x0, a * y1 - y0])
    return chain[1:]


def dual_cone_2d(sigma: Cone):
    """Dual cone rays and the Hilbert basis of sigma-dual intersect Z^2:
    the Hirzebruch-Jung chain of the dual cone, its two rays included."""
    if sigma.ambient_dim != 2 or len(sigma._stored) != 2:
        raise WrongDimension("dual cone computed for full 2D cones only")
    if not sigma.is_rational():
        raise NonRational("dual cone needs a rational cone")
    u, w = sigma._stored
    if _cross(u, w) < 0:
        u, w = w, u
    # with u -> w counterclockwise, the dual's extreme rays are u rotated
    # by +90 and w rotated by -90
    d1 = [-u[1], u[0]]
    d2 = [w[1], -w[0]]
    e, x, y = hj_frame(d1, d2)
    inner = hj_chain(d1, e, hj_digits(x, y))
    return [d1, d2], sorted([d1] + inner + [d2])


def is_refinement(fine: Fan, coarse: Fan) -> bool:
    """True iff every cone of `coarse` is the union of the cones of `fine`
    contained in it, read off the fine fan's ray table.  Exact in ambient
    dimension 1 and 2."""
    if fine.ambient_dim != coarse.ambient_dim:
        raise DimensionMismatch("fans live in different dimensions")
    if fine.ambient_dim > 2:
        raise WrongDimension("refinement test implemented for dim <= 2")
    index = {r: i for i, r in enumerate(fine.rays)}
    d = common_field(x for r in fine.rays + coarse.rays for x in r)
    vecs = [_pair_row(r)[0] for r in fine.rays + coarse.rays]
    fine_vecs, coarse_vecs = vecs[:len(fine.rays)], vecs[len(fine.rays):]
    ccw = cmp_to_key(lambda i, j: _orientation(fine_vecs[j], fine_vecs[i], d))
    for face in coarse.faces:
        rays = {coarse.rays[i] for i in face}
        if len(rays) <= 1:
            # the origin and the rays must be faces of the fine fan
            if frozenset(index.get(r) for r in rays) not in fine.faces:
                return False
        else:
            # a 2D sector cone(a, b), counterclockwise from a to b, holds r
            # iff cross(a, r) >= 0 <= cross(r, b).  The fine rays inside
            # it, counterclockwise, run from one of its edges to the other,
            # and the fine 2-cones inside it are the consecutive pairs.
            a, b = (coarse_vecs[i] for i in face)
            if _orientation(a, b, d) < 0:
                a, b = b, a
            inside = sorted((i for i, r in enumerate(fine_vecs)
                             if _orientation(a, r, d) >= 0
                             <= _orientation(r, b, d)), key=ccw)
            if not inside or \
                    {fine.rays[inside[0]], fine.rays[inside[-1]]} != rays:
                return False
            pairs = {frozenset(p) for p in zip(inside, inside[1:])}
            if pairs != {f for f in fine.faces
                         if len(f) == 2 and f <= set(inside)}:
                return False
    return True


def fan_to_json(F: Fan) -> dict:
    rays = [[x.to_json() for x in r] for r in F.rays]
    return {"dim": F.ambient_dim,
            "cones": [{"rays": [rays[i] for i in sorted(f)]}
                      for f in sorted(F.faces, key=_face_key)]}


def _check_json_dim(what, dim, rays):
    """The "dim" of cone or fan JSON is an int (not a bool), at least 1,
    and the length of every ray."""
    if type(dim) is not int or dim < 1:
        raise InputError(
            f"bad {what} JSON: \"dim\" must be an integer >= 1, got "
            f"{_quote(dim)}")
    if any(len(r) != dim for r in rays):
        raise InputError(f"bad {what} JSON: a ray is not of dimension {dim}")


def cone_from_json(obj) -> Cone:
    """Cone of {"rays": [...]} with an optional "dim"."""
    try:
        rays = [[Scalar.from_json(x) for x in r] for r in obj["rays"]]
        dim = obj.get("dim")
        if "dim" in obj:
            _check_json_dim("cone", dim, rays)
        return Cone(rays, dim)
    except (KeyError, TypeError) as e:
        raise InputError(f"bad cone JSON: {e}") from e


def fan_from_json(obj) -> Fan:
    try:
        dim = obj["dim"]
        cones = [[tuple(Scalar.from_json(x) for x in r) for r in c["rays"]]
                 for c in obj["cones"]]
    except (KeyError, TypeError) as e:
        raise InputError(f"bad fan JSON: {e}") from e
    raw = {r for c in cones for r in c}
    _check_json_dim("fan", dim, raw)
    return Fan.from_faces(dim, {r: r for r in raw}, cones)
