import random
from fractions import Fraction
from itertools import combinations

import pytest

from nctoric.errors import (Empty, InputError, IrrationalNormals, NotSimple,
                            Unbounded)
from nctoric.polytope import (INTEGRAL_DELZANT, IRRATIONAL, RATIONAL_DELZANT,
                              SimplePolytope, classify_delzant, cube,
                              face_counts, from_json, normal_data, simplex,
                              to_json)
from nctoric.linalg import canonical_ray
from nctoric.scalars import Scalar
from test_linalg import int_det, scalar_kernel_basis


def test_rational_direction():
    # facet normals are keyed by canonical_ray: the primitive integer
    # vector along a rational direction, oriented like the input
    r2 = Scalar.sqrt_int(2)
    assert canonical_ray([Scalar(Fraction(2, 3)), Scalar(Fraction(4, 3))]) == (
        Scalar(1), Scalar(2))
    assert not all(x.is_rational for x in canonical_ray([r2, Scalar(2)]))
    assert canonical_ray([r2, r2 * 3]) == (Scalar(1), Scalar(3))
    with pytest.raises(InputError):
        canonical_ray([Scalar(0), Scalar(0)])
    assert canonical_ray([Scalar(0), Scalar(-2)]) == (Scalar(0), Scalar(-1))


def test_unit_square():
    P = cube(2)
    verts, fam = P.vertices, P.incidence
    assert sorted(tuple(x.a for x in v) for v in verts) == [
        (0, 0), (0, 1), (1, 0), (1, 1)]
    # F: empty set, 4 facets, 4 corner pairs
    assert len(fam) == 9
    assert frozenset() in fam
    assert frozenset({0, 2}) in fam
    assert frozenset({0, 1}) not in fam  # opposite facets never meet
    assert classify_delzant(P) == INTEGRAL_DELZANT
    assert face_counts(P) == [1, 4, 4]


def test_simplex_and_cube3():
    P = simplex(2)
    assert len(P.vertices) == 3
    assert face_counts(P) == [1, 3, 3]
    assert classify_delzant(P) == INTEGRAL_DELZANT
    Q = cube(3)
    assert len(Q.vertices) == 8
    assert face_counts(Q) == [1, 6, 12, 8]


def test_incidence_by_feasibility_oracle():
    # oracle: I is in F iff some vertex is tight on every facet of I
    from itertools import combinations
    P = simplex(3)
    for k in range(1, 4):
        for I in combinations(range(P.N), k):
            hit = any(set(I) <= active for active in P.vertex_facets)
            assert (frozenset(I) in P.incidence) == hit


def test_rational_not_integral():
    # triangle x >= 0, y >= 0, x + 2y <= 2: vertex edge basis not unimodular
    P = SimplePolytope([([1, 0], 0), ([0, 1], 0), ([-1, -2], -2)])
    assert classify_delzant(P) == RATIONAL_DELZANT


def golden_cut():
    """The unit square with a golden-ratio-slope corner cut."""
    phi = (Scalar(1) + Scalar.sqrt_int(5)) / Scalar(2)
    return SimplePolytope([
        ([1, 0], 0), ([0, 1], 0), ([-1, 0], -1), ([0, -1], -1),
        ([-phi, Scalar(-1)], -phi - Scalar(Fraction(1, 2)))])


def test_irrational_golden_cut():
    assert classify_delzant(golden_cut()) == IRRATIONAL


def test_unbounded_and_empty():
    with pytest.raises(Unbounded):
        SimplePolytope([([1, 0], 0), ([0, 1], 0)])
    with pytest.raises(Unbounded):
        # slab: bounded in x only
        SimplePolytope([([1, 0], 0), ([-1, 0], -1)])
    with pytest.raises(Empty):
        SimplePolytope([([1], 1), ([-1], 0)])


def kernel_scan_unbounded(normals, n) -> bool:
    """Oracle: the recession cone {y : <y, n_i> >= 0} is nonzero.  An extreme
    ray lies on n - 1 of the hyperplanes, so try the kernels of every
    (n - 1)-subset of normals (needs at least n - 1 of them)."""
    if n == 1:
        signs = {x[0].sign() for x in normals if not x[0].is_zero()}
        return signs != {1, -1}
    for J in combinations(range(len(normals)), n - 1):
        for y in scalar_kernel_basis([normals[j] for j in J], n):
            for cand in (y, [-e for e in y]):
                if all(sum((a * b for a, b in zip(nrm, cand)), Scalar(0)).sign() >= 0
                       for nrm in normals):
                    return True
    return False


def recession_only(normals):
    """A SimplePolytope shell holding facets with these normals, not yet
    derived, so _unbounded can be asked directly."""
    P = object.__new__(SimplePolytope)
    P.facets = [([Scalar._coerce(x) for x in nrm], Scalar(0)) for nrm in normals]
    P.dim, P.N = len(normals[0]), len(normals)
    return P


def test_unbounded_matches_kernel_scan_oracle():
    rng = random.Random(4242)
    r2 = Scalar.sqrt_int(2)
    seen = set()
    for trial in range(300):
        n = 1 + trial % 3
        irrational = trial % 6 >= 3

        def entry():
            x = Scalar(rng.randint(-2, 2))
            return x + r2 * rng.randint(-1, 1) if irrational else x

        normals = [[entry() for _ in range(n)]
                   for _ in range(rng.randint(max(1, n - 1), n + 3))]
        if rng.random() < 0.3:
            normals.append([Scalar(0)] * n)
        if rng.random() < 0.3:
            normals.append(list(rng.choice(normals)))
        got = recession_only(normals)._unbounded()
        assert got == kernel_scan_unbounded(normals, n), normals
        seen.add((n, irrational, got))
    assert len(seen) == 12  # both answers in every dimension and field


def test_few_facets_are_unbounded_in_any_dimension():
    # fewer than dim - 1 facets: there is no (dim - 1)-subset to scan, but
    # the normals cannot have full rank
    with pytest.raises(Unbounded):
        SimplePolytope([([1, 0, 0], 0)])


def test_not_simple():
    # square pyramid apex in 3D: 4 facets meet at a point
    with pytest.raises(NotSimple):
        SimplePolytope([
            ([0, 0, 1], 0),
            ([1, 0, -1], -1), ([-1, 0, -1], -1),
            ([0, 1, -1], -1), ([0, -1, -1], -1)])


def test_flat_polytopes_are_not_simple():
    # opposite halfspaces through one hyperplane are two facets, not a
    # facet and its duplicate, so a polytope with no interior has a vertex
    # on too many facets
    with pytest.raises(NotSimple):
        SimplePolytope([([1, 0], 0), ([-1, 0], 0), ([0, 1], 0), ([0, -1], -1)])
    with pytest.raises(NotSimple):
        SimplePolytope([([Fraction(-3, 2)], 3), ([1], -2)])


def test_redundant_facets():
    P = SimplePolytope([
        ([1, 0], 0), ([0, 1], 0), ([-1, 0], -1), ([0, -1], -1),
        ([1, 0], -5),            # never tight
        ([0, 0], Scalar(-1)),    # zero row
        ([2, 0], 0),             # duplicate halfspace of facet 0
    ])
    assert P.redundant == [False, False, False, False, True, True, True]
    assert face_counts(P) == [1, 4, 4]


def test_normal_data():
    P = SimplePolytope([([2, 0], 1), ([0, 1], 0), ([-1, -1], -3)])
    rho, lam = normal_data(P)
    assert rho == [[1, 0], [0, 1], [-1, -1]]
    assert lam == [Scalar(Fraction(1, 2)), Scalar(0), Scalar(-3)]
    phi = (Scalar(1) + Scalar.sqrt_int(5)) / Scalar(2)
    P = SimplePolytope([([1, 0], 0), ([0, 1], 0),
                        ([-phi, Scalar(-1)], -phi - Scalar(1))])
    with pytest.raises(IrrationalNormals):
        normal_data(P)


def test_json_roundtrip():
    P = cube(2)
    Q = from_json(to_json(P))
    assert to_json(Q) == to_json(P)
    with pytest.raises(InputError):
        from_json({"facets": [{"bad": 1}]})


def oracle_edges(P, k):
    """Edge directions at vertex k: drop one essential facet, walk along
    the intersection of the rest (one kernel solve), oriented so that the
    dropped inequality increases."""
    active = sorted(i for i in P.vertex_facets[k] if not P.redundant[i])
    edges = []
    for drop in active:
        (w,) = scalar_kernel_basis(
            [P.facets[i][0] for i in active if i != drop], P.dim)
        if sum((a * b for a, b in zip(P.facets[drop][0], w)), Scalar(0)) < 0:
            w = [-e for e in w]
        edges.append(w)
    return edges


def edge_class_oracle(P):
    """The Delzant class read off the edges: Irrational if some edge has an
    irrational direction, else IntegralDelzant iff the primitive edges at
    every vertex form a lattice basis."""
    integral = True
    for k in range(len(P.vertices)):
        rays = [canonical_ray(w) for w in oracle_edges(P, k)]
        if not all(x.is_rational for r in rays for x in r):
            return IRRATIONAL
        if abs(int_det([[int(x.a) for x in r] for r in rays])) != 1:
            integral = False
    return INTEGRAL_DELZANT if integral else RATIONAL_DELZANT


def test_edge_directions_point_inward():
    for P in (cube(2), simplex(3), golden_cut()):
        for k, v in enumerate(P.vertices):
            for w in oracle_edges(P, k):
                # moving from the vertex along an edge stays feasible
                probe = [a + b * Scalar(Fraction(1, 100)) for a, b in zip(v, w)]
                assert P._feasible(probe)


def lattice_polygon(rng):
    """Inward facets of the hull of random lattice points near a circle."""
    R = rng.randint(5, 12)
    pts = sorted((x, y) for x in range(-R, R + 1) for y in range(-R, R + 1)
                 if (R - 3) ** 2 < x * x + y * y <= R * R and rng.random() < 0.3)

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    hull = []
    for seq in (pts, pts[::-1]):     # Andrew's monotone chain
        half = []
        for p in seq:
            while len(half) >= 2 and turn(half[-2], half[-1], p) <= 0:
                half.pop()
            half.append(p)
        hull += half[:-1]
    facets = []
    for p, q in zip(hull, hull[1:] + hull[:1]):
        normal = [p[1] - q[1], q[0] - p[0]]    # left of p -> q, inward
        facets.append((normal, normal[0] * p[0] + normal[1] * p[1]))
    return facets


def small_polygon(rng):
    """Random rational halfspaces <x, n> >= -c with c > 0 around 0."""
    return [([rng.randint(-3, 3), rng.randint(-3, 3)],
             -Fraction(rng.randint(1, 6), rng.randint(1, 2)))
            for _ in range(rng.randint(3, 7))]


def sqrt2_polygon(rng, P):
    """P with one essential facet tilted by sqrt 2 / 50 about the midpoint
    of its edge, or with its halfspace rescaled by sqrt 2."""
    r2 = Scalar.sqrt_int(2)
    j = rng.choice([i for i in range(P.N) if not P.redundant[i]])
    nrm, c = P.facets[j]
    if rng.random() < 0.5:
        changed = ([r2 * x for x in nrm], r2 * c)
    else:
        ends = [v for v, act in zip(P.vertices, P.vertex_facets) if j in act]
        mid = [(a + b) / 2 for a, b in zip(*ends)]
        tilted = list(nrm)
        tilted[rng.randrange(2)] += r2 / 50 * rng.choice((-1, 1))
        changed = (tilted, sum((a * b for a, b in zip(tilted, mid)), Scalar(0)))
    return [changed if i == j else f for i, f in enumerate(P.facets)]


def truncated_corner(rng, d):
    """cube(d) with its corner at 0 (or at 1) cut by a positive integer
    normal a, meeting each edge from that corner at most halfway."""
    a = [rng.randint(1, 3) for _ in range(d)]
    facets = [(nrm, c) for nrm, c in cube(d).facets]
    if rng.random() < 0.5:
        facets.append((a, Fraction(min(a), 2)))
    else:
        facets.append(([-x for x in a], Fraction(min(a), 2) - sum(a)))
    return facets


def test_delzant_class_matches_the_edge_oracle():
    rng = random.Random(1313)
    cases = [cube(d) for d in range(2, 6)] + [simplex(d) for d in range(2, 6)]
    lattice = []
    while len(lattice) < 12:
        facets = lattice_polygon(rng)
        if 6 <= len(facets) <= 16:
            lattice.append(facets)
    polygons = []
    for facets in lattice + [small_polygon(rng) for _ in range(30)]:
        try:
            polygons.append(SimplePolytope(facets))
        except (Unbounded, NotSimple):
            pass
    cases += polygons
    for P in polygons:
        try:
            cases.append(SimplePolytope(sqrt2_polygon(rng, P)))
        except (Unbounded, NotSimple):
            pass
    cases += [SimplePolytope(truncated_corner(rng, d))
              for d in (3, 3, 3, 4, 4)]
    for P in cases:
        assert P.delzant_class == edge_class_oracle(P), to_json(P)
    assert {P.delzant_class for P in cases} == {
        INTEGRAL_DELZANT, RATIONAL_DELZANT, IRRATIONAL}
