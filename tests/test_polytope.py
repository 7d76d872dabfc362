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
from nctoric.linalg import canonical_ray, scalar_kernel_basis
from nctoric.scalars import Scalar


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


def test_irrational_golden_cut():
    # unit square with a golden-ratio-slope corner cut
    phi = (Scalar(1) + Scalar.sqrt_int(5)) / Scalar(2)
    P = SimplePolytope([
        ([1, 0], 0), ([0, 1], 0), ([-1, 0], -1), ([0, -1], -1),
        ([-phi, Scalar(-1)], -phi - Scalar(Fraction(1, 2))),
    ])
    assert classify_delzant(P) == IRRATIONAL


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


def test_edge_directions_point_inward():
    P = cube(2)
    for v, dirs in zip(P.vertices, P.edge_directions):
        for w in dirs:
            # moving from the vertex along an edge stays feasible
            probe = [a + b * Scalar(Fraction(1, 100)) for a, b in zip(v, w)]
            assert P._feasible(probe)
