import random
from fractions import Fraction
from itertools import combinations

import pytest

from nctoric.errors import (CodimensionOne, Empty, NotSimple, RankDeficient,
                            Unbounded)
from nctoric.polytope import (INTEGRAL_DELZANT, SimplePolytope, cube,
                              normal_data, simplex)
from nctoric.quotient import forbidden_strata, kernel_lattice, quotient_data
from nctoric.scalars import Scalar

from test_polytope import lattice_polygon, small_polygon


def test_forbidden_strata_square():
    P = cube(2)
    strata = forbidden_strata(P.incidence, P.N)
    # facets 0,1 and 2,3 are the two pairs of opposite sides
    assert strata == [frozenset({0, 1}), frozenset({2, 3})]


def test_forbidden_strata_simplex():
    P = simplex(2)
    strata = forbidden_strata(P.incidence, P.N)
    assert strata == [frozenset({0, 1, 2})]


def test_forbidden_strata_codimension_one():
    # a family missing a singleton is degenerate
    with pytest.raises(CodimensionOne):
        forbidden_strata({frozenset()}, 2)


def scan_forbidden_strata(family, N):
    """Oracle: scan all 2^N index sets by size, keeping each set outside the
    family that contains no minimal set found so far."""
    fam = {frozenset(I) for I in family}
    minimal = []
    for k in range(1, N + 1):
        for I in combinations(range(N), k):
            s = frozenset(I)
            if s not in fam and not any(m <= s for m in minimal):
                minimal.append(s)
    if any(len(m) == 1 for m in minimal):
        raise CodimensionOne("a single facet index is already forbidden")
    return sorted(minimal, key=lambda s: (len(s), sorted(s)))


def strata_or_error(strata, family, N):
    try:
        return strata(family, N)
    except CodimensionOne:
        return "CodimensionOne"


def seeded_polytopes(rng, count):
    """Scaled simplices in dimension 1-3 cut by up to three random
    halfspaces, some of them redundant."""
    found = []
    while len(found) < count:
        d = rng.randint(1, 3)
        facets = [([int(i == j) for j in range(d)], 0) for i in range(d)]
        facets.append(([-1] * d, -rng.randint(2, 4)))
        for _ in range(rng.randint(0, 3)):
            facets.append(([rng.randint(-2, 2) for _ in range(d)],
                           Fraction(-rng.randint(0, 9), 2)))
        try:
            found.append(SimplePolytope(facets))
        except (NotSimple, Empty, Unbounded):
            continue
    return found


def test_forbidden_strata_match_scan_on_polytopes():
    rng = random.Random(8)
    outcomes = set()
    for P in seeded_polytopes(rng, 60):
        got = strata_or_error(forbidden_strata, P.incidence, P.N)
        assert got == strata_or_error(scan_forbidden_strata, P.incidence, P.N)
        outcomes.add(got == "CodimensionOne")
    assert outcomes == {False, True}  # redundant facets are never used


def test_forbidden_strata_match_scan_on_random_families():
    rng = random.Random(9)
    outcomes = set()
    for _ in range(300):
        N = rng.randint(1, 10)
        # the subsets of a few random generators, and sometimes an index
        # that no member uses
        used = range(N - 1) if rng.random() < 0.2 else range(N)
        fam = {frozenset()}
        for _ in range(rng.randint(0, 4)):
            gen = [i for i in used if rng.random() < 0.5]
            fam.update(frozenset(c) for k in range(len(gen) + 1)
                       for c in combinations(gen, k))
        got = strata_or_error(forbidden_strata, fam, N)
        assert got == strata_or_error(scan_forbidden_strata, fam, N), (fam, N)
        if len(used) < N:
            assert got == "CodimensionOne"
        outcomes.add(got == "CodimensionOne")
    assert outcomes == {False, True}


def test_quotient_data_strata_from_masks_match_scan():
    """quotient_data reads the polytope's own bit-mask family."""
    rng = random.Random(19)
    outcomes = set()
    cases = seeded_polytopes(rng, 40) + [cube(d) for d in range(1, 6)]
    cases += [simplex(d) for d in range(1, 6)]
    while len(cases) < 60:
        try:
            cases.append(SimplePolytope(lattice_polygon(rng)))
        except (Unbounded, NotSimple):
            pass
    for P in cases:
        want = strata_or_error(scan_forbidden_strata, P.incidence, P.N)
        try:
            got = quotient_data(P).forbidden_strata
        except CodimensionOne:
            got = "CodimensionOne"
        assert got == want
        assert set(P._masks.values()) == P.incidence
        assert all(P._masks[sum(1 << i for i in f)] == f for f in P.incidence)
        outcomes.add(got == "CodimensionOne")
    assert outcomes == {False, True}


def test_kernel_lattice():
    # square normals: +-e1, +-e2 interleaved as in cube(2)
    rho = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    B = kernel_lattice(rho)
    assert len(B) == 2
    for v in B:
        assert [sum(r[i] * v[j] for j, r in enumerate(rho)) for i in range(2)] \
            == [0, 0]
    with pytest.raises(RankDeficient):
        kernel_lattice([[1, 0], [2, 0], [3, 0]])
    # N normals in R^0: the kernel is all of Z^N
    assert kernel_lattice([[], []]) == [[1, 0], [0, 1]]
    assert kernel_lattice([]) == []


def test_moment_vector_square():
    q = quotient_data(cube(2))
    assert sorted(tuple(b) for b in q.kernel_basis) == [(0, 0, 1, 1),
                                                        (1, 1, 0, 0)]
    assert q.nu_P == [Scalar(1), Scalar(1)]


def test_moment_vector_interval_and_simplex():
    interval = quotient_data(SimplePolytope([([1], 0), ([-1], -1)]))
    assert interval.kernel_basis == [[1, 1]]
    assert interval.nu_P == [Scalar(1)]
    q = quotient_data(simplex(2))
    assert q.kernel_basis == [[1, 1, 1]]
    assert q.nu_P == [Scalar(1)]


def test_moment_vector_translation_invariant():
    # shifting the square leaves nu unchanged (it lives on ker(rho^T))
    shifted = SimplePolytope([([1, 0], 5), ([-1, 0], -6),
                              ([0, 1], -2), ([0, -1], 1)])
    assert quotient_data(shifted).nu_P == [Scalar(1), Scalar(1)]


def test_quotient_data_fields():
    q = quotient_data(cube(2))
    assert q.N == 4
    assert q.forbidden_strata == [frozenset({0, 1}), frozenset({2, 3})]
    assert len(q.kernel_basis) == 2
    assert q.nu_P == [Scalar(1), Scalar(1)]
    assert len(q.lambda_P) == 4


def test_strata_zero_sets_never_realized():
    # x-vector at a point of P: distances to the facets; a forbidden
    # stratum's indices are never simultaneously zero
    P = cube(2)
    q = quotient_data(P)
    for v in P.vertices:
        zero = {i for i in range(P.N)
                if (P._eval(i, v) - P.facets[i][1]).is_zero()}
        for stratum in q.forbidden_strata:
            assert not stratum <= zero


def moment_oracle(P):
    """(lambda, nu_P) in Scalar arithmetic: lambda_i = c_i / t_i through
    Scalar division and nu_P = -B^T lambda as a sum of Scalar products."""
    lam = [c if rt is None else c / rt[1]
           for (_, c), rt in zip(P.facets, P._normal_rays)]
    basis = kernel_lattice(normal_data(P)[0])
    return lam, [sum(((-lam[j]) * b[j] for j in range(len(lam))), Scalar(0))
                 for b in basis]


def _translated(facets, shift):
    """The same polytope moved by `shift`: <x - shift, n> >= c."""
    return [(nrm, Scalar._coerce(c) + sum((a * s for a, s in zip(nrm, shift)),
                                          Scalar(0)))
            for nrm, c in facets]


def test_moment_vector_matches_the_scalar_oracle():
    r2 = Scalar.sqrt_int(2)
    box = SimplePolytope([([1, 0], 0), ([-1, 0], -r2), ([0, 1], 0),
                          ([0, -1], -1 - r2)])
    assert quotient_data(box).nu_P == [r2, 1 + r2]
    # non-primitive normals scale their offsets
    scaled = SimplePolytope([([2, 0], 0), ([-3, 0], -3 * r2), ([0, 1], 0),
                             ([0, -1], -1 - r2)])
    assert quotient_data(scaled).nu_P == [r2, 1 + r2]
    rng = random.Random(2774)
    cases = [box, scaled] + [cube(d) for d in range(1, 5)] + \
        [simplex(d) for d in range(1, 5)]
    polygons = []
    while len(polygons) < 20:
        facets = rng.choice((lattice_polygon, small_polygon))(rng)
        if len(facets) > 10:
            continue
        try:
            P = SimplePolytope(facets)
        except (Unbounded, NotSimple):
            continue
        if not any(P.redundant):
            polygons.append(P)
    cases += polygons
    for P in polygons[:10]:
        shift = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) * r2,
                 Scalar(rng.randint(-3, 3)) + r2 / 3]
        cases.append(SimplePolytope(_translated(P.facets, shift)))
    for P in cases:
        q = quotient_data(P)
        assert (q.lambda_P, q.nu_P) == moment_oracle(P), P.facets


def test_an_irrational_scale_divides_the_offset():
    # sqrt(2) x >= 1 is the halfspace x >= sqrt(2)/2 with a rational ray
    r2 = Scalar.sqrt_int(2)
    scaled = SimplePolytope([([r2, 0], 1), ([0, 1], 0), ([-1, -1], -3)])
    plain = SimplePolytope([([1, 0], r2 / 2), ([0, 1], 0), ([-1, -1], -3)])
    assert scaled.delzant_class == plain.delzant_class == INTEGRAL_DELZANT
    assert normal_data(scaled) == normal_data(plain)
    for P in (scaled, plain):
        q = quotient_data(P)
        assert q.kernel_basis == [[1, 1, 1]]
        assert q.nu_P == [3 - r2 / 2]
        assert (q.lambda_P, q.nu_P) == moment_oracle(P)
    # seeded polygons with one halfspace rescaled by a positive irrational
    rng = random.Random(1761)
    for _ in range(10):
        P = SimplePolytope(lattice_polygon(rng))
        j = rng.randrange(P.N)
        t = rng.randint(1, 3) + rng.choice((1, -1)) * r2 / rng.randint(2, 3)
        facets = [([t * x for x in nrm], t * c) if i == j else (nrm, c)
                  for i, (nrm, c) in enumerate(P.facets)]
        q = quotient_data(SimplePolytope(facets))
        assert (q.lambda_P, q.nu_P) == moment_oracle(SimplePolytope(facets))
        assert q.nu_P == quotient_data(P).nu_P
