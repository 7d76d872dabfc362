import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import gcd

import pytest

from nctoric import fan, linalg
from nctoric.errors import (ChainTooLong, DimensionMismatch, FieldMismatch,
                            InputError, NonRational, NotSimple, NotSimplicial,
                            Unbounded, WrongDimension)
from nctoric.fan import (DEPTH_LIMIT, Cone, Fan, _bezout, _face_key,
                         cone_classify, dual_cone_2d, fan_from_json,
                         fan_to_json, hj_chain, hj_digits, hj_frame,
                         is_refinement, normal_fan)
from nctoric.hj import resolve_cone
from nctoric.linalg import (_pair_row, _plane_extremes, canonical_ray,
                            has_nonneg_solution, scalar_rank, solve_exact,
                            transpose, zero_in_hull)
from nctoric.polytope import IRRATIONAL, SimplePolytope, cube, simplex
from nctoric.scalars import Scalar, common_field, sorted_vectors

from test_linalg import int_det, lp_zero_in_hull
from test_polytope import lattice_polygon, sqrt2_polygon


def test_canonical_ray():
    assert canonical_ray([2, 4]) == (Scalar(1), Scalar(2))
    assert canonical_ray([Fraction(1, 2), Fraction(3, 2)]) == (Scalar(1), Scalar(3))
    r2 = Scalar.sqrt_int(2)
    c = canonical_ray([r2, Scalar(2)])
    assert c[0] == Scalar(1) and c[1] == r2  # 2/sqrt2 = sqrt2
    assert canonical_ray([-r2, Scalar(2)]) == (Scalar(-1), r2)
    # an all-int vector is divided by its gcd; the zero vector is no ray
    rng = random.Random(1803)
    for _ in range(200):
        ints = [rng.randint(-9, 9) * rng.choice((1, 6, 10**20))
                for _ in range(rng.randint(1, 4))]
        if any(ints):
            ray = canonical_ray(ints)
            assert ray == canonical_ray([Scalar(k) for k in ints]), ints
            assert all(type(x) is Scalar for x in ray)
    for zero in ([], [0], [0, 0, 0], [Fraction(0), 0]):
        with pytest.raises(InputError):
            canonical_ray(zero)


def test_cone_invariants():
    with pytest.raises(InputError):
        Cone([[1, 0], [-1, 0]])
    c = Cone([[1, 0], [0, 1]])
    assert scalar_rank([list(r) for r in c.rays]) == 2
    assert c.contains([1, 1])
    assert not c.contains([-1, 1])
    assert c.contains([0, 0])
    assert Cone([[2, 0], [0, 3]]) == c


def test_normal_fan_square_nine_cones():
    F = normal_fan(cube(2))
    assert len(F.cones) == 9
    maxima = F.maximal_cones()
    assert len(maxima) == 4
    quadrants = {Cone([[1, 0], [0, 1]]), Cone([[-1, 0], [0, 1]]),
                 Cone([[1, 0], [0, -1]]), Cone([[-1, 0], [0, -1]])}
    assert set(maxima) == quadrants


def test_cone_with_a_line_is_rejected_exactly():
    # r1 + r2 + 2 r3 = 0, with r1 and r2 a hair off opposite
    with pytest.raises(InputError):
        Cone([[10**20, 1], [-10**20, 1], [0, -1]])
    with pytest.raises(InputError):
        Cone([[1, 0], [-1, 1], [0, -1]])
    # (0, 1) is half the sum of the other two rays, so it is not extreme
    assert len(Cone([[10**20, 1], [-10**20, 1], [0, 1]]).rays) == 2


def test_rays_that_are_not_extreme_leave_the_cone_unchanged():
    # seeded pointed cones in 2D and 3D over Q and Q(sqrt 2): adding
    # nonnegative combinations of the rays gives back the same Cone
    rng = random.Random(1313)
    r2 = Scalar.sqrt_int(2)
    seen = set()
    for trial in range(80):
        dim = 2 + trial % 2
        irrational = trial % 4 >= 2

        def entry():
            x = Scalar(rng.randint(-4, 4))
            return x + r2 * rng.randint(-1, 1) if irrational else x

        # a last coordinate >= 1 keeps the cone pointed
        rays = [[entry() for _ in range(dim - 1)] + [Scalar(rng.randint(1, 3))]
                for _ in range(rng.randint(dim, dim + 3))]
        sigma = Cone(rays)
        given = {canonical_ray(r) for r in rays}
        assert set(sigma.rays) <= given
        assert all(sigma.contains(r) for r in rays)
        extra = []
        for _ in range(rng.randint(1, 4)):
            w = [Scalar(rng.randint(0, 3)) for _ in rays]
            w[rng.randrange(len(w))] += 1
            extra.append([sum((c * r[i] for c, r in zip(w, rays)), Scalar(0))
                          for i in range(dim)])
        mixed = rays + extra
        rng.shuffle(mixed)
        assert Cone(mixed) == sigma
        seen.add((dim, irrational, len(sigma.rays) < len(given)))
    assert len(seen) == 8  # each dimension and field, with and without pruning


def test_cone_with_a_line_is_rejected_in_3d():
    # r1 + r2 + r3 = 0 without an opposite pair among the rays
    rays = [[1, 0, 0], [-1, 1, 0], [0, -1, 0]]
    with pytest.raises(InputError):
        Cone(rays)
    with pytest.raises(InputError):
        fan_from_json({"dim": 3, "cones": [
            {"rays": [[str(x) for x in r] for r in rays]}]})
    assert len(Cone(rays[:2] + [[0, -1, 1]]).rays) == 3
    with pytest.raises(InputError):
        Cone([[1, 0, 0, 0], [0, 1, 0, 0], [-1, -1, 1, 0], [0, 0, -1, 0]])


def seeded_ray_sets(rng):
    """Nonzero ray sets in R^2 and R^3 over Q and Q(sqrt 2): n - 1, n or
    n + 1 random rays, n rays with one a combination of the others, or
    with an antiparallel pair."""
    r2 = Scalar.sqrt_int(2)
    for _ in range(400):
        n = rng.choice((2, 3))
        root = rng.choice((Scalar(0), r2))

        def entry():
            return Scalar(rng.randint(-3, 3)) + root * rng.randint(-1, 1)

        kind = rng.choice(("fewer", "square", "more", "dependent",
                           "antiparallel"))
        k = {"fewer": n - 1, "more": n + 1}.get(kind, n)
        rays = [[entry() for _ in range(n)] for _ in range(k)]
        if kind == "dependent":
            rays[-1] = [sum((entry() * r[i] for r in rays[:-1]), Scalar(0))
                        for i in range(n)]
        elif kind == "antiparallel":
            factor = Scalar(rng.randint(1, 3)) + root * rng.randint(0, 1)
            rays[-1] = [-factor * x for x in rays[0]]
        if all(any(not x.is_zero() for x in r) for r in rays):
            yield kind, rays


def test_pointed_cones_match_the_hull_lp():
    outcomes = set()
    for kind, rays in seeded_ray_sets(random.Random(1757)):
        line = lp_zero_in_hull([canonical_ray(r) for r in rays])
        try:
            Cone(rays)
            got = False
        except InputError:
            got = True
        assert got == line, rays
        n = len(rays[0])
        independent = len(rays) == n and scalar_rank(rays) == n
        assert not (independent and got), rays
        d = any(not x.is_rational for r in rays for x in r)
        outcomes.add((kind, n, d, independent, got))
    # every kind in both dimensions and both fields, and lines both among
    # singular square sets and among the others
    assert {o[:3] for o in outcomes} == {
        (k, n, d) for k in ("fewer", "square", "more", "dependent",
                            "antiparallel") for n in (2, 3) for d in (0, 1)}
    assert {o[3:] for o in outcomes if o[0] != "fewer"} == {
        (True, False), (False, False), (False, True)}


def test_independent_rays_run_no_hull_lp(monkeypatch):
    calls = []

    def counted(points):
        calls.append("hull")
        return zero_in_hull(points)

    def counted_feasibility(A, b):
        calls.append("feasible")
        return has_nonneg_solution(A, b)

    monkeypatch.setattr(fan, "zero_in_hull", counted)
    monkeypatch.setattr(fan, "has_nonneg_solution", counted_feasibility)
    r2 = Scalar.sqrt_int(2)
    Cone([[1, 0], [0, 1]])
    Cone([[1, 2, 0], [0, 1, 1], [3, 0, -1]])
    Cone([[Scalar(1), r2], [Scalar(0), Scalar(1)]])
    dual_cone_2d(Cone([[0, 1], [101, -100]]))
    # in the plane every cone is pointed and pruned by orientation signs
    Cone([[1, 0]])
    assert len(Cone([[1, 0], [1, 1], [0, 1]]).rays) == 2
    assert len(Cone([[Scalar(1), r2], [Scalar(0), Scalar(1)],
                     [Scalar(1), Scalar(0)]]).rays) == 2
    for rays in ([[1, r2], [-2, -2 * r2]], [[1, 0], [0, 1], [-1, 0]]):
        with pytest.raises(InputError):
            Cone(rays)
    assert calls == []
    # singular and non-square ray sets in R^3 keep the LP, and pruning
    # runs one feasibility LP per ray
    Cone([[1, 0, 0]])
    Cone([[1, 0, 0], [0, 1, 0], [1, 1, 0]])
    with pytest.raises(InputError):
        Cone([[1, r2, 0], [-2, -2 * r2, 0]])
    assert calls == ["hull", "hull"] + ["feasible"] * 3 + ["hull"]


def test_planar_fans_run_no_lp(monkeypatch):
    calls = []
    monkeypatch.setattr(linalg, "has_nonneg_solution",
                        lambda A, b: calls.append(len(A)))
    monkeypatch.setattr(fan, "has_nonneg_solution",
                        lambda A, b: calls.append(len(A)))
    r2 = Scalar.sqrt_int(2)
    sigma = Cone([[0, 1], [7, -3]])
    F, _, _ = resolve_cone(sigma)
    assert is_refinement(F, Fan([sigma]))
    assert sigma.contains([1, 0]) and not sigma.contains([-1, 0])
    assert Cone([[1, r2]]).contains([2, 2 * r2])
    # a maximal cone on dependent rays: pointed, or holding a line
    with pytest.raises(NotSimplicial):
        fan_from_json({"dim": 2, "cones": [{"rays": [[1, 0], [1, 1], [0, 1]]}]})
    with pytest.raises(InputError):
        fan_from_json({"dim": 2, "cones": [{"rays": [[1, 0], [-1, 0]]}]})
    with pytest.raises(InputError):
        Fan.from_faces(2, {0: (Scalar(1), r2), 1: (Scalar(-1), -r2)}, [{0, 1}])
    assert calls == []
    # in R^3 the line test of two rays and the membership run phase I
    Cone([[1, 0, 0], [0, 1, 0]]).contains([1, 1, 0])
    assert calls == [4, 4]


def test_fan_rays_of_two_fields_are_rejected():
    r2, r3 = Scalar.sqrt_int(2), Scalar.sqrt_int(3)
    with pytest.raises(FieldMismatch):
        Fan([Cone([[Scalar(1), r2]]), Cone([[Scalar(1), r3]])])


def test_fan_rejects_cones_of_different_dimensions():
    with pytest.raises(DimensionMismatch):
        Fan([Cone([[1, 0], [0, 1]]), Cone([[1, 0, 0], [0, 1, 0], [0, 0, 1]])])
    with pytest.raises(DimensionMismatch):
        Fan([Cone([], ambient_dim=2), Cone([[1, 0, 0]])])


def test_an_explicit_ambient_dimension_must_match_the_rays():
    with pytest.raises(InputError):
        Cone([[1, 0]], ambient_dim=3)
    with pytest.raises(InputError):
        Fan([Cone([[1, 0]])], ambient_dim=3)
    with pytest.raises(InputError):
        Fan([Cone([], ambient_dim=2)], ambient_dim=3)
    assert Cone([[1, 0]], ambient_dim=2) == Cone([[1, 0]])
    assert Fan([Cone([[1, 0]])], ambient_dim=2) == Fan([Cone([[1, 0]])])
    assert Cone([], ambient_dim=3).ambient_dim == 3
    assert Fan([], ambient_dim=3).ambient_dim == 3


def test_cones_from_ints_fractions_and_scalars_agree():
    rng = random.Random(1804)
    for _ in range(80):
        dim = rng.choice((2, 3))
        # a last coordinate >= 1 keeps the cone pointed
        base = [[rng.randint(-4, 4) for _ in range(dim - 1)]
                + [rng.randint(1, 3)] for _ in range(rng.randint(1, dim + 2))]
        # non-primitive multiples and duplicates of the base rays
        rays = [[k * x for x in r] for r in base
                for k in rng.sample((1, 2, 3, 6), rng.randint(1, 2))]
        rays += rng.sample(rays, rng.randint(0, len(rays)))
        rng.shuffle(rays)
        dens = [rng.randint(1, 7) for _ in rays]
        cones = [Cone(rays),
                 Cone([[Fraction(x, q) for x in r] for r, q in zip(rays, dens)]),
                 Cone([[Scalar(Fraction(x, q)) for x in r]
                       for r, q in zip(rays, dens)])]
        first = cones[0]
        assert all(type(x) is Scalar for r in first.rays for x in r)
        for c in cones[1:]:
            assert c == first and c.rays == first.rays
            assert repr(c) == repr(first) and hash(c) == hash(first)


def cone_oracle(rays):
    """The rays of Cone(rays) as built from canonical_ray per ray: those
    distinct Scalar rays in Scalar order (sorted_vectors), then in R^2 the
    extremes of their integer pair rows, and above R^2 an exact rank for n
    rays in R^n, else the hull LP and one feasibility LP per ray."""
    rays = [canonical_ray(r) for r in rays]
    if any(len(r) != len(rays[0]) for r in rays):
        raise InputError("rays of mixed dimension")
    n = len(rays[0])
    table = tuple(sorted_vectors(set(rays)))
    if n == 2:
        d = common_field(x for r in table for x in r)
        extreme = _plane_extremes([_pair_row(r) for r in table], d)
        if extreme is None:
            raise InputError("cone contains a line")
        return tuple(table[i] for i in extreme)
    if len(table) == n and scalar_rank(table) == n:
        return table
    if zero_in_hull(table):
        raise InputError("cone contains a line")
    if len(table) <= 2:
        return table
    return tuple(r for r in table if not has_nonneg_solution(
        transpose([s for s in table if s != r]), r))


#: how a ray set of seeded_rational_ray_sets is grown from its base rays
GROWN = ("duplicate", "multiple", "inner", "antiparallel", "zero", "mixed")


def seeded_rational_ray_sets(rng):
    """(kind, form, rays): base rays in R^2 or R^3, pointed (a last
    coordinate >= 1) or not, grown by a duplicate, a positive multiple, a
    nonnegative combination, a negative multiple, a zero ray or a ray of
    the other dimension, and written as ints, Fractions or rational
    Scalars, each ray over its own denominator."""
    for trial in range(720):
        n, kind = 2 + trial % 2, GROWN[trial // 2 % len(GROWN)]
        low = 1 if rng.random() < 0.6 else -3
        base = [[rng.randint(-4, 4) for _ in range(n - 1)] +
                [rng.randint(low, 3) or 1]
                for _ in range(rng.randint(1, n + 2))]
        rays = [list(r) for r in base]
        pick = rng.choice(base)
        k = rng.randint(2, 4)
        rays.append({
            "duplicate": list(pick), "multiple": [k * x for x in pick],
            "inner": [sum(rng.randint(1, 3) * r[i] for r in base)
                      for i in range(n)],
            "antiparallel": [-k * x for x in pick], "zero": [0] * n,
            "mixed": [1] * (5 - n)}[kind])
        rng.shuffle(rays)
        form = ("int", "Fraction", "Scalar")[trial // 12 % 3]
        if form != "int":
            wrap = Scalar if form == "Scalar" else Fraction
            rays = [[wrap(Fraction(x, q)) for x in r]
                    for r, q in ((r, rng.randint(1, 6)) for r in rays)]
        yield kind, form, rays


def test_cones_on_integer_rows_match_the_scalar_ray_oracle():
    seen = set()
    for kind, form, rays in seeded_rational_ray_sets(random.Random(2207)):
        try:
            want = cone_oracle(rays)
        except InputError as e:
            want = type(e)
        try:
            sigma = Cone(rays)
            got = sigma.rays
        except InputError as e:
            got = type(e)
        assert got == want, (kind, form, rays)
        if got is not InputError:
            assert all(type(x) is Scalar for r in got for x in r)
            # the cone keeps the rows, and a view on them reads them back
            rows = tuple(tuple(int(x.a) for x in r) for r in got)
            assert sigma._stored == sigma._rows == rows
            view = Cone._view(rows, len(rays[0]))
            assert view == sigma and view._rows == rows and view.rays == got
        seen.add((kind, len(rays[0]), form, got is InputError))
    # every growth in both dimensions and all three forms; pointed cones
    # and lines for each growth that keeps the rays nonzero, of one
    # dimension and without an antiparallel pair
    assert {s[:3] for s in seen} == {
        (k, n, f) for k in GROWN for n in (2, 3)
        for f in ("int", "Fraction", "Scalar")}
    assert {(s[0], s[3]) for s in seen} == {
        (k, line) for k in GROWN for line in (False, True)
        if k in ("duplicate", "multiple", "inner") or line}


def test_normal_fan_of_cube_is_all_faces_of_its_orthants():
    for d in (2, 3, 4):
        F = normal_fan(cube(d))
        subsets = {frozenset(sub) for c in F.maximal_cones()
                   for k in range(d + 1) for sub in combinations(c.rays, k)}
        assert {frozenset(c.rays) for c in F.cones} == subsets
        assert len(F) == len(subsets) == 3 ** d
        assert len(F.rays) == 2 * d


def test_normal_fan_rectangle_equals_square_fan():
    rect = SimplePolytope([([1, 0], 0), ([0, 1], 0),
                           ([-1, 0], -3), ([0, -1], -1)])
    assert normal_fan(rect) == normal_fan(cube(2))


def test_normal_fan_negates_the_stored_inward_normals():
    r2 = Scalar.sqrt_int(2)
    for P, rational in ((cube(3), True),
                        (SimplePolytope([([1, 0], 0), ([0, 1], 0),
                                         ([-1, -r2], -1)]), False)):
        F = normal_fan(P)
        # rational outward rays stay primitive integer vectors
        assert all(type(x) is int for r in F._stored for x in r) == rational
        assert fan_to_json(F) == fan_to_json(negating_normal_fan(P))


def test_cone_classify():
    assert cone_classify(Cone([[1, 0], [0, 1]])) == "Smooth"
    assert cone_classify(Cone([[0, 1], [2, -1]])) == ("Orbifold", 2)
    r2 = Scalar.sqrt_int(2)
    assert cone_classify(Cone([[1, 0], [Scalar(1), r2]])) == "NonRational"
    with pytest.raises(NotSimplicial):
        cone_classify(Cone([[1, 0]]))
    # four extreme rays over a quadrilateral span only a 3-space of R^4:
    # dependence is reported before irrationality
    for x in (Scalar(-1), -r2):
        square = Cone([[1, 0, 1, 0], [0, 1, 1, 0], [-1, 0, 1, 0],
                       [0, x, 1, 0]])
        assert len(square.rays) == 4
        with pytest.raises(NotSimplicial):
            cone_classify(square)
    assert cone_classify(Cone([[1, 0, 0], [0, 1, 0], [1, 1, 3]])) == \
        ("Orbifold", 3)


def cone_classify_oracle(sigma):
    """cone_classify by the integer determinant oracle for rational rays
    and an exact rank for irrational ones; "NotSimplicial" for dependent
    rays or too few of them."""
    n = sigma.ambient_dim
    if len(sigma.rays) == n:
        if sigma.is_rational():
            idx = abs(int_det([[int(x.a) for x in r] for r in sigma.rays]))
            if idx:
                return "Smooth" if idx == 1 else ("Orbifold", idx)
        elif scalar_rank([list(r) for r in sigma.rays]) == n:
            return "NonRational"
    return "NotSimplicial"


def test_cone_classify_matches_the_rank_oracle():
    rng = random.Random(20261106)
    seen = set()
    for trial in range(300):
        d = (0, 2, 5)[trial % 3]
        root = Scalar.sqrt_int(d) if d else Scalar(0)
        n = rng.randint(2, 4)
        rays = [[Scalar(rng.randint(-3, 3)) + root * rng.randint(-1, 1)
                 if rng.random() < 0.3 else Scalar(rng.randint(-3, 3))
                 for _ in range(n)] for _ in range(rng.randint(n - 1, n))]
        if rng.random() < 0.3 and len(rays) > 2:  # a dependent ray
            rays[-1] = [a + b for a, b in zip(rays[0], rays[1])]
        if trial % 4 == 3:  # four extreme rays over a square, in R^4
            M = [[Scalar(rng.randint(-2, 2)) + root * rng.randint(-1, 1)
                  for _ in range(3)] for _ in range(4)]
            rays = [[sum((a * x for a, x in zip(row, sq)), Scalar(0))
                     for row in M] for sq in ((1, 0, 1), (0, 1, 1),
                                              (-1, 0, 1), (0, -1, 1))]
        try:
            sigma = Cone(rays)
        except InputError:  # a zero ray, or a line
            continue
        want = cone_classify_oracle(sigma)
        try:
            got = cone_classify(sigma)
        except NotSimplicial:
            got = "NotSimplicial"
        assert got == want, sigma
        seen.add((d > 0, want if isinstance(want, str) else want[0]))
    assert seen >= {(False, "Smooth"), (False, "Orbifold"),
                    (False, "NotSimplicial"), (True, "NonRational"),
                    (True, "NotSimplicial")}


def test_irrational_ray_tables_keep_the_scalar_order():
    rng = random.Random(20261105)
    for d in (2, 5):
        root = Scalar.sqrt_int(d)
        for trial in range(40):
            dim = rng.randint(1, 3)
            vecs = [[Scalar(rng.randint(-2, 2)) + root * rng.randint(-1, 1)
                     for _ in range(dim)] for _ in range(rng.randint(1, 8))]
            rays = {canonical_ray(v) for v in vecs
                    if any(not x.is_zero() for x in v)}
            want = sorted(rays)  # tuples compared through Scalar.__lt__
            assert sorted_vectors(rays) == want
            F = Fan.from_faces(dim, dict(enumerate(rays)),
                               [[k] for k in range(len(rays))])
            assert list(F.rays) == want


def check_hilbert_basis(d1, d2, basis, box=10):
    """Independent verification: the basis must generate (as a semigroup)
    every lattice point of the cone within a box, and must be minimal."""
    det = d1[0] * d2[1] - d1[1] * d2[0]

    def inside(p):
        s = p[0] * d2[1] - p[1] * d2[0]
        t = p[1] * d1[0] - p[0] * d1[1]
        if det < 0:
            s, t = -s, -t
        return s >= 0 and t >= 0

    def representable(p, gens, memo):
        if p == (0, 0):
            return True
        if p in memo:
            return memo[p]
        memo[p] = False  # guard against cycles (none occur: sums shrink)
        for b in gens:
            q = (p[0] - b[0], p[1] - b[1])
            if inside(q) and representable(q, gens, memo):
                memo[p] = True
                break
        return memo[p]

    gens = [tuple(b) for b in basis]
    assert all(inside(b) for b in gens)
    memo = {}
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            if (x, y) != (0, 0) and inside((x, y)):
                assert representable((x, y), gens, memo), (x, y)
    for b in gens:
        others = [g for g in gens if g != b]
        assert not representable(b, others, {}), b


def test_dual_cone_and_hilbert_basis():
    rays, basis = dual_cone_2d(Cone([[1, 0], [1, 2]]))
    assert sorted(map(tuple, rays)) == [(0, 1), (2, -1)]
    assert basis == [[0, 1], [1, 0], [2, -1]]
    # the A_2-type cone: 3 generators, verified by the brute-force oracle
    rays, basis = dual_cone_2d(Cone([[1, 0], [1, 3]]))
    assert len(basis) == 3
    check_hilbert_basis(*map(tuple, rays), basis)
    # 1/3(1,1)-type dual cone needs 4 generators
    rays, basis = dual_cone_2d(Cone([[0, 1], [3, -1]]))
    assert len(basis) == 4
    check_hilbert_basis(*map(tuple, rays), basis)
    with pytest.raises(NonRational):
        dual_cone_2d(Cone([[1, 0], [Scalar(1), Scalar.sqrt_int(2)]]))


def hilbert_basis_oracle(d1, d2):
    """Brute force: the lattice points of the parallelogram
    {s d1 + t d2 : 0 <= s, t <= 1} that are no sum of two others.  The scan
    box is the parallelogram's bounding box, so no point is missed."""
    det = d1[0] * d2[1] - d1[1] * d2[0]
    sgn = 1 if det > 0 else -1
    corners = [(0, 0), d1, d2, (d1[0] + d2[0], d1[1] + d2[1])]
    pts = set()
    for x in range(min(c[0] for c in corners), max(c[0] for c in corners) + 1):
        for y in range(min(c[1] for c in corners), max(c[1] for c in corners) + 1):
            s = sgn * (x * d2[1] - y * d2[0])
            t = sgn * (y * d1[0] - x * d1[1])
            if (x, y) != (0, 0) and 0 <= s <= abs(det) and 0 <= t <= abs(det):
                pts.add((x, y))
    return sorted(list(p) for p in pts
                  if not any((p[0] - q[0], p[1] - q[1]) in pts
                             for q in pts if q != p))


def test_hilbert_basis_matches_brute_force():
    # the cone whose dual rays lie outside a det-sized scan box
    rays, basis = dual_cone_2d(Cone([[-1, 2], [-3, 5]]))
    assert basis == [[-2, -1], [5, 3]] == hilbert_basis_oracle(*rays)
    rng = random.Random(11)
    dets = set()
    while len(dets) < 80:
        u = [rng.randint(-15, 15), rng.randint(-15, 15)]
        w = [rng.randint(-15, 15), rng.randint(-15, 15)]
        det = u[0] * w[1] - u[1] * w[0]
        if det == 0 or abs(det) > 200 or abs(det) in dets:
            continue
        dets.add(abs(det))
        rays, basis = dual_cone_2d(Cone([u, w]))
        assert basis == hilbert_basis_oracle(*rays), (u, w)


def test_hilbert_basis_random_cones_vs_oracle():
    rng = random.Random(3)
    for _ in range(15):
        u = (rng.randint(1, 4), rng.randint(-3, 3))
        w = (rng.randint(-3, 3), rng.randint(1, 4))
        if u[0] * w[1] - u[1] * w[0] == 0:
            continue
        try:
            rays, basis = dual_cone_2d(Cone([list(u), list(w)]))
        except InputError:
            continue
        check_hilbert_basis(*map(tuple, rays), basis)


def test_is_refinement():
    square_fan = normal_fan(cube(2))
    # split the positive quadrant along (1,1)
    split = [Cone([[1, 0], [1, 1]]), Cone([[1, 1], [0, 1]]),
             Cone([[-1, 0], [0, 1]]), Cone([[1, 0], [0, -1]]),
             Cone([[-1, 0], [0, -1]])]
    fine = Fan(split)
    assert is_refinement(fine, square_fan)
    assert not is_refinement(square_fan, fine)
    assert is_refinement(square_fan, square_fan)
    # missing a quadrant: not a refinement
    partial = Fan([Cone([[1, 0], [0, 1]])])
    assert not is_refinement(partial, square_fan)


def test_fan_json_roundtrip():
    F = normal_fan(cube(2))
    assert fan_from_json(fan_to_json(F)) == F
    with pytest.raises(InputError):
        fan_from_json({"cones": "nope"})
    with pytest.raises(InputError):
        fan_from_json({"dim": 2, "cones": [{"rays": [["1", "0"], ["-1", "0"]]}]})
    with pytest.raises(InputError):
        fan_from_json({"dim": 2, "cones": [{"rays": [["1", "0", "0"]]}]})
    with pytest.raises(InputError):
        Cone([[0, 0], [1, 0]])


def test_non_simplicial_cones_are_rejected():
    # the cone over a square has 10 faces, not the 16 subsets of its rays
    square = [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]]
    planar = [[1, 0], [1, 1], [0, 1]]

    def as_json(dim, *cones):
        return {"dim": dim, "cones": [{"rays": [[str(x) for x in r]
                                                for r in c]} for c in cones]}

    with pytest.raises(NotSimplicial):
        Fan([Cone(square)])
    with pytest.raises(NotSimplicial):
        Fan.from_faces(3, dict(enumerate(map(canonical_ray, square))),
                       [range(4)])
    for dim, rays in ((3, square), (2, planar)):
        with pytest.raises(NotSimplicial):
            fan_from_json(as_json(dim, rays))
    # a Cone keeps only its extreme rays, so the planar one is a quadrant
    assert Fan([Cone(planar)]) == Fan([Cone([[1, 0], [0, 1]])])
    # a cone holding a line is reported first, whichever cone it is
    with pytest.raises(InputError):
        fan_from_json(as_json(2, planar, [[1, 0], [-1, 0]]))


# -- oracles: membership by cross products and refinement by an edge walk ------


def _cross(u, w):
    return u[0] * w[1] - u[1] * w[0]


def _dot(u, w):
    return sum((a * b for a, b in zip(u, w)), Scalar(0))


def contains_oracle(cone, v):
    """Exact membership for 1D/2D cones by signs of cross products."""
    v = [Scalar._coerce(x) for x in v]
    if all(x.is_zero() for x in v):
        return True
    if cone.ambient_dim == 1:
        return any(r[0].sign() == v[0].sign() for r in cone.rays)
    if cone.ambient_dim == 2:
        if not cone.rays:
            return False
        if len(cone.rays) == 1:
            r = cone.rays[0]
            return _cross(r, v).is_zero() and _dot(r, v).sign() > 0
        for u, w in combinations(cone.rays, 2):
            # v in cone(u, w) iff cross products have matching signs
            cuw = _cross(u, w)
            if cuw.is_zero():
                continue
            s = cuw.sign()
            if (_cross(u, v) * Scalar(s)).sign() >= 0 and \
               (_cross(v, w) * Scalar(s)).sign() >= 0:
                return True
        return False
    raise WrongDimension("membership implemented for ambient dim <= 2")


def is_refinement_oracle(fine, coarse):
    """Every cone of `coarse` is the union of the cones of `fine` inside
    it: points and rays must be fine cones, and the fine 2-cones inside a
    sector must chain counterclockwise from one edge to the other."""
    if fine.ambient_dim != coarse.ambient_dim:
        raise DimensionMismatch("fans live in different dimensions")
    n = fine.ambient_dim
    if n > 2:
        raise WrongDimension("refinement test implemented for dim <= 2")
    fine_cones = fine.cones
    for sigma in coarse.cones:
        if len(sigma.rays) <= 1:
            if not any(_cone_inside(sigma, tau) and _cone_inside(tau, sigma)
                       for tau in fine_cones):
                return False
            continue
        if n == 1:
            if not any(set(tau.rays) == set(sigma.rays) for tau in fine_cones):
                return False
            continue
        inside = [tau for tau in fine_cones
                  if len(tau.rays) == 2 and _cone_inside(tau, sigma)]
        if not _tiles_sector(inside, sigma):
            return False
    return True


def _cone_inside(tau, sigma):
    return all(contains_oracle(sigma, list(r)) for r in tau.rays)


def _tiles_sector(parts, sigma):
    if not parts:
        return False
    (a, b) = sigma.rays
    if (_cross(a, b)).sign() < 0:
        a, b = b, a
    # orient each part counterclockwise and chain from a to b
    edges = []
    for tau in parts:
        (u, w) = tau.rays
        if _cross(u, w).sign() < 0:
            u, w = w, u
        edges.append((u, w))
    cur = a
    used = set()
    while True:
        if cur == b and used:
            return len(used) == len(edges)
        nxt = None
        for k, (u, w) in enumerate(edges):
            if k not in used and u == cur:
                nxt = (k, w)
                break
        if nxt is None:
            return False
        used.add(nxt[0])
        cur = nxt[1]


# -- LP oracles: planar cones and refinement as decided in any dimension -------


def cone_lp_oracle(rays):
    """The rays of Cone(rays) by the hull LP and one feasibility LP per
    ray, as in R^3 and up; None when the cone holds a line."""
    table = tuple(sorted_vectors({canonical_ray(r) for r in rays}))
    if lp_zero_in_hull(table):
        return None
    if len(table) <= 2:
        return table
    return tuple(r for r in table if not has_nonneg_solution(
        transpose([s for s in table if s != r]), r))


def is_refinement_lp_oracle(fine, coarse):
    """is_refinement of 2D fans with sector membership by one LP per fine
    ray and the counterclockwise order by Scalar cross products."""
    index = {r: i for i, r in enumerate(fine.rays)}
    ccw = cmp_to_key(lambda i, j: _cross(fine.rays[j], fine.rays[i]).sign())
    for face in coarse.faces:
        rays = {coarse.rays[i] for i in face}
        if len(rays) <= 1:
            if frozenset(index.get(r) for r in rays) not in fine.faces:
                return False
            continue
        sector = transpose(coarse._cone(face).rays)
        inside = sorted((i for i, r in enumerate(fine.rays)
                         if has_nonneg_solution(sector, r)), key=ccw)
        if not inside or \
                {fine.rays[inside[0]], fine.rays[inside[-1]]} != rays:
            return False
        pairs = {frozenset(p) for p in zip(inside, inside[1:])}
        if pairs != {f for f in fine.faces if len(f) == 2 and f <= set(inside)}:
            return False
    return True


def seeded_planar_sectors(rng):
    """(a, b, inner, outer) over Q and over Q(sqrt 2): a sector cone(a, b)
    with a -> b counterclockwise, rays inside it (some on its edges, as
    multiples of a or b) and rays outside it."""
    r2 = Scalar.sqrt_int(2)
    count = 0
    while count < 160:
        root = r2 if count % 2 else Scalar(0)

        def entry():
            return Scalar(rng.randint(-4, 4)) + root * rng.randint(-1, 1)

        a, b = [entry(), entry()], [entry(), entry()]
        if _cross(a, b).sign() <= 0:
            continue
        inner = []
        for _ in range(rng.randint(0, 4)):
            s, t = rng.randint(0, 3), rng.randint(0, 3)
            if s or t:
                inner.append([s * x + t * y for x, y in zip(a, b)])
        outer = [[-x for x in rng.choice((a, b))],
                 [-x - y for x, y in zip(a, b)],
                 [x - y for x, y in zip(a, b)]]
        count += 1
        yield a, b, inner, outer


def test_planar_cones_and_refinement_match_the_lp_oracles():
    rng = random.Random(1919)
    seen = set()
    for a, b, inner, outer in seeded_planar_sectors(rng):
        field = any(not x.is_rational for x in a + b)
        for rays in [[a, b] + inner, inner + [b, a, b]] + \
                [[a, b] + inner + [o] for o in outer] + [[a, outer[0]]]:
            want = cone_lp_oracle(rays)
            try:
                got = Cone(rays).rays
            except InputError:
                got = None
            assert got == want, rays
            seen.add(("cone", field, got is None))
        # membership in the sector against the feasibility LP
        sector = Cone([a, b])
        for v in inner + outer + [[-x for x in a], [0, 0]]:
            inside = sector.contains(v)
            assert inside == has_nonneg_solution(transpose(sector.rays), v)
            seen.add(("contains", field, inside))
        # the fan of the sector cut along the inner rays, counterclockwise
        cut = sorted({canonical_ray(r) for r in [a, b] + inner},
                     key=cmp_to_key(lambda u, w: _cross(w, u).sign()))
        fine = Fan([Cone([u, w]) for u, w in zip(cut, cut[1:])])
        coarse = Fan([Cone([a, b])])
        pairs = [(fine, coarse), (coarse, fine), (fine, fine)]
        if len(cut) > 2:
            maxima = fine.maximal_cones()
            del maxima[rng.randrange(len(maxima))]
            pairs.append((Fan(maxima, ambient_dim=2), coarse))
        beyond = Fan(fine.maximal_cones() + [Cone([b, outer[2]])])
        pairs += [(beyond, coarse), (coarse, beyond)]
        for F, G in pairs:
            got = is_refinement(F, G)
            assert got == is_refinement_lp_oracle(F, G) == \
                is_refinement_oracle(F, G), (F.rays, G.rays)
            seen.add(("refinement", field, got))
    assert seen == {(kind, field, answer)
                    for kind in ("cone", "contains", "refinement")
                    for field in (False, True) for answer in (False, True)}


def random_gl2(rng):
    """A random integer matrix of determinant +-1 with small entries."""
    M = [[1, 0], [0, rng.choice((1, -1))]]
    for _ in range(3):
        t = rng.randint(-2, 2)
        M = [[M[0][0] + t * M[1][0], M[0][1] + t * M[1][1]], M[1]]
        M = [M[1], M[0]]
    return M


def seeded_sectors(rng):
    """Rational cones with a resolution of m <= 60, in random unimodular
    frames, and cones of Q(sqrt 2) slope with a truncated resolution."""
    r2 = Scalar.sqrt_int(2)
    for _ in range(30):
        m = rng.randint(2, 60)
        k = rng.choice([k for k in range(1, m) if gcd(m, k) == 1])
        M = random_gl2(rng)
        rays = [[M[i][0] * x + M[i][1] * y for i in range(2)]
                for x, y in ((0, 1), (m, -k))]
        yield Cone(rays), None
    for _ in range(15):
        x = Scalar(rng.randint(0, 3)) + Scalar(rng.randint(1, 3)) * r2
        yield Cone([[0, 1], [x, Scalar(-1)]]), rng.randint(1, 6)


def test_contains_and_is_refinement_match_the_oracles():
    rng = random.Random(20261019)
    answers = set()

    def check(fine, coarse):
        got = is_refinement(fine, coarse)
        assert got == is_refinement_oracle(fine, coarse), (fine.rays,
                                                           coarse.rays)
        answers.add(got)

    def check_contains(cone, v):
        got = cone.contains(v)
        assert got == contains_oracle(cone, v), (cone, v)
        answers.add(("contains", got))

    for sigma, depth in seeded_sectors(rng):
        F, _, _ = resolve_cone(sigma, depth)
        coarse = Fan([sigma])
        maxima = F.maximal_cones()
        dropped = maxima[:]
        del dropped[rng.randrange(len(dropped))]
        partial = Fan(dropped, ambient_dim=2)
        for fine, crs in ((F, coarse), (partial, coarse), (coarse, F),
                          (F, F), (coarse, coarse)):
            check(fine, crs)
        rays = rng.sample(F.rays, min(3, len(F.rays)))
        for tau in [Cone([], 2), Cone([rays[0]])] + maxima[:3] + [sigma]:
            for r in rays:
                check_contains(tau, list(r))
                check_contains(tau, [-x for x in r])
            for _ in range(4):
                check_contains(tau, [rng.randint(-9, 9), rng.randint(-9, 9)])
            check_contains(tau, [sum(c) for c in zip(*tau.rays)]
                           if tau.rays else [0, 0])
    # overlapping 2-cones cover the quadrant but are no fan refining it
    quadrant = Fan([Cone([[1, 0], [0, 1]])])
    overlap = Fan([Cone([[1, 0], [0, 1]]), Cone([[1, 0], [1, 1]])])
    assert not is_refinement_oracle(overlap, quadrant)
    check(overlap, quadrant)
    # 1D: the two half-lines, the origin and the line through both
    pos, neg = Cone([[1]]), Cone([[-1]])
    line = Fan([pos, neg])
    for fine, crs in ((line, line), (Fan([pos]), line), (line, Fan([neg])),
                      (Fan([], 1), Fan([], 1)), (Fan([], 1), Fan([pos]))):
        check(fine, crs)
    for tau in (pos, neg, Cone([], 1)):
        for v in ([3], [-2], [0], [Fraction(1, 2)]):
            check_contains(tau, v)
    assert answers == {True, False, ("contains", True), ("contains", False)}


def test_contains_in_three_and_four_dimensions():
    octant = Cone([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert octant.contains([1, 2, 3])
    assert octant.contains([0, 0, 5])
    assert not octant.contains([1, -1, 0])
    r2 = Scalar.sqrt_int(2)
    assert octant.contains([r2, 0, Fraction(1, 3)])
    # a non-simplicial cone over a square: (1, 1, 2) is the sum of two
    # opposite rays, (2, 1, 1) leaves the square
    square = Cone([[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]])
    assert square.contains([0, 0, 2])
    assert square.contains([1, 0, 1])
    assert not square.contains([2, 1, 1])
    assert Cone([], 4).contains([0, 0, 0, 0])
    assert not Cone([], 4).contains([0, 0, 1, 0])
    for cone, v in ((octant, [1, 2, 3]), (Cone([], 4), [0, 0, 0, 1])):
        with pytest.raises(WrongDimension):
            contains_oracle(cone, v)
    with pytest.raises(DimensionMismatch):
        octant.contains([1, 2])
    # simplicial cones: v is inside iff its coordinates in the rays are >= 0
    rng = random.Random(34)
    answers = set()
    for _ in range(60):
        n = rng.choice((3, 4))
        rays = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        columns = [list(c) for c in zip(*rays)]
        if solve_exact(columns, [0] * n)[0] != "unique":
            continue
        cone = Cone(rays)
        v = [rng.randint(-6, 6) for _ in range(n)]
        t = solve_exact(columns, v)[1]
        got = cone.contains(v)
        assert got == all(x.sign() >= 0 for x in t), (rays, v)
        answers.add(got)
    assert answers == {True, False}


# -- oracles: the normal fan canonicalising afresh, and the Scalar frame -------


def negating_normal_fan(P):
    """normal_fan negating every entry of the canonical inward rays as a
    Scalar."""
    used = {i for I in P.incidence for i in I}
    rays = {i: tuple(-Scalar._coerce(x) for x in P._normal_rays[i][0])
            for i in used}
    return Fan.from_faces(P.dim, rays, P.incidence)


def normal_fan_oracle(P):
    """normal_fan with canonical_ray called on every negated normal."""
    used = {i for I in P.incidence for i in I}
    rays = {i: canonical_ray([-x for x in P.facets[i][0]]) for i in used}
    return Fan.from_faces(P.dim, rays, P.incidence)


def test_normal_fan_matches_the_canonicalising_oracle():
    rng = random.Random(1506)
    cases = [cube(d) for d in range(2, 6)] + [simplex(d) for d in range(2, 6)]
    cases.append(cube(3, side=Fraction(5, 2)))
    polygons = []
    while len(polygons) < 12:
        try:
            polygons.append(SimplePolytope(lattice_polygon(rng)))
        except (Unbounded, NotSimple):
            pass
    cases += polygons
    for P in polygons:
        try:
            cases.append(SimplePolytope(sqrt2_polygon(rng, P)))
        except (Unbounded, NotSimple):
            pass
    over_sqrt2 = [P for P in cases if any(
        not x.is_rational for nrm, c in P.facets for x in nrm + [c])]
    assert len(over_sqrt2) >= 8
    assert any(P.delzant_class == IRRATIONAL for P in over_sqrt2)
    for P in cases:
        F = normal_fan(P)
        assert F == normal_fan_oracle(P)
        # rational rays negated on their integers give the same JSON
        assert fan_to_json(F) == fan_to_json(negating_normal_fan(P))
        # the ray table keeps its exact lexicographic order, as compared
        # by Scalar.__lt__
        assert list(F.rays) == sorted(F.rays)


def hj_frame_oracle(v, w):
    """hj_frame with every step in Scalar arithmetic."""
    w = [Scalar._coerce(a) for a in w]
    p, q = v
    s, t = _bezout(p, q)
    eps = 1 if _cross(v, w) > 0 else -1
    e = (-eps * t, eps * s)
    x = eps * _cross(v, w)
    beta = -eps * _cross(e, w)
    c = (beta / x).ceil()
    return (e[0] + c * p, e[1] + c * q), x, x * c - beta


def dual_cone_2d_oracle(sigma):
    """dual_cone_2d on the Scalar frame."""
    u, w = ([int(x.a) for x in r] for r in sigma.rays)
    if _cross(u, w) < 0:
        u, w = w, u
    d1 = [-u[1], u[0]]
    d2 = [w[1], -w[0]]
    e, x, y = hj_frame_oracle(d1, [Scalar(a) for a in d2])
    inner = hj_chain(d1, e, hj_digits(int(x.a), int(y.a)))
    return [d1, d2], sorted([d1] + inner + [d2])


def _image(M, v):
    return [M[i][0] * v[0] + M[i][1] * v[1] for i in range(2)]


def test_hj_frame_matches_the_scalar_oracle():
    rng = random.Random(2774)
    # every coprime m/k with m <= 200, in a seeded unimodular frame
    for m in range(1, 201):
        for k in range(m):
            if gcd(m, k) != 1:
                continue
            M = random_gl2(rng)
            v, w = _image(M, (0, 1)), _image(M, (m, -k))
            e, x, y = hj_frame(v, w)
            assert type(x) is int and 0 <= y < x
            assert (e, Scalar(x), Scalar(y)) == hj_frame_oracle(v, w)
    # a rational ray that is not integral stays exact
    e, x, y = hj_frame((0, 1), [Fraction(3, 2), -1])
    assert (e, x, y) == ((1, 0), Fraction(3, 2), 1)
    assert (e, Scalar(x), Scalar(y)) == \
        hj_frame_oracle((0, 1), [Fraction(3, 2), -1])
    # Q(sqrt 2) and Q(sqrt 5) rays: the ceiling comes from Scalar floor
    for d in (2, 5):
        root = Scalar.sqrt_int(d)
        for _ in range(40):
            M = random_gl2(rng)
            slope = Scalar(rng.randint(1, 4)) + Scalar(
                Fraction(rng.randint(1, 5), rng.randint(1, 3))) * root
            v, w = _image(M, (0, 1)), _image(M, (slope, Scalar(-1)))
            e, x, y = hj_frame(v, w)
            assert (e, x, y) == hj_frame_oracle(v, w)
            assert 0 <= y < x and not (x / y).is_rational


def _turn(v):
    return [-v[1], v[0]]


def test_dual_cone_matches_the_scalar_oracle():
    rng = random.Random(1308)
    for det in range(1, 201):
        k = rng.choice([k for k in range(1, det + 1) if gcd(det, k) == 1])
        M = random_gl2(rng)
        u, w = _image(M, (0, 1)), _image(M, (det, -k))
        # the same cone in all four quarter-turn orientations
        for _ in range(4):
            u, w = _turn(u), _turn(w)
            sigma = Cone([u, w])
            assert dual_cone_2d(sigma) == dual_cone_2d_oracle(sigma), (u, w)


def test_dual_chains_are_capped():
    # the dual of cone((0, 1), (m, -1)) has the chain of m/(m - 1), with
    # m - 1 digits, so its Hilbert basis has m + 1 elements
    n = DEPTH_LIMIT
    rays, basis = dual_cone_2d(Cone([[0, 1], [n + 1, -1]]))
    assert len(basis) == n + 2
    with pytest.raises(ChainTooLong, match=f"DEPTH_LIMIT = {n}"):
        dual_cone_2d(Cone([[0, 1], [n + 2, -1]]))


# -- oracle: maximal faces by the covered-set pass -----------------------------


def maximal_cones_oracle(F):
    """In a subset-closed family a face is maximal iff it is no other face
    minus one of its rays."""
    covered = {f - {i} for f in F.faces for i in f}
    return [F._cone(f) for f in sorted(F.faces, key=_face_key)
            if f not in covered]


def seeded_fans(rng):
    """Normal fans of boxes, simplices and lattice polygons, and
    Hirzebruch-Jung resolutions of rational and Q(sqrt 2) 2D cones."""
    for d in range(1, 5):
        box = []
        for i in range(d):
            e = [0] * d
            e[i] = 1
            box += [(e, 0), ([-x for x in e], -Fraction(rng.randint(1, 9),
                                                        rng.randint(1, 4)))]
        yield normal_fan(SimplePolytope(box))
        a = [rng.randint(1, 4) for _ in range(d)]
        yield normal_fan(SimplePolytope(
            [([int(i == j) for j in range(d)], 0) for i in range(d)]
            + [([-x for x in a], -rng.randint(1, 5))]))
        yield normal_fan(simplex(d + 1))
    polygons = 0
    while polygons < 8:
        try:
            P = SimplePolytope(lattice_polygon(rng))
        except (Unbounded, NotSimple):
            continue
        polygons += 1
        yield normal_fan(P)
    r2 = Scalar.sqrt_int(2)
    for _ in range(12):
        m = rng.randint(2, 60)
        k = rng.choice([k for k in range(1, m) if gcd(m, k) == 1])
        M = random_gl2(rng)
        yield resolve_cone(Cone([_image(M, (0, 1)), _image(M, (m, -k))]))[0]
    yield resolve_cone(Cone([[0, 1], [1 + r2, Scalar(-1)]]), depth=6)[0]


def test_maximal_cones_match_the_covered_set_oracle():
    rng = random.Random(1805)
    kinds = set()
    for F in seeded_fans(rng):
        maxima = F.maximal_cones()
        assert maxima == maximal_cones_oracle(F)
        # the same fan from its maximal cones, repeated and shuffled in
        # among some of their faces, records the same maximal faces
        faces = sorted(F.faces, key=_face_key)
        cones = maxima * 2 + [F._cone(f) for f in rng.sample(
            faces, min(len(faces), 6))]
        rng.shuffle(cones)
        G = Fan(cones)
        assert G == F and G.maximal_cones() == maxima
        assert maximal_cones_oracle(G) == maxima
        kinds.add((F.ambient_dim,
                   all(x.is_rational for r in F.rays for x in r)))
    assert {dim for dim, _ in kinds} == {1, 2, 3, 4, 5}
    assert (2, False) in kinds


# -- oracle: fans closed from their maximal cones ------------------------------


def assert_same_fan(F, G):
    assert type(F.faces) is frozenset
    assert all(type(f) is frozenset for f in F.faces)
    assert (F.ambient_dim, F.rays, F.faces, F._maximal) == \
        (G.ambient_dim, G.rays, G.faces, G._maximal)
    assert fan_to_json(F) == fan_to_json(G)


def test_closed_family_fans_match_closure_built_fans():
    """normal_fan and resolve_cone hand Fan a family closed already; the
    fans built by closing their maximal cones are the same."""
    rng = random.Random(1903)
    cases = []
    for d in range(1, 5):
        box = []
        for i in range(d):
            e = [int(i == j) for j in range(d)]
            box += [(e, rng.randint(-3, 3)),
                    ([-x for x in e], -Fraction(rng.randint(4, 9), 2))]
        cases += [SimplePolytope(box), simplex(d + 1)]
    polygons = []
    while len(polygons) < 6:
        try:
            polygons.append(SimplePolytope(lattice_polygon(rng)))
        except (Unbounded, NotSimple):
            pass
    cases += polygons
    for P in polygons[:3]:
        cases.append(SimplePolytope(
            [(list(u) + [0], c) for u, c in P.facets]
            + [([0, 0, 1], 0), ([0, 0, -1], -rng.randint(1, 5))]))
    for P in polygons:
        try:
            cases.append(SimplePolytope(sqrt2_polygon(rng, P)))
        except (Unbounded, NotSimple):
            pass
    assert any(not x.is_rational for P in cases for nrm, _ in P.facets
               for x in nrm)
    assert {P.dim for P in cases} == {1, 2, 3, 4, 5}
    for P in cases:
        assert_same_fan(normal_fan(P), normal_fan_oracle(P))
    ccw = cmp_to_key(lambda u, w: _cross(w, u).sign())
    fields = set()
    for sigma, depth in seeded_sectors(rng):
        F, inserted, _ = resolve_cone(sigma, depth)
        chain = sorted({*sigma.rays, *map(tuple, inserted)}, key=ccw)
        assert_same_fan(F, Fan.from_faces(
            2, dict(enumerate(chain)),
            [(j, j + 1) for j in range(len(chain) - 1)]))
        fields.add(sigma.is_rational())
    assert fields == {False, True}
