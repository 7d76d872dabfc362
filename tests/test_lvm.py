import random
from fractions import Fraction
from itertools import combinations

import pytest

from nctoric import linalg, lvm
from nctoric.errors import (DegenerateFoliation, DegenerateSystem, InputError,
                            IrrationalWeights, WrongDimension)
from nctoric.linalg import canonical_ray, scalar_rank, zero_in_hull
from nctoric.scalars import Scalar, common_field
from test_linalg import (lp_zero_in_hull, rational_subspace_dim,
                         scalar_kernel_basis)

R2 = Scalar.sqrt_int(2)


def five_vector():
    # lambda_1 = lambda_4 = 1, lambda_2 = lambda_3 = i, lambda_5 = -2-2i
    return lvm.Configuration([[(1, 0)], [(0, 1)], [(0, 1)], [(1, 0)],
                              [(-2, -2)]])


def five_vector_perturbed():
    return lvm.Configuration([[(R2, 0)], [(0, 1)], [(0, 1)], [(1, 0)],
                              [(-2, -2)]])


def teardrop(p):
    return lvm.Configuration([[(1, 0)], [(0, 1)], [(p, 0)], [(-1, -1)]])


def test_configuration_validation():
    with pytest.raises(InputError):
        lvm.Configuration([[(1, 0)], [(0, 1)]])        # n <= 2m
    with pytest.raises(InputError):
        lvm.Configuration([[(1, 0)], [(0, 1), (0, 0)], [(1, 1)]])
    for m in (-1, 1.5, True, "1"):
        with pytest.raises(InputError, match="m must be a non-negative integer"):
            lvm.Configuration([[(1, 0)]] * 3, m=m)


def test_check_admissible():
    flags = lvm.check_admissible(five_vector())
    assert flags == {"siegel": True, "weak_hyperbolic": True}
    # all in an open half plane: Siegel fails
    flags = lvm.check_admissible(lvm.Configuration([[(1, 0)], [(2, 0)],
                                                    [(3, 0)]]))
    assert not flags["siegel"]
    # 0 on the segment between two opposite vectors: weak hyperbolicity fails
    flags = lvm.check_admissible(lvm.Configuration([[(1, 0)], [(-1, 0)],
                                                    [(0, 1)]]))
    assert flags["siegel"] and not flags["weak_hyperbolic"]


def weak_hyperbolic_oracle(cfg):
    """Oracle: no 2m-subset of the points has 0 in its hull, by one hull LP
    per subset."""
    pts = cfg.real_points()
    return all(not lp_zero_in_hull(s) for s in combinations(pts, 2 * cfg.m))


def planted_configuration(rng, m, d, kind):
    """n > 2m seeded points of R^2m over Q, or Q(sqrt d) for d > 0, with a
    singular 2m-subset of the given kind planted: a zero point, a pair on a
    line through 0 (antipodal or not), three points on a line through 0,
    or (m = 2) four points on a hyperplane through 0; "random" plants
    nothing."""
    k = 2 * m
    root = Scalar.sqrt_int(d) if d else Scalar(0)

    def entry():
        return Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) \
            + root * rng.randint(-1, 1)

    def factor():  # a nonzero multiplier of either sign
        return Scalar(Fraction(rng.choice((-1, 1)) * rng.randint(1, 3),
                               rng.randint(1, 2))) + root * rng.randint(0, 1)

    pts = [[entry() for _ in range(k)] for _ in range(rng.randint(k + 1, k + 3))]
    idx = rng.sample(range(len(pts)), k if kind == "hyperplane" else 3)
    if kind == "zero":
        pts[idx[0]] = [Scalar(0)] * k
    elif kind == "pair":
        pts[idx[1]] = [factor() * x for x in pts[idx[0]]]
    elif kind == "collinear":
        v = pts[idx[0]]
        for i in idx[1:]:
            pts[i] = [factor() * x for x in v]
    elif kind == "hyperplane":  # k points in the span of k - 1 vectors
        span = [[entry() for _ in range(k)] for _ in range(k - 1)]
        for i in idx:
            c = [factor() for _ in span]
            pts[i] = [sum((a * u[j] for a, u in zip(c, span)), Scalar(0))
                      for j in range(k)]
    return lvm.Configuration([[(p[2 * j], p[2 * j + 1]) for j in range(m)]
                              for p in pts], m)


def test_check_admissible_matches_the_hull_scan_oracle():
    rng = random.Random(20261104)
    seen = set()
    for trial in range(360):
        m, d = 1 + trial % 2, (0, 2, 5)[trial // 2 % 3]
        kinds = ("random", "zero", "pair", "collinear") + \
            (("hyperplane",) if m == 2 else ())
        kind = rng.choice(kinds)
        cfg = planted_configuration(rng, m, d, kind)
        flags = lvm.check_admissible(cfg)
        assert flags == {"siegel": lp_zero_in_hull(cfg.real_points()),
                         "weak_hyperbolic": weak_hyperbolic_oracle(cfg)}, \
            (kind, lvm.configuration_to_json(cfg))
        seen.add((m, d, kind, flags["weak_hyperbolic"]))
    # both answers in every field and m, and for every planted singular
    # subset that may or may not hold 0 in its hull
    assert {(m, d, w) for m, d, _, w in seen} == {
        (m, d, w) for m in (1, 2) for d in (0, 2, 5) for w in (False, True)}
    assert {(kind, w) for _, _, kind, w in seen} >= {
        (kind, w) for kind in ("pair", "collinear", "hyperplane")
        for w in (False, True)}


def test_check_admissible_runs_hulls_only_on_singular_subsets(monkeypatch):
    calls = []

    def counting(pts):
        calls.append(len(pts))
        return zero_in_hull(pts)

    def counting_rows(rows, d):
        calls.append(len(rows))
        return linalg._plane_extremes(rows, d)

    # in C^m for m >= 2 the hull test is zero_in_hull; in C^1 it reads the
    # integer pair rows the determinants were taken on
    monkeypatch.setattr(lvm, "zero_in_hull", counting)
    monkeypatch.setattr(lvm, "_plane_extremes", counting_rows)
    r2 = Scalar.sqrt_int(2)
    # no singular 2m-subset: the Siegel hull is the only hull test
    for cfg in (lvm.Configuration([[(1, 0)], [(0, 1)], [(-1, -2)]]),
                lvm.Configuration([[(1, 0), (0, 0)], [(0, 1), (0, 0)],
                                   [(0, 0), (1, 0)], [(0, 0), (0, 1)],
                                   [(-1, -1), (-r2, -1)]])):
        calls.clear()
        assert lvm.check_admissible(cfg) == {"siegel": True,
                                             "weak_hyperbolic": True}
        assert calls == [cfg.n]
    # two antipodal pairs: the scan stops at the first
    calls.clear()
    flags = lvm.check_admissible(
        lvm.Configuration([[(1, 0)], [(-1, 0)], [(0, 1)], [(0, -1)]]))
    assert flags == {"siegel": True, "weak_hyperbolic": False}
    assert calls == [4, 2]


def test_admissibility_in_c1_runs_no_lp(monkeypatch):
    calls = []
    lp = linalg.has_nonneg_solution

    def counting(A, b):
        calls.append(len(A))
        return lp(A, b)

    monkeypatch.setattr(linalg, "has_nonneg_solution", counting)
    # in C^1 the points lie in the plane: hulls are orientation signs,
    # also on the singular (antipodal) pairs and for every zero-set
    for cfg in (five_vector(), five_vector_perturbed(), teardrop(3),
                lvm.Configuration([[(1, 0)], [(-1, 0)], [(0, R2)],
                                   [(0, -1)], [(0, 0)]])):
        lvm.check_admissible(cfg)
        lvm.minimal_forbidden_zero_sets(cfg)
    assert calls == []
    # in C^2 the Siegel hull and each singular 4-subset, here the two
    # holding the dependent points 0, 1 and 3, run phase I on 4 + 1 rows
    cfg = lvm.Configuration([[(1, 0), (0, 0)], [(0, 1), (0, 0)],
                             [(0, 0), (1, 0)], [(1, 1), (0, 0)],
                             [(-1, -1), (-R2, -1)]])
    assert lvm.check_admissible(cfg) == {"siegel": False,
                                         "weak_hyperbolic": True}
    assert calls == [5, 5, 5]


def test_a_configuration_clears_its_points_once(monkeypatch):
    calls = {lvm: [], linalg: []}
    clear = lvm._pair_row

    def counting(module):
        def count(entries):
            calls[module].append(len(entries))
            return clear(entries)
        return count

    # check_admissible, generic_fiber and minimal_forbidden_zero_sets read
    # one cleared row per point, however often they are called; in C^1 no
    # other clearing runs, in C^2 the LPs clear their own rows
    for module in calls:
        monkeypatch.setattr(module, "_pair_row", counting(module))
    for cfg in (five_vector(), five_vector_perturbed(), teardrop(3),
                lvm.Configuration([[(1, 0), (0, 0)], [(0, 1), (0, 0)],
                                   [(0, 0), (1, 0)], [(0, 0), (0, 1)],
                                   [(-1, -1), (-R2, -1)], [(1, 1), (1, 1)]])):
        for c in calls.values():
            c.clear()
        for _ in range(2):
            lvm.check_admissible(cfg)
            lvm.generic_fiber(cfg)
            lvm.minimal_forbidden_zero_sets(cfg)
        assert calls[lvm] == [2 * cfg.m] * cfg.n
        assert (calls[linalg] == []) == (cfg.m == 1)


def test_solution_basis_five_vector():
    basis = lvm.solution_basis(five_vector())
    assert len(basis) == 2
    span = [[Scalar(0), Scalar(-1), Scalar(1), Scalar(0), Scalar(0)],
            [Scalar(-1), Scalar(0), Scalar(0), Scalar(1), Scalar(0)]]
    assert scalar_rank(basis + span) == 2


def test_solution_basis_degenerate():
    # zero configuration has too many solutions
    with pytest.raises(DegenerateSystem):
        lvm.solution_basis(lvm.Configuration([[(0, 0)], [(0, 0)], [(0, 0)],
                                              [(0, 0)]]))


def conjugate_stability_oracle(cfg):
    """condition (K) via Galois stability: the solution span over Q(sqrt d)
    is defined over Q iff it equals its conjugate span."""
    basis = lvm.solution_basis(cfg)
    conj = [[x.conjugate() for x in v] for v in basis]
    return scalar_rank(basis + conj) == len(basis)


def test_condition_k():
    assert lvm.condition_K(five_vector())
    assert not lvm.condition_K(five_vector_perturbed())
    assert conjugate_stability_oracle(five_vector())
    assert not conjugate_stability_oracle(five_vector_perturbed())


def test_leaf_dichotomy():
    assert lvm.leaf_dichotomy(five_vector()) == lvm.COMPACT_TORI
    assert lvm.leaf_dichotomy(five_vector_perturbed()) == lvm.DENSE_LEAVES


def test_gale_transform_five_vector():
    g = lvm.gale_transform(five_vector())
    assert len(g.vectors) == 5
    assert all(x.is_zero() for x in g.vectors[4])
    # rows of index pairs (0,3) and (1,2) are opposite
    assert g.vectors[0] == [-x for x in g.vectors[3]]
    assert g.vectors[1] == [-x for x in g.vectors[2]]


def test_gale_polytope_is_square():
    P = lvm.polytope_from_gale(lvm.gale_transform(five_vector()))
    assert P.redundant == [False, False, False, False, True]
    verts = sorted(tuple(x.a for x in v) for v in P.vertices)
    assert verts == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    from nctoric.facevectors import g_theorem_necessity
    from nctoric.polytope import face_counts
    assert g_theorem_necessity(face_counts(P), P.dim)["pass"]


def test_gale_polytope_custom_eps():
    g = lvm.gale_transform(five_vector(), epsilons=[2, 2, 2, 2, 1])
    P = lvm.polytope_from_gale(g)
    verts = sorted(tuple(x.a for x in v) for v in P.vertices)
    assert verts == [(-2, -2), (-2, 2), (2, -2), (2, 2)]


def test_teardrop_gale_vector():
    for ell in (1, 2, 3):
        p = 3 * ell + 1
        basis = lvm.solution_basis(teardrop(p))
        assert len(basis) == 1
        direction = [x / basis[0][2] for x in basis[0]]
        assert direction == [Scalar(-2 * ell - 1), Scalar(ell),
                             Scalar(1), Scalar(ell)]


def siegel_index_family(cfg):
    """Oracle: all nonempty index sets whose sub-configuration avoids 0 in
    its hull, by one hull LP per subset; their complements are the
    forbidden zero-sets."""
    pts = cfg.real_points()
    avoid = []
    for k in range(1, cfg.n + 1):
        for I in combinations(range(cfg.n), k):
            if not lp_zero_in_hull([pts[i] for i in I]):
                avoid.append(frozenset(I))
    return avoid


def test_siegel_index_family():
    fam = siegel_index_family(five_vector())
    assert frozenset({0}) in fam          # singletons always avoid 0
    assert frozenset(range(5)) not in fam  # the full hull contains 0
    mins = lvm.minimal_forbidden_zero_sets(five_vector())
    assert mins == [frozenset({4}), frozenset({0, 3}), frozenset({1, 2})]
    # small 3-vector example: every proper nonempty subset avoids 0
    cfg = lvm.Configuration([[(1, 0)], [(0, 1)], [(-1, -1)]])
    fam = siegel_index_family(cfg)
    assert len(fam) == 6


def test_minimal_forbidden_zero_sets_match_the_siegel_family():
    rng = random.Random(20261019)
    sizes = set()
    for trial in range(40):
        m = 1 + trial % 2
        cfg = random_admissible(rng, irrational=trial % 3 == 0, m=m,
                                n=rng.randint(2 * m + 1, 2 * m + 3),
                                d=(2, 3, 5)[trial % 3])
        everything = frozenset(range(cfg.n))
        forbidden = {everything - I for I in siegel_index_family(cfg)}
        minimal = sorted((J for J in forbidden
                          if not any(K < J for K in forbidden)),
                         key=lambda s: (len(s), sorted(s)))
        assert lvm.minimal_forbidden_zero_sets(cfg) == minimal, cfg.lambdas
        sizes.update(len(J) for J in minimal)
    assert {1, 2} <= sizes


def test_minimal_zero_sets_match_forbidden_strata():
    from nctoric.quotient import forbidden_strata
    cfg = five_vector()
    P = lvm.polytope_from_gale(lvm.gale_transform(cfg))
    strata = forbidden_strata(P.incidence, 4)  # essential facets only
    mins = [s for s in lvm.minimal_forbidden_zero_sets(cfg) if 4 not in s]
    assert sorted(map(sorted, mins)) == sorted(map(sorted, strata))


def test_generic_fiber():
    rep = lvm.generic_fiber(five_vector())
    assert rep.torus_rank == 4
    assert rep.rational
    assert rep.slope == Scalar(1)
    rep = lvm.generic_fiber(five_vector_perturbed())
    assert not rep.rational
    assert rep.slope == R2
    for p in (2, 3, 5):
        rep = lvm.generic_fiber(teardrop(p))
        assert rep.torus_rank == 3
        assert rep.rational
        assert rep.slope == Scalar(p)


def slope_oracle(cfg):
    """generic_fiber's slope by a scan of all C(n, 2) coordinate pairs: a
    pair whose projection of the phase plane is a line off the axes carries
    a Kronecker slope; the first irrational one is reported, else the
    first one."""
    rows = lvm._system_rows(cfg)[:-1]
    slopes = []
    for i, j in combinations(range(cfg.n), 2):
        proj = [[r[i], r[j]] for r in rows]
        if scalar_rank(proj) != 1:
            continue
        a, b = next(p for p in proj if not (p[0].is_zero() and p[1].is_zero()))
        if a.is_zero() or b.is_zero():
            continue
        slopes.append(b / a if abs(b / a) >= Scalar(1) else a / b)
    irr = [s for s in slopes if not s.is_rational]
    return irr[0] if irr else slopes[0] if slopes else None


#: how a point of configuration_with_repeats is made from the earlier ones
REPEATS = ("zero", "copy", "negative", "rational multiple",
           "irrational multiple", "fresh", "fresh")


def configuration_with_repeats(rng, m, d):
    """A configuration over Q(sqrt d) (Q for d = 0) of n > 2m vectors in
    C^m whose real points are zero, fresh, or copies, negatives, rational
    and irrational multiples of earlier points (over Q the last are
    rational), so that many phase columns are parallel; returns it with
    the kinds drawn."""
    root = Scalar.sqrt_int(d) if d else Scalar(0)
    pts, kinds = [], []
    for _ in range(rng.randint(2 * m + 1, 2 * m + 5)):
        kind = rng.choice(REPEATS) if pts else "fresh"
        if kind == "fresh":
            p = [Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) +
                 root * rng.randint(-1, 1) for _ in range(2 * m)]
        elif kind == "zero":
            p = [Scalar(0)] * (2 * m)
        else:
            factor = {"copy": Scalar(1), "negative": Scalar(-1),
                      "rational multiple": Scalar(Fraction(
                          rng.choice((-3, -2, 2, 3, 5)), rng.randint(1, 3))),
                      "irrational multiple": Scalar(rng.randint(-2, 2)) +
                      root * rng.choice((-1, 1))}[kind]
            p = [factor * x for x in rng.choice(pts)]
        pts.append(p)
        kinds.append(kind)
    return lvm.Configuration([list(zip(p[::2], p[1::2])) for p in pts],
                             m), kinds


def test_slopes_from_column_lines_match_the_pair_scan():
    rng = random.Random(14)
    seen, compared = set(), 0
    for trial in range(160):
        d, m = (0, 2, 3, 5)[trial % 4], 1 + trial // 4 % 2
        cfg, kinds = configuration_with_repeats(rng, m, d)
        try:
            slope = lvm.generic_fiber(cfg).slope
        except DegenerateFoliation:
            continue
        assert slope == slope_oracle(cfg), cfg.lambdas
        if slope is not None:
            assert slope.to_json() == slope_oracle(cfg).to_json()
        compared += 1
        seen.update(kinds)
        seen.add("none" if slope is None else
                  "rational" if slope.is_rational else "irrational")
    assert compared >= 60
    assert seen == set(REPEATS) | {"none", "rational", "irrational"}


def fiber_lines_oracle(cfg):
    """generic_fiber's slope with the nonzero phase columns grouped by the
    canonical ray of each column, negated first when its first nonzero
    entry is negative, in first-seen order."""
    lines = {}
    for col in zip(*lvm._system_rows(cfg)[:-1]):
        a = next((x for x in col if not x.is_zero()), None)
        if a is not None:
            line = canonical_ray(col if a.sign() > 0 else [-x for x in col])
            lines.setdefault(line, []).append(a)
    slopes = [b / a if abs(b / a) >= Scalar(1) else a / b
              for a, *rest in lines.values() for b in rest]
    return next((s for s in slopes if not s.is_rational),
                slopes[0] if slopes else None)


def test_fiber_lines_by_cross_multiplying_match_the_canonical_rays():
    rng = random.Random(2208)
    seen = set()
    for trial in range(240):
        d, m = (0, 2, 5)[trial % 3], 1 + trial // 3 % 2
        cfg, kinds = configuration_with_repeats(rng, m, d)
        try:
            slope = lvm.generic_fiber(cfg).slope
        except DegenerateFoliation:
            continue
        want = fiber_lines_oracle(cfg)
        assert slope == want, cfg.lambdas
        if slope is not None:
            assert slope.to_json() == want.to_json()
        seen.update((d, m, kind) for kind in kinds)
        seen.add((d, m, "none" if slope is None else
                  "rational" if slope.is_rational else "irrational"))
    # every repeat in each field and m, and every kind of slope in each
    # irrational field
    assert {s for s in seen if s[2] in REPEATS} == {
        (d, m, kind) for d in (0, 2, 5) for m in (1, 2) for kind in REPEATS}
    assert {s[::2] for s in seen if s[2] not in REPEATS} >= {
        (d, kind) for d in (2, 5) for kind in ("none", "rational",
                                                "irrational")}


def test_one_elimination_per_configuration(monkeypatch):
    eliminations = []

    def counted(M):
        eliminations.append(len(M))
        return row_reduce(M)

    row_reduce = linalg._row_reduce
    monkeypatch.setattr(linalg, "_row_reduce", counted)
    monkeypatch.setattr(lvm, "_row_reduce", counted)
    queries = (lvm.condition_K, lvm.leaf_dichotomy, lvm.generic_fiber,
               lambda c: lvm.gale_transform(c).vectors, lvm.solution_basis,
               lvm.orbifold_weights_1d)
    for make in (lambda: teardrop(4), five_vector, five_vector_perturbed):
        cfg, fresh = make(), make()
        eliminations.clear()
        answers = [outcome(f, cfg) for f in queries]
        assert len(eliminations) == 1
        # mutating what a query returns leaves the next answer unchanged
        lvm.solution_basis(cfg)[0][0] = Scalar(7)
        lvm.gale_transform(cfg).vectors[0].append(Scalar(7))
        lvm.generic_fiber(cfg).foliation_subspace[0][0] = Scalar(7)
        assert len(eliminations) == 1
        assert answers == [outcome(f, fresh) for f in queries]
        assert answers == [outcome(f, cfg) for f in queries]


def test_cached_kernel_is_the_kernel_of_the_system():
    rng = random.Random(41)
    for trial in range(80):
        d, m = (0, 2, 3, 5)[trial % 4], 1 + trial // 4 % 2
        cfg, _ = configuration_with_repeats(rng, m, d)
        assert [list(v) for v in cfg._kernel] == scalar_kernel_basis(
            lvm._system_rows(cfg), cfg.n)


def test_orbifold_weights():
    assert lvm.orbifold_weights_1d(teardrop(4)) == [[1], [3]]
    assert lvm.orbifold_weights_1d(teardrop(7)) == [[1], [5]]
    assert lvm.orbifold_weights_1d(teardrop(5)) == [[3], [11]]
    with pytest.raises(WrongDimension):
        lvm.orbifold_weights_1d(five_vector())


def random_admissible(rng, irrational=False, m=1, n=4, d=2):
    """Random admissible configurations of n vectors in C^m with small
    rational entries, teardrop-shaped with noise by default; when
    irrational, about 40% of the entries gain sqrt(d) in their real part."""
    root = Scalar.sqrt_int(d)
    while True:
        lambdas = []
        for _ in range(n):
            vec = []
            for _ in range(m):
                re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                im = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if irrational and rng.random() < 0.4:
                    vec.append((Scalar(re) + root, Scalar(im)))
                else:
                    vec.append((Scalar(re), Scalar(im)))
            lambdas.append(vec)
        try:
            cfg = lvm.Configuration(lambdas, m)
            flags = lvm.check_admissible(cfg)
            if flags["siegel"] and flags["weak_hyperbolic"]:
                lvm.solution_basis(cfg)
                return cfg
        except (InputError, DegenerateSystem):
            continue


def linear_image(rng, cfg, d):
    """cfg under an invertible real-linear map of R^2m with entries in
    Q(sqrt d): admissibility and the solution space are unchanged."""
    k = 2 * cfg.m
    while True:
        A = [[Scalar(rng.randint(-2, 2)) + Scalar.sqrt_int(d) * rng.randint(-1, 1)
              for _ in range(k)] for _ in range(k)]
        if scalar_rank(A) == k:
            break
    lambdas = []
    for p in cfg.real_points():
        q = [sum((a * x for a, x in zip(row, p)), Scalar(0)) for row in A]
        lambdas.append(list(zip(q[::2], q[1::2])))
    return lvm.Configuration(lambdas, cfg.m)


def K_oracle(cfg):
    """Condition (K) as the rational part of the solution space."""
    basis = lvm.solution_basis(cfg)
    return rational_subspace_dim(basis, cfg.n)[0] == len(basis)


def fiber_rational_oracle(cfg):
    """generic_fiber's rational flag: the phase span, diagonal included,
    has full rational part."""
    span = lvm._system_rows(cfg)
    dim_mod_diag = scalar_rank(span) - 1
    if dim_mod_diag < 2 * cfg.m:
        raise DegenerateFoliation(f"{dim_mod_diag} dims mod the diagonal")
    return rational_subspace_dim(span, cfg.n)[0] == len(span)


def weights_oracle(cfg):
    """orbifold_weights_1d with its integer vector from the rational part
    of the solution line."""
    if not K_oracle(cfg):
        raise IrrationalWeights("no integer weights")
    basis = lvm.solution_basis(cfg)
    if len(basis) != 1:
        raise WrongDimension("need n - 2m - 1 = 1")
    _, rat = rational_subspace_dim(basis, cfg.n)
    v = [int(x.a) for x in canonical_ray(rat[0])]
    _, active_sets = lvm.canonical_moment_interval(cfg)
    return [sorted(abs(v[i]) for i in act) for act in active_sets]


def outcome(f, cfg):
    try:
        return f(cfg)
    except (DegenerateSystem, DegenerateFoliation, IrrationalWeights,
            WrongDimension) as e:
        return type(e)


def test_dichotomy_consistency_random():
    rng = random.Random(11)
    ks, errors, weights = set(), set(), 0
    for i in range(96):
        d, m = (2, 3, 5)[i % 3], 1 + i // 3 % 2
        kind = i // 6 % 4  # rational, perturbed, linear image, perturbed
        n = rng.randint(2 * m + 1, 2 * m + 5) if i % 12 < 6 else 2 * m + 2
        cfg = random_admissible(rng, kind in (1, 3), m, n, d)
        if kind == 2:
            cfg = linear_image(rng, cfg, d)
        field = common_field(x for v in cfg.real_points() for x in v)
        # the first imaginary row vanishes: a degenerate system
        flat = lvm.Configuration(
            [[(v[0][0], Scalar(0))] + v[1:] for v in cfg.lambdas], m)
        k = lvm.condition_K(cfg)
        assert (lvm.leaf_dichotomy(cfg) == lvm.COMPACT_TORI) == k
        assert conjugate_stability_oracle(cfg) == k
        ks.add((field, k))
        for c in (cfg, flat):
            k = outcome(lvm.condition_K, c)
            assert k == outcome(K_oracle, c)
            r = outcome(lambda c: lvm.generic_fiber(c).rational, c)
            assert r == outcome(fiber_rational_oracle, c)
            w = outcome(lvm.orbifold_weights_1d, c)
            assert w == outcome(weights_oracle, c)
            errors.update(x for x in (k, r, w) if isinstance(x, type))
            weights += isinstance(w, list)
    assert ks == {(f, k) for f in (0, 2, 3, 5) for k in (True, False)} - \
        {(0, False)}, sorted(ks)
    assert errors == {DegenerateSystem, DegenerateFoliation,
                      IrrationalWeights, WrongDimension}
    assert weights > 0


def test_configuration_json_roundtrip():
    cfg = five_vector_perturbed()
    again = lvm.configuration_from_json(lvm.configuration_to_json(cfg))
    assert again.lambdas == cfg.lambdas
    with pytest.raises(InputError):
        lvm.configuration_from_json({"lambdas": "nope"})
