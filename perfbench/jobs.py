"""Workloads: seeded rounds of tasks, and the correctness gate.

A task is a generator.  Each value it yields is a Call: one user-level call
into the library (or one in-process ``nctoric.cli.run`` invocation), which
the runner times as one job and sends the result back.  The code between
two yields is the correctness gate for the previous answer; it runs with
the clock stopped, and it raises Wrong on a wrong answer.  A task's later
calls may depend on earlier answers (an LVM candidate that fails
``check_admissible`` stops there), so the closed loop is driven by the
answers.

A round is a list of tasks with fixed counts per input class; only the
parameters inside a class come from the seed, so every seed costs about
the same.  Round r of a seed is generated from its own Random, which keeps
inputs distinct across rounds and identical across runs of one seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from math import gcd

import gen


class Wrong(Exception):
    """The library returned a wrong answer."""


class Unexpected(Exception):
    """A call ended in an outcome its input does not call for."""


class Call:
    __slots__ = ("kind", "fn", "meta")

    def __init__(self, kind, fn, meta=None):
        self.kind = kind
        self.fn = fn
        self.meta = meta


def expect(cond, what):
    if not cond:
        raise Wrong(what)


def canon(lib, x) -> str:
    """Canonical text of a result, for byte comparisons between runs."""
    return json.dumps(_plain(lib, x), sort_keys=True, separators=(",", ":"))


def _plain(lib, x):
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    if isinstance(x, (Fraction, lib.scalars.Scalar)):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [_plain(lib, y) for y in x]
    if isinstance(x, (set, frozenset)):
        return sorted(canon(lib, y) for y in x)
    if isinstance(x, dict):
        return {str(k): _plain(lib, v) for k, v in x.items()}
    if isinstance(x, lib.fan.Fan):
        return lib.fan.fan_to_json(x)
    if isinstance(x, lib.fan.Cone):
        return repr(x)
    if isinstance(x, lib.polytope.SimplePolytope):
        return [_plain(lib, x.vertices), _plain(lib, x.incidence), x.redundant]
    if isinstance(x, lib.lvm.Configuration):
        return lib.lvm.configuration_to_json(x)
    if isinstance(x, lib.hochschild.FinDimAlgebra):
        return x.to_json()
    if hasattr(x, "__dataclass_fields__"):
        return {k: _plain(lib, getattr(x, k)) for k in x.__dataclass_fields__
                if k != "cfg"}
    raise TypeError(f"no canonical form for {type(x).__name__}")


def _unimodular(cone):
    (a, b), (c, d) = cone.rays
    return abs(a.a * d.a - b.a * c.a) == 1


# -- toric_geometry -------------------------------------------------------------


def _box_facets(rng, d):
    side = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    shift = [rng.randint(-5, 5) for _ in range(d)]
    facets = []
    for i in range(d):
        e = [int(i == j) for j in range(d)]
        facets.append((e, shift[i]))
        facets.append(([-x for x in e], -(shift[i] + side)))
    return facets


def _simplex_facets(rng, d):
    side = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    shift = [rng.randint(-5, 5) for _ in range(d)]
    facets = [([int(i == j) for j in range(d)], shift[i]) for i in range(d)]
    facets.append(([-1] * d, -(sum(shift) + side)))
    return facets


def _prism_facets(rng, N):
    poly, _ = gen.lattice_polygon(rng, N, bound=4, radius=12)
    low, height = rng.randint(-5, 5), Fraction(rng.randint(1, 9), rng.randint(1, 3))
    return [(u + [0], c) for u, c in poly] + \
        [([0, 0, 1], low), ([0, 0, -1], -(low + height))], poly


def polytope_task(lib, spec):
    facets, exp = spec
    d = len(facets[0][0])
    P = yield Call("polytope.construct", lambda: lib.polytope.SimplePolytope(facets))
    expect(P.dim == d and not any(P.redundant), "dimension or redundancy")
    expect(len(P.incidence) == len(set(P.incidence)) and frozenset() in P.incidence,
           "incidence family")
    if "vertices" in exp:
        got = {tuple(x.a for x in v) for v in P.vertices}
        expect(got == set(exp["vertices"]), "polygon vertices")
    cls = yield Call("polytope.classify", lambda: lib.polytope.classify_delzant(P))
    want = "IntegralDelzant" if exp["integral"] else "RationalDelzant"
    expect(cls == want, f"Delzant class {cls} != {want}")
    f = yield Call("polytope.face_counts", lambda: lib.polytope.face_counts(P))
    expect(f == exp["f"], f"f-vector {f} != {exp['f']}")
    h = gen.h_vector(f, d)
    expect(h == h[::-1], "Dehn-Sommerville")
    F = yield Call("fan.normal_fan", lambda: lib.fan.normal_fan(P))
    expect(len(F.cones) == len(P.incidence), "one cone per face")
    expect(len(F.rays) == len(facets), "one ray per facet")
    q = yield Call("quotient.quotient_data", lambda: lib.quotient.quotient_data(P))
    expect(set(q.forbidden_strata) == exp["strata"], "forbidden strata")
    expect(len(q.kernel_basis) == len(facets) - d, "kernel rank")
    lam = [Fraction(c) for _, c in facets]
    for b, nu in zip(q.kernel_basis, q.nu_P):
        expect(all(sum(b[i] * facets[i][0][j] for i in range(len(facets))) == 0
                   for j in range(d)), "kernel vector")
        expect(nu == lib.scalars.Scalar(-sum(bi * li for bi, li in zip(b, lam))),
               "moment vector")


def hj_task(lib, spec):
    m, k = spec
    e = yield Call("hj.expand", lambda: lib.hj.hj_expand(Fraction(m, k)))
    digits = list(e.digits)
    expect(digits == gen.hj_digits(m, k), "HJ digits")
    expect(lib.hj.hj_evaluate(digits) == lib.scalars.Scalar(Fraction(m, k)),
           "HJ round trip")
    F, inserted, _ = yield Call(
        "hj.resolve", lambda: lib.hj.resolve_cone(lib.fan.Cone([[0, 1], [m, -k]])))
    expect(len(inserted) == len(digits), "inserted ray count")
    cones = yield Call("fan.maximal_cones", F.maximal_cones)
    expect(len(cones) == len(digits) + 1, "resolution size")
    expect(all(_unimodular(c) for c in cones), "resolved cone not unimodular")


def dual_task(lib, spec):
    u, w = spec
    rays, basis = yield Call(
        "fan.dual_cone_2d", lambda: lib.fan.dual_cone_2d(lib.fan.Cone([u, w])))
    d1, d2 = (tuple(r) for r in rays)
    for r in (d1, d2):
        expect(sorted(r[0] * v[0] + r[1] * v[1] for v in (u, w))[0] == 0 and
               max(r[0] * v[0] + r[1] * v[1] for v in (u, w)) > 0, "dual rays")
    expect(gen.check_hilbert_basis_2d(basis, d1, d2), "Hilbert basis")


#: (shortest, longest, tasks per round) of the HJ sweep over coprime m/k
#: with m <= 200, by the length of the expansion.  resolve_cone grows
#: linearly and maximal_cones quadratically with the length, and under
#: uniform m and k about one draw in forty is longer than 50 digits and
#: costs up to a second, so the counts per length are fixed near their
#: shares under uniform draws, with the two long ones from narrow bands
HJ_LENGTHS = ((1, 1, 3), (2, 3, 12), (4, 5, 14), (6, 8, 12), (9, 13, 10),
              (14, 25, 5), (26, 50, 2), (51, 75, 1), (90, 110, 1))


def toric_round(rng):
    tasks = []
    for d in range(2, 6):
        tasks.append((polytope_task, (_box_facets(rng, d), {
            "integral": True, "f": gen.cube_f(d),
            "strata": {frozenset((2 * i, 2 * i + 1)) for i in range(d)}})))
        tasks.append((polytope_task, (_simplex_facets(rng, d), {
            "integral": True, "f": gen.simplex_f(d),
            "strata": {frozenset(range(d + 1))}})))
    for N in (3, 5):
        facets, poly = _prism_facets(rng, N)
        tasks.append((polytope_task, (facets, {
            "integral": gen.polygon_is_integral(poly), "f": gen.prism_f(N),
            "strata": gen.prism_strata(N)})))
    for N in (6, 8, 10, 12, 14, 16):
        facets, verts = gen.lattice_polygon(rng, N)
        tasks.append((polytope_task, (facets, {
            "integral": gen.polygon_is_integral(facets), "f": [1, N, N],
            "strata": gen.polygon_strata(N), "vertices": verts})))
    for shortest, longest, count in HJ_LENGTHS:
        pairs = gen.hj_pairs(shortest, longest)
        tasks += [(hj_task, rng.choice(pairs)) for _ in range(count)]
    for band in range(40):
        # one cone per determinant band of width 5 up to 200; cones the
        # scan-box defect answers wrongly are ledgered instead
        while True:
            u, w = gen.cone_with_det(rng, rng.randint(5 * band + 1, 5 * band + 5)
                                     * rng.choice((1, -1)))
            if not gen.dual_scan_misses(u, w):
                break
        tasks.append((dual_task, (list(u), list(w))))
    rng.shuffle(tasks)
    return tasks


# -- quadratic_fields -------------------------------------------------------------


def _scalar(lib, x):
    return lib.scalars.Scalar(x[0], x[1], x[2])


def lvm_task(lib, spec):
    pts, (siegel, weak) = spec
    cfg = None

    def check():
        nonlocal cfg
        cfg = lib.lvm.Configuration([[(_scalar(lib, re), _scalar(lib, im))]
                                     for re, im in pts])
        return lib.lvm.check_admissible(cfg)

    flags = yield Call("lvm.check_admissible", check)
    expect(flags == {"siegel": siegel, "weak_hyperbolic": weak}, "admissibility")
    if not (siegel and weak):
        return
    n = len(pts)
    K = yield Call("lvm.condition_K", lambda: lib.lvm.condition_K(cfg))
    basis = lib.lvm.solution_basis(cfg)
    conj = [[x.conjugate() for x in v] for v in basis]
    expect(K == (lib.linalg.scalar_rank(basis + conj) == len(basis)),
           "condition (K) vs conjugate span")
    expect(K or any(re[2] for re, _ in pts), "rational configuration fails (K)")
    leaf = yield Call("lvm.leaf_dichotomy", lambda: lib.lvm.leaf_dichotomy(cfg))
    expect(leaf == ("CompactTori" if K else "DenseLeaves"), "leaf dichotomy")
    rep = yield Call("lvm.generic_fiber", lambda: lib.lvm.generic_fiber(cfg))
    expect(rep.torus_rank == n - 1 and rep.rational == K, "generic fiber")
    g = yield Call("lvm.gale_transform", lambda: lib.lvm.gale_transform(cfg))
    expect(len(g.vectors) == n and all(len(v) == n - 3 for v in g.vectors),
           "Gale shape")
    P = yield Call("lvm.polytope_from_gale", lambda: lib.lvm.polytope_from_gale(g))
    f = lib.polytope.face_counts(P)
    h = gen.h_vector(f, P.dim)
    expect(P.dim == n - 3 and h == h[::-1], "Gale polytope")


def cf_task(lib, spec):
    theta, image, shifted, cf, cf_image, hj_exp = spec
    t, t2, x = _scalar(lib, theta), _scalar(lib, image), _scalar(lib, shifted)
    e = yield Call("nctorus.cf_expand", lambda: lib.nctorus.cf_expand(t))
    expect((e.preperiod, e.period) == cf, "regular continued fraction")
    digits = sum(map(len, cf + cf_image))
    res = yield Call("nctorus.morita_equivalent",
                     lambda: lib.nctorus.morita_equivalent(t, t2),
                     {"cf_digits": digits})
    expect(res["equivalent"], "Morita equivalence missed")
    if res["witness"] is not None:
        (a, b), (c, d) = res["witness"]
        expect(a * d - b * c == 1, "witness determinant")
        expect(lib.nctorus.mobius_apply(res["witness"], t) == t2, "witness action")
    else:
        expect(res.get("gl2_only_certificate"), "no witness and no certificate")
    h = yield Call("hj.expand_irrational", lambda: lib.hj.hj_expand(x, depth=12))
    pre, per = hj_exp
    want = list(pre)
    while len(want) < 12:
        want.append(per[(len(want) - len(pre)) % len(per)])
    expect(list(h.digits) == want[:12] and h.period == per
           and h.preperiod_len == len(pre), "HJ expansion of a quadratic irrational")
    F, inserted, _ = yield Call(
        "hj.resolve_irrational",
        lambda: lib.hj.resolve_cone(lib.fan.Cone([[0, 1], [x, lib.scalars.Scalar(-1)]]),
                                    depth=6))
    expect(len(inserted) == 6, "truncated resolution depth")
    rational = [c for c in F.maximal_cones() if c.is_rational()]
    expect(len(rational) == 6 and all(_unimodular(c) for c in rational),
           "truncated resolution cones")


#: (regular period band, band of preperiod + period of the HJ expansion);
#: each round draws four parameters from each.  Both lengths drive cost
#: (morita_equivalent and hj_expand respectively), so both are stratified
CF_BANDS = (((2, 3), (10, 40)), ((6, 8), (10, 40)), ((14, 18), (60, 120)),
            ((36, 44), (120, 240)))


def quadratic_round(rng):
    tasks = []
    quota = {(irr, ok): 4 for irr in (False, True) for ok in (False, True)}
    while any(quota.values()):
        irr = rng.random() < 0.5
        n = rng.choice((4, 5))
        pts = gen.lvm_candidate(rng, n, rng.choice((2, 3, 5, 7)) if irr else 0)
        irr = any(p[0][2] for p in pts)
        flags = gen.lvm_flags(pts)
        key = (irr, flags[0] and flags[1])
        if key[1] and not gen.lvm_gale_simple(pts):
            continue
        if quota[key]:
            quota[key] -= 1
            tasks.append((lvm_task, (pts, flags)))
    for band, hj_band in CF_BANDS:
        for _ in range(4):
            while True:
                P, D, Q = gen.random_quadratic(rng, band)
                theta = gen.qi_value(P, D, Q)
                shift = 2 - gen.qi_floor(*gen.qi_normalize(P, D, Q))
                shifted = (theta[0] + shift, theta[1], theta[2])
                hj_exp = gen.cf_descending(*gen.qi_from_value(shifted))
                if hj_band[0] <= sum(map(len, hj_exp)) <= hj_band[1]:
                    break
            image = gen.mobius(gen.random_sl2(rng), theta)
            tasks.append((cf_task, (theta, image, shifted, gen.cf_regular(P, D, Q),
                                    gen.cf_regular(*gen.qi_from_value(image)), hj_exp)))
    rng.shuffle(tasks)
    return tasks


# -- hochschild --------------------------------------------------------------------


def algebra_task(lib, spec):
    source, rank, up_to, N = spec
    if source[0] == "groupoid":
        n = source[1]
        A = yield Call("hochschild.convolution_algebra",
                       lambda: lib.hochschild.convolution_algebra(
                           lib.hochschild.pair_groupoid(n)))
    else:
        D, c, unit = source[1]
        A = yield Call("hochschild.FinDimAlgebra",
                       lambda: lib.hochschild.FinDimAlgebra(D, c, unit))
    r = yield Call("hochschild.hh_ranks", lambda: lib.hochschild.hh_ranks(A, up_to))
    expect(r == [rank] + [0] * up_to, f"HH ranks {r}")
    hp = yield Call("hochschild.hp_truncated",
                    lambda: lib.hochschild.hp_truncated(A, N, 2 * N))
    expect(hp == (rank, 0), f"HP ranks {hp}")


def hochschild_round(rng):
    # (structure, number of simple summands, HH degrees, HP truncation).
    # HH of M_2 to degree 5 reaches the chain space 4^7 = 16384.  A shear
    # makes the constants denser and its cost depends strongly on which
    # basis vectors it mixes, so the sheared algebras are fixed and the
    # seeded changes of basis are signed permutations, whose cost stays
    # near the original's; every round then costs about the same
    Q, F2, F3, F4, Z2, M2 = (gen.alg_fields(1), gen.alg_fields(2), gen.alg_fields(3),
                             gen.alg_fields(4), gen.alg_z2(), gen.alg_matrix(2))
    specs = [(alg, rank, up, N) for alg, rank, up, N in (
        (Q, 1, 6, 2), (F2, 2, 6, 2), (F3, 3, 4, 2), (F4, 4, 4, 1), (Z2, 2, 6, 2),
        (M2, 1, 5, 1))]
    specs += [(gen.change_of_basis(alg, gen.shear(alg[0])), rank, up, N)
              for alg, rank, up, N in ((Z2, 2, 6, 2), (F2, 2, 6, 2), (F3, 3, 4, 2),
                                       (M2, 1, 3, 1))]
    # six changes of Q^3, whose construction and HP jobs sit at the median,
    # so that the median falls inside one class of jobs.  The changes of
    # Q[Z/2] stop at HH degree 5: at degree 6 the signs alone move their
    # cost from 60 to 160 ms, right at the 90th percentile
    for alg, rank, up, N, copies in ((Z2, 2, 5, 2, 3), (F2, 2, 6, 2, 3), (F3, 3, 4, 2, 6),
                                     (F4, 4, 3, 1, 3), (M2, 1, 3, 1, 3)):
        for _ in range(copies):
            P = gen.signed_permutation(rng, alg[0])
            specs.append((gen.change_of_basis(alg, P), rank, up, N))
    tasks = [(algebra_task, (("constants", alg), rank, up, N)) for alg, rank, up, N in specs]
    tasks.append((algebra_task, (("groupoid", 2), 1, 4, 2)))
    tasks.append((algebra_task, (("groupoid", 3), 1, 2, 1)))
    rng.shuffle(tasks)
    return tasks


# -- cli_small ---------------------------------------------------------------------


EXIT_TRACEBACK = "traceback"


def cli_outcome(expected: int, got) -> bool:
    """True when a CLI call ended as expected.  `got` is the exit code, or
    EXIT_TRACEBACK when an exception escaped; a traceback, exit 1 and a
    domain or input error on a valid input are all unexpected."""
    return got != EXIT_TRACEBACK and got != 1 and got == expected


def invoke(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


def cli_task(lib, spec):
    argv, expected = spec
    code, out = yield Call("cli." + " ".join(a for a in argv[:2] if not a.startswith("-")),
                           lambda: invoke(lib.cli, argv))
    if not cli_outcome(expected, code):
        raise Unexpected(f"exit {code}, expected {expected}: {' '.join(argv)}")
    if code == 0:
        if out.startswith("<svg"):
            expect(out.rstrip().endswith("</svg>") and "exact data" in out, "SVG")
        else:
            expect(json.loads(out)["status"] == "ok", "status")
    elif code in (3, 4):
        expect(json.loads(out)["status"] == "error", "error envelope")


def _poly_json(facets):
    return {"facets": [{"normal": [str(x) for x in u], "offset": str(c)}
                       for u, c in facets]}


def cli_files(rng):
    """name -> JSON document for the files the CLI calls read."""
    files = {}
    for i, N in enumerate((3, 4, 5, 6) * 2):
        facets, _ = gen.lattice_polygon(rng, N, bound=3, radius=6)
        files[f"poly{i}.json"] = _poly_json(facets)
    files["box.json"] = _poly_json(_box_facets(rng, 2))
    files["cube3.json"] = _poly_json(_box_facets(rng, 3))
    files["fan.json"] = {"dim": 2, "cones": [
        {"rays": [[1, 0], [0, 1]]}, {"rays": [[0, 1], [-1, 0]]},
        {"rays": [[-1, 0], [0, -1]]}, {"rays": [[0, -1], [1, 0]]}]}
    # hj resolve grows with the length of the expansion, so each cone's
    # length is fixed and only m/k within its band of m is drawn
    for i, (lo, length) in enumerate(zip(range(3, 60, 10), (2, 3, 3, 4, 5, 6))):
        m, k = rng.choice([(m, k) for m, k in gen.hj_pairs(length, length, lo + 9)
                           if m >= lo])
        files[f"cone{i}.json"] = {"rays": [[0, 1], [m, -k]]}
    files["ray.json"] = {"rays": [[1, 2]], "dim": 2}
    for i in range(4):
        while True:
            pts = gen.lvm_candidate(rng, 4, 0)
            if all(gen.lvm_flags(pts)) and gen.lvm_gale_simple(pts):
                break
        files[f"cfg{i}.json"] = {"m": 1, "lambdas": [
            [{"re": str(re[0]), "im": str(im[0])}] for re, im in pts]}
    for name, (D, c, unit) in (("q", gen.alg_fields(1)), ("f2", gen.alg_fields(2)),
                               ("z2", gen.alg_z2())):
        files[f"alg_{name}.json"] = {"dim": D, "c": [[[str(x) for x in col]
                                                       for col in row] for row in c],
                                     "unit": [str(x) for x in unit]}
    return files


#: f-vectors of small simplicial polytopes; large entries with d >= 4 hang
#: in the Macaulay shadow and are ledgered instead
GVEC_INPUTS = ((gen.cube_f(2), 2), (gen.simplex_f(2), 2), ([1, 5, 5], 2),
               (gen.simplex_f(3), 3), ([1, 6, 12, 8], 3), ([1, 7, 21, 28, 14], 4),
               ([1, 6, 12, 7], 3))


#: (D, b) of the Morita calls sqrt(D) ~ a + b sqrt(D), only the shift a
#: drawn; b = 1 is the equivalent and costly case (7-20 ms against 2-6 ms),
#: and b = None compares sqrt(D) with sqrt(D + 1).  The cost depends on D and
#: b, not on a, so the pairs are fixed
MORITA_CASES = ((3, 1), (5, 1), (7, 1), (2, 2), (6, 2), (7, 2), (3, 3), (5, 3), (6, 3),
                (2, None), (5, None), (6, None))


def cli_round(rng, workdir):
    """Argument vectors with their expected exit codes; about one call in
    ten is malformed on purpose.  Input sizes are fixed per file (polygons
    with 3-6 edges, cones by band of m), so each seed's list costs about the
    same."""
    def p(name):
        return os.path.join(workdir, name)

    def scalar_text():
        q = f"{rng.randint(-9, 9)}/{rng.randint(1, 5)}"
        return rng.choice((q, f"sqrt({rng.choice((2, 3, 5, 7))})",
                           f"{q}+sqrt({rng.choice((2, 3, 5))})"))

    good = []
    for i in range(8):
        good += [["polytope", "info", p(f"poly{i}.json")],
                 ["polytope", "svg", p(f"poly{i}.json")],
                 ["fan", "of-polytope", p(f"poly{i}.json")],
                 ["quotient", "data", "--polytope", p(f"poly{i}.json")]]
    good += [["polytope", "info", p("box.json")], ["fan", "svg", p("fan.json")]]
    for i in range(6):
        good += [["fan", "classify", p(f"cone{i}.json")],
                 ["hj", "resolve", "--cone", p(f"cone{i}.json")],
                 ["hj", "resolve", "--cone", p(f"cone{i}.json"), "--svg"]]
    for i in range(4):
        good += [["lvm", a, "--config", p(f"cfg{i}.json")]
                 for a in ("check", "gale", "dichotomy", "fiber", "polytope")]
    for name in ("q", "f2", "z2"):
        good += [["hh", "ranks", "--algebra", p(f"alg_{name}.json"), "--upto", "2"],
                 ["hh", "hp", "--algebra", p(f"alg_{name}.json"), "--N", "1",
                  "--upto", "2"]]
    for _ in range(24):
        m = rng.randint(2, 60)
        k = rng.choice([k for k in range(1, m) if gcd(m, k) == 1])
        good.append(["hj", "expand", "--value", f"{m}/{k}"])
        good.append(["hj", "expand", "--value",
                     f"{rng.randint(2, 5)}+sqrt({rng.choice((2, 3, 5, 6, 7))})",
                     "--depth", str(rng.randint(3, 8))])
        good.append(["nctorus", "classify", "--theta=" + scalar_text()])
        f, d = rng.choice(GVEC_INPUTS)
        good.append(["gvec", "--f", ",".join(map(str, f)), "--d", str(d)])
    for D, b in MORITA_CASES:
        # values that start with "-" need the --flag=value form
        good.append(["nctorus", "morita", f"--theta1=sqrt({D})",
                     f"--theta2={rng.randint(-3, 3)}+{b}*sqrt({D})" if b
                     else f"--theta2=sqrt({D + 1})"])
    bad = [(["frobnicate"], 2), (["hj", "expand"], 2),
           (["polytope", "explode", p("poly0.json")], 2),
           (["hj", "expand", "--value", "1.5"], 3),
           (["polytope", "info", p("missing.json")], 3),
           (["gvec", "--f", "1,x", "--d", "2"], 3),
           (["hj", "expand", "--value", "1/2"], 4),
           (["gvec", "--f", "1,4", "--d", "2"], 4),
           (["fan", "classify", p("ray.json")], 4),
           (["lvm", "gale", "--config", p("poly0.json")], 3),
           (["hh", "ranks", "--algebra", p("alg_q.json"), "--upto", "x"], 2),
           (["nctorus", "morita", "--theta1=sqrt(2)"], 2),
           (["fan", "svg", p("missing.json")], 3),
           (["nctorus", "classify", "--theta=2^3"], 3),
           (["quotient", "data", "--polytope", p("alg_q.json")], 3),
           (["hh", "ranks", "--algebra", p("poly0.json")], 3),
           (["hj", "expand", "--value", "sqrt(3)-1"], 4),
           (["nctorus", "morita", "--theta1=sqrt(2)", "--theta2=sqrt(8)/2"], 3),
           (["polytope", "svg", p("cube3.json")], 4),
           (["hh", "ranks", "--algebra", p("alg_f2.json"), "--upto", "9"], 4)]
    calls = [(g, 0) for g in good] + bad
    rng.shuffle(calls)
    return [(cli_task, c) for c in calls]


def _probe_cli_1_over_0(lib):
    try:
        code, _ = invoke(lib.cli, ["hj", "expand", "--value", "1/0"])
    except ZeroDivisionError:
        return True
    return code not in (3, 4)


def _probe_dual_scan_box(lib):
    _, basis = lib.fan.dual_cone_2d(lib.fan.Cone([[-1, 2], [-3, 5]]))
    return sorted(basis) != [[-2, -1], [5, 3]]


#: known-defect id -> probe returning True while the defect is present
DEFECT_PROBES = {"hj-expand-1/0": _probe_cli_1_over_0,
                 "dual-cone-scan-box": _probe_dual_scan_box}


WORKLOADS = ("toric_geometry", "quadratic_fields", "hochschild", "cli_small")


def make_round(workload, seed, r, workdir):
    rng = random.Random(f"{workload}/{seed}/{r}")
    if workload == "toric_geometry":
        return toric_round(rng)
    if workload == "quadratic_fields":
        return quadratic_round(rng)
    if workload == "hochschild":
        return hochschild_round(rng)
    # cli_small replays one list of calls, so every pass can be compared
    # byte for byte with the first
    return cli_round(random.Random(f"{workload}/{seed}/0"), workdir)
