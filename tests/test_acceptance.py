"""End-to-end acceptance suite: twelve numbered criteria, one printed
pass/fail line each, every comparison exact."""

import json
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

from nctoric import fan, hj, hochschild, lvm, nctorus, polytope
from nctoric.cli import run as cli_run
from nctoric.facevectors import (check_dehn_sommerville, g_theorem_necessity,
                                 h_from_f, is_m_vector)
from nctoric.quotient import quotient_data
from nctoric.scalars import Scalar

from test_facevectors import cyclic_polytope_f_vector
from test_hochschild import (chain_sum, commutator_hh0, hh_ranks_dense,
                             random_algebra, random_chain)

R2 = Scalar.sqrt_int(2)
R3 = Scalar.sqrt_int(3)
PHI = (Scalar(1) + Scalar.sqrt_int(5)) / Scalar(2)


def _check(num, name, fn):
    try:
        fn()
    except BaseException:
        print(f"criterion {num:02d} {name}: FAIL")
        raise
    print(f"criterion {num:02d} {name}: PASS")


def unit_square():
    return polytope.SimplePolytope([([1, 0], -1), ([-1, 0], -1),
                                    ([0, 1], -1), ([0, -1], -1)])


def five_vector(first=1):
    return lvm.Configuration([[(first, 0)], [(0, 1)], [(0, 1)], [(1, 0)],
                              [(-2, -2)]])


def test_criterion_01_square_normal_fan():
    def body():
        F = fan.normal_fan(unit_square())
        assert len(F) == 9
        assert len(F.maximal_cones()) == 4
        assert len(F.rays) == 4
        rect = polytope.SimplePolytope([([1, 0], 0), ([-1, 0], -3),
                                        ([0, 1], 0), ([0, -1], -1)])
        assert fan.normal_fan(rect) == F
    _check(1, "square normal fan has 9 cones", body)


def test_criterion_02_square_quotient_data():
    def body():
        # side-1 square [0,1]^2: nu_P is sensitive to scale
        P = polytope.SimplePolytope([([1, 0], 0), ([-1, 0], -1),
                                     ([0, 1], 0), ([0, -1], -1)])
        q = quotient_data(P)
        assert sorted(sorted(s) for s in q.forbidden_strata) == \
            [[0, 1], [2, 3]]
        assert len(q.kernel_basis) == 2
        assert q.nu_P == [Scalar(1), Scalar(1)]
    _check(2, "square quotient data", body)


def test_criterion_03_lvm_rational():
    def body():
        cfg = five_vector()
        flags = lvm.check_admissible(cfg)
        assert flags == {"siegel": True, "weak_hyperbolic": True}
        assert lvm.condition_K(cfg)
        assert lvm.leaf_dichotomy(cfg) == lvm.COMPACT_TORI
        P = lvm.polytope_from_gale(lvm.gale_transform(cfg))
        assert P.redundant.count(True) == 1
        verts = sorted(tuple(x.a for x in v) for v in P.vertices)
        assert verts == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        rep = lvm.generic_fiber(cfg)
        assert rep.rational and rep.slope == Scalar(1)
    _check(3, "LVM rational five-vector example", body)


def test_criterion_04_lvm_irrational():
    def body():
        cfg = five_vector(first=R2)
        assert not lvm.condition_K(cfg)
        assert lvm.leaf_dichotomy(cfg) == lvm.DENSE_LEAVES
        rep = lvm.generic_fiber(cfg)
        assert not rep.rational and rep.slope == R2
    _check(4, "LVM irrational perturbation", body)


def test_criterion_05_teardrop_orders():
    def body():
        def teardrop(p):
            return lvm.Configuration([[(1, 0)], [(0, 1)], [(p, 0)],
                                      [(-1, -1)]])
        for p in (4, 7):
            weights = lvm.orbifold_weights_1d(teardrop(p))
            orders = sorted(set(w for ws in weights for w in ws) - {1})
            assert orders == [(2 * p + 1) // 3]
        weights = lvm.orbifold_weights_1d(teardrop(5))
        orders = sorted(set(w for ws in weights for w in ws) - {1})
        assert orders == [3, 11]
    _check(5, "teardrop family singular orders", body)


def test_criterion_06_hirzebruch_jung():
    def body():
        for m in range(2, 51):
            for k in range(1, m):
                if gcd(m, k) != 1:
                    continue
                x = Fraction(m, k)
                digits = hj.hj_expand(x).digits
                assert hj.hj_evaluate(digits) == Scalar(x)
                F, inserted, _ = hj.resolve_cone(
                    fan.Cone([[0, 1], [m, -k]]))
                assert len(inserted) == len(digits)
                for tau in F.maximal_cones():
                    (a, b), (c, d) = tau.rays
                    det = a.a * d.a - b.a * c.a
                    assert abs(det) == 1
        e = hj.hj_expand(R2, depth=5)
        assert e.digits == (2, 2, 4, 2, 4)
    _check(6, "Hirzebruch-Jung round trip and smooth resolutions", body)


def test_criterion_07_g_theorem():
    def body():
        h = h_from_f([1, 6, 12, 8], 3)
        assert h == [1, 3, 3, 1] and check_dehn_sommerville(h)
        res = g_theorem_necessity([1, 6, 12, 8], 3)
        assert res["g"] == [1, 2] and is_m_vector(res["g"]) and res["pass"]
        assert not g_theorem_necessity([1, 6, 12, 7], 3)["pass"]
        cyc = cyclic_polytope_f_vector(4, 7)
        assert cyc == [1, 7, 21, 28, 14]
        assert g_theorem_necessity(cyc, 4)["pass"]
        for f, d in [([1, 6, 12, 8], 3), ([1, 3, 3], 2), ([1, 5, 5], 2),
                     (cyc, 4), (cyclic_polytope_f_vector(3, 6), 3)]:
            hv = h_from_f(f, d)
            assert sum(hv) == f[d] and hv[d] == 1
    _check(7, "g-theorem machinery", body)


def test_criterion_08_hochschild_identities():
    def body():
        rng = random.Random(42)
        algebras = [random_algebra(rng) for _ in range(20)]
        algebras = [A for A in algebras if A.dim <= 3] or \
            [hochschild.ground_field()]
        count = 0
        while count < 1000:
            A = algebras[count % len(algebras)]
            k = 1 + count % 3
            x = random_chain(rng, A, k)
            if k >= 2:
                assert not hochschild.hochschild_boundary(
                    hochschild.hochschild_boundary(x)).coeffs
            assert not hochschild.connes_B(hochschild.connes_B(x)).coeffs
            assert not chain_sum(
                hochschild.hochschild_boundary(hochschild.connes_B(x)),
                hochschild.connes_B(hochschild.hochschild_boundary(x))).coeffs
            count += 1
        for A in algebras[:6]:
            assert hochschild.hh_ranks(A, 0)[0] == commutator_hh0(A)
    _check(8, "Hochschild complex identities", body)


def test_criterion_09_morita_smoke():
    def body():
        pair = hochschild.convolution_algebra(hochschild.pair_groupoid(2))
        gf = hochschild.ground_field()
        assert hochschild.hh_ranks(pair, 3) == hochschild.hh_ranks(gf, 3) \
            == [1, 0, 0, 0]
        assert hochschild.hh_ranks(pair, 3) == hh_ranks_dense(pair, 3)
        two_point = hochschild.product_of_fields(2)
        for N in (1, 2, 3):
            assert hochschild.hp_truncated(gf, N) == (1, 0)
            assert hochschild.hp_truncated(two_point, N) == (2, 0)
    _check(9, "Morita smoke tests for groupoid algebras", body)


def test_criterion_10_nctorus():
    def body():
        rng = random.Random(3)
        for _ in range(100):
            q = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            x = Scalar(q) if rng.random() < 0.5 else \
                Scalar(q) + Scalar(rng.randint(1, 3)) * R2
            cls = nctorus.kronecker_classify(x)
            assert (cls == nctorus.CLOSED_LEAVES) == x.is_rational
        count = 0
        while count < 50:
            a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
            if a * d - b * c != 1:
                continue
            theta = (R2, R3, PHI)[count % 3]
            if (Scalar(c) * theta + Scalar(d)).is_zero():
                continue
            image = nctorus.mobius_apply(((a, b), (c, d)), theta)
            res = nctorus.morita_equivalent(theta, image)
            assert res["equivalent"]
            W = res["witness"]
            assert W[0][0] * W[1][1] - W[0][1] * W[1][0] == 1
            assert nctorus.mobius_apply(W, theta) == image
            count += 1
        assert not nctorus.morita_equivalent(R2, R3)["equivalent"]
        sample = [R2, Scalar(1) + R2, R2.inverse(), R3, Scalar(2) - R3, PHI]
        rel = {(i, j): nctorus.morita_equivalent(x, y)["equivalent"]
               for i, x in enumerate(sample) for j, y in enumerate(sample)}
        for i in range(6):
            assert rel[(i, i)]
            for j in range(6):
                assert rel[(i, j)] == rel[(j, i)]
                for k in range(6):
                    if rel[(i, j)] and rel[(j, k)]:
                        assert rel[(i, k)]
    _check(10, "non-commutative torus classification", body)


def test_criterion_11_dichotomy_consistency():
    def body():
        from test_lvm import conjugate_stability_oracle, random_admissible
        rng = random.Random(19)
        for i in range(200):
            cfg = random_admissible(rng, irrational=i % 2 == 1)
            k = lvm.condition_K(cfg)
            assert (lvm.leaf_dichotomy(cfg) == lvm.COMPACT_TORI) == k
            assert conjugate_stability_oracle(cfg) == k
    _check(11, "condition (K) vs leaf dichotomy on random input", body)


def test_criterion_12_cli_determinism(tmp_path, capsys):
    def body():
        square = tmp_path / "square.json"
        square.write_text(json.dumps(polytope.to_json(unit_square())))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(lvm.configuration_to_json(five_vector())))
        alg = tmp_path / "alg.json"
        alg.write_text(json.dumps(hochschild.group_algebra_z2().to_json()))
        invocations = [
            ["polytope", "info", str(square)],
            ["fan", "of-polytope", str(square)],
            ["quotient", "data", "--polytope", str(square)],
            ["lvm", "dichotomy", "--config", str(cfg)],
            ["lvm", "polytope", "--config", str(cfg)],
            ["hj", "expand", "--value", "sqrt(2)", "--depth", "6"],
            ["nctorus", "morita", "--theta1", "sqrt(2)",
             "--theta2", "1+sqrt(2)"],
            ["gvec", "--f", "1,6,12,8", "--d", "3"],
            ["hh", "ranks", "--algebra", str(alg)],
        ]
        for argv in invocations:
            outs = []
            for _ in range(2):
                assert cli_run(argv) == 0
                outs.append(capsys.readouterr().out.encode())
            assert outs[0] == outs[1]
            json.loads(outs[0])
        cmd = [sys.executable, "-m", "nctoric.cli",
               "gvec", "--f", "1,7,21,28,14", "--d", "4"]
        a = subprocess.run(cmd, capture_output=True, check=True).stdout
        b = subprocess.run(cmd, capture_output=True, check=True).stdout
        assert a == b
    _check(12, "CLI byte-identical determinism", body)
