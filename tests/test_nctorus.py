import random
from fractions import Fraction

import pytest

from nctoric import nctorus
from nctoric.errors import NctoricError, PoleAtInput, RationalInput
from nctoric.nctorus import (CLOSED_LEAVES, DENSE_LEAVES, cf_expand,
                             kronecker_classify, mobius_apply,
                             morita_equivalent)
from nctoric.scalars import Scalar

R2 = Scalar.sqrt_int(2)
R3 = Scalar.sqrt_int(3)
PHI = (Scalar(1) + Scalar.sqrt_int(5)) / Scalar(2)


def test_kronecker_classify():
    assert kronecker_classify(Fraction(2, 3)) == CLOSED_LEAVES
    assert kronecker_classify(0) == CLOSED_LEAVES
    assert kronecker_classify(R2) == DENSE_LEAVES
    rng = random.Random(5)
    for _ in range(100):
        q = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        x = Scalar(q) if rng.random() < 0.5 else Scalar(q) + R3
        assert (kronecker_classify(x) == CLOSED_LEAVES) == x.is_rational


def test_cf_expand_known_values():
    e = cf_expand(R2)
    assert e.preperiod == (1,) and e.period == (2,)
    e = cf_expand(PHI)
    assert e.preperiod == () and e.period == (1,)
    e = cf_expand(R3)
    assert e.preperiod == (1,) and e.period == (1, 2)
    with pytest.raises(RationalInput):
        cf_expand(Fraction(3, 4))


def test_cf_convergents_bracket():
    # convergents alternate around the value, exactly
    for theta in (R2, R3, PHI, Scalar(2) + R2 / Scalar(3)):
        e = cf_expand(theta)
        digits = list(e.preperiod) + list(e.period) * 3
        p2, p1 = 1, digits[0]
        q2, q1 = 0, 1
        signs = []
        for a in digits[1:]:
            p2, p1 = p1, a * p1 + p2
            q2, q1 = q1, a * q1 + q2
            signs.append((Scalar(Fraction(p1, q1)) - theta).sign())
        assert all(s != 0 for s in signs)
        assert all(s1 != s2 for s1, s2 in zip(signs, signs[1:]))


def test_mobius_apply():
    assert mobius_apply(((1, 0), (0, 1)), R2) == R2
    assert mobius_apply(((1, 1), (0, 1)), R2) == Scalar(1) + R2
    assert mobius_apply(((0, -1), (1, 0)), PHI) == Scalar(1) - PHI
    with pytest.raises(PoleAtInput):
        mobius_apply(((1, 0), (1, -1)), Scalar(1))


def test_morita_basic():
    res = morita_equivalent(PHI, PHI + Scalar(1))
    assert res["equivalent"] and res["witness"] == [[1, 1], [0, 1]]
    res = morita_equivalent(R2, Scalar(2) - R2.inverse())
    assert res["equivalent"] and res["witness"] is not None
    assert morita_equivalent(R2, R3) == {"equivalent": False, "witness": None}
    with pytest.raises(RationalInput):
        morita_equivalent(Fraction(1, 2), R2)


def test_morita_witnesses_verify():
    rng = random.Random(2)
    count = 0
    while count < 50:
        a, b, c, d = (rng.randint(-6, 6) for _ in range(4))
        if a * d - b * c != 1:
            continue
        theta = (R2, R3, PHI)[count % 3]
        den = Scalar(c) * theta + Scalar(d)
        if den.is_zero():
            continue
        image = mobius_apply(((a, b), (c, d)), theta)
        res = morita_equivalent(theta, image)
        assert res["equivalent"]
        W = res["witness"]
        assert W is not None
        assert W[0][0] * W[1][1] - W[0][1] * W[1][0] == 1
        assert mobius_apply(W, theta) == image
        count += 1


def test_morita_equivalence_relation():
    sample = [R2, Scalar(1) + R2, R2.inverse(), R3, Scalar(2) - R3, PHI]
    for x in sample:
        assert morita_equivalent(x, x)["equivalent"]
    for x in sample:
        for y in sample:
            assert morita_equivalent(x, y)["equivalent"] == \
                morita_equivalent(y, x)["equivalent"]
    for x in sample:
        for y in sample:
            for z in sample:
                if morita_equivalent(x, y)["equivalent"] and \
                        morita_equivalent(y, z)["equivalent"]:
                    assert morita_equivalent(x, z)["equivalent"]


def test_morita_distinct_fields():
    assert not morita_equivalent(R2, Scalar(1) + R3)["equivalent"]


def test_morita_witness_is_checked_without_assert(monkeypatch):
    monkeypatch.setattr(nctorus, "_convergent_matrix",
                        lambda digits, i: ((1, 0), (0, 1)))
    with pytest.raises(NctoricError):
        morita_equivalent(R2, Scalar(1) + R2)
