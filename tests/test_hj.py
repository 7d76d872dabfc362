from fractions import Fraction
from math import gcd

import pytest

from nctoric.errors import InputError, NotNormalizable, OutOfRange
from nctoric.fan import Cone, cone_classify, is_refinement, Fan
from nctoric.hj import (DEPTH_LIMIT, PERIOD_SEARCH_LIMIT, hj_evaluate,
                       hj_expand, resolve_cone)
from nctoric.scalars import Scalar


def test_expand_rational():
    e = hj_expand(Fraction(7, 5))
    assert e.digits == (2, 2, 3)
    assert e.finite
    assert hj_expand(Fraction(3, 2)).digits == (2, 2)
    assert hj_expand(2).digits == (2,)
    with pytest.raises(OutOfRange):
        hj_expand(Fraction(1, 2))


def test_expand_irrational():
    r2 = Scalar.sqrt_int(2)
    e = hj_expand(r2, depth=9)
    assert e.digits == (2, 2, 4, 2, 4, 2, 4, 2, 4)
    assert not e.finite
    assert e.preperiod_len == 1
    assert e.period == (2, 4)
    # depth shorter than the cycle still reports the structure
    e = hj_expand(r2, depth=2)
    assert e.digits == (2, 2)
    assert e.period == (2, 4)


def test_depth_is_capped():
    # hj_expand runs one period search of PERIOD_SEARCH_LIMIT steps, which
    # must cover every accepted depth
    assert 1 <= DEPTH_LIMIT <= PERIOD_SEARCH_LIMIT
    x = Scalar(1, 1, 2)
    e = hj_expand(x, depth=DEPTH_LIMIT)
    assert e.digits == (3,) + ((2, 4) * DEPTH_LIMIT)[:DEPTH_LIMIT - 1]
    sigma = Cone([[0, 1], [x, -1]])
    for depth in (0, DEPTH_LIMIT + 1):
        with pytest.raises(InputError):
            hj_expand(x, depth=depth)
        with pytest.raises(InputError):
            resolve_cone(sigma, depth=depth)


def test_evaluate_inverts_expand():
    for m in range(2, 51):
        for k in range(1, m):
            if gcd(m, k) != 1:
                continue
            x = Fraction(m, k)
            assert hj_evaluate(hj_expand(x).digits) == Scalar(x)


def test_resolve_smooth_cone_is_noop():
    F, inserted, _ = resolve_cone(Cone([[0, 1], [1, 0]]))
    assert inserted == []
    assert len(F.maximal_cones()) == 1


def test_resolve_orbifold_cone():
    sigma = Cone([[0, 1], [2, -1]])
    F, inserted, _ = resolve_cone(sigma)
    assert [[int(x.a) for x in r] for r in inserted] == [[1, 0]]
    for tau in F.maximal_cones():
        assert cone_classify(tau) == "Smooth"
    assert is_refinement(F, Fan([sigma]))


def test_resolve_inserts_digit_count_rays():
    sigma = Cone([[0, 1], [5, -3]])
    digits = hj_expand(Fraction(5, 3)).digits
    F, inserted, _ = resolve_cone(sigma)
    assert len(inserted) == len(digits)
    for tau in F.maximal_cones():
        assert cone_classify(tau) == "Smooth"
    assert is_refinement(F, Fan([sigma]))


def test_resolve_generic_cone():
    sigma = Cone([[3, 1], [5, 9]])
    F, inserted, _ = resolve_cone(sigma)
    for tau in F.maximal_cones():
        assert cone_classify(tau) == "Smooth"
    assert is_refinement(F, Fan([sigma]))


def test_resolve_irrational_truncation():
    r2 = Scalar.sqrt_int(2)
    sigma = Cone([[0, 1], [r2, Scalar(-1)]])
    F, inserted, _ = resolve_cone(sigma, depth=3)
    assert len(inserted) == 3
    classes = [cone_classify(tau) for tau in F.maximal_cones()]
    assert classes.count("NonRational") == 1
    assert all(c == "Smooth" for c in classes if c != "NonRational")


def test_resolve_needs_a_rational_ray():
    r2 = Scalar.sqrt_int(2)
    sigma = Cone([[Scalar(1), r2], [r2, Scalar(-1)]])
    with pytest.raises(NotNormalizable):
        resolve_cone(sigma, depth=2)
