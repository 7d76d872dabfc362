import random
from fractions import Fraction
from math import gcd

import pytest

from nctoric.errors import (ChainTooLong, InputError, NotNormalizable,
                            OutOfRange)
from nctoric.fan import (Cone, cone_classify, dual_cone_2d, hj_chain,
                         is_refinement, Fan)
from nctoric.hj import (DEPTH_LIMIT, PERIOD_SEARCH_LIMIT, hj_evaluate,
                       hj_expand, resolve_cone)
from nctoric.polytope import cube
from nctoric.quotient import quotient_data
from nctoric.scalars import Scalar

from test_fan import _image, hj_frame_oracle, random_gl2


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
    # a depth is an int: not a float, Fraction, bool or string
    for depth in (0, DEPTH_LIMIT + 1, 2.5, 2.0, True, Fraction(2), "2"):
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


def test_rational_chains_are_capped():
    # (n + 1)/n has n digits, all 2
    n = DEPTH_LIMIT
    assert hj_expand(Fraction(n + 1, n)).digits == (2,) * n
    _, inserted, _ = resolve_cone(Cone([[0, 1], [n + 1, -n]]))
    assert len(inserted) == n
    for call in (lambda: hj_expand(Fraction(n + 2, n + 1)),
                 lambda: resolve_cone(Cone([[0, 1], [n + 2, -n - 1]]))):
        with pytest.raises(ChainTooLong, match=f"DEPTH_LIMIT = {n}"):
            call()


def resolve_cone_oracle(sigma, depth=None):
    """resolve_cone on the Scalar frame, with the digits of x/y from
    hj_expand and the rational ray wrapped again."""
    w, v = sigma.rays
    if not all(x.is_rational for x in v):
        v, w = w, v
    v = [int(x.a) for x in v]
    e, x, y = hj_frame_oracle(v, w)
    digits = ()
    if not y.is_zero():
        slope = x / y
        if not slope.is_rational and depth is None:
            depth = 5
        digits = hj_expand(slope, depth=depth).digits
    inserted = [[Scalar(a) for a in u] for u in hj_chain(v, e, digits)]
    chain = [tuple(Scalar(a) for a in v)] + [tuple(u) for u in inserted] + [w]
    F = Fan.from_faces(2, dict(enumerate(chain)),
                       [(j, j + 1) for j in range(len(chain) - 1)])
    eps = v[0] * e[1] - v[1] * e[0]
    M = [[-eps * v[1], eps * v[0]], [eps * e[1], -eps * e[0]]]
    return F, inserted, M


def test_resolve_cone_matches_the_scalar_oracle():
    rng = random.Random(1112)
    pairs = [(m, k) for m in range(1, 201) for k in range(m) if gcd(m, k) == 1]
    cones = [(Cone([_image(M, (0, 1)), _image(M, (m, -k))]), None)
             for m, k in rng.sample(pairs, 300) for M in [random_gl2(rng)]]
    for d in (2, 5):
        root = Scalar.sqrt_int(d)
        for depth in range(1, 13):
            slope = Scalar(rng.randint(1, 3)) + Scalar(rng.randint(1, 3)) * root
            M = random_gl2(rng)
            cones.append((Cone([_image(M, (0, 1)),
                                _image(M, (slope, Scalar(-1)))]), depth))
            cones.append((Cone([[0, 1], [slope, Scalar(-1)]]), None))
    for sigma, depth in cones:
        F, inserted, M = resolve_cone(sigma, depth)
        assert (F, inserted, M) == resolve_cone_oracle(sigma, depth), sigma
        assert list(F.rays) == sorted(F.rays)  # Scalar.__lt__ order


def test_scalars_are_built_once_per_output_entry(monkeypatch):
    built = []
    init = Scalar.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    sigma = Cone([[0, 1], [101, -100]])
    P = cube(5)
    monkeypatch.setattr(Scalar, "__init__", counted)
    # one Scalar per entry of an inserted ray; the frame and the digits
    # are integers
    F, inserted, _ = resolve_cone(sigma)
    assert len(inserted) == 100
    assert len(built) <= 2 * len(inserted) + 4
    # one offset lambda_i per facet and one moment entry per kernel vector
    built.clear()
    q = quotient_data(P)
    assert len(built) <= len(q.lambda_P) + len(q.nu_P)
    built.clear()
    dual_cone_2d(sigma)
    assert built == []
