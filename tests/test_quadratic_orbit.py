"""The integer (P, Q) recurrence behind both continued fractions of a
quadratic irrational, checked against the loops it replaced: those step
the complete quotient as a `Scalar` and detect the period by repeated
`Scalar` states."""

import contextlib
import io
import random
from fractions import Fraction

from nctoric import cli, scalars
from nctoric.errors import PeriodNotFound
from nctoric.hj import DEPTH_LIMIT, PERIOD_SEARCH_LIMIT, hj_expand
from nctoric.nctorus import cf_expand, mobius_apply
from nctoric.scalars import RADICAND_LIMIT, Scalar, squarefree_split


def regular_oracle(x):
    """(preperiod, period) of x = a_0 + 1/(a_1 + ...), a_i = floor(x_i)."""
    digits = []
    states = {x: 0}
    for _ in range(PERIOD_SEARCH_LIMIT):
        a = x.floor()
        x = (x - Scalar(a)).inverse()
        digits.append(a)
        if x in states:
            k = states[x]
            return tuple(digits[:k]), tuple(digits[k:])
        states[x] = len(digits)
    raise PeriodNotFound("oracle")


def descending_oracle(x):
    """(preperiod, period) of x = a_0 - 1/(a_1 - ...), a_i = ceil(x_i)."""
    digits = []
    states = {x: 0}
    for _ in range(PERIOD_SEARCH_LIMIT):
        a = x.ceil()
        x = (Scalar(a) - x).inverse()
        digits.append(a)
        if x in states:
            k = states[x]
            return tuple(digits[:k]), tuple(digits[k:])
        states[x] = len(digits)
    raise PeriodNotFound("oracle")


def _squarefree(rng, lo, hi):
    while True:
        d = rng.randint(lo, hi)
        if squarefree_split(d) == (1, d):
            return d


def _rational(rng, num, den):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _unimodular(rng, bound):
    """A product of steps ((q, 1), (1, 0)), so of determinant +-1, grown
    until an entry reaches `bound`."""
    a, b, c, d = 1, 0, 0, 1
    while max(abs(a), abs(b), abs(c), abs(d)) < bound:
        q = rng.choice((-1, 1)) * rng.randint(1, 9)
        a, b, c, d = a * q + b, a, c * q + d, c
    return ((a, b), (c, d))


def _max_denominator(x):
    return max(x.a.denominator, x.b.denominator)


def seeded_irrationals():
    """300 quadratic irrationals: small coefficients over radicands up to
    120, radicands up to RADICAND_LIMIT, unimodular images with
    denominators up to 10^6 and with 25-digit coefficients (their periods
    stay short), and two with no period within PERIOD_SEARCH_LIMIT."""
    rng = random.Random(9)
    small = [Scalar(_rational(rng, 20, 9), _rational(rng, 2, 4) or 1,
                    _squarefree(rng, 2, 120)) for _ in range(174)]
    large = [Scalar(rng.randint(-9, 9), rng.choice((1, -1)),
                    _squarefree(rng, 10**5, RADICAND_LIMIT)) for _ in range(4)]
    images = []
    while len(images) < 100:
        x = Scalar(rng.randint(-5, 5), rng.choice((1, -1)),
                   _squarefree(rng, 2, 60))
        y = mobius_apply(_unimodular(rng, 120), x)
        if 1000 < _max_denominator(y) <= 10**6:
            images.append(y)
    huge = [mobius_apply(_unimodular(rng, 10**12), rng.choice(small))
            for _ in range(20)]
    unbounded = [Scalar(0, 10**25, 2), Scalar(Fraction(1, 10**6), -1, 3)]
    return small + large + images + huge + unbounded


def _outcome(expand, x):
    try:
        return expand(x)
    except PeriodNotFound:
        return PeriodNotFound


def _stream(preperiod, period, depth):
    out = list(preperiod)
    while len(out) < depth:
        out.append(period[(len(out) - len(preperiod)) % len(period)])
    return tuple(out[:depth])


def test_sample_covers_the_input_space():
    xs = seeded_irrationals()
    assert len(xs) == 300 and all(not x.is_rational for x in xs)
    assert any(x.a > 0 for x in xs) and any(x.a < 0 for x in xs)
    assert any(x.b > 0 for x in xs) and any(x.b < 0 for x in xs)
    assert max(x.d for x in xs) > RADICAND_LIMIT // 2
    assert any(10**5 < _max_denominator(x) <= 10**6 for x in xs)
    assert max(abs(x.a.numerator) for x in xs) >= 10**24


def test_engine_matches_the_scalar_state_oracles():
    stopped = 0
    for x in seeded_irrationals():
        want = _outcome(regular_oracle, x)
        e = _outcome(cf_expand, x)
        if want is PeriodNotFound:
            assert e is PeriodNotFound, x
            stopped += 1
        else:
            assert (e.preperiod, e.period) == want, x
        # the descending expansion needs x > 1; x - floor(x) + 1 has the
        # same tail
        y = x if x > 1 else x + (1 - x.floor())
        want = _outcome(descending_oracle, y)
        h = _outcome(lambda v: hj_expand(v, depth=DEPTH_LIMIT), y)
        if want is PeriodNotFound:
            assert h is PeriodNotFound, y
            stopped += 1
        else:
            preperiod, period = want
            assert h.preperiod_len == len(preperiod) and h.period == period, y
            assert h.digits == _stream(preperiod, period, DEPTH_LIMIT), y
    assert stopped >= 4


def test_expansions_split_a_bounded_number_of_radicands(monkeypatch):
    # a Scalar per digit would run the trial division of squarefree_split
    # at every step: 14,520 times for this HJ expansion (period 4838)
    calls = []
    split = scalars.squarefree_split

    def counted(n):
        calls.append(n)
        return split(n)

    monkeypatch.setattr(scalars, "squarefree_split", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["hj", "expand", "--value", "sqrt(999997)"]) == 0
    assert len(calls) <= 5
    x = Scalar.sqrt_int(999997)
    calls.clear()
    assert len(cf_expand(x).period) > 1
    assert len(calls) <= 5
