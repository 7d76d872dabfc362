"""Hirzebruch-Jung continued fractions and resolution of 2D cone
singularities.

The descending fraction a1 - 1/(a2 - 1/(...)) of m/k drives the minimal
smooth subdivision of the cone ((0,1), (m,-k)); quadratic-irrational
slopes give an eventually periodic digit stream that is truncated at a
requested depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (DivisionByZero, InputError, NotNormalizable,
                     OutOfRange, PeriodNotFound)
from .fan import Cone, Fan, hj_chain, hj_digits, hj_frame
from .scalars import Scalar

#: safety valve for period detection on quadratic irrationals, shared by
#: the regular continued fractions of `nctorus`
PERIOD_SEARCH_LIMIT = 10_000
#: largest `depth` accepted by `hj_expand` and `resolve_cone`; it must not
#: exceed PERIOD_SEARCH_LIMIT
DEPTH_LIMIT = 1000


@dataclass(frozen=True)
class HJExpansion:
    digits: tuple          # digits actually produced (finite prefix)
    source: Scalar
    finite: bool           # True iff the expansion terminates (rational source)
    preperiod_len: int = 0  # irrational case: digits before the cycle
    period: tuple = ()      # irrational case: repeating digit block


def hj_expand(x, depth: int | None = None) -> HJExpansion:
    """Digits a_i >= 2 with a_i = ceil(x_i), x_{i+1} = 1/(a_i - x_i).

    Rational x > 1 terminates; quadratic-irrational x yields `depth` digits
    together with the detected (preperiod, period) structure."""
    _check_depth(depth)
    x = Scalar._coerce(x)
    if x <= Scalar(1):
        raise OutOfRange("expansion needs x > 1")
    if x.is_rational:
        return HJExpansion(tuple(hj_digits(x.a.numerator, x.a.denominator)),
                           x, True)
    if depth is None:
        depth = 12
    digits = []
    states = {x: 0}
    cur = x
    for _ in range(PERIOD_SEARCH_LIMIT):
        a = cur.ceil()
        if Scalar(a) == cur:  # cannot happen for irrational cur
            raise PeriodNotFound("irrational state became integral")
        digits.append(a)
        cur = (Scalar(a) - cur).inverse()
        if cur in states:
            preperiod_len = states[cur]
            period = tuple(digits[preperiod_len:])
            break
        states[cur] = len(digits)
    else:
        raise PeriodNotFound(
            f"no state repetition within {PERIOD_SEARCH_LIMIT} steps")
    # extend or trim the digit list to the requested depth
    out = list(digits[:preperiod_len])
    while len(out) < depth:
        out.append(period[(len(out) - preperiod_len) % len(period)])
    return HJExpansion(tuple(out[:depth]), x, False, preperiod_len, period)


def hj_evaluate(digits) -> Scalar:
    """Exact value of the descending fraction a1 - 1/(a2 - ...)."""
    val = None
    for a in reversed(list(digits)):
        if val is None:
            val = Fraction(a)
        else:
            if val == 0:
                raise DivisionByZero("malformed digit list (zero tail)")
            val = a - Fraction(1, 1) / val
    if val is None:
        raise DivisionByZero("empty digit list")
    return Scalar(val)


def resolve_cone(sigma: Cone, depth: int | None = None):
    """Subdivide a 2D cone along the Hirzebruch-Jung rays.

    Rational slope: the full smooth resolution (r inserted rays, every
    adjacent pair unimodular).  Irrational slope: `depth` rays from the
    truncated expansion; only the final wedge containing the irrational
    ray stays non-smooth.

    Returns (fan, inserted_rays, M) where M is the normalizing unimodular
    map used (for traceability): it sends the rational ray kept fixed to
    (0, 1) and the first inserted ray (for a smooth cone, the other ray)
    to (1, 0)."""
    _check_depth(depth)
    if sigma.ambient_dim != 2 or len(sigma.rays) != 2:
        raise NotNormalizable("need a full-dimensional 2D cone")
    w, v = sigma.rays
    if not all(x.is_rational for x in v):
        v, w = w, v
        if not all(x.is_rational for x in v):
            raise NotNormalizable("no rational primitive ray to normalize")
    v = [int(x.a) for x in v]
    e, x, y = hj_frame(v, w)
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
    # the rows of M are the cross products with v and with e, signed by
    # det(v, e) = +-1
    eps = v[0] * e[1] - v[1] * e[0]
    M = [[-eps * v[1], eps * v[0]], [eps * e[1], -eps * e[0]]]
    return F, inserted, M


def _check_depth(depth):
    if depth is not None and not 1 <= depth <= DEPTH_LIMIT:
        raise InputError(
            f"depth must be between 1 and {DEPTH_LIMIT}, got {depth}")
