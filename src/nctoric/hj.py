"""Hirzebruch-Jung continued fractions and resolution of 2D cone
singularities.

The descending fraction a1 - 1/(a2 - 1/(...)) of m/k drives the minimal
smooth subdivision of the cone ((0,1), (m,-k)); quadratic-irrational
slopes give an eventually periodic digit stream that is truncated at a
requested depth.  That stream and the regular continued fraction of
`nctorus` come from one integer recurrence, `quadratic_orbit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import (DivisionByZero, InputError, NotNormalizable,
                     OutOfRange, PeriodNotFound, RationalInput)
from .fan import (DEPTH_LIMIT, Cone, Fan, _ray_table, hj_chain, hj_digits,
                  hj_frame)
from .scalars import Scalar

#: safety valve for period detection on quadratic irrationals, shared by
#: the regular continued fractions of `nctorus`; DEPTH_LIMIT, the largest
#: `depth` accepted by `hj_expand` and `resolve_cone`, must not exceed it
PERIOD_SEARCH_LIMIT = 10_000


@dataclass(frozen=True)
class HJExpansion:
    digits: tuple          # digits actually produced (finite prefix)
    source: Scalar
    finite: bool           # True iff the expansion terminates (rational source)
    preperiod_len: int = 0  # irrational case: digits before the cycle
    period: tuple = ()      # irrational case: repeating digit block


def hj_expand(x, depth: int | None = None) -> HJExpansion:
    """Digits a_i >= 2 with a_i = ceil(x_i), x_{i+1} = 1/(a_i - x_i).

    Rational x > 1 terminates, within DEPTH_LIMIT digits (ChainTooLong
    otherwise); quadratic-irrational x yields `depth` digits together with
    the detected (preperiod, period) structure."""
    _check_depth(depth)
    x = Scalar._coerce(x)
    if x <= Scalar(1):
        raise OutOfRange("expansion needs x > 1")
    A, B, C = x._triple()
    if not B:
        return HJExpansion(tuple(hj_digits(A, C)), x, True)
    if depth is None:
        depth = 12
    digits, preperiod_len = quadratic_orbit(x, descending=True)
    period = tuple(digits[preperiod_len:])
    # extend or trim the digit list to the requested depth
    out = list(digits[:preperiod_len])
    while len(out) < depth:
        out.append(period[(len(out) - preperiod_len) % len(period)])
    return HJExpansion(tuple(out[:depth]), x, False, preperiod_len, period)


def quadratic_orbit(x: Scalar, descending: bool = False):
    """(digits, preperiod_len) of the continued fraction of the quadratic
    irrational x, up to the end of its first period: the regular one
    (a = floor(x), x -> 1/(x - a)) or, with `descending`, the
    Hirzebruch-Jung one (a = ceil(x), x -> 1/(a - x)).

    The complete quotient is (P + sqrt(D))/Q with D fixed and Q | D - P^2,
    so each digit costs a fixed number of integer operations (Cohen,
    GTM 138, 5.7), and for fixed D the pair (P, Q) determines the value,
    so the first repeated pair gives the minimal preperiod.  Raises
    PeriodNotFound when no pair repeats within PERIOD_SEARCH_LIMIT steps."""
    P, B, Q = x._triple()
    if not B:
        raise RationalInput("continued fraction period needs an irrational")
    # x = (P + B sqrt(d))/Q = (P + sqrt(D))/Q once the sign of B is moved
    # to Q; scaling by k makes Q divide D - P^2
    if B < 0:
        P, Q = -P, -Q
    D = B * B * x.d
    k = abs(Q) // gcd(Q, D - P * P)
    P, Q, D = P * k, Q * k, D * k * k
    r = isqrt(D)
    digits = []
    seen = {(P, Q): 0}
    for _ in range(PERIOD_SEARCH_LIMIT):
        # sqrt(D) is irrational, so the floor is (P + r) // Q for Q > 0
        # and (P + r + 1) // Q for Q < 0, and the ceiling is one more
        n = (P + r) // Q if Q > 0 else (P + r + 1) // Q
        if descending:
            n += 1
        digits.append(n)
        P = n * Q - P
        Q = (P * P - D) // Q if descending else (D - P * P) // Q
        if (P, Q) in seen:
            return digits, seen[P, Q]
        seen[P, Q] = len(digits)
    raise PeriodNotFound(
        f"no state repetition within {PERIOD_SEARCH_LIMIT} steps")


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
    adjacent pair unimodular, r at most DEPTH_LIMIT).  Irrational slope:
    `depth` rays from the truncated expansion; only the final wedge
    containing the irrational ray stays non-smooth.

    Returns (fan, inserted_rays, M) where M is the normalizing unimodular
    map used (for traceability): it sends the rational ray kept fixed to
    (0, 1) and the first inserted ray (for a smooth cone, the other ray)
    to (1, 0)."""
    _check_depth(depth)
    if sigma.ambient_dim != 2 or len(sigma._stored) != 2:
        raise NotNormalizable("need a full-dimensional 2D cone")
    # the frame keeps the second ray v fixed, or the first when only that
    # one is rational: a stored rational ray is a primitive integer vector
    w, v = sigma._stored
    if type(v[0]) is not int:
        v, w = w, v
        if type(v[0]) is not int:
            raise NotNormalizable("no rational primitive ray to normalize")
    e, x, y = hj_frame(v, w)
    digits = hj_digits(x, y) if type(w[0]) is int else \
        hj_expand(x / y, depth=depth or 5).digits
    # the chain rays, each a lattice basis with the next, are primitive
    chain = [tuple(u) for u in hj_chain(v, e, digits)]
    inserted = [[Scalar(a) for a in u] for u in chain]
    # the fan's faces are the origin, the rays and the consecutive pairs
    # of the chain, closed already
    table, pos = _ray_table([v, *chain, w])
    pairs = [frozenset(p) for p in zip(pos, pos[1:])]
    F = Fan._closed(2, table, [frozenset()] + [frozenset((k,)) for k in pos]
                    + pairs, pairs)
    # the rows of M are the cross products with v and with e, signed by
    # det(v, e) = +-1
    eps = v[0] * e[1] - v[1] * e[0]
    M = [[-eps * v[1], eps * v[0]], [eps * e[1], -eps * e[0]]]
    return F, inserted, M


def _check_depth(depth):
    if depth is not None and not 1 <= depth <= DEPTH_LIMIT:
        raise InputError(
            f"depth must be between 1 and {DEPTH_LIMIT}, got {depth}")
