"""Kronecker foliations and non-commutative tori: the rational/irrational
leaf dichotomy, regular continued fractions of quadratic irrationals, and
Morita equivalence of torus parameters under the integer Moebius action.

Two irrational quadratics are equivalent exactly when their continued
fraction tails coincide; the decision runs on the cycle of complete
quotients, and a determinant +1 witness matrix is assembled from the
convergents when the tail alignment permits one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NctoricError, PoleAtInput, RationalInput
from .hj import quadratic_orbit
from .linalg import mat_mul
from .scalars import Scalar

CLOSED_LEAVES = "ClosedLeaves"
DENSE_LEAVES = "DenseLeaves"


def kronecker_classify(theta) -> str:
    """ClosedLeaves for rational slope (every leaf a torus knot), else
    DenseLeaves."""
    return CLOSED_LEAVES if Scalar._coerce(theta).is_rational else DENSE_LEAVES


@dataclass(frozen=True)
class CFExpansion:
    preperiod: tuple
    period: tuple


def _cf_step(x: Scalar):
    a = x.floor()
    frac = x - Scalar(a)
    return a, frac.inverse()


def cf_expand(theta) -> CFExpansion:
    """Regular continued fraction of a quadratic irrational, with the
    minimal preperiod found by exact complete-quotient repetition; raises
    PeriodNotFound when no complete quotient repeats within
    PERIOD_SEARCH_LIMIT steps."""
    digits, k = quadratic_orbit(Scalar._coerce(theta))
    return CFExpansion(tuple(digits[:k]), tuple(digits[k:]))


def mobius_apply(M, theta) -> Scalar:
    """(a theta + b) / (c theta + d) for M = ((a, b), (c, d))."""
    t = Scalar._coerce(theta)
    (a, b), (c, d) = M
    den = Scalar._coerce(c) * t + Scalar._coerce(d)
    if den.is_zero():
        raise PoleAtInput("Moebius transform has a pole at this value")
    return (Scalar._coerce(a) * t + Scalar._coerce(b)) / den


def _states_and_digits(theta, count):
    """Complete quotients x_0=theta, x_1, ... and digits a_0, a_1, ...
    (x_{i} has digit a_i; count digits produced)."""
    x = theta
    states = [x]
    digits = []
    for _ in range(count):
        a, x = _cf_step(x)
        digits.append(a)
        states.append(x)
    return states, digits


def _convergent_matrix(digits, i):
    """M_i with theta = M_i . x_i: columns (p_{i-1}, q_{i-1}), (p_{i-2},
    q_{i-2}); det M_i = (-1)^i."""
    p2, p1 = 0, 1  # p_{-2}, p_{-1}
    q2, q1 = 1, 0
    for a in digits[:i]:
        p2, p1 = p1, a * p1 + p2
        q2, q1 = q1, a * q1 + q2
    return ((p1, p2), (q1, q2))


def _mat_inv2(M):
    (a, b), (c, d) = M
    det = a * d - b * c  # +-1 here
    return ((d * det, -b * det), (-c * det, a * det))


def morita_equivalent(theta, theta_p) -> dict:
    """Morita test for two irrational torus parameters.

    equivalent iff the continued fraction tails eventually coincide.  A
    witness W with det W = +1 and theta' = W.theta is returned when the
    tail alignment parity allows one; otherwise `gl2_only_certificate`
    marks that only a determinant -1 transform connects the parameters.
    """
    t = Scalar._coerce(theta)
    tp = Scalar._coerce(theta_p)
    if t.is_rational or tp.is_rational:
        raise RationalInput("Morita test is for irrational parameters")
    if t.d != tp.d:
        return {"equivalent": False, "witness": None}
    e1, e2 = cf_expand(t), cf_expand(tp)
    pre1, per1 = len(e1.preperiod), len(e1.period)
    pre2, per2 = len(e2.preperiod), len(e2.period)
    n1 = pre1 + 2 * per1
    n2 = pre2 + 2 * per2
    st1, dig1 = _states_and_digits(t, n1)
    st2, dig2 = _states_and_digits(tp, n2)
    cycle2 = set(st2[pre2:pre2 + per2])
    match = None
    for i in range(pre1, pre1 + per1):
        if st1[i] in cycle2:
            j = st2.index(st1[i])
            match = (i, j)
            break
    if match is None:
        return {"equivalent": False, "witness": None}
    i0, j0 = match
    # theta = M_i . x, theta' = N_j . x  =>  theta' = N_j M_i^{-1} . theta,
    # determinant (-1)^{i+j}; period shifts i -> i + a*per1 revisit the same
    # state, so parity is adjustable iff some period length is odd
    candidates = []
    for a in range(3):
        for b in range(3):
            i = i0 + a * per1
            j = j0 + b * per2
            if (i + j) % 2 != 0:
                continue
            _, dig1x = _states_and_digits(t, i)
            _, dig2x = _states_and_digits(tp, j)
            W = mat_mul(_convergent_matrix(dig2x, j),
                        _mat_inv2(_convergent_matrix(dig1x, i)))
            det = W[0][0] * W[1][1] - W[0][1] * W[1][0]
            if det != 1 or mobius_apply(W, t) != tp:
                raise NctoricError(f"Morita witness {W} fails its check")
            candidates.append(W)
    if not candidates:
        return {"equivalent": True, "witness": None,
                "gl2_only_certificate": True}
    W = min(candidates,
            key=lambda M: (max(abs(x) for row in M for x in row), M))
    return {"equivalent": True, "witness": W}
