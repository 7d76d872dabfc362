"""Exact values become integers in scalars.py alone: `Scalar._triple` for
one value and `scalars._pair_row` for a row of them.  Each clearing they
replaced is kept here as an oracle (the old bodies of `_pair_row`,
`linalg._primitive`'s Fraction path, the (P, B, Q) of `hj.quadratic_orbit`,
both moment-vector formulas of `quotient.quotient_data` and the offsets of
`polytope.normal_data`), with the old `Scalar` division and floor, and
each is compared with the new code on seeded values over Q, Q(sqrt 2) and
Q(sqrt 5), denominators near 10^50 among them."""

import math
import random
from fractions import Fraction
from math import gcd, lcm

from nctoric.errors import Empty, NotSimple, Unbounded
from nctoric.linalg import _primitive
from nctoric.polytope import SimplePolytope, normal_data
from nctoric.quotient import quotient_data
from nctoric.scalars import Scalar, _pair_row, common_field

from test_polytope import lattice_polygon, small_polygon


def pair_row_oracle(entries):
    """The old body of _pair_row: the row only."""
    v = [e.a if isinstance(e, Scalar) else e for e in entries]
    v += [e.b if isinstance(e, Scalar) else 0 for e in entries]
    v = [e.as_integer_ratio() for e in v]
    den = lcm(*[q for _, q in v])
    return [p * (den // q) for p, q in v]


def primitive_oracle(v):
    """The old body of linalg._primitive, its Fraction path included."""
    if not all(type(x) is int for x in v):
        v = [Scalar._coerce(x).a for x in v]
        den = lcm(*[x.denominator for x in v])
        v = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*v)
    return tuple([k // g for k in v])


def orbit_start_oracle(x):
    """The (P, B, Q) with x = (P + B sqrt(d))/Q that hj.quadratic_orbit
    computed from the parts of x."""
    a, b = x.a, x.b
    Q = lcm(a.denominator, b.denominator)
    return (a.numerator * (Q // a.denominator),
            b.numerator * (Q // b.denominator), Q)


def floor_oracle(x):
    """The old body of Scalar.floor."""
    a, b = x.a, x.b
    if b == 0:
        return a.numerator // a.denominator
    C = a.denominator * b.denominator
    A = a.numerator * b.denominator
    B = b.numerator * a.denominator
    r = math.isqrt(B * B * x.d)
    return (A + (r if B > 0 else -r - 1)) // C


def nu_oracle(basis, lam):
    """The two moment-vector formulas quotient_data had: Fraction sums of
    the parts over Q(sqrt d), one integer dot product over Q."""
    d = common_field(lam)
    if d:
        return [Scalar(-sum(bj * x.a for bj, x in zip(b, lam) if bj),
                       -sum(bj * x.b for bj, x in zip(b, lam) if bj), d)
                for b in basis]
    den = lcm(*[x.a.denominator for x in lam])
    num = [x.a.numerator * (den // x.a.denominator) for x in lam]
    return [Scalar(Fraction(-sum(bj * k for bj, k in zip(b, num)), den))
            for b in basis]


def offsets_oracle(P):
    """The offsets normal_data had: c / t, or one Fraction quotient when
    both are rational; a zero row keeps c."""
    return [c if rt is None else
            c / rt[1] if c.d or rt[1].d else Scalar(c.a / rt[1].a)
            for (_, c), rt in zip(P.facets, P._normal_rays)]


def rational(rng, big):
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 9) + big)


def seeded_value(rng, d, big):
    """A rational, or for d > 0 often an element of Q(sqrt d) with parts
    over unrelated denominators."""
    a = rational(rng, big)
    if not d or rng.random() < 0.3:
        return Scalar(a)
    return Scalar(a, rational(rng, rng.choice((0, big))) or 1, d)


def seeded_rows(rng):
    """(d, row): rows of ints, Fractions and Scalars of one field,
    denominators near 10^50 in every other row."""
    for trial in range(240):
        d = (0, 2, 5)[trial % 3]
        big = 10**50 if trial // 3 % 2 else 0
        row = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.randrange(4)
            if kind == 0:
                row.append(rng.randint(-9, 9))
            elif kind == 1:
                row.append(rational(rng, big))
            else:
                row.append(seeded_value(rng, d, big))
        yield d, row


def test_pair_row_matches_its_old_body_and_returns_the_least_denominator():
    seen = set()
    for d, row in seeded_rows(random.Random(2401)):
        got, den = _pair_row(row)
        assert got == pair_row_oracle(row), row
        # den times each entry is the pair, and no smaller positive
        # integer clears them all
        n = len(row)
        assert all(Scalar(got[i], got[n + i], d) == den * Scalar._coerce(e)
                   for i, e in enumerate(row)), row
        assert den > 0 and gcd(den, *got) == 1, row
        seen.add((d, den > 10**40, common_field(
            e for e in row if isinstance(e, Scalar)) == d))
    assert {(d, b) for d, b, _ in seen} == {
        (d, b) for d in (0, 2, 5) for b in (False, True)}
    # an empty row, the points of a configuration in C^0, clears to itself
    assert _pair_row([]) == ([], 1) and _pair_row(()) == ([], 1)


def test_primitive_matches_its_old_fraction_path():
    rng = random.Random(2402)
    seen = set()
    for trial in range(300):
        big = 10**50 if trial % 2 else 0
        v = [rng.choice((lambda: rng.randint(-9, 9),
                         lambda: rational(rng, big),
                         lambda: Scalar(rational(rng, big))))()
             for _ in range(rng.randint(1, 5))]
        if not any(v):
            continue
        assert _primitive(v) == primitive_oracle(v), v
        seen.add((big, all(type(x) is int for x in v)))
    assert seen == {(b, i) for b in (0, 10**50) for i in (False, True)}


def test_triple_matches_the_orbit_start_and_the_old_floor():
    rng = random.Random(2403)
    seen = set()
    for trial in range(600):
        d = (0, 2, 5)[trial % 3]
        big = 10**50 if trial // 3 % 2 else 0
        x = seeded_value(rng, d, big)
        A, B, C = x._triple()
        assert (A, B, C) == orbit_start_oracle(x), x
        assert C > 0 and Scalar(A, B, x.d) / C == x
        assert x.floor() == floor_oracle(x), x
        seen.add((d, x.is_rational))
    assert seen == {(0, True)} | {(d, r) for d in (2, 5)
                                  for r in (False, True)}


def test_division_matches_the_old_arithmetic():
    rng = random.Random(2404)
    for trial in range(300):
        d = (0, 2, 5)[trial % 3]
        big = 10**50 if trial // 3 % 2 else 0
        x, y = seeded_value(rng, d, big), seeded_value(rng, d, big)
        assert x / y == x * y.inverse(), (x, y)


def seeded_polytopes(rng):
    """(d, P): lattice and small polygons moved by a shift in Q(sqrt d)
    with denominators near 10^50 in every other case, one facet rescaled
    by a positive rational or irrational factor; those with a redundant
    facet, which has no moment coordinate, are left out."""
    for trial in range(48):
        d = (0, 2, 5)[trial % 3]
        big = 10**50 if trial // 3 % 2 else 0
        facets = (lattice_polygon, small_polygon)[trial // 6 % 2](rng)
        shift = [seeded_value(rng, d, big) for _ in range(2)]
        facets = [(nrm, Scalar._coerce(c) + sum(
            (a * s for a, s in zip(nrm, shift)), Scalar(0)))
            for nrm, c in facets]
        j = rng.randrange(len(facets))
        t = abs(seeded_value(rng, d, big)) or Scalar(1)
        facets[j] = ([t * x for x in facets[j][0]], t * facets[j][1])
        try:
            P = SimplePolytope(facets)
        except (Empty, NotSimple, Unbounded):
            continue
        if not any(P.redundant):
            yield d, P


def test_moment_vector_matches_both_old_formulas():
    seen = set()
    for d, P in seeded_polytopes(random.Random(2405)):
        q = quotient_data(P)
        assert q.lambda_P == normal_data(P)[1] == offsets_oracle(P)
        assert q.nu_P == nu_oracle(q.kernel_basis, q.lambda_P), P.facets
        # a rational entry is one Fraction with the shared zero part
        assert all(type(x.a) is Fraction and not x.b
                   for x in q.nu_P if x.is_rational)
        seen.add((d, common_field(q.lambda_P) == d))
    # every field is met with offsets in it
    assert seen >= {(d, True) for d in (0, 2, 5)}
