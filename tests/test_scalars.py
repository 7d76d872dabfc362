import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nctoric.errors import DivisionByZero, FieldMismatch, InputError
from nctoric.scalars import (NESTING_LIMIT, RADICAND_LIMIT, Scalar,
                             common_field, parse_scalar, rational_literal,
                             squarefree_split)


def test_squarefree_split():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(4) == (2, 1)
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(18) == (3, 2)
    assert squarefree_split(49) == (7, 1)


def test_radicand_limit():
    assert squarefree_split(RADICAND_LIMIT) == (1000, 1)
    with pytest.raises(InputError):
        squarefree_split(RADICAND_LIMIT + 1)


def test_parse_scalar_rejects_a_radicand_above_the_limit():
    assert parse_scalar(f"sqrt({RADICAND_LIMIT - 1})") == Scalar(0, 3, 111111)
    with pytest.raises(InputError):
        parse_scalar("sqrt(99999999999999999999999)")


def test_from_json_rejects_a_radicand_above_the_limit():
    with pytest.raises(InputError):
        Scalar.from_json({"a": "0", "b": "1", "d": RADICAND_LIMIT + 1})


def test_radicand_normalization():
    assert Scalar(0, 1, 8) == Scalar(0, 2, 2)
    assert Scalar(0, 1, 4) == Scalar(2)
    assert Scalar(3, 0, 5).is_rational
    assert Scalar.sqrt_int(2).d == 2
    assert Scalar.sqrt_int(9) == Scalar(3)


def test_arithmetic_exact():
    r2 = Scalar.sqrt_int(2)
    assert r2 * r2 == Scalar(2)
    assert (Scalar(1) + r2) * (Scalar(1) - r2) == Scalar(-1)
    assert (r2 / Scalar(2)) * Scalar(2) == r2
    assert r2.inverse() * r2 == Scalar(1)
    assert (Scalar(1) + r2).conjugate() == Scalar(1) - r2


def test_sign_is_exact():
    r2 = Scalar.sqrt_int(2)
    # 1393/985 < sqrt(2) < 70711/50000, both gaps far below float noise
    assert (r2 - Scalar(Fraction(1393, 985))).sign() == 1
    assert (r2 - Scalar(Fraction(70711, 50000))).sign() == -1
    assert (r2 - r2).sign() == 0
    assert Scalar(-3, 2, 2).sign() == -1   # 2 sqrt2 = 2.828... < 3
    assert Scalar(-2, 2, 2).sign() == 1


def test_hash_agrees_with_equality():
    # a rational Scalar equals its int or Fraction, so it must hash alike
    for x in (0, 1, -7, 10**30, Fraction(1, 2), Fraction(-22, 7)):
        assert Scalar(x) == x and hash(Scalar(x)) == hash(x)
    assert {1: "x"}.get(Scalar(1)) == "x"
    assert {Fraction(1, 2): "h"}.get(Scalar(Fraction(1, 2))) == "h"
    assert {Scalar(3): "s"}.get(3) == "s"
    r2 = Scalar.sqrt_int(2)
    assert len({Scalar(2), 2, Fraction(2), Scalar(4) / 2, r2 * r2}) == 1
    assert len({r2, Scalar(0, 1, 2), Scalar.sqrt_int(8) / 2, 1 + r2 - 1}) == 1
    assert len({Scalar(1), r2, Scalar(1, 1, 2), Scalar(1, -1, 2)}) == 4


def test_one_argument_scalar_is_the_three_argument_rational():
    rng = random.Random(1717)
    values = [True, False, 0, -1, 10**100, -(10**100) - 1, Fraction(-22, 7)]
    values += [rng.randint(-10**6, 10**6) for _ in range(40)]
    values += [rng.choice((-1, 1)) * rng.randint(10**100, 10**120)
               for _ in range(20)]
    values += [Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30))
               for _ in range(40)]
    for q in values:
        one, three = Scalar(q), Scalar(q, 0, 0)
        assert (one.a, one.b, one.d) == (three.a, three.b, three.d), q
        assert type(one.a) is Fraction and type(one.b) is Fraction
        assert one == three and hash(one) == hash(three)
        assert str(one) == str(three) and one.to_json() == three.to_json()
        assert one == q and hash(one) == hash(q)
    half = Fraction(1, 2)
    assert Scalar(half).a is half
    # bad input raises what the Fraction constructor and the d check raise
    for args, kwargs, error in ((("x",), {}, ValueError),
                                ((None,), {}, TypeError),
                                ((Scalar(1),), {}, TypeError),
                                ((1,), {"d": -1}, ValueError)):
        with pytest.raises(error):
            Scalar(*args, **kwargs)


def test_comparisons_and_floor():
    r2 = Scalar.sqrt_int(2)
    assert Scalar(1) < r2 < Scalar(2)
    assert r2.floor() == 1
    assert r2.ceil() == 2
    assert (-r2).floor() == -2
    assert Scalar(Fraction(7, 2)).floor() == 3
    assert Scalar(Fraction(-7, 2)).floor() == -4
    assert Scalar(3).floor() == 3 == Scalar(3).ceil()
    # floor division is the floor of the exact quotient, as for Fractions
    assert (1 + r2) // 1 == 2 and (-1 - r2) // 1 == -3
    assert r2 // Scalar(Fraction(1, 3)) == 4 and r2 // (-r2) == -1
    assert Scalar(Fraction(7, 2)) // Fraction(-1, 2) == Fraction(7, 2) // \
        Fraction(-1, 2) == -7


def test_floor_of_a_huge_irrational_is_exact():
    assert Scalar(0, 10**21, 2).floor() == math.isqrt(2 * 10**42)
    assert Scalar(0, -10**21, 2).floor() == -math.isqrt(2 * 10**42) - 1
    assert Scalar(0, 10**21, 2).ceil() == math.isqrt(2 * 10**42) + 1


def _squarefree_radicand(rng):
    while True:
        n = rng.choice((rng.randint(2, 100),
                        rng.randint(RADICAND_LIMIT - 1000, RADICAND_LIMIT)))
        d = squarefree_split(n)[1]
        if d > 1:
            return d


def test_floor_and_ceil_bracket_large_values_exactly():
    # oracle: the exact order of Scalar, decided by the sign of a^2 - b^2 d
    rng = random.Random(20261018)
    for _ in range(500):
        a, b = (Fraction(rng.randint(-10**60, 10**60), rng.randint(1, 10**20))
                for _ in range(2))
        x = Scalar(a, b, _squarefree_radicand(rng))
        n = x.floor()
        assert Scalar(n) <= x < Scalar(n + 1)
        assert x.ceil() == n + 1
    for a in (Fraction(7), Fraction(-7), Fraction(-10**40 - 1, 10**20)):
        x = Scalar(a)
        assert Scalar(x.floor()) <= x < Scalar(x.floor() + 1)
        assert Scalar(x.ceil() - 1) < x <= Scalar(x.ceil())


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        Scalar.sqrt_int(2) + Scalar.sqrt_int(3)
    with pytest.raises(FieldMismatch):
        common_field([Scalar.sqrt_int(2), Scalar.sqrt_int(5)])
    assert common_field([Scalar(1), Scalar.sqrt_int(3)]) == 3


# -- the ordering operators against the sign of the difference ---------------

ORDERS = {operator.lt: lambda s: s < 0, operator.le: lambda s: s <= 0,
          operator.gt: lambda s: s > 0, operator.ge: lambda s: s >= 0}


def order_oracle(x, y) -> int:
    """The sign of x - y, read off the difference Scalar."""
    return (Scalar._coerce(x) - y).sign()


def seeded_order_pairs(rng, d):
    """Pairs of Scalars over Q (d = 0) or Q(sqrt d): random, equal, a
    hair apart, differing only in the sqrt(d) part, and an irrational
    against a nearby rational (its floor or a truncation)."""
    root = Scalar.sqrt_int(d) if d else Scalar(0)

    def value():
        return Scalar(Fraction(rng.randint(-60, 60), rng.randint(1, 12))) + \
            root * Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    for _ in range(120):
        x = value()
        kind = rng.randrange(5)
        if kind == 0:
            y = value()
        elif kind == 1:
            y = Scalar(x.a, x.b, x.d)
        elif kind == 2:
            y = x + Fraction(rng.choice((-1, 1)), 10 ** rng.randint(3, 15))
        elif kind == 3:
            y = x + root * Fraction(rng.choice((-1, 1)), rng.randint(1, 9))
        else:
            k = 10 ** rng.randint(0, 9)
            y = Scalar(Fraction((x * k).floor() + rng.randint(0, 1), k))
        yield (x, y) if rng.random() < 0.5 else (y, x)


def test_ordering_matches_the_sign_of_the_difference():
    rng = random.Random(1801)
    for d in (0, 2, 999983):
        signs = set()
        for x, y in seeded_order_pairs(rng, d):
            s = order_oracle(x, y)
            signs.add(s)
            # rational operands also as an int or a Fraction, on either
            # side, so the reflected operators run too
            plain = [v.a for v in (x, y) if v.is_rational]
            plain += [int(q) for q in plain if q.denominator == 1]
            for op, want in ORDERS.items():
                assert op(x, y) is want(s), (op, x, y)
                for q in plain:
                    for u, v in ((x, q), (q, x), (y, q), (q, y)):
                        assert op(u, v) is want(order_oracle(u, v)), (op, u, v)
        assert signs == {-1, 0, 1}, d


def test_ordering_across_fields_raises_field_mismatch():
    r2, r3 = Scalar.sqrt_int(2), Scalar.sqrt_int(3)
    for op in ORDERS:
        for x, y in ((r2, r3), (r3 + 1, r2), (Scalar(0, 1, 999983), r2)):
            with pytest.raises(FieldMismatch):
                op(x, y)


def test_ordering_against_a_non_number_is_a_type_error():
    for x in (Scalar(1), Scalar.sqrt_int(2)):
        for other in ("x", None):
            for op in ORDERS:
                with pytest.raises(TypeError):
                    op(x, other)
                with pytest.raises(TypeError):
                    op(other, x)


def test_comparing_two_scalars_builds_no_scalar(monkeypatch):
    r2 = Scalar.sqrt_int(2)
    pairs = [(Scalar(1), Scalar(Fraction(1, 2))), (Scalar(3), Scalar(3)),
             (r2, Scalar(Fraction(1393, 985))), (r2, r2 + 1), (r2, r2),
             (Scalar(0, 1, 999983), Scalar(1000)), (Scalar(-2), -r2)]
    built = []
    init = Scalar.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Scalar, "__init__", counted)
    for x, y in pairs:
        for op in ORDERS:
            op(x, y)
    assert built == []
    # the patch does count: an int operand is coerced once
    assert Scalar(1) < 2 and len(built) == 2


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Scalar(0).inverse()


def test_parse_scalar():
    assert parse_scalar("7/5") == Scalar(Fraction(7, 5))
    assert parse_scalar("sqrt(2)") == Scalar.sqrt_int(2)
    assert parse_scalar("1+sqrt(2)") == Scalar(1, 1, 2)
    assert parse_scalar("3/2*sqrt(5)-1") == Scalar(-1, Fraction(3, 2), 5)
    assert parse_scalar("-2") == Scalar(-2)
    assert parse_scalar("2*(1+sqrt(3))") == Scalar(2, 2, 3)
    with pytest.raises(InputError):
        parse_scalar("1.5")
    with pytest.raises(InputError):
        parse_scalar("sqrt(2)+")


def test_parse_scalar_grammar_and_messages():
    assert parse_scalar(" - -(1+ sqrt(8))*2/3 - 1/2*sqrt(2) ") == \
        Scalar(Fraction(2, 3), Fraction(5, 6), 2)
    assert parse_scalar("-+-3") == Scalar(3)
    assert parse_scalar("((2))*((sqrt(3)))") == Scalar(0, 2, 3)
    for text, message in (
            ("1.5", "bad scalar literal at '.5'"),
            ("sqrt(2)+", "bad token '$' in scalar literal 'sqrt(2)+'"),
            ("(1", "expected ')', found '$' in '(1'"),
            ("1 2", "trailing tokens in scalar literal '1 2'"),
            ("", "bad token '$' in scalar literal ''"),
            ("3/0", "zero denominator in scalar literal '3/0'"),
            ("*2", "bad token '*' in scalar literal '*2'")):
        with pytest.raises(InputError) as e:
            parse_scalar(text)
        assert str(e.value) == message


def test_parse_scalar_bounds_parenthesis_nesting():
    assert parse_scalar("(" * NESTING_LIMIT + "2" + ")" * NESTING_LIMIT) == 2
    for depth in (NESTING_LIMIT + 1, 5000):
        with pytest.raises(InputError):
            parse_scalar("(" * depth + "2" + ")" * depth)


def test_json_roundtrip():
    vals = [Scalar(Fraction(-3, 7)), Scalar(1, Fraction(2, 5), 3), Scalar(0)]
    for v in vals:
        assert Scalar.from_json(v.to_json()) == v
    assert Scalar.from_json("5/3") == Scalar(Fraction(5, 3))
    assert Scalar.from_json(4) == Scalar(4)
    assert Scalar.from_json({"a": "-2/6", "b": 1, "d": 8}) == \
        Scalar(Fraction(-1, 3), 2, 2)


@pytest.mark.parametrize("obj", [
    "0.1", 0.1, "1e3", 1e3, True, None, "", "1/", "/2", " 1", "+1", "1_0",
    "1/0", "sqrt(2)", [1], {"a": "0.1"}, {"a": 0.1}, {"a": "1", "b": "1e3"},
    {"a": "1", "b": "1", "d": 2.0}, {"a": "1", "b": "1", "d": True},
    {"a": "1", "b": "1", "d": -2}, {"b": "1", "d": 2}])
def test_from_json_accepts_only_ints_and_fraction_strings(obj):
    with pytest.raises(InputError):
        Scalar.from_json(obj)


def test_rational_literal():
    assert rational_literal(-3) == Fraction(-3)
    assert rational_literal("-10/4") == Fraction(-5, 2)
    assert rational_literal("0") == 0
    for bad in (False, 2.0, "2.0", "2e0", "1/0", "x", None):
        with pytest.raises(InputError):
            rational_literal(bad)


small = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@given(small, small, small, small)
def test_field_axioms(a, b, c, d):
    x = Scalar(a, b, 2)
    y = Scalar(c, d, 2)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + Scalar(1)) == x * y + x
    if not y.is_zero():
        assert (x / y) * y == x


@given(small, small)
def test_floor_brackets(a, b):
    x = Scalar(a, b, 3)
    n = x.floor()
    assert Scalar(n) <= x < Scalar(n + 1)
