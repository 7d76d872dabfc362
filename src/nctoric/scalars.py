"""Exact scalars: rationals and elements of a real quadratic field Q(sqrt(d)).

A Scalar is a + b*sqrt(d) with a, b rational and d a square-free
non-negative integer.  d == 0 encodes a plain rational (b is forced to 0).
Two scalars from distinct irrational fields never interoperate; mixing
them raises FieldMismatch.  All comparisons are decided exactly from the
signs of a, b and a^2 - b^2 d, never through floating point.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cmp_to_key

from .errors import DivisionByZero, FieldMismatch, InputError, OutOfRange

#: largest radicand accepted: squarefree_split factors by trial division
RADICAND_LIMIT = 10**6


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n = s^2 * d with d square-free; return (s, d).  Radicands above
    RADICAND_LIMIT raise InputError."""
    if n < 0:
        raise ValueError("negative radicand")
    if n > RADICAND_LIMIT:
        raise InputError(f"radicand {n} exceeds the limit {RADICAND_LIMIT}")
    if n in (0, 1):
        return (1, n)
    s, d, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            d *= p
        p += 1 if p == 2 else 2
    return (s, d * n)


def _pair_sign(x, y, d: int) -> int:
    """Exact sign of x + y sqrt(d) for rationals x, y and d = 0 or
    square-free: with x and y of opposite signs, |x| and |y| sqrt(d) are
    compared through x^2 and y^2 d, which are never equal for y != 0."""
    sx = (x > 0) - (x < 0)
    if y == 0:
        return sx
    sy = 1 if y > 0 else -1
    return sy if sx != -sy or y * y * d > x * x else sx


_ZERO = Fraction(0)


class Scalar:
    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=None, d=None):
        if b is None and d is None:
            # a rational from one Fraction, reused when given one
            self.a = a if type(a) is Fraction else Fraction(a)
            self.b, self.d = _ZERO, 0
            return
        a = Fraction(a)
        b = Fraction(0 if b is None else b)
        d = int(0 if d is None else d)
        if d < 0:
            raise ValueError("d must be non-negative")
        if d in (0, 1):
            a += b * d  # sqrt(0)=0, sqrt(1)=1
            b = Fraction(0)
            d = 0
        elif b == 0:
            d = 0
        else:
            s, d0 = squarefree_split(d)
            if d0 in (0, 1):
                a += b * s * d0
                b = Fraction(0)
                d = 0
            else:
                b *= s
                d = d0
        self.a, self.b, self.d = a, b, d

    @staticmethod
    def sqrt_int(n: int) -> "Scalar":
        """Exact sqrt of a non-negative integer."""
        s, d = squarefree_split(int(n))
        if d in (0, 1):
            return Scalar(s * d)
        return Scalar(0, s, d)

    @property
    def is_rational(self) -> bool:
        return self.d == 0

    def _join(self, other: "Scalar") -> int:
        """Common field discriminant, or raise FieldMismatch."""
        if self.d == 0:
            return other.d
        if other.d == 0 or other.d == self.d:
            return self.d
        raise FieldMismatch(f"cannot mix Q(sqrt({self.d})) and Q(sqrt({other.d}))")

    @staticmethod
    def _coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        return Scalar(x)

    def __add__(self, other):
        o = Scalar._coerce(other)
        d = self._join(o)
        return Scalar(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-Scalar._coerce(other))

    def __rsub__(self, other):
        return Scalar._coerce(other) + (-self)

    def __mul__(self, other):
        o = Scalar._coerce(other)
        d = self._join(o)
        return Scalar(self.a * o.a + self.b * o.b * d, self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        n = self.a * self.a - self.b * self.b * self.d
        return Scalar(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        return self * Scalar._coerce(other).inverse()

    def __rtruediv__(self, other):
        return Scalar._coerce(other) * self.inverse()

    def __floordiv__(self, other) -> int:
        """Exact floor of the quotient, an int, as for ints and Fractions."""
        return (self / other).floor()

    def conjugate(self) -> "Scalar":
        """Galois conjugate a + b sqrt(d) -> a - b sqrt(d)."""
        return Scalar(self.a, -self.b, self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Exact sign of the real number a + b sqrt(d)."""
        return _pair_sign(self.a, self.b, self.d)

    def __eq__(self, other):
        try:
            o = Scalar._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        # a rational Scalar equals its Fraction, so it hashes like one
        return hash((self.a, self.b, self.d)) if self.d else hash(self.a)

    def _order(self, other):
        """Sign of self - other without building a Scalar for it: the
        Fractions compared over Q, else _pair_sign of the differences of
        the parts.  None when other is no number."""
        try:
            o = Scalar._coerce(other)
        except (TypeError, ValueError):
            return None
        d = self._join(o)
        if not d:
            return (self.a > o.a) - (self.a < o.a)
        return _pair_sign(self.a - o.a, self.b - o.b, d)

    def __lt__(self, other):
        s = self._order(other)
        return NotImplemented if s is None else s < 0

    def __le__(self, other):
        s = self._order(other)
        return NotImplemented if s is None else s <= 0

    def __gt__(self, other):
        s = self._order(other)
        return NotImplemented if s is None else s > 0

    def __ge__(self, other):
        s = self._order(other)
        return NotImplemented if s is None else s >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def floor(self) -> int:
        """Exact floor, from integer square roots (Cohen, GTM 138, 5.7)."""
        a, b = self.a, self.b
        if b == 0:
            return a.numerator // a.denominator
        # self = (A + B sqrt(d)) / C with C > 0.  B sqrt(d) is irrational,
        # so its floor is isqrt(B^2 d) for B > 0 and -isqrt(B^2 d) - 1 for
        # B < 0, and floor((A + y) / C) = (A + floor(y)) // C for integer A
        C = a.denominator * b.denominator
        A = a.numerator * b.denominator
        B = b.numerator * a.denominator
        r = math.isqrt(B * B * self.d)
        return (A + (r if B > 0 else -r - 1)) // C

    def ceil(self) -> int:
        n = self.floor()
        # an irrational is never an integer
        return n if self.b == 0 and n == self.a else n + 1

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        bt = f"{self.b}*sqrt({self.d})"
        if self.a == 0:
            return bt
        sign = "+" if self.b > 0 else "-"
        babs = abs(self.b)
        bt = f"sqrt({self.d})" if babs == 1 else f"{babs}*sqrt({self.d})"
        return f"{self.a}{sign}{bt}"

    # -- JSON wire format: {"a": "p/q", "b": "r/s", "d": n} --

    def to_json(self) -> dict:
        try:
            return {"a": str(self.a), "b": str(self.b), "d": self.d}
        except ValueError as e:  # a part past the int-to-text digit limit
            raise OutOfRange.digits() from e

    @staticmethod
    def from_json(obj) -> "Scalar":
        if not isinstance(obj, dict):
            return Scalar(rational_literal(obj))
        d = obj.get("d", 0)
        if "a" not in obj or type(d) is not int or d < 0:
            raise InputError(f"not a scalar: {obj!r}")
        return Scalar(rational_literal(obj["a"]),
                      rational_literal(obj.get("b", 0)), d)


_RATIONAL = re.compile(r"-?\d+(/\d+)?")


def rational_literal(x) -> Fraction:
    """The exact rational of a JSON value: an int (not a bool) or a "p" or
    "p/q" string.  Anything else, including floats and decimal or exponent
    strings, which would bring in a rounded value, raises InputError, as
    does a zero denominator."""
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"not an exact rational: {x!r}") from e
    raise InputError(f"not an exact rational (an int or a \"p/q\" string): "
                     f"{x!r}")


_TOKEN = re.compile(r"\s*(sqrt\(\d+\)|\d+/\d+|\d+|[+\-*()])")
#: deepest parenthesis nesting in a scalar literal; each level costs the
#: parser three stack frames
NESTING_LIMIT = 100


class _LiteralParser:
    """Recursive descent over the tokens of one scalar literal, with the
    cursor held in `pos` and the parenthesis nesting in `depth`."""

    __slots__ = ("text", "tokens", "pos", "depth")

    def __init__(self, text: str):
        tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise InputError(f"bad scalar literal at {text[pos:]!r}")
                break
            tokens.append(m.group(1))
            pos = m.end()
        tokens.append("$")
        self.text, self.tokens, self.pos, self.depth = text, tokens, 0, 0

    def peek(self) -> str:
        return self.tokens[self.pos]

    def eat(self, tok=None) -> str:
        t = self.tokens[self.pos]
        if tok is not None and t != tok:
            raise InputError(f"expected {tok!r}, found {t!r} in {self.text!r}")
        self.pos += 1
        return t

    def atom(self) -> Scalar:
        t = self.peek()
        if t == "(":
            if self.depth == NESTING_LIMIT:
                raise InputError(f"parentheses nested deeper than "
                                 f"{NESTING_LIMIT} in scalar literal")
            self.eat()
            self.depth += 1
            v = self.expr()
            self.depth -= 1
            self.eat(")")
            return v
        if t.startswith("sqrt("):
            self.eat()
            return Scalar.sqrt_int(self.number(t[5:-1]).numerator)
        if t[0].isdigit():
            self.eat()
            return Scalar(self.number(t))
        raise InputError(f"bad token {t!r} in scalar literal {self.text!r}")

    def number(self, token: str) -> Fraction:
        """The rational of a "p" or "p/q" token (rational_literal): a zero
        denominator or digits past the int limit raise InputError."""
        if "/" in token and not token.partition("/")[2].strip("0"):
            raise InputError(
                f"zero denominator in scalar literal {self.text!r}")
        return rational_literal(token)

    def term(self) -> Scalar:
        v = self.atom()
        while self.peek() == "*":
            self.eat()
            v = v * self.atom()
        return v

    def expr(self) -> Scalar:
        neg = False
        while self.peek() in ("+", "-"):
            if self.eat() == "-":
                neg = not neg
        v = self.term()
        if neg:
            v = -v
        while self.peek() in ("+", "-"):
            op = self.eat()
            w = self.term()
            v = v - w if op == "-" else v + w
        return v


def parse_scalar(text: str) -> Scalar:
    """Parse the exact-literal grammar: p/q, sqrt(d), and +,-,* combinations.

    Decimal literals are rejected on purpose; parenthesized subexpressions
    are allowed.  Examples: "7/5", "sqrt(2)", "1+sqrt(2)", "3/2*sqrt(5)-1".
    """
    parser = _LiteralParser(text)
    v = parser.expr()
    if parser.peek() != "$":
        raise InputError(f"trailing tokens in scalar literal {text!r}")
    return v


def common_field(values) -> int:
    """Discriminant shared by an iterable of Scalars (FieldMismatch if mixed)."""
    d = 0
    for v in values:
        if v.d != 0:
            if d == 0:
                d = v.d
            elif d != v.d:
                raise FieldMismatch(f"mixed fields sqrt({d}) and sqrt({v.d})")
    return d


def sorted_vectors(vectors) -> list:
    """Vectors of Scalars, all of one length, in exact lexicographic order.
    The entries must share one field (FieldMismatch otherwise), so any two
    compare: rational vectors through their Fractions, irrational ones by
    the sign of the first nonzero entrywise difference, read off the
    differences of the rational and sqrt(d) parts without a Scalar."""
    vectors = list(vectors)
    d = common_field(x for v in vectors for x in v)
    if d == 0:
        return sorted(vectors, key=lambda v: [x.a for x in v])

    def cmp(u, v):
        return next((s for s in (_pair_sign(x.a - y.a, x.b - y.b, d)
                                 for x, y in zip(u, v)) if s), 0)

    return sorted(vectors, key=cmp_to_key(cmp))
