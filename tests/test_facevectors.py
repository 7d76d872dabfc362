import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from nctoric.errors import InputError, LengthMismatch
from nctoric.facevectors import (_binomial_decomposition,
                                 check_dehn_sommerville, g_from_h,
                                 g_theorem_necessity, h_from_f, is_m_vector,
                                 shadow)


def h_from_f_oracle(f, d: int):
    """The binomial sum h_i = sum_j C(d-j, d-i) (-1)^{i-j} f_{j-1}."""
    return [sum(comb(d - j, d - i) * (-1) ** (i - j) * f[j]
                for j in range(i + 1))
            for i in range(d + 1)]


def f_from_h(h, d: int):
    """Inverse of h_from_f: f_{i-1} = sum_j C(d-j, d-i) h_j."""
    if len(h) != d + 1:
        raise LengthMismatch(f"need h_0..h_{d}, got {len(h)} entries")
    return [sum(comb(d - j, d - i) * h[j] for j in range(i + 1))
            for i in range(d + 1)]


def test_h_from_f_known():
    assert h_from_f([1, 6, 12, 8], 3) == [1, 3, 3, 1]
    assert h_from_f([1, 3, 3], 2) == [1, 1, 1]
    for d in range(1, 6):
        fs = [1] + [comb(d + 1, i + 1) for i in range(d)]
        assert h_from_f(fs, d) == [1] * (d + 1)
    with pytest.raises(LengthMismatch):
        h_from_f([1, 6, 12], 3)
    with pytest.raises(LengthMismatch):
        h_from_f([2, 6, 12, 8], 3)
    # d is a non-negative int; a negative d is bad input, not a length
    # mismatch, whatever f is
    assert h_from_f([1], 0) == [1]
    for f, d in (([1, 2], -1), ([], -1), ([1, 2], 1.0), ([1, 2], True)):
        with pytest.raises(InputError):
            h_from_f(f, d)


def test_h_from_f_against_the_binomial_sum():
    rng = random.Random(1600)
    for _ in range(3000):
        d = rng.randint(0, 30)
        top = 10 ** rng.choice((2, 10, 40))
        f = [1] + [rng.randint(-top, top) for _ in range(d)]
        assert h_from_f(f, d) == h_from_f_oracle(f, d), (f, d)
    for d in (200, 400):
        f = [comb(d + 1, i) for i in range(d + 1)]
        assert h_from_f(f, d) == h_from_f_oracle(f, d) == [1] * (d + 1)


def test_f_h_roundtrip():
    for f, d in [([1, 6, 12, 8], 3), ([1, 3, 3], 2), ([1, 7, 21, 28, 14], 4)]:
        assert f_from_h(h_from_f(f, d), d) == f


def test_dehn_sommerville():
    assert check_dehn_sommerville([1, 3, 3, 1])
    assert not check_dehn_sommerville([1, 2, 3])
    assert check_dehn_sommerville([1])


def test_shadow():
    assert shadow(3, 1) == 6        # 3 = C(3,1) -> C(4,2)
    assert shadow(1, 5) == 1
    assert shadow(4, 2) == 5        # C(3,2)+C(1,1) -> C(4,3)+C(2,2)
    assert shadow(2, 1) == 3
    assert shadow(10, 3) == 15      # C(5,3) -> C(6,4)


def shadow_oracle(l, i):
    """Brute-force Macaulay bound: count degree-(i+1) monomials whose full
    divided-by-one-variable shadow lies inside the l lex-smallest monomials
    of degree i (the segment that realizes the maximum), in a polynomial
    ring with enough variables."""
    nvars = l + i + 1

    def monomials(d):
        out = []

        def rec(prefix, start, left):
            if left == 0:
                out.append(tuple(prefix))
                return
            for v in range(start, nvars):
                rec(prefix + [v], v, left - 1)

        rec([], 0, d)
        return out

    # a monomial (v_1 <= ... <= v_d) is lex-smaller when its exponent vector
    # favors later variables; reversing the generation order gives lex-min
    # first, so the extremal segment is the last l in generation order
    lower = monomials(i)
    seg = set(lower[len(lower) - l:])
    count = 0
    for m in monomials(i + 1):
        sub = {m[:j] + m[j + 1:] for j in range(i + 1)}
        if sub <= seg:
            count += 1
    return count


def linear_decomposition(l, i):
    """Oracle: the binomial expansion of l at level i, scanning n upward."""
    parts = []
    rest, k = l, i
    while rest > 0 and k >= 1:
        n = k
        while comb(n + 1, k) <= rest:
            n += 1
        parts.append((n, k))
        rest -= comb(n, k)
        k -= 1
    return parts


def test_binomial_decomposition_against_linear_scan():
    for i in range(1, 7):
        for l in range(1, 2001):
            assert _binomial_decomposition(l, i) == linear_decomposition(l, i)


def test_shadow_against_monomial_oracle():
    for i in (1, 2, 3):
        for l in range(1, 9):
            assert shadow(l, i) == shadow_oracle(l, i), (l, i)


def test_is_m_vector():
    assert is_m_vector([1, 2])
    assert not is_m_vector([1, 2, 4])
    assert is_m_vector([1, 3, 6, 10])
    assert is_m_vector([1])
    assert not is_m_vector([2, 1])
    assert not is_m_vector([1, -1])
    assert is_m_vector([1, 2, 3])
    assert not is_m_vector([1, 1, 2])  # shadow of 1 at level 1 is 1


def cyclic_polytope_f_vector(d, n):
    """Brute force over rationals: points on the moment curve, facets by
    exact hyperplane side tests, faces as subsets of facet vertex sets."""
    pts = [[Fraction(t) ** k for k in range(1, d + 1)] for t in range(1, n + 1)]

    def hyperplane(subset):
        # solve <a, x> = b through the d chosen points, via a determinant
        # expansion: coefficients are cofactors of the augmented matrix
        rows = [pts[i] + [Fraction(1)] for i in subset]
        coeffs = []
        for col in range(d + 1):
            minor = [[r[c] for c in range(d + 1) if c != col] for r in rows]
            coeffs.append((-1) ** col * _det(minor))
        a, b = coeffs[:d], -coeffs[d]
        return a, b

    facets = []
    for subset in combinations(range(n), d):
        a, b = hyperplane(subset)
        signs = {(_dot(a, pts[i]) - b > 0) - (_dot(a, pts[i]) - b < 0)
                 for i in range(n) if i not in subset}
        if len(signs) == 1 and 0 not in signs:
            facets.append(frozenset(subset))
    faces = set()
    for F in facets:
        for k in range(1, d + 1):
            faces.update(map(frozenset, combinations(sorted(F), k)))
    f = [1] + [sum(1 for F in faces if len(F) == k) for k in range(1, d + 1)]
    f[d] = len(facets)
    return f


def _det(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1) ** j * M[0][j] * _det(minor)
    return total


def _dot(a, x):
    return sum(p * q for p, q in zip(a, x))


def test_cyclic_polytope_oracle():
    f = cyclic_polytope_f_vector(4, 7)
    assert f == [1, 7, 21, 28, 14]


def test_g_theorem_necessity():
    res = g_theorem_necessity([1, 6, 12, 8], 3)
    assert res["h"] == [1, 3, 3, 1] and res["g"] == [1, 2] and res["pass"]
    res = g_theorem_necessity([1, 6, 12, 7], 3)
    assert res["h"] == [1, 3, 3, 0] and not res["ds"] and not res["pass"]
    f = cyclic_polytope_f_vector(4, 7)
    res = g_theorem_necessity(f, 4)
    assert res["h"] == [1, 3, 6, 3, 1] and res["g"] == [1, 2, 3] and res["pass"]


def test_h_sum_and_top_on_real_polytopes():
    cases = [([1, 6, 12, 8], 3), ([1, 3, 3], 2), ([1, 4, 4], 2),
             ([1, 5, 5], 2), (cyclic_polytope_f_vector(4, 7), 4),
             (cyclic_polytope_f_vector(4, 8), 4),
             (cyclic_polytope_f_vector(3, 6), 3)]
    for f, d in cases:
        h = h_from_f(f, d)
        assert sum(h) == f[d]
        assert h[d] == 1
        assert g_theorem_necessity(f, d)["pass"]


def test_g_from_h():
    assert g_from_h([1, 3, 3, 1]) == [1, 2]
    assert g_from_h([1, 3, 6, 3, 1]) == [1, 2, 3]
