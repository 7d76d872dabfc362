"""f/h/g-vector calculus for simplicial polytopes: the h-vector transform,
Dehn-Sommerville palindromicity, the Macaulay shadow operator, M-vector
recognition, and the combined g-theorem necessity check."""

from __future__ import annotations

from math import comb

from .errors import InputError, LengthMismatch, _integer


def h_from_f(f, d: int):
    """The h-vector (h_0, ..., h_d), the coefficients of sum_i f_{i-1}
    (x-1)^{d-i} from x^d down, where the input lists (f_{-1}, f_0, ...,
    f_{d-1}) and f_{-1} = 1.  Horner's rule in (x-1): O(d^2) additions."""
    if _integer("d", d) < 0:
        raise InputError(f"d must be >= 0, got {d}")
    f = list(f)
    if len(f) != d + 1:
        raise LengthMismatch(f"need f_(-1)..f_({d - 1}), got {len(f)} entries")
    if f[0] != 1:
        raise LengthMismatch("f_(-1) must be 1")
    h = []
    for fi in f:
        # h(x) <- h(x) (x-1) + f_{i-1}
        h = [a - b for a, b in zip(h + [0], [0] + h)]
        h[-1] += fi
    return h


def check_dehn_sommerville(h) -> bool:
    h = list(h)
    return h == h[::-1]


def _binomial_decomposition(l: int, i: int):
    """Unique expansion l = C(n_i, i) + C(n_{i-1}, i-1) + ... with
    n_i > n_{i-1} > ... >= j >= 1."""
    parts = []
    rest = l
    k = i
    while rest > 0 and k >= 1:
        # the largest n with C(n, k) <= rest, by doubling then bisection
        lo, hi = k, 2 * k
        while comb(hi, k) <= rest:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if comb(mid, k) <= rest else (lo, mid)
        parts.append((lo, k))
        rest -= comb(lo, k)
        k -= 1
    return parts


def shadow(l: int, i: int) -> int:
    """Macaulay shift l^<i> = C(n_i + 1, i + 1) + C(n_{i-1} + 1, i) + ...
    applied to the decreasing binomial expansion of l at level i."""
    if l <= 0 or i <= 0:
        return 0
    return sum(comb(n + 1, k + 1) for n, k in _binomial_decomposition(l, i))


def is_m_vector(l) -> bool:
    """l_0 = 1 and 0 <= l_{i+1} <= l_i^<i> for i >= 1."""
    l = list(l)
    if not l or l[0] != 1:
        return False
    if any(x < 0 for x in l):
        return False
    for i in range(1, len(l) - 1):
        if l[i + 1] > shadow(l[i], i):
            return False
    return True


def g_from_h(h):
    d = len(h) - 1
    return [h[0]] + [h[i] - h[i - 1] for i in range(1, d // 2 + 1)]


def g_theorem_necessity(f, d: int) -> dict:
    """The three necessary conditions for f to be the f-vector of a
    simplicial d-polytope: Dehn-Sommerville, h_0 = 1, and g an M-vector."""
    h = h_from_f(f, d)
    ds = check_dehn_sommerville(h)
    h0 = h[0] == 1
    g = g_from_h(h)
    mv = is_m_vector(g)
    return {"h": h, "g": g, "ds": ds, "h0": h0, "m_vector": mv,
            "pass": ds and h0 and mv}
