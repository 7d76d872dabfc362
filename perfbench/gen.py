"""Seeded input generators and independent oracles for the benchmark.

Nothing here imports nctoric: inputs are plain ints, Fractions and tuples,
so set-up time does not depend on the library's speed, and the oracles used
by the correctness gate share no code with the library they check.

A quadratic number a + b*sqrt(d) is a tuple (a, b, d) of two Fractions and
a non-negative int; d == 0 means the number is rational.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, gcd, isqrt

# -- exact arithmetic in Q(sqrt(d)) -------------------------------------------


def q_sign(x) -> int:
    a, b, d = x
    if b == 0 or d == 0:
        return (a > 0) - (a < 0)
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == 0 or sa == sb:
        return sb
    n = a * a - b * b * d
    return 0 if n == 0 else (sa if n > 0 else sb)


def q_add(x, y):
    return (x[0] + y[0], x[1] + y[1], x[2] or y[2])


def q_sub(x, y):
    return (x[0] - y[0], x[1] - y[1], x[2] or y[2])


def q_mul(x, y):
    d = x[2] or y[2]
    return (x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0], d)


def q_div(x, y):
    d = x[2] or y[2]
    n = y[0] * y[0] - y[1] * y[1] * d
    return q_mul(x, (y[0] / n, -y[1] / n, d))


def q_int(n):
    return (Fraction(n), Fraction(0), 0)


def cross2(p, q):
    return q_sub(q_mul(p[0], q[1]), q_mul(p[1], q[0]))


def dot2(p, q):
    return q_add(q_mul(p[0], q[0]), q_mul(p[1], q[1]))


# -- quadratic irrationals (P + sqrt(D)) / Q by the integer recurrence --------


def qi_normalize(P: int, D: int, Q: int):
    """Rescale so that Q divides D - P^2, as the recurrences below need."""
    if (D - P * P) % Q:
        P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
    return P, D, Q


def qi_floor(P, D, Q) -> int:
    r = isqrt(D)
    return (P + r) // Q if Q > 0 else (P + r + 1) // Q


def qi_value(P, D, Q):
    """(P + sqrt(D)) / Q as (a, b, D); D is left as given (not square-free)."""
    return (Fraction(P, Q), Fraction(1, Q), D)


def qi_from_value(x):
    """(P, D, Q) with x = (P + sqrt(D)) / Q, for an irrational x = (a, b, d)."""
    a, b, d = x
    C = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
    A, B = int(a * C), int(b * C)
    return (A, B * B * d, C) if B > 0 else (-A, B * B * d, -C)


def cf_regular(P, D, Q):
    """Regular continued fraction: (preperiod, period) of digits, found by
    repetition of the complete quotient (P, Q)."""
    P, D, Q = qi_normalize(P, D, Q)
    seen, digits = {(P, Q): 0}, []
    while True:
        a = qi_floor(P, D, Q)
        digits.append(a)
        R = a * Q - P
        P, Q = R, (D - R * R) // Q
        if (P, Q) in seen:
            k = seen[(P, Q)]
            return tuple(digits[:k]), tuple(digits[k:])
        seen[(P, Q)] = len(digits)


def cf_descending(P, D, Q):
    """Hirzebruch-Jung (ceiling) expansion x -> 1/(ceil(x) - x) of an
    irrational x > 1: (preperiod, period)."""
    P, D, Q = qi_normalize(P, D, Q)
    seen, digits = {(P, Q): 0}, []
    while True:
        a = qi_floor(P, D, Q) + 1
        digits.append(a)
        R = a * Q - P
        P, Q = R, (R * R - D) // Q
        if (P, Q) in seen:
            k = seen[(P, Q)]
            return tuple(digits[:k]), tuple(digits[k:])
        seen[(P, Q)] = len(digits)


def hj_digits(m: int, k: int):
    """Descending continued fraction of the rational m/k > 1."""
    out = []
    while True:
        a = -(-m // k)
        out.append(a)
        m, k = k, a * k - m
        if k == 0:
            return out


@functools.lru_cache(maxsize=None)
def hj_pairs(shortest: int, longest: int, m_max: int = 200):
    """Coprime (m, k), 1 <= k < m <= m_max, whose descending continued
    fraction has between `shortest` and `longest` digits."""
    return [(m, k) for m in range(2, m_max + 1) for k in range(1, m)
            if gcd(m, k) == 1 and shortest <= len(hj_digits(m, k)) <= longest]


def mobius(W, x):
    (a, b), (c, d) = W
    return q_div(q_add(q_mul(q_int(a), x), q_int(b)),
                 q_add(q_mul(q_int(c), x), q_int(d)))


def random_sl2(rng, bound=5):
    while True:
        a, b, c, d = (rng.randint(-bound, bound) for _ in range(4))
        if a * d - b * c == 1:
            return ((a, b), (c, d))


def random_quadratic(rng, band):
    """(P, D, Q) with D non-square in [2, 10^4] and the regular period
    length inside band = (lo, hi)."""
    lo, hi = band
    while True:
        D = rng.randint(2, 10_000)
        if isqrt(D) ** 2 == D:
            continue
        P = rng.randint(-9, 9)
        n = D - P * P
        divisors = [q for q in range(1, min(abs(n), 40) + 1) if n % q == 0]
        Q = rng.choice(divisors) * rng.choice((1, -1))
        if lo <= len(cf_regular(P, D, Q)[1]) <= hi:
            return P, D, Q


# -- 2D lattice geometry ------------------------------------------------------


def det2(u, w) -> int:
    return u[0] * w[1] - u[1] * w[0]


def primitive(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return tuple(x // g for x in v)


def _half(v):
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def angle_sorted(vectors):
    """Sort integer 2D vectors counter-clockwise by exact angle from +x."""
    def cmp(u, w):
        hu, hw = _half(u), _half(w)
        if hu != hw:
            return hu - hw
        c = det2(u, w)
        return -1 if c > 0 else (1 if c < 0 else 0)

    return sorted(vectors, key=functools.cmp_to_key(cmp))


def check_hilbert_basis_2d(basis, d1, d2) -> bool:
    """The Hilbert basis of cone(d1, d2) in Z^2 is the chain u_0 = d1', ...,
    u_r = d2' (primitive rays) with det(u_i, u_{i+1}) = 1 and
    u_{i-1} + u_{i+1} = a_i u_i, a_i >= 2 (Hirzebruch-Jung)."""
    d1, d2 = primitive(d1), primitive(d2)
    if det2(d1, d2) < 0:
        d1, d2 = d2, d1
    chain = [tuple(v) for v in basis]
    chain = sorted(chain, key=lambda v: Fraction(det2(d1, v), det2(v, d2))
                   if det2(v, d2) else Fraction(10 ** 12))
    if len(set(chain)) != len(chain) or chain[0] != d1 or chain[-1] != d2:
        return False
    for u, w in zip(chain, chain[1:]):
        if det2(u, w) != 1:
            return False
    for p, u, w in zip(chain, chain[1:], chain[2:]):
        s = (p[0] + w[0], p[1] + w[1])
        j = 0 if u[0] else 1
        if s[j] % u[j]:
            return False
        a = s[j] // u[j]
        if a < 2 or s != (a * u[0], a * u[1]):
            return False
    return True


def dual_scan_misses(u, w) -> bool:
    """True when fan.dual_cone_2d would miss Hilbert basis elements of the
    dual of cone(u, w): it scans the box around 0 and d1 + d2 widened by
    |det|, and a thin parallelogram can leave a dual ray d1 or d2 outside."""
    if det2(u, w) < 0:
        u, w = w, u
    d1, d2 = (-u[1], u[0]), (w[1], -w[0])
    span = abs(det2(d1, d2))
    for k in (0, 1):
        lo, hi = min(0, d1[k] + d2[k]) - span, max(0, d1[k] + d2[k]) + span
        if not (lo <= d1[k] <= hi and lo <= d2[k] <= hi):
            return True
    return False


@functools.lru_cache(maxsize=None)
def _directions(bound):
    """Primitive vectors of the box [-bound, bound]^2 in angular order."""
    return angle_sorted({primitive((x, y)) for x in range(-bound, bound + 1)
                         for y in range(-bound, bound + 1) if (x, y) != (0, 0)})


def cone_with_det(rng, det):
    """Primitive u, w in Z^2 with det(u, w) = det: w = det * b + s * u for a
    Bezout partner b of u, with the shift s near the one that makes w
    shortest, so the cost depends on det rather than on the shape."""
    while True:
        u = primitive((rng.randint(-6, 6), rng.randint(1, 6)))
        x, y = _bezout(u[0], u[1])          # x u0 + y u1 = 1
        b = (-y, x)                         # det(u, b) = 1
        n = u[0] * u[0] + u[1] * u[1]
        s = (-det * (b[0] * u[0] + b[1] * u[1]) + n // 2) // n + rng.randint(-2, 2)
        w = (det * b[0] + s * u[0], det * b[1] + s * u[1])
        if primitive(w) == w:
            return u, w


def _bezout(p, q):
    old_r, r, old_s, s, old_t, t = p, q, 1, 0, 0, 1
    while r:
        k = old_r // r
        old_r, r = r, old_r - k * r
        old_s, s = s, old_s - k * s
        old_t, t = t, old_t - k * t
    return (old_s, old_t) if old_r > 0 else (-old_s, -old_t)


def lattice_polygon(rng, N: int, bound: int = 9, radius: int = 40):
    """Facets (normal, offset) of a lattice polygon with exactly N edges:
    primitive inward normals in angular order and offsets -|radius * u|, so
    every edge has positive length and no three lines meet.  Returns
    (facets, vertices) with vertices exact."""
    while True:
        # one direction from each of N equal runs of the angularly sorted
        # primitive vectors, so every polygon of a size costs alike
        dirs = _directions(bound)
        cut = [len(dirs) * i // N for i in range(N + 1)]
        pool = {rng.choice(dirs[cut[i]:cut[i + 1]]) for i in range(N)}
        normals = angle_sorted(pool)
        if any(det2(u, w) <= 0 for u, w in zip(normals, normals[1:] + normals[:1])):
            continue
        offs = [-isqrt(radius * radius * (u[0] ** 2 + u[1] ** 2)) for u in normals]
        verts, ok = [], True
        for i in range(N):
            u, w = normals[i], normals[(i + 1) % N]
            c, e = offs[i], offs[(i + 1) % N]
            dt = det2(u, w)
            v = (Fraction(c * w[1] - e * u[1], dt), Fraction(u[0] * e - w[0] * c, dt))
            for j in range(N):
                if j not in (i, (i + 1) % N) and \
                        normals[j][0] * v[0] + normals[j][1] * v[1] <= offs[j]:
                    ok = False
                    break
            if not ok:
                break
            verts.append(v)
        if ok:
            return [(list(u), c) for u, c in zip(normals, offs)], verts


def polygon_is_integral(facets) -> bool:
    normals = [f[0] for f in facets]
    return all(abs(det2(u, w)) == 1 for u, w in zip(normals, normals[1:] + normals[:1]))


# -- f-vectors ------------------------------------------------------------------


def h_vector(f, d):
    return [sum(comb(d - j, d - i) * (-1) ** (i - j) * f[j] for j in range(i + 1))
            for i in range(d + 1)]


def cube_f(d):
    return [1] + [comb(d, k) * 2 ** k for k in range(1, d + 1)]


def simplex_f(d):
    return [comb(d + 1, k) for k in range(d + 1)]


def prism_f(N):
    return [1, N + 2, 3 * N, 2 * N]


def polygon_strata(N):
    return {frozenset((i, j)) for i in range(N) for j in range(i + 2, N)
            if not (i == 0 and j == N - 1)}


def prism_strata(N):
    side = polygon_strata(N) if N > 3 else {frozenset(range(3))}
    return side | {frozenset((N, N + 1))}


# -- LVM configurations (m = 1) ----------------------------------------------


def lvm_flags(points):
    """(siegel, weak_hyperbolic) for points of Q(sqrt(d))^2, decided by
    Caratheodory in the plane: 0 is in the hull iff it is one of the points,
    lies on a segment between two, or lies in a triangle of three; weak
    hyperbolicity (m = 1) excludes the first two."""
    n = len(points)
    weak = not any(q_sign(p[0]) == 0 and q_sign(p[1]) == 0 for p in points)
    for i in range(n):
        for j in range(i + 1, n):
            if q_sign(cross2(points[i], points[j])) == 0 and \
                    q_sign(dot2(points[i], points[j])) < 0:
                weak = False
    if not weak:
        return True, False
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                a, b, c = points[i], points[j], points[k]
                s = [q_sign(cross2(a, b)), q_sign(cross2(b, c)), q_sign(cross2(c, a))]
                if s != [0, 0, 0] and (min(s) >= 0 or max(s) <= 0):
                    return True, True
    return False, True


def lvm_gale_simple(points) -> bool:
    """polytope_from_gale with all epsilons 1 is the moment polytope of the
    configuration shifted by its centroid; it is simple iff the shifted
    configuration is weakly hyperbolic."""
    n = len(points)
    c = [(Fraction(0), Fraction(0), 0), (Fraction(0), Fraction(0), 0)]
    for p in points:
        c = [q_add(c[0], p[0]), q_add(c[1], p[1])]
    c = [q_mul(c[0], q_int(Fraction(1, n))), q_mul(c[1], q_int(Fraction(1, n)))]
    return lvm_flags([(q_sub(p[0], c[0]), q_sub(p[1], c[1])) for p in points])[1]


def lvm_candidate(rng, n: int, d: int):
    """n points (re, im) with small rational parts; when d > 0 about 40% of
    the real parts gain + sqrt(d)."""
    pts = []
    for _ in range(n):
        re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        im = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        b = Fraction(1) if d and rng.random() < 0.4 else Fraction(0)
        pts.append(((re, b, d if b else 0), (im, Fraction(0), 0)))
    return pts


# -- finite-dimensional algebras by structure constants ------------------------


def alg_matrix(n):
    idx = {(a, b): a * n + b for a in range(n) for b in range(n)}
    D = n * n
    c = [[[0] * D for _ in range(D)] for _ in range(D)]
    for (a, b), i in idx.items():
        for (p, q), j in idx.items():
            if b == p:
                c[i][j][idx[(a, q)]] = 1
    unit = [1 if a == b else 0 for a in range(n) for b in range(n)]
    return D, c, unit


def alg_fields(k):
    c = [[[int(i == j == t) for t in range(k)] for j in range(k)] for i in range(k)]
    return k, c, [1] * k


def alg_z2():
    return 2, [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [1, 0]


def _mat_inv(P):
    n = len(P)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(P)]
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        f = M[col][col]
        M[col] = [x / f for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                g = M[r][col]
                M[r] = [x - g * y for x, y in zip(M[r], M[col])]
    return [row[n:] for row in M]


def signed_permutation(rng, n):
    """A random change of basis f_i = +-e_perm(i); it keeps the constants as
    sparse as before, so its cost stays close to the original algebra's."""
    perm = list(range(n))
    rng.shuffle(perm)
    P = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        P[i][j] = rng.choice((1, -1))
    return P


def shear(n):
    """The fixed change of basis f_0 = e_0 + e_1, f_i = e_i otherwise."""
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    P[0][1] = 1
    return P


def change_of_basis(alg, P):
    """Structure constants of the same algebra in the basis f_i = sum_j
    P[i][j] e_j."""
    n, c, unit = alg
    Pinv = _mat_inv(P)

    def mul(u, v):
        out = [Fraction(0)] * n
        for i, ui in enumerate(u):
            if ui:
                for j, vj in enumerate(v):
                    if vj:
                        for k, ck in enumerate(c[i][j]):
                            if ck:
                                out[k] += ui * vj * ck
        return out

    def to_new(v):
        return [sum(v[j] * Pinv[j][k] for j in range(n)) for k in range(n)]

    cc = [[to_new(mul(P[i], P[j])) for j in range(n)] for i in range(n)]
    return n, [[[str(x) for x in col] for col in row] for row in cc], \
        [str(x) for x in to_new([Fraction(x) for x in unit])]
