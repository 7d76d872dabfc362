"""Hochschild and truncated periodic homology of finite-dimensional unital
algebras over Q, given by structure constants; includes convolution
algebras of finite groupoids.

Chains of degree k are linear combinations of basis tensors
e_{i_0} x ... x e_{i_k}.  The reduced (normalized) complex takes the
factors in positions 1..k modulo the unit, A x (A/Q.1)^k; it has the same
homology as the full bar complex (Loday, *Cyclic Homology*, 1.1.14), so
Hochschild ranks are computed on it.  Ranks come from exact sparse
elimination done fraction-free on integers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .errors import (ComplexTooLarge, DegreeZero, InputError, InvalidAlgebra,
                     InvalidGroupoid, _quote)
from .scalars import rational_literal

#: cap on the chain-space dimension D^(k+1) handled by rank computations
SIZE_LIMIT = 100_000
#: highest degree that `hh_ranks` and `hp_truncated` compute
DEGREE_LIMIT = 6


class FinDimAlgebra:
    """Unital associative algebra by structure constants:
    e_i e_j = sum_k c[i][j][k] e_k.  Associativity and the unit laws are
    checked exhaustively at construction."""

    def __init__(self, dim, c, unit, labels=None):
        self.dim = int(dim)
        self.c = [[[Fraction(x) for x in col] for col in row] for row in c]
        self.unit = [Fraction(x) for x in unit]
        # the shape is checked before the default labels are built, so a
        # huge dim with a small table fails at once
        if len(self.c) != self.dim or len(self.unit) != self.dim \
                or any(len(row) != self.dim for row in self.c) \
                or any(len(col) != self.dim for row in self.c for col in row):
            raise InvalidAlgebra("structure-constant shape mismatch")
        self.labels = list(labels) if labels is not None \
            else [f"e{i}" for i in range(self.dim)]
        if len(self.labels) != self.dim:
            raise InvalidAlgebra("structure-constant shape mismatch")
        self._check()
        # pivot coordinate used to split off the unit direction
        self.unit_pivot = next((i for i, x in enumerate(self.unit) if x != 0),
                               None)
        if self.unit_pivot is None:
            raise InvalidAlgebra("the unit is zero")

    def _check(self):
        d = self.dim
        # the nonzero constants of each e_i e_j, as (t, x) pairs
        nz = [[[(t, x) for t, x in enumerate(col) if x] for col in row]
              for row in self.c]
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    lhs = [0] * d
                    for t, x in nz[i][j]:
                        for l, y in nz[t][k]:
                            lhs[l] += x * y
                    rhs = [0] * d
                    for t, x in nz[j][k]:
                        for l, y in nz[i][t]:
                            rhs[l] += x * y
                    if lhs != rhs:
                        raise InvalidAlgebra(
                            f"associativity fails at ({i},{j},{k})")
        for i in range(d):
            left = self.mul_vec(self.unit, self._basis_vec(i))
            right = self.mul_vec(self._basis_vec(i), self.unit)
            if left != self._basis_vec(i) or right != self._basis_vec(i):
                raise InvalidAlgebra(f"unit law fails at basis {i}")

    def _basis_vec(self, i):
        return [Fraction(int(j == i)) for j in range(self.dim)]

    def mul_basis(self, i, j):
        """e_i e_j as a coefficient vector."""
        return self.c[i][j]

    def mul_vec(self, u, v):
        out = [Fraction(0)] * self.dim
        for i, ui in enumerate(u):
            if ui == 0:
                continue
            for j, vj in enumerate(v):
                if vj == 0:
                    continue
                for k, ck in enumerate(self.c[i][j]):
                    if ck != 0:
                        out[k] += ui * vj * ck
        return out

    def to_json(self):
        return {"dim": self.dim, "labels": self.labels,
                "unit": [str(x) for x in self.unit],
                "c": [[[str(x) for x in col] for col in row] for row in self.c]}

    @staticmethod
    def from_json(obj):
        try:
            dim, c, unit = obj["dim"], obj["c"], obj["unit"]
            if type(dim) is not int:
                raise InputError(
                    f"bad algebra JSON: non-integer dim {_quote(dim)}")
            return FinDimAlgebra(
                dim, [[[rational_literal(x) for x in col] for col in row]
                      for row in c],
                [rational_literal(x) for x in unit], obj.get("labels"))
        except (KeyError, TypeError) as e:
            raise InputError(f"bad algebra JSON: {e}") from e


def ground_field() -> FinDimAlgebra:
    return FinDimAlgebra(1, [[[1]]], [1], ["1"])


def matrix_algebra(n: int) -> FinDimAlgebra:
    """n x n matrices with the matrix-unit basis e_(a,b)."""
    idx = {(a, b): a * n + b for a in range(n) for b in range(n)}
    d = n * n
    c = [[[0] * d for _ in range(d)] for _ in range(d)]
    for (a, b), i in idx.items():
        for (p, q), j in idx.items():
            if b == p:
                c[i][j][idx[(a, q)]] = 1
    unit = [0] * d
    for a in range(n):
        unit[idx[(a, a)]] = 1
    labels = [f"e{a}{b}" for a in range(n) for b in range(n)]
    return FinDimAlgebra(d, c, unit, labels)


def product_of_fields(k: int) -> FinDimAlgebra:
    c = [[[int(i == j == t) for t in range(k)] for j in range(k)]
         for i in range(k)]
    return FinDimAlgebra(k, c, [1] * k)


def group_algebra_z2() -> FinDimAlgebra:
    # basis (1, g) with g^2 = 1
    return FinDimAlgebra(2, [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [1, 0],
                         ["1", "g"])


class FiniteGroupoid:
    """Finite groupoid given by arrow tables.

    compose[(b, g)] is b after g (defined when source(b) == target(g));
    every object carries an identity and every arrow an inverse."""

    def __init__(self, objects, arrows, source, target, compose):
        self.objects = list(objects)
        self.arrows = list(arrows)
        self.source = dict(source)
        self.target = dict(target)
        self.compose = dict(compose)
        self._check()

    def _check(self):
        for a in self.arrows:
            if self.source.get(a) not in self.objects \
                    or self.target.get(a) not in self.objects:
                raise InvalidGroupoid(f"arrow {a!r} has bad endpoints")
        for b in self.arrows:
            for g in self.arrows:
                defined = (b, g) in self.compose
                composable = self.source[b] == self.target[g]
                if defined != composable:
                    raise InvalidGroupoid(
                        f"composition table wrong at ({b!r}, {g!r})")
                if defined:
                    h = self.compose[(b, g)]
                    if self.source[h] != self.source[g] \
                            or self.target[h] != self.target[b]:
                        raise InvalidGroupoid(
                            f"composite of ({b!r}, {g!r}) has bad endpoints")
        self.identities = {}
        for x in self.objects:
            loops = [a for a in self.arrows
                     if self.source[a] == self.target[a] == x
                     and all(self.compose[(a, g)] == g for g in self.arrows
                             if self.target[g] == x)
                     and all(self.compose[(g, a)] == g for g in self.arrows
                             if self.source[g] == x)]
            if len(loops) != 1:
                raise InvalidGroupoid(f"object {x!r} lacks a unique identity")
            self.identities[x] = loops[0]
        for a in self.arrows:
            if not any((b, a) in self.compose
                       and self.compose[(b, a)] == self.identities[self.source[a]]
                       and self.compose[(a, b)] == self.identities[self.target[a]]
                       for b in self.arrows):
                raise InvalidGroupoid(f"arrow {a!r} has no inverse")
        for a in self.arrows:
            for b in self.arrows:
                for g in self.arrows:
                    if (a, b) in self.compose and (b, g) in self.compose:
                        if self.compose[(self.compose[(a, b)], g)] != \
                                self.compose[(a, self.compose[(b, g)])]:
                            raise InvalidGroupoid("composition not associative")


def pair_groupoid(n: int) -> FiniteGroupoid:
    objects = list(range(n))
    arrows = [(a, b) for a in range(n) for b in range(n)]
    source = {(a, b): b for a, b in arrows}
    target = {(a, b): a for a, b in arrows}
    compose = {((a, b), (p, q)): (a, q)
               for a, b in arrows for p, q in arrows if b == p}
    return FiniteGroupoid(objects, arrows, source, target, compose)


def convolution_algebra(G: FiniteGroupoid) -> FinDimAlgebra:
    """Basis = arrows; e_b e_g = e_{b after g} when composable, else 0;
    unit = sum of the identity arrows."""
    d = len(G.arrows)
    index = {a: i for i, a in enumerate(G.arrows)}
    c = [[[0] * d for _ in range(d)] for _ in range(d)]
    for b in G.arrows:
        for g in G.arrows:
            if (b, g) in G.compose:
                c[index[b]][index[g]][index[G.compose[(b, g)]]] = 1
    unit = [0] * d
    for x in G.objects:
        unit[index[G.identities[x]]] = 1
    return FinDimAlgebra(d, c, unit, [str(a) for a in G.arrows])


class ChainElement:
    """Formal Q-combination of basis tensors, as {index tuple: coeff}.

    degree = tensor length - 1.  In reduced mode the factors in positions
    1..k are taken modulo the unit: any occurrence of the pivot basis
    index there is rewritten through e_p = (unit - other terms)/u_p."""

    def __init__(self, algebra: FinDimAlgebra, degree: int, coeffs=None,
                 reduced: bool = False):
        self.algebra = algebra
        self.degree = int(degree)
        self.reduced = bool(reduced)
        self.coeffs = {}
        for key, val in (coeffs or {}).items():
            if len(key) != self.degree + 1:
                raise InputError("tensor length does not match degree")
            self._add_tensor(tuple(key), Fraction(val))

    def _add_tensor(self, key, val):
        if val == 0:
            return
        if self.reduced:
            p = self.algebra.unit_pivot
            pos = next((l for l in range(1, len(key)) if key[l] == p), None)
            if pos is not None:
                u = self.algebra.unit
                # e_p = (unit - sum_{i != p} u_i e_i) / u_p; the unit tensor
                # is zero in the reduced complex
                for i in range(self.algebra.dim):
                    if i == p or u[i] == 0:
                        continue
                    self._add_tensor(key[:pos] + (i,) + key[pos + 1:],
                                     -val * u[i] / u[p])
                return
        self.coeffs[key] = self.coeffs.get(key, Fraction(0)) + val
        if self.coeffs[key] == 0:
            del self.coeffs[key]

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        if self.algebra is not other.algebra or self.degree != other.degree \
                or self.reduced != other.reduced:
            raise InputError("incompatible chain elements")
        out = ChainElement(self.algebra, self.degree, self.coeffs, self.reduced)
        for key, val in other.coeffs.items():
            out._add_tensor(key, val)
        return out

    def __eq__(self, other):
        return isinstance(other, ChainElement) and self.algebra is other.algebra \
            and self.degree == other.degree and self.reduced == other.reduced \
            and self.coeffs == other.coeffs

    def __repr__(self):
        terms = " + ".join(
            f"{v}*(" + "x".join(self.algebra.labels[i] for i in k) + ")"
            for k, v in sorted(self.coeffs.items()))
        return terms or "0"


def hochschild_boundary(x: ChainElement) -> ChainElement:
    """d(a_0 x ... x a_n) = sum_i (-1)^i a_0 x..x a_i a_{i+1} x..x a_n
    + (-1)^n (a_n a_0) x a_1 x..x a_{n-1}."""
    n = x.degree
    if n < 1:
        raise DegreeZero("boundary needs degree >= 1")
    A = x.algebra
    out = ChainElement(A, n - 1, reduced=x.reduced)
    for key, val in x.coeffs.items():
        for i in range(n):
            prod_vec = A.mul_basis(key[i], key[i + 1])
            sign = -1 if i % 2 else 1
            for k, ck in enumerate(prod_vec):
                if ck != 0:
                    out._add_tensor(key[:i] + (k,) + key[i + 2:],
                                    val * ck * sign)
        prod_vec = A.mul_basis(key[n], key[0])
        sign = -1 if n % 2 else 1
        for k, ck in enumerate(prod_vec):
            if ck != 0:
                out._add_tensor((k,) + key[1:n], val * ck * sign)
    return out


def connes_B(x: ChainElement) -> ChainElement:
    """B(a_0 x ... x a_n) = sum_i (-1)^{n i} 1 x a_i x ... x a_{i-1}
    (cyclic rotations with a unit in front), on the reduced complex."""
    n = x.degree
    A = x.algebra
    out = ChainElement(A, n + 1, reduced=x.reduced)
    for key, val in x.coeffs.items():
        for i in range(n + 1):
            rot = key[i:] + key[:i]
            sign = -1 if (n * i) % 2 else 1
            for j, uj in enumerate(A.unit):
                if uj != 0:
                    out._add_tensor((j,) + rot, val * uj * sign)
    return out


def _sparse_rank(columns) -> int:
    """Rank of a sparse rational matrix given as row->coeff dicts.

    Fraction-free elimination on integers (cf. Bareiss, Math. Comp. 22,
    1968): each column is scaled by the lcm of its denominators, reduced
    against the pivot of its lowest row as p*col - f*pivot with p, f
    coprime, and kept primitive by dividing out the gcd of its entries."""
    pivots = {}
    for col in columns:
        den = lcm(*[v.denominator for v in col.values()])
        col = _primitive({r: v.numerator * (den // v.denominator)
                          for r, v in col.items() if v})
        while col:
            r = min(col)
            pivot = pivots.get(r)
            if pivot is None:
                pivots[r] = col
                break
            p, f = pivot[r], col.pop(r)
            g = gcd(p, f)
            p, f = p // g, f // g
            if p != 1:
                col = {rr: p * v for rr, v in col.items()}
            for rr, v in pivot.items():
                if rr == r:
                    continue
                w = col.get(rr, 0) - f * v
                if w:
                    col[rr] = w
                else:
                    col.pop(rr, None)
            col = _primitive(col)
    return len(pivots)


def _primitive(col):
    """col divided by the gcd of its entries."""
    g = gcd(*col.values())
    if g <= 1:
        return col
    return {r: v // g for r, v in col.items()}


def _guard(dim_algebra: int, max_len: int):
    if dim_algebra ** max_len > SIZE_LIMIT:
        raise ComplexTooLarge(
            f"chain space dimension {dim_algebra}^{max_len} exceeds "
            f"{SIZE_LIMIT}")


def hh_ranks(A: FinDimAlgebra, up_to: int):
    """Hochschild homology ranks HH_0..HH_up_to, from the boundaries of
    the reduced complex, whose degree-k space has dimension D (D-1)^k."""
    if up_to < 0:
        raise InputError(f"up_to must be >= 0, got {up_to}")
    if up_to > DEGREE_LIMIT:
        raise ComplexTooLarge(f"degrees beyond {DEGREE_LIMIT} are out of range")
    _guard(A.dim, up_to + 2)
    D = A.dim
    rank_d = [0]  # rank of d_k, k = 0 treated as the zero map
    for k in range(1, up_to + 2):
        columns = (hochschild_boundary(
            ChainElement(A, k, {key: 1}, reduced=True)).coeffs
            for key in _reduced_basis(A, k))
        rank_d.append(_sparse_rank(columns))
    return [D * (D - 1) ** k - rank_d[k] - rank_d[k + 1]
            for k in range(up_to + 1)]


def _reduced_basis(A: FinDimAlgebra, k: int):
    """Basis index tuples of the reduced C_k: first factor free, later
    factors avoid the unit pivot."""
    p = A.unit_pivot
    others = [i for i in range(A.dim) if i != p]
    return [(i0,) + rest for i0 in range(A.dim)
            for rest in product(others, repeat=k)]


def hp_truncated(A: FinDimAlgebra, N: int, up_to: int | None = None) -> tuple:
    """(even_rank, odd_rank) of the truncated periodic complex
    (C^red[u]/u^N, d + uB): ranks of the total homology at total degree 0
    (even) and 1 (odd), with u of degree +2 and C_k in degree -k, so the
    summand u^j C_k sits in degree 2j - k.

    Total degrees -1..2 reach C_k up to k = 2N - 1, so `up_to` (default
    2N - 1) must be at least that; a smaller one would cut the complex."""
    if N < 1:
        raise InputError("truncation order must be >= 1")
    if up_to is None:
        up_to = 2 * N - 1
    if up_to < 2 * N - 1:
        raise InputError(f"up_to must be >= 2N - 1 = {2 * N - 1}, got {up_to}")
    if up_to > DEGREE_LIMIT:
        raise ComplexTooLarge(f"degrees beyond {DEGREE_LIMIT} are out of range")
    _guard(A.dim, min(2 * N, up_to) + 2)

    def summands(t):
        # (j, k) with 2j - k = t, 0 <= j < N, 0 <= k <= up_to
        return [(j, 2 * j - t) for j in range(N)
                if 0 <= 2 * j - t <= up_to]

    def space(t):
        out = []
        for j, k in summands(t):
            for key in _reduced_basis(A, k):
                out.append((j, key))
        return out

    def total_d_columns(t):
        # d + uB maps degree t to degree t + 1
        target_index = {b: r for r, b in enumerate(space(t + 1))}
        cols = []
        for j, key in space(t):
            k = len(key) - 1
            col = {}
            x = ChainElement(A, k, {key: 1}, reduced=True)
            if k >= 1:
                for tk, v in hochschild_boundary(x).coeffs.items():
                    r = target_index.get((j, tk))
                    if r is not None:
                        col[r] = col.get(r, Fraction(0)) + v
            if j + 1 < N:
                for tk, v in connes_B(x).coeffs.items():
                    r = target_index.get((j + 1, tk))
                    if r is not None:
                        col[r] = col.get(r, Fraction(0)) + v
            cols.append({r: v for r, v in col.items() if v != 0})
        return cols

    # the ranks of d_{-1}, d_0 and d_1, each built and ranked once
    rank = {t: _sparse_rank(total_d_columns(t)) for t in (-1, 0, 1)}
    return tuple(len(space(t)) - rank[t - 1] - rank[t] for t in (0, 1))
