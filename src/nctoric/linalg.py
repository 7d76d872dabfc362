"""Exact integer and quadratic-field linear algebra.

Matrices are plain row-major lists of lists: ``IntMatrix`` holds Python
ints, ``ScalarMatrix`` holds :class:`~nctoric.scalars.Scalar` entries
sharing one quadratic field.  Everything here is total and exact; there
is no floating point anywhere.
"""

from __future__ import annotations

from math import gcd, prod

from .errors import DimensionMismatch, InputError
from .scalars import Scalar, _pair_row, _pair_sign, common_field

IntMatrix = list  # list[list[int]]
ScalarMatrix = list  # list[list[Scalar]]


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    if not A:
        return []
    if len(A[0]) != len(B):
        raise DimensionMismatch("matrix product shape mismatch")
    cols = len(B[0]) if B else 0
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(cols)]
            for i in range(len(A))]


def transpose(A):
    return [list(col) for col in zip(*A)] if A else []


def _bareiss_pivot(T, r, j, rows, D, d: int):
    """Fraction-free pivot on column j of row P = T[r], for T a list of rows
    of integer pairs R[:w] + R[w:] sqrt(d): each row R = T[i], i in rows,
    becomes (p R - f P) / D, with p and f the column-j entries of P and R
    and D = (dx, dy) the previous pivot.  The quotient lies in Z[sqrt(d)]
    (Sylvester's identity; Bareiss, Math. Comp. 22, 1968) and is computed
    exactly as (p D* R - f D* P) // N, D* the conjugate of D and N = D D*
    its norm, which is nonzero for D != 0 as sqrt(d) is irrational."""
    P = T[r]
    w = len(P) // 2
    dx, dy = D
    N = dx * dx - dy * dy * d
    px, py = P[j] * dx - P[w + j] * dy * d, P[w + j] * dx - P[j] * dy
    for i in rows:
        R = T[i]
        fx, fy = R[j] * dx - R[w + j] * dy * d, R[w + j] * dx - R[j] * dy
        cols = list(zip(R[:w], R[w:], P[:w], P[w:]))
        T[i] = [(px * a + py * d * c - fx * e - fy * d * h) // N
                for a, c, e, h in cols] + \
            [(px * c + py * a - fx * h - fy * e) // N
             for a, c, e, h in cols]


def pair_det(rows, d: int = 0) -> tuple:
    """Determinant (x, y) = x + y sqrt(d) of the n x n matrix over
    Z[sqrt(d)] whose row i is rows[i][:n] + rows[i][n:] sqrt(d), for d = 0
    or square-free, by fraction-free elimination: after k pivots, entry
    (i, j) below them is the minor on rows and columns 0..k-1 plus i and j,
    so the last pivot is the determinant.  A zero pivot is swapped with the
    first row below with a nonzero entry in its column, flipping the sign;
    when there is none the matrix is singular.  For n = 2 it is the
    closed form of _det2."""
    n = len(rows)
    if n == 2:
        return _det2(*rows, d)
    T = [list(row) for row in rows]
    sign, D = 1, (1, 0)
    for k in range(n):
        r = next((i for i in range(k, n) if T[i][k] or T[i][n + k]), None)
        if r is None:
            return (0, 0)
        if r != k:
            T[k], T[r] = T[r], T[k]
            sign = -sign
        _bareiss_pivot(T, k, k, range(k + 1, n), D, d)
        D = (T[k][k], T[k][n + k])
    return (sign * D[0], sign * D[1])


def _det2(u, w, d: int) -> tuple:
    """det(u, w) = x + y sqrt(d) of plane vectors given as integer pair
    rows [x0, x1, y0, y1], entry k being x_k + y_k sqrt(d)."""
    a, b, p, q = u
    c, e, r, s = w
    return (a * e - b * c + (p * s - q * r) * d,
            a * s + p * e - b * r - q * c)


def _orientation(u, w, d: int) -> int:
    """Exact sign of det(u, w) for plane vectors given as integer pair rows
    (see _det2): positive iff w lies counterclockwise of u by an angle
    strictly between 0 and pi.  For d = 0 it is the sign of the integer
    cross product, and the sqrt(d) parts are not read, so plain integer
    rows [x0, x1] will do."""
    if not d:
        c = u[0] * w[1] - u[1] * w[0]
        return (c > 0) - (c < 0)
    return _pair_sign(*_det2(u, w, d), d)


def _turned_within(u, w, d: int) -> bool:
    """Does w lie counterclockwise of u by an angle in [0, pi)?  Either
    det(u, w) > 0, or det(u, w) = 0 and w points the way u does: u . w > 0,
    the dot product being det(w, u turned by +90 degrees)."""
    s = _orientation(u, w, d)
    return s > 0 or s == 0 and _orientation(
        w, (-u[1], u[0], -u[3], u[2]) if d else (-u[1], u[0]), d) > 0


def _plane_extremes(vecs, d: int):
    """Indices, in increasing order, of the clockwise-most and the
    counterclockwise-most of plane vectors (integer pair rows, see _det2,
    or for d = 0 plain integer rows), or None when the vectors lie in no
    open half-plane, as when one of them is 0.  In an open half-plane
    orientation signs order the directions, so one pass finds the
    clockwise-most u and the counterclockwise-most w.
    The vectors lie in one iff then every v lies within a half-turn
    counterclockwise of u, and w within one of v: every v is in the sector
    from u to w, and w, one of the v, bounds it to less than a half-turn."""
    if not vecs:
        return ()
    u = w = 0
    for i, v in enumerate(vecs[1:], 1):
        if _orientation(vecs[u], v, d) < 0:
            u = i
        if _orientation(v, vecs[w], d) < 0:
            w = i
    # a nonzero vector lies within a half-turn of itself
    U, W = vecs[u], vecs[w]
    if any(U) and any(W) and all((v is U or _turned_within(U, v, d)) and
                                 (v is W or _turned_within(v, W, d))
                                 for v in vecs):
        return (u, w) if u < w else (w, u) if w < u else (u,)
    return None


def smith_normal_form(A: IntMatrix):
    """Return (U, S, V) with U*A*V = S, U, V unimodular, S diagonal with
    non-negative invariant factors d_i | d_{i+1}.

    Elementary row/column reduction with smallest-pivot selection; fine for
    the small matrices this library meets (performance past ~50x50 is a
    non-goal).
    """
    m = len(A)
    n = len(A[0]) if m else 0
    S = [row[:] for row in A]
    U = identity(m)
    V = identity(n)

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):  # row dst += c * row src
        S[dst] = [x + c * y for x, y in zip(S[dst], S[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def add_col(dst, src, c):
        for row in S:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    def diagonalize(start=0):
        t = start
        while t < min(m, n):
            # nonzero entry of smallest magnitude in the trailing block
            nonzero = [(abs(S[i][j]), i, j) for i in range(t, m)
                       for j in range(t, n) if S[i][j] != 0]
            if not nonzero:
                break
            _, i, j = min(nonzero)  # the first in row-major order on ties
            swap_rows(t, i)
            swap_cols(t, j)
            while True:
                done = True
                for i in range(t + 1, m):
                    if S[i][t] != 0:
                        q = S[i][t] // S[t][t]
                        add_row(i, t, -q)
                        if S[i][t] != 0:
                            swap_rows(t, i)
                            done = False
                for j in range(t + 1, n):
                    if S[t][j] != 0:
                        q = S[t][j] // S[t][t]
                        add_col(j, t, -q)
                        if S[t][j] != 0:
                            swap_cols(t, j)
                            done = False
                if done:
                    break
            if S[t][t] < 0:
                add_row(t, t, -2)  # negate row
            t += 1
        return t

    r = diagonalize()
    # enforce the divisibility chain d_i | d_{i+1} by coupling offending
    # pairs and re-diagonalizing the trailing block
    while True:
        bad = next((i for i in range(r - 1) if S[i + 1][i + 1] % S[i][i] != 0), None)
        if bad is None:
            break
        add_col(bad, bad + 1, 1)
        diagonalize(bad)
    return U, S, V


def integer_kernel_basis(A: IntMatrix) -> list:
    """Z-basis of the saturated lattice {v in Z^cols : A v = 0}.

    With U A V = S diagonal, the kernel is spanned by the columns of V at
    the zero invariant factors; those columns are part of a basis of Z^n,
    so the lattice returned is automatically saturated.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return [row[:] for row in identity(n)]
    U, S, V = smith_normal_form(A)
    return [[V[i][j] for i in range(n)] for j in range(n)
            if j >= m or S[j][j] == 0]


def _row_reduce(M):
    """Reduced row echelon form of a Scalar matrix (FieldMismatch on mixed
    fields): the nonzero reduced rows, each with a leading 1, and the
    column of that leading 1 in each."""
    M = [[Scalar._coerce(e) for e in row] for row in M]
    common_field(e for row in M for e in row)
    m = len(M)
    n = len(M[0]) if m else 0
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        pr = next((i for i in range(r, m) if not M[i][c].is_zero()), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = M[r][c].inverse()
        M[r] = [e * inv for e in M[r]]
        for i in range(m):
            if i != r and not M[i][c].is_zero():
                f = M[i][c]
                M[i] = [x if y.is_zero() else x - f * y
                        for x, y in zip(M[i], M[r])]
        pivots.append(c)
    return M[:len(pivots)], pivots


def _free_kernel(rows, pivots, n: int) -> list:
    """Kernel basis read off reduced rows: one vector per free column."""
    kernel = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [Scalar(0)] * n
        v[fc] = Scalar(1)
        for row, c in zip(rows, pivots):
            v[c] = -row[fc]
        kernel.append(v)
    return kernel


def solve_exact(A: ScalarMatrix, b):
    """Exact Gaussian elimination over Q or Q(sqrt(d)): ("unique", x),
    ("affine", particular, kernel_basis) or ("infeasible",)."""
    m = len(A)
    n = len(A[0]) if m else 0
    if len(b) != m:
        raise DimensionMismatch("rhs length != row count")
    rows, pivots = _row_reduce([list(row) + [b[i]] for i, row in enumerate(A)])
    if pivots and pivots[-1] == n:
        return ("infeasible",)
    part = [Scalar(0)] * n
    for row, c in zip(rows, pivots):
        part[c] = row[n]
    kernel = _free_kernel(rows, pivots, n)
    if not kernel:
        return ("unique", part)
    return ("affine", part, kernel)


def has_nonneg_solution(A: ScalarMatrix, b) -> bool:
    """Exact test for some t >= 0 with A t = b (ints, Fractions or Scalars
    of one field d): phase I of the simplex method under Bland's rule (Math.
    Oper. Res. 2, 1977) on integers x + y sqrt(d).  Row m, the sum of the
    rows, is a positive multiple of the sum of one artificial per row; a
    leaving artificial never re-enters.  Each row is D times its row in the
    dividing tableau, D > 0 the basis determinant, so a pivot divides
    exactly by the last D (_bareiss_pivot; Avis, lrs)."""
    m = len(A)
    n = len(A[0]) if m else 0
    if len(b) != m:
        raise DimensionMismatch("rhs length != row count")
    d = common_field(e for r in (*A, b) for e in r if isinstance(e, Scalar))
    w = n + 1  # row i is T[i][:w] + T[i][w:] sqrt(d), right-hand side last
    T = []
    for row, rhs in zip(A, b):
        v, _ = _pair_row((*row, rhs))
        g = (gcd(*v) or 1) * (-1 if _pair_sign(v[n], v[-1], d) < 0 else 1)
        T.append([e // g for e in v])
    T.append([sum(c) for c in zip([0] * 2 * w, *T)])
    basis = [n + i for i in range(m)]  # indices >= n are artificial
    D = (1, 0)  # the basis determinant as an integer pair
    while T[m][n] or T[m][-1]:
        # Bland: least column enters; ratio ties leave by least basic index
        j = next((j for j in range(n)
                  if _pair_sign(T[m][j], T[m][w + j], d) > 0), None)
        if j is None:
            return False
        r = None
        for i, R in enumerate(T[:m]):
            ex, ey = R[j], R[w + j]
            if _pair_sign(ex, ey, d) <= 0:
                continue
            if r is not None:  # the sign of rhs_i * e_r - rhs_r * e_i
                (ax, ay), (bx, by), (px, py) = R[n::w], T[r][n::w], T[r][j::w]
                s = _pair_sign(ax * px + ay * py * d - bx * ex - by * ey * d,
                               ax * py + ay * px - bx * ey - by * ex, d)
                if s > 0 or s == 0 and basis[i] > basis[r]:
                    continue
            r = i
        _bareiss_pivot(T, r, j, [i for i in range(m + 1) if i != r], D, d)
        D = (T[r][j], T[r][w + j])
        basis[r] = j
    return True


def zero_in_hull(points) -> bool:
    """Is 0 in the convex hull of the points (ints, Fractions or Scalars of
    one field)?  In R^1 and R^2, where each point is scaled once by a
    positive integer to an integer pair row (scalars._pair_row): iff those
    rows lie in no open half-plane (_plane_extremes).  In R^n for n >= 3,
    by phase I on t >= 0, sum t_i = 1 and sum t_i p_i = 0."""
    if not points:
        return False
    if len(points[0]) <= 2:
        d = common_field(e for p in points for e in p if isinstance(e, Scalar))
        pad = [0] * (2 - len(points[0]))
        return _plane_extremes([_pair_row([*p, *pad])[0] for p in points],
                               d) is None
    rows = [list(coords) for coords in zip(*points)] + [[1] * len(points)]
    return has_nonneg_solution(rows, [0] * (len(rows) - 1) + [1])


def scalar_rank(A: ScalarMatrix) -> int:
    return len(_row_reduce(A)[1])


def _primitive(v) -> tuple:
    """The primitive integer vector, a tuple of ints, on the ray through a
    vector of ints, Fractions or rational Scalars: each entry A / C
    (Scalar._triple) times the product of the C's, which the gcd division
    makes primitive (InputError for the zero vector)."""
    if not all(type(x) is int for x in v):
        v = [Scalar._coerce(x)._triple() for x in v]
        den = prod(C for _, _, C in v)
        v = [A * (den // C) for A, _, C in v]
    g = gcd(*v)
    if not g:
        raise InputError("the zero vector spans no ray")
    return tuple([k // g for k in v])


def _stored_ray(v) -> tuple:
    """The ray through v as cones and fans keep it, a positive multiple of
    v: the primitive integer vector (_primitive) when the direction is
    rational, else Scalars, v over the absolute value of its first nonzero
    entry; so it is rational iff its first entry is an int."""
    if any(isinstance(x, Scalar) and x.d for x in v):
        v = [Scalar._coerce(x) for x in v]
        common_field(v)
        # an irrational entry is nonzero: make |first nonzero| = 1
        scale = abs(next(x for x in v if not x.is_zero())).inverse()
        v = [x * scale for x in v]
        if not all(x.is_rational for x in v):
            return tuple(v)
    return _primitive(v)


def _scalar_ray(ray) -> tuple:
    """A stored ray (_stored_ray) as a tuple of Scalars."""
    return tuple(map(Scalar, ray)) if type(ray[0]) is int else ray


def canonical_ray(v) -> tuple:
    """Canonical representative of the ray through v, always a positive
    multiple of v: its stored form (_stored_ray) as Scalars."""
    return _scalar_ray(_stored_ray(v))
