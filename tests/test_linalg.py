import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest

from nctoric import linalg
from nctoric.errors import DimensionMismatch, FieldMismatch
from nctoric.linalg import (_free_kernel, _orientation, _row_reduce,
                            canonical_ray, has_nonneg_solution, identity,
                            integer_kernel_basis, mat_mul, pair_det,
                            scalar_rank, smith_normal_form, solve_exact,
                            zero_in_hull)
from nctoric.scalars import Scalar, _pair_row, common_field


def int_det(A) -> int:
    """Oracle: the integer Bareiss determinant with its own elimination."""
    n = len(A)
    if n == 0:
        return 1
    M = [row[:] for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def scalar_kernel_basis(A, n: int) -> list:
    """Kernel basis of an m x n Scalar matrix (n passed for the m = 0 case),
    one vector per free column of its reduced form."""
    rows, pivots = _row_reduce(A)
    return _free_kernel(rows, pivots, n)


def mat_vec(A, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in A]


def minors_gcd(A, k):
    """gcd of all k x k minors; d_1...d_k of the SNF must equal it."""
    m, n = len(A), len(A[0])
    g = 0
    for rows in combinations(range(m), k):
        for cols in combinations(range(n), k):
            sub = [[A[i][j] for j in cols] for i in rows]
            g = gcd(g, abs(int_det(sub)))
    return g


def check_snf(A):
    U, S, V = smith_normal_form(A)
    m, n = len(A), len(A[0])
    assert abs(int_det(U)) == 1
    assert abs(int_det(V)) == 1
    assert mat_mul(mat_mul(U, A), V) == S
    diag = [S[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert S[i][j] == 0
    for i in range(len(diag) - 1):
        assert diag[i] >= 0
        if diag[i + 1] != 0:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
    # invariant-factor products against the minor-gcd oracle
    prod = 1
    for k, d in enumerate(diag, start=1):
        if d == 0:
            break
        prod *= d
        assert prod == minors_gcd(A, k)
    return diag


def test_snf_known_values():
    diag = check_snf([[2, 4], [6, 8]])
    assert diag == [2, 4]
    assert check_snf([[1, 0], [0, 1]]) == [1, 1]
    assert check_snf([[2, 0], [0, 3]]) == [1, 6]
    assert check_snf([[0, 0], [0, 0]]) == [0, 0]


def test_snf_random_matrices():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        check_snf(A)


def int_pairs(A):
    """An integer matrix as rows of integer pairs with zero sqrt(d) parts."""
    return [list(row) + [0] * len(row) for row in A]


def test_int_rank_and_det():
    assert int_det([[2, 4], [6, 8]]) == -8
    assert int_det([[1, 2], [2, 4]]) == 0
    assert pair_det(int_pairs([[2, 4], [6, 8]])) == (-8, 0)
    assert pair_det(int_pairs([[1, 2], [2, 4]])) == (0, 0)
    assert pair_det([]) == (1, 0)
    assert pair_det(int_pairs([[0, 1], [1, 0]])) == (-1, 0)


def test_pair_det_matches_the_integer_oracle():
    rng = random.Random(20261102)
    seen = set()
    for trial in range(300):
        n = rng.randint(1, 5)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if trial % 3 == 1:  # the first pivots vanish, so rows must swap
            for i in range(rng.randint(1, n) - 1):
                A[i][0] = 0
            for j in range(1, n):
                A[0][j] = A[0][j] if rng.random() < 0.5 else 0
        elif trial % 3 == 2 and n > 1:  # a row a combination of others
            i = rng.randrange(n)
            j, k = (rng.choice([x for x in range(n) if x != i])
                    for _ in range(2))
            a, c = rng.randint(-2, 2), rng.randint(-2, 2)
            A[i] = [a * x + c * y for x, y in zip(A[j], A[k])]
        want = int_det(A)
        for d in (0, 2, 5):
            assert pair_det(int_pairs(A), d) == (want, 0), (A, d)
        seen.add(("singular" if want == 0 else
                  "swap" if A[0][0] == 0 else "plain"))
    assert seen == {"singular", "swap", "plain"}


def cofactor_det(M):
    """Oracle: Laplace expansion along the first row, on Scalars."""
    if not M:
        return Scalar(1)
    return sum(((-1) ** j * M[0][j] *
                cofactor_det([row[:j] + row[j + 1:] for row in M[1:]])
                for j in range(len(M))), Scalar(0))


def test_pair_det_matches_scalar_cofactors():
    rng = random.Random(20261103)
    seen = set()
    for trial in range(240):
        d = (2, 5)[trial % 2]
        n = rng.randint(1, 4)
        r = Scalar.sqrt_int(d)
        M = [[Scalar(0) if rng.random() < 0.25 else
              Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
              + r * Fraction(rng.randint(-2, 2), rng.randint(1, 2))
              for _ in range(n)] for _ in range(n)]
        if n > 1 and trial % 4 >= 2:  # a row an irrational multiple of another
            i, j = rng.sample(range(n), 2)
            M[i] = [(1 + r) * x for x in M[j]]
        rows = [_pair_row(row)[0] for row in M]
        scale = 1
        for row in M:  # the positive integer each row was multiplied by
            scale *= lcm(*[f.denominator for x in row for f in (x.a, x.b)])
        x, y = pair_det(rows, d)
        want = cofactor_det(M) * scale
        assert Scalar(x, y, d) == want, (M, d)
        seen.add((d, want.is_zero(), want.is_rational))
    assert {(d, z) for d, z, _ in seen} == {(d, z) for d in (2, 5)
                                            for z in (False, True)}
    assert any(not z and not q for _, z, q in seen)


def test_two_by_two_pair_det_matches_the_oracles():
    # n = 2 is a closed form, not the elimination; the orientation test
    # reads its sign
    rng = random.Random(20261105)
    seen = set()
    for trial in range(300):
        big = 10**30 if trial % 5 == 0 else 1
        A = [[rng.randint(-9, 9) * big for _ in range(2)] for _ in range(2)]
        if trial % 3 == 1:  # the second row a multiple of the first
            c = rng.randint(-3, 3)
            A[1] = [c * x for x in A[0]]
        elif trial % 3 == 2:  # a zero first pivot
            A[0][0] = 0
        want = int_det(A)
        for d in (0, 2, 5):
            assert pair_det(int_pairs(A), d) == (want, 0), (A, d)
            assert _orientation(*int_pairs(A), d) == (want > 0) - (want < 0)
        seen.add((want > 0) - (want < 0))
    for trial in range(300):
        d = (2, 5)[trial % 2]
        r = Scalar.sqrt_int(d)
        M = [[Scalar(0) if rng.random() < 0.2 else
              Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
              + r * Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              for _ in range(2)] for _ in range(2)]
        if trial % 4 >= 2:  # the second row an irrational multiple
            M[1] = [(Fraction(rng.randint(-3, 3), 2) + r) * x for x in M[0]]
        rows = [_pair_row(row)[0] for row in M]
        scale = 1
        for row in M:
            scale *= lcm(*[f.denominator for x in row for f in (x.a, x.b)])
        want = cofactor_det(M)
        assert Scalar(*pair_det(rows, d), d) == want * scale, (M, d)
        assert _orientation(*rows, d) == want.sign(), (M, d)
        seen.add((d, want.sign(), want.is_rational))
    assert {s for s in seen if type(s) is int} == {-1, 0, 1}
    assert {s[:2] for s in seen if type(s) is tuple} == {
        (d, s) for d in (2, 5) for s in (-1, 0, 1)}


def test_integer_kernel_saturated():
    # kernel of (1 1 1) is rank 2 and saturated
    B = integer_kernel_basis([[1, 1, 1]])
    assert len(B) == 2
    for v in B:
        assert sum(v) == 0
        assert gcd(*v) == 1
    # saturation: (2 2) has kernel generated by (1, -1), not (2, -2)
    B = integer_kernel_basis([[2, 2]])
    assert B == [[1, -1]] or B == [[-1, 1]]


def test_solve_exact_branches():
    one = Scalar(1)
    zero = Scalar(0)
    status, x = solve_exact([[one, zero], [zero, one]], [Scalar(3), Scalar(4)])
    assert status == "unique" and x == [Scalar(3), Scalar(4)]
    res = solve_exact([[one, one]], [Scalar(2)])
    assert res[0] == "affine" and len(res[2]) == 1
    res = solve_exact([[one, one], [one, one]], [Scalar(1), Scalar(2)])
    assert res == ("infeasible",)


def test_solve_exact_quadratic_field():
    r2 = Scalar.sqrt_int(2)
    status, x = solve_exact([[r2]], [Scalar(2)])
    assert status == "unique" and x == [r2]
    with pytest.raises(FieldMismatch):
        solve_exact([[Scalar.sqrt_int(2)]], [Scalar.sqrt_int(3)])


def test_scalar_kernel_basis():
    r2 = Scalar.sqrt_int(2)
    B = scalar_kernel_basis([[Scalar(1), r2]], 2)
    assert len(B) == 1
    v = B[0]
    assert (v[0] + r2 * v[1]).is_zero()
    assert scalar_kernel_basis([], 3) == [
        [Scalar(1), Scalar(0), Scalar(0)],
        [Scalar(0), Scalar(1), Scalar(0)],
        [Scalar(0), Scalar(0), Scalar(1)]]


# Oracle for condition (K) and fiber rationality (tests/test_lvm.py): the
# rational part of a span by a second, rational elimination.
def rational_subspace_dim(basis: list, n: int) -> tuple[int, list]:
    """Dimension and basis of the rational vectors inside span(basis).

    The span lives in Q(sqrt(d))^n; a vector sum c_i w_i (c_i in the field)
    is rational iff its sqrt(d)-part vanishes.  Writing c_i = x_i + y_i
    sqrt(d) and w_i = p_i + q_i sqrt(d) turns that into a rational linear
    system in (x, y); the rational vectors are the resulting p-part images.
    """
    k = len(basis)
    if k == 0:
        return 0, []
    d = common_field([e for w in basis for e in w])
    if d == 0:
        return k, [list(w) for w in basis]
    # unknowns: x_1..x_k, y_1..y_k; conditions: for each coordinate j,
    # irrational part sum_i (x_i q_ij + y_i p_ij) == 0
    rows = [[Scalar(w[j].b) for w in basis] + [Scalar(w[j].a) for w in basis]
            for j in range(n)]
    sols = scalar_kernel_basis(rows, 2 * k)  # rational system, rational solutions
    # (x + y sqrt d)(p + q sqrt d) has rational part x p + y q d
    vecs = [[Scalar(sum(s[i].a * w[j].a + s[k + i].a * w[j].b * d
                        for i, w in enumerate(basis))) for j in range(n)]
            for s in sols]
    # the produced rational vectors may be dependent or zero; row-reduce
    # to a basis
    rows, _ = _row_reduce(vecs)
    return len(rows), rows


def test_rational_subspace_dim():
    r2 = Scalar.sqrt_int(2)
    one, zero = Scalar(1), Scalar(0)
    # span{(1, sqrt2)} has no rational vectors
    dim, vecs = rational_subspace_dim([[one, r2]], 2)
    assert dim == 0 and vecs == []
    # span{(1, sqrt2), (sqrt2, 2)} is the same line (dependent input)
    dim, _ = rational_subspace_dim([[one, r2], [r2, Scalar(2)]], 2)
    assert dim == 0
    # span{(1, 0), (0, sqrt2)} is all of Q(sqrt2)^2: rational part is Q^2
    dim, vecs = rational_subspace_dim([[one, zero], [zero, r2]], 2)
    assert dim == 2
    # fully rational input is returned as is
    dim, vecs = rational_subspace_dim([[one, zero]], 2)
    assert dim == 1 and vecs == [[one, zero]]


def test_rational_subspace_brute_force_cross_check():
    # brute-force oracle: search small rational vectors x with
    # x in span(w1, w2) over Q(sqrt2), compare the dimension
    r2 = Scalar.sqrt_int(2)
    w1 = [Scalar(1), r2, Scalar(0)]
    w2 = [Scalar(0), Scalar(1), r2]
    dim, _ = rational_subspace_dim([w1, w2], 3)
    found = []
    span = [w1, w2]
    rng = range(-3, 4)
    for a in rng:
        for b in rng:
            for c in rng:
                if (a, b, c) == (0, 0, 0):
                    continue
                target = [Scalar(a), Scalar(b), Scalar(c)]
                res = solve_exact([[span[j][i] for j in range(2)]
                                   for i in range(3)], target)
                if res[0] != "infeasible":
                    found.append(target)
    assert dim == scalar_rank(found)


def random_entry(rng, field):
    """A small entry of Q or Q(sqrt 2), zero about a quarter of the time."""
    if rng.random() < 0.25:
        return Scalar(0)
    x = Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return x + Scalar.sqrt_int(2) * rng.randint(-1, 1) if field == 2 else x


def random_matrix(rng, m, n, field):
    """Seeded m x n matrix, sometimes with a zero row or a repeated row."""
    A = [[random_entry(rng, field) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.3:
        A[rng.randrange(m)] = [Scalar(0)] * n
    if m > 1 and rng.random() < 0.3:
        A[rng.randrange(m)] = list(rng.choice(A))
    return A


def test_elimination_properties():
    rng = random.Random(20261018)
    seen, kernels = set(), set()
    for trial in range(400):
        field = 2 if trial % 2 else 0
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = random_matrix(rng, m, n, field)
        if rng.random() < 0.5:  # a right-hand side in the column space
            b = mat_vec(A, [random_entry(rng, field) for _ in range(n)])
        else:
            b = [random_entry(rng, field) for _ in range(m)]
        rank = scalar_rank(A)
        kernel = scalar_kernel_basis(A, n)
        assert rank + len(kernel) == n
        assert all(x.is_zero() for v in kernel for x in mat_vec(A, v))
        # the kernel is defined over Q iff A and its conjugate share a row
        # space, and then the basis read off the reduced form is rational
        conj = [[x.conjugate() for x in row] for row in A]
        rational = all(x.is_rational for v in kernel for x in v)
        assert rational == (scalar_rank(A + conj) == rank)
        kernels.add((field, rational))
        res = solve_exact(A, b)
        grows = scalar_rank([row + [x] for row, x in zip(A, b)]) > rank
        assert (res[0] == "infeasible") == grows
        if not grows:
            assert mat_vec(A, res[1]) == b
            assert res[0] == ("unique" if rank == n else "affine")
        if res[0] == "affine":
            assert len(res[2]) == n - rank
            assert all(x.is_zero() for v in res[2] for x in mat_vec(A, v))
        seen.add((field, (m > n) - (m < n), res[0]))
    # tall, square and wide matrices with every outcome in both fields
    # (a wide matrix has a kernel, so its solutions are never unique)
    assert len(seen) == 16, sorted(seen)
    assert kernels == {(0, True), (2, False), (2, True)}


def test_canonical_ray_properties():
    rng = random.Random(20261019)
    r2 = Scalar.sqrt_int(2)
    for trial in range(200):
        field = 2 if trial % 2 else 0
        n = rng.randint(1, 4)
        v = [random_entry(rng, field) for _ in range(n)]
        if all(x.is_zero() for x in v):
            v[rng.randrange(n)] = Scalar(-1)
        ray = canonical_ray(v)
        # a positive multiple of v, unchanged by positive scaling
        j = next(i for i, x in enumerate(v) if not x.is_zero())
        t = ray[j] / v[j]
        assert t.sign() > 0 and list(ray) == [t * x for x in v]
        c = Scalar(Fraction(rng.randint(1, 5), rng.randint(1, 5))) \
            + r2 * rng.randint(0, 2)
        assert canonical_ray([c * x for x in v]) == ray
        if not all(x.is_rational for x in ray):
            assert abs(ray[j]) == Scalar(1)
        # a rational direction, scaled by any nonzero number, comes back
        # primitive and integral
        ints = [rng.randint(-6, 6) for _ in range(n)]
        if not any(ints):
            ints[0] = 4
        c = random_entry(rng, field)
        if c.is_zero():
            c = Scalar(Fraction(-1, 3))
        ray = canonical_ray([c * k for k in ints])
        assert all(x.is_rational and x.a.denominator == 1 for x in ray)
        assert gcd(*(int(x.a) for x in ray)) == 1


def test_mat_vec_and_identity():
    assert identity(2) == [[1, 0], [0, 1]]


# -- the phase-I simplex kernel -------------------------------------------------


def caratheodory_zero_in_hull(points, dim) -> bool:
    """Oracle: 0 in conv(points) in R^dim by Caratheodory, checking
    barycentric feasibility over all subsets of size <= dim + 1."""
    for k in range(1, min(len(points), dim + 1) + 1):
        for sub in combinations(points, k):
            rows = [[Scalar._coerce(p[j]) for p in sub] for j in range(dim)]
            rows.append([Scalar(1)] * k)
            res = solve_exact(rows, [Scalar(0)] * dim + [Scalar(1)])
            if res[0] == "unique":
                if all(t.sign() >= 0 for t in res[1]):
                    return True
            elif res[0] == "affine":
                if nonneg_in_affine(res[1], res[2]):
                    return True
    return False


def nonneg_in_affine(part, kernel) -> bool:
    """Does part + span(kernel) meet the nonnegative orthant?  Tries every
    basic solution that forces len(kernel) coordinates to zero."""
    k = len(kernel)
    nvar = len(part)
    if k == 0:
        return all(t.sign() >= 0 for t in part)
    for zeros in combinations(range(nvar), k):
        rows = [[kernel[j][i] for j in range(k)] for i in zeros]
        res = solve_exact(rows, [-part[i] for i in zeros])
        if res[0] == "infeasible":
            continue
        c = res[1]
        t = [part[i] + sum((kernel[j][i] * c[j] for j in range(k)), Scalar(0))
             for i in range(nvar)]
        if all(x.sign() >= 0 for x in t):
            return True
    return False


def random_point_set(rng, dim, field):
    """Small seeded point sets over Q or Q(sqrt 2): plain random points,
    points on one line, or points with a repeat and the origin mixed in."""
    r2 = Scalar.sqrt_int(2)

    def entry():
        x = Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        return x + r2 * rng.randint(-2, 2) if field == 2 else x

    kind = rng.choice(("random", "collinear", "repeat_zero"))
    n = rng.randint(1, dim + 2)
    if kind == "collinear":
        v = [entry() for _ in range(dim)]
        return [[x * entry() for x in v] for _ in range(n)]
    pts = [[entry() for _ in range(dim)] for _ in range(n)]
    if rng.random() < 0.5:
        # shift into the open halfspace x_0 > 0 so both answers occur
        pts = [[abs(p[0]) + Scalar(1)] + p[1:] for p in pts]
    if kind == "repeat_zero":
        pts.append(list(rng.choice(pts)))
        if rng.random() < 0.5:
            pts.insert(rng.randrange(len(pts) + 1), [Scalar(0)] * dim)
    return pts


def test_zero_in_hull_matches_caratheodory_oracle():
    rng = random.Random(20260412)
    seen = set()
    for trial in range(160):
        dim = 1 + trial % 4
        field = 2 if trial % 8 >= 4 else 0
        pts = random_point_set(rng, dim, field)
        got = zero_in_hull(pts)
        assert got == caratheodory_zero_in_hull(pts, dim), (dim, pts)
        seen.add((dim, field, got))
    assert len(seen) == 16  # both answers in every dimension and field


def lp_zero_in_hull(points) -> bool:
    """Oracle: the hull test by phase I in every dimension, t >= 0,
    sum t_i = 1 and sum t_i p_i = 0."""
    rows = [list(coords) for coords in zip(*points)] + [[1] * len(points)]
    return has_nonneg_solution(rows, [0] * (len(rows) - 1) + [1])


PLANAR_KINDS = ("random", "zero", "repeat", "antipodal", "ray", "line",
                "halfplane", "antipodal_halfplane", "line1d")


def planar_point_set(rng, d, kind):
    """A seeded point set of R^2 (R^1 for "line1d") over Q(sqrt(d)) of the
    given kind: random points, with a zero point, with a direction repeated
    or reversed, all on one ray or one line through 0, all in an open
    half-plane, or two antipodal points with the rest on one side of
    their line.  Half the random and repeated sets lie in an open
    half-plane, so that both answers occur."""
    root = Scalar.sqrt_int(d) if d else Scalar(0)

    def entry():
        return Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) \
            + root * Fraction(rng.randint(-2, 2), rng.randint(1, 2))

    def positive():
        return Scalar(Fraction(rng.randint(1, 5), rng.randint(1, 3))) \
            + root * rng.randint(0, 2)

    def vector():
        while True:
            v = [entry(), entry()]
            if not all(x.is_zero() for x in v):
                return v

    def scaled(c, v):
        return [c * x for x in v]

    def beside(f, k):
        """k points on the side of the line through 0 turned from f by
        -90 degrees that f points to."""
        turned = [-f[1], f[0]]
        return [[positive() * a + b * c for a, c in zip(f, turned)]
                for b in (entry() for _ in range(k))]

    k = rng.randint(1, 6)
    if kind == "line1d":
        return [[entry()] for _ in range(k)]
    if kind in ("ray", "line"):
        v = vector()
        return [scaled(positive() if kind == "ray" or rng.random() < 0.5
                       else -positive(), v) for _ in range(k)]
    if kind == "halfplane":
        return beside(vector(), k)
    if kind == "antipodal_halfplane":
        f = vector()
        pts = beside([f[1], -f[0]], k) + [scaled(positive(), f),
                                          scaled(-positive(), f)]
        rng.shuffle(pts)
        return pts
    pts = beside(vector(), k) if rng.random() < 0.5 else \
        [vector() for _ in range(k)]
    if kind == "zero":
        pts.insert(rng.randrange(k + 1), [Scalar(0), Scalar(0)])
    elif kind == "repeat":
        pts.insert(rng.randrange(k + 1), scaled(positive(), rng.choice(pts)))
    elif kind == "antipodal":
        pts.insert(rng.randrange(k + 1), scaled(-positive(), rng.choice(pts)))
    return pts


def test_planar_zero_in_hull_matches_the_lp():
    rng = random.Random(20261106)
    seen = set()
    for trial in range(2400):
        d = (0, 2, 5)[trial % 3]
        kind = PLANAR_KINDS[trial // 3 % len(PLANAR_KINDS)]
        pts = planar_point_set(rng, d, kind)
        if d == 0 and trial % 4 == 0:  # plain Fractions over Q
            pts = [[x.a for x in p] for p in pts]
        got = zero_in_hull(pts)
        assert got == lp_zero_in_hull(pts), (kind, pts)
        seen.add((d, kind, got))
    # 0 is a point or on the segment of an antipodal pair, or the points
    # lie in an open half-plane; every other kind gives both answers in
    # every field
    always = {"zero", "antipodal", "antipodal_halfplane"}
    never = {"ray", "halfplane"}
    assert seen == {(d, kind, got) for d in (0, 2, 5) for kind in PLANAR_KINDS
                    for got in (False, True)
                    if not (kind in always and not got)
                    and not (kind in never and got)}


def test_planar_zero_in_hull_runs_no_lp(monkeypatch):
    calls = []
    monkeypatch.setattr(linalg, "has_nonneg_solution",
                        lambda A, b: calls.append(len(A)))
    r5 = Scalar.sqrt_int(5)
    assert zero_in_hull([[1, 0], [0, 1], [-1, -1]])
    assert not zero_in_hull([[1, 0], [0, 1], [1, 1]])
    assert zero_in_hull([[r5, 1], [-2 * r5, -2]])
    assert not zero_in_hull([[r5, 1], [2 * r5, 2]])
    assert zero_in_hull([[Fraction(1, 2)], [-r5]])
    assert not zero_in_hull([[Fraction(1, 2)], [r5]])
    assert zero_in_hull([[]])
    assert calls == []
    zero_in_hull([[1, 0, 0], [-1, 0, 0]])
    assert calls == [4]


def test_zero_in_hull_edge_cases():
    assert not zero_in_hull([])
    assert zero_in_hull([[0, 0]])
    assert zero_in_hull([[1, 1], [1, 1], [-2, -2]])
    assert not zero_in_hull([[1, 1], [2, 2]])
    assert not zero_in_hull([[1, 0], [2, 1]])     # segment misses the origin


def test_has_nonneg_solution():
    # no rows: t = 0 solves; no columns: only b = 0 is reached
    assert has_nonneg_solution([], [])
    assert not has_nonneg_solution([[]], [1])
    assert has_nonneg_solution([[1, -1]], [-3])
    assert not has_nonneg_solution([[1, 1]], [-1])
    assert has_nonneg_solution([[1, 2], [3, 4]], [3, 7])
    assert not has_nonneg_solution([[1, 2], [3, 4]], [1, 1])    # t = (-1, 1)
    assert has_nonneg_solution([[1, 1], [1, 1]], [2, 2])        # repeated row
    assert not has_nonneg_solution([[1, 1], [1, 1]], [2, 3])
    assert has_nonneg_solution([[0, 0], [1, 1]], [0, 1])        # zero row
    r2 = Scalar.sqrt_int(2)
    assert has_nonneg_solution([[r2, -1]], [0])
    assert has_nonneg_solution([[r2, 1]], [r2 + 1])
    assert not has_nonneg_solution([[r2, 1]], [-r2])
    with pytest.raises(DimensionMismatch):
        has_nonneg_solution([[1, 2]], [1, 2])


#: the constraint matrix of Beale's cycling example (Beale, Naval Res.
#: Logist. Q. 2, 1955), with a third row that bounds x_3
BEALE = [[Fraction(1, 4), -8, -1, 9, 1, 0, 0],
         [Fraction(1, 2), -12, Fraction(-1, 2), 3, 0, 1, 0],
         [0, 0, 1, 0, 0, 0, 1]]


def test_has_nonneg_solution_degenerate_pivots_terminate():
    # Beale's system with zero right-hand sides in two rows, so the first
    # pivots are degenerate
    assert has_nonneg_solution(BEALE, [0, 0, 1])
    assert not has_nonneg_solution(BEALE, [0, 0, -1])


def tableau_oracle(A, b) -> bool:
    """Reference for has_nonneg_solution: the same phase-I simplex under
    Bland's rule on a tableau that divides, over Fractions when every entry
    is rational and over Scalars otherwise."""
    m = len(A)
    n = len(A[0]) if m else 0
    T = [[Scalar._coerce(e) for e in row] + [Scalar._coerce(b[i])]
         for i, row in enumerate(A)]
    if common_field(e for row in T for e in row) == 0:
        T = [[e.a for e in row] for row in T]
    T = [[-e for e in row] if row[n] < 0 else row for row in T]
    basis = [n + i for i in range(m)]
    obj = [sum(col) for col in zip(*T)] if T else [0]
    while obj[n] != 0:
        j = next((j for j in range(n) if obj[j] > 0), None)
        if j is None:
            return False
        r = min((i for i in range(m) if T[i][j] > 0),
                key=lambda i: (T[i][n] / T[i][j], basis[i]))
        inv = 1 / T[r][j]
        T[r] = [e * inv for e in T[r]]
        for row in T + [obj]:
            f = row[j]
            if row is not T[r] and f != 0:
                row[:] = [x - f * y for x, y in zip(row, T[r])]
        basis[r] = j
    return True


def lp_entry(rng, field):
    """An entry of Q, Q(sqrt 2) or Q(sqrt 5): (x + y sqrt(d)) / 2 with
    small x, y, such as the golden ratio (1 + sqrt 5) / 2, zero about a
    quarter of the time and scaled up to 10^30 about a tenth of it."""
    if rng.random() < 0.25:
        return Scalar(0)
    y = rng.randint(-2, 2) if field else 0
    e = Scalar(Fraction(rng.randint(-3, 3), 2), Fraction(y, 2), field)
    return e * rng.randint(1, 10**30) if rng.random() < 0.1 else e


def test_has_nonneg_solution_matches_the_dividing_tableau():
    rng = random.Random(20261020)
    seen = set()
    for trial in range(600):
        field = (0, 2, 5)[trial % 3]
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        A = [[lp_entry(rng, field) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:
            A[rng.randrange(m)] = [Scalar(0)] * n
        if m > 1 and rng.random() < 0.3:
            A[rng.randrange(m)] = list(rng.choice(A))
        if rng.random() < 0.5:  # b = A t for some t >= 0
            t = [abs(lp_entry(rng, field)) for _ in range(n)]
            b = mat_vec(A, t)
        else:
            b = [lp_entry(rng, field) for _ in range(m)]
        if field == 0 and rng.random() < 0.5:  # plain Fractions and ints
            A = [[e.a for e in row] for row in A]
            b = [int(e.a) if e.a.denominator == 1 else e.a for e in b]
        got = has_nonneg_solution(A, b)
        assert got == tableau_oracle(A, b), (A, b)
        seen.add((field, got))
    for field in (0, 2, 5):  # Beale's system scaled by a positive number
        c = Scalar(1, 1, field) / 2 if field else Scalar(Fraction(3, 7))
        A = [[c * e for e in row] for row in BEALE]
        for b in ([0, 0, 1], [0, 0, -1], [0, 1, 1], [1, 0, 0],
                  [c, -c, c * c]):
            got = has_nonneg_solution(A, b)
            assert got == tableau_oracle(A, b), b
            seen.add((field, got))
    assert seen == {(f, a) for f in (0, 2, 5) for a in (False, True)}


def test_has_nonneg_solution_entries_stay_small():
    # the integer gcd of a row misses common factors of Z[sqrt 5] such as
    # 1 + sqrt 5, so dividing rows by it let entries grow with every pivot
    # (minutes for one of these hulls); dividing by the basis determinant
    # keeps every entry a minor of the input
    rng = random.Random(20261021)
    r5 = Scalar.sqrt_int(5)
    for trial in range(6):
        pts = [[Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                + r5 * rng.randint(-2, 2) for _ in range(12)]
               for _ in range(13)]
        if trial % 2:  # put 0 inside the hull
            pts.append([-sum(col, Scalar(0)) for col in zip(*pts)])
        start = time.perf_counter()
        got = zero_in_hull(pts)
        assert time.perf_counter() - start < 1.0
        rows = [list(col) for col in zip(*pts)] + [[1] * len(pts)]
        assert got == tableau_oracle(rows, [0] * 12 + [1])
        assert got == bool(trial % 2)


def test_has_nonneg_solution_builds_no_scalar(monkeypatch):
    phi = Scalar(1, 1, 5) / 2
    A = [[phi, Scalar(-1), Scalar(0)], [Scalar(1), phi, Scalar(-2)],
         [Scalar(0), Scalar(1), phi * phi]]
    pts = [[phi, Scalar(-1)], [Scalar(-2), phi], [-phi, -phi]]
    feasible, infeasible = [Scalar(1), phi, Scalar(2)], [-phi, -phi, phi]
    built = []
    init = Scalar.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Scalar, "__init__", counting_init)
    assert has_nonneg_solution(A, feasible)
    assert not has_nonneg_solution(A, infeasible)
    assert zero_in_hull(pts)
    assert built == []


def test_has_nonneg_solution_mixed_fields():
    r2, r3 = Scalar.sqrt_int(2), Scalar.sqrt_int(3)
    with pytest.raises(FieldMismatch):
        has_nonneg_solution([[r2, 1], [1, r3]], [1, 1])
    with pytest.raises(FieldMismatch):
        zero_in_hull([[r2], [-r3]])
