import random
from fractions import Fraction
from itertools import product

import pytest

from nctoric import hochschild
from nctoric.errors import (ComplexTooLarge, DegreeZero, InputError,
                            InvalidAlgebra, InvalidGroupoid)
from nctoric.hochschild import (ChainElement, FinDimAlgebra, FiniteGroupoid,
                                _sparse_rank, connes_B, convolution_algebra,
                                ground_field, group_algebra_z2, hh_ranks,
                                hochschild_boundary, hp_truncated,
                                matrix_algebra, pair_groupoid,
                                product_of_fields)


def dual_numbers():
    # basis (1, x) with x^2 = 0
    return FinDimAlgebra(2, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0],
                         ["1", "x"])


def upper_triangular2():
    # basis (e11, e22, e12)
    c = [[[1, 0, 0], [0, 0, 0], [0, 0, 1]],
         [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
         [[0, 0, 0], [0, 0, 1], [0, 0, 0]]]
    return FinDimAlgebra(3, c, [1, 1, 0], ["e11", "e22", "e12"])


def _mat_inv(P):
    n = len(P)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j))
                                       for j in range(n)]
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


def change_of_basis(A, P):
    """Same algebra in the basis f_i = sum_j P[i][j] e_j."""
    n = A.dim
    Pinv = _mat_inv(P)

    def to_new(v):
        return [sum(v[j] * Pinv[j][k] for j in range(n)) for k in range(n)]

    c = []
    for i in range(n):
        row = []
        for j in range(n):
            prod = [sum(P[i][a] * P[j][b] * A.c[a][b][k]
                        for a in range(n) for b in range(n))
                    for k in range(n)]
            row.append(to_new(prod))
        c.append(row)
    return FinDimAlgebra(n, c, to_new(A.unit))


def random_invertible(rng, n):
    while True:
        P = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        try:
            _mat_inv(P)
            return P
        except StopIteration:
            continue


def random_algebra(rng):
    base = rng.choice([ground_field(), product_of_fields(2),
                       product_of_fields(3), dual_numbers(),
                       group_algebra_z2(), upper_triangular2()])
    return change_of_basis(base, random_invertible(rng, base.dim))


def chain_sum(x, y):
    """x + y, for two chains of one algebra and degree."""
    assert x.algebra is y.algebra and x.degree == y.degree
    coeffs = dict(x.coeffs)
    for key, val in y.coeffs.items():
        coeffs[key] = coeffs.get(key, 0) + val
    return ChainElement(x.algebra, x.degree, coeffs)


def random_chain(rng, A, degree):
    coeffs = {}
    pool = list(range(A.dim))
    for _ in range(4):
        key = tuple(rng.choice(pool) for _ in range(degree + 1))
        coeffs[key] = coeffs.get(key, 0) + Fraction(rng.randint(-3, 3))
    return ChainElement(A, degree, coeffs)


def test_algebra_validation():
    with pytest.raises(InvalidAlgebra):
        # (g.g).1 = 1 but g.(g.1) = g
        FinDimAlgebra(2, [[[1, 0], [0, 1]], [[1, 0], [0, 1]]], [1, 0])
    with pytest.raises(InvalidAlgebra):
        FinDimAlgebra(2, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [0, 1])
    with pytest.raises(InvalidAlgebra):
        FinDimAlgebra(2, [[[1, 0]]], [1, 0])


def test_algebra_json_roundtrip():
    A = upper_triangular2()
    B = FinDimAlgebra.from_json(A.to_json())
    assert B.c == A.c and B.unit == A.unit and B.labels == A.labels
    with pytest.raises(InputError):
        FinDimAlgebra.from_json({"dim": 2})
    # constants and dim are exact: ints and "p/q" strings only
    doc = ground_field().to_json()
    for key, bad in (("dim", 1.0), ("dim", True), ("dim", "1"),
                     ("unit", [1.0]), ("unit", ["1.0"]), ("unit", [True]),
                     ("c", [[["0.5e1"]]]), ("c", [[[0.1]]])):
        with pytest.raises(InputError):
            FinDimAlgebra.from_json(dict(doc, **{key: bad}))
    # the shape is checked before any label is built
    with pytest.raises(InvalidAlgebra):
        FinDimAlgebra.from_json({"dim": 10**12, "c": [[["1"]]], "unit": [1]})


def test_boundary_small_cases():
    z2 = group_algebra_z2()
    # b(g x g) = g.g - g.g = 0
    assert not hochschild_boundary(ChainElement(z2, 1, {(1, 1): 1})).coeffs
    # b(1 x g x g) = g x g - 1 x 1 + g x g, and 1 x 1 is zero in the
    # normalized complex; the bar complex keeps it
    out = hochschild_boundary(ChainElement(z2, 2, {(0, 1, 1): 1}))
    assert out.coeffs == {(1, 1): 2}
    assert bar_boundary(z2, (0, 1, 1)) == {(1, 1): 2, (0, 0): -1}
    m2 = matrix_algebra(2)
    # b(e01 x e10) = e00 - e11
    out = hochschild_boundary(ChainElement(m2, 1, {(1, 2): 1}))
    assert out.coeffs == {(0,): 1, (3,): -1}
    assert bar_boundary(m2, (1, 2)) == {(0,): 1, (3,): -1}
    with pytest.raises(DegreeZero):
        hochschild_boundary(ChainElement(z2, 0, {(1,): 1}))


def test_connes_B_small_cases():
    z2 = group_algebra_z2()
    # B(a0) = 1 x a0
    assert connes_B(ChainElement(z2, 0, {(1,): 1})).coeffs == {(0, 1): 1}
    # B(g x g): the two rotations cancel by sign
    assert not connes_B(ChainElement(z2, 1, {(1, 1): 1})).coeffs


def test_reduced_unit_rewrite():
    z2 = group_algebra_z2()
    # a unit in position >= 1 dies in the normalized complex
    assert not ChainElement(z2, 1, {(1, 0): 1}).coeffs
    # ... but position 0 is kept
    assert ChainElement(z2, 1, {(0, 1): 1}).coeffs == {(0, 1): 1}


def test_complex_identities_random():
    rng = random.Random(7)
    for _ in range(20):
        A = random_algebra(rng)
        for k in (1, 2, 3):
            x = random_chain(rng, A, k)
            if k >= 2:
                assert not hochschild_boundary(hochschild_boundary(x)).coeffs
            assert not connes_B(connes_B(x)).coeffs
            assert not chain_sum(hochschild_boundary(connes_B(x)),
                                 connes_B(hochschild_boundary(x))).coeffs


def test_chain_keys_must_be_basis_indices():
    z2 = group_algebra_z2()
    assert ChainElement(z2, 1, {(1, 1): 1}).coeffs == {(1, 1): 1}
    for key in ((-1, 1), (2, 1), ("a", 1), (1.0, 1), (True, 1), "gg", 3):
        with pytest.raises(InputError):
            ChainElement(z2, 1, {key: 1})
    with pytest.raises(InputError):
        ChainElement(z2, 1, {(1, 1, 1): 1})


def test_identities_on_chains_with_unit_factors():
    """b b = 0, B B = 0 and b B + B b = 0 on chains built from seeded keys
    that each carry the unit pivot somewhere, as the constructor takes them."""
    b, B = hochschild_boundary, connes_B
    rng = random.Random(43)
    # one algebra of each family in this file, the sheared ones included
    for A in (ground_field(), product_of_fields(2), product_of_fields(3),
              group_algebra_z2(), dual_numbers(), upper_triangular2(),
              matrix_algebra(2), convolution_algebra(pair_groupoid(3)),
              change_of_basis(product_of_fields(3), SHEAR_Q3),
              change_of_basis(matrix_algebra(2), SHEAR_M2)):
        for k in (0, 1, 2):
            for _ in range(4):
                coeffs = {}
                for _ in range(3):
                    key = [rng.randrange(A.dim) for _ in range(k + 1)]
                    key[rng.randrange(k + 1)] = A.unit_pivot
                    key = tuple(key)
                    coeffs[key] = coeffs.get(key, 0) + rng.randint(-3, 3)
                x = ChainElement(A, k, coeffs)
                if k >= 2:
                    assert not b(b(x)).coeffs
                assert not B(B(x)).coeffs
                bB = b(B(x))
                Bb = B(b(x)) if k else ChainElement(A, 0)
                assert not chain_sum(bB, Bb).coeffs


def dense_rank(columns, nrows):
    """Rank by Gaussian elimination on the dense matrix of Fractions."""
    M = [[Fraction(0)] * len(columns) for _ in range(nrows)]
    for c, col in enumerate(columns):
        for r, v in col.items():
            M[r][c] = v
    rank = 0
    for c in range(len(columns)):
        piv = next((r for r in range(rank, nrows) if M[r][c] != 0), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        top = M[rank]
        tail = [(j, x / top[c]) for j, x in enumerate(top) if j > c and x]
        for r in range(rank + 1, nrows):
            g = M[r][c]
            if g:
                row = M[r]
                for j, x in tail:
                    row[j] -= g * x
        rank += 1
    return rank


def bar_boundary(A, key):
    """b of one basis tensor of the full bar complex, as {tensor: coeff},
    read straight off the structure constants A.c."""
    n = len(key) - 1
    faces = [(key[:i], key[i], key[i + 1], key[i + 2:], (-1) ** i)
             for i in range(n)]
    faces.append(((), key[n], key[0], key[1:n], (-1) ** n))
    out = {}
    for head, a, b, tail, sign in faces:
        for t, v in enumerate(A.c[a][b]):
            if v:
                term = head + (t,) + tail
                out[term] = out.get(term, 0) + sign * v
    return {term: v for term, v in out.items() if v}


def _boundary_columns(A, k):
    """Columns of d_k : C_k -> C_{k-1} on the full bar complex, indexed by
    the lexicographic position of the target tensors."""
    D = A.dim
    cols = []
    for key in product(range(D), repeat=k + 1):
        col = {}
        for t, v in bar_boundary(A, key).items():
            row = 0
            for i in t:
                row = row * D + i
            col[row] = v
        cols.append(col)
    return cols


def hh_ranks_dense(A, up_to):
    """HH ranks of the full bar complex by dense elimination."""
    D = A.dim
    rank_d = [0]
    for k in range(1, up_to + 2):
        rank_d.append(dense_rank(_boundary_columns(A, k), D ** k))
    return [D ** (k + 1) - rank_d[k] - rank_d[k + 1] for k in range(up_to + 1)]


def commutator_hh0(A):
    """dim A - rank of span{e_i e_j - e_j e_i}."""
    cols = []
    for i in range(A.dim):
        for j in range(A.dim):
            v = [a - b for a, b in zip(A.c[i][j], A.c[j][i])]
            cols.append({r: x for r, x in enumerate(v) if x != 0})
    return A.dim - dense_rank(cols, A.dim)


def test_hh_ranks_known():
    assert hh_ranks(ground_field(), 3) == [1, 0, 0, 0]
    assert hh_ranks(product_of_fields(2), 3) == [2, 0, 0, 0]
    assert hh_ranks(group_algebra_z2(), 3) == [2, 0, 0, 0]
    assert hh_ranks(dual_numbers(), 3) == [2, 1, 1, 1]
    assert hh_ranks(upper_triangular2(), 2) == [2, 0, 0]
    assert hh_ranks(matrix_algebra(2), 3) == [1, 0, 0, 0]


def test_hh_ranks_dense_oracle_and_hh0():
    rng = random.Random(13)
    for _ in range(6):
        A = random_algebra(rng)
        up_to = 2 if A.dim <= 3 else 1
        assert hh_ranks(A, up_to) == hh_ranks_dense(A, up_to)
        assert hh_ranks(A, 0)[0] == commutator_hh0(A)


def test_hh_ranks_invariant_under_base_change():
    rng = random.Random(17)
    for base in (dual_numbers(), group_algebra_z2(), upper_triangular2()):
        A = change_of_basis(base, random_invertible(rng, base.dim))
        assert hh_ranks(A, 2) == hh_ranks(base, 2)


# changes of basis after which the unit is no basis vector and its pivot
# coordinate u_p is not 1: u = (1/3, 2/3, 1/3) and (1/2, -1/2, 0, 1)
SHEAR_Q3 = [[2, 1, 0], [0, 1, 0], [1, 0, 3]]
SHEAR_M2 = [[2, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def test_hh_ranks_match_full_complex_off_unit_basis():
    for base, P, up_to in ((product_of_fields(3), SHEAR_Q3, 4),
                           (matrix_algebra(2), SHEAR_M2, 3)):
        A = change_of_basis(base, P)
        assert sum(1 for u in A.unit if u) > 1
        assert A.unit[A.unit_pivot] != 1
        assert hh_ranks(A, up_to) == hh_ranks_dense(A, up_to) \
            == hh_ranks(base, up_to)


def test_sparse_rank_matches_dense_rank():
    rng = random.Random(29)

    def entry():
        if rng.random() < 0.3:
            return Fraction(rng.randint(-10 ** 30, 10 ** 30),
                            rng.randint(1, 10 ** 20))
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    for _ in range(150):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 9)
        density = rng.choice((0.2, 0.5, 0.9))
        cols = []
        for _ in range(ncols):
            roll = rng.random()
            if roll < 0.1:
                cols.append({})
            elif roll < 0.3 and cols:
                # a repeat, or a multiple, of an earlier column
                f = rng.choice((1, -1, entry()))
                cols.append({r: f * v for r, v in rng.choice(cols).items()
                             if f * v})
            else:
                col = {r: entry() for r in range(nrows)
                       if rng.random() < density}
                cols.append({r: v for r, v in col.items() if v})
        rng.shuffle(cols)
        assert _sparse_rank(cols) == dense_rank(cols, nrows)


def _first_associativity_failure(c, d):
    """The message of the first (i, j, k) where (e_i e_j) e_k and
    e_i (e_j e_k) differ, by the dense O(d^5) loop."""
    for i, j, k, l in product(range(d), repeat=4):
        lhs = sum(c[i][j][t] * c[t][k][l] for t in range(d))
        rhs = sum(c[j][k][t] * c[i][t][l] for t in range(d))
        if lhs != rhs:
            return f"associativity fails at ({i},{j},{k})"
    return None


def test_check_rejects_one_perturbed_constant():
    rng = random.Random(31)
    for A in (matrix_algebra(2), convolution_algebra(pair_groupoid(3)),
              change_of_basis(product_of_fields(3), SHEAR_Q3)):
        d = A.dim
        FinDimAlgebra(d, A.c, A.unit)
        cells = list(product(range(d), repeat=3))
        nonzero = [x for x in cells if A.c[x[0]][x[1]][x[2]] != 0]
        zero = [x for x in cells if A.c[x[0]][x[1]][x[2]] == 0]
        # the unit law never reads a product of two basis vectors off the
        # unit's support, so only associativity can reject those changes
        off_unit = [x for x in cells if A.unit[x[0]] == A.unit[x[1]] == 0]
        picks = [rng.choice(nonzero), rng.choice(zero)]
        picks += [rng.choice([x for x in pool if x in off_unit])
                  for pool in (nonzero, zero) if set(pool) & set(off_unit)]
        for i, j, t in picks:
            c = [[list(col) for col in row] for row in A.c]
            c[i][j][t] += rng.choice((1, -1, Fraction(1, 2)))
            expected = _first_associativity_failure(c, d)
            with pytest.raises(InvalidAlgebra) as err:
                FinDimAlgebra(d, c, A.unit)
            if expected is not None:
                assert str(err.value) == expected


def test_hp_truncated_known():
    for N in (1, 2, 3):
        assert hp_truncated(ground_field(), N) == (1, 0)
        assert hp_truncated(group_algebra_z2(), N) == (2, 0)
        assert hp_truncated(product_of_fields(2), N) == (2, 0)
    with pytest.raises(InputError):
        hp_truncated(ground_field(), 0)


def test_hp_truncated_ranks_each_differential_once(monkeypatch):
    shapes = []

    def counting_rank(columns):
        columns = list(columns)
        shapes.append(len(columns))
        return _sparse_rank(columns)

    monkeypatch.setattr(hochschild, "_sparse_rank", counting_rank)
    assert hp_truncated(matrix_algebra(2), 2, 4) == (1, 0)
    # d_{-1}, d_0 and d_1 of the total complex, one rank each
    assert sorted(shapes) == [12, 40, 120]
    # HH: b_1, b_2 and b_3 of the normalized complex, one rank each; the
    # map out of C_0 has no target and is not built
    shapes.clear()
    assert hh_ranks(matrix_algebra(2), 2) == [1, 0, 0]
    assert sorted(shapes) == [12, 36, 108]


def test_hp_truncated_invariant_under_base_change():
    rng = random.Random(17)
    pairs = [(base, change_of_basis(base, random_invertible(rng, base.dim)))
             for base in (dual_numbers(), group_algebra_z2(),
                          upper_triangular2())]
    pairs += [(base, change_of_basis(base, P))
              for base, P in ((product_of_fields(3), SHEAR_Q3),
                              (matrix_algebra(2), SHEAR_M2))]
    for base, A in pairs:
        for N in (1, 2):
            assert hp_truncated(A, N) == hp_truncated(base, N)


def test_inexact_numbers_are_refused():
    """Coefficients are ints, Fractions or "p"/"p/q" strings; degrees,
    sizes and truncation orders are ints; anything else is an InputError."""
    z2 = group_algebra_z2()
    doc = z2.to_json()
    for x in (1, Fraction(-1, 2), "-1/2"):
        assert ChainElement(z2, 1, {(1, 1): x}).coeffs == {(1, 1): Fraction(x)}
    assert FinDimAlgebra(1, [[[Fraction(1)]]], ["1"]).unit == [1]
    for bad in (0.5, True, "x", "0.5", 2.5):
        for call in (lambda: ChainElement(z2, 1, {(1, 1): bad}),
                     lambda: FinDimAlgebra(2, doc["c"], [bad, 0]),
                     lambda: FinDimAlgebra(1, [[[bad]]], [1]),
                     lambda: FinDimAlgebra.from_json({**doc, "unit": [bad, 0]}),
                     lambda: ChainElement(z2, bad, {}),
                     lambda: FinDimAlgebra(bad, doc["c"], doc["unit"]),
                     lambda: hh_ranks(z2, bad),
                     lambda: hp_truncated(z2, bad),
                     lambda: hp_truncated(z2, 1, bad)):
            with pytest.raises(InputError):
                call()


def test_hp_truncated_needs_degrees_up_to_2n_minus_1():
    m2 = matrix_algebra(2)
    assert hp_truncated(m2, 2) == hp_truncated(m2, 2, 4) == (1, 0)
    for up_to in (3, 4):
        with pytest.raises(InputError):
            hp_truncated(m2, 3, up_to)


def test_size_and_degree_guards():
    degree, size = "degrees beyond 6 are out of range", "chain space dimension"
    with pytest.raises(ComplexTooLarge, match=degree):
        hh_ranks(ground_field(), 7)
    with pytest.raises(ComplexTooLarge, match=size + " 9\\^8 exceeds 100000"):
        hh_ranks(matrix_algebra(3), 6)
    with pytest.raises(ComplexTooLarge, match=size + " 9\\^7 exceeds 100000"):
        hp_truncated(matrix_algebra(3), 3)
    # past both caps, the degree is refused first
    for call in (lambda: hh_ranks(matrix_algebra(3), 7),
                 lambda: hp_truncated(matrix_algebra(3), 4)):
        with pytest.raises(ComplexTooLarge, match=degree):
            call()


def test_pair_groupoid_is_matrix_algebra():
    A = convolution_algebra(pair_groupoid(2))
    M = matrix_algebra(2)
    assert A.dim == M.dim and A.unit == M.unit
    # arrows (a, b) in pair_groupoid order vs matrix units e_ab: identical
    # multiplication tables under the common lexicographic indexing
    assert A.c == M.c
    assert hh_ranks(A, 2) == [1, 0, 0]


def test_group_as_groupoid():
    G = FiniteGroupoid(["*"], ["e", "g"],
                       {"e": "*", "g": "*"}, {"e": "*", "g": "*"},
                       {("e", "e"): "e", ("e", "g"): "g",
                        ("g", "e"): "g", ("g", "g"): "e"})
    A = convolution_algebra(G)
    assert A.c == group_algebra_z2().c
    assert A.unit == group_algebra_z2().unit


def test_invalid_groupoids():
    with pytest.raises(InvalidGroupoid):
        FiniteGroupoid(["*"], ["e"], {"e": "x"}, {"e": "*"}, {("e", "e"): "e"})
    with pytest.raises(InvalidGroupoid, match="is not an arrow"):
        FiniteGroupoid([0], ["e"], {"e": 0}, {"e": 0}, {("e", "e"): "zzz"})
    with pytest.raises(InvalidGroupoid):
        # missing composite of composable arrows
        FiniteGroupoid(["*"], ["e", "g"],
                       {"e": "*", "g": "*"}, {"e": "*", "g": "*"},
                       {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g"})
    with pytest.raises(InvalidGroupoid):
        # no inverse for g (monoid, not groupoid)
        FiniteGroupoid(["*"], ["e", "g"],
                       {"e": "*", "g": "*"}, {"e": "*", "g": "*"},
                       {("e", "e"): "e", ("e", "g"): "g",
                        ("g", "e"): "g", ("g", "g"): "g"})
