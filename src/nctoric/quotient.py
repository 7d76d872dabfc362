"""Quotient-construction data for a rational simple polytope: forbidden
coordinate strata, the kernel lattice of the normal matrix, and the moment
vector in kernel coordinates.

The ambient torus moment map carries a factor of pi per coordinate; since
only zero-sets and linear identities are ever tested, that factor is
dropped so all arithmetic stays exact in the field of the offsets, Q or
Q(sqrt(d)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import CodimensionOne, RankDeficient
from .linalg import integer_kernel_basis, transpose
from .polytope import SimplePolytope, normal_data
from .scalars import Scalar, _pair_row, common_field


def forbidden_strata(family, N: int):
    """Inclusion-minimal index sets outside the subset-closed family.

    These index the coordinate subspaces removed from C^N; their minimal
    size must be >= 2, otherwise the halfspace data is degenerate."""
    masks = {sum(1 << i for i in f): f for f in map(frozenset, family)}
    masks.setdefault(0, frozenset())
    return _strata(masks, N)


def _strata(masks, N: int):
    """forbidden_strata of a subset-closed family given as a dict from bit
    masks to frozensets, sorted by size and then as sorted lists.  A
    minimal non-face is F + {j} for a face F and j above every index of F,
    whose one-smaller subsets are all faces while it is not: S is tested
    first, then S minus each bit of F."""
    minimal = []
    for F, face in masks.items():
        for j in range(F.bit_length(), N):
            S = F | 1 << j
            if S in masks:
                continue
            rest = F
            while rest:
                low = rest & -rest
                if S ^ low not in masks:
                    break
                rest ^= low
            else:
                minimal.append(sorted(face) + [j])
    minimal.sort()
    minimal.sort(key=len)
    if minimal and len(minimal[0]) == 1:
        raise CodimensionOne("a single facet index is already forbidden")
    return [frozenset(m) for m in minimal]


def kernel_lattice(rho):
    """Saturated Z-basis of ker(rho^T : Z^N -> Z^n) for full-rank rho: the
    kernel has rank N - n exactly when rho has rank n."""
    n = len(rho[0]) if rho else 0
    # columns: the facet normals; for n = 0 one zero row keeps the N columns
    basis = integer_kernel_basis(transpose(rho) or [[0] * len(rho)])
    if len(basis) != len(rho) - n:
        raise RankDeficient("normal matrix does not have full rank")
    return basis


@dataclass(frozen=True)
class QuotientData:
    N: int
    forbidden_strata: list
    kernel_basis: list
    nu_P: list
    lambda_P: list = field(default=None)


def quotient_data(P: SimplePolytope) -> QuotientData:
    """Forbidden strata, kernel lattice B and the moment vector
    nu_P = B^T (-lambda_P), where B's columns span ker(rho^T)."""
    strata = _strata(P._masks, P.N)
    rho, lam = normal_data(P)
    basis = kernel_lattice(rho)
    d = common_field(lam)
    # each part of an entry is one integer dot product over den
    row, den = _pair_row(lam)
    xs, ys = row[:P.N], row[P.N:]
    nu = []
    for b in basis:
        x = Fraction(-sum(bj * k for bj, k in zip(b, xs) if bj), den)
        y = d and -sum(bj * k for bj, k in zip(b, ys) if bj)
        nu.append(Scalar(x, Fraction(y, den), d) if y else Scalar(x))
    return QuotientData(N=P.N, forbidden_strata=strata, kernel_basis=basis,
                        nu_P=nu, lambda_P=lam)
