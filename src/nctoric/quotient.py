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
from math import lcm

from .errors import CodimensionOne, RankDeficient
from .linalg import integer_kernel_basis, transpose
from .polytope import SimplePolytope, normal_data
from .scalars import Scalar, common_field


def forbidden_strata(family, N: int):
    """Inclusion-minimal index sets outside the subset-closed family.

    These index the coordinate subspaces removed from C^N; their minimal
    size must be >= 2, otherwise the halfspace data is degenerate.  A
    minimal non-face is F + {j} for a face F and j > max(F), whose
    one-smaller subsets are all faces while it is not."""
    fam = {frozenset(I) for I in family} | {frozenset()}
    minimal = []
    for F in fam:
        for j in range(max(F, default=-1) + 1, N):
            S = F | {j}
            if S not in fam and all(S - {i} in fam for i in F):
                minimal.append(S)
    if any(len(m) == 1 for m in minimal):
        raise CodimensionOne("a single facet index is already forbidden")
    return sorted(minimal, key=lambda s: (len(s), sorted(s)))


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
    strata = forbidden_strata(P.incidence, P.N)
    rho, lam = normal_data(P)
    basis = kernel_lattice(rho)
    d = common_field(lam)
    if d:
        # one Fraction sum for the rational part and one for the sqrt(d) part
        nu = [Scalar(-sum(bj * x.a for bj, x in zip(b, lam) if bj),
                     -sum(bj * x.b for bj, x in zip(b, lam) if bj), d)
              for b in basis]
    else:
        # over the common denominator each entry is one integer dot product
        den = lcm(*[x.a.denominator for x in lam])
        num = [x.a.numerator * (den // x.a.denominator) for x in lam]
        nu = [Scalar(Fraction(-sum(bj * k for bj, k in zip(b, num)), den))
              for b in basis]
    return QuotientData(N=P.N, forbidden_strata=strata, kernel_basis=basis,
                        nu_P=nu, lambda_P=lam)
