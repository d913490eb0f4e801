"""Duality for nilpotent orbits of split classical groups.

The duality map d sends orthogonal partitions of 2n+1 to symplectic
partitions of 2n and back, and orthogonal partitions of 2n to themselves:

    d(lam) = C-collapse of (lam^t)^-   for type B input,
             B-collapse of (lam^t)^+   for type C input,
             D-collapse of lam^t       for type D input,

where the minus/plus adjustment lowers the smallest (raises the largest)
positive part by one.  The image consists exactly of the special
partitions, and lam <= d(d(lam)) with equality iff lam is special.

Orbit dimensions use the standard centralizer count for classical Lie
algebras: dim Z = (sum of squared transpose parts +/- #odd parts) / 2 with
the plus sign in the symplectic case.
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import GroupType, Partition, collapse, orbit_problem, transpose


@lru_cache(maxsize=None)
def dual_partition(lam: Partition, t: GroupType) -> Partition:
    """Duality map on a type-``t`` partition; the output is special of type
    ``t.dual`` (B <-> C, D -> D)."""
    problem = orbit_problem(lam, t)
    if problem:
        raise ValueError(problem)
    lt = transpose(lam)
    if t is GroupType.B:  # odd size, so lt is not empty
        lt = Partition(lt[:-1] + (lt[-1] - 1,))
    elif t is GroupType.C:
        lt = Partition((lt[0] + 1,) + lt[1:]) if lt else Partition((1,))
    return collapse(lt, t.dual)


def lie_algebra_dim(t: GroupType, size: int) -> int:
    """dim so_m = m(m-1)/2 for B/D, dim sp_m = m(m+1)/2 for C, where
    ``size`` = m is the size of the defining module."""
    if t.orthogonal:
        return size * (size - 1) // 2
    return size * (size + 1) // 2


def orbit_dim(lam: Partition, t: GroupType) -> int:
    """Dimension of the nilpotent orbit with Jordan type ``lam``."""
    problem = orbit_problem(lam, t)
    if problem:
        raise ValueError(problem)
    odd = sum(1 for p in lam if p % 2 == 1)
    squares = sum(c * c for c in transpose(lam))
    twice_centralizer = squares + odd if t is GroupType.C else squares - odd
    assert twice_centralizer % 2 == 0
    dim = lie_algebra_dim(t, lam.size) - twice_centralizer // 2
    assert dim >= 0 and dim % 2 == 0
    return dim
