"""Endoscopic orbit transfer on the partition level.

A pair of special orbits for an endoscopic pair (H_1, H_2) inside H of type
(B,B), (C,D) or (D,D) is sent to an orbit of H by

    W(lam1, lam2) = lam1 + lam2 + xi,

where xi is a vector of -1/0/+1 corrections supported on the index sets
J+ and J-.  An index j (1-based) belongs to J+ when

    * j = d+1 mod 2 (d = size of the target partition),
    * lam_{1,j} = eps_1 and lam_{2,j} = eps_2 mod 2 (eps_i = 1 for an
      orthogonal factor, 0 for a symplectic one),
    * j = 1, or the sums lam_{1,j-1}+lam_{2,j-1} > lam_{1,j}+lam_{2,j};

J- is the analogue with j = d mod 2 and the right-hand boundary condition
lam_{1,j}+lam_{2,j} > lam_{1,j+1}+lam_{2,j+1}.  Indices run to the last j
with lam_{1,j}+lam_{2,j} > 0; reads beyond a partition's length are 0.

The inputs must be special; well-definedness of the result (a partition of
the right size and type) is asserted, not assumed, and violations abort
with a diagnostic.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import NamedTuple

from .partitions import GroupType, Partition, orbit_problem


class PairType(enum.Enum):
    """Endoscopic pair type; the value names the two factor types.

    Each member carries its facts as plain attributes: ``factor_types``, the
    types of the two factors; ``target``, the type of H, which is the type of
    the first factor; and ``eps``, 1 per orthogonal factor and 0 per
    symplectic one.
    """

    BB = "BB"
    CD = "CD"
    DD = "DD"

    def __init__(self, letters: str) -> None:
        t1, t2 = map(GroupType, letters)
        self.factor_types = (t1, t2)
        self.target = t1
        self.eps = (int(t1.orthogonal), int(t2.orthogonal))

    def total_size(self, d1: int, d2: int) -> int:
        """d = d1+d2-1 for (B,B), d1+d2 otherwise."""
        return d1 + d2 - self.target.size_parity

    def __str__(self) -> str:
        return self.value


class XiVector(NamedTuple):
    """Correction vector with its supporting index sets (1-based)."""

    entries: tuple[int, ...]
    j_plus: tuple[int, ...]
    j_minus: tuple[int, ...]


def xi_vector(lam1: Partition, lam2: Partition, pair: PairType) -> XiVector:
    """Correction vector for the pair; inputs must be special of the
    factor types of ``pair``."""
    for which, (lam, t) in enumerate(zip((lam1, lam2), pair.factor_types), 1):
        problem = orbit_problem(lam, t, special=True)
        if problem:
            raise ValueError(f"factor {which} {problem}")
    d = pair.total_size(lam1.size, lam2.size)
    e1, e2 = pair.eps
    k = max(len(lam1), len(lam2))
    entries = []
    j_plus: list[int] = []
    j_minus: list[int] = []
    for j in range(1, k + 1):
        x, y = lam1.part(j), lam2.part(j)
        value = 0
        if x % 2 == e1 and y % 2 == e2:
            here = x + y
            if j % 2 == (d + 1) % 2:
                if j == 1 or lam1.part(j - 1) + lam2.part(j - 1) > here:
                    value = 1
                    j_plus.append(j)
            else:
                if here > lam1.part(j + 1) + lam2.part(j + 1):
                    value = -1
                    j_minus.append(j)
        entries.append(value)
    if sum(entries) != d - lam1.size - lam2.size:
        raise RuntimeError(
            f"transfer correction is not size-preserving for "
            f"({lam1}, {lam2}) of pair type {pair}: xi={entries}"
        )
    return XiVector(tuple(entries), tuple(j_plus), tuple(j_minus))


def _transfer(
    lam1: Partition, lam2: Partition, pair: PairType
) -> tuple[Partition, XiVector]:
    """The image partition of :func:`waldspurger` and the correction vector
    it was built from, both checked."""
    xi = xi_vector(lam1, lam2, pair)
    values = [
        lam1.part(j) + lam2.part(j) + xi.entries[j - 1]
        for j in range(1, len(xi.entries) + 1)
    ]
    for u, v in zip(values, values[1:]):
        if u < v:
            raise RuntimeError(
                f"transfer image of ({lam1}, {lam2}) is not weakly "
                f"decreasing: {values} (xi={xi.entries})"
            )
    if values and values[-1] < 0:
        raise RuntimeError(
            f"transfer image of ({lam1}, {lam2}) has a negative part: {values}"
        )
    result = Partition(values)
    d = pair.total_size(lam1.size, lam2.size)
    if result.size != d or orbit_problem(result, pair.target):
        raise RuntimeError(
            f"transfer image {result} of ({lam1}, {lam2}) is not a "
            f"type-{pair.target} partition of {d}"
        )
    return result, xi


@lru_cache(maxsize=None)
def waldspurger(lam1: Partition, lam2: Partition, pair: PairType) -> Partition:
    """Image partition lam1 + lam2 + xi; a member of the target type, not
    necessarily special."""
    return _transfer(lam1, lam2, pair)[0]
