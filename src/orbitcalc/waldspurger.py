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

:func:`waldspurger` is the one place that checks the factors, builds xi
and checks the image, and it caches the image.  :func:`xi_vector` reads
xi = W - lam1 - lam2 and its index sets off that cached image, so a caller
that wants both pays for one transfer.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from itertools import zip_longest
from operator import add, ge
from typing import NamedTuple

from .partitions import GroupType, Partition, _new, orbit_problem


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

    __hash__ = object.__hash__  # as for GroupType


class XiVector(NamedTuple):
    """Correction vector with its supporting index sets (1-based)."""

    entries: tuple[int, ...]
    j_plus: tuple[int, ...]
    j_minus: tuple[int, ...]


def _correction(lam1: Partition, lam2: Partition, pair: PairType, d: int) -> list[int]:
    """The entries of xi at j = 1 .. max(len(lam1), len(lam2)), for factors
    already checked and the target size ``d``: +1 on J+, -1 on J-, 0
    elsewhere."""
    e1, e2 = pair.eps
    k = max(len(lam1), len(lam2))
    # lam_{1,j} and lam_{2,j} at j = 0 .. k + 1, and their sums
    row1 = (0,) + lam1 + (0,) * (k + 1 - len(lam1))
    row2 = (0,) + lam2 + (0,) * (k + 1 - len(lam2))
    sums = list(map(add, row1, row2))
    entries = []
    for j in range(1, k + 1):
        value = 0
        if row1[j] % 2 == e1 and row2[j] % 2 == e2:
            here = sums[j]
            if j % 2 == (d + 1) % 2:
                if j == 1 or sums[j - 1] > here:
                    value = 1
            elif here > sums[j + 1]:
                value = -1
        entries.append(value)
    return entries


@lru_cache(maxsize=None)
def waldspurger(lam1: Partition, lam2: Partition, pair: PairType) -> Partition:
    """Image partition lam1 + lam2 + xi; a member of the target type, not
    necessarily special.  The inputs must be special of the factor types of
    ``pair``; the correction vector and the image are both checked."""
    for which, (lam, t) in enumerate(zip((lam1, lam2), pair.factor_types), 1):
        problem = orbit_problem(lam, t, special=True)
        if problem:
            raise ValueError(f"factor {which} {problem}")
    d1, d2 = sum(lam1), sum(lam2)
    d = pair.total_size(d1, d2)
    entries = _correction(lam1, lam2, pair, d)
    if sum(entries) != d - d1 - d2:
        raise RuntimeError(
            f"transfer correction is not size-preserving for "
            f"({lam1}, {lam2}) of pair type {pair}: xi={entries}"
        )
    values = [x + y + e for x, y, e in zip_longest(lam1, lam2, entries, fillvalue=0)]
    if not all(map(ge, values, values[1:])):
        raise RuntimeError(
            f"transfer image of ({lam1}, {lam2}) is not weakly "
            f"decreasing: {values} (xi={tuple(entries)})"
        )
    if values and values[-1] < 0:
        raise RuntimeError(
            f"transfer image of ({lam1}, {lam2}) has a negative part: {values}"
        )
    # decreasing and not negative, so with its trailing zeros dropped the
    # image is a partition as the constructor would build it
    while values and values[-1] == 0:
        values.pop()
    result = _new(Partition, values)
    if sum(result) != d or orbit_problem(result, pair.target):
        raise RuntimeError(
            f"transfer image {result} of ({lam1}, {lam2}) is not a "
            f"type-{pair.target} partition of {d}"
        )
    return result


def xi_vector(lam1: Partition, lam2: Partition, pair: PairType) -> XiVector:
    """Correction vector for the pair; inputs must be special of the
    factor types of ``pair``.  Read off the image of :func:`waldspurger`,
    which checks the factors and builds xi: its entries are
    W_j - lam_{1,j} - lam_{2,j} for j = 1 .. max(len(lam1), len(lam2)),
    and J+ (J-) holds the j whose entry is +1 (-1)."""
    image = waldspurger(lam1, lam2, pair)
    entries = []
    j_plus: list[int] = []
    j_minus: list[int] = []
    # the image is no longer than the longer factor
    for j, (w, x, y) in enumerate(zip_longest(image, lam1, lam2, fillvalue=0), 1):
        value = w - x - y
        entries.append(value)
        if value:
            (j_plus if value > 0 else j_minus).append(j)
    return XiVector(tuple(entries), tuple(j_plus), tuple(j_minus))
