"""Core partition calculus for nilpotent orbits of split classical groups.

Partitions are the universal carrier here: nilpotent orbits of so_{2n+1},
sp_{2n} and so_{2n} correspond to orthogonal/symplectic partitions of the
matching size, and every higher-level map in this package (duality,
endoscopic transfer, symbols, wavefronts) is built from the operations in
this module.

Conventions:
    * a partition is weakly decreasing with trailing zeros dropped;
    * indexed reads beyond the length give 0 (``Partition.part``);
    * "orthogonal" means every even part has even multiplicity,
      "symplectic" means every odd part has even multiplicity.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from itertools import zip_longest
from typing import Iterable, NamedTuple


class GroupType(enum.Enum):
    """Split classical type: B = SO_{2n+1}, C = Sp_{2n}, D = SO_{2n}.

    Each member carries its facts as plain attributes: ``size_parity``, the
    parity of the defining module (odd for B, even for C and D);
    ``orthogonal``, True for the orthogonal families B and D; and ``dual``,
    the type of the dual group (B <-> C, D -> D).
    """

    B = "B"
    C = "C"
    D = "D"

    def __init__(self, letter: str) -> None:
        self.size_parity = int(letter == "B")
        self.orthogonal = letter != "C"

    def __str__(self) -> str:
        return self.value


GroupType.B.dual, GroupType.C.dual, GroupType.D.dual = (
    GroupType.C, GroupType.B, GroupType.D
)


class Partition(tuple):
    """Weakly decreasing tuple of positive integers.

    Instances are plain tuples (hashable, iterable, comparable); the
    constructor sorts its input and drops zeros, so any multiset of
    non-negative integers is accepted.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        cleaned = sorted(parts, reverse=True)
        for p in cleaned:
            if type(p) is not int:
                raise ValueError(f"partition part {p!r} is not an integer")
            if p < 0:
                raise ValueError(f"partition part {p} is negative")
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        return super().__new__(cls, cleaned)

    @property
    def size(self) -> int:
        return sum(self)

    def multiplicity(self, k: int) -> int:
        """Number of parts equal to k (k must be positive)."""
        if k < 1:
            raise ValueError(f"part value must be positive, got {k}")
        return sum(1 for p in self if p == k)

    def part(self, j: int) -> int:
        """1-based part access; out-of-range indices read as 0."""
        return self[j - 1] if 1 <= j <= len(self) else 0

    def __str__(self) -> str:
        return ",".join(str(p) for p in self)

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"


class Classification(NamedTuple):
    member: bool
    special: bool


MAX_INPUT_SIZE = 100_000


def check_input_size(what: str, size: int) -> None:
    """Reject a parsed size above :data:`MAX_INPUT_SIZE`, which bounds the
    memory and time that a command spends on typed input."""
    if size > MAX_INPUT_SIZE:
        raise ValueError(f"{what} {size} exceeds the limit {MAX_INPUT_SIZE}")


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated list of positive integers ("" = empty)."""
    text = text.strip()
    if not text:
        return Partition()
    parts = []
    for token in text.split(","):
        token = token.strip()
        try:
            value = int(token)
        except ValueError:
            raise ValueError(f"invalid partition part {token!r}") from None
        if value < 1:
            raise ValueError(f"partition part must be positive, got {value}")
        parts.append(value)
    return Partition(parts)


def transpose(lam: Partition) -> Partition:
    """Transpose (conjugate) of the Young diagram; an involution."""
    if not lam:
        return lam
    cols = [0] * lam[0]
    for p in lam:
        for i in range(p):
            cols[i] += 1
    return Partition(cols)


def union(lam1: Partition, lam2: Partition) -> Partition:
    """Multiset union: part multiplicities add."""
    return Partition(tuple(lam1) + tuple(lam2))


def add(lam1: Partition, lam2: Partition) -> Partition:
    """Componentwise sum after zero-padding the shorter partition."""
    return Partition(a + b for a, b in zip_longest(lam1, lam2, fillvalue=0))


def dominance_leq(lam: Partition, mu: Partition) -> bool:
    """Dominance order on partitions of equal size: every prefix sum of
    ``lam`` is at most the corresponding prefix sum of ``mu``."""
    if lam.size != mu.size:
        raise ValueError(
            f"dominance needs equal sizes, got {lam.size} and {mu.size}"
        )
    sum_l = sum_m = 0
    for a, b in zip_longest(lam, mu, fillvalue=0):
        sum_l += a
        sum_m += b
        if sum_l > sum_m:
            return False
    return True


def is_orthogonal(lam: Partition) -> bool:
    """Every even part appears an even number of times."""
    return all(lam.multiplicity(p) % 2 == 0 for p in set(lam) if p % 2 == 0)


def is_symplectic(lam: Partition) -> bool:
    """Every odd part appears an even number of times."""
    return all(lam.multiplicity(p) % 2 == 0 for p in set(lam) if p % 2 == 1)


def _check_parity(d: int, t: GroupType) -> None:
    if d % 2 != t.size_parity:
        raise ValueError(f"size {d} has the wrong parity for type {t}")


def _is_member(lam: Partition, t: GroupType) -> bool:
    return is_orthogonal(lam) if t.orthogonal else is_symplectic(lam)


def _member_is_special(lam: Partition, t: GroupType) -> bool:
    lt = transpose(lam)
    return is_orthogonal(lt) if t is GroupType.B else is_symplectic(lt)


def classify(lam: Partition, t: GroupType) -> Classification:
    """Membership and specialness of ``lam`` for type ``t``.

    Membership is the orthogonal condition for B and D, the symplectic one
    for C.  A member is special when its transpose is symplectic (types C
    and D) or orthogonal (type B); special partitions are exactly the fixed
    points of the double duality map, which the harness cross-checks.
    """
    _check_parity(lam.size, t)
    if not _is_member(lam, t):
        return Classification(False, False)
    return Classification(True, _member_is_special(lam, t))


def orbit_problem(lam: Partition, t: GroupType, special: bool = False) -> str | None:
    """Input-error text when ``lam`` is no type-``t`` partition or, with
    ``special``, no special one; None otherwise.  A size of the wrong parity
    raises ValueError, as in :func:`classify`."""
    _check_parity(lam.size, t)
    if not _is_member(lam, t):
        return f"{str(lam)!r} is not a type-{t} partition"
    if special and not _member_is_special(lam, t):
        return f"{str(lam)!r} is not special for type {t}"
    return None


def collapse(lam: Partition, t: GroupType) -> Partition:
    """Largest partition of type ``t`` dominated by ``lam``.

    Greedy box moves: while some part of the offending parity (even parts
    for B/D, odd for C) has odd multiplicity, take the largest such value q,
    lower its last occurrence by one and raise the first part smaller than
    q-1 by one (appending a part 1 when there is none).  Each move strictly
    lowers the partition in dominance and lands on the unique maximum.
    """
    _check_parity(lam.size, t)
    bad_parity = 0 if t.orthogonal else 1
    parts = list(lam)
    while True:
        counts: dict[int, int] = {}
        for p in parts:
            counts[p] = counts.get(p, 0) + 1
        q = max(
            (p for p, c in counts.items() if p % 2 == bad_parity and c % 2 == 1),
            default=0,
        )
        if q == 0:
            break
        # q = 1 would need a second odd violator of larger value, so the
        # decremented part never vanishes.
        assert q >= 2, lam
        last = len(parts) - 1 - parts[::-1].index(q)
        parts[last] -= 1
        for j, p in enumerate(parts):
            if p < q - 1:
                parts[j] += 1
                break
        else:
            parts.append(1)
    return Partition(parts)


@lru_cache(maxsize=None)
def partitions_of(d: int) -> tuple[Partition, ...]:
    """All partitions of d in lexicographically decreasing order."""
    if d == 0:
        return (Partition(),)
    out: list[Partition] = []

    def descend(remaining: int, bound: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for p in range(min(bound, remaining), 0, -1):
            prefix.append(p)
            descend(remaining - p, p, prefix)
            prefix.pop()

    descend(d, d, [])
    return tuple(out)


def enumerate_partitions(
    d: int, t: GroupType, special_only: bool = False
) -> list[Partition]:
    """All type-``t`` partitions of d, lexicographically decreasing."""
    if d < 0:
        raise ValueError("size must be non-negative")
    _check_parity(d, t)
    result = []
    for lam in partitions_of(d):
        cls = classify(lam, t)
        if cls.member and (cls.special or not special_only):
            result.append(lam)
    return result
