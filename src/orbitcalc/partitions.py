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
import re
from functools import lru_cache
from itertools import accumulate, zip_longest
from operator import le
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
        return self.count(k)

    def part(self, j: int) -> int:
        """1-based part access; out-of-range indices read as 0."""
        return self[j - 1] if 1 <= j <= len(self) else 0

    def __str__(self) -> str:
        return ",".join(str(p) for p in self)

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"


# ``_new(Partition, parts)`` skips the sort and the checks: only for parts
# that are positive ints in decreasing order, as in :func:`transpose` (run
# lengths), :func:`union` (a sorted concatenation), :func:`add` (the sum of
# two decreasing sequences) and :func:`partitions_of` (a decreasing walk).
_new = tuple.__new__


class Classification(NamedTuple):
    member: bool
    special: bool


class Record:
    """Base of the immutable value classes ``Bipartition``, ``Symbol``,
    ``Summand`` and ``AParameterShape``.

    A subclass names its fields in ``_fields``.  Its ``__init__`` checks
    and normalises its arguments and then sets each field, and any derived
    value, once with ``object.__setattr__``; :meth:`_trusted` is the only
    other way to build one.  After that, assigning or deleting any
    attribute raises AttributeError.  The repr lists the fields by name.
    Equality and hashing go by ``_key()``, the tuple of the fields unless a
    subclass says otherwise, and never hold across classes.
    """

    _fields: tuple[str, ...]

    @classmethod
    def _trusted(cls, *values: object) -> Record:
        """An instance whose ``_fields`` are ``values``, in order, built
        without ``__init__``: nothing is checked, normalised or derived, so
        only for values that ``__init__`` would store unchanged.  It builds
        the results of ``Bipartition.padded`` (leading zeros keep the rows
        weakly increasing and the type-D orientation), ``symbol_of`` (the
        staircase 0, 1, 2, ... makes a weakly increasing row strictly
        increasing) and the enumerated shapes of ``shapes_for`` and the
        chain sweep (their walk yields only sorted, valid summands).  The
        fields are set as ``__init__`` sets them, so the instance is as
        compact as a checked one."""
        obj = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(obj, name, value)
        return obj

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


MAX_INPUT_SIZE = 100_000


def check_input_size(what: str, size: int) -> None:
    """Reject a parsed size above :data:`MAX_INPUT_SIZE`, which bounds the
    memory and time that a command spends on typed input."""
    if size > MAX_INPUT_SIZE:
        raise ValueError(f"{what} {size} exceeds the limit {MAX_INPUT_SIZE}")


_INT_RE = re.compile(r"-?[0-9]+")


def parse_int(token: str) -> int:
    """The integer written by a stripped token of ASCII digits with an
    optional leading '-'; ValueError for any other token, including those
    that ``int`` also reads, such as '+3', '1_0' or non-ASCII digits."""
    if _INT_RE.fullmatch(token) is None:
        raise ValueError(f"invalid integer {token!r}")
    return int(token)


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated list of positive integers ("" = empty)."""
    text = text.strip()
    if not text:
        return Partition()
    parts = []
    for token in text.split(","):
        token = token.strip()
        try:
            value = parse_int(token)
        except ValueError:
            raise ValueError(f"invalid partition part {token!r}") from None
        if value < 1:
            raise ValueError(f"partition part must be positive, got {value}")
        parts.append(value)
    check_input_size("partition size", sum(parts))
    return Partition(parts)


def transpose(lam: Partition) -> Partition:
    """Transpose (conjugate) of the Young diagram; an involution.

    By run lengths: for k = len(lam) down to 1 the transpose has
    lam_k - lam_{k+1} parts equal to k, which come out in decreasing order.
    """
    below = lam[1:] + (0,)
    cols: list[int] = []
    for k in range(len(lam), 0, -1):
        cols += [k] * (lam[k - 1] - below[k - 1])
    return _new(Partition, cols)


def union(lam1: Partition, lam2: Partition) -> Partition:
    """Multiset union: part multiplicities add."""
    return _new(Partition, sorted(lam1 + lam2, reverse=True))


def add(lam1: Partition, lam2: Partition) -> Partition:
    """Componentwise sum after zero-padding the shorter partition."""
    return _new(
        Partition, [a + b for a, b in zip_longest(lam1, lam2, fillvalue=0)]
    )


def dominance_leq(lam: Partition, mu: Partition) -> bool:
    """Dominance order on partitions of equal size: every prefix sum of
    ``lam`` is at most the corresponding prefix sum of ``mu``.

    Comparing only the first min(len(lam), len(mu)) prefix sums is enough:
    past the end of ``mu`` its prefix sum is the whole size, and when
    ``lam`` ends first its last prefix sum is the whole size, above that
    of ``mu``, whose remaining parts are positive."""
    size_l, size_m = sum(lam), sum(mu)
    if size_l != size_m:
        raise ValueError(f"dominance needs equal sizes, got {size_l} and {size_m}")
    return all(map(le, accumulate(lam), accumulate(mu)))


def is_orthogonal(lam: Partition) -> bool:
    """Every even part appears an even number of times."""
    return all(lam.count(p) % 2 == 0 for p in set(lam) if p % 2 == 0)


def is_symplectic(lam: Partition) -> bool:
    """Every odd part appears an even number of times."""
    return all(lam.count(p) % 2 == 0 for p in set(lam) if p % 2 == 1)


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
            out.append(_new(Partition, prefix))
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
