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

The type guards read these facts off the parts with a few builtin passes.
A partition has the orthogonal (symplectic) condition when its even (odd)
parts, in order, pair up: ``bad[::2] == bad[1::2]``.  Specialness needs no
transpose: the transpose has lam_k - lam_{k+1} parts equal to k, so it is
symplectic (orthogonal) exactly when lam_k and lam_{k+1} have the same
parity for every odd (even) k, with lam_{len+1} = 0.  The transpose itself
and the collapse walk the runs of equal parts, found by bisection, so
their Python-level steps grow with the number of distinct parts.  The
partitions of d are read off the cached smaller sizes: p = d down to 1,
each before the suffix of the partitions of d - p with first part at most
p, so they stay lexicographically decreasing, the order every enumeration,
sweep and golden report depends on.
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate, filterfalse, zip_longest
from operator import le, sub
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

    # members are singletons compared by identity; the identity hash is C
    # code, where Enum.__hash__ hashes the name in Python
    __hash__ = object.__hash__


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
        # a plain loop: on the few parts of a typical partition it is
        # cheaper than a builtin pass such as set(map(type, cleaned))
        for p in cleaned:
            if type(p) is not int:
                raise ValueError(f"partition part {p!r} is not an integer")
            if p < 0:
                raise ValueError(f"partition part {p} is negative")
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        return tuple.__new__(cls, cleaned)

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
# that are positive ints in decreasing order, as in :func:`transpose` (column
# heights), :func:`union` (a sorted concatenation), :func:`add` (the sum of
# two decreasing sequences), :func:`collapse` (runs emitted from the top),
# :func:`partitions_of` (p before parts <= p), ``dual_partition`` (a
# transpose with its last part lowered or its first raised), the checked
# transfer image of ``waldspurger`` and ``jordan_type`` (sorted blocks).
_new = tuple.__new__

_odd = (1).__and__  # p -> p & 1, called from C by map and filter


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
        weakly increasing and the type-D orientation),
        ``springer_bipartition`` (the parity split gives weakly increasing
        rows; their lengths are checked and they are oriented as
        ``__init__`` orients them), ``symbol_of`` (the staircase 0, 1,
        2, ... makes weakly increasing rows strictly increasing and keeps
        their type-D orientation), the enumerated shapes of ``shapes_for``,
        which the chain sweep reads only on its failure walk (their walk
        yields only sorted, valid summands), and the factor shapes of
        ``factor_shapes`` (sorted sub-tuples of a valid shape's summands,
        of the dimension their factor type needs).  The fields are set as
        ``__init__`` sets them, so the instance is as compact as a checked
        one."""
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

    Column k of the diagram holds the parts of size at least k, so a run of
    parts equal to q, with n parts at or above it and the next smaller part
    p (0 below the last), gives q - p columns of height n.  The walk takes
    the runs from the smallest part up, finding each run's end by
    bisection, and so gives the columns in decreasing order with one step
    per distinct part.
    """
    rising = lam[::-1]
    n = len(lam)
    cols: list[int] = []
    start = below = 0
    while start < n:
        q = rising[start]
        cols += [n - start] * (q - below)
        below = q
        start = bisect_right(rising, q, start)
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
    """Every even part appears an even number of times: the even parts,
    in order, pair up, the first with the second and so on."""
    # a list, not a tuple: dead small tuples stay on the interpreter's free
    # lists, about 0.5 MB more after 2 000 large queries
    even = list(filterfalse(_odd, lam))
    return even[::2] == even[1::2]


def is_symplectic(lam: Partition) -> bool:
    """Every odd part appears an even number of times: the odd parts, in
    order, pair up."""
    odd = list(filter(_odd, lam))
    return odd[::2] == odd[1::2]


def _check_parity(d: int, t: GroupType) -> None:
    if d % 2 != t.size_parity:
        raise ValueError(f"size {d} has the wrong parity for type {t}")


def _is_member(lam: Partition, t: GroupType) -> bool:
    return is_orthogonal(lam) if t.orthogonal else is_symplectic(lam)


def _member_is_special(lam: Partition, t: GroupType) -> bool:
    """Whether the transpose of any partition ``lam`` is orthogonal (type
    B) or symplectic (C, D), which for a member is specialness.  The
    transpose has lam_k - lam_{k+1} parts equal to k, so lam_k and
    lam_{k+1} must have the same parity for every even k (B) or every odd
    k (C, D), where lam_{len+1} = 0; the pairs (lam_k, lam_{k+1}) are those
    of the padded parts from index 1 (B) or 0 (C, D) on.  (On a member of
    the type, the pair with the pad follows from the others, the size's
    parity and the membership.)"""
    padded = lam + (0,)
    start = t.size_parity
    return not any(map(_odd, map(sub, padded[start::2], padded[start + 1::2])))


def classify(lam: Partition, t: GroupType) -> Classification:
    """Membership and specialness of ``lam`` for type ``t``.

    Membership is the orthogonal condition for B and D, the symplectic one
    for C.  A member is special when its transpose is symplectic (types C
    and D) or orthogonal (type B); special partitions are exactly the fixed
    points of the double duality map, which the harness cross-checks.
    Both are read off the parts: the parts of the bad parity pair up, and
    lam_k and lam_{k+1} have the same parity for every odd k (C, D) or
    every even k (B), with lam_{len+1} = 0; no transpose is built.
    """
    _check_parity(sum(lam), t)
    if not _is_member(lam, t):
        return Classification(False, False)
    return Classification(True, _member_is_special(lam, t))


def orbit_problem(lam: Partition, t: GroupType, special: bool = False) -> str | None:
    """Input-error text when ``lam`` is no type-``t`` partition or, with
    ``special``, no special one; None otherwise.  A size of the wrong parity
    raises ValueError, as in :func:`classify`."""
    _check_parity(sum(lam), t)
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

    The moves are made in one walk over the runs of equal parts, from the
    largest value down.  A move at q changes only the counts of q, of q-1
    (which has the good parity), of the next value p below q-1 and of p+1,
    so nothing at q-1 or above changes again, and a lower value that the
    move leaves with an odd count of the bad parity is settled when the
    walk reaches it.  Each step of the walk gives one run of the result,
    and the runs of ``lam`` are found by bisection, so the cost grows with
    the number of parts, not with the largest part; the result is still
    the one of the greedy moves made one at a time.
    """
    _check_parity(lam.size, t)
    bad_parity = 0 if t.orthogonal else 1
    # (value, count) runs of lam, the largest value last
    rising = lam[::-1]
    todo: list[tuple[int, int]] = []
    start = 0
    while start < len(rising):
        q = rising[start]
        end = bisect_right(rising, q, start)
        todo.append((q, end - start))
        start = end
    parts: list[int] = []
    while todo:
        q, c = todo.pop()
        if q % 2 != bad_parity or c % 2 == 0:
            parts += [q] * c
            continue
        # q = 1 would need a second odd violator of larger value, so the
        # decremented part never vanishes.
        assert q >= 2, lam
        # one part q -> q-1, and the largest part p < q-1 -> p+1 (p = 0
        # appends a part 1); q-1 has the good parity, so its run is final
        parts += [q] * (c - 1)
        below = 1 + (todo.pop()[1] if todo and todo[-1][0] == q - 1 else 0)
        p, cp = todo.pop() if todo else (0, 0)
        if cp > 1:
            todo.append((p, cp - 1))
        if p + 1 == q - 1:
            below += 1
        else:
            todo.append((p + 1, 1))
        parts += [q - 1] * below
    return _new(Partition, parts)


@lru_cache(maxsize=None)
def partitions_of(d: int) -> tuple[Partition, ...]:
    """All partitions of d in lexicographically decreasing order: for
    p = d down to 1, (p, *q) for each q of ``partitions_of(d - p)`` with
    first part at most p, a suffix of that decreasing list found by
    bisection.  Blocks of larger p come first and each block falls with q,
    hence the order.  The sizes d - p rise from 0, so each is cached before
    a larger one reads it."""
    out = [] if d else [Partition()]
    for p in range(d, 0, -1):
        rest = partitions_of(d - p)
        start = bisect_left(rest, -p, key=lambda q: -q[0]) if d - p > p else 0
        out += [_new(Partition, (p, *q)) for q in rest[start:]]
    return tuple(out)


def enumerate_partitions(
    d: int, t: GroupType, special_only: bool = False
) -> list[Partition]:
    """All type-``t`` partitions of d, lexicographically decreasing."""
    if d < 0:
        raise ValueError("size must be non-negative")
    _check_parity(d, t)
    members = [lam for lam in partitions_of(d) if _is_member(lam, t)]
    if special_only:
        return [lam for lam in members if _member_is_special(lam, t)]
    return members
