"""Combinatorial shapes of A-parameters and their predicted wavefront sets.

A shape records the target group (split type plus rank) and a multiset of
summands (rho_dim, rho_type, a, b), each standing for rho (x) S_a (x) S_b
with rho of the given dimension and self-dual type; "pair" summands stand
for rho + rho^dual with rho not self-dual and count twice.  Every shape
is valid: the dimensions add up to the dual group's standard module and
every self-dual summand has the self-dual type that module demands
(symplectic into Sp_{2n}, orthogonal into SO_m).  The constructor checks
this; enumerated shapes, and the factor shapes of a split of a valid
shape, are valid by construction and are not checked again.

From a shape we read off the nilpotent element the second SL_2
contributes: each summand gives rho_dim * a Jordan blocks of size b.  The
predicted wavefront orbit is the dual of that partition, taken on the
H-side; the duality map's guard is the one check of the partition.
Splitting the summands by a sign (the eigenspace decomposition of an
order-two element of the dual group) produces the two endoscopic factors
of pair type (B,B), (C,D) or (D,D).

Shapes and splits are both walked as count vectors over distinct summands.
:func:`shape_vectors` walks the shapes of a target, and :func:`shapes_for`
builds them.  :func:`split_vectors` walks the splits of a shape,
:func:`split_sides` gives a split as the factors' summand tuples, and
:func:`factor_shapes` turns those into factor shapes.  Without a walk,
:func:`jordan_type_counts` counts the shapes of a target by Jordan type.
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_right
from functools import lru_cache
from itertools import chain, compress, groupby, islice, product, repeat
from math import prod
from operator import sub
from typing import Iterable, Iterator

from .duality import dual_partition
from .partitions import (
    GroupType,
    Partition,
    Record,
    _new,
    check_input_size,
    orbit_problem,
    partitions_of,
)
from .waldspurger import PairType


class SelfDualType(enum.Enum):
    """Self-dual type of rho; each member keeps its letter as the plain
    attribute ``letter``, which reads faster than ``value``."""

    ORTHOGONAL = "O"
    SYMPLECTIC = "S"
    PAIR = "P"

    def __init__(self, letter: str) -> None:
        self.letter = letter

    def __str__(self) -> str:
        return self.letter

    __hash__ = object.__hash__  # as for GroupType


class Summand(Record):
    """One block rho (x) S_a (x) S_b of an A-parameter: ``copies`` Jordan
    blocks of size b, ``weight`` dimensions of the standard module, and
    ``symplectic``, the self-dual type of the full block (None for pair
    summands): symplectic iff an odd number of the three factors is."""

    _fields = ("rho_dim", "rho_type", "a", "b")

    def __init__(
        self, rho_dim: int, rho_type: SelfDualType, a: int, b: int
    ) -> None:
        for name, value in (("rho_dim", rho_dim), ("a", a), ("b", b)):
            if type(value) is not int or value < 1:
                raise ValueError(f"summand {name} must be a positive integer")
        if type(rho_type) is not SelfDualType:
            raise ValueError(f"summand rho_type {rho_type!r} is not a SelfDualType")
        pair = rho_type is SelfDualType.PAIR
        copies = (2 if pair else 1) * rho_dim * a
        flips = (rho_type is SelfDualType.SYMPLECTIC) + (a % 2 == 0) + (b % 2 == 0)
        object.__setattr__(self, "rho_dim", rho_dim)
        object.__setattr__(self, "rho_type", rho_type)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "copies", copies)
        object.__setattr__(self, "weight", copies * b)
        object.__setattr__(self, "symplectic", None if pair else flips % 2 == 1)

    def _problem(self, want_symplectic: bool) -> str | None:
        """Why a dual group whose self-dual summands are all symplectic (or
        all orthogonal) cannot hold this summand; None when it can."""
        if self.rho_type is SelfDualType.SYMPLECTIC and self.rho_dim % 2 == 1:
            return f"summand {self}: symplectic rho must be even-dimensional"
        if self.symplectic is not None and self.symplectic != want_symplectic:
            kind = "symplectic" if want_symplectic else "orthogonal"
            return f"summand {self} is not {kind}"
        return None

    def sort_key(self) -> tuple:
        return (self.weight, self.rho_dim, self.rho_type.letter, self.a, self.b)

    def __str__(self) -> str:
        return f"{self.rho_dim}xS{self.a}*S{self.b}:{self.rho_type}"


def _dual_module_dim(target: GroupType, rank: int) -> int:
    return 2 * rank + target.dual.size_parity


class AParameterShape(Record):
    """A valid shape: the constructor sorts the summands and raises
    ValueError naming every offending summand."""

    _fields = ("target", "rank", "summands")

    def __init__(
        self, target: GroupType, rank: int, summands: Iterable[Summand]
    ) -> None:
        if type(rank) is not int:
            raise ValueError(f"rank {rank!r} is not an integer")
        if rank < 0:
            raise ValueError("rank must be non-negative")
        if type(target) is not GroupType:
            raise ValueError(f"target {target!r} is not a GroupType")
        summands = tuple(summands)
        for s in summands:
            if type(s) is not Summand:
                raise ValueError(f"shape entry {s!r} is not a Summand")
        summands = tuple(sorted(summands, key=Summand.sort_key))
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "summands", summands)
        problems = []
        total = sum(s.weight for s in summands)
        if total != self.m:
            problems.append(
                f"summand dimensions add to {total}, target {self.group_name} "
                f"needs {self.m}"
            )
        want_symplectic = not self.target.dual.orthogonal
        problems.extend(
            filter(None, (s._problem(want_symplectic) for s in summands))
        )
        if problems:
            raise ValueError(f"invalid shape {self}: " + "; ".join(problems))

    @property
    def m(self) -> int:
        """Dimension of the standard module of the dual group."""
        return _dual_module_dim(self.target, self.rank)

    @property
    def group_name(self) -> str:
        family = "SO" if self.target.orthogonal else "Sp"
        return f"{family}{2 * self.rank + self.target.size_parity}"

    def __str__(self) -> str:
        return "{}: {}".format(
            self.group_name, ",".join(str(s) for s in self.summands)
        )


def dual_shape(shape: AParameterShape) -> AParameterShape:
    """Swap the two SL_2 factors: (a, b) -> (b, a) in every summand."""
    return AParameterShape(
        shape.target,
        shape.rank,
        tuple(Summand(s.rho_dim, s.rho_type, s.b, s.a) for s in shape.summands),
    )


def jordan_type(summands: Iterable[Summand]) -> Partition:
    """Jordan type of the second SL_2's nilpotent on the summands' module:
    ``copies`` blocks of size b per summand.  The (b, copies) blocks are
    sorted, not the parts they expand to; b and copies are positive ints
    in every summand."""
    parts: list[int] = []
    for b, copies in sorted(((s.b, s.copies) for s in summands), reverse=True):
        parts += [b] * copies
    return _new(Partition, parts)


def npsi_partition(shape: AParameterShape) -> Partition:
    """Jordan type on the standard module of the nilpotent given by the
    second SL_2; see :func:`jordan_type`."""
    lam = jordan_type(shape.summands)
    assert orbit_problem(lam, shape.target.dual) is None
    return lam


def predicted_wavefront(shape: AParameterShape) -> Partition:
    """Dual of the shape's nilpotent orbit, read on the H-side; special.
    ``dual_partition`` checks the Jordan type, so it is read through
    :func:`jordan_type` and not checked a second time here."""
    return dual_partition(jordan_type(shape.summands), shape.target.dual)


_PAIR_OF_TARGET = {pair.target: pair for pair in PairType}


def pair_type_of(target: GroupType) -> PairType:
    """Endoscopic pair type produced by splitting a target of this type."""
    return _PAIR_OF_TARGET[target]


_Split = tuple[tuple[Summand, ...], tuple[Summand, ...]]


def _orient(pair: PairType, m_plus: int, m: int) -> bool | None:
    """Whether the + side of a split, of dimension ``m_plus`` out of ``m``,
    comes first in the order of the factor types of ``pair``.  Each factor
    type takes a side whose dimension has the parity of that type's dual
    module, the + side first when both fit; None when no order fits."""
    t1, t2 = pair.factor_types
    p1, p2 = t1.dual.size_parity, t2.dual.size_parity
    m_minus = m - m_plus
    if m_plus % 2 == p1 and m_minus % 2 == p2:
        return True
    if m_minus % 2 == p1 and m_plus % 2 == p2:
        return False
    return None


def factor_shapes(
    pair: PairType, split: _Split
) -> tuple[AParameterShape, AParameterShape]:
    """The endoscopic factor shapes of a split whose sides are in the order
    of the factor types of ``pair``, as :func:`split_sides` or
    :func:`split_by_signs` gives it.  They are built by
    ``AParameterShape._trusted``: each side is a sorted sub-tuple of a
    valid shape's summands, whose self-dual types every factor's dual group
    admits as well (all symplectic for (B,B), all orthogonal otherwise),
    and :func:`_orient` gave each side a dimension of the parity of its
    factor's dual module, so it is that module's dimension."""
    return tuple(
        AParameterShape._trusted(t, sum(s.weight for s in side) // 2, side)
        for t, side in zip(pair.factor_types, split)
    )


def split_by_signs(
    shape: AParameterShape, signs: tuple[int, ...]
) -> tuple[AParameterShape, AParameterShape]:
    """Split the summands into the two endoscopic factors of a proper
    order-two element.

    Targets of type B split into (B, B), type C into (C, D) with the
    odd-dimensional factor first, type D into (D, D); a split whose factor
    dimensions cannot carry those types is rejected.
    """
    if len(signs) != len(shape.summands):
        raise ValueError(
            f"need {len(shape.summands)} signs, got {len(signs)}"
        )
    if any(type(s) is not int or s not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    plus = tuple(s for s, e in zip(shape.summands, signs) if e == 1)
    minus = tuple(s for s, e in zip(shape.summands, signs) if e == -1)
    if not plus or not minus:
        raise ValueError("improper split: both sign classes must be nonempty")
    pair = pair_type_of(shape.target)
    m_plus = sum(s.weight for s in plus)
    plus_first = _orient(pair, m_plus, shape.m)
    if plus_first is None:
        raise ValueError(
            f"split {m_plus}+{shape.m - m_plus} of {shape.group_name} has an "
            f"odd-dimensional factor"
        )
    return factor_shapes(pair, (plus, minus) if plus_first else (minus, plus))


# ---------------------------------------------------------------------------
# Enumeration


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@lru_cache(maxsize=None)
def _summand_kinds(want_symplectic: bool, max_weight: int) -> tuple[Summand, ...]:
    """Every summand of weight at most ``max_weight`` that a dual group
    with symplectic (or orthogonal) self-dual summands admits, sorted.

    :meth:`Summand.sort_key` starts with the weight, so these are the kinds
    up to ``max_weight - 1``, read from this cache, followed by the sorted
    kinds of weight exactly ``max_weight``.  Those have ``copies`` blocks
    of a size b with copies * b = max_weight, and copies = rho_dim * a, or
    2 * rho_dim * a for a pair, so they are found through divisors.  Of
    the two self-dual types of rho, only the one that makes the block's
    type the wanted one fits, and a symplectic rho needs an even
    dimension; so every kind built passes :meth:`Summand._problem`, and
    none is built to be dropped.  A call first looks up the lower weights
    in increasing order, so each is built with the one below it cached:
    a call recurses one level deep at any weight, and each kind is built
    once per parity."""
    if max_weight < 1:
        return ()
    for weight in range(1, max_weight - 1):
        _summand_kinds(want_symplectic, weight)
    kinds = []
    for b in _divisors(max_weight):
        copies = max_weight // b
        for dim in _divisors(copies):
            a = copies // dim
            symplectic_rho = (want_symplectic + (a % 2 == 0) + (b % 2 == 0)) % 2
            if not symplectic_rho:
                kinds.append(Summand(dim, SelfDualType.ORTHOGONAL, a, b))
            elif dim % 2 == 0:
                kinds.append(Summand(dim, SelfDualType.SYMPLECTIC, a, b))
        if copies % 2 == 0:
            for dim in _divisors(copies // 2):
                kinds.append(Summand(dim, SelfDualType.PAIR, copies // 2 // dim, b))
    kinds.sort(key=Summand.sort_key)
    return _summand_kinds(want_symplectic, max_weight - 1) + tuple(kinds)


def shape_vectors(
    target: GroupType, rank: int
) -> Iterator[tuple[tuple[Summand, ...], tuple[int, ...]]]:
    """Every shape for the target group as ``(kinds, counts)``: its distinct
    summands in :meth:`Summand.sort_key` order and how often each occurs.
    Read as count vectors over all the kinds of :func:`_summand_kinds`, the
    shapes come in increasing lexicographic order: the walk takes the last
    kind that fits as the first nonzero count, then the one before it, and
    so on, each with counts 1, 2, ... followed by the shapes of what is
    left over the later kinds.  Every yielded shape is valid: its weights
    add up to m, and every kind is one that :meth:`Summand._problem`
    admits.  The sweeps walk the ranks of a target upward, so the kinds
    below m are those the lower ranks' walks left in the cache of
    :func:`_summand_kinds`, and at most the kinds of weights m - 1 and m
    are new."""
    m = _dual_module_dim(target, rank)
    kinds = _summand_kinds(not target.dual.orthogonal, m)
    weights = [kind.weight for kind in kinds]
    acc_kinds: list[Summand] = []
    acc_counts: list[int] = []

    def descend(i: int, remaining: int) -> Iterator:
        if remaining == 0:
            yield tuple(acc_kinds), tuple(acc_counts)
            return
        for j in reversed(range(i, bisect_right(weights, remaining, i))):
            acc_kinds.append(kinds[j])
            for count in range(1, remaining // weights[j] + 1):
                acc_counts.append(count)
                yield from descend(j + 1, remaining - count * weights[j])
                acc_counts.pop()
            acc_kinds.pop()

    return descend(0, m)


@lru_cache(maxsize=None)
def shapes_for(target: GroupType, rank: int) -> tuple[AParameterShape, ...]:
    """Every shape for the target group, in the order of
    :func:`shape_vectors`, built by ``AParameterShape._trusted`` without a
    second sort or check."""
    return tuple(
        AParameterShape._trusted(target, rank, expand_counts(kinds, counts))
        for kinds, counts in shape_vectors(target, rank)
    )


def jordan_type_counts(target: GroupType, rank: int) -> dict[Partition, int]:
    """The number of shapes of the target group of each Jordan type J
    (:func:`jordan_type`) that some shape has: the product over block sizes
    b of the coefficient of x^(n_b), J's number of blocks of size b, in the
    product of 1/(1 - x^copies) over the summand kinds of block size b."""
    m = _dual_module_dim(target, rank)
    series = {b: [1] + [0] * (m // b) for b in range(1, m + 1)}
    for kind in _summand_kinds(not target.dual.orthogonal, m):
        coeffs = series[kind.b]
        for n in range(kind.copies, len(coeffs)):
            coeffs[n] += coeffs[n - kind.copies]
    counts = {
        lam: prod(series[b][len(list(run))] for b, run in groupby(lam))
        for lam in partitions_of(m)
    }
    return {lam: count for lam, count in counts.items() if count}


def expand_counts(
    kinds: Iterable[Summand], counts: Iterable[int]
) -> tuple[Summand, ...]:
    """The summand tuple with each kind repeated its count of times, built
    at its exact size (``tuple()`` of the bare iterator over-allocates)."""
    return tuple([*chain.from_iterable(map(repeat, kinds, counts))])


def split_vectors(
    target: GroupType, m: int, kinds: list[Summand], counts: list[int]
) -> Iterator[tuple[tuple[int, ...], bool]]:
    """Every proper split of a shape of the target, with ``kinds`` and
    ``counts`` as :func:`shape_vectors` yields them and m the dual module
    dimension, each unordered split once, as the + side's count vector
    over ``kinds`` and whether the + side is the first factor
    (:func:`_orient`).  Of two complementary count vectors the
    lexicographically smaller one takes the + sign.  ``product`` walks the
    vectors in lexicographic order and puts the complement of its i-th
    vector at place N-1-i, N the number of vectors, so the vectors no
    larger than their complement are the places 0 to (N-1)/2; the walk
    skips place 0, the empty side.  The orientation reads only the parity
    of the + side's dimension, so splits whose factors cannot carry the
    endoscopic types are dropped there."""
    pair = pair_type_of(target)
    orient = (_orient(pair, 0, m), _orient(pair, 1, m))
    odd = [kind.weight % 2 for kind in kinds]
    vectors = product(*(range(c + 1) for c in counts))
    for vector in islice(vectors, 1, (prod(c + 1 for c in counts) + 1) // 2):
        plus_first = orient[sum(compress(vector, odd)) % 2]
        if plus_first is not None:
            yield vector, plus_first


def split_sides(
    kinds: list[Summand], counts: list[int], vector: tuple[int, ...],
    plus_first: bool,
) -> _Split:
    """The two sides of the split with + side ``vector``, as summand tuples
    in factor order."""
    plus = expand_counts(kinds, vector)
    minus = expand_counts(kinds, map(sub, counts, vector))
    return (plus, minus) if plus_first else (minus, plus)


_SUMMAND_RE = re.compile(r"^([0-9]+)xS([0-9]+)\*S([0-9]+):([OSP])$")
_TARGET_RE = re.compile(r"^(SO|Sp)([0-9]+)$")


def parse_summands(text: str) -> tuple[Summand, ...]:
    """Parse the comma-separated summand list, e.g. "1xS2*S1:O,1xS1*S2:O"."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        m = _SUMMAND_RE.match(chunk)
        if not m:
            raise ValueError(
                f"summand {chunk!r} does not match DIMxSA*SB:T with T in O/S/P"
            )
        dim, a, b = int(m.group(1)), int(m.group(2)), int(m.group(3))
        out.append(Summand(dim, SelfDualType(m.group(4)), a, b))
    return tuple(out)


def parse_target(text: str, rank: int | None = None) -> tuple[GroupType, int]:
    """Resolve a target string: either a family name (SOodd, Sp, SOeven) with
    an explicit rank, or a concrete group name like SO5, Sp4, SO6, whose
    standard module has dimension at most
    :data:`~orbitcalc.partitions.MAX_INPUT_SIZE`."""
    name = text.strip()
    family = {"SOodd": GroupType.B, "Sp": GroupType.C, "SOeven": GroupType.D}
    if name in family:
        if rank is None:
            raise ValueError(f"target family {name} needs an explicit rank")
        t = family[name]
        check_input_size("module dimension", 2 * rank + t.size_parity)
        return t, rank
    m = _TARGET_RE.match(name)
    if not m:
        raise ValueError(f"unknown target {text!r}")
    size = int(m.group(2))
    if m.group(1) == "Sp":
        if size % 2 == 1:
            raise ValueError(f"Sp target needs even size, got {size}")
        t, n = GroupType.C, size // 2
    elif size % 2 == 1:
        t, n = GroupType.B, size // 2
    else:
        t, n = GroupType.D, size // 2
    if rank is not None and rank != n:
        raise ValueError(f"rank {rank} contradicts target {name}")
    check_input_size("module dimension", size)
    return t, n
