"""Combinatorial shapes of A-parameters and their predicted wavefront sets.

A shape records the target group (split type plus rank) and a multiset of
summands (rho_dim, rho_type, a, b), each standing for rho (x) S_a (x) S_b
with rho of the given dimension and self-dual type; "pair" summands stand
for rho + rho^dual with rho not self-dual and count twice.  Shapes are
checked on construction, so every shape is valid: the dimensions add up
to the dual group's standard module and every self-dual summand has the
self-dual type that module demands (symplectic into Sp_{2n}, orthogonal
into SO_m).

From a shape we read off the nilpotent element the second SL_2
contributes: each summand gives rho_dim * a Jordan blocks of size b.  The
predicted wavefront orbit is the dual of that partition, taken on the
H-side.  Splitting the summands by a sign (the eigenspace decomposition of
an order-two element of the dual group) produces the two endoscopic factors
of pair type (B,B), (C,D) or (D,D); :func:`shapes_for` enumerates the shapes
of a target and :func:`proper_splits` their splits, as the factors' summand
tuples, which :func:`factor_shapes` turns into factor shapes.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby, product
from typing import Iterable, Iterator

from .duality import dual_partition
from .partitions import GroupType, Partition, orbit_problem
from .waldspurger import PairType


class SelfDualType(enum.Enum):
    ORTHOGONAL = "O"
    SYMPLECTIC = "S"
    PAIR = "P"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Summand:
    """One block rho (x) S_a (x) S_b of an A-parameter."""

    rho_dim: int
    rho_type: SelfDualType
    a: int
    b: int

    def __post_init__(self) -> None:
        for name in ("rho_dim", "a", "b"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"summand {name} must be a positive integer")

    @property
    def weight(self) -> int:
        """Dimension contributed to the standard module."""
        doubled = 2 if self.rho_type is SelfDualType.PAIR else 1
        return doubled * self.rho_dim * self.a * self.b

    @property
    def symplectic(self) -> bool | None:
        """Self-dual type of the full block (None for pair summands):
        symplectic iff an odd number of the three factors is symplectic."""
        if self.rho_type is SelfDualType.PAIR:
            return None
        flips = (
            (self.rho_type is SelfDualType.SYMPLECTIC)
            + (self.a % 2 == 0)
            + (self.b % 2 == 0)
        )
        return flips % 2 == 1

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
        return (self.weight, self.rho_dim, self.rho_type.value, self.a, self.b)

    def __str__(self) -> str:
        return f"{self.rho_dim}xS{self.a}*S{self.b}:{self.rho_type}"


def _dual_module_dim(target: GroupType, rank: int) -> int:
    return 2 * rank + target.dual.size_parity


@dataclass(frozen=True)
class AParameterShape:
    """A valid shape: the constructor sorts the summands and raises
    ValueError naming every offending summand."""

    target: GroupType
    rank: int
    summands: tuple[Summand, ...]

    def __post_init__(self) -> None:
        if type(self.rank) is not int:
            raise ValueError(f"rank {self.rank!r} is not an integer")
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        object.__setattr__(
            self, "summands", tuple(sorted(self.summands, key=Summand.sort_key))
        )
        problems = []
        total = sum(s.weight for s in self.summands)
        if total != self.m:
            problems.append(
                f"summand dimensions add to {total}, target {self.group_name} "
                f"needs {self.m}"
            )
        want_symplectic = self.target is GroupType.B
        problems.extend(
            filter(None, (s._problem(want_symplectic) for s in self.summands))
        )
        if problems:
            raise ValueError(f"invalid shape {self}: " + "; ".join(problems))

    @property
    def m(self) -> int:
        """Dimension of the standard module of the dual group."""
        return _dual_module_dim(self.target, self.rank)

    @property
    def dual_side_type(self) -> GroupType:
        """Type label of the dual group's partition calculus."""
        return self.target.dual

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
    rho_dim * a blocks of size b per summand, twice that for pair summands."""
    parts: list[int] = []
    for s in summands:
        copies = s.rho_dim * s.a * (2 if s.rho_type is SelfDualType.PAIR else 1)
        parts.extend([s.b] * copies)
    return Partition(parts)


def npsi_partition(shape: AParameterShape) -> Partition:
    """Jordan type on the standard module of the nilpotent given by the
    second SL_2; see :func:`jordan_type`."""
    lam = jordan_type(shape.summands)
    assert orbit_problem(lam, shape.dual_side_type) is None
    return lam


def predicted_wavefront(shape: AParameterShape) -> Partition:
    """Dual of the shape's nilpotent orbit, read on the H-side; special."""
    return dual_partition(npsi_partition(shape), shape.dual_side_type)


def pair_type_of(target: GroupType) -> PairType:
    """Endoscopic pair type produced by splitting a target of this type."""
    return next(pair for pair in PairType if pair.target is target)


_Split = tuple[tuple[Summand, ...], tuple[Summand, ...]]


def _orient(
    pair: PairType, plus: tuple[Summand, ...], minus: tuple[Summand, ...]
) -> _Split | None:
    """The sides ``plus`` and ``minus`` of a split in the order of the
    factor types of ``pair``.  Each factor type takes a side whose
    dimension has the parity of that type's dual module, ``plus`` first
    when both fit; None when a factor has no such side."""
    t1, t2 = pair.factor_types
    m_plus = sum(s.weight for s in plus)
    m_minus = sum(s.weight for s in minus)
    if m_plus % 2 != t1.dual.size_parity:
        plus, minus, m_plus, m_minus = minus, plus, m_minus, m_plus
    if m_plus % 2 != t1.dual.size_parity or m_minus % 2 != t2.dual.size_parity:
        return None
    return plus, minus


def factor_shapes(
    pair: PairType, split: _Split
) -> tuple[AParameterShape, AParameterShape]:
    """The endoscopic factor shapes of a split whose sides are in the order
    of the factor types of ``pair``, as :func:`proper_splits` yields it."""
    return tuple(
        AParameterShape(t, sum(s.weight for s in side) // 2, side)
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
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    plus = tuple(s for s, e in zip(shape.summands, signs) if e == 1)
    minus = tuple(s for s, e in zip(shape.summands, signs) if e == -1)
    if not plus or not minus:
        raise ValueError("improper split: both sign classes must be nonempty")
    pair = pair_type_of(shape.target)
    split = _orient(pair, plus, minus)
    if split is None:
        m_plus = sum(s.weight for s in plus)
        raise ValueError(
            f"split {m_plus}+{shape.m - m_plus} of {shape.group_name} has an "
            f"odd-dimensional factor"
        )
    return factor_shapes(pair, split)


# ---------------------------------------------------------------------------
# Enumeration


@lru_cache(maxsize=None)
def _summand_kinds(want_symplectic: bool, max_weight: int) -> tuple[Summand, ...]:
    """Every summand of weight at most ``max_weight`` that a dual group
    with symplectic (or orthogonal) self-dual summands admits, sorted."""
    kinds = []
    for dim in range(1, max_weight + 1):
        for a in range(1, max_weight // dim + 1):
            for b in range(1, max_weight // (dim * a) + 1):
                for t in SelfDualType:
                    s = Summand(dim, t, a, b)
                    if s.weight > max_weight or s._problem(want_symplectic):
                        continue
                    kinds.append(s)
    return tuple(sorted(kinds, key=Summand.sort_key))


@lru_cache(maxsize=None)
def shapes_for(target: GroupType, rank: int) -> tuple[AParameterShape, ...]:
    """Every shape for the target group, in deterministic order."""
    m = _dual_module_dim(target, rank)
    kinds = _summand_kinds(target is GroupType.B, m)
    out: list[AParameterShape] = []
    acc: list[Summand] = []

    def descend(i: int, remaining: int) -> None:
        if remaining == 0:
            out.append(AParameterShape(target, rank, tuple(acc)))
            return
        if i == len(kinds) or kinds[i].weight > remaining:
            return
        descend(i + 1, remaining)
        acc.append(kinds[i])
        descend(i, remaining - kinds[i].weight)
        acc.pop()

    descend(0, m)
    return tuple(out)


def proper_splits(shape: AParameterShape) -> Iterator[_Split]:
    """All proper splits of the summand multiset, each unordered split once,
    as the factors' summand tuples in the order :func:`split_by_signs` gives
    the factors (:func:`factor_shapes` builds those); of two complementary
    sub-multisets, the one whose count per kind is the lexicographically
    smaller vector takes the + sign.  Splits whose factors cannot carry the
    endoscopic types are skipped."""
    pair = pair_type_of(shape.target)
    groups = [(kind, len(list(run))) for kind, run in groupby(shape.summands)]

    def take(counts: tuple[int, ...]) -> tuple[Summand, ...]:
        return tuple(
            kind for (kind, _), c in zip(groups, counts) for _ in range(c)
        )

    for vector in product(*(range(c + 1) for _, c in groups)):
        complement = tuple(c - v for (_, c), v in zip(groups, vector))
        if not any(vector) or not any(complement) or vector > complement:
            continue
        split = _orient(pair, take(vector), take(complement))
        if split is not None:
            yield split


_SUMMAND_RE = re.compile(r"^(\d+)xS(\d+)\*S(\d+):([OSP])$")
_TARGET_RE = re.compile(r"^(SO|Sp)(\d+)$")


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
    an explicit rank, or a concrete group name like SO5, Sp4, SO6."""
    name = text.strip()
    family = {"SOodd": GroupType.B, "Sp": GroupType.C, "SOeven": GroupType.D}
    if name in family:
        if rank is None:
            raise ValueError(f"target family {name} needs an explicit rank")
        return family[name], rank
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
    return t, n
