"""Combinatorial shapes of A-parameters and their predicted wavefront sets.

A shape records the target group (split type plus rank) and a multiset of
summands (rho_dim, rho_type, a, b), each standing for rho (x) S_a (x) S_b
with rho of the given dimension and self-dual type; "pair" summands stand
for rho + rho^dual with rho not self-dual and count twice.  The shape is
valid when the dimensions add up to the dual group's standard module and
every self-dual summand has the self-dual type that module demands
(symplectic into Sp_{2n}, orthogonal into SO_m).

From a valid shape we read off the nilpotent element the second SL_2
contributes: each summand gives rho_dim * a Jordan blocks of size b.  The
predicted wavefront orbit is the dual of that partition, taken on the
H-side.  Splitting the summands by a sign (the eigenspace decomposition of
an order-two element of the dual group) produces the two endoscopic factor
shapes of pair type (B,B), (C,D) or (D,D).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import NamedTuple

from .duality import dual_partition
from .partitions import GroupType, Partition, classify
from .waldspurger import PairType

SplitSigns = tuple[int, ...]


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
            if not isinstance(value, int) or value < 1:
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

    def sort_key(self) -> tuple:
        return (self.weight, self.rho_dim, self.rho_type.value, self.a, self.b)

    def __str__(self) -> str:
        return f"{self.rho_dim}xS{self.a}*S{self.b}:{self.rho_type}"


class Validation(NamedTuple):
    ok: bool
    problems: tuple[str, ...]


@dataclass(frozen=True)
class AParameterShape:
    target: GroupType
    rank: int
    summands: tuple[Summand, ...]

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        object.__setattr__(
            self, "summands", tuple(sorted(self.summands, key=Summand.sort_key))
        )

    @property
    def m(self) -> int:
        """Dimension of the standard module of the dual group."""
        return 2 * self.rank + (1 if self.target is GroupType.C else 0)

    @property
    def dual_side_type(self) -> GroupType:
        """Type label of the dual group's partition calculus."""
        return self.target.dual

    @property
    def group_name(self) -> str:
        if self.target is GroupType.C:
            return f"Sp{2 * self.rank}"
        size = 2 * self.rank + (1 if self.target is GroupType.B else 0)
        return f"SO{size}"

    def __str__(self) -> str:
        return "{}: {}".format(
            self.group_name, ",".join(str(s) for s in self.summands)
        )


def validate(shape: AParameterShape) -> Validation:
    """Check the shape against its target; diagnostics name the offender."""
    problems = []
    total = sum(s.weight for s in shape.summands)
    if total != shape.m:
        problems.append(
            f"summand dimensions add to {total}, target {shape.group_name} "
            f"needs {shape.m}"
        )
    want_symplectic = shape.target is GroupType.B
    kind = "symplectic" if want_symplectic else "orthogonal"
    for s in shape.summands:
        if s.rho_type is SelfDualType.SYMPLECTIC and s.rho_dim % 2 == 1:
            problems.append(f"summand {s}: symplectic rho must be even-dimensional")
        elif s.symplectic is not None and s.symplectic != want_symplectic:
            problems.append(f"summand {s} is not {kind}")
    return Validation(not problems, tuple(problems))


def require_valid(shape: AParameterShape) -> None:
    check = validate(shape)
    if not check.ok:
        raise ValueError(
            f"invalid shape {shape}: " + "; ".join(check.problems)
        )


def dual_shape(shape: AParameterShape) -> AParameterShape:
    """Swap the two SL_2 factors: (a, b) -> (b, a) in every summand."""
    require_valid(shape)
    return AParameterShape(
        shape.target,
        shape.rank,
        tuple(Summand(s.rho_dim, s.rho_type, s.b, s.a) for s in shape.summands),
    )


def npsi_partition(shape: AParameterShape) -> Partition:
    """Jordan type on the standard module of the nilpotent given by the
    second SL_2: rho_dim * a blocks of size b per summand."""
    require_valid(shape)
    parts: list[int] = []
    for s in shape.summands:
        copies = s.rho_dim * s.a * (2 if s.rho_type is SelfDualType.PAIR else 1)
        parts.extend([s.b] * copies)
    lam = Partition(parts)
    assert classify(lam, shape.dual_side_type).member
    return lam


def predicted_wavefront(shape: AParameterShape) -> Partition:
    """Dual of the shape's nilpotent orbit, read on the H-side; special."""
    return dual_partition(npsi_partition(shape), shape.dual_side_type)


def pair_type_of(target: GroupType) -> PairType:
    """Endoscopic pair type produced by splitting a target of this type."""
    return next(pair for pair in PairType if pair.target is target)


def _factor(target: GroupType, summands: tuple[Summand, ...]) -> AParameterShape:
    m = sum(s.weight for s in summands)
    rank = (m - 1) // 2 if target is GroupType.C else m // 2
    factor = AParameterShape(target, rank, summands)
    require_valid(factor)
    return factor


def split_by_signs(
    shape: AParameterShape, signs: SplitSigns
) -> tuple[AParameterShape, AParameterShape]:
    """Split the summands into the two endoscopic factors of a proper
    order-two element.

    Targets of type B split into (B, B), type C into (C, D) with the
    odd-dimensional factor first, type D into (D, D); a split whose factor
    dimensions cannot carry those types is rejected.
    """
    require_valid(shape)
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
    m_plus = sum(s.weight for s in plus)
    m_minus = sum(s.weight for s in minus)
    if shape.target is GroupType.B:
        return _factor(GroupType.B, plus), _factor(GroupType.B, minus)
    if shape.target is GroupType.C:
        if m_plus % 2 == 1:
            return _factor(GroupType.C, plus), _factor(GroupType.D, minus)
        return _factor(GroupType.C, minus), _factor(GroupType.D, plus)
    if m_plus % 2 == 1 or m_minus % 2 == 1:
        raise ValueError(
            f"split {m_plus}+{m_minus} of {shape.group_name} has an "
            f"odd-dimensional factor"
        )
    return _factor(GroupType.D, plus), _factor(GroupType.D, minus)


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
