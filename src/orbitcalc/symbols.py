"""Two-row symbols, bipartitions and the special-orbit correspondence.

A bipartition (a_0..a_k) x (b_1..b_k) of n (weakly increasing rows, one
more a than b) labels an irreducible representation of the Weyl group of
type B_n/C_n; its symbol has rows (a_i + i) and (b_i + i - 1).  In type D
the a_0 slot is forced to zero, both symbol rows are shifted by i - 1, and
the rows form an unordered pair, stored with the smaller row at the bottom.
Only ``_oriented_d`` (for ``Bipartition`` and ``springer_bipartition``) and
``Symbol.__init__`` orient it: ``padded`` and ``symbol_of`` add the same
zeros or staircase to both rows, which keeps their order.  Symbols related
by prepending zeros to both rows and shifting the rest up by one are
regarded as equal; symbols with the same entry multiset form a family, and
each family contains a unique special symbol, the one whose rows
interleave.

The Springer correspondence between special orbits and special symbols
is computed by two independent algorithms, one in each direction:
:func:`springer_bipartition` reads the symbol off the parity split of the
staircase-shifted parts, and :func:`partition_of_special_symbol` turns a
special symbol back into a partition by one block rule per type
(``_BLOCKS``).  :func:`specialize_sum` implements the closed-form special
representative of the family of a summed bipartition, which computes the
smallest special partition above an endoscopic transfer image
(:func:`special_closure`).

The closure path builds no symbol: :func:`springer_bipartition` builds its
one bipartition straight from the parity split, specialness is
read off the bipartition rows (a symbol's rows interleave exactly when
a_i <= b_i <= a_{i+1} + 1, or the type-D analogue), and the block rule is
applied to the bipartition.  The symbol functions give the same answers
and are what the tests compare these shortcuts with.
"""

from __future__ import annotations

from functools import lru_cache
from operator import le
from typing import Iterable

from .partitions import (
    GroupType,
    Partition,
    Record,
    check_input_size,
    dominance_leq,
    orbit_problem,
    parse_int,
)
from .waldspurger import PairType


def _weakly_increasing(seq: tuple[int, ...]) -> bool:
    return all(map(le, seq, seq[1:]))


def _as_row(seq: Iterable[int], name: str) -> tuple[int, ...]:
    row = tuple(seq)
    for v in row:
        if type(v) is not int or v < 0:
            raise ValueError(f"{name} entry {v!r} must be a non-negative integer")
    return row


def _check_row_lengths(alpha: tuple[int, ...], beta: tuple[int, ...]) -> None:
    if len(alpha) != len(beta) + 1:
        raise ValueError(
            f"alpha must have one more entry than beta, got "
            f"{len(alpha)} and {len(beta)}"
        )


def _oriented_d(
    alpha: tuple[int, ...], beta: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Type-D rows, forced a_0 first, with the lexicographically smaller
    real row on the beta side."""
    if beta > alpha[1:]:
        return (0,) + beta, alpha[1:]
    return alpha, beta


def _padded_rows(
    rho: "Bipartition", k: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The rows of ``rho`` with ``k`` beta entries (k >= rho.k): leading
    zeros on both rows, after the forced a_0 in type D."""
    if k == rho.k:
        return rho.alpha, rho.beta
    extra = (0,) * (k - rho.k)
    alpha = (0,) + extra + rho.alpha[1:] if rho.type_d else extra + rho.alpha
    return alpha, extra + rho.beta


class Bipartition(Record):
    """Pair of weakly increasing rows; ``alpha`` one longer than ``beta``.

    For type D the leading alpha entry is a forced 0 (a placeholder slot)
    and the two real rows form an unordered pair: the constructor stores
    the orientation with the lexicographically smaller row on the beta
    side.  Equality and hashing ignore leading (0, 0) padding.
    """

    _fields = ("alpha", "beta", "type_d")

    def __init__(
        self, alpha: Iterable[int], beta: Iterable[int], type_d: bool = False
    ) -> None:
        alpha, beta = _as_row(alpha, "alpha"), _as_row(beta, "beta")
        _check_row_lengths(alpha, beta)
        if type_d:
            if alpha[0] != 0:
                raise ValueError("type-D bipartitions have a forced leading 0")
            alpha, beta = _oriented_d(alpha, beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "type_d", type_d)
        if not (_weakly_increasing(alpha) and _weakly_increasing(beta)):
            raise ValueError(f"rows must be weakly increasing: {self}")

    @property
    def n(self) -> int:
        return sum(self.alpha) + sum(self.beta)

    @property
    def k(self) -> int:
        return len(self.beta)

    def padded(self, k: int) -> "Bipartition":
        """Equivalent form with ``k`` beta entries (k >= self.k)."""
        if k < self.k:
            raise ValueError(f"cannot pad k={self.k} down to {k}")
        if k == self.k:
            return self
        return Bipartition._trusted(*_padded_rows(self, k), self.type_d)

    def _key(self) -> tuple:
        """Kind and rows with the leading zero pairs removed (type D keeps
        its forced a_0)."""
        lead = 1 if self.type_d else 0
        z = 0
        while z < self.k and self.beta[z] == 0 and self.alpha[lead + z] == 0:
            z += 1
        alpha = self.alpha[:lead] + self.alpha[lead + z :]
        return (self.type_d, alpha, self.beta[z:])

    def __str__(self) -> str:
        left = self.alpha[1:] if self.type_d else self.alpha
        return "{}|{}".format(
            ",".join(str(v) for v in left), ",".join(str(v) for v in self.beta)
        )


class Symbol(Record):
    """Two strictly increasing rows; top one longer than bottom (B/C) or of
    equal length with unordered rows (D).  Equality is up to the shift that
    prepends a 0 to both rows and raises the remaining entries by one."""

    _fields = ("top", "bottom", "type_d")

    def __init__(
        self, top: Iterable[int], bottom: Iterable[int], type_d: bool = False
    ) -> None:
        top, bottom = _as_row(top, "top"), _as_row(bottom, "bottom")
        expected = len(bottom) if type_d else len(bottom) + 1
        if len(top) != expected:
            raise ValueError(f"row lengths {len(top)}/{len(bottom)} are invalid")
        for row in (top, bottom):
            if any(a >= b for a, b in zip(row, row[1:])):
                raise ValueError(f"rows must be strictly increasing: {row}")
        if type_d and bottom > top:
            top, bottom = bottom, top
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)
        object.__setattr__(self, "type_d", type_d)

    def _key(self) -> tuple:
        s = normalize_symbol(self)
        return (s.type_d, s.top, s.bottom)

    def __str__(self) -> str:
        return "({} ; {})".format(
            ",".join(str(v) for v in self.top),
            ",".join(str(v) for v in self.bottom),
        )


def symbol_of(rho: Bipartition) -> Symbol:
    """Symbol of a bipartition: entries a_i + i and b_i + i - 1 (type D:
    both rows shifted by i - 1, the forced a_0 dropped)."""
    if rho.type_d:
        top = tuple(a + i for i, a in enumerate(rho.alpha[1:]))
    else:
        top = tuple(a + i for i, a in enumerate(rho.alpha))
    bottom = tuple(b + i for i, b in enumerate(rho.beta))
    return Symbol._trusted(top, bottom, rho.type_d)


def bipartition_of_symbol(s: Symbol) -> Bipartition:
    """Underlying bipartition (subtract the staircase from each row)."""
    bottom = tuple(v - i for i, v in enumerate(s.bottom))
    if s.type_d:
        alpha = (0,) + tuple(v - i for i, v in enumerate(s.top))
    else:
        alpha = tuple(v - i for i, v in enumerate(s.top))
    return Bipartition(alpha, bottom, s.type_d)


def normalize_symbol(s: Symbol) -> Symbol:
    """Minimal representative under the shift equivalence: strip the z
    leading pairs (0, 0) .. (z-1, z-1) and lower the rest by z."""
    top, bottom, z = s.top, s.bottom, 0
    while z < len(bottom) and top[z] == bottom[z] == z:
        z += 1
    if z == 0:
        return s
    return Symbol([v - z for v in top[z:]], [v - z for v in bottom[z:]], s.type_d)


def is_special_symbol(s: Symbol) -> bool:
    """True when the rows interleave: a_0 <= b_1 <= a_1+1 <= ... in types
    B/C, b_1 <= a_1 <= b_2+1 <= ... in type D (entrywise on the symbol)."""
    first, second = (s.bottom, s.top) if s.type_d else (s.top, s.bottom)
    merged = [0] * (len(first) + len(second))
    merged[::2], merged[1::2] = first, second
    return _weakly_increasing(merged)


def _special_rows(rho: Bipartition) -> bool:
    """``is_special_symbol(symbol_of(rho))``, read off the rows of ``rho``
    with no symbol built.  The symbol adds the same staircase 0, 1, 2, ...
    to the i-th entries of both rows, so its rows interleave exactly when
    first_i <= second_i <= first_{i+1} + 1 for the rows in the order they
    interleave: a_i <= b_i <= a_{i+1} + 1 in types B/C, and in type D the
    same with the beta row, the symbol's bottom row, first."""
    if rho.type_d:
        first, second = rho.beta, rho.alpha[1:]
    else:
        first, second = rho.alpha, rho.beta
    return all(map(le, first, second)) and all(
        y <= x + 1 for y, x in zip(second, first[1:])
    )


def family_key(s: Symbol) -> tuple:
    """Canonical key shared exactly by the symbols of one family: row sizes
    plus the sorted entry multiset of the shift-minimal form."""
    m = normalize_symbol(s)
    return (m.type_d, len(m.top), len(m.bottom), tuple(sorted(m.top + m.bottom)))


# The Springer block rule, per type, as (shift, sigma, offset, single).
# With rho = (a_0..a_k) x (b_1..b_k), column i pairs x = a_{i-1+offset}
# with y = b_i and gives the parts 2x+shift and 2y-shift, or the two equal
# parts 2x+shift+sigma when y = x+shift+sigma.  The one alpha entry no
# column uses, a_k (offset 0) or a_0 (offset 1), gives the single part
# 2a+single; in type D that entry is the forced 0, so its part drops out.
_BLOCKS = {
    GroupType.B: (1, -1, 0, 1),  # {2a_{i-1}+1, 2b_i-1} or 2a_{i-1} twice; 2a_k+1
    GroupType.C: (0, 1, 1, 0),  # {2a_i, 2b_i} or 2a_i+1 twice; 2a_0
    GroupType.D: (-1, 1, 1, 0),  # {2a_i-1, 2b_i+1} or 2a_i twice
}


def partition_of_special_symbol(s: Symbol, t: GroupType) -> Partition:
    """Special partition attached to a special symbol of type ``t``: each
    column of its bipartition gives two parts and the unused alpha entry
    one part, by the type's row of the block table ``_BLOCKS``.  Zeros are
    dropped."""
    if s.type_d != (t is GroupType.D):
        raise ValueError(f"symbol kind does not match type {t}")
    if not is_special_symbol(s):
        raise ValueError(f"symbol {s} is not special")
    return _special_partition(bipartition_of_symbol(s), t)


def _special_partition(rho: Bipartition, t: GroupType) -> Partition:
    """The block rule ``_BLOCKS`` of type ``t`` on the special bipartition
    ``rho``, whose kind matches ``t``."""
    shift, sigma, offset, single = _BLOCKS[t]
    parts = [2 * rho.alpha[offset - 1] + single]
    for x, y in zip(rho.alpha[offset:], rho.beta):
        if y == x + shift + sigma:
            parts += [2 * x + shift + sigma] * 2
        else:
            parts += [2 * x + shift, 2 * y - shift]
    lam = Partition(parts)
    assert lam.size == 2 * rho.n + t.size_parity
    return lam


@lru_cache(maxsize=None)
def springer_bipartition(lam: Partition, t: GroupType) -> Bipartition:
    """The special bipartition whose special symbol yields ``lam``.

    Read off the Springer symbol of ``lam`` by the parity split (Shoji
    1979; Lusztig 1979; Carter, *Finite Groups of Lie Type*, 13.3): sort
    the parts in increasing order, pad with one leading 0 to odd length
    (B, C) or even length (D), and add 0, 1, 2, ... to them.  Each even
    value 2x gives an entry x of one row and each odd value 2y+1 an entry
    y of the other; the odd row is the top row for B, the even row for C
    and D.  The result is the bipartition of that symbol: the split rows
    less the staircase, with no ``Symbol`` in between.  Those rows are
    non-negative and weakly increasing by construction, so after the
    row-length check and the type-D orientation of ``Bipartition`` they
    are stored by ``Bipartition._trusted``.
    """
    problem = orbit_problem(lam, t, special=True)
    if problem:
        raise ValueError(problem)
    type_d = t is GroupType.D
    parts = sorted(lam)
    if len(parts) % 2 == type_d:  # odd length for B and C, even for D
        parts.insert(0, 0)
    # each symbol entry less its place in its row, the staircase that
    # bipartition_of_symbol subtracts
    rows: tuple[list[int], list[int]] = ([], [])
    for i, p in enumerate(parts):
        row = rows[(p + i) % 2]
        row.append((p + i) // 2 - len(row))
    even, odd = rows
    top, bottom = (odd, even) if t is GroupType.B else (even, odd)
    # the values of one row rise by at least 2, so their halves less the
    # staircase are weakly increasing from a non-negative first entry
    alpha = (0, *top) if type_d else tuple(top)
    beta = tuple(bottom)
    _check_row_lengths(alpha, beta)
    if type_d:
        alpha, beta = _oriented_d(alpha, beta)
    return Bipartition._trusted(alpha, beta, type_d)


# Case rules of the specialization, as (delta1, delta2, shift, lag, first):
# for i >= first and j = i - lag, when b_i - a_j = delta1 and
# b_i' - a_j' = delta2, set (c_j, d_i) <- (b_i+b_i'+shift, a_j+a_j'-shift).
# "CD_mirrored" moves the (C,D) rule's -1 to the first factor; the harness
# counts how often it would disagree with the stated rule.
_RULES = {
    "BB": (1, 1, -1, 0, 1),
    "CD": (0, -1, 0, 1, 1),
    "DD": (-1, -1, 1, 1, 2),
    "CD_mirrored": (-1, 0, 0, 1, 1),
}


def _padded_sum(
    rho1: Bipartition, rho2: Bipartition, rule: str | None = None
) -> Bipartition:
    """Entrywise sum c_i = a_i + a_i', d_i = b_i + b_i' of the two
    bipartitions padded to a common number of columns, with the named case
    rule of ``_RULES`` applied (none: the plain sum)."""
    k = max(rho1.k, rho2.k)
    a, b = _padded_rows(rho1, k)
    ap, bp = _padded_rows(rho2, k)
    c = [a[i] + ap[i] for i in range(k + 1)]
    d = [b[i] + bp[i] for i in range(k)]
    if rule is not None:
        delta1, delta2, shift, lag, first = _RULES[rule]
        for i in range(first, k + 1):
            j = i - lag
            if b[i - 1] - a[j] == delta1 and bp[i - 1] - ap[j] == delta2:
                c[j] = b[i - 1] + bp[i - 1] + shift
                d[i - 1] = a[j] + ap[j] - shift
    return Bipartition(tuple(c), tuple(d), type_d=rho1.type_d and rho2.type_d)


def specialize_sum(rho1: Bipartition, rho2: Bipartition, pair: PairType) -> Bipartition:
    """Special bipartition in the family of the entrywise sum.

    Inputs are the special bipartitions of the two endoscopic factors,
    padded to a common number of columns.  The result starts from the
    plain sums c_i = a_i + a_i', d_i = b_i + b_i'; every index i in the
    correction set J then replaces the two entries adjacent to the
    interleaving violation, per pair type:

      (B,B): J = {i : b_i = a_i+1, b_i' = a_i'+1},
             (c_i, d_i) <- (a_i+a_i'+1, b_i+b_i'-1);
      (C,D): J = {i : b_i = a_{i-1}, b_i' = a_{i-1}'-1},
             (c_{i-1}, d_i) <- (b_i+b_i', a_{i-1}+a_{i-1}');
      (D,D): J = {i >= 2 : b_i = a_{i-1}-1, b_i' = a_{i-1}'-1},
             (c_{i-1}, d_i) <- (b_i+b_i'+1, a_{i-1}+a_{i-1}'-1);

    the unprimed rows belong to the first factor.  The (C,D) and (D,D)
    adjustments land on the (c_{i-1}, d_i) diagonal: that slotting is the
    only one whose rows stay weakly increasing, and it is cross-checked in
    the harness against the brute-force minimum and the family's special
    symbol.

    Specialness of both factors and of the result is read off their rows
    (a symbol's rows interleave exactly when a_i <= b_i <= a_{i+1} + 1, or
    the type-D analogue), so no ``Symbol`` is built.
    """
    t1, t2 = pair.factor_types
    if rho1.type_d != (t1 is GroupType.D) or rho2.type_d != (t2 is GroupType.D):
        raise ValueError(f"bipartition kinds do not match pair type {pair}")
    for rho, which in ((rho1, 1), (rho2, 2)):
        if not _special_rows(rho):
            raise ValueError(f"factor {which} bipartition {rho} is not special")
    return _special_sum(rho1, rho2, pair)


def _special_sum(rho1: Bipartition, rho2: Bipartition, pair: PairType) -> Bipartition:
    """:func:`specialize_sum` of factors already known to be special of the
    pair's factor types; only the result is checked."""
    result = _padded_sum(rho1, rho2, pair.value)
    if not _special_rows(result):
        raise RuntimeError(
            f"specialized sum of {rho1} and {rho2} ({pair}) is not special: "
            f"{result}"
        )
    return result


def special_closure(lam1: Partition, lam2: Partition, pair: PairType) -> Partition:
    """Smallest special partition above the transfer image
    ``waldspurger(lam1, lam2, pair)``: Lusztig's special representative of
    the summed Springer bipartitions (:func:`specialize_sum`), turned into
    a partition by the block rule ``_BLOCKS`` applied to the bipartition
    itself.  No symbol is built on the way, and the factors' Springer
    bipartitions, special of the factor types because ``lam1`` and ``lam2``
    are checked to be special, are not checked again."""
    t1, t2 = pair.factor_types
    rho = _special_sum(
        springer_bipartition(lam1, t1), springer_bipartition(lam2, t2), pair
    )
    return _special_partition(rho, pair.target)


def _interleaved(rho: Bipartition) -> list[int]:
    """The rows of ``rho`` read from the top column down: a_k, b_k, ...,
    a_1, b_1, a_0."""
    seq = [0] * (2 * rho.k + 1)
    seq[::2], seq[1::2] = rho.alpha[::-1], rho.beta[::-1]
    return seq


def bipartition_leq(rho: Bipartition, sigma: Bipartition) -> bool:
    """Suffix-sum order on bipartitions of equal size.

    rho <= sigma iff for every index both tail sums compare:
        sum_{j>=i} (a_j + b_j) <= sum_{j>=i} (p_j + q_j)      (i = 1..k)
        sum_{j>i} (a_j + b_j) + a_i <= ...same on sigma...    (i = 0..k)
    These tail sums are the prefix sums of a_k, b_k, ..., a_1, b_1, a_0, so
    the order is dominance of those sequences (padding only appends zeros).
    """
    if rho.type_d != sigma.type_d:
        raise ValueError("cannot compare bipartitions of different kinds")
    if rho.n != sigma.n:
        raise ValueError(f"sizes differ: {rho.n} and {sigma.n}")
    return dominance_leq(_interleaved(rho), _interleaved(sigma))


def parse_bipartition(text: str, t: GroupType) -> Bipartition:
    """Parse "alpha|beta" with comma-separated sides, each of size at most
    :data:`~orbitcalc.partitions.MAX_INPUT_SIZE`; for type D the rows have
    equal length and the forced leading zero is implied."""
    if "|" not in text:
        raise ValueError(f"bipartition text needs an 'alpha|beta' bar: {text!r}")
    left, _, right = text.partition("|")

    def side(chunk: str, name: str) -> tuple[int, ...]:
        chunk = chunk.strip()
        if not chunk:
            return ()
        try:
            return tuple(parse_int(tok.strip()) for tok in chunk.split(","))
        except ValueError:
            raise ValueError(f"invalid {name} row in {text!r}") from None

    alpha, beta = side(left, "alpha"), side(right, "beta")
    if t is GroupType.D:
        rho = Bipartition((0,) + alpha, beta, type_d=True)
    else:
        rho = Bipartition(alpha, beta)
    check_input_size("alpha row size", sum(alpha))
    check_input_size("beta row size", sum(beta))
    return rho
