"""Two-row symbols, bipartitions and the special-orbit correspondence.

A bipartition (a_0..a_k) x (b_1..b_k) of n (weakly increasing rows, one
more a than b) labels an irreducible representation of the Weyl group of
type B_n/C_n; its symbol has rows (a_i + i) and (b_i + i - 1).  In type D
the a_0 slot is forced to zero, both symbol rows are shifted by i - 1, and
the rows form an unordered pair.  Symbols related by prepending zeros to
both rows and shifting the rest up by one are regarded as equal; symbols
with the same entry multiset form a family, and each family contains a
unique special symbol, the one whose rows interleave.

A special symbol is converted to the special partition of the matching
orbit by the two-element-block rules in
:func:`partition_of_special_symbol`; :func:`springer_bipartition` inverts
that map.  :func:`specialize_sum` implements the closed-form special
representative of the family of a summed bipartition, which computes the
smallest special partition above an endoscopic transfer image
(:func:`special_closure`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .partitions import GroupType, Partition, classify
from .waldspurger import PairType, waldspurger


def _weakly_increasing(seq: tuple[int, ...]) -> bool:
    return all(a <= b for a, b in zip(seq, seq[1:]))


def _as_row(seq: Iterable[int], name: str) -> tuple[int, ...]:
    row = tuple(seq)
    for v in row:
        if not isinstance(v, int) or v < 0:
            raise ValueError(f"{name} entry {v!r} must be a non-negative integer")
    return row


@dataclass(frozen=True, eq=False)
class Bipartition:
    """Pair of weakly increasing rows; ``alpha`` one longer than ``beta``.

    For type D the leading alpha entry is a forced 0 (a placeholder slot)
    and the two real rows form an unordered pair: the constructor stores
    the orientation with the lexicographically smaller row on the beta
    side.  Equality and hashing ignore leading (0, 0) padding.
    """

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    type_d: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _as_row(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _as_row(self.beta, "beta"))
        if len(self.alpha) != len(self.beta) + 1:
            raise ValueError(
                f"alpha must have one more entry than beta, got "
                f"{len(self.alpha)} and {len(self.beta)}"
            )
        if self.type_d:
            if self.alpha[0] != 0:
                raise ValueError("type-D bipartitions have a forced leading 0")
            if self.beta > self.alpha[1:]:
                tail = self.alpha[1:]
                object.__setattr__(self, "alpha", (0,) + self.beta)
                object.__setattr__(self, "beta", tail)
        if not (_weakly_increasing(self.alpha) and _weakly_increasing(self.beta)):
            raise ValueError(f"rows must be weakly increasing: {self}")

    @property
    def n(self) -> int:
        return sum(self.alpha) + sum(self.beta)

    @property
    def k(self) -> int:
        return len(self.beta)

    def trimmed(self) -> "Bipartition":
        """Canonical representative with leading zero pairs removed."""
        alpha, beta = self.alpha, self.beta
        if self.type_d:
            while beta and beta[0] == 0 and alpha[1] == 0:
                alpha = (0,) + alpha[2:]
                beta = beta[1:]
        else:
            while beta and beta[0] == 0 and alpha[0] == 0:
                alpha = alpha[1:]
                beta = beta[1:]
        return Bipartition(alpha, beta, self.type_d)

    def padded(self, k: int) -> "Bipartition":
        """Equivalent form with ``k`` beta entries (k >= self.k)."""
        if k < self.k:
            raise ValueError(f"cannot pad k={self.k} down to {k}")
        extra = (0,) * (k - self.k)
        if self.type_d:
            return Bipartition(
                (0,) + extra + self.alpha[1:], extra + self.beta, True
            )
        return Bipartition(extra + self.alpha, extra + self.beta)

    def _key(self) -> tuple:
        t = self.trimmed()
        return (t.type_d, t.alpha, t.beta)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bipartition):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __str__(self) -> str:
        left = self.alpha[1:] if self.type_d else self.alpha
        return "{}|{}".format(
            ",".join(str(v) for v in left), ",".join(str(v) for v in self.beta)
        )


@dataclass(frozen=True, eq=False)
class Symbol:
    """Two strictly increasing rows; top one longer than bottom (B/C) or of
    equal length with unordered rows (D).  Equality is up to the shift that
    prepends a 0 to both rows and raises the remaining entries by one."""

    top: tuple[int, ...]
    bottom: tuple[int, ...]
    type_d: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "top", _as_row(self.top, "top"))
        object.__setattr__(self, "bottom", _as_row(self.bottom, "bottom"))
        expected = len(self.bottom) if self.type_d else len(self.bottom) + 1
        if len(self.top) != expected:
            raise ValueError(
                f"row lengths {len(self.top)}/{len(self.bottom)} are invalid"
            )
        for row in (self.top, self.bottom):
            if any(a >= b for a, b in zip(row, row[1:])):
                raise ValueError(f"rows must be strictly increasing: {row}")
        if self.type_d and self.bottom > self.top:
            top = self.top
            object.__setattr__(self, "top", self.bottom)
            object.__setattr__(self, "bottom", top)

    def _key(self) -> tuple:
        s = normalize_symbol(self)
        return (s.type_d, s.top, s.bottom)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Symbol):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

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
    return Symbol(top, bottom, rho.type_d)


def bipartition_of_symbol(s: Symbol) -> Bipartition:
    """Underlying bipartition (subtract the staircase from each row)."""
    bottom = tuple(v - i for i, v in enumerate(s.bottom))
    if s.type_d:
        alpha = (0,) + tuple(v - i for i, v in enumerate(s.top))
    else:
        alpha = tuple(v - i for i, v in enumerate(s.top))
    return Bipartition(alpha, bottom, s.type_d)


def normalize_symbol(s: Symbol) -> Symbol:
    """Minimal representative under the shift equivalence."""
    top, bottom = s.top, s.bottom
    while top and bottom and top[0] == 0 and bottom[0] == 0:
        top = tuple(v - 1 for v in top[1:])
        bottom = tuple(v - 1 for v in bottom[1:])
    if (top, bottom) == (s.top, s.bottom):
        return s
    return Symbol(top, bottom, s.type_d)


def is_special_symbol(s: Symbol) -> bool:
    """True when the rows interleave: a_0 <= b_1 <= a_1+1 <= ... in types
    B/C, b_1 <= a_1 <= b_2+1 <= ... in type D (entrywise on the symbol)."""
    if s.type_d:
        return all(b <= t for b, t in zip(s.bottom, s.top)) and all(
            t <= b for t, b in zip(s.top, s.bottom[1:])
        )
    return all(t <= b for t, b in zip(s.top, s.bottom)) and all(
        b <= t for b, t in zip(s.bottom, s.top[1:])
    )


def family_key(s: Symbol) -> tuple:
    """Canonical key shared exactly by the symbols of one family: row sizes
    plus the sorted entry multiset of the shift-minimal form."""
    m = normalize_symbol(s)
    return (m.type_d, len(m.top), len(m.bottom), tuple(sorted(m.top + m.bottom)))


def partition_of_special_symbol(s: Symbol, t: GroupType) -> Partition:
    """Special partition attached to a special symbol of type ``t``.

    With rho = (a_0..a_k) x (b_1..b_k) the parts are, per index i = 1..k:

      B: {2a_{i-1}+1, 2b_i-1}, or {2a_{i-1}, 2b_i} when b_i = a_{i-1};
         plus the single part 2a_k+1;
      C: {2a_i, 2b_i}, or {2a_i+1, 2b_i-1} when b_i = a_i+1; plus 2a_0;
      D: {2b_i+1, 2a_i-1}, or {2b_i, 2a_i} when b_i = a_i.

    Zeros are dropped.
    """
    if s.type_d != (t is GroupType.D):
        raise ValueError(f"symbol kind does not match type {t}")
    if not is_special_symbol(s):
        raise ValueError(f"symbol {s} is not special")
    rho = bipartition_of_symbol(s)
    a, b = rho.alpha, rho.beta
    k = rho.k
    parts: list[int] = []
    if t is GroupType.B:
        for i in range(1, k + 1):
            if b[i - 1] == a[i - 1]:
                parts += [2 * a[i - 1], 2 * b[i - 1]]
            else:
                parts += [2 * a[i - 1] + 1, 2 * b[i - 1] - 1]
        parts.append(2 * a[k] + 1)
    elif t is GroupType.C:
        parts.append(2 * a[0])
        for i in range(1, k + 1):
            if b[i - 1] == a[i] + 1:
                parts += [2 * a[i] + 1, 2 * b[i - 1] - 1]
            else:
                parts += [2 * a[i], 2 * b[i - 1]]
    else:
        for i in range(1, k + 1):
            if b[i - 1] == a[i]:
                parts += [2 * b[i - 1], 2 * a[i]]
            else:
                parts += [2 * b[i - 1] + 1, 2 * a[i] - 1]
    lam = Partition(parts)
    assert lam.size == 2 * rho.n + t.size_parity
    return lam


@lru_cache(maxsize=None)
def springer_bipartition(lam: Partition, t: GroupType) -> Bipartition:
    """The special bipartition whose special symbol yields ``lam``.

    Inverts :func:`partition_of_special_symbol` by reading the parts in
    decreasing order and pairing them off by parity; no search involved.
    """
    cls = classify(lam, t)
    if not cls.member:
        raise ValueError(f"{str(lam)!r} is not a type-{t} partition")
    if not cls.special:
        raise ValueError(f"{str(lam)!r} is not special for type {t}")

    def split_pairs(values: tuple[int, ...]) -> list[tuple[int, int]]:
        return [(values[i], values[i + 1]) for i in range(0, len(values), 2)]

    try:
        if t is GroupType.B:
            # decreasing layout: 2a_k+1, then pairs (2b_i-1, 2a_{i-1}+1)
            # or (2b_i, 2a_{i-1}) with equal even entries.
            if len(lam) % 2 == 0 or lam[0] % 2 == 0:
                raise ValueError
            a_rev = [(lam[0] - 1) // 2]
            b_rev = []
            for u, v in split_pairs(lam[1:]):
                if u % 2 == 1:
                    if v % 2 == 0:
                        raise ValueError
                    b_rev.append((u + 1) // 2)
                    a_rev.append((v - 1) // 2)
                else:
                    if u != v:
                        raise ValueError
                    b_rev.append(u // 2)
                    a_rev.append(v // 2)
            rho = Bipartition(tuple(reversed(a_rev)), tuple(reversed(b_rev)))
        elif t is GroupType.C:
            # decreasing layout: pairs (2a_i, 2b_i) or equal odd entries
            # (2a_i+1, 2b_i-1), then the single entry 2a_0.
            padded = tuple(lam) if len(lam) % 2 == 1 else tuple(lam) + (0,)
            if padded[-1] % 2 == 1:
                raise ValueError
            a_rev, b_rev = [], []
            for u, v in split_pairs(padded[:-1]):
                if u % 2 == 1:
                    if u != v:
                        raise ValueError
                    a_rev.append((u - 1) // 2)
                    b_rev.append((v + 1) // 2)
                else:
                    if v % 2 == 1:
                        raise ValueError
                    a_rev.append(u // 2)
                    b_rev.append(v // 2)
            a_rev.append(padded[-1] // 2)
            rho = Bipartition(tuple(reversed(a_rev)), tuple(reversed(b_rev)))
        else:
            # decreasing layout: pairs (2a_i-1, 2b_i+1) or (2a_i, 2b_i).
            assert len(lam) % 2 == 0
            a_rev, b_rev = [], []
            for u, v in split_pairs(tuple(lam)):
                if u % 2 == 1:
                    if v % 2 == 0:
                        raise ValueError
                    a_rev.append((u + 1) // 2)
                    b_rev.append((v - 1) // 2)
                else:
                    if u != v:
                        raise ValueError
                    a_rev.append(u // 2)
                    b_rev.append(v // 2)
            rho = Bipartition(
                (0,) + tuple(reversed(a_rev)), tuple(reversed(b_rev)), True
            )
    except ValueError as exc:
        raise RuntimeError(
            f"pairing failed on special partition {lam} of type {t}"
        ) from exc
    assert partition_of_special_symbol(symbol_of(rho), t) == lam
    return rho


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
    p1, p2 = rho1.padded(k), rho2.padded(k)
    a, b = p1.alpha, p1.beta
    ap, bp = p2.alpha, p2.beta
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
    """
    t1, t2 = pair.factor_types
    if rho1.type_d != (t1 is GroupType.D) or rho2.type_d != (t2 is GroupType.D):
        raise ValueError(f"bipartition kinds do not match pair type {pair}")
    for rho, which in ((rho1, 1), (rho2, 2)):
        if not is_special_symbol(symbol_of(rho)):
            raise ValueError(f"factor {which} bipartition {rho} is not special")
    result = _padded_sum(rho1, rho2, pair.value)
    if not is_special_symbol(symbol_of(result)):
        raise RuntimeError(
            f"specialized sum of {rho1} and {rho2} ({pair}) is not special: "
            f"{result}"
        )
    return result


def special_closure(lam1: Partition, lam2: Partition, pair: PairType) -> Partition:
    """Smallest special partition above the transfer image
    ``waldspurger(lam1, lam2, pair)``, computed through symbols."""
    t1, t2 = pair.factor_types
    rho = specialize_sum(
        springer_bipartition(lam1, t1), springer_bipartition(lam2, t2), pair
    )
    return partition_of_special_symbol(symbol_of(rho), pair.target)


def bipartition_leq(rho: Bipartition, sigma: Bipartition) -> bool:
    """Suffix-sum order on bipartitions of equal size.

    rho <= sigma iff for every index both tail sums compare:
        sum_{j>=i} (a_j + b_j) <= sum_{j>=i} (p_j + q_j)      (i = 1..k)
        sum_{j>i} (a_j + b_j) + a_i <= ...same on sigma...    (i = 0..k)
    """
    if rho.type_d != sigma.type_d:
        raise ValueError("cannot compare bipartitions of different kinds")
    if rho.n != sigma.n:
        raise ValueError(f"sizes differ: {rho.n} and {sigma.n}")
    k = max(rho.k, sigma.k)
    r, s = rho.padded(k), sigma.padded(k)

    def tails(bp: Bipartition) -> tuple[list[int], list[int]]:
        full = [0] * (k + 2)  # full[i] = sum_{j>=i} (a_j + b_j), i = 1..k+1
        for i in range(k, 0, -1):
            full[i] = full[i + 1] + bp.alpha[i] + bp.beta[i - 1]
        broken = [full[i + 1] + bp.alpha[i] for i in range(k + 1)]
        return full[1:-1], broken

    full_r, broken_r = tails(r)
    full_s, broken_s = tails(s)
    return all(x <= y for x, y in zip(full_r, full_s)) and all(
        x <= y for x, y in zip(broken_r, broken_s)
    )


def parse_bipartition(text: str, t: GroupType) -> Bipartition:
    """Parse "alpha|beta" with comma-separated sides; for type D the rows
    have equal length and the forced leading zero is implied."""
    if "|" not in text:
        raise ValueError(f"bipartition text needs an 'alpha|beta' bar: {text!r}")
    left, _, right = text.partition("|")

    def side(chunk: str, name: str) -> tuple[int, ...]:
        chunk = chunk.strip()
        if not chunk:
            return ()
        try:
            return tuple(int(tok.strip()) for tok in chunk.split(","))
        except ValueError:
            raise ValueError(f"invalid {name} row in {text!r}") from None

    alpha, beta = side(left, "alpha"), side(right, "beta")
    if t is GroupType.D:
        return Bipartition((0,) + alpha, beta, type_d=True)
    return Bipartition(alpha, beta)
