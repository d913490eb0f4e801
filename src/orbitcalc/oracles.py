"""Oracles that the harness's sweeps check the package against.

Each oracle avoids the code path it checks: the collapse oracle maximizes
over an explicit enumeration, the closure oracle minimizes over special
partitions, and the Jordan-type oracle ranks powers of an actual nilpotent
matrix by exact integer elimination and reads the block sizes off the rank
differences.  To keep them apart from what they check, this module takes
only :class:`~orbitcalc.partitions.Partition` and
:func:`~orbitcalc.partitions.dominance_leq` from the package, and the
brute-force oracles are given their candidates by the caller.
"""

from __future__ import annotations

from math import gcd
from typing import Callable, Iterable

from .partitions import Partition, dominance_leq


def _greatest(
    elements: list[Partition], leq: Callable[[Partition, Partition], bool]
) -> Partition | None:
    """The greatest element of ``elements`` under the partial order ``leq``,
    or None when there is none.  In a finite poset a unique maximal element
    is the greatest one, so one scan finds the only candidate (each element
    that lies above the current one replaces it) and a second checks that
    every other element lies below it."""
    if not elements:
        return None
    top = elements[0]
    for mu in elements[1:]:
        if leq(top, mu):
            top = mu
    return top if all(leq(mu, top) for mu in elements if mu is not top) else None


def brute_force_collapse(lam: Partition, members: Iterable[Partition]) -> Partition:
    """Maximum of the ``members`` dominated by ``lam``: the greatest element
    of that set under dominance, which exists exactly when it has a unique
    maximal element.  Given every type-t partition of ``lam``'s size, it
    validates :func:`orbitcalc.partitions.collapse`."""
    below = [mu for mu in members if dominance_leq(mu, lam)]
    top = _greatest(below, dominance_leq)
    if top is None:
        raise RuntimeError(f"no unique maximum below {lam}")
    return top


def brute_force_min_special_above(
    lam: Partition, specials: Iterable[Partition]
) -> Partition:
    """Minimum of the ``specials`` dominating ``lam``: the least element of
    that set under dominance, which exists exactly when it has a unique
    minimal element.  Given every special type-t partition of ``lam``'s
    size, it validates :func:`orbitcalc.symbols.special_closure`."""
    above = [mu for mu in specials if dominance_leq(lam, mu)]
    bottom = _greatest(above, lambda x, y: dominance_leq(y, x))
    if bottom is None:
        raise RuntimeError(f"no unique special minimum above {lam}")
    return bottom


def _combine(terms: Iterable[tuple[int, dict[int, int]]]) -> dict[int, int]:
    """Integer combination sum(coeff * row) of sparse rows {column: entry},
    without zero entries."""
    out: dict[int, int] = {}
    for coeff, row in terms:
        for c, v in row.items():
            out[c] = out.get(c, 0) + coeff * v
    return {c: v for c, v in out.items() if v}


def _rank(rows: list[dict[int, int]]) -> int:
    """Rank of an integer matrix given as sparse rows, by exact fraction-free
    elimination: each row is reduced against the kept rows by its leading
    column until it vanishes or leads a column no kept row leads."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = _combine([(1, row)])
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            row = _combine([(pivot[lead], row), (-row[lead], pivot)])
            g = gcd(*row.values())
            row = {c: v // g for c, v in row.items()}
    return len(pivots)


def jordan_type_oracle(blocks: tuple[tuple[int, int], ...]) -> Partition:
    """Jordan type of a block-diagonal nilpotent matrix, from the ranks of
    its powers; ``blocks`` lists (copies, block_size), as a tuple so that a
    sweep can memoise it.  With r_i the rank of the i-th power, cols[i] =
    r_i - r_(i+1) counts the blocks of size above i, so the blocks of size
    exactly k number cols[k - 1] - cols[k]."""
    mat: list[dict[int, int]] = []
    for copies, s in blocks:
        for _ in range(copies):
            pos = len(mat)
            mat.extend({pos + i + 1: 1} for i in range(s - 1))
            mat.append({})
    ranks = [len(mat)]
    power = mat
    while ranks[-1] > 0:
        ranks.append(_rank(power))
        power = [_combine((v, mat[c]) for c, v in row.items()) for row in power]
    cols = [ranks[i] - ranks[i + 1] for i in range(len(ranks) - 1)] + [0]
    return Partition(
        k for k in range(len(cols) - 1, 0, -1) for _ in range(cols[k - 1] - cols[k])
    )
