"""The member and special enumerations against counts that share no code
with them.

* Members.  An orthogonal partition may repeat an odd part freely but an
  even part only in pairs, so the orthogonal partitions of m are counted by
  the coefficient of x^m in prod_{i odd} 1/(1-x^i) * prod_{i even}
  1/(1-x^(2i)).  The symplectic count swaps odd and even.
* Specials.  The special orbits of rank n correspond to the bipartitions of
  n whose symbol is special, found here with ``symbol_of`` and
  ``is_special_symbol`` alone, never with ``transpose`` or ``classify``.
  In type D a bipartition is an unordered pair, and a very even orbit
  carries no I/II label, so each counts once.
* Shapes.  A shape is a multiset of admissible summands whose weights add
  up to the dimension m of the dual group's standard module, so the shapes
  are counted by the coefficient of x^m in prod 1/(1-x^weight) over the
  admissible summands, with admissibility written out here afresh.
* Shapes by Jordan type.  ``jordan_type_counts`` against a tally of the
  Jordan types of the enumerated shapes.
* Sweep sizes.  The ``cases_checked`` that CI pins, as closed forms in the
  counts above: the chain's splits are pairs of factor shapes, the shape
  sweeps take every shape once, and the pair sweeps take every pair of
  partitions, or of dominated pairs, of the sizes they walk.
"""

from collections import Counter
from itertools import accumulate, product, zip_longest

import pytest

from orbitcalc.aparams import jordan_type_counts, npsi_partition, shapes_for
from orbitcalc.harness import member_list, special_list, verify
from orbitcalc.partitions import GroupType
from orbitcalc.symbols import Bipartition, is_special_symbol, symbol_of


def member_counts(orthogonal: bool, top: int) -> list[int]:
    """Coefficients of x^0 .. x^top of the member generating function."""
    coeffs = [1] + [0] * top
    for i in range(1, top + 1):
        weight = i if (i % 2 == 1) == orthogonal else 2 * i
        for n in range(weight, top + 1):
            coeffs[n] += coeffs[n - weight]
    return coeffs


def decreasing(n: int, largest: int) -> list[tuple[int, ...]]:
    """Partitions of n into parts of at most ``largest``, as decreasing
    tuples."""
    if n == 0:
        return [()]
    return [
        (p, *rest)
        for p in range(min(n, largest), 0, -1)
        for rest in decreasing(n - p, p)
    ]


def special_bipartition_count(n: int, type_d: bool) -> int:
    """Number of distinct bipartitions of n, of type D or not, whose symbol
    is special."""
    found = set()
    for k in range(n + 1):
        for a in decreasing(k, k):
            for b in decreasing(n - k, n - k):
                rows = max(len(a), len(b))
                alpha = (0,) * (rows + 1 - len(a)) + a[::-1]
                beta = (0,) * (rows - len(b)) + b[::-1]
                rho = Bipartition(alpha, beta, type_d)
                if is_special_symbol(symbol_of(rho)):
                    found.add(rho)
    return len(found)


@pytest.mark.parametrize("t", list(GroupType), ids=str)
def test_member_counts(t):
    counts = member_counts(t.orthogonal, 24)
    for d in range(t.size_parity, 25, 2):
        assert len(member_list(d, t)) == counts[d], d


@pytest.mark.parametrize("t", list(GroupType), ids=str)
def test_special_counts(t):
    for d in range(t.size_parity, 17, 2):
        expected = special_bipartition_count(d // 2, t is GroupType.D)
        assert len(special_list(d, t)) == expected, d


def shape_counts(symplectic: bool, top: int) -> list[int]:
    """Coefficients of x^0 .. x^top of prod 1/(1-x^weight) over the summands
    (dim, rho type, a, b) that a dual group with symplectic (or orthogonal)
    self-dual summands admits.  A pair summand "P" has weight 2*dim*a*b and
    is always admitted; a self-dual one has weight dim*a*b and is
    symplectic iff an odd number of (rho symplectic, a even, b even) hold,
    and a symplectic rho "S" needs an even dim."""
    coeffs = [1] + [0] * top
    for dim, a, b in product(range(1, top + 1), repeat=3):
        for rho in "OSP":
            weight = dim * a * b * (2 if rho == "P" else 1)
            if weight > top or (rho == "S" and dim % 2 == 1):
                continue
            flips = (rho == "S") + (a % 2 == 0) + (b % 2 == 0)
            if rho != "P" and (flips % 2 == 1) != symplectic:
                continue
            for n in range(weight, top + 1):
                coeffs[n] += coeffs[n - weight]
    return coeffs


@pytest.mark.parametrize("t", list(GroupType), ids=str)
def test_shape_counts(t):
    # SO_{2n+1} has dual Sp_{2n}, Sp_{2n} has dual SO_{2n+1}, SO_{2n} is
    # self-dual; only Sp has symplectic self-dual summands.
    counts = shape_counts(t is GroupType.B, 16)
    odd = t is GroupType.C
    for rank in range(9 - odd):  # every rank with m <= 16, rank 0 included
        assert len(shapes_for(t, rank)) == counts[2 * rank + odd], rank


@pytest.mark.parametrize("t", list(GroupType), ids=str)
def test_jordan_type_counts(t):
    odd = t is GroupType.C
    for rank in range(9 - odd):  # every rank with m <= 16, rank 0 included
        tally = Counter(npsi_partition(psi) for psi in shapes_for(t, rank))
        assert jordan_type_counts(t, rank) == tally, rank


def chain_split_count(bound: int) -> int:
    """Proper splits of the shapes of every target up to ``bound``: pairs
    of nonempty factor shapes of dual-module sizes m1 + m2 <= bound.  The
    factors of SO(2n+1) are (B,B), of Sp(2n) (C,D) and of SO(2n) (D,D); a
    B factor's dual is symplectic of even m, a C factor's orthogonal of
    odd m and a D factor's orthogonal of even m.  The (C,D) pair is
    ordered; a (B,B) or (D,D) pair is not, so m1 < m2 counts S(m1)S(m2)
    and m1 = m2 counts S(m)(S(m)+1)/2."""
    symplectic = shape_counts(True, bound)
    orthogonal = shape_counts(False, bound)
    total = sum(
        orthogonal[m1] * orthogonal[m2]
        for m1 in range(1, bound + 1, 2)
        for m2 in range(2, bound - m1 + 1, 2)
    )
    for counts in (symplectic, orthogonal):
        for m1 in range(2, bound + 1, 2):
            for m2 in range(m1, bound - m1 + 1, 2):
                n1, n2 = counts[m1], counts[m2]
                total += n1 * (n1 + 1) // 2 if m1 == m2 else n1 * n2
    return total


def shape_total(bound: int) -> int:
    """Shapes of every target of rank at least 1 whose dual module has
    dimension m <= bound: even m >= 2 for the symplectic dual of B, and
    every m >= 2 for the orthogonal duals of C (odd) and D (even)."""
    return sum(shape_counts(True, bound)[2::2]) + sum(shape_counts(False, bound)[2:])


def same_size_pairs(bound: int) -> int:
    """Ordered pairs of partitions of one size d <= bound."""
    return sum(len(decreasing(d, d)) ** 2 for d in range(bound + 1))


def pairs_within(bound: int) -> int:
    """Ordered pairs of partitions of sizes d1 + d2 <= bound."""
    p = [len(decreasing(d, d)) for d in range(bound + 1)]
    return sum(p[d1] * p[d2] for d1 in range(bound + 1) for d2 in range(bound + 1 - d1))


def dominated_pairs_within(bound: int) -> int:
    """Ordered pairs of pairs (lambda, mu) of partitions, each pair of one
    size and mu <= lambda in dominance (every partial sum of mu at most
    lambda's, a partition's sums padded with its size), of sizes
    d1 + d2 <= bound."""
    dominated = []
    for d in range(bound + 1):
        sums = [list(accumulate(p)) for p in decreasing(d, d)]
        dominated.append(sum(
            all(m <= l for m, l in zip_longest(mu, lam, fillvalue=d))
            for lam in sums for mu in sums
        ))
    return sum(
        dominated[d1] * dominated[d2]
        for d1 in range(bound + 1) for d2 in range(bound + 1 - d1)
    )


def special_pairs(bound: int) -> int:
    """Ordered pairs of special partitions of one type and one size."""
    return sum(
        special_bipartition_count(d // 2, t is GroupType.D) ** 2
        for t in GroupType for d in range(t.size_parity, bound + 1, 2)
    )


# (property, closed form, bounds swept here, pinned counts); the pins are
# the counts of the CI sweep table and of perfbench/golden.json, and the
# chain's at 24 and 40
SWEEP_SIZES = [
    ("chain", chain_split_count, range(13),
     {12: 26343, 24: 52864207, 32: 3952381719, 40: 207644943326}),
    ("wavefront_special", shape_total, range(17), {24: 2319737}),
    ("npsi_oracle", shape_total, range(9), {10: 2252, 12: 6922}),
    ("achar", special_pairs, range(11), {20: 72025}),
    ("order_reversal", same_size_pairs, range(11), {18: 361845}),
    ("transpose_union", pairs_within, range(13), {20: 80377}),
    ("union_monotone", dominated_pairs_within, range(9), {14: 290758}),
]


@pytest.mark.parametrize("name,count,small_bounds,pins", SWEEP_SIZES,
                         ids=[row[0] for row in SWEEP_SIZES])
def test_sweep_sizes_in_closed_form(name, count, small_bounds, pins):
    """Each closed form gives the sweep's ``cases_checked`` at small
    bounds, and the constants that CI and the golden reports pin at
    bounds that are not swept here."""
    for bound in small_bounds:
        assert count(bound) == verify(name, bound).cases_checked, bound
    assert {bound: count(bound) for bound in pins} == pins
