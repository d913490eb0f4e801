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
"""

from collections import Counter
from itertools import product

import pytest

from orbitcalc.aparams import jordan_type_counts, npsi_partition, shapes_for
from orbitcalc.harness import member_list, special_list
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
