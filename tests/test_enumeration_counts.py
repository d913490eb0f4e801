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
"""

import pytest

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
