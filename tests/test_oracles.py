"""The oracles of :mod:`orbitcalc.oracles`, given their candidates by the
harness's enumeration caches, against references that compare every pair
or eliminate over the rationals."""

import random
from fractions import Fraction

import pytest

import orbitcalc.oracles as oracles_module
from orbitcalc.harness import member_list, special_list
from orbitcalc.oracles import (
    _rank,
    brute_force_collapse,
    brute_force_min_special_above,
    jordan_type_oracle,
)
from orbitcalc.partitions import GroupType, Partition, dominance_leq, partitions_of

B, C, D = GroupType.B, GroupType.C, GroupType.D


def P(*parts):
    return Partition(parts)


def pairwise_extremum(elements, maximum):
    """Reference: the unique maximal (or minimal) element of ``elements``
    under dominance, testing each element against every other; None when
    there is no unique one."""
    def above(x, y):
        return dominance_leq(x, y) if maximum else dominance_leq(y, x)

    extremal = [
        mu for mu in elements
        if not any(nu != mu and above(mu, nu) for nu in elements)
    ]
    return extremal[0] if len(extremal) == 1 else None


class TestOracles:
    def test_collapse_examples(self):
        assert brute_force_collapse(P(4, 2, 1), member_list(7, B)) == P(3, 3, 1)
        assert brute_force_collapse(P(3, 2, 1), member_list(6, C)) == P(2, 2, 2)
        assert brute_force_collapse(P(3, 1), member_list(4, D)) == P(3, 1)

    def test_min_special_above(self):
        specials = special_list(5, B)
        assert brute_force_min_special_above(P(2, 2, 1), specials) == P(3, 1, 1)

    @pytest.mark.parametrize(
        "oracle,candidates",
        [(brute_force_collapse, member_list),
         (brute_force_min_special_above, special_list)],
        ids=["brute_force_collapse", "brute_force_min_special_above"],
    )
    def test_wrong_parity(self, oracle, candidates):
        """The harness's candidate lists reject a size of the wrong
        parity before an oracle sees them."""
        with pytest.raises(
            ValueError, match="^size 4 has the wrong parity for type B$"
        ):
            oracle(P(2, 2), candidates(4, B))

    @pytest.mark.parametrize("t", [B, C, D])
    def test_oracles_match_pairwise_extrema(self, t):
        """On every partition of type t's parity up to size 12, each oracle
        gives the unique maximal (minimal) element found by comparing every
        pair, and raises exactly when there is none."""
        for d in range(t.size_parity, 13, 2):
            members, specials = member_list(d, t), special_list(d, t)
            for lam in partitions_of(d):
                below = [mu for mu in members if dominance_leq(mu, lam)]
                above = [mu for mu in specials if dominance_leq(lam, mu)]
                for oracle, candidates, expected in (
                    (brute_force_collapse, members, pairwise_extremum(below, True)),
                    (brute_force_min_special_above, specials,
                     pairwise_extremum(above, False)),
                ):
                    try:
                        got = oracle(lam, candidates)
                    except RuntimeError:
                        got = None
                    assert got == expected, (oracle.__name__, lam)

    @pytest.mark.parametrize(
        "relation",
        [
            lambda lam: lambda x, y: False,
            # lam, which is not of type B, lies below and above every
            # partition, and the members of type B form an antichain
            lambda lam: lambda x, y: x == y or lam in (x, y),
        ],
        ids=["empty", "antichain"],
    )
    def test_oracles_raise_without_an_extremum(self, monkeypatch, relation):
        lam = P(4, 2, 1)
        monkeypatch.setattr(oracles_module, "dominance_leq", relation(lam))
        with pytest.raises(RuntimeError, match=r"^no unique maximum below 4,2,1$"):
            brute_force_collapse(lam, member_list(7, B))
        with pytest.raises(
            RuntimeError, match=r"^no unique special minimum above 4,2,1$"
        ):
            brute_force_min_special_above(lam, special_list(7, B))

    def test_jordan_oracle_examples(self):
        assert jordan_type_oracle([(1, 4)]) == P(4)
        assert jordan_type_oracle([(2, 1), (1, 2)]) == P(2, 1, 1)
        assert jordan_type_oracle([]) == Partition()


def fraction_rank(matrix):
    """Reference rank: Gauss-Jordan elimination over the rationals."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        rows[rank] = [v / rows[rank][col] for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def random_matrix(rng):
    n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
    density = rng.choice((0.2, 0.5, 1.0))
    matrix = [
        [rng.randint(-6, 6) if rng.random() < density else 0 for _ in range(n_cols)]
        for _ in range(n_rows)
    ]
    if rng.random() < 0.3:
        matrix.append([0] * n_cols)
    for _ in range(rng.randint(0, 3)):
        a, b = rng.choice(matrix), rng.choice(matrix)
        ka, kb = rng.randint(-3, 3), rng.randint(-3, 3)
        matrix.append([ka * x + kb * y for x, y in zip(a, b)])
    rng.shuffle(matrix)
    return matrix


class TestExactRank:
    def test_matches_fraction_elimination(self):
        rng = random.Random(20260217)
        for _ in range(400):
            matrix = random_matrix(rng)
            sparse = [{c: v for c, v in enumerate(row) if v} for row in matrix]
            with_zeros = [dict(enumerate(row)) for row in matrix]
            expected = fraction_rank(matrix)
            assert _rank(sparse) == expected, matrix
            assert _rank(with_zeros) == expected, matrix

    def test_edge_cases(self):
        assert _rank([]) == 0
        assert _rank([{}, {}]) == 0
        assert _rank([{0: 2, 1: 4}, {0: 3, 1: 6}]) == 1
        assert _rank([{0: 2, 1: 4}, {0: 3, 1: 5}]) == 2
        assert _rank([{5: -7}, {5: 7}, {2: 1}]) == 2

    def test_jordan_oracle_reads_back_the_blocks(self):
        rng = random.Random(7)
        for _ in range(50):
            blocks = [(rng.randint(1, 3), rng.randint(1, 5)) for _ in range(3)]
            parts = [s for copies, s in blocks for _ in range(copies)]
            assert jordan_type_oracle(blocks) == Partition(parts)
