import re
from itertools import product, zip_longest

import pytest
from hypothesis import given, strategies as st

from orbitcalc.partitions import (
    GroupType,
    Partition,
    add,
    classify,
    collapse,
    dominance_leq,
    enumerate_partitions,
    is_orthogonal,
    is_symplectic,
    parse_partition,
    partitions_of,
    transpose,
    union,
)

B, C, D = GroupType.B, GroupType.C, GroupType.D


def P(*parts):
    return Partition(parts)


small_partitions = st.builds(
    Partition, st.lists(st.integers(min_value=1, max_value=9), max_size=7)
)


def same_size_pair():
    return st.integers(min_value=0, max_value=10).flatmap(
        lambda d: st.tuples(
            st.sampled_from(partitions_of(d)), st.sampled_from(partitions_of(d))
        )
    )


class TestGroupType:
    def test_member_facts(self):
        facts = {
            t: (t.size_parity, t.orthogonal, t.dual, str(t)) for t in GroupType
        }
        assert facts == {
            B: (1, True, C, "B"),
            C: (0, False, B, "C"),
            D: (0, True, D, "D"),
        }
        for letter, t in zip("BCD", (B, C, D)):
            assert GroupType(letter) is t


class TestPartitionType:
    def test_sorts_and_drops_zeros(self):
        assert Partition([1, 3, 0, 2]) == P(3, 2, 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Partition([2, -1])

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            Partition([2, 1.5])

    def test_rejects_bools(self):
        with pytest.raises(ValueError):
            Partition((True, 2))
        with pytest.raises(ValueError):
            Partition([False])

    def test_size_and_part_access(self):
        lam = P(4, 2, 1)
        assert lam.size == 7
        assert lam.part(1) == 4
        assert lam.part(4) == 0

    def test_text_form(self):
        assert str(P(4, 2, 1)) == "4,2,1"
        assert str(Partition()) == ""


class TestParse:
    def test_direct(self):
        assert parse_partition("4,2,1") == P(4, 2, 1)

    def test_order_insensitive(self):
        assert parse_partition("1,2,4") == P(4, 2, 1)

    def test_empty(self):
        assert parse_partition("") == Partition()

    @pytest.mark.parametrize("text", ["a,b", "1,0", "-2", "1.5"])
    def test_bad_tokens(self, text):
        with pytest.raises(ValueError):
            parse_partition(text)


class TestTranspose:
    def test_column(self):
        assert transpose(P(1, 1, 1)) == P(3)

    def test_hand_count(self):
        assert transpose(P(4, 2, 1)) == P(3, 2, 1, 1)

    def test_empty(self):
        assert transpose(Partition()) == Partition()

    @given(lam=small_partitions)
    def test_involution(self, lam):
        assert transpose(transpose(lam)) == lam

    @given(lam=small_partitions)
    def test_matches_multiplicity_formula(self, lam):
        # c_k(lam^t) = lam_k - lam_{k+1}
        tr = transpose(lam)
        for k in range(1, len(lam) + 2):
            assert tr.multiplicity(k) == lam.part(k) - lam.part(k + 1)


class TestMultiplicity:
    def test_examples(self):
        assert P(2, 2, 1).multiplicity(2) == 2
        assert P(2, 2, 1).multiplicity(3) == 0
        assert P(4, 2, 1).multiplicity(1) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            P(2, 1).multiplicity(0)


class TestUnionAndAdd:
    def test_union_examples(self):
        assert union(P(3, 1), P(2, 1)) == P(3, 2, 1, 1)
        assert union(P(2, 2), Partition()) == P(2, 2)
        assert union(P(3), P(3)) == P(3, 3)

    def test_add_examples(self):
        assert add(P(3, 1), P(2, 1)) == P(5, 2)
        assert add(P(4, 2, 1), Partition()) == P(4, 2, 1)
        assert add(P(2, 2), P(1, 1, 1)) == P(3, 3, 1)

    @given(l1=small_partitions, l2=small_partitions)
    def test_sizes_add(self, l1, l2):
        assert union(l1, l2).size == l1.size + l2.size
        assert add(l1, l2).size == l1.size + l2.size

    @given(l1=small_partitions, l2=small_partitions)
    def test_transpose_swaps_union_and_add(self, l1, l2):
        assert transpose(union(l1, l2)) == add(transpose(l1), transpose(l2))


class TestDominance:
    def test_examples(self):
        assert dominance_leq(P(2, 2), P(3, 1))
        assert not dominance_leq(P(3, 3), P(4, 1, 1))
        assert not dominance_leq(P(4, 1, 1), P(3, 3))

    @given(pair=same_size_pair())
    def test_reflexive_and_antisymmetric(self, pair):
        lam, mu = pair
        assert dominance_leq(lam, lam)
        if dominance_leq(lam, mu) and dominance_leq(mu, lam):
            assert lam == mu

    @given(pair=same_size_pair())
    def test_reverses_under_transpose(self, pair):
        lam, mu = pair
        assert dominance_leq(lam, mu) == dominance_leq(transpose(mu), transpose(lam))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            dominance_leq(P(2), P(2, 1))

    @given(pair1=same_size_pair(), pair2=same_size_pair())
    def test_union_monotone(self, pair1, pair2):
        l1, m1 = pair1
        l2, m2 = pair2
        if dominance_leq(m1, l1) and dominance_leq(m2, l2):
            assert dominance_leq(union(m1, m2), union(l1, l2))

    @given(
        l1=small_partitions,
        l2=small_partitions,
        m1=small_partitions,
        m2=small_partitions,
    )
    def test_sum_of_unions_dominates_union_of_sums(self, l1, l2, m1, m2):
        lhs = add(union(l1, l2), union(m1, m2))
        rhs = union(add(l1, m1), add(l2, m2))
        assert dominance_leq(rhs, lhs)


def _up_to(d):
    return [lam for n in range(d + 1) for lam in partitions_of(n)]


def _is_valid(x):
    """Exactly the Partition that the checking constructor builds."""
    return type(x) is Partition and tuple(x) == tuple(Partition(list(x)))


class TestTrustedConstruction:
    """``transpose``, ``union``, ``add`` and ``partitions_of`` build their
    results without the constructor's sort and checks."""

    def test_partitions_of(self):
        for d in range(13):
            assert all(_is_valid(lam) for lam in partitions_of(d))

    def test_transpose(self):
        for lam in _up_to(12):
            tr = transpose(lam)
            assert _is_valid(tr)
            # column j holds the parts of size at least j
            assert tr == tuple(
                sum(1 for p in lam if p >= j) for j in range(1, lam.part(1) + 1)
            )

    def test_union_and_add(self):
        lams = _up_to(8)
        for l1, l2 in product(lams, repeat=2):
            u, a = union(l1, l2), add(l1, l2)
            assert _is_valid(u) and _is_valid(a)
            assert u == Partition(l1 + l2)
            assert a == Partition(x + y for x, y in zip_longest(l1, l2, fillvalue=0))

    def test_dominance_matches_prefix_sum_loop(self):
        def reference(lam, mu):
            sum_l = sum_m = 0
            for a, b in zip_longest(lam, mu, fillvalue=0):
                sum_l += a
                sum_m += b
                if sum_l > sum_m:
                    return False
            return True

        for d in range(11):
            for lam, mu in product(partitions_of(d), repeat=2):
                assert dominance_leq(lam, mu) == reference(lam, mu)

    def test_dominance_size_message(self):
        with pytest.raises(
            ValueError, match=r"^dominance needs equal sizes, got 2 and 3$"
        ):
            dominance_leq(P(2), P(2, 1))

    @pytest.mark.parametrize("parts,message", [
        ([-1], "partition part -1 is negative"),
        ([1.5], "partition part 1.5 is not an integer"),
        ([2, True], "partition part True is not an integer"),
    ])
    def test_constructor_still_checks(self, parts, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Partition(parts)


class TestClassify:
    def test_family_predicates(self):
        assert is_orthogonal(P(3, 2, 2))
        assert not is_orthogonal(P(3, 2))
        assert is_symplectic(P(3, 3, 2))
        assert not is_symplectic(P(3, 1, 1, 1))

    def test_examples(self):
        assert classify(P(3, 3, 1), B) == (True, True)
        assert classify(P(2, 2, 1), B) == (True, False)
        assert classify(P(2, 1, 1), C) == (True, False)

    def test_parity_mismatch(self):
        with pytest.raises(ValueError):
            classify(P(2, 2), B)
        with pytest.raises(ValueError):
            classify(P(3), C)


class TestCollapse:
    def test_examples(self):
        assert collapse(P(4, 2, 1), B) == P(3, 3, 1)
        assert collapse(P(3, 2, 1), C) == P(2, 2, 2)
        assert collapse(P(3, 1), D) == P(3, 1)

    def test_idempotent_and_below(self):
        for d in range(13):
            for t in (B, C, D):
                if d % 2 != t.size_parity:
                    continue
                for lam in partitions_of(d):
                    mu = collapse(lam, t)
                    assert classify(mu, t).member
                    assert dominance_leq(mu, lam)
                    assert collapse(mu, t) == mu

    def test_parity_mismatch(self):
        with pytest.raises(ValueError):
            collapse(P(3), D)


class TestEnumerate:
    def test_examples(self):
        assert enumerate_partitions(4, C) == [P(4), P(2, 2), P(2, 1, 1), P(1, 1, 1, 1)]
        assert enumerate_partitions(5, B, special_only=True) == [
            P(5),
            P(3, 1, 1),
            P(1, 1, 1, 1, 1),
        ]
        assert enumerate_partitions(0, D, special_only=True) == [Partition()]

    def test_parity_mismatch(self):
        with pytest.raises(ValueError):
            enumerate_partitions(4, B)

    def test_special_subset_of_members(self):
        for d in (8, 10):
            members = enumerate_partitions(d, C)
            specials = enumerate_partitions(d, C, special_only=True)
            assert set(specials) <= set(members)
