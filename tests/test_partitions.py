import random
import re
from itertools import product, zip_longest

import pytest
from hypothesis import given, strategies as st

from orbitcalc.partitions import (
    MAX_INPUT_SIZE,
    GroupType,
    Partition,
    _member_is_special,
    add,
    classify,
    collapse,
    dominance_leq,
    enumerate_partitions,
    is_orthogonal,
    is_symplectic,
    orbit_problem,
    parse_partition,
    partitions_of,
    transpose,
    union,
)

from seeded_inputs import inputs

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
    """``transpose``, ``union``, ``add``, ``collapse`` and ``partitions_of``
    build their results without the constructor's sort and checks
    (``collapse`` is checked in :class:`TestCollapse`)."""

    def test_partitions_of(self):
        for d in range(13):
            assert all(_is_valid(lam) for lam in partitions_of(d))

    def test_transpose(self):
        for lam in _up_to(20):
            _assert_columns(lam)

    def test_transpose_at_random(self):
        for lam, _ in _random_cases(2000):
            _assert_columns(lam)

    @pytest.mark.parametrize("parts", [
        range(446, 0, -1),  # 99 681, every run one part
        (*range(630, 0, -2), 1),  # 99 541
        (2,) + (1,) * 99998,  # 100 000, two runs, one very long
        (50000, 49999, 1),  # 100 000, three parts, long columns
        (MAX_INPUT_SIZE,),
        (1,) * MAX_INPUT_SIZE,
    ])
    def test_transpose_near_the_input_limit(self, parts):
        _assert_columns(Partition(parts))

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
        ([False, 2], "partition part False is not an integer"),
        ([2.0], "partition part 2.0 is not an integer"),
        # the first bad part in decreasing order words the error
        ([3, -2, 1.5, 0], "partition part 1.5 is not an integer"),
        ([0, -1, 2, -3], "partition part -1 is negative"),
        ((-5, True), "partition part True is not an integer"),
    ])
    def test_constructor_still_checks(self, parts, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Partition(parts)


def _column_counts(lam):
    """The transpose by its definition: column j holds the parts of size
    at least j."""
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam.part(1) + 1))


def _assert_columns(lam):
    tr = transpose(lam)
    assert _is_valid(tr)
    assert tr == _column_counts(lam), lam


def _random_cases(count):
    """``count`` seeded (partition, type) pairs of sizes 40-200: a random
    partition, a member or a special of the type, in turn."""
    rng = random.Random(23)
    draws = (inputs.random_partition, inputs.random_member, inputs.random_special)
    cases = []
    for i in range(count):
        t = rng.choice(inputs.TYPES)
        n = inputs.sized(rng, 40, 200, inputs.size_parity(t))
        draw = draws[i % 3]
        parts = draw(rng, n) if draw is inputs.random_partition else draw(rng, n, t)
        cases.append((Partition(parts), GroupType(t)))
    return cases


# The guards as they were written before they read parities off the parts:
# multiplicities counted with set/count, and specialness tested on the
# transpose, here built by its column-count definition.  The references
# for the pairing and parity rules of ``partitions``.


def _counted_orthogonal(lam):
    return all(lam.count(p) % 2 == 0 for p in set(lam) if p % 2 == 0)


def _counted_symplectic(lam):
    return all(lam.count(p) % 2 == 0 for p in set(lam) if p % 2 == 1)


def _counted_classify(lam, t):
    if lam.size % 2 != t.size_parity:
        raise ValueError(f"size {lam.size} has the wrong parity for type {t}")
    if not (_counted_orthogonal(lam) if t.orthogonal else _counted_symplectic(lam)):
        return (False, False)
    lt = Partition(_column_counts(lam))
    return (True, _counted_orthogonal(lt) if t is B else _counted_symplectic(lt))


def _counted_problem(lam, t, special):
    member, is_special = _counted_classify(lam, t)
    if not member:
        return f"{str(lam)!r} is not a type-{t} partition"
    if special and not is_special:
        return f"{str(lam)!r} is not special for type {t}"
    return None


def _outcome(call, *args):
    """A call's result, or the type and text of the ValueError it raised."""
    try:
        return call(*args)
    except ValueError as exc:
        return ValueError, str(exc)


def _assert_guards(lam):
    assert is_orthogonal(lam) == _counted_orthogonal(lam), lam
    assert is_symplectic(lam) == _counted_symplectic(lam), lam
    for t in (B, C, D):
        expected = _outcome(_counted_classify, lam, t)
        assert _outcome(classify, lam, t) == expected, (lam, t)
        for special in (False, True):
            assert _outcome(orbit_problem, lam, t, special) == _outcome(
                _counted_problem, lam, t, special
            ), (lam, t, special)


class TestGuards:
    """``classify``, ``orbit_problem`` and the two family predicates
    against the counting references above."""

    def test_match_the_counting_references_exhaustively(self):
        for lam in _up_to(20):
            _assert_guards(lam)

    def test_match_the_counting_references_at_random(self):
        specials = 0
        for lam, t in _random_cases(2000):
            _assert_guards(lam)
            specials += classify(lam, t).special
        assert specials > 600  # every third draw at least

    def test_transpose_parity_rule_on_every_partition(self):
        """The parity rule read on any partition, member or not, where the
        pair with the pad lam_{len+1} = 0 decides some cases."""
        for lam in _up_to(20):
            lt = Partition(_column_counts(lam))
            assert _member_is_special(lam, B) == _counted_orthogonal(lt), lam
            for t in (C, D):
                assert _member_is_special(lam, t) == _counted_symplectic(lt), lam

    def test_messages(self):
        assert orbit_problem(P(3, 1), C) == "'3,1' is not a type-C partition"
        assert orbit_problem(P(2, 2, 1), B) is None
        assert orbit_problem(P(2, 2, 1), B, special=True) == (
            "'2,2,1' is not special for type B"
        )
        with pytest.raises(
            ValueError, match=r"^size 4 has the wrong parity for type B$"
        ):
            orbit_problem(P(2, 2), B)


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

    def test_matches_greedy_moves_exhaustively(self):
        for d in range(19):
            for t in (B, C, D):
                if d % 2 == t.size_parity:
                    for lam in partitions_of(d):
                        _assert_greedy(lam, t)

    def test_matches_greedy_moves_at_random(self):
        rng = random.Random(22)
        for _ in range(2000):
            t = rng.choice((B, C, D))
            d = rng.randint(40, 200)
            d += (d - t.size_parity) % 2
            parts = []
            while d:
                parts.append(rng.randint(1, min(d, rng.choice((3, 12, d)))))
                d -= parts[-1]
            _assert_greedy(Partition(parts), t)

    @pytest.mark.parametrize("parts,t", [
        (range(446, 0, -1), B),  # 99 681, every even part bad
        ((*range(630, 0, -2), 1), B),  # 99 541
        ((2,) + (1,) * 99998, D),  # 100 000, one move over all the parts
        ((50000, 49999, 1), C),  # 100 000, two large parts
    ])
    def test_matches_greedy_moves_near_the_input_limit(self, parts, t):
        _assert_greedy(Partition(parts), t)


def _greedy_collapse(lam, t):
    """The box moves of ``collapse`` made one at a time, with every part
    counted again after each move: the reference for the one-pass walk."""
    bad_parity = 0 if t.orthogonal else 1
    parts = list(lam)
    while True:
        counts = {}
        for p in parts:
            counts[p] = counts.get(p, 0) + 1
        q = max(
            (p for p, c in counts.items() if p % 2 == bad_parity and c % 2 == 1),
            default=0,
        )
        if q == 0:
            return Partition(parts)
        assert q >= 2, lam
        last = len(parts) - 1 - parts[::-1].index(q)
        parts[last] -= 1
        for j, p in enumerate(parts):
            if p < q - 1:
                parts[j] += 1
                break
        else:
            parts.append(1)


def _assert_greedy(lam, t):
    mu = collapse(lam, t)
    assert _is_valid(mu)
    assert mu == _greedy_collapse(lam, t), (lam, t)


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

    @pytest.mark.parametrize("t", [B, C, D])
    def test_negative_size(self, t):
        with pytest.raises(ValueError, match="^size must be non-negative$"):
            enumerate_partitions(-1, t)

    def test_special_subset_of_members(self):
        for d in (8, 10):
            members = enumerate_partitions(d, C)
            specials = enumerate_partitions(d, C, special_only=True)
            assert set(specials) <= set(members)
