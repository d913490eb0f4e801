import hashlib
import random
import re
import sys
from collections import Counter
from itertools import chain, groupby, product, repeat
from operator import mul, sub

import pytest

from orbitcalc.aparams import (
    AParameterShape,
    SelfDualType,
    Summand,
    _orient,
    dual_shape,
    factor_shapes,
    jordan_type,
    npsi_partition,
    pair_type_of,
    parse_summands,
    parse_target,
    predicted_wavefront,
    shape_vectors,
    shapes_for,
    split_by_signs,
    split_sides,
    split_vectors,
)
from orbitcalc.duality import dual_partition
from orbitcalc.partitions import GroupType, Partition, classify, union
from orbitcalc.waldspurger import PairType, waldspurger
from seeded_inputs import inputs

B, C, D = GroupType.B, GroupType.C, GroupType.D
O, S, PAIR = SelfDualType.ORTHOGONAL, SelfDualType.SYMPLECTIC, SelfDualType.PAIR


def P(*parts):
    return Partition(parts)


def shape(target, rank, *summands):
    return AParameterShape(target, rank, tuple(Summand(*s) for s in summands))


class TestSummand:
    def test_weight(self):
        assert Summand(2, O, 3, 1).weight == 6
        assert Summand(1, PAIR, 2, 1).weight == 4

    def test_self_dual_type(self):
        assert Summand(1, O, 1, 4).symplectic is True
        assert Summand(1, O, 3, 1).symplectic is False
        assert Summand(2, S, 1, 1).symplectic is True
        assert Summand(1, PAIR, 1, 1).symplectic is None
        assert [(t.letter, str(t)) for t in SelfDualType] == [
            (t.value, t.value) for t in SelfDualType
        ]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Summand(0, O, 1, 1)

    def test_rejects_bools(self):
        with pytest.raises(ValueError):
            Summand(True, O, 1, 1)
        with pytest.raises(ValueError):
            Summand(1, O, 1, True)


class TestValidate:
    """Shapes are checked on construction."""

    def test_single_block(self):
        assert shape(B, 2, (1, O, 1, 4)).m == 4

    def test_orthogonal_block_rejected_for_sp_dual(self):
        with pytest.raises(ValueError, match=r"1xS3\*S1:O is not symplectic"):
            shape(B, 2, (1, O, 3, 1))

    def test_two_blocks(self):
        assert len(shape(B, 2, (1, O, 2, 1), (1, O, 1, 2)).summands) == 2

    def test_dimension_mismatch_reported(self):
        with pytest.raises(ValueError, match="needs 5"):
            shape(C, 2, (1, O, 1, 3))

    def test_odd_symplectic_rho_reported(self):
        with pytest.raises(ValueError, match="even-dimensional"):
            shape(C, 2, (3, S, 1, 1), (1, O, 1, 2))

    def test_pair_summand_unconstrained(self):
        assert shape(D, 2, (1, PAIR, 2, 1)).m == 4

    def test_message_lists_every_problem(self):
        with pytest.raises(ValueError) as exc:
            shape(C, 2, (3, S, 1, 1), (1, O, 1, 2))
        assert str(exc.value) == (
            "invalid shape Sp4: 1xS1*S2:O,3xS1*S1:S: summand 1xS1*S2:O is "
            "not orthogonal; summand 3xS1*S1:S: symplectic rho must be "
            "even-dimensional"
        )

    def test_negative_rank(self):
        with pytest.raises(ValueError, match="rank must be non-negative"):
            AParameterShape(B, -1, ())

    @pytest.mark.parametrize("rank", [1.5, 2.0, True, "2", -1.5])
    def test_non_integer_rank(self, rank):
        with pytest.raises(ValueError, match=f"^rank {rank!r} is not an integer$"):
            AParameterShape(B, rank, ())

    @pytest.mark.parametrize("build,message", [
        (lambda: Summand(1, "O", 1, 2), "summand rho_type 'O' is not a SelfDualType"),
        (lambda: Summand(1, None, 1, 2), "summand rho_type None is not a SelfDualType"),
        (lambda: AParameterShape("B", 2, ()), "target 'B' is not a GroupType"),
        (lambda: AParameterShape(B, 2, (Summand(1, O, 1, 4), "1xS1*S4:O")),
         "shape entry '1xS1*S4:O' is not a Summand"),
        (lambda: AParameterShape(B, 2, [(1, O, 1, 4)]),
         "shape entry (1, <SelfDualType.ORTHOGONAL: 'O'>, 1, 4) is not a Summand"),
    ], ids=["rho_type-str", "rho_type-None", "target-str", "entry-str", "entry-tuple"])
    def test_wrong_field_types(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_group_name_and_module_dim(self):
        assert [(s.group_name, s.m) for s in (
            shape(B, 2, (1, O, 1, 4)),
            shape(C, 2, (1, O, 1, 5)),
            shape(D, 2, (1, O, 1, 3), (1, O, 1, 1)),
        )] == [("SO5", 4), ("Sp4", 5), ("SO4", 4)]


class TestDualShape:
    def test_swaps_sl2_factors(self):
        psi = shape(B, 2, (1, O, 1, 4))
        assert dual_shape(psi) == shape(B, 2, (1, O, 4, 1))

    def test_involution(self):
        psi = shape(B, 2, (1, O, 2, 1), (1, O, 1, 2))
        assert dual_shape(dual_shape(psi)) == psi

    def test_tempered_to_cotempered(self):
        psi = shape(C, 2, (1, O, 3, 1), (1, O, 1, 1), (1, O, 1, 1))
        assert all(s.a == 1 for s in dual_shape(psi).summands)


class TestNpsiAndWavefront:
    def test_single_jordan_block(self):
        psi = shape(B, 2, (1, O, 1, 4))
        assert npsi_partition(psi) == P(4)
        assert predicted_wavefront(psi) == P(1, 1, 1, 1, 1)

    def test_tempered_is_regular(self):
        psi = shape(B, 2, (1, O, 4, 1))
        assert npsi_partition(psi) == P(1, 1, 1, 1)
        assert predicted_wavefront(psi) == P(5)

    def test_mixed_shape(self):
        psi = shape(B, 2, (1, O, 2, 1), (1, O, 1, 2))
        assert npsi_partition(psi) == P(2, 1, 1)
        assert predicted_wavefront(psi) == P(3, 1, 1)

    def test_wavefront_is_special(self):
        psi = shape(C, 3, (1, O, 1, 3), (1, O, 2, 2))
        assert classify(predicted_wavefront(psi), C).special

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            npsi_partition(shape(B, 2, (1, O, 3, 1)))

    def test_jordan_type_of_every_shape(self):
        for target, rank in shapes_up_to(16):
            for psi in shapes_for(target, rank):
                _assert_jordan_type(psi.summands)

    def test_jordan_type_of_random_shapes(self):
        rng = random.Random(2323)
        for _ in range(500):
            target = rng.choice(inputs.TYPES)
            m = inputs.sized(rng, 40, 200, 1 if target == "C" else 0)
            summands = [
                Summand(d, SelfDualType(t), a, b)
                for d, t, a, b in inputs.random_shape(rng, target, m, rng.choice((3, 6, 12)))
            ]
            rng.shuffle(summands)  # any order of the summands
            _assert_jordan_type(summands)


def _assert_jordan_type(summands):
    """``jordan_type`` sorts the (b, copies) blocks; it builds what the
    checked constructor builds from the expanded parts."""
    lam = jordan_type(summands)
    expected = Partition(chain.from_iterable(repeat(s.b, s.copies) for s in summands))
    assert type(lam) is Partition and tuple(lam) == tuple(expected), summands


class TestSplit:
    def test_so5_split(self):
        psi = shape(B, 2, (1, O, 2, 1), (1, O, 1, 2))
        # summands are stored sorted: (1xS1*S2:O, 1xS2*S1:O)
        f1, f2 = split_by_signs(psi, (-1, 1))
        assert f1 == shape(B, 1, (1, O, 2, 1))
        assert f2 == shape(B, 1, (1, O, 1, 2))

    def test_improper_split_rejected(self):
        psi = shape(B, 2, (1, O, 2, 1), (1, O, 1, 2))
        with pytest.raises(ValueError):
            split_by_signs(psi, (1, 1))

    def test_sign_vector_length_checked(self):
        psi = shape(B, 2, (1, O, 1, 4))
        with pytest.raises(ValueError):
            split_by_signs(psi, (1, -1))

    @pytest.mark.parametrize("signs", [(1, 0), (1, 2), (-2, 1), (True, -1),
                                       (1.0, -1), (1, -1.0)])
    def test_signs_must_be_plus_or_minus_one(self, signs):
        psi = shape(B, 2, (1, O, 2, 1), (1, O, 1, 2))
        with pytest.raises(ValueError, match=r"^signs must be \+1 or -1$"):
            split_by_signs(psi, signs)

    def test_cd_split_orders_odd_factor_first(self):
        psi = shape(C, 2, (1, O, 1, 3), (2, O, 1, 1))
        f1, f2 = split_by_signs(psi, (1, -1))
        assert (f1.target, f2.target) == (C, D)
        assert f1.m % 2 == 1 and f2.m % 2 == 0

    def test_dd_split_rejects_odd_factors(self):
        psi = shape(D, 1, (1, O, 1, 1), (1, O, 1, 1))
        with pytest.raises(ValueError):
            split_by_signs(psi, (1, -1))

    def test_pair_type_of(self):
        assert pair_type_of(B) is PairType.BB
        assert pair_type_of(C) is PairType.CD
        assert pair_type_of(D) is PairType.DD


class TestWorkedChain:
    def test_so5_chain_is_exact(self):
        psi = shape(B, 2, (1, O, 2, 1), (1, O, 1, 2))
        f1, f2 = split_by_signs(psi, (-1, 1))
        w = waldspurger(
            predicted_wavefront(f1), predicted_wavefront(f2), PairType.BB
        )
        assert w == P(3, 1, 1) == predicted_wavefront(psi)


class TestParsing:
    def test_summands(self):
        text = "1xS2*S1:O,1xS1*S2:O"
        assert parse_summands(text) == (Summand(1, O, 2, 1), Summand(1, O, 1, 2))
        with pytest.raises(ValueError):
            parse_summands("1xS2*S1:Q")

    def test_targets(self):
        assert parse_target("SO5") == (B, 2)
        assert parse_target("Sp4") == (C, 2)
        assert parse_target("SO6") == (D, 3)
        assert parse_target("SOodd", 3) == (B, 3)
        assert parse_target("Sp", 4) == (C, 4)
        assert parse_target("SOeven", 2) == (D, 2)

    def test_target_errors(self):
        with pytest.raises(ValueError):
            parse_target("SOodd")
        with pytest.raises(ValueError):
            parse_target("Sp5")
        with pytest.raises(ValueError):
            parse_target("SO5", 3)
        with pytest.raises(ValueError):
            parse_target("E8")

    def test_round_trip_via_str(self):
        psi = shape(B, 2, (1, O, 2, 1), (1, O, 1, 2))
        again = parse_summands(",".join(str(s) for s in psi.summands))
        assert AParameterShape(B, 2, again) == psi


class TestShapes:
    def test_counts_are_deterministic(self):
        shapes = shapes_for(B, 2)
        assert shapes == shapes_for(B, 2)
        assert all(s.m == 4 for s in shapes)

    def test_splits_are_proper(self):
        for shape, splits in walked_splits(B, 2):
            for split in splits:
                f1, f2 = factor_shapes(PairType.BB, split)
                assert (f1.summands, f2.summands) == split
                assert f1.m + f2.m == shape.m
                assert f1.summands and f2.summands

    @pytest.mark.parametrize("target", [B, C, D])
    def test_proper_splits_match_sign_splits(self, target):
        """Up to rank 3, the multiset walk gives exactly the unordered factor
        pairs that split_by_signs gives over all proper sign vectors, each
        in an order that split_by_signs gives."""
        pair = pair_type_of(target)
        for rank in range(1, 4):
            for psi, splits in walked_splits(target, rank):
                walked = [factor_shapes(pair, split) for split in splits]
                unordered = {frozenset(factors) for factors in walked}
                assert len(walked) == len(unordered)
                by_signs = set()
                for signs in product((1, -1), repeat=len(psi.summands)):
                    if 1 in signs and -1 in signs:
                        try:
                            by_signs.add(split_by_signs(psi, signs))
                        except ValueError:
                            assert target is D
                assert set(walked) <= by_signs
                assert unordered == {frozenset(f) for f in by_signs}

    @pytest.mark.parametrize("target", [B, C, D])
    def test_factor_jordan_types_make_up_the_shape(self, target):
        """Up to rank 3, the factors' nilpotents make up the shape's, and a
        factor's wavefront is the dual of its sides' Jordan type."""
        pair = pair_type_of(target)
        for rank in range(1, 4):
            for psi, splits in walked_splits(target, rank):
                for split in splits:
                    f1, f2 = factor_shapes(pair, split)
                    assert union(npsi_partition(f1), npsi_partition(f2)) == (
                        npsi_partition(psi)
                    )
                    for side, f in zip(split, (f1, f2)):
                        assert dual_partition(
                            jordan_type(side), f.target.dual
                        ) == predicted_wavefront(f)

    def test_sign_splits_digest(self):
        """Every proper sign vector of every shape of rank <= 3: the factor
        targets, ranks and summands, or the exact rejection message."""
        lines = []
        for target in GroupType:
            for rank in range(1, 4):
                for psi in shapes_for(target, rank):
                    for signs in product((1, -1), repeat=len(psi.summands)):
                        if 1 not in signs or -1 not in signs:
                            continue
                        try:
                            factors = split_by_signs(psi, signs)
                        except ValueError as exc:
                            lines.append(f"{psi} {signs}: {exc}")
                            continue
                        lines.append(f"{psi} {signs} -> " + " | ".join(
                            f"{f.target} {f.rank} "
                            + ",".join(map(str, f.summands))
                            for f in factors
                        ))
        assert len(lines) == 1654
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == (
            "63ec951180cca2374381dff57533129daa28a00c17e612479a8b073525251b10"
        )


def walked_splits(target, rank):
    """(shape, splits) for every shape of the target group: each split of
    split_vectors, in its order, as split_sides gives it."""
    for (kinds, counts), psi in zip(
        shape_vectors(target, rank), shapes_for(target, rank)
    ):
        yield psi, [
            split_sides(kinds, counts, vector, plus_first)
            for vector, plus_first in split_vectors(target, psi.m, kinds, counts)
        ]


def full_product_splits(psi):
    """Reference walk: every count vector of the full product, keeping
    those that are nonzero and no larger than their complement."""
    pair = pair_type_of(psi.target)
    runs = [(kind, len(list(run))) for kind, run in groupby(psi.summands)]
    kinds = [kind for kind, _ in runs]
    counts = [count for _, count in runs]
    weights = [kind.weight for kind in kinds]
    out = []
    for vector in product(*(range(c + 1) for c in counts)):
        complement = tuple(map(sub, counts, vector))
        if not any(vector) or vector > complement:
            continue
        plus_first = _orient(pair, sum(map(mul, weights, vector)), psi.m)
        if plus_first is None:
            continue
        plus, minus = (
            tuple(chain.from_iterable(map(repeat, kinds, v)))
            for v in (vector, complement)
        )
        out.append((plus, minus) if plus_first else (minus, plus))
    return out


class TestSplitWalk:
    @pytest.mark.parametrize("target", [B, C, D])
    def test_prefix_walk_matches_full_product(self, target):
        """Stopping at the first vector larger than its complement yields
        the same splits, in the same order, as filtering the whole product,
        for every shape up to rank 6."""
        for rank in range(1, 7):
            for psi, splits in walked_splits(target, rank):
                assert splits == full_product_splits(psi)

    @pytest.mark.parametrize("target", [B, C, D])
    def test_vectors_expand_to_proper_splits(self, target):
        """For every shape up to rank 6, the walker's kinds are distinct and
        their counts expand to the shape's summands, and each count vector
        of split_vectors, expanded to summand tuples here and put in factor
        order, is what split_sides gives: two nonempty sides whose summands
        together are the shape's."""
        for rank in range(1, 7):
            for (kinds, counts), psi in zip(
                shape_vectors(target, rank), shapes_for(target, rank)
            ):
                assert len(set(kinds)) == len(kinds)
                assert tuple(chain.from_iterable(map(repeat, kinds, counts))) == (
                    psi.summands
                )
                for vector, plus_first in split_vectors(
                    target, psi.m, kinds, counts
                ):
                    plus, minus = (
                        tuple(chain.from_iterable(map(repeat, kinds, v)))
                        for v in (vector, tuple(map(sub, counts, vector)))
                    )
                    expanded = (plus, minus) if plus_first else (minus, plus)
                    assert split_sides(kinds, counts, vector, plus_first) == (
                        expanded
                    )
                    assert plus and minus
                    assert Counter(plus + minus) == Counter(psi.summands)


def shapes_up_to(dim):
    """(target, rank) for every rank whose dual module has dimension at
    most ``dim``, rank 0 included."""
    for target in GroupType:
        for rank in range((dim - target.dual.size_parity) // 2 + 1):
            yield target, rank


class TestEnumeratedShapes:
    """The walker's shapes skip the constructor's sort and checks; these
    pin that they are exactly what the checking constructor builds."""

    def test_trusted_shapes_equal_checked_ones(self):
        for target, rank in shapes_up_to(16):
            vectors = list(shape_vectors(target, rank))
            shapes = shapes_for(target, rank)
            assert len(vectors) == len(shapes)
            for (kinds, counts), psi in zip(vectors, shapes):
                checked = AParameterShape(target, rank, psi.summands)
                assert checked == psi
                assert checked.summands == psi.summands
                assert [
                    (kind, len(list(run))) for kind, run in groupby(psi.summands)
                ] == list(zip(kinds, counts))

    def test_trusted_factor_shapes_equal_checked_ones(self):
        """``factor_shapes`` builds the factors of a split unchecked; on every
        proper split of every shape up to dual module dimension 12, they and
        the factors ``split_by_signs`` gives for the same split are what the
        checking constructor builds, down to the size of the field dict."""
        splits = 0
        for target, rank in shapes_up_to(12):
            pair = pair_type_of(target)
            for psi, walked in walked_splits(target, rank):
                for split in walked:
                    checked = tuple(
                        AParameterShape(
                            t, (sum(s.weight for s in side) - t.dual.size_parity)
                            // 2, side
                        )
                        for t, side in zip(pair.factor_types, split)
                    )
                    # + on the first factor's summands, - on the rest
                    first = Counter(split[0])
                    signs = []
                    for s in psi.summands:
                        signs.append(1 if first[s] > 0 else -1)
                        first[s] -= 1
                    for factors in (
                        factor_shapes(pair, split),
                        split_by_signs(psi, tuple(signs)),
                    ):
                        assert factors == checked
                        for f, g in zip(factors, checked):
                            assert vars(f) == vars(g)
                            assert sys.getsizeof(vars(f)) == sys.getsizeof(vars(g))
                    splits += 1
        assert splits == 26343

    def test_shapes_digest(self):
        """sha256 of every shape's text, in enumeration order, recorded
        before shapes were walked as count vectors."""
        h = hashlib.sha256()
        count = 0
        for target, rank in shapes_up_to(16):
            for psi in shapes_for(target, rank):
                h.update(str(psi).encode() + b"\n")
                count += 1
        assert count == 55470
        assert h.hexdigest() == (
            "92c89affb58dc08e1fe583c46786af532c3b04fc1e826f8768455ad57220503b"
        )
