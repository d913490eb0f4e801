import pytest

from orbitcalc.duality import dual_partition, lie_algebra_dim, orbit_dim
from orbitcalc.partitions import (
    GroupType,
    Partition,
    classify,
    dominance_leq,
    enumerate_partitions,
)

B, C, D = GroupType.B, GroupType.C, GroupType.D


def P(*parts):
    return Partition(parts)


class TestDual:
    def test_b_example(self):
        assert (dual_partition(P(2, 2, 1), B), B.dual) == (P(2, 2), C)

    def test_c_example(self):
        assert (dual_partition(P(2, 2), C), C.dual) == (P(3, 1, 1), B)

    def test_zero_orbit_to_regular(self):
        assert (dual_partition(P(1, 1, 1, 1, 1), B), B.dual) == (P(4), C)

    def test_type_d(self):
        # the subregular and zero orbits of so_4 are exchanged
        assert dual_partition(P(3, 1), D) == P(1, 1, 1, 1)
        assert dual_partition(P(1, 1, 1, 1), D) == P(3, 1)

    def test_b_lowering_drops_a_part_of_one(self):
        # the transpose (3,1,1) is lowered to (3,1), which C-collapses
        assert dual_partition(P(3, 1, 1), B) == P(2, 2)

    def test_c_raises_empty_transpose_to_one(self):
        assert dual_partition(Partition(), C) == Partition((1,))

    def test_rejects_non_member(self):
        with pytest.raises(ValueError):
            dual_partition(P(2, 1), B)

    def test_sizes(self):
        assert dual_partition(P(3, 1, 1), B).size == 4
        assert dual_partition(P(2, 2), C).size == 5
        assert dual_partition(P(2, 2), D).size == 4


class TestDualityLaws:
    @pytest.mark.parametrize("t,out_t", [(B, C), (C, B), (D, D)])
    def test_double_dual_and_specialness(self, t, out_t):
        for d in range(t.size_parity, 11, 2):
            for lam in enumerate_partitions(d, t):
                first = dual_partition(lam, t)
                assert classify(first, out_t).special
                back = dual_partition(first, out_t)
                assert dominance_leq(lam, back)
                assert (back == lam) == classify(lam, t).special

    @pytest.mark.parametrize("t", [B, C, D])
    def test_order_reversing(self, t):
        for d in range(t.size_parity, 11, 2):
            members = enumerate_partitions(d, t)
            duals = {lam: dual_partition(lam, t) for lam in members}
            for lam in members:
                for mu in members:
                    if dominance_leq(lam, mu):
                        assert dominance_leq(duals[mu], duals[lam])


class TestOrbitDim:
    def test_lie_dims(self):
        assert lie_algebra_dim(B, 5) == 10
        assert lie_algebra_dim(C, 4) == 10
        assert lie_algebra_dim(D, 6) == 15

    def test_examples(self):
        assert orbit_dim(P(1, 1, 1, 1, 1), B) == 0
        assert orbit_dim(P(3), B) == 2
        assert orbit_dim(P(2, 2), C) == 6
        assert orbit_dim(P(3, 1, 1), B) == 6

    def test_rejects_non_member(self):
        with pytest.raises(ValueError):
            orbit_dim(P(3, 1), C)

    def test_guard_messages(self):
        with pytest.raises(ValueError, match=r"^'3,1' is not a type-C partition$"):
            orbit_dim(P(3, 1), C)
        with pytest.raises(ValueError, match=r"^'2,1,1' is not a type-D partition$"):
            orbit_dim(P(2, 1, 1), D)
        with pytest.raises(
            ValueError, match=r"^size 4 has the wrong parity for type B$"
        ):
            orbit_dim(P(2, 2), B)

    @pytest.mark.parametrize("t", [B, C, D])
    def test_monotone_in_dominance(self, t):
        for d in range(t.size_parity, 11, 2):
            members = enumerate_partitions(d, t)
            for lam in members:
                for mu in members:
                    if dominance_leq(lam, mu):
                        assert orbit_dim(lam, t) <= orbit_dim(mu, t)
