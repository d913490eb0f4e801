import sys
from types import ModuleType

import pytest

from orbitcalc.duality import lie_algebra_dim, orbit_dim
from orbitcalc.partitions import GroupType, Partition, classify
from orbitcalc.waldspurger import PairType, waldspurger, xi_vector

B, C, D = GroupType.B, GroupType.C, GroupType.D
BB, CD, DD = PairType.BB, PairType.CD, PairType.DD


def P(*parts):
    return Partition(parts)


def test_package_name_binds_the_function():
    """The package root re-exports ``waldspurger`` under its module's name,
    so the dotted import binds the function; the module stays reachable
    through ``sys.modules``."""
    import orbitcalc.waldspurger as bound

    module = sys.modules["orbitcalc.waldspurger"]
    assert isinstance(module, ModuleType)
    assert bound is module.waldspurger is waldspurger


class TestPairType:
    def test_factor_types_and_target(self):
        assert BB.factor_types == (B, B) and BB.target is B and BB.eps == (1, 1)
        assert CD.factor_types == (C, D) and CD.target is C and CD.eps == (0, 1)
        assert DD.factor_types == (D, D) and DD.target is D and DD.eps == (1, 1)

    def test_eps(self):
        assert BB.eps == (1, 1)
        assert CD.eps == (0, 1)
        assert DD.eps == (1, 1)

    def test_total_size(self):
        assert BB.total_size(3, 3) == 5
        assert CD.total_size(2, 2) == 4
        assert DD.total_size(4, 2) == 6


class TestXiVector:
    def test_regular_times_zero(self):
        xi = xi_vector(P(3), P(1, 1, 1), BB)
        assert xi.entries == (-1, 0, 0)
        assert xi.j_plus == ()
        assert xi.j_minus == (1,)

    def test_zero_times_zero(self):
        xi = xi_vector(P(1, 1, 1), P(1, 1, 1), BB)
        assert xi.entries == (0, 0, -1)
        assert xi.j_minus == (3,)

    def test_rank_zero(self):
        xi = xi_vector(P(1), P(1), BB)
        assert xi.entries == (-1,)
        assert xi.j_minus == (1,)

    def test_rejects_non_special(self):
        with pytest.raises(ValueError):
            xi_vector(P(2, 2, 1), P(1, 1, 1), BB)

    def test_rejects_wrong_type(self):
        with pytest.raises(ValueError):
            xi_vector(P(2, 2), P(1, 1, 1), BB)

    def test_entry_sum_bookkeeping(self):
        assert sum(xi_vector(P(3), P(3), BB).entries) == -1
        assert sum(xi_vector(P(2), P(1, 1), CD).entries) == 0
        assert sum(xi_vector(P(1, 1), P(1, 1), DD).entries) == 0


class TestWaldspurger:
    def test_rectangular_pair(self):
        assert waldspurger(P(3, 3, 3), P(1, 1, 1), BB) == P(4, 4, 3)

    def test_regular_times_zero(self):
        w = waldspurger(P(3), P(1, 1, 1), BB)
        assert w == P(3, 1, 1)
        assert orbit_dim(w, B) == 2 + 0 + 10 - 3 - 3

    def test_zero_times_zero(self):
        w = waldspurger(P(1, 1, 1), P(1, 1, 1), BB)
        assert w == P(2, 2, 1)
        assert orbit_dim(w, B) == 0 + 0 + 10 - 3 - 3

    def test_cd_pair(self):
        assert waldspurger(P(2), P(1, 1), CD) == P(4)

    def test_dd_pair(self):
        assert waldspurger(P(1, 1), P(1, 1), DD) == P(3, 1)

    def test_empty_factor(self):
        assert waldspurger(Partition(), P(1, 1), CD) == P(2)

    def test_image_is_member_not_always_special(self):
        w = waldspurger(P(1, 1, 1), P(1, 1, 1), BB)
        assert classify(w, B) == (True, False)


class TestSweeps:
    def test_size_bookkeeping(self):
        from orbitcalc.harness import _domain, _specials

        for pair in PairType:
            for l1, l2 in _domain(_specials, [((), pair.factor_types)])(10):
                w = waldspurger(l1, l2, pair)
                assert w.size == pair.total_size(l1.size, l2.size)
                assert classify(w, pair.target).member

    def test_dimension_identity(self):
        from orbitcalc.harness import _domain, _specials

        for pair in PairType:
            t1, t2 = pair.factor_types
            for l1, l2 in _domain(_specials, [((), (t1, t2))])(10):
                w = waldspurger(l1, l2, pair)
                assert orbit_dim(w, pair.target) == (
                    orbit_dim(l1, t1)
                    + orbit_dim(l2, t2)
                    + lie_algebra_dim(pair.target, w.size)
                    - lie_algebra_dim(t1, l1.size)
                    - lie_algebra_dim(t2, l2.size)
                )

    def test_odd_height_rectangles(self):
        from orbitcalc.duality import dual_partition
        from orbitcalc.partitions import union

        for height in (1, 3, 5):
            for a1 in (1, 3):
                for a2 in (1, 3):
                    if height * (a1 + a2) - 1 > 16:
                        continue
                    l1, l2 = P(*[a1] * height), P(*[a2] * height)
                    w = waldspurger(l1, l2, BB)
                    assert w == P(*([a1 + a2] * (height - 1) + [a1 + a2 - 1]))
                    assert union(
                        dual_partition(l1, B), dual_partition(l2, B)
                    ) == dual_partition(w, B)
