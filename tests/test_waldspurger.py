import random
import sys
from types import ModuleType

import pytest

from orbitcalc.duality import lie_algebra_dim, orbit_dim
from orbitcalc.partitions import GroupType, Partition, classify
from orbitcalc.waldspurger import PairType, waldspurger, xi_vector
from seeded_inputs import inputs

B, C, D = GroupType.B, GroupType.C, GroupType.D
BB, CD, DD = PairType.BB, PairType.CD, PairType.DD
LARGE_SEED = 20261020


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


def direct_xi(lam1, lam2, pair):
    """Reference: xi and J+/J- by the defining loop over j, with the factor
    guards of the public functions left out."""
    d = pair.total_size(sum(lam1), sum(lam2))
    e1, e2 = pair.eps
    k = max(len(lam1), len(lam2))
    row1 = (0,) + lam1 + (0,) * (k + 1 - len(lam1))
    row2 = (0,) + lam2 + (0,) * (k + 1 - len(lam2))
    sums = [x + y for x, y in zip(row1, row2)]
    entries, j_plus, j_minus = [], [], []
    for j in range(1, k + 1):
        value = 0
        if row1[j] % 2 == e1 and row2[j] % 2 == e2:
            here = sums[j]
            if j % 2 == (d + 1) % 2:
                if j == 1 or sums[j - 1] > here:
                    value = 1
                    j_plus.append(j)
            else:
                if here > sums[j + 1]:
                    value = -1
                    j_minus.append(j)
        entries.append(value)
    return tuple(entries), tuple(j_plus), tuple(j_minus)


class TestXiReadOffTheImage:
    """``xi_vector`` reads xi and its index sets off the cached image of
    ``waldspurger``; these pin it to the defining loop."""

    @staticmethod
    def check(l1, l2, pair):
        xi = xi_vector(l1, l2, pair)
        assert tuple(xi) == direct_xi(l1, l2, pair), (pair, l1, l2)
        assert all(type(part) is tuple for part in xi)

    def test_every_special_pair_up_to_16(self):
        from orbitcalc.harness import _BY_PAIR, _domain, _specials

        cases = 0
        for pair, l1, l2 in _domain(_specials, _BY_PAIR)(16):
            self.check(l1, l2, pair)
            cases += 1
        assert cases == 3263

    @pytest.mark.parametrize("pair", list(PairType), ids=str)
    def test_seeded_pairs_of_sizes_40_to_200(self, pair):
        rng = random.Random(LARGE_SEED)
        t1, t2 = (t.value for t in pair.factor_types)
        for _ in range(300):
            total = rng.randint(40, 200)
            d1 = inputs.sized(rng, 1, total - 1, inputs.size_parity(t1))
            d2 = max(total - d1, 1)
            d2 += (d2 - inputs.size_parity(t2)) % 2
            l1 = Partition(inputs.random_special(rng, d1, t1))
            l2 = Partition(inputs.random_special(rng, d2, t2))
            self.check(l1, l2, pair)

    def test_one_correction_loop_per_transfer_query(self, monkeypatch):
        """The transfer, its correction vector and its special closure, as
        one query asks for them, build xi once: the loop runs inside the
        cached transfer, and ``xi_vector`` reads the cached image."""
        from orbitcalc.symbols import special_closure

        module = sys.modules["orbitcalc.waldspurger"]
        original = module._correction
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, "_correction", counting)
        waldspurger.cache_clear()
        l1, l2 = P(5, 3, 3, 1, 1), P(3, 3, 1)
        assert waldspurger(l1, l2, BB) == P(7, 7, 3, 1, 1)
        assert xi_vector(l1, l2, BB).entries == (-1, 1, -1, 0, 0)
        special_closure(l1, l2, BB)
        assert xi_vector(l1, l2, BB).j_minus == (1, 3)
        assert len(calls) == 1
