import hashlib
import json
import random
from fractions import Fraction

import pytest

import orbitcalc.harness as harness_module
from orbitcalc.aparams import (
    AParameterShape,
    jordan_type,
    npsi_partition,
    pair_type_of,
    predicted_wavefront,
    shape_vectors,
    shapes_for,
    split_sides,
    split_vectors,
)
from orbitcalc.partitions import (
    Classification,
    GroupType,
    Partition,
    classify,
    dominance_leq,
    partitions_of,
)
from orbitcalc.harness import (
    MAX_RECORDED_FAILURES,
    PROPERTIES,
    _chain_case,
    _domain,
    _dominated_pairs,
    _rank,
    brute_force_collapse,
    brute_force_min_special_above,
    jordan_type_oracle,
    member_list,
    special_list,
    verify,
)

B, C, D = GroupType.B, GroupType.C, GroupType.D


def P(*parts):
    return Partition(parts)


CORE_PROPERTIES = [
    "prop_ws",
    "dim_identity",
    "worder",
    "achar",
    "dd_special",
    "collapse_oracle",
    "springer_roundtrip",
    "closure_oracle",
    "chain",
]


class TestRegistry:
    @pytest.mark.parametrize("name", CORE_PROPERTIES)
    def test_core_names_registered(self, name):
        assert name in PROPERTIES

    def test_unknown_property(self):
        with pytest.raises(ValueError):
            verify("no_such_property")

    def test_negative_bound(self):
        with pytest.raises(ValueError):
            verify("prop_ws", -1)


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
        assert brute_force_collapse(P(4, 2, 1), B) == P(3, 3, 1)
        assert brute_force_collapse(P(3, 2, 1), C) == P(2, 2, 2)
        assert brute_force_collapse(P(3, 1), D) == P(3, 1)

    def test_min_special_above(self):
        assert brute_force_min_special_above(P(2, 2, 1), B) == P(3, 1, 1)

    @pytest.mark.parametrize(
        "oracle", [brute_force_collapse, brute_force_min_special_above]
    )
    def test_wrong_parity(self, oracle):
        with pytest.raises(
            ValueError, match="^size 4 has the wrong parity for type B$"
        ):
            oracle(P(2, 2), B)

    @pytest.mark.parametrize("t", [B, C, D])
    def test_oracles_match_pairwise_extrema(self, t):
        """On every partition of type t's parity up to size 12, each oracle
        gives the unique maximal (minimal) element found by comparing every
        pair, and raises exactly when there is none."""
        for d in range(t.size_parity, 13, 2):
            for lam in partitions_of(d):
                below = [mu for mu in member_list(d, t) if dominance_leq(mu, lam)]
                above = [mu for mu in special_list(d, t) if dominance_leq(lam, mu)]
                for oracle, expected in (
                    (brute_force_collapse, pairwise_extremum(below, True)),
                    (brute_force_min_special_above, pairwise_extremum(above, False)),
                ):
                    try:
                        got = oracle(lam, t)
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
        monkeypatch.setattr(harness_module, "dominance_leq", relation(lam))
        with pytest.raises(
            RuntimeError, match=r"^no unique maximum below 4,2,1 for type B$"
        ):
            brute_force_collapse(lam, B)
        with pytest.raises(
            RuntimeError,
            match=r"^no unique special minimum above 4,2,1 for type B$",
        ):
            brute_force_min_special_above(lam, B)

    def test_jordan_oracle_examples(self):
        assert jordan_type_oracle([(1, 4)]) == P(4)
        assert jordan_type_oracle([(2, 1), (1, 2)]) == P(2, 1, 1)
        assert jordan_type_oracle([]) == Partition()


class TestReports:
    def test_small_sweep_passes(self):
        report = verify("prop_ws", 8)
        assert report.ok
        assert report.cases_checked > 0
        assert report.info["failure_count"] == 0

    def test_bound_override(self):
        assert verify("collapse_oracle", 6).bound == 6
        assert verify("collapse_oracle").bound == 12

    def test_deterministic_modulo_wall_time(self):
        first = verify("worder", 8).to_dict()
        second = verify("worder", 8).to_dict()
        first.pop("wall_time")
        second.pop("wall_time")
        assert json.dumps(first) == json.dumps(second)

    def test_report_shape(self):
        report = verify("dim_identity", 6)
        payload = report.to_dict()
        assert list(payload) == [
            "property",
            "bound",
            "cases_checked",
            "failures",
            "info",
            "wall_time",
        ]

    def test_cd_asymmetry_is_reported_not_failed(self):
        report = verify("cd_symmetry", 10)
        assert report.ok
        assert report.info["asymmetric_cases"] > 0


# Case counts and info (key order included) of every property at small
# bounds, as recorded before the sweeps were rewritten as domain + check.
SMALL_SWEEPS = [
    ("transpose_involution", 10, 139, [("failure_count", 0)]),
    ("order_reversal", 8, 919, [("failure_count", 0)]),
    ("union_monotone", 6, 511, [("failure_count", 0)]),
    ("transpose_union", 8, 434, [("failure_count", 0)]),
    ("add_union", 6, 990, [("failure_count", 0)]),
    ("collapse_oracle", 8, 108, [("failure_count", 0)]),
    ("dd_special", 10, 877, [("failure_count", 0)]),
    ("special_dd_agree", 10, 116, [("failure_count", 0)]),
    ("orbit_dim_antitone", 10, 761, [("failure_count", 0)]),
    ("w_size", 10, 398, [("failure_count", 0)]),
    ("prop_ws", 10, 398, [("failure_count", 0)]),
    ("dim_identity", 10, 398, [("failure_count", 0)]),
    ("worder", 10, 1960, [("failure_count", 0)]),
    ("rect_forms", 10, 17, [("failure_count", 0)]),
    ("achar", 10, 869, [("failure_count", 0)]),
    ("springer_roundtrip", 12, 159, [("failure_count", 0)]),
    ("specialize_family", 10, 398, [("failure_count", 0)]),
    ("closure_oracle", 10, 398, [("failure_count", 0)]),
    ("cd_symmetry", 10, 167, [("asymmetric_cases", 31), ("failure_count", 0)]),
    ("chain", 8, 1127, [("dim_equal_cases", 1079), ("failure_count", 0)]),
    ("npsi_oracle", 8, 693, [("failure_count", 0)]),
    ("wavefront_special", 8, 693, [("failure_count", 0)]),
]


class TestEnumeration:
    def test_every_property_is_pinned(self):
        assert [row[0] for row in SMALL_SWEEPS] == list(PROPERTIES)

    @pytest.mark.parametrize("name,bound,cases,info", SMALL_SWEEPS)
    def test_cases_and_info(self, name, bound, cases, info):
        report = verify(name, bound)
        assert report.cases_checked == cases
        assert list(report.info.items()) == info
        assert report.failures == []


# sha256 over the repr of every case of each domain at its SMALL_SWEEPS
# bound, one line per case in enumeration order, with the chain's per-sweep
# memo dict left out; recorded before the sized domains shared one builder.
DOMAIN_DIGESTS = {
    "transpose_involution":
        "71989afe91098340a8a853388195fc3c5ceac6c54349c27607766684c83d8caf",
    "order_reversal":
        "de64c21e1013e723b46bfa7246762ad45279c23fb144bd81b8d6f19f58811a6d",
    "union_monotone":
        "0b9a0e15687783b726ad9c72bf24c31bc361e2540c9a63dfddd14d454f1a486f",
    "transpose_union":
        "dc1ca7c6e3f5bcf0efa97d7a67e25307d8fa76b6bb520f44878a6b62a03c54d2",
    "add_union":
        "bc91dbaeb4e2ca692c9c5441caa9b3ef174d7e5b71fab3e3734deebfb83d241a",
    "collapse_oracle":
        "fe7765522609433664e527daf88600c5af494fbad6f55bf4d02e5a8615a91304",
    "dd_special":
        "dffb0c70a13739749823511a92be293d02a32542da01a01ffb6ace3efdaeeabb",
    "special_dd_agree":
        "f281100dfa3818119e786213c3f0c43f8ff35bc2903546a24398fedfef3a5ac4",
    "orbit_dim_antitone":
        "c5e2f1eb9fc2aaacf6a873a9ab81c97743a5be0738c6366d10e3776e0914792f",
    "w_size":
        "5ac414c44d89b33e2a8331d0fcbafaf811d743d66e27be982976430f5fb01929",
    "prop_ws":
        "5ac414c44d89b33e2a8331d0fcbafaf811d743d66e27be982976430f5fb01929",
    "dim_identity":
        "5ac414c44d89b33e2a8331d0fcbafaf811d743d66e27be982976430f5fb01929",
    "worder":
        "3c38181ae4dfb6698bd0061d4a8df680d0588f636cfe59b6e2a976c7283e3a74",
    "rect_forms":
        "1dee48b019c9818556c8c4f81c647542d74e940a807bf1f54413e0599a4ce92b",
    "achar":
        "fbbcc5d5a2358d5023ff232525b9a600fb68a900394eff9d64fcd8d80a3f1cd4",
    "springer_roundtrip":
        "ac522391aedc193435cd8973f2405c37779182ed8a3cd9167553c8330f0f4d7e",
    "specialize_family":
        "5ac414c44d89b33e2a8331d0fcbafaf811d743d66e27be982976430f5fb01929",
    "closure_oracle":
        "5ac414c44d89b33e2a8331d0fcbafaf811d743d66e27be982976430f5fb01929",
    "cd_symmetry":
        "b57d475ee8ab429b53684e52af01a454af23797cca66622b3115099f930dde3d",
    "chain":
        "d30181ebb6af87d80ed45ebc61be9ef5ef7f4cf905780c54ef68e48e2fb801a6",
    "npsi_oracle":
        "11d8093d698eb37c77bec3b95dbe408898e8895fa72ac54514d7cd67a5dd477b",
    "wavefront_special":
        "11d8093d698eb37c77bec3b95dbe408898e8895fa72ac54514d7cd67a5dd477b",
}


def test_domain_sequences():
    """Every domain yields the same cases in the same order, which fixes
    the failure records and the report digests."""
    digests = {}
    for name, bound, *_ in SMALL_SWEEPS:
        h = hashlib.sha256()
        for case in PROPERTIES[name].domain(bound):
            if name == "chain":
                shape, side1, side2 = _chain_case(*case)
                case = (pair_type_of(shape.target), shape,
                        predicted_wavefront(shape), side1, side2)
            case = tuple(x for x in case if not isinstance(x, dict))
            h.update(repr(case).encode() + b"\n")
        digests[name] = h.hexdigest()
    assert digests == DOMAIN_DIGESTS


def test_domain_builds_each_factor_once():
    """A walk asks its case function once per (size, type), however many
    size tuples use that size."""
    calls = []

    def counting(d, t):
        calls.append((d, t))
        return _dominated_pairs(d, t)

    domain = _domain(counting, [((), (None,) * 2)])
    assert sum(1 for _ in domain(10)) == 14532
    assert sorted(calls) == [(d, None) for d in range(11)]


def _flipped_special(lam, t):
    member, special = classify(lam, t)
    return Classification(member, not special)


def _forced_error(*args):
    raise RuntimeError("forced")


# Each row breaks one primitive in the harness namespace and pins what the
# sweep reports: case count, info, the first record, and a sha256 of the
# recorded (capped) failure list as JSON.
BROKEN_SWEEPS = [
    (
        "transpose_involution", 8, {"transpose": lambda lam: Partition(lam)},
        67, [("failure_count", 58)],
        {"lambda": "2", "transpose": "2"},
        "90394b716585748ead897f0c8d90edc933d0f0c97c0d216f54134492c61321af",
    ),
    (
        "dd_special", 8, {"classify": _flipped_special},
        330, [("failure_count", 63)],
        {
            "type": "B", "lambda": "1", "dual": "", "double_dual": "1",
            "problems": ["fixed-point/special mismatch", "dual output not special"],
        },
        "be80f37c91871fd0fd1b8dbcade3002e9dc825b837f67a104bfabf8608502a9e",
    ),
    (
        # lexicographic order extends dominance, so only pairs fail
        "dd_special", 8, {"dominance_leq": lambda lam, mu: lam <= mu},
        338, [("failure_count", 4)],
        {
            "type": "C", "lambda": "3,3,2", "mu": "4,2,1,1",
            "problems": ["dual not order-reversing"],
        },
        "56b6f180f9018081e809bfe11eb3cd51187a26f6e53d87cb88ad6165e1565cf8",
    ),
    (
        "w_size", 8, {"waldspurger": _forced_error},
        178, [("failure_count", 178)],
        {"pair": "BB", "lambda1": "1", "lambda2": "1", "error": "forced"},
        "79563c230448aa767ade883a0e04cb37e375c79ae46bc2564084583a990c7c46",
    ),
    (
        "prop_ws", 8, {"dominance_leq": lambda lam, mu: False},
        178, [("failure_count", 178)],
        {
            "pair": "BB", "lambda1": "1", "lambda2": "1",
            "xi": [-1], "j_plus": [], "j_minus": [1],
            "w": "1", "d_w": "", "union_duals": "",
        },
        "77db66f824e254750911881daaeff0ad90b8743aa44a448fff091fe48398e5a2",
    ),
    (
        "cd_symmetry", 10,
        {"brute_force_min_special_above": lambda lam, t: Partition()},
        167, [("asymmetric_cases", 31), ("failure_count", 166)],
        {
            "lambda1": "", "lambda2": "1,1", "stated": "2", "swapped": "2",
            "oracle": "",
        },
        "e099a7d94b3a8e2b3865c8d593306dea74763bf5abd52561a005d3fe887dba7e",
    ),
    (
        "chain", 8, {"dominance_leq": lambda lam, mu: lam == mu},
        1127, [("dim_equal_cases", 1079), ("failure_count", 48)],
        {
            "shape": "SO5: 1xS1*S2:O,1xS1*S2:O",
            "split": ["SO3: 1xS1*S2:O", "SO3: 1xS1*S2:O"],
            "w": "2,2,1", "wavefront": "3,1,1",
        },
        "f66387e77598960d07a0f8039d5aa95ed18453d5323a61464fe117a3e44f3f17",
    ),
]


def test_chain_builds_no_shapes(monkeypatch):
    """Once the shapes are enumerated, the chain sweep reads each split
    through its count vector and constructs no factor shape."""
    verify("chain", 8)
    built = []
    original = AParameterShape.__init__

    def counting(self, *args):
        built.append(self)
        original(self, *args)

    monkeypatch.setattr(AParameterShape, "__init__", counting)
    assert verify("chain", 8).cases_checked == 1127
    assert built == []


def test_chain_walks_count_vectors_from_a_cold_cache(monkeypatch):
    """With the shape cache empty, the chain sweep neither validates a
    shape nor asks the shape cache: it walks count vectors."""
    shapes_for.cache_clear()
    built = []
    original = AParameterShape.__init__

    def counting(self, *args):
        built.append(self)
        original(self, *args)

    monkeypatch.setattr(AParameterShape, "__init__", counting)
    assert verify("chain", 8).cases_checked == 1127
    assert built == []
    info = shapes_for.cache_info()
    assert (info.hits, info.misses) == (0, 0)

def test_chain_memo_is_per_sweep(monkeypatch):
    """Each chain sweep transfers once per distinct (pair, Jordan type of
    side 1, Jordan type of side 2), and a second sweep in the same process
    starts from an empty memo and reports the same."""
    keys = {
        (pair_type_of(target), jordan_type(side1), jordan_type(side2))
        for target in GroupType
        for rank in range(1, (8 - target.dual.size_parity) // 2 + 1)
        for kinds, counts in shape_vectors(target, rank)
        for vector, plus_first in split_vectors(
            target, 2 * rank + target.dual.size_parity, kinds, counts
        )
        for side1, side2 in [split_sides(kinds, counts, vector, plus_first)]
    }
    original = harness_module.waldspurger
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(harness_module, "waldspurger", counting)
    reports = []
    for _ in range(2):
        calls.clear()
        report = verify("chain", 8)
        assert len(calls) == len(keys)
        reports.append({**report.to_dict(), "wall_time": None})
    assert reports[0] == reports[1]
    assert reports[0]["cases_checked"] == 1127


def test_chain_keys_match_side_jordan_types():
    """At bound 12, two cases of one table share an integer key exactly
    when their sides have the same Jordan types: 173 tables, 660 keys.
    Each table is held, so that no id is reused once a target's tables
    are freed."""
    by_table: dict = {}
    for case in PROPERTIES["chain"].domain(12):
        table, key = case[:2]
        _, side1, side2 = _chain_case(*case)
        by_table.setdefault(id(table), (table, set()))[1].add(
            (key, jordan_type(side1), jordan_type(side2))
        )
    assert len(by_table) == 173
    assert sum(len(seen) for _, seen in by_table.values()) == 660
    for _, seen in by_table.values():
        assert len({key for key, _, _ in seen}) == len(seen)
        assert len({(l1, l2) for _, l1, l2 in seen}) == len(seen)


def test_chain_key_encoding_at_small_bounds():
    """At every bound from 1 to 10, each table of the chain domain holds
    the shapes of exactly one (target, Jordan type of the shape), no two
    tables share one, and within a table the key and the pair of the
    sides' Jordan types determine each other."""
    for bound in range(1, 11):
        by_table: dict = {}
        for case in PROPERTIES["chain"].domain(bound):
            table, key, target = case[:3]
            shape, side1, side2 = _chain_case(*case)
            _, seen, wholes = by_table.setdefault(
                id(table), (table, set(), set())
            )
            seen.add((key, jordan_type(side1), jordan_type(side2)))
            wholes.add((target, npsi_partition(shape)))
        per_table = [wholes for _, _, wholes in by_table.values()]
        assert all(len(wholes) == 1 for wholes in per_table), bound
        assert len(set().union(*per_table)) == len(by_table), bound
        for _, seen, _ in by_table.values():
            assert len({key for key, _, _ in seen}) == len(seen), bound
            assert len({(l1, l2) for _, l1, l2 in seen}) == len(seen), bound


def test_chain_report_at_bound_14():
    """The chain report at bound 14, pinned by a sha256 of the report
    without its wall time, recorded before the split walk ran on count
    vectors."""
    report = verify("chain", 14)
    assert report.cases_checked == 108242
    assert list(report.info.items()) == [
        ("dim_equal_cases", 101187), ("failure_count", 0)
    ]
    data = report.to_dict()
    del data["wall_time"]
    text = json.dumps(data, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5f911d53891b5bbdbf1e5b440be3c86b80dff0d77d3187c100b2da2c1b32f2b9"
    )


class TestSweepMemo:
    """The six per-sweep memos: on only inside :func:`verify`, emptied when
    a sweep ends, and each oracle body runs once per distinct argument."""

    def test_six_memos_empty_after_a_sweep(self):
        assert len(harness_module._SWEEP_MEMOS) == 6
        verify("closure_oracle", 10)
        assert not any(harness_module._SWEEP_MEMOS)

    def test_memos_emptied_when_a_check_raises(self, monkeypatch):
        original = harness_module.waldspurger
        filled = []

        def fails_late(*args):
            if len(filled) == 100:
                raise RuntimeError("forced")
            filled.append(any(harness_module._SWEEP_MEMOS))
            return original(*args)

        monkeypatch.setattr(harness_module, "waldspurger", fails_late)
        with pytest.raises(RuntimeError, match="^forced$"):
            verify("closure_oracle", 10)
        assert filled[-1]
        assert not any(harness_module._SWEEP_MEMOS)
        brute_force_min_special_above(P(2, 2, 1), B)
        assert not any(harness_module._SWEEP_MEMOS)

    def test_calls_outside_a_sweep_keep_nothing(self):
        lam = P(3, 1, 1)
        harness_module.transpose(lam)
        harness_module.union(lam, lam)
        harness_module.add(lam, lam)
        harness_module.orbit_dim(lam, B)
        brute_force_min_special_above(P(2, 2, 1), B)
        jordan_type_oracle(((1, 3), (2, 1)))
        assert not any(harness_module._SWEEP_MEMOS)

    @pytest.mark.parametrize("name,inner,cases,bodies", [
        ("closure_oracle", "_greatest", 1689, 347),
        ("cd_symmetry", "_greatest", 691, 157),
        ("npsi_oracle", "Partition", 2252, 388),
    ])
    def test_oracle_body_runs_once_per_distinct_argument(
        self, monkeypatch, name, inner, cases, bodies
    ):
        """At the default bound, counted through a call that the oracle's
        body makes exactly once per run: ``_greatest`` in
        ``brute_force_min_special_above``, ``Partition`` in
        ``jordan_type_oracle``; nothing else in these sweeps calls them."""
        original = getattr(harness_module, inner)
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(harness_module, inner, counting)
        report = verify(name)
        assert report.ok
        assert report.cases_checked == cases
        assert len(calls) == bodies


class TestFailureRecords:
    @pytest.mark.parametrize(
        "name,bound,patches,cases,info,first,digest", BROKEN_SWEEPS
    )
    def test_records(
        self, monkeypatch, name, bound, patches, cases, info, first, digest
    ):
        for attr, replacement in patches.items():
            monkeypatch.setattr(harness_module, attr, replacement)
        report = verify(name, bound)
        assert report.cases_checked == cases
        assert list(report.info.items()) == info
        assert report.failures[0] == first
        assert len(report.failures) == min(info[-1][1], MAX_RECORDED_FAILURES)
        text = json.dumps(report.failures)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert not report.ok

    def test_cap_is_25(self):
        assert MAX_RECORDED_FAILURES == 25


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
