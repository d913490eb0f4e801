import hashlib
import json
import random
from fractions import Fraction

import pytest

import orbitcalc.harness as harness_module
from orbitcalc.aparams import AParameterShape
from orbitcalc.partitions import Classification, GroupType, Partition, classify
from orbitcalc.harness import (
    MAX_RECORDED_FAILURES,
    PROPERTIES,
    _rank,
    brute_force_collapse,
    brute_force_min_special_above,
    jordan_type_oracle,
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
    through its summand tuples and constructs no factor shape."""
    verify("chain", 8)
    built = []
    original = AParameterShape.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(AParameterShape, "__post_init__", counting)
    assert verify("chain", 8).cases_checked == 1127
    assert built == []


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
