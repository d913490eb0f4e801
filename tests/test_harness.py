import hashlib
import json
import random
from fractions import Fraction

import pytest

import orbitcalc.harness as harness_module
from orbitcalc.aparams import (
    AParameterShape,
    Summand,
    _summand_kinds,
    factor_shapes,
    jordan_type,
    jordan_type_counts,
    npsi_partition,
    pair_type_of,
    predicted_wavefront,
    shape_vectors,
    shapes_for,
    split_sides,
    split_vectors,
)
from orbitcalc.duality import dual_partition, orbit_dim
from orbitcalc.partitions import (
    Classification,
    GroupType,
    Partition,
    add,
    classify,
    MAX_INPUT_SIZE,
    dominance_leq,
    partitions_of,
    transpose,
    union,
)
from orbitcalc.harness import (
    MAX_RECORDED_FAILURES,
    PROPERTIES,
    PropertySpec,
    _BY_PAIR,
    _BY_TYPE,
    _chain_splits,
    _domain,
    _dominated_pairs,
    _rank,
    _sizes,
    _wavefront_walk,
    brute_force_collapse,
    brute_force_min_special_above,
    jordan_type_oracle,
    member_list,
    special_list,
    verify,
)
from orbitcalc.symbols import (
    _RULES,
    _padded_sum,
    partition_of_special_symbol,
    springer_bipartition,
)
from orbitcalc.waldspurger import PairType, waldspurger

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

    @pytest.mark.parametrize("name", sorted(PROPERTIES))
    def test_bound_above_the_input_limit(self, name, monkeypatch):
        """A bound above the input limit is an input error raised before
        the domain is walked; the limit itself is walked."""

        def unwalked(bound):
            raise AssertionError(f"domain walked at bound {bound}")

        spec = PROPERTIES[name]
        monkeypatch.setitem(PROPERTIES, name, spec._replace(domain=unwalked))
        message = f"bound {MAX_INPUT_SIZE + 1} exceeds the limit {MAX_INPUT_SIZE}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            verify(name, MAX_INPUT_SIZE + 1)
        with pytest.raises(AssertionError, match="domain walked"):
            verify(name, MAX_INPUT_SIZE)


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
# bound, one line per case in enumeration order; recorded before the sized
# domains shared one builder.  The chain's entry hashes its split walk, the
# cases it yields one at a time when some pair of Jordan types fails, and
# wavefront_special's its shape walk, as (shape,) like npsi_oracle's.
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
        if name == "chain":
            domain = (
                (pair_type_of(shape.target), shape, predicted_wavefront(shape),
                 side1, side2)
                for *_, (shape, side1, side2) in _chain_splits(bound)
            )
        elif name == "wavefront_special":
            domain = ((shape,) for *_, shape in _wavefront_walk(bound))
        else:
            domain = PROPERTIES[name].domain(bound)
        for case in domain:
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


def _recursive_sizes(types, bound):
    """The size walk as first written, one type at a time by recursion;
    the reference for ``_sizes``."""
    if not types:
        yield ()
        return
    t = types[0]
    start, step = (0, 1) if t is None else (t.size_parity, 2)
    for d in range(start, bound + 1, step):
        for rest in _recursive_sizes(types[1:], bound - d):
            yield (d, *rest)


def test_sizes_match_the_recursive_walk():
    """The filtered product yields the recursive walk's size tuples in its
    order, for every list of types that ``_domain`` receives."""
    type_lists = [types for _, types in _BY_TYPE + _BY_PAIR]
    type_lists += [PairType.CD.factor_types] + [(None,) * k for k in range(5)]
    for types in type_lists:
        for bound in range(17):
            assert list(_sizes(types, bound)) == list(
                _recursive_sizes(types, bound)
            ), (types, bound)


def _flipped_special(lam, t):
    member, special = classify(lam, t)
    return Classification(member, not special)


def _forced_error(*args):
    raise RuntimeError("forced")


def _forced_value_error(*args):
    raise ValueError("forced")


# Each row breaks one primitive in the harness namespace (two for the
# cd_symmetry row that reaches its ValueError branch) and pins what the
# sweep reports: case count, info, the first record, and a sha256 of the
# recorded (capped) failure list as JSON.  Every property has a row.
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
    (
        "order_reversal", 6, {"transpose": lambda lam: lam},
        210, [("failure_count", 176)],
        {"lambda": "2", "mu": "1,1"},
        "a9b2a38cc6b3ab42067ec8d1bc1a2ec12be9b19dda1a6976f555c2a17be556fd",
    ),
    (
        # transposing reverses dominance, so every strict pair fails
        "union_monotone", 6,
        {"union": lambda lam, mu: transpose(union(lam, mu))},
        511, [("failure_count", 372)],
        {"lambda1": "", "lambda2": "2", "mu1": "", "mu2": "1,1"},
        "a660d313b6ad948ee34c3273e2864fcc94f2c976759fef06f247277edfe2936c",
    ),
    (
        "transpose_union", 6, {"add": union},
        139, [("failure_count", 80)],
        {"lambda1": "1", "lambda2": "1"},
        "29682e768ff4049f3b385235c6b8d81d7c1d101ecafddc1a8acbf41f44bf0e87",
    ),
    (
        "add_union", 4, {"dominance_leq": lambda lam, mu: lam == mu},
        164, [("failure_count", 38)],
        {"lambda1": "", "lambda2": "1", "mu1": "1", "mu2": ""},
        "0a876ae5560a50485ab08b83409230a892794835de51522fcbb2b8b47498aceb",
    ),
    (
        "collapse_oracle", 6, {"collapse": lambda lam, t: lam},
        49, [("failure_count", 17)],
        {"type": "B", "lambda": "2,1", "collapse": "2,1", "oracle": "1,1,1"},
        "2bc1f735ff89d9d72f145eaf20904c30cb8b142372ac04a2729707eabdd07659",
    ),
    (
        # no comparable pairs are left, and no member lies below its dd
        "dd_special", 6, {"dominance_leq": lambda lam, mu: False},
        32, [("failure_count", 32)],
        {
            "type": "B", "lambda": "1", "dual": "", "double_dual": "1",
            "problems": ["lambda > d(d(lambda))"],
        },
        "cf3c7949acd043b71d9923c174c16cbe4c0ec12978a8ee205bb821ea919145de",
    ),
    (
        "special_dd_agree", 8, {"classify": _flipped_special},
        63, [("failure_count", 63)],
        {"type": "B", "lambda": "1"},
        "1424025f6198193efdb16dc81242ae64fc0a89a9f813dbc598cba164fa0e7bba",
    ),
    (
        "orbit_dim_antitone", 6, {"orbit_dim": lambda lam, t: len(lam)},
        86, [("failure_count", 48)],
        {"type": "B", "lambda": "1,1,1", "mu": "3"},
        "82497a1d1f5c531779ced37d9d26128b81498712135a45d03bd4129b87c80e98",
    ),
    (
        # an image of the wrong size, not an error
        "w_size", 6, {"waldspurger": lambda l1, l2, pair: l1},
        73, [("failure_count", 45)],
        {
            "pair": "BB", "lambda1": "1", "lambda2": "3",
            "xi": [-1], "j_plus": [], "j_minus": [1], "w": "1",
        },
        "3aa8ea1e86d82f237578a8b3fe5ea654809ef68b2fa45965d71144494365b51d",
    ),
    (
        "dim_identity", 6, {"lie_algebra_dim": lambda t, d: 0},
        73, [("failure_count", 31)],
        {
            "pair": "BB", "lambda1": "3", "lambda2": "3",
            "xi": [-1], "j_plus": [], "j_minus": [1],
            "w": "5", "dim": 8, "expected_dim": 4,
        },
        "1534664478597a09d6c2becbaee489e96a6c9de22012c85c4b274d8f4d4e7271",
    ),
    (
        "worder", 8,
        {"waldspurger": lambda l1, l2, pair: transpose(waldspurger(l1, l2, pair))},
        595, [("failure_count", 417)],
        {"pair": "BB", "lower": ["1", "1,1,1"], "upper": ["1", "3"]},
        "65837eae4522332fa59c555982af8b144fdf9a755ba118a6a3856c7fa18dc7c7",
    ),
    (
        "rect_forms", 10, {"union": add},
        17, [("failure_count", 8)],
        {"height": 1, "a1": 3, "a2": 3, "mismatches": {"union": ("2,2", "1,1,1,1")}},
        "a172fec0f942fc1c9887adffa20af2d0db1c04f12e4b7855b0e697549b5b6433",
    ),
    (
        # only the partition side is patched: the bipartition order is
        # symbols' own dominance_leq
        "achar", 8, {"dominance_leq": lambda lam, mu: lam <= mu},
        317, [("failure_count", 3)],
        {
            "type": "C", "lambda": "3,3,2", "mu": "4,2,1,1",
            "rho_lambda": "1,1|2", "rho_mu": "0,0,2|1,1",
        },
        "8bd0a55cefb566cb1d06aac2ff03dce380fad8897f38fc30164feeaa60ae076f",
    ),
    (
        "springer_roundtrip", 8,
        {"partition_of_special_symbol":
            lambda s, t: transpose(partition_of_special_symbol(s, t))},
        53, [("failure_count", 45)],
        {"type": "B", "lambda": "3", "rho": "1|", "back": "1,1,1"},
        "0c327a3881462e071ad7c98e6284ef3d84c4414e023fe3d235d6e98ab356061b",
    ),
    (
        # the plain sum, which is not always special
        "specialize_family", 6,
        {"specialize_sum": lambda r1, r2, pair: _padded_sum(r1, r2)},
        73, [("failure_count", 5)],
        {
            "pair": "BB", "lambda1": "1,1,1", "lambda2": "1,1,1",
            "tilde": "0,0|2", "plain_symbol": "(0,1 ; 2)",
        },
        "93b9fa1342d6aa7696c731c594fba0b6f069dfc4ed699c0fb9ae437409edeb72",
    ),
    (
        # the transfer image itself, which is not always special
        "closure_oracle", 6, {"special_closure": waldspurger},
        73, [("failure_count", 5)],
        {
            "pair": "BB", "lambda1": "1,1,1", "lambda2": "1,1,1",
            "xi": [0, 0, -1], "j_plus": [], "j_minus": [3],
            "w": "2,2,1", "closure": "2,2,1", "oracle": "3,1,1",
            "specialized": "0,1|1", "symbol": "(0,2 ; 1)",
        },
        "d32f8af48b6f10fef9d7de3d95715b66cc72363a6c7a8ab96996d0cf8f41ff9d",
    ),
    (
        # the mirrored rule raises, so nothing is swapped
        "cd_symmetry", 6,
        {"symbol_of": _forced_value_error,
         "brute_force_min_special_above": lambda lam, t: Partition()},
        32, [("asymmetric_cases", 32), ("failure_count", 31)],
        {
            "lambda1": "", "lambda2": "1,1", "stated": "2", "swapped": "None",
            "oracle": "",
        },
        "f5bbcf18f7bed6977a1ca35b64218785eacc572400aa69f6fbb620269da594c4",
    ),
    (
        "npsi_oracle", 6,
        {"npsi_partition": lambda shape: transpose(npsi_partition(shape))},
        191, [("failure_count", 182)],
        {"shape": "SO3: 2xS1*S1:S"},
        "059d9f11f01ccf4158f26b068f224d84a24dfc4b002f4149246db64541838725",
    ),
    (
        # the counted route fails, so the shape walk gives one record per
        # failing shape
        "wavefront_special", 6,
        {"dual_partition": lambda lam, t: transpose(dual_partition(lam, t))},
        191, [("failure_count", 139)],
        {"shape": "SO3: 2xS1*S1:S",
         "problems": ["tempered shape misses the regular dual"]},
        "2172bda23893e2516585f898262fc04c1219c234784279ccc53aa2db10dc8007",
    ),
]


def _count_shape_builds(monkeypatch) -> list:
    """Record every AParameterShape built, checked or trusted."""
    built = []
    original_init = AParameterShape.__init__
    original_trusted = AParameterShape._trusted.__func__

    def counting_init(self, *args):
        built.append(self)
        original_init(self, *args)

    def counting_trusted(cls, *values):
        built.append(values)
        return original_trusted(cls, *values)

    monkeypatch.setattr(AParameterShape, "__init__", counting_init)
    monkeypatch.setattr(AParameterShape, "_trusted", classmethod(counting_trusted))
    return built


def test_chain_builds_no_shapes(monkeypatch):
    """The chain sweep walks pairs of Jordan types and builds no shape,
    neither a whole one nor a factor, checked or trusted."""
    verify("chain", 8)
    built = _count_shape_builds(monkeypatch)
    assert verify("chain", 8).cases_checked == 1127
    assert built == []


def test_chain_walks_count_vectors_from_a_cold_cache(monkeypatch):
    """With the shape cache empty, the chain sweep neither builds a shape
    nor asks the shape cache: it counts shapes by Jordan type."""
    shapes_for.cache_clear()
    built = _count_shape_builds(monkeypatch)
    assert verify("chain", 8).cases_checked == 1127
    assert built == []
    info = shapes_for.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def test_chain_builds_each_summand_kind_once(monkeypatch):
    """From a cold kind cache, the chain sweep at its default bound builds
    each summand kind it counts over once: the 50 kinds up to weight 10
    that a symplectic dual group admits and the 54 up to weight 11 of an
    orthogonal one, 1 254 builds before the kinds of lower weights were
    read from the cache."""
    built = []
    init = Summand.__init__

    def counting_init(self, *fields):
        built.append(fields)
        init(self, *fields)

    monkeypatch.setattr(Summand, "__init__", counting_init)
    _summand_kinds.cache_clear()
    assert verify("chain").info == {"dim_equal_cases": 24836, "failure_count": 0}
    assert len(built) == 104
    assert len(_summand_kinds(True, 10)) + len(_summand_kinds(False, 11)) == 104
    info = _summand_kinds.cache_info()
    assert (info.hits, info.misses) == (24, 23)


def test_chain_memo_is_per_sweep(monkeypatch):
    """Each chain sweep transfers once per distinct (pair, Jordan type of
    side 1, Jordan type of side 2) of its splits, the two Jordan types
    unordered for (B,B) and (D,D), and a second sweep in the same process
    starts from an empty memo and reports the same."""
    keys = set()
    for target in GroupType:
        pair = pair_type_of(target)
        for rank in range(1, (8 - target.dual.size_parity) // 2 + 1):
            for kinds, counts in shape_vectors(target, rank):
                for vector, plus_first in split_vectors(
                    target, 2 * rank + target.dual.size_parity, kinds, counts
                ):
                    sides = split_sides(kinds, counts, vector, plus_first)
                    lams = tuple(map(jordan_type, sides))
                    if pair is not PairType.CD:
                        lams = tuple(sorted(lams))
                    keys.add((pair, *lams))
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


def reference_chain_report(bound: int) -> dict:
    """The chain report without its wall time, computed one split at a
    time: every proper split of every shape with m <= bound, its factor
    wavefronts and the shape's predicted wavefront read off the sides'
    Jordan types."""
    cases, dim_equal, failures = 0, 0, []
    for target in GroupType:
        pair = pair_type_of(target)
        t1, t2 = pair.factor_types
        for rank in range(1, (bound - target.dual.size_parity) // 2 + 1):
            for (kinds, counts), shape in zip(
                shape_vectors(target, rank), shapes_for(target, rank)
            ):
                wf = predicted_wavefront(shape)
                for vector, plus_first in split_vectors(
                    target, shape.m, kinds, counts
                ):
                    side1, side2 = split_sides(kinds, counts, vector, plus_first)
                    w = waldspurger(
                        dual_partition(jordan_type(side1), t1.dual),
                        dual_partition(jordan_type(side2), t2.dual),
                        pair,
                    )
                    cases += 1
                    if not dominance_leq(w, wf):
                        failures.append({
                            "shape": str(shape),
                            "split": [
                                str(f) for f in factor_shapes(pair, (side1, side2))
                            ],
                            "w": str(w),
                            "wavefront": str(wf),
                        })
                    elif orbit_dim(w, target) == orbit_dim(wf, target):
                        dim_equal += 1
    return {
        "property": "chain",
        "bound": bound,
        "cases_checked": cases,
        "failures": failures[:MAX_RECORDED_FAILURES],
        "info": {"dim_equal_cases": dim_equal, "failure_count": len(failures)},
    }


@pytest.mark.parametrize("bound", range(13))
def test_chain_matches_the_split_walk(bound):
    """The counted sweep over pairs of Jordan types gives the whole report
    of the walk over single splits."""
    report = verify("chain", bound).to_dict()
    del report["wall_time"]
    assert report == reference_chain_report(bound)


def test_same_type_transfer_is_symmetric():
    """For (B,B) and (D,D) the transfer does not depend on the order of
    the factors, which lets the chain count an unordered pair of Jordan
    types once; checked on every special pair of total size at most 16."""
    for pair in (PairType.BB, PairType.DD):
        t = pair.target
        for d1 in range(t.size_parity, 17, 2):
            for d2 in range(t.size_parity, 17 - d1, 2):
                for l1 in special_list(d1, t):
                    for l2 in special_list(d2, t):
                        assert waldspurger(l1, l2, pair) == waldspurger(l2, l1, pair)


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


def test_jordan_type_counts_are_keyed_by_the_dual_members():
    """The Jordan types that shapes of a target have are exactly the
    members of the dual type of the module's dimension, in the order of
    ``member_list``; the counted chain and wavefront sweeps rest on it."""
    for t in GroupType:
        for rank in range(13):
            m = 2 * rank + t.dual.size_parity
            assert tuple(jordan_type_counts(t, rank)) == member_list(m, t.dual)


def test_wavefront_builds_no_shapes(monkeypatch):
    """The wavefront sweep counts shapes by Jordan type: with the shape
    cache empty it builds no shape, checked or trusted, and neither hits
    nor misses the shape cache."""
    shapes_for.cache_clear()
    built = _count_shape_builds(monkeypatch)
    assert verify("wavefront_special", 8).cases_checked == 693
    assert built == []
    info = shapes_for.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def reference_wavefront_report(bound: int) -> dict:
    """The wavefront_special report without its wall time, checked one
    shape at a time as the sweep once did: the shape's predicted wavefront
    must be special, and a shape with every b = 1 must give the dual of the
    zero orbit 1^m, which tests ``jordan_type`` on the shapes."""
    cases, failures = 0, []
    for target in GroupType:
        for rank in range(1, (bound - target.dual.size_parity) // 2 + 1):
            for shape in shapes_for(target, rank):
                cases += 1
                wf = predicted_wavefront(shape)
                problems = []
                if not classify(wf, target).special:
                    problems.append("wavefront not special")
                if all(s.b == 1 for s in shape.summands):
                    regular = dual_partition(Partition([1] * shape.m), target.dual)
                    if wf != regular:
                        problems.append("tempered shape misses the regular dual")
                if problems:
                    failures.append({"shape": str(shape), "problems": problems})
    return {
        "property": "wavefront_special",
        "bound": bound,
        "cases_checked": cases,
        "failures": failures[:MAX_RECORDED_FAILURES],
        "info": {"failure_count": len(failures)},
    }


@pytest.mark.parametrize("bound", range(17))
def test_wavefront_matches_the_shape_walk(bound):
    """The counted sweep over Jordan types gives the whole report of the
    check over single shapes."""
    report = verify("wavefront_special", bound).to_dict()
    del report["wall_time"]
    assert report == reference_wavefront_report(bound)


def _check_toy(info, cases, value) -> dict | None:
    info["weight"] += cases
    if value < 0:
        return {"value": value}


def _never_walked(bound):
    raise AssertionError("the walk of a passing domain was swept")


class TestWalk:
    """The contract of ``PropertySpec.walk``, on a toy property: a case of
    the domain stands for its first entry's number of cases, and only a
    failing domain is swept again over the walk, whose pass alone gives
    ``cases_checked``, the counters and the records."""

    def verify_toy(self, monkeypatch, domain, walk):
        spec = PropertySpec("toy", 0, lambda bound: domain, _check_toy,
                            "toy", ("weight",), walk)
        monkeypatch.setitem(PROPERTIES, "toy", spec)
        return verify("toy")

    def test_passing_domain_is_not_walked(self, monkeypatch):
        report = self.verify_toy(monkeypatch, [(3, 1), (4, 2)], _never_walked)
        assert report.cases_checked == 7
        assert report.info == {"weight": 7, "failure_count": 0}
        assert report.failures == []

    def test_failing_domain_is_reported_by_the_walk_alone(self, monkeypatch):
        walk = [(1, -5), (1, 6), (1, -7)]
        report = self.verify_toy(
            monkeypatch, [(3, -1), (4, 2), (5, -3)], lambda bound: walk
        )
        assert report.cases_checked == 3
        assert report.info == {"weight": 3, "failure_count": 2}
        assert report.failures == [{"value": -5}, {"value": -7}]


def test_mirrored_cd_rule_never_fires():
    """The mirrored (C,D) rule fires at i only when b_{i-1} - a_{i-1} = -1
    on the first factor, of type C (lag 1).  That factor is special, so the
    rows of its symbol interleave and a_i <= b_i for every i, also after
    padding with zeros: the difference is never negative, the rule never
    fires, and its shift is never read.  So the mirrored sum is the plain
    sum, and ``asymmetric_cases`` counts the cases where the stated rule
    changes the plain sum."""
    delta1, _, _, lag, first = _RULES["CD_mirrored"]
    cases, changed = 0, 0
    for l1, l2 in PROPERTIES["cd_symmetry"].domain(14):
        r1 = springer_bipartition(l1, C)
        r2 = springer_bipartition(l2, D)
        k = max(r1.k, r2.k)
        padded = r1.padded(k)
        a, b = padded.alpha, padded.beta
        assert all(b[i - 1] - a[i - lag] != delta1 for i in range(first, k + 1))
        plain = _padded_sum(r1, r2)
        assert _padded_sum(r1, r2, "CD_mirrored") == plain
        cases += 1
        changed += _padded_sum(r1, r2, "CD") != plain
    assert cases == 691
    assert verify("cd_symmetry", 14).info["asymmetric_cases"] == changed == 160


# What each memoised name holds outside a sweep: the library functions
# themselves and the harness's own plain functions.
PLAIN = {
    "transpose": transpose,
    "union": union,
    "add": add,
    "orbit_dim": orbit_dim,
    "brute_force_min_special_above": brute_force_min_special_above,
    "jordan_type_oracle": jordan_type_oracle,
}


def assert_plain():
    for key, fn in PLAIN.items():
        assert getattr(harness_module, key) is fn, key
        assert not hasattr(fn, "cache_info"), key


def harness_caches() -> set[str]:
    return {k for k, v in vars(harness_module).items() if hasattr(v, "cache_info")}


class TestSweepMemo:
    """The six per-sweep memos: :func:`verify` binds each memoised name
    to an ``lru_cache`` for one sweep and binds the plain object back when
    the sweep ends, also when a check raises; each oracle body runs once
    per distinct argument."""

    def test_six_memos_empty_after_a_sweep(self, monkeypatch):
        """Mid-sweep exactly the six names are memos, each of the object
        it held before; after the sweep each holds that object again."""
        original = harness_module.waldspurger
        seen = []

        def spying(*args):
            if not seen:
                seen.append({k: getattr(harness_module, k) for k in
                             harness_caches() - before})
            return original(*args)

        monkeypatch.setattr(harness_module, "waldspurger", spying)
        before = harness_caches()
        assert_plain()
        verify("closure_oracle", 10)
        [memos] = seen
        assert sorted(memos) == sorted(PLAIN)
        assert all(memo.__wrapped__ is PLAIN[k] for k, memo in memos.items())
        assert_plain()
        assert harness_caches() == before

    def test_memos_emptied_when_a_check_raises(self, monkeypatch):
        original = harness_module.waldspurger
        filled = []

        def fails_late(*args):
            if len(filled) == 100:
                raise RuntimeError("forced")
            memo = harness_module.brute_force_min_special_above
            filled.append(memo.cache_info().currsize)
            return original(*args)

        monkeypatch.setattr(harness_module, "waldspurger", fails_late)
        with pytest.raises(RuntimeError, match="^forced$"):
            verify("closure_oracle", 10)
        assert filled[-1] > 0
        assert_plain()
        brute_force_min_special_above(P(2, 2, 1), B)
        assert_plain()

    def test_calls_outside_a_sweep_keep_nothing(self, monkeypatch):
        """Outside a sweep the names are the plain functions, and a repeated
        oracle call runs its body again."""
        original = harness_module._greatest
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(harness_module, "_greatest", counting)
        lam = P(3, 1, 1)
        harness_module.transpose(lam)
        harness_module.union(lam, lam)
        harness_module.add(lam, lam)
        harness_module.orbit_dim(lam, B)
        harness_module._chain_outcome(B, P(2), P(2))
        jordan_type_oracle(((1, 3), (2, 1)))
        for _ in range(2):
            brute_force_min_special_above(P(2, 2, 1), B)
        assert len(calls) == 2
        assert_plain()

    def test_stand_in_is_memoised_for_the_sweep(self, monkeypatch):
        """A stand-in put at a memoised name, as a tracer puts its wrapper,
        is called once per distinct argument of the sweep and is bound
        again after it."""
        calls = []

        def counting(*args):
            calls.append(args)
            return orbit_dim(*args)

        monkeypatch.setattr(harness_module, "orbit_dim", counting)
        assert verify("orbit_dim_antitone", 14).ok
        assert len(calls) == len(set(calls)) == 347
        assert harness_module.orbit_dim is counting

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

    def test_every_property_builds_a_record(self):
        assert {row[0] for row in BROKEN_SWEEPS} == set(PROPERTIES)

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
