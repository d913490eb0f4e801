"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the sweeps use the registered properties at their default bounds,
and each report must match its entry in ``perfbench/golden.json``.  The
properties that no criterion runs are checked against it too.
"""

import hashlib
import json
from pathlib import Path

import pytest

from orbitcalc.aparams import AParameterShape, SelfDualType, Summand, predicted_wavefront, split_by_signs
from orbitcalc.partitions import GroupType, Partition
from orbitcalc.symbols import Symbol, normalize_symbol
from orbitcalc.duality import dual_partition
from orbitcalc.harness import PROPERTIES, verify
from orbitcalc.waldspurger import PairType, waldspurger

B = GroupType.B
O = SelfDualType.ORTHOGONAL


def P(*parts):
    return Partition(parts)


GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text()
)["sweeps"]


def _check_golden(report):
    """Cases, info and the sha256 of ``to_dict()`` minus ``wall_time`` (as
    sorted compact JSON) equal the golden entry of the property."""
    golden = GOLDEN[report.property]
    fields = report.to_dict()
    del fields["wall_time"]
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    assert report.cases_checked == golden["cases"]
    assert report.info == golden["info"]
    assert hashlib.sha256(text.encode()).hexdigest() == golden["digest"]


def _run(number, name, bound, time_limit=None):
    report = verify(name, bound)
    ok = report.ok and (time_limit is None or report.wall_time < time_limit)
    print(
        f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} "
        f"(bound={report.bound}, cases={report.cases_checked}, "
        f"failures={report.info['failure_count']}, {report.wall_time:.2f}s)"
    )
    assert report.failures == []
    assert report.info["failure_count"] == 0
    if time_limit is not None:
        assert report.wall_time < time_limit
    _check_golden(report)
    return report


def test_criterion_01_transfer_duality_inequality():
    _run(1, "prop_ws", 16, time_limit=60.0)


def test_criterion_02_dimension_identity():
    _run(2, "dim_identity", 16)


def test_criterion_03_transfer_monotonicity():
    _run(3, "worder", 14)


def test_criterion_04_dominance_matches_bipartition_order():
    _run(4, "achar", 14)


def test_criterion_05_duality_laws():
    _run(5, "dd_special", 16)


def test_criterion_06_collapse_oracle():
    _run(6, "collapse_oracle", 12)


def test_criterion_07_springer_round_trip():
    _run(7, "springer_roundtrip", 20)


def test_criterion_08_special_closure_oracle():
    _run(8, "closure_oracle", 14)


def test_criterion_09_anchored_point_values():
    checks = [
        waldspurger(P(3, 3, 3), P(1, 1, 1), PairType.BB) == P(4, 4, 3),
        dual_partition(P(3, 3, 3), B) == P(3, 3, 2),
        dual_partition(P(1, 1, 1), B) == P(2),
        dual_partition(P(4, 4, 3), B) == P(3, 3, 2, 2),
        waldspurger(P(3), P(3), PairType.BB) == P(5),
        dual_partition(P(5), B) == P(1, 1, 1, 1),
        normalize_symbol(Symbol((0, 1, 2, 3), (0, 3, 4))) == Symbol((0, 1, 2), (2, 3)),
    ]
    rect = verify("rect_forms", 16)
    ok = all(checks) and rect.ok
    print(
        f"ACCEPTANCE 09 anchored_point_values: {'PASS' if ok else 'FAIL'} "
        f"({len(checks)} point values, rect_forms cases={rect.cases_checked})"
    )
    assert all(checks)
    assert rect.failures == []
    _check_golden(rect)


def test_criterion_10_endoscopic_chain():
    report = _run(10, "chain", 12, time_limit=60.0)
    assert report.cases_checked > 0
    psi = AParameterShape(B, 2, (Summand(1, O, 2, 1), Summand(1, O, 1, 2)))
    f1, f2 = split_by_signs(psi, (-1, 1))
    w = waldspurger(predicted_wavefront(f1), predicted_wavefront(f2), PairType.BB)
    exact = w == P(3, 1, 1) == predicted_wavefront(psi)
    print(f"ACCEPTANCE 10 worked_chain_equality: {'PASS' if exact else 'FAIL'}")
    assert exact


def test_criterion_11_jordan_type_oracle():
    _run(11, "npsi_oracle", 10)


# The properties that no criterion above runs, at their default bounds.
OTHER_PROPERTIES = [
    "transpose_involution",
    "order_reversal",
    "union_monotone",
    "transpose_union",
    "add_union",
    "special_dd_agree",
    "orbit_dim_antitone",
    "w_size",
    "specialize_family",
    "cd_symmetry",
    "wavefront_special",
]


@pytest.mark.parametrize("name", OTHER_PROPERTIES)
def test_other_reports_match_golden(name):
    _check_golden(verify(name))


def test_default_bounds_match_golden():
    """Every property's default bound is the bound of its golden entry, so
    that ``verify(name)`` runs the sweep that the golden file pins."""
    assert {name: spec.default_bound for name, spec in PROPERTIES.items()} == {
        name: entry["bound"] for name, entry in GOLDEN.items()
    }
