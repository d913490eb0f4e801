import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbitcalc
from orbitcalc.cli import main
from orbitcalc.harness import PROPERTIES, PropertySpec


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTranspose:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "transpose", "4,2,1")
        assert code == 0
        assert out.strip() == "3,2,1,1"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "transpose", "--json", "4,2,1")
        assert code == 0
        assert json.loads(out) == {"input": [4, 2, 1], "output": [3, 2, 1, 1]}

    def test_bad_partition(self, capsys):
        code, _, err = run(capsys, "transpose", "4,x")
        assert code == 2
        assert "error" in err


class TestDual:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "dual", "--type", "B", "2,2,1")
        assert code == 0
        assert out.strip() == "2,2 (type C)"

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "dual", "--type", "B", "--json", "2,2,1")
        assert code == 0
        assert json.loads(out) == {
            "input": [2, 2, 1],
            "input_type": "B",
            "output": [2, 2],
            "output_type": "C",
            "special": True,
        }

    def test_non_member_is_input_error(self, capsys):
        code, _, err = run(capsys, "dual", "--type", "B", "2,1")
        assert code == 2 and "error" in err


class TestCollapse:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "collapse", "--type", "B", "4,2,1")
        assert code == 0 and out.strip() == "3,3,1"


class TestWaldspurger:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "waldspurger", "--pair", "BB", "3,3,3", "1,1,1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "W: 4,4,3"
        assert lines[1].startswith("xi:")
        assert lines[2].startswith("J+:")
        assert lines[3].startswith("J-:")

    def test_json_fields(self, capsys):
        code, out, _ = run(
            capsys, "waldspurger", "--pair", "BB", "--json", "3,3,3", "1,1,1"
        )
        payload = json.loads(out)
        assert payload["w"] == [4, 4, 3]
        assert payload["xi"] == [0, 0, -1]
        assert payload["j_plus"] == []
        assert payload["j_minus"] == [3]
        assert "closure" not in payload

    def test_closure_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "waldspurger",
            "--pair",
            "BB",
            "--json",
            "--closure",
            "3,3,3",
            "1,1,1",
        )
        assert json.loads(out)["closure"] == [5, 3, 3]

    def test_non_special_input(self, capsys):
        code, _, err = run(capsys, "waldspurger", "--pair", "BB", "2,2,1", "1")
        assert code == 2 and "not special" in err


class TestSymbolAndSpringer:
    def test_symbol(self, capsys):
        code, out, _ = run(capsys, "symbol", "--type", "B", "--json", "0,1|1")
        payload = json.loads(out)
        assert payload["top"] == [0, 2]
        assert payload["bottom"] == [1]
        assert payload["special"] is True
        assert payload["partition"] == [3, 1, 1]

    def test_symbol_non_special(self, capsys):
        code, out, _ = run(capsys, "symbol", "--type", "B", "--json", "0,0,0|2,2")
        payload = json.loads(out)
        assert payload["special"] is False
        assert payload["partition"] is None

    def test_springer(self, capsys):
        code, out, _ = run(capsys, "springer", "--type", "B", "3,1,1")
        assert code == 0
        assert "bipartition: 0,1|1" in out
        assert "symbol:" in out

    def test_springer_rejects_non_special(self, capsys):
        code, _, err = run(capsys, "springer", "--type", "B", "2,2,1")
        assert code == 2 and "not special" in err

    def test_type_d_round_trip(self, capsys):
        code, out, _ = run(capsys, "springer", "--type", "D", "2,2,2,2")
        assert code == 0 and "bipartition: 1,1|1,1" in out
        code, out, _ = run(capsys, "symbol", "--type", "D", "--json", "1,1|1,1")
        payload = json.loads(out)
        assert payload["special"] is True
        assert payload["partition"] == [2, 2, 2, 2]


class TestWavefront:
    def test_family_target_with_rank(self, capsys):
        code, out, _ = run(
            capsys,
            "wavefront",
            "--target",
            "SOodd",
            "--rank",
            "2",
            "--shape",
            "1xS2*S1:O,1xS1*S2:O",
        )
        assert code == 0
        assert "npsi: 2,1,1" in out
        assert "wavefront: 3,1,1" in out

    def test_concrete_target(self, capsys):
        code, out, _ = run(
            capsys, "wavefront", "--target", "SO5", "--shape", "1xS1*S4:O", "--json"
        )
        payload = json.loads(out)
        assert payload["target"] == "SO5"
        assert payload["npsi"] == [4]
        assert payload["wavefront"] == [1, 1, 1, 1, 1]

    def test_dual_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "wavefront",
            "--target",
            "SO5",
            "--shape",
            "1xS1*S4:O",
            "--dual",
            "--json",
        )
        payload = json.loads(out)
        assert payload["dualized"] is True
        assert payload["wavefront"] == [5]

    def test_invalid_shape(self, capsys):
        code, _, err = run(
            capsys, "wavefront", "--target", "SO5", "--shape", "1xS3*S1:O"
        )
        assert code == 2 and "error" in err


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "collapse_oracle", "--max", "6")
        assert code == 0
        assert "PASS" in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "prop_ws", "--max", "6", "--json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["property"] == "prop_ws"
        assert payload["bound"] == 6
        assert payload["failures"] == []

    def test_unknown_property_is_input_error(self, capsys):
        code, _, err = run(capsys, "verify", "nonsense")
        assert code == 2 and "unknown property" in err

    def test_failures_exit_one(self, capsys, monkeypatch):
        import orbitcalc.harness as harness_module

        def always_failing(bound):
            return 1, [{"case": "forced"}], {}

        broken = dict(PROPERTIES)
        broken["prop_ws"] = PropertySpec("prop_ws", 4, always_failing, "forced")
        monkeypatch.setattr(harness_module, "PROPERTIES", broken)
        code, out, _ = run(capsys, "verify", "prop_ws")
        assert code == 1
        assert "FAIL" in out
        assert "counterexample" in out


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dual", "--type", "E", "2,2,1"])
        assert exc.value.code == 2


def test_import_loads_no_numpy():
    src = str(Path(orbitcalc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, orbitcalc.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
