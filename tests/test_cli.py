import hashlib
import io
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

    @pytest.mark.parametrize("closure", [[], ["--closure"]])
    def test_one_correction_vector_per_call(self, capsys, monkeypatch, closure):
        """One call computes the correction vector, and so checks the
        factors, once, with the transfer cache cold."""
        original = sys.modules["orbitcalc.waldspurger"].xi_vector
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("orbitcalc") and (
                getattr(module, "xi_vector", None) is original
            ):
                monkeypatch.setattr(module, "xi_vector", counting)
        sys.modules["orbitcalc.waldspurger"].waldspurger.cache_clear()
        code, out, _ = run(
            capsys, "waldspurger", "--pair", "BB", "3,3,3", "1,1,1", *closure
        )
        assert code == 0 and out.startswith("W: 4,4,3\n")
        assert len(calls) == 1


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

        def one_case(bound):
            return [("forced",)]

        def always_failing(info, case):
            return {"case": case}

        broken = dict(PROPERTIES)
        broken["prop_ws"] = PropertySpec(
            "prop_ws", 4, one_case, always_failing, "forced", ()
        )
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


# Exact stderr of the type guards: wrong parity, non-member, non-special.
# A factor's parity error carries no "factor N" prefix, as it comes from the
# same check that classify uses.
GUARD_CASES = [
    (("dual", "--type", "B", "2,2"), "size 4 has the wrong parity for type B"),
    (("dual", "--type", "B", "2,1"), "'2,1' is not a type-B partition"),
    (("dual", "--type", "C", "3,1"), "'3,1' is not a type-C partition"),
    (("dual", "--type", "D", "3,2,1"), "'3,2,1' is not a type-D partition"),
    (("waldspurger", "--pair", "BB", "2,1", "1"),
     "factor 1 '2,1' is not a type-B partition"),
    (("waldspurger", "--pair", "BB", "1", "2,2,1"),
     "factor 2 '2,2,1' is not special for type B"),
    (("waldspurger", "--pair", "BB", "2,2", "1"),
     "size 4 has the wrong parity for type B"),
    (("waldspurger", "--pair", "CD", "3,1", "1,1"),
     "factor 1 '3,1' is not a type-C partition"),
    (("waldspurger", "--pair", "CD", "2,1,1", "1,1"),
     "factor 1 '2,1,1' is not special for type C"),
    (("waldspurger", "--pair", "CD", "2", "2,1,1"),
     "factor 2 '2,1,1' is not a type-D partition"),
    (("waldspurger", "--pair", "CD", "2", "3,2,2,1"),
     "factor 2 '3,2,2,1' is not special for type D"),
    (("waldspurger", "--pair", "CD", "2", "3"),
     "size 3 has the wrong parity for type D"),
    (("waldspurger", "--pair", "DD", "3,2,2,1", "1,1"),
     "factor 1 '3,2,2,1' is not special for type D"),
    (("waldspurger", "--pair", "DD", "1,1", "2,1,1"),
     "factor 2 '2,1,1' is not a type-D partition"),
    (("springer", "--type", "B", "2,2"), "size 4 has the wrong parity for type B"),
    (("springer", "--type", "B", "2,1"), "'2,1' is not a type-B partition"),
    (("springer", "--type", "B", "2,2,1"), "'2,2,1' is not special for type B"),
    (("springer", "--type", "C", "3,1"), "'3,1' is not a type-C partition"),
    (("springer", "--type", "C", "2,1,1"), "'2,1,1' is not special for type C"),
    (("springer", "--type", "D", "2,1,1"), "'2,1,1' is not a type-D partition"),
    (("springer", "--type", "D", "3,2,2,1"),
     "'3,2,2,1' is not special for type D"),
]


@pytest.mark.parametrize(
    "argv,message", GUARD_CASES, ids=[" ".join(argv) for argv, _ in GUARD_CASES]
)
def test_guard_messages(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


LIMIT_CASES = [
    (("symbol", "--type", "B", "100001|"),
     "alpha row size 100001 exceeds the limit 100000"),
    (("symbol", "--type", "C", "0,0|100001"),
     "beta row size 100001 exceeds the limit 100000"),
    (("symbol", "--type", "D", ",".join(["1"] * 100001) + "|"
      + ",".join(["1"] * 100001)),
     "alpha row size 100001 exceeds the limit 100000"),
    (("wavefront", "--target", "SO100001", "--shape", "1xS1*S1:O"),
     "module dimension 100001 exceeds the limit 100000"),
    (("wavefront", "--target", "SOodd", "--rank", "50000", "--shape",
      "1xS1*S1:O"),
     "module dimension 100001 exceeds the limit 100000"),
    (("wavefront", "--target", "Sp", "--rank", "50001", "--shape",
      "1xS1*S1:O"),
     "module dimension 100002 exceeds the limit 100000"),
]


@pytest.mark.parametrize(
    "argv,message", LIMIT_CASES,
    ids=[" ".join(a[:20] for a in argv) for argv, _ in LIMIT_CASES],
)
def test_input_limits(capsys, argv, message):
    """Sizes just above the limit are input errors, caught at parsing."""
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("symbol", "--type", "B", "100000|"),
    ("wavefront", "--target", "SO100000", "--shape", "100000xS1*S1:O"),
    ("wavefront", "--target", "Sp", "--rank", "50000", "--shape",
     "100001xS1*S1:O"),
], ids=["row", "target", "family"])
def test_input_at_the_limit(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")


def run_to_exit(capsys, monkeypatch, *argv):
    """(exit code, stdout, stderr) of a call that argparse ends itself, with
    help formatted for 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


# sha256 of each help page as argparse prints it (Python 3.11, 80 columns);
# the key "" is the top-level help.
HELP_DIGESTS = {
    "": "1856af4f8d88bd7a9dbbb8c55b1e2d0e4c7dd3f1e09284dfa18c7e25d381ca43",
    "transpose":
        "b40459c04e1092c5819168dca72c236ddaa05e44774dd4d1dce373fe21abf137",
    "dual": "73e4546713fde8baf4322b02a372e0bf5822210c78a6c40e593ecd5178d4eccf",
    "collapse":
        "efdcbab86fb4da8315da32ff66076a6f675fe9f2ae182a78cc23615343ab27f8",
    "waldspurger":
        "2af98d1812e10329c604adb91e36e2ae258b07c926297d86b78128355fa38f8c",
    "symbol":
        "5f1cddd529d414cd5d426305f989c99fd8f9029eec8976800b7d67588ec0212e",
    "springer":
        "4b4e2e5b5d8b6eb73c7e2305ace1f865b4808189033cbf3d2156f26bf796e00f",
    "wavefront":
        "8f94d05422d71d9d2651f1308a209d4748dd0920090d3fbc9f59266c6ffa93de",
    "verify":
        "d5fc212cc95fccb7a370f757b811cf210c61b0620c47e674e87cf1854ebe7779",
}


@pytest.mark.parametrize("command", HELP_DIGESTS)
def test_help_pages(capsys, monkeypatch, command):
    argv = [command, "--help"] if command else ["--help"]
    code, out, err = run_to_exit(capsys, monkeypatch, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[command], out


_TYPED = "[-h] [--json] --type {B,C,D}"
_WALDSPURGER = (
    "usage: orbitcalc waldspurger [-h] [--json] --pair {BB,CD,DD} [--closure]\n"
    "                             partition1 partition2\n"
)

# Exact stderr of calls argparse rejects before any handler runs: each
# subcommand with no arguments, then a bad --type and a bad --pair choice.
USAGE_ERRORS = [
    (("transpose",),
     "usage: orbitcalc transpose [-h] [--json] partition\n"
     "orbitcalc transpose: error: the following arguments are required: "
     "partition\n"),
    (("dual",),
     f"usage: orbitcalc dual {_TYPED} partition\n"
     "orbitcalc dual: error: the following arguments are required: --type, "
     "partition\n"),
    (("collapse",),
     f"usage: orbitcalc collapse {_TYPED} partition\n"
     "orbitcalc collapse: error: the following arguments are required: "
     "--type, partition\n"),
    (("waldspurger",),
     _WALDSPURGER + "orbitcalc waldspurger: error: the following arguments "
     "are required: --pair, partition1, partition2\n"),
    (("symbol",),
     f"usage: orbitcalc symbol {_TYPED} bipartition\n"
     "orbitcalc symbol: error: the following arguments are required: --type, "
     "bipartition\n"),
    (("springer",),
     f"usage: orbitcalc springer {_TYPED} partition\n"
     "orbitcalc springer: error: the following arguments are required: "
     "--type, partition\n"),
    (("wavefront",),
     "usage: orbitcalc wavefront [-h] [--json] --target TARGET [--rank RANK] "
     "--shape\n"
     "                           SHAPE [--dual]\n"
     "orbitcalc wavefront: error: the following arguments are required: "
     "--target, --shape\n"),
    (("verify",),
     "usage: orbitcalc verify [-h] [--json] [--max MAX] PROPERTY\n"
     "orbitcalc verify: error: the following arguments are required: "
     "PROPERTY\n"),
    (("dual", "--type", "E", "2,2,1"),
     f"usage: orbitcalc dual {_TYPED} partition\n"
     "orbitcalc dual: error: argument --type: invalid choice: 'E' (choose "
     "from 'B', 'C', 'D')\n"),
    (("waldspurger", "--pair", "XX", "1", "1"),
     _WALDSPURGER + "orbitcalc waldspurger: error: argument --pair: invalid "
     "choice: 'XX' (choose from 'BB', 'CD', 'DD')\n"),
]


@pytest.mark.parametrize(
    "argv,stderr", USAGE_ERRORS, ids=[" ".join(argv) for argv, _ in USAGE_ERRORS]
)
def test_usage_errors(capsys, monkeypatch, argv, stderr):
    assert run_to_exit(capsys, monkeypatch, *argv) == (2, "", stderr)


class TestInternalErrors:
    def test_write_error_exits_three(self, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["transpose", "4,2,1"])
        assert (code, capsys.readouterr().err) == (
            3, "internal error: BrokenPipeError: [Errno 32] Broken pipe\n"
        )

    def test_overflow_exits_three(self, capsys):
        code, out, err = run(capsys, "transpose", "99999999999999999999,1")
        assert code == 3 and out == ""
        assert err == (
            "internal error: OverflowError: cannot fit 'int' into an "
            "index-sized integer\n"
        )

    def test_runtime_error_exits_three(self, capsys, monkeypatch):
        import orbitcalc.harness as harness_module

        def broken(name, bound):
            raise RuntimeError("forced")

        monkeypatch.setattr(harness_module, "verify", broken)
        code, out, err = run(capsys, "verify", "prop_ws")
        assert (code, out, err) == (3, "", "internal error: RuntimeError: forced\n")

    def test_no_traceback_from_a_fresh_process(self):
        src = str(Path(orbitcalc.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "orbitcalc.cli", "transpose",
             "99999999999999999999,1"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("internal error: OverflowError: ")
        assert proc.stderr.count("\n") == 1


def _loaded_after_cli_import(module: str) -> bool:
    """Whether ``module`` is loaded after a fresh ``import orbitcalc.cli``."""
    src = str(Path(orbitcalc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = f"import sys, orbitcalc.cli; print({module!r} in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() in ("True", "False"), proc.stdout
    return proc.stdout.strip() == "True"


def test_import_loads_no_numpy():
    assert not _loaded_after_cli_import("numpy")


def test_import_loads_no_harness():
    assert not _loaded_after_cli_import("orbitcalc.harness")
