"""Regenerate ``golden.json``, the expected outputs the benchmark checks.

It holds, for every registered property at its default bound, the case
count, the ``info`` block and the sha256 of the report's deterministic
fields, and a pool of CLI calls with their ``--json`` output.  Regenerate it
only for a change that is meant to alter results; run from the repository
root:

    PYTHONPATH=src python3 perfbench/make_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import inputs
from orbitcalc.cli import main as cli_main
from orbitcalc.harness import PROPERTIES, verify
from worker import report_digest

CLI_CASES_PER_COMMAND = 20


def cli_answer(argv: list[str]) -> list[dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"orbitcalc {' '.join(argv)} exited with {code}")
    return [json.loads(line) for line in out.getvalue().splitlines()]


def main() -> None:
    sweeps = {}
    for name in PROPERTIES:
        report = verify(name)
        sweeps[name] = {
            "bound": report.bound,
            "cases": report.cases_checked,
            "info": report.info,
            "digest": report_digest(report),
        }
    rng = random.Random(0)
    cli = []
    for command in inputs.CLI_COMMANDS:
        for _ in range(CLI_CASES_PER_COMMAND):
            argv = inputs.cli_case(rng, command) + ["--json"]
            cli.append({"argv": argv, "stdout": cli_answer(argv)})
    path = Path(__file__).with_name("golden.json")
    path.write_text(json.dumps({"sweeps": sweeps, "cli": cli}, indent=1) + "\n")


if __name__ == "__main__":
    main()
