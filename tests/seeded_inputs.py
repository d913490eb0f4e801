"""The benchmark's seeded input generators, ``perfbench/inputs.py``, loaded
by path as ``inputs``.  They build partitions and shapes by their own list
rules, without orbitcalc."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
)
inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inputs)
