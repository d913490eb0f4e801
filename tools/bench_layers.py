"""Per-call cost of each orbitcalc primitive, on seeded inputs.

Run from the repository root (no install needed, ``src/`` goes on the
path):

    python3 tools/bench_layers.py --label NAME

writes ``BENCH_NAME.json`` beside this directory, with the git sha, nproc,
the Python version and a ``layers`` block: for each primitive and each of
the sizes 20, 60 and 200, the µs per call.  The inputs come from the
seeded generators of ``perfbench/inputs.py`` (imported, never changed):
``CALLS`` distinct inputs per primitive and size, of that size (or the
next one of the right parity).  Each primitive and size is timed in
``PROCESSES`` fresh processes, one after the other: in each, ``timeit``
runs one pass over all the inputs ``--repeat`` times, with every
``lru_cache`` of the package cleared before each pass, and takes the
fastest pass divided by the number of calls.  The figure is the median of
the processes' figures, so that one process caught in a slow phase of a
shared machine does not set it; the record keeps all of them.  A cached
function is timed through its ``__wrapped__`` original, so a call costs
what a first call costs; the caches it reaches inside start cold.

The two enumerations count one call per item yielded: ``shape_vectors``
over the first ``ITEMS`` shapes of each target at that dual module
dimension, and ``split_vectors`` over the first ``ITEMS`` proper splits
of each seeded shape.

``--out PATH`` writes the record elsewhere, for a check that keeps no
file; the figures depend on the machine, so compare only records made on
the same one.

``--baseline PATH`` names a checkout of another commit, say the parent:
each primitive and size is then timed in ``PROCESSES`` fresh processes of
each tree, the two trees taking turns (this tree first in the first
round, the baseline first in the next, and so on), so that both see the
same phases of the machine.  The one record holds this tree's
``layers`` and ``git_sha`` and the other's ``baseline_layers`` and
``baseline_git_sha``.  The baseline's processes run its own copy of this
script, which must take ``--repeat`` and ``--one``.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import timeit
from itertools import groupby, islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (20, 60, 200)
CALLS = 200
ITEMS = 1000
PROCESSES = 3
SEED = 20261019

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import inputs  # noqa: E402
from orbitcalc import (  # noqa: E402
    AParameterShape, GroupType, PairType, Partition, SelfDualType, Summand,
    springer_bipartition,
)
from orbitcalc.aparams import shape_vectors, split_vectors  # noqa: E402


def _transfers(rng: random.Random, size: int) -> list[tuple]:
    return [
        (Partition(q["l1"]), Partition(q["l2"]), PairType(q["pair"]))
        for q in (inputs.transfer_query(rng, size, size) for _ in range(CALLS))
    ]


def _typed(rng: random.Random, size: int, draw) -> list[tuple]:
    """(partition, type) of the size, or the next one of the type's parity,
    for ``draw(rng, n, t)`` returning a list of parts."""
    cases = []
    for _ in range(CALLS):
        t = rng.choice(inputs.TYPES)
        n = size + (size - inputs.size_parity(t)) % 2
        cases.append((Partition(draw(rng, n, t)), GroupType(t)))
    return cases


def _shape(target: str, m: int, summands: list) -> AParameterShape:
    return AParameterShape(
        GroupType(target), inputs.rank_of(target, m),
        tuple(Summand(d, SelfDualType(t), a, b) for d, t, a, b in summands),
    )


def _shapes(rng: random.Random, size: int) -> list[tuple]:
    """(shape,) with the dual group's module of the size (or one more)."""
    cases = []
    for _ in range(CALLS):
        target = rng.choice(inputs.TYPES)
        m = size + (size - (target == "C")) % 2
        summands = inputs.random_shape(rng, target, m, rng.choice((3, 6, 12)))
        cases.append((_shape(target, m, summands),))
    return cases


def _signed_shapes(rng: random.Random, size: int) -> list[tuple]:
    """(shape, signs) of a proper split, with the dual group's module of
    the size (or one more), as the wavefront queries of ``perfbench``."""
    cases = []
    while len(cases) < CALLS:
        target = rng.choice(inputs.TYPES)
        m = size + (size - (target == "C")) % 2
        summands = inputs.random_shape(rng, target, m, rng.choice((3, 6, 12)))
        signs = inputs.random_split(rng, target, summands)
        if signs is not None:
            cases.append((_shape(target, m, summands), tuple(signs)))
    return cases


def _springer_pairs(rng: random.Random, size: int) -> list[tuple]:
    return [
        (springer_bipartition(l1, pair.factor_types[0]),
         springer_bipartition(l2, pair.factor_types[1]), pair)
        for l1, l2, pair in _transfers(rng, size)
    ]


def _count_shapes(target, rank) -> int:
    return sum(1 for _ in islice(shape_vectors(target, rank), ITEMS))


def _count_splits(shape) -> int:
    kinds, counts = zip(*((k, len(list(r))) for k, r in groupby(shape.summands)))
    splits = split_vectors(shape.target, shape.m, kinds, counts)
    return sum(1 for _ in islice(splits, ITEMS))


def _enum_targets(rng: random.Random, size: int) -> list[tuple]:
    return [
        (GroupType(t), inputs.rank_of(t, size + (size - (t == "C")) % 2))
        for t in inputs.TYPES
    ]


# name: (module, function, inputs); an enumeration's function returns the
# number of items it walked
PRIMITIVES = {
    "Partition": ("partitions", "Partition", lambda rng, size: [
        (inputs.random_partition(rng, size)[::-1],) for _ in range(CALLS)
    ]),
    "transpose": ("partitions", "transpose", lambda rng, size: [
        (p,) for p, _ in _typed(rng, size, inputs.random_member)
    ]),
    "classify": ("partitions", "classify", lambda rng, size: _typed(
        rng, size, inputs.random_member)),
    "collapse": ("partitions", "collapse", lambda rng, size: _typed(
        rng, size, lambda rng, n, t: inputs.random_partition(rng, n))),
    "dual_partition": ("duality", "dual_partition", lambda rng, size: _typed(
        rng, size, inputs.random_member)),
    "orbit_dim": ("duality", "orbit_dim", lambda rng, size: _typed(
        rng, size, inputs.random_member)),
    "xi_vector": ("waldspurger", "xi_vector", _transfers),
    "waldspurger": ("waldspurger", "waldspurger", _transfers),
    "springer_bipartition": ("symbols", "springer_bipartition",
                             lambda rng, size: _typed(rng, size, inputs.random_special)),
    "specialize_sum": ("symbols", "specialize_sum", _springer_pairs),
    "special_closure": ("symbols", "special_closure", _transfers),
    "npsi_partition": ("aparams", "npsi_partition", _shapes),
    "predicted_wavefront": ("aparams", "predicted_wavefront", _shapes),
    "split_by_signs": ("aparams", "split_by_signs", _signed_shapes),
    "shape_vectors": (__name__, "_count_shapes", _enum_targets),
    "split_vectors": (__name__, "_count_splits", _shapes),
}
ENUMERATIONS = ("shape_vectors", "split_vectors")


def _clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name.startswith("orbitcalc"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def time_one(name: str, size: int, repeat: int) -> dict:
    """µs per call of one primitive at one size, in this process."""
    module, function, make = PRIMITIVES[name]
    where = module if module == __name__ else f"orbitcalc.{module}"
    fn = inspect.unwrap(getattr(importlib.import_module(where), function))
    cases = make(random.Random(f"{SEED}:{name}:{size}"), size)
    if name in ENUMERATIONS:
        calls = sum(fn(*args) for args in cases)
    else:
        calls = len(cases)
    passes = timeit.repeat(
        lambda: [fn(*args) for args in cases],
        setup=_clear_caches, number=1, repeat=repeat,
    )
    return {"us_per_call": min(passes) / calls * 1e6, "calls": calls}


def _git_sha(root: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="writes BENCH_<label>.json at the root")
    parser.add_argument("--out", type=Path, help="writes the record here instead")
    parser.add_argument("--repeat", type=int, default=7,
                        help="passes per primitive and size (default 7)")
    parser.add_argument("--baseline", type=Path, metavar="PATH",
                        help="a checkout of another commit, timed in "
                             "processes alternating with this tree's")
    parser.add_argument("--one", nargs=2, metavar=("NAME", "SIZE"),
                        help=argparse.SUPPRESS)  # the fresh child process
    args = parser.parse_args()
    if args.one:
        name, size = args.one
        print(json.dumps(time_one(name, int(size), args.repeat)))
        return 0
    if (args.label is None) == (args.out is None):
        parser.error("give exactly one of --label and --out")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    # record key -> the script whose fresh processes fill it
    scripts = {"layers": Path(__file__).resolve()}
    if args.baseline is not None:
        scripts["baseline_layers"] = args.baseline.resolve() / "tools" / "bench_layers.py"
        if not scripts["baseline_layers"].is_file():
            parser.error(f"{scripts['baseline_layers']} does not exist")
    record_layers: dict[str, dict[str, dict[str, dict]]] = {
        key: {name: {} for name in PRIMITIVES} for key in scripts
    }
    for name in PRIMITIVES:
        for size in SIZES:
            runs: dict[str, list[dict]] = {key: [] for key in scripts}
            for i in range(PROCESSES):
                for key in list(scripts)[:: 1 if i % 2 == 0 else -1]:
                    proc = subprocess.run(
                        [sys.executable, scripts[key], "--repeat",
                         str(args.repeat), "--one", name, str(size)],
                        capture_output=True, text=True, check=True,
                    )
                    runs[key].append(json.loads(proc.stdout))
            line = f"{name:22} {size:4}"
            for key, key_runs in runs.items():
                figures = sorted(run["us_per_call"] for run in key_runs)
                assert all(map(math.isfinite, figures)), (key, name, size, key_runs)
                result = {
                    "us_per_call": statistics.median(figures),
                    "calls": key_runs[0]["calls"],
                    "process_us_per_call": figures,
                }
                record_layers[key][name][str(size)] = result
                line += f" {result['us_per_call']:10.2f}"
            print(line + " us/call", file=sys.stderr)
    order = ("alternating between this tree and the baseline"
             if args.baseline is not None else "one after the other")
    record = {
        "git_sha": _git_sha(ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "method": (
            f"timeit in {PROCESSES} fresh processes per primitive and size, "
            f"{order}: median of the processes' fastest of "
            f"{args.repeat} passes over {CALLS} seeded inputs (seed {SEED}), "
            f"caches cleared before each pass; enumerations per item, at "
            f"most {ITEMS} items per walk"
        ),
        "unit": "us_per_call",
    }
    if args.baseline is not None:
        record["baseline_git_sha"] = _git_sha(args.baseline)
    record.update(record_layers)
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
