"""orbitcalc benchmark: cold verification sweeps, large-input library
queries and CLI latency, measured from outside the package.

Run from the repository root (no install needed, ``src/`` is put on
``PYTHONPATH`` for every child process):

    python3 perfbench/run.py --workload verify-chain --seed 1 --seconds 20 --trace 0

Workloads (their reasons are in ``BENCHMARK.json``):

* ``verify-chain``: ``verify("chain")`` at its default bound;
* ``verify-laws``: the other registered properties at their default bounds,
  in registry order, in one process;
* ``query-large``: seeded, distinct library queries at sizes 40-200, in
  batches of ``QUERY_BATCH`` per process;
* ``cli-calc``: one fresh ``python -m orbitcalc.cli ... --json`` process per
  call, about one call in ten malformed.

All are closed loops with one client: the next pass, batch or call starts
when the previous one has ended, and at most one child process runs at a
time.  Every sweep pass and query batch runs in a fresh interpreter, so the
package's caches start cold, as for a user's ``orbitcalc verify``.

With ``--trace 0`` the last line of output is the JSON result with the
end-to-end metrics; with ``--trace 1`` each pass runs twice on the same
inputs, untraced and then with :mod:`tracer` wrapping the public functions,
and the result holds the per-layer metrics.  A full record of each run,
with every raw sample, goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from tracer import ATTRIBUTED_LAYERS, layer_of  # noqa: E402

SETUP_PROBES = 5
QUERY_BATCH = 2000
MALFORMED_SHARE = 0.1
CHILD_TIMEOUT_S = 170
# Percentile reported as op_tail_ms: the highest one with at least ten
# samples beyond it in a 25 s run (about 100 CLI calls, 20 000 queries); a
# run has only 5-9 sweep passes, so for the sweeps it is the slowest pass.
TAIL_PERCENTILE = {"verify-chain": 100, "verify-laws": 100,
                   "query-large": 99, "cli-calc": 90}
# Recorded and printed, not gated in BENCHMARK.json.  On a small shared
# machine whose speed switches between two levels about 1.5x apart for tens
# of seconds, a run's median lands on either level (IQR/median up to 0.3
# over ten runs), while the tail stays on the slow level (at most 0.14).
EXTRA_UNITS = {"op_p50_ms": "ms", "work_per_s": "1/s", "samples": "count"}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import orbitcalc; "
                "print(time.perf_counter() - t)")
perf = time.perf_counter


class Bench:
    """One benchmark run: arguments, child-process environment, golden
    data and the tally of attempted and failed operations."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.golden = json.loads((HERE / "golden.json").read_text())
        path = os.environ.get("PYTHONPATH")
        # numpy's OpenBLAS starts a thread per core while it is imported, so
        # on a small shared machine the import time depended on whether the
        # other core was busy; one BLAS thread keeps every child
        # single-threaded, like orbitcalc itself.
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                        PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup: list[float] = []

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(message)

    def child(self, argv: list[str], stdin: str = "") -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *argv], input=stdin, capture_output=True,
            text=True, env=self.env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)

    def worker(self, job: dict) -> dict | None:
        """Run one worker pass; None on a crash, whose reason is recorded
        (the caller counts the operations lost)."""
        proc = self.child([str(HERE / "worker.py")], json.dumps(job))
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.problems.append(f"worker exited with {proc.returncode}: {tail[0]}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    @property
    def modes(self) -> tuple[bool, ...]:
        """Each pass runs untraced and, in a traced run, then traced again
        on the same inputs."""
        return (False, True) if self.trace else (False,)

    def spans_path(self, traced: bool) -> str | None:
        """Where a traced worker writes its spans; each traced pass
        replaces the previous pass's file."""
        return str(OUT / f"spans-{self.workload}.bin") if traced else None

    def import_probe(self) -> float:
        """Seconds of a cold ``import orbitcalc`` in a bare interpreter."""
        proc = self.child(["-c", IMPORT_PROBE])
        if proc.returncode != 0:
            raise RuntimeError(f"import orbitcalc failed: {proc.stderr.strip()}")
        return float(proc.stdout)

    def passes(self, make_pass, probe_every: int = 1) -> list:
        """Closed loop: call ``make_pass(i)`` until the run's time is up
        (at least once); in a traced run each call yields an untraced and
        a traced pass over the same inputs.

        An untraced run also takes a set-up sample before every
        ``probe_every``-th call, so that set-up is sampled over the same
        stretch of time as the workload, and at least ``SETUP_PROBES``."""
        if not self.trace:
            self.import_probe()  # untimed: writes the bytecode caches
        out, start, i = [], perf(), 0
        while i == 0 or perf() - start < self.seconds:
            if not self.trace and i % probe_every == 0:
                self.setup.append(self.import_probe())
            out += make_pass(i)
            i += 1
        while not self.trace and len(self.setup) < SETUP_PROBES:
            self.setup.append(self.import_probe())
        return out


# ---------------------------------------------------------------------------
# Workloads.  Each pass record has "op_s" (timed seconds), "work" (cases,
# queries or calls) and "traced"; worker passes also carry the worker's
# import times, cache deltas and, when traced, the span summary.


def sweep_workload(bench: Bench, properties: list[str]) -> list[dict]:
    golden = bench.golden["sweeps"]

    def run(traced: bool, i: int) -> dict | None:
        job = {"mode": "sweep", "properties": properties, "trace": traced,
               "spans_path": bench.spans_path(traced)}
        bench.attempted += len(properties)
        res = bench.worker(job)
        if res is None:
            for name in properties:
                bench.fail(f"pass {i}: {name} did not finish")
            return None
        for s in res["sweeps"]:
            g = golden[s["property"]]
            if s["info"].get("failure_count") != 0:
                bench.fail(f"pass {i}: {s['property']} found counterexamples")
            elif [s[k] for k in ("digest", "cases", "info")] != [
                    g[k] for k in ("digest", "cases", "info")]:
                bench.fail(f"pass {i}: {s['property']} report differs from golden.json")
        res.update(traced=traced, op_s=sum(s["seconds"] for s in res["sweeps"]),
                   work=sum(s["cases"] for s in res["sweeps"]))
        return res

    return bench.passes(lambda i: [r for t in bench.modes if (r := run(t, i))])


def query_workload(bench: Bench) -> list[dict]:
    def run(queries: list[dict], traced: bool, i: int) -> dict | None:
        job = {"mode": "query", "queries": queries, "trace": traced,
               "spans_path": bench.spans_path(traced)}
        bench.attempted += len(queries)
        res = bench.worker(job)
        if res is None:
            bench.fail(f"batch {i}: {len(queries)} queries did not finish", len(queries))
            return None
        for message in res["failures"]:
            bench.fail(f"batch {i}: {message}")
        res.update(traced=traced, op_s=sum(res["seconds"]), work=len(queries))
        return res

    def batch(i: int) -> list:
        queries = inputs.query_stream(bench.seed * 100_003 + i, QUERY_BATCH)
        return [r for t in bench.modes if (r := run(queries, t, i))]

    return bench.passes(batch)


def cli_workload(bench: Bench) -> list[dict]:
    rng = random.Random(bench.seed)
    pool = bench.golden["cli"]

    def check(argv: list[str], expected: list | None, code, stdout: str, stderr: str) -> None:
        if expected is None:
            if code != 2 or stdout or not stderr.startswith("error:"):
                bench.fail(f"{argv}: expected an input error, got exit {code}")
            return
        try:
            answer = [json.loads(line) for line in stdout.splitlines()]
        except json.JSONDecodeError:
            answer = None
        if code != 0 or answer != expected:
            bench.fail(f"{argv}: exit {code}, output differs from golden.json")

    def call(i: int) -> list:
        if rng.random() < MALFORMED_SHARE:
            argv, expected = inputs.malformed_cli_case(rng) + ["--json"], None
        else:
            case = rng.choice(pool)
            argv, expected = case["argv"], case["stdout"]
        bench.attempted += 1
        if not bench.trace:
            t0 = perf()
            proc = bench.child(["-m", "orbitcalc.cli", *argv])
            op_s = perf() - t0
            check(argv, expected, proc.returncode, proc.stdout, proc.stderr)
            return [{"traced": False, "op_s": op_s, "work": 1}]
        out = []
        for traced in bench.modes:
            res = bench.worker({"mode": "cli", "argv": argv, "trace": traced,
                                "spans_path": bench.spans_path(traced)})
            if res is None:
                bench.fail(f"{argv}: the call did not finish")
                break
            check(argv, expected, res["exit"], res["stdout"], res["stderr"])
            res.update(traced=traced, op_s=res["main_s"], work=1)
            out.append(res)
        return out

    return bench.passes(call, probe_every=10)


WORKLOADS = {
    "verify-chain": lambda bench: sweep_workload(bench, ["chain"]),
    "verify-laws": lambda bench: sweep_workload(
        bench, [p for p in bench.golden["sweeps"] if p != "chain"]),
    "query-large": query_workload,
    "cli-calc": cli_workload,
}


# ---------------------------------------------------------------------------
# Metrics


def percentile(samples: list[float], p: int) -> float:
    if p >= 100 or len(samples) < 2:
        return max(samples)
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def end_to_end(bench: Bench, passes: list[dict]) -> dict:
    if bench.workload == "query-large":
        ops = [s for p in passes for s in p["seconds"]]
    else:
        ops = [p["op_s"] for p in passes]
    return {
        "setup_s": statistics.median(bench.setup),
        "op_p50_ms": statistics.median(ops) * 1e3,
        "op_tail_ms": percentile(ops, TAIL_PERCENTILE[bench.workload]) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "samples": len(ops),
        "work_per_s": sum(p["work"] for p in passes) / sum(p["op_s"] for p in passes),
    }


def per_layer(bench: Bench, passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    n = len(traced)
    names: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0])
    for p in traced:
        for name, row in p["trace"]["names"].items():
            names[name] = [a + b for a, b in zip(names[name], row)]

    def calls(name: str) -> float:
        return names[name][0] / n if name in names else 0.0

    def per_call_us(name: str) -> float:
        return names[name][1] / names[name][0] * 1e6 if calls(name) else 0.0

    m: dict[str, float] = {}
    own = defaultdict(float)
    for name, row in names.items():
        own[layer_of(name) or "unattributed"] += row[2] / n
    for layer in ATTRIBUTED_LAYERS:
        m[f"{layer}.self_s"] = own[layer]
    m["unattributed_s"] = own["unattributed"]
    m["traced_pass_s"] = sum(p["trace"]["root_s"] for p in traced) / n
    m["untraced_pass_s"] = sum(p["op_s"] for p in plain) / len(plain)
    m["tracing_overhead_s"] = m["traced_pass_s"] - m["untraced_pass_s"]

    cases = sum(p["work"] for p in traced) / n
    split_calls = calls("aparams.split_by_signs")
    split_rejected = names["aparams.split_by_signs"][3] / n if split_calls else 0.0
    m["aparams.validate.calls_per_case"] = calls("aparams.validate") / cases
    m["aparams.split_by_signs.calls"] = split_calls
    m["aparams.split_accept_ratio"] = (
        (split_calls - split_rejected) / split_calls if split_calls else 0.0)
    for name in ("aparams.predicted_wavefront", "duality.orbit_dim",
                 "partitions.dominance_leq"):
        m[f"{name}.calls"] = calls(name)
    for name in ("aparams.predicted_wavefront", "duality.orbit_dim",
                 "duality.dual_partition", "partitions.transpose",
                 "partitions.classify", "partitions.collapse",
                 "waldspurger.waldspurger", "waldspurger.xi_vector",
                 "symbols.springer_bipartition", "symbols.specialize_sum",
                 "symbols.special_closure"):
        m[f"{name}.us_per_call"] = per_call_us(name)

    hits, lookups, currsize = defaultdict(int), defaultdict(int), defaultdict(float)
    for p in passes:
        for fn, c in p.get("caches", {}).items():
            hits[fn] += c["hits"]
            lookups[fn] += c["hits"] + c["misses"]
            currsize[fn] += c["currsize"] / len(passes)
    for name in ("partitions.partitions_of", "duality.dual_partition",
                 "waldspurger.waldspurger", "symbols.springer_bipartition"):
        fn = name.rpartition(".")[2]
        m[f"{name}.hit_ratio"] = hits[fn] / lookups[fn] if lookups[fn] else 0.0
    for fn in sorted(currsize):
        m[f"cache.{fn}.currsize"] = currsize[fn]

    sweep_s = defaultdict(list)
    for p in plain:
        for s in p.get("sweeps", []):
            sweep_s[s["property"]].append(s["seconds"])
    for prop in bench.golden["sweeps"]:
        m[f"harness.{prop}.sweep_s"] = (
            statistics.median(sweep_s[prop]) if prop in sweep_s else 0.0)
    m["harness.cases"] = cases if bench.workload.startswith("verify") else 0

    workers = [p for p in passes if "import_s" in p]
    m["cli.import_ms"] = statistics.median(p["import_s"] for p in workers) * 1e3
    m["cli.numpy_import_ms"] = statistics.median(
        p["numpy_import_s"] for p in workers) * 1e3
    m["cli.main_ms"] = (statistics.median(p["main_s"] for p in plain) * 1e3
                        if bench.workload == "cli-calc" else 0.0)
    return m


# ---------------------------------------------------------------------------
# Reporting


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            sha = proc.stdout.strip() or None
        except OSError:
            pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "machine": platform.machine()}


def aliases(workload: str, m: dict) -> dict:
    """The same figures under the names the sweeps, queries and CLI are
    usually quoted by."""
    if workload.startswith("verify"):
        return {"sweep_s": (m["op_p50_ms"] / 1e3, "s"),
                "cases_per_s": (m["work_per_s"], "1/s")}
    if workload == "query-large":
        return {"queries_per_s": (m["work_per_s"], "1/s"),
                "query_p50_us": (m["op_p50_ms"] * 1e3, "us"),
                "query_p99_us": (m["op_tail_ms"] * 1e3, "us")}
    return {"cli_p50_ms": (m["op_p50_ms"], "ms"),
            "cli_p90_ms": (m["op_tail_ms"], "ms")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "orbitcalc" / "__init__.py").is_file():
        print(f"error: no orbitcalc sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    OUT.mkdir(exist_ok=True)
    bench = Bench(args)
    passes = WORKLOADS[bench.workload](bench)
    kinds = {p["traced"] for p in passes}
    if kinds != ({False, True} if bench.trace else {False}):
        print("error: no pass finished: " + "; ".join(bench.problems[:3]),
              file=sys.stderr)
        return 1
    failed = bench.failed
    wanted = spec["per_layer"] if bench.trace else spec["end_to_end"]
    metrics = per_layer(bench, passes) if bench.trace else end_to_end(bench, passes)
    units = {**EXTRA_UNITS, **{e["name"]: e["unit"] for e in wanted}}

    print(f"workload {bench.workload}  seed {bench.seed}  trace {int(bench.trace)}  "
          f"passes {len(passes)}")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units.get(name, '')}")
    if not bench.trace:
        for name, (value, unit) in aliases(bench.workload, metrics).items():
            print(f"  {name:42s} {value:14.6g} {unit}")
    if bench.workload.startswith("verify"):
        sweeps = passes[0]["sweeps"]
        counters = [f"{k}={v}" for s in sweeps for k, v in s["info"].items()
                    if k != "failure_count"]
        print(f"  cases per pass {sum(s['cases'] for s in sweeps)}  "
              + " ".join(counters))
    error_rate = failed / max(bench.attempted, 1)
    print(f"  {'error_rate':42s} {error_rate:14.6g} ratio "
          f"({failed} failed of {bench.attempted})")
    for problem in bench.problems[:10]:
        print(f"  FAILED {problem}")

    record = {
        "workload": bench.workload, "seed": bench.seed,
        "seconds": bench.seconds, "trace": bench.trace, **environment(),
        "attempted": bench.attempted, "failed": failed,
        "problems": bench.problems[:200], "setup_samples": bench.setup,
        "metrics": metrics, "passes": passes,
    }
    name = f"{bench.workload}-seed{bench.seed}-trace{int(bench.trace)}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": max(bench.attempted, 1),
        "failed": failed,
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]}
                    for e in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
