"""One fresh-interpreter workload pass; run by ``run.py``, never directly.

Reads a JSON job from stdin and prints one JSON result line.  Each pass is
a new process, so every ``lru_cache`` in orbitcalc starts empty, as it does
for a user's ``orbitcalc verify``.  Modes:

* ``sweep``: run ``harness.verify`` on each listed property;
* ``query``: run a batch of library queries and check their invariants;
* ``cli``: run ``orbitcalc.cli.main`` on one argument list.

With ``"trace": true`` the public functions are wrapped by
:class:`tracer.Tracer` before the timed work starts.
"""

from __future__ import annotations

import builtins
import contextlib
import hashlib
import importlib
import inspect
import io
import json
import pkgutil
import resource
import sys
import time

import inputs
from tracer import Tracer

perf = time.perf_counter


def report_digest(report) -> str:
    """sha256 of a report's deterministic fields: ``to_dict()`` without
    ``wall_time``, as canonical JSON."""
    fields = report.to_dict()
    del fields["wall_time"]
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_package() -> dict:
    """Import orbitcalc and all its modules cold, timing the whole import
    and the share spent importing numpy on orbitcalc's behalf."""
    numpy_s = 0.0
    real_import = builtins.__import__

    def timed_import(name, *args, **kwargs):
        nonlocal numpy_s
        if name.partition(".")[0] != "numpy" or "numpy" in sys.modules:
            return real_import(name, *args, **kwargs)
        t0 = perf()
        try:
            return real_import(name, *args, **kwargs)
        finally:
            numpy_s += perf() - t0

    builtins.__import__ = timed_import
    try:
        t0 = perf()
        package = importlib.import_module("orbitcalc")
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"orbitcalc.{info.name}")
        import_s = perf() - t0
    finally:
        builtins.__import__ = real_import
    return {"import_s": import_s, "numpy_import_s": numpy_s}


def find_caches() -> dict:
    """Every ``lru_cache`` defined in an orbitcalc module, by function name."""
    caches = {}
    for name, module in list(sys.modules.items()):
        if name != "orbitcalc" and not name.startswith("orbitcalc."):
            continue
        for obj in vars(module).values():
            if hasattr(obj, "cache_info") and obj.__module__ == name:
                caches[obj.__name__] = obj
    return caches


def cache_deltas(caches: dict, before: dict) -> dict:
    out = {}
    for name, fn in caches.items():
        info = fn.cache_info()
        old = before.get(name)
        out[name] = {
            "hits": info.hits - (old.hits if old else 0),
            "misses": info.misses - (old.misses if old else 0),
            "currsize": info.currsize,
        }
    return out


def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Pass:
    """Shared set-up of every mode: cold import, cache scan and, when
    traced, the installed tracer with its root span helper."""

    def __init__(self, job: dict) -> None:
        self.result = load_package()
        self.caches = find_caches()
        self.before = {n: fn.cache_info() for n, fn in self.caches.items()}
        self.tracer = Tracer() if job.get("trace") else None
        if self.tracer:
            self.tracer.install()
            self.tracer.enabled = True

    @contextlib.contextmanager
    def op(self):
        """Root span around one timed operation (a no-op when untraced)."""
        if not self.tracer:
            yield
            return
        idx = self.tracer.open(0)
        try:
            yield
        finally:
            self.tracer.close(idx)

    @contextlib.contextmanager
    def untraced(self):
        """Run output checks outside the trace."""
        if self.tracer:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if self.tracer:
                self.tracer.enabled = True

    def finish(self, job: dict) -> dict:
        self.result["caches"] = cache_deltas(self.caches, self.before)
        if self.tracer:
            self.tracer.enabled = False
            self.result["trace"] = self.tracer.summary()
            if job.get("spans_path"):
                self.tracer.write(job["spans_path"])
        self.result["maxrss_kb"] = maxrss_kb()
        return self.result


# ---------------------------------------------------------------------------
# Modes


def run_sweep(job: dict) -> dict:
    p = Pass(job)
    harness = sys.modules["orbitcalc.harness"]
    sweeps = []
    for name in job["properties"]:
        with p.op():
            t0 = perf()
            report = harness.verify(name)
            seconds = perf() - t0
        with p.untraced():
            sweeps.append({
                "property": name,
                "seconds": seconds,
                "cases": report.cases_checked,
                "info": report.info,
                "digest": report_digest(report),
            })
    p.result["sweeps"] = sweeps
    return p.finish(job)


class Queries:
    """Builds library inputs from plain query dicts and runs them; all
    library calls go through module attributes so a tracer sees them."""

    def __init__(self) -> None:
        m = sys.modules
        self.partitions = m["orbitcalc.partitions"]
        self.duality = m["orbitcalc.duality"]
        self.wald = m["orbitcalc.waldspurger"]
        self.symbols = m["orbitcalc.symbols"]
        self.aparams = m["orbitcalc.aparams"]

    def build(self, q: dict) -> tuple:
        P, G = self.partitions.Partition, self.partitions.GroupType
        if q["kind"] == "transfer":
            return (P(q["l1"]), P(q["l2"]), self.wald.PairType(q["pair"]))
        if q["kind"] == "orbit":
            return (P(q["lam"]), G(q["type"]), G(inputs.DUAL_TYPE[q["type"]]))
        ap = self.aparams
        summands = tuple(ap.Summand(d, ap.SelfDualType(t), a, b)
                         for d, t, a, b in q["summands"])
        shape = ap.AParameterShape(G(q["target"]), q["rank"], summands)
        return (shape, tuple(q["signs"]))

    def run(self, kind: str, args: tuple) -> tuple:
        d, w, s, ap, pt = (self.duality, self.wald, self.symbols, self.aparams,
                           self.partitions)
        if kind == "transfer":
            l1, l2, pair = args
            image = w.waldspurger(l1, l2, pair)
            xi = w.xi_vector(l1, l2, pair)
            closure = s.special_closure(l1, l2, pair)
            dual = d.dual_partition(image, pair.target)
            dim = d.orbit_dim(image, pair.target)
            return image, xi, closure, dual, dim
        if kind == "orbit":
            lam, t, dual_t = args
            tr = pt.transpose(lam)
            cls = pt.classify(lam, t)
            collapsed = pt.collapse(tr, t)
            dual = d.dual_partition(lam, t)
            dim = d.orbit_dim(lam, t)
            rho = s.springer_bipartition(dual, dual_t)
            return tr, cls, collapsed, dual, dim, rho
        shape, signs = args
        wavefront = ap.predicted_wavefront(shape)
        f1, f2 = ap.split_by_signs(shape, signs)
        image = w.waldspurger(ap.predicted_wavefront(f1),
                              ap.predicted_wavefront(f2),
                              ap.pair_type_of(shape.target))
        return wavefront, image

    def problems(self, q: dict, args: tuple, out: tuple) -> list[str]:
        """Seed-independent invariants of one query's outputs."""
        d, s, G = self.duality, self.symbols, self.partitions.GroupType
        bad = []
        if q["kind"] == "transfer":
            image, _, closure, dual, dim = out
            l1, l2, pair = args
            target = inputs.PAIRS[q["pair"]][2]
            dual_t = G(inputs.DUAL_TYPE[target])
            if image.size != pair.total_size(l1.size, l2.size):
                bad.append("W has the wrong size")
            if not inputs.is_member(list(image), target):
                bad.append("W is not a member of the target type")
            if not inputs.is_special(list(dual), dual_t.value):
                bad.append("dual of W is not special")
            if dim != inputs.orbit_dim(list(image), target):
                bad.append("wrong orbit dimension of W")
            if not inputs.is_special(list(closure), target):
                bad.append("closure is not special")
            if not inputs.dominated(list(image), list(closure)):
                bad.append("closure does not dominate W")
            dual_partition = inspect.unwrap(d.dual_partition)  # leaves the cache alone
            back = dual_partition(dual_partition(closure, G(target)), dual_t)
            if back != closure:
                bad.append("double dual of the closure differs from it")
        elif q["kind"] == "orbit":
            tr, cls, collapsed, dual, dim, rho = out
            t, lam = q["type"], q["lam"]
            dual_t = inputs.DUAL_TYPE[t]
            if list(tr) != inputs.transpose(lam):
                bad.append("wrong transpose")
            if (cls.member, cls.special) != (True, inputs.is_special(lam, t)):
                bad.append("wrong classification")
            if not (inputs.is_member(list(collapsed), t)
                    and inputs.dominated(list(collapsed), list(tr))):
                bad.append("collapse is not a member below the transpose")
            if not inputs.is_special(list(dual), dual_t):
                bad.append("dual is not special")
            if dim != inputs.orbit_dim(lam, t):
                bad.append("wrong orbit dimension")
            back = s.partition_of_special_symbol(s.symbol_of(rho), G(dual_t))
            if back != dual:
                bad.append("Springer round trip changed the dual")
        else:
            wavefront, image = out
            if not inputs.is_special(list(wavefront), q["target"]):
                bad.append("wavefront is not special")
            if not inputs.dominated(list(image), list(wavefront)):
                bad.append("chain inequality W <= wavefront fails")
        return bad


def run_query(job: dict) -> dict:
    p = Pass(job)
    queries = Queries()
    with p.untraced():
        built = [queries.build(q) for q in job["queries"]]
    seconds, failures = [], []
    for q, args in zip(job["queries"], built):
        try:
            with p.op():
                t0 = perf()
                out = queries.run(q["kind"], args)
                dt = perf() - t0
        except Exception as exc:  # a failed query is counted, not fatal
            failures.append(f"{q['kind']}: {type(exc).__name__}: {exc}")
            continue
        seconds.append(dt)
        with p.untraced():
            problems = queries.problems(q, args, out)
        if problems:
            failures.append(f"{q['kind']}: " + "; ".join(problems))
    p.result.update(seconds=seconds, failures=failures)
    return p.finish(job)


def run_cli(job: dict) -> dict:
    p = Pass(job)
    cli = sys.modules["orbitcalc.cli"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with p.op():
            t0 = perf()
            try:
                code = cli.main(job["argv"])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            main_s = perf() - t0
    p.result.update(exit=code, stdout=out.getvalue(), stderr=err.getvalue(),
                    main_s=main_s)
    return p.finish(job)


MODES = {"sweep": run_sweep, "query": run_query, "cli": run_cli}

if __name__ == "__main__":
    job = json.loads(sys.stdin.read())
    print(json.dumps(MODES[job["mode"]](job)))
