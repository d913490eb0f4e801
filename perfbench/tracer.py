"""Span tracer for orbitcalc's public functions, installed from outside.

:meth:`Tracer.install` wraps every public function defined in the layer
modules and rebinds the wrapper at every attribute of every ``orbitcalc``
module that holds the original, because the modules import names directly
(``harness.dual_partition`` is ``duality.dual_partition``).  Generator
functions get one span per resumption, so a consumer's work between two
items is not charged to the generator.

Spans stay in memory as four parallel arrays (name id, parent index, start,
end).  A span's self time is its duration minus the durations of its
children, which nest inside it because the program is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYER_MODULES = ("partitions", "duality", "waldspurger", "symbols", "aparams",
                 "harness", "cli")
ATTRIBUTED_LAYERS = ("aparams", "duality", "partitions", "waldspurger",
                     "symbols", "harness.enum", "harness.oracle")
HARNESS_ENUM = {"partitions.partitions_of", "harness.member_list",
                "harness.special_list", "harness.comparable_special_pairs",
                "harness.shapes_for", "harness.proper_splits"}
ROOT = "op"


def layer_of(name: str) -> str | None:
    """Layer that a span's self time is charged to; None means the time is
    unattributed (the root, ``harness.verify``'s own loops, ``cli.main``)."""
    if name in HARNESS_ENUM:
        return "harness.enum"
    module, _, func = name.partition(".")
    if module == "harness":
        oracle = func.startswith("brute_force_") or func in (
            "jordan_type_oracle", "family_special_symbol")
        return "harness.oracle" if oracle else None
    return module if module in ATTRIBUTED_LAYERS else None


class Tracer:
    """Span recorder; name id 0 is the root span that callers open around
    each timed operation."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: list[int] = [0]
        self.stack = [-1]
        self.enabled = False

    # -- recording ----------------------------------------------------------

    def open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, nid: int):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    if not tracer.enabled:
                        yield from gen
                        return
                    idx = tracer.open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    except BaseException:
                        tracer.errors[nid] += 1
                        raise
                    finally:
                        tracer.close(idx)
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.errors[nid] += 1
                raise
            finally:
                tracer.close(idx)
        return traced

    def install(self) -> None:
        """Wrap the public functions of the layer modules."""
        wrappers = {}
        for short in LAYER_MODULES:
            module = importlib.import_module(f"orbitcalc.{short}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                self.names.append(f"{short}.{attr}")
                self.errors.append(0)
                wrappers[id(obj)] = self._wrap(obj, len(self.names) - 1)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "orbitcalc" and not mod_name.startswith("orbitcalc."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: [calls, inclusive seconds, self seconds, raised];
        plus the total duration of the root spans."""
        n = len(self.name_id)
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        covered = array("d", bytes(8 * n))
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += dur[i]
        k = len(self.names)
        calls, incl, own = [0] * k, [0.0] * k, [0.0] * k
        for i, nid in enumerate(self.name_id):
            calls[nid] += 1
            incl[nid] += dur[i]
            own[nid] += dur[i] - covered[i]
        return {
            "root_s": incl[0],
            "spans": n,
            "names": {
                self.names[j]: [calls[j], incl[j], own[j], self.errors[j]]
                for j in range(k) if calls[j] or self.errors[j]
            },
        }

    def write(self, path) -> None:
        """One JSON header line (names, count, typecodes), then the raw
        name-id, parent, start and end arrays in native byte order."""
        header = {"names": self.names, "count": len(self.name_id),
                  "arrays": ["name_id:i", "parent:i", "start:d", "end:d"],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
