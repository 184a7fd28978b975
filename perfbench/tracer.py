"""In-memory span recorder installed around mixdih's layer boundaries.

The recorder changes nothing in the package's source.  `install` replaces
each public module-level function of every layer module (and the public
methods of `bulk.PackedOps`) by a wrapper, and rebinds that wrapper under
every name that binds the original in any mixdih module.  `verify`,
`symmetry`, `graphs` and `cli` import functions by name, so rebinding only
the defining module would let their calls skip the wrapper.

Counting rules:

* A call is recorded where it crosses into a layer, that is where the
  innermost recorded call belongs to another layer (or to none).  A layer
  calling itself runs the original function, so `comm` -> `mul` inside
  `group` is not counted.
* `group` runs millions of scalar calls, so it gets aggregate counters
  (calls and summed seconds) and no per-call spans.  `group` calls no other
  layer, which keeps its aggregate time disjoint from every span.
* Every other layer gets one span per crossing call: name, parent span,
  start, end, and the seconds its subtree spent in other layers.  A span's
  self time is its duration minus those seconds.
* The functions in `INNER` and the verify check functions also get a span
  when their own layer calls them; such a span hands its other-layer
  seconds up to its parent instead of its duration.

The spans stay in memory and `dump` writes them out at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time

LAYERS = ("group", "hall", "bulk", "graphs", "symmetry", "autgroup",
          "verify", "cli")
AGGREGATED = frozenset({"group"})
INNER = frozenset({"symmetry.equitable_refinement", "symmetry.orbits",
                   "symmetry.edge_regular_witness", "symmetry.check_local_2at"})
CHECK_LISTS = (("core", "CORE_CHECKS"), ("graphs", "GRAPH_CHECKS"),
               ("symmetry", "SYMMETRY_CHECKS"), ("stretch", "STRETCH_CHECKS"))

_perf = time.perf_counter


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- probes: extra facts recorded on a span, read before and after the call --

def _peak_rss_rise(args):
    before = _peak_rss_mb()
    return lambda: _peak_rss_mb() - before


def _bfs_root(args):  # bfs_layers(g, root)
    key = [id(args[0]), int(args[1])]
    return lambda: key


def _chars_written(args):  # export_graph(g, out, ...)
    out = args[1]
    try:
        start = out.tell()
    except (OSError, ValueError):
        return lambda: None
    return lambda: out.tell() - start


def _elements(args):  # PackedOps.<method>(self, z, ...)
    count = int(getattr(args[1], "size", 1)) if len(args) > 1 else 0
    return lambda: count


PROBES = {
    "graphs.build_sigma": _peak_rss_rise,
    "graphs.bfs_layers": _bfs_root,
    "graphs.export_graph": _chars_written,
}


class Recorder:
    """Spans, aggregate counters and the wrapper factories that fill them."""

    def __init__(self):
        # span: [name, parent index, start, end, other-layer seconds, extra]
        self.spans: list[list] = []
        self.aggregates: dict[str, list] = {}  # name -> [calls, seconds]
        self.categories: dict[str, str] = {}   # check span -> suite part
        self.fast = [0]                         # intra-layer pass-throughs
        self._layer = [None]                    # layer of the innermost call
        # open frames: [span index, other-layer seconds, layer]
        self._frames: list[list] = [[-1, 0.0, None]]

    def aggregate(self, fn, layer: str, name: str):
        cur, frames, fast = self._layer, self._frames, self.fast
        slot = self.aggregates.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if cur[0] == layer:
                fast[0] += 1
                return fn(*args, **kwargs)
            prev = cur[0]
            cur[0] = layer
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                d = _perf() - t0
                cur[0] = prev
                slot[0] += 1
                slot[1] += d
                frames[-1][1] += d
        return wrapper

    def span(self, fn, layer: str, name: str, inner: bool = False,
             probe=None):
        cur, frames, spans, fast = (self._layer, self._frames, self.spans,
                                    self.fast)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if cur[0] == layer and not inner:
                fast[0] += 1
                return fn(*args, **kwargs)
            prev = cur[0]
            cur[0] = layer
            record = [name, frames[-1][0], 0.0, 0.0, 0.0, None]
            frame = [len(spans), 0.0, layer]
            spans.append(record)
            frames.append(frame)
            finish = probe(args) if probe else None
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _perf()
                frames.pop()
                cur[0] = prev
                parent = frames[-1]
                parent[1] += frame[1] if parent[2] == layer else t1 - t0
                record[2], record[3], record[4] = t0, t1, frame[1]
                if finish is not None:
                    record[5] = finish()
        return wrapper

    def wrap(self, fn, layer: str, name: str):
        if layer in AGGREGATED:
            return self.aggregate(fn, layer, name)
        return self.span(fn, layer, name, inner=name in INNER,
                         probe=PROBES.get(name))

    def dump(self, path: str, **extra) -> None:
        data = {"spans": self.spans, "aggregates": self.aggregates,
                "categories": self.categories, "fast_calls": self.fast[0],
                **extra}
        with open(path, "w") as fh:
            json.dump(data, fh)


def _public_functions(owner, module_name: str):
    for name, obj in list(vars(owner).items()):
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module_name):
            yield name, obj


def install(rec: Recorder) -> None:
    """Wrap every layer boundary of the imported mixdih package."""
    import mixdih.cli  # noqa: F401  imports every layer module

    modules = {layer: sys.modules[f"mixdih.{layer}"] for layer in LAYERS}
    wrappers = {}  # id(original) -> (original, wrapper)
    for layer, mod in modules.items():
        for name, fn in _public_functions(mod, mod.__name__):
            wrappers[id(fn)] = (fn, rec.wrap(fn, layer, f"{layer}.{name}"))
    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])

    ops = modules["bulk"].PackedOps
    for name, fn in _public_functions(ops, "mixdih.bulk"):
        setattr(ops, name, rec.span(fn, "bulk", f"bulk.{name}",
                                    probe=_elements))

    # run_suite calls the checks from these lists, not through the names.
    verify = modules["verify"]
    for category, attr in CHECK_LISTS:
        checks = getattr(verify, attr)
        for i, (check, fn) in enumerate(checks):
            name = f"verify.check.{check}"
            rec.categories[name] = category
            checks[i] = (check, rec.span(fn, "verify", name, inner=True))


def _identity(x):
    return x


def calibrate(reps: int = 3, calls: int = 20000) -> dict:
    """Seconds each kind of wrapper adds to one call, best of `reps`."""
    rec = Recorder()
    kinds = {
        "aggregate": rec.aggregate(_identity, "probe", "probe.aggregate"),
        "span": rec.span(_identity, "probe", "probe.span"),
    }

    def loop(fn):
        t0 = _perf()
        for i in range(calls):
            fn(i)
        return _perf() - t0

    def best(fn):
        return min(loop(fn) for _ in range(reps))

    base = best(_identity)
    cost = {kind: max(0.0, (best(fn) - base) / calls)
            for kind, fn in kinds.items()}
    rec.spans.clear()
    rec._layer[0] = "probe"  # every call is now intra-layer
    cost["fast"] = max(0.0, (best(kinds["span"]) - base) / calls)
    return cost
