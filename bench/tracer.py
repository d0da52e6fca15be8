"""Traced in-process replay of one CLI run.

    python3 bench/tracer.py STATS_JSON SPANS_JSON -- VERB CONFIG -o OUTDIR

Run with `src` on PYTHONPATH.  Every public function of every openbaker
module, and every public method of its non-dataclass classes, is wrapped
in each module namespace that holds it (so `openbaker.cli.quantize_open`
is wrapped as well as `openbaker.quantize.quantize_open`).  The dense
linear-algebra entry points openbaker calls are wrapped too, and time
only calls made from openbaker code.  Then `openbaker.cli.main` runs the
CLI verb in this process.  Spans are kept in memory and written out at
the end, with per-name totals: calls, self time (span time minus child
spans) and work.  Work is sum(m * n * min(m, n)) over the matrix argument
of a linear-algebra call (n^3 for the square matrices openbaker passes);
serialize calls record the bytes they wrote instead.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("classical", "transforms", "quantize", "spectral", "transport",
          "serialize", "config", "cli")
# `fmt` runs once per written number; wrapping it would record tens of
# thousands of spans and take formatting time out of the write_* spans.
SKIP = {"serialize.fmt"}
LINALG = {
    "linalg.solve": ("numpy.linalg", "solve"),
    "linalg.svd": ("numpy.linalg", "svd"),
    "linalg.matrix_power": ("numpy.linalg", "matrix_power"),
    "linalg.eig": ("scipy.linalg", "eig"),
    "linalg.eigvals": ("scipy.linalg", "eigvals"),
}


class Tracer:
    """Records one span per wrapped call: [name, parent, start, end, amount],
    where amount is what the call's `measure` returned (0 without one)."""

    def __init__(self):
        self.spans = []
        self.amounts = {}  # span name -> "work" or "bytes"
        self._stack = []

    def wrap(self, name, fn, measure=None, key="work", only_from=None):
        spans, stack = self.spans, self._stack
        if measure:
            self.amounts[name] = key

        def traced(*args, **kwargs):
            if only_from and not sys._getframe(1).f_globals.get(
                    "__name__", "").startswith(only_from):
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if measure:
                span[4] = measure(args)
            return result

        return functools.wraps(fn)(traced)

    def totals(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, _, start, end, amount), inner in zip(self.spans, child):
            t = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            t["calls"] += 1
            t["total_s"] += end - start
            t["self_s"] += end - start - inner
            if name in self.amounts:
                key = self.amounts[name]
                t[key] = t.get(key, 0) + amount
        return out


def measure_work(args) -> int:
    shape = getattr(args[0], "shape", ())
    if len(shape) < 2:
        return 0
    m, n = int(shape[-2]), int(shape[-1])
    return m * n * min(m, n)


def measure_bytes(args) -> int:
    return os.path.getsize(args[0])


def instrument(tracer: Tracer) -> None:
    import openbaker
    modules = {layer: importlib.import_module(f"openbaker.{layer}")
               for layer in LAYERS}
    namespaces = [openbaker, *modules.values()]
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if inspect.isfunction(obj) and name not in SKIP:
                if layer == "serialize":
                    wrapped = tracer.wrap(name, obj, measure_bytes, "bytes")
                else:
                    wrapped = tracer.wrap(name, obj)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, key, wrapped)
            elif inspect.isclass(obj) and not dataclasses.is_dataclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        setattr(obj, meth, tracer.wrap(f"{name}.{meth}", fn))
    for name, (modname, attr) in LINALG.items():
        mod = importlib.import_module(modname)
        setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), measure_work,
                                       "work", only_from="openbaker"))


def main(argv) -> int:
    stats_path, spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit(__doc__)
    tracer = Tracer()
    instrument(tracer)
    import openbaker.cli
    code = openbaker.cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["name", "parent", "start", "end", "amount"],
                   "spans": tracer.spans}, fh)
    with open(stats_path, "w") as fh:
        json.dump({"exit_code": code, "totals": tracer.totals()}, fh,
                  indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
