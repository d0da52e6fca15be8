"""The benchmark's per-layer call pattern names real openbaker functions."""

import importlib
import runpy
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_bench_call_pattern_names_resolve():
    # bench/layers.py lists the traced functions each workload must call;
    # a renamed or moved function would otherwise surface only in a
    # traced benchmark run.  run_path executes the file without writing
    # bytecode next to it.
    called_on = runpy.run_path(str(LAYERS_PY))["CALLED_ON"]
    checked = set()
    for name in called_on:
        module, *attrs = name.split(".")
        if module == "linalg":  # numpy/scipy entry points, not openbaker's
            continue
        obj = importlib.import_module(f"openbaker.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), f"{name}: no attribute {attr!r}"
            obj = getattr(obj, attr)
        assert callable(obj), f"{name} is not callable"
        checked.add(module)
    assert {"quantize", "transforms", "spectral", "transport",
            "config", "cli"} <= checked
