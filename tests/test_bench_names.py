"""The benchmark's per-layer call pattern names real openbaker functions,
and the CLI verbs call them on the workloads it says."""

import importlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAYERS_PY = ROOT / "bench" / "layers.py"
WORKLOADS = runpy.run_path(str(ROOT / "bench" / "workloads.py"))["WORKLOADS"]
# the benchmark's workloads with their job lists cut to the small sizes
SHRUNK = {"spectrum.N": "20,100", "toy.k": "1,2,3", "transport.k": "2,3"}


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


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_bench_call_pattern_holds_on_shrunk_workloads(tmp_path, workload):
    # a refactor that moves a traced call would otherwise surface only in a
    # traced benchmark run; the tracer replays the verb in a subprocess
    lines = []
    for line in WORKLOADS[workload].config_path.read_text().splitlines():
        key = line.split("=", 1)[0].strip()
        lines.append(f"{key} = {SHRUNK[key]}" if key in SHRUNK else line)
    cfg = tmp_path / f"{workload}.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    stats = tmp_path / "stats.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(ROOT / "bench" / "tracer.py"), str(stats),
                    str(tmp_path / "spans.json"), "--", WORKLOADS[workload].verb,
                    str(cfg), "-o", str(tmp_path / "out")], env=env, check=True)
    result = json.loads(stats.read_text())
    assert result["exit_code"] == 0
    errors = runpy.run_path(str(LAYERS_PY))["call_pattern_errors"]
    assert errors(workload, result["totals"]) == []
