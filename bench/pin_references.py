"""Regenerate `references.json` from the program in `./src`.

    python3 bench/pin_references.py

Run from the root of a checkout of the commit whose outputs are the
reference, and only when an output change is intended.  It runs the
`weyl-count` and `cavity-resolvent` workloads once; `cavity-series`
is checked against the resolvent results at its quasi-energy, and
`toy-lattice` against the closed form.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from checks import REFERENCES, reference_key
from workloads import WORKLOADS, float_list, int_list

# transmission eigenvalues are gated at 1e-9, so 12 decimals are plenty
T_DECIMALS = 12


def run(root: Path, name: str) -> Path:
    workload = WORKLOADS[name]
    out = root / ".bench_runs" / "pin" / name
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, "-m", "openbaker.cli", workload.verb,
                    str(workload.config_path), "-o", str(out)],
                   cwd=root, env=env, check=True)
    return out


def main() -> None:
    root = Path.cwd()
    out = run(root, "weyl-count")
    with open(out / "counts.csv", newline="") as fh:
        counts = [[int(r["N"]), float(r["r"]), int(r["count"])]
                  for r in csv.DictReader(fh)]
    out = run(root, "cavity-resolvent")
    cfg = WORKLOADS["cavity-resolvent"].config()
    transport = {}
    for k in int_list(cfg, "transport.k"):
        for i, theta in enumerate(float_list(cfg, "transport.theta")):
            res = json.loads((out / f"transport_k{k}_theta{i}.json").read_text())
            transport[reference_key(k, theta)] = {
                "g": res["g"], "P": res["P"], "F": res["F"],
                "T": [round(x, T_DECIMALS) for x in res["T"]]}
    REFERENCES.write_text(json.dumps({"count": {"counts": counts},
                                      "transport": transport}, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES}")


if __name__ == "__main__":
    main()
