"""The benchmark's workloads and what each one must produce.

Every workload is one `openbaker` verb run on one config file under
`bench/workloads/`.  The configs fix the paper's inputs, so nothing here
is random.  The jobs and artifacts a run must produce are derived from
the config alone, never from the run's own manifest, so a job that the
CLI silently drops still counts as failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "workloads"


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str

    @property
    def config_path(self) -> Path:
        return CONFIG_DIR / f"{self.name}.cfg"

    def config(self) -> dict:
        return read_config(self.config_path)


WORKLOADS = {w.name: w for w in (
    Workload("weyl-count", "count"),
    Workload("toy-lattice", "toy-check"),
    Workload("cavity-resolvent", "transport"),
    Workload("cavity-series", "transport"),
)}


def read_config(path: Path) -> dict:
    """Parse the CLI's flat `key = value` format (`#` starts a comment)."""
    cfg = {}
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


def int_list(cfg: dict, key: str) -> list:
    return [int(tok) for tok in cfg[key].split(",")]


def float_list(cfg: dict, key: str) -> list:
    return [float(tok) for tok in cfg[key].split(",")]


def expected_jobs(workload: Workload) -> dict:
    """Job name -> artifact file names, as the CLI must write them."""
    cfg = workload.config()
    if workload.verb == "count":
        parity = cfg.get("spectrum.parity", "full")
        jobs = {f"spectrum-N{N}": [f"spectrum_N{N}_{parity}.csv"]
                for N in int_list(cfg, "spectrum.N")}
        jobs["counts"] = ["counts.csv"]
        return jobs
    if workload.verb == "toy-check":
        return {f"toy-check-k{k}": [f"toy_check_k{k}.json"]
                for k in int_list(cfg, "toy.k")}
    if workload.verb == "transport":
        jobs = {}
        for k in int_list(cfg, "transport.k"):
            for i, _ in enumerate(float_list(cfg, "transport.theta")):
                base = f"transport_k{k}_theta{i}"
                jobs[f"transport-k{k}-theta{i}"] = [f"{base}.json", f"{base}_T.csv"]
        jobs["transport-asymptotics"] = ["transport_asymptotics.json"]
        return jobs
    raise ValueError(f"no job list for verb {workload.verb!r}")
