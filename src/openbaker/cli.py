"""Batch command-line front end.

One verb per pipeline: `spectrum`, `count`, `weyl`, `profile`,
`toy-check`, `transport`, `classical`, plus `manifest` to inspect a
finished run.  Each verb reads a flat key-value config file and writes
deterministic CSV/JSON artifacts plus a run manifest into the output
directory.  Exit codes: 0 all jobs succeeded, 1 invalid config, 2 some
jobs failed.  `manifest` exits 2 when the inspected run has a failed or
partial job or step, or a missing artifact.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import os
import platform
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .classical import OpenBakerSpec, escape_grid, fractal_dimensions, transfer_matrix
from .config import (ConfigError, distinct, get_dimensions, get_float,
                     get_float_list, get_int, get_int_list, get_spec, get_str,
                     load_config)
from .quantize import build_toy_diagonal, parity_restrict, quantize_open, \
    walsh_quantize
from .serialize import (write_counts_csv, write_escape_grid_csv, write_json,
                        write_profile_csv, write_spectrum_csv,
                        write_transmission_csv)
from .spectral import (SectorQuery, Spectrum, check_eig_dim, compare_spectra,
                       count_sector, eigen_spectrum, invariant_nonzero_spectrum,
                       profile_curve, toy_closed_spectrum, weyl_fit)
from .transport import transport_asymptotics, transport_result


def build_map(family: str, spec: OpenBakerSpec, N: int, variant: str = "W") -> np.ndarray:
    """Dense propagator for one (family, spec, N) combination."""
    if family == "dft":
        return quantize_open(spec, N)
    if family == "toy":
        return build_toy_diagonal(N)
    if family == "walsh":
        k = round(math.log(N) / math.log(spec.D))
        if spec.D**k != N:
            raise ValueError(f"walsh family needs N = {spec.D}^k, got {N}")
        return walsh_quantize(spec, k, variant)
    raise ValueError(f"unknown map family {family!r}")


def map_spectrum(family: str, spec: OpenBakerSpec, N: int, parity: str,
                 variant: str = "W") -> Spectrum:
    """Spectrum of one map, parity-reduced when requested."""
    check_eig_dim(N if parity == "full" else N // 2)
    M = build_map(family, spec, N, variant)
    label = f"{family}-D{spec.D}-kept{''.join(map(str, spec.kept))}-N{N}-{parity}"
    if parity == "full":
        return eigen_spectrum(M, N=N, label=label)
    return eigen_spectrum(parity_restrict(M, parity), N=N, label=label)


def _blas_threads() -> dict:
    """Live thread count of every OpenBLAS library loaded in this process,
    by library file name; empty where /proc/self/maps is not readable."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return {}
    threads = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads[os.path.basename(path)] = fn()
                break
    return threads


def _run_environment() -> dict:
    """What a run's timings and last digits depend on besides its config:
    library versions, BLAS threads, the thread variables set and the CPUs
    this process may use."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {key: value for key, value in sorted(os.environ.items())
                       if key.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": (len(os.sched_getaffinity(0))
                     if hasattr(os, "sched_getaffinity") else None),
    }


class JobRunner:
    """One verb's run after its config is parsed: resolves the output
    directory, runs independent jobs in order (BLAS parallelizes within
    each), isolating per-job failures, then post-steps on their results,
    and rewrites the run manifest after each.  A job returns the names of
    its artifacts, or a pair (artifacts, diagnostics dict) whose dict the
    job's manifest entry records under `diagnostics`."""

    def __init__(self, cfg: dict, args):
        self.outdir = Path(args.output or cfg.get("output.dir", "."))
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.cfg = cfg
        self.environment = _run_environment()
        self.jobs = []

    @property
    def exit_code(self) -> int:
        """2 when a job or step so far failed or is partial, else 0."""
        return 2 if any(j["status"] != "ok" for j in self.jobs) else 0

    def run(self, named_jobs) -> int:
        for name, fn in named_jobs:
            start = time.monotonic()
            try:
                outputs, diagnostics = fn(), None
                if isinstance(outputs, tuple):
                    outputs, diagnostics = outputs
                entry = {"name": name, "status": "ok",
                         "outputs": sorted(outputs),
                         "seconds": round(time.monotonic() - start, 3)}
                if diagnostics:
                    entry["diagnostics"] = diagnostics
            except Exception as exc:  # isolate sibling jobs
                entry = {"name": name, "status": "failed", "error": str(exc),
                         "outputs": [],
                         "seconds": round(time.monotonic() - start, 3)}
                print(f"job {name} failed: {exc}", file=sys.stderr)
            self.jobs.append(entry)
        self.jobs.sort(key=lambda j: j["name"])
        self.write_manifest()
        return self.exit_code

    def step(self, name: str, fn, **missing) -> int:
        """Run and time `fn`, a step on the finished jobs' results that
        returns the names of its artifacts, record it, and rewrite the
        manifest.  `missing_N` or `missing_jobs` lists inputs the step
        lacks because their jobs failed; a nonempty list is recorded
        under its keyword and makes the step partial.  An exception from
        `fn` makes the step failed, with its text as `error`."""
        start = time.monotonic()
        try:
            outputs, error = fn(), None
        except Exception as exc:  # record the step, keep the jobs' results
            outputs, error = [], str(exc)
            print(f"step {name} failed: {error}", file=sys.stderr)
        entry = {"name": name, "status": "ok", "outputs": outputs,
                 "seconds": round(time.monotonic() - start, 3)}
        missing = {key: value for key, value in missing.items() if value}
        if error:
            entry.update(status="failed", error=error, **missing)
        elif missing:
            entry.update(status="partial", **missing)
        self.jobs.append(entry)
        self.jobs.sort(key=lambda j: j["name"])
        self.write_manifest()
        return self.exit_code

    def write_manifest(self):
        outputs = sorted({f for j in self.jobs for f in j["outputs"]})
        manifest = {
            "tool": "openbaker",
            "version": __version__,
            "config": self.cfg,
            "environment": self.environment,
            "jobs": self.jobs,
            "outputs": outputs,
        }
        write_json(self.outdir / "manifest.json", manifest)


def _spectrum_params(cfg: dict):
    family = get_str(cfg, "map.family", choices={"dft", "toy", "walsh"})
    spec = get_spec(cfg)
    if family == "toy" and spec.D != 3:
        raise ConfigError("toy family requires map.D = 3")
    dims = get_dimensions(cfg, spec.D)
    parity = get_str(cfg, "spectrum.parity", default="full",
                     choices={"even", "odd", "full"})
    variant = get_str(cfg, "map.variant", default="W", choices={"V", "W"})
    return family, spec, dims, parity, variant


def _run_spectra(cfg: dict, args, params):
    """Run one spectrum job per dimension of `params` (as returned by
    `_spectrum_params`).  Returns the runner, the spectra of the jobs
    that succeeded in dimension order, and the dimensions whose jobs
    failed."""
    family, spec, dims, parity, variant = params
    runner = JobRunner(cfg, args)
    store: dict = {}

    def job(N):
        s = map_spectrum(family, spec, N, parity, variant)
        store[N] = s
        fname = f"spectrum_N{N}_{parity}.csv"
        write_spectrum_csv(runner.outdir / fname, s)
        return [fname], {"eig_dim": s.eig_dim,
                         "max_residual_rel": s.max_residual_rel}

    runner.run([(f"spectrum-N{N}", partial(job, N)) for N in dims])
    return (runner, [store[N] for N in dims if N in store],
            [N for N in dims if N not in store])


def cmd_spectrum(cfg, args) -> int:
    return _run_spectra(cfg, args, _spectrum_params(cfg))[0].exit_code


def _sector_query(r: float, theta: float = 0.0, rho: float = math.pi) -> SectorQuery:
    """The counting sector of config values, made before any job runs, so
    that a value out of range is a config error and not a failed step."""
    try:
        return SectorQuery(r, theta, rho)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _counts(spectra, queries):
    return [(s.N, q.r, count_sector(s, q)) for s in spectra for q in queries]


def cmd_count(cfg, args) -> int:
    radii = get_float_list(cfg, "count.radii", default=[])
    theta = get_float(cfg, "sector.theta", default=0.0)
    rho = get_float(cfg, "sector.rho", default=math.pi)
    queries = [_sector_query(r, theta, rho) for r in radii]
    runner, spectra, missing = _run_spectra(cfg, args, _spectrum_params(cfg))
    if not queries:
        return runner.exit_code

    def counts():
        write_counts_csv(runner.outdir / "counts.csv", _counts(spectra, queries))
        return ["counts.csv"]

    return runner.step("counts", counts, missing_N=missing)


def cmd_weyl(cfg, args) -> int:
    query = _sector_query(get_float(cfg, "weyl.r"))
    runner, spectra, missing = _run_spectra(cfg, args, _spectrum_params(cfg))

    def fit():
        series = [(s.N, count_sector(s, query)) for s in spectra]
        write_json(runner.outdir / "weyl_fit.json", weyl_fit(series).as_dict())
        return ["weyl_fit.json"]

    return runner.step("weyl-fit", fit, missing_N=missing)


def cmd_profile(cfg, args) -> int:
    radii = get_float_list(cfg, "profile.radii")
    if (any(not 0.0 <= r < 1.0 for r in radii)
            or any(b <= a for a, b in zip(radii, radii[1:]))):
        raise ConfigError("profile.radii must be strictly increasing and "
                          "lie in [0, 1)")
    params = _spectrum_params(cfg)
    spec = params[1]
    mu = math.log(spec.s) / math.log(spec.D)
    runner, spectra, missing = _run_spectra(cfg, args, params)

    def profile():
        table = profile_curve(spectra, mu, radii, spec.D)
        write_profile_csv(runner.outdir / "profile.csv", radii,
                          [s.N for s in spectra], table)
        return ["profile.csv"]

    return runner.step("profile", profile, missing_N=missing)


def cmd_toy_check(cfg, args) -> int:
    ks = distinct("toy.k", get_int_list(cfg, "toy.k"))
    if any(k < 1 for k in ks):
        raise ConfigError("toy.k values must be >= 1")
    runner = JobRunner(cfg, args)

    def job(k):
        # the toy's kernel is all exact zero rows and columns: the k-th-power
        # factorization runs on the 2^k-dimensional core and returns the
        # kernel dimension exactly
        vals, kdim = invariant_nonzero_spectrum(build_toy_diagonal(3**k), k)
        s = Spectrum(np.concatenate([vals, np.zeros(kdim, dtype=complex)]),
                     N=3**k, label=f"toy-k{k}")
        report = compare_spectra(s, toy_closed_spectrum(k))
        payload = {
            "k": k,
            "max_distance": report.max_distance,
            "unmatched": report.unmatched,
            "ring_totals": {str(p): c for p, c in
                            sorted(report.ring_totals.items())},
            "kernel_dimension": kdim,
            "expected_kernel_dimension": 3**k - 2**k,
        }
        fname = f"toy_check_k{k}.json"
        write_json(runner.outdir / fname, payload)
        return [fname]

    return runner.run([(f"toy-check-k{k}", partial(job, k)) for k in ks])


def cmd_transport(cfg, args) -> int:
    ks = distinct("transport.k", get_int_list(cfg, "transport.k"))
    thetas = distinct("transport.theta",
                      get_float_list(cfg, "transport.theta", default=[0.0]))
    method = get_str(cfg, "transport.method", default="resolvent",
                     choices={"resolvent", "series"})
    if any(k < 1 for k in ks):
        raise ConfigError("transport.k values must be >= 1")
    runner = JobRunner(cfg, args)
    results = {}

    def job(k, i):
        res = transport_result(k, thetas[i], method)
        results[(k, i)] = res
        base = f"transport_k{k}_theta{i}"
        write_json(runner.outdir / f"{base}.json", res.as_dict())
        write_transmission_csv(runner.outdir / f"{base}_T.csv", res.T)
        return [f"{base}.json", f"{base}_T.csv"], res.diagnostics

    names = {(k, i): f"transport-k{k}-theta{i}"
             for k in ks for i in range(len(thetas))}
    code = runner.run([(name, partial(job, *key)) for key, name in names.items()])
    if not results:
        return code

    def summary():
        report = transport_asymptotics([results[key] for key in names
                                        if key in results])
        write_json(runner.outdir / "transport_asymptotics.json", report)
        return ["transport_asymptotics.json"]

    return runner.step("transport-asymptotics", summary,
                       missing_jobs=[name for key, name in names.items()
                                     if key not in results])


def cmd_classical(cfg, args) -> int:
    spec = get_spec(cfg)
    M = get_int(cfg, "classical.M", default=81)
    t_max = get_int(cfg, "classical.tmax", default=20)
    k = get_int(cfg, "classical.toy_k") if "classical.toy_k" in cfg else None
    if k is not None and k < 1:
        raise ConfigError("classical.toy_k must be >= 1")
    runner = JobRunner(cfg, args)

    def grids_job():
        files = []
        for direction in ("forward", "backward"):
            g = escape_grid(spec, M, direction, t_max)
            fname = f"escape_{direction}.csv"
            write_escape_grid_csv(runner.outdir / fname, g)
            files.append(fname)
        return files

    def dims_job():
        write_json(runner.outdir / "dimensions.json", fractal_dimensions(spec))
        return ["dimensions.json"]

    def transfer_job():
        # the k-th-power factorization keeps the defective kernel's
        # scatter out of the nonzero eigenvalues
        T = transfer_matrix(build_toy_diagonal(3**k))
        vals, kdim = invariant_nonzero_spectrum(T.astype(complex), k)
        payload = {
            "k": k,
            "nontrivial_eigenvalues": [[z.real, z.imag] for z in vals],
            "kernel_dimension": kdim,
        }
        write_json(runner.outdir / "transfer_report.json", payload)
        return ["transfer_report.json"]

    jobs = [("escape-grids", grids_job), ("dimensions", dims_job)]
    if k is not None:
        jobs.append(("transfer-spectrum", transfer_job))
    return runner.run(jobs)


def cmd_manifest(args) -> int:
    path = Path(args.rundir) / "manifest.json"
    if not path.exists():
        print(f"no manifest at {path}", file=sys.stderr)
        return 1
    import json
    manifest = json.loads(path.read_text())
    missing = [f for f in manifest.get("outputs", [])
               if not (Path(args.rundir) / f).exists()]
    print(f"run of openbaker {manifest.get('version', '?')}: "
          f"{len(manifest.get('jobs', []))} jobs, "
          f"{len(manifest.get('outputs', []))} artifacts")
    if "environment" in manifest:
        print("  environment:")
        for key, value in manifest["environment"].items():
            print(f"    {key}: {value}")
    for job in manifest.get("jobs", []):
        print(f"  {job['name']}: {job['status']} ({job['seconds']}s)")
        for key in ("missing_N", "missing_jobs", "error"):
            if job.get(key):
                print(f"    {key.replace('_', ' ')}: {job[key]}")
        for key, value in job.get("diagnostics", {}).items():
            print(f"    {key}: {value}")
    unfinished = [job["name"] for job in manifest.get("jobs", [])
                  if job["status"] in ("failed", "partial")]
    if unfinished:
        print(f"failed or partial: {unfinished}", file=sys.stderr)
    if missing:
        print(f"missing artifacts: {missing}", file=sys.stderr)
    return 2 if unfinished or missing else 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="openbaker",
        description="Quantized open baker's maps: spectra, Weyl counting, transport.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [("spectrum", cmd_spectrum), ("count", cmd_count),
                     ("weyl", cmd_weyl), ("profile", cmd_profile),
                     ("toy-check", cmd_toy_check), ("transport", cmd_transport),
                     ("classical", cmd_classical)]:
        p = sub.add_parser(name)
        p.add_argument("config", help="run configuration file")
        p.add_argument("-o", "--output", help="output directory (overrides output.dir)")
        p.set_defaults(fn=fn)
    m = sub.add_parser("manifest")
    m.add_argument("rundir", help="directory of a previous run")
    m.set_defaults(fn=None)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    if args.command == "manifest":
        return cmd_manifest(args)
    try:
        cfg = load_config(args.config)
        return args.fn(cfg, args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
