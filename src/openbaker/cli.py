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
from concurrent.futures import ThreadPoolExecutor
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
from .spectral import (SectorQuery, Spectrum, compare_spectra, count_sector,
                       eigen_spectrum, invariant_nonzero_spectrum,
                       profile_curve, toy_closed_spectrum, weyl_fit)
from .transport import transport_asymptotics, transport_result

WORKERS_ENV = "OPENBAKER_WORKERS"


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


def _run_environment(workers: int) -> dict:
    """What a run's timings and last digits depend on besides its config:
    library versions, BLAS threads, the thread variables set, the CPUs
    this process may use, and the number of parallel jobs."""
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
        "workers": workers,
    }


class JobRunner:
    """Runs independent jobs, isolating per-job failures, and assembles
    the run manifest.  A job returns the names of its artifacts, or a
    pair (artifacts, diagnostics dict) whose dict the job's manifest
    entry records under `diagnostics`."""

    def __init__(self, outdir: Path, cfg: dict, workers: int = 1):
        self.outdir = outdir
        self.cfg = cfg
        self.workers = max(1, workers)
        self.environment = _run_environment(self.workers)
        self.jobs = []
        self.step_start = time.monotonic()

    def run(self, named_jobs) -> int:
        def call(item):
            name, fn = item
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
                return entry
            except Exception as exc:  # isolate sibling jobs
                return {"name": name, "status": "failed", "error": str(exc),
                        "outputs": [],
                        "seconds": round(time.monotonic() - start, 3)}

        named_jobs = list(named_jobs)
        if self.workers == 1 or len(named_jobs) <= 1:
            results = [call(j) for j in named_jobs]
        else:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                results = list(pool.map(call, named_jobs))
        self.jobs = sorted(results, key=lambda j: j["name"])
        failed = [j for j in self.jobs if j["status"] != "ok"]
        for j in failed:
            print(f"job {j['name']} failed: {j['error']}", file=sys.stderr)
        self.write_manifest()
        self.step_start = time.monotonic()
        return 2 if failed else 0

    def record_post_step(self, name: str, outputs: list, **details):
        """Add a step that ran on the finished jobs' results and rewrite
        the manifest.  `missing_N` and `missing_jobs` list inputs the step
        lacks because their jobs failed; a nonempty list is recorded under
        its keyword and makes the step partial.  `error`, the text of the
        exception that stopped the step, makes it failed.  The step's
        seconds run from the end of `run` or of the previous step."""
        now = time.monotonic()
        entry = {"name": name, "status": "ok", "outputs": outputs,
                 "seconds": round(now - self.step_start, 3)}
        self.step_start = now
        details = {key: value for key, value in details.items() if value}
        if details:
            status = "failed" if "error" in details else "partial"
            entry.update(status=status, **details)
        self.jobs.append(entry)
        self.jobs.sort(key=lambda j: j["name"])
        self.write_manifest()

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


def _outdir(cfg: dict, args) -> Path:
    out = Path(args.output or cfg.get("output.dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _workers(args) -> int:
    if args.workers is not None:
        return args.workers
    return int(os.environ.get(WORKERS_ENV, "1"))


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
    `_spectrum_params`).  Returns the runner, its exit code, and the
    spectra of the jobs that succeeded, by N."""
    family, spec, dims, parity, variant = params
    outdir = _outdir(cfg, args)
    store: dict = {}

    def make(N):
        def job():
            s = map_spectrum(family, spec, N, parity, variant)
            store[N] = s
            fname = f"spectrum_N{N}_{parity}.csv"
            write_spectrum_csv(outdir / fname, s)
            return [fname], {"eig_dim": s.eig_dim,
                             "max_residual_rel": s.max_residual_rel}
        return job

    runner = JobRunner(outdir, cfg, _workers(args))
    code = runner.run([(f"spectrum-N{N}", make(N)) for N in dims])
    return runner, code, store


def cmd_spectrum(cfg, args) -> int:
    _, code, _ = _run_spectra(cfg, args, _spectrum_params(cfg))
    return code


def _sector_query(r: float, theta: float = 0.0, rho: float = math.pi) -> SectorQuery:
    """The counting sector of config values, made before any job runs, so
    that a value out of range is a config error and not a failed step."""
    try:
        return SectorQuery(r, theta, rho)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _counts(store, dims, queries):
    counts = []
    for N in dims:
        if N not in store:
            continue
        for q in queries:
            counts.append((N, q.r, count_sector(store[N], q)))
    return counts


def cmd_count(cfg, args) -> int:
    radii = get_float_list(cfg, "count.radii", default=[])
    theta = get_float(cfg, "sector.theta", default=0.0)
    rho = get_float(cfg, "sector.rho", default=math.pi)
    queries = [_sector_query(r, theta, rho) for r in radii]
    params = _spectrum_params(cfg)
    dims = params[2]
    runner, code, store = _run_spectra(cfg, args, params)
    # counting runs after all spectra are available
    if queries:
        write_counts_csv(runner.outdir / "counts.csv",
                         _counts(store, dims, queries))
        runner.record_post_step("counts", ["counts.csv"],
                                missing_N=[N for N in dims if N not in store])
    return code


def cmd_weyl(cfg, args) -> int:
    query = _sector_query(get_float(cfg, "weyl.r"))
    params = _spectrum_params(cfg)
    dims = params[2]
    runner, code, store = _run_spectra(cfg, args, params)
    series = [(N, count_sector(store[N], query)) for N in dims if N in store]
    missing = [N for N in dims if N not in store]
    try:
        fit = weyl_fit(series)
    except ValueError as exc:
        print(f"weyl fit failed: {exc}", file=sys.stderr)
        runner.record_post_step("weyl-fit", [], error=str(exc), missing_N=missing)
        return 2
    write_json(runner.outdir / "weyl_fit.json", fit.as_dict())
    runner.record_post_step("weyl-fit", ["weyl_fit.json"], missing_N=missing)
    return code


def cmd_profile(cfg, args) -> int:
    radii = get_float_list(cfg, "profile.radii")
    params = _spectrum_params(cfg)
    _, spec, dims, _, _ = params
    if spec.is_open:
        default_mu = math.log(spec.s) / math.log(spec.D)
    else:
        default_mu = 1.0
    mu = get_float(cfg, "profile.mu", default=default_mu)
    runner, code, store = _run_spectra(cfg, args, params)
    present = [N for N in dims if N in store]
    table = profile_curve([store[N] for N in present], mu, radii, spec.D)
    write_profile_csv(runner.outdir / "profile.csv", radii, present, table)
    runner.record_post_step("profile", ["profile.csv"],
                            missing_N=[N for N in dims if N not in store])
    return code


def cmd_toy_check(cfg, args) -> int:
    ks = distinct("toy.k", get_int_list(cfg, "toy.k"))
    tol = get_float(cfg, "toy.tol", default=1e-8)
    outdir = _outdir(cfg, args)
    runner = JobRunner(outdir, cfg, _workers(args))

    def make(k):
        def job():
            # the k-th-power factorization isolates the nonzero spectrum
            # from the defective kernel, which a direct dense eigensolve
            # would scatter across |lambda| up to ~1e-3
            vals, kdim = invariant_nonzero_spectrum(build_toy_diagonal(3**k), k)
            s = Spectrum(np.concatenate([vals, np.zeros(kdim, dtype=complex)]),
                         N=3**k, label=f"toy-k{k}")
            ref = toy_closed_spectrum(k)
            report = compare_spectra(s, ref, tol)
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
            write_json(outdir / fname, payload)
            return [fname]
        return job

    return runner.run([(f"toy-check-k{k}", make(k)) for k in ks])


def cmd_transport(cfg, args) -> int:
    ks = distinct("transport.k", get_int_list(cfg, "transport.k"))
    thetas = distinct("transport.theta",
                      get_float_list(cfg, "transport.theta", default=[0.0]))
    method = get_str(cfg, "transport.method", default="resolvent",
                     choices={"resolvent", "series"})
    tol = get_float(cfg, "transport.tol", default=1e-12)
    if any(k < 1 for k in ks):
        raise ConfigError("transport.k values must be >= 1")
    outdir = _outdir(cfg, args)
    runner = JobRunner(outdir, cfg, _workers(args))
    results = {}

    def make(k, theta, i):
        def job():
            res = transport_result(k, theta, method, tol)
            results[(k, i)] = res
            base = f"transport_k{k}_theta{i}"
            write_json(outdir / f"{base}.json", res.as_dict())
            write_transmission_csv(outdir / f"{base}_T.csv", res.T)
            return [f"{base}.json", f"{base}_T.csv"]
        return job

    names = {(k, i): f"transport-k{k}-theta{i}"
             for k in ks for i in range(len(thetas))}
    code = runner.run([(name, make(k, thetas[i], i))
                       for (k, i), name in names.items()])
    if results:
        report = transport_asymptotics([results[key] for key in names
                                        if key in results])
        write_json(outdir / "transport_asymptotics.json", report)
        runner.record_post_step(
            "transport-asymptotics", ["transport_asymptotics.json"],
            missing_jobs=[name for key, name in names.items()
                          if key not in results])
    return code


def cmd_classical(cfg, args) -> int:
    outdir = _outdir(cfg, args)
    spec = get_spec(cfg)
    M = get_int(cfg, "classical.M", default=81)
    t_max = get_int(cfg, "classical.tmax", default=20)
    runner = JobRunner(outdir, cfg, _workers(args))

    def grids_job():
        files = []
        for direction in ("forward", "backward"):
            g = escape_grid(spec, M, direction, t_max)
            fname = f"escape_{direction}.csv"
            write_escape_grid_csv(outdir / fname, g)
            files.append(fname)
        return files

    def dims_job():
        write_json(outdir / "dimensions.json", fractal_dimensions(spec))
        return ["dimensions.json"]

    jobs = [("escape-grids", grids_job), ("dimensions", dims_job)]
    if "classical.toy_k" in cfg:
        k = get_int(cfg, "classical.toy_k")

        def transfer_job():
            # as for the toy spectrum, the k-th-power factorization keeps
            # the defective kernel's scatter out of the nonzero eigenvalues
            T = transfer_matrix(build_toy_diagonal(3**k))
            vals, kdim = invariant_nonzero_spectrum(T.astype(complex), k)
            payload = {
                "k": k,
                "nontrivial_eigenvalues": [[z.real, z.imag] for z in vals],
                "kernel_dimension": kdim,
            }
            write_json(outdir / "transfer_report.json", payload)
            return ["transfer_report.json"]

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
        p.add_argument("--workers", type=int, default=None,
                       help=f"parallel jobs (default: ${WORKERS_ENV} or 1)")
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
