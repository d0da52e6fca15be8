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
import json
import math
import os
import platform
import sys
import time
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .classical import (B3, OpenBakerSpec, escape_grid, fractal_dimensions,
                        transfer_matrix)
from .config import (ConfigError, distinct, get_float, get_float_list, get_int,
                     get_job_sizes, get_spec, get_str, load_config)
from .quantize import (_sector_sign, build_toy_diagonal, parity_restrict,
                       quantize_open, tensor_open_apply_block)
from .serialize import (write_counts_csv, write_escape_grid_csv, write_json,
                        write_profile_csv, write_spectrum_csv,
                        write_transmission_csv)
from .spectral import (SectorQuery, Spectrum, check_eig_dim,
                       check_profile_radii, compare_spectra, count_sector,
                       eigen_spectrum, invariant_nonzero_spectrum,
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
        # walsh_quantize's matrix, applied to the identity: each entry is
        # one seed entry or an exact zero, so the kernel deflates exactly
        return tensor_open_apply_block(np.eye(N, dtype=complex), spec, variant)
    raise ValueError(f"unknown map family {family!r}")


def map_spectrum(family: str, spec: OpenBakerSpec, N: int, parity: str,
                 variant: str = "W") -> Spectrum:
    """Spectrum of one map, parity-reduced when requested."""
    if parity != "full":
        _sector_sign(N, parity)  # an odd N fails before the N x N build
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
    each), isolating per-job failures, and rewrites the run manifest
    after the jobs and after the step, listing the entries by name.

    The runner is the only code that writes an artifact.  A job or step
    returns its artifacts as a dict {file name: writer}, where
    `writer(path)` writes that one file, or as a pair (artifacts,
    diagnostics dict) whose dict its manifest entry records under
    `diagnostics`.  The runner calls each writer on `outdir / name`, in
    dict order, inside the entry's timed and isolated block, and lists
    the names as the entry's `outputs`; so the manifest lists exactly the
    files written.  After `run`, a verb calls `step` at most once,
    always, even when every job failed: the step builds the one artifact
    it names from the jobs that succeeded, and the runner records the
    failed jobs as the step's `missing_jobs`."""

    def __init__(self, cfg: dict, args):
        self.outdir = Path(args.output or cfg.get("output.dir", "."))
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.cfg = cfg
        self.jobs = []

    @property
    def exit_code(self) -> int:
        """2 when a job or step so far failed or is partial, else 0."""
        return 2 if any(j["status"] != "ok" for j in self.jobs) else 0

    def run(self, named_jobs) -> int:
        for name, fn in named_jobs:
            self._record("job", name, fn)
        self.write_manifest()
        return self.exit_code

    def step(self, name: str, fn) -> int:
        """Run `fn`, a step on the finished jobs' results, as a job, and
        rewrite the manifest.  The names of the failed jobs, whose results
        the step lacks, are recorded as its `missing_jobs`; a nonempty
        list makes an ok step partial."""
        missing = [j["name"] for j in self.jobs if j["status"] == "failed"]
        entry = self._record("step", name, fn)
        if missing:
            entry["missing_jobs"] = missing
            if entry["status"] == "ok":
                entry["status"] = "partial"
        self.write_manifest()
        return self.exit_code

    def _record(self, kind: str, name: str, fn) -> dict:
        """Run and time `fn`, write the artifacts it returns, and append
        and return its entry.  An exception from `fn` or a writer makes
        the entry failed, with its text as `error`, and is reported on
        stderr as `<kind> <name> failed: <error>`."""
        start = time.monotonic()
        entry = {"name": name, "status": "ok"}
        try:
            artifacts = fn()
            if isinstance(artifacts, tuple):
                artifacts, diagnostics = artifacts
                if diagnostics:
                    entry["diagnostics"] = diagnostics
            for fname, write in artifacts.items():
                write(self.outdir / fname)
            entry["outputs"] = sorted(artifacts)
        except Exception as exc:  # isolate siblings, keep finished results
            entry.update(status="failed", error=str(exc), outputs=[])
            print(f"{kind} {name} failed: {exc}", file=sys.stderr)
        entry["seconds"] = round(time.monotonic() - start, 3)
        self.jobs.append(entry)
        return entry

    def write_manifest(self):
        outputs = sorted({f for j in self.jobs for f in j["outputs"]})
        manifest = {
            "tool": "openbaker",
            "version": __version__,
            "config": self.cfg,
            # read at each write: scipy.linalg's BLAS loads with its first call
            "environment": _run_environment(),
            "jobs": sorted(self.jobs, key=lambda j: j["name"]),
            "outputs": outputs,
        }
        write_json(self.outdir / "manifest.json", manifest)


def _run_spectra(cfg: dict, args):
    """Read the map and spectrum keys and run one spectrum job per
    `spectrum.N` value.  Returns the runner, the map's spec and the
    spectra of the jobs that succeeded, in dimension order."""
    family = get_str(cfg, "map.family", choices={"dft", "toy", "walsh"})
    spec = get_spec(cfg)
    variant = get_str(cfg, "map.variant", default="W", choices={"V", "W"})
    # the toy is the "W" Walsh 3-baker B3 and reads no other map
    if family == "toy" and (spec != B3 or variant != "W"):
        raise ConfigError("toy family requires map.D = 3, map.kept = 0,2 "
                          "and map.variant = W")
    if family == "dft" and "map.variant" in cfg:
        raise ConfigError("map.variant: the dft family has no variant")
    dims = get_job_sizes(cfg, "spectrum.N")
    parity = get_str(cfg, "spectrum.parity", default="full",
                     choices={"even", "odd", "full"})
    runner = JobRunner(cfg, args)
    store: dict = {}

    def job(N):
        s = store[N] = map_spectrum(family, spec, N, parity, variant)
        return ({f"spectrum_N{N}_{parity}.csv": partial(write_spectrum_csv, spectrum=s)},
                {"eig_dim": s.eig_dim, "max_residual_rel": s.max_residual_rel})

    runner.run([(f"spectrum-N{N}", partial(job, N)) for N in dims])
    return runner, spec, list(store.values())


def cmd_spectrum(cfg, args) -> int:
    return _run_spectra(cfg, args)[0].exit_code


def cmd_count(cfg, args) -> int:
    radii = distinct("count.radii", get_float_list(cfg, "count.radii"))
    theta = get_float(cfg, "sector.theta", default=0.0)
    rho = get_float(cfg, "sector.rho", default=math.pi)
    if "sector.theta" in cfg and rho == math.pi:  # the angle would select nothing
        raise ConfigError("sector.theta: a full annulus (sector.rho = pi) has no angle")
    queries = [SectorQuery(r, theta, rho) for r in radii]
    runner, _, spectra = _run_spectra(cfg, args)
    return runner.step("counts", lambda: {"counts.csv": partial(
        write_counts_csv, counts=[(s.N, q.r, count_sector(s, q))
                                  for s in spectra for q in queries])})


def cmd_weyl(cfg, args) -> int:
    query = SectorQuery(get_float(cfg, "weyl.r"))
    runner, _, spectra = _run_spectra(cfg, args)
    return runner.step("weyl-fit", lambda: {"weyl_fit.json": partial(
        write_json, obj=asdict(weyl_fit([(s.N, count_sector(s, query))
                                         for s in spectra])))})


def cmd_profile(cfg, args) -> int:
    radii = get_float_list(cfg, "profile.radii")
    try:
        check_profile_radii(radii)
    except ValueError as exc:  # "radii must be ...": prefix the section
        raise ConfigError(f"profile.{exc}") from exc
    runner, spec, spectra = _run_spectra(cfg, args)
    return runner.step("profile", lambda: {"profile.csv": partial(
        write_profile_csv, r_grid=radii, dims=[s.N for s in spectra],
        table=profile_curve(spectra, spec.mu, radii, spec.D))})


def cmd_toy_check(cfg, args) -> int:
    ks = get_job_sizes(cfg, "toy.k")
    runner = JobRunner(cfg, args)

    def job(k):
        # the toy's kernel is all exact zero rows and columns: the k-th-power
        # factorization runs on the 2^k-dimensional core and returns the
        # kernel dimension exactly
        vals, kdim = invariant_nonzero_spectrum(build_toy_diagonal(3**k), k)
        s = Spectrum(np.concatenate([vals, np.zeros(kdim, dtype=complex)]),
                     N=3**k, label=f"toy-k{k}")
        report = compare_spectra(s, toy_closed_spectrum(k))
        return {f"toy_check_k{k}.json": partial(write_json, obj={
            "k": k,
            "max_distance": report.max_distance,
            "unmatched": report.unmatched,
            "ring_totals": {str(p): c for p, c in
                            sorted(report.ring_totals.items())},
            "kernel_dimension": kdim,
            "expected_kernel_dimension": 3**k - 2**k,
        })}

    return runner.run([(f"toy-check-k{k}", partial(job, k)) for k in ks])


def cmd_transport(cfg, args) -> int:
    ks = get_job_sizes(cfg, "transport.k")
    thetas = distinct("transport.theta",
                      get_float_list(cfg, "transport.theta", default=[0.0]))
    method = get_str(cfg, "transport.method", default="resolvent",
                     choices={"resolvent", "series"})
    runner = JobRunner(cfg, args)
    results = {}

    def job(k, i):
        res = results[(k, i)] = transport_result(k, thetas[i], method)
        base = f"transport_k{k}_theta{i}"
        return ({f"{base}.json": partial(write_json, obj=res.as_dict()),
                 f"{base}_T.csv": partial(write_transmission_csv, T=res.T)},
                res.diagnostics)

    runner.run([(f"transport-k{k}-theta{i}", partial(job, k, i))
                for k in ks for i in range(len(thetas))])
    return runner.step(
        "transport-asymptotics", lambda: {"transport_asymptotics.json": partial(
            write_json, obj=transport_asymptotics(list(results.values())))})


def cmd_classical(cfg, args) -> int:
    spec = get_spec(cfg)
    M = get_int(cfg, "classical.M", default=81, minimum=1)
    t_max = get_int(cfg, "classical.tmax", default=20, minimum=0)
    k = (get_int(cfg, "classical.toy_k", minimum=1)
         if "classical.toy_k" in cfg else None)
    runner = JobRunner(cfg, args)

    def grids_job():
        return {f"escape_{direction}.csv": partial(
            write_escape_grid_csv, times=escape_grid(spec, M, direction, t_max))
            for direction in ("forward", "backward")}

    def dims_job():
        return {"dimensions.json": partial(write_json, obj=fractal_dimensions(spec))}

    def transfer_job():
        # the k-th-power factorization keeps the defective kernel's
        # scatter out of the nonzero eigenvalues
        T = transfer_matrix(build_toy_diagonal(3**k))
        vals, kdim = invariant_nonzero_spectrum(T.astype(complex), k)
        return {"transfer_report.json": partial(write_json, obj={
            "k": k,
            "nontrivial_eigenvalues": [[z.real, z.imag] for z in vals],
            "kernel_dimension": kdim,
        })}

    jobs = [("escape-grids", grids_job), ("dimensions", dims_job)]
    if k is not None:
        jobs.append(("transfer-spectrum", transfer_job))
    return runner.run(jobs)


def _describe_manifest(rundir: Path, manifest: dict):
    """The report lines of a run's manifest, the names of its failed or
    partial entries, and its listed artifacts missing from `rundir`."""
    jobs = manifest.get("jobs", [])
    outputs = manifest.get("outputs", [])
    lines = [f"run of openbaker {manifest.get('version', '?')}: "
             f"{len(jobs)} jobs, {len(outputs)} artifacts"]
    if "environment" in manifest:
        lines.append("  environment:")
        lines += [f"    {key}: {value}"
                  for key, value in manifest["environment"].items()]
    for job in jobs:
        lines.append(f"  {job['name']}: {job['status']} ({job['seconds']}s)")
        for key in ("missing_jobs", "error"):
            if job.get(key):
                lines.append(f"    {key.replace('_', ' ')}: {job[key]}")
        lines += [f"    {key}: {value}"
                  for key, value in job.get("diagnostics", {}).items()]
    unfinished = [job["name"] for job in jobs
                  if job["status"] in ("failed", "partial")]
    missing = [f for f in outputs if not (rundir / f).exists()]
    return lines, unfinished, missing


def cmd_manifest(args) -> int:
    rundir = Path(args.rundir)
    path = rundir / "manifest.json"
    if not path.exists():
        print(f"no manifest at {path}", file=sys.stderr)
        return 1
    try:
        lines, unfinished, missing = _describe_manifest(
            rundir, json.loads(path.read_text()))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        print(f"unreadable manifest at {path}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    print("\n".join(lines))
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
    except (ValueError, FileNotFoundError) as exc:
        # every ValueError that reaches here is a bad config value: each
        # verb parses its config before its JobRunner makes the output
        # directory, and the runner isolates every job and step
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
