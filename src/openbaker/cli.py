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

# One OpenBLAS thread unless the caller chose a count: the jobs are small
# dense solves that a second thread does not speed up, and one thread
# makes the last digits independent of the core count.  OpenBLAS reads
# the variable when numpy loads it, so a process that already imported
# numpy keeps its environment and its thread pools.
if "numpy" not in sys.modules and not any(
        key in os.environ
        for key in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np
import scipy

from . import __version__
from .classical import (OpenBakerSpec, escape_grid, fractal_dimensions,
                        transfer_matrix)
from .config import (KEYS, ConfigError, _keyed, get_float, get_float_list,
                     get_int, get_int_list, get_spec, get_str, load_config)
from .quantize import (_sector_sign, _walsh_diagonal, build_toy_diagonal,
                       parity_restrict, quantize_open)
from .serialize import (write_counts_csv, write_escape_grid_csv, write_json,
                        write_profile_csv, write_spectrum_csv,
                        write_transmission_csv)
from .spectral import (SectorQuery, Spectrum, _deflate_zero_indices,
                       check_eig_dim, check_profile_radii, compare_spectra,
                       count_sector, eigen_spectrum,
                       invariant_nonzero_spectrum, profile_curve,
                       toy_closed_spectrum, weyl_fit)
from .transport import transport_asymptotics, transport_result


def build_map(family: str, spec: OpenBakerSpec, N: int, variant: str = "W") -> np.ndarray:
    """Dense propagator for one (family, spec, N) combination."""
    if family == "dft":
        return quantize_open(spec, N)
    if family == "walsh":
        k = round(math.log(N) / math.log(spec.D))
        if spec.D**k != N:
            raise ValueError(f"walsh family needs N = {spec.D}^k, got {N}")
        # each entry is one seed entry or an exact zero, so the kernel
        # deflates exactly
        return _walsh_diagonal(spec, N, variant)
    raise ValueError(f"unknown map family {family!r}")


def map_spectrum(family: str, spec: OpenBakerSpec, N: int, parity: str,
                 variant: str = "W") -> Spectrum:
    """Spectrum of one map, parity-reduced when requested."""
    if parity != "full":
        _sector_sign(N, parity)  # an odd N fails before the N x N build
    check_eig_dim(N if parity == "full" else N // 2)
    M = build_map(family, spec, N, variant)
    if parity != "full":
        # rebinding frees the N x N map before the eigensolve
        M = parity_restrict(M, parity)
    return eigen_spectrum(M, N=N)


def _blas_threads() -> dict:
    """Live thread count of every OpenBLAS library loaded in this process,
    by library file name; empty where /proc/self/maps is not readable."""
    try:
        with open("/proc/self/maps") as fh:
            # the path is the sixth field and may hold spaces; /proc marks
            # a library replaced on disk with a " (deleted)" suffix
            paths = sorted({line.split(maxsplit=5)[5].rstrip().removesuffix(" (deleted)")
                            for line in fh if "openblas" in line})
    except OSError:
        return {}
    threads = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # gone from disk or not loadable: report nothing
            continue
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
    """One verb's run after its config is parsed: makes the output
    directory, runs independent jobs one at a time, in order (each on
    one BLAS thread unless the caller set a thread count), isolating
    per-job failures, and rewrites the run manifest after the jobs and
    after the step, listing the entries by name.

    The runner is the only code that writes an artifact.  A job or step
    returns its artifacts as a dict {file name: writer}, where
    `writer(path)` writes that one file, or as a pair (artifacts,
    diagnostics dict) whose dict its manifest entry records under
    `diagnostics`.  The runner calls each writer on `outdir / name`, in
    dict order, inside the entry's timed and isolated block, and lists
    the names as the entry's `outputs`; so the manifest lists exactly the
    files written.  After `run`, `main` calls `step` at most once,
    always, even when every job failed: the step builds the one artifact
    it names from the jobs that succeeded, and the runner records the
    failed jobs as the step's `missing_jobs`."""

    def __init__(self, cfg: dict, outdir: Path):
        self.outdir = outdir
        try:
            self.outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # an existing file, or no write permission
            raise ConfigError(f"output directory {self.outdir}: {exc.strerror}") from exc
        self.cfg = cfg
        self.jobs = []

    @property
    def exit_code(self) -> int:
        """2 when a job or step so far failed or is partial, else 0."""
        return 2 if any(j["status"] != "ok" for j in self.jobs) else 0

    def run(self, named_jobs):
        for name, fn in named_jobs:
            self._record("job", name, fn)
        self.write_manifest()

    def step(self, name: str, fn):
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
        manifest = {
            "tool": "openbaker",
            "version": __version__,
            "config": self.cfg,
            # read at each write: scipy.linalg's BLAS loads with its first call
            "environment": _run_environment(),
            "jobs": sorted(self.jobs, key=lambda j: j["name"]),
            "outputs": sorted({f for j in self.jobs for f in j["outputs"]}),
        }
        write_json(self.outdir / "manifest.json", manifest)


def _spectrum_jobs(cfg: dict):
    """Read the map and spectrum keys.  Returns one spectrum job per
    `spectrum.N` value, the map's spec and the dict {N: spectrum} that
    the jobs which succeed fill, in dimension order."""
    family = get_str(cfg, "map.family", choices={"dft", "walsh"})
    spec = get_spec(cfg)
    variant = get_str(cfg, "map.variant", default="W", choices={"V", "W"})
    if family == "dft" and "map.variant" in cfg:
        raise ConfigError("map.variant: the dft family has no variant")
    dims = get_int_list(cfg, "spectrum.N", minimum=1)
    parity = get_str(cfg, "spectrum.parity", default="full",
                     choices={"even", "odd", "full"})
    # parity sends strip l to strip D-1-l: a map commutes with it only if
    # that mirror maps the kept strips onto themselves, and no "V" (walsh)
    # map commutes with it at all
    if parity != "full" and (variant == "V" or sorted(
            spec.D - 1 - l for l in spec.kept) != list(spec.kept)):
        raise ConfigError("spectrum.parity: the map never commutes with parity")
    if parity != "full" and family == "walsh" and spec.D % 2:
        raise ConfigError(f"spectrum.parity: every walsh dimension N = {spec.D}^k is odd")
    spectra: dict = {}

    def job(N):
        s = spectra[N] = map_spectrum(family, spec, N, parity, variant)
        return ({f"spectrum_N{N}_{parity}.csv": partial(write_spectrum_csv, spectrum=s)},
                s.diagnostics)

    return [(f"spectrum-N{N}", partial(job, N)) for N in dims], spec, spectra


# Each verb reads and checks every key it uses and returns its plan
# (jobs, step): the (name, fn) jobs `main` runs, then the (name, fn) step
# it runs on their results, or None.

def cmd_spectrum(cfg):
    return _spectrum_jobs(cfg)[0], None


def cmd_count(cfg):
    radii = get_float_list(cfg, "count.radii")
    theta = get_float(cfg, "sector.theta", default=0.0)
    rho = get_float(cfg, "sector.rho", default=math.pi)
    if "sector.theta" in cfg and rho == math.pi:  # the angle would select nothing
        raise ConfigError("sector.theta: a full annulus (sector.rho = pi) has no angle")
    # radius 0 is valid: only rho can fail
    _keyed("sector.rho", SectorQuery, 0.0, theta, rho)
    queries = [_keyed("count.radii", SectorQuery, r, theta, rho) for r in radii]
    jobs, _, spectra = _spectrum_jobs(cfg)
    return jobs, ("counts", lambda: {"counts.csv": partial(
        write_counts_csv, counts=[(s.N, q.r, count_sector(s, q))
                                  for s in spectra.values() for q in queries])})


def cmd_weyl(cfg):
    query = _keyed("weyl.r", SectorQuery, get_float(cfg, "weyl.r"))
    jobs, _, spectra = _spectrum_jobs(cfg)
    return jobs, ("weyl-fit", lambda: {"weyl_fit.json": partial(
        write_json, obj=asdict(weyl_fit([(s.N, count_sector(s, query))
                                         for s in spectra.values()])))})


def cmd_profile(cfg):
    radii = get_float_list(cfg, "profile.radii")
    _keyed("profile.radii", check_profile_radii, radii)
    jobs, spec, spectra = _spectrum_jobs(cfg)
    return jobs, ("profile", lambda: {"profile.csv": partial(
        write_profile_csv, r_grid=radii, dims=list(spectra),
        table=profile_curve(list(spectra.values()), spec.mu, radii, spec.D))})


def cmd_toy_check(cfg):
    ks = get_int_list(cfg, "toy.k", minimum=1)

    def job(k):
        # the toy's kernel is all exact zero rows and columns: the k-th-power
        # factorization runs on the 2^k-dimensional core and returns the
        # kernel dimension exactly
        vals, kdim = invariant_nonzero_spectrum(build_toy_diagonal(3**k), k)
        s = Spectrum(np.concatenate([vals, np.zeros(kdim, dtype=complex)]), N=3**k)
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

    return [(f"toy-check-k{k}", partial(job, k)) for k in ks], None


def cmd_transport(cfg):
    ks = get_int_list(cfg, "transport.k", minimum=1)
    thetas = get_float_list(cfg, "transport.theta", default=[0.0])
    method = get_str(cfg, "transport.method", default="resolvent",
                     choices={"resolvent", "series"})
    results = {}

    def job(k, i):
        res = results[(k, i)] = transport_result(k, thetas[i], method)
        base = f"transport_k{k}_theta{i}"
        return ({f"{base}.json": partial(write_json, obj=res.as_dict()),
                 f"{base}_T.csv": partial(write_transmission_csv, T=res.T)},
                res.diagnostics)

    return ([(f"transport-k{k}-theta{i}", partial(job, k, i))
             for k in ks for i in range(len(thetas))],
            ("transport-asymptotics", lambda: {"transport_asymptotics.json": partial(
                write_json, obj=transport_asymptotics(list(results.values())))}))


def cmd_classical(cfg):
    spec = get_spec(cfg)
    M = get_int(cfg, "classical.M", default=81, minimum=1)
    t_max = get_int(cfg, "classical.tmax", default=20, minimum=0)
    k = (get_int(cfg, "classical.toy_k", minimum=1)
         if "classical.toy_k" in cfg else None)

    def grids_job():
        grid = escape_grid(spec, M, t_max)
        return {"escape_forward.csv": partial(write_escape_grid_csv, times=grid),
                "escape_backward.csv": partial(write_escape_grid_csv, times=grid.T)}

    def dims_job():
        return {"dimensions.json": partial(write_json, obj=fractal_dimensions(spec))}

    def transfer_job():
        # the k-th-power factorization keeps the defective kernel's
        # scatter out of the nonzero eigenvalues.  |b|^2 is zero exactly
        # where b is, so T's zero rows and columns are the toy's: only the
        # toy's core is squared, and its deleted indices are kernel
        core = _deflate_zero_indices(build_toy_diagonal(3**k))
        vals, kdim = invariant_nonzero_spectrum(transfer_matrix(core), k)
        return {"transfer_report.json": partial(write_json, obj={
            "k": k,
            "nontrivial_eigenvalues": [[z.real, z.imag] for z in vals],
            "kernel_dimension": kdim + 3**k - len(core),
        })}

    jobs = [("escape-grids", grids_job), ("dimensions", dims_job)]
    if k is not None:
        jobs.append(("transfer-spectrum", transfer_job))
    return jobs, None


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


def cmd_manifest(rundir: Path) -> int:
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
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    if args.command == "manifest":
        return cmd_manifest(Path(args.rundir))
    try:
        cfg = load_config(args.config)
        unknown = [key for key in cfg if key not in KEYS]
        if unknown:  # a misspelt key would silently take its default
            raise ConfigError(f"{unknown[0]}: unknown key")
        jobs, step = args.fn(cfg)
        runner = JobRunner(cfg, Path(args.output or cfg.get("output.dir", ".")))
    except ValueError as exc:
        # a verb only reads its keys, so its ValueError is the config's
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    runner.run(jobs)
    if step:
        runner.step(*step)
    return runner.exit_code


if __name__ == "__main__":
    sys.exit(main())
