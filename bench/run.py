"""Benchmark of the openbaker CLI on the paper's four computations.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the program is taken from
`./src`.  Every run is one `python3 -m openbaker.cli` process with the
default `--workers 1`, started when the previous one has exited (a
closed loop with one client), timed from outside with `os.wait4`.  The
workloads are fixed by the paper, so `--seed` changes no input; it is
recorded with the result.

--trace 0 sets up `SETUP_REPEATS` fresh interpreters importing
`openbaker.cli`, then repeats the CLI run as often as it fits in
`--seconds` (at least once) and reports the medians of the end-to-end
metrics.

--trace 1 runs the CLI once untraced, between two traced in-process
replays (`tracer.py`), checks that calls and work repeat exactly between
the two replays and follow the pattern in `layers.py`, and reports the
per-layer metrics; `trace.overhead_s` is the mean traced wall time minus
the untraced one.

Every run's artifacts are checked against the references (`checks.py`).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the metric names and
units are those declared in `BENCHMARK.json`.  `--workload all` runs
every workload, and leaving out `--trace` runs both modes; the last line
then covers all these runs, each metric named `<workload>/<metric>`.
Raw samples, the environment and the spans are written under
`.bench_runs/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import layers
from workloads import WORKLOADS, expected_jobs

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 9
# every process this run starts must have ended by then
DEADLINE_S = 170.0


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


class Bench:
    def __init__(self, root: Path, workload, seed: int):
        self.root = root
        self.workload = workload
        self.deadline = time.monotonic() + DEADLINE_S
        self.rundir = root / ".bench_runs" / workload.name
        self.rundir.mkdir(parents=True, exist_ok=True)
        self.tag = f"seed{seed}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self.refs = checks.load_references()
        self.attempted = 0
        self.failed = 0
        self.problems = []  # failed jobs and failed self-checks

    def spawn(self, argv, log: Path) -> Sample:
        """Run one child to completion and measure it from outside."""
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        return Sample(wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, proc.returncode)

    def probe(self) -> dict:
        log = self.rundir / "envinfo.log"
        sample = self.spawn([sys.executable, str(BENCH_DIR / "envinfo.py")], log)
        if sample.exit_code != 0:
            raise RuntimeError(f"environment probe failed, see {log}")
        env = json.loads(log.read_text().splitlines()[-1])
        if Path(env["openbaker"]).resolve() != (self.root / "src" / "openbaker").resolve():
            raise RuntimeError(f"openbaker imported from {env['openbaker']}, not ./src")
        env["git_commit"] = git_commit(self.root)
        env["source_sha256"] = source_digest(self.root / "src")
        return env

    def setup_seconds(self) -> list:
        argv = [sys.executable, "-c", "import openbaker.cli"]
        log = self.rundir / "setup.log"
        self.spawn(argv, log)  # warm the bytecode and file caches
        samples = [self.spawn(argv, log) for _ in range(SETUP_REPEATS)]
        if any(s.exit_code != 0 for s in samples):
            self.problems.append(f"import openbaker.cli failed, see {log}")
        return [s.wall_s for s in samples]

    def outdir(self, label: str) -> Path:
        out = self.rundir / label
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        return out

    def cli_args(self, out: Path) -> list:
        return [self.workload.verb, str(self.workload.config_path), "-o", str(out)]

    def check(self, out: Path, exit_code: int) -> checks.Outcome:
        outcome = checks.check_run(self.workload, out, exit_code, self.refs)
        self.attempted += outcome.attempted
        self.failed += len(outcome.failures)
        self.problems += [f"{out.name}: {job}: {why}"
                          for job, why in outcome.failures.items()]
        return outcome

    def run_cli(self) -> tuple:
        out = self.outdir("cli")
        sample = self.spawn([sys.executable, "-m", "openbaker.cli",
                             *self.cli_args(out)], self.rundir / "cli.log")
        return sample, self.check(out, sample.exit_code)

    def run_traced(self, i: int) -> tuple:
        out = self.outdir(f"traced{i}")
        stats = self.rundir / f"trace_stats{i}.json"
        spans = self.rundir / f"spans{i}.json"
        stats.unlink(missing_ok=True)
        sample = self.spawn([sys.executable, str(BENCH_DIR / "tracer.py"),
                             str(stats), str(spans), "--", *self.cli_args(out)],
                            self.rundir / f"traced{i}.log")
        self.check(out, sample.exit_code)
        totals = json.loads(stats.read_text())["totals"] if stats.exists() else {}
        if not totals:
            self.problems.append(f"traced replay {i} wrote no trace")
        return sample, totals


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_digest(src: Path) -> str:
    """Digest of the program's sources, which names the code measured where
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def lattice_err_digits(outcome: checks.Outcome) -> float:
    """-log10 of the worst distance to the closed-form lattice (0 when the
    workload computes no toy spectrum)."""
    d = outcome.lattice_max_distance
    return 0.0 if d is None else -math.log10(max(d, sys.float_info.min))


def measure_end_to_end(bench: Bench, seconds: float) -> tuple:
    setup = bench.setup_seconds()
    samples = []
    start = time.monotonic()
    while True:
        sample, _ = bench.run_cli()
        samples.append(sample)
        # stop before a run that, as long as the last, would end too late
        end = time.monotonic() + sample.wall_s
        if end - start > seconds or end > bench.deadline:
            break
    metrics = {
        "wall_s": statistics.median(s.wall_s for s in samples),
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
        "setup_s": statistics.median(setup),
    }
    raw = {"setup_s": setup, "cli": [vars(s) for s in samples]}
    return metrics, raw


def measure_layers(bench: Bench, names: list) -> tuple:
    # the untraced run sits between the traced ones, so that a slow first
    # run or a drift in machine speed does not bias the overhead
    first_sample, first = bench.run_traced(1)
    untraced, outcome = bench.run_cli()
    second_sample, second = bench.run_traced(2)
    # bytes are not compared: the manifest records each job's timing
    counts = {fn: (t["calls"], t.get("work")) for fn, t in first.items()}
    if counts != {fn: (t["calls"], t.get("work")) for fn, t in second.items()}:
        bench.problems.append("calls or work differ between the two traced replays")
    bench.problems += [f"traced call pattern: {e}" for e in
                       layers.call_pattern_errors(bench.workload.name, first)]
    metrics = {}
    for name in names:
        if name == "trace.overhead_s":
            metrics[name] = (first_sample.wall_s + second_sample.wall_s) / 2 - untraced.wall_s
        elif name == "lattice_err_digits":
            metrics[name] = lattice_err_digits(outcome)
        elif name.endswith("_s"):
            metrics[name] = (layers.layer_value(name, first)
                             + layers.layer_value(name, second)) / 2
        else:
            metrics[name] = layers.layer_value(name, first)
    raw = {"untraced": vars(untraced),
           "traced": [vars(first_sample), vars(second_sample)],
           "totals": first}
    return metrics, raw


def run_workload(root: Path, workload, seed: int, seconds: float, trace: int,
                 declared: dict) -> dict:
    """Measure one workload in one mode, print its report and return the result."""
    section = declared["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    bench = Bench(root, workload, seed)
    env = bench.probe()
    if trace:
        values, raw = measure_layers(bench, list(units))
    else:
        values, raw = measure_end_to_end(bench, seconds)
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)}, declared {sorted(units)}")

    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    record = {"workload": workload.name, "seed": seed, "trace": trace,
              "jobs_per_run": sorted(expected_jobs(workload)),
              "environment": env, "problems": bench.problems, "raw": raw,
              "result": result}
    (bench.rundir / f"result_{bench.tag}_trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    for line in bench.problems:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"{workload.name}: {bench.attempted} jobs attempted, {bench.failed} failed, "
          f"fail_frac {bench.failed / max(bench.attempted, 1):g}")
    if not trace:
        print(f"  medians of {len(raw['cli'])} CLI runs and {len(raw['setup_s'])} set-ups")
    for name in units:
        print(f"  {name} = {values[name]:.6g} {units[name]}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: both, one after the other)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "openbaker" / "cli.py").is_file():
        print("bench: run from the root of an openbaker checkout (no src/openbaker)",
              file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.trace is None else (args.trace,)
    results = {(name, trace): run_workload(root, WORKLOADS[name], args.seed,
                                           args.seconds, trace, declared)
               for name in names for trace in traces}
    if len(results) == 1:
        [result] = results.values()
    else:
        # one line for several runs: metric names get their workload as prefix
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value
                        for (name, _), r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
