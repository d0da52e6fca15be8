"""Output checks for one CLI run, needing no dense recomputation.

A job fails when the CLI exits non-zero without naming a failed job, when
the manifest lists it as failed or omits it, when one of its artifacts is
missing, or when an artifact disagrees with the reference.

References (`references.json`) were pinned from commit 34cfc7d by
`pin_references.py`.  `count` and `toy-check` artifacts repeat byte for
byte, but transport results differ between two runs of the same code by
about 1e-14 relative at k=6 under two BLAS threads, so transport is
compared within a tolerance instead.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Workload, expected_jobs, float_list, int_list

REFERENCES = Path(__file__).resolve().parent / "references.json"

# Series and resolvent agree to ~1e-12 at k <= 6; 1e-9 leaves room for
# reordered sums without letting a wrong transmission matrix through.
TRANSPORT_REL_TOL = 1e-9
TRANSMISSION_ABS_TOL = 1e-9
# At N=2500, r=0.001 the count includes the pseudospectral scatter of
# the defective kernel, so it is recorded but not gated.
UNGATED_COUNTS = {(2500, 0.001)}


@dataclass
class Outcome:
    attempted: int
    failures: dict = field(default_factory=dict)  # job name -> reason
    lattice_max_distance: float | None = None


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def check_run(workload: Workload, outdir: Path, exit_code: int,
              refs: dict) -> Outcome:
    jobs = expected_jobs(workload)
    out = Outcome(attempted=len(jobs))
    try:
        manifest = json.loads((outdir / "manifest.json").read_text())
        status = {j["name"]: j for j in manifest["jobs"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        out.failures = {name: f"no readable manifest: {exc}" for name in jobs}
        return out
    for name, artifacts in jobs.items():
        entry = status.get(name)
        if entry is None:
            reason = "missing from manifest"
        elif entry.get("status") != "ok":
            reason = f"manifest status {entry.get('status')}: {entry.get('error')}"
        elif not all((outdir / a).is_file() for a in artifacts):
            reason = "missing artifact"
        else:
            try:
                reason = _check_job(workload, name, outdir, refs, out)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"unreadable artifact: {exc!r}"
        if reason:
            out.failures[name] = reason
    if exit_code != 0 and not out.failures:
        out.failures = {name: f"exit code {exit_code}" for name in jobs}
    return out


def _check_job(workload, name, outdir, refs, out) -> str | None:
    if workload.verb == "count":
        if name == "counts":
            return _check_counts(outdir / "counts.csv", refs["count"])
        return _check_spectrum(workload, name, outdir)
    if workload.verb == "toy-check":
        return _check_toy(outdir / f"toy_check_{name.rsplit('-', 1)[1]}.json", out)
    if name == "transport-asymptotics":
        return _check_asymptotics(workload, outdir / "transport_asymptotics.json",
                                  refs["transport"])
    return _check_transport(workload, name, outdir, refs["transport"])


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_spectrum(workload, name, outdir) -> str | None:
    N = int(name.split("-N")[1])
    parity = workload.config().get("spectrum.parity", "full")
    rows = _rows(outdir / f"spectrum_N{N}_{parity}.csv")
    expected = N if parity == "full" else N // 2
    if len(rows) != expected:
        return f"{len(rows)} eigenvalues, expected {expected}"
    moduli = [float(r["modulus"]) for r in rows]
    if not all(math.isfinite(m) and m <= 1.0 + 1e-9 for m in moduli):
        return "eigenvalue outside the unit disk"
    return None


def _check_counts(path: Path, ref: dict) -> str | None:
    got = {(int(r["N"]), float(r["r"])): int(r["count"]) for r in _rows(path)}
    want = {(N, r): c for N, r, c in ref["counts"]}
    if set(got) != set(want):
        return f"count table covers {sorted(got)}, expected {sorted(want)}"
    bad = [(key, got[key], c) for key, c in want.items()
           if key not in UNGATED_COUNTS and got[key] != c]
    return f"counts differ (key, got, want): {bad}" if bad else None


def _check_toy(path: Path, out: Outcome) -> str | None:
    rep = json.loads(path.read_text())
    k = rep["k"]
    out.lattice_max_distance = max(out.lattice_max_distance or 0.0,
                                   rep["max_distance"])
    if rep["unmatched"] != 0:
        return f"{rep['unmatched']} eigenvalues off the closed-form lattice"
    if rep["kernel_dimension"] != 3**k - 2**k:
        return f"kernel dimension {rep['kernel_dimension']}, expected {3**k - 2**k}"
    rings = {str(p): math.comb(k, p) for p in range(k + 1)}
    if rep["ring_totals"] != rings:
        return f"ring totals {rep['ring_totals']}, expected {rings}"
    return None


def reference_key(k, theta) -> str:
    return f"{int(k)}:{float(theta)!r}"


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= TRANSPORT_REL_TOL * max(abs(want), 1e-300)


def _compare_summary(row: dict, ref: dict) -> str | None:
    for q in ("g", "P", "F"):
        if not _close(row[q], ref[q]):
            return f"{q} = {row[q]!r}, reference {ref[q]!r}"
    return None


def _check_transport(workload, name, outdir, refs) -> str | None:
    k, i = (int(part) for part in name[len("transport-k"):].split("-theta"))
    theta = float_list(workload.config(), "transport.theta")[i]
    ref = refs[reference_key(k, theta)]
    res = json.loads((outdir / f"transport_k{k}_theta{i}.json").read_text())
    if res["k"] != k or res["theta"] != theta:
        return f"result is for k={res['k']}, theta={res['theta']}"
    bad = _compare_summary(res, ref)
    if bad:
        return bad
    T = res["T"]
    if len(T) != len(ref["T"]) or any(abs(a - b) > TRANSMISSION_ABS_TOL
                                      for a, b in zip(T, ref["T"])):
        return "transmission eigenvalues differ from the reference"
    csv_T = [float(r["T"]) for r in _rows(outdir / f"transport_k{k}_theta{i}_T.csv")]
    if csv_T != T:
        return "T csv disagrees with the json result"
    return None


def _check_asymptotics(workload, path: Path, refs: dict) -> str | None:
    cfg = workload.config()
    want = sorted(reference_key(k, t) for k in int_list(cfg, "transport.k")
                  for t in float_list(cfg, "transport.theta"))
    rows = json.loads(path.read_text())["rows"]
    got = sorted(reference_key(row["k"], row["theta"]) for row in rows)
    if got != want:
        return f"rows cover {got}, expected {want}"
    for row in rows:
        bad = _compare_summary(row, refs[reference_key(row["k"], row["theta"])])
        if bad:
            return f"k={row['k']} theta={row['theta']}: {bad}"
    return None
