"""Deterministic on-disk formats: CSV tables and JSON reports.

Floats are written with Python's shortest round-trip representation
(at most 17 significant digits), so identical inputs produce bit-identical
artifacts across runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def fmt(x: float) -> str:
    """Shortest round-trip decimal form of a float."""
    return repr(float(x))


def write_spectrum_csv(path, spectrum) -> None:
    """Spectrum table: re,im,modulus,arg with arg in [0, 2pi)."""
    lines = ["re,im,modulus,arg"]
    for z in spectrum.values:
        arg = float(np.mod(np.angle(z), 2 * np.pi))
        lines.append(f"{fmt(z.real)},{fmt(z.imag)},{fmt(abs(z))},{fmt(arg)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_counts_csv(path, counts) -> None:
    """Counts table: rows of (N, r, count)."""
    lines = ["N,r,count"]
    for N, r, c in counts:
        lines.append(f"{N},{fmt(r)},{c}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_profile_csv(path, r_grid, dims, table) -> None:
    """Rescaled counting profiles, one column per dimension."""
    lines = [",".join(["r"] + [f"N={N}" for N in dims])]
    for i, r in enumerate(r_grid):
        lines.append(",".join([fmt(r)] + [fmt(x) for x in table[i]]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_escape_grid_csv(path, times) -> None:
    """Escape-time grid: header i,j,escape_time with -1 encoding trapped."""
    lines = ["i,j,escape_time"]
    for i, row in enumerate(times):
        for j, t in enumerate(row):
            lines.append(f"{i},{j},{t}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_transmission_csv(path, T) -> None:
    """Transmission eigenvalues, one per line, for histogramming."""
    lines = ["T"] + [fmt(x) for x in T]
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
