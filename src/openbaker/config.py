"""Flat key-value run configuration.

Grammar: one `key = value` per line, `#` starts a comment, blank lines
ignored.  Keys are dotted section paths (e.g. `map.D`, `count.radii`).
Lists are comma-separated; `pi` is accepted where an angle is expected.
The full key reference lives in the README.
"""

from __future__ import annotations

import math
from pathlib import Path

from .classical import OpenBakerSpec


class ConfigError(ValueError):
    """Raised for unparseable or inconsistent run configuration."""


def parse_config(text: str) -> dict:
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in cfg:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        cfg[key] = value.strip()
    return cfg


def load_config(path) -> dict:
    return parse_config(Path(path).read_text())


def _lookup(cfg: dict, key: str, default, parse):
    """`parse(cfg[key])`, or `default` for a missing key; a missing key
    without a default is a config error."""
    if key not in cfg:
        if default is not None:
            return default
        raise ConfigError(f"missing required key {key!r}")
    return parse(cfg[key])


def get_str(cfg: dict, key: str, default=None, choices=None) -> str:
    def parse(val):
        if choices and val not in choices:
            raise ConfigError(f"{key}: expected one of {sorted(choices)}, got {val!r}")
        return val
    return _lookup(cfg, key, default, parse)


def get_int(cfg: dict, key: str, default=None, minimum=None) -> int:
    def parse(val):
        try:
            return int(val)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected an integer, got {val!r}") from exc
    value = _lookup(cfg, key, default, parse)
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}")
    return value


def get_float(cfg: dict, key: str, default=None) -> float:
    return _lookup(cfg, key, default, lambda val: _parse_float(val, key))


def _parse_float(token: str, key: str) -> float:
    token = token.strip()
    if token == "pi":
        return math.pi
    try:
        value = float(token)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {token!r}") from exc
    # nan and inf parse as floats but no key means them: a non-finite
    # quasi-energy gives an all-NaN transmission matrix
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {token!r}")
    return value


def get_int_list(cfg: dict, key: str, default=None) -> list:
    def parse(val):
        try:
            return [int(tok) for tok in val.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"{key}: expected comma-separated integers") from exc
    return _lookup(cfg, key, default, parse)


def get_float_list(cfg: dict, key: str, default=None) -> list:
    return _lookup(cfg, key, default, lambda val: [
        _parse_float(tok, key) for tok in val.split(",") if tok.strip()])


def distinct(key: str, values: list) -> list:
    """`values` unchanged, for a list key whose values each name one job
    (spectrum.N, toy.k, transport.k, transport.theta) or one count per
    spectrum (count.radii): an empty list would run no job or write no
    counts and report success, and a repeated value would run the same
    job twice under one name or count the same radius twice, so both
    are rejected."""
    if not values:
        raise ConfigError(f"{key}: expected at least one value")
    seen = set()
    for v in values:
        if v in seen:
            raise ConfigError(f"{key}: repeated value {v!r}")
        seen.add(v)
    return values


def get_spec(cfg: dict) -> OpenBakerSpec:
    """Build the baker spec from map.D and map.kept."""
    D = get_int(cfg, "map.D")
    kept = get_int_list(cfg, "map.kept")
    try:
        return OpenBakerSpec(D, tuple(kept))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def get_job_sizes(cfg: dict, key: str) -> list:
    """Integer job list such as `spectrum.N = 20,100,500`, `toy.k` or
    `transport.k`, one job per value: `distinct`, and each value >= 1."""
    values = distinct(key, get_int_list(cfg, key))
    if any(v < 1 for v in values):
        raise ConfigError(f"{key} values must be >= 1")
    return values
