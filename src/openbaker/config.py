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


# Every key a verb reads.  A config is shared between verbs, so a key
# that one verb ignores is allowed; any other key is a config error.
KEYS = frozenset({
    "map.family", "map.D", "map.kept", "map.variant",
    "spectrum.N", "spectrum.parity", "count.radii", "sector.theta",
    "sector.rho", "weyl.r", "profile.radii", "toy.k",
    "transport.k", "transport.theta", "transport.method",
    "classical.M", "classical.tmax", "classical.toy_k", "output.dir",
})


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
    try:
        return parse_config(Path(path).read_text())
    except OSError as exc:  # missing, a directory, or not readable
        raise ConfigError(f"config file {path}: {exc.strerror}") from exc


def _keyed(key: str, check, *args):
    """`check(*args)`, whose ValueError is re-raised as a config error
    that names `key`."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _lookup(cfg: dict, key: str, default, parse):
    """`parse(cfg[key])`, or `default` for a missing key; a missing key
    without a default, or a value `parse` refuses, is a config error."""
    if key not in cfg:
        if default is not None:
            return default
        raise ConfigError(f"{key}: missing required key")
    return _keyed(key, parse, cfg[key])


def get_str(cfg: dict, key: str, default=None, choices=None) -> str:
    def parse(val):
        if choices and val not in choices:
            raise ValueError(f"expected one of {sorted(choices)}, got {val!r}")
        return val
    return _lookup(cfg, key, default, parse)


def get_int(cfg: dict, key: str, default=None, minimum=None) -> int:
    return _lookup(cfg, key, default, lambda val: _parse_int(val, minimum))


def _parse_int(token: str, minimum) -> int:
    try:
        value = int(token)
    except ValueError as exc:
        raise ValueError(f"expected an integer, got {token.strip()!r}") from exc
    if minimum is not None and value < minimum:
        raise ValueError(f"must be >= {minimum}, got {value}")
    return value


def get_float(cfg: dict, key: str, default=None) -> float:
    return _lookup(cfg, key, default, _parse_float)


def _parse_float(token: str) -> float:
    token = token.strip()
    if token == "pi":
        return math.pi
    try:
        value = float(token)
    except ValueError as exc:
        raise ValueError(f"expected a number, got {token!r}") from exc
    # nan and inf parse as floats but no key means them: a non-finite
    # quasi-energy gives an all-NaN transmission matrix
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {token!r}")
    return value


def get_int_list(cfg: dict, key: str, default=None, minimum=None) -> list:
    return _lookup(cfg, key, default,
                   lambda val: _parse_list(val, lambda tok: _parse_int(tok, minimum)))


def get_float_list(cfg: dict, key: str, default=None) -> list:
    return _lookup(cfg, key, default, lambda val: _parse_list(val, _parse_float))


def _parse_list(val: str, parse) -> list:
    """The comma-separated items of `val`, each read by `parse`.  Every
    list key names one job per value (spectrum.N, toy.k, transport.k,
    transport.theta), one count or profile row per value (count.radii,
    profile.radii) or one kept branch per value (map.kept): an empty list
    would run no job or write an empty artifact and report success, an
    empty item among others (`20,,100`, `20,100,`) is a mistyped list,
    and a repeated value would run the same job twice under one name or
    count the same radius twice, so all three are rejected."""
    tokens = [tok.strip() for tok in val.split(",")]
    if not all(tokens):
        raise ValueError("empty list item" if any(tokens) else "expected at least one value")
    values = [parse(tok) for tok in tokens]
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ValueError(f"repeated value {v!r}")
    return values


def get_spec(cfg: dict) -> OpenBakerSpec:
    """Build the baker spec from map.D and map.kept; with D checked here,
    every error of the spec is one of map.kept."""
    D = get_int(cfg, "map.D", minimum=2)
    return _keyed("map.kept", OpenBakerSpec, D, get_int_list(cfg, "map.kept"))
