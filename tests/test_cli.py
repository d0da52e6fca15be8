"""Configuration parsing, on-disk formats, and the batch CLI front end."""

import ast
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import openbaker
from openbaker import cli, quantize
from openbaker.classical import OpenBakerSpec
from openbaker.cli import main
from openbaker.config import (KEYS, ConfigError, get_float, get_float_list,
                              get_int, get_int_list, get_spec, get_str,
                              parse_config)
from openbaker.serialize import fmt, write_spectrum_csv
from openbaker.spectral import Spectrum
from openbaker.transforms import MAX_DENSE_DIM
from openbaker.transport import transport_asymptotics, transport_result
from reference import read_spectrum_csv

ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------- config

def test_parse_config_basics():
    cfg = parse_config("a.b = 3  # trailing comment\n\n# full comment\nc=x,y\n")
    assert cfg == {"a.b": "3", "c": "x,y"}


def test_parse_config_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_config("just words\n")
    with pytest.raises(ConfigError):
        parse_config("a = 1\na = 2\n")
    with pytest.raises(ConfigError):
        parse_config(" = 2\n")


def test_typed_getters():
    cfg = parse_config("n = 7\nx = 2.5\nangle = pi\nlist = 1.0, 0.5\nname = walsh\n")
    assert get_int(cfg, "n") == 7
    assert get_float(cfg, "x") == 2.5
    assert get_float(cfg, "angle") == pytest.approx(3.14159265, abs=1e-6)
    assert get_float_list(cfg, "list") == [1.0, 0.5]
    assert get_str(cfg, "name", choices={"walsh", "dft"}) == "walsh"
    assert get_int(cfg, "missing", default=4) == 4
    with pytest.raises(ConfigError):
        get_int(cfg, "x")
    with pytest.raises(ConfigError):
        get_str(cfg, "name", choices={"dft"})
    with pytest.raises(ConfigError):
        get_float(cfg, "missing")


def test_getters_name_the_key_of_a_bad_value():
    cfg = parse_config("x = abc\nlist = 1,x\nn = 3\n")
    with pytest.raises(ConfigError, match="x: expected a number, got 'abc'"):
        get_float(cfg, "x")
    with pytest.raises(ConfigError, match="list: expected an integer, got 'x'"):
        get_int_list(cfg, "list")
    assert get_int(cfg, "n", minimum=3) == 3
    with pytest.raises(ConfigError, match="n: must be >= 4, got 3"):
        get_int(cfg, "n", minimum=4)


def test_float_getters_reject_non_finite():
    cfg = parse_config("a = nan\nb = inf\nc = -inf\nlist = 0.5, NaN\n")
    for key in ("a", "b", "c"):
        with pytest.raises(ConfigError, match=f"{key}: expected a finite"):
            get_float(cfg, key)
    with pytest.raises(ConfigError, match="list: expected a finite"):
        get_float_list(cfg, "list")


def test_get_spec_and_dimensions():
    cfg = parse_config("map.D = 5\nmap.kept = 1,3\nspectrum.N = 20,100,500\n")
    spec = get_spec(cfg)
    assert spec.D == 5 and spec.kept == (1, 3)
    assert get_int_list(cfg, "spectrum.N", minimum=1) == [20, 100, 500]
    cfg2 = parse_config("spectrum.N = 9, 27\n")
    assert get_int_list(cfg2, "spectrum.N", minimum=1) == [9, 27]
    with pytest.raises(ConfigError, match="spectrum.N"):
        get_int_list(parse_config("x = 1\n"), "spectrum.N", minimum=1)
    with pytest.raises(ConfigError, match="spectrum.N: must be >= 1, got 0"):
        get_int_list(parse_config("spectrum.N = 9, 0\n"), "spectrum.N",
                     minimum=1)
    with pytest.raises(ConfigError):
        get_spec(parse_config("map.D = 3\nmap.kept = 5\n"))


def test_distinct_rejects_a_repeated_value_by_key():
    # both list getters refuse a repeat, for every key they read
    cfg = parse_config("toy.k = 3, 1, 2\ntransport.theta = 0.0, 0.3, 0.30\n"
                       "spectrum.N = 9, 27, 9\nmap.kept = 1, 1\n")
    assert get_int_list(cfg, "toy.k") == [3, 1, 2]
    with pytest.raises(ConfigError, match="transport.theta: repeated value 0.3"):
        get_float_list(cfg, "transport.theta")
    with pytest.raises(ConfigError, match="spectrum.N: repeated value 9"):
        get_int_list(cfg, "spectrum.N", minimum=1)
    with pytest.raises(ConfigError, match="map.kept: repeated value 1"):
        get_spec(parse_config("map.D = 3\nmap.kept = 1, 1\n"))


def test_distinct_rejects_an_empty_list_by_key():
    cfg = parse_config("toy.k =\nspectrum.N = ,\nprofile.radii =\n")
    with pytest.raises(ConfigError, match="toy.k: expected at least one value"):
        get_int_list(cfg, "toy.k")
    with pytest.raises(ConfigError, match="spectrum.N: expected at least one"):
        get_int_list(cfg, "spectrum.N", minimum=1)
    with pytest.raises(ConfigError, match="profile.radii: expected at least one"):
        get_float_list(cfg, "profile.radii")
    with pytest.raises(ConfigError, match="map.kept: expected at least one"):
        get_spec(parse_config("map.D = 3\nmap.kept =\n"))


@pytest.mark.parametrize("value", ["20,,100", "20, ,100", "20,100,", ",20"])
def test_list_getters_reject_an_empty_item_by_key(value):
    # one mistyped comma would otherwise drop a value without a word
    cfg = parse_config(f"spectrum.N = {value}\nprofile.radii = {value}\n")
    with pytest.raises(ConfigError, match="^spectrum.N: empty list item$"):
        get_int_list(cfg, "spectrum.N", minimum=1)
    with pytest.raises(ConfigError, match="^profile.radii: empty list item$"):
        get_float_list(cfg, "profile.radii")


# ------------------------------------------------------------- serialize

def test_fmt_is_shortest_roundtrip():
    assert fmt(0.1) == "0.1"
    assert float(fmt(1 / 3)) == 1 / 3


def test_spectrum_csv_roundtrip(tmp_path):
    vals = np.array([1.0, 0.5j, -0.25 + 0.1j])
    s = Spectrum(vals, N=3)
    path = tmp_path / "s.csv"
    write_spectrum_csv(path, s)
    back = read_spectrum_csv(path)
    assert np.array_equal(back, s.values)
    header = path.read_text().splitlines()[0]
    assert header == "re,im,modulus,arg"


# ------------------------------------------------------------------- CLI

def write_cfg(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


def assert_lists_what_it_wrote(out):
    # the manifest's outputs are exactly the files the run wrote besides
    # itself, and every entry's outputs name files that exist
    manifest = json.loads((out / "manifest.json").read_text())
    written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert manifest["outputs"] == written
    for entry in manifest["jobs"]:
        assert entry["outputs"] and set(entry["outputs"]) <= set(written)


def test_cli_spectrum_writes_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, "map.family = walsh\nmap.D = 3\nmap.kept = 0,2\n"
                              "spectrum.N = 9,27\n")
    out = tmp_path / "out"
    assert main(["spectrum", cfg, "-o", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "openbaker"
    assert {j["status"] for j in manifest["jobs"]} == {"ok"}
    assert_lists_what_it_wrote(out)
    assert len(read_spectrum_csv(out / "spectrum_N9_full.csv")) == 9


def test_cli_count_and_weyl(tmp_path):
    base = ("map.family = dft\nmap.D = 3\nmap.kept = 0,2\n"
            "spectrum.N = 9,27,81\nspectrum.parity = full\n")
    cfg = write_cfg(tmp_path, base + "count.radii = 0.5,0.1\n")
    out = tmp_path / "counts"
    assert main(["count", cfg, "-o", str(out)]) == 0
    rows = (out / "counts.csv").read_text().strip().splitlines()
    assert rows[0] == "N,r,count"
    assert len(rows) == 1 + 3 * 2
    assert_lists_what_it_wrote(out)

    cfg2 = write_cfg(tmp_path, base + "weyl.r = 0.1\n")
    out2 = tmp_path / "weyl"
    assert main(["weyl", cfg2, "-o", str(out2)]) == 0
    fit = json.loads((out2 / "weyl_fit.json").read_text())
    assert 0.0 < fit["slope"] < 1.0
    assert len(fit["doubling_ratios"]) == 2
    assert_lists_what_it_wrote(out2)


def test_cli_profile(tmp_path):
    cfg = write_cfg(tmp_path, "map.family = dft\nmap.D = 3\nmap.kept = 0,2\n"
                              "spectrum.N = 9,27\n"
                              "profile.radii = 0.1,0.3,0.5\n")
    out = tmp_path / "out"
    assert main(["profile", cfg, "-o", str(out)]) == 0
    lines = (out / "profile.csv").read_text().strip().splitlines()
    assert lines[0] == "r,N=9,N=27"
    assert len(lines) == 4
    assert_lists_what_it_wrote(out)


def test_cli_toy_check(tmp_path):
    cfg = write_cfg(tmp_path, "map.D = 3\nmap.kept = 0,2\ntoy.k = 1,3\n")
    out = tmp_path / "out"
    assert main(["toy-check", cfg, "-o", str(out)]) == 0
    rep = json.loads((out / "toy_check_k3.json").read_text())
    assert rep["unmatched"] == 0
    assert rep["kernel_dimension"] == rep["expected_kernel_dimension"] == 19
    assert_lists_what_it_wrote(out)


def test_cli_transport(tmp_path):
    cfg = write_cfg(tmp_path, "transport.k = 1,2\ntransport.theta = 0.0,0.3\n")
    out = tmp_path / "out"
    assert main(["transport", cfg, "-o", str(out)]) == 0
    rep = json.loads((out / "transport_asymptotics.json").read_text())
    assert len(rep["rows"]) == 4
    assert [s["k"] for s in rep["theta_spread"]] == [1, 2]
    # the artifact is the library summary of the same (k, theta) results
    lib = transport_asymptotics([transport_result(k, t) for k in (1, 2)
                                 for t in (0.0, 0.3)])
    assert rep["rows"] == json.loads(json.dumps(lib["rows"]))
    assert (out / "transport_k2_theta1_T.csv").exists()
    assert_lists_what_it_wrote(out)


def test_cli_transport_post_step_over_failed_job_is_partial(tmp_path, capsys):
    # k = 8 exceeds the dense cap: its job fails, and the
    # asymptotics report built from k = 1 alone must name the missing job
    cfg = write_cfg(tmp_path, "transport.k = 1,8\ntransport.theta = 0.0\n")
    out = tmp_path / "out"
    assert main(["transport", cfg, "-o", str(out)]) == 2
    jobs = {j["name"]: j for j in
            json.loads((out / "manifest.json").read_text())["jobs"]}
    assert jobs["transport-k8-theta0"]["status"] == "failed"
    step = jobs["transport-asymptotics"]
    assert step["status"] == "partial"
    assert step["missing_jobs"] == ["transport-k8-theta0"]
    assert set(step) == {"name", "status", "outputs", "seconds", "missing_jobs"}
    rep = json.loads((out / "transport_asymptotics.json").read_text())
    assert [row["k"] for row in rep["rows"]] == [1]
    capsys.readouterr()
    assert main(["manifest", str(out)]) == 2
    printed = capsys.readouterr()
    assert "missing jobs: ['transport-k8-theta0']" in printed.out
    assert "'transport-asymptotics'" in printed.err


def test_cli_transport_step_over_only_failed_jobs_is_partial(tmp_path, capsys):
    # every job fails the dense cap; the asymptotics step still
    # runs, writes an empty report and names both jobs as missing
    cfg = write_cfg(tmp_path, "transport.k = 8\ntransport.theta = 0.0,0.3\n")
    out = tmp_path / "out"
    assert main(["transport", cfg, "-o", str(out)]) == 2
    jobs = {j["name"]: j for j in
            json.loads((out / "manifest.json").read_text())["jobs"]}
    assert {jobs[f"transport-k8-theta{i}"]["status"] for i in (0, 1)} == {"failed"}
    step = jobs["transport-asymptotics"]
    assert step["status"] == "partial"
    assert step["missing_jobs"] == ["transport-k8-theta0", "transport-k8-theta1"]
    assert step["outputs"] == ["transport_asymptotics.json"]
    rep = json.loads((out / "transport_asymptotics.json").read_text())
    assert rep["rows"] == rep["theta_spread"] == []
    assert "step transport-asymptotics" not in capsys.readouterr().err


def test_cli_series_jobs_record_series_diagnostics(tmp_path, capsys):
    # each series job records its term count and last-term norm; every
    # transport job records its closed-form channels and the shape of the
    # trapped columns of t that were decomposed
    cfg = write_cfg(tmp_path, "transport.k = 2,3\ntransport.theta = 0.3\n"
                              "transport.method = series\n")
    out = tmp_path / "out"
    assert main(["transport", cfg, "-o", str(out)]) == 0
    jobs = {j["name"]: j for j in
            json.loads((out / "manifest.json").read_text())["jobs"]}
    for k in (2, 3):
        diag = jobs[f"transport-k{k}-theta0"]["diagnostics"]
        assert diag == transport_result(k, 0.3, "series").diagnostics
        assert set(diag) == {"series_terms", "series_tail_norm",
                             "closed_form_channels", "svd_shape"}
        assert 0.0 < diag["series_tail_norm"] < 1e-12
    assert diag["series_terms"] == 106
    assert "diagnostics" not in jobs["transport-asymptotics"]
    capsys.readouterr()
    assert main(["manifest", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "    series_terms: 106\n" in printed
    assert printed.count("series_tail_norm: ") == 2
    # at k = 3, 6 lead-1 channels are transmitted and 6 reflected whole;
    # only the 4 trapped ones reach the SVD
    assert "    closed_form_channels: [6, 6]\n" in printed
    assert "    svd_shape: [16, 4]\n" in printed
    assert_lists_what_it_wrote(out)
    resolvent = tmp_path / "resolvent"
    cfg = write_cfg(tmp_path, "transport.k = 2\ntransport.theta = 0.3\n")
    assert main(["transport", cfg, "-o", str(resolvent)]) == 0
    jobs = {j["name"]: j for j in
            json.loads((resolvent / "manifest.json").read_text())["jobs"]}
    assert jobs["transport-k2-theta0"]["diagnostics"] == {
        "solve_dim": 4, "closed_form_channels": [1, 1], "svd_shape": [4, 2]}
    assert "diagnostics" not in jobs["transport-asymptotics"]
    capsys.readouterr()
    assert main(["manifest", str(resolvent)]) == 0
    printed = capsys.readouterr().out
    assert "    solve_dim: 4\n" in printed
    assert "    closed_form_channels: [1, 1]\n" in printed
    assert "    svd_shape: [4, 2]\n" in printed
    assert_lists_what_it_wrote(resolvent)


def test_cli_classical(tmp_path):
    cfg = write_cfg(tmp_path, "map.D = 3\nmap.kept = 0,2\nclassical.M = 27\n"
                              "classical.tmax = 8\nclassical.toy_k = 2\n")
    out = tmp_path / "out"
    assert main(["classical", cfg, "-o", str(out)]) == 0
    dims = json.loads((out / "dimensions.json").read_text())
    assert dims["tau_dwell"] == 3.0
    transfer = json.loads((out / "transfer_report.json").read_text())
    assert len(transfer["nontrivial_eigenvalues"]) >= 1
    grid = (out / "escape_forward.csv").read_text().splitlines()
    assert grid[0] == "i,j,escape_time"
    assert len(grid) == 1 + 27 * 27
    assert_lists_what_it_wrote(out)


@pytest.mark.parametrize("k", [3, 5])
def test_cli_classical_transfer_spectrum_is_exact(tmp_path, k):
    # [PAPER] the toy transfer matrix has the single nonzero eigenvalue
    # 2/3 and a kernel of dimension 3^k - 1, with no kernel scatter listed
    cfg = write_cfg(tmp_path, "map.D = 3\nmap.kept = 0,2\nclassical.M = 9\n"
                              f"classical.tmax = 4\nclassical.toy_k = {k}\n")
    out = tmp_path / "out"
    assert main(["classical", cfg, "-o", str(out)]) == 0
    transfer = json.loads((out / "transfer_report.json").read_text())
    assert len(transfer["nontrivial_eigenvalues"]) == 1
    re, im = transfer["nontrivial_eigenvalues"][0]
    assert abs(complex(re, im) - 2 / 3) < 1e-10
    assert transfer["kernel_dimension"] == 3**k - 1


def test_cli_spectrum_jobs_record_eigensolve_diagnostics(tmp_path, capsys):
    # the benchmark's weyl-count config: the N=2500 even sector is
    # eigensolved on its 500-dimensional core, and the manifest says so
    cfg = write_cfg(tmp_path, "map.family = dft\nmap.D = 5\nmap.kept = 1,3\n"
                              "spectrum.N = 20,100,500,2500\n"
                              "spectrum.parity = even\n"
                              "count.radii = 0.5,0.1,0.05,0.01,0.005,0.001\n")
    out = tmp_path / "out"
    assert main(["count", cfg, "-o", str(out)]) == 0
    jobs = {j["name"]: j for j in
            json.loads((out / "manifest.json").read_text())["jobs"]}
    for N in (20, 100, 500, 2500):
        diag = jobs[f"spectrum-N{N}"]["diagnostics"]
        assert diag["eig_dim"] == N // 5
        assert 0.0 < diag["max_residual_rel"] < 1e-8
    assert "diagnostics" not in jobs["counts"]
    assert len(read_spectrum_csv(out / "spectrum_N2500_even.csv")) == 1250
    # the exact counts the benchmark gates, at the same 23 entries: the
    # (2500, 0.001) count includes the defective kernel's pseudospectral
    # scatter and is recorded but not gated
    got = {(int(N), float(r)): int(c) for N, r, c in
           (row.split(",") for row in
            (out / "counts.csv").read_text().strip().splitlines()[1:])}
    refs = json.loads((ROOT / "bench" / "references.json").read_text())
    want = {(N, r): c for N, r, c in refs["count"]["counts"]}
    assert set(got) == set(want)
    del got[2500, 0.001], want[2500, 0.001]
    assert got == want
    capsys.readouterr()
    assert main(["manifest", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "    eig_dim: 500\n" in printed
    assert printed.count("max_residual_rel: ") == 4


def test_cli_post_step_seconds_cover_the_step(tmp_path, monkeypatch):
    # the counts step runs after the spectrum jobs, and in the count verb
    # only it calls count_sector; its manifest entry must time it instead
    # of reporting zero
    real_count = cli.count_sector

    def slow_count(*args):
        time.sleep(0.05)
        return real_count(*args)

    monkeypatch.setattr(cli, "count_sector", slow_count)
    cfg = write_cfg(tmp_path, "map.family = walsh\nmap.D = 3\nmap.kept = 0,2\n"
                              "spectrum.N = 9,27\ncount.radii = 0.5\n")
    out = tmp_path / "out"
    assert main(["count", cfg, "-o", str(out)]) == 0
    jobs = {j["name"]: j for j in
            json.loads((out / "manifest.json").read_text())["jobs"]}
    assert jobs["counts"]["seconds"] >= 0.05


def test_cli_manifest_inspection(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "map.family = walsh\nmap.D = 3\nmap.kept = 0,2\n"
                              "spectrum.N = 9\n")
    out = tmp_path / "out"
    assert main(["spectrum", cfg, "-o", str(out)]) == 0
    assert main(["manifest", str(out)]) == 0
    assert "1 jobs" in capsys.readouterr().out
    # a missing artifact is reported with exit code 2
    (out / "spectrum_N9_full.csv").unlink()
    assert main(["manifest", str(out)]) == 2
    assert main(["manifest", str(tmp_path / "nowhere")]) == 1


@pytest.mark.parametrize("damage", ["truncated", "job-without-status"])
def test_cli_manifest_reports_an_unreadable_manifest(tmp_path, capsys, damage):
    cfg = write_cfg(tmp_path, "map.family = walsh\nmap.D = 3\nmap.kept = 0,2\n"
                              "spectrum.N = 9\n")
    out = tmp_path / "out"
    assert main(["spectrum", cfg, "-o", str(out)]) == 0
    path = out / "manifest.json"
    text = path.read_text()
    if damage == "truncated":
        path.write_text(text[:len(text) // 2])
    else:
        manifest = json.loads(text)
        del manifest["jobs"][0]["status"]
        path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["manifest", str(out)]) == 1
    captured = capsys.readouterr()
    assert f"unreadable manifest at {path}: " in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("variant", ["V", "W"])
def test_cli_dft_family_rejects_a_variant(tmp_path, capsys, variant):
    # the DFT quantization has no variant: a map.variant would be ignored
    # and the spectra written as if it had been read
    cfg = write_cfg(tmp_path, "map.family = dft\nmap.D = 3\nmap.kept = 0,2\n"
                              f"spectrum.N = 9\nmap.variant = {variant}\n")
    out = tmp_path / "out"
    assert main(["spectrum", cfg, "-o", str(out)]) == 1
    assert "config error: map.variant" in capsys.readouterr().err
    assert not out.exists()


def test_cli_invalid_config_exits_1(tmp_path, capsys):
    # "toy" named the B3 "W" walsh map a second time and is gone
    for family in ("warp", "toy"):
        cfg = write_cfg(tmp_path, f"map.family = {family}\nmap.D = 3\n"
                                  "map.kept = 0,2\nspectrum.N = 9\n")
        assert main(["spectrum", cfg, "-o", str(tmp_path / "o")]) == 1
        assert ("config error: map.family: expected one of ['dft', 'walsh']"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()
    assert main(["spectrum", str(tmp_path / "missing.cfg"),
                 "-o", str(tmp_path / "o")]) == 1


def test_cli_refuses_a_directory_as_config(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["count", str(tmp_path), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config file {tmp_path}: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_refuses_an_existing_file_as_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "toy.k = 2\n")
    out = tmp_path / "taken"
    out.write_text("kept\n")
    assert main(["toy-check", cfg, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: output directory {out}: ")
    assert "Traceback" not in err
    assert out.read_text() == "kept\n"


def test_cli_failing_job_exits_2(tmp_path, capsys):
    # N = 10 is not a power of 3: the walsh job fails, siblings succeed
    cfg = write_cfg(tmp_path, "map.family = walsh\nmap.D = 3\nmap.kept = 0,2\n"
                              "spectrum.N = 9,10\n")
    out = tmp_path / "out"
    assert main(["spectrum", cfg, "-o", str(out)]) == 2
    message = "walsh family needs N = 3^k, got 10"
    assert f"job spectrum-N10 failed: {message}" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    statuses = {j["name"]: j["status"] for j in manifest["jobs"]}
    assert statuses == {"spectrum-N9": "ok", "spectrum-N10": "failed"}
    failed = {j["name"]: j for j in manifest["jobs"]}["spectrum-N10"]
    assert failed["error"] == message
    assert failed["outputs"] == []
    assert (out / "spectrum_N9_full.csv").exists()


def test_cli_dimensions_are_given_only_by_spectrum_N(tmp_path, capsys):
    # spectrum.N0 + spectrum.kmax is no second spelling of the list: its
    # first key is refused before the missing spectrum.N is noticed
    cfg = write_cfg(tmp_path, "map.family = dft\nmap.D = 3\nmap.kept = 0,2\n"
                              "spectrum.N0 = 9\nspectrum.kmax = 1\n")
    out = tmp_path / "out"
    assert main(["spectrum", cfg, "-o", str(out)]) == 1
    assert capsys.readouterr().err == "config error: spectrum.N0: unknown key\n"
    assert not out.exists()


def test_cli_count_requires_radii(tmp_path, capsys):
    # without count.radii the count verb would write no counts.csv
    cfg = write_cfg(tmp_path, "map.family = walsh\nmap.D = 3\nmap.kept = 0,2\n"
                              "spectrum.N = 9\n")
    out = tmp_path / "out"
    assert main(["count", cfg, "-o", str(out)]) == 1
    assert "config error: count.radii: missing required key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb,step", [("count", "counts"), ("weyl", "weyl-fit"),
                                       ("profile", "profile")])
def test_cli_post_step_over_failed_job_is_partial(tmp_path, capsys, verb, step):
    # N = 21 is not a multiple of D = 5: its spectrum job fails, and the
    # step built from the surviving spectra must say what it is missing
    cfg = write_cfg(tmp_path, "map.family = dft\nmap.D = 5\nmap.kept = 1,3\n"
                              "spectrum.N = 20,21,100\nspectrum.parity = even\n"
                              "count.radii = 0.1\nweyl.r = 0.1\n"
                              "profile.radii = 0.1\n")
    out = tmp_path / "out"
    assert main([verb, cfg, "-o", str(out)]) == 2
    jobs = {j["name"]: j for j in
            json.loads((out / "manifest.json").read_text())["jobs"]}
    assert jobs["spectrum-N21"]["status"] == "failed"
    assert jobs[step]["status"] == "partial"
    assert jobs[step]["missing_jobs"] == ["spectrum-N21"]
    capsys.readouterr()
    assert main(["manifest", str(out)]) == 2
    assert "missing jobs: ['spectrum-N21']" in capsys.readouterr().out


def test_cli_profile_without_a_surviving_dimension(tmp_path):
    # N = 21 fails, so the profile has only its radius column: no
    # trailing comma and no unnamed empty column
    cfg = write_cfg(tmp_path, "map.family = dft\nmap.D = 5\nmap.kept = 1,3\n"
                              "spectrum.N = 21\nspectrum.parity = even\n"
                              "profile.radii = 0.1,0.3\n")
    out = tmp_path / "out"
    assert main(["profile", cfg, "-o", str(out)]) == 2
    assert (out / "profile.csv").read_text() == "r\n0.1\n0.3\n"
    jobs = {j["name"]: j for j in
            json.loads((out / "manifest.json").read_text())["jobs"]}
    assert jobs["profile"]["status"] == "partial"
    assert jobs["profile"]["missing_jobs"] == ["spectrum-N21"]


def test_cli_failed_weyl_fit_is_recorded(tmp_path, capsys):
    # one dimension gives one point: the fit fails, and the manifest must
    # say so instead of listing only the spectrum job
    cfg = write_cfg(tmp_path, "map.family = dft\nmap.D = 5\nmap.kept = 1,3\n"
                              "spectrum.N = 20\nspectrum.parity = even\n"
                              "weyl.r = 0.1\n")
    out = tmp_path / "out"
    assert main(["weyl", cfg, "-o", str(out)]) == 2
    jobs = {j["name"]: j for j in
            json.loads((out / "manifest.json").read_text())["jobs"]}
    assert jobs["spectrum-N20"]["status"] == "ok"
    step = jobs["weyl-fit"]
    assert step["status"] == "failed"
    assert step["outputs"] == []
    assert "at least 2 points" in step["error"]
    assert "missing_jobs" not in step
    assert not (out / "weyl_fit.json").exists()
    assert ("step weyl-fit failed: need at least 2 points"
            in capsys.readouterr().err)
    assert main(["manifest", str(out)]) == 2
    printed = capsys.readouterr()
    assert "spectrum-N20: ok" in printed.out
    assert "weyl-fit: failed" in printed.out
    assert "error: need at least 2 points" in printed.out
    assert "failed or partial: ['weyl-fit']" in printed.err


def _raise(*args):
    raise ValueError("step broke")


@pytest.mark.parametrize("verb,step,target,text", [
    ("count", "counts", "count_sector", "map.family = walsh\nmap.D = 3\n"
     "map.kept = 0,2\nspectrum.N = 9,27\ncount.radii = 0.5\n"),
    ("profile", "profile", "profile_curve", "map.family = walsh\nmap.D = 3\n"
     "map.kept = 0,2\nspectrum.N = 9,27\nprofile.radii = 0.5\n"),
    ("transport", "transport-asymptotics", "transport_asymptotics",
     "transport.k = 1,2\n"),
], ids=["counts", "profile", "transport-asymptotics"])
def test_cli_failing_post_step_is_recorded(tmp_path, capsys, monkeypatch,
                                           verb, step, target, text):
    # a step that raises after its jobs succeeded is a failed step in the
    # manifest, not a traceback, and the run exits 2
    monkeypatch.setattr(cli, target, _raise)
    out = tmp_path / "out"
    assert main([verb, write_cfg(tmp_path, text), "-o", str(out)]) == 2
    assert f"step {step} failed: step broke" in capsys.readouterr().err
    jobs = {j["name"]: j for j in
            json.loads((out / "manifest.json").read_text())["jobs"]}
    assert jobs[step]["status"] == "failed"
    assert jobs[step]["error"] == "step broke"
    assert jobs[step]["outputs"] == []
    assert all(j["status"] == "ok" for name, j in jobs.items() if name != step)
    assert main(["manifest", str(out)]) == 2
    assert f"failed or partial: ['{step}']" in capsys.readouterr().err


def test_cli_classical_rejects_bad_map_before_running(tmp_path, capsys):
    # the map keys are parsed before the output directory is made, and the
    # spec's error names the key it blames
    out = tmp_path / "out"
    for text, message in [
            ("map.D = 1\nmap.kept = 0\n", "map.D: must be >= 2, got 1"),
            ("map.D = 5\nmap.kept = 1,5\n",
             "map.kept: kept branches (1, 5) out of range for D=5")]:
        assert main(["classical", write_cfg(tmp_path, text), "-o", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("verb,text,key", [
    ("spectrum", "map.family = walsh\nmap.D = 3\nmap.kept = 0,2\n"
                 "spectrum.N = 9,9\n", "spectrum.N"),
    ("toy-check", "toy.k = 3,1,3\n", "toy.k"),
    ("transport", "transport.k = 2,2\n", "transport.k"),
    ("transport", "transport.k = 2\ntransport.theta = 0.3,0.30\n",
     "transport.theta"),
    ("count", "map.family = walsh\nmap.D = 3\nmap.kept = 0,2\n"
              "spectrum.N = 9\ncount.radii = 0.5,0.50\n", "count.radii"),
    ("profile", "map.family = walsh\nmap.D = 3\nmap.kept = 0,2\n"
                "spectrum.N = 9\nprofile.radii = 0.1,0.1\n", "profile.radii"),
    ("classical", "map.D = 5\nmap.kept = 1,1\n", "map.kept"),
])
def test_cli_rejects_repeated_job_values(tmp_path, capsys, verb, text, key):
    out = tmp_path / "out"
    assert main([verb, write_cfg(tmp_path, text), "-o", str(out)]) == 1
    assert f"{key}: repeated value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb,text,key", [
    ("spectrum", "map.family = walsh\nmap.D = 3\nmap.kept = 0,2\n"
                 "spectrum.N =\n", "spectrum.N"),
    ("toy-check", "toy.k =\n", "toy.k"),
    ("transport", "transport.k =\n", "transport.k"),
    ("transport", "transport.k = 2\ntransport.theta =\n", "transport.theta"),
    ("count", "map.family = walsh\nmap.D = 3\nmap.kept = 0,2\n"
              "spectrum.N = 9\ncount.radii =\n", "count.radii"),
    ("profile", "map.family = walsh\nmap.D = 3\nmap.kept = 0,2\n"
                "spectrum.N = 9\nprofile.radii =\n", "profile.radii"),
    ("classical", "map.D = 5\nmap.kept =\n", "map.kept"),
], ids=["spectrum-N", "toy-k", "transport-k", "transport-theta", "count-radii",
        "profile-radii", "map-kept"])
def test_cli_rejects_empty_job_lists(tmp_path, capsys, verb, text, key):
    # a list key with no values would run no job (or write a profile.csv or
    # counts.csv of its header alone) and exit 0
    out = tmp_path / "out"
    assert main([verb, write_cfg(tmp_path, text), "-o", str(out)]) == 1
    assert f"{key}: expected at least one value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb,text", [
    ("spectrum", "map.family = walsh\nmap.D = 3\nmap.kept = 0,2\n"
                 "spectrum.N = 9,,27\n"),
    ("spectrum", "map.family = walsh\nmap.D = 3\nmap.kept = 0,2\n"
                 "spectrum.N = 9,27,\n"),
    ("transport", "transport.k = 2\ntransport.theta = 0.0,,0.3\n"),
    ("transport", "transport.k = 2\ntransport.theta = 0.0,0.3,\n"),
], ids=["int-interior", "int-trailing", "float-interior", "float-trailing"])
def test_cli_rejects_an_empty_list_item(tmp_path, capsys, verb, text):
    out = tmp_path / "out"
    assert main([verb, write_cfg(tmp_path, text), "-o", str(out)]) == 1
    key = "spectrum.N" if verb == "spectrum" else "transport.theta"
    assert capsys.readouterr().err == f"config error: {key}: empty list item\n"
    assert not out.exists()


@pytest.mark.parametrize("verb,text,message", [
    ("toy-check", "toy.k = 2,0\n", "toy.k: must be >= 1, got 0"),
    ("spectrum", "map.family = walsh\nmap.D = 3\nmap.kept = 0,2\n"
                 "spectrum.N = 9,0\n", "spectrum.N: must be >= 1, got 0"),
    ("classical", "map.D = 3\nmap.kept = 0,2\nclassical.toy_k = 0\n",
     "classical.toy_k: must be >= 1, got 0"),
    ("transport", "transport.k = 0\n", "transport.k: must be >= 1, got 0"),
    ("classical", "map.D = 3\nmap.kept = 0,2\nclassical.M = 0\n",
     "classical.M: must be >= 1, got 0"),
    ("classical", "map.D = 3\nmap.kept = 0,2\nclassical.tmax = -1\n",
     "classical.tmax: must be >= 0, got -1"),
], ids=["toy-k", "spectrum-N", "classical-toy-k", "transport-k",
        "classical-M", "classical-tmax"])
def test_cli_rejects_lengths_below_one(tmp_path, capsys, verb, text, message):
    out = tmp_path / "out"
    assert main([verb, write_cfg(tmp_path, text), "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("verb,text,key", [
    ("transport", "transport.k = 3\ntransport.methd = series\n",
     "transport.methd"),
    ("count", "map.family = walsh\nmap.D = 3\nmap.kept = 0,2\n"
              "spectrum.N = 9\nspectrum.parit = even\ncount.radii = 0.5\n",
     "spectrum.parit"),
    ("count", "map.family = walsh\nmap.D = 3\nmap.kept = 0,2\n"
              "spectrum.N = 9\ncount.radius = 0.5\n", "count.radius"),
    ("transport", "transport.ks = 3\n", "transport.ks"),
], ids=["transport-method", "spectrum-parity", "count-radii", "transport-k"])
def test_cli_rejects_an_unknown_key(tmp_path, capsys, verb, text, key):
    # a misspelt key would otherwise be ignored: the resolvent would run in
    # place of the series, and the full spectrum be counted in place of its
    # even sector.  A misspelt required key is reported as itself, not as
    # the required key it fails to give
    out = tmp_path / "out"
    assert main([verb, write_cfg(tmp_path, text), "-o", str(out)]) == 1
    assert f"config error: {key}: unknown key" in capsys.readouterr().err
    assert not out.exists()


def _keys_read(path):
    """The config keys a module reads: the constant keys passed to a get_*
    getter, tested with `in cfg` or read with `cfg.get`."""
    keys = set()
    for node in ast.walk(ast.parse(path.read_text())):
        fn = getattr(node, "func", None)
        if isinstance(fn, ast.Name) and fn.id.startswith("get_"):
            args = node.args[1:2]
        elif (isinstance(fn, ast.Attribute) and fn.attr == "get"
              and getattr(fn.value, "id", None) == "cfg"):
            args = node.args[:1]
        elif (isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.In)
              and getattr(node.comparators[0], "id", None) == "cfg"):
            args = [node.left]
        else:
            continue
        keys |= {a.value for a in args if isinstance(a, ast.Constant)}
    return keys


def test_known_keys_are_the_keys_read():
    # KEYS is what a config may hold: a key the verbs read but KEYS lacks
    # would be refused, a key KEYS holds but no verb reads silently ignored
    src = ROOT / "src" / "openbaker"
    assert KEYS == _keys_read(src / "cli.py") | _keys_read(src / "config.py")
    readme = (ROOT / "README.md").read_text()
    reference = readme[readme.index("Example config:"):readme.index("## Tests")]
    assert [k for k in sorted(KEYS)
            if f"`{k}`" not in reference and f"\n{k} =" not in reference] == []


@pytest.mark.parametrize("verb,text,job", [
    ("toy-check", "toy.k = 9\n", "toy-check-k9"),
    ("classical", "map.D = 3\nmap.kept = 0,2\nclassical.M = 9\n"
                  "classical.tmax = 4\nclassical.toy_k = 9\n",
     "transfer-spectrum"),
], ids=["toy-check", "classical"])
def test_cli_refuses_oversized_toy_before_allocating(tmp_path, monkeypatch,
                                                     verb, text, job):
    # 3^9 exceeds MAX_DENSE_DIM: the job fails on the size check, never on
    # the 3^9 x 3^9 allocation
    def zeros(*args, **kwargs):
        raise RuntimeError("dense toy matrix allocated")

    monkeypatch.setattr(quantize, "_lazy_zeros", zeros)
    out = tmp_path / "out"
    assert main([verb, write_cfg(tmp_path, text), "-o", str(out)]) == 2
    jobs = {j["name"]: j for j in
            json.loads((out / "manifest.json").read_text())["jobs"]}
    assert jobs[job]["status"] == "failed"
    assert f"exceeds cap {MAX_DENSE_DIM}" in jobs[job]["error"]


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_cli_refuses_odd_parity_dimension_before_building(tmp_path, monkeypatch,
                                                         parity):
    # N = 15 has no parity sectors: the job fails on the N check, never
    # in the dense N x N build
    def build(*args):
        raise RuntimeError("dense map built")

    monkeypatch.setattr(cli, "quantize_open", build)
    cfg = write_cfg(tmp_path, "map.family = dft\nmap.D = 5\nmap.kept = 1,3\n"
                              f"spectrum.N = 15\nspectrum.parity = {parity}\n")
    out = tmp_path / "out"
    assert main(["spectrum", cfg, "-o", str(out)]) == 2
    job = json.loads((out / "manifest.json").read_text())["jobs"][0]
    assert job["status"] == "failed"
    assert job["error"] == "parity reduction requires even N, got 15"


def _folds(family, spec, variant, N):
    M = (quantize.quantize_open(spec, N) if family == "dft"
         else quantize._walsh_diagonal(spec, N, variant))
    try:
        quantize.parity_restrict(M, "even")
    except ValueError as exc:
        assert "does not commute with parity" in str(exc)
        return False
    return True


@pytest.mark.parametrize("D", [2, 3, 4, 5])
def test_plan_refuses_exactly_the_maps_that_never_fold(D):
    # [DERIVED] over every kept set, family and variant, a parity sector
    # is refused as a map that never commutes exactly when the map's fold
    # refuses it, at N = 2D and 4D (a Walsh map at odd D has no even
    # N = D^k, so its writer is folded at these multiples of D, and the
    # plan refuses its sectors for that after this check)
    wrong = []
    for mask in range(1, 2**D):
        spec = OpenBakerSpec(D, tuple(b for b in range(D) if mask >> b & 1))
        for family, variant in (("dft", None), ("walsh", "W"), ("walsh", "V")):
            cfg = {"map.family": family, "map.D": str(D),
                   "map.kept": ",".join(map(str, spec.kept)),
                   "spectrum.N": "16", "spectrum.parity": "even"}
            if variant:
                cfg["map.variant"] = variant
            try:
                cli.cmd_spectrum(cfg)
                refused = False
            except ConfigError as exc:
                refused = str(exc) == "spectrum.parity: the map never commutes with parity"
                if not refused:
                    assert family == "walsh" and D % 2
                    assert str(exc) == f"spectrum.parity: every walsh dimension N = {D}^k is odd"
            if any(_folds(family, spec, variant, N) == refused for N in (2 * D, 4 * D)):
                wrong.append((spec.kept, family, variant, refused))
    assert wrong == []


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_cli_refuses_a_parity_sector_of_a_v_map_before_building(tmp_path, monkeypatch,
                                                               capsys, parity):
    # the "V" Walsh maps never commute with parity (max commutator entry
    # 1.0 for OPEN_B4): a config error, with no N x N build and no output
    def build(*args):
        raise RuntimeError("dense map built")

    monkeypatch.setattr(cli, "_walsh_diagonal", build)
    cfg = write_cfg(tmp_path, "map.family = walsh\nmap.D = 4\nmap.kept = 1,2\n"
                              "map.variant = V\nspectrum.N = 64\n"
                              f"spectrum.parity = {parity}\n")
    out = tmp_path / "out"
    assert main(["spectrum", cfg, "-o", str(out)]) == 1
    assert ("config error: spectrum.parity: the map never commutes with parity"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_cli_refuses_a_parity_sector_of_an_odd_walsh_dimension(tmp_path, capsys, parity):
    # every N = 5^k is odd, so no job could fold: a config error with no
    # output, not one failed job per N and exit 2
    cfg = write_cfg(tmp_path, "map.family = walsh\nmap.D = 5\nmap.kept = 1,3\n"
                              f"spectrum.N = 5,25,125\nspectrum.parity = {parity}\n")
    out = tmp_path / "out"
    assert main(["spectrum", cfg, "-o", str(out)]) == 1
    assert ("config error: spectrum.parity: every walsh dimension N = 5^k is odd"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("verb,text,key", [
    ("transport", "transport.k = 2\ntransport.theta = 0.0, nan\n",
     "transport.theta"),
    ("count", "map.family = walsh\nmap.D = 3\nmap.kept = 0,2\n"
              "spectrum.N = 9\ncount.radii = 0.5, nan\n", "count.radii"),
    ("count", "map.family = walsh\nmap.D = 3\nmap.kept = 0,2\n"
              "spectrum.N = 9\ncount.radii = 0.5\nsector.rho = nan\n",
     "sector.rho"),
], ids=["theta-nan", "radii-nan", "rho-nan"])
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, verb, text, key):
    # a non-finite quasi-energy would give an all-NaN transmission matrix
    out = tmp_path / "out"
    assert main([verb, write_cfg(tmp_path, text), "-o", str(out)]) == 1
    assert f"{key}: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb,text,message", [
    ("count", "count.radii = 0.5, 1.5\n",
     "count.radii: inner radius must be in [0, 1), got 1.5"),
    ("count", "count.radii = 0.5\nsector.rho = 4\n",
     "sector.rho: half-width must be in (0, pi], got 4.0"),
    ("count", "count.radii = 0.5\nsector.theta = 1.0\n",
     "sector.theta: a full annulus (sector.rho = pi) has no angle"),
    ("count", "count.radii = 0.5\nsector.theta = 0\nsector.rho = pi\n",
     "sector.theta: a full annulus (sector.rho = pi) has no angle"),
    ("weyl", "weyl.r = -0.1\n", "weyl.r: inner radius must be in [0, 1), got -0.1"),
    ("profile", "profile.radii = 0.1, 1.5\n",
     "profile.radii: radii must be strictly increasing and lie in [0, 1)"),
    ("profile", "profile.radii = 0.5, 0.1\n",
     "profile.radii: radii must be strictly increasing and lie in [0, 1)"),
], ids=["radius", "rho", "theta-without-rho", "theta-with-rho-pi", "weyl-radius",
        "profile-radius", "profile-order"])
def test_cli_rejects_bad_sector_before_running(tmp_path, capsys, verb, text,
                                              message):
    # the counting sector and the profile radii are checked with the
    # config, not after the spectra: no job runs and no output directory
    # is made.  An angle with a full annulus would select nothing and
    # write the counts of the run without it
    cfg = write_cfg(tmp_path, "map.family = walsh\nmap.D = 3\nmap.kept = 0,2\n"
                              "spectrum.N = 9,27\n" + text)
    out = tmp_path / "out"
    assert main([verb, cfg, "-o", str(out)]) == 1
    # the message starts with the key it blames, as every config error does
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_manifest_records_the_environment(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "transport.k = 1\n")
    out = tmp_path / "out"
    assert main(["transport", cfg, "-o", str(out)]) == 0
    env = json.loads((out / "manifest.json").read_text())["environment"]
    assert set(env) == {"python", "numpy", "scipy", "blas", "blas_threads",
                        "thread_env", "nproc", "affinity"}
    assert env["numpy"] == np.__version__
    assert env["nproc"] >= 1
    assert all(key.endswith("_NUM_THREADS") for key in env["thread_env"])
    assert all(n >= 1 for n in env["blas_threads"].values())
    capsys.readouterr()
    assert main(["manifest", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "  environment:\n" in printed
    assert f"    numpy: {np.__version__}\n" in printed


def test_blas_threads_reads_a_spaced_or_deleted_library_path(monkeypatch):
    # the path is the sixth maps field and may hold spaces; /proc appends
    # " (deleted)" to a library replaced on disk, which then cannot load
    spaced = "/opt/sp ace/numpy.libs/libscipy_openblas64_-x.so"
    deleted = "/opt/old/libopenblas.so"
    maps = (f"7f00-7f01 r-xp 00000000 08:01 42     {spaced}\n"
            f"7f02-7f03 r-xp 00000000 08:01 43     {deleted} (deleted)\n"
            "7f04-7f05 rw-p 00000000 00:00 0 \n")
    monkeypatch.setattr(cli, "open", lambda path: io.StringIO(maps),
                        raising=False)
    loaded = []

    def cdll(path):
        loaded.append(path)
        if path == deleted:
            raise OSError(f"{path}: cannot open shared object file")
        return SimpleNamespace(scipy_openblas_get_num_threads64_=lambda: 3)

    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert cli._blas_threads() == {"libscipy_openblas64_-x.so": 3}
    assert sorted(loaded) == [deleted, spaced]


def test_cli_runs_are_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, "map.family = dft\nmap.D = 5\nmap.kept = 1,3\n"
                              "spectrum.N = 20\nspectrum.parity = even\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["spectrum", cfg, "-o", str(out)]) == 0
        outs.append((out / "spectrum_N20_even.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_has_no_workers_option(tmp_path, capsys):
    # jobs run one at a time, each on one BLAS thread unless the caller
    # set a thread count
    cfg = write_cfg(tmp_path, "toy.k = 2\n")
    with pytest.raises(SystemExit) as exc:
        main(["toy-check", cfg, "-o", str(tmp_path / "out"), "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_ignores_workers_environment_variable(tmp_path, monkeypatch):
    # OPENBAKER_WORKERS is not read: a value that is no number changes nothing
    cfg = write_cfg(tmp_path, "toy.k = 2\n")
    assert main(["toy-check", cfg, "-o", str(tmp_path / "plain")]) == 0
    monkeypatch.setenv("OPENBAKER_WORKERS", "two")
    assert main(["toy-check", cfg, "-o", str(tmp_path / "env")]) == 0
    assert ((tmp_path / "plain" / "toy_check_k2.json").read_bytes()
            == (tmp_path / "env" / "toy_check_k2.json").read_bytes())


def test_module_entry_point_reports_version():
    # the benchmark launches the CLI as `python3 -m openbaker.cli`
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-m", "openbaker.cli", "--version"],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == openbaker.__version__


def test_console_script_entry_names_a_callable():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"openbaker": "openbaker.cli:main"}
    module, name = project["scripts"]["openbaker"].split(":")
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.skipif(shutil.which("openbaker") is None,
                    reason="console script not on PATH")
def test_console_script_reports_version():
    out = subprocess.run(["openbaker", "--version"], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip()
