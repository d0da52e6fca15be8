"""What a CLI run imports and starts: scipy.linalg and scipy.sparse load
only inside the functions that call them, because importing them costs
more start-up time than a small run's work; `import openbaker` loads no
submodule, so the CLI chooses one OpenBLAS thread before numpy loads,
unless the caller set a thread count."""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEFERRED = ("scipy.linalg", "scipy.sparse")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# the package's public names before its submodules loaded lazily
PUBLIC = {
    "classical": "B3 B5 CLOSED_B4 OPEN_B4 OpenBakerSpec escape_grid "
                 "fractal_dimensions markov_weight transfer_matrix",
    "quantize": "build_toy_diagonal parity_operator parity_restrict "
                "quantize_closed quantize_open walsh_quantize",
    "spectral": "SectorQuery Spectrum WeylFit compare_spectra count_sector "
                "eigen_spectrum invariant_nonzero_spectrum profile_curve "
                "toy_closed_spectrum weyl_fit",
    "transforms": "build_walsh dft_centered dft_plain",
    "transport": "TransportResult transmission_matrix transport_asymptotics "
                 "transport_quantities transport_result",
}
# small even-parity counts whose eigensolves load scipy.linalg's BLAS
COUNT_CFG = ("map.family = dft\nmap.D = 5\nmap.kept = 1,3\n"
             "spectrum.N = 20,100,500\nspectrum.parity = even\n"
             "count.radii = 0.5,0.1\n")


def fresh_env(**thread_vars):
    """The test session's environment with ./src on the path and only the
    given thread variables set."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    return dict(env, PYTHONPATH=str(ROOT / "src"), **thread_vars)


def fresh_python(code, **thread_vars) -> str:
    return subprocess.run([sys.executable, "-c", code], env=fresh_env(**thread_vars),
                          capture_output=True, text=True, check=True).stdout


def import_time_statements(tree):
    """The import statements a module runs when it is imported: those
    outside every function body."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        yield from import_time_statements(node)


def imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.module == "scipy":  # from scipy import linalg
        return [f"scipy.{alias.name}" for alias in node.names]
    return [node.module or ""]


def test_no_module_imports_scipy_linalg_or_sparse_at_import_time():
    found = []
    for path in sorted((ROOT / "src" / "openbaker").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in import_time_statements(tree):
            for name in imported_modules(node):
                if any(name == d or name.startswith(d + ".") for d in DEFERRED):
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


def test_transport_run_never_loads_scipy_linalg(tmp_path):
    # a fresh interpreter: the test session itself has scipy.linalg loaded
    cfg = tmp_path / "run.cfg"
    cfg.write_text("transport.k = 2\n")
    code = ("import sys, openbaker.cli\n"
            f"assert openbaker.cli.main(['transport', {str(cfg)!r}, "
            f"'-o', {str(tmp_path / 'out')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.')))\n")
    loaded = fresh_python(code).strip()
    assert "'scipy.linalg'" not in loaded, loaded
    assert (tmp_path / "out" / "transport_asymptotics.json").exists()


def run_count(outdir, **thread_vars):
    cfg = outdir.parent / "count.cfg"
    cfg.write_text(COUNT_CFG)
    subprocess.run([sys.executable, "-m", "openbaker.cli", "count", str(cfg),
                    "-o", str(outdir)],
                   env=fresh_env(**thread_vars), capture_output=True, check=True)
    return outdir


@pytest.fixture(scope="module")
def default_count(tmp_path_factory):
    return run_count(tmp_path_factory.mktemp("count") / "out")


def test_cli_runs_one_blas_thread_by_default(default_count):
    env = json.loads((default_count / "manifest.json").read_text())["environment"]
    # every OpenBLAS loaded, numpy's and scipy.linalg's, has one thread
    assert set(env["blas_threads"].values()) == {1}
    assert env["thread_env"] == {"OPENBLAS_NUM_THREADS": "1"}


def test_default_cli_run_writes_the_bytes_of_an_explicit_one_thread_run(
        default_count, tmp_path):
    explicit = run_count(tmp_path / "out", OPENBLAS_NUM_THREADS="1")
    name = "spectrum_N500_even.csv"
    assert (default_count / name).read_bytes() == (explicit / name).read_bytes()


def test_import_openbaker_loads_no_numpy_and_resolves_every_public_name():
    assert fresh_python("import sys, openbaker\n"
                        "print('numpy' in sys.modules)\n") == "False\n"
    import openbaker
    homes = {name: module for module, names in PUBLIC.items() for name in names.split()}
    assert openbaker.__all__ == sorted([*homes, *PUBLIC])
    assert set(openbaker.__all__) <= set(dir(openbaker))
    for name, module in homes.items():
        assert getattr(openbaker, name) is getattr(getattr(openbaker, module), name)
    for module in PUBLIC:
        assert inspect.ismodule(getattr(openbaker, module))
        assert getattr(openbaker, module).__name__ == f"openbaker.{module}"


@pytest.mark.parametrize("var", THREAD_VARS)
def test_a_thread_count_the_caller_set_is_kept(var):
    code = "import os, openbaker.cli\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    expected = "2" if var == "OPENBLAS_NUM_THREADS" else "None"
    assert fresh_python(code, **{var: "2"}) == f"{expected}\n"


def test_numpy_loaded_first_keeps_the_environment():
    code = ("import os, numpy, openbaker.cli\n"
            "print('OPENBLAS_NUM_THREADS' in os.environ)\n")
    assert fresh_python(code) == "False\n"
