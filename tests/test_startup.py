"""What a CLI run imports: scipy.linalg and scipy.sparse load only inside
the functions that call them, because importing them costs more start-up
time than a small run's work."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFERRED = ("scipy.linalg", "scipy.sparse")


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
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    loaded = run.stdout.strip()
    assert "'scipy.linalg'" not in loaded, loaded
    assert (tmp_path / "out" / "transport_asymptotics.json").exists()
