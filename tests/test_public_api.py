"""Every public name of the package has a caller that is not a unit test,
and every private function or class has a caller in the package."""

import ast
import inspect
from pathlib import Path

import openbaker

ROOT = Path(__file__).resolve().parents[1]


def loaded_names(path: Path) -> set:
    """Names and attribute names that the file's code reads."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_caller():
    # a name that only unit tests use belongs in tests/reference.py: the
    # callers are the package's own modules, the acceptance suite and the
    # benchmark, which is only read here
    callers = [p for p in sorted((ROOT / "src" / "openbaker").glob("*.py"))
               if p.name != "__init__.py"]
    callers += [ROOT / "tests" / "test_acceptance.py"]
    callers += sorted((ROOT / "bench").glob("*.py"))
    used = set().union(*(loaded_names(p) for p in callers))
    public = [name for name in openbaker.__all__
              if not inspect.ismodule(getattr(openbaker, name))]
    assert public
    assert sorted(set(public) - used) == []


def test_every_private_definition_has_a_caller():
    # a `_`-prefixed function, method or class that nothing in src/ loads
    # is dead: a helper that loses its last caller goes in the same change.
    # Dunder methods are called by Python itself
    sources = sorted((ROOT / "src" / "openbaker").glob("*.py"))
    used = set().union(*(loaded_names(p) for p in sources))
    private = {node.name for p in sources
               for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")}
    assert private
    assert sorted(private - used) == []
