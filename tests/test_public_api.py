"""Every public name of the package has a caller that is not a unit test,
every private function or class has a caller in the package, and only
the transform-built Walsh map reads the transform's seed."""

import ast
import inspect
from pathlib import Path

import openbaker

ROOT = Path(__file__).resolve().parents[1]


def loaded_names(tree) -> set:
    """Names and attribute names that the code of a syntax tree reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_every_public_name_has_a_caller():
    # a name that only unit tests use belongs in tests/reference.py: the
    # callers are the package's own modules, the acceptance suite and the
    # benchmark, which is only read here
    callers = [p for p in sorted((ROOT / "src" / "openbaker").glob("*.py"))
               if p.name != "__init__.py"]
    callers += [ROOT / "tests" / "test_acceptance.py"]
    callers += sorted((ROOT / "bench").glob("*.py"))
    used = set().union(*(loaded_names(parse(p)) for p in callers))
    public = [name for name in openbaker.__all__
              if not inspect.ismodule(getattr(openbaker, name))]
    assert public
    assert sorted(set(public) - used) == []


def test_every_private_definition_has_a_caller():
    # a `_`-prefixed function, method or class that nothing in src/ loads
    # is dead: a helper that loses its last caller goes in the same change.
    # Dunder methods are called by Python itself
    sources = sorted((ROOT / "src" / "openbaker").glob("*.py"))
    used = set().union(*(loaded_names(parse(p)) for p in sources))
    private = {node.name for p in sources
               for node in ast.walk(parse(p))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")}
    assert private
    assert sorted(private - used) == []


def test_only_the_transform_built_walsh_map_reads_the_seed():
    # two independent constructions of the Walsh map: the transform-built
    # one reads the seed through build_walsh (walsh_quantize takes its
    # one-digit transform from it), and the writer, the block apply and
    # the cavity's closed form read _walsh_factor.  The acceptance suite
    # compares the two, which shows something only while no writer-side
    # code reads the seed
    readers = set()
    for path in sorted((ROOT / "src" / "openbaker").glob("*.py")):
        for top in parse(path).body:
            if "_seed" in loaded_names(top):
                readers.add(getattr(top, "name", f"{path.name} module level"))
    assert readers == {"build_walsh"}

