"""Repository hygiene: the benchmark's traced names still resolve, and no
library module imports a name it never uses."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _traced_entries():
    path = ROOT / "perfbench" / "traced_job.py"
    spec = importlib.util.spec_from_file_location("traced_job", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("entry", _traced_entries(), ids=lambda e: e[0])
def test_traced_name_resolves(entry):
    # the traced round looks each name up exactly this way
    _, module, cls, attr = entry
    owner = importlib.import_module(f"liecx.{module}")
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(vars(owner)[attr])


MODULES = sorted(p for p in (ROOT / "src" / "liecx").glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Import):
            for a in node.names:
                imported[(a.asname or a.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert {name: line for name, line in imported.items()
            if name not in used} == {}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_exact_reads_numerators(path):
    # exact converts GQ scalars to integer rows and back; every other module
    # goes through it
    tree = ast.parse(path.read_text())
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and node.attr in ("numerator", "denominator")]
    assert reads == [] or path.name == "exact.py"
