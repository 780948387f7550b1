"""Every module-level import and private name of a library module is used
in that module, and every library name that ``bench/`` reaches exists."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SOURCES = sorted(p for p in (ROOT / "src" / "socicnn").glob("*.py") if p.name != "__init__.py")
BENCH_SOURCES = [*sorted((ROOT / "bench").glob("*.py")),
                 *sorted((ROOT / "bench" / "tests").glob("*.py"))]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names if getattr(node, "module", None) != "__future__"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_private_module_names(path):
    tree = ast.parse(path.read_text())
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(name for name in defined - read if name.startswith("_")) == []


def _bench_references():
    """(module, name) pairs that bench/ reaches in the package: the TRACED
    table of bench/tracing.py, ``from socicnn.<module> import name``, and
    ``module.name`` read from a module imported by ``from socicnn import``."""
    refs = set()
    for path in BENCH_SOURCES:
        tree = ast.parse(path.read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "socicnn":
                modules.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("socicnn."):
                refs.update((node.module[len("socicnn."):], alias.name) for alias in node.names)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
                refs.update((row.elts[0].value, row.elts[1].value) for row in node.value.elts)
        refs.update((node.value.id, node.attr) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules)
    return sorted(refs)


def test_names_bench_reaches_exist_in_the_package():
    refs = _bench_references()
    assert ("simplex", "solve_min_geq") in refs and ("decisions", "project_onto") in refs
    missing = [f"{module}.{name}" for module, name in refs
               if not hasattr(importlib.import_module(f"socicnn.{module}"), name)]
    assert missing == []
