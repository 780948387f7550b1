"""Every module-level import and private name of a library module is used
in that module, no library module imports another's private name, the
simplex oracle imports nothing of the library, only ``empty_trace`` and
``forward`` build a ``ForwardTrace``, only ``forward`` and ``batch_forward``
call ``_forward_rows``, only ``empty_workspace`` builds a gradient
``Workspace``, only ``init_model``, ``from_json_dict`` and
``from_structured_class`` pack an affine block with ``affine_block``, which
``_rebuild`` only views, every library name that ``bench/`` reaches exists,
and every decide setting it passes is a parameter of ``decide_instance``.

The simplex oracle and the certificate run once per certified point on
small arrays, where numpy's Python-level wrappers (``np.max``, ``np.sum``,
``np.any``, ``np.fill_diagonal``, ...) cost several times the reduction they
dispatch to; those two modules call the ufunc's ``reduce`` or the array's
method instead, which return the same bits, and a lint test pins that."""

import ast
import importlib
import inspect
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


def test_no_library_module_imports_a_private_name():
    # a private name is its module's own; another module that needs it
    # should reach it through the public function that wraps it
    private = sorted(f"{path.stem}: {node.module}.{alias.name}"
                     for path in [*SOURCES, ROOT / "src" / "socicnn" / "__init__.py"]
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.ImportFrom)
                     for alias in node.names
                     if alias.name.startswith("_") and not alias.name.startswith("__"))
    assert private == []


def test_simplex_imports_only_numpy_and_typing():
    # the oracle checks the forward pass, so it may share no code with it
    tree = ast.parse((ROOT / "src" / "socicnn" / "simplex.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or "").split(".")[0])
    assert "numpy" in modules
    assert modules <= {"__future__", "numpy", "typing"}


# numpy functions that are Python wrappers around a ufunc reduction or an
# array method, with the same bits, and the modules that call neither
NUMPY_WRAPPERS = {"max", "min", "sum", "any", "all", "fill_diagonal"}
PER_POINT_MODULES = ("simplex.py", "certificate.py")


@pytest.mark.parametrize("name", PER_POINT_MODULES)
def test_per_point_modules_call_no_numpy_wrapper(name):
    tree = ast.parse((ROOT / "src" / "socicnn" / name).read_text())
    called = sorted(f"np.{node.func.attr} (line {node.lineno})" for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                    and node.func.attr in NUMPY_WRAPPERS)
    assert called == []


def _builders(cls: str):
    """module.function of every call of ``cls`` in the library's sources, by
    its bare name or as an attribute."""
    return sorted(f"{path.stem}.{getattr(stmt, 'name', '<module>')}"
                  for path in SOURCES for stmt in ast.parse(path.read_text()).body
                  for node in ast.walk(stmt)
                  if isinstance(node, ast.Call)
                  and cls in (getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_only_empty_trace_and_forward_build_a_forward_trace():
    # every pass writes into a trace from empty_trace and forward strips its
    # one row; a second forward mode would build a trace somewhere else
    assert _builders("ForwardTrace") == ["model.empty_trace", "model.forward"]


def test_only_forward_and_batch_forward_run_the_forward_rows():
    # batch_forward checks its trace against the params object and the rows,
    # and forward builds its own; any other caller would skip that check and
    # hide its pass from a tracer of batch_forward
    assert _builders("_forward_rows") == ["model.batch_forward", "model.forward"]


def test_only_empty_workspace_builds_a_workspace():
    # every parameter_gradients call runs in a workspace from empty_workspace,
    # given or built, and its forward writes through batch_forward into the
    # workspace's trace; a second backward mode would build its buffers elsewhere
    assert _builders("Workspace") == ["gradients.empty_workspace"]


def test_only_the_three_model_builders_pack_an_affine_block():
    # each layer and branch stores one block, which the forward and backward
    # read as one matrix; the builders of a model from outside data pack it
    # once per map, and _rebuild (unflatten_params, project_feasible) only
    # views blocks, so a block packed anywhere else would be a second copy
    assert set(_builders("affine_block")) == {
        "model.from_json_dict", "model.from_structured_class", "model.init_model"}


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


def test_decide_settings_bench_passes_are_parameters_of_decide_instance():
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    settings = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "DECIDE_SETTINGS"
                        for t in node.targets)]
    assert len(settings) == 1
    keys = [kw.arg for kw in settings[0].keywords]
    assert "steps" in keys
    decisions = importlib.import_module("socicnn.decisions")
    params = inspect.signature(decisions.decide_instance).parameters
    assert [key for key in keys if key not in params] == []
