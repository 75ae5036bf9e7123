"""Static checks on the package source, in place of a linter."""

import ast
from pathlib import Path

import pytest

import biquad

SRC = Path(__file__).resolve().parents[1] / "src" / "biquad"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> list[str]:
    """Names bound by the module-level imports, ``__future__`` aside."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def declared_exports(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"core", "monic", "cli", "exactla"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in imported_names(tree)
              if name not in used and name not in declared_exports(tree)]
    assert not unused, f"{path.name} imports {unused} but neither uses nor exports them"


# classes is registered lazily with the float modules, but its own body
# imports no numpy: its generators take the caller's numpy Generator
EXACT_LAYER = ["__init__", "classes", "cli", "core", "dominance", "exactla", "jsonio", "monic"]


def import_time_modules(tree: ast.Module) -> list[str]:
    """Modules imported while the module body runs: every import outside a
    function body (class bodies and if/try blocks included)."""
    modules, stack = [], list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
        stack.extend(ast.iter_child_nodes(node))
    return modules


@pytest.mark.parametrize("name", EXACT_LAYER)
def test_exact_layer_does_not_import_numpy_at_module_level(name):
    # the exact commands start without numpy; only a function body (a numpy
    # view, to_float, gen) may import it, when called
    modules = import_time_modules(ast.parse((SRC / f"{name}.py").read_text()))
    assert not [m for m in modules if m.split(".")[0] == "numpy"]


@pytest.mark.parametrize("name", ["gram", "kernels", "classes"])
def test_the_float_modules_write_no_files(name):
    # CSV rows and tensor fixtures are the CLI's to write, through jsonio;
    # every import counts, function bodies' too
    imported = set()
    for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
            if node.level:  # from . import jsonio
                imported |= {alias.name for alias in node.names}
    assert not imported & {"jsonio", "csv", "pathlib"}


def test_the_float_modules_import_numpy():
    # the check above finds a module-level numpy import where there is one
    for name in ("gram", "kernels"):
        assert "numpy" in import_time_modules(ast.parse((SRC / f"{name}.py").read_text()))


# Functions the library no longer calls, kept only because the benchmark's
# tracer names them; removed together with this set once it stops naming them.
BENCHMARK_ONLY = {"kernels.project_affine", "gram.gram_project_psd"}


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name the code reads, calls or imports: bare names, attribute
    names and imported names (strings such as ``__all__`` entries aside)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


@pytest.mark.parametrize("qualname", sorted(BENCHMARK_ONLY))
def test_benchmark_only_names_are_defined(qualname):
    # the tracer looks each one up on its module
    module, name = qualname.split(".")
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert name in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("qualname", sorted(BENCHMARK_ONLY))
def test_benchmark_only_names_are_not_used(qualname):
    name = qualname.split(".")[1]
    users = [p.name for p in sorted(SRC.glob("*.py")) if name in referenced_names(ast.parse(p.read_text()))]
    assert not users, f"{qualname} is kept only for the benchmark but {users} use it"


@pytest.mark.parametrize("qualname", sorted(BENCHMARK_ONLY))
def test_benchmark_only_names_are_not_exported(qualname):
    name = qualname.split(".")[1]
    exporters = [p.name for p in MODULES if name in declared_exports(ast.parse(p.read_text()))]
    assert not exporters, f"{qualname} is kept only for the benchmark but {exporters} export it"
    assert name not in vars(biquad) and name not in biquad._FLOAT_HOME


def test_only_the_package_makes_modules_lazy():
    # biquad/__init__ registers the float modules; the others import them by name
    users = [p.name for p in sorted(SRC.glob("*.py")) if "LazyLoader" in p.read_text()]
    assert users == ["__init__.py"]


@pytest.mark.parametrize("module", sorted(biquad._FLOAT_NAMES))
def test_float_names_are_exported_by_their_module(module):
    exports = declared_exports(ast.parse((SRC / f"{module}.py").read_text()))
    assert set(biquad._FLOAT_NAMES[module]) <= exports
