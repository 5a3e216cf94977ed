"""Module layering of the package: imports only at module level, and the
imports between package modules run in one direction (no cycle)."""

import ast
import graphlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ecclab"
MODULES = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}


def package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports, by module name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ecclab."):
            out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(
                alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("ecclab.")
            )
    return out & set(MODULES)


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_import_inside_a_function_or_class(name):
    for scope in ast.walk(MODULES[name]):
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for node in ast.walk(scope):
                assert not isinstance(node, (ast.Import, ast.ImportFrom)), (
                    f"{name}.py:{node.lineno} imports inside {scope.name}"
                )


def test_package_imports_have_no_cycle():
    graph = {name: package_imports(tree) for name, tree in MODULES.items()}
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        # The cycle lists each module before the modules that import it.
        pytest.fail("import cycle: " + " imports ".join(reversed(exc.args[1])))


def test_intmatrix_imports_only_errors():
    # Matrices know nothing of graphs: that ε(G)'s blocks are E(G)'s
    # components is known in ``eccentric`` alone.
    assert package_imports(MODULES["intmatrix"]) == {"errors"}


def test_size_cap_error_is_raised_only_in_graphs():
    # One size policy: every cap is a check in ``graphs``, which the modules
    # that build graphs or matrices call.
    raisers = set()
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == "SizeCapError":
                    raisers.add(name)
    assert raisers == {"graphs"}
