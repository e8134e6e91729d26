"""Module layering: the checker and the file formats stand apart from the producer."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rhombidome"


def _nodes(name: str, module_level: bool = False):
    """The AST nodes of ``name``.py; with ``module_level``, none in a function body."""
    stack = [ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))]
    while stack:
        node = stack.pop()
        yield node
        if not (module_level and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))):
            stack.extend(ast.iter_child_nodes(node))


def _package_imports(name: str, module_level: bool = False) -> set[str]:
    """The package modules ``name``.py imports, relatively or by absolute name."""
    found = set()
    for node in _nodes(name, module_level):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= ({node.module.split(".")[0]} if node.module
                      else {alias.name for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rhombidome"):
            parts = node.module.split(".")
            found |= {parts[1]} if len(parts) > 1 else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("rhombidome.")}
    return found


def _absolute_imports(name: str) -> set[str]:
    """The top-level packages ``name``.py imports by absolute name, anywhere in it."""
    found = set()
    for node in _nodes(name):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def test_checker_imports_only_geometry_and_curves():
    assert _package_imports("surface") <= {"geom", "curve"}


def test_file_formats_do_not_import_the_producer():
    # files takes the ledger model from the checker; seeing that import shows
    # the finder finds imports at all
    imports = _package_imports("files")
    assert "surface" in imports and "cobordism" not in imports


def test_every_exported_name_resolves_once():
    # a name deleted from a module but left in an ``__all__`` only fails a
    # star import, so look each one up
    for path in [PACKAGE / "__init__.py", *sorted(PACKAGE.glob("[!_]*.py"))]:
        name = "rhombidome" if path.stem == "__init__" else f"rhombidome.{path.stem}"
        module = importlib.import_module(name)
        exported = module.__all__
        assert len(exported) == len(set(exported)), name
        assert [n for n in exported if not hasattr(module, n)] == [], name


def test_geometry_kernels_import_neither_numpy_nor_the_package():
    # geom computes on rows of Python floats and sits below every module
    assert "numpy" not in _absolute_imports("geom")
    assert _package_imports("geom") == set()


def test_only_moduli_imports_scipy():
    # the reduction half (reduce, validate, census) runs on numpy alone
    assert [name for name in MODULES if "scipy" in _absolute_imports(name)] == ["moduli"]


def test_no_module_imports_moduli_at_module_level():
    # the CLI imports moduli inside its moduli command, which the finder
    # sees once function bodies count, and the package resolves it on access
    assert "moduli" in _package_imports("cli")
    assert [name for name in MODULES if "moduli" in _package_imports(name, module_level=True)] == []


def _definition(name: str, qualname: str) -> ast.AST:
    """The definition of ``qualname``, a function or ``Class.method``, in ``name``.py."""
    node = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    for part in qualname.split("."):
        node = next(child for child in node.body if getattr(child, "name", None) == part)
    return node


@pytest.mark.parametrize("name, qualname", [
    ("curve", "IntegralCurve.validate"),
    ("surface", "Replayer.__init__"),
    ("surface", "Replayer.final_curve"),
    ("files", "curve_to_obj"),
])
def test_curve_rows_are_not_converted_again(name, qualname):
    # IntegralCurve turns an array into rows once; what reads a curve's rows
    # afterwards takes them as they are, with no numpy in between
    used = {node.id for node in ast.walk(_definition(name, qualname))
            if isinstance(node, ast.Name)}
    assert "np" not in used
