"""Module layering: the checker and the file formats stand apart from the producer."""

import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rhombidome"


def _package_imports(name: str) -> set[str]:
    """The package modules ``name``.py imports, relatively or by absolute name."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))):
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
    tree = ast.parse((PACKAGE / "geom.py").read_text(encoding="utf-8"))
    modules = {alias.name.split(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    modules |= {(node.module or "").split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert "numpy" not in modules
    assert _package_imports("geom") == set()
