"""Every name that the benchmark scripts under perfbench/ import from
loomfold resolves, so that a change which deletes or renames one fails
here and not in a benchmark run."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _imports() -> list:
    """(file, module, name) per name imported from a loomfold module, and
    (file, module, None) per loomfold module imported whole."""
    found = []
    for path in sorted(PERFBENCH.rglob("*.py")):
        where = str(path.relative_to(PERFBENCH.parent))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "loomfold":
                found += [(where, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (where, alias.name, None)
                    for alias in node.names
                    if alias.name.split(".")[0] == "loomfold"
                ]
    return found


def test_perfbench_imports_are_found():
    modules = {module for _, module, _ in _imports()}
    assert {"loomfold", "loomfold.realize", "loomfold.cli"} <= modules


@pytest.mark.parametrize("where, module, name", _imports())
def test_perfbench_import_resolves(where, module, name):
    imported = importlib.import_module(module)
    # a name may be a submodule, which `from module import name` loads
    found = name is None or hasattr(imported, name) or importlib.util.find_spec(f"{module}.{name}")
    assert found, f"{where}: {module}.{name} is gone"
