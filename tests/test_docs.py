"""Every backticked dotted name in README.md and in the module docstrings of
`loomfold` names something that exists."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import loomfold

MODULES = {
    info.name: importlib.import_module(f"loomfold.{info.name}")
    for info in pkgutil.iter_modules(loomfold.__path__)
}
# a whole backticked span that is a dotted name, such as `kernel._place`
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")
README = Path(__file__).resolve().parent.parent / "README.md"


def _resolves(name: str, home=None) -> bool:
    """Whether the attribute chain of `name` resolves from a loomfold module:
    the one it names first (`loomfold.x` or `x`), the module whose docstring
    holds it, or any module, for a name such as `Realization.bracket`."""
    parts = name.split(".")
    if parts[0] == "loomfold":
        parts = parts[1:]
    starts = [(MODULES[parts[0]], parts[1:])] if parts[0] in MODULES else []
    starts += [(module, parts) for module in ([home] if home else []) + list(MODULES.values())]
    for obj, rest in starts:
        for attr in rest:
            if not hasattr(obj, attr):
                break
            obj = getattr(obj, attr)
        else:
            return True
    return False


def _docs() -> list:
    """(where, text, home module) of README.md and of each module docstring."""
    docs = [pytest.param("README.md", README.read_text(encoding="utf-8"), None, id="README")]
    for name, module in MODULES.items():
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        text = ast.get_docstring(tree, clean=False) or ""
        docs.append(pytest.param(name, text, module, id=name))
    return docs


@pytest.mark.parametrize("where, text, home", _docs())
def test_documented_names_exist(where, text, home):
    names = sorted(set(DOTTED.findall(text)))
    missing = [name for name in names if not _resolves(name, home)]
    assert not missing, f"{where} names what does not exist: {missing}"


def test_a_stale_name_is_found():
    assert _resolves("Realization.bracket") and _resolves("kernel._place")
    assert not _resolves("Realization.image") and not _resolves("RelationReport.has_gaps")
    assert not _resolves("kernel._NO_WINDOW")
