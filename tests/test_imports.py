"""Every name a module of the package imports is used there.

No linter is a dependency, so this stands in for pyflakes' unused-import check.
Two kinds of import are not uses: ``hens/__init__.py`` re-exports exactly
``hens.__all__``, and a name the benchmark's span wrappers replace in a module
(``bench/spans.py``'s TARGETS) is kept there for them.
"""

import ast
import importlib.util
import types
from pathlib import Path

import pytest

import hens

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "hens").glob("*.py"))
SPANS = ROOT / "bench" / "spans.py"


def imported_names(tree):
    """The names that the import statements of a module bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def bench_wrapped():
    """(module name, attribute) of each module name the span wrappers replace, read
    the way tests/test_bench.py reads them."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {(owner.__name__, attr) for owner, attr, _ in spans.TARGETS
            if isinstance(owner, types.ModuleType)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = imported_names(tree)
    if path.name == "__init__.py":
        assert sorted(imported) == sorted(hens.__all__)
        return
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    wrapped = {attr for module, attr in bench_wrapped() if module == f"hens.{path.stem}"}
    assert sorted(imported - used - wrapped) == []
