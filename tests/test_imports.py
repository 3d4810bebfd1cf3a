"""Every name a ``heffter`` module imports is used in that module.

A deletion can leave a dead import behind, and no linter runs here.  The
only exceptions are the names ``perfbench/spans.py`` patches where a module
looks them up (the module-level sites of its ``PATCHES``): those must stay
importable there even when the module no longer calls them.
"""

import ast
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "heffter"


def _patched_sites():
    """(module, name) for every ``module.name`` site that the tracer patches."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {tuple(site.rsplit(".", 1)) for sites, _ in spans.PATCHES.values()
            for site in sites if ":" not in site}


def unused_imports(source: str, module: str, exempt=frozenset()) -> list[str]:
    """The names ``source`` imports but never reads, apart from ``exempt`` (module, name) pairs."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a package re-exports what it lists in __all__
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return sorted(name for name in imported
                  if name not in used and (module, name) not in exempt)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    module = "heffter" if path.stem == "__init__" else f"heffter.{path.stem}"
    assert unused_imports(path.read_text(encoding="utf-8"), module, _patched_sites()) == []


def test_a_dead_import_is_found():
    source = "from .grid import HeffterGrid, diagonal_order\nimport os\n\nos.sep\nHeffterGrid\n"
    assert unused_imports(source, "heffter.cli") == ["diagonal_order"]


def test_only_a_patched_site_is_exempt():
    source = "from .h3 import build_h3_base, cyclic_shift\n"
    exempt = _patched_sites()
    assert ("heffter.merge", "cyclic_shift") in exempt
    assert unused_imports(source, "heffter.merge", exempt) == []
    assert unused_imports(source, "heffter.cli", exempt) == ["build_h3_base", "cyclic_shift"]
