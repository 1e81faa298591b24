"""The package's public names, and the names each module imports."""

import ast
from pathlib import Path

import macq

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "macq"


def test_every_exported_name_resolves_once():
    assert len(macq.__all__) == len(set(macq.__all__))
    # A name listed in __all__ but not defined makes the star import raise.
    namespace: dict[str, object] = {}
    exec("from macq import *", namespace)
    assert set(macq.__all__) <= set(namespace)


def test_every_module_uses_the_names_it_imports():
    # No linter runs on the package or its tests, so an import left behind by
    # a change is caught here.  __init__.py imports to re-export and is left
    # out, and so is bench/, which imports some modules for their side effects.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({(a.asname or a.name.split(".")[0]): a.name for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({(a.asname or a.name): a.name for a in node.names})
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.parent.name}/{path.name}: {name}"
                   for name in sorted(imported) if name not in used]
    assert unused == []
