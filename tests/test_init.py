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
    assert set(macq.__all__) <= set(dir(macq))


def _imported_names(node):
    """The names an import statement binds; none for any other node."""
    if isinstance(node, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [a.asname or a.name for a in node.names]
    return []


def test_every_module_uses_the_names_it_imports():
    # No linter runs on the package or its tests, so an import left behind by
    # a change is caught here.  __init__.py imports to re-export and is left
    # out, and so is bench/, which imports some modules for their side effects.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {name for node in ast.walk(tree) for name in _imported_names(node)}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.parent.name}/{path.name}: {name}"
                   for name in sorted(imported) if name not in used]
    assert unused == []


def _own_imports(scope):
    """The names imported in ``scope``'s own body, and the functions it defines."""
    names, functions = [], []
    for child in ast.iter_child_nodes(scope):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(child)
            continue
        inner_names, inner_functions = _own_imports(child)
        names += _imported_names(child) + inner_names
        functions += inner_functions
    return names, functions


def test_no_module_imports_a_name_twice():
    # The unused-import check above passes a name imported twice, since the
    # name is used.  A function may import what a sibling function imports
    # (cli.py's handlers each import json), but not a name its module or an
    # enclosing function already imports, nor one name twice itself.
    repeated = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        pending = [(ast.parse(path.read_text(encoding="utf-8")), set())]
        while pending:
            scope, outer = pending.pop()
            names, functions = _own_imports(scope)
            where = f"{path.parent.name}/{path.name}:{getattr(scope, 'name', '<module>')}"
            repeated += [f"{where}: {name}" for name in sorted(set(names))
                         if names.count(name) > 1 or name in outer]
            pending += [(function, outer | set(names)) for function in functions]
    assert repeated == []


def test_package_parses_under_the_declared_python_floor():
    # pyproject.toml declares requires-python >= 3.10.  Parsing with 3.10's
    # grammar refuses newer syntax such as except*; it checks grammar only,
    # not whether a library API used here exists in 3.10.
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
