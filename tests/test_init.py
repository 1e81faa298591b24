"""The package's public names, and the names each module imports."""

import ast
import typing
from pathlib import Path
from types import FunctionType

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


def _public_functions():
    """Every function in ``macq.__all__`` and every function an exported class
    defines (methods, the functions behind class and static methods, property getters)."""
    for name in macq.__all__:
        value = getattr(macq, name)
        for member in vars(value).values() if isinstance(value, type) else (value,):
            member = getattr(member, "fget", getattr(member, "__func__", member))
            if isinstance(member, FunctionType):
                yield member


def test_every_public_annotation_resolves():
    # Annotations are strings (from __future__ import annotations), so a name
    # the module never binds fails only when someone calls get_type_hints.
    unresolved = []
    for function in _public_functions():
        try:
            typing.get_type_hints(function)
        except NameError as error:
            unresolved.append(f"{function.__module__}.{function.__qualname__}: {error}")
    assert not unresolved


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
    # name is used.  A function may import what a sibling function imports,
    # but not a name its module or an enclosing function already imports, nor
    # one name twice itself.
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


def _imported_packages(node):
    """The top-level packages an import statement loads, ``macq`` for a
    relative one; none for any other node."""
    if isinstance(node, ast.ImportFrom):
        return ["macq" if node.level else node.module.split(".")[0]]
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    return []


def test_no_function_imports_a_macq_module():
    # A module binds the macq modules it uses at its top, as the placeholders
    # `import macq` registers, which run on first use; an import inside a
    # function would be a second way to load a module late.  A function may
    # still import a standard library module, as cli.dispatch imports json.
    local = [
        f"{path.name}:{function.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function) if "macq" in _imported_packages(node)
    ]
    assert local == []


def test_no_module_imports_typing_or_pathlib():
    # Annotations name collections.abc types and builtin generics, and --out
    # is opened as given, so no command pays to load either module.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if {"typing", "pathlib"} & set(_imported_packages(node))
    ]
    assert found == []


def _names_a_type(node):
    """True iff ``node`` is ``raise DomainError(...)`` whose message calls ``type(...)``."""
    if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "DomainError"):
        return False
    return any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "type"
               for arg in node.exc.args for call in ast.walk(arg))


def test_no_domain_error_names_a_refused_value_by_its_type():
    # A value of the wrong class is refused by channel._of_type, which echoes
    # the value itself through _shown; "got list" would name only its type.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _names_a_type(node)
    ]
    assert found == []


def test_package_parses_under_the_declared_python_floor():
    # pyproject.toml declares requires-python >= 3.10.  Parsing with 3.10's
    # grammar refuses newer syntax such as except*; it checks grammar only,
    # not whether a library API used here exists in 3.10.
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
