"""The library's error types are exactly the ones it raises and exports.

Every exception class in `errors.py` but the base `RefloraError` must be
raised somewhere in the package, and every one must be listed in
`reflora.__all__`. An error type nothing raises any more then fails the
suite the way an unused import does. Conversely the package raises nothing
but `ValueError`, those types and the CLI's `UsageError`, so a stub that
raises `NotImplementedError` fails it too. Stdlib parser only.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "reflora"
BASE = "RefloraError"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def error_classes(tree: ast.Module) -> set[str]:
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def raised_names(tree: ast.Module) -> set[str]:
    """The name of each class a `raise` statement raises, called or not."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


ERRORS = error_classes(parse(SRC / "errors.py"))


def test_every_error_type_is_raised():
    raised = set().union(*(raised_names(parse(p)) for p in SRC.glob("*.py")))
    unraised = ERRORS - {BASE} - raised
    assert not unraised, f"errors.py defines but nothing raises: {unraised}"


def test_only_known_types_are_raised():
    raised = set().union(*(raised_names(parse(p)) for p in SRC.glob("*.py")))
    unknown = raised - ERRORS - {"ValueError", "UsageError"}
    assert not unknown, f"the package raises types outside errors.py: {unknown}"


def test_every_error_type_is_exported():
    missing = ERRORS - exported_names(parse(SRC / "__init__.py"))
    assert not missing, f"errors.py defines but __all__ omits: {missing}"


def test_check_finds_an_unraised_type():
    tree = ast.parse("class A(Exception): pass\nclass B(A): pass\n"
                     "def f():\n    raise B('x')\n"
                     "def g():\n    raise errors.C\n")
    assert error_classes(tree) - raised_names(tree) == {"A"}
    assert raised_names(tree) == {"B", "C"}
