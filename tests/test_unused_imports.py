"""Every name a library module imports is read somewhere in that module.

A deletion can leave an import behind that nothing reads any more; this
check finds it with the stdlib parser alone. Names read only inside string
annotations (e.g. Optional["Balance"]) count as read. `__init__.py` is
skipped: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "reflora"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, string annotations included."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations += [a.annotation for a in
                            args.posonlyargs + args.args + args.kwonlyargs
                            + [args.vararg, args.kwarg] if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    strings = [c.value for ann in annotations if ann is not None
               for c in ast.walk(ann)
               if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    trees = [tree] + [ast.parse(text, mode="eval") for text in strings]
    return {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = read_names(tree)
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in read}
    assert not unused, f"{path.name}: imported but never read: {unused}"


def test_check_finds_an_unused_import():
    tree = ast.parse("import io\nfrom typing import Optional, TextIO\n"
                     "def f(x: Optional['int']) -> 'TextIO': pass\n")
    assert set(imported_names(tree)) - read_names(tree) == {"io"}
