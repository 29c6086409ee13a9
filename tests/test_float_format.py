"""The 17-digit float cell format lives in one module, `harness`.

Every CSV cell and every float in an output header is written through
`harness.CELL_FORMATS`; a second `.17g` elsewhere in the package would be
a second float format that can drift from the first. The check finds the
format in any string literal, f-string format spec included, with the
stdlib parser alone.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "reflora"
FORMAT = ".17g"


def uses_format(tree: ast.Module) -> bool:
    return any(isinstance(node, ast.Constant) and isinstance(node.value, str)
               and FORMAT in node.value for node in ast.walk(tree))


def test_one_module_holds_the_float_format():
    users = sorted(p.stem for p in SRC.glob("*.py")
                   if uses_format(ast.parse(p.read_text(), filename=str(p))))
    assert users == ["harness"]


def test_check_finds_every_spelling():
    for source in ('f"{x:.17g}"', 'format(x, ".17g")', '"%.17g" % x'):
        assert uses_format(ast.parse(source)), source
    assert not uses_format(ast.parse('f"{x:.3e}" + "%d" % n'))
