"""Load-bearing checks in the package are explicit raises, never asserts.

`python -O` strips assert statements, so a check written as one would stop
checking.  This test parses every module of the package with `ast` (it
imports nothing from them) and fails on any assert it finds.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "uqcomod"


def test_the_package_has_no_assert_statements():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
