"""Rules on the package source that no run of the solvers would show."""

import ast
import pathlib

import maschke_kit

SOURCES = sorted(pathlib.Path(maschke_kit.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one would
    # silently stop checking
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert len(SOURCES) > 1
    assert found == []
