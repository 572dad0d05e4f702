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


BALANCED_BUILDERS = {"finalg.py": ("separability_system", "coseparability_system"),
                     "hopfcat.py": ("separability_family_system",),
                     "hopfalgd.py": ("separability_system_hgd", "coseparability_system_hgd")}


def _is_balanced_call(node) -> bool:
    return (isinstance(node, ast.Return) and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id == "_balanced_system")


def test_separability_builders_are_one_balanced_system_call():
    # every (co)separability system is one balanced-element system: its body is
    # a docstring and `return _balanced_system(...)`, with no rows of its own
    bodies = {}
    for path in SOURCES:
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef) and \
                    node.name in BALANCED_BUILDERS.get(path.name, ()):
                body = node.body
                if ast.get_docstring(node) is not None:
                    body = body[1:]
                bodies[f"{path.name}:{node.name}"] = \
                    len(body) == 1 and _is_balanced_call(body[0])
    assert len(bodies) == 5
    assert all(bodies.values()), bodies
