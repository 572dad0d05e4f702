"""Every name the benchmark takes from the package still exists.

``perfbench/tracer.py`` wraps the package's public functions by name and
assigns their time to layers; ``perfbench/run.py`` reports per-function
metrics by name.  A renamed or privatised function would silently read 0
there, so these tests resolve each name the way the tracer does.  The other
benchmark files import package names (``cli.main``, ``cli.parse_field_flag``,
the solvers of the sweep worker); a rename would break the benchmark's
set-up, so each of those is resolved too.  The benchmark files are read as
text and parsed, not imported or changed.
"""

import ast
import importlib
import os
import re

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

# Names the benchmark still lists although the package retired them: their
# rows read 0 until a benchmark change drops them (ROADMAP item 6).
RETIRED = {
    "exactlin.kron": "moved to tests/denselin.py",
    "exactlin.rref": "replaced by the sparse eliminator",
    "exactlin.solve_affine": "moved to tests/denselin.py",
}


def _assignments(filename) -> dict:
    with open(os.path.join(PERFBENCH, filename), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {node.targets[0].id: node.value for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}


def _tracer_names():
    found = _assignments("tracer.py")
    names = set(ast.literal_eval(found["LAYER_OF"]))
    names |= ast.literal_eval(found["PARSE"]) | ast.literal_eval(found["HOPFCAT_SYSTEMS"])
    return names, ast.literal_eval(found["METHODS"])


def _metric_names():
    metrics = _assignments("run.py")["FUNCTION_METRICS"]
    return {ast.literal_eval(entry.elts[0]) for entry in metrics.elts}


def _resolves(name, methods) -> bool:
    """Whether the tracer would find and wrap the function behind name."""
    for cls_name, meth, traced in methods:
        if traced == name:
            cls = getattr(importlib.import_module("maschke_kit.exactlin"), cls_name)
            return callable(getattr(cls, meth, None))
    module_name, _, attr = name.partition(".")
    module = importlib.import_module(f"maschke_kit.{module_name}")
    obj = getattr(module, attr, None)
    return (type(obj).__name__ == "function" and obj.__module__ == module.__name__
            and not attr.startswith("_"))


LAYER_NAMES, METHODS = _tracer_names()
METRIC_NAMES = _metric_names()


@pytest.mark.parametrize("name", sorted(LAYER_NAMES | METRIC_NAMES))
def test_benchmark_name_resolves(name):
    if name in RETIRED:
        assert not _resolves(name, METHODS), f"{name} is back; drop it from RETIRED"
    else:
        assert _resolves(name, METHODS), f"{name} no longer names a traced function"


def test_lists_were_read():
    assert "finalg.check_algebra" in LAYER_NAMES and len(METHODS) == 3
    assert "weakhopf.check_weak_bialgebra" in METRIC_NAMES


def _package_names():
    """(file, name) of every package name a benchmark file takes: each
    ``from maschke_kit... import name``, each attribute read from a package
    module bound that way, and each ``maschke_kit.<module>`` in a string
    (the ``-m`` and ``-c`` arguments of its child processes)."""
    found = set()
    for filename in sorted(os.listdir(PERFBENCH)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(PERFBENCH, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == "maschke_kit":
                for alias in node.names:
                    name = f"{node.module}.{alias.name}"
                    found.add((filename, name))
                    if node.module == "maschke_kit":
                        modules[alias.asname or alias.name] = name
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                for word in node.value.split():
                    if re.fullmatch(r"maschke_kit(\.\w+)+", word):
                        found.add((filename, word))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                found.add((filename, f"{modules[node.value.id]}.{node.attr}"))
    return sorted(found)


def _exists(name) -> bool:
    """Whether name is a package module or an attribute of one."""
    try:
        importlib.import_module(name)
        return True
    except ImportError:
        module_name, _, attr = name.rpartition(".")
        try:
            return hasattr(importlib.import_module(module_name), attr)
        except ImportError:
            return False


PACKAGE_NAMES = _package_names()


@pytest.mark.parametrize("filename, name", PACKAGE_NAMES,
                         ids=[f"{f}:{n}" for f, n in PACKAGE_NAMES])
def test_benchmark_import_resolves(filename, name):
    # a rename in the package must fail here, not in the benchmark's set-up
    assert _exists(name), f"perfbench/{filename} uses {name}, which is gone"


def test_benchmark_imports_were_read():
    names = {name for _, name in PACKAGE_NAMES}
    assert {"maschke_kit.cli.main", "maschke_kit.cli.parse_field_flag",
            "maschke_kit.cli", "maschke_kit.weakhopf.solve_integral",
            "maschke_kit.finalg.solve_separability"} <= names
