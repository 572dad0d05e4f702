"""Every function name the benchmark maps to a layer or a metric still exists.

``perfbench/tracer.py`` wraps the package's public functions by name and
assigns their time to layers; ``perfbench/run.py`` reports per-function
metrics by name.  A renamed or privatised function would silently read 0
there, so this test resolves each name the way the tracer does.  The
benchmark files are read as text and parsed, not imported or changed.
"""

import ast
import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

# Names the benchmark still lists although the package retired them: their
# rows read 0 until a benchmark change drops them (ROADMAP item 7).
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
