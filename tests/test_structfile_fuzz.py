"""Malformed structure files must end in exit 0 or 3, never in a traceback.

Each example starts from a generated file of one kind, deletes one key or
list item, or replaces one node with another JSON value, and runs
``validate`` in-process; a file that still validates also goes through
``maschke``, so the solvers see damaged input too.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from maschke_kit.cli import main

GENERATED = {
    "weakhopf": ("groupoid-algebra", "--groupoid", "pair:2", "--field", "Fp:3"),
    "algebroid": ("pair-algebroid", "--base", "kxk", "--field", "Q"),
    "hopfcat": ("hopf-category", "--groupoid", "pair:2", "--field", "Q"),
    "group": ("group", "--group", "S3"),
    "groupoid": ("groupoid", "--groupoid", "sum:C2,C3"),
    "commalgebra": ("commalgebra", "--base", "kxk", "--field", "Fp:5"),
}

# Literals too large for json.dumps to write or json.loads to read back as
# Python values; they are spliced into the text in place of their key.
RAW = {
    "@deep": "[" * 200000 + "]" * 200000,
    "@nested": "[" * 950 + "]" * 950,
    "@digits": "9" * 5000,
}

JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 8),
    st.sampled_from([10**30, -10**30, 2**31, -(2**31), 1.5, -0.0]),
    st.sampled_from(["", "1/0", "0/0", "x", "1e999999999", "3/2", "-1", "Fp", "Q",
                     "maschke-kit/1", "weakhopf", "hopfcat"]),
    st.sampled_from(sorted(RAW)),
    st.lists(st.integers(-2, 2), max_size=3),
    st.lists(st.lists(st.sampled_from(["0", "1"]), max_size=2), max_size=2),
    st.dictionaries(st.sampled_from(["kind", "p", "source", "dim"]),
                    st.integers(0, 3), max_size=2),
)


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    docs = {}
    for kind, argv in GENERATED.items():
        path = root / f"{kind}.json"
        assert main(["generate", *argv, "--out", str(path)]) == 0
        docs[kind] = json.loads(path.read_text())
    return root, docs


def node_paths(node, prefix=()):
    """Every key path below the top level, in document order."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from node_paths(child, prefix + (key,))


def shape(path):
    return tuple("[]" if isinstance(key, int) else key for key in path)


def damaged_text(doc, data):
    # Draw the shape of the path first, so the few structural keys are hit
    # as often as the many scalar entries of a tensor.
    paths = list(node_paths(doc))
    wanted = data.draw(st.sampled_from(sorted({shape(p) for p in paths})))
    path = data.draw(st.sampled_from([p for p in paths if shape(p) == wanted]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JSON_VALUES)
    text = json.dumps(doc)
    for key, literal in RAW.items():
        text = text.replace(json.dumps(key), literal)
    return text


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(kind=st.sampled_from(sorted(GENERATED)), data=st.data())
def test_validate_exits_zero_or_three(generated, kind, data):
    root, docs = generated
    path = root / "damaged.json"
    path.write_text(damaged_text(json.loads(json.dumps(docs[kind])), data))
    code = main(["validate", "--structure", str(path),
                 "--out", str(root / "report.json")])
    assert code in (0, 3)
    if code == 0:
        assert main(["maschke", "--structure", str(path),
                     "--out", str(root / "report.json")]) in (0, 3)
