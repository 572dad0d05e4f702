"""tools/ab_sweep.py compares the two trees' results by value.

The same source loaded under two package names gives two sets of record
classes, as two checkouts do, so a comparison of records must not depend on
their identity, and a Subspace must compare by its rows whatever fields a
tree stores.
"""

import importlib.util
import pathlib
import sys

import maschke_kit
from maschke_kit.examples import cyclic_group, group_algebra
from maschke_kit.exactlin import FieldSpec
from maschke_kit.structfile import serialize_structure

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(pathlib.Path(maschke_kit.__file__).resolve().parent.parent)


def _ab_sweep():
    spec = importlib.util.spec_from_file_location("ab_sweep", ROOT / "tools" / "ab_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_results_of_two_trees_compare_by_value():
    ab = _ab_sweep()
    names = ("ab_test_old", "ab_test_new")
    try:
        trees = [ab.load_tree(SRC, name) for name in names]
        text = serialize_structure(group_algebra(cyclic_group(3), FieldSpec.gf(5)))
        old, new = (ab.run_file(tree, "corpus", text) for tree in trees)
        assert type(old[0]) is not type(new[0])
        assert old[0] != new[0]
        assert ab.normalize(old) == ab.normalize(new)
        # a Subspace of another stored form, with the same rows, is the same
        # result; other rows are a different one
        exactlin = sys.modules["ab_test_new.exactlin"]
        f = new[0].solutions.homogeneous.field
        s = exactlin._row_space(f, 3, [{0: 1, 2: 2}, {1: 3}])

        class Subspace:
            def __init__(self, s, rows):
                self.field, self.ambient_dim, self.basis = s.field, s.ambient_dim, s.basis
                self.pivots, self.row_terms = tuple(r[0][0] for r in rows), rows

        assert ab.normalize(Subspace(s, s.row_terms)) == ab.normalize(s)
        other = exactlin._row_space(f, 3, [{0: 1}, {1: 3}])
        assert other != s
        assert ab.normalize(Subspace(s, other.row_terms)) != ab.normalize(s)
        assert ab.normalize(other) != ab.normalize(s)
    finally:
        for name in list(sys.modules):
            if name.split(".")[0] in names:
                del sys.modules[name]
