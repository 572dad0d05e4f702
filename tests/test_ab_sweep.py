"""tools/ab_sweep.py compares the two trees' results by value.

The same source loaded under two package names gives two sets of record
classes, as two checkouts do, so a comparison of records must not depend on
their identity, and a Subspace must compare by its rows whatever fields a
tree stores.
"""

import importlib.util
import json
import pathlib
import sys

import maschke_kit
from maschke_kit.examples import cyclic_group, group_algebra, group_by_name
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


def test_generate_jobs_of_a_cli_manifest_are_run_and_compared(tmp_path):
    # a generate job has no structure file; it writes the file it makes to
    # standard output, which both trees must write byte for byte
    ab = _ab_sweep()
    names = ("ab_test_old", "ab_test_new")
    job = {"args": ["generate", "group-algebra", "--group", "S3", "--field", "Fp:5"],
           "expect": 0}
    (tmp_path / "manifest.json").write_text(
        json.dumps({"workload": "cli-oneshot", "jobs": [job]}))
    try:
        trees = [ab.load_tree(SRC, name) for name in names]
        (name, run), = ab.load_items(str(tmp_path / "manifest.json"))
        assert name == "job 0 (generate group-algebra --group S3 --field Fp:5)"
        old, new = (run(tree) for tree in trees)
        expected = serialize_structure(group_algebra(group_by_name("S3"), FieldSpec.gf(5)))
        assert old == new == (0, expected, "")
    finally:
        for name in list(sys.modules):
            if name.split(".")[0] in names:
                del sys.modules[name]


def test_gain_is_shown_only_when_it_beats_the_old_trees_spread():
    ab = _ab_sweep()
    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    # faster in 10/10 and in 9/10 passes by 5%, above a spread of about 2%
    assert ab.gain_shown(steady, [0.95] * 10)
    assert ab.gain_shown(steady, [0.95] * 9 + [1.01])
    # faster in 8/10 passes only, or never
    assert not ab.gain_shown(steady, [0.95] * 8 + [1.01] * 2)
    assert not ab.gain_shown(steady, [1.0] * 10)
    # faster in every pass, but by less than the old tree's own spread
    assert not ab.gain_shown(steady, [0.99] * 10)
    noisy = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.3, 0.7, 1.0, 1.0]
    assert not ab.gain_shown(noisy, [0.95] * 10)


def test_main_prints_whether_a_gain_is_shown(tmp_path, capsys):
    # an A/A control of one small file: no result differs, and the last line
    # says whether the timings show a gain
    ab = _ab_sweep()
    text = serialize_structure(group_algebra(cyclic_group(2), FieldSpec.gf(3)))
    (tmp_path / "c2.json").write_text(text)
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"workload": "weakhopf-sweep", "files": [{"file": "c2.json", "family": "corpus"}]}))
    dont_write = sys.dont_write_bytecode
    try:
        assert ab.main([SRC, SRC, str(tmp_path / "manifest.json"), "--passes", "3"]) == 0
    finally:
        sys.dont_write_bytecode = dont_write
        for name in list(sys.modules):
            if name.split(".")[0] in ("ab_old", "ab_new"):
                del sys.modules[name]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == ["pass 1", "pass 2", "pass 3"]
    assert lines[3].startswith("median ratio ")
    assert lines[4] in ("gain shown: yes", "gain shown: no")
    assert len(lines) == 5
