import contextlib
import io
import json
import os
import re
import runpy
import subprocess
import sys

import pytest

import maschke_kit
from maschke_kit import finalg, weakhopf
from maschke_kit.cli import COMMANDS, UsageError, main, parse_argv
from maschke_kit.examples import (
    MAX_GENERATED_ORDER,
    cyclic_group,
    ground_field_algebra,
    group_algebra,
    mutate,
    pair_groupoid,
    pair_hopf_algebroid,
    split_pair_algebra,
)
from maschke_kit.exactlin import FieldSpec
from maschke_kit.hopfalgd import HopfAlgebroidPresentation
from maschke_kit.structfile import (
    StructureFileError,
    array_to_json,
    parse_structure_file,
    parse_structure_text,
    serialize_structure,
)
from maschke_kit.weakhopf import StructureDefectError, WeakHopfPresentation, \
    integral_system

from denselin import comult_matrix, counit_matrix, unit_matrix
from oracles import build_parser

QQ = FieldSpec.rationals()


def run(tmp_path, *argv, expect=0):
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    assert code == expect, (argv, code)
    return out.read_text() if out.exists() else ""


HOPFCAT = ("hopf-category", "--groupoid", "pair:2", "--field", "Q")


def gen(tmp_path, name, *argv):
    path = tmp_path / name
    assert main(["generate", *argv, "--out", str(path)]) == 0
    return path


CAPPED_MAIN = """
import json, resource, sys, time
limit = 256 << 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from maschke_kit.cli import main
for argv in json.loads(sys.argv[1]):
    t0 = time.monotonic()
    code = main(argv)
    print(code, time.monotonic() - t0)
"""


def run_capped(*argvs):
    """Exit code and seconds of each CLI call, in a child process whose
    address space is limited to 256 MB, so a runaway allocation fails fast."""
    src = os.path.dirname(os.path.dirname(maschke_kit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", CAPPED_MAIN, json.dumps(argvs)],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    results = [(int(code), float(secs)) for code, secs in
               (line.split() for line in run.stdout.splitlines())]
    return results, run.stderr


class TestRoundTrip:
    @pytest.mark.parametrize("argv", [
        ("group-algebra", "--group", "C4", "--field", "Fp:2"),
        ("dual-group-algebra", "--group", "S3", "--field", "Q"),
        ("groupoid-algebra", "--groupoid", "pair:2", "--field", "Fp:3"),
        ("hopf-category", "--groupoid", "conn:C2:2", "--field", "Q"),
        ("pair-algebroid", "--base", "dual", "--field", "Q"),
        ("group", "--group", "K4"),
        ("groupoid", "--groupoid", "sum:C2,C3"),
        ("commalgebra", "--base", "kxk", "--field", "Fp:5"),
    ])
    def test_generate_parse_serialize_is_byte_stable(self, tmp_path, argv):
        path = gen(tmp_path, "s.json", *argv)
        text = path.read_text()
        presentation = parse_structure_file(path)
        assert serialize_structure(presentation) == text

    def test_parse_matches_generator_output(self, tmp_path):
        path = gen(tmp_path, "c2.json", "group-algebra", "--group", "C2",
                   "--field", "Q")
        parsed = parse_structure_file(path)
        assert isinstance(parsed, WeakHopfPresentation)
        assert parsed == group_algebra(cyclic_group(2), QQ)


class TestParsingErrors:
    def test_nonprime_field_rejected(self):
        text = json.dumps({
            "format_version": "maschke-kit/1",
            "field": {"kind": "Fp", "p": 4},
            "kind": "weakhopf",
            "payload": {},
        })
        with pytest.raises(StructureFileError, match="not prime"):
            parse_structure_text(text)

    def test_mutated_structure_names_witness(self, tmp_path):
        w = group_algebra(cyclic_group(2), QQ)
        bad = mutate(w, 3)
        while True:
            from maschke_kit.weakhopf import check_weak_bialgebra
            if not check_weak_bialgebra(bad).ok():
                break
            bad = mutate(bad, 1)
        path = tmp_path / "bad.json"
        path.write_text(serialize_structure(bad))
        with pytest.raises(StructureFileError, match="axiom failure"):
            parse_structure_file(path)

    def test_missing_key_paths(self):
        with pytest.raises(StructureFileError, match=r"\$\.payload"):
            parse_structure_text(json.dumps({
                "format_version": "maschke-kit/1",
                "field": {"kind": "Q"},
                "kind": "weakhopf",
                "payload": {"dim": 1},
            }))

    def test_repeated_key_deep_in_the_document_is_named(self):
        # a repeat nested as deep as the parser allows is reported with its
        # path, not as a RecursionError of the walk that finds the path
        def message(depth):
            text = '{"a": ' + "[" * depth + '{"k": 1, "k": 2}' + "]" * depth + "}"
            with pytest.raises(StructureFileError) as caught:
                parse_structure_text(text)
            return str(caught.value)

        deep, too_deep = 1, 5000
        while too_deep - deep > 1:
            mid = (deep + too_deep) // 2
            if message(mid) == "not valid JSON: nested too deeply":
                too_deep = mid
            else:
                deep = mid
        assert deep > 100
        assert message(deep) == "$.a" + "[0]" * deep + ": repeats the key 'k'"

    def test_wrong_version(self):
        with pytest.raises(StructureFileError, match="version"):
            parse_structure_text(json.dumps({
                "format_version": "maschke-kit/0",
                "field": {"kind": "Q"},
                "kind": "weakhopf",
                "payload": {},
            }))


class TestCommands:
    def test_maschke_pass_and_exit_zero(self, tmp_path):
        path = gen(tmp_path, "c3.json", "group-algebra", "--group", "C3",
                   "--field", "Q")
        text = run(tmp_path, "maschke", "--structure", str(path))
        doc = json.loads(text)
        assert doc["verdict"] == "pass"
        assert all(doc["integrals"].values())
        assert doc["basis_convention"] == "left-major"

    def test_separability_on_hom_of_dimension_17(self, tmp_path):
        path = gen(tmp_path, "c17.json", "hopf-category", "--groupoid", "one:C17",
                   "--field", "Fp:5")
        doc = json.loads(run(tmp_path, "separability", "--structure", str(path)))
        assert doc["feasible"]
        doc = json.loads(run(tmp_path, "maschke", "--structure", str(path)))
        assert doc["separability_family"] and doc["verdict"] == "pass"

    def test_integrals_assert_exit_codes(self, tmp_path):
        path = gen(tmp_path, "c3f3.json", "group-algebra", "--group", "C3",
                   "--field", "Fp:3")
        run(tmp_path, "integrals", "--structure", str(path), "--side", "left",
            "--normalized", "--assert", "infeasible", expect=0)
        run(tmp_path, "integrals", "--structure", str(path), "--side", "left",
            "--normalized", "--assert", "feasible", expect=2)

    def test_invalid_structure_exit_three(self, tmp_path):
        w = group_algebra(cyclic_group(2), QQ)
        from maschke_kit.finalg import CoalgebraPresentation
        bad = WeakHopfPresentation(
            w.algebra,
            CoalgebraPresentation(QQ, 2, w.coalgebra.comult, (1, 0)),
            w.antipode)
        path = tmp_path / "bad.json"
        path.write_text(serialize_structure(bad))
        assert main(["integrals", "--structure", str(path),
                     "--side", "left"]) == 3
        assert main(["validate", "--structure", str(path),
                     "--out", str(tmp_path / "v.json")]) == 3
        doc = json.loads((tmp_path / "v.json").read_text())
        assert doc["valid"] is False and doc["failures"]

    def test_zero_denominator_scalar_exits_three(self, tmp_path):
        path = gen(tmp_path, "s3.json", "group-algebra", "--group", "S3",
                   "--field", "Q")
        doc = json.loads(path.read_text())
        doc["payload"]["unit"][0] = "1/0"
        path.write_text(json.dumps(doc))
        text = run(tmp_path, "validate", "--structure", str(path), expect=3)
        report = json.loads(text)
        assert report["valid"] is False
        assert "zero denominator" in report["failures"][0]
        assert main(["integrals", "--structure", str(path), "--side", "left"]) == 3

    @pytest.mark.parametrize("damage, message", [
        # the first bad token comes after 94 valid ones and is repeated later
        (lambda p: (p["mult"][2][3].__setitem__(4, "1/0"),
                    p["mult"][4][1].__setitem__(0, "1/0")),
         "$.payload.mult[2][3]: scalar token '1/0' has a zero denominator"),
        (lambda p: p["mult"][1][2].__setitem__(3, 1),
         "$.payload.mult[1][2]: scalar token must be text, got 1"),
        (lambda p: p["comult"][1][2].__setitem__(3, []),
         "$.payload.comult[1][2]: scalar token must be text, got []"),
        (lambda p: p["mult"][0][5].__setitem__(5, True),
         "$.payload.mult[0][5]: scalar token must be text, got True"),
        (lambda p: p["unit"].__setitem__(1, True),
         "$.payload.unit: scalar token must be text, got True"),
    ], ids=["repeated-zero-denominator", "number", "list", "true", "true-in-unit"])
    def test_bad_scalar_token_exits_three(self, tmp_path, damage, message):
        path = gen(tmp_path, "s3.json", "group-algebra", "--group", "S3",
                   "--field", "Q")
        doc = json.loads(path.read_text())
        damage(doc["payload"])
        path.write_text(json.dumps(doc))
        report = json.loads(run(tmp_path, "validate", "--structure", str(path),
                                expect=3))
        assert report["failures"] == [message]

    def test_each_distinct_token_is_parsed_once(self, monkeypatch):
        text = serialize_structure(group_algebra(cyclic_group(12), FieldSpec.gf(5)))
        calls = []
        parse_scalar = FieldSpec.parse_scalar

        def counted(field, token):
            calls.append(token)
            return parse_scalar(field, token)

        monkeypatch.setattr(FieldSpec, "parse_scalar", counted)
        w = parse_structure_text(text)
        assert serialize_structure(w) == text
        # five tables (mult, unit, comult, counit, antipode) of 0 and 1 tokens
        assert len(calls) < 20

    def test_validate_checks_version_and_kind(self, tmp_path, capsys):
        path = gen(tmp_path, "kxk.json", "commalgebra", "--base", "kxk",
                   "--field", "Q")
        for key, value, message in (
                ("format_version", "maschke-kit/0", "unsupported version"),
                ("kind", "nonsense", "unknown kind")):
            doc = json.loads(path.read_text())
            doc[key] = value
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            report = json.loads(run(tmp_path, "validate", "--structure",
                                    str(bad), expect=3))
            assert report["valid"] is False
            assert message in report["failures"][0]
            capsys.readouterr()
            assert main(["separability", "--structure", str(bad)]) == 3
            assert capsys.readouterr().err == \
                f"invalid input: {report['failures'][0]}\n"

    def test_noncommutative_base_exits_three(self, tmp_path, capsys):
        # M_2(Q) on E11, E12, E21, E22 (E_ij E_kl = [j = k] E_il): E12 E11 = 0
        # but E11 E12 = E12, the first pair (i, j), j < i, that fails to commute
        mult = [[["0"] * 4 for _ in range(4)] for _ in range(4)]
        for i in range(2):
            for j in range(2):
                for l in range(2):
                    mult[2 * i + j][2 * j + l][2 * i + l] = "1"
        m2 = {"dim": 4, "labels": ["E11", "E12", "E21", "E22"], "mult": mult,
              "unit": ["1", "0", "0", "1"]}
        message = "base algebra not commutative at (1, 0)"
        for name, argv, where in (
                ("m2.json", ("commalgebra", "--base", "kxk"), "$.payload"),
                ("hgd.json", ("pair-algebroid", "--base", "kxk"), "$.payload.base")):
            path = gen(tmp_path, name, *argv, "--field", "Q")
            doc = json.loads(path.read_text())
            if where == "$.payload":
                doc["payload"] = m2
            else:
                doc["payload"]["base"] = m2
            path.write_text(json.dumps(doc))
            report = json.loads(run(tmp_path, "validate", "--structure", str(path),
                                    expect=3))
            assert report["valid"] is False
            assert report["failures"] == [f"{where}: {message}"]
            capsys.readouterr()
            assert main(["maschke", "--structure", str(path)]) == 3
            assert capsys.readouterr().err == f"invalid input: {where}: {message}\n"

    def test_huge_exponent_scalar_exits_three(self, tmp_path):
        path = gen(tmp_path, "s3.json", "group-algebra", "--group", "S3",
                   "--field", "Q")
        doc = json.loads(path.read_text())
        doc["payload"]["unit"][0] = "1e999999999"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        [(code, secs)], _ = run_capped(
            ["validate", "--structure", str(path), "--out", str(out)])
        assert code == 3 and secs < 1.0
        report = json.loads(out.read_text())
        assert "exponent" in report["failures"][0]

    def test_huge_generator_order_exits_four(self, tmp_path):
        out = str(tmp_path / "never.json")
        argvs = [["generate", "group-algebra", "--group", "C1000000000",
                  "--field", "Q", "--out", out],
                 ["generate", "group", "--group", "D1000000000", "--out", out],
                 ["generate", "groupoid-algebra", "--groupoid", "pair:1000000",
                  "--field", "Q", "--out", out],
                 ["generate", "hopf-category", "--groupoid", "conn:C2:1000000",
                  "--field", "Q", "--out", out]]
        results, err = run_capped(*argvs)
        assert [code for code, _ in results] == [4] * len(argvs)
        assert all(secs < 1.0 for _, secs in results)
        assert err.count("above the limit") == len(argvs)
        assert not os.path.exists(out)

    def test_dimension_below_one_is_named_at_its_dim_key(self, tmp_path, capsys):
        # a negative dim with no labels was refused at the labels, and a hom of
        # dim 0 with empty tables reached CoalgebraPresentation, whose
        # ValueError left maschke and separability with exit 1
        ca = gen(tmp_path, "ca.json", "commalgebra", "--base", "kxk", "--field", "Fp:3")
        doc = json.loads(ca.read_text())
        doc["payload"].update(dim=-1, labels=[])
        ca.write_text(json.dumps(doc))
        hc = gen(tmp_path, "hc.json", *HOPFCAT)
        doc = json.loads(hc.read_text())
        doc["payload"]["homs"][0].update(dim=0, comult=[], counit=[])
        hc.write_text(json.dumps(doc))
        for path, message in ((ca, "$.payload.dim: dimension -1 is below 1"),
                              (hc, "$.payload.homs[0].dim: dimension 0 is below 1")):
            report = json.loads(run(tmp_path, "validate", "--structure", str(path),
                                    expect=3))
            assert report["failures"] == [message]
            for command in ("maschke", "separability"):
                capsys.readouterr()
                assert main([command, "--structure", str(path)]) == 3
                assert capsys.readouterr().err == f"invalid input: {message}\n"

    def test_dimension_above_limit_exits_three(self, tmp_path):
        # kC65 parses as JSON, but its dimension is refused before any table is
        # read; the dims of the other kinds are raised in small files
        big = tmp_path / "c65.json"
        big.write_text(serialize_structure(
            group_algebra(cyclic_group(MAX_GENERATED_ORDER + 1), FieldSpec.gf(5))))
        paths = [big]
        for name, argv, damage in (
                ("ca.json", ("commalgebra", "--base", "kxk"), lambda p: [p]),
                ("base.json", ("pair-algebroid", "--base", "kxk"),
                 lambda p: [p["base"]]),
                ("total.json", ("pair-algebroid", "--base", "kxk"),
                 lambda p: [p["total"]]),
                ("hc.json", ("hopf-category", "--groupoid", "pair:2"),
                 lambda p: [p["homs"][1]])):
            path = gen(tmp_path, name, *argv, "--field", "Q")
            doc = json.loads(path.read_text())
            for part in damage(doc["payload"]):
                part["dim"] = MAX_GENERATED_ORDER + 1
            path.write_text(json.dumps(doc))
            paths.append(path)
        # kC17 as an algebroid over k: its dimension is allowed, but 17^3 is
        # above the widest supported matrix, so it is refused before the lift
        w = group_algebra(cyclic_group(17), FieldSpec.gf(5))
        cubed = tmp_path / "c17.json"
        cubed.write_text(serialize_structure(HopfAlgebroidPresentation(
            ground_field_algebra(w.field), w.algebra, unit_matrix(w.algebra),
            unit_matrix(w.algebra), comult_matrix(w.coalgebra),
            counit_matrix(w.coalgebra), w.antipode)))
        argvs = [[command, "--structure", str(path), "--out", f"{path}.{command}"]
                 for command in ("validate", "separability", "coseparability",
                                 "maschke") for path in paths + [cubed]]
        results, err = run_capped(*argvs)
        assert [code for code, _ in results] == [3] * len(argvs)
        assert "Traceback" not in err
        # validate writes its report; the other commands write to stderr
        assert err.count("above the limit of 64") == 3 * len(paths)
        assert err.count("has 17^3 coordinates, over 4096") == 3
        for path in paths:
            report = json.loads(open(f"{path}.validate").read())
            assert "dim: dimension 65 is above the limit" in report["failures"][0]
        report = json.loads(open(f"{cubed}.validate").read())
        assert "total.dim: dimension 17 is above the algebroid limit" in \
            report["failures"][0]

    def test_group_and_groupoid_files_are_capped(self, tmp_path, capsys):
        # the group check is cubic in the order: an order above the limit, a
        # table of another shape than the declared order and a groupoid with
        # more morphisms than the limit are refused at their key, before any
        # group or groupoid is built
        c3 = gen(tmp_path, "c3.json", "group", "--group", "C3")
        doc = json.loads(c3.read_text())
        doc["payload"]["order"] = MAX_GENERATED_ORDER + 1
        order = tmp_path / "order.json"
        order.write_text(json.dumps(doc))
        # the table of C300 under its own order, and under the order 3
        doc["payload"]["table"] = [[(i + j) % 300 for j in range(300)] for i in range(300)]
        doc["payload"]["order"] = 300
        big = tmp_path / "c300.json"
        big.write_text(json.dumps(doc))
        doc["payload"]["order"] = 3
        table = tmp_path / "table.json"
        table.write_text(json.dumps(doc))
        pair9 = tmp_path / "pair9.json"
        pair9.write_text(serialize_structure(pair_groupoid(9)))
        for path, message in (
                (order, "$.payload.order: order 65 is above the limit of 64"),
                (big, "$.payload.order: order 300 is above the limit of 64"),
                (table, "$.payload.table: table must be order x order"),
                (pair9, "$.payload.source: more than 64 morphisms")):
            report = json.loads(run(tmp_path, "validate", "--structure", str(path),
                                    expect=3))
            assert report["failures"] == [message]
            capsys.readouterr()
            assert main(["maschke", "--structure", str(path)]) == 3
            assert capsys.readouterr().err == f"invalid input: {message}\n"
        # the largest generated group and groupoid still validate
        for name, argv in (("c64.json", ("group", "--group", f"C{MAX_GENERATED_ORDER}")),
                           ("pair8.json", ("groupoid", "--groupoid", "pair:8"))):
            path = gen(tmp_path, name, *argv)
            report = json.loads(run(tmp_path, "validate", "--structure", str(path)))
            assert report["valid"] is True

    def test_cap_sized_group_algebra_solves_under_the_memory_cap(self, tmp_path):
        # kC64 is at the dimension cap; with separability rows for its one
        # generator the 4096-unknown systems fit in 256 MB
        path = gen(tmp_path, "c64.json", "group-algebra", "--group",
                   f"C{MAX_GENERATED_ORDER}", "--field", "Fp:5")
        outs = [tmp_path / f"{command}.json" for command in ("separability", "maschke")]
        results, err = run_capped(*[[out.stem, "--structure", str(path), "--out", str(out)]
                                    for out in outs])
        assert [code for code, _ in results] == [0, 0], err
        assert "Traceback" not in err
        separability, maschke = (json.loads(out.read_text()) for out in outs)
        assert separability["feasible"] is True
        assert maschke["separability"] is True and maschke["coseparability"] is True
        assert maschke["verdict"] == "pass"

    def test_cap_sized_dual_group_algebra_solves_under_the_memory_cap(self, tmp_path):
        # k^C64 is at the dimension cap too; each Delta(e_g) has 64 terms, so
        # its weak bialgebra check must stay off the n^4 term pairs
        path = gen(tmp_path, "dc64.json", "dual-group-algebra", "--group",
                   f"C{MAX_GENERATED_ORDER}", "--field", "Fp:5")
        out = tmp_path / "coseparability.json"
        results, err = run_capped(["coseparability", "--structure", str(path),
                                   "--out", str(out)])
        assert [code for code, _ in results] == [0], err
        assert "Traceback" not in err
        assert json.loads(out.read_text())["feasible"] is True

    def test_out_of_memory_exits_three(self, tmp_path, monkeypatch, capsys):
        path = gen(tmp_path, "c2.json", "group-algebra", "--group", "C2",
                   "--field", "Q")

        def exhausted(a):
            raise MemoryError

        monkeypatch.setattr(finalg, "solve_separability", exhausted)
        capsys.readouterr()
        assert main(["separability", "--structure", str(path)]) == 3
        assert capsys.readouterr().err == \
            "out of memory: the input needs more memory than this process may use\n"

    def test_hopfcat_antipode_naming_missing_hom_exits_three(self, tmp_path, capsys):
        path = gen(tmp_path, "hc.json", "hopf-category", "--groupoid", "pair:2",
                   "--field", "Q")
        for damage, message in (
                (lambda p: p["antipode"][0].update(source=7), "missing hom"),
                (lambda p: p.update(antipode=5), "expected list")):
            doc = json.loads(path.read_text())
            damage(doc["payload"])
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            report = json.loads(run(tmp_path, "validate", "--structure",
                                    str(bad), expect=3))
            assert message in report["failures"][0]
            capsys.readouterr()
            assert main(["maschke", "--structure", str(bad)]) == 3
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("[" * 200000 + "]" * 200000, "nested too deeply"),
        ("9" * 5000, "digits"),
    ], ids=["deep-nesting", "huge-integer"])
    def test_json_beyond_parser_limits_exits_three(self, tmp_path, capsys,
                                                   text, message):
        path = tmp_path / "deep.json"
        path.write_text(text)
        report = json.loads(run(tmp_path, "validate", "--structure", str(path),
                                expect=3))
        assert message in report["failures"][0]
        capsys.readouterr()
        assert main(["separability", "--structure", str(path)]) == 3
        assert capsys.readouterr().err.startswith("invalid input:")

    def test_structure_defect_exits_three(self, tmp_path, monkeypatch, capsys):
        path = gen(tmp_path, "pg.json", "groupoid-algebra", "--groupoid",
                   "pair:2", "--field", "Q")

        def defective(w):
            raise StructureDefectError("base not closed under multiplication")

        monkeypatch.setattr(weakhopf, "base_algebra", defective)
        assert main(["maschke", "--structure", str(path)]) == 3
        assert capsys.readouterr().err == \
            "invalid input: base not closed under multiplication\n"

    @pytest.mark.parametrize("argv, damage, message", [
        (("commalgebra", "--base", "k", "--field", "Q"),
         lambda p: p.update(dim=True), "$.payload.dim: expected int"),
        (("hopf-category", "--groupoid", "pair:2", "--field", "Q"),
         lambda p: p["comps"][0].update(path=[False, False, False]),
         "$.payload.comps[0].path: expected three object indices"),
        (("groupoid", "--groupoid", "pair:2"),
         lambda p: p["compose"].__setitem__(0, [False, False, False]),
         "$.payload.compose[0]: expected [f, h, composite]"),
        (("groupoid", "--groupoid", "pair:2"),
         lambda p: p.update(source=[bool(x) for x in p["source"]]),
         "$.payload.source: expected a list of integers"),
        (("group", "--group", "C2"),
         lambda p: p.update(table=[[bool(x) for x in row] for row in p["table"]]),
         "$.payload.table: expected rows of integers"),
    ], ids=["commalgebra-dim", "hopfcat-comps-path", "groupoid-compose",
            "groupoid-source", "group-table"])
    def test_json_boolean_is_not_an_integer(self, tmp_path, capsys, argv, damage,
                                            message):
        path = gen(tmp_path, "s.json", *argv)
        doc = json.loads(path.read_text())
        damage(doc["payload"])
        path.write_text(json.dumps(doc))
        report = json.loads(run(tmp_path, "validate", "--structure", str(path),
                                expect=3))
        assert report["failures"] == [message]
        capsys.readouterr()
        assert main(["maschke", "--structure", str(path)]) == 3
        assert capsys.readouterr().err.startswith("invalid input:")

    @pytest.mark.parametrize("argv, key, message", [
        (HOPFCAT, "homs", "$.payload.homs[4]: repeats the hom (0, 0)"),
        (HOPFCAT, "comps", "$.payload.comps[8].path: repeats the composition (0, 0, 0)"),
        (HOPFCAT, "units", "$.payload.units[2].object: repeats the unit of object 0"),
        (HOPFCAT, "antipode", "$.payload.antipode[4]: repeats the antipode (0, 0)"),
        (("groupoid", "--groupoid", "pair:2"), "compose",
         "$.payload.compose[8]: repeats the pair (0, 0)"),
    ], ids=["hopfcat-homs", "hopfcat-comps", "hopfcat-units", "hopfcat-antipode",
            "groupoid-compose"])
    def test_repeated_entry_exits_three(self, tmp_path, capsys, argv, key, message):
        # a second entry for the same key would silently replace the first
        path = gen(tmp_path, "s.json", *argv)
        doc = json.loads(path.read_text())
        entries = doc["payload"][key]
        entries.append(entries[0])
        path.write_text(json.dumps(doc))
        report = json.loads(run(tmp_path, "validate", "--structure", str(path),
                                expect=3))
        assert report["failures"] == [message]
        capsys.readouterr()
        assert main(["maschke", "--structure", str(path)]) == 3
        assert capsys.readouterr().err == f"invalid input: {message}\n"

    @pytest.mark.parametrize("argv, damage, message", [
        (("group-algebra", "--group", "C2", "--field", "Q"),
         ('"antipode":', '"counit": ["1", "1"],\n    "antipode":'),
         "$.payload: repeats the key 'counit'"),
        (HOPFCAT, ('"dim":', '"dim": 1,\n      "dim":'),
         "$.payload.homs[0]: repeats the key 'dim'"),
        (("group-algebra", "--group", "C2", "--field", "Q"),
         ('"format_version":', '"format_version": "maschke-kit/1",\n  "format_version":'),
         "$: repeats the key 'format_version'"),
    ], ids=["payload", "nested", "top-level"])
    def test_repeated_json_key_exits_three(self, tmp_path, capsys, argv, damage, message):
        # json.loads keeps the last of two values for one key, so a second
        # "counit" would silently replace the first
        path = gen(tmp_path, "s.json", *argv)
        text = path.read_text()
        assert damage[0] in text
        path.write_text(text.replace(*damage, 1))
        report = json.loads(run(tmp_path, "validate", "--structure", str(path),
                                expect=3))
        assert report["failures"] == [message]
        capsys.readouterr()
        assert main(["maschke", "--structure", str(path)]) == 3
        assert capsys.readouterr().err == f"invalid input: {message}\n"

    @pytest.mark.parametrize("command", ["maschke", "validate"])
    def test_non_utf8_structure_file_exits_three(self, tmp_path, capsys, command):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        assert main([command, "--structure", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"invalid input: cannot read {path}:") and "utf-8" in err

    def test_unwritable_out_exits_four(self, tmp_path, capsys):
        path = gen(tmp_path, "c3.json", "group-algebra", "--group", "C3", "--field", "Q")
        out = str(tmp_path / "missing" / "x.json")
        for argv in (["validate", "--structure", str(path)],
                     ["generate", "group-algebra", "--group", "C3", "--field", "Q"]):
            capsys.readouterr()
            assert main([*argv, "--out", out]) == 4, argv
            assert capsys.readouterr().err.startswith(f"usage error: cannot write {out}:")

    def test_unwritable_out_exits_before_solving(self, tmp_path, capsys, monkeypatch):
        # the destination is checked before the structure is read or solved,
        # and no file is left behind
        from maschke_kit import cli
        path = gen(tmp_path, "c3.json", "group-algebra", "--group", "C3", "--field", "Q")
        ran = []
        for name in ("parse_structure_file", "read_structure_text", "_run_solver"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: ran.append(name))
        os.mkdir(tmp_path / "folder")
        for out in (tmp_path / "missing" / "x.json", tmp_path / "folder"):
            for argv in (["maschke"], ["separability"], ["coseparability"], ["validate"],
                         ["integrals", "--side", "left"], ["cointegrals", "--side", "right"]):
                capsys.readouterr()
                assert main([*argv, "--structure", str(path), "--out", str(out)]) == 4
                assert capsys.readouterr().err.startswith(f"usage error: cannot write {out}:")
        assert ran == []
        assert sorted(os.listdir(tmp_path)) == ["c3.json", "folder"]
        assert os.listdir(tmp_path / "folder") == []

    def test_validate_ok(self, tmp_path):
        path = gen(tmp_path, "pg.json", "groupoid-algebra", "--groupoid",
                   "pair:2", "--field", "Q")
        text = run(tmp_path, "validate", "--structure", str(path))
        doc = json.loads(text)
        assert doc["valid"] is True and doc["failures"] == []

    def test_usage_errors_exit_four(self, tmp_path):
        assert main(["integrals"]) == 4
        assert main(["generate", "group-algebra", "--field", "Q"]) == 4
        assert main(["generate", "group-algebra", "--group", "C3"]) == 4
        assert main(["generate", "group-algebra", "--group", "E8",
                     "--field", "Q"]) == 4

    @pytest.mark.parametrize("family,flag,name,message", [
        ("group", "--group", "C0", "bad order '0' in 'C0'"),
        ("group", "--group", "D0", "bad order '0' in 'D0'"),
        ("group", "--group", "C\u00b2", "bad order '\u00b2' in 'C\u00b2'"),  # superscript 2
        ("group", "--group", "C\u0663", "bad order '\u0663' in 'C\u0663'"),  # Arabic-Indic 3
        ("group-algebra", "--group", "d\u0663", "bad order '\u0663' in 'D\u0663'"),
        ("groupoid", "--groupoid", "pair:x", "bad order 'x' in 'pair:x'"),
        ("groupoid", "--groupoid", "pair:0", "bad order '0' in 'pair:0'"),
        ("groupoid-algebra", "--groupoid", "conn:C2", "bad order '' in 'conn:C2'"),
        ("hopf-category", "--groupoid", "conn:C2:\u00b2",
         "bad order '\u00b2' in 'conn:C2:\u00b2'"),
        ("groupoid", "--groupoid", "one:C0", "bad order '0' in 'C0'"),
    ])
    def test_bad_order_in_a_name_exits_four_naming_it(self, tmp_path, capsys,
                                                      family, flag, name, message):
        out = tmp_path / "never.json"
        field = () if family in ("group", "groupoid") else ("--field", "Q")
        assert main(["generate", family, flag, name, *field, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"{message}: expected ASCII digits, at least 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("family,flag,prefix", [
        ("group", "--group", "C"),
        ("group", "--group", "D"),
        ("groupoid", "--groupoid", "pair:"),
        ("groupoid", "--groupoid", "conn:C2:"),
    ])
    def test_order_of_thousands_of_digits_exits_four_naming_the_limit(
            self, tmp_path, capsys, family, flag, prefix):
        # int() refuses strings of more than 4300 digits; the count of digits
        # is refused first, and the message shows the start of the name only
        out = tmp_path / "never.json"
        name = prefix + "9" * 5000
        assert main(["generate", family, flag, name, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"'{name[:32]}...' has an order above the limit of 64" in err
        assert "4300" not in err and len(err) < 200
        assert not out.exists()

    @pytest.mark.parametrize("name,message", [
        ("sum:C2", "in groupoid name 'sum:C2': unknown group name ''"),
        ("one:", "in groupoid name 'one:': unknown group name ''"),
        ("conn::2", "in groupoid name 'conn::2': unknown group name ''"),
    ])
    def test_bad_group_part_names_the_groupoid(self, tmp_path, capsys, name, message):
        out = tmp_path / "never.json"
        assert main(["generate", "groupoid", "--groupoid", name, "--out", str(out)]) == 4
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("family,flag,name,message", [
        ("groupoid", "--groupoid", "pair:" + "x" * 5000, "bad order '{x}...' in '{name}...'"),
        ("group", "--group", "E" * 5000, "unknown group name '{name}...'"),
        ("groupoid", "--groupoid", "q" * 5000, "unknown groupoid name '{name}...'"),
        ("commalgebra", "--base", "q" * 5000, "unknown base algebra name '{name}...'"),
        ("pair-algebroid", "--base", "q" * 5000, "unknown base algebra name '{name}...'"),
        ("group", "--group", "C" + "0" * 5000 + "65", "'{name}...' has order 65, above"),
    ], ids=["bad-order", "group", "groupoid", "base", "algebroid-base", "leading-zeros"])
    def test_long_names_are_cut_in_usage_errors(self, tmp_path, capsys, family, flag,
                                                name, message):
        # each usage error shows the first 32 characters of the name and of a
        # bad order, not the whole text
        out = tmp_path / "never.json"
        field = () if family in ("group", "groupoid") else ("--field", "Q")
        assert main(["generate", family, flag, name, *field, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert message.format(name=name[:32], x="x" * 32) in err
        assert len(err.encode()) < 200
        assert not out.exists()

    @pytest.mark.parametrize("value", [
        "Fp:\u0663",           # Arabic-Indic 3
        "Fp:\uff17",           # fullwidth 7
        "Fp:0_7", "Fp:+7", "Fp:-3", "Fp:", "Fp:7 7",
        "Fp:00000000007",      # 11 digits
    ], ids=["arabic-indic", "fullwidth", "underscore", "plus", "minus", "empty", "space",
            "eleven-digits"])
    def test_field_prime_must_be_ascii_digits(self, tmp_path, capsys, value):
        out = tmp_path / "never.json"
        assert main(["generate", "group-algebra", "--group", "C2", "--field", value,
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"bad --field value {value!r}: p must be 1 to 10 ASCII digits" in err
        assert not out.exists()

    def test_field_prime_of_thousands_of_digits_exits_four_cut(self, tmp_path, capsys):
        # int() refuses strings of more than 4300 digits; the count of digits
        # is refused first, and the message shows the start of the value only
        out = tmp_path / "never.json"
        value = "Fp:" + "7" * 5000
        assert main(["generate", "group-algebra", "--group", "C2", "--field", value,
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"bad --field value '{value[:32]}...': p must be 1 to 10 ASCII digits" in err
        assert "4300" not in err and len(err.encode()) < 200
        assert not out.exists()

    def test_field_prime_of_ten_ascii_digits_is_read(self, tmp_path):
        path = gen(tmp_path, "c2.json", "group-algebra", "--group", "C2",
                   "--field", "fp: 0000000007 ")
        assert json.loads(path.read_text())["field"] == {"kind": "Fp", "p": 7}
        out = tmp_path / "never.json"
        assert main(["generate", "group-algebra", "--group", "C2", "--field",
                     "Fp:2147483659", "--out", str(out)]) == 4
        assert not out.exists()

    @pytest.mark.parametrize("value", ["R", "F7", "GF(7)", "p:7", "x" * 5000])
    def test_field_without_fp_prefix_is_refused(self, tmp_path, capsys, value):
        out = tmp_path / "never.json"
        assert main(["generate", "group-algebra", "--group", "C2", "--field", value,
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        cut = value if len(value) <= 32 else value[:32] + "..."
        assert err == f"usage error: bad --field value {cut!r} (use Q or Fp:<p>)\n"
        assert not out.exists()

    @pytest.mark.parametrize("base, command, quotient_dim", [
        ("k", "separability", 1), ("k", "coseparability", 1),
        ("kxk", "separability", 4), ("kxk", "coseparability", 8),
    ])
    def test_algebroid_quotient_maps_are_reported(self, tmp_path, base, command,
                                                  quotient_dim):
        # a feasible algebroid section or retraction is written through its
        # quotient: the quotient's dimension and the map's coefficients
        path = gen(tmp_path, "pa.json", "pair-algebroid", "--base", base, "--field", "Q")
        total_dim = parse_structure_file(path).total.dim
        report = json.loads(run(tmp_path, command, "--structure", str(path)))
        assert report["feasible"] is True and report["quotient_dim"] == quotient_dim
        assert len(report["coefficients"]) == quotient_dim * total_dim

    @pytest.mark.parametrize("command", ["integrals", "cointegrals"])
    @pytest.mark.parametrize("argv, kind", [
        (("pair-algebroid", "--base", "kxk", "--field", "Q"), "algebroid"),
        (HOPFCAT, "hopfcat"),
    ], ids=["algebroid", "hopf-category"])
    def test_variant_is_refused_where_no_solver_takes_it(self, tmp_path, capsys,
                                                          command, argv, kind):
        # only the weak Hopf solvers have a duoidal variant; the default,
        # primed, may still be named
        path = str(gen(tmp_path, "s.json", *argv))
        out = tmp_path / "never.json"
        assert main([command, "--structure", path, "--side", "left",
                     "--variant", "duoidal", "--out", str(out)]) == 4
        assert capsys.readouterr().err == \
            f"usage error: --variant does not apply to kind {kind!r}\n"
        assert not out.exists()
        report = json.loads(run(tmp_path, command, "--structure", path, "--side", "left",
                                "--variant", "primed"))
        assert report["kind"] == kind and "variant" not in report

    def test_scalar_beyond_the_digit_limit_exits_three(self, tmp_path, capsys):
        # the file's scalars are under MAX_SCALAR_DIGITS, but the separability
        # element 1/c^2 has about 6000 digits, more than str() writes
        c = 10 ** 3000 + 1
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "format_version": "maschke-kit/1", "field": {"kind": "Q"},
            "kind": "commalgebra",
            "payload": {"dim": 1, "labels": ["1"], "mult": [[[str(c)]]],
                        "unit": [f"1/{c}"]}}))
        assert json.loads(run(tmp_path, "validate", "--structure", str(path)))["valid"]
        capsys.readouterr()
        out = tmp_path / "never.json"
        assert main(["separability", "--structure", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"invalid input: an output scalar has more than {sys.get_int_max_str_digits()} "
            "digits, the limit of sys.get_int_max_str_digits()\n")
        assert not out.exists()

    def test_other_value_errors_of_the_scalar_writer_pass_through(self, monkeypatch):
        def refuse(field, value):
            raise ValueError("not a scalar")

        monkeypatch.setattr(FieldSpec, "format_scalar", refuse)
        with pytest.raises(ValueError, match="not a scalar") as caught:
            array_to_json(QQ, (1,))
        assert type(caught.value) is ValueError

    def test_reports_deterministic_modulo_timing(self, tmp_path):
        path = gen(tmp_path, "k4.json", "group-algebra", "--group", "K4",
                   "--field", "Fp:2")
        docs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            assert main(["separability", "--structure", str(path),
                         "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            doc.pop("timing_ms")
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_hopfcat_commands(self, tmp_path):
        path = gen(tmp_path, "hc.json", "hopf-category", "--groupoid", "pair:2",
                   "--field", "Fp:3")
        doc = json.loads(run(tmp_path, "cointegrals", "--structure", str(path),
                             "--side", "left"))
        assert doc["feasible"] is True and doc["family"]
        doc = json.loads(run(tmp_path, "coseparability", "--structure", str(path)))
        assert doc["feasible"] is True
        assert all(e["coseparable"] for e in doc["per_hom"])

    def test_algebroid_commands(self, tmp_path):
        path = gen(tmp_path, "pa.json", "pair-algebroid", "--base", "kxk",
                   "--field", "Q")
        doc = json.loads(run(tmp_path, "integrals", "--structure", str(path),
                             "--side", "left", "--normalized"))
        assert doc["feasible"] is True
        assert doc["solution"]["labels"] == ["p(x)p", "p(x)q", "q(x)p", "q(x)q"]

    def test_maschke_refuses_missing_antipode(self, tmp_path, capsys):
        w = group_algebra(cyclic_group(2), QQ)
        path = tmp_path / "noanti.json"
        path.write_text(serialize_structure(
            WeakHopfPresentation(w.algebra, w.coalgebra, None)))
        assert main(["maschke", "--structure", str(path)]) == 3
        assert capsys.readouterr().err == (
            "invalid input: maschke requires an antipode; the equivalence is "
            "only claimed for Hopf monoids\n")

    @pytest.mark.parametrize("kind, argv", [
        ("group", ("group", "--group", "S3")),
        ("groupoid", ("groupoid", "--groupoid", "pair:2")),
        ("commalgebra", ("commalgebra", "--base", "kxk", "--field", "Q")),
    ], ids=["group", "groupoid", "commalgebra"])
    def test_command_without_a_solver_for_the_kind_exits_three(self, tmp_path, capsys,
                                                               kind, argv):
        path = gen(tmp_path, "s.json", *argv)
        for command in (("integrals", "--side", "left"), ("cointegrals", "--side", "right"),
                        ("separability",), ("coseparability",), ("maschke",)):
            if (command[0], kind) == ("separability", "commalgebra"):
                continue   # the one solver of these kinds
            capsys.readouterr()
            assert main([*command, "--structure", str(path)]) == 3, command
            assert capsys.readouterr().err == \
                f"invalid input: {command[0]} does not apply to kind '{kind}'\n"

    def test_hopfcat_without_objects_exits_three(self, tmp_path, capsys):
        # an empty category has no hom to carry the file's field, so the file
        # is refused at its objects and the presentation at construction
        from maschke_kit.hopfcat import HopfCategoryPresentation
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({
            "format_version": "maschke-kit/1", "field": {"kind": "Fp", "p": 5},
            "kind": "hopfcat", "payload": {"objects": [], "homs": [], "comps": [],
                                           "units": [], "antipode": None}}))
        message = "$.payload.objects: a Hopf category needs at least one object"
        report = json.loads(run(tmp_path, "validate", "--structure", str(path), expect=3))
        assert report["failures"] == [message]
        capsys.readouterr()
        assert main(["separability", "--structure", str(path)]) == 3
        assert capsys.readouterr().err == f"invalid input: {message}\n"
        with pytest.raises(ValueError, match="^a Hopf category needs at least one object$"):
            HopfCategoryPresentation((), {}, {}, {}, None)

    def test_text_format(self, tmp_path):
        path = gen(tmp_path, "c2.json", "group-algebra", "--group", "C2",
                   "--field", "Q")
        out = tmp_path / "r.txt"
        assert main(["separability", "--structure", str(path), "--format",
                     "text", "--out", str(out)]) == 0
        assert "feasible: True" in out.read_text()

    def test_non_ascii_labels_are_written_as_they_are(self, tmp_path):
        path = gen(tmp_path, "c2.json", "group-algebra", "--group", "C2",
                   "--field", "Q")
        doc = json.loads(path.read_text())
        doc["payload"]["labels"] = ["é", "g₁"]
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        argv = ["integrals", "--structure", str(path), "--side", "left", "--normalized"]
        text = tmp_path / "r.txt"
        assert main([*argv, "--format", "text", "--out", str(text)]) == 0
        assert 'solution.labels: ["é", "g₁"]\n' in text.read_text(encoding="utf-8")
        raw = run(tmp_path, *argv)
        assert '"é"' in raw and json.loads(raw)["solution"]["labels"] == ["é", "g₁"]


class TestReportReverification:
    def test_integral_solutions_reverify(self, tmp_path):
        for family, name, flag, value, field in (
                ("group-algebra", "g.json", "--group", "C4", "Q"),
                ("groupoid-algebra", "gd.json", "--groupoid", "pair:2", "Fp:5")):
            path = gen(tmp_path, name, family, flag, value, "--field", field)
            out = tmp_path / "rep.json"
            assert main(["integrals", "--structure", str(path), "--side", "left",
                         "--variant", "duoidal", "--normalized",
                         "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            assert doc["feasible"]
            presentation = parse_structure_file(path)
            f = presentation.field
            sol = tuple(f.parse_scalar(x) for x in doc["solution"]["coefficients"])
            system = integral_system(presentation, "left", "duoidal", True)
            assert system.satisfied_by(sol)
            for row in doc["homogeneous_basis"]:
                vec = tuple(f.parse_scalar(x) for x in row)
                hom_system = integral_system(presentation, "left", "duoidal", False)
                assert hom_system.satisfied_by(vec)

    def test_maschke_witnesses_reverify(self, tmp_path):
        from maschke_kit.weakhopf import cointegral_system
        path = gen(tmp_path, "s3.json", "group-algebra", "--group", "S3",
                   "--field", "Q")
        out = tmp_path / "rep.json"
        assert main(["maschke", "--structure", str(path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        presentation = parse_structure_file(path)
        f = presentation.field
        for side in ("left", "right"):
            for variant in ("primed", "duoidal"):
                w = doc["witnesses"][f"integral {side}/{variant}"]
                vec = tuple(f.parse_scalar(x) for x in w)
                assert integral_system(presentation, side, variant,
                                       True).satisfied_by(vec)
                w = doc["witnesses"][f"cointegral {side}/{variant}"]
                vec = tuple(f.parse_scalar(x) for x in w)
                assert cointegral_system(presentation, side, variant,
                                         True).satisfied_by(vec)


def _parsed(parse, argv):
    """What parse makes of argv: its options, "help" or "usage error"."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            options = parse(list(argv))
    except UsageError:
        return "usage error"
    except SystemExit as exc:  # argparse's -h
        assert exc.code == 0
        return "help"
    return "help" if options is None else options


def _argparse(argv):
    return vars(build_parser().parse_args(argv))


ACCEPTED = [
    ("separability", "--structure", "s.json"),
    ("separability", "--structure=s.json"),
    ("separability", "--struct", "s.json", "--form", "text"),
    ("separability", "--struct=s.json", "--ass=feasible"),
    ("integrals", "--structure", "s", "--side", "left", "--norm", "--variant", "duoidal"),
    ("integrals", "--side=right", "--structure", "a", "--structure", "b",
     "--side", "left", "--assert", "infeasible", "--assert", "feasible"),
    ("cointegrals", "--structure", "s", "--si", "right", "--var", "primed"),
    ("validate", "--structure", "-"),
    ("validate", "--structure", "-", "--out", "-"),
    ("validate", "--structure", "-3"),
    ("validate", "--structure", "-.5"),
    ("validate", "--structure", "-x y"),
    ("validate", "--structure="),
    ("validate", "--structure=a=b"),
    ("maschke", "--out", "r.json", "--structure", "s", "--format=text"),
    ("generate", "group-algebra", "--group", "C3", "--field", "Q"),
    ("generate", "--group", "C3", "group-algebra", "--field", "Q"),
    ("generate", "--group", "C3", "--field", "Q", "group-algebra"),
    ("generate", "--groupoid=pair:2", "--fie", "Fp:3", "hopf-category", "--out", "o"),
    ("generate", "--group", "C3", "--", "group"),
    ("generate", "group", "--"),
    ("generate", "--group", "C3", "group", "--"),
]
HELP = [
    ("-h",), ("--help",), ("--he",), ("separability", "-h"), ("generate", "--help"),
    ("integrals", "--structure", "s", "--h"), ("--bogus", "-h"),
    ("generate", "group-algebra", "extra", "-h"),
]
REFUSED = [
    (), ("sep", "--structure", "s"), ("bogus",), ("--structure", "s", "separability"),
    ("--",), ("--", "separability", "--structure", "s"),
    ("separability",), ("integrals", "--structure", "s"),
    ("separability", "--out", "--structure", "s"), ("separability", "--structure"),
    ("separability", "--structure", "-x"), ("separability", "--structure", "--"),
    ("separability", "--structure", "s", "--bogus"),
    ("--bogus", "separability", "--structure", "s"),
    ("integrals", "--structure", "s", "--s", "left"),
    ("integrals", "-h", "--s", "left"),
    ("generate", "--grou", "C3", "group"),
    ("separability", "--structure", "s", "--=x"),
    ("integrals", "--structure", "s", "--side", "up"),
    ("integrals", "--side", "up", "-h"),
    ("separability", "--structure", "s", "--format", "xml"),
    ("generate", "--group", "C3"), ("generate", "E8-algebra", "--group", "C3"),
    ("separability", "--structure", "s", "extra"),
    ("separability", "--structure", "s", "-"),
    ("separability", "--structure", "s", "--"),
    ("separability", "--structure", "s", "--out", "--", "x"),
    ("generate", "group-algebra", "group", "--group", "C3"),
    ("generate", "group", "--", "extra"),
    ("generate", "group", "--group", "C3", "--"),
    ("separability", "--structure", "s", "--normalized"),
    ("integrals", "--structure", "s", "--side", "left", "--normalized=yes"),
    ("-h=x",), ("--help=1",), ("separability", "-hx"),
]


class TestParser:
    """parse_argv agrees with the argparse tree it replaced (tests/oracles.py)."""

    @pytest.mark.parametrize("argv", ACCEPTED, ids=" ".join)
    def test_accepted_as_by_argparse(self, argv):
        options = _parsed(parse_argv, argv)
        assert isinstance(options, dict)
        assert options == _parsed(_argparse, argv)

    @pytest.mark.parametrize("argv", HELP, ids=" ".join)
    def test_help_as_by_argparse(self, argv):
        assert _parsed(parse_argv, argv) == _parsed(_argparse, argv) == "help"

    @pytest.mark.parametrize("argv", REFUSED, ids=lambda argv: " ".join(argv) or "empty")
    def test_refused_as_by_argparse(self, argv):
        assert _parsed(parse_argv, argv) == _parsed(_argparse, argv) == "usage error"

    def test_every_workload_argv_parses_as_by_argparse(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        # run_path compiles in memory: no bytecode lands in perfbench/
        plan = runpy.run_path(os.path.join(root, "perfbench", "workloads.py"))["plan"]
        argvs = set()
        for seed in (1, 2, 3):
            for workload in ("separability-large", "cli-oneshot"):
                for job in plan(workload, seed)[1]:
                    argv = list(job["args"])
                    if "file" in job:
                        argv += ["--structure", job["file"]]
                    if "generate" in job:
                        argv += ["--out", "generated.json"]
                    argvs.add(tuple(argv))
        assert len(argvs) > 50
        for argv in sorted(argvs):
            options = _parsed(parse_argv, argv)
            assert isinstance(options, dict) and options == _parsed(_argparse, argv), argv

    def test_help_lists_every_command_and_flag(self, capsys):
        for argv in (["-h"], ["integrals", "--help"]):
            assert main(argv) == 0
            text = capsys.readouterr().out
            for command, (_, flags) in COMMANDS.items():
                assert f"\n{command}" in text
                assert all(flag in text for flag in flags)

    @pytest.mark.parametrize("argv, named", [
        (["integrals", "--structure", "s", "--side", "up"], ["--side", "left, right"]),
        (["separability", "--out", "--structure", "s"], ["--out"]),
        (["integrals", "--structure", "s", "--s", "left"], ["--s", "--structure", "--side"]),
        (["integrals", "--structure", "s"], ["--side"]),
        (["separability", "--structure", "s", "--bogus"], ["--bogus"]),
        (["sep"], ["sep", "separability"]),
        ([], ["validate", "generate"]),
    ], ids=["choice", "no-value", "ambiguous", "missing", "unknown", "command",
            "no-command"])
    def test_usage_error_names_the_flag(self, capsys, argv, named):
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert all(word in err for word in named), err


# The modules the package adds to a fresh interpreter, so that what site
# loads at start-up does not count.
IMPORT_PROBE = """
import sys
before = set(sys.modules)
{}
print(" ".join(sorted(set(sys.modules) - before)))
"""
HEAVY = {"argparse", "gettext", "fractions", "decimal"}


def _loaded_by(body, *argv):
    src = os.path.dirname(os.path.dirname(maschke_kit.__file__))
    run = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(body), *argv],
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0, run.stderr
    return set(run.stdout.split())


RUN_MAIN = ("from maschke_kit.cli import main\n"
            "code = main(sys.argv[1:])")
# what every command loads of the package: the CLI, the structure-file layer
# and the two modules that all kinds share
CORE = {"maschke_kit.cli", "maschke_kit.structfile", "maschke_kit.exactlin",
        "maschke_kit.finalg"}


def _package(loaded) -> set:
    return {name for name in loaded if name.startswith("maschke_kit.")}


class TestStartup:
    def test_importing_the_cli_loads_no_parser_or_rational_modules(self):
        loaded = _loaded_by("import maschke_kit.cli")
        assert "maschke_kit.cli" in loaded
        assert not loaded & HEAVY

    def test_importing_the_cli_loads_no_structure_kind(self):
        assert _package(_loaded_by("import maschke_kit.cli")) == CORE

    def test_a_command_loads_only_the_kind_it_reads(self, tmp_path):
        # hopfcat and weakhopf import only exactlin and finalg of the package,
        # and the examples are loaded by generate alone
        out = tmp_path / "report.json"
        for name, argv, module in (
                ("weak.json", ("group-algebra", "--group", "C2", "--field", "Q"),
                 "maschke_kit.weakhopf"),
                ("cat.json", HOPFCAT, "maschke_kit.hopfcat")):
            path = gen(tmp_path, name, *argv)
            loaded = _loaded_by(RUN_MAIN, "validate", "--structure", str(path),
                                "--out", str(out))
            assert json.loads(out.read_text())["valid"] is True
            assert _package(loaded) == CORE | {module}, name

    def test_generate_loads_the_examples(self, tmp_path):
        out = tmp_path / "c2.json"
        loaded = _loaded_by(RUN_MAIN, "generate", "group", "--group", "C2",
                            "--out", str(out))
        assert json.loads(out.read_text())["kind"] == "group"
        assert "maschke_kit.examples" in loaded

    def test_fractions_load_only_for_a_rational(self, tmp_path):
        # kC4/F2 is not separable (2 divides 4); the separability element of
        # kS3/Q has the coefficient 1/6
        for name, field, group, rational in (
                ("c4.json", "Fp:2", "C4", False), ("s3.json", "Q", "S3", True)):
            path = gen(tmp_path, name, "group-algebra", "--group", group,
                       "--field", field)
            out = tmp_path / f"{name}.report"
            loaded = _loaded_by(RUN_MAIN, "separability", "--structure", str(path),
                                "--out", str(out))
            assert json.loads(out.read_text())["feasible"] is rational
            assert ("fractions" in loaded) == rational, name
            assert not loaded & {"argparse", "gettext"}


def _entry(*argv, unbuffered=False, **kwargs):
    """One ``python -m maschke_kit.cli`` process, the real entry point.

    Standard output is block-buffered unless unbuffered, so that a report
    still sits in the buffer when the entry point flushes it before exiting.
    """
    src = os.path.dirname(os.path.dirname(maschke_kit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "maschke_kit.cli", *argv],
                          stderr=subprocess.PIPE, text=True, env=env, timeout=60,
                          **kwargs)


def _in_process(*argv):
    """(exit code, standard output, standard error) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


TIMING = re.compile(r'("?timing_ms"?: )\d+')


def _untimed(text: str) -> str:
    return TIMING.sub(r"\g<1>0", text)


@pytest.fixture(scope="module")
def entry_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("entry")
    w = group_algebra(cyclic_group(2), QQ)
    from maschke_kit.finalg import CoalgebraPresentation
    # the counit (1, 0) breaks the counit law
    defect = WeakHopfPresentation(
        w.algebra, CoalgebraPresentation(QQ, 2, w.coalgebra.comult, (1, 0)), w.antipode)
    (root / "defect.json").write_text(serialize_structure(defect))
    return {
        "c2": str(gen(root, "c2.json", "group-algebra", "--group", "C2", "--field", "Fp:2")),
        "cat": str(gen(root, "cat.json", *HOPFCAT)),
        "pair": str(gen(root, "pair.json", "pair-algebroid", "--base", "kxk",
                        "--field", "Q")),
        "defect": str(root / "defect.json"),
        "root": root,
    }


class TestEntryPoint:
    """``python -m maschke_kit.cli`` ends with os._exit after flushing its
    streams; its output and exit codes are those of main() in process."""

    @pytest.mark.parametrize("argv, code, stream", [
        (("validate", "--structure", "{c2}"), 0, None),
        (("integrals", "--structure", "{c2}", "--side", "left", "--format", "text"),
         0, None),
        (("separability", "--structure", "{c2}", "--assert", "feasible"), 2, None),
        (("maschke", "--structure", "{cat}"), 0, None),
        (("cointegrals", "--structure", "{pair}", "--side", "right"), 0, None),
        (("generate", "group", "--group", "S3"), 0, None),
        (("-h",), 0, None),
        (("validate", "--structure", "{defect}"), 3, None),
        (("integrals", "--structure", "{defect}", "--side", "left"), 3, "invalid input: "),
        (("integrals", "--structure", "{c2}"), 4, "usage error: "),
    ], ids=["validate", "text", "assert", "maschke", "algebroid", "generate", "help",
            "defect-report", "defect", "usage"])
    def test_output_and_exit_code_match_main(self, entry_files, argv, code, stream):
        argv = [a.format(**entry_files) for a in argv]
        run = _entry(*argv)
        expected = _in_process(*argv)
        assert (run.returncode, _untimed(run.stdout), run.stderr) == \
            (expected[0], _untimed(expected[1]), expected[2])
        assert run.returncode == code
        if stream is None:
            assert run.stdout and run.stderr == ""
        else:
            assert run.stdout == "" and run.stderr.startswith(stream)

    def test_out_file_is_complete(self, entry_files, tmp_path):
        argv = ["maschke", "--structure", entry_files["cat"], "--out"]
        run = _entry(*argv, str(tmp_path / "process.json"))
        assert (run.returncode, run.stdout, run.stderr) == (0, "", "")
        assert _in_process(*argv, str(tmp_path / "main.json")) == (0, "", "")
        text = (tmp_path / "process.json").read_text()
        assert _untimed(text) == _untimed((tmp_path / "main.json").read_text())
        assert json.loads(text)["verdict"] == "pass"

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["at-exit", "at-write"])
    @pytest.mark.parametrize("argv", [("validate", "--structure", "{c2}"), ("-h",)],
                             ids=["report", "help"])
    def test_broken_pipe_exits_four(self, entry_files, argv, unbuffered):
        # a buffered report meets the closed pipe when the entry point flushes
        # it; an unbuffered one when it is written
        argv = [a.format(**entry_files) for a in argv]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            run = _entry(*argv, stdout=write_end, unbuffered=unbuffered)
        finally:
            os.close(write_end)
        assert run.returncode == 4
        assert run.stderr == "usage error: cannot write <stdout>: [Errno 32] Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["at-exit", "at-write"])
    def test_full_device_exits_four(self, entry_files, unbuffered):
        with open("/dev/full", "w") as full:
            run = _entry("validate", "--structure", entry_files["c2"], stdout=full,
                         unbuffered=unbuffered)
        assert run.returncode == 4
        assert run.stderr == \
            "usage error: cannot write <stdout>: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("damage", ["closed", "read-only"])
    @pytest.mark.parametrize("argv, code", [
        (("integrals", "--structure", "{c2}"), 4),
        (("integrals", "--structure", "{defect}", "--side", "left"), 3),
    ], ids=["usage", "invalid"])
    def test_unwritable_stderr_keeps_the_exit_code(self, entry_files, argv, code, damage):
        # started with descriptor 2 closed, the process has no sys.stderr; on
        # a descriptor open only for reading, writing the message fails
        def unwritable_stderr():
            if damage == "closed":
                os.close(2)
            else:
                os.dup2(os.open(os.devnull, os.O_RDONLY), 2)

        run = _entry(*[a.format(**entry_files) for a in argv],
                     preexec_fn=unwritable_stderr)
        assert (run.returncode, run.stdout, run.stderr) == (code, "", "")

    def test_closed_stdout_exits_four(self, entry_files, tmp_path):
        # started with descriptor 1 closed, the process has no sys.stdout
        def closed_stdout():
            os.close(1)

        run = _entry("validate", "--structure", entry_files["c2"],
                     stdout=subprocess.DEVNULL, preexec_fn=closed_stdout)
        assert run.returncode == 4
        assert run.stderr == "usage error: cannot write <stdout>: [Errno 9] Bad file descriptor\n"
        # a report to --out needs no standard output
        out = tmp_path / "report.json"
        run = _entry("validate", "--structure", entry_files["c2"], "--out", str(out),
                     stdout=subprocess.DEVNULL, preexec_fn=closed_stdout)
        assert (run.returncode, run.stderr) == (0, "")
        assert json.loads(out.read_text())["valid"] is True


def _refused(tmp_path, capsys, doc, failures):
    """Write doc (JSON text, or a value to dump) as a structure file; validate
    must exit 3 and report exactly failures, and maschke must exit 3 and
    print the first of them."""
    path = tmp_path / "bad.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    report = json.loads(run(tmp_path, "validate", "--structure", str(path), expect=3))
    assert report["valid"] is False
    assert report["failures"] == failures
    capsys.readouterr()
    assert main(["maschke", "--structure", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and failures[0] in err
    assert "Traceback" not in err and "Error" not in err


PAIR2 = ("groupoid", "--groupoid", "pair:2")
ONE_C3 = ("groupoid", "--groupoid", "one:C3")


class TestGroupAndGroupoidRefusals:
    """Each refusal of the one groupoid law check, through files: a group is
    the groupoid of one object.  pair:2 has morphisms f0: x0 -> x0,
    f1: x0 -> x1, f2: x1 -> x0 and f3: x1 -> x1; one:C3 has f0 = e, f1 = a
    and f2 = a^2, and the group C3 has the same table."""

    @pytest.mark.parametrize("argv, damage, message", [
        (PAIR2, lambda p: p["objects"].append("x2"), "2 identities for 3 objects"),
        (PAIR2, lambda p: p.update(identity=[0]), "1 identities for 2 objects"),
        (PAIR2, lambda p: p.update(identity=[0, 9]), "morphism index out of range"),
        (PAIR2, lambda p: p["inverse"].__setitem__(0, 9), "morphism index out of range"),
        (PAIR2, lambda p: p["compose"].__setitem__(0, [0, 0, 9]),
         "morphism index out of range"),
        (PAIR2, lambda p: p["compose"].__setitem__(0, [9, 0, 0]),
         "morphism index out of range"),
        (PAIR2, lambda p: p["compose"].__setitem__(0, [0, -1, 0]),
         "morphism index out of range"),
        (PAIR2, lambda p: p["source"].__setitem__(0, 5), "object index out of range"),
        (PAIR2, lambda p: p["target"].pop(), "morphism table lengths differ"),
        (PAIR2, lambda p: p["compose"].pop(1), "composition partiality wrong at (0, 2)"),
        (PAIR2, lambda p: p["compose"].append([0, 1, 1]),
         "composition partiality wrong at (0, 1)"),
        (PAIR2, lambda p: p["compose"].__setitem__(1, [0, 2, 3]),
         "composite (0, 2) has wrong endpoints"),
        (PAIR2, lambda p: p.update(identity=[0, 1]),
         "identity of object 1 has wrong endpoints"),
        (ONE_C3, lambda p: p["compose"].__setitem__(0, [0, 0, 1]), "identity law fails at 0"),
        (ONE_C3, lambda p: p["inverse"].__setitem__(1, 1), "inverse law fails at 1"),
        (ONE_C3, lambda p: p["compose"].__setitem__(4, [1, 1, 1]),
         "associativity fails at (1, 1, 2)"),
        (PAIR2, lambda p: p.update({key: [] for key in p}),
         "a groupoid needs at least one object"),
    ], ids=["extra-object", "object-without-identity", "identity-index", "inverse-index",
            "composite-index", "compose-key", "negative-compose-key", "source-index",
            "lengths", "missing-composite", "extra-composite", "composite-endpoints",
            "identity-endpoints", "identity-law", "inverse-law", "associativity",
            "no-object"])
    def test_groupoid_file_refusal(self, tmp_path, capsys, argv, damage, message):
        doc = json.loads(gen(tmp_path, "g.json", *argv).read_text())
        damage(doc["payload"])
        _refused(tmp_path, capsys, doc, [f"$.payload: {message}"])

    @pytest.mark.parametrize("table, message", [
        ([[0, 1, 2], [1, 2, 0], [2, 0, 7]], "morphism index out of range"),
        ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], "identity law fails at 1"),
        ([[0, 1, 2], [1, 1, 1], [2, 1, 2]], "inverse law fails at 1"),
        ([[0, 1, 2], [1, 1, 0], [2, 1, 0]], "inverse law fails at 1"),
        ([[0, 1, 2], [1, 1, 0], [2, 0, 1]], "associativity fails at (1, 1, 2)"),
    ], ids=["index", "no-identity", "no-inverse", "inverse-law", "associativity"])
    def test_group_file_refusal(self, tmp_path, capsys, table, message):
        doc = json.loads(gen(tmp_path, "c3.json", "group", "--group", "C3").read_text())
        doc["payload"]["table"] = table
        _refused(tmp_path, capsys, doc, [f"$.payload.table: {message}"])

    @pytest.mark.parametrize("field, value, message", [
        ("identity", 1, "identity law fails at 0"),
        ("identity", 3, "morphism index out of range"),
        ("inverse", [0, 1, 2], "inverse law fails at 1"),
        ("inverse", [0, 2], "morphism table lengths differ"),
    ], ids=["identity", "identity-index", "inverse", "inverse-length"])
    def test_group_identity_and_inverses_are_taken_as_written(self, tmp_path, capsys,
                                                              field, value, message):
        # the law check refuses an identity or inverses that do not fit the table
        doc = json.loads(gen(tmp_path, "c3.json", "group", "--group", "C3").read_text())
        doc["payload"][field] = value
        _refused(tmp_path, capsys, doc, [f"$.payload.table: {message}"])

    @pytest.mark.parametrize("argv", [PAIR2, HOPFCAT], ids=["groupoid", "hopf-category"])
    def test_object_labels_must_be_text(self, tmp_path, capsys, argv):
        doc = json.loads(gen(tmp_path, "g.json", *argv).read_text())
        doc["payload"]["objects"] = [1, {"a": 2}]
        _refused(tmp_path, capsys, doc, ["$.payload.objects: object labels must be text"])


class TestFileRefusals:
    """Refusals of malformed files that no other test reaches."""

    @pytest.mark.parametrize("damage, message", [
        (lambda p: p["comps"][0].update(path=[0, 0, 5]),
         "$.payload.comps[0].path: refers to a missing hom"),
        (lambda p: p["units"][0].update(object=7),
         "$.payload.units[0]: unit object has no hom"),
    ], ids=["missing-hom", "unit-without-hom"])
    def test_hopf_category_refusal(self, tmp_path, capsys, damage, message):
        doc = json.loads(gen(tmp_path, "hc.json", *HOPFCAT).read_text())
        damage(doc["payload"])
        _refused(tmp_path, capsys, doc, [message])

    def test_hopf_category_hom_that_is_no_coalgebra(self, tmp_path, capsys):
        # a broken hom coalgebra is reported before any composition law
        doc = json.loads(gen(tmp_path, "hc.json", *HOPFCAT).read_text())
        doc["payload"]["homs"][0]["counit"] = ["0"]
        _refused(tmp_path, capsys, doc, ["hom(0,0) left counit fails at (0,)",
                                         "hom(0,0) right counit fails at (0,)"])

    def test_top_level_must_be_an_object(self, tmp_path, capsys):
        _refused(tmp_path, capsys, "[]", ["$: top level must be an object"])

    def test_unit_vector_must_be_nonzero(self, tmp_path, capsys):
        doc = json.loads(gen(tmp_path, "c2.json", "group-algebra", "--group", "C2",
                             "--field", "Q").read_text())
        doc["payload"]["unit"] = ["0", "0"]
        _refused(tmp_path, capsys, doc, ["$.payload: unit vector must be nonzero"])

    @pytest.mark.parametrize("field, message", [
        ({"kind": "R"}, "$.field.kind: unknown field kind 'R'"),
        ({"kind": "Fp", "p": 4}, "$.field.p: 4 is not prime"),
    ], ids=["kind", "prime"])
    def test_field_descriptor_refusals_name_the_root(self, tmp_path, capsys, field,
                                                     message):
        doc = json.loads(gen(tmp_path, "c2.json", "group-algebra", "--group", "C2",
                             "--field", "Q").read_text())
        doc["field"] = field
        _refused(tmp_path, capsys, doc, [message])
