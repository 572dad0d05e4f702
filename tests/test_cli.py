import json
import os
import subprocess
import sys

import pytest

import maschke_kit
from maschke_kit import finalg, weakhopf
from maschke_kit.cli import main
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
    parse_structure_file,
    parse_structure_text,
    serialize_structure,
)
from maschke_kit.weakhopf import StructureDefectError, WeakHopfPresentation, \
    integral_system

from denselin import comult_matrix, counit_matrix, unit_matrix

QQ = FieldSpec.rationals()


def run(tmp_path, *argv, expect=0):
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    assert code == expect, (argv, code)
    return out.read_text() if out.exists() else ""


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

    def test_maschke_refuses_missing_antipode(self, tmp_path):
        w = group_algebra(cyclic_group(2), QQ)
        path = tmp_path / "noanti.json"
        path.write_text(serialize_structure(
            WeakHopfPresentation(w.algebra, w.coalgebra, None)))
        assert main(["maschke", "--structure", str(path)]) == 3

    def test_text_format(self, tmp_path):
        path = gen(tmp_path, "c2.json", "group-algebra", "--group", "C2",
                   "--field", "Q")
        out = tmp_path / "r.txt"
        assert main(["separability", "--structure", str(path), "--format",
                     "text", "--out", str(out)]) == 0
        assert "feasible: True" in out.read_text()


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
