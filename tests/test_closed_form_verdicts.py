"""Maschke verdicts predicted by classical theorems, end to end.

Each case runs ``generate`` and then ``maschke`` through ``cli.main`` in
process and reads the flags from the JSON report, so the generators, the
writer, the reader, the solvers and the report are all under test.  The
expected flags come from the theorems alone and share no code with the
solvers (p is the characteristic, 0 for Q):

- kG: the integral side (integrals of every side and variant, and
  separability) holds iff p does not divide |G| (Maschke); the cointegral
  side (cointegrals and coseparability) always;
- k^G: the mirror image, the integral side always and the cointegral side
  iff p does not divide |G|;
- the groupoid algebra and the Hopf category of a groupoid: the integral
  side iff p divides the order of no vertex group; the cointegral side
  always;
- the pair algebroids R (x) R over k, dual and kxk: both sides always
  (R (x) R is the Sweedler coring of k -> R, which splits over a field).

Every report's verdict is "pass": the equivalences hold on both sides.
"""

import json

import pytest

from maschke_kit.cli import main

FIELDS = {"Q": 0, "Fp:2": 2, "Fp:3": 3, "Fp:5": 5, "Fp:7": 7}

# group name -> order
GROUPS = {"C1": 1, "C2": 2, "C3": 3, "C4": 4, "C5": 5, "C6": 6, "C7": 7, "C8": 8,
          "V4": 4, "S3": 6, "D4": 8, "D5": 10}

# groupoid name -> the orders of its vertex groups, and whether it has a
# Hopf category (a disjoint union has empty homs, so it has none)
GROUPOIDS = {"pair:2": ((1, 1), True), "pair:3": ((1, 1, 1), True),
             "one:S3": ((6,), True), "sum:C2,C3": ((2, 3), False),
             "sum:C5,C7": ((5, 7), False), "conn:C2:2": ((2, 2), True),
             "conn:C3:2": ((3, 3), True), "conn:S3:2": ((6, 6), True),
             "conn:V4:2": ((4, 4), True)}


def divides(p, order):
    return p != 0 and order % p == 0


def cases():
    """(field, family, flag, name, integral side, cointegral side)."""
    for field, p in FIELDS.items():
        for name, order in GROUPS.items():
            maschke = not divides(p, order)
            yield field, "group-algebra", "--group", name, maschke, True
            yield field, "dual-group-algebra", "--group", name, True, maschke
        for name, (vertex_orders, has_category) in GROUPOIDS.items():
            maschke = not any(divides(p, order) for order in vertex_orders)
            yield field, "groupoid-algebra", "--groupoid", name, maschke, True
            if has_category:
                yield field, "hopf-category", "--groupoid", name, maschke, True
        for base in ("k", "dual", "kxk"):
            yield field, "pair-algebroid", "--base", base, True, True


def sides(doc):
    """The flags of a maschke report's integral side and cointegral side."""
    if doc["kind"] == "hopfcat":
        return ([*doc["integral_families"].values(), doc["separability_family"]],
                [*doc["retraction_families"].values(), doc["hom_coseparability"]])
    return ([*doc["integrals"].values(), doc["separability"]],
            [*doc["cointegrals"].values(), doc["coseparability"]])


@pytest.mark.parametrize("field", FIELDS)
def test_maschke_report_matches_the_theorems(tmp_path, field):
    structure, report = tmp_path / "structure.json", tmp_path / "report.json"
    mismatches = []
    for case in cases():
        if case[0] != field:
            continue
        _, family, flag, name, integral, cointegral = case
        assert main(["generate", family, flag, name, "--field", field,
                     "--out", str(structure)]) == 0
        assert main(["maschke", "--structure", str(structure),
                     "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        got_integral, got_cointegral = sides(doc)
        if (got_integral != [integral] * len(got_integral)
                or got_cointegral != [cointegral] * len(got_cointegral)
                or doc["verdict"] != "pass"):
            mismatches.append((family, name, got_integral, got_cointegral,
                               doc["verdict"]))
    assert not mismatches

