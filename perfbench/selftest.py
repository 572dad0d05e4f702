"""Self-test of the reference checks: they accept correct outputs and reject
a flipped verdict and a perturbed witness.

Usage: python3 perfbench/selftest.py   (exit 0 when every case behaves)

The structures and outputs here are written by hand, so the test needs
neither ``maschke_kit`` nor a solver run.
"""

from __future__ import annotations

import copy
import sys
from fractions import Fraction

from reference import KNOWN_GAP, Structure, check_cli_job, check_maschke, check_mutant, \
    check_sweep_case


def cyclic_group_algebra(n: int, p: int) -> Structure:
    """kC_n in the structure-file layout; basis g^0..g^(n-1)."""
    def tok(x):
        return str(x)

    mult = [[[tok(int(k == (i + j) % n)) for k in range(n)] for j in range(n)]
            for i in range(n)]
    comult = [[[tok(int(i == j == k)) for k in range(n)] for j in range(n)]
              for i in range(n)]
    antipode = [[tok(int(i == (-j) % n)) for j in range(n)] for i in range(n)]
    field = {"kind": "Q"} if p == 0 else {"kind": "Fp", "p": p}
    return Structure({"kind": "weakhopf", "field": field, "payload": {
        "dim": n, "mult": mult, "unit": [tok(int(i == 0)) for i in range(n)],
        "comult": comult, "counit": ["1"] * n, "antipode": antipode}})


def pair_groupoid_algebra(bent_antipode: bool) -> Structure:
    """Q of the pair groupoid on {0, 1}; basis (a, b) -> 2a + b, with
    (a, b)(b, c) = (a, c), Delta(g) = g (x) g, eps(g) = 1 and S(a, b) = (b, a).
    With ``bent_antipode``, S(0, 0) = (0, 0) + (1, 1): the first two antipode
    axioms still hold, S(h1) h2 S(h3) = S(h) does not."""
    arrows = [(a, b) for a in range(2) for b in range(2)]
    n = len(arrows)
    mult = [[[str(int(f[1] == g[0] and arrows[k] == (f[0], g[1]))) for k in range(n)]
             for g in arrows] for f in arrows]
    comult = [[[str(int(i == j == k)) for k in range(n)] for j in range(n)]
              for i in range(n)]
    antipode = [[str(int(arrows[i] == arrows[j][::-1])) for j in range(n)]
                for i in range(n)]
    if bent_antipode:
        antipode[3][0] = "1"
    return Structure({"kind": "weakhopf", "field": {"kind": "Q"}, "payload": {
        "dim": n, "mult": mult, "unit": [str(int(a == b)) for a, b in arrows],
        "comult": comult, "counit": ["1"] * n, "antipode": antipode}})


def sweep_result(n: int, p: int) -> dict:
    """The correct weakhopf-sweep result for kC_n."""
    def fmt(x):
        return str(x % p) if p else str(x)

    inv_n = pow(n, -1, p) if p and n % p else (Fraction(1, n) if not p else None)
    keys = ("left/primed", "left/duoidal", "right/primed", "right/duoidal")
    t = None if inv_n is None else [fmt(inv_n)] * n
    delta_e = [fmt(int(i == 0)) for i in range(n)]
    sep = None
    if inv_n is not None:
        sep = [fmt(inv_n if (a + b) % n == 0 else 0) for a in range(n) for b in range(n)]
    retraction = [fmt(int(m == i == j)) for m in range(n) for i in range(n)
                  for j in range(n)]
    conversions = {"cointegral left": delta_e, "cointegral right": delta_e}
    if t is not None:
        conversions.update({"integral left": t, "integral right": t})
    return {"integrals": dict.fromkeys(keys, t),
            "cointegrals": dict.fromkeys(keys, delta_e),
            "separability": sep, "coseparability": retraction,
            "conversions": conversions}


def main() -> int:
    failures = []

    def expect(label, problems, should_fail):
        if bool(problems) != should_fail:
            failures.append(f"{label}: problems={problems}")

    for n, p in ((3, 0), (4, 5), (3, 3), (4, 2)):
        s = cyclic_group_algebra(n, p)
        good = sweep_result(n, p)
        label = f"kC{n} over {'Q' if not p else f'F{p}'}"
        expect(f"{label} correct", check_sweep_case(s, "group-algebra", good), False)

        flipped = copy.deepcopy(good)
        flipped["coseparability"] = None
        expect(f"{label} flipped coseparability", check_sweep_case(
            s, "group-algebra", flipped), True)
        flipped = copy.deepcopy(good)
        if good["separability"] is None:
            flipped["separability"] = ["0"] * (n * n)
        else:
            flipped["separability"] = None
        expect(f"{label} flipped separability", check_sweep_case(
            s, "group-algebra", flipped), True)

        bent = copy.deepcopy(good)
        bent["cointegrals"]["right/primed"] = ["1"] * n
        expect(f"{label} perturbed cointegral", check_sweep_case(
            s, "group-algebra", bent), True)
        bent = copy.deepcopy(good)
        bent["coseparability"][n * n] = "1"     # P[1, (0, 0)]
        expect(f"{label} perturbed retraction", check_sweep_case(
            s, "group-algebra", bent), True)
        if good["separability"] is not None:
            bent = copy.deepcopy(good)
            bent["separability"][1] = "1"
            expect(f"{label} perturbed separability element", check_sweep_case(
                s, "group-algebra", bent), True)
            bent = copy.deepcopy(good)
            bent["integrals"]["left/duoidal"] = ["1"] + ["0"] * (n - 1)
            expect(f"{label} perturbed integral", check_sweep_case(
                s, "group-algebra", bent), True)

    s = cyclic_group_algebra(3, 0)
    report = {"kind": "weakhopf", "verdict": "pass",
              "integrals": dict.fromkeys(("left/primed", "right/duoidal"), True),
              "cointegrals": dict.fromkeys(("left/primed", "right/duoidal"), True),
              "separability": True, "coseparability": True,
              "witnesses": {"integral left/primed": ["1/3"] * 3,
                            "cointegral left/primed": ["1", "0", "0"]}}
    expect("maschke report correct", check_maschke(s, "group-algebra", report), False)
    bad = copy.deepcopy(report)
    bad["separability"] = False
    bad["integrals"]["left/primed"] = False
    expect("maschke flipped verdicts", check_maschke(s, "group-algebra", bad), True)
    bad = copy.deepcopy(report)
    bad["witnesses"]["integral left/primed"] = ["1/3", "1/3", "1/2"]
    expect("maschke perturbed witness", check_maschke(s, "group-algebra", bad), True)

    valid = cyclic_group_algebra(3, 0)
    broken = cyclic_group_algebra(3, 0)
    broken.unit = [2, 0, 0]
    accepted = {"valid": True, "failures": [], "verdict": "pass"}
    rejected = {"valid": False, "failures": [["left unit", [0]]], "verdict": None}
    expect("valid mutant accepted", check_mutant(valid, accepted), False)
    expect("invalid mutant rejected with witness", check_mutant(broken, rejected), False)
    expect("invalid mutant accepted", check_mutant(broken, accepted), True)
    expect("valid mutant rejected", check_mutant(valid, rejected), True)
    expect("invalid mutant rejected without witness", check_mutant(
        broken, {"valid": False, "failures": [["left unit", None]], "verdict": None}), True)
    expect("valid mutant failing Maschke", check_mutant(
        valid, {"valid": True, "failures": [], "verdict": "fail"}), True)
    expect("valid groupoid algebra accepted", check_mutant(
        pair_groupoid_algebra(False), accepted), False)
    bent = pair_groupoid_algebra(True)
    if check_mutant(bent, accepted) != [KNOWN_GAP]:
        failures.append("accepting a map that breaks S(h1) h2 S(h3) = S(h) "
                        "is not reported as the known gap")
    expect("third-axiom mutant rejected with witness", check_mutant(
        bent, {"valid": False, "failures": [["antipode", [0]]], "verdict": None}), False)

    defect = {"args": ["validate", "--structure", "x.json"], "expect": 3,
              "spec": {"family": "defect", "law": "counit"}}
    expect("defect named", check_cli_job(
        defect, 3, '{"valid": false, "failures": ["left counit fails at (0,)"]}',
        "", "."), False)
    expect("defect not named", check_cli_job(
        defect, 3, '{"valid": false, "failures": ["associativity fails"]}', "", "."),
        True)
    expect("defect accepted", check_cli_job(defect, 0, '{"valid": true}', "", "."), True)

    for line in failures:
        print(f"selftest: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
