"""Set-up step: write one workload's structure files and warm the bytecode cache.

Usage: python3 perfbench/make_inputs.py --workload NAME --seed N --out DIR

Writes DIR/manifest.json (the file specs and jobs of ``workloads.plan``) and
one structure file per spec.  Mutants, lift perturbations and defects are
made here, so the measured processes only read finished inputs.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

from maschke_kit import examples  # noqa: E402
from maschke_kit.cli import parse_field_flag  # noqa: E402
from maschke_kit.exactlin import Matrix  # noqa: E402
from maschke_kit.hopfalgd import HopfAlgebroidPresentation, circ_relations  # noqa: E402
from maschke_kit.structfile import serialize_structure  # noqa: E402


def _presentation(family, arg, field):
    if family == "group-algebra":
        return examples.group_algebra(examples.group_by_name(arg), field)
    if family == "dual-group-algebra":
        return examples.dual_group_algebra(examples.group_by_name(arg), field)
    if family == "groupoid-algebra":
        return examples.groupoid_algebra(examples.groupoid_by_name(arg), field)
    if family == "hopf-category":
        return examples.hopf_category_from_groupoid(examples.groupoid_by_name(arg), field)
    if family == "pair-algebroid":
        return examples.pair_hopf_algebroid(examples.base_by_name(arg, field))
    if family == "group":
        return examples.group_by_name(arg)
    if family == "groupoid":
        return examples.groupoid_by_name(arg)
    if family == "commalgebra":
        return examples.base_by_name(arg, field)
    raise ValueError(f"unknown family {family!r}")


def _perturbed_lift(h, seed):
    """Add random circ-relation vectors to columns of the comultiplication lift."""
    rng = random.Random(seed)
    field = h.field
    rel = circ_relations(h)
    n = h.total.dim
    ent = list(h.comult_lift.entries)
    for col in range(n):
        if rng.random() < 0.5:
            continue
        row = rel.basis.row(rng.randrange(rel.dim))
        c = field.coerce(rng.randrange(1, 5))
        for r in range(n * n):
            if row[r] != 0:
                ent[r * n + col] = field.add(ent[r * n + col], field.mul(c, row[r]))
    return HopfAlgebroidPresentation(h.base, h.total, h.src, h.tgt,
                                     Matrix(field, n * n, n, tuple(ent)),
                                     h.counit, h.antipode)


def _double_tokens(tokens, p):
    out = []
    for tok in tokens:
        x = Fraction(tok) * 2
        out.append(str(x.numerator % p) if p else str(x))
    return out


def _defect_text(spec, field):
    doc = json.loads(serialize_structure(
        _presentation(spec["base"], spec["arg"], field)))
    p = field.characteristic
    payload = doc["payload"]
    if spec["defect"] == "doubled-unit" and spec["base"] == "hopf-category":
        payload["units"][0]["vector"] = _double_tokens(payload["units"][0]["vector"], p)
    elif spec["defect"] == "doubled-unit":
        payload["unit"] = _double_tokens(payload["unit"], p)
    elif spec["defect"] == "scaled-counit":
        payload["counit"] = _double_tokens(payload["counit"], p)
    else:
        raise ValueError(f"unknown defect {spec['defect']!r}")
    return json.dumps(doc, indent=2) + "\n"


def structure_text(spec) -> str:
    field = None if spec["field"] is None else parse_field_flag(spec["field"])
    family = spec["family"]
    if family == "mutant":
        base = _presentation(spec["base"], spec["arg"], field)
        return serialize_structure(examples.mutate(base, spec["seed"]))
    if family == "lift":
        base = _presentation("pair-algebroid", spec["arg"], field)
        return serialize_structure(_perturbed_lift(base, spec["seed"]))
    if family == "defect":
        return _defect_text(spec, field)
    return serialize_structure(_presentation(family, spec["arg"], field))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    src = os.path.join(os.path.dirname(HERE), "src")
    if not compileall.compile_dir(src, quiet=1) or \
            not compileall.compile_dir(HERE, quiet=1):
        print("bytecode compilation failed", file=sys.stderr)
        return 1
    files, jobs = workloads.plan(args.workload, args.seed)
    os.makedirs(args.out, exist_ok=True)
    for spec in files:
        with open(os.path.join(args.out, spec["file"]), "w", encoding="utf-8") as fh:
            fh.write(structure_text(spec))
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "files": files, "jobs": jobs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
