"""The three workloads: which structure files each needs and which jobs it runs.

This module imports nothing from ``maschke_kit``.  ``make_inputs.py`` turns
the file specs into structure files; ``run.py`` turns the job specs into
library calls or CLI invocations.  The seed decides the mutants, the lift
perturbations, the defect files and the job order; everything else is fixed
so that every seed asks for the same amount of work.
"""

from __future__ import annotations

import random

WORKLOADS = ("weakhopf-sweep", "separability-large", "cli-oneshot")

# criterion-04 corpus
SWEEP_GROUPS = ("C2", "C3", "C4", "C5", "C6", "K4", "S3")
SWEEP_GROUPOIDS = ("pair:2", "sum:C2,C2", "conn:C2:2", "pair:3")
SWEEP_FIELDS = ("Q", "Fp:2", "Fp:3", "Fp:5")
# criterion-08 mutation bases
MUTANT_BASES = (("group-algebra", "C2", "Q"), ("groupoid-algebra", "pair:2", "Q"))
MUTANTS_PER_BASE = 40
# A mutant that breaks only the third antipode axiom, S(h1) h2 S(h3) = S(h),
# which weakhopf.check_antipode does not test: the program accepts it.  It is
# the same in every run, so this known fault is one failed operation in every
# round until the check is mended.
KNOWN_FAULT_MUTANT = ("groupoid-algebra", "pair:2", "Q", 1290)

LIFT_PERTURBATIONS = 2
# Doubling a unit or a counit must stay nonzero, so defects avoid F2.
DEFECT_FIELDS = ("Q", "Fp:3", "Fp:5")
DEFECT_GROUPS = ("C3", "C4", "S3")


def file_name(spec: dict) -> str:
    parts = [spec["family"], spec["arg"], spec.get("field") or "nofield"]
    for key in ("seed", "defect"):
        if key in spec:
            parts.append(f"{key}{spec[key]}")
    if spec.get("fixed"):
        parts.append("fixed")
    text = "_".join(str(p) for p in parts)
    for ch in ":,":
        text = text.replace(ch, "")
    return text + ".json"


def spec(family, arg, field=None, **extra) -> dict:
    out = {"family": family, "arg": arg, "field": field}
    out.update(extra)
    out["file"] = file_name(out)
    return out


def _sweep_files(seed: int) -> list:
    files = []
    for field in SWEEP_FIELDS:
        files += [spec("group-algebra", g, field) for g in SWEEP_GROUPS]
        files += [spec("dual-group-algebra", g, field) for g in SWEEP_GROUPS]
        files += [spec("groupoid-algebra", g, field) for g in SWEEP_GROUPOIDS]
    rng = random.Random(seed)
    for family, arg, field in MUTANT_BASES:
        for _ in range(MUTANTS_PER_BASE):
            files.append(spec("mutant", arg, field, base=family,
                              seed=rng.randrange(1 << 30)))
    family, arg, field, mutant_seed = KNOWN_FAULT_MUTANT
    files.append(spec("mutant", arg, field, base=family, seed=mutant_seed, fixed=True))
    return files


# (command, family, arg, field): separability of kG and kGd depends on
# whether p divides the (vertex) group order, coseparability of k^G too.
# Q, F5 are feasible, F3 infeasible.  The group and dual group algebras
# over Q are left out: each alone takes 9-20 s and would not fit the run
# length; conn:C3:2 and the Hopf category conn:C2:2 keep the Q path.
SEPARABILITY_LARGE_JOBS = (
    ("separability", "group-algebra", "C12", "Fp:5"),
    ("separability", "group-algebra", "C12", "Fp:3"),
    ("separability", "group-algebra", "D6", "Fp:5"),
    ("separability", "group-algebra", "D6", "Fp:3"),
    ("separability", "groupoid-algebra", "conn:C3:2", "Q"),
    ("separability", "groupoid-algebra", "conn:C3:2", "Fp:5"),
    ("separability", "groupoid-algebra", "conn:C3:2", "Fp:3"),
    ("coseparability", "dual-group-algebra", "C12", "Fp:5"),
    ("coseparability", "dual-group-algebra", "C12", "Fp:3"),
    ("coseparability", "dual-group-algebra", "D6", "Fp:5"),
    ("coseparability", "dual-group-algebra", "D6", "Fp:3"),
    ("separability", "hopf-category", "conn:C2:2", "Q"),
    ("separability", "hopf-category", "conn:C2:2", "Fp:5"),
    ("separability", "hopf-category", "conn:C2:2", "Fp:3"),
)


def _cli(args, file_spec=None, expect=0, **extra) -> dict:
    job = {"args": list(args), "expect": expect}
    if file_spec is not None:
        job["file"] = file_spec["file"]
        job["spec"] = file_spec
    job.update(extra)
    return job


WEAKHOPF_COMMANDS = (
    ("validate",),
    ("integrals", "--side", "left", "--normalized"),
    ("cointegrals", "--side", "right", "--variant", "duoidal", "--normalized"),
    ("separability",),
    ("coseparability",),
    ("maschke",),
)
ALGEBROID_COMMANDS = (
    ("validate",),
    ("integrals", "--side", "left", "--normalized"),
    ("cointegrals", "--side", "left", "--normalized"),
    ("separability",),
    ("coseparability",),
    ("maschke",),
)
HOPFCAT_COMMANDS = (
    ("validate",),
    ("integrals", "--side", "left"),
    ("cointegrals", "--side", "right"),
    ("separability",),
    ("coseparability",),
    ("maschke",),
)

# generate family, flag, value, field
GENERATE_JOBS = (
    ("group-algebra", "--group", "C6", "Q"),
    ("dual-group-algebra", "--group", "S3", "Fp:5"),
    ("groupoid-algebra", "--groupoid", "pair:3", "Fp:3"),
    ("hopf-category", "--groupoid", "conn:C2:2", "Q"),
    ("pair-algebroid", "--base", "dual", "Q"),
    ("group", "--group", "D4", None),
    ("groupoid", "--groupoid", "sum:C2,C3", None),
    ("commalgebra", "--base", "kxk", "Fp:2"),
)


def _cli_oneshot(seed: int):
    rng = random.Random(seed)
    files, jobs = [], []

    def run_all(file_spec, commands):
        files.append(file_spec)
        for cmd in commands:
            jobs.append(_cli(cmd, file_spec))

    for f in (spec("group-algebra", "S3", "Q"),
              spec("group-algebra", "C4", "Fp:2"),
              spec("dual-group-algebra", "S3", "Fp:3"),
              spec("groupoid-algebra", "pair:2", "Fp:3"),
              spec("groupoid-algebra", "conn:C2:2", "Fp:2")):
        run_all(f, WEAKHOPF_COMMANDS)
    for f in (spec("pair-algebroid", "k", "Q"),
              spec("pair-algebroid", "dual", "Q"),
              spec("pair-algebroid", "kxk", "Fp:3")):
        run_all(f, ALGEBROID_COMMANDS)
    # Lifts perturbed along the circ relations present the same algebroid,
    # so every verdict must stay what it is for the unperturbed lift.
    for base, field in (("dual", "Q"), ("kxk", "Fp:3")):
        for _ in range(LIFT_PERTURBATIONS):
            run_all(spec("lift", base, field, seed=rng.randrange(1 << 30)),
                    (("validate",), ("maschke",)))
    for f in (spec("hopf-category", "pair:2", "Fp:3"),
              spec("hopf-category", "one:C3", "Fp:3"),
              spec("hopf-category", "conn:C2:2", "Q")):
        run_all(f, HOPFCAT_COMMANDS)
    for f in (spec("group", "S3"), spec("groupoid", "pair:3")):
        run_all(f, (("validate",),))
    for f in (spec("commalgebra", "dual", "Q"), spec("commalgebra", "kxk", "Fp:3")):
        run_all(f, (("validate",), ("separability",)))
    # Defects made by construction: the file must be refused with exit 3 and
    # the report must name the broken law.
    defects = (
        spec("defect", rng.choice(DEFECT_GROUPS), rng.choice(DEFECT_FIELDS),
             base="group-algebra", defect="doubled-unit", law="unit"),
        spec("defect", rng.choice(DEFECT_GROUPS), rng.choice(DEFECT_FIELDS),
             base="group-algebra", defect="scaled-counit", law="counit"),
        spec("defect", "pair:2", rng.choice(DEFECT_FIELDS),
             base="hopf-category", defect="doubled-unit", law="unit"),
    )
    for f in defects:
        files.append(f)
        jobs.append(_cli(("validate",), f, expect=3))
        jobs.append(_cli(("maschke",), f, expect=3))
    for family, flag, value, field in GENERATE_JOBS:
        args = ["generate", family, flag, value]
        if field is not None:
            args += ["--field", field]
        jobs.append(_cli(args, None, generate={"family": family, "arg": value,
                                               "field": field}))
    rng.shuffle(jobs)
    return files, jobs


def _separability_large(seed: int):
    files, jobs = [], []
    seen = set()
    for command, family, arg, field in SEPARABILITY_LARGE_JOBS:
        f = spec(family, arg, field)
        if f["file"] not in seen:
            seen.add(f["file"])
            files.append(f)
        jobs.append(_cli((command,), f))
    random.Random(seed).shuffle(jobs)
    return files, jobs


def plan(workload: str, seed: int):
    """(file specs, jobs) for one workload and seed.

    The weakhopf sweep has no CLI jobs: its single worker walks the files.
    """
    if workload == "weakhopf-sweep":
        return _sweep_files(seed), []
    if workload == "separability-large":
        return _separability_large(seed)
    if workload == "cli-oneshot":
        return _cli_oneshot(seed)
    raise ValueError(f"unknown workload {workload!r}")
