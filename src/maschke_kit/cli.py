"""Command-line front end: validate structures, run solvers, emit reports.

Reports are JSON by default (deterministic up to the timing field) and embed
solutions as coefficient lists over the labeled bases, so they can be
re-verified against freshly rebuilt constraint systems.

Exit codes: 0 command ran, 2 --assert mismatch, 3 invalid input (an input
too large for the available memory included), 4 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import examples, finalg, hopfalgd, hopfcat, weakhopf
from .exactlin import FieldSpec
from .finalg import InvalidPresentationError
from .structfile import (
    FORMAT_VERSION,
    StructureFileError,
    check_presentation,
    field_to_json,
    kind_of,
    parse_structure_file,
    parse_structure_text_unvalidated,
    presentation_field,
    serialize_structure,
)

BASIS_CONVENTION = "left-major"

EXIT_OK = 0
EXIT_ASSERT = 2
EXIT_INVALID = 3
EXIT_USAGE = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_field_flag(text: str) -> FieldSpec:
    text = text.strip()
    if text in ("Q", "q"):
        return FieldSpec.rationals()
    if text.lower().startswith("fp:"):
        try:
            return FieldSpec.gf(int(text[3:]))
        except ValueError as exc:
            raise UsageError(f"bad --field value {text!r}: {exc}")
    raise UsageError(f"bad --field value {text!r} (use Q or Fp:<p>)")


def _vec_out(field, vec):
    return [field.format_scalar(v) for v in vec]


def _solution_doc(field, labels, vec):
    doc = {"coefficients": _vec_out(field, vec)}
    if labels is not None:
        doc["labels"] = labels
    return doc


def _affine_doc(field, labels, afs):
    return {
        "solution": _solution_doc(field, labels, afs.particular),
        "homogeneous_basis": [
            _vec_out(field, afs.homogeneous.basis.row(i))
            for i in range(afs.homogeneous.dim)],
    }


def _hopfcat_table_doc(field, h, table):
    return [{"source": x, "target": y,
             "coefficients": _vec_out(field, table[(x, y)])}
            for (x, y) in sorted(table)]


def _run_integrals(presentation, kind, args, report):
    side = args.side
    report["side"] = side
    f = presentation_field(presentation)
    if kind == "weakhopf":
        report["variant"] = args.variant
        report["normalized"] = args.normalized
        sol = weakhopf.solve_integral(presentation, side, args.variant,
                                      args.normalized)
        report["feasible"] = sol is not None
        if sol is not None:
            report.update(_affine_doc(f, list(presentation.labels), sol.solutions))
    elif kind == "algebroid":
        report["normalized"] = args.normalized
        sol = hopfalgd.solve_integral_hgd(presentation, side, args.normalized)
        report["feasible"] = sol is not None
        if sol is not None:
            report.update(_affine_doc(f, list(presentation.total.labels),
                                      sol.solutions))
    elif kind == "hopfcat":
        fam = hopfcat.solve_integral_family(presentation, side)
        report["feasible"] = fam is not None
        if fam is not None:
            report["family"] = _hopfcat_table_doc(f, presentation, fam.table)
    else:
        raise StructureFileError(f"integrals does not apply to kind {kind!r}")
    return report["feasible"]


def _run_cointegrals(presentation, kind, args, report):
    side = args.side
    report["side"] = side
    f = presentation_field(presentation)
    if kind == "weakhopf":
        report["variant"] = args.variant
        report["normalized"] = args.normalized
        sol = weakhopf.solve_cointegral(presentation, side, args.variant,
                                        args.normalized)
        report["feasible"] = sol is not None
        if sol is not None:
            report.update(_affine_doc(f, list(presentation.labels), sol.solutions))
    elif kind == "algebroid":
        report["normalized"] = args.normalized
        sol = hopfalgd.solve_cointegral_hgd(presentation, side, args.normalized)
        report["feasible"] = sol is not None
        if sol is not None:
            doc = _affine_doc(f, None, sol.solutions)
            doc["solution"]["rows"] = list(presentation.base.labels)
            doc["solution"]["cols"] = list(presentation.total.labels)
            report.update(doc)
    elif kind == "hopfcat":
        fam = hopfcat.solve_retraction_family(presentation, side)
        report["feasible"] = fam is not None
        report["note"] = "per-object counit retractions"
        if fam is not None:
            report["family"] = [{"object": x,
                                 "coefficients": _vec_out(f, fam.table[x])}
                                for x in sorted(fam.table)]
    else:
        raise StructureFileError(f"cointegrals does not apply to kind {kind!r}")
    return report["feasible"]


def _run_separability(presentation, kind, report):
    f = presentation_field(presentation)
    if kind == "weakhopf":
        section = finalg.solve_separability(presentation.algebra)
        report["feasible"] = section is not None
        if section is not None:
            report["element"] = _vec_out(f, section.element)
            report["coefficients"] = _vec_out(f, section.map.entries)
    elif kind == "algebroid":
        section = hopfalgd.solve_separability_hgd(presentation)
        report["feasible"] = section is not None
        if section is not None:
            report["quotient_dim"] = section.quotient.dim
            report["coefficients"] = _vec_out(f, section.map.entries)
    elif kind == "hopfcat":
        fam = hopfcat.solve_separability_family(presentation)
        report["feasible"] = fam is not None
        if fam is not None:
            report["family"] = [
                {"path": list(key),
                 "entries": [_vec_out(f, fam.table[key].row(i))
                             for i in range(fam.table[key].rows)]}
                for key in sorted(fam.table)]
    elif kind == "commalgebra":
        section = finalg.solve_separability(presentation.algebra)
        report["feasible"] = section is not None
        if section is not None:
            report["element"] = _vec_out(f, section.element)
    else:
        raise StructureFileError(f"separability does not apply to kind {kind!r}")
    return report["feasible"]


def _run_coseparability(presentation, kind, report):
    f = presentation_field(presentation)
    if kind == "weakhopf":
        retraction = finalg.solve_coseparability(presentation.coalgebra)
        report["feasible"] = retraction is not None
        if retraction is not None:
            report["coefficients"] = _vec_out(f, retraction.map.entries)
    elif kind == "algebroid":
        retraction = hopfalgd.solve_coseparability_hgd(presentation)
        report["feasible"] = retraction is not None
        if retraction is not None:
            report["quotient_dim"] = retraction.quotient.dim
            report["coefficients"] = _vec_out(f, retraction.map.entries)
    elif kind == "hopfcat":
        verdicts = hopfcat.check_hom_coseparability(presentation)
        report["feasible"] = verdicts.all_coseparable
        report["per_hom"] = [{"source": x, "target": y, "coseparable": v}
                             for (x, y), v in sorted(verdicts.table.items())]
    else:
        raise StructureFileError(f"coseparability does not apply to kind {kind!r}")
    return report["feasible"]


MASCHKE_SOLVERS = {"weakhopf": weakhopf.maschke_report,
                   "algebroid": hopfalgd.maschke_report,
                   "hopfcat": hopfcat.maschke_report}


def _run_maschke(presentation, kind, report):
    if kind not in MASCHKE_SOLVERS:
        raise StructureFileError(f"maschke does not apply to kind {kind!r}")
    if presentation.antipode is None:
        raise StructureFileError(
            "maschke requires an antipode; the equivalence is only claimed "
            "for Hopf monoids")
    rep = MASCHKE_SOLVERS[kind](presentation)
    if kind == "hopfcat":
        report["integral_families"] = rep.integral_flags
        report["separability_family"] = rep.separability is not None
        report["retraction_families"] = rep.cointegral_flags
        report["hom_coseparability"] = rep.coseparability is not None
    else:
        report["integrals"] = {_key(k): v for k, v in rep.integral_flags.items()}
        report["cointegrals"] = {_key(k): v for k, v in rep.cointegral_flags.items()}
        report["separability"] = rep.separability is not None
        report["coseparability"] = rep.coseparability is not None
    if kind == "weakhopf":
        f = presentation.field
        witnesses = {}
        for key, sol in rep.integrals.items():
            witnesses["integral %s/%s" % key] = \
                None if sol is None else _vec_out(f, sol.element)
        for key, sol in rep.cointegrals.items():
            witnesses["cointegral %s/%s" % key] = \
                None if sol is None else _vec_out(f, sol.functional)
        report["witnesses"] = witnesses
    report["verdict"] = "pass" if rep.verdict else "fail"
    return rep.verdict


def _key(key):
    """Report key of a solver: "left", or "left/primed" for weak Hopf variants."""
    return key if isinstance(key, str) else "/".join(key)


GENERATORS = {
    "group-algebra": ("group", lambda a, f: examples.group_algebra(
        examples.group_by_name(a), f)),
    "dual-group-algebra": ("group", lambda a, f: examples.dual_group_algebra(
        examples.group_by_name(a), f)),
    "groupoid-algebra": ("groupoid", lambda a, f: examples.groupoid_algebra(
        examples.groupoid_by_name(a), f)),
    "hopf-category": ("groupoid", lambda a, f: examples.hopf_category_from_groupoid(
        examples.groupoid_by_name(a), f)),
    "pair-algebroid": ("base", lambda a, f: examples.pair_hopf_algebroid(
        examples.base_by_name(a, f))),
    "group": ("group", lambda a, f: examples.group_by_name(a)),
    "groupoid": ("groupoid", lambda a, f: examples.groupoid_by_name(a)),
    "commalgebra": ("base", lambda a, f: examples.base_by_name(a, f)),
}


def _emit(text, out):
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _render_text(report) -> str:
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k in value:
                walk(f"{prefix}{k}.", value[k]) if isinstance(value[k], (dict, list)) \
                    else lines.append(f"{prefix}{k}: {value[k]}")
        elif isinstance(value, list):
            lines.append(f"{prefix[:-1]}: {json.dumps(value)}")
        else:
            lines.append(f"{prefix[:-1]}: {value}")

    walk("", report)
    return "\n".join(lines) + "\n"


def _emit_report(report, args):
    report["timing_ms"] = int((time.monotonic() - report.pop("_t0")) * 1000)
    if getattr(args, "format", "json") == "text":
        text = _render_text(report)
    else:
        text = json.dumps(report, indent=2, ensure_ascii=False) + "\n"
    _emit(text, getattr(args, "out", None))


def build_parser() -> _Parser:
    parser = _Parser(prog="maschke-kit",
                     description="Exact feasibility solvers for integrals, "
                                 "cointegrals and (co)separability structures")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, side=False, variant=False, normalized=False, assert_=True):
        p.add_argument("--structure", required=True, help="structure file path")
        if side:
            p.add_argument("--side", choices=("left", "right"), required=True)
        if variant:
            p.add_argument("--variant", choices=("primed", "duoidal"),
                           default="primed")
        if normalized:
            p.add_argument("--normalized", action="store_true",
                           help="add the normalization rows")
        if assert_:
            p.add_argument("--assert", dest="assertion",
                           choices=("feasible", "infeasible"),
                           help="exit 2 unless the verdict matches")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", default="-", help="report destination (- = stdout)")

    add_common(sub.add_parser("validate", help="run every axiom check"),
               assert_=False)
    add_common(sub.add_parser("integrals", help="solve the integral conditions"),
               side=True, variant=True, normalized=True)
    add_common(sub.add_parser("cointegrals", help="solve the cointegral conditions"),
               side=True, variant=True, normalized=True)
    add_common(sub.add_parser("separability", help="solve for a bimodule section"))
    add_common(sub.add_parser("coseparability",
                              help="solve for a bicomodule retraction"))
    add_common(sub.add_parser("maschke",
                              help="run all solvers and certify the equivalences"),
               assert_=False)

    gen = sub.add_parser("generate", help="emit a canonical structure file")
    gen.add_argument("family", choices=sorted(GENERATORS))
    gen.add_argument("--group", help="group name (C<n>, K4, S3, D<n>)")
    gen.add_argument("--groupoid",
                     help="groupoid name (pair:<n>, one:<g>, sum:<g>,<g>, conn:<g>:<n>)")
    gen.add_argument("--base", help="base algebra name (k, dual, kxk)")
    gen.add_argument("--field", help="Q or Fp:<p>")
    gen.add_argument("--out", default="-")
    return parser


def execute_command(argv) -> int:
    """Dispatch one CLI invocation; returns the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate":
        flag_name, builder = GENERATORS[args.family]
        value = getattr(args, flag_name)
        if value is None:
            raise UsageError(f"generate {args.family} needs --{flag_name}")
        field = None
        if args.family not in ("group", "groupoid"):
            if args.field is None:
                raise UsageError(f"generate {args.family} needs --field")
            field = parse_field_flag(args.field)
        try:
            presentation = builder(value, field)
        except ValueError as exc:
            raise UsageError(str(exc))
        _emit(serialize_structure(presentation), args.out)
        return EXIT_OK

    report = {
        "command": args.command,
        "format_version": FORMAT_VERSION,
        "basis_convention": BASIS_CONVENTION,
        "structure": args.structure,
        "_t0": time.monotonic(),
    }

    if args.command == "validate":
        return _run_validate(args, report)

    presentation = parse_structure_file(args.structure)
    kind = kind_of(presentation)
    report["kind"] = kind
    field = presentation_field(presentation)
    report["field"] = None if field is None else field_to_json(field)

    if args.command == "maschke":
        _run_maschke(presentation, kind, report)
        _emit_report(report, args)
        return EXIT_OK

    runner = {
        "integrals": lambda: _run_integrals(presentation, kind, args, report),
        "cointegrals": lambda: _run_cointegrals(presentation, kind, args, report),
        "separability": lambda: _run_separability(presentation, kind, report),
        "coseparability": lambda: _run_coseparability(presentation, kind, report),
    }[args.command]
    feasible = runner()
    _emit_report(report, args)
    assertion = getattr(args, "assertion", None)
    if assertion is not None:
        if feasible != (assertion == "feasible"):
            return EXIT_ASSERT
    return EXIT_OK


def _run_validate(args, report) -> int:
    try:
        with open(args.structure, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise StructureFileError(str(exc))
    try:
        presentation = parse_structure_text_unvalidated(text)
    except (StructureFileError, ValueError) as exc:
        report["valid"] = False
        report["failures"] = [str(exc)]
        _emit_report(report, args)
        return EXIT_INVALID
    report["kind"] = kind_of(presentation)
    rep = check_presentation(presentation)
    failures = [f.render() for f in rep.failures]
    warnings = [w.render() for w in rep.warnings]
    report["valid"] = not failures
    report["failures"] = failures
    report["warnings"] = warnings
    _emit_report(report, args)
    return EXIT_OK if not failures else EXIT_INVALID


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return execute_command(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (StructureFileError, InvalidPresentationError,
            weakhopf.StructureDefectError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError:
        # the failed allocation's frames are gone by now, so printing works
        print("out of memory: the input needs more memory than this process "
              "may use", file=sys.stderr)
        return EXIT_INVALID


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
