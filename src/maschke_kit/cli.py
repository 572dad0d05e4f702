"""Command-line front end: validate structures, run solvers, emit reports.

Reports are JSON by default (deterministic up to the timing field) and embed
solutions as coefficient lists over the labeled bases, so they can be
re-verified against freshly rebuilt constraint systems.

Exit codes: 0 command ran, 2 --assert mismatch, 3 invalid input (an input
too large for the available memory included), 4 usage error.

The argv is read against one table of flags per command (``COMMANDS``) by a
small parser with argparse's rules, so a one-shot process does not import
argparse or build a parser tree.  A command imports the module of the one
structure kind it reads (``generate`` imports ``examples``), and the process
entry point ``console_main`` ends without the interpreter's teardown.
"""

from __future__ import annotations

import errno
import json
import os
import re
import sys
import time

from . import finalg
from .exactlin import FieldSpec
from .finalg import InvalidPresentationError, StructureDefectError
from .structfile import (
    FORMAT_VERSION,
    StructureFileError,
    check_presentation,
    field_to_json,
    kind_of,
    parse_structure_file,
    parse_structure_text_unvalidated,
    presentation_field,
    read_structure_text,
    serialize_structure,
)

BASIS_CONVENTION = "left-major"

EXIT_OK = 0
EXIT_ASSERT = 2
EXIT_INVALID = 3
EXIT_USAGE = 4


class UsageError(Exception):
    pass


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
    basis = afs.homogeneous.basis
    return {
        "solution": _solution_doc(field, labels, afs.particular),
        "homogeneous_basis": [_vec_out(field, basis.row(i)) for i in range(basis.rows)],
    }


def _hopfcat_table_doc(field, h, table):
    return [{"source": x, "target": y,
             "coefficients": _vec_out(field, table[(x, y)])}
            for (x, y) in sorted(table)]


def _run_integrals(presentation, kind, args, report):
    side = args["side"]
    report["side"] = side
    f = presentation_field(presentation)
    if kind == "weakhopf":
        from . import weakhopf
        report["variant"] = args["variant"]
        report["normalized"] = args["normalized"]
        sol = weakhopf.solve_integral(presentation, side, args["variant"],
                                      args["normalized"])
        report["feasible"] = sol is not None
        if sol is not None:
            report.update(_affine_doc(f, list(presentation.labels), sol.solutions))
    elif kind == "algebroid":
        from . import hopfalgd
        report["normalized"] = args["normalized"]
        sol = hopfalgd.solve_integral_hgd(presentation, side, args["normalized"])
        report["feasible"] = sol is not None
        if sol is not None:
            report.update(_affine_doc(f, list(presentation.total.labels),
                                      sol.solutions))
    elif kind == "hopfcat":
        from . import hopfcat
        fam = hopfcat.solve_integral_family(presentation, side)
        report["feasible"] = fam is not None
        if fam is not None:
            report["family"] = _hopfcat_table_doc(f, presentation, fam.table)
    else:
        raise StructureFileError(f"integrals does not apply to kind {kind!r}")
    return report["feasible"]


def _run_cointegrals(presentation, kind, args, report):
    side = args["side"]
    report["side"] = side
    f = presentation_field(presentation)
    if kind == "weakhopf":
        from . import weakhopf
        report["variant"] = args["variant"]
        report["normalized"] = args["normalized"]
        sol = weakhopf.solve_cointegral(presentation, side, args["variant"],
                                        args["normalized"])
        report["feasible"] = sol is not None
        if sol is not None:
            report.update(_affine_doc(f, list(presentation.labels), sol.solutions))
    elif kind == "algebroid":
        from . import hopfalgd
        report["normalized"] = args["normalized"]
        sol = hopfalgd.solve_cointegral_hgd(presentation, side, args["normalized"])
        report["feasible"] = sol is not None
        if sol is not None:
            doc = _affine_doc(f, None, sol.solutions)
            doc["solution"]["rows"] = list(presentation.base.labels)
            doc["solution"]["cols"] = list(presentation.total.labels)
            report.update(doc)
    elif kind == "hopfcat":
        from . import hopfcat
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
        from . import hopfalgd
        section = hopfalgd.solve_separability_hgd(presentation)
        report["feasible"] = section is not None
        if section is not None:
            report["quotient_dim"] = section.quotient.dim
            report["coefficients"] = _vec_out(f, section.map.entries)
    elif kind == "hopfcat":
        from . import hopfcat
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
        from . import hopfalgd
        retraction = hopfalgd.solve_coseparability_hgd(presentation)
        report["feasible"] = retraction is not None
        if retraction is not None:
            report["quotient_dim"] = retraction.quotient.dim
            report["coefficients"] = _vec_out(f, retraction.map.entries)
    elif kind == "hopfcat":
        from . import hopfcat
        verdicts = hopfcat.check_hom_coseparability(presentation)
        report["feasible"] = verdicts.all_coseparable
        report["per_hom"] = [{"source": x, "target": y, "coseparable": v}
                             for (x, y), v in sorted(verdicts.table.items())]
    else:
        raise StructureFileError(f"coseparability does not apply to kind {kind!r}")
    return report["feasible"]


def _run_maschke(presentation, kind, report):
    if kind == "weakhopf":
        from .weakhopf import maschke_report
    elif kind == "algebroid":
        from .hopfalgd import maschke_report
    elif kind == "hopfcat":
        from .hopfcat import maschke_report
    else:
        raise StructureFileError(f"maschke does not apply to kind {kind!r}")
    if presentation.antipode is None:
        raise StructureFileError(
            "maschke requires an antipode; the equivalence is only claimed "
            "for Hopf monoids")
    rep = maschke_report(presentation)
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


# family -> (the flag naming its input, builder(examples module, name, field))
GENERATORS = {
    "group-algebra": ("group", lambda ex, a, f: ex.group_algebra(
        ex.group_by_name(a), f)),
    "dual-group-algebra": ("group", lambda ex, a, f: ex.dual_group_algebra(
        ex.group_by_name(a), f)),
    "groupoid-algebra": ("groupoid", lambda ex, a, f: ex.groupoid_algebra(
        ex.groupoid_by_name(a), f)),
    "hopf-category": ("groupoid", lambda ex, a, f: ex.hopf_category_from_groupoid(
        ex.groupoid_by_name(a), f)),
    "pair-algebroid": ("base", lambda ex, a, f: ex.pair_hopf_algebroid(
        ex.base_by_name(a, f))),
    "group": ("group", lambda ex, a, f: ex.group_by_name(a)),
    "groupoid": ("groupoid", lambda ex, a, f: ex.groupoid_by_name(a)),
    "commalgebra": ("base", lambda ex, a, f: ex.base_by_name(a, f)),
}


def _stdout_error(exc: OSError) -> UsageError:
    return UsageError(f"cannot write <stdout>: {exc}")


def _write_stdout(text):
    """Write text to standard output; a failed write, or a process started
    with standard output closed, is a UsageError like a failed --out."""
    try:
        if sys.stdout is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.write(text)
    except OSError as exc:
        raise _stdout_error(exc) from exc


def _emit(text, out):
    if out in (None, "-"):
        _write_stdout(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from exc


def _check_out(out):
    """Refuse before any work a destination that open() would refuse for its
    directory or as a directory; _emit maps a later failure the same way."""
    if out in (None, "-"):
        return
    folder = os.path.dirname(out) or "."
    if not os.path.isdir(folder):
        code = errno.ENOENT
    elif os.path.isdir(out):
        code = errno.EISDIR
    elif not os.access(folder, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise UsageError(f"cannot write {out}: {OSError(code, os.strerror(code), out)}")


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
    if args["format"] == "text":
        text = _render_text(report)
    else:
        text = json.dumps(report, indent=2, ensure_ascii=False) + "\n"
    _emit(text, args["out"])


DESCRIPTION = ("Exact feasibility solvers for integrals, cointegrals and "
               "(co)separability structures")

# A command's flags: flag -> (dest, choices, default, required, help).  A flag
# whose choices are None takes any value; a SWITCH takes none and stores True.
SWITCH = "switch"

_STRUCTURE = {"--structure": ("structure", None, None, True, "structure file path")}
_SOLVER = {
    "--side": ("side", ("left", "right"), None, True, "side of the (co)integral"),
    "--variant": ("variant", ("primed", "duoidal"), "primed", False,
                  "weak Hopf (co)integral variant"),
    "--normalized": ("normalized", SWITCH, False, False, "add the normalization rows"),
}
_ASSERT = {"--assert": ("assertion", ("feasible", "infeasible"), None, False,
                        "exit 2 unless the verdict matches")}
_REPORT = {"--format": ("format", ("json", "text"), "json", False, "report format"),
           "--out": ("out", None, "-", False, "report destination (- = stdout)")}
_HELP = {flag: ("help", SWITCH, False, False, "print this text and exit")
         for flag in ("-h", "--help")}

COMMANDS = {
    "validate": ("run every axiom check", {**_STRUCTURE, **_REPORT}),
    "integrals": ("solve the integral conditions",
                  {**_STRUCTURE, **_SOLVER, **_ASSERT, **_REPORT}),
    "cointegrals": ("solve the cointegral conditions",
                    {**_STRUCTURE, **_SOLVER, **_ASSERT, **_REPORT}),
    "separability": ("solve for a bimodule section",
                     {**_STRUCTURE, **_ASSERT, **_REPORT}),
    "coseparability": ("solve for a bicomodule retraction",
                       {**_STRUCTURE, **_ASSERT, **_REPORT}),
    "maschke": ("run all solvers and certify the equivalences",
                {**_STRUCTURE, **_REPORT}),
    "generate": ("emit a canonical structure file", {
        "--group": ("group", None, None, False, "group name (C<n>, K4, S3, D<n>)"),
        "--groupoid": ("groupoid", None, None, False,
                       "groupoid name (pair:<n>, one:<g>, sum:<g>,<g>, conn:<g>:<n>)"),
        "--base": ("base", None, None, False, "base algebra name (k, dual, kxk)"),
        "--field": ("field", None, None, False, "Q or Fp:<p>"),
        "--out": ("out", None, "-", False, "structure file destination (- = stdout)"),
    }),
}
# command -> (dest, choices) of its one positional argument
POSITIONALS = {"generate": ("family", tuple(sorted(GENERATORS)))}

# argparse reads these as values, not as flags, when no flag looks like a number
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _resolve(token: str, flags: dict):
    """(flag, the value after '=' or None) of a flag token, or (None, None)
    when token names no flag.  A long flag may be cut to a unique prefix."""
    if token in flags:
        return token, None
    name, eq, value = token.partition("=")
    value = value if eq else None
    if eq and name in flags:
        return name, value
    if name.startswith("--"):
        matches = [flag for flag in flags if flag.startswith(name)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous flag {name} (could be {', '.join(matches)})")
        if matches:
            return matches[0], value
    return None, None


def _is_value(token: str, flags: dict) -> bool:
    """Whether argparse would read token as a value rather than as a flag."""
    if token[:1] != "-" or token == "-":
        return True
    if token == "--" or _resolve(token, flags)[0] is not None:
        return False
    return bool(_NEGATIVE_NUMBER.match(token)) or " " in token


def _check_choice(name: str, value: str, choices):
    if value not in choices:
        raise UsageError(f"{name}: invalid choice {value!r} "
                         f"(choose from {', '.join(choices)})")


def parse_argv(argv) -> dict | None:
    """The options of one invocation, {"command": name, dest: value, ...} with
    a default for every flag not given, or None when it asks for help.

    The rules are argparse's: ``--flag value`` or ``--flag=value``, a unique
    prefix for a long flag, the last of a repeated flag wins, ``-`` and
    negative numbers are values, ``--`` ends the flags, and an unknown flag or
    an extra argument is refused only once the rest has been read.  Raises
    UsageError.
    """
    unknown = []
    for i, token in enumerate(argv):
        if token == "--" or _is_value(token, _HELP):
            _check_choice("command", token, COMMANDS)
            return _parse_command(token, argv[i + 1:], unknown)
        flag, value = _resolve(token, _HELP)
        if flag is None:
            unknown.append(token)
        elif value is not None:
            raise UsageError(f"{flag} takes no value")
        else:
            return None
    raise UsageError(f"missing command (choose from {', '.join(COMMANDS)})")


def _parse_command(command: str, tokens, unknown: list) -> dict | None:
    flags = COMMANDS[command][1]
    lookup = {**flags, **_HELP}
    positional = POSITIONALS.get(command)
    # Every token after the first "--" is a value.  The "--" itself is
    # absorbed next to the positional argument and is extra anywhere else.
    end = tokens.index("--") if "--" in tokens else len(tokens)
    absorbed = end == len(tokens)
    # every token is classified before any is read, as argparse does, so an
    # ambiguous flag is refused wherever it stands
    is_value = [i > end or (i < end and _is_value(token, lookup))
                for i, token in enumerate(tokens)]
    options = {"command": command}
    options.update((spec[0], spec[2]) for spec in flags.values())
    given = set()
    i = 0
    while i < len(tokens):
        pos, token = i, tokens[i]
        i += 1
        if pos == end:
            continue
        if is_value[pos]:
            if positional is None or positional[0] in given:
                unknown.append(token)
                continue
            _check_choice(positional[0], token, positional[1])
            options[positional[0]] = token
            given.add(positional[0])
            absorbed = absorbed or end in (pos - 1, pos + 1)
            continue
        flag, value = _resolve(token, lookup)
        if flag is None:
            unknown.append(token)
            continue
        dest, choices = lookup[flag][:2]
        if choices is SWITCH:
            if value is not None:
                raise UsageError(f"{flag} takes no value")
            if flag in _HELP:
                return None
            options[dest] = True
            continue
        if value is None:
            if i == len(tokens) or not is_value[i]:
                raise UsageError(f"{flag} needs a value")
            value = tokens[i]
            i += 1
        if choices is not None:
            _check_choice(flag, value, choices)
        options[dest] = value
        given.add(flag)
    missing = [flag for flag, spec in flags.items() if spec[3] and flag not in given]
    if positional is not None and positional[0] not in given:
        missing.append(positional[0])
    if missing:
        raise UsageError(f"{command} needs {', '.join(missing)}")
    if not absorbed:
        unknown.append("--")
    if unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    return options


def usage_text() -> str:
    """The -h text: every command with its flags."""
    lines = ["usage: maschke-kit COMMAND [FLAGS]", "", DESCRIPTION + "."]
    for command, (about, flags) in COMMANDS.items():
        head = command
        if command in POSITIONALS:
            head += f" {{{','.join(POSITIONALS[command][1])}}}"
        lines += ["", head, f"    {about}"]
        for flag, (dest, choices, default, required, text) in flags.items():
            arg = "" if choices is SWITCH else \
                f" {{{','.join(choices)}}}" if choices else f" {dest.upper()}"
            note = " (required)" if required else \
                f" (default: {default})" if isinstance(default, str) else ""
            lines.append(f"  {flag + arg:<34}{text}{note}")
    lines += ["",
              "-h, --help prints this text.  A flag's value follows it or an '=';",
              "a long flag may be cut to any unique prefix (--struct, --norm).",
              "",
              "exit codes: 0 command ran, 2 --assert mismatch, 3 invalid input,",
              "4 usage error."]
    return "\n".join(lines) + "\n"


def execute_command(argv) -> int:
    """Dispatch one CLI invocation; returns the exit code."""
    args = parse_argv(argv)
    if args is None:
        _write_stdout(usage_text())
        return EXIT_OK
    if args["command"] == "generate":
        family = args["family"]
        flag_name, builder = GENERATORS[family]
        value = args[flag_name]
        if value is None:
            raise UsageError(f"generate {family} needs --{flag_name}")
        field = None
        if family not in ("group", "groupoid"):
            if args["field"] is None:
                raise UsageError(f"generate {family} needs --field")
            field = parse_field_flag(args["field"])
        from . import examples
        try:
            presentation = builder(examples, value, field)
        except ValueError as exc:
            raise UsageError(str(exc))
        _emit(serialize_structure(presentation), args["out"])
        return EXIT_OK

    _check_out(args["out"])
    report = {
        "command": args["command"],
        "format_version": FORMAT_VERSION,
        "basis_convention": BASIS_CONVENTION,
        "structure": args["structure"],
        "_t0": time.monotonic(),
    }

    if args["command"] == "validate":
        return _run_validate(args, report)

    presentation = parse_structure_file(args["structure"])
    kind = kind_of(presentation)
    report["kind"] = kind
    field = presentation_field(presentation)
    report["field"] = None if field is None else field_to_json(field)

    if args["command"] == "maschke":
        _run_maschke(presentation, kind, report)
        _emit_report(report, args)
        return EXIT_OK

    runner = {
        "integrals": lambda: _run_integrals(presentation, kind, args, report),
        "cointegrals": lambda: _run_cointegrals(presentation, kind, args, report),
        "separability": lambda: _run_separability(presentation, kind, report),
        "coseparability": lambda: _run_coseparability(presentation, kind, report),
    }[args["command"]]
    feasible = runner()
    _emit_report(report, args)
    assertion = args.get("assertion")
    if assertion is not None:
        if feasible != (assertion == "feasible"):
            return EXIT_ASSERT
    return EXIT_OK


def _run_validate(args, report) -> int:
    text = read_structure_text(args["structure"])
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
        return _usage_error(exc)
    except (StructureFileError, InvalidPresentationError,
            StructureDefectError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError:
        # the failed allocation's frames are gone by now, so printing works
        print("out of memory: the input needs more memory than this process "
              "may use", file=sys.stderr)
        return EXIT_INVALID


def _usage_error(exc: UsageError) -> int:
    print(f"usage error: {exc}", file=sys.stderr)
    return EXIT_USAGE


def console_main():
    """The process entry point (``python -m maschke_kit.cli`` and the
    ``maschke-kit`` script): run main(), flush standard output and error, and
    end the process with os._exit, skipping the interpreter's teardown of
    every loaded module.  A failed flush of standard output is reported as a
    failed write is.  If standard error cannot be flushed, the process exits
    through sys.exit, whose teardown reports the failure.  In-process callers
    use main(), which returns.
    """
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        code = _usage_error(_stdout_error(exc))
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    console_main()
