"""Command-line front end: validate structures, run solvers, emit reports.

Reports are JSON by default (deterministic up to the timing field) and embed
solutions as coefficient lists over the labeled bases, so they can be
re-verified against freshly rebuilt constraint systems.

Exit codes: 0 command ran, 2 --assert mismatch, 3 invalid input (an input
too large for the available memory included), 4 usage error.

The argv is read against one table of flags per command (``COMMANDS``) by a
small parser with argparse's rules, so a one-shot process does not import
argparse or build a parser tree.  One table keyed by (command, kind),
``SOLVERS``, names the module and the solver that answer a command on a
structure kind, the options the solver takes and the writer of its report; a
pair with no entry is invalid input.  A command imports only the module its
entry names, which is the kind's module that reading the file loaded or one
every command loads (``generate`` imports ``examples``), and the process
entry point ``console_main`` ends without the interpreter's teardown.
"""

from __future__ import annotations

import errno
import importlib
import json
import os
import re
import sys
import time

from .exactlin import FieldSpec
from .finalg import InvalidPresentationError, StructureDefectError
from .structfile import (
    FORMAT_VERSION,
    StructureFileError,
    array_to_json,
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
    from .examples import _cut
    if text.lower().startswith("fp:"):
        p = text[3:].strip()
        try:
            if not (p.isascii() and p.isdigit() and len(p) <= 10):
                raise ValueError("p must be 1 to 10 ASCII digits")
            return FieldSpec.gf(int(p))
        except ValueError as exc:
            raise UsageError(f"bad --field value {_cut(text)!r}: {exc}")
    raise UsageError(f"bad --field value {_cut(text)!r} (use Q or Fp:<p>)")


def _affine_doc(field, labels, afs):
    solution = {"coefficients": array_to_json(field, afs.particular)}
    if labels is not None:
        solution["labels"] = labels
    return {"solution": solution,
            "homogeneous_basis": array_to_json(field, afs.homogeneous.basis)}


# A report writer, write(report, field, presentation, solver result), adds
# the verdict and the witness of a solver to the report.

def _feasible(report, result) -> bool:
    report["feasible"] = result is not None
    return result is not None


def _basis_solution(report, f, w, sol):
    """A weak Hopf (co)integral, over the basis labels."""
    if _feasible(report, sol):
        report.update(_affine_doc(f, list(w.labels), sol.solutions))


def _total_solution(report, f, h, sol):
    """An algebroid integral, over the labels of the total algebra."""
    if _feasible(report, sol):
        report.update(_affine_doc(f, list(h.total.labels), sol.solutions))


def _base_by_total_solution(report, f, h, sol):
    """An algebroid cointegral, a table over the base and total labels."""
    if _feasible(report, sol):
        report.update(_affine_doc(f, None, sol.solutions))
        report["solution"].update(rows=list(h.base.labels), cols=list(h.total.labels))


def _integral_family(report, f, h, fam):
    if _feasible(report, fam):
        report["family"] = [{"source": x, "target": y, "coefficients": array_to_json(f, v)}
                            for (x, y), v in sorted(fam.table.items())]


def _retraction_family(report, f, h, fam):
    _feasible(report, fam)
    report["note"] = "per-object counit retractions"
    if fam is not None:
        report["family"] = [{"object": x, "coefficients": array_to_json(f, v)}
                            for x, v in sorted(fam.table.items())]


def _element(report, f, c, section):
    """A commutative algebra's separability element."""
    if _feasible(report, section):
        report["element"] = array_to_json(f, section.element)


def _section(report, f, w, section):
    if _feasible(report, section):
        report["element"] = array_to_json(f, section.element)
        report["coefficients"] = array_to_json(f, section.map.entries)


def _retraction(report, f, w, retraction):
    if _feasible(report, retraction):
        report["coefficients"] = array_to_json(f, retraction.map.entries)


def _quotient_map(report, f, h, result):
    """An algebroid section or retraction, through its quotient."""
    if _feasible(report, result):
        report["quotient_dim"] = result.quotient.dim
        report["coefficients"] = array_to_json(f, result.map.entries)


def _separability_family(report, f, h, fam):
    if _feasible(report, fam):
        report["family"] = [{"path": list(key), "entries": array_to_json(f, m)}
                            for key, m in sorted(fam.table.items())]


def _hom_coseparability(report, f, h, verdicts):
    report["feasible"] = verdicts.all_coseparable
    report["per_hom"] = [{"source": x, "target": y, "coseparable": v}
                         for (x, y), v in sorted(verdicts.table.items())]


def _maschke_flags(report, f, p, rep, witnesses=None):
    """A weak Hopf or algebroid Maschke report: a flag per solver and side
    ("left", or "left/primed" for a weak Hopf variant)."""
    for name, flags in (("integrals", rep.integral_flags),
                        ("cointegrals", rep.cointegral_flags)):
        report[name] = {k if isinstance(k, str) else "/".join(k): v
                        for k, v in flags.items()}
    report["separability"] = rep.separability is not None
    report["coseparability"] = rep.coseparability is not None
    if witnesses is not None:
        report["witnesses"] = witnesses
    report["verdict"] = "pass" if rep.verdict else "fail"


def _weak_maschke(report, f, w, rep):
    witnesses = {}
    for name, sols, part in (("integral", rep.integrals, "element"),
                             ("cointegral", rep.cointegrals, "functional")):
        for key, sol in sols.items():
            witnesses["%s %s/%s" % (name, *key)] = \
                None if sol is None else array_to_json(f, getattr(sol, part))
    _maschke_flags(report, f, w, rep, witnesses)


def _family_maschke(report, f, h, rep):
    report["integral_families"] = rep.integral_flags
    report["separability_family"] = rep.separability is not None
    report["retraction_families"] = rep.cointegral_flags
    report["hom_coseparability"] = rep.coseparability is not None
    report["verdict"] = "pass" if rep.verdict else "fail"


# the options of the weak Hopf and of the algebroid (co)integral solvers
_WEAK = ("side", "variant", "normalized")
_ALGEBROID = ("side", "normalized")

# (command, kind) -> (the solver's module, the solver, the part of the
# presentation it solves (None: all of it), the options it takes after that,
# in report order, and the report writer).  A pair with no entry is refused.
SOLVERS = {
    ("integrals", "weakhopf"): ("weakhopf", "solve_integral", None, _WEAK, _basis_solution),
    ("integrals", "algebroid"):
        ("hopfalgd", "solve_integral_hgd", None, _ALGEBROID, _total_solution),
    ("integrals", "hopfcat"):
        ("hopfcat", "solve_integral_family", None, ("side",), _integral_family),
    ("cointegrals", "weakhopf"):
        ("weakhopf", "solve_cointegral", None, _WEAK, _basis_solution),
    ("cointegrals", "algebroid"):
        ("hopfalgd", "solve_cointegral_hgd", None, _ALGEBROID, _base_by_total_solution),
    ("cointegrals", "hopfcat"):
        ("hopfcat", "solve_retraction_family", None, ("side",), _retraction_family),
    ("separability", "weakhopf"): ("finalg", "solve_separability", "algebra", (), _section),
    ("separability", "algebroid"):
        ("hopfalgd", "solve_separability_hgd", None, (), _quotient_map),
    ("separability", "hopfcat"):
        ("hopfcat", "solve_separability_family", None, (), _separability_family),
    ("separability", "commalgebra"):
        ("finalg", "solve_separability", "algebra", (), _element),
    ("coseparability", "weakhopf"):
        ("finalg", "solve_coseparability", "coalgebra", (), _retraction),
    ("coseparability", "algebroid"):
        ("hopfalgd", "solve_coseparability_hgd", None, (), _quotient_map),
    ("coseparability", "hopfcat"):
        ("hopfcat", "check_hom_coseparability", None, (), _hom_coseparability),
    ("maschke", "weakhopf"): ("weakhopf", "maschke_report", None, (), _weak_maschke),
    ("maschke", "algebroid"): ("hopfalgd", "maschke_report", None, (), _maschke_flags),
    ("maschke", "hopfcat"): ("hopfcat", "maschke_report", None, (), _family_maschke),
}


def _run_solver(presentation, kind, args, report):
    """Run the solver that SOLVERS names for the command and the kind, and
    write its result into the report; returns the feasibility verdict (None
    for maschke)."""
    command = args["command"]
    entry = SOLVERS.get((command, kind))
    if entry is None:
        raise StructureFileError(f"{command} does not apply to kind {kind!r}")
    module, solver, part, options, write = entry
    if args.get("variant", "primed") != "primed" and "variant" not in options:
        raise UsageError(f"--variant does not apply to kind {kind!r}")
    if command == "maschke" and presentation.antipode is None:
        raise StructureFileError(
            "maschke requires an antipode; the equivalence is only claimed "
            "for Hopf monoids")
    for name in options:
        report[name] = args[name]
    solve = getattr(importlib.import_module(f".{module}", __package__), solver)
    result = solve(presentation if part is None else getattr(presentation, part),
                   *(args[name] for name in options))
    write(report, presentation_field(presentation), presentation, result)
    return report.get("feasible")


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
        else:   # a list: walk sees only the report and its dicts and lists
            lines.append(f"{prefix[:-1]}: {json.dumps(value, ensure_ascii=False)}")

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

    feasible = _run_solver(presentation, kind, args, report)
    _emit_report(report, args)
    assertion = args.get("assertion")
    if assertion is not None and feasible != (assertion == "feasible"):
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
        return _error(f"invalid input: {exc}", EXIT_INVALID)
    except MemoryError:
        # the failed allocation's frames are gone by now, so printing works
        return _error("out of memory: the input needs more memory than this "
                      "process may use", EXIT_INVALID)


def _usage_error(exc: UsageError) -> int:
    return _error(f"usage error: {exc}", EXIT_USAGE)


def _error(message: str, code: int) -> int:
    """Print message to standard error and return code.  A process started
    with standard error closed (no sys.stderr), or one whose standard error
    cannot be written, loses the message but keeps the exit code."""
    if sys.stderr is not None:
        try:
            print(message, file=sys.stderr)
        except OSError:
            pass
    return code


def console_main():
    """The process entry point (``python -m maschke_kit.cli`` and the
    ``maschke-kit`` script): run main(), flush standard output and error, and
    end the process with os._exit, skipping the interpreter's teardown of
    every loaded module.  A failed flush of standard output is reported as a
    failed write is.  A message that standard error cannot take is lost, as in
    _error, and the exit code stays.  In-process callers use main(), which
    returns.
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
        pass
    os._exit(code)


if __name__ == "__main__":
    console_main()
