"""Statements of the maschke_kit package that no test runs.

Usage (from the repository root):

    python3 tools/linecov.py [PYTEST_ARGS ...]

Runs pytest in this process, with PYTEST_ARGS (the tier-1 suite when none
are given), under a ``sys.settrace`` tracer that records the lines run in
the files of ``src/maschke_kit`` and traces no other frame.  The tracer is
installed again before the set-up, the call and the teardown of every test,
so a test or a library that replaces it loses at most its own lines.

Child processes are traced too.  The tool points ``PYTHONUSERBASE`` at a
temporary directory whose user site holds a ``usercustomize`` module, which
every child Python that loads the user site imports at start-up (not one
started with ``-s``, ``-I`` or ``-S``, nor one given an environment without
``PYTHONUSERBASE``).  It loads this file and calls ``start_child``, which
installs the same tracer and writes the child's lines to a file at exit,
before ``os._exit`` too, which ends the CLI process without the
interpreter's teardown.

A statement is a node of the module's syntax tree that compiles to code on
lines of its own: the lines of a simple statement, or the header of a
compound one, up to its first nested statement.  Docstrings and statements
that share every line with a nested one are not counted.  Prints each
statement that never ran as ``path:line: text``, then one count per module
and the total, and exits with pytest's exit status.
"""

from __future__ import annotations

import ast
import atexit
import json
import os
import sys
import sysconfig
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "maschke_kit")

# the environment a traced child reads: the package directory and the
# directory its lines are written to
PACKAGE_VAR, HITS_VAR = "MASCHKE_LINECOV_PACKAGE", "MASCHKE_LINECOV_HITS"

USERCUSTOMIZE = """\
import importlib.util
spec = importlib.util.spec_from_file_location("_maschke_linecov", {tool!r})
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
module.start_child()
"""


def tracer(package: str, hits: dict):
    """A trace function that adds each line run in a file under package to
    hits[real path of the file], a set, and traces no other frame."""
    prefix = os.path.realpath(package) + os.sep
    local_of = {}   # co_filename -> its line tracer, or None

    def line_tracer(add):
        def trace_lines(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return trace_lines
        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return local_of[filename]
        except KeyError:
            real = os.path.realpath(filename)
            local = line_tracer(hits.setdefault(real, set()).add) \
                if real.startswith(prefix) else None
            local_of[filename] = local
            return local

    return trace_calls


def start_child():
    """Trace this process, a child of a traced run, and write its lines to
    the hits directory when it exits, by os._exit as well."""
    hits = {}
    sys.settrace(tracer(os.environ[PACKAGE_VAR], hits))
    path = os.path.join(os.environ[HITS_VAR], f"{os.getpid()}.json")
    os_exit = os._exit

    def write():
        sys.settrace(None)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({name: sorted(lines) for name, lines in hits.items()}, fh)

    def exit_after_writing(code):
        write()
        os_exit(code)

    os._exit = exit_after_writing
    atexit.register(write)


class _Reinstall:
    """A pytest plugin that installs the tracer again around each phase of
    each test."""

    def __init__(self, trace):
        self.trace = trace

    def pytest_runtest_setup(self, item):
        sys.settrace(self.trace)

    def pytest_runtest_call(self, item):
        sys.settrace(self.trace)

    def pytest_runtest_teardown(self, item):
        sys.settrace(self.trace)


def run_traced(pytest_args) -> tuple:
    """(pytest's exit status, {real path: set of lines run}) of one pytest
    run in this process and in its traced children."""
    import pytest

    hits = {}
    trace = tracer(PACKAGE, hits)
    saved = {var: os.environ.get(var) for var in ("PYTHONUSERBASE", PACKAGE_VAR, HITS_VAR)}
    with tempfile.TemporaryDirectory(prefix="linecov-") as tmp:
        userbase = os.path.join(tmp, "userbase")
        site = sysconfig.get_path("purelib", f"{os.name}_user", vars={"userbase": userbase})
        os.makedirs(site)
        with open(os.path.join(site, "usercustomize.py"), "w", encoding="utf-8") as fh:
            fh.write(USERCUSTOMIZE.format(tool=os.path.abspath(__file__)))
        children = os.path.join(tmp, "hits")
        os.mkdir(children)
        os.environ.update({"PYTHONUSERBASE": userbase, PACKAGE_VAR: PACKAGE,
                           HITS_VAR: children})
        sys.path.insert(0, SRC)
        sys.settrace(trace)
        try:
            status = pytest.main(["-p", "no:cacheprovider", *pytest_args],
                                 plugins=[_Reinstall(trace)])
        finally:
            sys.settrace(None)
            for var, value in saved.items():
                if value is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = value
        for name in sorted(os.listdir(children)):
            with open(os.path.join(children, name), encoding="utf-8") as fh:
                for path, lines in json.load(fh).items():
                    hits.setdefault(path, set()).update(lines)
    return int(status), hits


def _code_lines(code) -> set:
    """The lines that code and the code objects nested in it run."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _is_docstring(node) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
        and isinstance(node.value.value, str)


def statements(path: str) -> dict:
    """{first line: own lines} of each statement of the file at path that
    compiles to code on lines of its own."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    code_lines = _code_lines(compile(source, path, "exec"))
    found = {}
    for node in ast.walk(ast.parse(source, path)):
        if not isinstance(node, ast.stmt) or _is_docstring(node):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        nested = [child.lineno for child in ast.walk(node)
                  if isinstance(child, ast.stmt) and child is not node]
        own = set(range(first, min(nested, default=node.end_lineno + 1)))
        if own & code_lines:
            found[first] = own
    return found


def unrun(hits: dict) -> dict:
    """{module file name: (its statement count, [(line, text), ...] of the
    statements that never ran)}, over every module of the package."""
    report = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        ran = hits.get(os.path.realpath(path), set())
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        found = statements(path)
        report[name] = (len(found), [(line, text[line - 1].strip())
                                     for line, own in sorted(found.items())
                                     if not own & ran])
    return report


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    status, hits = run_traced(args or [os.path.join(ROOT, "tests")])
    report = unrun(hits)
    prefix = os.path.relpath(PACKAGE, ROOT)
    for name, (_, lines) in report.items():
        for line, text in lines:
            print(f"{prefix}/{name}:{line}: {text}")
    for name, (count, lines) in report.items():
        print(f"{name}: {len(lines)} of {count} statements unrun")
    print(f"total: {sum(len(lines) for _, lines in report.values())} of "
          f"{sum(count for count, _ in report.values())} statements unrun")
    return status


if __name__ == "__main__":
    sys.exit(main())
