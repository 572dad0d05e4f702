"""A smoke test of tools/linecov.py on one small test file: the full tool runs
the whole suite, which takes minutes, so it is not run here."""

import os
import re
import subprocess
import sys

import maschke_kit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(maschke_kit.__file__))

TINY = f"""
import os, subprocess, sys

from maschke_kit.examples import _cut


def test_that_drops_the_tracer():
    sys.settrace(None)


def test_in_process():
    assert _cut("C2") == "C2"


def test_child():
    # the CLI process ends by os._exit
    subprocess.run([sys.executable, "-m", "maschke_kit.cli", "generate", "group",
                    "--group", "C2"], check=True, capture_output=True,
                   env=dict(os.environ, PYTHONPATH={SRC!r}))
"""


def _line_of(module, text):
    with open(os.path.join(SRC, "maschke_kit", module), encoding="utf-8") as fh:
        [line] = [i for i, s in enumerate(fh.read().splitlines(), 1) if s.strip() == text]
    return str(line)


def test_lists_the_statements_no_test_runs(tmp_path):
    (tmp_path / "test_tiny.py").write_text(TINY)
    run = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "linecov.py"),
                          str(tmp_path / "test_tiny.py"), "-q"],
                         capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "3 passed" in run.stdout
    unrun = set(re.findall(r"^src/maschke_kit/(\w+\.py):(\d+): ", run.stdout, re.M))
    # _cut runs in the tool's own process only, after a test dropped the
    # tracer, and console_main in the child only, which writes its lines
    # before os._exit; no usage error is made
    assert ("examples.py", _line_of("examples.py", 'return name if len(name) <= 32 '
                                                   'else name[:32] + "..."')) not in unrun
    assert ("cli.py", _line_of("cli.py", "code = main()")) not in unrun
    assert ("cli.py", _line_of("cli.py", 'return _error(f"usage error: {exc}", '
                                         'EXIT_USAGE)')) in unrun
    counts = dict(re.findall(r"^(\w+\.py): (\d+) of \d+ statements unrun$", run.stdout, re.M))
    assert counts["__init__.py"] == "0" and len(counts) == 9
    assert re.search(r"^total: \d+ of \d+ statements unrun$", run.stdout, re.M)
