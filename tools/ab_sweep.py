"""Interleaved A/B timing of two maschke_kit source trees on one manifest.

Usage (from the repository root):

    python3 tools/ab_sweep.py OLD_SRC NEW_SRC MANIFEST [--passes N]

OLD_SRC and NEW_SRC are directories that hold a ``maschke_kit`` package (the
``src/`` of two checkouts; the same directory twice gives an A/A control).
MANIFEST is a ``manifest.json`` as written by ``perfbench/make_inputs.py``
for the weakhopf-sweep, separability-large or cli-oneshot workload.

Both trees are imported into this one process, under the package names
``ab_old`` and ``ab_new``, so they share one interpreter, one heap and the
machine's drift in speed.  Each pass walks the manifest's items in order,
and the tree that goes first alternates item by item and pass by pass.  For
a weakhopf-sweep manifest an item is a file: both trees parse the text and
run the sweep's library jobs through the job list of
``perfbench/sweep_worker.py``, formatting of the results included (every
normalized integral and cointegral, separability, coseparability and the
primed-to-duoidal conversions of a corpus file; the weak bialgebra and
antipode checks and the Maschke report of a mutant).  For a CLI manifest
an item is a job, a command on a structure file or a ``generate`` job,
which writes its file to standard output: both trees run it through
``cli.main``, with standard output and error captured.  A tree's time in a
pass is the sum of its per-item times, parse included.

Prints one line per pass (old and new seconds, their ratio new/old) and then
the median ratio, its quartiles and the passes in which the new tree was
faster, and last ``gain shown: yes`` or ``gain shown: no`` (see
``gain_shown``).  The two trees' results are compared by value on every item (see
``normalize``): the sweep's results, or a CLI job's exit code, output and
error text with the ``timing_ms`` value set to 0.  A difference is printed
and makes the exit status 1.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import importlib
import importlib.util
import io
import json
import os
import re
import statistics
import sys
import time


def load_tree(src: str, name: str):
    """The modules weakhopf, finalg, structfile and cli of the maschke_kit
    package under src, imported as the package name."""
    init = os.path.join(os.path.abspath(src), "maschke_kit", "__init__.py")
    if not os.path.exists(init):
        raise SystemExit(f"no maschke_kit package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return tuple(importlib.import_module(f"{name}.{m}")
                 for m in ("weakhopf", "finalg", "structfile", "cli"))


def _attempt(out: list, fn):
    """Append fn() to out and return it; on an exception append its type and
    text and return None."""
    try:
        result = fn()
    except Exception as exc:  # a failing job is a result to compare
        out.append(f"{type(exc).__name__}: {exc}")
        return None
    out.append(result)
    return result


@functools.cache
def _sweep_worker():
    """perfbench/sweep_worker.py, whose job list the sweep items run, loaded
    without writing bytecode: a perfbench/__pycache__ changes the
    benchmark's own resident peak."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "sweep_worker.py")
    spec = importlib.util.spec_from_file_location("ab_sweep_worker", path)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def run_file(tree, family: str, text: str) -> list:
    """The results of one file's sweep jobs, each job's raw result in the
    order that the sweep runs them (``sweep_worker._corpus_case`` or
    ``_mutant_case``, with their formatting of the results); an exception as
    its text."""
    weakhopf, finalg, structfile, _ = tree
    worker = _sweep_worker()
    case = worker._mutant_case if family == "mutant" else worker._corpus_case
    out = []
    case((weakhopf, finalg), structfile.parse_structure_text_unvalidated(text),
         lambda label, fn: _attempt(out, fn))
    return out


def normalize(value):
    """value with every record replaced by plain data, so that results of the
    two trees, whose record classes differ, compare by value: a Subspace as
    its field, ambient_dim, pivots and row_terms (which every tree exposes,
    whatever fields it stores), another record (a class with ``_fields``) as
    its class name and normalized fields, a list, tuple or dict item by
    item."""
    cls = type(value)
    if cls.__name__ == "Subspace":
        return ("Subspace", normalize(value.field), value.ambient_dim, value.pivots,
                value.row_terms)
    if cls in (list, tuple):
        return cls.__name__, tuple(map(normalize, value))
    if cls is dict:
        return {normalize(k): normalize(v) for k, v in value.items()}
    fields = getattr(cls, "_fields", None)
    if fields is not None:
        return cls.__name__, tuple((f, normalize(getattr(value, f))) for f in fields)
    return value


TIMING = re.compile(r'("timing_ms": |timing_ms: )\d+')


def run_cli_job(tree, argv: list) -> tuple:
    """(exit code, standard output, standard error) of one CLI run, with the
    timing_ms value set to 0; an exception that escapes main as its type and
    text in place of the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tree[3].main(argv)
        except Exception as exc:  # an escaping exception is a result to compare
            code = f"{type(exc).__name__}: {exc}"
    return code, TIMING.sub(r"\g<1>0", out.getvalue()), err.getvalue()


def load_items(manifest: str) -> list:
    """(name, run) for each item of the manifest, run(tree) giving its
    results."""
    with open(manifest, encoding="utf-8") as fh:
        plan = json.load(fh)
    folder = os.path.dirname(os.path.abspath(manifest))
    items = []
    if plan["workload"] == "weakhopf-sweep":
        for spec in plan["files"]:
            with open(os.path.join(folder, spec["file"]), encoding="utf-8") as fh:
                text = fh.read()
            items.append((spec["file"], lambda tree, family=spec["family"], text=text:
                          run_file(tree, family, text)))
        return items
    for i, job in enumerate(plan["jobs"]):
        argv, name = list(job["args"]), " ".join(job["args"])
        if "file" in job:
            argv += ["--structure", os.path.join(folder, job["file"])]
            name += f" {job['file']}"
        items.append((f"job {i} ({name})", lambda tree, argv=argv: run_cli_job(tree, argv)))
    return items


def gain_shown(old_times, ratios) -> bool:
    """True when the new tree was faster (ratio below 1) in at least nine of
    every ten passes and its median gain, 1 - median ratio, exceeds the
    spread between the quartiles of the old tree's pass times over their
    median: a gain larger than the old tree's own noise."""
    q1, _, q3 = statistics.quantiles(old_times, n=4)
    return 10 * sum(r < 1 for r in ratios) >= 9 * len(ratios) and \
        1 - statistics.median(ratios) > (q3 - q1) / statistics.median(old_times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("manifest")
    parser.add_argument("--passes", type=int, default=10)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    trees = (load_tree(args.old_src, "ab_old"), load_tree(args.new_src, "ab_new"))
    items = load_items(args.manifest)
    clock = time.perf_counter
    ratios, old_times, differ = [], [], 0
    for rnd in range(args.passes):
        gc.collect()
        spent = [0.0, 0.0]
        for i, (name, run) in enumerate(items):
            results = [None, None]
            for side in ((0, 1) if (rnd + i) % 2 == 0 else (1, 0)):
                start = clock()
                results[side] = run(trees[side])
                spent[side] += clock() - start
            if rnd == 0 and normalize(results[0]) != normalize(results[1]):
                differ += 1
                print(f"results differ on {name}")
        ratios.append(spent[1] / spent[0])
        old_times.append(spent[0])
        print(f"pass {rnd + 1}: old {spent[0]:.3f} s  new {spent[1]:.3f} s  "
              f"ratio {ratios[-1]:.3f}", flush=True)
    if len(ratios) > 1:
        q1, _, q3 = statistics.quantiles(ratios, n=4)
        print(f"median ratio {statistics.median(ratios):.3f} "
              f"(quartiles {q1:.3f}-{q3:.3f}); new faster in "
              f"{sum(r < 1 for r in ratios)}/{len(ratios)} passes")
        print(f"gain shown: {'yes' if gain_shown(old_times, ratios) else 'no'}")
    if differ:
        print(f"{differ} items gave different results")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
