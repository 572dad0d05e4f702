"""Span tracer that wraps ``maschke_kit`` from outside.

``Tracer.install`` replaces every public module-level function of the
package, plus ``ConstraintSystem.solve``, ``ConstraintSystem.satisfied_by``
and ``Matrix.__matmul__``, with a wrapper that records one span per call:
(name, start, end, parent index, extra).  The replacement is made in every
package module that holds the function, so calls through ``from .x import f``
bindings are seen too.  Spans stay in memory; ``dump`` writes them and their
aggregate at the end.  No file under ``src/`` is changed.

Per-entry helpers (vector arithmetic and scalar formatting) are not wrapped:
they run once per coefficient, so their spans would cost more than the work
they measure.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict

MODULES = ("exactlin", "finalg", "weakhopf", "hopfalgd", "hopfcat", "structfile", "cli")
NOT_WRAPPED = {"zero_vec", "unit_vec", "vec_add", "vec_sub", "vec_scale",
               "vec_is_zero", "parse_scalar", "format_scalar", "console_main"}
METHODS = (("ConstraintSystem", "solve", "exactlin.solve"),
           ("ConstraintSystem", "satisfied_by", "exactlin.satisfied_by"),
           ("Matrix", "__matmul__", "exactlin.matmul"))
PARSE = {"structfile.parse_structure_file", "structfile.parse_structure_text",
         "structfile.parse_structure_text_unvalidated"}
HOPFCAT_SYSTEMS = {"hopfcat.retraction_system", "hopfcat.integral_family_system",
                   "hopfcat.separability_family_system"}

# A span's self time goes to the layer of its nearest ancestor-or-self that
# starts a layer; time under no such span is "other".
LAYER_OF = {
    "finalg.check_algebra": "validate", "finalg.check_coalgebra": "validate",
    "weakhopf.check_weak_bialgebra": "validate", "weakhopf.check_antipode": "validate",
    "hopfalgd.check_hopf_algebroid": "validate",
    "hopfcat.check_hopf_category": "validate",
    "weakhopf.projections": "derived", "weakhopf.base_algebra": "derived",
    "hopfalgd.circ_relations": "derived", "hopfalgd.bullet_relations": "derived",
    "hopfalgd.tensor_over_R": "derived", "hopfalgd.ideal_subspace": "derived",
    "exactlin.quotient_space": "derived",
    "exactlin.solve": "elimination", "exactlin.solve_affine": "elimination",
    "exactlin.satisfied_by": "verify",
    "structfile.serialize_structure": "serialize",
    "cli.execute_command": "cli",
}
# "outside" is process time under no span: interpreter start, imports and the
# caller's own loop.  The caller fills it in from the process wall time.
LAYERS = ("validate", "derived", "system_build", "elimination", "verify", "parse",
          "serialize", "cli", "other", "outside")


def _layer_root(name):
    if name in LAYER_OF:
        return LAYER_OF[name]
    if name in PARSE:
        return "parse"
    if name.endswith("_system") or name.endswith("_system_hgd"):
        return "system_build"
    return None


def _height_bits(vec):
    best = 0
    for v in vec:
        num = getattr(v, "numerator", v)
        den = getattr(v, "denominator", 1)
        best = max(best, abs(num).bit_length(), den.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent, extra]
        self._stack = []
        self._keep = {}      # id -> presentation, so ids stay distinct

    def _wrap(self, name, fn):
        spans, stack, keep = self.spans, self._stack, self._keep
        clock = time.perf_counter
        is_solve = name == "exactlin.solve"
        is_parse = name in PARSE

        def wrapper(*args, **kwargs):
            extra = None
            if args and type(args[0]).__name__.endswith("Presentation"):
                keep[id(args[0])] = args[0]
                extra = {"inst": id(args[0])}
            elif is_parse and args:
                arg = args[0]
                size = os.path.getsize(arg) if name.endswith("_file") else \
                    len(arg.encode("utf-8"))
                extra = {"bytes": size}
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = [name, start, end, parent, extra]
            if is_solve:
                system = args[0]
                stats = {"unknowns": system.nvars, "rows": len(system.rows),
                         "infeasible": result is None}
                if result is not None:
                    stats["rank"] = system.nvars - result.homogeneous.dim
                    if system.field.characteristic == 0:
                        stats["height"] = _height_bits(result.particular)
                spans[idx][4] = stats
            return result

        return wrapper

    def install(self):
        mods = {m: importlib.import_module(f"maschke_kit.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (callable(obj) and type(obj).__name__ == "function"
                        and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in NOT_WRAPPED):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if type(obj).__name__ == "function" and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        for cls_name, meth, name in METHODS:
            cls = getattr(mods["exactlin"], cls_name)
            setattr(cls, meth, self._wrap(name, getattr(cls, meth)))

    def dump(self, path):
        """Write the spans (JSON lines) to path.spans.jsonl and their aggregate
        (JSON) to path."""
        with open(path + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(aggregate(self.spans), fh)


def aggregate(spans) -> dict:
    """Per-name calls, self time, distinct presentations and solve counts,
    per-layer self time, and the time covered by top-level spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layer = [None] * len(spans)
    per = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                               "instances": set()})
    solve = {"unknowns": 0, "rows": 0, "rank": 0, "feasible_rows": 0,
             "infeasible": 0, "max_height_bits": 0}
    layers = dict.fromkeys(LAYERS, 0.0)
    parse_calls = parse_bytes = 0
    covered = 0.0
    for i, (name, start, end, parent, extra) in enumerate(spans):
        dur = end - start
        own = dur - child_time[i]
        rec = per[name]
        rec["calls"] += 1
        rec["self_s"] += own
        rec["total_s"] += dur
        layer[i] = _layer_root(name) or (layer[parent] if parent >= 0 else None)
        layers[layer[i] or "other"] += own
        if parent < 0:
            covered += dur
        if extra and "inst" in extra:
            rec["instances"].add(extra["inst"])
        if name in PARSE and (parent < 0 or spans[parent][0] not in PARSE):
            parse_calls += 1
            parse_bytes += extra["bytes"] if extra else 0
        if name == "exactlin.solve" and extra:
            solve["unknowns"] += extra["unknowns"]
            solve["rows"] += extra["rows"]
            if extra["infeasible"]:
                solve["infeasible"] += 1
            else:
                solve["rank"] += extra["rank"]
                solve["feasible_rows"] += extra["rows"]
            solve["max_height_bits"] = max(solve["max_height_bits"],
                                           extra.get("height", 0))
    for rec in per.values():
        rec["instances"] = len(rec["instances"])
    return {"covered_s": covered, "functions": dict(per), "layers": layers,
            "solve": solve, "parse": {"calls": parse_calls, "bytes": parse_bytes}}


def merge(aggregates) -> dict:
    """Sum aggregates of several processes; instance counts add up, because
    a presentation is distinct per process."""
    out = {"covered_s": 0.0, "functions": {}, "layers": dict.fromkeys(LAYERS, 0.0),
           "solve": {"unknowns": 0, "rows": 0, "rank": 0, "feasible_rows": 0,
                     "infeasible": 0, "max_height_bits": 0},
           "parse": {"calls": 0, "bytes": 0}}
    for agg in aggregates:
        out["covered_s"] += agg["covered_s"]
        for name, rec in agg["functions"].items():
            acc = out["functions"].setdefault(
                name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "instances": 0})
            for key in acc:
                acc[key] += rec[key]
        for key, val in agg["layers"].items():
            out["layers"][key] += val
        for key, val in agg["solve"].items():
            if key == "max_height_bits":
                out["solve"][key] = max(out["solve"][key], val)
            else:
                out["solve"][key] += val
        for key, val in agg["parse"].items():
            out["parse"][key] += val
    return out
