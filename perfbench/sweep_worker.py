"""The weakhopf-sweep job list, run in one process through the library.

Usage: python3 perfbench/sweep_worker.py MANIFEST OUT [TRACE]

For every corpus file: the four normalized integral and four normalized
cointegral variants, separability, coseparability and the primed-to-duoidal
conversions (criterion 04).  For every mutant: the weak bialgebra and
antipode checks and, if both pass, the Maschke report (criterion 08).
Results go to OUT as JSON, with every scalar as a text token, for the
reference checks in ``reference.py``.  With TRACE, spans are recorded and
written to TRACE.  Without it, each file's work is followed by reference work
(``speedref.Meter``) whose totals go to OUT as well.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

SIDES = ("left", "right")
VARIANTS = ("primed", "duoidal")


def _vec(field, vec):
    return [field.format_scalar(v) for v in vec]


def _corpus_case(lib, w, ops):
    weakhopf, finalg = lib
    f = w.field
    out = {"integrals": {}, "cointegrals": {}, "conversions": {}}
    primed = {}
    for side in SIDES:
        for variant in VARIANTS:
            key = f"{side}/{variant}"
            sol = ops(f"integral {key}",
                      lambda: weakhopf.solve_integral(w, side, variant, True))
            out["integrals"][key] = None if sol is None else _vec(f, sol.element)
            csol = ops(f"cointegral {key}",
                       lambda: weakhopf.solve_cointegral(w, side, variant, True))
            out["cointegrals"][key] = None if csol is None else _vec(f, csol.functional)
            if variant == "primed":
                primed[side] = (sol, csol)
    sec = ops("separability", lambda: finalg.solve_separability(w.algebra))
    out["separability"] = None if sec is None else _vec(f, sec.element)
    ret = ops("coseparability", lambda: finalg.solve_coseparability(w.coalgebra))
    out["coseparability"] = None if ret is None else _vec(f, ret.map.entries)
    for side in SIDES:
        sol, csol = primed[side]
        if sol is not None:
            conv = ops(f"convert integral {side}",
                       lambda: weakhopf.convert_integral(w, sol.element, side))
            out["conversions"][f"integral {side}"] = None if conv is None else _vec(f, conv)
        if csol is not None:
            conv = ops(f"convert cointegral {side}",
                       lambda: weakhopf.convert_cointegral(w, csol.functional, side))
            out["conversions"][f"cointegral {side}"] = None if conv is None else _vec(f, conv)
    return out


def _mutant_case(lib, m, ops):
    weakhopf, _ = lib

    def verdict():
        rep = weakhopf.check_weak_bialgebra(m)
        if rep.ok():
            rep = weakhopf.check_antipode(m)
        failures = [[fl.law, None if fl.witness is None else list(fl.witness)]
                    for fl in rep.failures]
        if failures:
            return {"valid": False, "failures": failures, "verdict": None}
        passed = weakhopf.maschke_report(m).verdict
        return {"valid": True, "failures": [], "verdict": "pass" if passed else "fail"}

    return ops("mutant", verdict)


class _Ops:
    """Counts operations (one per verdict) and keeps going after one raises."""

    def __init__(self):
        self.attempted = 0
        self.errors = []

    def __call__(self, label, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None


def main(argv) -> int:
    manifest_path, out_path = argv[0], argv[1]
    trace_path = argv[2] if len(argv) > 2 else None
    sys.path.insert(0, HERE)
    from speedref import Meter
    meter = None if trace_path is not None else Meter()
    tracer = None
    if trace_path is not None:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from maschke_kit import finalg, structfile, weakhopf
    lib = (weakhopf, finalg)
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    folder = os.path.dirname(manifest_path)
    results = []
    ops = _Ops()
    for spec in manifest["files"]:
        with open(os.path.join(folder, spec["file"]), encoding="utf-8") as fh:
            text = fh.read()
        before = len(ops.errors)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            w = structfile.parse_structure_text_unvalidated(text)
        except Exception as exc:  # counted as one failed operation
            ops.attempted += 1
            ops.errors.append(f"parse: {type(exc).__name__}: {exc}")
            w = None
        if w is None:
            case = None
        elif spec["family"] == "mutant":
            case = _mutant_case(lib, w, ops)
        else:
            case = _corpus_case(lib, w, ops)
        results.append({"file": spec["file"], "result": case,
                        "errors": ops.errors[before:],
                        "wall_s": time.perf_counter() - wall0,
                        "cpu_s": time.process_time() - cpu0})
        if meter is not None:
            meter.follow(results[-1]["wall_s"])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"attempted": ops.attempted, "failed": len(ops.errors),
                   "cases": results,
                   "ref": None if meter is None else {
                       "nominal_s": meter.nominal_s, "wall_s": meter.wall_s,
                       "cpu_s": meter.cpu_s}}, fh)
    if tracer is not None:
        tracer.dump(trace_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
