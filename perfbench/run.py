"""Benchmark of the maschke-kit verdict pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): weakhopf-sweep, separability-large, cli-oneshot.
The benchmark uses only the standard library and the code under ``src/``;
it changes no file there.  Each run sets up its inputs five times (the
median is ``setup_s``), then repeats whole rounds of the workload's fixed job
list while another round still fits in S seconds, checks every output
against ``reference.py`` and prints one JSON object as its last line.  With
``--trace 0`` that object holds the end-to-end metrics (medians over the
rounds); with ``--trace 1`` it holds the per-layer metrics of one traced
round, next to one untraced round that gives the tracing overhead.

The run keeps to one CPU, and with ``--trace 0`` every set-up and every job
is followed there by reference work (``speedref.py``); the end-to-end times
are given in reference seconds, so that the machine's own drift in speed
stays out of them.  The wall-clock figures are kept in the run's result file.

Everything the run writes goes under ``.perfbench_out/`` at the root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference  # noqa: E402
import selftest  # noqa: E402
import speedref  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
JOB_TIMEOUT_S = 150
DEFINED_EXIT_CODES = (0, 2, 3, 4)

END_TO_END = (("setup_s", "s"), ("total_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))

WITH_INSTANCES = ("calls", "self_s", "calls_per_instance")
PLAIN = ("calls", "self_s")
FUNCTION_METRICS = (
    ("weakhopf.check_weak_bialgebra", WITH_INSTANCES),
    ("weakhopf.projections", WITH_INSTANCES),
    ("weakhopf.base_algebra", WITH_INSTANCES),
    ("weakhopf.check_antipode", WITH_INSTANCES),
    ("finalg.check_algebra", WITH_INSTANCES),
    ("finalg.check_coalgebra", WITH_INSTANCES),
    ("exactlin.matmul", PLAIN),
    ("exactlin.kron", PLAIN),
    ("hopfalgd.check_hopf_algebroid", WITH_INSTANCES),
    ("hopfalgd.tensor_over_R", WITH_INSTANCES),
    ("hopfalgd.ideal_subspace", WITH_INSTANCES),
    ("hopfcat.check_hopf_category", WITH_INSTANCES),
    ("exactlin.rref", PLAIN),
    ("exactlin.solve", PLAIN),
    ("exactlin.satisfied_by", PLAIN),
    ("finalg.separability_system", WITH_INSTANCES),
    ("finalg.coseparability_system", WITH_INSTANCES),
)
SOLVE_STATS = (("unknowns", "count", "lower"), ("rows", "count", "lower"),
               ("rank", "count", "lower"), ("rank_per_row", "ratio", "higher"),
               ("infeasible", "count", "lower"), ("max_height_bits", "bits", "lower"))


def per_layer_spec() -> list:
    """(name, unit, better) of every per-layer metric, in output order."""
    units = {"calls": "count", "self_s": "s", "calls_per_instance": "ratio"}
    out = []
    for name, keys in FUNCTION_METRICS:
        out += [(f"{name}.{k}", units[k], "lower") for k in keys]
        if name == "exactlin.solve":
            out += [(f"{name}.{k}", unit, better) for k, unit, better in SOLVE_STATS]
    out += [("hopfcat.system_build.self_s", "s", "lower"),
            ("structfile.parse.calls", "count", "lower"),
            ("structfile.parse.self_s", "s", "lower"),
            ("structfile.parse.bytes", "bytes", "lower"),
            ("structfile.serialize.calls", "count", "lower"),
            ("structfile.serialize.self_s", "s", "lower"),
            ("cli.execute_command.self_s", "s", "lower"),
            ("cli.import_s", "s", "lower"),
            ("trace.total_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower")]
    out += [(f"layer.{name}.share", "ratio", "lower") for name in tracer.LAYERS]
    return out


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env(pycache: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONPYCACHEPREFIX"] = pycache
    env["PYTHONHASHSEED"] = "0"
    for key in ("PYTHONOPTIMIZE", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP"):
        env.pop(key, None)
    return env


def run_process(argv, env, log_prefix, timeout=JOB_TIMEOUT_S) -> dict:
    """Run one process to its end; wall time, CPU time and peak RSS."""
    with open(log_prefix + ".out", "wb") as out, open(log_prefix + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def _read(path) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        tag = f"{workload}-seed{seed}"
        self.workdir = os.path.join(OUT, "work", tag)
        self.inputs = os.path.join(self.workdir, "inputs")
        self.pycache = os.path.join(self.workdir, "pycache")
        self.rounddir = os.path.join(self.workdir, "round")
        self.tracedir = os.path.join(OUT, "trace", tag)
        self.env = child_env(self.pycache)
        self.manifest = None
        self.planned_ops = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.known_gaps = 0

    # -- set-up -------------------------------------------------------------

    def setup(self, repeats: int, meter=None) -> list:
        times = []
        for _ in range(repeats):
            shutil.rmtree(self.workdir, ignore_errors=True)
            os.makedirs(self.workdir)
            start = time.perf_counter()
            rec = run_process([sys.executable, os.path.join(HERE, "make_inputs.py"),
                               "--workload", self.workload, "--seed", str(self.seed),
                               "--out", self.inputs], self.env,
                              os.path.join(self.workdir, "setup"))
            times.append(time.perf_counter() - start)
            if meter is not None:
                meter.follow_process(times[-1], self.env)
            if rec["code"] != 0:
                raise BenchError("set-up failed: " + _read(
                    os.path.join(self.workdir, "setup.err"))[-2000:])
        with open(os.path.join(self.inputs, "manifest.json"), encoding="utf-8") as fh:
            self.manifest = json.load(fh)
        if self.workload == "weakhopf-sweep":
            self.planned_ops = sum(reference.sweep_operations(
                reference.Structure.load(os.path.join(self.inputs, spec["file"])),
                spec["family"]) for spec in self.manifest["files"])
        else:
            self.planned_ops = len(self.manifest["jobs"])
        return times

    # -- one round ----------------------------------------------------------

    def round(self, trace: bool, meter=None) -> dict:
        """One round of the job list.  ``wall_s`` and ``cpu_s`` count the
        program's work only; with a meter, the reference work that follows
        each job is run and added to the meter."""
        shutil.rmtree(self.rounddir, ignore_errors=True)
        os.makedirs(self.rounddir)
        if trace:
            shutil.rmtree(self.tracedir, ignore_errors=True)
            os.makedirs(self.tracedir)
        if self.workload == "weakhopf-sweep":
            return self._sweep_round(trace, meter)
        return self._cli_round(trace, meter)

    def _sweep_round(self, trace: bool, meter) -> dict:
        """The worker follows each file's work with reference work itself
        (unless traced) and reports its totals, which are taken out of the
        process's times."""
        result = os.path.join(self.rounddir, "sweep.json")
        argv = [sys.executable, os.path.join(HERE, "sweep_worker.py"),
                os.path.join(self.inputs, "manifest.json"), result]
        if trace:
            argv.append(os.path.join(self.tracedir, "sweep.trace.json"))
        rec = run_process(argv, self.env, os.path.join(self.rounddir, "sweep"))
        ref = None
        if rec["code"] == 0 and os.path.exists(result):
            with open(result, encoding="utf-8") as fh:
                ref = json.load(fh).get("ref")
        wall, cpu = rec["wall_s"], rec["cpu_s"]
        if ref is not None:
            wall -= ref["wall_s"]
            cpu -= ref["cpu_s"]
            if meter is not None:
                meter.add(ref["nominal_s"], ref["wall_s"], ref["cpu_s"])
        elif meter is not None:
            meter.follow_process(wall, self.env)
        return {"wall_s": wall, "cpu_s": cpu, "rss_mb": rec["rss_mb"], "records": [rec]}

    def _cli_argv(self, i: int, job: dict, trace: bool) -> list:
        args = list(job["args"])
        if "file" in job:
            args += ["--structure", os.path.join(self.inputs, job["file"])]
        if "generate" in job:
            job["out"] = os.path.join(self.rounddir, f"generated-{i}.json")
            args += ["--out", job["out"]]
        if trace:
            return [sys.executable, os.path.join(HERE, "traced_cli.py"),
                    os.path.join(self.tracedir, f"job{i}.trace.json")] + args
        return [sys.executable, "-m", "maschke_kit.cli"] + args

    def _cli_round(self, trace: bool, meter) -> dict:
        jobs = self.manifest["jobs"]
        argvs = [self._cli_argv(i, job, trace) for i, job in enumerate(jobs)]
        records = []
        for i, argv in enumerate(argvs):
            records.append(run_process(argv, self.env,
                                       os.path.join(self.rounddir, f"job{i}")))
            if meter is not None:
                meter.follow_process(records[-1]["wall_s"], self.env)
        return {"wall_s": sum(r["wall_s"] for r in records),
                "cpu_s": sum(r["cpu_s"] for r in records),
                "rss_mb": max(r["rss_mb"] for r in records), "records": records}

    # -- checks -------------------------------------------------------------

    def check(self, rnd: dict):
        """Count the round's operations and compare its outputs with the
        references; a check that raises counts as a wrong output."""
        if self.workload == "weakhopf-sweep":
            self._check_sweep(rnd)
        else:
            self._check_cli(rnd)

    def _check_sweep(self, rnd: dict):
        """Every round attempts the planned operations; one that raised, or
        did not run because an earlier one raised, counts as failed."""
        rec = rnd["records"][0]
        path = os.path.join(self.rounddir, "sweep.json")
        self.attempted += self.planned_ops
        if rec["code"] != 0 or not os.path.exists(path):
            self.failed += self.planned_ops
            self.problems.append("sweep worker exited with code %s: %s" % (
                rec["code"], _read(os.path.join(self.rounddir, "sweep.err"))[-1000:]))
            return
        with open(path, encoding="utf-8") as fh:
            out = json.load(fh)
        self.failed += out["failed"] + max(0, self.planned_ops - out["attempted"])
        specs = {s["file"]: s for s in self.manifest["files"]}
        for case in out["cases"]:
            spec = specs[case["file"]]
            if case["errors"] or case["result"] is None:
                continue      # counted in failed
            try:
                s = reference.Structure.load(os.path.join(self.inputs, spec["file"]))
                if spec["family"] == "mutant":
                    found = reference.check_mutant(s, case["result"])
                else:
                    found = reference.check_sweep_case(s, spec["family"], case["result"])
            except Exception as exc:  # a malformed output is a wrong output
                found = [f"reference check raised {type(exc).__name__}: {exc}"]
            if found == [reference.KNOWN_GAP]:
                # The fixed mutant shows this fault in every round, as one
                # failed operation.  A seeded mutant shows it on some seeds
                # only, so it is counted apart and does not change `failed`.
                if spec.get("fixed"):
                    self.failed += 1
                    self.problems.append(f"FAILED {spec['file']}: {reference.KNOWN_GAP}")
                else:
                    self.known_gaps += 1
                continue
            self.problems += [f"{spec['file']}: {p}" for p in found]
        for case in out["cases"]:
            for err in case["errors"]:
                self.problems.append(f"FAILED {case['file']}: {err}")

    def _check_cli(self, rnd: dict):
        for i, (job, rec) in enumerate(zip(self.manifest["jobs"], rnd["records"])):
            self.attempted += 1
            prefix = os.path.join(self.rounddir, f"job{i}")
            stdout, stderr = _read(prefix + ".out"), _read(prefix + ".err")
            label = " ".join(job["args"] + [job.get("file", "")])
            if rec["code"] not in DEFINED_EXIT_CODES:
                self.failed += 1
                self.problems.append(f"FAILED {label}: exit {rec['code']}: "
                                     f"{stderr.strip()[-300:]}")
                continue
            try:
                found = reference.check_cli_job(job, rec["code"], stdout, stderr,
                                                self.inputs)
            except Exception as exc:  # a malformed output is a wrong output
                found = [f"reference check raised {type(exc).__name__}: {exc}"]
            self.problems += [f"{label}: {p}" for p in found]

    # -- tracing ------------------------------------------------------------

    def trace_aggregate(self) -> dict:
        aggs = []
        for name in sorted(os.listdir(self.tracedir)):
            if name.endswith(".trace.json"):
                with open(os.path.join(self.tracedir, name), encoding="utf-8") as fh:
                    aggs.append(json.load(fh))
        return tracer.merge(aggs)

    def import_seconds(self) -> float:
        times = []
        for i in range(IMPORT_REPEATS):
            rec = run_process([sys.executable, "-c", "import maschke_kit.cli"],
                              self.env, os.path.join(self.rounddir, f"import{i}"))
            if rec["code"] != 0:
                raise BenchError("cannot import maschke_kit.cli")
            times.append(rec["wall_s"])
        return statistics.median(times)


def layer_metrics(agg: dict, traced: dict, base: dict, import_s: float) -> dict:
    funcs = agg["functions"]
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "instances": 0}
    values = {}
    for name, keys in FUNCTION_METRICS:
        rec = funcs.get(name, empty)
        values[f"{name}.calls"] = rec["calls"]
        values[f"{name}.self_s"] = rec["self_s"]
        if "calls_per_instance" in keys:
            values[f"{name}.calls_per_instance"] = \
                rec["calls"] / rec["instances"] if rec["instances"] else 0.0
    solve = agg["solve"]
    for key in ("unknowns", "rows", "rank", "infeasible", "max_height_bits"):
        values[f"exactlin.solve.{key}"] = solve[key]
    values["exactlin.solve.rank_per_row"] = \
        solve["rank"] / solve["feasible_rows"] if solve["feasible_rows"] else 0.0
    values["hopfcat.system_build.self_s"] = sum(
        funcs.get(n, empty)["self_s"] for n in tracer.HOPFCAT_SYSTEMS)
    values["structfile.parse.calls"] = agg["parse"]["calls"]
    values["structfile.parse.self_s"] = sum(funcs.get(n, empty)["self_s"]
                                            for n in tracer.PARSE)
    values["structfile.parse.bytes"] = agg["parse"]["bytes"]
    ser = funcs.get("structfile.serialize_structure", empty)
    values["structfile.serialize.calls"] = ser["calls"]
    values["structfile.serialize.self_s"] = ser["self_s"]
    values["cli.execute_command.self_s"] = funcs.get("cli.execute_command", empty)["self_s"]
    values["cli.import_s"] = import_s
    values["trace.total_s"] = traced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - base["wall_s"]
    layers = dict(agg["layers"])
    layers["outside"] = max(0.0, traced["wall_s"] - agg["covered_s"])
    for name in tracer.LAYERS:
        values[f"layer.{name}.share"] = layers[name] / traced["wall_s"]
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in per_layer_spec()}


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that the program's
    work and the reference work that follows it run on the same core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def bench(workload: str, seed: int, seconds: int, trace: bool):
    """Run one benchmark invocation; (result object, problem lines, seeded
    mutants that break only the third antipode axiom and were accepted)."""
    if not os.path.isdir(os.path.join(ROOT, "src", "maschke_kit")):
        raise BenchError("src/maschke_kit not found next to perfbench/")
    if selftest.main() != 0:
        raise BenchError("the reference checks failed their self-test")
    pin_to_one_cpu()
    run = Run(workload, seed)
    setup_meter = None if trace else speedref.Meter()
    setup_times = run.setup(1 if trace else SETUP_REPEATS, setup_meter)
    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "setup_wall_s": setup_times}
    if trace:
        base = run.round(trace=False)
        run.check(base)
        traced = run.round(trace=True)
        run.check(traced)
        agg = run.trace_aggregate()
        metrics = layer_metrics(agg, traced, base, run.import_seconds())
        detail["rounds_s"] = {"untraced": base["wall_s"], "traced": traced["wall_s"]}
    else:
        rounds = []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            meter = speedref.Meter()
            rnd = run.round(trace=False, meter=meter)
            rounds.append({k: rnd[k] for k in ("wall_s", "cpu_s", "rss_mb")})
            rounds[-1].update(ref_speed=meter.speed,
                              total_s=meter.scale(rnd["wall_s"]),
                              ref_cpu_s=meter.scale_cpu(rnd["cpu_s"]),
                              elapsed_s=time.perf_counter() - round_start)
            run.check(rnd)
            typical = statistics.median(r["elapsed_s"] for r in rounds)
            if time.perf_counter() - start + typical > seconds:
                break
        values = {
            "setup_s": setup_meter.scale(statistics.median(setup_times)),
            "total_s": statistics.median(r["total_s"] for r in rounds),
            "cpu_s": statistics.median(r["ref_cpu_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        detail["setup_ref_speed"] = setup_meter.speed
        detail["rounds"] = rounds
    detail["problems"] = run.problems
    detail["seeded_mutants_in_known_gap"] = run.known_gaps
    result = {"correct": not [p for p in run.problems if not p.startswith("FAILED")],
              "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    detail["result"] = result
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{workload}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    return result, run.problems, run.known_gaps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="maschke-kit benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, problems, known_gaps = bench(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    if known_gaps:
        print(f"note: {known_gaps} accepted seeded mutant(s) break only the third "
              "antipode axiom (not counted in failed)", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
