"""mctails benchmark: accuracy-gated time to solution.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload heavy-traffic --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``bundled-check`` runs ``mctails check`` on
every bundled model file; ``heavy-traffic`` solves M/M/1, modulated QBD,
GI/M/1 and M/G/1 chains at loads up to 0.995; ``deep-tails`` solves chains
to hundreds of levels with blocks up to 32 x 32.  ``defects.py`` runs the ops
that show the solver's known defects, which no workload holds.

The benchmark imports mctails from ``src/`` of the checkout and fails,
printing no result, if it is not there.  BLAS runs on one thread.  It times
the set-up of the workload in fresh processes (see ``setup_probe``), warms up with one pass over the op list under tracemalloc, then runs whole
passes for ``--seconds``, checking every op's output against a reference
computed without mctails.  The run is correct when every op is right: no op
raised and none missed its reference (workloads.py).

The summary line prints every measured metric with its unit: ``pass_s``
(median over passes of the summed op times), ``op_p50_ms`` (median over the
op list of each op's median time), ``op_tail_ms`` (a fixed percentile per
workload over all op samples, with at least ten samples beyond it),
``failed_frac`` (ops that raised), ``wrong_frac`` (ops that returned a wrong
answer), ``accuracy_digits`` (fewest correct digits over the ops),
``peak_rss_mb`` (the process's peak resident set), ``peak_alloc_mb`` (the
tracemalloc peak of the warm-up pass above its start, which numpy's arrays
count in), ``setup_s``, ``setup_raw_s`` and ``pass_cal_s``.

The result line carries the metrics that are steady enough to bound.
``pass_cal_s`` and ``setup_s`` are times scaled to a reference machine
speed by calibration kernels timed right after each op or set-up (see
``Calibration``): the machine's speed drifts by tens of percent over seconds
to minutes, which the scaling mostly cancels and raw seconds do not.
pass_s and the per-op percentiles stay in the
summary line, in raw seconds.  failed_frac and wrong_frac are zero in every
correct run, so the result's ``correct`` stands for them.

With ``--trace 1`` it runs every op twice back to back, untraced and then
with every public mctails function wrapped in a span (tracing.py), and
reports per-layer totals per pass plus the tracing overhead: traced over
untraced time of the same ops, minus one.

Every run writes its per-op records to ``perfbench/out/``, with the spans
of a traced run beside them.  The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 15
# Ops faster than this are timed as the median of several back-to-back runs,
# since a single run of a few milliseconds is at the mercy of the machine.
REPEAT_TARGET = 0.15
MAX_REPEATS = 9
# Share of each op's time spent on the calibration kernels right after it.
CAL_SHARE = 0.2
# Percentile reported as op_tail; the run makes enough passes that at least
# ten samples lie beyond it.
TAIL_PERCENTILE = {"bundled-check": 90, "heavy-traffic": 90, "deep-tails": 75}
# The bounded end-to-end metrics.
END_TO_END = ("pass_cal_s", "accuracy_digits", "peak_alloc_mb", "setup_s")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Sample(NamedTuple):
    """One op in one pass: its time in seconds, the calibration kernels'
    times right after it (untraced run) or the op's traced time (traced run),
    and the checked outcome."""

    seconds: float
    cal: dict | None
    traced: float | None
    outcome: object


def import_mctails():
    """Import mctails from the checkout's src/, never from elsewhere."""
    if not (SRC / "mctails" / "__init__.py").is_file():
        raise BenchError(f"mctails sources not found under {SRC}")
    if not (ROOT / "modelfiles").is_dir():
        raise BenchError(f"model files not found under {ROOT / 'modelfiles'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import mctails
    import mctails.cli  # noqa: F401  (the bundled-check workload drives it)

    if Path(mctails.__file__).resolve().parent != (SRC / "mctails").resolve():
        raise BenchError(f"imported mctails from {mctails.__file__}, not from {SRC}")
    return mctails


def setup_probe(workload: str, seed: int) -> None:
    """Child process: time importing mctails and building the workload, then
    the calibration kernels.  numpy and the benchmark's own modules are
    imported before the clock starts, so the time is mctails' own.
    ``setup_s`` is the median over probes of the set-up time scaled by its
    probe's kernels (``Calibration.scale``), ``setup_raw_s`` the median raw
    time."""
    import numpy  # noqa: F401

    sys.path.insert(0, str(HERE))
    import workloads

    start = time.perf_counter()
    mc = import_mctails()
    workloads.build_ops(mc, workload, seed, ROOT)
    seconds = time.perf_counter() - start
    cal = Calibration().after(0.0, runs=5)
    print(json.dumps({"setup_s": seconds, "cal_s": cal}))


def measure_setup(workload: str, seed: int) -> list:
    """(set-up time, kernel times) of SETUP_PROBES fresh processes, run one
    after another."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((probe["setup_s"], probe["cal_s"]))
    return times


def environment(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
        "seed": seed,
    }


class Calibration:
    """Two fixed kernels that do not use mctails, timed right after each op
    and each set-up.  ``loop``: a 2 x 2 matrix fixed-point iteration, the
    same kind of work as the solvers' inner loops, about 2 ms a run.
    ``dense``: a 400 x 400 numpy.linalg.solve, the same kind of work as the
    check command's dense oracle, about 3 ms a run.

    A time t measured next to kernel times k is reported as
    t * s ** e, with s = sqrt(prod_j REFERENCE[j] / k[j]) the kernels' mean
    speed-up over REFERENCE and e the workload's EXPONENT: at e = 1, the
    time on a machine where the kernels take REFERENCE.  The geometric mean
    of the two speeds tracked mctails' mix of both kinds of work better than
    either kernel alone did.  bundled-check's time, mostly one LAPACK solve
    per op, moves with the machine's speed less than the kernels' times do,
    so it is scaled by the square root of the speed-up; exponents were
    chosen as the ones that gave the steadiest run medians over four sets
    of five to ten runs of each workload on a 2-vCPU x86-64 Xeon.
    """

    REFERENCE = {"loop": 2.0e-3, "dense": 3.0e-3}
    EXPONENT = {"bundled-check": 0.5, "heavy-traffic": 1.0, "deep-tails": 1.0, "setup": 1.0}
    STEPS = 200
    DENSE = 400

    def __init__(self):
        import numpy as np

        self._np = np
        self._a = np.array([[0.3, 0.1], [0.2, 0.4]])
        self._b = np.array([[0.5, 0.1], [0.1, 0.5]])
        rng = np.random.default_rng(0)
        self._m = rng.uniform(0.0, 1.0, (self.DENSE, self.DENSE)) + self.DENSE * np.eye(self.DENSE)
        self._v = np.ones(self.DENSE)

    def loop(self) -> float:
        np, a, b = self._np, self._a, self._b
        r = np.zeros((2, 2))
        start = time.perf_counter()
        for _ in range(self.STEPS):
            r = (a + r @ r @ b) @ b
            float(np.max(np.abs(r)))
        return time.perf_counter() - start

    def dense(self) -> float:
        start = time.perf_counter()
        self._np.linalg.solve(self._m, self._v)
        return time.perf_counter() - start

    def after(self, seconds: float, runs: int = 1) -> dict:
        """Run each kernel for CAL_SHARE / 2 of ``seconds``, at least
        ``runs`` times, and return their median run times."""
        out = {}
        for name, kernel in (("loop", self.loop), ("dense", self.dense)):
            times = []
            while len(times) < runs or sum(times) < CAL_SHARE / 2 * seconds:
                times.append(kernel())
            out[name] = statistics.median(times)
        return out

    @classmethod
    def scale(cls, cal: dict, what: str) -> float:
        """Factor that takes a time of ``what`` (a workload, or "setup")
        measured next to kernel times ``cal`` to the reference speed."""
        speedup = math.prod(cls.REFERENCE[k] / cal[k] for k in cls.REFERENCE)
        return speedup ** (cls.EXPONENT[what] / len(cls.REFERENCE))


def run_op(op):
    """Time one op; return (seconds, result, exception)."""
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # the op's failure is a measured outcome
        return time.perf_counter() - start, None, exc
    return time.perf_counter() - start, result, None


def time_op(op):
    """Time one op robustly: an op faster than REPEAT_TARGET runs again,
    back to back, up to enough runs to fill that time (at least 3, at most
    MAX_REPEATS), and its time is the median.  The first run's result is
    the one returned."""
    seconds, result, exc = run_op(op)
    if seconds >= REPEAT_TARGET:
        return seconds, result, exc
    count = min(MAX_REPEATS, max(3, math.ceil(REPEAT_TARGET / max(seconds, 1e-9))))
    times = [seconds] + [run_op(op)[0] for _ in range(count - 1)]
    return statistics.median(times), result, exc


def run_passes(workloads, ops, budget: float, min_passes: int, tracer=None) -> list:
    """Whole passes over the op list for about ``budget`` seconds: at least
    ``min_passes``, and no pass that is predicted to end past the budget.

    Each op is timed by ``time_op``, followed by the calibration kernels, and
    its result checked.  With a tracer, each op instead runs twice back to
    back, untraced and then traced, so that the tracing overhead is measured
    on the same work at nearly the same moment; the traced run's result is
    the one checked.  Returns one list of Samples per pass.
    """
    calibration = Calibration()
    passes, walls = [], []
    begin = time.perf_counter()
    while len(passes) < min_passes or (
            time.perf_counter() - begin + statistics.median(walls) <= budget):
        samples = []
        pass_start = time.perf_counter()
        for index, op in enumerate(ops):
            cal = traced = None
            if tracer is None:
                op_start = time.perf_counter()
                seconds, result, exc = time_op(op)
                cal = calibration.after(time.perf_counter() - op_start)
            else:
                seconds, result, exc = run_op(op)
                tracer.op = (len(passes), index)
                tracer.enable()
                try:
                    traced, result, exc = run_op(op)
                finally:
                    tracer.disable()
            samples.append(Sample(seconds, cal, traced, workloads.evaluate(op, result, exc)))
        walls.append(time.perf_counter() - pass_start)
        passes.append(samples)
    return passes


def warm_up(ops) -> float:
    """Run one pass over the op list under tracemalloc; return the peak of
    the memory it traced, above what was traced at its start, in MB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for op in ops:
            run_op(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 2 ** 20


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of a sample."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(workload: str, ops, passes) -> dict:
    """Metrics in seconds and outcome counts over the measured passes."""
    outcomes = [s.outcome for samples in passes for s in samples]
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.status == "failed")
    wrong = sum(1 for o in outcomes if o.status == "wrong")
    digits = [o.digits for o in outcomes if o.digits is not None]
    per_op = [statistics.median(samples[i].seconds for samples in passes)
              for i in range(len(ops))]
    every = [s.seconds for samples in passes for s in samples]
    pass_s = statistics.median(sum(s.seconds for s in samples) for samples in passes)
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "measured": {
            "pass_s": [pass_s, "s"],
            "op_p50_ms": [1e3 * statistics.median(per_op), "ms"],
            "op_tail_ms": [1e3 * percentile(every, TAIL_PERCENTILE[workload]), "ms"],
            "failed_frac": [failed / attempted, "ratio"],
            "wrong_frac": [wrong / attempted, "ratio"],
            "accuracy_digits": [min(digits) if digits else 0.0, "digits"],
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"],
        },
        "op_tail_percentile": TAIL_PERCENTILE[workload],
        "op_samples": attempted,
        "passes": len(passes),
    }


def op_records(workload: str, ops, passes, counts=None) -> list:
    """The per-op outcome record: one row per op and pass."""
    out = []
    for p, samples in enumerate(passes):
        for i, s in enumerate(samples):
            op, outcome = ops[i], s.outcome
            row = {
                "workload": workload, "pass": p, "op": i, "family": op.family,
                "route": op.route, "load": op.load, "m": op.m, "levels": op.levels,
                "seconds": s.seconds, "cal_s": s.cal, "traced_seconds": s.traced,
                "outcome": outcome.status, "max_rel_err": outcome.max_rel_err,
                "worst_level": outcome.worst_level, "digits": outcome.digits,
                "error": outcome.error,
            }
            row.update(outcome.details)
            if counts is not None:
                row["counts"] = counts.get((p, i), {})
            out.append(row)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    mc = import_mctails()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}")
    env = environment(args.seed)
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)

    ops = workloads.build_ops(mc, args.workload, args.seed, ROOT)
    workloads.attach_references(ops)
    peak_alloc_mb = warm_up(ops)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if not args.trace:
        beyond_per_pass = len(ops) * (1 - TAIL_PERCENTILE[args.workload] / 100.0)
        passes = run_passes(workloads, ops, args.seconds, math.ceil(10 / beyond_per_pass))
        summary = summarize(args.workload, ops, passes)
        measured = summary["measured"]
        measured["pass_cal_s"] = [statistics.median(
            sum(s.seconds * Calibration.scale(s.cal, args.workload) for s in samples)
            for samples in passes), "s"]
        measured["setup_s"] = [statistics.median(
            raw * Calibration.scale(cal, "setup") for raw, cal in setup_times), "s"]
        measured["setup_raw_s"] = [statistics.median(raw for raw, _ in setup_times), "s"]
        measured["peak_alloc_mb"] = [peak_alloc_mb, "MB"]
        summary["setup_probes_s"] = setup_times  # (set-up, kernel times) per probe
        records = op_records(args.workload, ops, passes)
        result_metrics = {k: {"value": measured[k][0], "unit": measured[k][1]}
                          for k in END_TO_END}
    else:
        tracer = tracing.Tracer()
        tracer.install([module for name, module in sorted(sys.modules.items())
                        if name == "mctails" or name.startswith("mctails.")])
        passes = run_passes(workloads, ops, args.seconds, 1, tracer)
        summary = summarize(args.workload, ops, passes)
        plain = sum(s.seconds for samples in passes for s in samples)
        traced = sum(s.traced for samples in passes for s in samples)
        totals = tracer.aggregate()
        tracing.add_compared_levels(tracer, ops, totals)
        result_metrics = tracing.per_layer_metrics(
            totals, len(passes), traced / plain - 1.0, len(tracer.spans))
        summary["untraced_s"], summary["traced_s"] = plain, traced
        summary["span_totals"] = totals
        records = op_records(args.workload, ops, passes, tracer.per_op())
        tracer.dump(str(stem) + "-spans.json.gz")

    with open(str(stem) + ".json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "summary": summary, "ops": records}, fh, indent=1)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "measured": summary["measured"],
        "op_tail_percentile": summary["op_tail_percentile"],
        "op_samples": summary["op_samples"], "passes": summary["passes"],
        "environment": env,
    }))
    print(json.dumps({
        "correct": summary["failed"] + summary["wrong"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"] + summary["wrong"],
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.exit(1)
