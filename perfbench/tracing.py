"""Span tracing of mctails' public functions, for the benchmark's traced run.

``Tracer.install`` wraps every public function defined in an mctails module;
``enable`` binds the wrapper at every module attribute that holds the
function and ``disable`` restores the originals.  Modules import each
other's functions by name (``from .matkernel import solve_xa``), so
``mctails.qbd.solve_xa`` and ``mctails.matkernel.solve_xa`` are the same
object and both get the same wrapper.

A span is (name, start, end, parent, op, error, extra): perf_counter times,
the index of the enclosing span (-1 at the top), the (pass, op index) tag
of the benchmark op that caused it, the exception type that ended it (or
None), and exact counts read off the call's arguments and result
(iterations, series terms, computed flops).  Spans stay in memory until ``dump``.  A span's self time
is its duration minus the durations of its child spans.

The tiny helpers ``inf_norm``, ``as_matrix`` and ``as_row`` are not wrapped:
the R/G iterations call them once per sweep, so a span each would cost more
than the work it measures.  Their time counts as self time of the caller.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from collections import defaultdict

UNWRAPPED = {"inf_norm", "as_matrix", "as_row"}
RENAMED = {"_cmd_check": "check"}  # private handlers traced under a public name


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _iterations(field, cap):
    """Iteration count of a fixed-point solve, read from the result's
    ``field``; the ``cap`` argument when it gave up."""
    def probe(fn, args, kwargs, result, exc):
        if exc is None:
            return {"iterations": getattr(result, field)}
        if type(exc).__name__ == "NoConvergence":
            return {"iterations": _bound(fn, args, kwargs)[cap]}
        return {}
    return probe


def _series(cap_of=None):
    """Series terms computed and levels requested by a tail route; a route
    that raises TruncationFailure computed its whole cap, ``cap_of(args)``."""
    def probe(fn, args, kwargs, result, exc):
        arguments = _bound(fn, args, kwargs)
        out = {"levels": arguments.get("levels", 0)}
        if exc is None:
            out["terms"] = result.truncation_report.get("terms", 0)
        elif cap_of is not None and type(exc).__name__ == "TruncationFailure":
            out["terms"] = cap_of(arguments)
        return out
    return probe


def _lu_cap(arguments):
    depth = arguments["depth"]
    return depth if depth is not None else 10 * arguments["levels"] + 200


def _materialized(fn, args, kwargs, result, exc):
    return {} if exc else {"levels_materialized": len(result.visit_rows)}


def _oracle(fn, args, kwargs, result, exc):
    if exc:
        return {}
    width = len(result.pis[0]) if result.pis else 0
    return {"states": len(result.x0) + len(result.pis) * width,
            "levels": len(result.pis)}


def _solve_flops(fn, args, kwargs, result, exc):
    """Flops of Gaussian elimination on an n x n system with k right-hand
    sides, computed from the operand shapes: 2n^3/3 + 2n^2 k."""
    a = args[0] if args else kwargs["a"]
    b = args[1] if len(args) > 1 else kwargs["b"]
    n = len(a)
    k = 1 if getattr(b, "ndim", 1) == 1 else b.shape[1]
    return {"flops": 2 * n ** 3 // 3 + 2 * n * n * k}


PROBES = {
    "qbd.solve_R": _iterations("iterations", "max_iter"),
    "qbd.solve_G": _iterations("iterations", "max_iter"),
    "skipfree.solve_R_series": _iterations("iterations", "max_iter"),
    "skipfree.solve_G_series": _iterations("iterations", "max_iter"),
    "ldqbd.solve_rate_sequence": _iterations("backward_sweeps", "max_sweeps"),
    "qbd.tails_lu": _series(_lu_cap),
    "ldqbd.tails_lu_ld": _series(lambda arguments: arguments["max_terms"]),
    "ldqbd.stationary_product": _series(),
    "skipfree.mg1_stationary": _materialized,
    "oracle.truncate_and_solve": _oracle,
    "matkernel.solve_linear": _solve_flops,
}


class Tracer:
    """Collects spans from wrapped mctails functions."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        probe = PROBES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = time.perf_counter()
                stack.pop()
                extra = probe(fn, args, kwargs, None, exc) if probe else None
                spans[index] = (name_id, start, end, parent, self.op,
                                type(exc).__name__, extra)
                raise
            end = time.perf_counter()
            stack.pop()
            extra = probe(fn, args, kwargs, result, None) if probe else None
            spans[index] = (name_id, start, end, parent, self.op, None, extra)
            return result

        return traced

    def install(self, modules) -> None:
        """Wrap the public mctails functions found in ``modules``; the
        wrappers take effect on ``enable``."""
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value):
                    continue
                home = getattr(value, "__module__", "") or ""
                if not home.startswith("mctails"):
                    continue
                fname = RENAMED.get(value.__name__, value.__name__)
                if fname.startswith("_") or fname in UNWRAPPED:
                    continue
                if value not in wrappers:
                    layer = home.rsplit(".", 1)[-1]
                    wrappers[value] = self._wrap(value, f"{layer}.{fname}")
                self._patched.append((module, attr, value, wrappers[value]))

    def enable(self) -> None:
        for module, attr, _, wrapper in self._patched:
            setattr(module, attr, wrapper)

    def disable(self) -> None:
        for module, attr, original, _ in self._patched:
            setattr(module, attr, original)

    def dump(self, path) -> None:
        """Write every span, gzip-compressed JSON, names indexed."""
        payload = {"fields": ["name", "start", "end", "parent", "op", "error", "extra"],
                   "names": self.names, "spans": self.spans}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)

    def aggregate(self) -> dict:
        """Totals per span name: calls, seconds, self seconds, errors by
        type, summed extras, and the errors each function originated (raised
        by a span none of whose children raised)."""
        spans = self.spans
        child = [0.0] * len(spans)
        child_raised = [False] * len(spans)
        for s in spans:
            parent = s[3]
            if parent >= 0:
                child[parent] += s[2] - s[1]
                if s[5] is not None:
                    child_raised[parent] = True
        totals = defaultdict(lambda: defaultdict(float))
        for i, s in enumerate(spans):
            t = totals[self.names[s[0]]]
            t["calls"] += 1
            t["s"] += s[2] - s[1]
            t["self_s"] += s[2] - s[1] - child[i]
            if s[5] is not None:
                t["errors." + s[5]] += 1
                if not child_raised[i]:
                    t["originated_errors"] += 1
            for key, value in (s[6] or {}).items():
                t[key] += value
        return {name: dict(values) for name, values in totals.items()}

    def per_op(self) -> dict:
        """Exact counts per benchmark op, keyed by the op tag."""
        out = defaultdict(lambda: defaultdict(int))
        for s in self.spans:
            name = self.names[s[0]]
            counts = out[s[4]]
            if name in ("qbd.boundary_solve", "matkernel.spectral_radius",
                        "matkernel.solve_linear"):
                counts[name + ".calls"] += 1
            for key, value in (s[6] or {}).items():
                counts[f"{name}.{key}"] += value
        return {op: dict(counts) for op, counts in out.items()}


# (metric, span name, field); field "ratio:a/b" divides two summed fields.
# The comments say which end-to-end metrics each group should move.
PER_LAYER = (
    # R/G solves and the stability check: pass_s, op_tail_ms and
    # accuracy_digits on heavy-traffic; near zero on the other workloads.
    ("qbd.solve_R.calls", "qbd.solve_R", "calls"),
    ("qbd.solve_R.s", "qbd.solve_R", "s"),
    ("qbd.solve_R.iterations", "qbd.solve_R", "iterations"),
    ("skipfree.solve_R_series.s", "skipfree.solve_R_series", "s"),
    ("skipfree.solve_R_series.iterations", "skipfree.solve_R_series", "iterations"),
    ("skipfree.solve_G_series.s", "skipfree.solve_G_series", "s"),
    ("skipfree.solve_G_series.iterations", "skipfree.solve_G_series", "iterations"),
    ("ldqbd.solve_rate_sequence.s", "ldqbd.solve_rate_sequence", "s"),
    ("ldqbd.solve_rate_sequence.sweeps", "ldqbd.solve_rate_sequence", "iterations"),
    ("matkernel.spectral_radius.calls", "matkernel.spectral_radius", "calls"),
    ("matkernel.spectral_radius.self_s", "matkernel.spectral_radius", "self_s"),
    # Tail routes and boundary solves: pass_s, op_p50_ms and accuracy_digits
    # on deep-tails.
    ("qbd.tails_lu.self_s", "qbd.tails_lu", "self_s"),
    ("qbd.tails_lu.terms", "qbd.tails_lu", "terms"),
    ("qbd.tails_lu.useful_ratio", "qbd.tails_lu", "ratio:levels/terms"),
    ("ldqbd.tails_lu_ld.self_s", "ldqbd.tails_lu_ld", "self_s"),
    ("ldqbd.tails_lu_ld.terms", "ldqbd.tails_lu_ld", "terms"),
    ("ldqbd.stationary_product.s", "ldqbd.stationary_product", "s"),
    ("ldqbd.stationary_product.terms", "ldqbd.stationary_product", "terms"),
    ("skipfree.mg1_stationary.s", "skipfree.mg1_stationary", "s"),
    ("skipfree.mg1_stationary.levels_materialized", "skipfree.mg1_stationary",
     "levels_materialized"),
    ("skipfree.mg1_tails.self_s", "skipfree.mg1_tails", "self_s"),
    ("qbd.boundary_solve.calls", "qbd.boundary_solve", "calls"),
    ("qbd.boundary_solve.s", "qbd.boundary_solve", "s"),
    ("qbd.tails_ul.self_s", "qbd.tails_ul", "self_s"),
    ("models.retrial_tails.s", "models.retrial_tails", "s"),
    # The dense oracle: pass_s, op_p50_ms and peak_alloc_mb on bundled-check;
    # absent elsewhere.
    ("oracle.truncate_and_solve.calls", "oracle.truncate_and_solve", "calls"),
    ("oracle.truncate_and_solve.self_s", "oracle.truncate_and_solve", "self_s"),
    ("oracle.truncate_and_solve.states", "oracle.truncate_and_solve", "states"),
    ("oracle.truncate_and_solve.useful_ratio", "oracle.truncate_and_solve",
     "ratio:compared/levels"),
    ("matkernel.stationary_row.s", "matkernel.stationary_row", "s"),
    # The dense kernel: every workload; many tiny solves on heavy-traffic and
    # deep-tails, a few of up to 401 x 401 on bundled-check.
    ("matkernel.solve_linear.calls", "matkernel.solve_linear", "calls"),
    ("matkernel.solve_linear.self_s", "matkernel.solve_linear", "self_s"),
    ("matkernel.solve_linear.flops_computed", "matkernel.solve_linear", "flops"),
    # The CLI: load_model_file moves setup_s, which loads every model file
    # (check loads it again, so it is in the pass too); the others move
    # bundled-check pass_s.
    ("cli.load_model_file.s", "cli.load_model_file", "s"),
    ("cli.solve_model.s", "cli.solve_model", "s"),
    ("cli.check.self_s", "cli.check", "self_s"),
)
ERROR_LAYERS = ("mctails", "matkernel", "qbd", "ldqbd", "skipfree", "models",
                "oracle", "cli")


def per_layer_metrics(totals: dict, passes: int, overhead: float, spans: int) -> dict:
    """Per-layer totals per traced pass; ratios as summed over the pass."""
    metrics = {}
    for metric, name, field in PER_LAYER:
        values = totals.get(name, {})
        if field.startswith("ratio:"):
            num, den = field[6:].split("/")
            value = values.get(num, 0.0) / values[den] if values.get(den) else 0.0
            unit = "ratio"
        else:
            value = values.get(field, 0.0) / passes
            unit = "s" if field in ("s", "self_s") else "count"
        metrics[metric] = {"value": value, "unit": unit}
    for layer in ERROR_LAYERS:
        errors = sum(v.get("originated_errors", 0.0) for k, v in totals.items()
                     if k.split(".", 1)[0] == layer)
        metrics[f"{layer}.errors"] = {"value": errors / passes, "unit": "count"}
    metrics["tracing.spans"] = {"value": spans / passes, "unit": "count"}
    metrics["tracing.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return metrics


def add_compared_levels(tracer, ops, totals) -> None:
    """Levels of each oracle solve that ``check`` compares: the levels the
    op requested, at most the levels the oracle solved."""
    oracle = totals.get("oracle.truncate_and_solve")
    if oracle is None:
        return
    name_id = tracer.names.index("oracle.truncate_and_solve")
    oracle["compared"] = sum(min(ops[s[4][1]].levels, (s[6] or {}).get("levels", 0))
                             for s in tracer.spans if s[0] == name_id)
