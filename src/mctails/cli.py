"""Command-line front end: solve, cross-check, and mean-field subcommands.

Model files are JSON objects with a ``kind`` plus either raw ``blocks`` (the
generic chain families) or named ``params`` (the queueing models).  Schema
errors exit with code 2 and name the offending field, solver failures exit
with 3, and a failed cross-check exits with 1.  Output is deterministic:
running the same command twice produces byte-identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .errors import SolverError, ValidationError
from .models import meanfield_ode, supermarket_tail
from .registry import REGISTRY, Model, build, cross_check, solve
from .series import TailSeries


class ModelFileError(Exception):
    """A model file could not be read or does not match the schema."""


def _fail(path: str, message: str):
    raise ModelFileError(f"{path}: {message}")


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, "expected a JSON object")
    return value


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, "expected a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal past the float range
        number = math.inf
    if not math.isfinite(number):
        _fail(path, f"expected a finite number, got {number}")
    return number


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, "expected an integer")
    return value


def _matrix(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty list of rows")
    rows = []
    width = None
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            _fail(f"{path}[{i}]", "expected a non-empty row of numbers")
        if width is None:
            width = len(row)
        elif len(row) != width:
            _fail(f"{path}[{i}]", f"row length {len(row)} differs from {width}")
        rows.append([_number(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    return rows


def _matrix_list(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty list of matrices")
    return [_matrix(entry, f"{path}[{i}]") for i, entry in enumerate(value)]


def _rate_table(value, path: str):
    """A rate may be one number or a list of numbers."""
    if isinstance(value, list):
        if not value:
            _fail(path, "rate list must not be empty")
        return [_number(x, f"{path}[{i}]") for i, x in enumerate(value)]
    return _number(value, path)


def _take(obj: dict, key: str, path: str):
    if key not in obj:
        _fail(path, f"missing required key {key!r}")
    return obj[key], f"{path}.{key}"


def _reject_unknown(obj: dict, allowed, path: str) -> None:
    extra = sorted(set(obj) - set(allowed))
    if extra:
        _fail(f"{path}.{extra[0]}", f"unknown key (allowed: {', '.join(sorted(allowed))})")


_READERS = {"matrix": _matrix, "matrices": _matrix_list, "number": _number,
            "integer": _integer, "rate": _rate_table}


def load_model_file(path: str) -> Model:
    """Read and validate one model file, reporting errors by field path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ModelFileError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFileError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc

    root = _object(data, "$")
    _reject_unknown(root, ("kind", "name", "blocks", "params", "tol"), "$")
    kind, kind_path = _take(root, "kind", "$")
    if not isinstance(kind, str) or kind not in REGISTRY:
        _fail(kind_path, f"unknown kind {kind!r} (one of: {', '.join(REGISTRY)})")

    tol = None
    if "tol" in root:
        tol = _number(root["tol"], "$.tol")
        if not tol > 0:
            _fail("$.tol", "must be a positive finite number")

    spec = REGISTRY[kind]
    value, section_path = _take(root, spec.section, "$")
    section = _object(value, section_path)
    _reject_unknown(section, spec.fields, section_path)
    values = {}
    for key, reader in spec.fields.items():
        raw, field_path = _take(section, key, section_path)
        values[key] = _READERS[reader](raw, field_path)
    try:
        payload = build(kind, values)
    except ValidationError as exc:
        raise ModelFileError(f"{section_path}: {exc}") from exc
    return Model(kind, payload, tol=tol)


def _format_csv(series: TailSeries) -> str:
    width = len(series.pis[0]) if len(series.pis) else 0
    lines = ["k," + ",".join(f"p{i}" for i in range(width))]
    for i, row in enumerate(series.pis):
        level = series.first_level + i
        lines.append("%d," % level + ",".join("%.17g" % v for v in row))
    return "\n".join(lines) + "\n"


def _format_json(kind: str, series: TailSeries) -> str:
    payload = {
        "kind": kind,
        "method": series.method,
        "first_level": series.first_level,
        "x0": series.x0,
        "tails": [
            {"k": series.first_level + i, "pi": row}
            for i, row in enumerate(series.pis)
        ],
        "truncation_report": series.truncation_report,
    }
    # numpy arrays and scalars go out as the Python lists and numbers they hold
    return json.dumps(payload, indent=2, sort_keys=True,
                      default=lambda value: value.tolist()) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"--out {out_path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _levels(args) -> int:
    if args.levels < 1:
        raise ValidationError(f"--levels must be at least 1, got {args.levels}")
    return args.levels


def _load(args) -> Model:
    """The model file, with --tol in place of its tol when given; a tol
    left None is resolved by the registry."""
    model = load_model_file(args.modelfile)
    if args.tol is None:
        return model
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValidationError(f"--tol must be a positive finite number, got {args.tol!r}")
    return model._replace(tol=args.tol)


def _cmd_solve(args) -> int:
    model = _load(args)
    series = solve(model, _levels(args), args.method)
    if args.output == "json":
        text = _format_json(model.kind, series)
    else:
        text = _format_csv(series)
    _emit(text, args.out)
    return 0


def _cmd_check(args) -> int:
    model = _load(args)
    report = cross_check(model, _levels(args))
    out = [f"kind: {report.kind}"]
    for c in report.comparisons:
        out.append("%s vs %s (levels %d..%d): %.3e %s"
                   % (c.left, c.right, c.first, c.last, c.gap, "ok" if c.ok else "FAIL"))
    if report.oracle_levels is not None:
        out.append("oracle: %d levels, estimated mass past them %.1e"
                   % (report.oracle_levels, report.oracle_mass))
    verdict = ("check passed: %d comparisons within %.0e"
               if report.passed else "check FAILED: %d comparisons, tolerance %.0e")
    out.append(verdict % (len(report.comparisons), report.tolerance))
    _emit("\n".join(out) + "\n", None)
    return 0 if report.passed else 1


def _cmd_meanfield(args) -> int:
    levels = _levels(args)
    result = meanfield_ode(args.rho, args.d, levels, args.t_end, dt=args.dt)
    lines = ["k,ode,fixed_point"]
    for k in range(1, levels + 1):
        lines.append("%d,%.17g,%.17g"
                     % (k, result.values[k - 1],
                        supermarket_tail(args.rho, args.d, k)))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mctails",
        description="Stationary tail probabilities for structured Markov chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute tail vectors from a model file")
    solve.add_argument("modelfile", help="path to a JSON model file")
    solve.add_argument("--levels", type=int, default=20,
                       help="highest level to report (default 20)")
    solve.add_argument("--method", default=None,
                       help="solution route; kind-specific, defaults per kind")
    solve.add_argument("--tol", type=float, default=None,
                       help="solver tolerance (default from file or 1e-12)")
    solve.add_argument("--output", choices=("csv", "json"), default="csv")
    solve.add_argument("--out", default=None, help="write to file instead of stdout")

    check = sub.add_parser(
        "check", help="run every route plus a truncation reference and compare")
    check.add_argument("modelfile", help="path to a JSON model file")
    check.add_argument("--levels", type=int, default=20,
                       help="levels compared across routes (default 20)")
    check.add_argument("--tol", type=float, default=None)

    mf = sub.add_parser(
        "meanfield", help="supermarket mean-field profile next to its fixed point")
    mf.add_argument("--rho", type=float, required=True)
    mf.add_argument("--d", type=int, required=True)
    mf.add_argument("--levels", type=int, default=40)
    mf.add_argument("--t-end", type=float, default=200.0, dest="t_end")
    mf.add_argument("--dt", type=float, default=0.05)
    mf.add_argument("--out", default=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``run`` in the process reads its arguments with,
    built on the first call; parsing leaves it unchanged."""
    return build_parser()


def run(argv) -> int:
    """Entry point returning the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"solve": _cmd_solve, "check": _cmd_check, "meanfield": _cmd_meanfield}
    try:
        return handlers[args.command](args)
    except (ModelFileError, ValidationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except SolverError as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
