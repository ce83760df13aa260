"""Diagnostic, not part of the benchmark: run one op per known solver defect.

Usage, from the root of a checkout of the repository:

    python3 perfbench/defects.py [--seed 1]

Each op of ``workloads.defect_ops`` runs once and is checked against its
reference like a benchmark op.  One line per op says whether the defect
still shows (the op failed or came back wrong) or is gone (the op is now
right); the per-op records go to ``perfbench/out/defects-seed<N>.json``.
The exit code is 0 either way.
"""

from __future__ import annotations

import argparse
import json

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    mc = run.import_mctails()
    import workloads

    pairs = workloads.defect_ops(mc, args.seed)
    workloads.attach_references([op for _, op in pairs])
    records = []
    for name, op in pairs:
        seconds, result, exc = run.run_op(op)
        outcome = workloads.evaluate(op, result, exc)
        shows = outcome.status != "right"
        records.append({"defect": name, "description": workloads.DEFECTS[name],
                        "op": op.label(), "seconds": seconds,
                        "outcome": outcome.status, "max_rel_err": outcome.max_rel_err,
                        "worst_level": outcome.worst_level, "error": outcome.error})
        detail = outcome.error or f"max rel err {outcome.max_rel_err:.3g} " \
                                  f"at level {outcome.worst_level}"
        print(f"{name:22s} {'shows' if shows else 'GONE':5s} {op.label()}: "
              f"{outcome.status}, {detail}")
    run.OUT.mkdir(exist_ok=True)
    with open(run.OUT / f"defects-seed{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except run.BenchError as exc:
        raise SystemExit(f"error: {exc}") from None
