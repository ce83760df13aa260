#!/usr/bin/env bash
# Print every command-line output that differs between two source trees.
#
#   bash .github/compare_outputs.sh BASE_TREE HEAD_TREE
#
# On each model file of HEAD_TREE it runs `mctails check` at 20, 150 and
# 1000 levels and `mctails solve --levels 150` by every route in csv and
# json, once with BASE_TREE/src and once with HEAD_TREE/src on the path, and
# compares stdout, stderr and exit status byte for byte.  The routes are the
# ones HEAD_TREE lists.  It reports each differing output with its first
# differing lines, then the count.  It then builds the heavy-traffic and
# deep-tails ops (seed 1) of HEAD_TREE's perfbench/workloads.py, which it
# only reads, runs each op once under each tree's src/, and reports every op
# whose x0 or tail bytes differ, with the largest entrywise relative
# difference of its x0 and of its tails, or that raises differently, then
# that count.  The same goes for the product and lu routes at 100 levels on
# the retrial chain of each case in HEAD_TREE's tests/data/retrial_tails.json,
# built to the horizon of the closed form (models.retrial_tails), where slow
# retrials reach the level-dependent routes.  It is informational: it always
# exits 0.

base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

run() {  # tree, cli arguments...
    local tree=$1
    shift
    PYTHONPATH="$tree/src" python -W error -m mctails.cli "$@" > "$tmp/out" 2>&1
    echo "exit status $?" >> "$tmp/out"
}

total=0
differ=0
for f in "$head"/modelfiles/*.json; do
    runs=("check $f --levels 20" "check $f --levels 150" "check $f --levels 1000")
    routes=$(PYTHONPATH="$head/src" python -c "import sys; from mctails.cli import load_model_file; from mctails.registry import route_names; print(*route_names(load_model_file(sys.argv[1]).kind))" "$f")
    for route in $routes; do
        for output in csv json; do
            runs+=("solve $f --levels 150 --method $route --output $output")
        done
    done
    for args in "${runs[@]}"; do
        total=$((total + 1))
        # shellcheck disable=SC2086  # the arguments are split on purpose
        run "$base" $args && mv "$tmp/out" "$tmp/base"
        # shellcheck disable=SC2086
        run "$head" $args
        if ! cmp -s "$tmp/base" "$tmp/out"; then
            differ=$((differ + 1))
            echo "differs: mctails ${args//$head\//}"
            diff "$tmp/base" "$tmp/out" | head -n 20
        fi
    done
done
echo "$differ of $total outputs differ"

library() {  # tree, file: pickles each op's label and its x0 and tails, or its raise
    OPENBLAS_NUM_THREADS=1 PYTHONPATH="$1/src:$head/perfbench" python -W error - "$head" "$2" <<'PY'
import json
import pickle
import sys
from pathlib import Path

import numpy as np

import mctails
import workloads


def outputs(call):
    """The x0 and tail rows `call` returns, or its raise, which is an output too."""
    try:
        result = call()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return [None if row is None else np.asarray(row, dtype=float)
            for row in [result.x0, *result.pis]]


ops = []
for workload in ("heavy-traffic", "deep-tails"):
    for i, op in enumerate(workloads.build_ops(mctails, workload, 1, Path(sys.argv[1]))):
        ops.append((f"{workload} op {i} {op.label()}", outputs(op.call)))
cases = Path(sys.argv[1], "tests", "data", "retrial_tails.json")
for case in json.loads(cases.read_text())["cases"]:
    params = mctails.RetrialParams(case["lam"], case["mu"], case["theta"])
    horizon = mctails.retrial_tails(params, 100).truncation_report["terms"]
    chain = mctails.models.retrial_chain(params, horizon)
    for route in ("product", "lu"):
        ops.append((f"retrial {params.lam:g} {params.mu:g} {params.theta:g} horizon {horizon} "
                    f"{route} 100 levels",
                    outputs(lambda: mctails.solve_tails(chain, 100, method=route))))
with open(sys.argv[2], "wb") as out:
    pickle.dump(ops, out)
PY
}

library "$base" "$tmp/base-ops"
library "$head" "$tmp/head-ops"
python - "$tmp/base-ops" "$tmp/head-ops" <<'PY'
import pickle
import sys
from pathlib import Path

import numpy as np


def largest_rel(new, old):
    """max |new - old| / |old| over the entries, 0/0 counting as 0."""
    gap = np.abs(new - old)
    scale = np.abs(old)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(gap == 0, 0.0, gap / scale)
    return float(rel.max(initial=0.0))


def difference(old, new):
    """None when the two outputs of an op are the same bytes, else how they differ."""
    if isinstance(old, str) or isinstance(new, str):
        said = [out if isinstance(out, str) else "nothing" for out in (old, new)]
        return None if old == new else f"raises {said[0]} -> {said[1]}"
    pairs = list(zip(old, new))
    if len(old) != len(new) or any((x is None) != (y is None) or (x is not None and x.shape != y.shape)
                                   for x, y in pairs):
        return "shapes differ"
    if all(x is None or x.tobytes() == y.tobytes() for x, y in pairs):
        return None
    x0 = 0.0 if old[0] is None else largest_rel(new[0], old[0])
    tails = max((largest_rel(y, x) for x, y in pairs[1:]), default=0.0)
    return f"largest relative difference x0 {x0:.1e}, tails {tails:.1e}"


base, head = (pickle.loads(Path(path).read_bytes()) for path in sys.argv[1:])
differ = 0
for (label, old), (_, new) in zip(base, head):
    how = difference(old, new)
    if how is not None:
        differ += 1
        print(f"differs: {label}: {how}")
print(f"{differ} of {len(head)} library ops differ")
PY
exit 0
