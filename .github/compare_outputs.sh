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
# whose x0 or tail bytes differ, or that raises differently, then that
# count.  It is informational: it always exits 0.

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
    routes=$(PYTHONPATH="$head/src" python -c "import sys; from mctails.cli import load_model_file; from mctails.registry import REGISTRY; print(*REGISTRY[load_model_file(sys.argv[1]).kind].routes)" "$f")
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

library() {  # tree: one line per op, its label and a digest of its x0 and tail bytes
    OPENBLAS_NUM_THREADS=1 PYTHONPATH="$1/src:$head/perfbench" python -W error - "$head" <<'PY'
import hashlib
import sys
from pathlib import Path

import numpy as np

import mctails
import workloads

for workload in ("heavy-traffic", "deep-tails"):
    for i, op in enumerate(workloads.build_ops(mctails, workload, 1, Path(sys.argv[1]))):
        digest = hashlib.sha256()
        try:
            result = op.call()
            for row in [result.x0, *result.pis]:
                if row is not None:
                    row = np.asarray(row, dtype=float)
                    digest.update(repr(row.shape).encode() + row.tobytes())
        except Exception as exc:  # a raise is an output too
            digest.update(f"{type(exc).__name__}: {exc}".encode())
        print(f"{workload} op {i} {op.label()} {digest.hexdigest()}")
PY
}

library "$base" > "$tmp/base-ops"
library "$head" > "$tmp/head-ops"
diff --old-line-format= --unchanged-line-format= --new-line-format='differs: %L' \
    "$tmp/base-ops" "$tmp/head-ops" | sed 's/ [0-9a-f]*$//' > "$tmp/ops"
cat "$tmp/ops"
echo "$(wc -l < "$tmp/ops") of $(wc -l < "$tmp/head-ops") library ops differ"
exit 0
