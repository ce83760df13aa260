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
# differing lines, then the count.  It is informational: it always exits 0.

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
exit 0
