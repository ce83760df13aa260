#!/usr/bin/env bash
# Print every command-line output that differs between two source trees.
#
#   bash .github/compare_outputs.sh BASE_TREE HEAD_TREE
#
# On each model file of HEAD_TREE it runs `mctails check` at 20, 150 and
# 1000 levels, `mctails solve --levels 150` by every route in csv and json
# and `mctails solve --levels 1000` by every route in csv, once with
# BASE_TREE/src and once with HEAD_TREE/src on the path, and compares
# stdout, stderr and exit status byte for byte.  The routes are the ones
# HEAD_TREE lists.  It reports each differing output with its first
# differing lines, and a differing csv solve with the largest entrywise
# relative difference of its tails over normal floats and the count of its
# differing subnormal entries, since a drift that grows with depth shows
# only there; then the count.  It then builds the heavy-traffic and
# deep-tails ops (seed 1) of HEAD_TREE's perfbench/workloads.py, which it
# only reads, runs each op once under each tree's src/, and reports every op
# whose x0 or tail bytes differ, with the largest entrywise relative
# difference of its x0 and of its tails, or that raises differently, then
# that count and how many of those raise the same type with other words.
# The same goes for the product and lu routes at 100 levels on the retrial
# chain of each case in HEAD_TREE's tests/data/retrial_tails.json,
# built to the horizon of the closed form (models.retrial_tails), where slow
# retrials reach the level-dependent routes.  The same goes for the oracle
# (oracle.truncate_and_solve at 150 levels) on the chain of every qbd, gim1
# and mg1 model file of HEAD_TREE, so that a change to how a chain is laid
# out shows in its bytes.  Last, it draws seeded random
# QBD, GI/M/1 and M/G/1 chains (numpy's default_rng, so both trees see the
# same draws), with slow phase switching, zero arrival or service rates,
# transient phases and phase classes that meet only at the boundary among
# them; it solves each draw by every route the running tree lists at 40
# levels under each tree's src/, giving each solve 2 s, and reports each
# draw whose x0 or tail bytes or whose raise differ, in the same way, then
# the solves that ran out of time under HEAD_TREE.  It is informational: it
# always exits 0.

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
        runs+=("solve $f --levels 1000 --method $route --output csv")
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
            if [[ $args == *"--output csv"* ]]; then
                python - "$tmp/base" "$tmp/out" <<'PY'
import sys

import numpy as np


def tails(path):
    """The csv tail rows, without the header and the exit status line."""
    lines = open(path).read().splitlines()[1:-1]
    return np.array([[float(v) for v in line.split(",")[1:]] for line in lines])


try:
    old, new = (tails(path) for path in sys.argv[1:])
    gap, scale = np.abs(new - old), np.abs(old)
except ValueError:
    sys.exit(0)  # not two tables of one shape: the diff above says why
# below the smallest normal float a relative difference says nothing
normal = np.minimum(scale, np.abs(new)) >= np.finfo(float).tiny
rel = np.where(normal & (gap > 0), gap / np.where(normal, scale, 1.0), 0.0)
print(f"largest relative difference of the tails {float(rel.max(initial=0.0)):.1e}, "
      f"and {int(((gap > 0) & ~normal).sum())} differing entries below the smallest normal float")
PY
            fi
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
from mctails.cli import load_model_file


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
for path in sorted(Path(sys.argv[1], "modelfiles").glob("*.json")):
    model = load_model_file(str(path))
    if model.kind in ("qbd", "gim1", "mg1"):
        ops.append((f"oracle {path.name} 150 levels",
                    outputs(lambda: mctails.oracle.truncate_and_solve(model.payload, 150))))
with open(sys.argv[2], "wb") as out:
    pickle.dump(ops, out)
PY
}

draws() {  # tree, file: pickles each random draw's route label and its x0 and tails, or its raise
    OPENBLAS_NUM_THREADS=1 PYTHONPATH="$1/src" python -W error - "$2" <<'PY'
import pickle
import signal
import sys

import numpy as np

import mctails
from mctails.registry import kind_of, route_names

LEVELS = 40
LIMIT = 2.0  # seconds a solve may take; a solve takes milliseconds
TIMED_OUT = f"no result within {LIMIT:g} s"


def give_up(signum, frame):
    raise TimeoutError(TIMED_OUT)


def outputs(call):
    """The x0 and tail rows `call` returns, or its raise, which is an output
    too, or TIMED_OUT once it has run LIMIT seconds."""
    signal.setitimer(signal.ITIMER_REAL, LIMIT)
    try:
        result = call()
    except TimeoutError:
        return TIMED_OUT
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    return [None if row is None else np.asarray(row, dtype=float)
            for row in [result.x0, *result.pis]]


signal.signal(signal.SIGALRM, give_up)


def switching(rng, m, style):
    """Off-diagonal phase rates: sparse, slowed by 1e-6 (style 1), with a
    phase nothing enters (style 2), or in two classes that never meet (3)."""
    t = rng.random((m, m)) * (rng.random((m, m)) < 0.6)
    if style == 1:
        t *= 1e-6
    elif style == 2:
        t[:, 0] = 0.0
    elif style == 3:
        t[:m // 2, m // 2:] = t[m // 2:, :m // 2] = 0.0
    np.fill_diagonal(t, 0.0)
    return t


def qbd(rng, m, style):
    """A modulated queue, some of whose phases never arrive or never serve;
    the boundary switches phases on its own, irreducibly."""
    t = switching(rng, m, style)
    t -= np.diag(t.sum(axis=1))
    boundary = rng.uniform(0.1, 1.0, (m, m))
    np.fill_diagonal(boundary, 0.0)
    boundary -= np.diag(boundary.sum(axis=1))
    up = rng.uniform(0.0, 1.5, m) * (rng.random(m) < 0.85)
    down = rng.uniform(0.0, 2.0, m) * (rng.random(m) < 0.85)
    a0 = np.diag(up)
    if rng.random() < 0.3:
        jump = rng.random((m, m))
        a0 = a0 @ (jump / jump.sum(axis=1, keepdims=True))
    return mctails.QbdModel(boundary - np.diag(up), a0, np.diag(down),
                            a0, t - np.diag(up + down), np.diag(down))


def skip_free(rng, m, style, kind):
    """A walk of 3-5 blocks whose phase moves by the switching rates at each
    step; its boundary blocks return the mass its jumps take below level 0."""
    count = int(rng.integers(3, 6))
    step = switching(rng, m, style)
    step = np.eye(m) + step / max(1.0, float(step.sum(axis=1).max()))
    step /= step.sum(axis=1, keepdims=True)
    shares = rng.random((count, m)) * (rng.random((count, m)) < 0.85)
    shares[1] += 1e-3
    shares /= shares.sum(axis=0)
    a = [share[:, None] * step for share in shares]
    if kind == "GIM1":
        b = [a[0], *[sum(a[k:]) for k in range(1, count)]]
    else:
        b = [a[0], a[0] + a[1], *a[2:]]
    return mctails.SkipFreeModel(kind, a, b)


ops = []
rng = np.random.default_rng(2012)
for i in range(90):
    family = ("QBD", "GIM1", "MG1")[i % 3]
    m, style = int(rng.integers(1, 6)), int(rng.integers(4))
    try:
        model = qbd(rng, m, style) if family == "QBD" else skip_free(rng, m, style, family)
    except Exception as exc:
        ops.append((f"draw {i} {family} m={m} style {style}", f"{type(exc).__name__}: {exc}"))
        continue
    for route in route_names(kind_of(model)):
        ops.append((f"draw {i} {family} m={m} style {style} {route}",
                    outputs(lambda: mctails.solve_tails(model, LEVELS, method=route))))
with open(sys.argv[1], "wb") as out:
    pickle.dump(ops, out)
PY
}

compare() {  # base file, head file, what the ops are called
    python - "$@" <<'PY'
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


def raised(out):
    """The exception type an output names, or None for a result."""
    return out.split(":")[0] if isinstance(out, str) else None


base, head = (pickle.loads(Path(path).read_bytes()) for path in sys.argv[1:3])
base = dict(base)
differ = reworded = 0
for label, new in head:
    old = base.get(label)
    how = difference(old, new) if label in base else "the base tree has no such op"
    if how is None:
        continue
    differ += 1
    # a raise of the same type whose words changed: the refusing check
    # changed, not the verdict
    if raised(old) and raised(old) == raised(new):
        reworded += 1
        print(f"reworded: {label}: {how}")
    else:
        print(f"differs: {label}: {how}")
print(f"{differ} of {len(head)} {sys.argv[3]} differ, {reworded} of them only in the words of a raise")
slow = [label for label, new in head if isinstance(new, str) and new.startswith("no result within")]
if slow:
    print(f"{len(slow)} {sys.argv[3]} gave no result in time under the head tree: " + "; ".join(slow))
PY
}

library "$base" "$tmp/base-ops"
library "$head" "$tmp/head-ops"
compare "$tmp/base-ops" "$tmp/head-ops" "library ops"
draws "$base" "$tmp/base-draws"
draws "$head" "$tmp/head-draws"
compare "$tmp/base-draws" "$tmp/head-draws" "random draws"
exit 0
