#!/usr/bin/env sh
# Before/after run of one benchmark workload (runbench/, see
# runbench/WORKLOADS.md): a parent revision against the working tree,
# in pairs whose order alternates.
#
#   scripts/runbench-ab.sh <parent-rev> <workload> [pairs] [seconds]
#
# The parent is exported with `git archive` to .bench_build/ab-<rev>/src
# and built under its own CARGO_TARGET_DIR; the working tree is built
# under .bench_build/ab-head. Pair i runs both sides on seed
# AB_FIRST_SEED + i (default first seed 1); even pairs run the parent
# first, odd pairs the working tree first, because hosts drift over
# minutes. Each side's result lines go to .bench_out/ab/<workload>/.
#
# Prints, per end-to-end metric, each side's median and quartiles and
# the number of pairs the working tree won (lower is better for the
# timing and memory metrics). Exits non-zero when a run is incorrect or
# has failed operations, or when any of the four simulated metrics
# (delivery_ratio, data_overhead, protocol_overhead,
# max_e2e_delay_ticks) differs between the two sides.
set -eu
cd "$(dirname "$0")/.."
if [ $# -lt 2 ]; then
    echo "usage: $0 <parent-rev> <workload> [pairs] [seconds]" >&2
    exit 2
fi
rev=$1
workload=$2
pairs=${3:-10}
seconds=${4:-20}
first_seed=${AB_FIRST_SEED:-1}
export CARGO_NET_OFFLINE=true

root=$(pwd)
commit=$(git rev-parse --short "$rev^{commit}")
parent_src=$root/.bench_build/ab-$commit/src
parent_bin=$root/.bench_build/ab-$commit/target/release/scmp-runbench
head_bin=$root/.bench_build/ab-head/target/release/scmp-runbench
out=$root/.bench_out/ab/$workload
if [ ! -d "$parent_src" ]; then
    mkdir -p "$parent_src"
    git archive "$commit" | tar -x -C "$parent_src"
fi
CARGO_TARGET_DIR=$root/.bench_build/ab-$commit/target \
    cargo build -q --release --manifest-path "$parent_src/runbench/Cargo.toml"
CARGO_TARGET_DIR=$root/.bench_build/ab-head/target \
    cargo build -q --release --manifest-path runbench/Cargo.toml
rm -rf "$out"
mkdir -p "$out"

# run_side <parent|head> <pair>: one run, its result line kept.
run_side() {
    if [ "$1" = parent ]; then dir=$parent_src bin=$parent_bin; else dir=$root bin=$head_bin; fi
    seed=$((first_seed + $2))
    (cd "$dir" && "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
        >"$out/$1-$2.log" 2>"$out/$1-$2.err" || true
    tail -n 1 "$out/$1-$2.log" >"$out/$1-$2.txt"
    echo "pair $2 $1: $(cat "$out/$1-$2.txt")"
}

i=0
while [ "$i" -lt "$pairs" ]; do
    if [ $((i % 2)) -eq 0 ]; then
        run_side parent "$i"
        run_side head "$i"
    else
        run_side head "$i"
        run_side parent "$i"
    fi
    i=$((i + 1))
done

python3 - "$out" "$pairs" <<'EOF'
import json, statistics, sys

out, pairs = sys.argv[1], int(sys.argv[2])
simulated = ["delivery_ratio", "data_overhead", "protocol_overhead", "max_e2e_delay_ticks"]
lower_is_better = ["setup_s", "run_s", "peak_rss_mb"]
status = 0
runs = {"parent": [], "head": []}
for side in runs:
    for i in range(pairs):
        try:
            with open(f"{out}/{side}-{i}.txt") as f:
                res = json.loads(f.read())
        except (OSError, ValueError) as e:
            print(f"{side} pair {i}: no result line ({e})")
            status = 1
            continue
        if not res["correct"] or res["failed"] != 0:
            print(f"{side} pair {i}: correct={res['correct']} failed={res['failed']}")
            status = 1
        runs[side].append({k: v["value"] for k, v in res["metrics"].items()})


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


if len(runs["parent"]) == pairs and len(runs["head"]) == pairs:
    print(f"{'metric':<22} {'parent q1/median/q3':>32} {'head q1/median/q3':>32}  head wins")
    for m in lower_is_better:
        p = [r[m] for r in runs["parent"]]
        h = [r[m] for r in runs["head"]]
        wins = sum(hv < pv for pv, hv in zip(p, h))
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
        print(f"{m:<22} {fmt(quartiles(p)):>32} {fmt(quartiles(h)):>32}  {wins}/{pairs}")
    for m in simulated:
        values = {r[m] for side in runs.values() for r in side}
        if len(values) != 1:
            print(f"SIMULATED METRIC DIFFERS: {m}: {sorted(values)}")
            status = 1
        else:
            print(f"{m:<22} identical: {values.pop()}")
sys.exit(status)
EOF
