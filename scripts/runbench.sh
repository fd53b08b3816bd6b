#!/usr/bin/env sh
# Run the end-to-end benchmark (runbench/, see runbench/WORKLOADS.md) on
# all three workloads and compare against a baseline.
#
#   scripts/runbench.sh [out-dir] [base-dir] [seed] [seconds]
#
# Each workload's result line (the run's last stdout line) is written to
# <out-dir>/<workload>.txt. When <base-dir> holds the same files (e.g.
# from a run made before a change with <out-dir> = .bench_out/base),
# each pair goes through `scmp-runbench compare`, which flags any
# end-to-end metric worse than its BENCHMARK.json bound. Exits non-zero on an incorrect
# run or a flagged regression.
set -eu
cd "$(dirname "$0")/.."
out=${1:-.bench_out/latest}
base=${2:-.bench_out/base}
seed=${3:-1}
seconds=${4:-20}
export CARGO_NET_OFFLINE=true
mkdir -p "$out"
status=0
for w in paper-fig89 waxman1k-churn flap-storm; do
    cargo run -q --release --manifest-path runbench/Cargo.toml -- \
        --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >"$out/$w.log" || status=1
    tail -n 1 "$out/$w.log" >"$out/$w.txt"
    cat "$out/$w.txt"
    if [ -f "$base/$w.txt" ]; then
        echo "compare $w against $base:"
        cargo run -q --release --manifest-path runbench/Cargo.toml -- \
            compare "$base/$w.txt" "$out/$w.txt" || status=1
    else
        echo "no baseline $base/$w.txt; compare skipped"
    fi
done
exit $status
