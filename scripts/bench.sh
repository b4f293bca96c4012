#!/usr/bin/env bash
# Runs the five BENCH_*.json emitters of `nexus-bench`. Each measures, holds
# its report to the floors declared beside it (crates/bench/src/<x>.rs), and
# only then writes ./BENCH_<x>.json. With --smoke: reduced sizes, the
# correctness floors only, and target/BENCH_<x>.smoke.json, so a throwaway
# run never clobbers the checked-in documents. A missed floor exits non-zero
# and writes nothing.
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -eq 0 ] || [ "$*" = "--smoke" ] || { echo "usage: $0 [--smoke]" >&2; exit 2; }

cargo build --release --offline -p nexus-bench
for x in datapath ct logstore scale groups; do
    ./target/release/nexus-bench "micro_$x" "$@"
done
echo "bench: OK"
