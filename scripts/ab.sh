#!/usr/bin/env bash
# A/B of the working tree against a parent revision on every workload
# BENCHMARK.json declares, judged the way a performance change is judged.
#
#   scripts/ab.sh <parent-rev> [pairs] [seconds] [first-seed]   # defaults: 10, 20, 1
#
# The parent is exported with `git archive` into target/ab/base-src and
# built into target/ab/base; the working tree (uncommitted edits included)
# is built into target/ab/new. Both are the benchmark package's release
# build, the command BENCHMARK.json runs. Pair i runs seed first-seed + i
# on each workload, once per side, the side that goes first
# alternating from one seed to the next so that drift in the host's speed
# falls on both. Raw result lines land in target/ab/runs/.
#
# Printed per workload: a heading with the failed-operation counts, then one
# row per end-to-end metric: both medians, the change of the median, in how
# many pairs the new side was better, the parent's interquartile range (as
# a share of its median), the metric's bound, and a verdict:
#   equal per seed     every pair gave the same value on both sides
#   gain (9/10 rule)   better in >= 9 of 10 pairs, and the medians differ
#                      by more than the parent's IQR
#   WORSE than bound   the median moved the wrong way by more than the bound
#   unresolved         the parent's IQR is wider than the bound, and not
#                      every run of the change beat every run of the parent
#   within bound       anything else
# Needs jq. Runs one benchmark process at a time.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
    echo "usage: scripts/ab.sh <parent-rev> [pairs] [seconds] [first-seed]" >&2
    exit 2
fi
parent=$1
pairs=${2:-10}
seconds=${3:-20}
first_seed=${4:-1}
rev=$(git rev-parse --short "$parent^{commit}")

ab=target/ab
runs=$ab/runs
rm -rf "$ab/base-src" "$runs"
mkdir -p "$ab/base-src" "$runs" "$ab/tmp"
git archive "$rev" | tar -x -C "$ab/base-src"

build() { # <manifest> <target dir>
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet --manifest-path "$1"
}
echo "building parent $rev and the working tree" >&2
build "$ab/base-src/benchmark/Cargo.toml" "$ab/base"
build benchmark/Cargo.toml "$ab/new"

workloads=$(jq -r '.workloads[].name' BENCHMARK.json)
run() { # <side> <workload> <seed>
    local out="$runs/$2.$1.$3.json"
    "$ab/$1/release/nexus-benchmark" --workload "$2" --seed "$3" --seconds "$seconds" \
        --trace 0 --tmp "$ab/tmp" 2> /dev/null | tail -n 1 > "$out" || true
    jq -e .metrics "$out" > /dev/null 2>&1 || echo '{"failed": -1, "metrics": {}}' > "$out"
}
for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then order="base new"; else order="new base"; fi
    for w in $workloads; do
        echo "pair $((i + 1))/$pairs seed $seed $w ($order)" >&2
        for side in $order; do run "$side" "$w" "$seed"; done
    done
done

echo "parent $rev vs working tree: $pairs pairs of ${seconds} s, seeds $first_seed-$((first_seed + pairs - 1))"
for w in $workloads; do
    failed() {
        cat "$runs/$w.$1".*.json | jq -s '[.[].failed] | if any(. < 0) then "no result" else add end'
    }
    echo
    echo "## $w: $pairs pairs, failed ops base $(failed base) new $(failed new)"
    echo "| metric | base median | new median | change | new better | base IQR | bound | verdict |"
    echo "|---|---:|---:|---:|---:|---:|---:|---|"
    jq -r '.end_to_end[] | [.name, .better, .bound] | @tsv' BENCHMARK.json |
    while IFS=$'\t' read -r metric better bound; do
        values() {
            for ((i = 0; i < pairs; i++)); do
                jq -r --arg m "$metric" '.metrics[$m].value // "nan"' \
                    "$runs/$w.$1.$((first_seed + i)).json"
            done | paste -sd' '
        }
        echo "$metric $better $bound $pairs $(values base) $(values new)"
    done | awk '
        function sort(a, n,    i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        }
        # Quantile q of sorted a[1..n], linear between closest ranks.
        function quantile(a, n, q,    h, lo) {
            h = (n - 1) * q + 1; lo = int(h)
            return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
        }
        {
            metric = $1; lower = ($2 == "lower"); bound = $3; n = $4
            equal = 1; wins = 0
            for (i = 1; i <= n; i++) {
                b[i] = $(4 + i) + 0; v[i] = $(4 + n + i) + 0
                if (b[i] != v[i]) equal = 0
                if (lower ? v[i] < b[i] : v[i] > b[i]) wins++
            }
            sort(b, n); sort(v, n)
            apart = lower ? v[n] < b[1] : v[1] > b[n]
            mb = quantile(b, n, 0.5); mv = quantile(v, n, 0.5)
            iqr = quantile(b, n, 0.75) - quantile(b, n, 0.25)
            change = mb == 0 ? 0 : (mv - mb) / mb
            worse = lower ? change : -change
            if (equal) verdict = "equal per seed"
            else if (wins * 10 >= 9 * n && (mv - mb > iqr || mb - mv > iqr) && worse < 0)
                verdict = "gain (9/10 rule)"
            else if (worse > bound) verdict = "WORSE than bound"
            else if (iqr > bound * mb && !apart) verdict = "unresolved"
            else verdict = "within bound"
            printf "| `%s` | %.4g | %.4g | %+.1f %% | %d/%d | %.1f %% | %g %% | %s |\n",
                metric, mb, mv, 100 * change, wins, n, mb == 0 ? 0 : 100 * iqr / mb, 100 * bound, verdict
        }'
done
