#!/usr/bin/env bash
# Tier-1 verify, hermetically: the build and the tests must pass with no
# network. Everything that used to be a grep over source or a walk over
# `cargo metadata` here is now a test `cargo test` runs: the dependency
# graph holds nexus-* workspace crates only and the gate suites exist
# (tests/repo_audit.rs); the docs name only live code (tests/docs_audit.rs);
# no storage commit path calls a bare fs::write
# (crates/storage/tests/source_audit.rs); crypto lanes and the load path
# (crates/{crypto,workloads}/tests/source_audit.rs). What is left is what
# needs another process: a second workspace, an environment override read
# once per process, and the built bench binary, run twice where its output
# must not depend on the run.
# Run from anywhere; operates on the repo this script lives in.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release --offline =="
cargo build --release --workspace --offline

echo "== cargo test -q --offline =="
cargo test -q --workspace --offline

echo "== benchmark package (its own workspace) =="
# benchmark/ path-depends on crates/* but is not a member of this
# workspace, so neither command above builds it: a nexus-core API change
# could break the instrument that judges performance changes unnoticed.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "== portable crypto engines, end to end =="
# The bitsliced AES engine and the scalar SHA-256 are the only ones off
# x86_64; NEXUS_CRYPTO_FORCE_PORTABLE=1 (read once per process, hence
# here and not in a test) puts an x86 host on them through the whole
# volume lifecycle. `golden_inventory` pins a SHA-256 over every stored
# byte of a fixed script, bucket MACs included: passing it here says the
# portable engines store exactly what the fused hardware kernels store.
# The override also switches the wide GCM kernel off, so the differential
# rerun covers the bitsliced engine and, with the hardware engine pinned
# beside it, the 128-bit kernel alone over every whole group; the audit
# reads source and must not care which lane the process is on. `freed_keys`
# runs the metadata seal and open on the bitsliced engine too, whose round
# keys live in heap-allocated planes: none of its keys may be freed unwiped;
# `freed_exchange_keys` does the same for the rootkey exchange's secrets.
export NEXUS_CRYPTO_FORCE_PORTABLE=1
cargo test -q --offline -p nexus-core --test end_to_end --test golden_inventory --test properties --test freed_keys --test freed_exchange_keys > /dev/null
cargo test -q --offline -p nexus-crypto --lib --test properties --test kernel_differential --test source_audit > /dev/null
unset NEXUS_CRYPTO_FORCE_PORTABLE
echo "ok: volume lifecycle, golden stored bytes, metadata and crypto properties, freed-memory key wipes, unit vectors and the kernel differential pass on the forced-portable engines"

echo "== paper tables: shape gates, smoke sizes =="
# Every §VII command runs and must clear the shape the paper claims for it
# (crates/bench/src/paper.rs); EXPERIMENTS.md is left as recorded.
./target/release/nexus-bench paper --smoke > /dev/null

echo "== bench smoke (JSON emitters and their floors) =="
scripts/bench.sh --smoke

echo "== scale harness determinism =="
# Every virtual-time figure micro_scale reports is a function of its seeds:
# the executor polls every client on one thread, in an order the seeds fix,
# so a second smoke run must match the first byte for byte once the host
# wall-clock lines ("wall_s", "host_ns_per_op") are dropped.
virtual_only() { grep -v -e '"wall_s"' -e '"host_ns_per_op"' "$1"; }
first=$(mktemp)
trap 'rm -f "$first"' EXIT
virtual_only target/BENCH_scale.smoke.json > "$first"
./target/release/nexus-bench micro_scale --smoke > /dev/null
cmp "$first" <(virtual_only target/BENCH_scale.smoke.json)
echo "ok: two micro_scale --smoke runs agree on every virtual-time figure"

echo "== scale harness against its recording =="
# The same at full size against the checked-in document: a full run
# (about 1 min, 2.3 GB RSS) must reproduce every line of BENCH_scale.json
# but the host-time ones. It writes nothing and names the first line that
# moved, so a change to the simulation cannot leave the recording stale.
./target/release/nexus-bench micro_scale --check > /dev/null
echo "ok: a full micro_scale run matches BENCH_scale.json on every virtual-time figure"

echo "verify: OK"
