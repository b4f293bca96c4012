#!/usr/bin/env bash
# Tier-1 verify, hermetically: the build and tests must pass with no
# network, and the dependency graph must contain workspace crates only.
# Run from anywhere; operates on the repo this script lives in.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== hermetic dependency audit =="
# Every package in the resolved graph must be a nexus-* workspace crate.
# `cargo metadata` needs no network for a path-only workspace; if a
# registry dependency ever sneaks in, resolution itself fails offline —
# and if a vendored/path third-party crate sneaks in, the grep fails.
offenders=$(cargo metadata --format-version 1 --offline \
    | python3 -c '
import json, sys
meta = json.load(sys.stdin)
names = sorted({p["name"] for p in meta["packages"]})
for n in names:
    if n != "nexus" and not n.startswith("nexus-"):
        print(n)
# The data path is only parallel if the pool crate is actually in the
# graph; a refactor that silently drops it would revert to serial I/O
# without failing any functional test.
if "nexus-pool" not in names:
    print("MISSING nexus-pool (parallel data path unwired)")
')
if [ -n "$offenders" ]; then
    echo "FAIL: non-workspace crates in the dependency graph:" >&2
    echo "$offenders" >&2
    echo "The hermetic build policy (DESIGN.md §7) forbids third-party" >&2
    echo "dependencies; replace them with an in-repo shim." >&2
    exit 1
fi
echo "ok: dependency graph is nexus-* workspace crates only"

echo "== sharded-store lock audit =="
# The multi-client engine depends on every backend store being sharded
# (DESIGN.md §10). A whole-store `Mutex<...>`/`RwLock<...>` field in the
# storage structs would silently re-serialize all clients without failing
# any functional test, so code (not comments) in the store modules must
# only take locks through the shard layer. `ShardedMutex`/`ShardedRwLock`
# don't match: \b rejects a word character before the type name.
relocked=$(grep -nE '\b(Mutex|RwLock)<' \
        crates/storage/src/mem.rs \
        crates/storage/src/afs.rs \
        crates/storage/src/cloud.rs \
    | grep -vE '^[^:]+:[0-9]+:\s*//' || true)
if [ -n "$relocked" ]; then
    echo "FAIL: whole-store lock in a sharded storage module:" >&2
    echo "$relocked" >&2
    echo "Use nexus_storage::shard::{ShardedMutex, ShardedRwLock} so" >&2
    echo "independent clients do not contend on one lock word." >&2
    exit 1
fi
echo "ok: mem/afs/cloud stores lock only through the shard layer"

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

echo "== durable-backend commit-path audit =="
# The torn-write bug this repo once shipped was a bare `std::fs::write`
# on DirBackend's put path: no temp file, no fsync, no atomic rename. A
# regression would pass every happy-path test and only lose data on a
# crash, so police the source directly: non-test code in the storage
# backends must never call `fs::write` (every durable commit goes through
# the temp-fsync-rename-dirfsync helpers, DESIGN.md §12). Test modules
# may use it — corrupting files on purpose is what they are for.
torn=$(for f in crates/storage/src/*.rs; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/{exit} {print f":"FNR":"$0}' "$f"
    done \
    | grep -E '\bfs::write\s*\(' \
    | grep -vE '^[^:]+:[0-9]+:\s*//' || true)
if [ -n "$torn" ]; then
    echo "FAIL: bare fs::write on a storage commit path:" >&2
    echo "$torn" >&2
    echo "Durable backends must commit via temp file + fsync + atomic" >&2
    echo "rename + directory fsync (see DESIGN.md §12)." >&2
    exit 1
fi
echo "ok: no bare fs::write in non-test storage backend code"

echo "== crash-recovery suite =="
# Invoked by target name so deleting the suite fails loudly ("no test
# target named") instead of silently shrinking coverage. This is the
# differential fault sweep: every I/O boundary of the log-structured
# backend gets a torn and a dropped fault, and recovery must come back
# prefix-consistent with the in-memory oracle.
cargo test -q -p nexus-storage --offline --test crash_recovery > /dev/null
cargo test -q -p nexus-storage --offline --test reopen > /dev/null
echo "ok: fault sweep and reopen semantics pass for both durable backends"

echo "== timing-leak harness + crypto source audit =="
# Redundant with the workspace test run above, but invoked by target name
# so deleting either fails loudly here ("no test target named") instead
# of silently shrinking coverage. The harness must flag the table
# (reference) engine and pass both constant-time ones (bitsliced always;
# AES-NI wherever the CPU has the silicon), deterministically; the audit
# keeps the constant-time modules table-free, `with_backend` out of
# every crate but nexus-crypto and nexus-bench, every `#[target_feature]`
# the intrinsics modules enable among the CPUID bits their own lane's
# dispatch requires (AES lane, wide GCM kernel and SHA lane: a mask each;
# the audit fails on a missing module, gcm_vaes.rs included), and a SAFETY
# note over each of their `unsafe` blocks. The kernel differential drives
# seal_into/open_into at every length 0..=1024 and around every multiple of
# 256 up to 8 KiB, across source and destination misalignments, against
# the table engine's one-block-at-a-time reference.
cargo test -q -p nexus-crypto --offline --test timing_leak > /dev/null
cargo test -q -p nexus-crypto --offline --test source_audit > /dev/null
cargo test -q -p nexus-crypto --offline --test kernel_differential > /dev/null
echo "ok: table engine flagged, constant-time engines pass, nobody pins an engine, kernels match the scalar reference"

echo "== portable crypto engine, end to end =="
# The bitsliced engine is the only one off x86_64; force it here so x86
# hosts exercise it through the whole volume lifecycle too. `--test` picks
# by target name in both packages: nexus-core's `properties` (wire format,
# bucket index model, hostile bucket bodies) reruns here beside the crypto
# ones. `golden_inventory` pins a SHA-256 over every stored byte of a
# fixed script, bucket MACs included, so passing it here says the
# portable `seal_into` path stores exactly what the fused hardware kernel
# stores and the scalar SHA-256 emits the MACs the SHA-NI kernel emits.
# The override covers hashing too, so nexus-crypto's unit tests rerun as
# well: dispatch itself lands on the scalar engine under the
# sha2/hmac/hkdf vectors, on hosts where the default run used SHA-NI.
NEXUS_CRYPTO_FORCE_PORTABLE=1 cargo test -q --offline -p nexus-core --test end_to_end --test golden_inventory -p nexus-crypto --test properties > /dev/null
NEXUS_CRYPTO_FORCE_PORTABLE=1 cargo test -q --offline -p nexus-crypto --lib > /dev/null
# The override also switches the wide GCM kernel off, so the differential
# rerun covers the bitsliced engine and, with the hardware engine pinned
# beside it, the 128-bit kernel alone over every whole group; the audit
# reads source and must not care which lane the process is on.
NEXUS_CRYPTO_FORCE_PORTABLE=1 cargo test -q --offline -p nexus-crypto --test kernel_differential --test source_audit > /dev/null
echo "ok: volume lifecycle, golden stored bytes, metadata and crypto properties, crypto unit vectors, kernel differential pass on the forced-portable engines"

echo "== executor smoke =="
# By target name, like the suites above: 2000 simulated clients multiplex
# over <= MAX_WORKERS OS threads, timer-wheel wakeups fire in virtual
# time, and the simulated makespan equals ONE client's work.
cargo test -q -p nexus-exec --offline --test executor_smoke > /dev/null
cargo test -q -p nexus-exec --offline --test begin_at_zero_delay > /dev/null
echo "ok: thousands of simulated clients on a bounded thread count"

echo "== scale harness: source audit + async fs differential =="
# By target name. The audit reads the load path's source (the driver, the
# async fs adapter, micro_scale): simulated clients are futures, so OS
# threads may appear only inside the one function that is the
# thread-per-client world (DESIGN.md §14). The differential: mixed
# metadata/data fs ops over real enclave mounts, interleaved as futures,
# must match a serial oracle byte for byte — per-op observations, lane
# ends, ciphertext inventory, shared clock — under a shrinking
# property-test Runner (DESIGN.md §15).
cargo test -q -p nexus-workloads --offline --test source_audit --test exec_fs_differential > /dev/null
echo "ok: load path spawns no thread per client; async crypto-fs world is byte-identical to the serial oracle"

echo "== revocation-path audit =="
# The leaky-revocation bug class this PR fixed: a membership change that
# rewrites metadata without rotating the epoch would silently keep the
# revoked member's keys live. Two static gates keep the invariant:
#  1. `bump_epoch` stays private to the groups module (no caller outside
#     it can mint epochs, and the public surface can't skip one);
#  2. the one revocation entry point actually calls it — grants never do.
grep -qE '^\s*fn bump_epoch' crates/core/src/groups.rs \
    || { echo "FAIL: GroupRecord::bump_epoch is missing or no longer private" >&2; exit 1; }
awk '/fn revoke_members/,/^    }$/' crates/core/src/groups.rs | grep -q 'bump_epoch(' \
    || { echo "FAIL: revoke_members no longer bumps the group epoch" >&2; exit 1; }
if awk '/fn add_members/,/^    }$/' crates/core/src/groups.rs | grep -q 'bump_epoch('; then
    echo "FAIL: add_members must not bump the epoch (grants are free)" >&2; exit 1
fi
if grep -q 'bump_epoch' crates/core/src/volume.rs crates/core/src/fsops.rs \
        crates/core/src/enclave.rs 2>/dev/null; then
    echo "FAIL: epoch bumps must stay inside crates/core/src/groups.rs" >&2; exit 1
fi
echo "ok: epoch bumps are minted only by groups::revoke_members"

echo "== group + revocation suites =="
# By target name, like the suites above: the differential suite proves a
# revoked member decrypts nothing post-bump while a remaining member
# reads pre- and post-epoch data byte-identically, at O(1) write cost;
# the regression suite covers the four leaky-revocation paths (surviving
# grant blobs, silent no-op revokes, stale ACL entries, half-committed
# grants).
cargo test -q -p nexus-core --offline --test groups_differential > /dev/null
cargo test -q -p nexus-core --offline --test revocation_paths > /dev/null
echo "ok: epoch-key revocation differential + leaky-path regressions pass"

echo "== bench smoke (JSON emitter) =="
scripts/bench.sh --smoke

echo "verify: OK"
