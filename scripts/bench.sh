#!/usr/bin/env bash
# Perf harness: runs the micro_datapath, micro_ct, micro_logstore,
# micro_scale, and micro_groups benches and emits the machine-readable
# BENCH_*.json documents at the repo root.
#
#   scripts/bench.sh           full sizes, writes ./BENCH_datapath.json,
#                              ./BENCH_ct.json, ./BENCH_logstore.json,
#                              ./BENCH_scale.json, ./BENCH_groups.json
#   scripts/bench.sh --smoke   reduced sizes for CI (scripts/verify.sh);
#                              writes target/BENCH_*.smoke.json so the
#                              checked-in artifacts are never clobbered
#                              by a throwaway run
#
# Either way the resulting JSON is validated (parses, carries every field
# downstream tooling reads); the full run additionally enforces the
# acceptance floors: the default lane's bulk GCM path (the fused kernel
# on hardware-lane hosts) beating the one-block-at-a-time scalar
# reference on one thread (the chunk-path thread sweep is reported as
# this host measured it; nothing is modelled and no multi-thread floor is
# set),
# checkpointed recovery no slower than full-log replay at the longest
# history in the logstore sweep, on AES-NI/PCLMULQDQ hosts the
# hardened crypto default (hw_accel lane) at or above the table lane's
# AES-block and GCM seal/open throughput (hosts without the silicon
# carry an explicit "hw_absent" marker instead), and the scale harness
# at its full 1k/10k/100k client ladder with >= 5x aggregate executor
# throughput at 10k clients over the thread-per-client baseline — at
# both the wire level (raw RPC clients) and the fs level (real mounted
# NexusVolume enclave clients), plus the group ladder: one-member
# revocation from a 10^6-member group in exactly as many metadata
# writes as from a 10^2-member one, with zero data objects touched.
# (The storage-RPC ceilings are exact call sequences in
# crates/core/tests/rpc_budget.rs and the multi-client scaling floor is a
# test of the load driver; both run under `cargo test`.)
set -euo pipefail

cd "$(dirname "$0")/.."

mode="full"
out="BENCH_datapath.json"
out_ct="BENCH_ct.json"
out_ls="BENCH_logstore.json"
out_sc="BENCH_scale.json"
out_gr="BENCH_groups.json"
flags=()
if [ "${1:-}" = "--smoke" ]; then
    mode="smoke"
    out="target/BENCH_datapath.smoke.json"
    out_ct="target/BENCH_ct.smoke.json"
    out_ls="target/BENCH_logstore.smoke.json"
    out_sc="target/BENCH_scale.smoke.json"
    out_gr="target/BENCH_groups.smoke.json"
    flags+=(--smoke)
fi

echo "== cargo build --release (micro_datapath, micro_ct, micro_logstore, micro_scale, micro_groups) =="
cargo build --release --offline -p nexus-bench \
    --bin micro_datapath --bin micro_ct --bin micro_logstore --bin micro_scale --bin micro_groups

echo "== micro_datapath ($mode) =="
mkdir -p "$(dirname "$out")"
./target/release/micro_datapath "${flags[@]}" --json "$out"

echo "== validate $out =="
python3 - "$out" "$mode" <<'EOF'
import json, sys
path, mode = sys.argv[1], sys.argv[2]
with open(path) as f:
    doc = json.load(f)
for key in ("bench", "host_parallelism", "gcm_kernel", "file_bytes",
            "chunk_bytes", "chunks", "gcm_single_thread", "gcm_streamed",
            "chunk_path", "parallel_output_identical_to_serial"):
    assert key in doc, f"{path}: missing key {key!r}"
# A throughput is never read without the kernel that produced it.
assert doc["gcm_kernel"].startswith("aes=") and " sha=" in doc["gcm_kernel"], \
    f"{path}: gcm_kernel must be cpu::describe()'s line, got {doc['gcm_kernel']!r}"
for key in ("chunks", "bytes", "seal_mibps", "open_mibps"):
    assert key in doc["gcm_streamed"], f"{path}: missing gcm_streamed.{key}"
for key in ("threads", "seal_s", "seal_mibps", "open_s", "open_mibps",
            "measured_seal_speedup"):
    assert key in doc["chunk_path"], f"{path}: missing chunk_path.{key}"
assert doc["parallel_output_identical_to_serial"] is True, \
    "parallel ciphertext must be byte-identical to serial"
for key in ("scalar_mibps", "fused_mibps", "speedup"):
    assert key in doc["gcm_single_thread"], f"{path}: missing gcm_single_thread.{key}"
gcm = doc["gcm_single_thread"]["speedup"]
if mode == "full":
    # Acceptance floor; the smoke run only guards the emitter itself
    # (tiny sizes on a loaded CI box are too noisy for perf assertions).
    assert gcm > 1.0, f"the bulk GCM path must beat scalar, got x{gcm:.2f}"
threads = doc["chunk_path"]["threads"]
measured = doc["chunk_path"]["measured_seal_speedup"]
print(f"ok: {path} valid ({doc['gcm_kernel']}); gcm x{gcm:.2f}; measured seal speedup "
      + ", ".join(f"{t}t x{s:.2f}" for t, s in zip(threads, measured))
      + f" on {doc['host_parallelism']} core(s)")
EOF

echo "== micro_ct ($mode) =="
mkdir -p "$(dirname "$out_ct")"
./target/release/micro_ct "${flags[@]}" --json "$out_ct"

echo "== validate $out_ct =="
python3 - "$out_ct" "$mode" <<'EOF'
import json, sys
path, mode = sys.argv[1], sys.argv[2]
with open(path) as f:
    doc = json.load(f)
for key in ("bench", "smoke", "payload_bytes", "gcm_kernel", "fast",
            "constant_time", "hw_accel", "slowdown", "leak_model",
            "leak_wallclock_informational"):
    assert key in doc, f"{path}: missing key {key!r}"
for lane in ("fast", "constant_time"):
    for key in ("aes_block_mibps", "gcm_seal_mibps", "gcm_open_mibps",
                "keywrap_ops_per_s"):
        assert key in doc[lane], f"{path}: missing {lane}.{key}"
        assert doc[lane][key] > 0, f"{path}: {lane}.{key} must be positive"
hw = doc["hw_accel"]
assert "hw_absent" in hw, f"{path}: hw_accel must carry the hw_absent marker"
if hw["hw_absent"]:
    # No AES-NI/PCLMULQDQ silicon: the explicit marker is the whole
    # contract (distinguishes "no hardware" from "emitter forgot it").
    hw_note = "hw lane absent (no AES-NI/PCLMULQDQ)"
else:
    for key in ("aes_block_mibps", "gcm_seal_mibps", "gcm_open_mibps",
                "keywrap_ops_per_s", "speedup_vs_fast", "hw_t", "hw_passes"):
        assert key in hw, f"{path}: missing hw_accel.{key}"
    assert hw["hw_passes"] is True, \
        "timing harness must pass the AES-NI lane"
    if mode == "full":
        # The tentpole claim: with hardware present, the hardened default
        # is at least as fast as the leaky table lane on the bulk paths.
        for key in ("aes_block_mibps", "gcm_seal_mibps", "gcm_open_mibps"):
            assert hw[key] >= doc["fast"][key], \
                f"hardened default must meet the fast lane: hw_accel.{key} " \
                f"{hw[key]:.1f} < fast.{key} {doc['fast'][key]:.1f}"
    s = hw["speedup_vs_fast"]
    hw_note = (f"hw lane x{s['aes_block']:.1f} aes / x{s['gcm_seal']:.1f} seal "
               f"/ x{s['keywrap']:.1f} keywrap vs fast, t={hw['hw_t']:.1f}")
lm = doc["leak_model"]
for key in ("samples_per_class", "threshold", "fast_t", "constant_time_t",
            "table_flagged", "ct_passes"):
    assert key in lm, f"{path}: missing leak_model.{key}"
# The classification gates in BOTH modes: the deterministic cache-model
# experiment is noise-free, so there is no "too noisy for CI" excuse here.
assert lm["table_flagged"] is True, \
    "timing harness must flag the table-driven AES lane as leaking"
assert lm["ct_passes"] is True, \
    "timing harness must pass the bitsliced constant-time lane"
print(f"ok: {path} valid; fast t={lm['fast_t']:.1f} flagged, "
      f"hardened t={lm['constant_time_t']:.1f} passes "
      f"(threshold {lm['threshold']}); {hw_note}")
EOF

echo "== micro_logstore ($mode) =="
mkdir -p "$(dirname "$out_ls")"
./target/release/micro_logstore "${flags[@]}" --json "$out_ls"

echo "== validate $out_ls =="
python3 - "$out_ls" "$mode" <<'EOF'
import json, sys
path, mode = sys.argv[1], sys.argv[2]
with open(path) as f:
    doc = json.load(f)
for key in ("bench", "smoke", "objects", "value_bytes", "throughput",
            "recovery", "recovered_state_identical"):
    assert key in doc, f"{path}: missing key {key!r}"
for lane in ("log", "dir"):
    for key in ("put_ops_per_s", "get_ops_per_s", "put_mibps", "get_mibps"):
        assert key in doc["throughput"][lane], \
            f"{path}: missing throughput.{lane}.{key}"
        assert doc["throughput"][lane][key] > 0, \
            f"{path}: throughput.{lane}.{key} must be positive"
rec = doc["recovery"]
for key in ("paths", "value_bytes", "checkpoint_every", "log_ops",
            "replay_ms", "checkpointed_ms"):
    assert key in rec, f"{path}: missing recovery.{key}"
assert len(rec["log_ops"]) == len(rec["replay_ms"]) == len(rec["checkpointed_ms"]), \
    "recovery sweep arrays must be parallel"
# The correctness gate holds in BOTH modes: the two recovery paths
# (full replay, checkpoint + tail) must reconstruct identical worlds.
assert doc["recovered_state_identical"] is True, \
    "checkpointed recovery must not change the recovered state"
ratio = doc["throughput"]["put_ratio_log_over_dir"]
if mode == "full":
    # Acceptance floors (smoke sizes on a loaded CI box are too noisy).
    assert ratio > 1.0, \
        f"log-structured durable puts must beat per-file commits, got x{ratio:.2f}"
    assert rec["checkpointed_ms"][-1] <= rec["replay_ms"][-1], \
        "checkpointed recovery must not be slower than full replay " \
        f"at {rec['log_ops'][-1]} ops"
print(f"ok: {path} valid; durable-put x{ratio:.2f} log/dir, "
      f"recovery @{rec['log_ops'][-1]} ops: replay {rec['replay_ms'][-1]:.2f} ms "
      f"vs checkpointed {rec['checkpointed_ms'][-1]:.2f} ms")
EOF

echo "== micro_scale ($mode) =="
mkdir -p "$(dirname "$out_sc")"
./target/release/micro_scale "${flags[@]}" --json "$out_sc"

echo "== validate $out_sc =="
python3 - "$out_sc" "$mode" <<'EOF'
import json, sys
path, mode = sys.argv[1], sys.argv[2]
with open(path) as f:
    doc = json.load(f)
for key in ("bench", "smoke", "latency_model", "zipf_alpha", "shared_keys",
            "value_bytes", "os_threads", "clients", "worlds_identical",
            "cells", "open_loop", "baseline", "speedup",
            "fs_shared_files", "fs_value_bytes", "fs_clients",
            "fs_worlds_identical", "fs_cells", "fs_open_loop",
            "fs_baseline", "fs_speedup"):
    assert key in doc, f"{path}: missing key {key!r}"
# The no-thread-per-client contract, both modes: however many simulated
# clients ran, the executor never used more than 8 OS threads.
assert doc["os_threads"] <= 8, \
    f"executor used {doc['os_threads']} OS threads (cap is 8)"
for key in ("worlds_identical", "fs_worlds_identical"):
    assert doc[key] is True, \
        f"{key}: executor, serial and thread worlds must be transcript-identical"

def check_wall(cell, what):
    # Host cost beside every virtual-time figure: present and positive; it
    # is this host's wall clock, so there is no floor on it.
    for key in ("wall_s", "host_ns_per_op"):
        assert cell.get(key, 0) > 0, f"{path}: {what} needs {key} > 0"

def check_cells(cells, what):
    for cell in cells:
        for key in ("clients", "ops_per_client", "total_ops", "os_threads",
                    "makespan_ms", "agg_ops_per_sec", "latency", "reads",
                    "writes"):
            assert key in cell, f"{path}: {what} cell missing {key!r}"
        check_wall(cell, f"{what} cell")
        assert cell["os_threads"] <= 8, \
            f"{cell['clients']}-client {what} cell used " \
            f"{cell['os_threads']} OS threads"
        for hist in ("latency", "reads", "writes"):
            for key in ("count", "p50_us", "p99_us", "p999_us", "mean_us",
                        "max_us"):
                assert key in cell[hist], \
                    f"{path}: {what} cell.{hist} missing {key!r}"
        h = cell["latency"]
        assert h["p50_us"] <= h["p99_us"] <= h["p999_us"], \
            f"{cell['clients']}-client {what} quantiles out of order"
        if mode == "full":
            # A quantile is its bucket's upper edge: on these near-constant
            # service times one below the mean is a bucket floor again.
            for hist in ("latency", "reads", "writes"):
                assert cell[hist]["p999_us"] >= cell[hist]["mean_us"], \
                    f"{cell['clients']}-client {what} {hist}: p999 below the mean"
        assert cell["reads"]["count"] + cell["writes"]["count"] == \
            cell["latency"]["count"], \
            f"{what} per-kind histogram counts must sum"

def check_speedup(doc, cells_key, open_key, base_key, sp_key, what):
    assert "per_client_hz" in doc[open_key], f"{open_key} missing per_client_hz"
    for key in ("clients", "ops_per_client", "os_threads", "agg_ops_per_sec"):
        assert key in doc[base_key], f"{path}: {base_key} missing {key!r}"
    check_wall(doc[base_key], base_key)
    sp = doc[sp_key]
    for key in ("exec_clients", "exec_agg_ops_per_sec", "over_thread_baseline"):
        assert key in sp, f"{path}: {sp_key} missing {key!r}"
    # Recompute the headline from the raw cells rather than trusting the
    # emitter's arithmetic.
    cell = next(c for c in doc[cells_key] if c["clients"] == sp["exec_clients"])
    recomputed = cell["agg_ops_per_sec"] / doc[base_key]["agg_ops_per_sec"]
    assert abs(recomputed - sp["over_thread_baseline"]) < \
        1e-6 * max(1.0, recomputed), \
        f"{what} speedup does not match the raw cells"
    return sp

check_cells(doc["cells"] + [doc["open_loop"]], "wire")
check_cells(doc["fs_cells"] + [doc["fs_open_loop"]], "fs")
sp = check_speedup(doc, "cells", "open_loop", "baseline", "speedup", "wire")
fsp = check_speedup(doc, "fs_cells", "fs_open_loop", "fs_baseline",
                    "fs_speedup", "fs")
if mode == "full":
    # Acceptance floors (the smoke ladders stop at 1k clients and only
    # guard the emitter itself). Both layers must run the full 1k/10k/100k
    # ladder and clear the >= 5x floor over their thread baselines.
    assert doc["clients"] == [1000, 10000, 100000], \
        f"full run must ladder 1k/10k/100k clients, got {doc['clients']}"
    assert sp["exec_clients"] == 10000, \
        f"headline must be the 10k-client cell, got {sp['exec_clients']}"
    assert sp["over_thread_baseline"] >= 5.0, \
        f"need >= 5x executor throughput at 10k clients over the " \
        f"thread-per-client baseline, got x{sp['over_thread_baseline']:.2f}"
    assert doc["fs_clients"] == [1000, 10000, 100000], \
        f"full run must ladder 1k/10k/100k fs clients, got {doc['fs_clients']}"
    assert fsp["exec_clients"] == 10000, \
        f"fs headline must be the 10k-client cell, got {fsp['exec_clients']}"
    assert fsp["over_thread_baseline"] >= 5.0, \
        f"need >= 5x fs executor throughput at 10k mounted clients over " \
        f"the thread-per-client fs baseline, " \
        f"got x{fsp['over_thread_baseline']:.2f}"
print(f"ok: {path} valid; {max(doc['clients'])} wire clients / "
      f"{max(doc['fs_clients'])} mounted fs clients on "
      f"{doc['os_threads']} OS threads, "
      f"x{sp['over_thread_baseline']:.1f} wire / "
      f"x{fsp['over_thread_baseline']:.1f} fs over the thread baselines")
EOF

echo "== micro_groups ($mode) =="
mkdir -p "$(dirname "$out_gr")"
./target/release/micro_groups "${flags[@]}" --json "$out_gr"

echo "== validate $out_gr =="
python3 - "$out_gr" "$mode" <<'EOF'
import json, sys
path, mode = sys.argv[1], sys.argv[2]
with open(path) as f:
    doc = json.load(f)
for key in ("bench", "smoke", "o1_writes", "cells"):
    assert key in doc, f"{path}: missing key {key!r}"
cells = doc["cells"]
assert cells, f"{path}: no cells"
for cell in cells:
    for key in ("members", "grant_us", "revoke_us", "revoke_writes",
                "revoke_deletes", "revoke_bytes_written", "supernode_bytes",
                "epoch_after", "key_count_after"):
        assert key in cell, f"{path}: cell missing {key!r}"
    # Correctness gates, BOTH modes (the group path is deterministic):
    # a revocation is exactly one epoch bump, retaining the old key so
    # remaining members keep reading pre-bump ciphertext.
    assert cell["epoch_after"] == 1, f"{path}: expected epoch 1 after revoke"
    assert cell["key_count_after"] == 2, f"{path}: old epoch key must be retained"
    assert cell["revoke_deletes"] == 0, f"{path}: revocation must delete nothing"
    # Metadata-only: every byte the revocation wrote is the supernode
    # commit — no data object was re-encrypted at any group size (the
    # per-user baseline in BENCH revocation rewrites the whole ACL'd
    # directory's main object; groups touch only the one shared record).
    assert cell["revoke_bytes_written"] == cell["supernode_bytes"], \
        f"{path}: revocation wrote beyond the supernode at " \
        f"{cell['members']} members"
# The headline O(1) claim: identical write counts across the ladder.
writes = {c["revoke_writes"] for c in cells}
assert len(writes) == 1 and max(writes) <= 2, \
    f"{path}: revocation writes must be O(1) across sizes, got {writes}"
assert doc["o1_writes"] is True, f"{path}: emitter o1_writes flag unset"
if mode == "full":
    members = [c["members"] for c in cells]
    assert members == [100, 10000, 1000000], \
        f"full run must ladder 10^2/10^4/10^6 members, got {members}"
big = cells[-1]
print(f"ok: {path} valid; {big['members']}-member revocation = "
      f"{big['revoke_writes']} write(s), {big['revoke_us']:.0f} us, "
      f"epoch {big['epoch_after']} with {big['key_count_after']} keys retained")
EOF

echo "bench: OK"
