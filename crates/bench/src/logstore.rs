//! `micro_logstore` → `BENCH_logstore.json`: the durable backends over
//! real files. Unlike the virtual-clock benches, everything here is
//! wall-clock I/O in a scratch directory under the system temp directory:
//!
//! 1. **Put/get throughput** — N objects of S bytes through `LogBackend`
//!    (one record append + one fsync per put) vs the fixed `DirBackend`
//!    (two full temp-fsync-rename-dirfsync commits per put: object +
//!    version sidecar). The log-structured layout is the whole point:
//!    durability per put costs one sequential append, not four scattered
//!    metadata operations.
//! 2. **Recovery time vs log length** — an overwrite-heavy history of L
//!    puts over a small key set, written as group commits of one put per
//!    key, reopened cold in both modes: checkpoints
//!    disabled (recovery replays all L records) and periodic checkpoints
//!    (recovery loads the last snapshot + a bounded tail).
//!
//! Floors: throughputs positive; the sweep arrays parallel; both recovery
//! modes reconstruct identical worlds — checkpointing must change recovery
//! *time*, never recovered *state*; and in a full run durable log puts
//! beat per-file commits and checkpointed recovery is no slower than full
//! replay at the longest history.

use std::path::PathBuf;
use std::time::Instant;

use nexus_storage::{DirBackend, LogBackend, LogConfig, StorageBackend};

use crate::json::Json;
use crate::Report;

/// Overwrite-heavy recovery workload: L puts spread over this many paths,
/// so a checkpoint compacts almost the whole history away.
const RECOVERY_PATHS: usize = 16;
const RECOVERY_VALUE_BYTES: usize = 256;
const CHECKPOINT_EVERY: u64 = 256;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nexus-benchlog-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn value(seed: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (seed.wrapping_mul(31).wrapping_add(i) & 0xFF) as u8).collect()
}

#[derive(Clone)]
pub(crate) struct Throughput {
    pub(crate) put_ops_per_s: f64,
    get_ops_per_s: f64,
    put_mibps: f64,
    get_mibps: f64,
}

impl Throughput {
    fn numbers(&self) -> [(&'static str, f64); 4] {
        [
            ("put_ops_per_s", self.put_ops_per_s),
            ("get_ops_per_s", self.get_ops_per_s),
            ("put_mibps", self.put_mibps),
            ("get_mibps", self.get_mibps),
        ]
    }

    fn json(&self) -> Json {
        self.numbers().into_iter().fold(Json::obj(), |doc, (key, v)| doc.field(key, Json::Num(v)))
    }
}

#[derive(Clone)]
pub(crate) struct Logstore {
    pub(crate) smoke: bool,
    objects: usize,
    value_bytes: usize,
    pub(crate) log: Throughput,
    pub(crate) dir: Throughput,
    log_ops: Vec<i64>,
    pub(crate) replay_ms: Vec<f64>,
    pub(crate) checkpointed_ms: Vec<f64>,
    pub(crate) recovered_state_identical: bool,
}

impl Logstore {
    fn put_ratio(&self) -> f64 {
        self.log.put_ops_per_s / self.dir.put_ops_per_s
    }
}

fn throughput(store: &dyn StorageBackend, objects: usize, value_bytes: usize) -> Throughput {
    let values: Vec<Vec<u8>> = (0..objects).map(|i| value(i, value_bytes)).collect();
    let t0 = Instant::now();
    for (i, v) in values.iter().enumerate() {
        store.put(&format!("obj-{i}"), v).expect("bench put");
    }
    let put_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for (i, v) in values.iter().enumerate() {
        assert_eq!(&store.get(&format!("obj-{i}")).expect("bench get"), v);
    }
    let get_s = t0.elapsed().as_secs_f64();
    let mib = (objects * value_bytes) as f64 / (1024.0 * 1024.0);
    Throughput {
        put_ops_per_s: objects as f64 / put_s,
        get_ops_per_s: objects as f64 / get_s,
        put_mibps: mib / put_s,
        get_mibps: mib / get_s,
    }
}

/// Writes an L-put overwrite history, then measures a cold reopen.
/// Returns (open_ms, recovered world fingerprint).
fn recovery_run(ops: usize, checkpoint_every: u64) -> (f64, Vec<(String, Vec<u8>, u64)>) {
    let root = scratch(&format!("recovery-{ops}-{checkpoint_every}"));
    {
        // The store's defaults: each batch is one frame and one fsync.
        let log = LogBackend::open_with(&root, LogConfig { checkpoint_every, fault_hook: None })
            .expect("open for history");
        for start in (0..ops).step_by(RECOVERY_PATHS) {
            let batch: Vec<(String, Vec<u8>)> = (start..ops.min(start + RECOVERY_PATHS))
                .map(|i| (format!("key-{}", i % RECOVERY_PATHS), value(i, RECOVERY_VALUE_BYTES)))
                .collect();
            assert!(log.put_many(&batch).iter().all(|r| r.is_ok()), "history batch");
        }
    }
    let t0 = Instant::now();
    let log = LogBackend::open(&root).expect("recovery open");
    let open_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut world: Vec<(String, Vec<u8>, u64)> = log
        .list("")
        .into_iter()
        .map(|p| {
            let data = log.get(&p).expect("recovered get");
            let version = log.stat(&p).expect("recovered stat").version;
            (p, data, version)
        })
        .collect();
    world.sort();
    let _ = std::fs::remove_dir_all(&root);
    (open_ms, world)
}

impl Report for Logstore {
    fn measure(smoke: bool) -> Logstore {
        let objects = if smoke { 64 } else { 512 };
        let value_bytes = if smoke { 4 } else { 32 } * 1024;
        let sweep: &[usize] = if smoke { &[256, 1024] } else { &[1024, 4096, 16384] };
        // Throughput: both backends with their full durability discipline.
        let log_root = scratch("log-throughput");
        let log = throughput(&LogBackend::open(&log_root).expect("open log"), objects, value_bytes);
        let _ = std::fs::remove_dir_all(&log_root);
        let dir_root = scratch("dir-throughput");
        let dir = throughput(&DirBackend::open(&dir_root).expect("open dir"), objects, value_bytes);
        let _ = std::fs::remove_dir_all(&dir_root);

        // Recovery sweep: replay-everything vs checkpoint+tail, same history.
        let mut report = Logstore {
            smoke,
            objects,
            value_bytes,
            log,
            dir,
            log_ops: Vec::new(),
            replay_ms: Vec::new(),
            checkpointed_ms: Vec::new(),
            recovered_state_identical: true,
        };
        for &ops in sweep {
            let (replay_ms, replayed) = recovery_run(ops, 0);
            let (checkpointed_ms, checkpointed) = recovery_run(ops, CHECKPOINT_EVERY);
            report.recovered_state_identical &= replayed == checkpointed;
            assert_eq!(
                replayed.len(),
                RECOVERY_PATHS.min(ops),
                "recovery must reconstruct every live key"
            );
            report.log_ops.push(ops as i64);
            report.replay_ms.push(replay_ms);
            report.checkpointed_ms.push(checkpointed_ms);
        }
        report
    }

    fn gate(&self) {
        for (lane, throughput) in [("log", &self.log), ("dir", &self.dir)] {
            for (key, value) in throughput.numbers() {
                assert!(value > 0.0, "throughput.{lane}.{key} must be positive, got {value}");
            }
        }
        assert!(
            self.log_ops.len() == self.replay_ms.len()
                && self.log_ops.len() == self.checkpointed_ms.len()
                && !self.log_ops.is_empty(),
            "recovery sweep arrays must be parallel"
        );
        assert!(
            self.recovered_state_identical,
            "checkpointed recovery must not change the recovered state"
        );
        if !self.smoke {
            let ratio = self.put_ratio();
            assert!(ratio > 1.0, "durable log puts must beat per-file commits, got x{ratio:.2}");
            let last = self.log_ops.len() - 1;
            assert!(
                self.checkpointed_ms[last] <= self.replay_ms[last],
                "checkpointed recovery slower than full replay at {} ops",
                self.log_ops[last]
            );
        }
    }

    fn json(&self) -> Json {
        Json::obj()
            .field("bench", Json::Str("logstore".into()))
            .field("emitter", Json::Str("nexus-bench micro_logstore (scripts/bench.sh)".into()))
            .field("smoke", Json::Bool(self.smoke))
            .field("objects", Json::Int(self.objects as i64))
            .field("value_bytes", Json::Int(self.value_bytes as i64))
            .field(
                "throughput",
                Json::obj()
                    .field("log", self.log.json())
                    .field("dir", self.dir.json())
                    .field("put_ratio_log_over_dir", Json::Num(self.put_ratio())),
            )
            .field(
                "recovery",
                Json::obj()
                    .field("paths", Json::Int(RECOVERY_PATHS as i64))
                    .field("value_bytes", Json::Int(RECOVERY_VALUE_BYTES as i64))
                    .field("checkpoint_every", Json::Int(CHECKPOINT_EVERY as i64))
                    .field("log_ops", Json::ints(self.log_ops.iter().copied()))
                    .field("replay_ms", Json::nums(self.replay_ms.iter().copied()))
                    .field("checkpointed_ms", Json::nums(self.checkpointed_ms.iter().copied())),
            )
            .field("recovered_state_identical", Json::Bool(self.recovered_state_identical))
    }
}
