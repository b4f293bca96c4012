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
//! 2. **Recovery vs history length** — an overwrite-heavy history of L
//!    puts over a small key set, written as group commits of one put per
//!    key, then reopened cold: the open time, the log's bytes and the live
//!    bytes (one `Put` frame per object) per L. The log is rewritten
//!    whenever its dead bytes outnumber its live ones, so neither its
//!    length nor the open grows with L.
//!
//! Floors: throughputs positive; the sweep arrays parallel; at every L the
//! log holds at most twice its live bytes plus one batch frame, and the
//! recovered world equals an in-memory replay of the same history; and in
//! a full run durable log puts beat per-file commits.

use std::path::PathBuf;
use std::time::Instant;

use nexus_storage::{DirBackend, LogBackend, MemBackend, StorageBackend};

use crate::json::Json;
use crate::Report;

/// Overwrite-heavy recovery workload: L puts spread over this many paths,
/// so almost the whole history is dead.
const RECOVERY_PATHS: usize = 16;
const RECOVERY_VALUE_BYTES: usize = 256;
/// A log frame's header: magic, payload length, CRC (DESIGN.md §12).
const FRAME_HEADER: usize = 12;
/// A record's bytes besides its path and data: op, version, owner and the
/// two lengths.
const RECORD_OVERHEAD: usize = 1 + 8 + 8 + 4 + 4;

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
    pub(crate) open_ms: Vec<f64>,
    pub(crate) log_bytes: Vec<i64>,
    pub(crate) live_bytes: Vec<i64>,
    /// The largest frame the history appends: one batch.
    batch_frame_bytes: i64,
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

/// A store's world: every object with its bytes and version, sorted.
fn world_of(store: &dyn StorageBackend) -> Vec<(String, Vec<u8>, u64)> {
    store
        .list("")
        .into_iter()
        .map(|p| {
            let data = store.get(&p).expect("recovered get");
            let version = store.stat(&p).expect("recovered stat").version;
            (p, data, version)
        })
        .collect()
}

/// One recovery run: an L-put overwrite history and its cold reopen.
struct Recovery {
    open_ms: f64,
    log_bytes: u64,
    live_bytes: u64,
    batch_frame_bytes: u64,
    /// The reopened world equals an in-memory replay of the history.
    identical: bool,
}

/// Writes an L-put overwrite history to a log and, as an oracle, to
/// memory, then measures a cold reopen of the log.
fn recovery_run(ops: usize) -> Recovery {
    let root = scratch(&format!("recovery-{ops}"));
    let mem = MemBackend::new();
    let mut batch_frame_bytes = 0;
    let log_bytes = {
        // The store's defaults: each batch is one frame and one fsync.
        let log = LogBackend::open(&root).expect("open for history");
        for start in (0..ops).step_by(RECOVERY_PATHS) {
            let batch: Vec<(String, Vec<u8>)> = (start..ops.min(start + RECOVERY_PATHS))
                .map(|i| (format!("key-{}", i % RECOVERY_PATHS), value(i, RECOVERY_VALUE_BYTES)))
                .collect();
            let records: usize =
                batch.iter().map(|(p, d)| RECORD_OVERHEAD + p.len() + d.len()).sum();
            batch_frame_bytes = batch_frame_bytes.max((FRAME_HEADER + records) as u64);
            assert!(log.put_many(&batch).iter().all(|r| r.is_ok()), "history batch");
            assert!(mem.put_many(&batch).iter().all(|r| r.is_ok()), "oracle batch");
        }
        log.disk_footprint().1
    };
    let t0 = Instant::now();
    let log = LogBackend::open(&root).expect("recovery open");
    let open_ms = t0.elapsed().as_secs_f64() * 1e3;
    let world = world_of(&log);
    let live_bytes = world
        .iter()
        .map(|(p, d, _)| (FRAME_HEADER + RECORD_OVERHEAD + p.len() + d.len()) as u64)
        .sum();
    assert_eq!(world.len(), RECOVERY_PATHS.min(ops), "recovery must reconstruct every live key");
    let identical = world == world_of(&mem);
    drop(log);
    let _ = std::fs::remove_dir_all(&root);
    Recovery { open_ms, log_bytes, live_bytes, batch_frame_bytes, identical }
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

        let mut report = Logstore {
            smoke,
            objects,
            value_bytes,
            log,
            dir,
            log_ops: Vec::new(),
            open_ms: Vec::new(),
            log_bytes: Vec::new(),
            live_bytes: Vec::new(),
            batch_frame_bytes: 0,
            recovered_state_identical: true,
        };
        for &ops in sweep {
            let run = recovery_run(ops);
            report.recovered_state_identical &= run.identical;
            report.log_ops.push(ops as i64);
            report.open_ms.push(run.open_ms);
            report.log_bytes.push(run.log_bytes as i64);
            report.live_bytes.push(run.live_bytes as i64);
            report.batch_frame_bytes = report.batch_frame_bytes.max(run.batch_frame_bytes as i64);
        }
        report
    }

    fn gate(&self) {
        for (lane, throughput) in [("log", &self.log), ("dir", &self.dir)] {
            for (key, value) in throughput.numbers() {
                assert!(value > 0.0, "throughput.{lane}.{key} must be positive, got {value}");
            }
        }
        let n = self.log_ops.len();
        assert!(
            n > 0 && [self.open_ms.len(), self.log_bytes.len(), self.live_bytes.len()] == [n; 3],
            "recovery sweep arrays must be parallel"
        );
        assert!(
            self.recovered_state_identical,
            "the recovered world must equal an in-memory replay of the history"
        );
        for ((ops, log), live) in self.log_ops.iter().zip(&self.log_bytes).zip(&self.live_bytes) {
            assert!(
                *log <= 2 * live + self.batch_frame_bytes,
                "after {ops} puts the log holds {log} bytes, over twice its {live} live bytes \
                 plus a {}-byte batch frame",
                self.batch_frame_bytes
            );
        }
        if !self.smoke {
            let ratio = self.put_ratio();
            assert!(ratio > 1.0, "durable log puts must beat per-file commits, got x{ratio:.2}");
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
                    .field("batch_frame_bytes", Json::Int(self.batch_frame_bytes))
                    .field("log_ops", Json::ints(self.log_ops.iter().copied()))
                    .field("open_ms", Json::nums(self.open_ms.iter().copied()))
                    .field("log_bytes", Json::ints(self.log_bytes.iter().copied()))
                    .field("live_bytes", Json::ints(self.live_bytes.iter().copied())),
            )
            .field("recovered_state_identical", Json::Bool(self.recovered_state_identical))
    }
}
