//! Multi-client scaling micro-benchmark, and the emitter behind
//! `BENCH_mclient.json` (run via `scripts/bench.sh`).
//!
//! N full NEXUS clients (one enclave each, one shared AFS server) drive
//! disjoint per-client directories. Each client's RPC round trips are
//! charged to its own clock lane, so the simulated wall-clock of a round
//! is the *slowest* client, not the sum — the virtual-time analogue of N
//! machines talking to one file server concurrently. Every (mix, N) cell
//! is also replayed in a serial world — same seeds, same ops, every client
//! on one shared lane, driven from one thread — and the stored ciphertext
//! plus each client's written-byte count are asserted identical between the
//! two worlds before any timing is reported.
//!
//! Mixes, on the paper-calibrated latency model:
//!
//! 1. **Metadata-heavy** — each client creates F small files in its own
//!    directory (dirnode bucket + filenode + dirnode commits per create).
//! 2. **Bulk read** — each client writes F one-chunk files, all caches are
//!    flushed, then every client `read_files`s its own set back (one
//!    `get_many` round trip per client).
//!
//! Flags: `--smoke` (1/4 clients, fewer files, for `scripts/verify.sh`),
//! `--json PATH`, `--files N` (files per client per mix).

use nexus_bench::json::Json;
use nexus_bench::{arg_flag, arg_string, arg_usize, rule};
use nexus_core::NexusConfig;
use nexus_storage::{LatencyModel, StorageBackend};
use nexus_workloads::bench_fs::{BenchFs, NexusFs};
use nexus_workloads::fileio::file_contents;
use nexus_workloads::harness::ConcurrentRig;

/// Small chunks keep the (real) crypto cost negligible; the quantities
/// under test live on the virtual clock.
const CHUNK_SIZE: u32 = 64 * 1024;

fn config() -> NexusConfig {
    NexusConfig { chunk_size: CHUNK_SIZE, ..NexusConfig::default() }
}

/// One timed mix on one world.
#[derive(Clone, Copy)]
struct MixRun {
    ops: usize,
    conc_ms: f64,
    serial_ms: f64,
}

impl MixRun {
    /// Aggregate throughput of the concurrent world, in ops per simulated
    /// second.
    fn agg_ops_per_sec(&self) -> f64 {
        self.ops as f64 / (self.conc_ms / 1e3).max(1e-9)
    }

    /// How much simulated time overlapping the lanes saved over the
    /// serial single-lane world.
    fn overlap_speedup(&self) -> f64 {
        self.serial_ms / self.conc_ms.max(1e-9)
    }
}

fn meta_path(c: usize, k: usize) -> String {
    format!("{}/rec-{k}", ConcurrentRig::dir(c))
}

fn blob_path(c: usize, k: usize) -> String {
    format!("{}/blob-{k}", ConcurrentRig::dir(c))
}

fn blob_seed(c: usize, k: usize) -> u64 {
    0x1000 + (c * 1000 + k) as u64
}

fn metadata_mix(files: usize) -> impl Fn(usize, &NexusFs) + Sync {
    move |c, fs| {
        for k in 0..files {
            fs.write_file(&meta_path(c, k), &file_contents(48, (c * 100 + k) as u64))
                .expect("metadata create");
        }
    }
}

fn bulk_write(files: usize) -> impl Fn(usize, &NexusFs) + Sync {
    move |c, fs| {
        for k in 0..files {
            fs.write_file(&blob_path(c, k), &file_contents(CHUNK_SIZE as usize, blob_seed(c, k)))
                .expect("bulk write");
        }
    }
}

fn bulk_read(files: usize) -> impl Fn(usize, &NexusFs) + Sync {
    move |c, fs| {
        let paths: Vec<String> = (0..files).map(|k| blob_path(c, k)).collect();
        let refs: Vec<&str> = paths.iter().map(|p| p.as_str()).collect();
        let blobs = fs.read_files(&refs).expect("bulk read");
        for (k, blob) in blobs.iter().enumerate() {
            assert_eq!(
                blob,
                &file_contents(CHUNK_SIZE as usize, blob_seed(c, k)),
                "client {c} read wrong bytes for blob {k}"
            );
        }
    }
}

/// Runs both mixes on a concurrent world and its serial replay, asserting
/// the two worlds observably match before returning any timing.
fn run_cell(n: usize, files: usize) -> (MixRun, MixRun) {
    let conc = ConcurrentRig::build(n, LatencyModel::paper_calibrated(), config());
    let serial = ConcurrentRig::build_serial(n, LatencyModel::paper_calibrated(), config());

    let meta_conc = conc.run(metadata_mix(files));
    let meta_serial = serial.run_serial(metadata_mix(files));

    conc.run(bulk_write(files));
    serial.run_serial(bulk_write(files));
    conc.flush_all_caches();
    serial.flush_all_caches();
    let read_conc = conc.run(bulk_read(files));
    let read_serial = serial.run_serial(bulk_read(files));

    // Differential gates, before any number is reported: concurrency must
    // change *when* round trips happen, never what is stored or how much
    // any client wrote.
    let inv_conc = conc.server().object_inventory();
    let inv_serial = serial.server().object_inventory();
    assert_eq!(inv_conc.len(), inv_serial.len(), "object counts diverged at n={n}");
    assert_eq!(inv_conc, inv_serial, "server inventories diverged at n={n}");
    for (name, _) in &inv_conc {
        assert_eq!(
            conc.server().raw_store().get(name).expect("conc object"),
            serial.server().raw_store().get(name).expect("serial object"),
            "stored bytes diverged for {name} at n={n}"
        );
    }
    for c in 0..n {
        assert_eq!(
            conc.clients()[c].client().stats().bytes_written,
            serial.clients()[c].client().stats().bytes_written,
            "client {c} wrote different byte counts across worlds at n={n}"
        );
    }

    let meta = MixRun {
        ops: n * files,
        conc_ms: meta_conc.as_secs_f64() * 1e3,
        serial_ms: meta_serial.as_secs_f64() * 1e3,
    };
    let bulk = MixRun {
        ops: n * files,
        conc_ms: read_conc.as_secs_f64() * 1e3,
        serial_ms: read_serial.as_secs_f64() * 1e3,
    };
    (meta, bulk)
}

fn mix_json(run: MixRun) -> Json {
    Json::obj()
        .field("ops", Json::Int(run.ops as i64))
        .field("conc_makespan_ms", Json::Num(run.conc_ms))
        .field("serial_makespan_ms", Json::Num(run.serial_ms))
        .field("agg_ops_per_sec", Json::Num(run.agg_ops_per_sec()))
        .field("overlap_speedup", Json::Num(run.overlap_speedup()))
}

fn main() {
    let smoke = arg_flag("--smoke");
    let files = arg_usize("--files", if smoke { 4 } else { 8 });
    let client_counts: &[usize] = if smoke { &[1, 4] } else { &[1, 4, 16] };

    rule(78);
    println!("micro_mclient — N concurrent clients vs the serial single-lane world");
    println!(
        "{files} files per client per mix, {} KiB chunks, paper-calibrated latency",
        CHUNK_SIZE / 1024
    );
    rule(78);
    println!("{:>6} {:>15} {:>14} {:>12} {:>10}", "n", "mix", "makespan", "agg ops/s", "overlap");
    rule(78);

    let mut runs = Vec::new();
    for &n in client_counts {
        let (meta, bulk) = run_cell(n, files);
        for (mix_name, run) in [("metadata_heavy", meta), ("bulk_read", bulk)] {
            println!(
                "{n:>6} {mix_name:>15} {:>11.2} ms {:>12.1} {:>9.2}x",
                run.conc_ms,
                run.agg_ops_per_sec(),
                run.overlap_speedup()
            );
        }
        runs.push((n, meta, bulk));
    }
    rule(78);

    // Headline scaling ratio: aggregate metadata-heavy throughput of the
    // largest client count over the single client.
    let (n_min, first, _) = runs[0];
    let (n_max, last, _) = runs[runs.len() - 1];
    let scaling = last.agg_ops_per_sec() / first.agg_ops_per_sec();
    println!("aggregate metadata throughput scales x{scaling:.2} from {n_min} to {n_max} clients");
    println!("differential gates passed: ciphertext and per-client written bytes identical");

    if let Some(path) = arg_string("--json") {
        let doc = Json::obj()
            .field("bench", Json::Str("mclient".into()))
            .field("emitter", Json::Str("nexus-bench micro_mclient (scripts/bench.sh)".into()))
            .field("smoke", Json::Bool(smoke))
            .field("files_per_client", Json::Int(files as i64))
            .field("chunk_bytes", Json::Int(CHUNK_SIZE as i64))
            .field("latency_model", Json::Str("paper_calibrated".into()))
            .field("clients", Json::ints(client_counts.iter().map(|&n| n as i64)))
            .field("worlds_identical", Json::Bool(true))
            .field(
                "scaling",
                Json::obj()
                    .field("from_clients", Json::Int(n_min as i64))
                    .field("to_clients", Json::Int(n_max as i64))
                    .field("metadata_batched_throughput_ratio", Json::Num(scaling)),
            )
            .field(
                "runs",
                Json::Arr(
                    runs.iter()
                        .map(|(n, meta, bulk)| {
                            Json::obj()
                                .field("clients", Json::Int(*n as i64))
                                .field("metadata_heavy", mix_json(*meta))
                                .field("bulk_read", mix_json(*bulk))
                        })
                        .collect(),
                ),
            );
        std::fs::write(&path, doc.render()).expect("write json");
        println!("wrote {path}");
    }
}
