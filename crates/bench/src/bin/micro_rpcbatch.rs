//! Batched-RPC micro-benchmark, and the emitter behind
//! `BENCH_rpcbatch.json` (run via `scripts/bench.sh`).
//!
//! Counts the storage RPCs and the virtual time of two workloads on the
//! paper-calibrated latency model (the per-object reference the batched
//! calls are checked against lives in the storage crate's
//! `batch_differential.rs`):
//!
//! 1. **Metadata-heavy** — create N small files; every create commits a
//!    dirnode bucket + filenode + dirnode (+ data stub) in one `put_many`
//!    round trip.
//! 2. **Bulk read** — write N one-chunk files, flush the AFS cache, then
//!    `read_files` all of them: every data object in one `get_many`.
//!
//! Flags: `--smoke` (small sizes, for `scripts/verify.sh`), `--json PATH`,
//! `--files N` (both workloads).

use nexus_bench::json::Json;
use nexus_bench::{arg_flag, arg_string, arg_usize, rule};
use nexus_core::NexusConfig;
use nexus_storage::{LatencyModel, StorageBackend};
use nexus_workloads::bench_fs::{BenchFs, NexusFs};
use nexus_workloads::fileio::file_contents;
use nexus_workloads::harness::TestRig;

/// Small chunks keep the (real) crypto cost of the workloads negligible;
/// the quantities under test live on the virtual clock.
const CHUNK_SIZE: u32 = 64 * 1024;

/// RPC count and virtual time consumed by one workload body.
#[derive(Clone, Copy)]
struct Run {
    rpcs: u64,
    sim_ms: f64,
}

fn measure_rpcs(fs: &NexusFs, body: impl FnOnce(&NexusFs)) -> Run {
    let rpcs0 = fs.client().stats().remote_rpcs;
    let sim0 = fs.client().simulated_time();
    body(fs);
    Run {
        rpcs: fs.client().stats().remote_rpcs - rpcs0,
        sim_ms: (fs.client().simulated_time() - sim0).as_secs_f64() * 1e3,
    }
}

/// Runs both workloads on one deployment, returning (metadata, bulk-read).
fn run_workloads(fs: &NexusFs, n_files: usize) -> (Run, Run) {
    fs.mkdir_all("meta").expect("mkdir meta");
    fs.mkdir_all("bulk").expect("mkdir bulk");
    let meta = measure_rpcs(fs, |fs| {
        for i in 0..n_files {
            fs.write_file(&format!("meta/rec-{i}"), &file_contents(48, i as u64))
                .expect("metadata write");
        }
    });
    let paths: Vec<String> = (0..n_files).map(|i| format!("bulk/blob-{i}")).collect();
    for (i, path) in paths.iter().enumerate() {
        fs.write_file(path, &file_contents(CHUNK_SIZE as usize, 0x1000 + i as u64))
            .expect("bulk write");
    }
    fs.flush_caches();
    let bulk = measure_rpcs(fs, |fs| {
        let refs: Vec<&str> = paths.iter().map(|p| p.as_str()).collect();
        let blobs = fs.read_files(&refs).expect("bulk read");
        for (i, blob) in blobs.iter().enumerate() {
            assert_eq!(blob, &file_contents(CHUNK_SIZE as usize, 0x1000 + i as u64));
        }
    });
    (meta, bulk)
}

fn workload_json(name: &str, run: Run) -> Json {
    Json::obj()
        .field("workload", Json::Str(name.into()))
        .field("rpcs_batched", Json::Int(run.rpcs as i64))
        .field("sim_ms_batched", Json::Num(run.sim_ms))
}

fn main() {
    let smoke = arg_flag("--smoke");
    let n_files = arg_usize("--files", if smoke { 8 } else { 32 });

    rule(78);
    println!("micro_rpcbatch — batched storage RPCs (virtual clock)");
    println!(
        "{n_files} files per workload, {} KiB chunks, paper-calibrated latency",
        CHUNK_SIZE / 1024
    );
    rule(78);

    let config = NexusConfig { chunk_size: CHUNK_SIZE, ..NexusConfig::default() };
    let (server, fs) = TestRig::with(LatencyModel::paper_calibrated(), config).nexus_deployment();
    let (meta, bulk) = run_workloads(&fs, n_files);
    println!("metadata-heavy  {:>5} RPCs {:>9.2} ms", meta.rpcs, meta.sim_ms);
    println!("bulk-read       {:>5} RPCs {:>9.2} ms", bulk.rpcs, bulk.sim_ms);
    rule(78);

    if let Some(path) = arg_string("--json") {
        let doc = Json::obj()
            .field("bench", Json::Str("rpcbatch".into()))
            .field("emitter", Json::Str("nexus-bench micro_rpcbatch (scripts/bench.sh)".into()))
            .field("smoke", Json::Bool(smoke))
            .field("files", Json::Int(n_files as i64))
            .field("chunk_bytes", Json::Int(CHUNK_SIZE as i64))
            .field("latency_model", Json::Str("paper_calibrated".into()))
            .field("stored_objects", Json::Int(server.object_inventory().len() as i64))
            .field("metadata_heavy", workload_json("metadata_heavy", meta))
            .field("bulk_read", workload_json("bulk_read", bulk));
        std::fs::write(&path, doc.render()).expect("write json");
        println!("wrote {path}");
    }
}
