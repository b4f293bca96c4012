//! Crypto engine micro-benchmark (three-way), and the emitter behind
//! `BENCH_ct.json` (run via `scripts/bench.sh`).
//!
//! Two halves:
//!
//! 1. **Throughput** — the same four hot operations timed under every
//!    available engine ([`CryptoBackend`]): raw AES block encryption
//!    through the 8-block batch entry, AES-GCM seal and open over a bulk
//!    payload, and the AES-GCM-SIV keywrap (16-byte plaintext, the
//!    metadata object-key wrap shape). JSON sections: `fast` (the
//!    table-driven reference engine — T-tables + Shoup; the key predates
//!    its retirement as a selectable lane), `constant_time` (portable
//!    bitsliced + masked clmul), and `hw_accel` (AES-NI + PCLMULQDQ)
//!    where CPUID allows. The slowdown ratios quantify what the
//!    *portable* engine costs; the speedup ratios show the hardware
//!    engine beating the table reference while staying constant-time.
//! 2. **Leak classification** — the dudect-style experiment from
//!    `nexus-testkit::timing`, run over the deterministic cold-cache
//!    model fed by `Aes::encrypt_block_trace`: the table-driven engine
//!    must be *flagged* (Welch's t above the 4.5 threshold) and both
//!    hardened engines must *pass* (their traces are empty — no
//!    data-dependent access at all). An informational wall-clock t is
//!    also reported but never gates anything — real timers are too noisy
//!    for CI.
//!
//! Flags: `--smoke` (small sizes, for `scripts/verify.sh`), `--json PATH`
//! (write the machine-readable document).

use std::time::{Duration, Instant};

use nexus_bench::json::Json;
use nexus_bench::{arg_flag, arg_string, measure_micro, nanos, rule};
use nexus_crypto::aes::{Aes, KeySize};
use nexus_crypto::gcm::AesGcm;
use nexus_crypto::gcm_siv::AesGcmSiv;
use nexus_crypto::CryptoBackend;
use nexus_testkit::timing::{analyze, CacheModel, Class, LEAK_T_THRESHOLD};
use nexus_workloads::fileio::file_contents;

fn mibps(bytes: usize, d: Duration) -> f64 {
    bytes as f64 / d.as_secs_f64().max(1e-12) / (1024.0 * 1024.0)
}

/// Throughput of one lane across the four hot operations.
struct LaneNumbers {
    aes_block: Duration,
    aes_block_bytes: usize,
    gcm_seal: Duration,
    gcm_open: Duration,
    gcm_bytes: usize,
    keywrap: Duration,
    keywrap_ops: usize,
}

fn measure_lane(backend: CryptoBackend, gcm_bytes: usize) -> LaneNumbers {
    // Raw AES through the 8-block batch entry (the shape both GCM modes
    // drive internally).
    let aes = Aes::with_backend(&[0x3c; 16], KeySize::Aes128, backend);
    let n_batches = (gcm_bytes / (16 * 8)).max(1);
    let aes_block_bytes = n_batches * 16 * 8;
    let aes_block = measure_micro(|| {
        let mut blocks = [[0u8; 16]; 8];
        for i in 0..n_batches {
            blocks[0][0] = i as u8;
            aes.encrypt_blocks8(&mut blocks);
        }
        blocks
    });

    let gcm = AesGcm::with_backend(&[0x11; 32], backend);
    let pt = file_contents(gcm_bytes, 0xc7);
    let nonce = [2u8; 12];
    let sealed = gcm.seal(&nonce, b"aad", &pt);
    let gcm_seal = measure_micro(|| gcm.seal(&nonce, b"aad", &pt));
    let gcm_open = measure_micro(|| gcm.open(&nonce, b"aad", &sealed).unwrap());

    // Keywrap: the metadata path wraps a fresh 16-byte object key per
    // update, so ops/s matters more than bulk throughput here. The
    // key-generating-key schedule is expanded once at construction and
    // reused across every wrap (as the metadata path does).
    let siv = AesGcmSiv::with_backend(&[0x22; 32], backend);
    let object_key = [0x55u8; 16];
    let keywrap_ops = 256;
    let keywrap = measure_micro(|| {
        let mut last = Vec::new();
        for i in 0..keywrap_ops {
            let mut n = [0u8; 12];
            n[0] = i as u8;
            n[1] = (i >> 8) as u8;
            last = siv.seal(&n, b"preamble", &object_key);
        }
        last
    });

    LaneNumbers { aes_block, aes_block_bytes, gcm_seal, gcm_open, gcm_bytes, keywrap, keywrap_ops }
}

/// Modelled cold-cache cost of one traced block encryption.
fn model_cost(aes: &Aes, block: &[u8; 16]) -> f64 {
    let mut b = *block;
    let mut trace = Vec::new();
    aes.encrypt_block_trace(&mut b, &mut trace);
    let mut cache = CacheModel::new();
    for (table, idx) in trace {
        let entry_size = if table == 4 { 1u32 } else { 4u32 };
        cache.access(table, idx as u32 * entry_size);
    }
    cache.cost()
}

/// Deterministic-model leak classification for one lane.
fn classify_model(backend: CryptoBackend, per_class: usize) -> nexus_testkit::timing::LeakReport {
    let aes = Aes::with_backend(&[0x3c; 16], KeySize::Aes128, backend);
    let fixed = [0xa5u8; 16];
    analyze(0x5eed_c7_1ea4, per_class, |class, g| {
        let block = match class {
            Class::Fixed => fixed,
            Class::Random => g.bytes::<16>(),
        };
        model_cost(&aes, &block)
    })
}

/// Informational wall-clock t for one lane (never used for pass/fail).
fn classify_wallclock(backend: CryptoBackend, per_class: usize) -> f64 {
    let aes = Aes::with_backend(&[0x3c; 16], KeySize::Aes128, backend);
    let fixed = [0xa5u8; 16];
    analyze(0xc10c_4, per_class, |class, g| {
        let mut block = match class {
            Class::Fixed => fixed,
            Class::Random => g.bytes::<16>(),
        };
        let start = Instant::now();
        for _ in 0..16 {
            aes.encrypt_block(&mut block);
        }
        start.elapsed().as_nanos() as f64
    })
    .t
}

fn print_lane(name: &str, lane: &LaneNumbers) {
    println!(
        "{name:>9}  aes-block {:>10} ({:>7.1} MiB/s)   gcm seal {:>10} ({:>7.1} MiB/s)",
        nanos(lane.aes_block),
        mibps(lane.aes_block_bytes, lane.aes_block),
        nanos(lane.gcm_seal),
        mibps(lane.gcm_bytes, lane.gcm_seal),
    );
    println!(
        "{:>9}  gcm open  {:>10} ({:>7.1} MiB/s)   keywrap  {:>10} ({:>9.0} ops/s)",
        "",
        nanos(lane.gcm_open),
        mibps(lane.gcm_bytes, lane.gcm_open),
        nanos(lane.keywrap),
        lane.keywrap_ops as f64 / lane.keywrap.as_secs_f64().max(1e-12),
    );
}

fn main() {
    let smoke = arg_flag("--smoke");
    let gcm_bytes = if smoke { 8 * 1024 } else { 64 * 1024 };
    let per_class = if smoke { 800 } else { 2000 };
    let hw = nexus_crypto::cpu::hw_accel_available();

    rule(78);
    println!("micro_ct — fast (table) vs hardened (bitsliced / AES-NI) crypto lanes");
    println!(
        "payload {gcm_bytes} B; leak model {per_class} samples/class; hw lane: {}",
        if hw { "available (AES-NI + PCLMULQDQ)" } else { "absent" }
    );
    println!(
        "dispatched lanes (what the hw_accel row's GCM ran on): {}",
        nexus_crypto::cpu::describe()
    );
    rule(78);

    let fast = measure_lane(CryptoBackend::Table, gcm_bytes);
    let port = measure_lane(CryptoBackend::Bitsliced, gcm_bytes);
    let accel = hw.then(|| measure_lane(CryptoBackend::HwAccel, gcm_bytes));
    print_lane("fast", &fast);
    print_lane("bitsliced", &port);
    if let Some(a) = &accel {
        print_lane("hw-accel", a);
    }
    let ratio = |f: Duration, h: Duration| h.as_secs_f64() / f.as_secs_f64().max(1e-12);
    println!(
        "slowdown  aes-block x{:.2}   gcm seal x{:.2}   gcm open x{:.2}   keywrap x{:.2}",
        ratio(fast.aes_block, port.aes_block),
        ratio(fast.gcm_seal, port.gcm_seal),
        ratio(fast.gcm_open, port.gcm_open),
        ratio(fast.keywrap, port.keywrap),
    );
    if let Some(a) = &accel {
        // Inverted: >1 means the hardware lane is *faster* than the table lane.
        println!(
            "hw speedup vs fast  aes-block x{:.2}   gcm seal x{:.2}   gcm open x{:.2}   keywrap x{:.2}",
            ratio(a.aes_block, fast.aes_block),
            ratio(a.gcm_seal, fast.gcm_seal),
            ratio(a.gcm_open, fast.gcm_open),
            ratio(a.keywrap, fast.keywrap),
        );
    }

    let model_fast = classify_model(CryptoBackend::Table, per_class);
    let model_port = classify_model(CryptoBackend::Bitsliced, per_class);
    let model_hw = hw.then(|| classify_model(CryptoBackend::HwAccel, per_class));
    let table_flagged = model_fast.leaking;
    let ct_passes = !model_port.leaking;
    let hw_passes = model_hw.as_ref().map(|r| !r.leaking);
    println!(
        "leak model   fast t = {:.1} ({})   bitsliced t = {:.1} ({})   threshold {}",
        model_fast.t,
        if table_flagged { "FLAGGED" } else { "missed!" },
        model_port.t,
        if ct_passes { "passes" } else { "LEAKS!" },
        LEAK_T_THRESHOLD,
    );
    if let Some(r) = &model_hw {
        println!(
            "leak model   hw-accel t = {:.1} ({})",
            r.t,
            if r.leaking { "LEAKS!" } else { "passes" }
        );
    }
    let wall_fast = classify_wallclock(CryptoBackend::Table, per_class.min(1000));
    let wall_port = classify_wallclock(CryptoBackend::Bitsliced, per_class.min(1000));
    println!("leak wall-clock (informational): fast t = {wall_fast:.1}, bitsliced t = {wall_port:.1}");
    rule(78);

    let lane_json = |lane: &LaneNumbers| {
        Json::obj()
            .field("aes_block_mibps", Json::Num(mibps(lane.aes_block_bytes, lane.aes_block)))
            .field("gcm_seal_mibps", Json::Num(mibps(lane.gcm_bytes, lane.gcm_seal)))
            .field("gcm_open_mibps", Json::Num(mibps(lane.gcm_bytes, lane.gcm_open)))
            .field(
                "keywrap_ops_per_s",
                Json::Num(lane.keywrap_ops as f64 / lane.keywrap.as_secs_f64().max(1e-12)),
            )
    };
    if let Some(path) = arg_string("--json") {
        let hw_accel_json = match &accel {
            Some(a) => lane_json(a)
                .field("hw_absent", Json::Bool(false))
                .field(
                    "speedup_vs_fast",
                    Json::obj()
                        .field("aes_block", Json::Num(ratio(a.aes_block, fast.aes_block)))
                        .field("gcm_seal", Json::Num(ratio(a.gcm_seal, fast.gcm_seal)))
                        .field("gcm_open", Json::Num(ratio(a.gcm_open, fast.gcm_open)))
                        .field("keywrap", Json::Num(ratio(a.keywrap, fast.keywrap))),
                )
                .field("hw_t", Json::Num(model_hw.as_ref().map(|r| r.t).unwrap_or(0.0)))
                .field("hw_passes", Json::Bool(hw_passes.unwrap_or(false))),
            // Explicit marker so the bench gate can tell "no silicon" from
            // "emitter forgot the section".
            None => Json::obj().field("hw_absent", Json::Bool(true)),
        };
        let doc = Json::obj()
            .field("bench", Json::Str("ct".into()))
            .field("emitter", Json::Str("nexus-bench micro_ct (scripts/bench.sh)".into()))
            .field("smoke", Json::Bool(smoke))
            .field("payload_bytes", Json::Int(gcm_bytes as i64))
            .field("gcm_kernel", Json::Str(nexus_crypto::cpu::describe()))
            .field("fast", lane_json(&fast))
            .field("constant_time", lane_json(&port))
            .field("hw_accel", hw_accel_json)
            .field(
                "slowdown",
                Json::obj()
                    .field("aes_block", Json::Num(ratio(fast.aes_block, port.aes_block)))
                    .field("gcm_seal", Json::Num(ratio(fast.gcm_seal, port.gcm_seal)))
                    .field("gcm_open", Json::Num(ratio(fast.gcm_open, port.gcm_open)))
                    .field("keywrap", Json::Num(ratio(fast.keywrap, port.keywrap))),
            )
            .field(
                "leak_model",
                Json::obj()
                    .field("description", Json::Str(
                        "dudect-style Welch's t over a deterministic cold-cache cost model \
                         fed by the table-access trace; fixed vs random plaintext classes"
                            .into(),
                    ))
                    .field("samples_per_class", Json::Int(per_class as i64))
                    .field("threshold", Json::Num(LEAK_T_THRESHOLD))
                    .field("fast_t", Json::Num(model_fast.t))
                    .field("constant_time_t", Json::Num(model_port.t))
                    .field("table_flagged", Json::Bool(table_flagged))
                    .field("ct_passes", Json::Bool(ct_passes)),
            )
            .field(
                "leak_wallclock_informational",
                Json::obj()
                    .field("fast_t", Json::Num(wall_fast))
                    .field("constant_time_t", Json::Num(wall_port)),
            );
        std::fs::write(&path, doc.render()).expect("write json");
        println!("wrote {path}");
    }
    assert!(table_flagged, "deterministic model failed to flag the table lane");
    assert!(ct_passes, "deterministic model flagged the bitsliced lane");
    assert!(hw_passes.unwrap_or(true), "deterministic model flagged the AES-NI lane");
}
