//! `micro_ct` → `BENCH_ct.json`: the crypto engines dispatch can pick,
//! and the leak classification.
//!
//! 1. **Throughput** — the same four hot operations timed under each
//!    engine: raw AES block encryption through the 8-block batch entry,
//!    AES-GCM seal and open over a bulk payload, and the AES-GCM-SIV
//!    keywrap (16-byte plaintext, the metadata object-key wrap shape). JSON
//!    sections: `constant_time` (portable bitsliced + masked clmul) and
//!    `hw_accel` (AES-NI + PCLMULQDQ, the wide VAES kernel where
//!    `gcm_kernel` says so) where CPUID allows.
//! 2. **Leak classification** — the dudect-style experiment from
//!    `nexus-testkit::timing`, run over the deterministic cold-cache model
//!    fed by the T-table trace of `nexus_testkit::spec::Aes`: the positive
//!    control, which the model must flag. The shipped engines make no
//!    secret-indexed access to trace (`crates/crypto/tests/source_audit.rs`
//!    reads every module for one); both get an informational wall-clock t,
//!    which never gates anything — real timers are too noisy for CI.
//!
//! Floors: every lane's four throughputs positive; the model *flags* the
//! table-driven reference (Welch's t above the 4.5 threshold) at both
//! sizes, the model being noise-free; a host without AES-NI/PCLMULQDQ
//! carries an explicit `hw_absent` marker instead of the lane.

use std::time::Instant;

use nexus_crypto::aes::{Aes, KeySize};
use nexus_crypto::gcm::AesGcm;
use nexus_crypto::gcm_siv::AesGcmSiv;
use nexus_crypto::CryptoBackend;
use nexus_testkit::spec;
use nexus_testkit::timing::{analyze, Class, LeakReport, LEAK_T_THRESHOLD};
use nexus_workloads::fileio::file_contents;

use crate::json::Json;
use crate::{measure_micro, mibps, Report};

/// Throughput of one lane across the four hot operations.
#[derive(Clone, Copy)]
pub(crate) struct Lane {
    pub(crate) aes_block_mibps: f64,
    pub(crate) gcm_seal_mibps: f64,
    pub(crate) gcm_open_mibps: f64,
    pub(crate) keywrap_ops_per_s: f64,
}

impl Lane {
    fn numbers(&self) -> [(&'static str, f64); 4] {
        [
            ("aes_block_mibps", self.aes_block_mibps),
            ("gcm_seal_mibps", self.gcm_seal_mibps),
            ("gcm_open_mibps", self.gcm_open_mibps),
            ("keywrap_ops_per_s", self.keywrap_ops_per_s),
        ]
    }

    fn json(&self) -> Json {
        self.numbers().into_iter().fold(Json::obj(), |doc, (key, v)| doc.field(key, Json::Num(v)))
    }
}

#[derive(Clone)]
pub(crate) struct Ct {
    smoke: bool,
    payload_bytes: usize,
    samples_per_class: usize,
    pub(crate) constant_time: Lane,
    /// `None` renders as the `hw_absent` marker: "no silicon" must not look
    /// like "the emitter forgot the section".
    pub(crate) hw_accel: Option<Lane>,
    table_t: f64,
    pub(crate) table_flagged: bool,
    wall_constant_time_t: f64,
    wall_hw_accel_t: Option<f64>,
}

fn measure_lane(backend: CryptoBackend, gcm_bytes: usize) -> Lane {
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

    Lane {
        aes_block_mibps: mibps(aes_block_bytes, aes_block),
        gcm_seal_mibps: mibps(gcm_bytes, gcm_seal),
        gcm_open_mibps: mibps(gcm_bytes, gcm_open),
        keywrap_ops_per_s: keywrap_ops as f64 / keywrap.as_secs_f64().max(1e-12),
    }
}

/// Deterministic-model leak classification of the table-driven reference.
fn classify_model(per_class: usize) -> LeakReport {
    let aes = spec::Aes::new(&[0x3c; 16]);
    let fixed = [0xa5u8; 16];
    analyze(0x5eed_c7_1ea4, per_class, |class, g| {
        let block = match class {
            Class::Fixed => fixed,
            Class::Random => g.bytes::<16>(),
        };
        aes.cold_cache_cost(&block)
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

impl Report for Ct {
    fn measure(smoke: bool) -> Ct {
        let payload_bytes = if smoke { 8 * 1024 } else { 64 * 1024 };
        let samples_per_class = if smoke { 800 } else { 2000 };
        let wall_per_class = samples_per_class.min(1000);
        let hw = nexus_crypto::cpu::hw_accel_available();
        let model = classify_model(samples_per_class);
        Ct {
            smoke,
            payload_bytes,
            samples_per_class,
            constant_time: measure_lane(CryptoBackend::Bitsliced, payload_bytes),
            hw_accel: hw.then(|| measure_lane(CryptoBackend::HwAccel, payload_bytes)),
            table_t: model.t,
            table_flagged: model.leaking,
            wall_constant_time_t: classify_wallclock(CryptoBackend::Bitsliced, wall_per_class),
            wall_hw_accel_t: hw.then(|| classify_wallclock(CryptoBackend::HwAccel, wall_per_class)),
        }
    }

    fn gate(&self) {
        let lanes = [("constant_time", Some(self.constant_time)), ("hw_accel", self.hw_accel)];
        for (name, lane) in lanes {
            for (key, value) in lane.iter().flat_map(Lane::numbers) {
                assert!(value > 0.0, "{name}.{key} must be positive, got {value}");
            }
        }
        assert!(self.table_flagged, "the leak model must flag the table-driven reference AES");
    }

    fn json(&self) -> Json {
        let hw_accel = match &self.hw_accel {
            Some(lane) => lane.json().field("hw_absent", Json::Bool(false)),
            None => Json::obj().field("hw_absent", Json::Bool(true)),
        };
        let wall = Json::obj().field("constant_time_t", Json::Num(self.wall_constant_time_t));
        Json::obj()
            .field("bench", Json::Str("ct".into()))
            .field("emitter", Json::Str("nexus-bench micro_ct (scripts/bench.sh)".into()))
            .field("smoke", Json::Bool(self.smoke))
            .field("payload_bytes", Json::Int(self.payload_bytes as i64))
            .field("gcm_kernel", Json::Str(nexus_crypto::cpu::describe()))
            .field("constant_time", self.constant_time.json())
            .field("hw_accel", hw_accel)
            .field(
                "leak_model",
                Json::obj()
                    .field(
                        "description",
                        Json::Str(
                            "dudect-style Welch's t over a deterministic cold-cache cost model \
                             fed by the T-table trace of the spec reference AES (the positive \
                             control); fixed vs random plaintext classes"
                                .into(),
                        ),
                    )
                    .field("samples_per_class", Json::Int(self.samples_per_class as i64))
                    .field("threshold", Json::Num(LEAK_T_THRESHOLD))
                    .field("table_t", Json::Num(self.table_t))
                    .field("table_flagged", Json::Bool(self.table_flagged)),
            )
            .field(
                "leak_wallclock_informational",
                match self.wall_hw_accel_t {
                    Some(t) => wall.field("hw_accel_t", Json::Num(t)),
                    None => wall,
                },
            )
    }
}
