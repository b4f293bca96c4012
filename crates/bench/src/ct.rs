//! `micro_ct` → `BENCH_ct.json`: the crypto engines, three ways.
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
//!    model fed by `Aes::encrypt_block_trace`. An informational wall-clock
//!    t is also reported but never gates anything — real timers are too
//!    noisy for CI.
//!
//! Floors: every lane's four throughputs positive; the model *flags* the
//! table engine (Welch's t above the 4.5 threshold) and *passes* both
//! hardened engines (their traces are empty — no data-dependent access at
//! all), at both sizes, the model being noise-free; a host without
//! AES-NI/PCLMULQDQ carries an explicit `hw_absent` marker instead of the
//! lane; and in a full run the hardened default is at least as fast as the
//! leaky table lane on AES-block, seal and open.

use std::time::Instant;

use nexus_crypto::aes::{Aes, KeySize};
use nexus_crypto::gcm::AesGcm;
use nexus_crypto::gcm_siv::AesGcmSiv;
use nexus_crypto::CryptoBackend;
use nexus_testkit::timing::{analyze, CacheModel, Class, LEAK_T_THRESHOLD};
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

    /// `self`'s throughputs over `base`'s: above 1 means `self` is faster.
    fn over(&self, base: &Lane) -> Json {
        let keys = ["aes_block", "gcm_seal", "gcm_open", "keywrap"];
        keys.into_iter()
            .zip(self.numbers().into_iter().zip(base.numbers()))
            .fold(Json::obj(), |doc, (key, ((_, a), (_, b)))| doc.field(key, Json::Num(a / b)))
    }
}

/// The hardware lane, where CPUID allows it.
#[derive(Clone)]
pub(crate) struct HwLane {
    pub(crate) lane: Lane,
    t: f64,
    pub(crate) passes: bool,
}

#[derive(Clone)]
pub(crate) struct Ct {
    pub(crate) smoke: bool,
    payload_bytes: usize,
    samples_per_class: usize,
    pub(crate) fast: Lane,
    pub(crate) constant_time: Lane,
    /// `None` renders as the `hw_absent` marker: "no silicon" must not look
    /// like "the emitter forgot the section".
    pub(crate) hw_accel: Option<HwLane>,
    fast_t: f64,
    constant_time_t: f64,
    pub(crate) table_flagged: bool,
    pub(crate) ct_passes: bool,
    wall_fast_t: f64,
    wall_constant_time_t: f64,
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

impl Report for Ct {
    fn measure(smoke: bool) -> Ct {
        let payload_bytes = if smoke { 8 * 1024 } else { 64 * 1024 };
        let samples_per_class = if smoke { 800 } else { 2000 };
        let fast = measure_lane(CryptoBackend::Table, payload_bytes);
        let constant_time = measure_lane(CryptoBackend::Bitsliced, payload_bytes);
        let model_fast = classify_model(CryptoBackend::Table, samples_per_class);
        let model_ct = classify_model(CryptoBackend::Bitsliced, samples_per_class);
        let hw_accel = nexus_crypto::cpu::hw_accel_available().then(|| {
            let model = classify_model(CryptoBackend::HwAccel, samples_per_class);
            HwLane {
                lane: measure_lane(CryptoBackend::HwAccel, payload_bytes),
                t: model.t,
                passes: !model.leaking,
            }
        });
        let wall_fast_t = classify_wallclock(CryptoBackend::Table, samples_per_class.min(1000));
        let wall_constant_time_t =
            classify_wallclock(CryptoBackend::Bitsliced, samples_per_class.min(1000));

        Ct {
            smoke,
            payload_bytes,
            samples_per_class,
            fast,
            constant_time,
            hw_accel,
            fast_t: model_fast.t,
            constant_time_t: model_ct.t,
            table_flagged: model_fast.leaking,
            ct_passes: !model_ct.leaking,
            wall_fast_t,
            wall_constant_time_t,
        }
    }

    fn gate(&self) {
        let hw = self.hw_accel.as_ref();
        let lanes = [
            ("fast", Some(self.fast)),
            ("constant_time", Some(self.constant_time)),
            ("hw_accel", hw.map(|h| h.lane)),
        ];
        for (name, lane) in lanes {
            for (key, value) in lane.iter().flat_map(Lane::numbers) {
                assert!(value > 0.0, "{name}.{key} must be positive, got {value}");
            }
        }
        assert!(self.table_flagged, "the leak model must flag the table-driven AES lane");
        assert!(self.ct_passes, "the leak model must pass the bitsliced constant-time lane");
        assert!(hw.is_none_or(|h| h.passes), "the leak model must pass the AES-NI lane");
        if let (false, Some(hw)) = (self.smoke, hw) {
            // With the hardware present, the hardened default is at least as
            // fast as the leaky table lane on the bulk paths.
            let bulk = hw.lane.numbers().into_iter().zip(self.fast.numbers()).take(3);
            for ((key, ours), (_, table)) in bulk {
                assert!(
                    ours >= table,
                    "hardened default must meet the fast lane: hw_accel.{key} {ours:.1} < {table:.1}"
                );
            }
        }
    }

    fn json(&self) -> Json {
        let hw_accel = match &self.hw_accel {
            Some(hw) => hw
                .lane
                .json()
                .field("hw_absent", Json::Bool(false))
                .field("speedup_vs_fast", hw.lane.over(&self.fast))
                .field("hw_t", Json::Num(hw.t))
                .field("hw_passes", Json::Bool(hw.passes)),
            None => Json::obj().field("hw_absent", Json::Bool(true)),
        };
        Json::obj()
            .field("bench", Json::Str("ct".into()))
            .field("emitter", Json::Str("nexus-bench micro_ct (scripts/bench.sh)".into()))
            .field("smoke", Json::Bool(self.smoke))
            .field("payload_bytes", Json::Int(self.payload_bytes as i64))
            .field("gcm_kernel", Json::Str(nexus_crypto::cpu::describe()))
            .field("fast", self.fast.json())
            .field("constant_time", self.constant_time.json())
            .field("hw_accel", hw_accel)
            .field("slowdown", self.fast.over(&self.constant_time))
            .field(
                "leak_model",
                Json::obj()
                    .field(
                        "description",
                        Json::Str(
                            "dudect-style Welch's t over a deterministic cold-cache cost model \
                             fed by the table-access trace; fixed vs random plaintext classes"
                                .into(),
                        ),
                    )
                    .field("samples_per_class", Json::Int(self.samples_per_class as i64))
                    .field("threshold", Json::Num(LEAK_T_THRESHOLD))
                    .field("fast_t", Json::Num(self.fast_t))
                    .field("constant_time_t", Json::Num(self.constant_time_t))
                    .field("table_flagged", Json::Bool(self.table_flagged))
                    .field("ct_passes", Json::Bool(self.ct_passes)),
            )
            .field(
                "leak_wallclock_informational",
                Json::obj()
                    .field("fast_t", Json::Num(self.wall_fast_t))
                    .field("constant_time_t", Json::Num(self.wall_constant_time_t)),
            )
    }
}
