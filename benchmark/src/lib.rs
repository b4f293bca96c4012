//! `nexus-benchmark`: one wall-clock benchmark of the default NeXUS
//! configuration, measured from outside the program.
//!
//! Five workloads each stress a different layer; every one runs against
//! `NexusConfig::default()` and the default crypto lane, checks every byte
//! it reads against a shadow model, and reports the same end-to-end
//! metrics. A traced run repeats the workload with spans recorded around
//! every call into the volume and every call out to storage, and adds the
//! per-layer ledger and the layer probes. See `README.md`.

pub mod afs_driver;
pub mod apply;
pub mod backend;
pub mod host;
pub mod json;
pub mod measure;
pub mod model;
pub mod probes;
pub mod reference;
pub mod rng;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod sync_driver;
pub mod trace;

use std::path::PathBuf;
use std::time::Duration;

use json::Json;
use measure::Measured;
use spec::{Store, Workload};

/// How one run is sized.
#[derive(Debug, Clone)]
pub struct Params {
    /// Seed of every generated input.
    pub seed: u64,
    /// Measure until the rounds' wall time adds up to this.
    pub seconds: f64,
    /// Run at least this many rounds whatever `seconds` says.
    pub min_rounds: u32,
    /// Record spans in half of the rounds and report per-layer metrics.
    pub trace: bool,
    /// Where on-disk stores go, as `nexus-benchmark-<pid>/` beneath it.
    pub tmp: PathBuf,
    /// Budget of each layer probe in a traced run.
    pub probe: Duration,
}

impl Params {
    /// Whether round `index` records spans: untraced, traced, traced,
    /// untraced, and so on, so a steady drift in machine speed cancels
    /// out of the traced-against-untraced comparison.
    pub fn traces(&self, index: u32) -> bool {
        self.trace && matches!(index % 4, 1 | 2)
    }

    /// How often `w`'s world is built: a traced run reports no `setup_s`,
    /// so once.
    pub fn setups(&self, w: &Workload) -> usize {
        if self.trace {
            1
        } else {
            w.setups
        }
    }

    /// The sizes the benchmark contract runs at: 29 probes at a quarter of
    /// a second keep a traced run, which sets up once, about as long as an
    /// untraced one, inside the contract's time cap.
    pub fn full(seed: u64, seconds: f64, trace: bool) -> Params {
        Params {
            seed,
            seconds,
            min_rounds: 2,
            trace,
            tmp: host::package_dir().join("out").join("tmp"),
            probe: Duration::from_millis(250),
        }
    }
}

/// One workload's outcome: what the last output line says.
#[derive(Debug)]
pub struct Outcome {
    /// The workload.
    pub workload: &'static str,
    /// No op failed and `fsck` was clean.
    pub correct: bool,
    /// Ops issued.
    pub attempted: u64,
    /// Ops that failed or answered wrongly.
    pub failed: u64,
    /// The end-to-end metrics, from the untraced rounds.
    pub end_to_end: measure::Metrics,
    /// The per-layer metrics, when tracing.
    pub layers: Option<measure::Metrics>,
    /// Hash of every generated op of the measured rounds: equal digests
    /// mean the program was handed the same inputs.
    pub inputs_digest: u64,
    /// The rest of the record: rounds, sample counts, tail percentiles.
    pub detail: Json,
}

impl Outcome {
    /// The metrics this mode reports: per-layer when tracing, else
    /// end-to-end.
    pub fn metrics(&self) -> &measure::Metrics {
        self.layers.as_ref().unwrap_or(&self.end_to_end)
    }

    /// The value of `name`, end-to-end or per-layer.
    pub fn value(&self, name: &str) -> Option<f64> {
        let all = self.end_to_end.iter().chain(self.layers.iter().flatten());
        all.into_iter()
            .find(|(n, ..)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The contract's result object.
    pub fn result_line(&self) -> Json {
        let metrics = self.metrics().iter().map(|(name, value, unit)| {
            (
                name.clone(),
                Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Runs `w` once and derives its metrics.
pub fn run_workload(w: &Workload, p: &Params) -> Result<Outcome, String> {
    let mut m: Measured = match w.store {
        Store::Afs => afs_driver::run(w, p)?,
        _ => sync_driver::run(w, p)?,
    };
    if let Some(what) = &m.first_failure {
        eprintln!("{}: first failure: {what}", w.name);
    }
    let (e2e, demoted, tails) = measure::user_metrics(&m);
    let mut detail = vec![
        ("rounds", Json::Int(m.rounds.len() as i64)),
        (
            "ops_per_round",
            Json::Int(m.rounds.first().map_or(0, |r| r.ops) as i64),
        ),
        (
            "measured_ops",
            Json::Int(m.rounds.iter().map(|r| r.ops).sum::<u64>() as i64),
        ),
        (
            "read_samples_per_round",
            Json::Int(m.rounds.first().map_or(0, |r| i64::from(r.samples[0]))),
        ),
        (
            "write_samples_per_round",
            Json::Int(m.rounds.first().map_or(0, |r| i64::from(r.samples[1]))),
        ),
        ("read_tail_percentile", Json::Int(i64::from(tails[0]))),
        ("write_tail_percentile", Json::Int(i64::from(tails[1]))),
        (
            "setups_s",
            Json::Arr(m.setups.iter().map(|s| Json::Num(s.wall_s)).collect()),
        ),
        (
            "round_ms",
            Json::Arr(
                m.rounds
                    .iter()
                    .map(|r| Json::Num((r.wall_ns / 10_000) as f64 / 100.0))
                    .collect(),
            ),
        ),
        (
            "round_speed",
            Json::Arr(
                m.rounds
                    .iter()
                    .map(|r| Json::Num((r.speed * 1e3).round() / 1e3))
                    .collect(),
            ),
        ),
        (
            "inputs_digest",
            Json::str(format!("{:016x}", m.inputs_digest)),
        ),
    ];
    detail.push((
        "raw",
        Json::obj(
            measure::raw_times(&m)
                .iter()
                .map(|(n, v)| (n.to_string(), Json::Num(*v))),
        ),
    ));
    detail.push((
        "demoted",
        Json::obj(demoted.iter().map(|(n, v, _)| (n.clone(), Json::Num(*v)))),
    ));
    let layers = if p.trace {
        let mut layers = measure::per_layer(&mut m);
        let tmp = host::TempDir::create(&p.tmp).map_err(|e| format!("create temp dir: {e}"))?;
        layers.extend(probes::run(p.probe, tmp.path())?);
        layers.extend(
            demoted
                .iter()
                .map(|(name, value, _)| (name.clone(), *value)),
        );
        for (rate, cipher, name) in [
            (
                "write_mib_per_s",
                "crypto.gcm_seal_1m_mib_per_s",
                "core.datapath.write_efficiency",
            ),
            (
                "read_mib_per_s",
                "crypto.gcm_open_1m_mib_per_s",
                "core.datapath.read_efficiency",
            ),
        ] {
            let efficiency = if layers[cipher] > 0.0 {
                layers[rate] / layers[cipher]
            } else {
                0.0
            };
            layers.insert(name.into(), efficiency);
        }
        detail.push(("op_spans", Json::Int(m.op_spans.len() as i64)));
        detail.push(("storage_spans", Json::Int(m.call_spans.len() as i64)));
        detail.push((
            "end_to_end",
            Json::obj(e2e.iter().map(|(n, v, _)| (n.clone(), Json::Num(*v)))),
        ));
        suite::write_trace(w.name, &m)?;
        let declared = spec::per_layer().into_iter().map(|d| {
            let v = *layers
                .get(&d.name)
                .unwrap_or_else(|| unreachable!("declared metric {} is computed", d.name));
            (d.name, v, d.unit)
        });
        Some(declared.collect())
    } else {
        None
    };
    Ok(Outcome {
        workload: w.name,
        correct: m.failed == 0,
        attempted: m.attempted,
        failed: m.failed,
        end_to_end: e2e,
        layers,
        inputs_digest: m.inputs_digest,
        detail: Json::obj(detail),
    })
}
