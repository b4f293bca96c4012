//! Layer probes: each calls one layer's public functions directly, on one
//! thread, for at least the probe budget, and reports the median of its
//! repetitions. They say what a layer can do on its own, so an end-to-end
//! number can be read against it (`core.datapath.*_efficiency`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use nexus_core::metadata::crypto::{open_object, seal_object, ObjectKind, Preamble};
use nexus_core::NexusUuid;
use nexus_crypto::ed25519::SigningKey;
use nexus_crypto::gcm::AesGcm;
use nexus_crypto::gcm_siv::AesGcmSiv;
use nexus_crypto::sha2::Sha256;
use nexus_exec::Executor;
use nexus_sgx::{Enclave, EnclaveImage, Platform, SealPolicy};
use nexus_storage::{DirBackend, LogBackend, MemBackend, SimClock, StorageBackend};

use crate::rng::Rng;
use crate::stats::median;

const MIB: usize = 1 << 20;

/// Median nanoseconds of one call to `f`, over repetitions filling
/// `budget`. Fast calls are timed in batches so the clock is not the
/// thing measured.
fn time_ns<R>(budget: Duration, mut f: impl FnMut() -> R) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    let once = t0.elapsed().max(Duration::from_nanos(20));
    let batch = (Duration::from_micros(200).as_nanos() / once.as_nanos()).clamp(1, 10_000) as u32;
    let mut reps = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || reps.len() < 5 {
        let t0 = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        reps.push(t0.elapsed().as_nanos() as f64 / f64::from(batch));
    }
    median(&reps).expect("at least five repetitions")
}

fn mib_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / MIB as f64 / (ns / 1e9)
}

fn crypto(budget: Duration, out: &mut BTreeMap<String, f64>) {
    let mut rng = Rng::new(0xC0FFEE, 1);
    let mut big = vec![0u8; MIB];
    rng.fill(&mut big);
    let (key, nonce, aad) = ([7u8; 16], [9u8; 12], [1u8; 32]);
    let gcm = AesGcm::new(&key);
    let sealed_big = gcm.seal(&nonce, &aad, &big);
    let sealed_4k = gcm.seal(&nonce, &aad, &big[..4096]);
    let mut put = |name: &str, v: f64| {
        out.insert(name.to_string(), v);
    };
    put(
        "crypto.gcm_seal_1m_mib_per_s",
        mib_per_s(
            MIB,
            time_ns(budget, || gcm.seal(&nonce, &aad, black_box(&big))),
        ),
    );
    put(
        "crypto.gcm_open_1m_mib_per_s",
        mib_per_s(
            MIB,
            time_ns(budget, || gcm.open(&nonce, &aad, black_box(&sealed_big))),
        ),
    );
    put(
        "crypto.gcm_seal_4k_us",
        time_ns(budget, || gcm.seal(&nonce, &aad, black_box(&big[..4096]))) / 1e3,
    );
    put(
        "crypto.gcm_open_4k_us",
        time_ns(budget, || gcm.open(&nonce, &aad, black_box(&sealed_4k))) / 1e3,
    );
    let siv = AesGcmSiv::new(&key);
    let sealed_64 = siv.seal(&nonce, &aad, &big[..64]);
    put(
        "crypto.siv_seal_64b_us",
        time_ns(budget, || siv.seal(&nonce, &aad, black_box(&big[..64]))) / 1e3,
    );
    put(
        "crypto.siv_open_64b_us",
        time_ns(budget, || siv.open(&nonce, &aad, black_box(&sealed_64))) / 1e3,
    );
    put(
        "crypto.sha256_mib_per_s",
        mib_per_s(MIB, time_ns(budget, || Sha256::digest(black_box(&big)))),
    );
    let signer = SigningKey::from_seed(&[3u8; 32]);
    let verifier = signer.verifying_key();
    let signature = signer.sign(&big[..64]);
    put(
        "crypto.ed25519_sign_us",
        time_ns(budget, || signer.sign(black_box(&big[..64]))) / 1e3,
    );
    put(
        "crypto.ed25519_verify_us",
        time_ns(budget, || {
            verifier.verify(black_box(&big[..64]), &signature)
        }) / 1e3,
    );

    let preamble = Preamble {
        kind: ObjectKind::Filenode,
        uuid: NexusUuid([5; 16]),
        parent: NexusUuid([6; 16]),
        version: 1,
        scope: None,
    };
    let rootkey = [8u8; 32];
    let blob = seal_object(&rootkey, &preamble, &big[..1024], |dest| rng.fill(dest));
    let mut fill = Rng::new(0xC0FFEE, 2);
    put(
        "core.meta.seal_us",
        time_ns(budget, || {
            seal_object(&rootkey, &preamble, black_box(&big[..1024]), |d| {
                fill.fill(d)
            })
        }) / 1e3,
    );
    put(
        "core.meta.open_us",
        time_ns(budget, || open_object(&rootkey, black_box(&blob))) / 1e3,
    );
}

fn sgx(budget: Duration, out: &mut BTreeMap<String, f64>) {
    let platform = Platform::seeded(0x5EA1);
    let enclave = Enclave::create(
        &platform,
        &EnclaveImage::new(b"nexus-benchmark probe".to_vec()),
        (),
    );
    out.insert(
        "sgx.ecall_ns".into(),
        time_ns(budget, || enclave.ecall(|(), _| ())),
    );
    let secret = [4u8; 48];
    let sealed = enclave.ecall(|(), env| env.seal(SealPolicy::MrEnclave, &secret, b"aad"));
    out.insert(
        "sgx.seal_us".into(),
        time_ns(budget, || {
            enclave.ecall(|(), env| env.seal(SealPolicy::MrEnclave, &secret, b"aad"))
        }) / 1e3,
    );
    out.insert(
        "sgx.unseal_us".into(),
        time_ns(budget, || {
            enclave.ecall(|(), env| env.unseal(&sealed, b"aad"))
        }) / 1e3,
    );
}

fn store(
    name: &str,
    backend: &dyn StorageBackend,
    budget: Duration,
    out: &mut BTreeMap<String, f64>,
) {
    let mut data = vec![0u8; MIB];
    Rng::new(0xC0FFEE, 3).fill(&mut data);
    // Sixteen names in turn: overwrites, as a volume's metadata sees them.
    let mut turn = 0usize;
    let mut next = |prefix: &str| {
        turn += 1;
        format!("{prefix}{:02}", turn % 16)
    };
    let mut put = |what: &str, v: f64| {
        out.insert(format!("storage.{name}.{what}"), v);
    };
    put(
        "put_4k_us",
        time_ns(budget, || {
            backend
                .put(&next("small"), &data[..4096])
                .expect("probe put")
        }) / 1e3,
    );
    for i in 0..16 {
        backend
            .put(&format!("small{i:02}"), &data[..4096])
            .expect("probe put");
    }
    put(
        "get_4k_us",
        time_ns(budget, || backend.get(&next("small")).expect("probe get")) / 1e3,
    );
    put(
        "put_1m_mib_per_s",
        mib_per_s(
            MIB,
            time_ns(budget, || {
                backend.put(&next("large"), &data).expect("probe put")
            }),
        ),
    );
    for i in 0..16 {
        backend
            .put(&format!("large{i:02}"), &data)
            .expect("probe put");
    }
    put(
        "get_1m_mib_per_s",
        mib_per_s(
            MIB,
            time_ns(budget, || backend.get(&next("large")).expect("probe get")),
        ),
    );
}

fn pool_and_exec(budget: Duration, out: &mut BTreeMap<String, f64>) {
    let pool = nexus_pool::global();
    let items = [0u8; 16];
    out.insert(
        "pool.dispatch_us".into(),
        time_ns(budget, || pool.par_map_indexed(&items, |i, _| i)) / 1e3,
    );
    out.insert("pool.threads".into(), pool.workers() as f64);

    const TASKS: usize = 1000;
    const SLEEPS: usize = 10;
    let (mut spawn, mut fire) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed() < budget * 2 || spawn.len() < 5 {
        let ex = Executor::new(SimClock::new(), crate::host::THREADS);
        let t0 = Instant::now();
        for task in 0..TASKS {
            let timer = ex.timer();
            ex.spawn(async move {
                for step in 0..SLEEPS {
                    timer
                        .sleep(Duration::from_micros((task + step) as u64 % 97 + 1))
                        .await;
                }
            });
        }
        spawn.push(t0.elapsed().as_nanos() as f64 / TASKS as f64);
        let t0 = Instant::now();
        ex.run_until_idle();
        fire.push(t0.elapsed().as_nanos() as f64 / (TASKS * SLEEPS) as f64);
    }
    out.insert(
        "exec.spawn_us".into(),
        median(&spawn).expect("five repetitions") / 1e3,
    );
    out.insert(
        "exec.timer_fire_ns".into(),
        median(&fire).expect("five repetitions"),
    );
}

/// Runs every probe; `dir` holds the on-disk stores and is the caller's
/// to remove.
pub fn run(budget: Duration, dir: &Path) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    crypto(budget, &mut out);
    sgx(budget, &mut out);
    store("mem", &MemBackend::new(), budget, &mut out);
    let log =
        LogBackend::open(dir.join("probe-log")).map_err(|e| format!("open probe log: {e}"))?;
    store("log", &log, budget, &mut out);
    let files =
        DirBackend::open(dir.join("probe-dir")).map_err(|e| format!("open probe dir: {e}"))?;
    store("dir", &files, budget, &mut out);
    pool_and_exec(budget, &mut out);
    Ok(out)
}
