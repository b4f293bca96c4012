//! The eleven paper-facing commands: §VII's tables and figures, the §IV
//! and §V-A claims, and the two design ablations.
//!
//! Every command measures over the same set-up — a [`TestRig`] on the
//! paper-calibrated latency model, a fresh plain-AFS deployment and a
//! fresh NEXUS volume per row ([`pair`]) — asserts the shape the paper
//! claims for it, and returns typed rows for the one renderer. File
//! *counts* are the paper's; file *sizes* are scaled where a constant says
//! so. A paper overhead that ours exceeds by more than [`DIVERGES`] is
//! marked in the row and deliberately not gated: it is a finding to chase
//! (ROADMAP item 4(d)), not a shape to enforce.

use std::sync::Arc;
use std::time::Duration;

use nexus_core::{NexusConfig, NexusVolume, Rights, UserKeys, VolumeJoiner};
use nexus_cryptofs_baseline::{CryptoFs, Identity};
use nexus_sgx::Platform;
use nexus_storage::afs::AfsClient;
use nexus_storage::{CloudStore, IoStats, LatencyModel, MemBackend, SimClock, StorageBackend};
use nexus_workloads::apps::{app_file_contents, run_app_suite, AppRun, Archive, LFSD, MFMD, SFLD};
use nexus_workloads::dbbench::{DbConfig, DbResult, LevelDbSim, SqliteSim};
use nexus_workloads::fileio::{file_contents, run_dir_ops, run_file_io};
use nexus_workloads::repos::{clone_repo, generate_tree, JULIA, NODEJS, REDIS};
use nexus_workloads::{bench_fs, measure, BenchFs, Sample, TestRig};

use crate::table::Cell::{self, Bytes, Count, Ratio, Secs, Text};
use crate::table::{splice, Row};
use crate::{overhead, Run, COMMANDS};

/// Ours above the paper's overhead by more than this factor marks the row.
const DIVERGES: f64 = 1.5;
/// Size scale of the Table III workloads (LFSD files of 2 MB, not 100 MB):
/// the metadata behaviour Fig. 6 and §VII-E are about is count-driven.
const APP_SCALE: f64 = 0.02;

fn rig_with(config: NexusConfig) -> TestRig {
    TestRig::with(LatencyModel::paper_calibrated(), config)
}

/// Runs `work` on a fresh plain-AFS deployment and then on a fresh NEXUS
/// volume of `rig`: the (baseline, NEXUS) pair every §VII row compares.
fn pair<T>(rig: &TestRig, work: impl Fn(&dyn BenchFs) -> bench_fs::Result<T>) -> (T, T) {
    (work(&rig.plain_afs()).expect("baseline run"), work(&rig.nexus_fs()).expect("NEXUS run"))
}

/// The paper's overhead, marked where ours diverges above it.
fn paper_overhead(ours: f64, paper: f64) -> Cell {
    let mark = if ours > DIVERGES * paper { " (diverges)" } else { "" };
    Text(format!("\u{d7}{paper:.2}{mark}"))
}

fn paper_secs(values: &[f64]) -> Cell {
    Text(values.iter().map(|v| format!("{v:.2} s")).collect::<Vec<_>>().join(" / "))
}

/// A row of Table 5a/5b: both systems, then NEXUS's two components.
fn breakdown(label: Cell, afs: &Sample, nexus: &Sample, meta_io: Duration, paper: &[f64]) -> Row {
    vec![
        label,
        Secs(afs.total()),
        Secs(nexus.total()),
        Ratio(overhead(nexus, afs)),
        Secs(meta_io),
        Secs(nexus.enclave),
        paper_secs(paper),
    ]
}

const PAPER_BREAKDOWN: &str = "paper: AFS / NEXUS / meta-io / enclave";

/// Table 5a: write + cold read of one file, mean of five runs (paper: ten).
pub(crate) const TABLE_5A: Run = Run::Paper(
    &["size", "AFS", "NEXUS", "overhead", "meta-io", "enclave", PAPER_BREAKDOWN],
    table_5a,
);

fn table_5a(_smoke: bool) -> Vec<Row> {
    const RUNS: u32 = 5;
    const PAPER: [(u64, [f64; 4]); 4] = [
        (1, [0.61, 0.51, 0.09, 0.02]),
        (2, [1.52, 1.46, 0.12, 0.09]),
        (16, [5.55, 6.81, 0.14, 0.58]),
        (64, [22.24, 28.56, 0.80, 2.07]),
    ];
    let rig = TestRig::default_latency();
    let mut rows = Vec::new();
    let (mut meta, mut enclave) = (Vec::new(), Vec::new());
    for (mb, paper) in PAPER {
        let size = mb << 20;
        let (afs, nexus) = pair(&rig, |fs| {
            let mut total = Sample::default();
            for _ in 0..RUNS {
                total.add(run_file_io(fs, size)?.combined());
            }
            Ok(total.mean_of(RUNS))
        });
        // Metadata I/O is the simulated I/O beyond the data object's own
        // transfer, which moves once per direction: plaintext plus one GCM
        // tag per 1 MB chunk.
        let data_io = rig.latency.rpc_cost((size + 16 * mb) as usize) * 2;
        let meta_io = nexus.sim_io.saturating_sub(data_io);
        let ratio = overhead(&nexus, &afs);
        assert!(ratio <= 1.10, "5a: NEXUS is \u{d7}{ratio:.2} of AFS at {mb} MB, beyond \u{d7}1.10");
        meta.push(meta_io);
        enclave.push(nexus.enclave);
        rows.push(breakdown(Text(format!("{mb} MB")), &afs, &nexus, meta_io, &paper));
    }
    let (low, high) = (meta.iter().min().expect("rows"), meta.iter().max().expect("rows"));
    assert!(*high <= *low * 2, "5a: metadata I/O is not flat in file size: {meta:?}");
    assert!(enclave.windows(2).all(|w| w[0] < w[1]), "5a: enclave time not monotone: {enclave:?}");
    rows
}

/// Table 5b: create then delete N empty files in one flat directory
/// (bucket size 128).
pub(crate) const TABLE_5B: Run = Run::Paper(
    &["files", "AFS", "NEXUS", "overhead", "meta-io", "enclave", PAPER_BREAKDOWN],
    table_5b,
);

fn table_5b(smoke: bool) -> Vec<Row> {
    const PAPER: [(usize, [f64; 4]); 4] = [
        (1024, [1.27, 19.38, 17.44, 0.38]),
        (2048, [2.63, 38.62, 34.63, 0.79]),
        (4096, [5.26, 81.98, 73.66, 1.67]),
        (8192, [11.93, 172.29, 154.34, 3.55]),
    ];
    let rig = TestRig::default_latency();
    let mut rows = Vec::new();
    let mut per_file = Vec::new();
    for (n, paper) in PAPER.into_iter().filter(|(n, _)| !(smoke && *n == 8192)) {
        let (afs, nexus) = pair(&rig, |fs| run_dir_ops(fs, n));
        let ratio = overhead(&nexus, &afs);
        assert!(ratio > 2.0, "5b: metadata-heavy creates cost only \u{d7}{ratio:.2} at {n} files");
        assert!(
            nexus.sim_io.as_secs_f64() >= 0.9 * nexus.total().as_secs_f64(),
            "5b: metadata I/O no longer dominates at {n} files: {nexus:?}"
        );
        per_file.push(nexus.total().as_secs_f64() / n as f64);
        rows.push(breakdown(Count(n as u64), &afs, &nexus, nexus.sim_io, &paper));
    }
    let mean = per_file.iter().sum::<f64>() / per_file.len() as f64;
    assert!(
        per_file.iter().all(|c| (c / mean - 1.0).abs() <= 0.10),
        "5b: per-file cost is not linear in N: {per_file:?}"
    );
    rows
}

/// Fig. 5c: cloning synthetic trees with the published shapes — 618 / 1096
/// / 19912 files, nodejs 13 levels deep with top directories of
/// 1458/783/762 entries — at full size.
pub(crate) const FIG_5C: Run =
    Run::Paper(&["repo", "files", "AFS", "NEXUS", "overhead", "paper"], fig_5c);

fn fig_5c(smoke: bool) -> Vec<Row> {
    let rig = TestRig::default_latency();
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for (profile, paper) in [(&REDIS, 2.39), (&JULIA, 2.87), (&NODEJS, 3.64)] {
        if smoke && profile.name == NODEJS.name {
            continue;
        }
        let tree = generate_tree(profile, 1.0);
        let (afs, nexus) = pair(&rig, |fs| clone_repo(fs, &tree));
        let ratio = overhead(&nexus, &afs);
        ratios.push(ratio);
        rows.push(vec![
            Text(profile.name.into()),
            Count(tree.files.len() as u64),
            Secs(afs.total()),
            Secs(nexus.total()),
            Ratio(ratio),
            paper_overhead(ratio, paper),
        ]);
    }
    assert!(
        ratios.windows(2).all(|w| w[0] < w[1]),
        "5c: overhead must grow redis < julia < nodejs: {ratios:?}"
    );
    rows
}

/// Table II: LevelDB- and SQLite-style workloads, 150k entries of 16-byte
/// keys and 100-byte values, 4 MB write buffer, 400 synchronous ops.
pub(crate) const TABLE_2: Run =
    Run::Paper(&["engine", "operation", "OpenAFS", "NEXUS", "overhead", "paper"], table_2);

fn table_2(_smoke: bool) -> Vec<Row> {
    const PAPER: [(&str, &[f64]); 2] = [
        ("LevelDB", &[1.29, 2.04, 1.59, 1.53, 0.94, 0.99, 1.62, 1.52]),
        ("SQLite", &[1.01, 2.18, 1.00, 1.00, 2.34, 0.98, 1.00]),
    ];
    let config = DbConfig { entries: 150_000, sync_ops: 400, ..Default::default() };
    let suites = |fs: &dyn BenchFs| -> bench_fs::Result<[Vec<DbResult>; 2]> {
        let mut db = LevelDbSim::create(fs, config, "leveldb")?;
        let leveldb = vec![
            db.fillseq()?,
            db.fillsync()?,
            db.fillrandom()?,
            db.overwrite()?,
            db.readseq()?,
            db.readreverse()?,
            db.readrandom()?,
            db.fill100k()?,
        ];
        let mut db = SqliteSim::create(fs, config, "sqlite")?;
        let sqlite = vec![
            db.fillseq()?,
            db.fillseqsync()?,
            db.fillseqbatch()?,
            db.fillrandom()?,
            db.fillrandsync()?,
            db.fillrandbatch()?,
            db.overwrite()?,
        ];
        Ok([leveldb, sqlite])
    };
    let (afs, nexus) = pair(&TestRig::default_latency(), suites);

    let mut rows = Vec::new();
    let (mut sync, mut buffered) = (Vec::new(), Vec::new());
    for (((engine, paper), afs), nexus) in PAPER.into_iter().zip(afs).zip(nexus) {
        assert_eq!(paper.len(), afs.len(), "{engine}: a paper figure per operation");
        for ((a, n), paper) in afs.iter().zip(&nexus).zip(paper) {
            assert_eq!(a.op, n.op);
            let ratio = n.overhead_vs(a);
            match ratio {
                Some(ratio) if a.op.ends_with("sync") => sync.push(ratio),
                Some(ratio) if a.op == "readseq" || a.op == "readreverse" => assert!(
                    (0.9..=1.1).contains(&ratio),
                    "Table II: {engine} {} is \u{d7}{ratio:.2}, outside \u{d7}0.9\u{2013}1.1",
                    a.op
                ),
                Some(ratio) if !a.op.starts_with("read") => buffered.push(ratio),
                _ => {}
            }
            // A phase that buffers locally has only host-timer readings.
            let metric = |r: &DbResult| match ratio {
                Some(_) => Text(r.metric.to_string()),
                None => Text("in memory".into()),
            };
            let (ours, theirs) = match ratio {
                Some(ratio) => (Ratio(ratio), paper_overhead(ratio, *paper)),
                None => (Text("\u{d7}1.00 (no storage I/O)".into()), paper_overhead(1.0, *paper)),
            };
            rows.push(vec![
                Text(engine.into()),
                Text(a.op.into()),
                metric(a),
                metric(n),
                ours,
                theirs,
            ]);
        }
    }
    let cheapest_sync = sync.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(
        buffered.iter().all(|b| *b < cheapest_sync),
        "Table II: a buffered write row costs more than a synchronous one: \
         sync {sync:?}, buffered {buffered:?}"
    );
    rows
}

/// Fig. 6: tar -x, du, grep, tar -c, cp and mv over the three generated
/// workloads of Table III, sizes scaled by [`APP_SCALE`], one run (paper: 25).
pub(crate) const FIG_6: Run = Run::Paper(
    &["workload", "app", "AFS", "NEXUS", "overhead", "paper: AFS / NEXUS", "paper overhead"],
    fig_6,
);

fn fig_6(_smoke: bool) -> Vec<Row> {
    const APPS: [&str; 6] = ["tar -x", "du", "grep", "tar -c", "cp", "mv"];
    /// Paper seconds per app, (OpenAFS, NEXUS), in `APPS` order.
    const PAPER: [[(f64, f64); 6]; 3] = [
        [(124.44, 153.51), (0.39, 0.79), (67.46, 102.15), (208.44, 428.01), (3.84, 6.66), (0.30, 0.35)],
        [(117.75, 136.68), (0.39, 0.56), (56.38, 85.85), (181.71, 303.56), (0.70, 1.17), (0.31, 0.35)],
        [(3.29, 14.06), (0.37, 0.48), (2.39, 4.11), (2.71, 4.36), (0.31, 0.45), (0.30, 0.39)],
    ];
    let samples = |run: &AppRun| [run.tar_x, run.du, run.grep, run.tar_c, run.cp, run.mv];
    let rig = TestRig::default_latency();
    let mut rows = Vec::new();
    let mut tar_x = Vec::new();
    for (profile, paper) in [&LFSD, &MFMD, &SFLD].into_iter().zip(PAPER) {
        let (afs, nexus) = pair(&rig, |fs| run_app_suite(fs, profile, APP_SCALE));
        for (((app, a), n), (paper_afs, paper_nexus)) in
            APPS.into_iter().zip(samples(&afs)).zip(samples(&nexus)).zip(paper)
        {
            let ratio = overhead(&n, &a);
            match app {
                "tar -x" => tar_x.push(ratio),
                "du" => assert!(
                    (0.9..=1.1).contains(&ratio),
                    "Fig. 6: du on {} is \u{d7}{ratio:.2} of OpenAFS with dirnodes cached",
                    profile.code
                ),
                _ => {}
            }
            rows.push(vec![
                Text(profile.code.into()),
                Text(app.into()),
                Secs(a.total()),
                Secs(n.total()),
                Ratio(ratio),
                paper_secs(&[paper_afs, paper_nexus]),
                paper_overhead(ratio, paper_nexus / paper_afs),
            ]);
        }
    }
    assert!(
        tar_x[2] > tar_x[0] && tar_x[2] > tar_x[1],
        "Fig. 6: tar -x overhead must be largest on SFLD: {tar_x:?}"
    );
    rows
}

/// §VII-E: revoking one user from a directory holding SFLD (full size) and
/// LFSD ([`APP_SCALE`]) — NEXUS rewrites metadata, a SiRiUS/Plutus-style
/// pure-cryptographic filesystem re-encrypts the file contents. The paper's
/// estimate counts the *whole* affected directory metadata ("NEXUS
/// metadata"); bucketed dirnodes rewrite only the main object holding the
/// ACL ("NEXUS rewritten").
pub(crate) const REVOCATION: Run = Run::Paper(
    &[
        "workload",
        "file data",
        "NEXUS rewritten",
        "NEXUS metadata",
        "crypto-fs re-encrypted",
        "crypto-fs metadata",
        "paper: metadata, full size",
    ],
    revocation,
);

fn revocation(_smoke: bool) -> Vec<Row> {
    let rig = TestRig::default_latency();
    let mut rows = Vec::new();
    for (profile, scale, paper) in [(&SFLD, 1.0, "~95 KB for 10 MB"), (&LFSD, APP_SCALE, "~3.2 KB for 3.2 GB")] {
        let archive = Archive::for_profile(profile, scale);
        let contents = |i: usize| app_file_contents(archive.files[i].1, i as u64);
        let path = |i: usize| format!("{}/{}", archive.root, archive.files[i].0);

        let fs = rig.nexus_fs();
        let volume = fs.volume();
        let alice = UserKeys::from_seed("alice", &[2u8; 32]);
        volume.add_user("alice", alice.public_key()).expect("add user");
        fs.mkdir_all(&archive.root).expect("mkdir");
        let mut ciphertext = 0u64;
        for i in 0..archive.files.len() {
            let data = contents(i);
            // A data object: plaintext plus one GCM tag per 1 MB chunk.
            ciphertext += data.len() as u64 + 16 * (data.len() as u64).div_ceil(1 << 20).max(1);
            fs.write_file(&path(i), &data).expect("write");
        }
        volume.set_acl(&archive.root, "alice", Rights::RW).expect("acl");
        // Every stored object that is not file ciphertext is metadata
        // (supernode, dirnodes, buckets, filenodes).
        let backend = volume.backend();
        let stored: u64 =
            backend.list("").iter().filter_map(|name| backend.stat(name).ok()).map(|s| s.size).sum();
        let before = volume.io_stats();
        volume.revoke_acl(&archive.root, "alice").expect("revoke");
        let rewritten = volume.io_stats().delta_since(&before).bytes_written;

        let reader = Identity::from_seed("alice", &[2; 32]);
        let crypto_fs =
            CryptoFs::new(Arc::new(MemBackend::new()), Identity::from_seed("owen", &[1; 32]));
        for i in 0..archive.files.len() {
            crypto_fs.write_file(&path(i), &contents(i), &[reader.public()]).expect("write");
        }
        let (mut reencrypted, mut crypto_meta) = (0u64, 0u64);
        for i in 0..archive.files.len() {
            let cost = crypto_fs.revoke_reader(&path(i), "alice").expect("revoke");
            reencrypted += cost.file_bytes_reencrypted;
            crypto_meta += cost.metadata_bytes;
        }

        let file_bytes = archive.total_bytes();
        assert!(
            rewritten * 100 < file_bytes,
            "\u{a7}VII-E: NEXUS rewrote {rewritten} of {file_bytes} file bytes on {}",
            profile.code
        );
        assert_eq!(reencrypted, file_bytes, "\u{a7}VII-E: the baseline re-encrypts every file byte");
        rows.push(vec![
            Text(profile.code.into()),
            Bytes(file_bytes),
            Bytes(rewritten),
            Bytes(stored.saturating_sub(ciphertext)),
            Bytes(reencrypted),
            Bytes(crypto_meta),
            Text(paper.into()),
        ]);
    }
    rows
}

/// §VII-F: (1) each phase of the asynchronous rootkey exchange is a single
/// file write; (2) adding or removing a user is one metadata update;
/// (3) ACL enforcement is dominated by the initial metadata fetch, entry
/// count adding only bytes to one dirnode object.
pub(crate) const SHARING_COSTS: Run = Run::Paper(&["measure", "here", "paper"], sharing_costs);

fn sharing_costs(_smoke: bool) -> Vec<Row> {
    let rig = TestRig::default_latency();
    let fs = rig.nexus_fs();
    let volume = fs.volume();
    let backend = volume.backend().clone();
    // Runs `work` and returns what it cost the storage service.
    fn counted<T>(backend: &dyn StorageBackend, work: impl FnOnce() -> T) -> (T, IoStats) {
        let before = backend.stats();
        let out = work();
        (out, backend.stats().delta_since(&before))
    }

    let alice_machine = Platform::seeded(77);
    rig.ias.register_platform(&alice_machine);
    let alice = UserKeys::from_seed("alice", &[2u8; 32]);
    let joiner = VolumeJoiner::new(&alice_machine, backend.clone(), &rig.ias);
    let (sealed_offer, offer) = counted(&*backend, || joiner.publish_offer(&alice).expect("offer"));
    let ((), grant) = counted(&*backend, || {
        volume.grant_access(&rig.owner, "alice", &alice.public_key()).expect("grant")
    });
    let (sealed, accept) = counted(&*backend, || {
        joiner.accept_grant(&alice, &rig.owner.public_key(), sealed_offer).expect("accept")
    });
    // Alice mounting proves the exchange carried the rootkey.
    let alice_volume =
        NexusVolume::mount(&alice_machine, backend.clone(), &rig.ias, &sealed, rig.config)
            .expect("mount");
    alice_volume.authenticate(&alice).expect("alice auth");

    let bob = UserKeys::from_seed("bob", &[3u8; 32]);
    let ((), add) = counted(&*backend, || volume.add_user("bob", bob.public_key()).expect("add"));
    let ((), remove) = counted(&*backend, || volume.revoke_user("bob").expect("revoke"));
    assert_eq!(
        (offer.writes, grant.writes, accept.writes, add.writes, remove.writes),
        (1, 2, 0, 1, 1),
        "\u{a7}VII-F: one write per exchange message (the grant also adds the user), \
         one metadata update per user change"
    );

    let row = |measure: &str, here: Cell, paper: &str| vec![Text(measure.into()), here, Text(paper.into())];
    let mut rows = vec![
        row("offer: storage writes", Count(offer.writes), "1"),
        row("grant: storage writes (message + supernode user add)", Count(grant.writes), "1 + 1"),
        row("accept: storage writes (local unseal only)", Count(accept.writes), "0"),
        row("add user: metadata writes", Count(add.writes), "1"),
        row("add user: bytes", Bytes(add.bytes_written), ""),
        row("remove user: metadata writes", Count(remove.writes), "1"),
        row("remove user: bytes", Bytes(remove.bytes_written), ""),
    ];

    fs.mkdir_all("shared").expect("mkdir");
    fs.write_file("shared/doc.txt", b"data").expect("write");
    volume.set_acl("shared", "alice", Rights::READ).expect("acl");
    for target in [1usize, 16, 64, 256] {
        for i in volume.acl_entries("shared").expect("entries").len()..target {
            let mut seed = [0xA0u8; 32];
            seed[..8].copy_from_slice(&(i as u64).to_le_bytes());
            let name = format!("user{i}");
            volume.add_user(&name, UserKeys::from_seed(&name, &seed).public_key()).expect("add");
            volume.set_acl("shared", &name, Rights::READ).expect("grant");
        }
        // Alice's enforcement cost with a cold cache.
        fs.flush_caches();
        let t0 = alice_volume.backend().simulated_time();
        alice_volume.read_file("shared/doc.txt").expect("read");
        let lookup = alice_volume.backend().simulated_time() - t0;
        rows.push(row(
            &format!("cold read through a {target}-entry ACL"),
            Secs(lookup),
            "dominated by the metadata fetch",
        ));
    }
    rows
}

/// §IV: the same volume code over the LAN AFS simulation and a WAN cloud
/// object store — create 64 files of 256 kB, then read them all back. What
/// changes is latency, request volume and billing; the code and the
/// guarantees do not.
pub(crate) const PORTABILITY: Run =
    Run::Paper(&["measure", "LAN AFS", "cloud object store"], portability);

fn portability(_smoke: bool) -> Vec<Row> {
    const FILES: usize = 64;
    let data = vec![0x42u8; 256 * 1024];
    let name = |i: usize| format!("f{i:04}");

    let rig = TestRig::default_latency();
    let afs = rig.nexus_fs();
    let write_afs = measure(&afs, || (0..FILES).try_for_each(|i| afs.write_file(&name(i), &data)))
        .expect("afs writes");
    afs.flush_caches();
    let read_afs = measure(&afs, || (0..FILES).try_for_each(|i| afs.read_file(&name(i)).map(drop)))
        .expect("afs reads");

    // The same machine, attestation service and owner; only the service differs.
    let cloud = Arc::new(CloudStore::new(SimClock::new()));
    let (volume, _) =
        NexusVolume::create(&rig.platform, cloud.clone(), &rig.ias, &rig.owner, rig.config)
            .expect("cloud volume");
    volume.authenticate(&rig.owner).expect("auth");
    let timed = |work: &dyn Fn(usize)| {
        let (t0, e0) = (cloud.simulated_time(), volume.enclave().stats().enclave_time());
        (0..FILES).for_each(work);
        (cloud.simulated_time() - t0) + (volume.enclave().stats().enclave_time() - e0)
    };
    let write_cloud = timed(&|i| volume.write_file(&name(i), &data).expect("cloud write"));
    let read_cloud = timed(&|i| drop(volume.read_file(&name(i)).expect("cloud read")));

    let billing = cloud.billing();
    let cloud_only = |measure: &str, cell: Cell| vec![Text(measure.into()), Text(String::new()), cell];
    vec![
        vec![Text("write phase".into()), Secs(write_afs.total()), Secs(write_cloud)],
        vec![Text("read phase".into()), Secs(read_afs.total()), Secs(read_cloud)],
        cloud_only("PUT-class requests", Count(billing.put_requests)),
        cloud_only("GET-class requests", Count(billing.get_requests)),
        cloud_only("LIST requests", Count(billing.list_requests)),
        cloud_only("DELETE requests", Count(billing.delete_requests)),
        cloud_only("ingress", Bytes(billing.ingress_bytes)),
        cloud_only("egress", Bytes(billing.egress_bytes)),
        cloud_only("at list prices", Text(format!("${:.4}", billing.estimated_cost_usd()))),
    ]
}

/// §V-A/§VII-F: N clients — each a full NEXUS enclave on its own machine
/// and its own OS thread — split 64 creates in one shared directory, the
/// worst case for the metadata locks. Asserted: no create is lost. The
/// wall above one client is not deterministic: every create re-reads the
/// one shared dirnode, so the read-modify-write cycles chain in virtual
/// time as the server's flock chains them in operation order (≈ 400 ms at
/// any N when the host runs the threads one after another), and when the
/// threads truly contend every retried `lock` is charged a round trip on
/// top (seconds). (Disjoint directories scale instead: `micro_scale`.)
pub(crate) const CONCURRENCY: Run =
    Run::Paper(&["clients", "simulated wall", "per create", "lost creates"], concurrency);

fn concurrency(_smoke: bool) -> Vec<Row> {
    const CREATES: usize = 64;
    let mut rows = Vec::new();
    for n in [1usize, 2, 4, 8] {
        // The rig's owner and n-1 grantees over one server, all RW on shared/.
        let rig = TestRig::default_latency();
        let (ias, owner) = (&rig.ias, &rig.owner);
        let (server, owner_client, clock) = rig.afs();
        let (owner_volume, _) =
            NexusVolume::create(&rig.platform, owner_client, ias, owner, rig.config).expect("create");
        owner_volume.authenticate(owner).expect("auth");
        owner_volume.mkdir("shared").expect("mkdir");
        let mut volumes = vec![owner_volume];
        for i in 1..n {
            let machine = Platform::seeded(100 + i as u64);
            ias.register_platform(&machine);
            let mut seed = [0u8; 32];
            seed[..8].copy_from_slice(&(0xA000 + i as u64).to_le_bytes());
            let name = format!("user{i}");
            let peer = UserKeys::from_seed(&name, &seed);
            let client = Arc::new(AfsClient::connect(&server, clock.clone(), rig.latency));
            let joiner = VolumeJoiner::new(&machine, client.clone(), ias);
            let sealed_offer = joiner.publish_offer(&peer).expect("offer");
            volumes[0].grant_access(owner, &name, &peer.public_key()).expect("grant");
            volumes[0].set_acl("shared", &name, Rights::RW).expect("acl");
            let sealed =
                joiner.accept_grant(&peer, &owner.public_key(), sealed_offer).expect("accept");
            let volume =
                NexusVolume::mount(&machine, client, ias, &sealed, rig.config).expect("mount");
            volume.authenticate(&peer).expect("peer auth");
            volumes.push(volume);
        }

        let t0 = clock.now();
        let per_client = CREATES / n;
        // Scoped threads are joined, and a panicked one re-raised, at the brace.
        std::thread::scope(|scope| {
            for (c, volume) in volumes.iter().enumerate() {
                scope.spawn(move || {
                    for i in 0..per_client {
                        volume
                            .write_file(&format!("shared/c{c}-f{i:03}"), b"payload")
                            .expect("write");
                    }
                });
            }
        });
        let wall = clock.now() - t0;
        let created = volumes[0].list_dir("shared").expect("list").len();
        assert_eq!(created, CREATES, "\u{a7}V-A: creates lost with {n} clients in one directory");
        rows.push(vec![
            Count(n as u64),
            Secs(wall),
            Secs(wall / CREATES as u32),
            Count((CREATES - created) as u64),
        ]);
    }
    rows
}

/// §V-B ablation: create + delete 2048 files in one directory per dirnode
/// bucket size (evaluation default 128). Tiny buckets pay per-object
/// overheads; huge buckets re-upload large dirnode fractions per create.
pub(crate) const ABLATION_BUCKETS: Run =
    Run::Paper(&["bucket size", "total", "enclave", "metadata bytes/op"], ablation_buckets);

fn ablation_buckets(_smoke: bool) -> Vec<Row> {
    const FILES: usize = 2048;
    let mut rows = Vec::new();
    for bucket_size in [16usize, 64, 128, 512, 4096] {
        let fs = rig_with(NexusConfig { bucket_size, ..Default::default() }).nexus_fs();
        let sample = run_dir_ops(&fs, FILES).expect("dir ops");
        rows.push(vec![
            Count(bucket_size as u64),
            Secs(sample.total()),
            Secs(sample.enclave),
            Bytes(fs.volume().io_stats().bytes_written / (2 * FILES as u64)),
        ]);
    }
    rows
}

/// §VI-A ablation: sequential write + read of a 16 MB file and one 4 KB
/// read from its middle, per chunk size (evaluation default 1 MB). Chunks
/// are the unit of independent encryption: a random read decrypts a whole
/// one, and the filenode holds 28 bytes of context per chunk.
pub(crate) const ABLATION_CHUNKS: Run = Run::Paper(
    &["chunk size", "sequential w+r", "random 4 KB read", "filenode bytes"],
    ablation_chunks,
);

fn ablation_chunks(_smoke: bool) -> Vec<Row> {
    const SIZE: u64 = 16 << 20;
    let mut rows = Vec::new();
    for chunk_kb in [64u64, 256, 1024, 4096, 16384] {
        let chunk_size = (chunk_kb * 1024) as u32;
        let fs = rig_with(NexusConfig { chunk_size, ..Default::default() }).nexus_fs();
        let sequential = run_file_io(&fs, SIZE).expect("file io").combined();
        fs.write_file("random-target", &file_contents(SIZE as usize, 1)).expect("write");
        fs.flush_caches();
        let random = measure(&fs, || {
            assert_eq!(fs.read_range("random-target", SIZE / 2, 4096)?.len(), 4096);
            Ok(())
        })
        .expect("random read");
        rows.push(vec![
            Text(format!("{chunk_kb} KB")),
            Secs(sequential.total()),
            Secs(random.total()),
            Bytes(16 * 3 + 8 + 4 + 4 + 4 + SIZE.div_ceil(chunk_kb * 1024) * 28),
        ]);
    }
    rows
}

/// `nexus-bench paper`: every paper-facing command in one run, and — in a
/// full run — the marked blocks of EXPERIMENTS.md rewritten from the same
/// in-memory tables, the only checked-in copy of any §VII number.
pub(crate) fn record(smoke: bool) {
    let mut tables = Vec::new();
    for (name, artefact, run) in COMMANDS {
        if let Run::Paper(columns, rows) = run {
            tables.push((*name, crate::print_table(name, artefact, columns, *rows, smoke)));
        }
    }
    if smoke {
        println!("smoke run: EXPERIMENTS.md left as recorded");
        return;
    }
    let path = crate::repo_root().join("EXPERIMENTS.md");
    let document = std::fs::read_to_string(&path).expect("EXPERIMENTS.md at the repository root");
    std::fs::write(&path, splice(&document, &tables)).expect("rewrite EXPERIMENTS.md");
    println!("rewrote {} blocks of {}", tables.len(), path.display());
}
