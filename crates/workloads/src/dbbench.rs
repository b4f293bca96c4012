//! Database workloads (paper Table II).
//!
//! The paper runs the stock `db_bench` tools of LevelDB and SQLite on top
//! of the mounted filesystem; the databases themselves are just I/O pattern
//! generators (16-byte keys, 100-byte values, 4 MB of write buffer). This
//! module reproduces those patterns over a [`BenchFs`]:
//!
//! - [`LevelDbSim`] models an LSM engine: an in-memory memtable flushed to
//!   immutable table files at the write-buffer threshold, a synchronous WAL
//!   for `*sync` modes, and compaction rewrites for random-order fills;
//! - [`SqliteSim`] models a paged B-tree file: the database is a set of
//!   fixed-size page groups; transactions rewrite the journal plus the
//!   groups they touch, and `*sync` modes commit every operation.

use std::collections::HashSet;

use nexus_crypto::rng::{SecureRandom, SeededRandom};

use crate::bench_fs::{measure, BenchFs, Result, Sample};

/// Shared workload parameters (defaults follow the paper: 16 B keys,
/// 100 B values, 4 MB write buffer).
#[derive(Debug, Clone, Copy)]
pub struct DbConfig {
    /// Entries for asynchronous fill/read modes.
    pub entries: usize,
    /// Key size in bytes.
    pub key_size: usize,
    /// Value size in bytes.
    pub value_size: usize,
    /// Memtable / transaction buffer size.
    pub write_buffer: usize,
    /// Operations for synchronous modes (each is a full commit).
    pub sync_ops: usize,
    /// Lookups for `readrandom`.
    pub random_reads: usize,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            entries: 40_000,
            key_size: 16,
            value_size: 100,
            write_buffer: 4 * 1024 * 1024,
            sync_ops: 400,
            random_reads: 2_000,
        }
    }
}

impl DbConfig {
    fn entry_size(&self) -> usize {
        self.key_size + self.value_size
    }
}

/// How a measurement should be reported, mirroring Table II's mixed units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DbMetric {
    /// Payload megabytes per second (higher is better).
    MbPerSec(f64),
    /// Milliseconds per operation (lower is better).
    MsPerOp(f64),
    /// Microseconds per operation (lower is better).
    UsPerOp(f64),
}

impl std::fmt::Display for DbMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbMetric::MbPerSec(v) => write!(f, "{v:.1} MB/s"),
            DbMetric::MsPerOp(v) => write!(f, "{v:.2} ms/op"),
            DbMetric::UsPerOp(v) => write!(f, "{v:.2} \u{b5}s/op"),
        }
    }
}

impl DbMetric {
    /// Overhead of `self` relative to `baseline` expressed as the paper's
    /// ratio column (baseline/nexus for throughput, nexus/baseline for
    /// latency — both ">1 means NEXUS slower").
    pub fn overhead_vs(&self, baseline: &DbMetric) -> f64 {
        match (self, baseline) {
            (DbMetric::MbPerSec(n), DbMetric::MbPerSec(b)) => b / n,
            (DbMetric::MsPerOp(n), DbMetric::MsPerOp(b)) => n / b,
            (DbMetric::UsPerOp(n), DbMetric::UsPerOp(b)) => n / b,
            _ => f64::NAN,
        }
    }
}

/// One benchmark row.
#[derive(Debug, Clone)]
pub struct DbResult {
    /// Operation name as in Table II.
    pub op: &'static str,
    /// Reported metric.
    pub metric: DbMetric,
    /// Raw timing sample.
    pub sample: Sample,
}

impl DbResult {
    /// Overhead of this row over the same row on `baseline`, or `None` when
    /// neither side charged simulated I/O or enclave time: a batch commit
    /// buffers locally, so both metrics are host-timer readings of a
    /// sub-millisecond loop and their ratio is noise, not overhead.
    pub fn overhead_vs(&self, baseline: &DbResult) -> Option<f64> {
        let idle = self.sample.total().is_zero() && baseline.sample.total().is_zero();
        (!idle).then(|| self.metric.overhead_vs(&baseline.metric))
    }
}

fn mb(bytes: u64, sample: &Sample) -> DbMetric {
    // Workload phases that never touch storage (batch commits) are bounded
    // by real memory speed rather than simulated I/O.
    let elapsed = sample.total().max(sample.real);
    DbMetric::MbPerSec(bytes as f64 / 1e6 / elapsed.as_secs_f64().max(1e-9))
}

fn ms_per_op(ops: usize, sample: &Sample) -> DbMetric {
    DbMetric::MsPerOp(sample.total().as_secs_f64() * 1e3 / ops.max(1) as f64)
}

fn us_per_op(ops: usize, sample: &Sample) -> DbMetric {
    DbMetric::UsPerOp(sample.total().as_secs_f64() * 1e6 / ops.max(1) as f64)
}

// ---------------------------------------------------------------------------
// LevelDB-style LSM engine.
// ---------------------------------------------------------------------------

/// LSM-style engine state over a benchmark filesystem.
pub struct LevelDbSim<'f> {
    fs: &'f dyn BenchFs,
    config: DbConfig,
    dir: String,
    sst_count: usize,
    rng: SeededRandom,
    /// OS page-cache model: (file, 1 MB-aligned offset) regions whose
    /// *plaintext* is resident after a prior read. On the real prototype
    /// the kernel page cache holds decrypted data after NEXUS's first
    /// fetch, so repeated block reads are memory-speed for both systems.
    page_cache: HashSet<(String, u64)>,
}

impl<'f> LevelDbSim<'f> {
    /// Creates the database directory.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn create(fs: &'f dyn BenchFs, config: DbConfig, dir: &str) -> Result<LevelDbSim<'f>> {
        fs.mkdir_all(dir)?;
        Ok(LevelDbSim {
            fs,
            config,
            dir: dir.to_string(),
            sst_count: 0,
            rng: SeededRandom::new(0xDB),
            page_cache: HashSet::new(),
        })
    }

    fn flush_sst(&mut self, bytes: usize) -> Result<()> {
        let path = format!("{}/{:06}.ldb", self.dir, self.sst_count);
        self.sst_count += 1;
        self.fs.write_file(&path, &vec![0x55u8; bytes])
    }

    fn fill(&mut self, entries: usize, value_size: usize, compaction_ratio: f64) -> Result<(u64, Sample)> {
        let entry = self.config.key_size + value_size;
        let total = (entries * entry) as u64;
        let per_flush = (self.config.write_buffer / entry).max(1);
        let sample = {
            let fs = self.fs;
            let me = &mut *self;
            measure(fs, move || {
                let mut buffered = 0usize;
                let mut since_compaction = 0usize;
                for _ in 0..entries {
                    buffered += 1;
                    if buffered >= per_flush {
                        me.flush_sst(buffered * entry)?;
                        since_compaction += 1;
                        buffered = 0;
                        // Random-order fills overlap key ranges: every few
                        // flushes, compaction re-reads and rewrites them.
                        if compaction_ratio > 0.0 && since_compaction >= 4 {
                            let rewrite = (4.0 * compaction_ratio).ceil() as usize;
                            for k in 0..rewrite {
                                let victim = me.sst_count.saturating_sub(1 + k);
                                let path = format!("{}/{victim:06}.ldb", me.dir, victim = victim);
                                let data = me.fs.read_file(&path)?;
                                me.fs.write_file(&path, &data)?;
                            }
                            since_compaction = 0;
                        }
                    }
                }
                if buffered > 0 {
                    me.flush_sst(buffered * entry)?;
                }
                Ok(())
            })?
        };
        Ok((total, sample))
    }

    /// `fillseq`: sequential asynchronous fill.
    pub fn fillseq(&mut self) -> Result<DbResult> {
        let (bytes, sample) = self.fill(self.config.entries, self.config.value_size, 0.0)?;
        Ok(DbResult { op: "fillseq", metric: mb(bytes, &sample), sample })
    }

    /// `fillsync`: every write commits through the write-ahead log — the
    /// log file grows by one entry and is flushed (AFS: stored) per op.
    pub fn fillsync(&mut self) -> Result<DbResult> {
        let ops = self.config.sync_ops;
        let entry = self.config.entry_size();
        let fs = self.fs;
        let dir = self.dir.clone();
        let sample = measure(fs, || {
            let mut wal = Vec::new();
            for _ in 0..ops {
                wal.extend_from_slice(&vec![0x77u8; entry]);
                fs.write_file(&format!("{dir}/LOG.wal"), &wal)?;
            }
            Ok(())
        })?;
        Ok(DbResult { op: "fillsync", metric: ms_per_op(ops, &sample), sample })
    }

    /// `fillrandom`: random-order fill with compaction traffic.
    pub fn fillrandom(&mut self) -> Result<DbResult> {
        let (bytes, sample) = self.fill(self.config.entries, self.config.value_size, 0.5)?;
        Ok(DbResult { op: "fillrandom", metric: mb(bytes, &sample), sample })
    }

    /// `overwrite`: random overwrite of the existing key space (heavier
    /// compaction).
    pub fn overwrite(&mut self) -> Result<DbResult> {
        let (bytes, sample) = self.fill(self.config.entries, self.config.value_size, 0.75)?;
        Ok(DbResult { op: "overwrite", metric: mb(bytes, &sample), sample })
    }

    /// `fill100K`: sequential fill of 100 kB values.
    pub fn fill100k(&mut self) -> Result<DbResult> {
        let entries = (self.config.entries / 100).max(8);
        let (bytes, sample) = self.fill(entries, 100_000, 0.0)?;
        Ok(DbResult { op: "fill100K", metric: mb(bytes, &sample), sample })
    }

    fn sst_files(&self) -> Result<Vec<String>> {
        let mut files = self.fs.list_dir(&self.dir)?;
        files.retain(|f| f.ends_with(".ldb"));
        files.sort();
        Ok(files)
    }

    /// `readseq`: scan every table file in order.
    pub fn readseq(&mut self) -> Result<DbResult> {
        self.fs.flush_caches();
        let files = self.sst_files()?;
        let fs = self.fs;
        let dir = self.dir.clone();
        let mut bytes = 0u64;
        let sample = measure(fs, || {
            for f in &files {
                bytes += fs.read_file(&format!("{dir}/{f}"))?.len() as u64;
            }
            Ok(())
        })?;
        // Sequential scans leave decrypted pages resident.
        for f in &files {
            let path = format!("{}/{f}", self.dir);
            let size = self.fs.stat_size(&path)?;
            for region in 0..size.div_ceil(1024 * 1024) {
                self.page_cache.insert((path.clone(), region * 1024 * 1024));
            }
        }
        Ok(DbResult { op: "readseq", metric: mb(bytes, &sample), sample })
    }

    /// `readreverse`: scan table files newest-first.
    pub fn readreverse(&mut self) -> Result<DbResult> {
        self.fs.flush_caches();
        let mut files = self.sst_files()?;
        files.reverse();
        let fs = self.fs;
        let dir = self.dir.clone();
        let mut bytes = 0u64;
        let sample = measure(fs, || {
            for f in &files {
                bytes += fs.read_file(&format!("{dir}/{f}"))?.len() as u64;
            }
            Ok(())
        })?;
        Ok(DbResult { op: "readreverse", metric: mb(bytes, &sample), sample })
    }

    /// `readrandom`: point lookups, one 4 kB block read each, served
    /// through the page-cache model (db_bench runs its read phases against
    /// a database it just wrote/scanned, so most blocks are resident; cold
    /// blocks cost NEXUS a chunk decryption).
    pub fn readrandom(&mut self) -> Result<DbResult> {
        let files = self.sst_files()?;
        if files.is_empty() {
            return Err(crate::bench_fs::WorkloadError("readrandom before fill".into()));
        }
        let ops = self.config.random_reads;
        let picks: Vec<(String, u64)> = (0..ops)
            .map(|_| {
                let f = files[self.rng.usize_below(files.len())].clone();
                (format!("{}/{f}", self.dir), self.rng.u64_below(4096) * 4096)
            })
            .collect();
        let fs = self.fs;
        let page_cache = &mut self.page_cache;
        let sample = measure(fs, || {
            for (path, offset) in &picks {
                let size = fs.stat_size(path)?;
                let off = *offset % size.saturating_sub(4096).max(1);
                let region = (off >> 20) << 20;
                if page_cache.insert((path.clone(), region)) {
                    // Cold region: the OS reads it through the FS (NEXUS
                    // decrypts the covering chunk).
                    let len = (size - region).min(1024 * 1024);
                    let _ = fs.read_range(path, region, len)?;
                }
                // Warm blocks are memory-speed for both systems.
            }
            Ok(())
        })?;
        Ok(DbResult { op: "readrandom", metric: us_per_op(ops, &sample), sample })
    }
}

// ---------------------------------------------------------------------------
// SQLite-style paged engine.
// ---------------------------------------------------------------------------

/// Paged single-database-file engine over a benchmark filesystem.
pub struct SqliteSim<'f> {
    fs: &'f dyn BenchFs,
    config: DbConfig,
    dir: String,
    /// Page-group size (contiguous pages rewritten together on commit).
    group_size: usize,
    groups: usize,
    rng: SeededRandom,
}

impl<'f> SqliteSim<'f> {
    /// Creates the database directory.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn create(fs: &'f dyn BenchFs, config: DbConfig, dir: &str) -> Result<SqliteSim<'f>> {
        fs.mkdir_all(dir)?;
        Ok(SqliteSim {
            fs,
            config,
            dir: dir.to_string(),
            group_size: 256 * 1024,
            groups: 0,
            rng: SeededRandom::new(0x501),
        })
    }

    fn group_path(&self, k: usize) -> String {
        format!("{}/pg-{k:05}", self.dir)
    }

    /// Commit model, following what SQLite actually forces to storage:
    ///
    /// - **batch** transactions (one giant txn): nothing reaches the server
    ///   before close — AFS buffers writes locally, so the measured phase is
    ///   memory-speed for both systems (the paper's 70 MB/s exceeds its
    ///   network bandwidth for exactly this reason);
    /// - **async** per-txn commits flush the dirty 256 kB page groups but
    ///   never the rollback journal (it is deleted before it would sync);
    /// - **sync** commits force the journal plus the dirty 16 kB page run
    ///   out on every operation.
    fn fill(&mut self, entries: usize, per_txn: usize, random: bool) -> Result<(u64, Sample)> {
        let entry = self.config.entry_size();
        let total = (entries * entry) as u64;
        let sample = {
            let fs = self.fs;
            let me = &mut *self;
            measure(fs, move || {
                if per_txn >= entries {
                    // Batch: local buffering only; storage sees it at close.
                    let mut buffer = Vec::with_capacity(total as usize);
                    for i in 0..entries {
                        buffer.extend_from_slice(&[(i % 251) as u8; 8]);
                        buffer.resize((i + 1) * entry, 0x42);
                    }
                    std::hint::black_box(&buffer);
                    return Ok(());
                }
                if per_txn == 1 {
                    // Sync: journal + dirty page run, every operation.
                    const PAGE_RUN: usize = 16 * 1024;
                    for i in 0..entries {
                        fs.write_file(
                            &format!("{}/journal", me.dir),
                            &vec![0x4au8; 512 + entry],
                        )?;
                        let page = if random {
                            me.rng.usize_below(64)
                        } else {
                            (i * entry) / PAGE_RUN % 64
                        };
                        fs.write_file(&format!("{}/run-{page:03}", me.dir), &vec![0x42u8; PAGE_RUN])?;
                    }
                    return Ok(());
                }
                // Async: flush dirty 256 kB groups per transaction.
                let group_size = me.group_size;
                let entries_per_group = (group_size / entry).max(1);
                let mut done = 0usize;
                while done < entries {
                    let txn = per_txn.min(entries - done);
                    done += txn;
                    let span = txn.div_ceil(entries_per_group).max(1);
                    let groups: Vec<usize> = if random {
                        let hi = (done / entries_per_group).max(1);
                        (0..span).map(|_| me.rng.usize_below(hi)).collect()
                    } else {
                        let first = (done - txn) / entries_per_group;
                        (first..first + span).collect()
                    };
                    for &group in &groups {
                        me.groups = me.groups.max(group + 1);
                        fs.write_file(&me.group_path(group), &vec![0x42u8; group_size])?;
                    }
                }
                Ok(())
            })?
        };
        Ok((total, sample))
    }

    /// `fillseq`: sequential inserts, default transaction batching.
    pub fn fillseq(&mut self) -> Result<DbResult> {
        let (bytes, sample) = self.fill(self.config.entries, 1000, false)?;
        Ok(DbResult { op: "fillseq", metric: mb(bytes, &sample), sample })
    }

    /// `fillseqsync`: one insert per committed transaction.
    pub fn fillseqsync(&mut self) -> Result<DbResult> {
        let ops = self.config.sync_ops;
        let (_, sample) = self.fill(ops, 1, false)?;
        Ok(DbResult { op: "fillseqsync", metric: ms_per_op(ops, &sample), sample })
    }

    /// `fillseqbatch`: one giant transaction.
    pub fn fillseqbatch(&mut self) -> Result<DbResult> {
        let (bytes, sample) = self.fill(self.config.entries, self.config.entries, false)?;
        Ok(DbResult { op: "fillseqbatch", metric: mb(bytes, &sample), sample })
    }

    /// `fillrandom`: random page groups, default batching.
    pub fn fillrandom(&mut self) -> Result<DbResult> {
        let (bytes, sample) = self.fill(self.config.entries, 1000, true)?;
        Ok(DbResult { op: "fillrandom", metric: mb(bytes, &sample), sample })
    }

    /// `fillrandsync`: random pages, one insert per commit.
    pub fn fillrandsync(&mut self) -> Result<DbResult> {
        let ops = self.config.sync_ops;
        let (_, sample) = self.fill(ops, 1, true)?;
        Ok(DbResult { op: "fillrandsync", metric: ms_per_op(ops, &sample), sample })
    }

    /// `fillrandbatch`: random pages, one giant transaction.
    pub fn fillrandbatch(&mut self) -> Result<DbResult> {
        let (bytes, sample) = self.fill(self.config.entries, self.config.entries, true)?;
        Ok(DbResult { op: "fillrandbatch", metric: mb(bytes, &sample), sample })
    }

    /// `overwrite`: random rewrites of the existing key space.
    pub fn overwrite(&mut self) -> Result<DbResult> {
        let (bytes, sample) = self.fill(self.config.entries, 1000, true)?;
        Ok(DbResult { op: "overwrite", metric: mb(bytes, &sample), sample })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::TestRig;

    fn tiny() -> DbConfig {
        DbConfig { entries: 2_000, sync_ops: 20, random_reads: 50, ..Default::default() }
    }

    #[test]
    fn leveldb_all_ops_run_on_nexus() {
        let rig = TestRig::fast();
        let fs = rig.nexus_fs();
        let mut db = LevelDbSim::create(&fs, tiny(), "ldb").unwrap();
        db.fillseq().unwrap();
        db.fillsync().unwrap();
        db.fillrandom().unwrap();
        db.overwrite().unwrap();
        db.readseq().unwrap();
        db.readreverse().unwrap();
        db.readrandom().unwrap();
        db.fill100k().unwrap();
    }

    #[test]
    fn sqlite_all_ops_run_on_baseline() {
        let rig = TestRig::fast();
        let fs = rig.plain_afs();
        let mut db = SqliteSim::create(&fs, tiny(), "sq").unwrap();
        db.fillseq().unwrap();
        db.fillseqsync().unwrap();
        db.fillseqbatch().unwrap();
        db.fillrandom().unwrap();
        db.fillrandsync().unwrap();
        db.fillrandbatch().unwrap();
        db.overwrite().unwrap();
    }

    #[test]
    fn sync_ops_cost_more_per_op_than_batched() {
        let rig = TestRig::default_latency();
        let fs = rig.plain_afs();
        let mut db = SqliteSim::create(&fs, tiny(), "sq").unwrap();
        let batch = db.fillseqbatch().unwrap();
        let sync = db.fillseqsync().unwrap();
        let batch_per_op = batch.sample.total().as_secs_f64() / 2_000.0;
        let sync_per_op = sync.sample.total().as_secs_f64() / 20.0;
        assert!(sync_per_op > batch_per_op * 5.0);
    }

    #[test]
    fn rows_without_storage_io_report_no_overhead() {
        let rig = TestRig::default_latency();
        let (afs, nexus) = (rig.plain_afs(), rig.nexus_fs());
        let mut base = SqliteSim::create(&afs, tiny(), "sq").unwrap();
        let mut ours = SqliteSim::create(&nexus, tiny(), "sq").unwrap();
        for (b, n) in [
            (base.fillseqbatch().unwrap(), ours.fillseqbatch().unwrap()),
            (base.fillrandbatch().unwrap(), ours.fillrandbatch().unwrap()),
        ] {
            assert!(b.sample.total().is_zero() && n.sample.total().is_zero(), "{}", b.op);
            assert_eq!(n.overhead_vs(&b), None, "{}: a ratio of two host timers", b.op);
        }
        let (b, n) = (base.fillseqsync().unwrap(), ours.fillseqsync().unwrap());
        assert!(n.overhead_vs(&b).unwrap() > 1.0);
    }

    #[test]
    fn metric_overhead_math() {
        let a = DbMetric::MbPerSec(10.0);
        let b = DbMetric::MbPerSec(5.0);
        assert!((b.overhead_vs(&a) - 2.0).abs() < 1e-9);
        let x = DbMetric::MsPerOp(4.0);
        let y = DbMetric::MsPerOp(2.0);
        assert!((x.overhead_vs(&y) - 2.0).abs() < 1e-9);
    }
}
