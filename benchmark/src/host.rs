//! What the benchmark learns about the machine and its own process:
//! `/proc` readings, the host record written into every output, and the
//! temp directory that is removed however the run ends.

use std::path::{Path, PathBuf};

use crate::json::Json;

fn proc_field(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> u64 {
    proc_field("/proc/self/status", "VmHWM:").unwrap_or(0)
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const PROCESS_CPU_CLOCK: i32 = 2;

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const THREAD_CPU_CLOCK: i32 = 3;

fn clock_ns(clock: i32) -> u64 {
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `time` is a live, writable `timespec` (two 64-bit fields on
    // every 64-bit Linux target, the only ones `/proc` above exists on),
    // and `clock_gettime` writes nothing else.
    let status = unsafe { clock_gettime(clock, &mut time) };
    if status != 0 {
        return 0;
    }
    time.sec as u64 * 1_000_000_000 + time.nsec as u64
}

/// Time this process's threads, ended ones too, have spent on a core, in
/// nanoseconds. The kernel keeps it per thread from the scheduler's clock,
/// which leaves out what the hypervisor gave to another tenant, so unlike
/// wall time it does not grow while the sandbox's core is taken away
/// (README, "Steadiness"). A quarter of a microsecond a reading here. 0
/// where the clock is missing.
pub fn cpu_ns() -> u64 {
    clock_ns(PROCESS_CPU_CLOCK)
}

/// `cpu_ns` of the calling thread alone.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(THREAD_CPU_CLOCK)
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, dir, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(dir).then(|| (dir.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// The commit checked out in the working directory, read from `.git`
/// without running anything; `"unknown"` outside a repository.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => {
            std::fs::read_to_string(Path::new(".git").join(reference)).unwrap_or_default()
        }
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.to_string()
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Threads the many-client executor runs on, and workers the program's
/// chunk-crypto pool gets (`NEXUS_THREADS`, which `main` sets before the
/// pool's first use). One of each: the sandbox's cores are shared with
/// other tenants, so two runnable threads finish when the slower core
/// does, and the driver's ten runs of `bulk_mem` with two pool workers
/// spread `ops_per_s` by 0.32 of its median (README, "Steadiness"). What
/// a second worker would add is `pool.dispatch_us`'s to say.
pub const THREADS: usize = 1;

/// The record that says which numbers are comparable: runs whose `nproc`
/// or crypto backend differ are not.
pub fn record(tmp: &Path, seed: u64) -> Json {
    Json::obj([
        ("nproc", Json::Int(nproc() as i64)),
        (
            "crypto_backend",
            Json::str(format!("{:?}", nexus_crypto::cpu::constant_time_backend())),
        ),
        (
            "pool_workers",
            Json::Int(nexus_pool::global().workers() as i64),
        ),
        ("exec_threads", Json::Int(THREADS as i64)),
        ("git_revision", Json::str(git_revision())),
        ("rustc", Json::str(rustc_version())),
        ("tmp", Json::str(tmp.display().to_string())),
        ("tmp_fs", Json::str(fs_type(tmp))),
        ("seed", Json::Int(seed as i64)),
    ])
}

/// The benchmark's own directory (`benchmark/`), where `out/` lives.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// `<tmp>/nexus-benchmark-<pid>/`, removed when dropped — on success, on
/// failure and on unwind.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates the directory under `tmp`.
    pub fn create(tmp: &Path) -> std::io::Result<TempDir> {
        let dir = tmp.join(format!("nexus-benchmark-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    /// Its path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Nothing useful can be done about a failed clean-up here.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
