//! Async front end for the crypto-fs layer (DESIGN.md §15).
//!
//! [`AsyncVolume`] lifts a mounted [`NexusVolume`] onto the `nexus-exec`
//! executor. The volume's operations stay synchronous (one ecall
//! sequence that charges its RPC costs to the client's [`ClockLane`] as
//! it goes), and what makes them *async* is ordering — before each
//! operation the adapter parks its task in the executor's reactor at
//! the lane's local time, so thousands of full enclave clients (seal and
//! open, `MetaCommit` group commits, freshness checks, batched
//! `get_many` fetch→decrypt reads) execute in global issue-time order
//! while their costs overlap in simulated time.
//!
//! ## Lane-charging rules
//!
//! Two kinds of time flow through an fs operation:
//!
//! - **RPC time** is charged by the storage simulator itself: every
//!   backend call an ecall makes (metadata fetches, the one-RPC
//!   `MetaCommit` batch, chunk reads) advances the lane by its modelled
//!   cost. Nothing here touches it.
//! - **CPU crypto time** (AES-GCM seal/open, metadata re-seal, enclave
//!   transitions) is *not* observable on the lane — the enclave runs on
//!   the real CPU, and its wall-clock varies run to run. Charging the
//!   measured `enclave_nanos` would make virtual time nondeterministic,
//!   so the adapter charges a *modelled* cost instead: a per-operation
//!   ecall overhead plus plaintext bytes over a calibrated in-enclave
//!   AES-GCM bandwidth ([`CryptoCost`]). Every world of the scale
//!   harness drives its clients through this adapter, so makespans stay
//!   world-independent and honest about where CPU time goes.
//!
//! All methods take `&self`; the adapter is cheap to clone and the
//! futures it returns are `Send`, so one client is one spawned future.

use std::sync::Arc;
use std::time::Duration;

use nexus_exec::Timer;
use nexus_storage::ClockLane;

use crate::acl::Rights;
use crate::fsops::{DirRow, LookupInfo};
use crate::volume::NexusVolume;
use crate::Result;

/// Deterministic model of in-enclave CPU cost for one fs operation.
///
/// Virtual time must be a pure function of the workload, not of the
/// host's scheduler — so the lane is charged this *model* of the crypto
/// work, never the measured ecall wall-clock (which the enclave still
/// accumulates separately in its `stats()` for real-time reporting).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CryptoCost {
    /// Fixed cost per fs operation: enclave transitions plus metadata
    /// seal/open of the touched dirnodes/filenodes.
    pub op_overhead: Duration,
    /// In-enclave AES-GCM throughput for file contents, bytes/second.
    pub bytes_per_sec: u64,
}

impl CryptoCost {
    /// Model constants at the paper's testbed scale: ~20 µs of enclave
    /// transition + metadata crypto per operation, and ~160 MB/s
    /// in-enclave AES-GCM on file payloads. Not a measurement of this
    /// crate's engine (EXPERIMENTS.md, Methodology).
    pub fn paper_calibrated() -> CryptoCost {
        CryptoCost { op_overhead: Duration::from_micros(20), bytes_per_sec: 160_000_000 }
    }

    /// The modelled CPU cost of one operation that moved `bytes` of
    /// plaintext through the enclave's data path.
    pub fn op_cost(&self, bytes: usize) -> Duration {
        let bw = self.bytes_per_sec.max(1);
        self.op_overhead + Duration::from_nanos((bytes as u64).saturating_mul(1_000_000_000) / bw)
    }

    /// Charges one operation's modelled cost to `lane`. [`AsyncVolume`]
    /// is the one caller outside oracles in tests, so lane arithmetic is
    /// identical wherever a volume is driven from.
    pub fn charge(&self, lane: &ClockLane, bytes: usize) {
        lane.advance(self.op_cost(bytes));
    }
}

/// A mounted NEXUS volume as an async client on the `nexus-exec` reactor.
pub struct AsyncVolume {
    volume: Arc<NexusVolume>,
    lane: ClockLane,
    timer: Timer,
    crypto: CryptoCost,
}

impl Clone for AsyncVolume {
    fn clone(&self) -> Self {
        AsyncVolume {
            volume: self.volume.clone(),
            lane: self.lane.clone(),
            timer: self.timer.clone(),
            crypto: self.crypto,
        }
    }
}

impl AsyncVolume {
    /// Wraps a mounted, authenticated volume whose backend charges RPC
    /// time to `lane`; each operation parks on `timer` at the lane's
    /// local time and then charges `crypto`'s modelled CPU cost.
    pub fn new(
        volume: Arc<NexusVolume>,
        lane: ClockLane,
        timer: Timer,
        crypto: CryptoCost,
    ) -> AsyncVolume {
        AsyncVolume { volume, lane, timer, crypto }
    }

    /// The wrapped synchronous volume.
    pub fn volume(&self) -> &Arc<NexusVolume> {
        &self.volume
    }

    /// The lane fs costs are charged to.
    pub fn lane(&self) -> &ClockLane {
        &self.lane
    }

    /// This client's lane-local virtual time.
    pub fn local_now(&self) -> Duration {
        self.lane.local_now()
    }

    /// Parks until every operation issued earlier (on any client) has
    /// executed, then returns with the task ordered at this lane's time.
    async fn turn(&self) {
        self.timer.schedule_at(self.lane.local_now()).await;
    }

    /// Parks until `arrival`, raising the lane there — the open-loop
    /// arrival primitive. A client still busy at `arrival` parks at its
    /// own lane time instead, and the lane is never lowered.
    pub async fn begin_at(&self, arrival: Duration) {
        let at = arrival.max(self.lane.local_now());
        self.timer.schedule_at(at).await;
        self.lane.raise_to(arrival);
    }

    /// Async whole-file write: the same single enclave call as
    /// [`NexusVolume::write_file`] (walk, chunk seal, one `MetaCommit`
    /// that also creates the file if it is absent), so the modelled seal
    /// cost is charged once per op; the lane pays the RPCs as they happen.
    pub async fn write_file(&self, path: &str, data: &[u8]) -> Result<()> {
        self.turn().await;
        let r = self.volume.write_file(path, data);
        self.crypto.charge(&self.lane, data.len());
        r
    }

    /// Async whole-file read: fetch → decrypt, modelled open cost on the
    /// plaintext actually produced.
    pub async fn read_file(&self, path: &str) -> Result<Vec<u8>> {
        self.turn().await;
        let r = self.volume.read_file(path);
        let bytes = r.as_ref().map(|d| d.len()).unwrap_or(0);
        self.crypto.charge(&self.lane, bytes);
        r
    }

    /// Async bulk read: all misses fetched in one batched `get_many`
    /// RPC, then decrypted; one op overhead plus the summed payload.
    pub async fn read_files(&self, paths: &[String]) -> Result<Vec<Vec<u8>>> {
        self.turn().await;
        let refs: Vec<&str> = paths.iter().map(String::as_str).collect();
        let r = self.volume.read_files(&refs);
        let bytes = r.as_ref().map(|vs| vs.iter().map(Vec::len).sum()).unwrap_or(0);
        self.crypto.charge(&self.lane, bytes);
        r
    }

    /// Async ranged read.
    pub async fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.turn().await;
        let r = self.volume.read_range(path, offset, len);
        let bytes = r.as_ref().map(|d| d.len()).unwrap_or(0);
        self.crypto.charge(&self.lane, bytes);
        r
    }

    /// Async directory create.
    pub async fn mkdir(&self, path: &str) -> Result<()> {
        self.turn().await;
        let r = self.volume.mkdir(path);
        self.crypto.charge(&self.lane, 0);
        r
    }

    /// Async metadata lookup (freshness-checked against the store).
    pub async fn lookup(&self, path: &str) -> Result<LookupInfo> {
        self.turn().await;
        let r = self.volume.lookup(path);
        self.crypto.charge(&self.lane, 0);
        r
    }

    /// Async directory listing.
    pub async fn list_dir(&self, path: &str) -> Result<Vec<DirRow>> {
        self.turn().await;
        let r = self.volume.list_dir(path);
        self.crypto.charge(&self.lane, 0);
        r
    }

    /// Async remove.
    pub async fn remove(&self, path: &str) -> Result<()> {
        self.turn().await;
        let r = self.volume.remove(path);
        self.crypto.charge(&self.lane, 0);
        r
    }

    /// Async rename.
    pub async fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.turn().await;
        let r = self.volume.rename(from, to);
        self.crypto.charge(&self.lane, 0);
        r
    }

    /// Async ACL update (the churn op: dirnode re-seal + commit).
    pub async fn set_acl(&self, path: &str, user_name: &str, rights: Rights) -> Result<()> {
        self.turn().await;
        let r = self.volume.set_acl(path, user_name, rights);
        self.crypto.charge(&self.lane, 0);
        r
    }

    /// Async per-directory ACL revocation.
    pub async fn revoke_acl(&self, path: &str, user_name: &str) -> Result<()> {
        self.turn().await;
        let r = self.volume.revoke_acl(path, user_name);
        self.crypto.charge(&self.lane, 0);
        r
    }

    /// Async group-ACL grant (one entry covers the whole membership).
    pub async fn set_group_acl(&self, path: &str, group: &str, rights: Rights) -> Result<()> {
        self.turn().await;
        let r = self.volume.set_group_acl(path, group, rights);
        self.crypto.charge(&self.lane, 0);
        r
    }

    /// Async batched group grant: one supernode write for the whole batch.
    pub async fn add_group_members(&self, group: &str, users: &[&str]) -> Result<usize> {
        self.turn().await;
        let r = self.volume.add_group_members(group, users);
        self.crypto.charge(&self.lane, 0);
        r
    }

    /// Async batched group revocation: membership removal plus the epoch
    /// bump in one supernode write.
    pub async fn remove_group_members(&self, group: &str, users: &[&str]) -> Result<usize> {
        self.turn().await;
        let r = self.volume.remove_group_members(group, users);
        self.crypto.charge(&self.lane, 0);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crypto_cost_is_linear_in_bytes() {
        let c = CryptoCost::paper_calibrated();
        assert_eq!(c.op_cost(0), c.op_overhead);
        let one_mib = c.op_cost(1 << 20) - c.op_overhead;
        let two_mib = c.op_cost(2 << 20) - c.op_overhead;
        assert!(two_mib >= one_mib * 2 - Duration::from_nanos(2));
        assert!(two_mib <= one_mib * 2 + Duration::from_nanos(2));
        // ~160 MB/s: 1 MiB costs ~6.6 ms.
        assert!(one_mib > Duration::from_millis(6) && one_mib < Duration::from_millis(7));
    }

    /// A ranged read is the volume's, charged for the bytes it produced —
    /// and a range beyond eof, overflowing ones included, is an error that
    /// costs one op overhead and leaves the client serving the next call.
    #[test]
    fn read_range_serves_ranges_and_refuses_overflowing_ones() {
        use nexus_exec::Executor;
        use nexus_sgx::{AttestationService, Platform};
        use nexus_storage::{MemBackend, SimClock};

        use crate::{NexusConfig, UserKeys};

        let platform = Platform::seeded(7);
        let ias = AttestationService::new();
        ias.register_platform(&platform);
        let owner = UserKeys::from_seed("owen", &[1u8; 32]);
        let config = NexusConfig { chunk_size: 1024, ..Default::default() };
        let backend = Arc::new(MemBackend::new());
        let (volume, _) = NexusVolume::create(&platform, backend, &ias, &owner, config).unwrap();
        volume.authenticate(&owner).unwrap();
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        volume.write_file("big.bin", &data).unwrap();

        let clock = SimClock::new();
        let exec = Executor::single(clock.clone());
        let cost = CryptoCost { op_overhead: Duration::from_micros(20), bytes_per_sec: 1_000_000 };
        let client = AsyncVolume::new(Arc::new(volume), clock.lane(), exec.timer(), cost);
        let task = {
            let client = client.clone();
            exec.spawn(async move {
                let hit = client.read_range("big.bin", 1000, 100).await;
                let after_hit = client.local_now();
                let mut refused = Vec::new();
                for (offset, len) in [(4999, 2), (u64::MAX, 2), (4000, u64::MAX - 10)] {
                    refused.push(client.read_range("big.bin", offset, len).await);
                }
                let after_refusals = client.local_now();
                let last = client.read_range("big.bin", 4999, 1).await;
                (hit, after_hit, refused, after_refusals, last)
            })
        };
        exec.run_until_idle();
        let (hit, after_hit, refused, after_refusals, last) = task.try_take().expect("task ran");
        assert_eq!(hit.unwrap(), data[1000..1100]);
        assert_eq!(after_hit, cost.op_cost(100));
        for r in refused {
            assert!(r.unwrap_err().to_string().contains("beyond eof"));
        }
        assert_eq!(after_refusals - after_hit, cost.op_overhead * 3);
        assert_eq!(last.unwrap(), data[4999..]);
    }
}
