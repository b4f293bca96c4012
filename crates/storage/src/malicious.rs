//! Adversarial storage wrappers for the security evaluation.
//!
//! The paper's threat model (§III-A) gives the attacker complete control of
//! the server: it can read, alter, delete, reorder, replay, or roll back any
//! stored object. [`MaliciousBackend`] wraps any [`StorageBackend`] and
//! mounts those attacks on demand, so tests can assert that NEXUS *detects*
//! each one (confidentiality/integrity are the guarantee; availability is
//! explicitly out of scope).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use nexus_sync::Mutex;

use crate::backend::{IoStats, ObjectStat, StorageBackend, StorageError};

/// Attack switches; all off by default.
#[derive(Debug, Default)]
struct AttackState {
    /// Flip one byte of any object whose path contains the key.
    tamper: Vec<String>,
    /// Serve the oldest recorded version of these paths (rollback attack).
    rollback: Vec<String>,
    /// Serve `1`'s content when `0` is requested (file-swapping attack).
    swap: Vec<(String, String)>,
    /// Silently drop updates to matching paths (fork/hide-update attack).
    drop_updates: Vec<String>,
    /// Answer version probes for these paths with the status recorded when
    /// the attack began (hide-update attack on the probe alone).
    frozen_stat: HashMap<String, ObjectStat>,
    /// Full history of every version ever written, per path.
    history: HashMap<String, Vec<Vec<u8>>>,
    /// Everything the server ever observed: (path, bytes) pairs.
    observations: Vec<(String, Vec<u8>)>,
}

/// A man-in-the-middle/malicious-server wrapper around a backend.
#[derive(Clone)]
pub struct MaliciousBackend<B> {
    inner: Arc<B>,
    state: Arc<Mutex<AttackState>>,
}

impl<B> std::fmt::Debug for MaliciousBackend<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MaliciousBackend { .. }")
    }
}

impl<B: StorageBackend> MaliciousBackend<B> {
    /// Wraps `inner`; behaves identically until an attack is enabled.
    pub fn new(inner: B) -> MaliciousBackend<B> {
        MaliciousBackend { inner: Arc::new(inner), state: Arc::new(Mutex::new(AttackState::default())) }
    }

    /// Starts flipping a byte in every object whose path contains `fragment`.
    pub fn tamper_with(&self, fragment: &str) {
        self.state.lock().tamper.push(fragment.to_string());
    }

    /// Starts serving the oldest version of objects whose path contains
    /// `fragment` (requires the object to have been written through this
    /// wrapper at least once before).
    pub fn rollback(&self, fragment: &str) {
        self.state.lock().rollback.push(fragment.to_string());
    }

    /// Swaps reads: requests for `a` return `b`'s contents and vice versa.
    pub fn swap(&self, a: &str, b: &str) {
        self.state.lock().swap.push((a.to_string(), b.to_string()));
    }

    /// Silently discards future updates to paths containing `fragment`.
    pub fn drop_updates_to(&self, fragment: &str) {
        self.state.lock().drop_updates.push(fragment.to_string());
    }

    /// Starts lying in version probes: `stat` — and `stat_many`, which
    /// answers each slot with `stat` — keeps reporting, for every object
    /// whose path contains `fragment`, the status it has right now, however
    /// often it is rewritten afterwards. Content is served truthfully.
    pub fn freeze_stat(&self, fragment: &str) {
        let now: Vec<(String, ObjectStat)> = self
            .inner
            .list("")
            .into_iter()
            .filter(|path| path.contains(fragment))
            .filter_map(|path| self.inner.stat(&path).ok().map(|stat| (path, stat)))
            .collect();
        self.state.lock().frozen_stat.extend(now);
    }

    /// Clears all active attacks (history is retained).
    pub fn clear_attacks(&self) {
        let mut st = self.state.lock();
        st.tamper.clear();
        st.rollback.clear();
        st.swap.clear();
        st.drop_updates.clear();
        st.frozen_stat.clear();
    }

    /// Everything the "server" has observed flowing past it. For
    /// confidentiality tests: none of this should contain plaintext.
    pub fn observed(&self) -> Vec<(String, Vec<u8>)> {
        self.state.lock().observations.clone()
    }

    /// Number of versions recorded for `path`.
    pub fn version_count(&self, path: &str) -> usize {
        self.state.lock().history.get(path).map(|v| v.len()).unwrap_or(0)
    }

    fn resolve_swap(&self, path: &str) -> String {
        let st = self.state.lock();
        for (a, b) in &st.swap {
            if path == a {
                return b.clone();
            }
            if path == b {
                return a.clone();
            }
        }
        path.to_string()
    }

    fn mangle(&self, path: &str, mut data: Vec<u8>) -> Vec<u8> {
        let st = self.state.lock();
        if st.tamper.iter().any(|frag| path.contains(frag.as_str())) && !data.is_empty() {
            let idx = data.len() / 2;
            data[idx] ^= 0x01;
        }
        if st.rollback.iter().any(|frag| path.contains(frag.as_str())) {
            if let Some(versions) = st.history.get(path) {
                if let Some(oldest) = versions.first() {
                    return oldest.clone();
                }
            }
        }
        data
    }
}

impl<B: StorageBackend> StorageBackend for MaliciousBackend<B> {
    fn put(&self, path: &str, data: &[u8]) -> Result<(), StorageError> {
        {
            let mut st = self.state.lock();
            st.observations.push((path.to_string(), data.to_vec()));
            st.history.entry(path.to_string()).or_default().push(data.to_vec());
            if st.drop_updates.iter().any(|f| path.contains(f.as_str())) {
                // Pretend success; the durable store never changes.
                return Ok(());
            }
        }
        self.inner.put(path, data)
    }

    fn get(&self, path: &str) -> Result<Vec<u8>, StorageError> {
        let effective = self.resolve_swap(path);
        let data = self.inner.get(&effective)?;
        Ok(self.mangle(&effective, data))
    }

    fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>, StorageError> {
        // Serve ranges out of the (possibly mangled) full object so attacks
        // apply uniformly.
        let data = self.get(path)?;
        crate::backend::check_range(path, offset, len, data.len() as u64)?;
        Ok(data[offset as usize..(offset + len) as usize].to_vec())
    }

    fn delete(&self, path: &str) -> Result<(), StorageError> {
        self.inner.delete(path)
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.exists(&self.resolve_swap(path))
    }

    fn stat(&self, path: &str) -> Result<ObjectStat, StorageError> {
        let effective = self.resolve_swap(path);
        if let Some(frozen) = self.state.lock().frozen_stat.get(&effective) {
            return Ok(*frozen);
        }
        let stat = self.inner.stat(&effective)?;
        // A rolling-back server must lie consistently: the status it
        // advertises matches the stale content it serves.
        let st = self.state.lock();
        if st.rollback.iter().any(|frag| effective.contains(frag.as_str())) {
            if let Some(versions) = st.history.get(&effective) {
                if let Some(oldest) = versions.first() {
                    return Ok(ObjectStat { size: oldest.len() as u64, version: 1 });
                }
            }
        }
        Ok(stat)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }

    fn lock(&self, path: &str, owner: u64) -> Result<(), StorageError> {
        self.inner.lock(path, owner)
    }

    fn unlock(&self, path: &str, owner: u64) {
        self.inner.unlock(path, owner)
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn simulated_time(&self) -> Duration {
        self.inner.simulated_time()
    }

    fn audit_storage(&self) -> Vec<String> {
        // Attacks mangle the data plane, not the substrate's own durable
        // form; hiding real corruption would defeat the audit.
        self.inner.audit_storage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemBackend;

    fn setup() -> MaliciousBackend<MemBackend> {
        MaliciousBackend::new(MemBackend::new())
    }

    #[test]
    fn transparent_until_attacked() {
        let m = setup();
        m.put("a", b"hello").unwrap();
        assert_eq!(m.get("a").unwrap(), b"hello");
    }

    #[test]
    fn tampering_flips_a_byte() {
        let m = setup();
        m.put("meta-1", b"hello").unwrap();
        m.tamper_with("meta");
        let got = m.get("meta-1").unwrap();
        assert_ne!(got, b"hello");
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn rollback_serves_oldest_version() {
        let m = setup();
        m.put("f", b"v1").unwrap();
        m.put("f", b"v2").unwrap();
        assert_eq!(m.get("f").unwrap(), b"v2");
        m.rollback("f");
        assert_eq!(m.get("f").unwrap(), b"v1");
        assert_eq!(m.version_count("f"), 2);
    }

    #[test]
    fn swap_crosses_objects() {
        let m = setup();
        m.put("a", b"AAA").unwrap();
        m.put("b", b"BBB").unwrap();
        m.swap("a", "b");
        assert_eq!(m.get("a").unwrap(), b"BBB");
        assert_eq!(m.get("b").unwrap(), b"AAA");
    }

    #[test]
    fn dropped_updates_preserve_old_content() {
        let m = setup();
        m.put("f", b"v1").unwrap();
        m.drop_updates_to("f");
        m.put("f", b"v2").unwrap();
        assert_eq!(m.get("f").unwrap(), b"v1");
    }

    #[test]
    fn frozen_stat_hides_later_writes_from_single_and_batched_probes() {
        let m = setup();
        m.put("f", b"v1").unwrap();
        m.put("g", b"v1").unwrap();
        let before = m.stat("f").unwrap();
        m.freeze_stat("f");
        m.put("f", b"version two").unwrap();
        m.put("g", b"version two").unwrap();
        assert_eq!(m.stat("f").unwrap(), before);
        let batch = m.stat_many(&["f".into(), "g".into()]);
        assert_eq!(batch[0], Ok(before));
        assert_ne!(batch[1], Ok(before), "only matching paths are lied about");
        assert_eq!(m.get("f").unwrap(), b"version two", "content is served truthfully");
        m.clear_attacks();
        assert_ne!(m.stat("f").unwrap(), before);
    }

    #[test]
    fn observations_record_everything() {
        let m = setup();
        m.put("x", b"secret-ciphertext").unwrap();
        let obs = m.observed();
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].0, "x");
    }

    #[test]
    fn clear_attacks_restores_honesty() {
        let m = setup();
        m.put("f", b"v1").unwrap();
        m.put("f", b"v2").unwrap();
        m.rollback("f");
        m.tamper_with("f");
        m.clear_attacks();
        assert_eq!(m.get("f").unwrap(), b"v2");
    }
}
