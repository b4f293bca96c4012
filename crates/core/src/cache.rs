//! The in-enclave metadata cache: shared, immutable decrypted nodes.
//!
//! Every access happens inside an ecall, under the enclave's one `&mut`
//! state borrow, so the cache is a plain map owned by
//! [`crate::enclave::Mounted`]. It hands out `Arc`s: a hit is a reference
//! count bump, never a copy of the directory's entries, and a mutation
//! copies what it changes (`Arc::make_mut` on the main node and on the one
//! bucket it touches) before the committed node replaces the cached one.
//!
//! The cache is also where EPC is accounted: an entry is charged the
//! plaintext body bytes it retains (main object plus loaded buckets, each
//! with its name table) when it is inserted or grows, and released when it
//! is replaced or removed.

use std::collections::HashMap;
use std::sync::Arc;

use nexus_sgx::EnclaveEnv;

use crate::enclave::CachedNode;
use crate::metadata::dirnode::{Bucket, BucketRef};
use crate::uuid::NexusUuid;

#[derive(Debug)]
struct Entry {
    node: CachedNode,
    /// Storage version of the main object the node was decoded from.
    storage_version: u64,
    /// Bytes charged to the EPC ledger for this entry.
    epc_bytes: usize,
}

/// Map from object UUID to (decrypted node, storage version).
#[derive(Debug, Default)]
pub(crate) struct MetaCache {
    map: HashMap<NexusUuid, Entry>,
}

impl MetaCache {
    /// The cached node (shared, not copied) and the storage version it came
    /// from.
    pub(crate) fn get(&self, uuid: &NexusUuid) -> Option<(CachedNode, u64)> {
        self.map.get(uuid).map(|e| (e.node.clone(), e.storage_version))
    }

    /// Inserts (or replaces) the cached node for `uuid`, which retains
    /// `epc_bytes` of decrypted body.
    pub(crate) fn insert(
        &mut self,
        env: &EnclaveEnv<'_>,
        uuid: NexusUuid,
        node: CachedNode,
        storage_version: u64,
        epc_bytes: usize,
    ) {
        env.epc_alloc(epc_bytes);
        if let Some(old) = self.map.insert(uuid, Entry { node, storage_version, epc_bytes }) {
            env.epc_free(old.epc_bytes);
        }
    }

    /// Drops `uuid` from the cache (deletion, staleness).
    pub(crate) fn remove(&mut self, env: &EnclaveEnv<'_>, uuid: &NexusUuid) {
        if let Some(old) = self.map.remove(uuid) {
            env.epc_free(old.epc_bytes);
        }
    }

    /// Keeps a bucket a reader loaded lazily: stores it in slot `idx` of the
    /// cached dirnode `dir` iff that slot is still unloaded and references
    /// the very bucket version the reader verified (`re`: uuid + MAC). The
    /// cached main object is only ever served after its storage version was
    /// probed, and it binds each bucket by MAC, so a bucket matching that
    /// MAC is exactly what the next reader would fetch and verify again.
    pub(crate) fn write_back_bucket(
        &mut self,
        env: &EnclaveEnv<'_>,
        dir: &NexusUuid,
        idx: usize,
        re: &BucketRef,
        bucket: &Arc<Bucket>,
    ) {
        let Some(entry) = self.map.get_mut(dir) else { return };
        let CachedNode::Dir(cached) = &mut entry.node else { return };
        match cached.buckets.get(idx) {
            Some(slot) if slot.bucket.is_none() && slot.re == *re => {}
            _ => return,
        }
        Arc::make_mut(cached).buckets[idx].bucket = Some(bucket.clone());
        entry.epc_bytes += bucket.epc_bytes();
        env.epc_alloc(bucket.epc_bytes());
    }

    /// Every cached node (for the ledger tests).
    #[cfg(test)]
    pub(crate) fn nodes(&self) -> impl Iterator<Item = &CachedNode> {
        self.map.values().map(|e| &e.node)
    }

    /// Every cached uuid with the storage version its entry holds (for the
    /// version oracle test).
    #[cfg(test)]
    pub(crate) fn versions(&self) -> impl Iterator<Item = (NexusUuid, u64)> + '_ {
        self.map.iter().map(|(uuid, e)| (*uuid, e.storage_version))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::dirnode::{slots_for, DirEntry, Dirnode, EntryKind};
    use nexus_sgx::{Enclave, EnclaveImage, Platform};

    fn enclave() -> Enclave<MetaCache> {
        Enclave::create(&Platform::seeded(7), &EnclaveImage::new(b"cache-test".to_vec()), MetaCache::default())
    }

    fn uuid(n: u8) -> NexusUuid {
        NexusUuid([n; 16])
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let e = enclave();
        e.ecall(|cache, env| {
            assert!(cache.get(&uuid(3)).is_none());
            let dir = Arc::new(Dirnode::new(uuid(3), NexusUuid::NIL, 8));
            cache.insert(env, uuid(3), CachedNode::Dir(dir.clone()), 42, 100);
            let (node, ver) = cache.get(&uuid(3)).expect("cached");
            assert_eq!(ver, 42);
            assert!(matches!(node, CachedNode::Dir(d) if Arc::ptr_eq(&d, &dir)), "a hit shares");
            // Replacing releases what the old entry was charged.
            cache.insert(env, uuid(3), CachedNode::Dir(dir), 43, 60);
            cache.remove(env, &uuid(3));
            cache.remove(env, &uuid(3));
            assert!(cache.get(&uuid(3)).is_none());
        });
        assert_eq!(e.epc().current(), 0);
        assert_eq!(e.epc().peak(), 160, "the new node exists before the old one goes");
    }

    #[test]
    fn write_back_needs_an_unloaded_slot_with_the_same_ref() {
        // A two-bucket directory as a reader gets it from `decode_main`.
        let mut full = Dirnode::new(uuid(1), NexusUuid::NIL, 1);
        for (i, name) in ["a", "b"].into_iter().enumerate() {
            let entry = DirEntry { name: name.into(), uuid: uuid(10 + i as u8), kind: EntryKind::File };
            full.insert(entry, uuid(20 + i as u8)).unwrap();
            full.buckets[i].re.mac = [i as u8 + 1; 32];
        }
        let main = full.encode_main();
        let unloaded = Dirnode::decode_main(uuid(1), NexusUuid::NIL, &main).unwrap();
        let bucket = |i: usize| full.buckets[i].bucket.clone().unwrap();
        let e = enclave();
        e.ecall(|cache, env| {
            let loaded = |cache: &MetaCache| match cache.get(&uuid(1)) {
                Some((CachedNode::Dir(d), _)) => {
                    d.buckets.iter().map(|s| s.bucket.is_some()).collect::<Vec<_>>()
                }
                _ => panic!("dirnode is cached"),
            };
            cache.insert(env, uuid(1), CachedNode::Dir(Arc::new(unloaded)), 1, main.len());
            // A bucket verified against another version of the directory.
            let mut stale = full.buckets[0].re;
            stale.mac = [9; 32];
            cache.write_back_bucket(env, &uuid(1), 0, &stale, &bucket(0));
            // The right bucket for slot 1, offered for slot 0; no such slot;
            // no such directory.
            cache.write_back_bucket(env, &uuid(1), 0, &full.buckets[1].re, &bucket(1));
            cache.write_back_bucket(env, &uuid(1), 2, &full.buckets[1].re, &bucket(1));
            cache.write_back_bucket(env, &uuid(2), 0, &full.buckets[0].re, &bucket(0));
            assert_eq!(loaded(cache), vec![false, false]);
            assert_eq!(e.epc().current(), main.len());

            cache.write_back_bucket(env, &uuid(1), 1, &full.buckets[1].re, &bucket(1));
            assert_eq!(loaded(cache), vec![false, true]);
            // A second offer for a loaded slot changes (and charges) nothing.
            cache.write_back_bucket(env, &uuid(1), 1, &full.buckets[1].re, &bucket(1));
            assert_eq!(e.epc().current(), main.len() + bucket(1).epc_bytes());
            let table = 4 * slots_for(1);
            assert_eq!(bucket(1).epc_bytes(), bucket(1).as_bytes().len() + table, "body + table");
            cache.remove(env, &uuid(1));
            assert_eq!(e.epc().current(), 0);
        });
    }
}
