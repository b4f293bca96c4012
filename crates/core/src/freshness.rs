//! Volume-wide rollback protection (paper §VI-C, implemented future work).
//!
//! Per-object version numbers only protect objects a client has already
//! seen; a forking server can still serve stale-but-authentic objects the
//! client never loaded. This module closes that gap with a **freshness
//! manifest**: one additional metadata object mapping every metadata UUID
//! to the SHA-256 of its current sealed blob, committed by a Merkle root
//! ([`crate::merkle`]) and anchored to an enclave monotonic counter.
//!
//! - Every metadata *load* verifies the fetched blob against the manifest.
//! - Every metadata *store* updates the manifest and re-uploads it.
//! - The manifest itself is rollback-checked through the per-session
//!   version table plus the enclave monotonic counter.
//!
//! The cost is exactly what the paper predicted when deferring this
//! feature: every metadata write pays an extra manifest write that grows
//! with volume size, and writers serialize on the manifest. The
//! `ablation_rollback` benchmark quantifies it. Enable with
//! [`crate::NexusConfig::merkle_freshness`] at volume creation.

use std::collections::BTreeMap;

use nexus_crypto::sha2::Sha256;

use crate::enclave::{next_version, EnclaveState, MetaIo};
use crate::error::{NexusError, Result};
use crate::merkle::MerkleTree;
use crate::metadata::crypto::{open_object_with, seal_object_with, ObjectKind, Preamble};
use crate::uuid::NexusUuid;
use crate::wire::{Reader, Writer};

/// In-enclave manifest state for a mounted volume.
#[derive(Debug, Clone)]
pub(crate) struct ManifestState {
    /// uuid → SHA-256 of the object's current sealed blob.
    pub(crate) entries: BTreeMap<NexusUuid, [u8; 32]>,
    /// Storage version the cached manifest was loaded at.
    pub(crate) storage_version: u64,
}

impl ManifestState {
    /// The Merkle root committing to the entire volume's metadata.
    pub(crate) fn root(&self) -> [u8; 32] {
        MerkleTree::build(self.entries.iter().map(|(u, h)| (*u, *h))).root()
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(self.entries.len() as u32);
        for (uuid, hash) in &self.entries {
            w.uuid(uuid).raw(hash);
        }
        // The Merkle root is stored for cheap cross-checks and logging.
        w.raw(&self.root());
        w.into_bytes()
    }

    fn decode(storage_version: u64, bytes: &[u8]) -> Result<ManifestState> {
        let mut r = Reader::new(bytes);
        let count = r.u32()? as usize;
        if count > 50_000_000 {
            return Err(NexusError::Malformed("absurd manifest size".into()));
        }
        let mut entries = BTreeMap::new();
        for _ in 0..count {
            let u = r.uuid()?;
            let h = r.array::<32>()?;
            entries.insert(u, h);
        }
        let stored_root = r.array::<32>()?;
        r.finish()?;
        let state = ManifestState { entries, storage_version };
        if state.root() != stored_root {
            return Err(NexusError::Integrity("manifest root mismatch".into()));
        }
        Ok(state)
    }
}

/// Monotonic-counter id for a manifest (anchors its version in hardware).
fn counter_id(uuid: &NexusUuid) -> u64 {
    u64::from_le_bytes(uuid.0[..8].try_into().unwrap())
}

/// The volume's manifest UUID, when freshness protection is active.
fn manifest_uuid(state: &mut EnclaveState) -> Result<Option<NexusUuid>> {
    let mounted = state.mounted()?;
    let uuid = mounted.supernode.manifest_uuid;
    Ok(if uuid.is_nil() { None } else { Some(uuid) })
}

/// Loads (or revalidates) the manifest, enforcing its own freshness.
pub(crate) fn ensure_manifest_current(state: &mut EnclaveState, io: &MetaIo<'_>) -> Result<()> {
    let Some(uuid) = manifest_uuid(state)? else {
        return Ok(());
    };
    let storage_version = io.version(&uuid).unwrap_or(0);
    {
        let mounted = state.mounted()?;
        if let Some(manifest) = &mounted.manifest {
            if manifest.storage_version == storage_version {
                return Ok(());
            }
        }
    }
    let blob = io.get(&uuid)?;
    let mounted = state.mounted()?;
    let (preamble, body) = open_object_with(&mounted.wrap, &blob)?;
    if preamble.uuid != uuid || preamble.kind != ObjectKind::Manifest {
        return Err(NexusError::Integrity("manifest identity mismatch".into()));
    }
    // Per-session rollback check on the manifest itself…
    let seen = mounted.version_table.entry(uuid).or_insert(0);
    if preamble.version < *seen {
        return Err(NexusError::Rollback {
            object: uuid.to_string(),
            seen: *seen,
            got: preamble.version,
        });
    }
    *seen = preamble.version;
    // …plus the monotonic-counter anchor: a manifest older than the last
    // version *this enclave wrote* is rolled back even across cache drops.
    let anchored = io.env.counter_read(counter_id(&uuid));
    if preamble.version < anchored {
        return Err(NexusError::Rollback {
            object: uuid.to_string(),
            seen: anchored,
            got: preamble.version,
        });
    }
    let manifest = ManifestState::decode(storage_version, &body)?;
    state.mounted()?.manifest = Some(manifest);
    Ok(())
}

/// Verifies a fetched metadata blob against the manifest (no-op when the
/// volume has no manifest).
///
/// A mismatch can mean either an attack or a concurrent writer (objects
/// become visible before their manifest update lands, and a fetched blob
/// can itself be superseded while the manifest moves ahead). It is
/// reported as [`NexusError::StaleRead`]; callers refetch the *object* and
/// retry, escalating to an integrity violation only when the disagreement
/// persists.
pub(crate) fn verify_fresh(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    uuid: &NexusUuid,
    blob: &[u8],
) -> Result<()> {
    if manifest_uuid(state)?.is_none() {
        return Ok(());
    }
    ensure_manifest_current(state, io)?;
    let mounted = state.mounted()?;
    let manifest = mounted.manifest.as_ref().expect("ensured above");
    match manifest.entries.get(uuid) {
        Some(expected) if *expected == Sha256::digest(blob) => Ok(()),
        Some(_) => Err(NexusError::StaleRead(format!(
            "object {uuid} does not match the volume freshness manifest"
        ))),
        None => Err(NexusError::StaleRead(format!(
            "object {uuid} is not in the volume freshness manifest"
        ))),
    }
}

/// Applies updates/removals to the manifest and re-uploads it (no-op when
/// the volume has no manifest).
pub(crate) fn record_objects(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    updates: &[(NexusUuid, [u8; 32])],
    removals: &[NexusUuid],
) -> Result<()> {
    let Some(uuid) = manifest_uuid(state)? else {
        return Ok(());
    };
    // Serialize manifest writers across clients.
    io.lock(&uuid)?;
    let result = record_locked(state, io, uuid, updates, removals);
    io.unlock(&uuid);
    result
}

fn record_locked(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    uuid: NexusUuid,
    updates: &[(NexusUuid, [u8; 32])],
    removals: &[NexusUuid],
) -> Result<()> {
    ensure_manifest_current(state, io)?;
    let mounted = state.mounted()?;
    let manifest = mounted.manifest.as_mut().expect("ensured above");
    for (u, h) in updates {
        manifest.entries.insert(*u, *h);
    }
    for u in removals {
        manifest.entries.remove(u);
    }
    let body = manifest.encode();
    let version = next_version(&mut mounted.version_table, &uuid);
    let preamble = Preamble {
        kind: ObjectKind::Manifest,
        uuid,
        parent: NexusUuid::NIL,
        version,
        scope: None,
    };
    let blob = seal_object_with(&mounted.wrap, &preamble, &body, |dest| {
        io.env.random_bytes(dest)
    });
    io.put(&uuid, &blob)?;
    let storage_version = io.version(&uuid).unwrap_or(0);
    let mounted = state.mounted()?;
    if let Some(manifest) = mounted.manifest.as_mut() {
        manifest.storage_version = storage_version;
    }
    // Advance the hardware anchor to the version just written.
    let counter = counter_id(&uuid);
    while io.env.counter_read(counter) < version {
        io.env.counter_increment(counter);
    }
    Ok(())
}

/// Creates the empty manifest for a new volume, returning its UUID.
pub(crate) fn create_manifest(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
) -> Result<NexusUuid> {
    let uuid = crate::enclave::fresh_uuid(io.env);
    let mounted = state.mounted()?;
    mounted.supernode.manifest_uuid = uuid;
    mounted.manifest = Some(ManifestState { entries: BTreeMap::new(), storage_version: 0 });
    record_objects(state, io, &[], &[])
        .map(|()| uuid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_encode_decode_roundtrip() {
        let mut entries = BTreeMap::new();
        entries.insert(NexusUuid([1; 16]), [0xAA; 32]);
        entries.insert(NexusUuid([2; 16]), [0xBB; 32]);
        let manifest = ManifestState { entries, storage_version: 3 };
        let decoded = ManifestState::decode(3, &manifest.encode()).unwrap();
        assert_eq!(decoded.entries, manifest.entries);
        assert_eq!(decoded.root(), manifest.root());
    }

    #[test]
    fn decode_rejects_corrupted_root() {
        let mut entries = BTreeMap::new();
        entries.insert(NexusUuid([1; 16]), [0xAA; 32]);
        let manifest = ManifestState { entries, storage_version: 0 };
        let mut bytes = manifest.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        assert!(ManifestState::decode(0, &bytes).is_err());
    }

    #[test]
    fn root_tracks_entries() {
        let empty = ManifestState { entries: BTreeMap::new(), storage_version: 0 };
        let mut one = empty.clone();
        one.entries.insert(NexusUuid([1; 16]), [7; 32]);
        assert_ne!(empty.root(), one.root());
    }
}
