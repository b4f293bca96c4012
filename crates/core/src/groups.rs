//! Group access control with epoch keys (IBBE-SGX/A-SKY direction).
//!
//! The paper's sharing model is strictly per-user: one attestation
//! exchange, one supernode rewrite, and one ACL entry per grantee, which
//! collapses at 10^4+ members. Groups fix the scaling the way IBBE-SGX
//! does — an enclave-held master key makes membership crypto constant
//! size:
//!
//! - a **group record** lives in the supernode: a sorted set of member
//!   [`UserId`]s plus one 256-bit *group key per epoch*, generated inside
//!   the enclave and stored wrapped (AES-GCM-SIV) under a master wrapping
//!   key derived from the volume rootkey;
//! - directory ACLs hold [`crate::acl::Principal::Group`] entries, so one
//!   ACL entry covers the whole membership;
//! - metadata objects under a group-shared directory have their object
//!   key wrapped under the group's **current epoch key** instead of the
//!   rootkey (see [`crate::metadata::crypto::KeyScope`]).
//!
//! **Revocation is an epoch bump**: removing members rotates the group to
//! a fresh epoch key in the *same* supernode write — O(1) metadata
//! writes, no re-encryption. Objects re-wrap to the new epoch lazily on
//! their next write; the record keeps every `(epoch, wrapped key)` pair,
//! so remaining members still open pre-bump ciphertext, while an enclave
//! holding only a pre-revocation supernode has no key for the new epoch
//! and can open nothing written after the bump. Every membership-removal
//! path flows through [`GroupRecord::revoke_members`], which performs the
//! bump unconditionally; `bump_epoch` is private to this module, and
//! `tests::{revoke_bumps_epoch_and_keeps_old_keys, grants_do_not_bump_epoch}`
//! hold both directions.

use nexus_crypto::gcm_siv::AesGcmSiv;
use nexus_crypto::hmac::hkdf_into;

use crate::acl::UserId;
use crate::error::{NexusError, Result};
use crate::metadata::crypto::RootKey;
use crate::uuid::NexusUuid;
use crate::wire::{Reader, Writer};

/// A group identifier within one volume (assigned by the supernode's
/// group table; ids start at 1 and are never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

/// Size of a wrapped group key: 32-byte key + 16-byte AES-GCM-SIV tag.
const WRAPPED_LEN: usize = 48;

/// Upper bound on members per group (10^6 cells must decode, with head
/// room; caps the allocation a forged supernode can demand).
const MAX_MEMBERS: usize = 16_777_216;

/// Upper bound on retained epochs per group.
const MAX_EPOCHS: usize = 1_000_000;

/// Derives the volume's group-master wrapping key from the rootkey.
///
/// Only the enclave holds the rootkey, so only the enclave can mint or
/// unwrap group keys — the supernode body stores them wrapped, and a
/// future key-escrow split would only need to move this derivation.
/// HKDF writes straight into the returned array, which the caller wipes.
pub fn group_master_key(rootkey: &RootKey, volume: &NexusUuid) -> [u8; 32] {
    let mut key = [0u8; 32];
    hkdf_into(b"nexus-group-master-v1", rootkey, &volume.0, &mut key);
    key
}

/// One `(epoch, wrapped key)` pair. Readers pick the pair matching the
/// epoch recorded in an object's preamble, so pre-bump ciphertext stays
/// readable by remaining members.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrappedGroupKey {
    /// The epoch this key belongs to.
    pub epoch: u64,
    /// AES-GCM-SIV nonce used for the wrap.
    pub nonce: [u8; 12],
    /// The wrapped 256-bit group key (key + tag).
    pub wrapped: [u8; WRAPPED_LEN],
}

fn wrap_aad(group: GroupId, epoch: u64) -> [u8; 12] {
    let mut aad = [0u8; 12];
    aad[..4].copy_from_slice(&group.0.to_le_bytes());
    aad[4..].copy_from_slice(&epoch.to_le_bytes());
    aad
}

/// One group: membership as a sorted id set plus the per-epoch key chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupRecord {
    /// Volume-local id referenced by ACL entries and key scopes.
    pub id: GroupId,
    /// Human-readable name (unique per volume).
    pub name: String,
    /// Current key epoch; bumped on every membership revocation.
    pub epoch: u64,
    /// Sorted, duplicate-free member ids.
    members: Vec<UserId>,
    /// Wrapped keys in ascending epoch order, one per epoch `0..=epoch`.
    keys: Vec<WrappedGroupKey>,
}

impl GroupRecord {
    /// Creates a group at epoch 0 with a fresh wrapped key and no members.
    pub fn create(
        id: GroupId,
        name: &str,
        master: &[u8; 32],
        mut fill_random: impl FnMut(&mut [u8]),
    ) -> GroupRecord {
        let mut record = GroupRecord {
            id,
            name: name.to_string(),
            epoch: 0,
            members: Vec::new(),
            keys: Vec::new(),
        };
        record.push_key(master, &mut fill_random);
        record
    }

    /// Wraps a fresh group key for the current epoch and appends it.
    fn push_key(
        &mut self,
        master: &[u8; 32],
        fill_random: &mut impl FnMut(&mut [u8]),
    ) {
        let mut key = [0u8; 32];
        fill_random(&mut key);
        let mut nonce = [0u8; 12];
        fill_random(&mut nonce);
        let siv = AesGcmSiv::new(master);
        let sealed = siv.seal(&nonce, &wrap_aad(self.id, self.epoch), &key);
        nexus_crypto::ct::zeroize(&mut key);
        let mut wrapped = [0u8; WRAPPED_LEN];
        wrapped.copy_from_slice(&sealed);
        self.keys.push(WrappedGroupKey { epoch: self.epoch, nonce, wrapped });
    }

    /// Rotates to a fresh epoch key. Private on purpose: the only callers
    /// are group creation and [`GroupRecord::revoke_members`] — membership
    /// removal *always* bumps.
    fn bump_epoch(
        &mut self,
        master: &[u8; 32],
        mut fill_random: impl FnMut(&mut [u8]),
    ) {
        self.epoch += 1;
        self.push_key(master, &mut fill_random);
    }

    /// True when `user` is a member (binary search on the sorted set).
    pub fn contains(&self, user: UserId) -> bool {
        self.members.binary_search(&user).is_ok()
    }

    /// The sorted member set.
    pub fn members(&self) -> &[UserId] {
        &self.members
    }

    /// Number of members.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Number of retained epoch keys.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Adds members (batched), keeping the set sorted and duplicate-free.
    /// Returns how many were actually new. Grants do **not** bump the
    /// epoch: new members may read existing ciphertext by design.
    pub fn add_members(&mut self, users: &[UserId]) -> usize {
        let before = self.members.len();
        self.members.extend_from_slice(users);
        self.members.sort_unstable();
        self.members.dedup();
        self.members.len() - before
    }

    /// Removes members (batched) and **bumps the epoch** — the two are one
    /// operation so no revocation can leave the old key current. Returns
    /// the number of members actually removed.
    ///
    /// # Errors
    ///
    /// [`NexusError::NotFound`] when none of `users` were members (the
    /// epoch is not bumped for a no-op revocation).
    pub fn revoke_members(
        &mut self,
        users: &[UserId],
        master: &[u8; 32],
        fill_random: impl FnMut(&mut [u8]),
    ) -> Result<usize> {
        let before = self.members.len();
        self.members.retain(|m| !users.contains(m));
        let removed = before - self.members.len();
        if removed == 0 {
            return Err(NexusError::NotFound(format!(
                "no listed user is a member of group {}",
                self.name
            )));
        }
        self.bump_epoch(master, fill_random);
        Ok(removed)
    }

    /// The wrapped key for `epoch`, when retained.
    pub fn key_for_epoch(&self, epoch: u64) -> Option<&WrappedGroupKey> {
        self.keys
            .binary_search_by_key(&epoch, |k| k.epoch)
            .ok()
            .map(|i| &self.keys[i])
    }

    /// Unwraps the group key for `epoch` into the returned array (which
    /// the caller wipes); no copy of it is left in freed memory.
    ///
    /// # Errors
    ///
    /// [`NexusError::Integrity`] when the epoch has no retained key (a
    /// pre-revocation supernode asked about a post-bump epoch) or the
    /// wrap fails authentication.
    pub fn unwrap_epoch_key(
        &self,
        master: &[u8; 32],
        epoch: u64,
    ) -> Result<[u8; 32]> {
        let wrapped = self.key_for_epoch(epoch).ok_or_else(|| {
            NexusError::Integrity(format!(
                "group {} holds no key for epoch {epoch} (current {})",
                self.name, self.epoch
            ))
        })?;
        let mut key = [0u8; 32];
        AesGcmSiv::new(master)
            .open_into(&wrapped.nonce, &wrap_aad(self.id, epoch), &wrapped.wrapped, &mut key)
            .map_err(|_| NexusError::Integrity("group key unwrap failed".into()))?;
        Ok(key)
    }

    /// Unwraps the current epoch's key (what new writes seal under).
    pub fn current_key(&self, master: &[u8; 32]) -> Result<[u8; 32]> {
        self.unwrap_epoch_key(master, self.epoch)
    }

    fn encode(&self, w: &mut Writer) {
        w.u32(self.id.0);
        w.string(&self.name);
        w.u64(self.epoch);
        w.u32(self.members.len() as u32);
        for m in &self.members {
            w.u32(m.0);
        }
        w.u32(self.keys.len() as u32);
        for k in &self.keys {
            w.u64(k.epoch);
            w.raw(&k.nonce);
            w.raw(&k.wrapped);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<GroupRecord> {
        let id = GroupId(r.u32()?);
        let name = r.string()?;
        let epoch = r.u64()?;
        let member_count = r.u32()? as usize;
        if member_count > MAX_MEMBERS {
            return Err(NexusError::Malformed("absurd group member count".into()));
        }
        let mut members = Vec::with_capacity(member_count.min(65536));
        for _ in 0..member_count {
            members.push(UserId(r.u32()?));
        }
        // The sorted-set invariant is part of the wire contract: a crafted
        // body with duplicates or disorder would break binary search (and
        // could hide a member from audits), so reject it outright.
        if !members.windows(2).all(|w| w[0] < w[1]) {
            return Err(NexusError::Malformed(
                "group member set is not strictly sorted".into(),
            ));
        }
        let key_count = r.u32()? as usize;
        if key_count > MAX_EPOCHS {
            return Err(NexusError::Malformed("absurd group epoch count".into()));
        }
        let mut keys = Vec::with_capacity(key_count.min(1024));
        for _ in 0..key_count {
            let kepoch = r.u64()?;
            let nonce = r.array::<12>()?;
            let wrapped = r.array::<WRAPPED_LEN>()?;
            keys.push(WrappedGroupKey { epoch: kepoch, nonce, wrapped });
        }
        if !keys.windows(2).all(|w| w[0].epoch < w[1].epoch) {
            return Err(NexusError::Malformed("group key epochs out of order".into()));
        }
        if keys.last().map(|k| k.epoch) != Some(epoch) {
            return Err(NexusError::Malformed(
                "group is missing its current epoch key".into(),
            ));
        }
        Ok(GroupRecord { id, name, epoch, members, keys })
    }
}

/// The supernode's group table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupSet {
    groups: Vec<GroupRecord>,
    next_group_id: u32,
}

impl Default for GroupSet {
    fn default() -> GroupSet {
        GroupSet { groups: Vec::new(), next_group_id: 1 }
    }
}

impl GroupSet {
    /// True when the table carries no information (elided on the wire, so
    /// group-free volumes keep the pre-groups supernode byte format).
    pub fn is_default(&self) -> bool {
        self.groups.is_empty() && self.next_group_id == 1
    }

    /// Creates a group with a fresh id and epoch-0 key.
    ///
    /// # Errors
    ///
    /// [`NexusError::AlreadyExists`] for duplicate names.
    pub fn create(
        &mut self,
        name: &str,
        master: &[u8; 32],
        fill_random: impl FnMut(&mut [u8]),
    ) -> Result<GroupId> {
        if self.by_name(name).is_some() {
            return Err(NexusError::AlreadyExists(format!("group {name}")));
        }
        let id = GroupId(self.next_group_id);
        self.next_group_id += 1;
        self.groups
            .push(GroupRecord::create(id, name, master, fill_random));
        Ok(id)
    }

    /// Looks up a group by name.
    pub fn by_name(&self, name: &str) -> Option<&GroupRecord> {
        self.groups.iter().find(|g| g.name == name)
    }

    /// Looks up a group by name, mutably.
    pub fn by_name_mut(&mut self, name: &str) -> Option<&mut GroupRecord> {
        self.groups.iter_mut().find(|g| g.name == name)
    }

    /// Looks up a group by id.
    pub fn by_id(&self, id: GroupId) -> Option<&GroupRecord> {
        self.groups.iter().find(|g| g.id == id)
    }

    /// Iterates over all groups.
    pub fn iter(&self) -> impl Iterator<Item = &GroupRecord> {
        self.groups.iter()
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True when no groups exist.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Drops `user` from every group they belong to, bumping each affected
    /// group's epoch (via [`GroupRecord::revoke_members`]). Returns the
    /// ids of the groups that changed.
    pub fn revoke_member_everywhere(
        &mut self,
        user: UserId,
        master: &[u8; 32],
        mut fill_random: impl FnMut(&mut [u8]),
    ) -> Vec<GroupId> {
        let mut affected = Vec::new();
        for group in self.groups.iter_mut() {
            if group.contains(user) {
                group
                    .revoke_members(&[user], master, &mut fill_random)
                    .expect("member presence checked");
                affected.push(group.id);
            }
        }
        affected
    }

    /// Serializes the table into `w`.
    pub fn encode(&self, w: &mut Writer) {
        w.u32(self.next_group_id);
        w.u32(self.groups.len() as u32);
        for g in &self.groups {
            g.encode(w);
        }
    }

    /// Deserializes a table from `r`.
    ///
    /// # Errors
    ///
    /// [`NexusError::Malformed`] on framing or invariant violations.
    pub fn decode(r: &mut Reader<'_>) -> Result<GroupSet> {
        let next_group_id = r.u32()?;
        let count = r.u32()? as usize;
        if count > 1_000_000 {
            return Err(NexusError::Malformed("absurd group count".into()));
        }
        let mut groups: Vec<GroupRecord> = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let g = GroupRecord::decode(r)?;
            if groups.iter().any(|h| h.id == g.id || h.name == g.name) {
                return Err(NexusError::Malformed("duplicate group id or name".into()));
            }
            groups.push(g);
        }
        Ok(GroupSet { groups, next_group_id })
    }

    /// Bench/test scaffolding: splices raw member ids into `name`'s set
    /// without supernode user records, so membership scaling (10^6 cells)
    /// is measurable without 10^6 Ed25519 key generations. Exercises the
    /// production sorted-set and encode paths.
    #[doc(hidden)]
    pub fn splice_member_ids(&mut self, name: &str, ids: &[u32]) -> Result<usize> {
        let group = self
            .by_name_mut(name)
            .ok_or_else(|| NexusError::NotFound(format!("group {name}")))?;
        let users: Vec<UserId> = ids.iter().map(|&i| UserId(i)).collect();
        Ok(group.add_members(&users))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand(dest: &mut [u8]) {
        for (i, b) in dest.iter_mut().enumerate() {
            *b = (i * 37 + 11) as u8;
        }
    }

    fn master() -> [u8; 32] {
        group_master_key(&[0x42; 32], &NexusUuid([7; 16]))
    }

    fn sample() -> GroupRecord {
        let mut g = GroupRecord::create(GroupId(1), "eng", &master(), rand);
        g.add_members(&[UserId(5), UserId(2), UserId(9)]);
        g
    }

    #[test]
    fn master_key_binds_volume_and_rootkey() {
        let a = group_master_key(&[1; 32], &NexusUuid([1; 16]));
        let b = group_master_key(&[2; 32], &NexusUuid([1; 16]));
        let c = group_master_key(&[1; 32], &NexusUuid([2; 16]));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn membership_is_sorted_and_deduped() {
        let mut g = sample();
        assert_eq!(g.members(), &[UserId(2), UserId(5), UserId(9)]);
        assert_eq!(g.add_members(&[UserId(5), UserId(1)]), 1);
        assert_eq!(g.members(), &[UserId(1), UserId(2), UserId(5), UserId(9)]);
        assert!(g.contains(UserId(9)));
        assert!(!g.contains(UserId(3)));
    }

    #[test]
    fn revoke_bumps_epoch_and_keeps_old_keys() {
        let mut g = sample();
        let key0 = g.current_key(&master()).unwrap();
        assert_eq!(g.epoch, 0);
        // A distinct filler, so the epoch-1 key plaintext actually differs
        // from epoch 0's (the shared `rand` is stateless).
        let removed = g
            .revoke_members(&[UserId(5)], &master(), |d: &mut [u8]| {
                for (i, b) in d.iter_mut().enumerate() {
                    *b = (i * 13 + 7) as u8;
                }
            })
            .unwrap();
        assert_eq!(removed, 1);
        assert_eq!(g.epoch, 1);
        assert_eq!(g.key_count(), 2);
        assert!(!g.contains(UserId(5)));
        // Old ciphertext stays readable: epoch-0 key is retained …
        assert_eq!(g.unwrap_epoch_key(&master(), 0).unwrap(), key0);
        // … and the new epoch uses a different key.
        assert_ne!(g.current_key(&master()).unwrap(), key0);
    }

    #[test]
    fn noop_revoke_does_not_bump() {
        let mut g = sample();
        let err = g
            .revoke_members(&[UserId(77)], &master(), rand)
            .unwrap_err();
        assert!(matches!(err, NexusError::NotFound(_)));
        assert_eq!(g.epoch, 0);
        assert_eq!(g.key_count(), 1);
    }

    #[test]
    fn grants_do_not_bump_epoch() {
        let mut g = sample();
        g.add_members(&[UserId(100)]);
        assert_eq!(g.epoch, 0);
        assert_eq!(g.key_count(), 1);
    }

    #[test]
    fn unwrap_rejects_unknown_epoch_and_wrong_master() {
        let g = sample();
        assert!(g.unwrap_epoch_key(&master(), 3).is_err());
        let wrong = group_master_key(&[9; 32], &NexusUuid([7; 16]));
        assert!(matches!(
            g.unwrap_epoch_key(&wrong, 0),
            Err(NexusError::Integrity(_))
        ));
    }

    #[test]
    fn set_roundtrips_and_rejects_tampering() {
        let mut set = GroupSet::default();
        set.create("eng", &master(), rand).unwrap();
        set.create("ops", &master(), rand).unwrap();
        set.by_name_mut("eng").unwrap().add_members(&[UserId(3), UserId(1)]);
        set.by_name_mut("ops")
            .unwrap()
            .revoke_members(&[UserId(8)], &master(), rand)
            .err(); // no-op; ops stays at epoch 0
        let mut w = Writer::new();
        set.encode(&mut w);
        let bytes = w.into_bytes();
        let decoded = GroupSet::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(decoded, set);

        // Unsorted member sets are rejected.
        let mut g = sample();
        g.members = vec![UserId(9), UserId(2)];
        let mut w = Writer::new();
        let mut lone = GroupSet::default();
        lone.groups.push(g);
        lone.next_group_id = 2;
        lone.encode(&mut w);
        let bytes = w.into_bytes();
        assert!(GroupSet::decode(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn duplicate_group_names_rejected() {
        let mut set = GroupSet::default();
        set.create("eng", &master(), rand).unwrap();
        assert!(matches!(
            set.create("eng", &master(), rand),
            Err(NexusError::AlreadyExists(_))
        ));
    }

    #[test]
    fn revoke_member_everywhere_bumps_only_affected_groups() {
        let mut set = GroupSet::default();
        set.create("eng", &master(), rand).unwrap();
        set.create("ops", &master(), rand).unwrap();
        set.by_name_mut("eng").unwrap().add_members(&[UserId(4)]);
        set.by_name_mut("ops").unwrap().add_members(&[UserId(5)]);
        let affected =
            set.revoke_member_everywhere(UserId(4), &master(), rand);
        assert_eq!(affected, vec![GroupId(1)]);
        assert_eq!(set.by_name("eng").unwrap().epoch, 1);
        assert_eq!(set.by_name("ops").unwrap().epoch, 0);
    }

    #[test]
    fn decode_requires_current_epoch_key() {
        let mut g = sample();
        g.epoch = 5; // claims epoch 5 but only holds the epoch-0 key
        let mut set = GroupSet::default();
        set.groups.push(g);
        set.next_group_id = 2;
        let mut w = Writer::new();
        set.encode(&mut w);
        let bytes = w.into_bytes();
        assert!(GroupSet::decode(&mut Reader::new(&bytes)).is_err());
    }
}
