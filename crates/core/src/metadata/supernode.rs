//! The volume supernode (paper §IV-A1).
//!
//! A supernode defines one NEXUS volume: the UUID of its root directory,
//! the immutable owner identity, and the list of users the owner has
//! granted volume access. User records bind a username to an Ed25519
//! public key and a volume-local [`UserId`] referenced by directory ACLs.

use nexus_crypto::ed25519::VerifyingKey;

use crate::acl::{UserId, OWNER_USER_ID};
use crate::error::{NexusError, Result};
use crate::groups::GroupSet;
use crate::uuid::NexusUuid;
use crate::wire::{Reader, Writer};

/// One authorized identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserRecord {
    /// Volume-local id used in ACLs.
    pub id: UserId,
    /// Human-readable name (unique per volume).
    pub name: String,
    /// Authentication public key.
    pub public_key: VerifyingKey,
}

/// The supernode body (stored encrypted via `metadata::crypto`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Supernode {
    /// This supernode's UUID (also the volume identifier).
    pub uuid: NexusUuid,
    /// UUID of the volume's root dirnode.
    pub root_dir: NexusUuid,
    /// The immutable owner.
    pub owner: UserRecord,
    /// Additional authorized users (never contains the owner).
    pub users: Vec<UserRecord>,
    /// Next user id to hand out.
    pub next_user_id: u32,
    /// Group table: memberships and epoch-wrapped group keys
    /// (see [`crate::groups`]).
    pub groups: GroupSet,
}

impl Supernode {
    /// Creates a fresh supernode for a new volume.
    pub fn new(
        uuid: NexusUuid,
        root_dir: NexusUuid,
        owner_name: &str,
        owner_key: VerifyingKey,
    ) -> Supernode {
        Supernode {
            uuid,
            root_dir,
            owner: UserRecord {
                id: OWNER_USER_ID,
                name: owner_name.to_string(),
                public_key: owner_key,
            },
            users: Vec::new(),
            next_user_id: 1,
            groups: GroupSet::default(),
        }
    }

    /// Looks up a user (owner included) by public key.
    pub fn user_by_key(&self, key: &VerifyingKey) -> Option<&UserRecord> {
        if self.owner.public_key == *key {
            return Some(&self.owner);
        }
        self.users.iter().find(|u| u.public_key == *key)
    }

    /// Looks up a user (owner included) by name.
    pub fn user_by_name(&self, name: &str) -> Option<&UserRecord> {
        if self.owner.name == name {
            return Some(&self.owner);
        }
        self.users.iter().find(|u| u.name == name)
    }

    /// Looks up a user (owner included) by id.
    pub fn user_by_id(&self, id: UserId) -> Option<&UserRecord> {
        if id == OWNER_USER_ID {
            return Some(&self.owner);
        }
        self.users.iter().find(|u| u.id == id)
    }

    /// Adds a user, assigning a fresh id.
    ///
    /// # Errors
    ///
    /// [`NexusError::InvalidKey`] when the key does not decode to a curve
    /// point; [`NexusError::AlreadyExists`] when the name or key is already
    /// present.
    pub fn add_user(&mut self, name: &str, key: VerifyingKey) -> Result<UserId> {
        if VerifyingKey::from_bytes(&key.0).is_err() {
            return Err(NexusError::InvalidKey(format!("public key of {name}")));
        }
        if self.user_by_name(name).is_some() {
            return Err(NexusError::AlreadyExists(format!("user {name}")));
        }
        if self.user_by_key(&key).is_some() {
            return Err(NexusError::AlreadyExists(format!("public key of {name}")));
        }
        let id = UserId(self.next_user_id);
        self.next_user_id += 1;
        self.users.push(UserRecord { id, name: name.to_string(), public_key: key });
        Ok(id)
    }

    /// Removes a user by name; the owner cannot be removed.
    ///
    /// # Errors
    ///
    /// [`NexusError::NotFound`] for unknown names,
    /// [`NexusError::AccessDenied`] for the owner.
    pub fn remove_user(&mut self, name: &str) -> Result<UserId> {
        if self.owner.name == name {
            return Err(NexusError::AccessDenied("the owner is immutable".into()));
        }
        let idx = self
            .users
            .iter()
            .position(|u| u.name == name)
            .ok_or_else(|| NexusError::NotFound(format!("user {name}")))?;
        Ok(self.users.remove(idx).id)
    }

    /// Serializes the supernode body.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.uuid(&self.uuid).uuid(&self.root_dir);
        encode_user(&mut w, &self.owner);
        w.u32(self.users.len() as u32);
        for user in &self.users {
            encode_user(&mut w, user);
        }
        w.u32(self.next_user_id);
        // Reserved: older builds kept a freshness manifest's uuid here.
        w.uuid(&NexusUuid::NIL);
        // The group table is an optional tail section: group-free volumes
        // keep the pre-groups byte format (and stay readable by old code).
        if !self.groups.is_default() {
            self.groups.encode(&mut w);
        }
        w.into_bytes()
    }

    /// Parses a supernode body.
    ///
    /// # Errors
    ///
    /// [`NexusError::Malformed`] on framing failures;
    /// [`NexusError::UnsupportedVolume`] when the reserved field names a
    /// freshness manifest, which this build does not keep.
    pub fn decode(bytes: &[u8]) -> Result<Supernode> {
        let mut r = Reader::new(bytes);
        let uuid = r.uuid()?;
        let root_dir = r.uuid()?;
        let owner = decode_user(&mut r)?;
        let count = r.u32()? as usize;
        if count > 1_000_000 {
            return Err(NexusError::Malformed("absurd user count".into()));
        }
        let mut users = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            users.push(decode_user(&mut r)?);
        }
        let next_user_id = r.u32()?;
        if !r.uuid()?.is_nil() {
            return Err(NexusError::UnsupportedVolume(
                "created with a volume freshness manifest, which this build no longer keeps"
                    .into(),
            ));
        }
        let groups = if r.is_empty() { GroupSet::default() } else { GroupSet::decode(&mut r)? };
        r.finish()?;
        Ok(Supernode { uuid, root_dir, owner, users, next_user_id, groups })
    }
}

fn encode_user(w: &mut Writer, user: &UserRecord) {
    w.u32(user.id.0);
    w.string(&user.name);
    w.raw(&user.public_key.to_bytes());
}

/// Keeps the key's 32 bytes as stored: [`Supernode::add_user`] admitted
/// only curve points, the supernode is authenticated, and `verify` refuses
/// a key that is not one.
fn decode_user(r: &mut Reader<'_>) -> Result<UserRecord> {
    let id = UserId(r.u32()?);
    let name = r.string()?;
    let public_key = VerifyingKey(r.array::<32>()?);
    Ok(UserRecord { id, name, public_key })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_crypto::ed25519::SigningKey;

    fn key(seed: u8) -> VerifyingKey {
        SigningKey::from_seed(&[seed; 32]).verifying_key()
    }

    fn sample() -> Supernode {
        let mut sn = Supernode::new(NexusUuid([1; 16]), NexusUuid([2; 16]), "owen", key(1));
        sn.add_user("alice", key(2)).unwrap();
        sn.add_user("bob", key(3)).unwrap();
        sn
    }

    #[test]
    fn owner_is_user_zero() {
        let sn = sample();
        assert_eq!(sn.owner.id, OWNER_USER_ID);
        assert_eq!(sn.user_by_name("owen").unwrap().id, OWNER_USER_ID);
    }

    #[test]
    fn add_assigns_sequential_ids() {
        let sn = sample();
        assert_eq!(sn.user_by_name("alice").unwrap().id, UserId(1));
        assert_eq!(sn.user_by_name("bob").unwrap().id, UserId(2));
        assert_eq!(sn.next_user_id, 3);
    }

    #[test]
    fn duplicate_names_and_keys_rejected() {
        let mut sn = sample();
        assert!(sn.add_user("alice", key(9)).is_err());
        assert!(sn.add_user("carol", key(2)).is_err());
    }

    #[test]
    fn remove_user_frees_name_but_not_id() {
        let mut sn = sample();
        let removed = sn.remove_user("alice").unwrap();
        assert_eq!(removed, UserId(1));
        assert!(sn.user_by_name("alice").is_none());
        // A re-added user gets a *new* id: stale ACL entries stay dead.
        let new_id = sn.add_user("alice", key(2)).unwrap();
        assert_eq!(new_id, UserId(3));
    }

    #[test]
    fn owner_cannot_be_removed() {
        let mut sn = sample();
        assert!(matches!(sn.remove_user("owen"), Err(NexusError::AccessDenied(_))));
    }

    #[test]
    fn lookup_by_key_and_id() {
        let sn = sample();
        assert_eq!(sn.user_by_key(&key(2)).unwrap().name, "alice");
        assert_eq!(sn.user_by_id(UserId(2)).unwrap().name, "bob");
        assert_eq!(sn.user_by_id(OWNER_USER_ID).unwrap().name, "owen");
        assert!(sn.user_by_key(&key(8)).is_none());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let sn = sample();
        let decoded = Supernode::decode(&sn.encode()).unwrap();
        assert_eq!(decoded, sn);
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = sample().encode();
        assert!(Supernode::decode(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn group_free_volumes_keep_pre_groups_bytes() {
        let sn = sample();
        let bytes = sn.encode();
        // Reconstruct the pre-groups encoding by hand: it must be identical.
        let mut w = Writer::new();
        w.uuid(&sn.uuid).uuid(&sn.root_dir);
        encode_user(&mut w, &sn.owner);
        w.u32(sn.users.len() as u32);
        for user in &sn.users {
            encode_user(&mut w, user);
        }
        w.u32(sn.next_user_id);
        w.uuid(&NexusUuid::NIL);
        assert_eq!(bytes, w.into_bytes());
        // And old bytes decode to an empty group table.
        assert!(Supernode::decode(&bytes).unwrap().groups.is_default());
    }

    /// Older builds could make a volume with a freshness manifest, whose
    /// uuid sat in the reserved field. This build keeps no manifest, so it
    /// refuses that supernode rather than mount the volume unprotected.
    #[test]
    fn a_supernode_naming_a_manifest_is_refused() {
        let mut bytes = sample().encode();
        let reserved = bytes.len() - 16;
        assert_eq!(bytes[reserved..], [0; 16], "a group-free body ends with the field");
        for at in [reserved, bytes.len() - 1] {
            bytes[at] = 1;
            let err = Supernode::decode(&bytes).unwrap_err();
            assert!(matches!(err, NexusError::UnsupportedVolume(_)), "{err:?}");
            bytes[at] = 0;
        }
        assert_eq!(Supernode::decode(&bytes).unwrap(), sample());
    }

    #[test]
    fn group_table_roundtrips() {
        let mut sn = sample();
        let master = [7u8; 32];
        let gid = sn
            .groups
            .create("eng", &master, |d| d.fill(0xAB))
            .unwrap();
        sn.groups.by_name_mut("eng").unwrap().add_members(&[UserId(1), UserId(2)]);
        let decoded = Supernode::decode(&sn.encode()).unwrap();
        assert_eq!(decoded, sn);
        assert!(decoded.groups.by_id(gid).unwrap().contains(UserId(2)));
    }
}
