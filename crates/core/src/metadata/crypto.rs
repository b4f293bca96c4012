//! The three-section encrypted metadata layout (paper §IV-A2).
//!
//! Every metadata object on the untrusted store consists of:
//!
//! 1. a **preamble** of non-sensitive fields (type, UUID, parent UUID,
//!    version) — integrity-protected as AAD;
//! 2. a **cryptographic context**: a fresh 128-bit object key, key-wrapped
//!    under the volume rootkey with AES-GCM-SIV, plus the nonces — also
//!    integrity-protected;
//! 3. the **protected body**, encrypted and authenticated with AES-GCM
//!    under the object key.
//!
//! A fresh object key and nonces are drawn on *every* update, so revocation
//! only ever re-encrypts metadata (never file data), and possession of an
//! old object key reveals nothing about the current version.
//!
//! ## Key scopes (group sharing)
//!
//! By default the wrap key in section 2 is the volume rootkey. Objects
//! under a group-shared directory instead wrap their object key under the
//! group's **epoch key** (see [`crate::groups`]); the preamble then opens
//! with [`MAGIC_SCOPED`] and carries the `(group, epoch)` pair — as AAD,
//! so a server cannot point a reader at the wrong key. Readers resolve
//! the wrap key from the epoch recorded here, which is what makes
//! revocation *lazy*: an epoch bump re-keys nothing, and each object
//! migrates to the current epoch on its next write.

use nexus_crypto::gcm::AesGcm;
use nexus_crypto::gcm_siv::AesGcmSiv;
use nexus_crypto::write_once::WriteOnce;

use crate::error::{NexusError, Result};
use crate::groups::GroupId;
use crate::uuid::NexusUuid;
use crate::wire::{Reader, Writer};

/// Magic bytes opening every rootkey-scoped metadata object.
pub const MAGIC: &[u8; 4] = b"NXMD";

/// Magic bytes opening group-scoped metadata objects (preamble carries a
/// [`KeyScope`]).
pub const MAGIC_SCOPED: &[u8; 4] = b"NXS2";

/// Volume rootkey: the single secret a user needs (sealed) to use a volume.
pub type RootKey = [u8; 32];

/// Which group epoch key wraps an object's key (absent → the rootkey).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyScope {
    /// The owning group.
    pub group: GroupId,
    /// The group key epoch the object was sealed under.
    pub epoch: u64,
}

/// What kind of metadata an object holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// Volume supernode (superblock analogue).
    Supernode,
    /// Directory node (dentry analogue) — the main bucket.
    Dirnode,
    /// Overflow bucket of a large directory.
    DirBucket,
    /// File node (inode analogue).
    Filenode,
    /// The volume freshness manifest (§VI-C extension).
    Manifest,
}

impl ObjectKind {
    fn to_u8(self) -> u8 {
        match self {
            ObjectKind::Supernode => 1,
            ObjectKind::Dirnode => 2,
            ObjectKind::DirBucket => 3,
            ObjectKind::Filenode => 4,
            ObjectKind::Manifest => 5,
        }
    }

    fn from_u8(v: u8) -> Result<ObjectKind> {
        match v {
            1 => Ok(ObjectKind::Supernode),
            2 => Ok(ObjectKind::Dirnode),
            3 => Ok(ObjectKind::DirBucket),
            4 => Ok(ObjectKind::Filenode),
            5 => Ok(ObjectKind::Manifest),
            other => Err(NexusError::Malformed(format!("unknown object kind {other}"))),
        }
    }
}

/// The integrity-protected, unencrypted header of a metadata object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Preamble {
    /// Object kind.
    pub kind: ObjectKind,
    /// This object's UUID (must match the name it is stored under).
    pub uuid: NexusUuid,
    /// The containing directory's UUID (anti-swapping pointer, §IV-A3);
    /// NIL for the supernode and the root dirnode.
    pub parent: NexusUuid,
    /// Monotonic version for rollback detection (§VI-C).
    pub version: u64,
    /// Which group epoch key wraps the object key; `None` → the rootkey.
    pub scope: Option<KeyScope>,
}

impl Preamble {
    const ENCODED_LEN: usize = 4 + 1 + 16 + 16 + 8;
    const SCOPED_ENCODED_LEN: usize = Preamble::ENCODED_LEN + 4 + 8;

    /// The encoded preamble, in a buffer with room for the rest of the
    /// blob's head ([`HEAD_MAX_LEN`]): `seal_object` appends the crypto
    /// context to it without reallocating.
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(HEAD_MAX_LEN);
        w.raw(if self.scope.is_some() { MAGIC_SCOPED } else { MAGIC })
            .u8(self.kind.to_u8())
            .uuid(&self.uuid)
            .uuid(&self.parent)
            .u64(self.version);
        if let Some(scope) = self.scope {
            w.u32(scope.group.0).u64(scope.epoch);
        }
        w.into_bytes()
    }

    /// Parses a preamble off the front of `blob`; returns it and its
    /// encoded length (scoped preambles are longer).
    fn parse(blob: &[u8]) -> Result<(Preamble, usize)> {
        if blob.len() < 4 {
            return Err(NexusError::Malformed("metadata object too short".into()));
        }
        let scoped = if &blob[..4] == MAGIC {
            false
        } else if &blob[..4] == MAGIC_SCOPED {
            true
        } else {
            return Err(NexusError::Malformed("bad magic".into()));
        };
        let len = if scoped { Preamble::SCOPED_ENCODED_LEN } else { Preamble::ENCODED_LEN };
        if blob.len() < len {
            return Err(NexusError::Malformed("truncated preamble".into()));
        }
        let mut r = Reader::new(&blob[4..len]);
        let kind = ObjectKind::from_u8(r.u8()?)?;
        let uuid = r.uuid()?;
        let parent = r.uuid()?;
        let version = r.u64()?;
        let scope = if scoped {
            Some(KeyScope { group: GroupId(r.u32()?), epoch: r.u64()? })
        } else {
            None
        };
        Ok((Preamble { kind, uuid, parent, version, scope }, len))
    }
}

/// Lengths of the crypto-context section.
const SIV_NONCE_LEN: usize = 12;
const WRAPPED_KEY_LEN: usize = 16 + 16; // key + GCM-SIV tag
const GCM_NONCE_LEN: usize = 12;
const GCM_TAG_LEN: usize = nexus_crypto::gcm::TAG_LEN;
/// Everything in front of the sealed body, at its longest (scoped).
const HEAD_MAX_LEN: usize =
    Preamble::SCOPED_ENCODED_LEN + SIV_NONCE_LEN + WRAPPED_KEY_LEN + GCM_NONCE_LEN;

/// Encrypts a metadata body into the full on-storage representation.
///
/// `wrap_key` is the rootkey for unscoped preambles; when
/// `preamble.scope` is set, the caller must pass the group key for the
/// scope's epoch. `fill_random` supplies enclave randomness for the fresh
/// object key and nonces.
pub fn seal_object(
    wrap_key: &RootKey,
    preamble: &Preamble,
    body: &[u8],
    mut fill_random: impl FnMut(&mut [u8]),
) -> Vec<u8> {
    let preamble_bytes = preamble.encode();

    let mut object_key = [0u8; 16];
    fill_random(&mut object_key);
    let mut siv_nonce = [0u8; SIV_NONCE_LEN];
    fill_random(&mut siv_nonce);
    let mut gcm_nonce = [0u8; GCM_NONCE_LEN];
    fill_random(&mut gcm_nonce);

    // Sections 1 and 2 open the blob: preamble, then the object key
    // wrapped under the scope's wrap key.
    let siv = AesGcmSiv::new(wrap_key);
    let wrapped = siv.seal(&siv_nonce, &preamble_bytes, &object_key);
    debug_assert_eq!(wrapped.len(), WRAPPED_KEY_LEN);
    let mut head = preamble_bytes;
    head.extend_from_slice(&siv_nonce);
    head.extend_from_slice(&wrapped);
    let aad_len = head.len();
    head.extend_from_slice(&gcm_nonce);

    // Section 3: encrypt the body straight into its place in the blob,
    // behind a copy of the head, binding sections 1 and 2 as AAD.
    let mut out = WriteOnce::after(&head, body.len() + GCM_TAG_LEN);
    let gcm = AesGcm::new(&object_key);
    out.slot().seal(&gcm, &gcm_nonce, &head[..aad_len], body);
    nexus_crypto::ct::zeroize(&mut object_key);
    out.finish()
}

/// Verifies and decrypts a metadata object fetched from untrusted storage.
/// The caller-supplied key is used as the wrap key regardless of scope —
/// for scope-aware resolution use [`open_object_scoped`].
///
/// # Errors
///
/// [`NexusError::Malformed`] on framing problems, [`NexusError::Integrity`]
/// when any authentication check fails (wrong rootkey, tampering, or a
/// spliced preamble).
pub fn open_object(wrap_key: &RootKey, blob: &[u8]) -> Result<(Preamble, Vec<u8>)> {
    open_object_scoped(blob, |_| Ok(*wrap_key))
}

/// [`open_object`] with the wrap key chosen *after* the preamble is read:
/// `resolve` receives the object's [`KeyScope`] (None → rootkey-scoped)
/// and returns the matching wrap key. The scope sits in the AAD, so a
/// lying preamble fails authentication rather than decrypting under the
/// wrong key; a resolver that cannot produce the epoch key (revoked
/// member, pre-revocation supernode) simply errors.
pub fn open_object_scoped(
    blob: &[u8],
    resolve: impl FnOnce(Option<KeyScope>) -> Result<RootKey>,
) -> Result<(Preamble, Vec<u8>)> {
    let (preamble, preamble_len) = Preamble::parse(blob)?;
    let fixed = preamble_len + SIV_NONCE_LEN + WRAPPED_KEY_LEN + GCM_NONCE_LEN + GCM_TAG_LEN;
    if blob.len() < fixed {
        return Err(NexusError::Malformed("metadata object too short".into()));
    }
    let (preamble_bytes, rest) = blob.split_at(preamble_len);
    let (siv_nonce, rest) = rest.split_at(SIV_NONCE_LEN);
    let (wrapped, rest) = rest.split_at(WRAPPED_KEY_LEN);
    let (gcm_nonce, ciphertext) = rest.split_at(GCM_NONCE_LEN);

    let mut wrap_key = resolve(preamble.scope)?;
    let siv = AesGcmSiv::new(&wrap_key);
    nexus_crypto::ct::zeroize(&mut wrap_key);
    let siv_nonce_arr: [u8; 12] = siv_nonce.try_into().unwrap();
    let object_key = siv
        .open(&siv_nonce_arr, preamble_bytes, wrapped)
        .map_err(|_| NexusError::Integrity("metadata key unwrap failed".into()))?;
    let mut object_key: [u8; 16] = object_key
        .try_into()
        .map_err(|_| NexusError::Integrity("unwrapped key has wrong length".into()))?;

    // Sections 1 and 2 are contiguous in the blob: they are the AAD as
    // they stand.
    let aad = &blob[..preamble_len + SIV_NONCE_LEN + WRAPPED_KEY_LEN];
    let gcm = AesGcm::new(&object_key);
    nexus_crypto::ct::zeroize(&mut object_key);
    let gcm_nonce_arr: [u8; 12] = gcm_nonce.try_into().unwrap();
    let body = gcm
        .open(&gcm_nonce_arr, aad, ciphertext)
        .map_err(|_| NexusError::Integrity("metadata body authentication failed".into()))?;
    Ok((preamble, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rk() -> RootKey {
        [0x11; 32]
    }

    fn pre() -> Preamble {
        Preamble {
            kind: ObjectKind::Dirnode,
            uuid: NexusUuid([1; 16]),
            parent: NexusUuid([2; 16]),
            version: 7,
            scope: None,
        }
    }

    fn scoped_pre() -> Preamble {
        Preamble { scope: Some(KeyScope { group: GroupId(3), epoch: 2 }), ..pre() }
    }

    fn rand(dest: &mut [u8]) {
        for (i, b) in dest.iter_mut().enumerate() {
            *b = (i * 31 + 5) as u8;
        }
    }

    #[test]
    fn seal_open_roundtrip() {
        let blob = seal_object(&rk(), &pre(), b"directory contents", rand);
        let (preamble, body) = open_object(&rk(), &blob).unwrap();
        assert_eq!(preamble, pre());
        assert_eq!(body, b"directory contents");
    }

    #[test]
    fn wrong_rootkey_fails() {
        let blob = seal_object(&rk(), &pre(), b"secret", rand);
        let err = open_object(&[0x22; 32], &blob).unwrap_err();
        assert!(matches!(err, NexusError::Integrity(_)));
    }

    #[test]
    fn tampered_preamble_fails() {
        let mut blob = seal_object(&rk(), &pre(), b"secret", rand);
        blob[30] ^= 1; // inside the parent uuid
        let err = open_object(&rk(), &blob).unwrap_err();
        assert!(matches!(err, NexusError::Integrity(_)));
    }

    #[test]
    fn tampered_version_fails() {
        // Downgrading the plaintext version field must break authentication.
        let mut blob = seal_object(&rk(), &pre(), b"secret", rand);
        blob[Preamble::ENCODED_LEN - 1] ^= 1;
        assert!(open_object(&rk(), &blob).is_err());
    }

    #[test]
    fn tampered_ciphertext_fails() {
        let mut blob = seal_object(&rk(), &pre(), b"secret", rand);
        let last = blob.len() - 1;
        blob[last] ^= 1;
        let err = open_object(&rk(), &blob).unwrap_err();
        assert!(matches!(err, NexusError::Integrity(_)));
    }

    #[test]
    fn spliced_crypto_context_fails() {
        // Take the context from one object and splice it into another.
        let blob_a = seal_object(&rk(), &pre(), b"aaaa", rand);
        let other = Preamble { version: 8, ..pre() };
        let mut blob_b = seal_object(&rk(), &other, b"bbbb", rand);
        let ctx_range = Preamble::ENCODED_LEN..Preamble::ENCODED_LEN + 12 + 32;
        blob_b[ctx_range.clone()].copy_from_slice(&blob_a[ctx_range]);
        assert!(open_object(&rk(), &blob_b).is_err());
    }

    #[test]
    fn truncated_blob_is_malformed() {
        let blob = seal_object(&rk(), &pre(), b"secret", rand);
        assert!(matches!(
            open_object(&rk(), &blob[..20]),
            Err(NexusError::Malformed(_))
        ));
    }

    #[test]
    fn empty_body_allowed() {
        let blob = seal_object(&rk(), &pre(), b"", rand);
        let (_, body) = open_object(&rk(), &blob).unwrap();
        assert!(body.is_empty());
    }

    #[test]
    fn unscoped_blobs_keep_v1_format() {
        let blob = seal_object(&rk(), &pre(), b"body", rand);
        assert_eq!(&blob[..4], MAGIC);
        // Preamble length unchanged: the version field still sits at 37..45.
        assert_eq!(blob[Preamble::ENCODED_LEN - 8], 7);
    }

    #[test]
    fn scoped_roundtrip_resolves_by_epoch() {
        let group_key: RootKey = [0x33; 32];
        let blob = seal_object(&group_key, &scoped_pre(), b"shared", rand);
        assert_eq!(&blob[..4], MAGIC_SCOPED);
        let (preamble, body) = open_object_scoped(&blob, |scope| {
            assert_eq!(scope, Some(KeyScope { group: GroupId(3), epoch: 2 }));
            Ok(group_key)
        })
        .unwrap();
        assert_eq!(preamble, scoped_pre());
        assert_eq!(body, b"shared");
    }

    #[test]
    fn scoped_blob_fails_under_wrong_epoch_key() {
        let blob = seal_object(&[0x33; 32], &scoped_pre(), b"shared", rand);
        // A reader resolving a *different* key (e.g. the post-revocation
        // epoch) must hit an authentication failure, not wrong plaintext.
        let err =
            open_object_scoped(&blob, |_| Ok([0x44; 32])).unwrap_err();
        assert!(matches!(err, NexusError::Integrity(_)));
        // And a resolver error (no key for this epoch) propagates.
        let err = open_object_scoped(&blob, |_| {
            Err(NexusError::Integrity("no key for epoch".into()))
        })
        .unwrap_err();
        assert!(matches!(err, NexusError::Integrity(_)));
    }

    #[test]
    fn tampered_scope_fails() {
        let key: RootKey = [0x33; 32];
        let mut blob = seal_object(&key, &scoped_pre(), b"shared", rand);
        // Flip a bit in the epoch field (last 8 bytes of the scoped
        // preamble): the scope is AAD, so authentication must fail.
        blob[Preamble::SCOPED_ENCODED_LEN - 1] ^= 1;
        assert!(open_object_scoped(&blob, |_| Ok(key)).is_err());
        // Rewriting the magic to disguise a scoped blob as unscoped fails
        // outright (the preamble bytes no longer authenticate).
        let mut blob = seal_object(&key, &scoped_pre(), b"shared", rand);
        blob[..4].copy_from_slice(MAGIC);
        assert!(open_object(&key, &blob).is_err());
    }

    #[test]
    fn object_kind_roundtrip() {
        for kind in [
            ObjectKind::Supernode,
            ObjectKind::Dirnode,
            ObjectKind::DirBucket,
            ObjectKind::Filenode,
            ObjectKind::Manifest,
        ] {
            assert_eq!(ObjectKind::from_u8(kind.to_u8()).unwrap(), kind);
        }
        assert!(ObjectKind::from_u8(99).is_err());
    }
}
