//! Volume authentication (§IV-B) and the rootkey exchange protocol (§IV-B1,
//! Fig. 4) — enclave-side logic and wire formats.
//!
//! Authentication is a challenge/response: the enclave returns a nonce, the
//! user signs `nonce || ENC(rootkey, supernode)` with their identity key,
//! and the enclave verifies the signature against a public key stored in
//! the supernode.
//!
//! The exchange protocol moves a volume rootkey between two NEXUS enclaves
//! on different machines using X25519 + SGX quotes, entirely in-band over
//! the untrusted storage service, without requiring both users online:
//!
//! 1. **Setup** — the recipient's enclave binds its ECDH public key into a
//!    quote; the recipient signs it and stores the offer.
//! 2. **Exchange** — the owner verifies signature + quote (expected
//!    measurement = the NEXUS enclave), derives an ephemeral shared secret,
//!    and stores the wrapped rootkey.
//! 3. **Extraction** — the recipient's enclave derives the same secret and
//!    recovers the rootkey, sealing it to its own platform.

use nexus_crypto::ed25519::{Signature, SigningKey, VerifyingKey};
use nexus_crypto::gcm::AesGcm;
use nexus_crypto::hmac::hkdf;
use nexus_crypto::x25519;
use nexus_sgx::{AttestationService, EnclaveEnv, Measurement, Quote, SealPolicy, SealedData};

use crate::enclave::{EnclaveState, ExchangeKeys, MetaIo, Mounted};
use crate::error::{NexusError, Result};
use crate::metadata::crypto::RootKey;
use crate::uuid::NexusUuid;
use crate::wire::{Reader, Writer};

/// Tag distinguishing NEXUS exchange quotes from other report data.
const EXCHANGE_TAG: &[u8; 16] = b"NEXUS-XCHG-KEY-1";
/// AAD under which rootkeys are sealed to the local platform.
pub(crate) const ROOTKEY_SEAL_AAD: &[u8] = b"nexus-volume-rootkey";

// ---------------------------------------------------------------------------
// Authentication.
// ---------------------------------------------------------------------------

/// The exact bytes a user signs to authenticate (paper §IV-B step 3).
pub fn auth_challenge_message(nonce: &[u8; 16], supernode_blob: &[u8]) -> Vec<u8> {
    let mut msg = Vec::with_capacity(16 + supernode_blob.len());
    msg.extend_from_slice(nonce);
    msg.extend_from_slice(supernode_blob);
    msg
}

/// Ecall: begins authentication, returning a fresh nonce for `user_key`.
pub(crate) fn auth_begin(
    state: &mut EnclaveState,
    env: &EnclaveEnv<'_>,
    user_key: &VerifyingKey,
) -> Result<[u8; 16]> {
    state.mounted()?; // rootkey must be available (paper: unsealed in step 2)
    let mut nonce = [0u8; 16];
    env.random_bytes(&mut nonce);
    state.pending_auth.insert(user_key.to_bytes(), nonce);
    Ok(nonce)
}

/// Ecall: completes authentication by verifying the signature over
/// `nonce || supernode_blob`, establishing the session.
pub(crate) fn auth_complete(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    user_key: &VerifyingKey,
    signature: &Signature,
) -> Result<crate::enclave::Session> {
    let nonce = state
        .pending_auth
        .remove(&user_key.to_bytes())
        .ok_or_else(|| NexusError::Protocol("no outstanding challenge for this key".into()))?;
    let supernode_uuid = state.mounted()?.supernode_uuid;
    let storage_version = io.version(&supernode_uuid).unwrap_or(0);
    let blob = io.get(&supernode_uuid)?;

    // Re-verify the supernode we hold matches what is on storage: the
    // signature covers the ciphertext, so both sides must agree on it.
    let rootkey = state.mounted()?.rootkey;
    let (supernode, version) = crate::enclave::fetch_supernode(io, &rootkey, supernode_uuid)?;
    {
        let mounted = state.mounted()?;
        if version < mounted.supernode_version {
            return Err(NexusError::Rollback {
                object: supernode_uuid.to_string(),
                seen: mounted.supernode_version,
                got: version,
            });
        }
        mounted.supernode = supernode;
        mounted.supernode_version = version;
        mounted.supernode_storage_version = storage_version;
    }
    // On manifest-protected volumes, the supernode must also match the
    // volume freshness manifest (else a rolled-back user list could
    // resurrect revoked identities for history-less clients). The signed
    // blob cannot be refetched (the user signed this exact ciphertext), so
    // persistent disagreement is surfaced for the caller to re-run the
    // protocol; retries below absorb in-flight concurrent updates.
    {
        let mut attempt = 0u64;
        loop {
            match crate::freshness::verify_fresh(state, io, &supernode_uuid, &blob) {
                Err(NexusError::StaleRead(why)) if attempt < 32 => {
                    attempt += 1;
                    std::thread::sleep(std::time::Duration::from_micros(50 * attempt));
                    let _ = why;
                }
                Err(NexusError::StaleRead(why)) => {
                    return Err(NexusError::Integrity(format!("{why} (persisted)")));
                }
                other => break other?,
            }
        }
    }

    let msg = auth_challenge_message(&nonce, &blob);
    user_key
        .verify(&msg, signature)
        .map_err(|_| NexusError::Protocol("authentication signature invalid".into()))?;

    let mounted = state.mounted()?;
    let record = mounted
        .supernode
        .user_by_key(user_key)
        .ok_or_else(|| NexusError::AccessDenied("public key not in supernode user list".into()))?;
    let session = crate::enclave::Session {
        user_id: record.id,
        is_owner: record.id == crate::acl::OWNER_USER_ID,
    };
    mounted.session = Some(session);
    Ok(session)
}

// ---------------------------------------------------------------------------
// Sealed rootkey handling.
// ---------------------------------------------------------------------------

/// Seals `rootkey || volume_uuid` to the local platform and enclave.
pub(crate) fn seal_rootkey(
    env: &EnclaveEnv<'_>,
    rootkey: &RootKey,
    volume: &NexusUuid,
) -> Vec<u8> {
    let mut payload = Vec::with_capacity(48);
    payload.extend_from_slice(rootkey);
    payload.extend_from_slice(&volume.0);
    env.seal(SealPolicy::MrEnclave, &payload, ROOTKEY_SEAL_AAD)
        .to_bytes()
}

/// Unseals a rootkey blob produced by [`seal_rootkey`].
pub(crate) fn unseal_rootkey(
    env: &EnclaveEnv<'_>,
    sealed: &[u8],
) -> Result<(RootKey, NexusUuid)> {
    let sealed = SealedData::from_bytes(sealed)
        .map_err(|e| NexusError::Seal(e.to_string()))?;
    let payload = env
        .unseal(&sealed, ROOTKEY_SEAL_AAD)
        .map_err(|e| NexusError::Seal(e.to_string()))?;
    if payload.len() != 48 {
        return Err(NexusError::Seal("sealed rootkey payload has wrong length".into()));
    }
    let mut rootkey = [0u8; 32];
    rootkey.copy_from_slice(&payload[..32]);
    let mut uuid = [0u8; 16];
    uuid.copy_from_slice(&payload[32..]);
    Ok((rootkey, NexusUuid(uuid)))
}

// ---------------------------------------------------------------------------
// Exchange protocol messages.
// ---------------------------------------------------------------------------

/// Message 1: the recipient's signed, quoted ECDH public key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeOffer {
    /// Quote binding the enclave ECDH public key into report data.
    pub quote: Quote,
    /// Recipient's signature over the serialized quote.
    pub signature: Signature,
}

impl ExchangeOffer {
    /// Serializes for in-band storage.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(&self.quote.to_bytes());
        w.raw(&self.signature.to_bytes());
        w.into_bytes()
    }

    /// Parses an offer.
    ///
    /// # Errors
    ///
    /// [`NexusError::Protocol`] on framing problems.
    pub fn from_bytes(bytes: &[u8]) -> Result<ExchangeOffer> {
        let mut r = Reader::new(bytes);
        let quote_bytes = r.bytes().map_err(|_| NexusError::Protocol("offer truncated".into()))?;
        let quote = Quote::from_bytes(&quote_bytes)
            .ok_or_else(|| NexusError::Protocol("offer quote malformed".into()))?;
        let sig_bytes = r
            .raw(64)
            .map_err(|_| NexusError::Protocol("offer signature truncated".into()))?;
        let signature =
            Signature::from_bytes(sig_bytes).map_err(|_| NexusError::Protocol("bad signature".into()))?;
        Ok(ExchangeOffer { quote, signature })
    }

    /// The ECDH public key bound into the quote.
    pub fn enclave_public_key(&self) -> Result<[u8; 32]> {
        if &self.quote.report_data[32..48] != EXCHANGE_TAG {
            return Err(NexusError::Protocol("quote is not a NEXUS exchange quote".into()));
        }
        Ok(self.quote.report_data[..32].try_into().unwrap())
    }
}

/// Message 2: the owner's wrapped rootkey.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootKeyGrant {
    /// The owner's ephemeral ECDH public key.
    pub ephemeral_public: [u8; 32],
    /// AES-GCM nonce for the wrapped payload.
    pub nonce: [u8; 12],
    /// `ENC(k, rootkey || volume_uuid)` under the ECDH-derived key.
    pub wrapped: Vec<u8>,
    /// Owner's signature over (ephemeral_public || nonce || wrapped).
    pub signature: Signature,
}

impl RootKeyGrant {
    fn signed_portion(ephemeral_public: &[u8; 32], nonce: &[u8; 12], wrapped: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        w.raw(ephemeral_public).raw(nonce).bytes(wrapped);
        w.into_bytes()
    }

    /// Serializes for in-band storage.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.raw(&self.ephemeral_public)
            .raw(&self.nonce)
            .bytes(&self.wrapped)
            .raw(&self.signature.to_bytes());
        w.into_bytes()
    }

    /// Parses a grant.
    ///
    /// # Errors
    ///
    /// [`NexusError::Protocol`] on framing problems.
    pub fn from_bytes(bytes: &[u8]) -> Result<RootKeyGrant> {
        let mut r = Reader::new(bytes);
        let ephemeral_public = r
            .array::<32>()
            .map_err(|_| NexusError::Protocol("grant truncated".into()))?;
        let nonce = r
            .array::<12>()
            .map_err(|_| NexusError::Protocol("grant truncated".into()))?;
        let wrapped = r.bytes().map_err(|_| NexusError::Protocol("grant truncated".into()))?;
        let sig_bytes = r
            .raw(64)
            .map_err(|_| NexusError::Protocol("grant signature truncated".into()))?;
        let signature =
            Signature::from_bytes(sig_bytes).map_err(|_| NexusError::Protocol("bad signature".into()))?;
        Ok(RootKeyGrant { ephemeral_public, nonce, wrapped, signature })
    }

    /// Verifies the owner's signature.
    ///
    /// # Errors
    ///
    /// [`NexusError::Protocol`] when it does not verify.
    pub fn verify(&self, owner: &VerifyingKey) -> Result<()> {
        let msg = Self::signed_portion(&self.ephemeral_public, &self.nonce, &self.wrapped);
        owner
            .verify(&msg, &self.signature)
            .map_err(|_| NexusError::Protocol("grant signature invalid".into()))
    }

    /// Signs the grant body with the owner's identity key (done by the
    /// untrusted client, as in the paper: `m2 = SIGN(sk_o, h) | pk_eph`).
    pub fn sign(
        ephemeral_public: [u8; 32],
        nonce: [u8; 12],
        wrapped: Vec<u8>,
        owner: &SigningKey,
    ) -> RootKeyGrant {
        let msg = Self::signed_portion(&ephemeral_public, &nonce, &wrapped);
        let signature = owner.sign(&msg);
        RootKeyGrant { ephemeral_public, nonce, wrapped, signature }
    }
}

/// Storage path for a user's exchange offer.
pub fn offer_path(user_name: &str) -> String {
    format!("xchg-offer-{user_name}")
}

/// Storage path for a user's rootkey grant.
pub fn grant_path(user_name: &str) -> String {
    format!("xchg-grant-{user_name}")
}

// ---------------------------------------------------------------------------
// Enclave-side exchange operations.
// ---------------------------------------------------------------------------

/// Ensures the enclave has an ECDH identity, returning the public key.
pub(crate) fn ensure_exchange_keys(state: &mut EnclaveState, env: &EnclaveEnv<'_>) -> [u8; 32] {
    if state.exchange.is_none() {
        let mut secret = [0u8; 32];
        env.random_bytes(&mut secret);
        let public = x25519::x25519_public_key(&secret);
        state.exchange = Some(ExchangeKeys { secret, public });
    }
    state.exchange.as_ref().unwrap().public
}

/// Ecall (setup phase): produces the quote binding this enclave's ECDH key.
pub(crate) fn make_offer_quote(state: &mut EnclaveState, env: &EnclaveEnv<'_>) -> Quote {
    let public = ensure_exchange_keys(state, env);
    let mut report_data = [0u8; 64];
    report_data[..32].copy_from_slice(&public);
    report_data[32..48].copy_from_slice(EXCHANGE_TAG);
    env.quote(&report_data)
}

/// Derives the wrapping key from an ECDH shared secret.
fn wrap_key(shared: &[u8; 32], pk_eph: &[u8; 32], pk_peer: &[u8; 32]) -> [u8; 32] {
    let mut info = Vec::with_capacity(64);
    info.extend_from_slice(pk_eph);
    info.extend_from_slice(pk_peer);
    hkdf(b"nexus-exchange-v1", shared, &info, 32)
        .try_into()
        .expect("hkdf length")
}

/// Ecall (exchange phase, owner side): verifies the recipient's offer and
/// wraps the mounted volume's rootkey for the recipient's enclave.
pub(crate) fn wrap_rootkey_for(
    state: &mut EnclaveState,
    env: &EnclaveEnv<'_>,
    offer: &ExchangeOffer,
    ias: &AttestationService,
    expected_measurement: Measurement,
) -> Result<([u8; 32], [u8; 12], Vec<u8>)> {
    ias.verify_expecting(&offer.quote, expected_measurement)
        .map_err(|e| NexusError::Attestation(e.to_string()))?;
    let peer_public = offer.enclave_public_key()?;

    let mounted: &mut Mounted = state.mounted()?;
    let rootkey = mounted.rootkey;
    let volume = mounted.supernode_uuid;

    let mut eph_secret = [0u8; 32];
    env.random_bytes(&mut eph_secret);
    let eph_public = x25519::x25519_public_key(&eph_secret);
    let shared = x25519::x25519(&eph_secret, &peer_public);
    let key = wrap_key(&shared, &eph_public, &peer_public);

    let mut nonce = [0u8; 12];
    env.random_bytes(&mut nonce);
    let mut payload = Vec::with_capacity(48);
    payload.extend_from_slice(&rootkey);
    payload.extend_from_slice(&volume.0);
    let gcm = AesGcm::new_256(&key);
    let wrapped = gcm.seal(&nonce, EXCHANGE_TAG, &payload);
    // The ephemeral secret is dropped here — forward secrecy for this grant
    // rests on the recipient's long-term enclave key, as §VI-B discusses.
    Ok((eph_public, nonce, wrapped))
}

/// Ecall (extraction phase, recipient side): recovers the rootkey from a
/// verified grant and seals it to the local platform.
pub(crate) fn unwrap_rootkey(
    state: &mut EnclaveState,
    env: &EnclaveEnv<'_>,
    grant: &RootKeyGrant,
) -> Result<Vec<u8>> {
    let keys = state
        .exchange
        .as_ref()
        .ok_or_else(|| NexusError::Protocol("no exchange keypair in this enclave".into()))?;
    let shared = x25519::x25519(&keys.secret, &grant.ephemeral_public);
    let key = wrap_key(&shared, &grant.ephemeral_public, &keys.public);
    let gcm = AesGcm::new_256(&key);
    let payload = gcm
        .open(&grant.nonce, EXCHANGE_TAG, &grant.wrapped)
        .map_err(|_| NexusError::Protocol("rootkey unwrap failed (wrong enclave?)".into()))?;
    if payload.len() != 48 {
        return Err(NexusError::Protocol("grant payload has wrong length".into()));
    }
    let mut rootkey = [0u8; 32];
    rootkey.copy_from_slice(&payload[..32]);
    let mut uuid_bytes = [0u8; 16];
    uuid_bytes.copy_from_slice(&payload[32..]);
    Ok(seal_rootkey(env, &rootkey, &NexusUuid(uuid_bytes)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offer_roundtrip() {
        use nexus_sgx::{Enclave, EnclaveImage, Platform};
        let platform = Platform::seeded(1);
        let enclave = Enclave::create(&platform, &EnclaveImage::new(b"x".to_vec()), ());
        let mut report = [0u8; 64];
        report[32..48].copy_from_slice(EXCHANGE_TAG);
        let quote = enclave.ecall(|_, env| env.quote(&report));
        let sk = SigningKey::from_seed(&[7; 32]);
        let signature = sk.sign(&quote.to_bytes());
        let offer = ExchangeOffer { quote, signature };
        let parsed = ExchangeOffer::from_bytes(&offer.to_bytes()).unwrap();
        assert_eq!(parsed, offer);
        assert_eq!(parsed.enclave_public_key().unwrap(), [0u8; 32]);
    }

    #[test]
    fn offer_rejects_wrong_tag() {
        use nexus_sgx::{Enclave, EnclaveImage, Platform};
        let platform = Platform::seeded(1);
        let enclave = Enclave::create(&platform, &EnclaveImage::new(b"x".to_vec()), ());
        let quote = enclave.ecall(|_, env| env.quote(&[0u8; 64]));
        let sk = SigningKey::from_seed(&[7; 32]);
        let signature = sk.sign(&quote.to_bytes());
        let offer = ExchangeOffer { quote, signature };
        assert!(offer.enclave_public_key().is_err());
    }

    #[test]
    fn grant_roundtrip_and_signature() {
        let owner = SigningKey::from_seed(&[9; 32]);
        let grant = RootKeyGrant::sign([1; 32], [2; 12], vec![3; 48], &owner);
        let parsed = RootKeyGrant::from_bytes(&grant.to_bytes()).unwrap();
        assert_eq!(parsed, grant);
        parsed.verify(&owner.verifying_key()).unwrap();
        let other = SigningKey::from_seed(&[10; 32]);
        assert!(parsed.verify(&other.verifying_key()).is_err());
    }

    #[test]
    fn grant_tamper_detected() {
        let owner = SigningKey::from_seed(&[9; 32]);
        let grant = RootKeyGrant::sign([1; 32], [2; 12], vec![3; 48], &owner);
        let mut bytes = grant.to_bytes();
        bytes[0] ^= 1;
        let parsed = RootKeyGrant::from_bytes(&bytes).unwrap();
        assert!(parsed.verify(&owner.verifying_key()).is_err());
    }

    #[test]
    fn paths_are_distinct_per_user() {
        assert_ne!(offer_path("alice"), offer_path("bob"));
        assert_ne!(offer_path("alice"), grant_path("alice"));
    }

    #[test]
    fn auth_message_binds_nonce_and_blob() {
        let a = auth_challenge_message(&[1; 16], b"blob");
        let b = auth_challenge_message(&[2; 16], b"blob");
        let c = auth_challenge_message(&[1; 16], b"other");
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
