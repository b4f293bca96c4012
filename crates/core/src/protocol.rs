//! Volume authentication (§IV-B) and the rootkey exchange protocol (§IV-B1,
//! Fig. 4, with §VI-B's per-exchange keys) — enclave-side logic and wire
//! formats.
//!
//! Authentication is a challenge/response: the enclave returns a nonce, the
//! user signs `nonce || ENC(rootkey, supernode)` with their identity key,
//! and the enclave verifies the signature against a public key stored in
//! the supernode.
//!
//! The exchange moves a volume rootkey between two NEXUS enclaves on
//! different machines using X25519 + SGX quotes, entirely in-band over the
//! untrusted storage service, without requiring both users online:
//!
//! 1. **Offer** — the recipient's enclave draws a fresh X25519 key for this
//!    offer, binds its public half into a quote, and seals its secret half
//!    to the platform; the recipient signs the quote, stores the offer, and
//!    keeps the sealed secret (a `SealedOffer`) on local disk.
//! 2. **Grant** — the owner's enclave verifies signature + quote (expected
//!    measurement = the NEXUS enclave), draws an ephemeral key, wraps the
//!    rootkey under the shared secret, and quotes the ephemeral public key;
//!    the owner signs and stores the grant. The ephemeral secret is wiped.
//! 3. **Accept** — the recipient verifies the owner's signature, and its
//!    enclave verifies the owner's quote (mutual attestation), unseals the
//!    offer's secret, recovers the rootkey, and seals it to its own
//!    platform. The offer's secret is wiped; once the recipient deletes
//!    the sealed copy, no key that could open the grant exists anywhere.

use nexus_crypto::ct::zeroize;
use nexus_crypto::ed25519::{Signature, VerifyingKey};
use nexus_crypto::gcm::AesGcm;
use nexus_crypto::hmac::hkdf_into;
use nexus_crypto::x25519;
use nexus_sgx::{AttestationService, EnclaveEnv, Measurement, Quote, SealPolicy, SealedData};

use crate::enclave::{EnclaveState, MetaIo};
use crate::error::{NexusError, Result};
use crate::metadata::crypto::RootKey;
use crate::uuid::NexusUuid;
use crate::volume::UserKeys;
use crate::wire::{Reader, Writer};

/// Tag binding a recipient's offer key into its quote.
const OFFER_TAG: &[u8; 16] = b"NEXUS-XCHG-KEY-1";
/// Tag binding an owner's ephemeral key into its quote; also the AAD of
/// the wrapped rootkey.
const GRANT_TAG: &[u8; 16] = b"NEXUS-XCHG-OWN-1";
/// AAD under which rootkeys are sealed to the local platform.
pub(crate) const ROOTKEY_SEAL_AAD: &[u8] = b"nexus-volume-rootkey";
/// AAD under which an offer's X25519 secret is sealed.
const OFFER_SEAL_AAD: &[u8] = b"nexus-exchange-offer";

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

    // The session takes the supernode from the very blob the signature is
    // checked over: the user signed this ciphertext, so both sides agree on
    // it, and a write landing after the fetch cannot swap in another.
    let (supernode, version) =
        crate::enclave::open_supernode(&state.mounted()?.wrap, supernode_uuid, &blob)?;
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

/// `rootkey || volume_uuid`, the payload of a sealed rootkey and of a grant.
fn rootkey_payload(rootkey: &RootKey, volume: &NexusUuid) -> [u8; 48] {
    let mut payload = [0u8; 48];
    payload[..32].copy_from_slice(rootkey);
    payload[32..].copy_from_slice(&volume.0);
    payload
}

/// Splits a [`rootkey_payload`] and wipes it.
fn split_rootkey_payload(payload: &mut [u8; 48]) -> (RootKey, NexusUuid) {
    let mut rootkey = [0u8; 32];
    rootkey.copy_from_slice(&payload[..32]);
    let uuid = NexusUuid(payload[32..].try_into().expect("16 bytes"));
    zeroize(payload);
    (rootkey, uuid)
}

/// Copies a decrypted buffer out when it is exactly `N` bytes long, and
/// wipes it either way.
fn take_exact<const N: usize>(mut plain: Vec<u8>) -> Option<[u8; N]> {
    let exact = <[u8; N]>::try_from(plain.as_slice()).ok();
    zeroize(&mut plain);
    exact
}

/// Unseals a blob whose payload is exactly `N` bytes.
fn unseal_exact<const N: usize>(
    env: &EnclaveEnv<'_>,
    sealed: &[u8],
    aad: &[u8],
) -> Result<[u8; N]> {
    let sealed = SealedData::from_bytes(sealed).map_err(|e| NexusError::Seal(e.to_string()))?;
    let plain = env.unseal(&sealed, aad).map_err(|e| NexusError::Seal(e.to_string()))?;
    take_exact(plain).ok_or_else(|| NexusError::Seal("sealed payload has wrong length".into()))
}

/// Seals `rootkey || volume_uuid` to the local platform and enclave.
pub(crate) fn seal_rootkey(
    env: &EnclaveEnv<'_>,
    rootkey: &RootKey,
    volume: &NexusUuid,
) -> Vec<u8> {
    let mut payload = rootkey_payload(rootkey, volume);
    let sealed = env.seal(SealPolicy::MrEnclave, &payload, ROOTKEY_SEAL_AAD).to_bytes();
    zeroize(&mut payload);
    sealed
}

/// Unseals a rootkey blob produced by [`seal_rootkey`].
pub(crate) fn unseal_rootkey(
    env: &EnclaveEnv<'_>,
    sealed: &[u8],
) -> Result<(RootKey, NexusUuid)> {
    Ok(split_rootkey_payload(&mut unseal_exact(env, sealed, ROOTKEY_SEAL_AAD)?))
}

// ---------------------------------------------------------------------------
// Exchange protocol messages.
// ---------------------------------------------------------------------------

/// Report data binding an exchange public key under `tag`.
fn key_report(public: &[u8; 32], tag: &[u8; 16]) -> [u8; 64] {
    let mut report = [0u8; 64];
    report[..32].copy_from_slice(public);
    report[32..48].copy_from_slice(tag);
    report
}

/// The exchange public key `quote` binds under `tag`.
fn quoted_key(quote: &Quote, tag: &[u8; 16]) -> Result<[u8; 32]> {
    if &quote.report_data[32..48] != tag {
        return Err(NexusError::Protocol("quote is not a NEXUS exchange quote of this kind".into()));
    }
    Ok(quote.report_data[..32].try_into().expect("32 bytes"))
}

/// The error of a message that ends early or runs on past its end.
fn framing(what: &'static str) -> impl Fn(NexusError) -> NexusError {
    move |_| NexusError::Protocol(format!("{what} truncated or overlong"))
}

/// Message 1: the recipient's signed, quoted X25519 public key, drawn for
/// this one offer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeOffer {
    /// Quote binding the offer's public key into report data.
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
        let quote = Quote::from_bytes(&r.bytes().map_err(framing("offer"))?)
            .ok_or_else(|| NexusError::Protocol("offer quote malformed".into()))?;
        let signature = Signature::from_bytes(r.raw(64).map_err(framing("offer"))?)
            .map_err(|_| NexusError::Protocol("bad signature".into()))?;
        r.finish().map_err(framing("offer"))?;
        Ok(ExchangeOffer { quote, signature })
    }

    /// The X25519 public key bound into the quote.
    pub fn enclave_public_key(&self) -> Result<[u8; 32]> {
        quoted_key(&self.quote, OFFER_TAG)
    }
}

/// Message 2: the owner's wrapped rootkey.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootKeyGrant {
    /// Owner-enclave quote binding the owner's ephemeral X25519 key.
    pub quote: Quote,
    /// AES-GCM nonce for the wrapped payload.
    pub nonce: [u8; 12],
    /// `ENC(k, rootkey || volume_uuid)` under the ECDH-derived key.
    pub wrapped: Vec<u8>,
    /// Owner's signature over (quote || nonce || wrapped).
    pub signature: Signature,
}

impl RootKeyGrant {
    fn signed_portion(quote: &Quote, nonce: &[u8; 12], wrapped: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(&quote.to_bytes()).raw(nonce).bytes(wrapped);
        w.into_bytes()
    }

    /// Serializes for in-band storage.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = Self::signed_portion(&self.quote, &self.nonce, &self.wrapped);
        bytes.extend_from_slice(&self.signature.to_bytes());
        bytes
    }

    /// Parses a grant.
    ///
    /// # Errors
    ///
    /// [`NexusError::Protocol`] on framing problems.
    pub fn from_bytes(bytes: &[u8]) -> Result<RootKeyGrant> {
        let mut r = Reader::new(bytes);
        let quote = Quote::from_bytes(&r.bytes().map_err(framing("grant"))?)
            .ok_or_else(|| NexusError::Protocol("grant quote malformed".into()))?;
        let nonce = r.array::<12>().map_err(framing("grant"))?;
        let wrapped = r.bytes().map_err(framing("grant"))?;
        let signature = Signature::from_bytes(r.raw(64).map_err(framing("grant"))?)
            .map_err(|_| NexusError::Protocol("bad signature".into()))?;
        r.finish().map_err(framing("grant"))?;
        Ok(RootKeyGrant { quote, nonce, wrapped, signature })
    }

    /// The owner's ephemeral X25519 public key bound into the quote.
    pub fn owner_public_key(&self) -> Result<[u8; 32]> {
        quoted_key(&self.quote, GRANT_TAG)
    }

    /// Verifies the owner's signature.
    ///
    /// # Errors
    ///
    /// [`NexusError::Protocol`] when it does not verify.
    pub fn verify(&self, owner: &VerifyingKey) -> Result<()> {
        let msg = Self::signed_portion(&self.quote, &self.nonce, &self.wrapped);
        owner
            .verify(&msg, &self.signature)
            .map_err(|_| NexusError::Protocol("grant signature invalid".into()))
    }

    /// Signs the grant body with the owner's identity key (done by the
    /// untrusted client, as in the paper: `m2 = SIGN(sk_o, h) | pk_eph`).
    pub fn sign(quote: Quote, nonce: [u8; 12], wrapped: Vec<u8>, owner: &UserKeys) -> RootKeyGrant {
        let signature = owner.sign(&Self::signed_portion(&quote, &nonce, &wrapped));
        RootKeyGrant { quote, nonce, wrapped, signature }
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

/// The AES-GCM key both ends derive from one X25519 agreement: `secret` is
/// this end's key, `peer` the other end's public key. The HKDF info is
/// always the owner's public key, then the recipient's. The shared secret
/// and the derived key are wiped; the cipher wipes its own schedule.
fn exchange_cipher(
    secret: &[u8; 32],
    peer: &[u8; 32],
    owner_public: &[u8; 32],
    recipient_public: &[u8; 32],
) -> AesGcm {
    let mut shared = x25519::x25519(secret, peer);
    let mut info = [0u8; 64];
    info[..32].copy_from_slice(owner_public);
    info[32..].copy_from_slice(recipient_public);
    let mut key = [0u8; 32];
    hkdf_into(b"nexus-exchange-v1", &shared, &info, &mut key);
    let gcm = AesGcm::new_256(&key);
    zeroize(&mut shared);
    zeroize(&mut key);
    gcm
}

/// Ecall (setup phase, recipient side): draws a fresh X25519 key for one
/// offer, quotes its public half, and seals its secret half to this
/// platform and enclave. Returns the quote and the sealed secret.
pub(crate) fn make_offer(env: &EnclaveEnv<'_>) -> (Quote, Vec<u8>) {
    let mut secret = [0u8; 32];
    env.random_bytes(&mut secret);
    let public = x25519::x25519_public_key(&secret);
    let sealed = env.seal(SealPolicy::MrEnclave, &secret, OFFER_SEAL_AAD).to_bytes();
    zeroize(&mut secret);
    (env.quote(&key_report(&public, OFFER_TAG)), sealed)
}

/// Ecall (exchange phase, owner side): verifies the recipient's offer and
/// wraps the mounted volume's rootkey for it under a fresh ephemeral key,
/// which is wiped before this returns. Returns the owner-enclave quote
/// binding the ephemeral public key, the nonce, and the wrapped rootkey.
pub(crate) fn wrap_rootkey_for(
    state: &mut EnclaveState,
    env: &EnclaveEnv<'_>,
    offer: &ExchangeOffer,
    ias: &AttestationService,
    expected_measurement: Measurement,
) -> Result<(Quote, [u8; 12], Vec<u8>)> {
    ias.verify_expecting(&offer.quote, expected_measurement)
        .map_err(|e| NexusError::Attestation(e.to_string()))?;
    let peer_public = offer.enclave_public_key()?;
    let mounted = state.mounted()?;

    let mut secret = [0u8; 32];
    env.random_bytes(&mut secret);
    let public = x25519::x25519_public_key(&secret);
    let gcm = exchange_cipher(&secret, &peer_public, &public, &peer_public);
    zeroize(&mut secret);

    let mut nonce = [0u8; 12];
    env.random_bytes(&mut nonce);
    let mut payload = rootkey_payload(&mounted.rootkey, &mounted.supernode_uuid);
    let wrapped = gcm.seal(&nonce, GRANT_TAG, &payload);
    zeroize(&mut payload);
    Ok((env.quote(&key_report(&public, GRANT_TAG)), nonce, wrapped))
}

/// Ecall (extraction phase, recipient side): checks that the grant's quote
/// comes from a NEXUS enclave, unseals the offer's secret, recovers the
/// rootkey and seals it to the local platform. Every secret is wiped.
pub(crate) fn unwrap_rootkey(
    env: &EnclaveEnv<'_>,
    sealed_offer: &[u8],
    grant: &RootKeyGrant,
    ias: &AttestationService,
    expected_measurement: Measurement,
) -> Result<Vec<u8>> {
    ias.verify_expecting(&grant.quote, expected_measurement)
        .map_err(|e| NexusError::Attestation(e.to_string()))?;
    let owner_public = grant.owner_public_key()?;
    let mut secret = unseal_exact::<32>(env, sealed_offer, OFFER_SEAL_AAD)?;
    let public = x25519::x25519_public_key(&secret);
    let gcm = exchange_cipher(&secret, &owner_public, &owner_public, &public);
    zeroize(&mut secret);
    let plain = gcm
        .open(&grant.nonce, GRANT_TAG, &grant.wrapped)
        .map_err(|_| NexusError::Protocol("rootkey unwrap failed (wrong enclave?)".into()))?;
    let mut payload = take_exact::<48>(plain)
        .ok_or_else(|| NexusError::Protocol("grant payload has wrong length".into()))?;
    let (mut rootkey, volume) = split_rootkey_payload(&mut payload);
    let sealed = seal_rootkey(env, &rootkey, &volume);
    zeroize(&mut rootkey);
    Ok(sealed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_sgx::{Enclave, EnclaveImage, Platform};

    fn quote(report: &[u8; 64]) -> Quote {
        let platform = Platform::seeded(1);
        let enclave = Enclave::create(&platform, &EnclaveImage::new(b"x".to_vec()), ());
        enclave.ecall(|_, env| env.quote(report))
    }

    fn owner() -> UserKeys {
        UserKeys::from_seed("owen", &[9; 32])
    }

    #[test]
    fn offer_roundtrip() {
        let quote = quote(&key_report(&[0; 32], OFFER_TAG));
        let signature = owner().sign(&quote.to_bytes());
        let offer = ExchangeOffer { quote, signature };
        let parsed = ExchangeOffer::from_bytes(&offer.to_bytes()).unwrap();
        assert_eq!(parsed, offer);
        assert_eq!(parsed.enclave_public_key().unwrap(), [0u8; 32]);
    }

    #[test]
    fn offer_rejects_wrong_tag() {
        let quote = quote(&key_report(&[5; 32], GRANT_TAG));
        let signature = owner().sign(&quote.to_bytes());
        let offer = ExchangeOffer { quote, signature };
        assert!(offer.enclave_public_key().is_err());
        assert!(quote_of_grant(offer.quote).owner_public_key().is_ok());
    }

    fn quote_of_grant(quote: Quote) -> RootKeyGrant {
        RootKeyGrant::sign(quote, [2; 12], vec![3; 48], &owner())
    }

    #[test]
    fn grant_roundtrip_and_signature() {
        let grant = quote_of_grant(quote(&key_report(&[1; 32], GRANT_TAG)));
        let parsed = RootKeyGrant::from_bytes(&grant.to_bytes()).unwrap();
        assert_eq!(parsed, grant);
        assert_eq!(parsed.owner_public_key().unwrap(), [1; 32]);
        parsed.verify(&owner().public_key()).unwrap();
        let other = UserKeys::from_seed("mallory", &[10; 32]);
        assert!(parsed.verify(&other.public_key()).is_err());
        // An offer's quote is not an owner's: the tags keep the roles apart.
        let reflected = quote_of_grant(quote(&key_report(&[1; 32], OFFER_TAG)));
        assert!(reflected.owner_public_key().is_err());
    }

    #[test]
    fn grant_tamper_detected() {
        let grant = quote_of_grant(quote(&key_report(&[1; 32], GRANT_TAG)));
        let mut bytes = grant.to_bytes();
        bytes[4 + 48] ^= 1; // the first byte of the quoted key
        let parsed = RootKeyGrant::from_bytes(&bytes).unwrap();
        assert!(parsed.verify(&owner().public_key()).is_err());
        let mut overlong = grant.to_bytes();
        overlong.push(0);
        assert!(matches!(RootKeyGrant::from_bytes(&overlong), Err(NexusError::Protocol(_))));
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
