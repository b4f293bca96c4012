//! # nexus-cryptofs-baseline
//!
//! A SiRiUS/Plutus-style **purely cryptographic** filesystem — the class of
//! system NEXUS's revocation evaluation (§VII-E, §VIII) compares against.
//!
//! Like those systems, there is no trusted hardware: every file is encrypted
//! under a per-file key (FEK), and the FEK is stored in per-reader
//! *lockboxes*, each wrapped to one reader's public key. The consequence
//! NEXUS exists to avoid follows directly: once a reader has held a FEK, it
//! must be assumed cached, so **revoking a reader forces re-encrypting the
//! whole file under a fresh FEK** and re-wrapping it for every remaining
//! reader — cost proportional to file size × sharing degree, exactly as
//! Garrison et al. measured.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use nexus_cryptofs_baseline::{CryptoFs, Identity};
//! use nexus_storage::MemBackend;
//!
//! let store = Arc::new(MemBackend::new());
//! let owner = Identity::from_seed("owen", &[1; 32]);
//! let alice = Identity::from_seed("alice", &[2; 32]);
//! let fs = CryptoFs::new(store, owner.clone());
//!
//! fs.write_file("doc.txt", b"hello", &[alice.public()]).unwrap();
//! assert_eq!(fs.read_file_as(&alice, "doc.txt").unwrap(), b"hello");
//!
//! // Revocation: the whole file is re-encrypted.
//! let cost = fs.revoke_reader("doc.txt", "alice").unwrap();
//! assert_eq!(cost.file_bytes_reencrypted, 5);
//! assert!(fs.read_file_as(&alice, "doc.txt").is_err());
//! ```

use std::cell::RefCell;
use std::sync::Arc;

use nexus_crypto::ed25519::{Signature, SigningKey, VerifyingKey};
use nexus_crypto::gcm::{AesGcm, TAG_LEN};
use nexus_crypto::hmac::hkdf;
use nexus_crypto::rng::{OsRandom, SecureRandom};
use nexus_crypto::write_once::{Slot, WriteOnce};
use nexus_crypto::x25519;
use nexus_storage::StorageBackend;

/// Errors from the baseline filesystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoFsError {
    /// Object missing on the store.
    NotFound(String),
    /// The caller holds no lockbox for this file.
    NoAccess(String),
    /// Decryption or signature verification failed.
    Integrity(String),
    /// The underlying store failed.
    Storage(String),
    /// Metadata failed to parse.
    Malformed(String),
}

impl std::fmt::Display for CryptoFsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoFsError::NotFound(p) => write!(f, "not found: {p}"),
            CryptoFsError::NoAccess(who) => write!(f, "no lockbox for {who}"),
            CryptoFsError::Integrity(w) => write!(f, "integrity failure: {w}"),
            CryptoFsError::Storage(w) => write!(f, "storage failure: {w}"),
            CryptoFsError::Malformed(w) => write!(f, "malformed metadata: {w}"),
        }
    }
}

impl std::error::Error for CryptoFsError {}

type Result<T> = std::result::Result<T, CryptoFsError>;

/// A user identity: X25519 keys for lockboxes, Ed25519 for signatures.
#[derive(Clone)]
pub struct Identity {
    name: String,
    dh_secret: [u8; 32],
    signing: SigningKey,
}

impl std::fmt::Debug for Identity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Identity").field("name", &self.name).finish()
    }
}

/// The public half of an [`Identity`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublicIdentity {
    /// User name.
    pub name: String,
    /// X25519 public key (lockbox wrapping).
    pub dh_public: [u8; 32],
    /// Ed25519 public key (signature verification).
    pub verify: VerifyingKey,
}

impl Identity {
    /// Deterministic identity for tests and benchmarks.
    pub fn from_seed(name: &str, seed: &[u8; 32]) -> Identity {
        let expanded = hkdf(b"cryptofs-id", seed, name.as_bytes(), 64);
        let mut dh_secret = [0u8; 32];
        dh_secret.copy_from_slice(&expanded[..32]);
        let mut sig_seed = [0u8; 32];
        sig_seed.copy_from_slice(&expanded[32..]);
        Identity { name: name.to_string(), dh_secret, signing: SigningKey::from_seed(&sig_seed) }
    }

    /// Fresh random identity.
    pub fn generate(name: &str, rng: &mut dyn SecureRandom) -> Identity {
        let mut seed = [0u8; 32];
        rng.fill(&mut seed);
        Identity::from_seed(name, &seed)
    }

    /// The name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shareable public half.
    pub fn public(&self) -> PublicIdentity {
        PublicIdentity {
            name: self.name.clone(),
            dh_public: x25519::x25519_public_key(&self.dh_secret),
            verify: self.signing.verifying_key(),
        }
    }
}

/// A FEK wrapped to one reader.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Lockbox {
    reader: String,
    reader_dh_public: [u8; 32],
    ephemeral_public: [u8; 32],
    nonce: [u8; 12],
    wrapped_fek: Vec<u8>,
}

/// Per-file metadata: lockboxes plus the owner's signature.
#[derive(Debug, Clone)]
struct FileMeta {
    data_object: String,
    file_nonce: [u8; 12],
    lockboxes: Vec<Lockbox>,
}

/// What a revocation cost (the quantity §VII-E compares).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RevocationCost {
    /// Plaintext bytes re-encrypted under the fresh FEK.
    pub file_bytes_reencrypted: u64,
    /// Metadata bytes rewritten (lockboxes + signature).
    pub metadata_bytes: u64,
    /// Lockboxes re-wrapped for remaining readers.
    pub lockboxes_rewrapped: u64,
}

/// The pure-cryptographic filesystem.
pub struct CryptoFs {
    store: Arc<dyn StorageBackend>,
    owner: Identity,
}

impl std::fmt::Debug for CryptoFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CryptoFs").field("owner", &self.owner.name).finish()
    }
}

fn meta_path(path: &str) -> String {
    format!("cfs-meta-{path}")
}

fn data_path(path: &str) -> String {
    format!("cfs-data-{path}")
}

fn lockbox_key(shared: &[u8; 32], eph: &[u8; 32], reader: &[u8; 32]) -> [u8; 32] {
    let mut info = Vec::with_capacity(64);
    info.extend_from_slice(eph);
    info.extend_from_slice(reader);
    hkdf(b"cryptofs-lockbox", shared, &info, 32).try_into().unwrap()
}

/// Plaintext bytes per chunk of the baseline's chunked data format.
const CHUNK_SIZE: usize = 1 << 20;

/// Per-chunk nonce: the file nonce with the chunk index folded into the
/// low 32 bits, so every chunk of a (FEK, file nonce) pair is sealed under
/// a distinct nonce while metadata still stores a single 12-byte value.
fn chunk_nonce(file_nonce: &[u8; 12], index: u64) -> [u8; 12] {
    let mut nonce = *file_nonce;
    for (b, c) in nonce[8..].iter_mut().zip((index as u32).to_be_bytes()) {
        *b ^= c;
    }
    nonce
}

/// Per-chunk AAD binding the chunk to its path, position, and file size,
/// so chunks cannot be dropped, duplicated, or swapped between positions.
fn chunk_aad(path: &str, index: u64, total_size: u64) -> Vec<u8> {
    let mut aad = path.as_bytes().to_vec();
    aad.extend_from_slice(&index.to_be_bytes());
    aad.extend_from_slice(&total_size.to_be_bytes());
    aad
}

/// Seals `data` as concatenated `chunk_size`-plaintext chunks, fanning the
/// per-chunk AES-GCM over the worker pool, each chunk sealed straight into
/// its slot of the one output buffer. An empty file is one empty sealed
/// chunk (a bare tag), so even zero-length contents are authenticated.
/// Output is byte-identical at every worker count: chunk nonces are
/// derived, not drawn, and a slot's position is a function of its index.
fn seal_file(gcm: &AesGcm, file_nonce: &[u8; 12], path: &str, data: &[u8], chunk_size: usize) -> Vec<u8> {
    let chunks: Vec<&[u8]> =
        if data.is_empty() { vec![&[][..]] } else { data.chunks(chunk_size).collect() };
    let total = data.len() as u64;
    let mut ciphertext = WriteOnce::reserve(data.len() + chunks.len() * TAG_LEN);
    let slots = ciphertext.slots(chunks.iter().map(|chunk| chunk.len() + TAG_LEN));
    let mut jobs: Vec<(&[u8], Slot<'_>)> = chunks.into_iter().zip(slots).collect();
    nexus_pool::global().par_map_indexed_mut(&mut jobs, |idx, (chunk, slot)| {
        let nonce = chunk_nonce(file_nonce, idx as u64);
        slot.seal(gcm, &nonce, &chunk_aad(path, idx as u64, total), chunk);
    });
    ciphertext.finish()
}

/// Opens ciphertext produced by [`seal_file`] into one plaintext buffer.
/// Chunk boundaries are recovered from length arithmetic: every chunk but
/// the last carries exactly `chunk_size` plaintext bytes. On any failing
/// chunk the whole buffer is dropped unfinished (each failing slot already
/// zeroized by `Slot::open`) and only the error is returned.
fn open_file(
    gcm: &AesGcm,
    file_nonce: &[u8; 12],
    path: &str,
    ciphertext: &[u8],
    chunk_size: usize,
) -> Result<Vec<u8>> {
    let pieces: Vec<&[u8]> = ciphertext.chunks(chunk_size + TAG_LEN).collect();
    if pieces.last().is_none_or(|last| last.len() < TAG_LEN) {
        return Err(CryptoFsError::Integrity("data object truncated".into()));
    }
    let total = ciphertext.len() - pieces.len() * TAG_LEN;
    let mut plain = WriteOnce::reserve(total);
    let slots = plain.slots(pieces.iter().map(|piece| piece.len() - TAG_LEN));
    let mut jobs: Vec<(&[u8], Slot<'_>)> = pieces.into_iter().zip(slots).collect();
    let opened = nexus_pool::global().par_map_indexed_mut(&mut jobs, |idx, (piece, slot)| {
        let nonce = chunk_nonce(file_nonce, idx as u64);
        slot.open(gcm, &nonce, &chunk_aad(path, idx as u64, total as u64), piece)
            .map_err(|_| CryptoFsError::Integrity("file authentication failed".into()))
    });
    // Index order, so the surfaced error is the lowest failing chunk.
    opened.into_iter().collect::<Result<()>>()?;
    Ok(plain.finish())
}

/// Draws random bytes from a thread-local CSPRNG. The data path fans file
/// chunks out over worker threads, so a shared `Mutex<OsRandom>` on the
/// filesystem handle would serialize workers on the lock; instead every
/// draw (FEK, nonces, ephemeral secrets — all per-file or per-reader, all
/// outside the chunk loop) uses its calling thread's own generator.
fn fill(dest: &mut [u8]) {
    thread_local! {
        static RNG: RefCell<OsRandom> = RefCell::new(OsRandom::new());
    }
    RNG.with(|rng| rng.borrow_mut().fill(dest));
}

impl CryptoFs {
    /// Creates a filesystem handle acting as `owner` over `store`.
    pub fn new(store: Arc<dyn StorageBackend>, owner: Identity) -> CryptoFs {
        CryptoFs { store, owner }
    }

    /// The underlying store (for benchmarks inspecting traffic).
    pub fn store(&self) -> &Arc<dyn StorageBackend> {
        &self.store
    }

    fn fill(&self, dest: &mut [u8]) {
        fill(dest);
    }

    /// Encrypts and stores `data` at `path`, readable by the owner plus
    /// `readers`.
    ///
    /// # Errors
    ///
    /// Storage failures.
    pub fn write_file(&self, path: &str, data: &[u8], readers: &[PublicIdentity]) -> Result<()> {
        let mut fek = [0u8; 32];
        self.fill(&mut fek);
        self.write_with_fek(path, data, readers, fek)
    }

    fn write_with_fek(
        &self,
        path: &str,
        data: &[u8],
        readers: &[PublicIdentity],
        fek: [u8; 32],
    ) -> Result<()> {
        let mut file_nonce = [0u8; 12];
        self.fill(&mut file_nonce);
        let gcm = AesGcm::new_256(&fek);
        let ciphertext = seal_file(&gcm, &file_nonce, path, data, CHUNK_SIZE);
        self.store
            .put(&data_path(path), &ciphertext)
            .map_err(|e| CryptoFsError::Storage(e.to_string()))?;

        let owner_public = self.owner.public();
        let mut all_readers: Vec<PublicIdentity> = vec![owner_public];
        all_readers.extend(readers.iter().cloned());
        let mut lockboxes = Vec::with_capacity(all_readers.len());
        for reader in &all_readers {
            let mut eph_secret = [0u8; 32];
            self.fill(&mut eph_secret);
            let eph_public = x25519::x25519_public_key(&eph_secret);
            let shared = x25519::x25519(&eph_secret, &reader.dh_public);
            let key = lockbox_key(&shared, &eph_public, &reader.dh_public);
            let mut nonce = [0u8; 12];
            self.fill(&mut nonce);
            let wrapped_fek = AesGcm::new_256(&key).seal(&nonce, reader.name.as_bytes(), &fek);
            lockboxes.push(Lockbox {
                reader: reader.name.clone(),
                reader_dh_public: reader.dh_public,
                ephemeral_public: eph_public,
                nonce,
                wrapped_fek,
            });
        }
        let meta = self.encode_meta(path, &file_nonce, &lockboxes);
        self.store
            .put(&meta_path(path), &meta)
            .map_err(|e| CryptoFsError::Storage(e.to_string()))?;
        Ok(())
    }

    fn encode_meta(&self, path: &str, file_nonce: &[u8; 12], lockboxes: &[Lockbox]) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(file_nonce);
        body.extend_from_slice(&(lockboxes.len() as u32).to_le_bytes());
        for lb in lockboxes {
            let name = lb.reader.as_bytes();
            body.extend_from_slice(&(name.len() as u32).to_le_bytes());
            body.extend_from_slice(name);
            body.extend_from_slice(&lb.reader_dh_public);
            body.extend_from_slice(&lb.ephemeral_public);
            body.extend_from_slice(&lb.nonce);
            body.extend_from_slice(&(lb.wrapped_fek.len() as u32).to_le_bytes());
            body.extend_from_slice(&lb.wrapped_fek);
        }
        let mut signed = path.as_bytes().to_vec();
        signed.extend_from_slice(&body);
        let signature = self.owner.signing.sign(&signed);
        body.extend_from_slice(&signature.to_bytes());
        body
    }

    fn decode_meta(&self, path: &str, bytes: &[u8]) -> Result<FileMeta> {
        if bytes.len() < 12 + 4 + 64 {
            return Err(CryptoFsError::Malformed("metadata too short".into()));
        }
        let (body, sig_bytes) = bytes.split_at(bytes.len() - 64);
        let signature = Signature::from_bytes(sig_bytes)
            .map_err(|_| CryptoFsError::Malformed("bad signature bytes".into()))?;
        let mut signed = path.as_bytes().to_vec();
        signed.extend_from_slice(body);
        self.owner
            .signing
            .verifying_key()
            .verify(&signed, &signature)
            .map_err(|_| CryptoFsError::Integrity("owner signature invalid".into()))?;

        let mut off = 0usize;
        let take = |off: &mut usize, n: usize| -> Result<&[u8]> {
            let out = body
                .get(*off..*off + n)
                .ok_or_else(|| CryptoFsError::Malformed("truncated".into()))?;
            *off += n;
            Ok(out)
        };
        let file_nonce: [u8; 12] = take(&mut off, 12)?.try_into().unwrap();
        let count = u32::from_le_bytes(take(&mut off, 4)?.try_into().unwrap()) as usize;
        if count > 100_000 {
            return Err(CryptoFsError::Malformed("absurd lockbox count".into()));
        }
        let mut lockboxes = Vec::with_capacity(count);
        for _ in 0..count {
            let name_len = u32::from_le_bytes(take(&mut off, 4)?.try_into().unwrap()) as usize;
            let reader = String::from_utf8(take(&mut off, name_len)?.to_vec())
                .map_err(|_| CryptoFsError::Malformed("bad utf-8".into()))?;
            let reader_dh_public: [u8; 32] = take(&mut off, 32)?.try_into().unwrap();
            let ephemeral_public: [u8; 32] = take(&mut off, 32)?.try_into().unwrap();
            let nonce: [u8; 12] = take(&mut off, 12)?.try_into().unwrap();
            let fek_len = u32::from_le_bytes(take(&mut off, 4)?.try_into().unwrap()) as usize;
            let wrapped_fek = take(&mut off, fek_len)?.to_vec();
            lockboxes.push(Lockbox {
                reader,
                reader_dh_public,
                ephemeral_public,
                nonce,
                wrapped_fek,
            });
        }
        Ok(FileMeta { data_object: data_path(path), file_nonce, lockboxes })
    }

    fn load_meta(&self, path: &str) -> Result<FileMeta> {
        let bytes = self
            .store
            .get(&meta_path(path))
            .map_err(|_| CryptoFsError::NotFound(path.to_string()))?;
        self.decode_meta(path, &bytes)
    }

    fn unwrap_fek(&self, meta: &FileMeta, identity: &Identity) -> Result<[u8; 32]> {
        let lb = meta
            .lockboxes
            .iter()
            .find(|lb| lb.reader == identity.name)
            .ok_or_else(|| CryptoFsError::NoAccess(identity.name.clone()))?;
        let shared = x25519::x25519(&identity.dh_secret, &lb.ephemeral_public);
        let key = lockbox_key(&shared, &lb.ephemeral_public, &lb.reader_dh_public);
        let fek = AesGcm::new_256(&key)
            .open(&lb.nonce, identity.name.as_bytes(), &lb.wrapped_fek)
            .map_err(|_| CryptoFsError::Integrity("lockbox unwrap failed".into()))?;
        fek.try_into()
            .map_err(|_| CryptoFsError::Malformed("fek length".into()))
    }

    /// Reads `path` as the owner.
    ///
    /// # Errors
    ///
    /// [`CryptoFsError::NotFound`] or integrity failures.
    pub fn read_file(&self, path: &str) -> Result<Vec<u8>> {
        self.read_file_as(&self.owner, path)
    }

    /// Reads `path` as an arbitrary identity holding a lockbox.
    ///
    /// # Errors
    ///
    /// [`CryptoFsError::NoAccess`] when no lockbox exists for the identity.
    pub fn read_file_as(&self, identity: &Identity, path: &str) -> Result<Vec<u8>> {
        let meta = self.load_meta(path)?;
        let fek = self.unwrap_fek(&meta, identity)?;
        let ciphertext = self
            .store
            .get(&meta.data_object)
            .map_err(|_| CryptoFsError::NotFound(path.to_string()))?;
        open_file(&AesGcm::new_256(&fek), &meta.file_nonce, path, &ciphertext, CHUNK_SIZE)
    }

    /// Readers (including the owner) currently holding lockboxes on `path`.
    pub fn readers(&self, path: &str) -> Result<Vec<String>> {
        Ok(self.load_meta(path)?.lockboxes.iter().map(|l| l.reader.clone()).collect())
    }

    /// Grants `reader` access: cheap — adds one lockbox, no re-encryption.
    ///
    /// # Errors
    ///
    /// Lookup/storage failures.
    pub fn grant_reader(&self, path: &str, reader: &PublicIdentity) -> Result<()> {
        let meta = self.load_meta(path)?;
        let fek = self.unwrap_fek(&meta, &self.owner)?;
        let mut eph_secret = [0u8; 32];
        self.fill(&mut eph_secret);
        let eph_public = x25519::x25519_public_key(&eph_secret);
        let shared = x25519::x25519(&eph_secret, &reader.dh_public);
        let key = lockbox_key(&shared, &eph_public, &reader.dh_public);
        let mut nonce = [0u8; 12];
        self.fill(&mut nonce);
        let wrapped_fek = AesGcm::new_256(&key).seal(&nonce, reader.name.as_bytes(), &fek);
        let mut lockboxes = meta.lockboxes;
        lockboxes.retain(|lb| lb.reader != reader.name);
        lockboxes.push(Lockbox {
            reader: reader.name.clone(),
            reader_dh_public: reader.dh_public,
            ephemeral_public: eph_public,
            nonce,
            wrapped_fek,
        });
        let bytes = self.encode_meta(path, &meta.file_nonce, &lockboxes);
        self.store
            .put(&meta_path(path), &bytes)
            .map_err(|e| CryptoFsError::Storage(e.to_string()))?;
        Ok(())
    }

    /// Revokes `reader`: the expensive path. Decrypts the file, re-encrypts
    /// it under a fresh FEK, and re-wraps for every remaining reader.
    ///
    /// # Errors
    ///
    /// Lookup/storage failures.
    pub fn revoke_reader(&self, path: &str, reader: &str) -> Result<RevocationCost> {
        let meta = self.load_meta(path)?;
        let plaintext = self.read_file(path)?;

        let remaining: Vec<PublicIdentity> = meta
            .lockboxes
            .iter()
            .filter(|lb| lb.reader != reader && lb.reader != self.owner.name)
            .map(|lb| PublicIdentity {
                name: lb.reader.clone(),
                dh_public: lb.reader_dh_public,
                // Signature keys are not needed for lockbox wrapping.
                verify: self.owner.signing.verifying_key(),
            })
            .collect();

        let mut fek = [0u8; 32];
        self.fill(&mut fek);
        self.write_with_fek(path, &plaintext, &remaining, fek)?;
        let meta_bytes = self
            .store
            .get(&meta_path(path))
            .map_err(|e| CryptoFsError::Storage(e.to_string()))?;
        Ok(RevocationCost {
            file_bytes_reencrypted: plaintext.len() as u64,
            metadata_bytes: meta_bytes.len() as u64,
            lockboxes_rewrapped: remaining.len() as u64 + 1,
        })
    }

    /// Deletes `path`.
    ///
    /// # Errors
    ///
    /// [`CryptoFsError::NotFound`] when absent.
    pub fn remove(&self, path: &str) -> Result<()> {
        self.store
            .delete(&meta_path(path))
            .map_err(|_| CryptoFsError::NotFound(path.to_string()))?;
        let _ = self.store.delete(&data_path(path));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_storage::MemBackend;

    fn setup() -> (CryptoFs, Identity, Identity) {
        let store = Arc::new(MemBackend::new());
        let owner = Identity::from_seed("owen", &[1; 32]);
        let alice = Identity::from_seed("alice", &[2; 32]);
        (CryptoFs::new(store, owner.clone()), owner, alice)
    }

    #[test]
    fn owner_roundtrip() {
        let (fs, _, _) = setup();
        fs.write_file("f", b"data", &[]).unwrap();
        assert_eq!(fs.read_file("f").unwrap(), b"data");
    }

    #[test]
    fn reader_with_lockbox_can_read() {
        let (fs, _, alice) = setup();
        fs.write_file("f", b"data", &[alice.public()]).unwrap();
        assert_eq!(fs.read_file_as(&alice, "f").unwrap(), b"data");
    }

    #[test]
    fn outsider_cannot_read() {
        let (fs, _, _) = setup();
        let eve = Identity::from_seed("eve", &[9; 32]);
        fs.write_file("f", b"data", &[]).unwrap();
        assert!(matches!(fs.read_file_as(&eve, "f"), Err(CryptoFsError::NoAccess(_))));
    }

    #[test]
    fn grant_is_cheap_and_works() {
        let (fs, _, alice) = setup();
        fs.write_file("f", b"data", &[]).unwrap();
        let writes_before = fs.store().stats().bytes_written;
        fs.grant_reader("f", &alice.public()).unwrap();
        let grant_bytes = fs.store().stats().bytes_written - writes_before;
        assert!(grant_bytes < 1024, "grant rewrites only metadata: {grant_bytes}");
        assert_eq!(fs.read_file_as(&alice, "f").unwrap(), b"data");
        assert_eq!(fs.readers("f").unwrap().len(), 2);
    }

    #[test]
    fn revocation_reencrypts_whole_file() {
        let (fs, _, alice) = setup();
        let bob = Identity::from_seed("bob", &[3; 32]);
        let data = vec![7u8; 100_000];
        fs.write_file("f", &data, &[alice.public(), bob.public()]).unwrap();
        let cost = fs.revoke_reader("f", "alice").unwrap();
        assert_eq!(cost.file_bytes_reencrypted, 100_000);
        assert_eq!(cost.lockboxes_rewrapped, 2, "owner + bob");
        assert!(fs.read_file_as(&alice, "f").is_err());
        assert_eq!(fs.read_file_as(&bob, "f").unwrap(), data);
        assert_eq!(fs.read_file("f").unwrap(), data);
    }

    #[test]
    fn tampered_metadata_detected() {
        let (fs, _, _) = setup();
        fs.write_file("f", b"data", &[]).unwrap();
        let store = fs.store().clone();
        let mut meta = store.get(&meta_path("f")).unwrap();
        meta[20] ^= 1;
        store.put(&meta_path("f"), &meta).unwrap();
        assert!(matches!(fs.read_file("f"), Err(CryptoFsError::Integrity(_))));
    }

    #[test]
    fn tampered_data_detected() {
        let (fs, _, _) = setup();
        fs.write_file("f", b"data", &[]).unwrap();
        let store = fs.store().clone();
        let mut data = store.get(&data_path("f")).unwrap();
        data[0] ^= 1;
        store.put(&data_path("f"), &data).unwrap();
        assert!(matches!(fs.read_file("f"), Err(CryptoFsError::Integrity(_))));
    }

    #[test]
    fn chunked_format_roundtrips_at_boundaries() {
        let gcm = AesGcm::new_256(&[0x4e; 32]);
        let nonce = [6u8; 12];
        // Small chunk size so boundary cases stay cheap; the public path
        // uses the same code with CHUNK_SIZE.
        let chunk = 64usize;
        for len in [0usize, 1, 63, 64, 65, 128, 129, 1000] {
            let data: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let ct = seal_file(&gcm, &nonce, "p", &data, chunk);
            let expect_chunks = if len == 0 { 1 } else { len.div_ceil(chunk) };
            assert_eq!(ct.len(), len + expect_chunks * TAG_LEN, "len={len}");
            assert_eq!(open_file(&gcm, &nonce, "p", &ct, chunk).unwrap(), data, "len={len}");
        }
    }

    #[test]
    fn chunked_format_rejects_chunk_swaps_and_tampering() {
        let gcm = AesGcm::new_256(&[0x4e; 32]);
        let nonce = [6u8; 12];
        let chunk = 64usize;
        let per = chunk + TAG_LEN;
        let data: Vec<u8> = (0..256u32).map(|i| i as u8).collect();
        let ct = seal_file(&gcm, &nonce, "p", &data, chunk);

        // Swapping two full chunks must fail: position is in the AAD.
        let mut swapped = ct.clone();
        swapped.copy_within(per..2 * per, 0);
        swapped[per..2 * per].copy_from_slice(&ct[..per]);
        assert!(open_file(&gcm, &nonce, "p", &swapped, chunk).is_err());

        // Truncating to a whole-chunk boundary must fail: size is in the AAD.
        assert!(open_file(&gcm, &nonce, "p", &ct[..per * 2], chunk).is_err());

        // Flipping one bit in the middle chunk must fail.
        let mut flipped = ct.clone();
        flipped[per + 3] ^= 1;
        assert!(open_file(&gcm, &nonce, "p", &flipped, chunk).is_err());

        // A different path must fail.
        assert!(open_file(&gcm, &nonce, "q", &ct, chunk).is_err());
    }

    #[test]
    fn multi_chunk_file_roundtrips_through_public_api() {
        let (fs, _, alice) = setup();
        // Crosses a CHUNK_SIZE boundary so the public path exercises >1 chunk.
        let data: Vec<u8> = (0..CHUNK_SIZE + 4096).map(|i| (i % 251) as u8).collect();
        fs.write_file("big", &data, &[alice.public()]).unwrap();
        assert_eq!(fs.read_file("big").unwrap(), data);
        assert_eq!(fs.read_file_as(&alice, "big").unwrap(), data);
        let cost = fs.revoke_reader("big", "alice").unwrap();
        assert_eq!(cost.file_bytes_reencrypted, data.len() as u64);
        assert!(fs.read_file_as(&alice, "big").is_err());
        assert_eq!(fs.read_file("big").unwrap(), data);
    }

    #[test]
    fn empty_file_is_authenticated() {
        let (fs, _, _) = setup();
        fs.write_file("empty", b"", &[]).unwrap();
        assert_eq!(fs.read_file("empty").unwrap(), b"");
        // Even an empty file carries a tag; corrupting it is detected.
        let store = fs.store().clone();
        let mut data = store.get(&data_path("empty")).unwrap();
        assert_eq!(data.len(), TAG_LEN);
        data[0] ^= 1;
        store.put(&data_path("empty"), &data).unwrap();
        assert!(matches!(fs.read_file("empty"), Err(CryptoFsError::Integrity(_))));
    }

    #[test]
    fn remove_deletes_both_objects() {
        let (fs, _, _) = setup();
        fs.write_file("f", b"data", &[]).unwrap();
        fs.remove("f").unwrap();
        assert!(matches!(fs.read_file("f"), Err(CryptoFsError::NotFound(_))));
        assert!(fs.remove("f").is_err());
    }
}
