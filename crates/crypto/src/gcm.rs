//! AES-GCM authenticated encryption (NIST SP 800-38D).
//!
//! NEXUS uses AES-GCM for all bulk metadata and file-chunk encryption: the
//! protected section of every metadata object and every 1 MB file chunk is
//! sealed with a fresh key and IV, with the unprotected sections passed as
//! additional authenticated data.
//!
//! # Examples
//!
//! ```
//! use nexus_crypto::gcm::AesGcm;
//!
//! let gcm = AesGcm::new_128(&[7u8; 16]);
//! let sealed = gcm.seal(&[1u8; 12], b"header", b"secret payload");
//! let opened = gcm.open(&[1u8; 12], b"header", &sealed).unwrap();
//! assert_eq!(opened, b"secret payload");
//! ```

use crate::aes::{Aes, KeySize};
use crate::ct::ct_eq;
use crate::ghash_ct::ghash_mul_ct;
use crate::{AeadError, CryptoBackend};

/// Length in bytes of the GCM authentication tag.
pub const TAG_LEN: usize = 16;
/// Length in bytes of the GCM nonce (IV).
pub const NONCE_LEN: usize = 12;

/// One application of the GHASH shift map (multiplication by `x` in the
/// bit-reflected representation of SP 800-38D §6.3).
#[inline]
fn ghash_shift(v: u128) -> u128 {
    const R: u128 = 0xe1 << 120;
    if v & 1 == 1 {
        (v >> 1) ^ R
    } else {
        v >> 1
    }
}

/// One Shoup 4-bit lookup table: `table[p][nib]` is the field product of
/// the key with a nibble placed at bit position `4p` of the multiplicand,
/// so a full multiplication is 32 lookups and XORs.
type ShoupTable = [[u128; 16]; 32];

/// Minimum per-update payload before the 8-block batched GHASH/POLYVAL
/// pays for itself. Metadata objects stay on the scalar path; 1 MB file
/// chunks always batch.
pub(crate) const GHASH_BATCH_MIN: usize = 8 * 1024;

/// Expands `h` into a [`ShoupTable`].
fn build_table(h: u128) -> Box<ShoupTable> {
    // In the bitwise reference, bit i (LSB = 0) of the multiplicand
    // selects H shifted (127 - i) times.
    let mut shifted = [0u128; 128];
    shifted[0] = h;
    for k in 1..128 {
        shifted[k] = ghash_shift(shifted[k - 1]);
    }
    let mut table = Box::new([[0u128; 16]; 32]);
    for p in 0..32 {
        for nib in 0..16usize {
            let mut acc = 0u128;
            for b in 0..4 {
                if (nib >> b) & 1 == 1 {
                    acc ^= shifted[127 - (4 * p + b)];
                }
            }
            table[p][nib] = acc;
        }
    }
    table
}

/// Field multiplication of `x` by the key expanded into `table`.
#[inline]
fn table_mul(table: &ShoupTable, x: u128) -> u128 {
    let mut z = 0u128;
    for p in 0..32 {
        z ^= table[p][((x >> (4 * p)) & 0xf) as usize];
    }
    z
}

/// A GHASH key on one of three engines. The constant-time engines keep
/// the powers of H and multiply either through PCLMULQDQ with aggregated
/// reduction ([`crate::ghash_clmul`]) or the portable masked carryless
/// path ([`crate::ghash_ct`]); the table (reference) engine expands H
/// into a Shoup table and multiplies one block at a time. All key
/// material is volatilely zeroized on drop.
#[derive(Clone)]
struct GhashKey {
    h: u128,
    /// `hpow[k]` is H^(k+1); index 7 is H^8 (the 8-block batch).
    hpow: [u128; 8],
    /// Shoup table for H — `Some` only on the table engine.
    table: Option<Box<ShoupTable>>,
    /// Multiplications run through PCLMULQDQ (set only when the paired
    /// AES key dispatched to [`CryptoBackend::HwAccel`], so the two always
    /// share one CPUID decision).
    hw: bool,
}

/// One constant-time field multiplication on whichever engine the key
/// selected: PCLMULQDQ when `hw`, the masked portable multiply otherwise.
#[inline]
fn ct_mul(hw: bool, x: u128, y: u128) -> u128 {
    #[cfg(target_arch = "x86_64")]
    if hw {
        return crate::ghash_clmul::ghash_mul_hw(x, y);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = hw;
    ghash_mul_ct(x, y)
}

impl std::fmt::Debug for GhashKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("GhashKey { .. }")
    }
}

impl GhashKey {
    fn new(h: u128, backend: CryptoBackend) -> GhashKey {
        let table = (backend == CryptoBackend::Table).then(|| build_table(h));
        let mut key = GhashKey { h, hpow: [h; 8], table, hw: backend == CryptoBackend::HwAccel };
        for k in 1..8 {
            key.hpow[k] = key.mul(key.hpow[k - 1]);
        }
        key
    }

    /// Field multiplication of `x` by H.
    #[inline]
    fn mul(&self, x: u128) -> u128 {
        match &self.table {
            Some(t) => table_mul(t, x),
            None => ct_mul(self.hw, x, self.h),
        }
    }

    /// Volatile best-effort clear of H, its powers, and the Shoup table
    /// (also invoked by `Drop`).
    fn wipe(&mut self) {
        crate::ct::zeroize_u128(std::slice::from_mut(&mut self.h));
        crate::ct::zeroize_u128(&mut self.hpow);
        if let Some(t) = &mut self.table {
            crate::ct::zeroize_u128(t.as_flattened_mut());
        }
    }
}

impl Drop for GhashKey {
    fn drop(&mut self) {
        self.wipe();
    }
}

/// Incremental GHASH state.
#[derive(Debug)]
struct Ghash<'k> {
    key: &'k GhashKey,
    acc: u128,
    /// When false, force the scalar one-block-at-a-time path (reference
    /// implementation used for differential testing).
    batch_enabled: bool,
}

impl<'k> Ghash<'k> {
    fn new(key: &'k GhashKey) -> Ghash<'k> {
        Ghash { key, acc: 0, batch_enabled: true }
    }

    fn new_scalar(key: &'k GhashKey) -> Ghash<'k> {
        Ghash { key, acc: 0, batch_enabled: false }
    }

    /// Absorbs `data`, zero-padding the final partial block.
    ///
    /// Large updates on the constant-time engines run 8 blocks per pass:
    /// the Horner recurrence `Y' = (Y ^ X1)·H^8 ^ X2·H^7 ^ … ^ X8·H` turns
    /// eight *dependent* multiplications into eight independent ones. The
    /// table engine stays scalar at every length.
    fn update_padded(&mut self, data: &[u8]) {
        let mut rest = data;
        if self.batch_enabled && self.key.table.is_none() && data.len() >= GHASH_BATCH_MIN {
            rest = self.update_batched(data);
        }
        let mut chunks = rest.chunks_exact(16);
        for chunk in &mut chunks {
            let block: [u8; 16] = chunk.try_into().unwrap();
            self.acc = self.key.mul(self.acc ^ u128::from_be_bytes(block));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut block = [0u8; 16];
            block[..tail.len()].copy_from_slice(tail);
            self.acc = self.key.mul(self.acc ^ u128::from_be_bytes(block));
        }
    }

    /// The 8-blocks-per-pass body of [`Ghash::update_padded`]; returns the
    /// unprocessed remainder (< 128 bytes). On the PCLMULQDQ lane the
    /// whole pass is one aggregated reduction: eight unreduced 256-bit
    /// products XOR-summed, one pentanomial fold.
    fn update_batched<'a>(&mut self, data: &'a [u8]) -> &'a [u8] {
        #[cfg(target_arch = "x86_64")]
        if self.key.hw {
            let hs: [u128; 8] = std::array::from_fn(|j| self.key.hpow[7 - j]);
            let mut batches = data.chunks_exact(128);
            for batch in &mut batches {
                let mut xs = [0u128; 8];
                for (x, block) in xs.iter_mut().zip(batch.chunks_exact(16)) {
                    *x = u128::from_be_bytes(block.try_into().unwrap());
                }
                xs[0] ^= self.acc;
                self.acc = crate::ghash_clmul::ghash_mul_sum_hw(&xs, &hs);
            }
            return batches.remainder();
        }
        let mut batches = data.chunks_exact(128);
        for batch in &mut batches {
            let mut z = 0u128;
            for j in 0..8 {
                let block: [u8; 16] = batch[j * 16..j * 16 + 16].try_into().unwrap();
                let mut x = u128::from_be_bytes(block);
                if j == 0 {
                    x ^= self.acc;
                }
                z ^= ghash_mul_ct(x, self.key.hpow[7 - j]);
            }
            self.acc = z;
        }
        batches.remainder()
    }

    fn update_block(&mut self, block: &[u8; 16]) {
        self.acc = self.key.mul(self.acc ^ u128::from_be_bytes(*block));
    }

    fn finalize(self) -> [u8; 16] {
        self.acc.to_be_bytes()
    }
}

/// An AES-GCM sealing/opening context bound to one key.
#[derive(Clone)]
pub struct AesGcm {
    aes: Aes,
    /// GHASH subkey H = AES_K(0^128), on the same engine as `aes`.
    h: GhashKey,
}

impl std::fmt::Debug for AesGcm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AesGcm { .. }")
    }
}

impl AesGcm {
    /// Creates a context from a raw key of 16 or 32 bytes on the engine
    /// [`crate::cpu::constant_time_backend`] selects: AES-NI + PCLMULQDQ
    /// when the CPU has them, bitsliced AES and masked multiplies
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the key is not 16 or 32 bytes long.
    pub fn new(key: &[u8]) -> AesGcm {
        AesGcm::with_backend(key, crate::cpu::constant_time_backend())
    }

    /// Creates a context on one *specific* engine, bypassing CPU dispatch
    /// (see [`Aes::with_backend`]).
    ///
    /// # Panics
    ///
    /// Panics if the key is not 16 or 32 bytes long, or if
    /// [`CryptoBackend::HwAccel`] is requested without hardware support.
    #[doc(hidden)]
    pub fn with_backend(key: &[u8], backend: CryptoBackend) -> AesGcm {
        let size = match key.len() {
            16 => KeySize::Aes128,
            32 => KeySize::Aes256,
            n => panic!("AES-GCM key must be 16 or 32 bytes, got {n}"),
        };
        let aes = Aes::with_backend(key, size, backend);
        let mut h_block = [0u8; 16];
        aes.encrypt_block(&mut h_block);
        AesGcm { h: GhashKey::new(u128::from_be_bytes(h_block), backend), aes }
    }

    /// The concrete engine this context dispatches to.
    pub fn backend(&self) -> CryptoBackend {
        self.aes.backend()
    }

    /// Creates an AES-128-GCM context.
    pub fn new_128(key: &[u8; 16]) -> AesGcm {
        AesGcm::new(key)
    }

    /// Creates an AES-256-GCM context.
    pub fn new_256(key: &[u8; 32]) -> AesGcm {
        AesGcm::new(key)
    }

    /// Derives the pre-counter block J0 from a 96-bit nonce.
    fn j0(&self, nonce: &[u8; NONCE_LEN]) -> [u8; 16] {
        let mut j0 = [0u8; 16];
        j0[..12].copy_from_slice(nonce);
        j0[15] = 1;
        j0
    }

    /// CTR-mode keystream application starting at counter block `ctr`
    /// (already incremented past J0).
    ///
    /// Runs eight counter blocks through [`Aes::encrypt_blocks8`] per pass
    /// so the independent AES pipelines overlap; the tail (< 128 bytes)
    /// falls back to single blocks.
    fn ctr_xor(&self, mut ctr: [u8; 16], data: &mut [u8]) {
        let mut batches = data.chunks_exact_mut(128);
        for batch in &mut batches {
            let mut ks = [[0u8; 16]; 8];
            for block in ks.iter_mut() {
                inc32(&mut ctr);
                *block = ctr;
            }
            self.aes.encrypt_blocks8(&mut ks);
            for (b, k) in batch.iter_mut().zip(ks.as_flattened()) {
                *b ^= k;
            }
        }
        self.ctr_xor_tail(&mut ctr, batches.into_remainder());
    }

    /// Reference single-block CTR path, also used for the final partial
    /// batch. `ctr` is advanced in place.
    fn ctr_xor_tail(&self, ctr: &mut [u8; 16], data: &mut [u8]) {
        for chunk in data.chunks_mut(16) {
            inc32(ctr);
            let mut ks = *ctr;
            self.aes.encrypt_block(&mut ks);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }

    fn tag(&self, j0: &[u8; 16], aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
        self.tag_inner(j0, aad, ciphertext, true)
    }

    fn tag_inner(&self, j0: &[u8; 16], aad: &[u8], ciphertext: &[u8], batch: bool) -> [u8; 16] {
        let mut ghash = if batch { Ghash::new(&self.h) } else { Ghash::new_scalar(&self.h) };
        ghash.update_padded(aad);
        ghash.update_padded(ciphertext);
        let mut len_block = [0u8; 16];
        len_block[..8].copy_from_slice(&((aad.len() as u64) * 8).to_be_bytes());
        len_block[8..].copy_from_slice(&((ciphertext.len() as u64) * 8).to_be_bytes());
        ghash.update_block(&len_block);
        let mut tag = ghash.finalize();
        let mut e_j0 = *j0;
        self.aes.encrypt_block(&mut e_j0);
        for (t, e) in tag.iter_mut().zip(e_j0.iter()) {
            *t ^= e;
        }
        tag
    }

    /// Encrypts `plaintext`, authenticating `aad`, returning the ciphertext
    /// and a detached 16-byte tag.
    pub fn seal_detached(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
    ) -> (Vec<u8>, [u8; TAG_LEN]) {
        let j0 = self.j0(nonce);
        let mut ct = plaintext.to_vec();
        self.ctr_xor(j0, &mut ct);
        let tag = self.tag(&j0, aad, &ct);
        (ct, tag)
    }

    /// Reference implementation of [`AesGcm::seal_detached`] that bypasses
    /// both the 8-block CTR batch and the batched GHASH. Kept for
    /// differential tests and the scalar-vs-batched benchmark; not part of
    /// the public API surface.
    #[doc(hidden)]
    pub fn seal_detached_scalar(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
    ) -> (Vec<u8>, [u8; TAG_LEN]) {
        let j0 = self.j0(nonce);
        let mut ct = plaintext.to_vec();
        let mut ctr = j0;
        self.ctr_xor_tail(&mut ctr, &mut ct);
        let tag = self.tag_inner(&j0, aad, &ct, false);
        (ct, tag)
    }

    /// Encrypts `plaintext` and returns `ciphertext || tag`.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.seal_to(nonce, aad, plaintext, &mut out);
        out
    }

    /// Encrypts `plaintext` and appends `ciphertext || tag` to `out`,
    /// reserving exactly once. This is the allocation-lean path the chunk
    /// loop uses: [`AesGcm::seal`] on a 1 MB chunk would otherwise grow an
    /// exactly-sized ciphertext vector just to push the 16-byte tag,
    /// copying the whole chunk a second time.
    pub fn seal_to(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) {
        out.reserve_exact(plaintext.len() + TAG_LEN);
        let start = out.len();
        out.extend_from_slice(plaintext);
        let j0 = self.j0(nonce);
        self.ctr_xor(j0, &mut out[start..]);
        let tag = self.tag(&j0, aad, &out[start..]);
        out.extend_from_slice(&tag);
    }

    /// Verifies the detached `tag` and decrypts `ciphertext`.
    ///
    /// # Errors
    ///
    /// Returns [`AeadError`] when the tag does not match; no plaintext is
    /// released in that case.
    pub fn open_detached(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        ciphertext: &[u8],
        tag: &[u8; TAG_LEN],
    ) -> Result<Vec<u8>, AeadError> {
        let j0 = self.j0(nonce);
        let expected = self.tag(&j0, aad, ciphertext);
        if !ct_eq(&expected, tag) {
            return Err(AeadError);
        }
        let mut pt = ciphertext.to_vec();
        self.ctr_xor(j0, &mut pt);
        Ok(pt)
    }

    /// Opens a `ciphertext || tag` buffer produced by [`AesGcm::seal`].
    ///
    /// # Errors
    ///
    /// Returns [`AeadError`] if the buffer is shorter than a tag or the tag
    /// does not verify.
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, AeadError> {
        if sealed.len() < TAG_LEN {
            return Err(AeadError);
        }
        let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let tag: [u8; TAG_LEN] = tag.try_into().expect("split length");
        self.open_detached(nonce, aad, ct, &tag)
    }

    /// Opens a `ciphertext || tag` buffer, appending the plaintext to
    /// `out` with a single exact reservation (the decrypt counterpart of
    /// [`AesGcm::seal_to`]).
    ///
    /// # Errors
    ///
    /// Returns [`AeadError`] if the buffer is shorter than a tag or the tag
    /// does not verify; `out` is untouched in that case.
    pub fn open_to(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), AeadError> {
        if sealed.len() < TAG_LEN {
            return Err(AeadError);
        }
        let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let tag: [u8; TAG_LEN] = tag.try_into().expect("split length");
        let j0 = self.j0(nonce);
        let expected = self.tag(&j0, aad, ct);
        if !ct_eq(&expected, &tag) {
            return Err(AeadError);
        }
        out.reserve_exact(ct.len());
        let start = out.len();
        out.extend_from_slice(ct);
        self.ctr_xor(j0, &mut out[start..]);
        Ok(())
    }
}

impl crate::ct::ZeroizeOnDrop for AesGcm {}

/// Increments the last 32 bits of a counter block (big-endian).
fn inc32(block: &mut [u8; 16]) {
    let mut ctr = u32::from_be_bytes(block[12..16].try_into().unwrap());
    ctr = ctr.wrapping_add(1);
    block[12..16].copy_from_slice(&ctr.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{hex, unhex};

    /// Every engine testable on this host: table and bitsliced always,
    /// the AES-NI/PCLMULQDQ lane where the CPU has it.
    fn backends() -> Vec<CryptoBackend> {
        let mut v = vec![CryptoBackend::Table, CryptoBackend::Bitsliced];
        if crate::cpu::hw_accel_available() {
            v.push(CryptoBackend::HwAccel);
        }
        v
    }

    /// Every vector runs under all lanes: each must reproduce the NIST
    /// ciphertext and tag bit-for-bit.
    fn check(key: &str, iv: &str, pt: &str, aad: &str, ct: &str, tag: &str) {
        for backend in backends() {
            let gcm = AesGcm::with_backend(&unhex(key), backend);
            let nonce: [u8; 12] = unhex(iv).try_into().unwrap();
            let (c, t) = gcm.seal_detached(&nonce, &unhex(aad), &unhex(pt));
            assert_eq!(hex(&c), ct, "ciphertext ({backend:?})");
            assert_eq!(hex(&t), tag, "tag ({backend:?})");
            let p = gcm.open_detached(&nonce, &unhex(aad), &c, &t).unwrap();
            assert_eq!(hex(&p), pt, "roundtrip ({backend:?})");
        }
    }

    #[test]
    fn nist_case_1_empty() {
        check(
            "00000000000000000000000000000000",
            "000000000000000000000000",
            "",
            "",
            "",
            "58e2fccefa7e3061367f1d57a4e7455a",
        );
    }

    #[test]
    fn nist_case_2_one_block() {
        check(
            "00000000000000000000000000000000",
            "000000000000000000000000",
            "00000000000000000000000000000000",
            "",
            "0388dace60b6a392f328c2b971b2fe78",
            "ab6e47d42cec13bdf53a67b21257bddf",
        );
    }

    #[test]
    fn nist_case_3_four_blocks() {
        check(
            "feffe9928665731c6d6a8f9467308308",
            "cafebabefacedbaddecaf888",
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
            "",
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
            "4d5c2af327cd64a62cf35abd2ba6fab4",
        );
    }

    #[test]
    fn nist_case_4_with_aad() {
        check(
            "feffe9928665731c6d6a8f9467308308",
            "cafebabefacedbaddecaf888",
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
            "feedfacedeadbeeffeedfacedeadbeefabaddad2",
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
            "5bc94fbc3221a5db94fae95ae7121a47",
        );
    }

    #[test]
    fn nist_case_13_aes256_empty() {
        check(
            "0000000000000000000000000000000000000000000000000000000000000000",
            "000000000000000000000000",
            "",
            "",
            "",
            "530f8afbc74536b9a963b4f1c4cb738b",
        );
    }

    #[test]
    fn nist_case_14_aes256_one_block() {
        check(
            "0000000000000000000000000000000000000000000000000000000000000000",
            "000000000000000000000000",
            "00000000000000000000000000000000",
            "",
            "cea7403d4d606b6e074ec5d3baf39d18",
            "d0d1c8a799996bf0265b98b5d48ab919",
        );
    }

    #[test]
    fn tamper_detection() {
        let gcm = AesGcm::new_128(&[9u8; 16]);
        let nonce = [3u8; 12];
        let mut sealed = gcm.seal(&nonce, b"aad", b"hello world");
        sealed[0] ^= 1;
        assert!(gcm.open(&nonce, b"aad", &sealed).is_err());
    }

    #[test]
    fn wrong_aad_rejected() {
        let gcm = AesGcm::new_128(&[9u8; 16]);
        let nonce = [3u8; 12];
        let sealed = gcm.seal(&nonce, b"aad", b"hello world");
        assert!(gcm.open(&nonce, b"wrong", &sealed).is_err());
    }

    #[test]
    fn wrong_nonce_rejected() {
        let gcm = AesGcm::new_128(&[9u8; 16]);
        let sealed = gcm.seal(&[3u8; 12], b"", b"hello world");
        assert!(gcm.open(&[4u8; 12], b"", &sealed).is_err());
    }

    #[test]
    fn short_buffer_rejected() {
        let gcm = AesGcm::new_128(&[9u8; 16]);
        assert!(gcm.open(&[0u8; 12], b"", &[0u8; 15]).is_err());
    }

    #[test]
    fn seal_open_various_lengths() {
        let gcm = AesGcm::new_256(&[0xab; 32]);
        for len in [0usize, 1, 15, 16, 17, 31, 32, 100, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let nonce = [len as u8; 12];
            let sealed = gcm.seal(&nonce, b"x", &pt);
            assert_eq!(sealed.len(), len + TAG_LEN);
            assert_eq!(gcm.open(&nonce, b"x", &sealed).unwrap(), pt);
        }
    }

    /// The batched paths (8-block CTR, 8-block GHASH above
    /// `GHASH_BATCH_MIN`) must agree bit-for-bit with the scalar reference
    /// at every alignment: multiples of 128, stragglers, partial blocks,
    /// and sizes large enough to cross the GHASH batching threshold.
    #[test]
    fn batched_matches_scalar_reference() {
        use crate::rng::{SecureRandom, SeededRandom};
        let mut rng = SeededRandom::new(0x6cc5);
        for key in [vec![0x11u8; 16], vec![0x22u8; 32]] {
            let gcm = AesGcm::new(&key);
            for len in
                [0usize, 1, 16, 127, 128, 129, 255, 256, 1000, 8191, 8192, 8193, 8320, 100_000]
            {
                let mut pt = vec![0u8; len];
                rng.fill(&mut pt);
                let mut nonce = [0u8; 12];
                rng.fill(&mut nonce);
                let (ct_fast, tag_fast) = gcm.seal_detached(&nonce, b"aad", &pt);
                let (ct_ref, tag_ref) = gcm.seal_detached_scalar(&nonce, b"aad", &pt);
                assert_eq!(ct_fast, ct_ref, "ciphertext diverged at len {len}");
                assert_eq!(tag_fast, tag_ref, "tag diverged at len {len}");
                assert_eq!(gcm.open(&nonce, b"aad", &gcm.seal(&nonce, b"aad", &pt)).unwrap(), pt);
            }
        }
    }

    /// Every engine must agree bit-for-bit at every alignment, including
    /// lengths that cross the 8-block CTR batch and `GHASH_BATCH_MIN`
    /// thresholds, where the constant-time engines batch GHASH through
    /// powers of H and the table engine stays scalar.
    #[test]
    fn constant_time_lanes_match_table_engine() {
        use crate::rng::{SecureRandom, SeededRandom};
        let mut rng = SeededRandom::new(0xc7);
        for key in [vec![0x33u8; 16], vec![0x44u8; 32]] {
            let fast = AesGcm::with_backend(&key, CryptoBackend::Table);
            let lanes: Vec<AesGcm> = backends()
                .into_iter()
                .filter(|&b| b != CryptoBackend::Table)
                .map(|b| AesGcm::with_backend(&key, b))
                .collect();
            for len in [0usize, 1, 16, 127, 128, 129, 1000, 8191, 8192, 8193, 20_000] {
                let mut pt = vec![0u8; len];
                rng.fill(&mut pt);
                let mut nonce = [0u8; 12];
                rng.fill(&mut nonce);
                let (ct_f, tag_f) = fast.seal_detached(&nonce, b"aad", &pt);
                for hard in &lanes {
                    let backend = hard.backend();
                    let (ct_c, tag_c) = hard.seal_detached(&nonce, b"aad", &pt);
                    assert_eq!(ct_f, ct_c, "ciphertext diverged at len {len} ({backend:?})");
                    assert_eq!(tag_f, tag_c, "tag diverged at len {len} ({backend:?})");
                    // Cross-engine open: sealed by the table engine.
                    assert_eq!(hard.open_detached(&nonce, b"aad", &ct_f, &tag_f).unwrap(), pt);
                }
            }
        }
    }

    #[test]
    fn ghash_key_wipe_clears_tables_and_powers() {
        for backend in backends() {
            let mut key = GhashKey::new(0x1234_5678_9abc_def0_u128, backend);
            key.wipe();
            assert_eq!(key.h, 0);
            assert_eq!(key.hpow, [0u128; 8]);
            if let Some(t) = &key.table {
                assert!(t.iter().all(|row| row.iter().all(|&v| v == 0)));
            }
        }
    }

    #[test]
    fn seal_to_open_to_append_in_place() {
        let gcm = AesGcm::new_128(&[5u8; 16]);
        let nonce = [8u8; 12];
        let pt: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        let mut sealed = b"prefix-".to_vec();
        gcm.seal_to(&nonce, b"aad", &pt, &mut sealed);
        assert_eq!(&sealed[..7], b"prefix-");
        assert_eq!(sealed[7..], gcm.seal(&nonce, b"aad", &pt)[..]);

        let mut opened = b"head-".to_vec();
        gcm.open_to(&nonce, b"aad", &sealed[7..], &mut opened).unwrap();
        assert_eq!(&opened[..5], b"head-");
        assert_eq!(&opened[5..], &pt[..]);

        // A bad tag must leave the output buffer untouched.
        let mut tampered = sealed[7..].to_vec();
        *tampered.last_mut().unwrap() ^= 1;
        let mut out = b"keep".to_vec();
        assert!(gcm.open_to(&nonce, b"aad", &tampered, &mut out).is_err());
        assert_eq!(out, b"keep");
        assert!(gcm.open_to(&nonce, b"aad", &[0u8; 15], &mut out).is_err());
        assert_eq!(out, b"keep");
    }
}
