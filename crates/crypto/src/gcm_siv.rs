//! AES-GCM-SIV nonce-misuse-resistant AEAD (RFC 8452).
//!
//! NEXUS uses AES-GCM-SIV for *key wrapping*: every metadata object carries
//! its own AES-GCM key, stored wrapped under the volume rootkey. The paper
//! (§IV-A2) follows Gueron et al. and uses the GCM-SIV construction because a
//! misuse-resistant AEAD is the safe primitive for wrapping many small keys.
//!
//! # Examples
//!
//! ```
//! use nexus_crypto::gcm_siv::AesGcmSiv;
//!
//! let siv = AesGcmSiv::new_256(&[3u8; 32]);
//! let wrapped = siv.seal(&[0u8; 12], b"metadata-uuid", &[0x42; 16]);
//! assert_eq!(siv.open(&[0u8; 12], b"metadata-uuid", &wrapped).unwrap(), vec![0x42; 16]);
//! ```

use crate::aes::{Aes, KeySize};
use crate::ct::ct_eq;
use crate::gcm::{ct_mul, GHASH_BATCH_MIN};
use crate::ghash_ct::ghash_mul_ct;
use crate::{AeadError, CryptoBackend};

/// Length in bytes of the GCM-SIV authentication tag.
pub const TAG_LEN: usize = 16;
/// Length in bytes of the GCM-SIV nonce.
pub const NONCE_LEN: usize = 12;

/// Multiplies a GHASH field element by `x` (RFC 8452 appendix A, `mulX_GHASH`).
fn mul_x_ghash(v: u128) -> u128 {
    const R: u128 = 0xe1 << 120;
    if v & 1 == 1 {
        (v >> 1) ^ R
    } else {
        v >> 1
    }
}

fn byte_reverse(b: &[u8; 16]) -> [u8; 16] {
    let mut out = *b;
    out.reverse();
    out
}

/// The POLYVAL key mapped into the GHASH domain (the appendix-A
/// equivalence puts all arithmetic in the GHASH representation, so the
/// multiplies of [`crate::gcm`] apply unchanged).
#[derive(Clone)]
struct PolyvalKey {
    h: u128,
    /// Multiplications run through PCLMULQDQ ([`crate::ghash_clmul`]), set
    /// when the record-encryption key is on [`CryptoBackend::HwAccel`];
    /// otherwise through the masked portable multiply ([`crate::ghash_ct`]).
    hw: bool,
}

impl PolyvalKey {
    /// Scalar multiplication by H in the engine's arithmetic.
    #[inline]
    fn mul(&self, x: u128) -> u128 {
        ct_mul(self.hw, x, self.h)
    }

    /// Powers H^1..H^8 for the batched Horner recurrence (index 7 = H^8).
    fn h_powers(&self) -> [u128; 8] {
        let mut pow = [0u128; 8];
        pow[0] = self.h;
        for k in 1..8 {
            pow[k] = self.mul(pow[k - 1]);
        }
        pow
    }
}

/// POLYVAL (RFC 8452 §3) implemented via the GHASH equivalence in appendix A:
/// `POLYVAL(H, X_1..X_n) = ByteReverse(GHASH(mulX_GHASH(ByteReverse(H)), ByteReverse(X_1)..))`.
#[derive(Clone)]
struct Polyval {
    key: PolyvalKey,
    acc: u128,
}

impl std::fmt::Debug for Polyval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Polyval { .. }")
    }
}

impl Polyval {
    fn new(h: &[u8; 16], backend: CryptoBackend) -> Polyval {
        let h_ghash = mul_x_ghash(u128::from_be_bytes(byte_reverse(h)));
        Polyval { key: PolyvalKey { h: h_ghash, hw: backend == CryptoBackend::HwAccel }, acc: 0 }
    }

    /// Absorbs `data` in 16-byte blocks, zero-padding the final partial one.
    ///
    /// Large updates run 8 blocks per pass with the Horner recurrence
    /// `Y' = (Y ^ X1)·H^8 ^ X2·H^7 ^ … ^ X8·H`, exactly as the batched GHASH
    /// in [`crate::gcm`]; short updates keep the scalar multiply.
    fn update_padded(&mut self, data: &[u8]) {
        let mut rest = data;
        if data.len() >= GHASH_BATCH_MIN {
            rest = self.update_batched(rest);
        }
        for chunk in rest.chunks(16) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            self.update_block(&block);
        }
    }

    /// Absorbs as many full 128-byte groups of `data` as possible with the
    /// 8-block Horner recurrence, returning the unconsumed remainder.
    fn update_batched<'a>(&mut self, data: &'a [u8]) -> &'a [u8] {
        // The hardware lane XOR-sums the eight unreduced PCLMULQDQ
        // products and reduces once per group (aggregated reduction).
        #[cfg(target_arch = "x86_64")]
        if self.key.hw {
            let hpow = self.key.h_powers();
            let hs: [u128; 8] = std::array::from_fn(|j| hpow[7 - j]);
            let mut batches = data.chunks_exact(128);
            for batch in &mut batches {
                let mut xs = [0u128; 8];
                for (j, x) in xs.iter_mut().enumerate() {
                    let block: [u8; 16] = batch[j * 16..j * 16 + 16].try_into().unwrap();
                    *x = u128::from_be_bytes(byte_reverse(&block));
                }
                xs[0] ^= self.acc;
                self.acc = crate::ghash_clmul::ghash_mul_sum_hw(&xs, &hs);
            }
            return batches.remainder();
        }
        // The portable CT lane recomputes the eight H powers per bulk
        // update (7 scalar multiplies, amortized over >= 512 block
        // multiplies) rather than keeping another cached table of key
        // material.
        let hpow = self.key.h_powers();
        let mut batches = data.chunks_exact(128);
        for batch in &mut batches {
            let mut z = 0u128;
            for j in 0..8 {
                let block: [u8; 16] = batch[j * 16..j * 16 + 16].try_into().unwrap();
                let mut x = u128::from_be_bytes(byte_reverse(&block));
                if j == 0 {
                    x ^= self.acc;
                }
                z ^= ghash_mul_ct(x, hpow[7 - j]);
            }
            self.acc = z;
        }
        batches.remainder()
    }

    fn update_block(&mut self, block: &[u8; 16]) {
        let x = u128::from_be_bytes(byte_reverse(block));
        self.acc = self.key.mul(self.acc ^ x);
    }

    fn finalize(self) -> [u8; 16] {
        byte_reverse(&self.acc.to_be_bytes())
    }

    /// Volatile best-effort clear of the mapped key and accumulator (also
    /// invoked by `Drop`).
    fn wipe(&mut self) {
        crate::ct::zeroize_u128(std::slice::from_mut(&mut self.key.h));
        crate::ct::zeroize_u128(std::slice::from_mut(&mut self.acc));
    }
}

impl Drop for Polyval {
    fn drop(&mut self) {
        self.wipe();
    }
}

/// An AES-GCM-SIV sealing/opening context bound to one key-generating key.
///
/// The key-generating key's schedule is expanded once at construction and
/// cached for the lifetime of the context — per-nonce key derivation
/// (RFC 8452 §4) is six block encryptions under the *same* key, so
/// re-expanding it on every seal/open would dominate keywrap cost. The
/// cached [`Aes`] volatilely zeroizes its round keys on drop.
#[derive(Clone)]
pub struct AesGcmSiv {
    kgk: Aes,
    key_len: usize,
}

impl std::fmt::Debug for AesGcmSiv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AesGcmSiv { .. }")
    }
}

impl AesGcmSiv {
    /// Creates a context from a 16- or 32-byte key-generating key on the
    /// engine [`crate::cpu::constant_time_backend`] selects.
    ///
    /// # Panics
    ///
    /// Panics if the key is not 16 or 32 bytes.
    pub fn new(key: &[u8]) -> AesGcmSiv {
        AesGcmSiv::with_backend(key, crate::cpu::constant_time_backend())
    }

    /// Creates a context pinned to a concrete engine (differential tests
    /// and benchmarks; normal callers go through [`AesGcmSiv::new`]).
    ///
    /// # Panics
    ///
    /// Panics if the key is not 16 or 32 bytes, or if `HwAccel` is
    /// requested on a CPU without AES-NI + PCLMULQDQ.
    #[doc(hidden)]
    pub fn with_backend(key: &[u8], backend: CryptoBackend) -> AesGcmSiv {
        let size = match key.len() {
            16 => KeySize::Aes128,
            32 => KeySize::Aes256,
            n => panic!("AES-GCM-SIV key must be 16 or 32 bytes, got {n}"),
        };
        AesGcmSiv { kgk: Aes::with_backend(key, size, backend), key_len: key.len() }
    }

    /// The concrete engine the cached key schedule was expanded for.
    pub fn backend(&self) -> CryptoBackend {
        self.kgk.backend()
    }

    /// Creates an AES-128-GCM-SIV context.
    pub fn new_128(key: &[u8; 16]) -> AesGcmSiv {
        AesGcmSiv::new(key)
    }

    /// Creates an AES-256-GCM-SIV context.
    pub fn new_256(key: &[u8; 32]) -> AesGcmSiv {
        AesGcmSiv::new(key)
    }

    /// Per-nonce key derivation (RFC 8452 §4): four block encryptions
    /// under the cached key-generating-key schedule (six for a 256-bit
    /// key), one 8-byte half of key material each. Returns the
    /// authentication key and the record-encryption cipher; both derived
    /// keys are volatilely cleared before it returns (the expanded form
    /// lives in the returned [`Aes`], which zeroizes itself on drop).
    fn derive_keys(&self, nonce: &[u8; NONCE_LEN]) -> ([u8; 16], Aes) {
        let mut halves = [0u8; 48];
        let mut block = [0u8; 16];
        for (counter, half) in halves.chunks_exact_mut(8).take(2 + self.key_len / 8).enumerate() {
            block[..4].copy_from_slice(&(counter as u32).to_le_bytes());
            block[4..].copy_from_slice(nonce);
            self.kgk.encrypt_block(&mut block);
            half.copy_from_slice(&block[..8]);
        }
        let auth_key: [u8; 16] = halves[..16].try_into().expect("16-byte auth key");
        let size = if self.key_len == 16 { KeySize::Aes128 } else { KeySize::Aes256 };
        let enc = Aes::with_backend(&halves[16..16 + self.key_len], size, self.kgk.backend());
        crate::ct::zeroize(&mut halves);
        crate::ct::zeroize(&mut block);
        (auth_key, enc)
    }

    fn polyval_tag(
        auth_key: &[u8; 16],
        enc: &Aes,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
    ) -> [u8; 16] {
        let mut pv = Polyval::new(auth_key, enc.backend());
        pv.update_padded(aad);
        pv.update_padded(plaintext);
        let mut len_block = [0u8; 16];
        len_block[..8].copy_from_slice(&((aad.len() as u64) * 8).to_le_bytes());
        len_block[8..].copy_from_slice(&((plaintext.len() as u64) * 8).to_le_bytes());
        pv.update_block(&len_block);
        let mut s = pv.finalize();
        for (b, n) in s.iter_mut().zip(nonce.iter()) {
            *b ^= n;
        }
        s[15] &= 0x7f;
        enc.encrypt_block(&mut s);
        s
    }

    /// AES-CTR with the GCM-SIV convention: 32-bit little-endian counter in
    /// the first four bytes.
    fn ctr_xor(enc: &Aes, tag: &[u8; 16], data: &mut [u8]) {
        let mut block = *tag;
        block[15] |= 0x80;
        let mut counter = u32::from_le_bytes(block[..4].try_into().unwrap());
        for chunk in data.chunks_mut(16) {
            let mut ks = block;
            ks[..4].copy_from_slice(&counter.to_le_bytes());
            enc.encrypt_block(&mut ks);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }

    /// Appends the encryption of `plaintext` to `out` and returns the
    /// tag. `out` must have room for it: the plaintext is copied in and
    /// encrypted where it lies, so a reallocation in between would leave a
    /// copy of it in freed memory.
    fn seal_onto(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) -> [u8; TAG_LEN] {
        debug_assert!(out.capacity() - out.len() >= plaintext.len());
        let (mut auth_key, enc) = self.derive_keys(nonce);
        let tag = Self::polyval_tag(&auth_key, &enc, nonce, aad, plaintext);
        crate::ct::zeroize(&mut auth_key);
        let start = out.len();
        out.extend_from_slice(plaintext);
        Self::ctr_xor(&enc, &tag, &mut out[start..]);
        tag
    }

    /// Encrypts `plaintext`, returning the ciphertext and detached tag.
    pub fn seal_detached(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
    ) -> (Vec<u8>, [u8; TAG_LEN]) {
        let mut ct = Vec::with_capacity(plaintext.len());
        let tag = self.seal_onto(nonce, aad, plaintext, &mut ct);
        (ct, tag)
    }

    /// Encrypts `plaintext` and returns `ciphertext || tag`, allocated once
    /// at its final length.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        let tag = self.seal_onto(nonce, aad, plaintext, &mut out);
        out.extend_from_slice(&tag);
        out
    }

    /// Verifies and decrypts a detached-tag ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`AeadError`] when the tag does not verify; no plaintext is
    /// released in that case, nor left behind in freed memory.
    pub fn open_detached(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        ciphertext: &[u8],
        tag: &[u8; TAG_LEN],
    ) -> Result<Vec<u8>, AeadError> {
        let mut pt = ciphertext.to_vec();
        self.open_in_place(nonce, aad, &mut pt, tag)?;
        Ok(pt)
    }

    /// Decrypts `buf` in place, then verifies `tag` over the plaintext.
    /// SIV authenticates the plaintext, so a forgery is decrypted before it
    /// is recognised — and what it decrypts to is a wrapped key with a few
    /// bits flipped: on a refusal `buf` is volatilely zeroized before the
    /// error returns, as a refused [`crate::write_once::Slot::open`] wipes
    /// its destination.
    fn open_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut [u8],
        tag: &[u8; TAG_LEN],
    ) -> Result<(), AeadError> {
        let (mut auth_key, enc) = self.derive_keys(nonce);
        Self::ctr_xor(&enc, tag, buf);
        let expected = Self::polyval_tag(&auth_key, &enc, nonce, aad, buf);
        crate::ct::zeroize(&mut auth_key);
        if !ct_eq(&expected, tag) {
            crate::ct::zeroize(buf);
            return Err(AeadError);
        }
        Ok(())
    }

    /// Opens a `ciphertext || tag` buffer produced by [`AesGcmSiv::seal`].
    ///
    /// # Errors
    ///
    /// Returns [`AeadError`] if the buffer is too short or the tag fails.
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

    /// Opens a `ciphertext || tag` buffer produced by [`AesGcmSiv::seal`]
    /// into `out`, which the caller owns and wipes: the way to unwrap a
    /// key without the plaintext ever sitting in a heap buffer this
    /// function frees. On a refusal `out` is left zeroed.
    ///
    /// # Errors
    ///
    /// Returns [`AeadError`] if `sealed` is not exactly `out.len()` bytes
    /// of ciphertext plus a tag, or if the tag fails.
    pub fn open_into(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
        out: &mut [u8],
    ) -> Result<(), AeadError> {
        if sealed.len() != out.len() + TAG_LEN {
            crate::ct::zeroize(out);
            return Err(AeadError);
        }
        let (ct, tag) = sealed.split_at(out.len());
        let tag: [u8; TAG_LEN] = tag.try_into().expect("split length");
        out.copy_from_slice(ct);
        self.open_in_place(nonce, aad, out, &tag)
    }
}

// No `Drop` of its own: the only key material is the cached `Aes`
// schedule, which zeroizes itself.
impl crate::ct::ZeroizeOnDrop for AesGcmSiv {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{hex, unhex};
    use nexus_testkit::spec;

    /// Every engine available on this machine: the portable bitsliced
    /// lane, and (where CPUID allows) the hardware lane.
    fn backends() -> Vec<CryptoBackend> {
        let mut v = vec![CryptoBackend::Bitsliced];
        if crate::cpu::hw_accel_available() {
            v.push(CryptoBackend::HwAccel);
        }
        v
    }

    /// Every vector runs under every lane: the hardened engines must
    /// reproduce the RFC 8452 ciphertext and tag bit-for-bit.
    fn check(key: &str, nonce: &str, pt: &str, aad: &str, expect_ct_and_tag: &str) {
        for backend in backends() {
            let siv = AesGcmSiv::with_backend(&unhex(key), backend);
            let n: [u8; 12] = unhex(nonce).try_into().unwrap();
            let sealed = siv.seal(&n, &unhex(aad), &unhex(pt));
            assert_eq!(hex(&sealed), expect_ct_and_tag, "sealed ({backend:?})");
            let opened = siv.open(&n, &unhex(aad), &sealed).unwrap();
            assert_eq!(hex(&opened), pt, "roundtrip ({backend:?})");
        }
    }

    // Vectors from RFC 8452 appendix C.1 (AES-128-GCM-SIV).
    #[test]
    fn rfc8452_aes128_empty() {
        check(
            "01000000000000000000000000000000",
            "030000000000000000000000",
            "",
            "",
            "dc20e2d83f25705bb49e439eca56de25",
        );
    }

    #[test]
    fn rfc8452_aes128_8_bytes() {
        check(
            "01000000000000000000000000000000",
            "030000000000000000000000",
            "0100000000000000",
            "",
            "b5d839330ac7b786578782fff6013b815b287c22493a364c",
        );
    }

    #[test]
    fn rfc8452_aes128_12_bytes() {
        check(
            "01000000000000000000000000000000",
            "030000000000000000000000",
            "010000000000000000000000",
            "",
            "7323ea61d05932260047d942a4978db357391a0bc4fdec8b0d106639",
        );
    }

    #[test]
    fn rfc8452_aes128_16_bytes() {
        check(
            "01000000000000000000000000000000",
            "030000000000000000000000",
            "01000000000000000000000000000000",
            "",
            "743f7c8077ab25f8624e2e948579cf77303aaf90f6fe21199c6068577437a0c4",
        );
    }

    // Vectors from RFC 8452 appendix C.2 (AES-256-GCM-SIV).
    #[test]
    fn rfc8452_aes256_empty() {
        check(
            "0100000000000000000000000000000000000000000000000000000000000000",
            "030000000000000000000000",
            "",
            "",
            "07f5f4169bbf55a8400cd47ea6fd400f",
        );
    }

    #[test]
    fn rfc8452_aes256_8_bytes() {
        check(
            "0100000000000000000000000000000000000000000000000000000000000000",
            "030000000000000000000000",
            "0100000000000000",
            "",
            "c2ef328e5c71c83b843122130f7364b761e0b97427e3df28",
        );
    }

    #[test]
    fn nonce_misuse_same_inputs_same_output() {
        // SIV is deterministic for identical (key, nonce, aad, pt).
        let siv = AesGcmSiv::new_256(&[1u8; 32]);
        let a = siv.seal(&[2u8; 12], b"aad", b"payload");
        let b = siv.seal(&[2u8; 12], b"aad", b"payload");
        assert_eq!(a, b);
    }

    #[test]
    fn tamper_detection() {
        let siv = AesGcmSiv::new_256(&[1u8; 32]);
        let mut sealed = siv.seal(&[2u8; 12], b"aad", b"payload");
        let last = sealed.len() - 1;
        sealed[last] ^= 0x80;
        assert!(siv.open(&[2u8; 12], b"aad", &sealed).is_err());
    }

    #[test]
    fn wrong_aad_rejected() {
        let siv = AesGcmSiv::new_128(&[1u8; 16]);
        let sealed = siv.seal(&[2u8; 12], b"aad", b"payload");
        assert!(siv.open(&[2u8; 12], b"other", &sealed).is_err());
    }

    #[test]
    fn roundtrip_various_lengths() {
        let siv = AesGcmSiv::new_256(&[0x55; 32]);
        for len in [0usize, 1, 15, 16, 17, 47, 64, 300] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let sealed = siv.seal(&[9u8; 12], b"ctx", &pt);
            assert_eq!(siv.open(&[9u8; 12], b"ctx", &sealed).unwrap(), pt, "len={len}");
        }
    }

    /// Every hardened lane must agree bit-for-bit with the table-driven
    /// RFC 8452 reference (`spec::gcm_siv_seal`), including keywrap-sized
    /// inputs and lengths that cross the POLYVAL batching threshold.
    #[test]
    fn constant_time_lanes_match_table_engine() {
        use crate::rng::{SecureRandom, SeededRandom};
        let mut rng = SeededRandom::new(0x517);
        for key in [vec![0x66u8; 16], vec![0x77u8; 32]] {
            for backend in backends() {
                let hard = AesGcmSiv::with_backend(&key, backend);
                for len in [0usize, 16, 32, 127, 128, 129, 1000, 8191, 8192, 8193, 20_000] {
                    let mut pt = vec![0u8; len];
                    rng.fill(&mut pt);
                    let mut nonce = [0u8; 12];
                    rng.fill(&mut nonce);
                    let (ct_f, tag_f) = spec::gcm_siv_seal(&key, &nonce, b"wrap", &pt);
                    let (ct_c, tag_c) = hard.seal_detached(&nonce, b"wrap", &pt);
                    assert_eq!(ct_f, ct_c, "ciphertext diverged at len {len} ({backend:?})");
                    assert_eq!(tag_f, tag_c, "tag diverged at len {len} ({backend:?})");
                    // Cross-engine open: wrapped by the reference.
                    assert_eq!(hard.open_detached(&nonce, b"wrap", &ct_f, &tag_f).unwrap(), pt);
                }
            }
        }
    }

    #[test]
    fn default_engine_is_constant_time() {
        let siv = AesGcmSiv::new_256(&[7u8; 32]);
        assert_eq!(siv.backend(), crate::cpu::constant_time_backend());
    }

    #[test]
    fn polyval_wipe_clears_key_and_accumulator() {
        for backend in backends() {
            let mut pv = Polyval::new(&[0x5au8; 16], backend);
            pv.update_padded(&[0x11u8; 64]);
            pv.wipe();
            assert_eq!(pv.key.h, 0);
            assert_eq!(pv.acc, 0);
        }
    }

    /// The 8-block batched POLYVAL must agree bit-for-bit with the scalar
    /// reference — RFC 8452 one block at a time, `spec::gcm_siv_seal` — at
    /// every alignment: below the batching threshold, exactly
    /// at it, just past it, at non-128-byte remainders, and with AAD large
    /// enough to batch on its own.
    #[test]
    fn batched_polyval_matches_scalar_reference() {
        use crate::rng::{SecureRandom, SeededRandom};
        let mut rng = SeededRandom::new(0x51f);
        for key in [vec![0x33u8; 16], vec![0x44u8; 32]] {
            let siv = AesGcmSiv::new(&key);
            for len in
                [0usize, 16, 127, 128, 129, 8191, 8192, 8193, 8320, 9000, 65_536]
            {
                let mut pt = vec![0u8; len];
                rng.fill(&mut pt);
                let mut nonce = [0u8; 12];
                rng.fill(&mut nonce);
                let (ct_fast, tag_fast) = siv.seal_detached(&nonce, b"aad", &pt);
                let (ct_ref, tag_ref) = spec::gcm_siv_seal(&key, &nonce, b"aad", &pt);
                assert_eq!(ct_fast, ct_ref, "ciphertext diverged at len {len}");
                assert_eq!(tag_fast, tag_ref, "tag diverged at len {len}");
                assert_eq!(siv.open(&nonce, b"aad", &siv.seal(&nonce, b"aad", &pt)).unwrap(), pt);
            }
            // Batching driven by the AAD alone (plaintext stays tiny).
            let mut aad = vec![0u8; 10_000];
            rng.fill(&mut aad);
            let (ct_fast, tag_fast) = siv.seal_detached(&[7u8; 12], &aad, b"small");
            let (ct_ref, tag_ref) = spec::gcm_siv_seal(&key, &[7u8; 12], &aad, b"small");
            assert_eq!((ct_fast, tag_fast), (ct_ref, tag_ref), "aad-driven batch diverged");
        }
    }

    /// `open_into` unwraps into the caller's array; a tampered wrap or a
    /// destination of the wrong length leaves that array zeroed.
    #[test]
    fn open_into_fills_the_callers_array_or_zeroes_it() {
        for backend in backends() {
            let siv = AesGcmSiv::with_backend(&[0x19u8; 32], backend);
            let nonce = [0x2au8; 12];
            let sealed = siv.seal(&nonce, b"uuid", &[0x3bu8; 16]);
            assert_eq!(sealed.len(), 16 + TAG_LEN);
            assert_eq!(sealed.capacity(), sealed.len(), "{backend:?}: the wrap grew after its seal");
            let mut key = [0u8; 16];
            siv.open_into(&nonce, b"uuid", &sealed, &mut key).unwrap();
            assert_eq!(key, [0x3bu8; 16], "{backend:?}");
            let mut tampered = sealed.clone();
            tampered[3] ^= 1;
            assert!(siv.open_into(&nonce, b"uuid", &tampered, &mut key).is_err());
            assert_eq!(key, [0u8; 16], "{backend:?}: a refused open left bytes behind");
            let mut short = [0x77u8; 15];
            assert!(siv.open_into(&nonce, b"uuid", &sealed, &mut short).is_err());
            assert_eq!(short, [0u8; 15], "{backend:?}");
        }
    }

    /// A refused open hands back nothing and leaves nothing: the buffer it
    /// decrypted in — here the caller's own — is all zero after a flipped
    /// bit anywhere in the wrapped key, its tag, or the AAD.
    #[test]
    fn a_refused_open_in_place_leaves_the_buffer_zeroed() {
        for backend in backends() {
            for key in [vec![0x21u8; 16], vec![0x43u8; 32]] {
                let siv = AesGcmSiv::with_backend(&key, backend);
                let nonce = [0x65u8; 12];
                let object_key = [0x87u8; 16];
                let (wrapped, tag) = siv.seal_detached(&nonce, b"uuid", &object_key);
                let mut buf = wrapped.clone();
                siv.open_in_place(&nonce, b"uuid", &mut buf, &tag).unwrap();
                assert_eq!(buf, object_key, "{backend:?}");
                for flip in 0..8 * (wrapped.len() + TAG_LEN) {
                    let (mut buf, mut bad_tag) = (wrapped.clone(), tag);
                    match flip / 8 {
                        byte if byte < wrapped.len() => buf[byte] ^= 1 << (flip % 8),
                        byte => bad_tag[byte - wrapped.len()] ^= 1 << (flip % 8),
                    }
                    assert!(siv.open_in_place(&nonce, b"uuid", &mut buf, &bad_tag).is_err());
                    assert_eq!(buf, [0u8; 16], "{backend:?}: bit {flip} left plaintext behind");
                }
                let mut buf = wrapped.clone();
                assert!(siv.open_in_place(&nonce, b"uuie", &mut buf, &tag).is_err());
                assert_eq!(buf, [0u8; 16], "{backend:?}: wrong AAD left plaintext behind");
            }
        }
    }
}
