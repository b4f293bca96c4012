//! AES-GCM authenticated encryption (NIST SP 800-38D).
//!
//! NEXUS uses AES-GCM for all bulk metadata and file-chunk encryption: the
//! protected section of every metadata object and every 1 MB file chunk is
//! sealed with a fresh key and IV, with the unprotected sections passed as
//! additional authenticated data.
//!
//! There is one bulk path, [`Slot::seal`] / [`Slot::open`] over one
//! dispatcher: source and destination are different buffers, so a chunk is
//! sealed straight into its slot of the data object and nothing is copied
//! first — and the destination is *written*, never read, so it is handed
//! over as `&mut [MaybeUninit<u8>]` and nothing fills it beforehand
//! ([`crate::write_once`]). Every allocating entry point ([`AesGcm::seal`],
//! [`AesGcm::open`], the detached pair) reserves a [`WriteOnce`] and fills
//! its one slot; [`AesGcm::seal_into`] / [`AesGcm::open_into`] lend the
//! caller's own bytes as the slot. On the hardware lane
//! the body runs through the fused kernels — keystream, XOR and GHASH in
//! one pass over the bytes: the VAES + VPCLMULQDQ one (`gcm_vaes`, sixteen
//! blocks per step) where [`crate::cpu`] allows it and the body is long
//! enough, then the AES-NI + PCLMULQDQ one (`gcm_ni`, eight blocks per
//! step); the portable lanes copy, keystream in place and hash. The powers
//! of H those kernels multiply by are built per body, only as many as the
//! body's kernels use, and wiped with it.
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

use std::mem::MaybeUninit;

use crate::aes::{Aes, KeySize};
use crate::ghash_ct::ghash_mul_ct;
use crate::write_once::{Slot, WriteOnce};
use crate::{AeadError, CryptoBackend};

/// Length in bytes of the GCM authentication tag.
pub const TAG_LEN: usize = 16;
/// Length in bytes of the GCM nonce (IV).
pub const NONCE_LEN: usize = 12;

/// Minimum per-update payload before the *portable* 8-block batched
/// GHASH/POLYVAL pays for itself (the masked multiply is slow enough that
/// setting up eight of them only wins on long inputs). The hardware lane
/// never asks: its GCM bodies go through the fused kernels
/// ([`crate::gcm_ni`]) from 128 bytes up, metadata objects included.
pub(crate) const GHASH_BATCH_MIN: usize = 8 * 1024;

/// Minimum body length before the wide kernel ([`crate::gcm_vaes`]) repays
/// the eight multiplies that extend H¹..H⁸ to H¹⁶ and its longer set-up:
/// below it a body stays on the 128-bit kernel. Measured (DESIGN.md §13:
/// the two kernels cross between 512 and 768 bytes); a property of the two
/// kernels, not a setting.
#[cfg(target_arch = "x86_64")]
pub(crate) const WIDE_MIN: usize = 768;

/// Which way a message body is being transformed. GHASH always runs over
/// the ciphertext: the destination when sealing, the source when opening.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direction {
    /// Plaintext in, ciphertext out.
    Seal,
    /// Ciphertext in, plaintext out.
    Open,
}

/// A GHASH key on one of the two engines: multiplies run through
/// PCLMULQDQ ([`crate::ghash_clmul`]) or the masked portable multiply
/// ([`crate::ghash_ct`]), and the batched paths — the fused kernels, the
/// portable 8-block GHASH — take the powers of H from an [`HPowers`] built
/// for the body at hand. H is volatilely zeroized on drop.
#[derive(Clone)]
struct GhashKey {
    h: u128,
    /// Multiplications run through PCLMULQDQ (set only when the paired
    /// AES key dispatched to [`CryptoBackend::HwAccel`], so the two always
    /// share one CPUID decision).
    hw: bool,
}

/// One constant-time field multiplication on whichever engine the key
/// selected: PCLMULQDQ when `hw`, the masked portable multiply otherwise
/// (also POLYVAL's, through its GHASH mapping in [`crate::gcm_siv`]).
#[inline]
pub(crate) fn ct_mul(hw: bool, x: u128, y: u128) -> u128 {
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
        GhashKey { h, hw: backend == CryptoBackend::HwAccel }
    }

    /// Field multiplication of `x` by H.
    #[inline]
    fn mul(&self, x: u128) -> u128 {
        ct_mul(self.hw, x, self.h)
    }

    /// Volatile best-effort clear of H (also invoked by `Drop`).
    fn wipe(&mut self) {
        crate::ct::zeroize_u128(std::slice::from_mut(&mut self.h));
    }
}

impl Drop for GhashKey {
    fn drop(&mut self) {
        self.wipe();
    }
}

/// The powers of H one body's batched multiplies use: `pow[k]` is H^(k+1)
/// for `k < n`, zero above. Built when a body turns out to have a whole
/// group for a kernel to take — a metadata body under 128 bytes never builds
/// one — and volatilely zeroized when that body is done: the powers are key
/// material exactly as H is.
struct HPowers {
    pow: [u128; 16],
}

impl HPowers {
    /// H¹..Hⁿ by `n − 1` constant-time multiplications: eight for the
    /// 8-block paths, sixteen for the wide kernel. Each round multiplies the
    /// powers it has by the highest of them, doubling their number, so the
    /// longest chain of dependent multiplies is four deep, not fifteen.
    fn build(key: &GhashKey, n: usize) -> HPowers {
        let mut pow = [0u128; 16];
        pow[0] = key.h;
        let mut have = 1;
        while have < n {
            for k in 0..have.min(n - have) {
                pow[have + k] = ct_mul(key.hw, pow[have - 1], pow[k]);
            }
            have *= 2;
        }
        HPowers { pow }
    }

    /// H¹..H⁸, what the 8-block paths index.
    fn first8(&self) -> &[u128; 8] {
        self.pow.first_chunk().expect("sixteen powers hold eight")
    }

    /// Volatile best-effort clear (also invoked by `Drop`).
    fn wipe(&mut self) {
        crate::ct::zeroize_u128(&mut self.pow);
    }
}

impl Drop for HPowers {
    fn drop(&mut self) {
        self.wipe();
    }
}

/// Incremental GHASH state.
#[derive(Debug)]
struct Ghash<'k> {
    key: &'k GhashKey,
    acc: u128,
}

impl<'k> Ghash<'k> {
    fn new(key: &'k GhashKey) -> Ghash<'k> {
        Ghash { key, acc: 0 }
    }

    /// Absorbs `data`, zero-padding the final partial block.
    ///
    /// Large updates on the bitsliced engine run 8 blocks per pass: the
    /// Horner recurrence `Y' = (Y ^ X1)·H^8 ^ X2·H^7 ^ … ^ X8·H` turns
    /// eight *dependent* multiplications into eight independent ones. The
    /// hardware engine stays scalar *here*: its bulk is the fused kernels',
    /// and what reaches this function is AAD and a < 128-byte tail.
    fn update_padded(&mut self, data: &[u8]) {
        let mut rest = data;
        if !self.key.hw && data.len() >= GHASH_BATCH_MIN {
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

    /// The 8-blocks-per-pass body of [`Ghash::update_padded`] on the
    /// masked portable multiply; returns the unprocessed remainder
    /// (< 128 bytes). H¹..H⁸ are built here, for this update (7 multiplies
    /// against ≥ 512), as `gcm_siv`'s batched POLYVAL does.
    fn update_batched<'a>(&mut self, data: &'a [u8]) -> &'a [u8] {
        let powers = HPowers::build(self.key, 8);
        let hpow = powers.first8();
        let mut batches = data.chunks_exact(128);
        for batch in &mut batches {
            let mut z = 0u128;
            for j in 0..8 {
                let block: [u8; 16] = batch[j * 16..j * 16 + 16].try_into().unwrap();
                let mut x = u128::from_be_bytes(block);
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

    /// CTR-mode keystream application; `ctr` is the last counter block
    /// used (J0 for a fresh message) and is advanced past every block
    /// consumed.
    ///
    /// Runs eight counter blocks through [`Aes::encrypt_blocks8`] per pass
    /// so the independent AES pipelines overlap; the tail (< 128 bytes)
    /// falls back to single blocks.
    fn ctr_xor(&self, ctr: &mut [u8; 16], data: &mut [u8]) {
        let mut batches = data.chunks_exact_mut(128);
        for batch in &mut batches {
            let mut ks = [[0u8; 16]; 8];
            for block in ks.iter_mut() {
                inc32(ctr);
                *block = *ctr;
            }
            self.aes.encrypt_blocks8(&mut ks);
            for (b, k) in batch.iter_mut().zip(ks.as_flattened()) {
                *b ^= k;
            }
        }
        self.ctr_xor_tail(ctr, batches.into_remainder());
    }

    /// Single-block CTR for the final partial batch. `ctr` is advanced in
    /// place.
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

    /// Closes a GHASH that has absorbed the AAD and the ciphertext: the
    /// length block, then the mask `E(J0)`.
    fn finish_tag(
        &self,
        mut ghash: Ghash<'_>,
        j0: &[u8; 16],
        aad_len: usize,
        ciphertext_len: usize,
    ) -> [u8; TAG_LEN] {
        let mut len_block = [0u8; 16];
        len_block[..8].copy_from_slice(&((aad_len as u64) * 8).to_be_bytes());
        len_block[8..].copy_from_slice(&((ciphertext_len as u64) * 8).to_be_bytes());
        ghash.update_block(&len_block);
        let mut tag = ghash.finalize();
        let mut e_j0 = *j0;
        self.aes.encrypt_block(&mut e_j0);
        for (t, e) in tag.iter_mut().zip(e_j0.iter()) {
            *t ^= e;
        }
        tag
    }

    /// The one bulk path: transforms `src` into `dst` (equal lengths) under
    /// the CTR keystream and returns the tag over `aad` and the ciphertext.
    ///
    /// **Writes every byte of `dst`**, whatever it held: [`WriteOnce`]
    /// counts a slot filled on the strength of that, so it is a memory-safety
    /// contract, not a convenience. It is met in two pieces that cover `dst`
    /// between them — `dst[..fused]` by the fused kernels, `dst[fused..]` by
    /// the copy below.
    ///
    /// On the hardware lane every whole 128-byte group goes through the
    /// fused kernels ([`AesGcm::crypt_fused`]) — one pass, keystream and
    /// GHASH together, `src` read once and `dst` written once. What is left
    /// (the < 128-byte tail there, the whole body on the portable lanes) is
    /// copied into `dst`, keystreamed in place and hashed by the scalar code:
    /// that stretch is written twice, and read back when sealing.
    pub(crate) fn crypt(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        src: &[u8],
        dst: &mut [MaybeUninit<u8>],
        direction: Direction,
    ) -> [u8; TAG_LEN] {
        assert_eq!(src.len(), dst.len(), "AES-GCM output buffer has the wrong length");
        let j0 = self.j0(nonce);
        let mut ghash = Ghash::new(&self.h);
        ghash.update_padded(aad);
        let mut ctr = j0;
        #[cfg(target_arch = "x86_64")]
        let fused = match self.aes.hw() {
            Some(ni) => self.crypt_fused(ni, &mut ctr, &mut ghash.acc, src, dst, direction),
            None => 0,
        };
        #[cfg(not(target_arch = "x86_64"))]
        let fused = 0;
        let rest_src = &src[fused..];
        let rest_dst = dst[fused..].write_copy_of_slice(rest_src);
        self.ctr_xor(&mut ctr, rest_dst);
        ghash.update_padded(match direction {
            Direction::Seal => rest_dst,
            Direction::Open => rest_src,
        });
        self.finish_tag(ghash, &j0, aad.len(), src.len())
    }

    /// The hardware lane's share of a body: where [`crate::cpu::wide_lane`]
    /// allows it and the body reaches [`WIDE_MIN`], every whole 256-byte
    /// group through the wide kernel; then the whole 128-byte group that may
    /// be left — or all of them — through the 128-bit kernel. Advances `ctr`
    /// and `acc` past what it took and returns how many bytes that was, every
    /// one of them written to `dst[..that]` (each kernel writes the whole of
    /// the destination it is given, and the two are given adjacent pieces). The
    /// powers of H are built here: none for a body under 128 bytes, sixteen
    /// when the wide kernel runs, eight otherwise.
    #[cfg(target_arch = "x86_64")]
    fn crypt_fused(
        &self,
        ni: &crate::aes_ni::AesNi,
        ctr: &mut [u8; 16],
        acc: &mut u128,
        src: &[u8],
        dst: &mut [MaybeUninit<u8>],
        direction: Direction,
    ) -> usize {
        use crate::{gcm_ni, gcm_vaes};
        let fused = src.len() - src.len() % gcm_ni::GROUP;
        if fused == 0 {
            return 0;
        }
        let wide_proof = crate::cpu::wide_lane().filter(|_| src.len() >= WIDE_MIN);
        let powers = HPowers::build(&self.h, if wide_proof.is_some() { 16 } else { 8 });
        let mut wide = 0;
        if let Some(proof) = wide_proof {
            wide = src.len() - src.len() % gcm_vaes::GROUP;
            let (s, d) = (&src[..wide], &mut dst[..wide]);
            *acc = gcm_vaes::crypt_groups(proof, ni, &powers.pow, ctr, *acc, s, d, direction);
        }
        if wide < fused {
            let (s, d) = (&src[wide..fused], &mut dst[wide..fused]);
            *acc = gcm_ni::crypt_groups(ni, powers.first8(), ctr, *acc, s, d, direction);
        }
        fused
    }

    /// Encrypts `plaintext`, authenticating `aad`, returning the ciphertext
    /// and a detached 16-byte tag.
    pub fn seal_detached(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
    ) -> (Vec<u8>, [u8; TAG_LEN]) {
        let mut ct = WriteOnce::reserve(plaintext.len());
        let tag = ct.slot().seal_detached(self, nonce, aad, plaintext);
        (ct.finish(), tag)
    }

    /// Encrypts `plaintext` and returns `ciphertext || tag`.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = WriteOnce::reserve(plaintext.len() + TAG_LEN);
        out.slot().seal(self, nonce, aad, plaintext);
        out.finish()
    }

    /// Encrypts `plaintext` and writes `ciphertext || tag` into `out`,
    /// which the caller sized to `plaintext.len() + TAG_LEN`: [`Slot::seal`]
    /// over bytes the caller already owns (a reused buffer, say). Output
    /// that is allocated for the call goes through a [`WriteOnce`] instead,
    /// which does not fill it first.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != plaintext.len() + TAG_LEN`.
    pub fn seal_into(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
        out: &mut [u8],
    ) {
        Slot::over(out).seal(self, nonce, aad, plaintext);
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
        let mut pt = WriteOnce::reserve(ciphertext.len());
        pt.slot().open_detached(self, nonce, aad, ciphertext, tag)?;
        Ok(pt.finish())
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
        let mut out = WriteOnce::reserve(sealed.len().checked_sub(TAG_LEN).ok_or(AeadError)?);
        out.slot().open(self, nonce, aad, sealed)?;
        Ok(out.finish())
    }

    /// Opens a `ciphertext || tag` buffer into `out`, which the caller
    /// sized to `sealed.len() - TAG_LEN` (the decrypt counterpart of
    /// [`AesGcm::seal_into`]): [`Slot::open`] over the caller's bytes.
    ///
    /// Decryption happens in the same pass as authentication, so `out`
    /// holds unauthenticated plaintext while this call runs — and only
    /// then: the caller has lent `out` exclusively, and on a tag mismatch
    /// it is volatilely zeroized before the call returns. No
    /// unauthenticated byte is ever handed back.
    ///
    /// # Errors
    ///
    /// Returns [`AeadError`] if `sealed` is shorter than a tag or the tag
    /// does not verify; `out` is all zero in that case.
    ///
    /// # Panics
    ///
    /// Panics if `sealed` holds a tag and `out.len() != sealed.len() -
    /// TAG_LEN`.
    pub fn open_into(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
        out: &mut [u8],
    ) -> Result<(), AeadError> {
        Slot::over(out).open(self, nonce, aad, sealed)
    }
}

impl crate::ct::ZeroizeOnDrop for AesGcm {}

/// Increments the last 32 bits of a counter block (big-endian, wrapping).
pub(crate) fn inc32(block: &mut [u8; 16]) {
    let mut ctr = u32::from_be_bytes(block[12..16].try_into().unwrap());
    ctr = ctr.wrapping_add(1);
    block[12..16].copy_from_slice(&ctr.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{hex, unhex};
    use nexus_testkit::spec;

    /// Every engine testable on this host: bitsliced always, the
    /// AES-NI/PCLMULQDQ lane where the CPU has it.
    fn backends() -> Vec<CryptoBackend> {
        let mut v = vec![CryptoBackend::Bitsliced];
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
            let mut sealed = vec![0u8; c.len() + TAG_LEN];
            gcm.seal_into(&nonce, &unhex(aad), &unhex(pt), &mut sealed);
            assert_eq!(hex(&sealed), format!("{ct}{tag}"), "seal_into ({backend:?})");
            let mut opened = vec![0u8; c.len()];
            gcm.open_into(&nonce, &unhex(aad), &sealed, &mut opened).unwrap();
            assert_eq!(hex(&opened), pt, "open_into ({backend:?})");
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
    /// `GHASH_BATCH_MIN`, the fused kernels) must agree bit-for-bit with the
    /// scalar reference — SP 800-38D one block at a time, `spec::gcm_seal`
    /// — at every alignment: multiples of 128, stragglers, partial blocks,
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
                let (ct_ref, tag_ref) = spec::gcm_seal(&key, &nonce, b"aad", &pt);
                assert_eq!(ct_fast, ct_ref, "ciphertext diverged at len {len}");
                assert_eq!(tag_fast, tag_ref, "tag diverged at len {len}");
                assert_eq!(gcm.open(&nonce, b"aad", &gcm.seal(&nonce, b"aad", &pt)).unwrap(), pt);
            }
        }
    }

    /// Every engine must agree bit-for-bit with the table-driven spec
    /// reference at every alignment, including lengths that cross the
    /// 8-block CTR batch and `GHASH_BATCH_MIN` thresholds, where the
    /// constant-time engines batch GHASH through powers of H and the
    /// reference stays one block at a time.
    #[test]
    fn constant_time_lanes_match_table_engine() {
        use crate::rng::{SecureRandom, SeededRandom};
        let mut rng = SeededRandom::new(0xc7);
        for key in [vec![0x33u8; 16], vec![0x44u8; 32]] {
            let lanes: Vec<AesGcm> =
                backends().into_iter().map(|b| AesGcm::with_backend(&key, b)).collect();
            for len in [0usize, 1, 16, 127, 128, 129, 1000, 8191, 8192, 8193, 20_000] {
                let mut pt = vec![0u8; len];
                rng.fill(&mut pt);
                let mut nonce = [0u8; 12];
                rng.fill(&mut nonce);
                let (ct_f, tag_f) = spec::gcm_seal(&key, &nonce, b"aad", &pt);
                for hard in &lanes {
                    let backend = hard.backend();
                    let (ct_c, tag_c) = hard.seal_detached(&nonce, b"aad", &pt);
                    assert_eq!(ct_f, ct_c, "ciphertext diverged at len {len} ({backend:?})");
                    assert_eq!(tag_f, tag_c, "tag diverged at len {len} ({backend:?})");
                    // Cross-engine open: sealed by the reference.
                    assert_eq!(hard.open_detached(&nonce, b"aad", &ct_f, &tag_f).unwrap(), pt);
                }
            }
        }
    }

    /// Both wipes reach every word: H in the key, the table of its powers
    /// a body builds.
    #[test]
    fn ghash_key_wipe_clears_tables_and_powers() {
        for backend in backends() {
            let mut key = GhashKey::new(0x1234_5678_9abc_def0_u128, backend);
            let mut powers = HPowers::build(&key, 16);
            assert!(powers.pow.iter().all(|&p| p != 0));
            powers.wipe();
            assert_eq!(powers.pow, [0u128; 16]);
            key.wipe();
            assert_eq!(key.h, 0);
        }
    }

    /// The doubling construction yields H¹..Hⁿ in order and nothing above
    /// n, on both constant-time engines.
    #[test]
    fn h_powers_are_consecutive_and_only_as_many_as_asked() {
        let h = 0x66e9_4bd4_ef8a_2c3b_884c_fa59_ca34_2b2e_u128;
        for backend in backends() {
            let key = GhashKey::new(h, backend);
            for n in [1usize, 8, 16] {
                let powers = HPowers::build(&key, n);
                let mut expect = h;
                for (k, &p) in powers.pow.iter().enumerate() {
                    let want = if k < n { expect } else { 0 };
                    assert_eq!(p, want, "H^{} of {n} ({backend:?})", k + 1);
                    expect = ghash_mul_ct(expect, h);
                }
            }
        }
    }

    /// `seal_into` is `seal` written in place; `open_into` is `open`, and a
    /// failed open hands back nothing — neither plaintext nor leftovers.
    #[test]
    fn into_calls_write_in_place_and_wipe_on_failure() {
        for backend in backends() {
            let gcm = AesGcm::with_backend(&[5u8; 16], backend);
            let nonce = [8u8; 12];
            let pt: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
            let (ct, tag) = spec::gcm_seal(&[5u8; 16], &nonce, b"aad", &pt);
            let mut sealed = vec![0xeeu8; pt.len() + TAG_LEN];
            gcm.seal_into(&nonce, b"aad", &pt, &mut sealed);
            assert_eq!(sealed[..pt.len()], ct[..], "{backend:?}");
            assert_eq!(sealed[pt.len()..], tag, "{backend:?}");

            let mut opened = vec![0xeeu8; pt.len()];
            gcm.open_into(&nonce, b"aad", &sealed, &mut opened).unwrap();
            assert_eq!(opened, pt, "{backend:?}");

            // Body, tag and AAD tampering all leave `out` zeroed.
            for flip in [0, 517, pt.len(), sealed.len() - 1] {
                let mut tampered = sealed.clone();
                tampered[flip] ^= 1;
                let mut out = vec![0xeeu8; pt.len()];
                assert!(gcm.open_into(&nonce, b"aad", &tampered, &mut out).is_err());
                assert!(out.iter().all(|&b| b == 0), "{backend:?}: flip at {flip} leaked");
                assert!(gcm.open(&nonce, b"aad", &tampered).is_err());
            }
            let mut out = vec![0xeeu8; pt.len()];
            assert!(gcm.open_into(&nonce, b"other", &sealed, &mut out).is_err());
            assert!(out.iter().all(|&b| b == 0));
            // Too short to hold a tag: refused before any length check.
            let mut out = vec![0xeeu8; 3];
            assert!(gcm.open_into(&nonce, b"aad", &[0u8; 15], &mut out).is_err());
            assert_eq!(out, [0u8; 3]);
        }
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn seal_into_refuses_a_missized_buffer() {
        let gcm = AesGcm::new_128(&[5u8; 16]);
        gcm.seal_into(&[0u8; 12], b"", &[1, 2, 3], &mut [0u8; 3 + TAG_LEN + 1]);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn open_into_refuses_a_missized_buffer() {
        let gcm = AesGcm::new_128(&[5u8; 16]);
        let sealed = gcm.seal(&[0u8; 12], b"", &[1, 2, 3]);
        let _ = gcm.open_into(&[0u8; 12], b"", &sealed, &mut [0u8; 2]);
    }
}
