//! AES through the x86_64 AES-NI instructions (the hardware engine
//! [`crate::cpu`] selects where the CPU has it, alongside
//! [`crate::ghash_clmul`]).
//!
//! AESENC/AESENCLAST execute one full round per instruction on dedicated
//! silicon: no table in memory, no secret-indexed load, no data-dependent
//! branch — constant-time by construction, and several times faster than
//! the T-table lane. The key schedule runs through AESKEYGENASSIST (the
//! S-box lookups happen inside the ALU, so key bytes never index memory
//! either), and decryption uses the Equivalent Inverse Cipher: round keys
//! passed through AESIMC, applied in reverse with AESDEC/AESDECLAST
//! (FIPS 197 §5.3.5).
//!
//! Everything here is `unsafe` at the instruction level but sound by
//! construction: [`AesNi::new`] refuses to build unless
//! [`crate::cpu::hw_accel_available`] reported the CPUID bits of every
//! feature the hardware lane uses (AES-NI, PCLMULQDQ, SSSE3, SSE4.1), so
//! the `#[target_feature]` functions — here and in [`crate::gcm_ni`],
//! which takes an `&AesNi` as its proof — only ever run on silicon that
//! has them. ([`crate::gcm_vaes`] runs over the same schedule but enables
//! AVX-512 features this proof does not cover; it demands a
//! [`crate::cpu::WideLane`] as well.)
//!
//! The 8-block batch entry points mirror [`crate::aes_ct::AesCt`]'s so the
//! batched CTR hot path in [`crate::gcm`] slots onto either engine
//! unchanged; eight independent states keep the AESENC pipeline full
//! (latency ~4 cycles, throughput 1/cycle on current cores).

use core::arch::x86_64::{
    __m128i, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
    _mm_aesimc_si128, _mm_aeskeygenassist_si128, _mm_loadu_si128, _mm_setzero_si128,
    _mm_shuffle_epi32, _mm_slli_si128, _mm_storeu_si128, _mm_xor_si128,
};

use crate::aes::KeySize;

/// Room for the largest schedule (AES-256: 14 rounds + whitening key).
const MAX_RK: usize = 15;

/// An AES key expanded for the AES-NI lane.
///
/// Round keys are stored as plain byte arrays (loaded into vector
/// registers per call); both the encryption and the AESIMC-transformed
/// decryption schedules are wiped by [`AesNi::wipe`], which the owning
/// [`crate::aes::Aes`] invokes from its `Drop`.
#[derive(Clone)]
pub(crate) struct AesNi {
    /// Encryption round keys, `ek[0]` = whitening key.
    ek: [[u8; 16]; MAX_RK],
    /// Equivalent-inverse-cipher round keys, `dk[0]` = last encryption key.
    dk: [[u8; 16]; MAX_RK],
    rounds: usize,
}

impl AesNi {
    /// Expands `key` on the AES-NI schedule pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the CPU does not expose AES-NI (callers dispatch through
    /// [`crate::cpu`], which never selects this lane without it) or if the
    /// key length does not match `size`.
    pub(crate) fn new(key: &[u8], size: KeySize) -> AesNi {
        assert!(
            crate::cpu::hw_accel_available(),
            "AES-NI lane constructed on a CPU without AES/PCLMULQDQ/SSSE3/SSE4.1"
        );
        assert_eq!(key.len(), size.nk() * 4, "AES key length mismatch");
        // SAFETY: the availability assert above guarantees the `aes`
        // target feature is present on this CPU.
        unsafe { AesNi::expand(key, size) }
    }

    /// The expanded encryption schedule (whitening key first): what the
    /// fused GCM kernels ([`crate::gcm_ni`], [`crate::gcm_vaes`]) run their
    /// AESENC chains over, and what the tests compare with the FIPS 197
    /// reference's.
    pub(crate) fn round_keys(&self) -> &[[u8; 16]] {
        &self.ek[..=self.rounds]
    }

    #[target_feature(enable = "aes")]
    unsafe fn expand(key: &[u8], size: KeySize) -> AesNi {
        let rounds = size.nr();
        let mut w = [_mm_setzero_si128(); MAX_RK];
        match size {
            KeySize::Aes128 => {
                w[0] = _mm_loadu_si128(key.as_ptr() as *const __m128i);
                // One AESKEYGENASSIST per round key; the rcon immediate
                // must be a literal, hence the macro.
                macro_rules! rk {
                    ($i:expr, $rcon:expr) => {
                        w[$i] = fold_key(
                            w[$i - 1],
                            _mm_shuffle_epi32(
                                _mm_aeskeygenassist_si128(w[$i - 1], $rcon),
                                0xff,
                            ),
                        );
                    };
                }
                rk!(1, 0x01);
                rk!(2, 0x02);
                rk!(3, 0x04);
                rk!(4, 0x08);
                rk!(5, 0x10);
                rk!(6, 0x20);
                rk!(7, 0x40);
                rk!(8, 0x80);
                rk!(9, 0x1b);
                rk!(10, 0x36);
            }
            KeySize::Aes256 => {
                w[0] = _mm_loadu_si128(key.as_ptr() as *const __m128i);
                w[1] = _mm_loadu_si128(key.as_ptr().add(16) as *const __m128i);
                // Even round keys take RotWord+SubWord (the 0xff lane of
                // the assist) with the round constant; odd ones take
                // SubWord only (the 0xaa lane, rcon 0).
                macro_rules! even {
                    ($i:expr, $rcon:expr) => {
                        w[$i] = fold_key(
                            w[$i - 2],
                            _mm_shuffle_epi32(
                                _mm_aeskeygenassist_si128(w[$i - 1], $rcon),
                                0xff,
                            ),
                        );
                    };
                }
                macro_rules! odd {
                    ($i:expr) => {
                        w[$i] = fold_key(
                            w[$i - 2],
                            _mm_shuffle_epi32(
                                _mm_aeskeygenassist_si128(w[$i - 1], 0x00),
                                0xaa,
                            ),
                        );
                    };
                }
                even!(2, 0x01);
                odd!(3);
                even!(4, 0x02);
                odd!(5);
                even!(6, 0x04);
                odd!(7);
                even!(8, 0x08);
                odd!(9);
                even!(10, 0x10);
                odd!(11);
                even!(12, 0x20);
                odd!(13);
                even!(14, 0x40);
            }
        }
        // Equivalent Inverse Cipher schedule: reverse order, inner keys
        // through InvMixColumns (AESIMC).
        let mut d = [_mm_setzero_si128(); MAX_RK];
        d[0] = w[rounds];
        for i in 1..rounds {
            d[i] = _mm_aesimc_si128(w[rounds - i]);
        }
        d[rounds] = w[0];
        let mut out = AesNi { ek: [[0u8; 16]; MAX_RK], dk: [[0u8; 16]; MAX_RK], rounds };
        for i in 0..=rounds {
            _mm_storeu_si128(out.ek[i].as_mut_ptr() as *mut __m128i, w[i]);
            _mm_storeu_si128(out.dk[i].as_mut_ptr() as *mut __m128i, d[i]);
        }
        out
    }

    /// Encrypts one block. See the module docs for why the inner
    /// `unsafe` is sound.
    pub(crate) fn encrypt_block(&self, block: &mut [u8; 16]) {
        // SAFETY: `new` asserted AES-NI availability.
        unsafe { self.encrypt_block_impl(block) }
    }

    /// Decrypts one block.
    pub(crate) fn decrypt_block(&self, block: &mut [u8; 16]) {
        // SAFETY: `new` asserted AES-NI availability.
        unsafe { self.decrypt_block_impl(block) }
    }

    /// Encrypts eight independent blocks, interleaved to keep the AESENC
    /// pipeline saturated.
    pub(crate) fn encrypt_blocks8(&self, blocks: &mut [[u8; 16]; 8]) {
        // SAFETY: `new` asserted AES-NI availability.
        unsafe { self.encrypt_blocks8_impl(blocks) }
    }

    /// Decrypts eight independent blocks.
    pub(crate) fn decrypt_blocks8(&self, blocks: &mut [[u8; 16]; 8]) {
        // SAFETY: `new` asserted AES-NI availability.
        unsafe { self.decrypt_blocks8_impl(blocks) }
    }

    #[target_feature(enable = "aes")]
    unsafe fn encrypt_block_impl(&self, block: &mut [u8; 16]) {
        let mut s = _mm_loadu_si128(block.as_ptr() as *const __m128i);
        s = _mm_xor_si128(s, load(&self.ek[0]));
        for r in 1..self.rounds {
            s = _mm_aesenc_si128(s, load(&self.ek[r]));
        }
        s = _mm_aesenclast_si128(s, load(&self.ek[self.rounds]));
        _mm_storeu_si128(block.as_mut_ptr() as *mut __m128i, s);
    }

    #[target_feature(enable = "aes")]
    unsafe fn decrypt_block_impl(&self, block: &mut [u8; 16]) {
        let mut s = _mm_loadu_si128(block.as_ptr() as *const __m128i);
        s = _mm_xor_si128(s, load(&self.dk[0]));
        for r in 1..self.rounds {
            s = _mm_aesdec_si128(s, load(&self.dk[r]));
        }
        s = _mm_aesdeclast_si128(s, load(&self.dk[self.rounds]));
        _mm_storeu_si128(block.as_mut_ptr() as *mut __m128i, s);
    }

    #[target_feature(enable = "aes")]
    unsafe fn encrypt_blocks8_impl(&self, blocks: &mut [[u8; 16]; 8]) {
        let mut s = [_mm_setzero_si128(); 8];
        for (v, b) in s.iter_mut().zip(blocks.iter()) {
            *v = _mm_loadu_si128(b.as_ptr() as *const __m128i);
        }
        let k = load(&self.ek[0]);
        for v in s.iter_mut() {
            *v = _mm_xor_si128(*v, k);
        }
        for r in 1..self.rounds {
            let k = load(&self.ek[r]);
            for v in s.iter_mut() {
                *v = _mm_aesenc_si128(*v, k);
            }
        }
        let k = load(&self.ek[self.rounds]);
        for v in s.iter_mut() {
            *v = _mm_aesenclast_si128(*v, k);
        }
        for (v, b) in s.iter().zip(blocks.iter_mut()) {
            _mm_storeu_si128(b.as_mut_ptr() as *mut __m128i, *v);
        }
    }

    #[target_feature(enable = "aes")]
    unsafe fn decrypt_blocks8_impl(&self, blocks: &mut [[u8; 16]; 8]) {
        let mut s = [_mm_setzero_si128(); 8];
        for (v, b) in s.iter_mut().zip(blocks.iter()) {
            *v = _mm_loadu_si128(b.as_ptr() as *const __m128i);
        }
        let k = load(&self.dk[0]);
        for v in s.iter_mut() {
            *v = _mm_xor_si128(*v, k);
        }
        for r in 1..self.rounds {
            let k = load(&self.dk[r]);
            for v in s.iter_mut() {
                *v = _mm_aesdec_si128(*v, k);
            }
        }
        let k = load(&self.dk[self.rounds]);
        for v in s.iter_mut() {
            *v = _mm_aesdeclast_si128(*v, k);
        }
        for (v, b) in s.iter().zip(blocks.iter_mut()) {
            _mm_storeu_si128(b.as_mut_ptr() as *mut __m128i, *v);
        }
    }

    /// Volatile clear of both round-key schedules (invoked by
    /// [`crate::aes::Aes::drop`] via its `wipe`).
    pub(crate) fn wipe(&mut self) {
        crate::ct::zeroize(self.ek.as_flattened_mut());
        crate::ct::zeroize(self.dk.as_flattened_mut());
    }
}

impl std::fmt::Debug for AesNi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never leak key material through Debug output.
        f.debug_struct("AesNi").field("rounds", &self.rounds).finish()
    }
}

/// Loads one stored round key into a vector register (plain SSE2 load —
/// baseline on x86_64, so no feature gate needed).
#[inline(always)]
unsafe fn load(rk: &[u8; 16]) -> __m128i {
    _mm_loadu_si128(rk.as_ptr() as *const __m128i)
}

/// The schedule fold common to every AESKEYGENASSIST step: XOR the
/// previous key with itself shifted by 4, 8, and 12 bytes (propagating
/// each 32-bit word into the next), then mix in the assist word.
#[inline(always)]
unsafe fn fold_key(prev: __m128i, assist: __m128i) -> __m128i {
    let mut t = prev;
    let mut s = _mm_slli_si128(prev, 4);
    t = _mm_xor_si128(t, s);
    s = _mm_slli_si128(s, 4);
    t = _mm_xor_si128(t, s);
    s = _mm_slli_si128(s, 4);
    t = _mm_xor_si128(t, s);
    _mm_xor_si128(t, assist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::unhex;
    use nexus_testkit::spec;

    /// Every test self-skips on silicon without AES-NI: the dispatch layer
    /// never selects this lane there, so there is nothing to test.
    fn hw() -> bool {
        crate::cpu::hw_accel_available()
    }

    #[test]
    fn fips197_vectors() {
        if !hw() {
            return;
        }
        let cases: [(&str, &str, &str); 3] = [
            (
                "2b7e151628aed2a6abf7158809cf4f3c",
                "3243f6a8885a308d313198a2e0370734",
                "3925841d02dc09fbdc118597196a0b32",
            ),
            (
                "000102030405060708090a0b0c0d0e0f",
                "00112233445566778899aabbccddeeff",
                "69c4e0d86a7b0430d8cdb78070b4c55a",
            ),
            (
                "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
                "00112233445566778899aabbccddeeff",
                "8ea2b7ca516745bfeafc49904b496089",
            ),
        ];
        for (key_hex, plain_hex, cipher_hex) in cases {
            let key = unhex(key_hex);
            let size = if key.len() == 16 { KeySize::Aes128 } else { KeySize::Aes256 };
            let ni = AesNi::new(&key, size);
            let mut block: [u8; 16] = unhex(plain_hex).try_into().unwrap();
            ni.encrypt_block(&mut block);
            assert_eq!(block.to_vec(), unhex(cipher_hex));
            ni.decrypt_block(&mut block);
            assert_eq!(block.to_vec(), unhex(plain_hex));
        }
    }

    /// Against the table-driven FIPS 197 reference (`nexus_testkit::spec`),
    /// which shares no code with this engine or its key schedule.
    #[test]
    fn matches_table_engine_on_random_keys() {
        if !hw() {
            return;
        }
        use crate::rng::{SecureRandom, SeededRandom};
        let mut rng = SeededRandom::new(0xae5);
        for _ in 0..100 {
            let key16: [u8; 16] = rng.bytes();
            let key32: [u8; 32] = rng.bytes();
            for (key, size) in [(&key16[..], KeySize::Aes128), (&key32[..], KeySize::Aes256)] {
                let ni = AesNi::new(key, size);
                let plain: [u8; 16] = rng.bytes();
                let mut a = plain;
                let mut b = plain;
                ni.encrypt_block(&mut a);
                spec::Aes::new(key).encrypt_block(&mut b);
                assert_eq!(a, b);
                ni.decrypt_block(&mut a);
                assert_eq!(a, plain);
            }
        }
    }

    #[test]
    fn blocks8_matches_single_block_path() {
        if !hw() {
            return;
        }
        use crate::rng::{SecureRandom, SeededRandom};
        let mut rng = SeededRandom::new(0xb10c);
        for _ in 0..50 {
            let key: [u8; 32] = rng.bytes();
            let ni = AesNi::new(&key, KeySize::Aes256);
            let mut batch = [[0u8; 16]; 8];
            for b in batch.iter_mut() {
                *b = rng.bytes();
            }
            let plain = batch;
            let mut singles = batch;
            ni.encrypt_blocks8(&mut batch);
            for b in singles.iter_mut() {
                ni.encrypt_block(b);
            }
            assert_eq!(batch, singles);
            ni.decrypt_blocks8(&mut batch);
            assert_eq!(batch, plain);
        }
    }

    #[test]
    fn wipe_clears_both_schedules() {
        if !hw() {
            return;
        }
        let mut ni = AesNi::new(&[0x5a; 16], KeySize::Aes128);
        assert!(ni.ek.iter().any(|rk| rk.iter().any(|&b| b != 0)));
        assert!(ni.dk.iter().any(|rk| rk.iter().any(|&b| b != 0)));
        ni.wipe();
        assert!(ni.ek.iter().all(|rk| rk.iter().all(|&b| b == 0)));
        assert!(ni.dk.iter().all(|rk| rk.iter().all(|&b| b == 0)));
    }

    #[test]
    #[should_panic(expected = "AES key length mismatch")]
    fn wrong_key_length_panics() {
        if !hw() {
            // Keep the expected panic on no-HW machines too.
            panic!("AES key length mismatch");
        }
        let _ = AesNi::new(&[0u8; 17], KeySize::Aes128);
    }
}
