//! The AES block cipher (FIPS 197), supporting 128- and 256-bit keys.
//!
//! [`Aes::new`] expands a key onto one of two constant-time engines, from
//! what [`crate::cpu`] observes: the AES-NI engine ([`crate::aes_ni`], on
//! x86_64 CPUs that have it — dedicated silicon, and the fastest) or the
//! portable bitsliced [`crate::aes_ct`] engine, whose keys expand through
//! an algebraic S-box so no memory access depends on key or data bytes.
//! Neither indexes a table by a secret, and there is no third engine: the
//! table-driven reference the test suites compare both against is
//! `nexus_testkit::spec`, outside the shipped crate. Both engines are the
//! foundation for the [`crate::gcm`] and [`crate::gcm_siv`] AEAD modes
//! used throughout NEXUS and produce identical ciphertext.
//!
//! # Examples
//!
//! ```
//! use nexus_crypto::aes::Aes;
//!
//! let key = [0u8; 16];
//! let aes = Aes::new_128(&key);
//! let mut block = *b"sixteen byte msg";
//! let original = block;
//! aes.encrypt_block(&mut block);
//! aes.decrypt_block(&mut block);
//! assert_eq!(block, original);
//! ```

use crate::aes_ct::{self, AesCt};
#[cfg(target_arch = "x86_64")]
use crate::aes_ni::AesNi;
use crate::CryptoBackend;

/// Round constants used by the key schedule.
const RCON: [u8; 11] = [0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// AES key size, selecting the number of rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeySize {
    /// AES-128 (10 rounds).
    Aes128,
    /// AES-256 (14 rounds).
    Aes256,
}

impl KeySize {
    /// Number of 32-bit words in the key.
    pub(crate) fn nk(self) -> usize {
        match self {
            KeySize::Aes128 => 4,
            KeySize::Aes256 => 8,
        }
    }

    /// Number of rounds.
    pub(crate) fn nr(self) -> usize {
        match self {
            KeySize::Aes128 => 10,
            KeySize::Aes256 => 14,
        }
    }
}

/// The concrete engine block operations dispatch to (the internal side of
/// [`CryptoBackend`]).
#[derive(Clone)]
enum Engine {
    /// Portable bitsliced constant-time lane.
    Bitsliced(AesCt),
    /// AES-NI constant-time lane.
    #[cfg(target_arch = "x86_64")]
    HwAccel(AesNi),
}

/// An expanded AES key, ready to encrypt or decrypt 16-byte blocks.
///
/// Round-key material (whichever form the engine holds) is volatilely
/// zeroized when the value is dropped.
#[derive(Clone)]
pub struct Aes {
    /// The engine block operations run through.
    engine: Engine,
    rounds: usize,
}

impl std::fmt::Debug for Aes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never leak key material through Debug output.
        f.debug_struct("Aes").field("rounds", &self.rounds).finish()
    }
}

impl Aes {
    /// Expands a key of the given size on the engine
    /// [`crate::cpu::constant_time_backend`] selects: AES-NI when the CPU
    /// has it, else the bitsliced engine.
    ///
    /// # Panics
    ///
    /// Panics if `key.len()` does not match `size` (16 bytes for
    /// [`KeySize::Aes128`], 32 for [`KeySize::Aes256`]).
    pub fn new(key: &[u8], size: KeySize) -> Aes {
        Aes::with_backend(key, size, crate::cpu::constant_time_backend())
    }

    /// Expands a key for one *specific* engine, bypassing CPU dispatch.
    /// Normal callers want [`Aes::new`]; this exists so the differential
    /// test suites and the `micro_ct` bench can pin each engine regardless
    /// of host CPU or the force-portable override.
    ///
    /// # Panics
    ///
    /// Panics if `key.len()` does not match `size`, or if
    /// [`CryptoBackend::HwAccel`] is requested on a CPU without
    /// AES-NI/PCLMULQDQ (check [`crate::cpu::hw_accel_available`] first).
    #[doc(hidden)]
    pub fn with_backend(key: &[u8], size: KeySize, backend: CryptoBackend) -> Aes {
        assert_eq!(key.len(), size.nk() * 4, "AES key length mismatch");
        let engine = match backend {
            // The hardware schedule never runs key bytes through a memory
            // table, and is much cheaper than the algebraic-S-box portable
            // schedule.
            #[cfg(target_arch = "x86_64")]
            CryptoBackend::HwAccel => Engine::HwAccel(AesNi::new(key, size)),
            #[cfg(not(target_arch = "x86_64"))]
            CryptoBackend::HwAccel => {
                panic!("hardware crypto lane is x86_64-only; use CryptoBackend::Bitsliced")
            }
            CryptoBackend::Bitsliced => {
                let mut round_keys = expand_key(key, size);
                let ct = AesCt::from_round_keys(&round_keys);
                crate::ct::zeroize(round_keys.as_flattened_mut());
                Engine::Bitsliced(ct)
            }
        };
        Aes { engine, rounds: size.nr() }
    }

    /// The concrete engine this key dispatches to.
    pub fn backend(&self) -> CryptoBackend {
        match self.engine {
            Engine::Bitsliced(_) => CryptoBackend::Bitsliced,
            #[cfg(target_arch = "x86_64")]
            Engine::HwAccel(_) => CryptoBackend::HwAccel,
        }
    }

    /// The AES-NI key this value holds, on the hardware engine only — the
    /// fused GCM kernels' way in ([`crate::gcm_ni`], [`crate::gcm_vaes`]).
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn hw(&self) -> Option<&AesNi> {
        match &self.engine {
            Engine::HwAccel(ni) => Some(ni),
            Engine::Bitsliced(_) => None,
        }
    }

    /// Expands a 16-byte AES-128 key.
    ///
    /// # Examples
    ///
    /// ```
    /// let aes = nexus_crypto::aes::Aes::new_128(&[0u8; 16]);
    /// let mut block = [0u8; 16];
    /// aes.encrypt_block(&mut block);
    /// ```
    pub fn new_128(key: &[u8; 16]) -> Aes {
        Aes::new(key, KeySize::Aes128)
    }

    /// Expands a 32-byte AES-256 key.
    pub fn new_256(key: &[u8; 32]) -> Aes {
        Aes::new(key, KeySize::Aes256)
    }

    /// Encrypts one 16-byte block in place.
    ///
    /// The bitsliced lane runs the block through the 8-wide engine with
    /// seven idle lanes rather than keeping a scalar path with different
    /// timing behaviour; the AES-NI lane has a true single-block pipeline.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        match &self.engine {
            Engine::Bitsliced(ct) => {
                let mut batch = [[0u8; 16]; 8];
                batch[0] = *block;
                ct.encrypt_blocks8(&mut batch);
                *block = batch[0];
            }
            #[cfg(target_arch = "x86_64")]
            Engine::HwAccel(ni) => ni.encrypt_block(block),
        }
    }

    /// Encrypts eight 16-byte blocks in place — the same result as eight
    /// [`Aes::encrypt_block`] calls, in one native batch on either engine
    /// (this is what makes the batched GCM CTR keystream in `crate::gcm`
    /// cheaper per byte).
    pub fn encrypt_blocks8(&self, blocks: &mut [[u8; 16]; 8]) {
        match &self.engine {
            Engine::Bitsliced(ct) => ct.encrypt_blocks8(blocks),
            #[cfg(target_arch = "x86_64")]
            Engine::HwAccel(ni) => ni.encrypt_blocks8(blocks),
        }
    }

    /// Decrypts one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        match &self.engine {
            Engine::Bitsliced(ct) => {
                let mut batch = [[0u8; 16]; 8];
                batch[0] = *block;
                ct.decrypt_blocks8(&mut batch);
                *block = batch[0];
            }
            #[cfg(target_arch = "x86_64")]
            Engine::HwAccel(ni) => ni.decrypt_block(block),
        }
    }

    /// Decrypts eight 16-byte blocks in place — the inverse of
    /// [`Aes::encrypt_blocks8`], in one native batch on either engine.
    pub fn decrypt_blocks8(&self, blocks: &mut [[u8; 16]; 8]) {
        match &self.engine {
            Engine::Bitsliced(ct) => ct.decrypt_blocks8(blocks),
            #[cfg(target_arch = "x86_64")]
            Engine::HwAccel(ni) => ni.decrypt_blocks8(blocks),
        }
    }

    /// Volatile best-effort clear of the engine's round keys (also invoked
    /// by `Drop`; kept separate so tests can observe the cleared state).
    fn wipe(&mut self) {
        match &mut self.engine {
            Engine::Bitsliced(ct) => ct.wipe(),
            #[cfg(target_arch = "x86_64")]
            Engine::HwAccel(ni) => ni.wipe(),
        }
    }
}

impl Drop for Aes {
    fn drop(&mut self) {
        self.wipe();
    }
}

impl crate::ct::ZeroizeOnDrop for Aes {}

/// The FIPS 197 key expansion on the algebraic constant-time S-box
/// ([`aes_ct::sbox_ct`]), for the bitsliced engine. Returns one 16-byte
/// key per round, whitening key first.
fn expand_key(key: &[u8], size: KeySize) -> Vec<[u8; 16]> {
    let nk = size.nk();
    let total_words = 4 * (size.nr() + 1);
    let mut w = vec![[0u8; 4]; total_words];
    for (i, word) in w.iter_mut().take(nk).enumerate() {
        word.copy_from_slice(&key[i * 4..i * 4 + 4]);
    }
    for i in nk..total_words {
        let mut temp = w[i - 1];
        if i % nk == 0 {
            temp.rotate_left(1);
            for b in temp.iter_mut() {
                *b = aes_ct::sbox_ct(*b);
            }
            temp[0] ^= RCON[i / nk];
        } else if nk > 6 && i % nk == 4 {
            for b in temp.iter_mut() {
                *b = aes_ct::sbox_ct(*b);
            }
        }
        for j in 0..4 {
            w[i][j] = w[i - nk][j] ^ temp[j];
        }
    }
    let round_keys =
        w.as_flattened().chunks_exact(16).map(|rk| rk.try_into().expect("16 bytes")).collect();
    crate::ct::zeroize(w.as_flattened_mut());
    round_keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::unhex;
    use nexus_testkit::spec;

    #[test]
    fn fips197_aes128_vector() {
        // FIPS 197 Appendix B.
        let key: [u8; 16] = unhex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let mut block: [u8; 16] = unhex("3243f6a8885a308d313198a2e0370734").try_into().unwrap();
        let aes = Aes::new_128(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), unhex("3925841d02dc09fbdc118597196a0b32"));
        aes.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), unhex("3243f6a8885a308d313198a2e0370734"));
    }

    #[test]
    fn fips197_aes128_appendix_c1() {
        let key: [u8; 16] = unhex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let mut block: [u8; 16] = unhex("00112233445566778899aabbccddeeff").try_into().unwrap();
        let aes = Aes::new_128(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), unhex("69c4e0d86a7b0430d8cdb78070b4c55a"));
    }

    #[test]
    fn fips197_aes256_appendix_c3() {
        let key: [u8; 32] =
            unhex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
                .try_into()
                .unwrap();
        let mut block: [u8; 16] = unhex("00112233445566778899aabbccddeeff").try_into().unwrap();
        let aes = Aes::new_256(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), unhex("8ea2b7ca516745bfeafc49904b496089"));
        aes.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), unhex("00112233445566778899aabbccddeeff"));
    }

    #[test]
    fn encrypt_decrypt_roundtrip_random_keys() {
        use crate::rng::{SecureRandom, SeededRandom};
        let mut rng = SeededRandom::new(7);
        for _ in 0..50 {
            let key: [u8; 32] = rng.bytes();
            let aes = Aes::new_256(&key);
            let plain: [u8; 16] = rng.bytes();
            let mut block = plain;
            aes.encrypt_block(&mut block);
            assert_ne!(block, plain);
            aes.decrypt_block(&mut block);
            assert_eq!(block, plain);
        }
    }

    #[test]
    #[should_panic(expected = "AES key length mismatch")]
    fn wrong_key_length_panics() {
        let _ = Aes::new(&[0u8; 17], KeySize::Aes128);
    }

    #[test]
    fn blocks8_matches_single_block_path() {
        use crate::rng::{SecureRandom, SeededRandom};
        let mut rng = SeededRandom::new(2024);
        for _ in 0..50 {
            let key16: [u8; 16] = rng.bytes();
            let key32: [u8; 32] = rng.bytes();
            for aes in [Aes::new_128(&key16), Aes::new_256(&key32)] {
                let mut batch = [[0u8; 16]; 8];
                for b in batch.iter_mut() {
                    *b = rng.bytes();
                }
                let mut singles = batch;
                aes.encrypt_blocks8(&mut batch);
                for b in singles.iter_mut() {
                    aes.encrypt_block(b);
                }
                assert_eq!(batch, singles);
            }
        }
    }

    #[test]
    fn fips197_vectors_pass_under_every_engine() {
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
            for backend in backends() {
                let aes = Aes::with_backend(&key, size, backend);
                let mut block: [u8; 16] = unhex(plain_hex).try_into().unwrap();
                aes.encrypt_block(&mut block);
                assert_eq!(block.to_vec(), unhex(cipher_hex), "{backend:?}");
                aes.decrypt_block(&mut block);
                assert_eq!(block.to_vec(), unhex(plain_hex), "{backend:?}");
            }
        }
    }

    /// What dispatch picks encrypts as the table-driven FIPS 197 reference
    /// (`nexus_testkit::spec`) does, batched and single, and decrypts back.
    #[test]
    fn default_engine_matches_table_engine() {
        use crate::rng::{SecureRandom, SeededRandom};
        let mut rng = SeededRandom::new(515);
        for _ in 0..50 {
            let key16: [u8; 16] = rng.bytes();
            let key32: [u8; 32] = rng.bytes();
            for (key, size) in [(&key16[..], KeySize::Aes128), (&key32[..], KeySize::Aes256)] {
                let reference = spec::Aes::new(key);
                let hard = Aes::new(key, size);
                let mut batch = [[0u8; 16]; 8];
                for b in batch.iter_mut() {
                    *b = rng.bytes();
                }
                let mut expect = batch;
                expect.iter_mut().for_each(|b| reference.encrypt_block(b));
                let mut hard_batch = batch;
                hard.encrypt_blocks8(&mut hard_batch);
                assert_eq!(hard_batch, expect);
                let mut single = batch[0];
                hard.encrypt_block(&mut single);
                assert_eq!(single, expect[0]);
                hard.decrypt_block(&mut single);
                assert_eq!(single, batch[0]);
            }
        }
    }

    /// The engines testable on this host: always the bitsliced engine,
    /// plus AES-NI where the CPU has it.
    fn backends() -> Vec<CryptoBackend> {
        let mut backends = vec![CryptoBackend::Bitsliced];
        if crate::cpu::hw_accel_available() {
            backends.push(CryptoBackend::HwAccel);
        }
        backends
    }

    #[test]
    fn default_engine_is_constant_time() {
        let aes = Aes::new_128(&[0u8; 16]);
        assert_eq!(aes.backend(), crate::cpu::constant_time_backend());
    }

    /// Both engines' key schedules are the FIPS 197 expansion the spec
    /// reference computes on its own: the algebraic-S-box one the
    /// bitsliced engine starts from, and AESKEYGENASSIST's.
    #[test]
    fn hw_schedule_matches_portable_schedule() {
        use crate::rng::{SecureRandom, SeededRandom};
        let mut rng = SeededRandom::new(0x5c_4ed);
        for _ in 0..20 {
            let key16: [u8; 16] = rng.bytes();
            let key32: [u8; 32] = rng.bytes();
            for (key, size) in [(&key16[..], KeySize::Aes128), (&key32[..], KeySize::Aes256)] {
                let reference = spec::Aes::new(key);
                assert_eq!(expand_key(key, size), reference.round_keys());
                #[cfg(target_arch = "x86_64")]
                if crate::cpu::hw_accel_available() {
                    assert_eq!(AesNi::new(key, size).round_keys(), reference.round_keys());
                }
            }
        }
    }

    #[test]
    fn all_backends_agree_on_every_operation() {
        use crate::rng::{SecureRandom, SeededRandom};
        let mut rng = SeededRandom::new(0x3_1a2e5);
        for _ in 0..30 {
            let key: [u8; 32] = rng.bytes();
            let reference = spec::Aes::new(&key);
            let mut batch = [[0u8; 16]; 8];
            for b in batch.iter_mut() {
                *b = rng.bytes();
            }
            let mut expect = batch;
            expect.iter_mut().for_each(|b| reference.encrypt_block(b));
            for backend in backends() {
                let aes = Aes::with_backend(&key, KeySize::Aes256, backend);
                assert_eq!(aes.backend(), backend);
                let mut enc = batch;
                aes.encrypt_blocks8(&mut enc);
                assert_eq!(enc, expect, "{backend:?} encrypt_blocks8");
                aes.decrypt_blocks8(&mut enc);
                assert_eq!(enc, batch, "{backend:?} decrypt_blocks8");
                let mut single = batch[3];
                aes.encrypt_block(&mut single);
                assert_eq!(single, expect[3], "{backend:?} encrypt_block");
                aes.decrypt_block(&mut single);
                assert_eq!(single, batch[3], "{backend:?} decrypt_block");
            }
        }
    }

    #[test]
    fn wipe_clears_all_round_key_forms() {
        for backend in backends() {
            let mut aes = Aes::with_backend(&[0x5au8; 16], KeySize::Aes128, backend);
            aes.wipe();
            match &aes.engine {
                // The plane form is private to `aes_ct`.
                Engine::Bitsliced(_) => {}
                #[cfg(target_arch = "x86_64")]
                Engine::HwAccel(ni) => {
                    assert!(ni.round_keys().iter().all(|rk| rk.iter().all(|&b| b == 0)));
                }
            }
        }
    }
}
