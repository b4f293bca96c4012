//! The AES block cipher (FIPS 197), supporting 128- and 256-bit keys.
//!
//! [`Aes::new`] picks one of two constant-time engines at key expansion,
//! from what [`crate::cpu`] observes: the AES-NI engine
//! ([`crate::aes_ni`], on x86_64 CPUs that have it — dedicated silicon,
//! and the fastest) or the portable bitsliced [`crate::aes_ct`] engine,
//! whose keys expand through an algebraic S-box so no memory access
//! depends on key or data bytes. A third, table-driven engine
//! ([`CryptoBackend::Table`]: fused T-tables to encrypt, byte-oriented
//! S-box rounds to decrypt, both indexed by secret-derived values) is kept
//! as the reference the test suites compare the other two against and as
//! the positive control of the timing-leak harness; only
//! [`Aes::with_backend`] reaches it. All engines are the foundation for
//! the [`crate::gcm`] and [`crate::gcm_siv`] AEAD modes used throughout
//! NEXUS and produce identical ciphertext.
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

/// The AES S-box (crate-visible so the bitsliced lane's tests can verify
/// their algebraic S-box against it for all 256 inputs).
pub(crate) const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab,
    0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4,
    0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71,
    0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6,
    0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb,
    0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45,
    0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44,
    0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a,
    0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25,
    0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e,
    0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1,
    0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb,
    0x16,
];

/// The inverse AES S-box.
pub(crate) const INV_SBOX: [u8; 256] = [
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e, 0x81, 0xf3, 0xd7,
    0xfb, 0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87, 0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde,
    0xe9, 0xcb, 0x54, 0x7b, 0x94, 0x32, 0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42,
    0xfa, 0xc3, 0x4e, 0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49,
    0x6d, 0x8b, 0xd1, 0x25, 0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16, 0xd4, 0xa4, 0x5c,
    0xcc, 0x5d, 0x65, 0xb6, 0x92, 0x6c, 0x70, 0x48, 0x50, 0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15,
    0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84, 0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7,
    0xe4, 0x58, 0x05, 0xb8, 0xb3, 0x45, 0x06, 0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02,
    0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b, 0x3a, 0x91, 0x11, 0x41, 0x4f, 0x67, 0xdc,
    0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73, 0x96, 0xac, 0x74, 0x22, 0xe7, 0xad,
    0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8, 0x1c, 0x75, 0xdf, 0x6e, 0x47, 0xf1, 0x1a, 0x71, 0x1d,
    0x29, 0xc5, 0x89, 0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b, 0xfc, 0x56, 0x3e, 0x4b,
    0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4, 0x1f, 0xdd, 0xa8,
    0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59, 0x27, 0x80, 0xec, 0x5f, 0x60, 0x51,
    0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d, 0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef, 0xa0,
    0xe0, 0x3b, 0x4d, 0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63, 0x55, 0x21, 0x0c,
    0x7d,
];

/// Round constants used by the key schedule.
const RCON: [u8; 11] = [0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiply by `x` in GF(2^8) with the AES reduction polynomial.
#[inline]
fn xtime(b: u8) -> u8 {
    (b << 1) ^ (if b & 0x80 != 0 { 0x1b } else { 0 })
}

/// Multiply two elements of GF(2^8).
#[inline]
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            acc ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    acc
}

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

/// Encryption T-tables (SubBytes + ShiftRows + MixColumns fused), built
/// once per process. `TE[1..4]` are byte rotations of `TE[0]`.
fn te_tables() -> &'static [[u32; 256]; 4] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 4]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut te = [[0u32; 256]; 4];
        for x in 0..256 {
            let s = SBOX[x] as u32;
            let s2 = xtime(SBOX[x]) as u32;
            let s3 = s2 ^ s;
            let t0 = (s2 << 24) | (s << 16) | (s << 8) | s3;
            te[0][x] = t0;
            te[1][x] = t0.rotate_right(8);
            te[2][x] = t0.rotate_right(16);
            te[3][x] = t0.rotate_right(24);
        }
        te
    })
}

/// The concrete engine block operations dispatch to (the internal side of
/// [`CryptoBackend`]).
#[derive(Clone)]
enum Engine {
    /// Table-driven reference engine, the only one that keeps the FIPS 197
    /// schedule in its plain forms.
    Table {
        /// Expanded round keys, whitening key first (decrypt path).
        round_keys: Vec<[u8; 16]>,
        /// The same keys as big-endian column words (T-table encrypt path).
        round_keys_u32: Vec<[u32; 4]>,
    },
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
                let mut round_keys = expand_key(key, size, aes_ct::sbox_ct);
                let ct = AesCt::from_round_keys(&round_keys);
                crate::ct::zeroize(round_keys.as_flattened_mut());
                Engine::Bitsliced(ct)
            }
            CryptoBackend::Table => {
                let round_keys = expand_key(key, size, |b| SBOX[b as usize]);
                let round_keys_u32 = round_keys
                    .iter()
                    .map(|rk| {
                        std::array::from_fn(|c| {
                            u32::from_be_bytes(rk[c * 4..c * 4 + 4].try_into().unwrap())
                        })
                    })
                    .collect();
                Engine::Table { round_keys, round_keys_u32 }
            }
        };
        Aes { engine, rounds: size.nr() }
    }

    /// The concrete engine this key dispatches to.
    pub fn backend(&self) -> CryptoBackend {
        match self.engine {
            Engine::Table { .. } => CryptoBackend::Table,
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
            _ => None,
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
            Engine::Table { round_keys_u32: rk, .. } => {
                let te = te_tables();
                let mut c = load_state(block, &rk[0]);
                for k in &rk[1..self.rounds] {
                    c = round(te, &c, k);
                }
                store_state(block, &final_round(&c, &rk[self.rounds]));
            }
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
    /// [`Aes::encrypt_block`] calls. Native batch on the bitsliced and
    /// AES-NI engines (this is what makes the batched GCM CTR keystream in
    /// `crate::gcm` cheaper per byte); the table engine encrypts serially.
    pub fn encrypt_blocks8(&self, blocks: &mut [[u8; 16]; 8]) {
        match &self.engine {
            Engine::Table { .. } => {
                for block in blocks.iter_mut() {
                    self.encrypt_block(block);
                }
            }
            Engine::Bitsliced(ct) => ct.encrypt_blocks8(blocks),
            #[cfg(target_arch = "x86_64")]
            Engine::HwAccel(ni) => ni.encrypt_blocks8(blocks),
        }
    }

    /// Byte-oriented FIPS 197 encryption straight from the specification,
    /// kept to check the T-table path against.
    ///
    /// # Panics
    ///
    /// Panics unless the key was expanded for [`CryptoBackend::Table`], the
    /// only engine that keeps the byte-form schedule.
    #[doc(hidden)]
    pub fn encrypt_block_reference(&self, block: &mut [u8; 16]) {
        let Engine::Table { round_keys, .. } = &self.engine else {
            panic!("the reference path needs the table engine's byte-form schedule");
        };
        add_round_key(block, &round_keys[0]);
        for rk in &round_keys[1..self.rounds] {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, rk);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &round_keys[self.rounds]);
    }

    /// Decrypts one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        match &self.engine {
            Engine::Table { round_keys, .. } => {
                add_round_key(block, &round_keys[self.rounds]);
                inv_shift_rows(block);
                inv_sub_bytes(block);
                for rk in round_keys[1..self.rounds].iter().rev() {
                    add_round_key(block, rk);
                    inv_mix_columns(block);
                    inv_shift_rows(block);
                    inv_sub_bytes(block);
                }
                add_round_key(block, &round_keys[0]);
            }
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
    /// [`Aes::encrypt_blocks8`]. Native batch on the bitsliced and AES-NI
    /// engines; the table engine decrypts serially.
    pub fn decrypt_blocks8(&self, blocks: &mut [[u8; 16]; 8]) {
        match &self.engine {
            Engine::Table { .. } => {
                for block in blocks.iter_mut() {
                    self.decrypt_block(block);
                }
            }
            Engine::Bitsliced(ct) => ct.decrypt_blocks8(blocks),
            #[cfg(target_arch = "x86_64")]
            Engine::HwAccel(ni) => ni.decrypt_blocks8(blocks),
        }
    }

    /// Encrypts one block while recording every data-dependent table access
    /// as `(table_id, index)` pairs — T-tables are ids 0..=3, the final
    /// round's S-box is id 4. The constant-time lanes (bitsliced and
    /// AES-NI alike) perform no such access, so their traces stay empty.
    ///
    /// This feeds the `nexus-testkit` timing-leak harness's deterministic
    /// cache model; the ciphertext is always identical to
    /// [`Aes::encrypt_block`].
    #[doc(hidden)]
    pub fn encrypt_block_trace(&self, block: &mut [u8; 16], trace: &mut Vec<(u8, u16)>) {
        let Engine::Table { round_keys_u32: rk, .. } = &self.engine else {
            self.encrypt_block(block);
            return;
        };
        let te = te_tables();
        let mut c = load_state(block, &rk[0]);
        for k in &rk[1..self.rounds] {
            c = round_traced(te, &c, k, trace);
        }
        store_state(block, &final_round_traced(&c, &rk[self.rounds], trace));
    }

    /// Volatile best-effort clear of the engine's round keys (also invoked
    /// by `Drop`; kept separate so tests can observe the cleared state).
    fn wipe(&mut self) {
        match &mut self.engine {
            Engine::Table { round_keys, round_keys_u32 } => {
                crate::ct::zeroize(round_keys.as_flattened_mut());
                crate::ct::zeroize_u32(round_keys_u32.as_flattened_mut());
            }
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

/// The FIPS 197 key expansion with the S-box supplied by the caller (a
/// table lookup for the reference engine, the algebraic constant-time
/// S-box for the bitsliced one). Returns one 16-byte key per round,
/// whitening key first.
fn expand_key(key: &[u8], size: KeySize, sub: fn(u8) -> u8) -> Vec<[u8; 16]> {
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
                *b = sub(*b);
            }
            temp[0] ^= RCON[i / nk];
        } else if nk > 6 && i % nk == 4 {
            for b in temp.iter_mut() {
                *b = sub(*b);
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

/// Loads a block into big-endian column words, applying the whitening key.
#[inline(always)]
fn load_state(block: &[u8; 16], rk0: &[u32; 4]) -> [u32; 4] {
    [
        u32::from_be_bytes(block[0..4].try_into().unwrap()) ^ rk0[0],
        u32::from_be_bytes(block[4..8].try_into().unwrap()) ^ rk0[1],
        u32::from_be_bytes(block[8..12].try_into().unwrap()) ^ rk0[2],
        u32::from_be_bytes(block[12..16].try_into().unwrap()) ^ rk0[3],
    ]
}

/// Stores column words back into block bytes.
#[inline(always)]
fn store_state(block: &mut [u8; 16], words: &[u32; 4]) {
    for (i, word) in words.iter().enumerate() {
        block[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
}

/// One full middle round: SubBytes + ShiftRows + MixColumns + AddRoundKey
/// fused through the T-tables.
#[inline(always)]
fn round(te: &[[u32; 256]; 4], c: &[u32; 4], k: &[u32; 4]) -> [u32; 4] {
    [
        te[0][(c[0] >> 24) as usize]
            ^ te[1][((c[1] >> 16) & 0xff) as usize]
            ^ te[2][((c[2] >> 8) & 0xff) as usize]
            ^ te[3][(c[3] & 0xff) as usize]
            ^ k[0],
        te[0][(c[1] >> 24) as usize]
            ^ te[1][((c[2] >> 16) & 0xff) as usize]
            ^ te[2][((c[3] >> 8) & 0xff) as usize]
            ^ te[3][(c[0] & 0xff) as usize]
            ^ k[1],
        te[0][(c[2] >> 24) as usize]
            ^ te[1][((c[3] >> 16) & 0xff) as usize]
            ^ te[2][((c[0] >> 8) & 0xff) as usize]
            ^ te[3][(c[1] & 0xff) as usize]
            ^ k[2],
        te[0][(c[3] >> 24) as usize]
            ^ te[1][((c[0] >> 16) & 0xff) as usize]
            ^ te[2][((c[1] >> 8) & 0xff) as usize]
            ^ te[3][(c[2] & 0xff) as usize]
            ^ k[3],
    ]
}

/// Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
#[inline(always)]
fn final_round(c: &[u32; 4], k: &[u32; 4]) -> [u32; 4] {
    let s = |w: u32, shift: u32| -> u32 { SBOX[((w >> shift) & 0xff) as usize] as u32 };
    [
        ((s(c[0], 24) << 24) | (s(c[1], 16) << 16) | (s(c[2], 8) << 8) | s(c[3], 0)) ^ k[0],
        ((s(c[1], 24) << 24) | (s(c[2], 16) << 16) | (s(c[3], 8) << 8) | s(c[0], 0)) ^ k[1],
        ((s(c[2], 24) << 24) | (s(c[3], 16) << 16) | (s(c[0], 8) << 8) | s(c[1], 0)) ^ k[2],
        ((s(c[3], 24) << 24) | (s(c[0], 16) << 16) | (s(c[1], 8) << 8) | s(c[2], 0)) ^ k[3],
    ]
}

/// [`round`] with every T-table access appended to `trace`; identical
/// output, used only by [`Aes::encrypt_block_trace`].
fn round_traced(
    te: &[[u32; 256]; 4],
    c: &[u32; 4],
    k: &[u32; 4],
    trace: &mut Vec<(u8, u16)>,
) -> [u32; 4] {
    let mut out = [0u32; 4];
    for i in 0..4 {
        let idx = [
            (c[i] >> 24) & 0xff,
            (c[(i + 1) % 4] >> 16) & 0xff,
            (c[(i + 2) % 4] >> 8) & 0xff,
            c[(i + 3) % 4] & 0xff,
        ];
        let mut w = k[i];
        for (t, ix) in idx.iter().enumerate() {
            trace.push((t as u8, *ix as u16));
            w ^= te[t][*ix as usize];
        }
        out[i] = w;
    }
    out
}

/// [`final_round`] with every S-box access appended to `trace` (table id 4).
fn final_round_traced(c: &[u32; 4], k: &[u32; 4], trace: &mut Vec<(u8, u16)>) -> [u32; 4] {
    let mut out = [0u32; 4];
    for i in 0..4 {
        let idx = [
            (c[i] >> 24) & 0xff,
            (c[(i + 1) % 4] >> 16) & 0xff,
            (c[(i + 2) % 4] >> 8) & 0xff,
            c[(i + 3) % 4] & 0xff,
        ];
        let mut w = 0u32;
        for (pos, ix) in idx.iter().enumerate() {
            trace.push((4, *ix as u16));
            w |= (SBOX[*ix as usize] as u32) << (24 - 8 * pos as u32);
        }
        out[i] = w ^ k[i];
    }
    out
}

#[inline]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk.iter()) {
        *s ^= k;
    }
}

#[inline]
fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

#[inline]
fn inv_sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = INV_SBOX[*b as usize];
    }
}

// State is column-major: state[4*c + r] is row r, column c.
#[inline]
pub(crate) fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * c + r] = s[4 * ((c + r) % 4) + r];
        }
    }
}

#[inline]
pub(crate) fn inv_shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * ((c + r) % 4) + r] = s[4 * c + r];
        }
    }
}

#[inline]
pub(crate) fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
        state[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
        state[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
        state[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
        state[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
    }
}

#[inline]
pub(crate) fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
        state[4 * c] =
            gf_mul(col[0], 0x0e) ^ gf_mul(col[1], 0x0b) ^ gf_mul(col[2], 0x0d) ^ gf_mul(col[3], 0x09);
        state[4 * c + 1] =
            gf_mul(col[0], 0x09) ^ gf_mul(col[1], 0x0e) ^ gf_mul(col[2], 0x0b) ^ gf_mul(col[3], 0x0d);
        state[4 * c + 2] =
            gf_mul(col[0], 0x0d) ^ gf_mul(col[1], 0x09) ^ gf_mul(col[2], 0x0e) ^ gf_mul(col[3], 0x0b);
        state[4 * c + 3] =
            gf_mul(col[0], 0x0b) ^ gf_mul(col[1], 0x0d) ^ gf_mul(col[2], 0x09) ^ gf_mul(col[3], 0x0e);
    }
}

/// Byte-level round transforms re-exported for the bitsliced lane's
/// differential tests.
#[cfg(test)]
pub(crate) mod reference {
    pub(crate) use super::{inv_mix_columns, inv_shift_rows, mix_columns, shift_rows};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::unhex;

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
    fn ttable_matches_reference_implementation() {
        use crate::rng::{SecureRandom, SeededRandom};
        let mut rng = SeededRandom::new(99);
        for _ in 0..200 {
            let key16: [u8; 16] = rng.bytes();
            let key32: [u8; 32] = rng.bytes();
            let plain: [u8; 16] = rng.bytes();
            for (key, size) in [(&key16[..], KeySize::Aes128), (&key32[..], KeySize::Aes256)] {
                let aes = Aes::with_backend(key, size, CryptoBackend::Table);
                let mut fast = plain;
                let mut slow = plain;
                aes.encrypt_block(&mut fast);
                aes.encrypt_block_reference(&mut slow);
                assert_eq!(fast, slow);
            }
        }
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
            for backend in all_backends() {
                let aes = Aes::with_backend(&key, size, backend);
                let mut block: [u8; 16] = unhex(plain_hex).try_into().unwrap();
                aes.encrypt_block(&mut block);
                assert_eq!(block.to_vec(), unhex(cipher_hex), "{backend:?}");
                aes.decrypt_block(&mut block);
                assert_eq!(block.to_vec(), unhex(plain_hex), "{backend:?}");
            }
        }
    }

    #[test]
    fn default_engine_matches_table_engine() {
        use crate::rng::{SecureRandom, SeededRandom};
        let mut rng = SeededRandom::new(515);
        for _ in 0..50 {
            let key16: [u8; 16] = rng.bytes();
            let key32: [u8; 32] = rng.bytes();
            for (key, size) in [(&key16[..], KeySize::Aes128), (&key32[..], KeySize::Aes256)] {
                let fast = Aes::with_backend(key, size, CryptoBackend::Table);
                let hard = Aes::new(key, size);
                let mut batch = [[0u8; 16]; 8];
                for b in batch.iter_mut() {
                    *b = rng.bytes();
                }
                let mut fast_batch = batch;
                let mut hard_batch = batch;
                fast.encrypt_blocks8(&mut fast_batch);
                hard.encrypt_blocks8(&mut hard_batch);
                assert_eq!(fast_batch, hard_batch);
                let mut single = batch[0];
                hard.encrypt_block(&mut single);
                assert_eq!(single, fast_batch[0]);
                hard.decrypt_block(&mut single);
                assert_eq!(single, batch[0]);
            }
        }
    }

    #[test]
    fn traced_encrypt_matches_and_ct_trace_is_empty() {
        use crate::rng::{SecureRandom, SeededRandom};
        let mut rng = SeededRandom::new(81);
        for _ in 0..20 {
            let key: [u8; 16] = rng.bytes();
            let plain: [u8; 16] = rng.bytes();
            let fast = Aes::with_backend(&key, KeySize::Aes128, CryptoBackend::Table);
            let mut expect = plain;
            fast.encrypt_block(&mut expect);
            let mut traced = plain;
            let mut trace = Vec::new();
            fast.encrypt_block_trace(&mut traced, &mut trace);
            assert_eq!(traced, expect);
            // 16 T-table loads per middle round + 16 S-box loads at the end.
            assert_eq!(trace.len(), 16 * 10);
            // Both constant-time engines leave the trace empty.
            for backend in ct_backends() {
                let hard = Aes::with_backend(&key, KeySize::Aes128, backend);
                let mut ct_block = plain;
                let mut ct_trace = Vec::new();
                hard.encrypt_block_trace(&mut ct_block, &mut ct_trace);
                assert_eq!(ct_block, expect);
                assert!(ct_trace.is_empty(), "{backend:?} lane recorded table accesses");
            }
        }
    }

    /// The constant-time backends testable on this host: always the
    /// bitsliced engine, plus AES-NI where the CPU has it.
    fn ct_backends() -> Vec<CryptoBackend> {
        let mut backends = vec![CryptoBackend::Bitsliced];
        if crate::cpu::hw_accel_available() {
            backends.push(CryptoBackend::HwAccel);
        }
        backends
    }

    fn all_backends() -> Vec<CryptoBackend> {
        let mut backends = vec![CryptoBackend::Table];
        backends.extend(ct_backends());
        backends
    }

    #[test]
    fn default_engine_is_constant_time() {
        let aes = Aes::new_128(&[0u8; 16]);
        assert_eq!(aes.backend(), crate::cpu::constant_time_backend());
        assert_ne!(aes.backend(), CryptoBackend::Table);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hw_schedule_matches_portable_schedule() {
        if !crate::cpu::hw_accel_available() {
            return;
        }
        use crate::rng::{SecureRandom, SeededRandom};
        let mut rng = SeededRandom::new(0x5c_4ed);
        for _ in 0..20 {
            let key16: [u8; 16] = rng.bytes();
            let key32: [u8; 32] = rng.bytes();
            for (key, size) in [(&key16[..], KeySize::Aes128), (&key32[..], KeySize::Aes256)] {
                // The AESKEYGENASSIST schedule must produce the exact
                // FIPS 197 expansion the reference engine holds.
                let portable = expand_key(key, size, |b| SBOX[b as usize]);
                assert_eq!(AesNi::new(key, size).round_keys(), &portable[..]);
            }
        }
    }

    #[test]
    fn all_backends_agree_on_every_operation() {
        use crate::rng::{SecureRandom, SeededRandom};
        let mut rng = SeededRandom::new(0x3_1a2e5);
        for _ in 0..30 {
            let key: [u8; 32] = rng.bytes();
            let reference = Aes::with_backend(&key, KeySize::Aes256, CryptoBackend::Table);
            let mut batch = [[0u8; 16]; 8];
            for b in batch.iter_mut() {
                *b = rng.bytes();
            }
            let mut expect = batch;
            reference.encrypt_blocks8(&mut expect);
            for backend in ct_backends() {
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
        for backend in all_backends() {
            let mut aes = Aes::with_backend(&[0x5au8; 16], KeySize::Aes128, backend);
            aes.wipe();
            match &aes.engine {
                Engine::Table { round_keys, round_keys_u32 } => {
                    assert!(round_keys.iter().all(|rk| rk.iter().all(|&b| b == 0)));
                    assert!(round_keys_u32.iter().all(|rk| rk.iter().all(|&w| w == 0)));
                }
                // The plane form is private to `aes_ct`.
                Engine::Bitsliced(_) => {}
                #[cfg(target_arch = "x86_64")]
                Engine::HwAccel(ni) => {
                    assert!(ni.round_keys().iter().all(|rk| rk.iter().all(|&b| b == 0)));
                }
            }
        }
    }

    #[test]
    fn gf_mul_matches_xtime() {
        for b in 0u8..=255 {
            assert_eq!(gf_mul(b, 2), xtime(b));
            assert_eq!(gf_mul(b, 1), b);
            assert_eq!(gf_mul(b, 3), xtime(b) ^ b);
        }
    }
}
