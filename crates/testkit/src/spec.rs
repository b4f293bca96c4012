//! The block cipher and the two AEAD modes NEXUS seals with, written once
//! more straight from their specifications, one block at a time, as the
//! reference the workspace's test suites compare `nexus-crypto` against:
//!
//! - [`Aes`] — FIPS 197: the §5.2 key expansion and the §5.1 cipher,
//!   byte by byte through the S-box of Figure 7;
//! - [`gcm_seal`] — NIST SP 800-38D: GCTR over `inc32` counters and GHASH
//!   on Algorithm 1's bitwise multiply;
//! - [`gcm_siv_seal`] — RFC 8452: the §4 per-nonce key derivation and
//!   POLYVAL on its own field (§3), not through the GHASH mapping.
//!
//! Nothing here is shared with `nexus-crypto` — not the S-box, not the key
//! schedule, not a field multiply — so a bug in one cannot hide the same
//! bug in the other, and each is checked against the official vectors on
//! its own (this module's tests). None of it is constant-time: every
//! S-box lookup is indexed by a secret byte. That is why it lives here
//! and not in a shipped crate, and why it serves the timing-leak harness
//! as its positive control ([`Aes::cold_cache_cost`]).

use crate::timing::CacheModel;

/// The AES S-box, FIPS 197 Figure 7.
pub const SBOX: [u8; 256] = [
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

/// Table id [`Aes::encrypt_block_traced`] gives the final round's S-box;
/// ids 0–3 are the four T-tables of the middle rounds.
const FINAL_SBOX_TABLE: u8 = 4;

/// `xtime` (FIPS 197 §4.2.1): multiplication by `x` in GF(2^8).
fn xtime(b: u8) -> u8 {
    (b << 1) ^ if b & 0x80 != 0 { 0x1b } else { 0 }
}

/// ShiftRows (§5.1.2). The state is column-major: `state[4c + r]` is row
/// `r` of column `c`, and row `r` rotates left by `r`.
pub fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * c + r] = s[4 * ((c + r) % 4) + r];
        }
    }
}

/// MixColumns (§5.1.3): each column times `{03}x³ + {01}x² + {01}x + {02}`.
pub fn mix_columns(state: &mut [u8; 16]) {
    for col in state.chunks_exact_mut(4) {
        let a = [col[0], col[1], col[2], col[3]];
        let all = a[0] ^ a[1] ^ a[2] ^ a[3];
        for r in 0..4 {
            // {02}·a_r ⊕ {03}·a_{r+1} ⊕ a_{r+2} ⊕ a_{r+3}
            col[r] = a[r] ^ all ^ xtime(a[r] ^ a[(r + 1) % 4]);
        }
    }
}

/// An expanded AES key (FIPS 197, 128- or 256-bit: the two sizes NEXUS
/// uses).
pub struct Aes {
    round_keys: Vec<[u8; 16]>,
}

impl Aes {
    /// KeyExpansion (§5.2): `Nk` words of key, then `4·(Nr + 1)` words in
    /// all, every `Nk`-th through RotWord, SubWord and Rcon, and — for a
    /// 256-bit key — every fourth in between through SubWord.
    ///
    /// # Panics
    ///
    /// Panics unless the key is 16 or 32 bytes.
    pub fn new(key: &[u8]) -> Aes {
        assert!(matches!(key.len(), 16 | 32), "an AES key here is 16 or 32 bytes");
        let nk = key.len() / 4;
        let nr = nk + 6;
        let mut w: Vec<[u8; 4]> = key.chunks_exact(4).map(|c| [c[0], c[1], c[2], c[3]]).collect();
        let mut rcon = 1u8;
        for i in nk..4 * (nr + 1) {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1);
                temp = temp.map(|b| SBOX[b as usize]);
                temp[0] ^= rcon;
                rcon = xtime(rcon);
            } else if nk > 6 && i % nk == 4 {
                temp = temp.map(|b| SBOX[b as usize]);
            }
            let prev = w[i - nk];
            w.push(std::array::from_fn(|j| prev[j] ^ temp[j]));
        }
        let round_keys = w.chunks_exact(4).map(|k| std::array::from_fn(|j| k[j / 4][j % 4])).collect();
        Aes { round_keys }
    }

    /// The key schedule, one 16-byte round key per round, whitening key
    /// first.
    pub fn round_keys(&self) -> &[[u8; 16]] {
        &self.round_keys
    }

    /// Cipher (§5.1): one block, in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        self.cipher(block, |_, _| {});
    }

    /// [`Aes::encrypt_block`], recording every table lookup a T-table
    /// implementation of the same cipher makes, as `(table, index)`. The
    /// index of every lookup is a byte of the state entering SubBytes; a
    /// middle round fuses SubBytes, ShiftRows and MixColumns into four
    /// 256-entry tables of 4-byte words, one per row (table ids 0–3), and
    /// the final round looks the bytes up in the S-box itself (table id
    /// 4). 160 lookups for a 128-bit key, every one indexed by key and
    /// plaintext: the leak the `timing` harness exists to catch, and its
    /// positive control.
    pub fn encrypt_block_traced(&self, block: &mut [u8; 16], trace: &mut Vec<(u8, u16)>) {
        self.cipher(block, |table, index| trace.push((table, index as u16)));
    }

    /// What encrypting `block` costs from a cold cache: its
    /// [`Aes::encrypt_block_traced`] lookups charged against a
    /// [`CacheModel`], at 4 bytes an entry in the T-tables and 1 in the
    /// S-box. Deterministic, and different for different plaintexts — the
    /// cost the timing harness classifies.
    pub fn cold_cache_cost(&self, block: &[u8; 16]) -> f64 {
        let mut trace = Vec::new();
        self.encrypt_block_traced(&mut block.clone(), &mut trace);
        let mut cache = CacheModel::new();
        for (table, index) in trace {
            let entry_bytes = if table == FINAL_SBOX_TABLE { 1 } else { 4 };
            cache.access(table, u32::from(index) * entry_bytes);
        }
        cache.cost()
    }

    fn cipher(&self, state: &mut [u8; 16], mut lookup: impl FnMut(u8, u8)) {
        let nr = self.round_keys.len() - 1;
        add_round_key(state, &self.round_keys[0]);
        for round in 1..=nr {
            for (i, b) in state.iter_mut().enumerate() {
                lookup(if round < nr { (i % 4) as u8 } else { FINAL_SBOX_TABLE }, *b);
                *b = SBOX[*b as usize];
            }
            shift_rows(state);
            if round < nr {
                mix_columns(state);
            }
            add_round_key(state, &self.round_keys[round]);
        }
    }
}

/// AddRoundKey (§5.1.4).
fn add_round_key(state: &mut [u8; 16], round_key: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(round_key) {
        *s ^= k;
    }
}

/// SP 800-38D Algorithm 1: `X • Y` in GF(2^128), bit 0 the leftmost bit of
/// the block (the most significant bit of the big-endian `u128`).
fn ghash_mul(x: u128, y: u128) -> u128 {
    const R: u128 = 0xe1 << 120;
    let mut z = 0;
    let mut v = y;
    for i in 0..128 {
        if x >> (127 - i) & 1 == 1 {
            z ^= v;
        }
        v = if v & 1 == 0 { v >> 1 } else { (v >> 1) ^ R };
    }
    z
}

/// The 16-byte blocks of `data`, the last one zero-padded.
fn padded_blocks(data: &[u8]) -> impl Iterator<Item = [u8; 16]> + '_ {
    data.chunks(16).map(|chunk| {
        let mut block = [0u8; 16];
        block[..chunk.len()].copy_from_slice(chunk);
        block
    })
}

/// AES-GCM encryption (SP 800-38D §7.1) with a 96-bit IV and a 128-bit
/// tag: `J0 = IV ‖ 0³¹1`, `C = GCTR(inc32(J0), P)`, `S = GHASH_H(A ‖ 0^v ‖
/// C ‖ 0^u ‖ [len(A)]₆₄ ‖ [len(C)]₆₄)`, `T = GCTR(J0, S)`. Returns
/// `(C, T)`.
///
/// # Panics
///
/// Panics unless the key is 16 or 32 bytes.
pub fn gcm_seal(key: &[u8], iv: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> (Vec<u8>, [u8; 16]) {
    let aes = Aes::new(key);
    let mut h = [0u8; 16];
    aes.encrypt_block(&mut h);
    let h = u128::from_be_bytes(h);
    let mut j0 = [0u8; 16];
    j0[..12].copy_from_slice(iv);
    j0[15] = 1;

    let mut counter = j0;
    let mut ciphertext = Vec::with_capacity(plaintext.len());
    for chunk in plaintext.chunks(16) {
        let n = u32::from_be_bytes(counter[12..].try_into().expect("4 bytes")).wrapping_add(1);
        counter[12..].copy_from_slice(&n.to_be_bytes());
        let mut keystream = counter;
        aes.encrypt_block(&mut keystream);
        ciphertext.extend(chunk.iter().zip(keystream).map(|(p, k)| p ^ k));
    }

    let mut lengths = [0u8; 16];
    lengths[..8].copy_from_slice(&(aad.len() as u64 * 8).to_be_bytes());
    lengths[8..].copy_from_slice(&(ciphertext.len() as u64 * 8).to_be_bytes());
    let blocks = padded_blocks(aad).chain(padded_blocks(&ciphertext)).chain([lengths]);
    let s = blocks.fold(0, |y, x| ghash_mul(y ^ u128::from_be_bytes(x), h));
    let mut tag = j0;
    aes.encrypt_block(&mut tag);
    (ciphertext, (u128::from_be_bytes(tag) ^ s).to_be_bytes())
}

/// `a · b · x⁻¹²⁸` in POLYVAL's field, GF(2)[x] / (x¹²⁸ + x¹²⁷ + x¹²⁶ +
/// x¹²¹ + 1) (RFC 8452 §3), elements little-endian: bit `i` of the `u128`
/// is the coefficient of `xⁱ`. Each bit of `a` adds `b`, then the whole
/// sum is divided by `x`; after 128 bits, bit `i` has picked up
/// `x^(i − 128)`.
fn polyval_dot(a: u128, b: u128) -> u128 {
    // x · (x¹²⁷ + x¹²⁶ + x¹²⁵ + x¹²⁰) = x¹²⁸ + x¹²⁷ + x¹²⁶ + x¹²¹ ≡ 1.
    const X_INVERSE: u128 = (1 << 127) | (1 << 126) | (1 << 125) | (1 << 120);
    let mut acc = 0;
    for i in 0..128 {
        if a >> i & 1 == 1 {
            acc ^= b;
        }
        acc = if acc & 1 == 0 { acc >> 1 } else { (acc >> 1) ^ X_INVERSE };
    }
    acc
}

/// POLYVAL(H, X₁, …, Xₙ) (RFC 8452 §3): `S₀ = 0`, `Sⱼ = dot(Sⱼ₋₁ ⊕ Xⱼ, H)`.
fn polyval(h: &[u8; 16], blocks: impl IntoIterator<Item = [u8; 16]>) -> [u8; 16] {
    let h = u128::from_le_bytes(*h);
    let s = blocks.into_iter().fold(0, |s, x| polyval_dot(s ^ u128::from_le_bytes(x), h));
    s.to_le_bytes()
}

/// AES-GCM-SIV encryption (RFC 8452 §4) under a 16- or 32-byte
/// key-generating key: the per-nonce authentication and encryption keys
/// from the first halves of `AES(K, [i]₃₂ₗₑ ‖ N)`, the tag `AES(Kₑ, (S ⊕ N)
/// with bit 127 clear)` over `S = POLYVAL(Kₐ, pad(A) ‖ pad(P) ‖ [len(A)]₆₄ₗₑ
/// ‖ [len(P)]₆₄ₗₑ)`, and AES-CTR from the tag with bit 127 set, its first
/// four bytes a little-endian counter. Returns `(C, T)`.
///
/// # Panics
///
/// Panics unless the key is 16 or 32 bytes.
pub fn gcm_siv_seal(
    key: &[u8],
    nonce: &[u8; 12],
    aad: &[u8],
    plaintext: &[u8],
) -> (Vec<u8>, [u8; 16]) {
    let kgk = Aes::new(key);
    let derived: Vec<u8> = (0..2 + key.len() as u32 / 8)
        .flat_map(|i| {
            let mut block = [0u8; 16];
            block[..4].copy_from_slice(&i.to_le_bytes());
            block[4..].copy_from_slice(nonce);
            kgk.encrypt_block(&mut block);
            block[..8].to_vec()
        })
        .collect();
    let (auth_key, enc_key) = derived.split_at(16);
    let enc = Aes::new(enc_key);

    let mut lengths = [0u8; 16];
    lengths[..8].copy_from_slice(&(aad.len() as u64 * 8).to_le_bytes());
    lengths[8..].copy_from_slice(&(plaintext.len() as u64 * 8).to_le_bytes());
    let blocks = padded_blocks(aad).chain(padded_blocks(plaintext)).chain([lengths]);
    let mut tag = polyval(auth_key.try_into().expect("16 bytes"), blocks);
    for (t, n) in tag.iter_mut().zip(nonce) {
        *t ^= n;
    }
    tag[15] &= 0x7f;
    enc.encrypt_block(&mut tag);

    let mut counter_block = tag;
    counter_block[15] |= 0x80;
    let first = u32::from_le_bytes(counter_block[..4].try_into().expect("4 bytes"));
    let mut ciphertext = Vec::with_capacity(plaintext.len());
    for (i, chunk) in plaintext.chunks(16).enumerate() {
        let mut keystream = counter_block;
        keystream[..4].copy_from_slice(&first.wrapping_add(i as u32).to_le_bytes());
        enc.encrypt_block(&mut keystream);
        ciphertext.extend(chunk.iter().zip(keystream).map(|(p, k)| p ^ k));
    }
    (ciphertext, tag)
}

#[cfg(test)]
mod tests {
    //! Every function above against its specification's own vectors, with
    //! nothing from `nexus-crypto` in the loop.

    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        let s: String = s.chars().filter(|c| !c.is_ascii_whitespace()).collect();
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex")).collect()
    }

    fn block(s: &str) -> [u8; 16] {
        unhex(s).try_into().expect("16 bytes")
    }

    /// FIPS 197 Appendix B (the worked example, AES-128), C.1 (AES-128) and
    /// C.3 (AES-256).
    #[test]
    fn aes_matches_fips197_appendices_b_c1_and_c3() {
        let cases = [
            ("2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734", "3925841d02dc09fbdc118597196a0b32"),
            ("000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff", "69c4e0d86a7b0430d8cdb78070b4c55a"),
            (
                "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
                "00112233445566778899aabbccddeeff",
                "8ea2b7ca516745bfeafc49904b496089",
            ),
        ];
        for (key, plain, cipher) in cases {
            let mut b = block(plain);
            Aes::new(&unhex(key)).encrypt_block(&mut b);
            assert_eq!(b, block(cipher), "key {key}");
        }
    }

    /// FIPS 197 Appendix A.1 and A.3: the last word of each expansion.
    #[test]
    fn key_expansion_matches_fips197_appendix_a() {
        let aes128 = Aes::new(&unhex("2b7e151628aed2a6abf7158809cf4f3c"));
        assert_eq!(aes128.round_keys().len(), 11);
        assert_eq!(aes128.round_keys()[10], block("d014f9a8c9ee2589e13f0cc8b6630ca6"));
        let aes256 = Aes::new(&unhex(
            "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
        ));
        assert_eq!(aes256.round_keys().len(), 15);
        assert_eq!(aes256.round_keys()[14], block("fe4890d1e6188d0b046df344706c631e"));
    }

    /// The traced cipher is the cipher, and its trace has the T-table
    /// shape: 16 lookups per round, rows 0–3 in the middle rounds, the
    /// final-round S-box last.
    #[test]
    fn traced_encryption_equals_untraced_and_records_every_lookup() {
        for key in [&[0x3cu8; 16][..], &[0x5au8; 32][..]] {
            let aes = Aes::new(key);
            let rounds = aes.round_keys().len() - 1;
            let (mut plain, mut traced) = ([0xa5u8; 16], [0xa5u8; 16]);
            let mut trace = Vec::new();
            aes.encrypt_block(&mut plain);
            aes.encrypt_block_traced(&mut traced, &mut trace);
            assert_eq!(plain, traced);
            assert_eq!(trace.len(), 16 * rounds);
            let (middle, last) = trace.split_at(16 * (rounds - 1));
            assert!(middle.iter().enumerate().all(|(i, &(t, _))| t as usize == i % 4));
            assert!(last.iter().all(|&(t, _)| t == FINAL_SBOX_TABLE));
        }
    }

    /// SP 800-38D test cases 1–4 (AES-128) and 13–14 (AES-256), as
    /// published with the GCM specification.
    #[test]
    fn gcm_matches_sp800_38d_test_cases() {
        let cases = [
            ("00000000000000000000000000000000", "000000000000000000000000", "", "", "", "58e2fccefa7e3061367f1d57a4e7455a"),
            (
                "00000000000000000000000000000000",
                "000000000000000000000000",
                "00000000000000000000000000000000",
                "",
                "0388dace60b6a392f328c2b971b2fe78",
                "ab6e47d42cec13bdf53a67b21257bddf",
            ),
            (
                "feffe9928665731c6d6a8f9467308308",
                "cafebabefacedbaddecaf888",
                "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72
                 1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
                "",
                "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
                "4d5c2af327cd64a62cf35abd2ba6fab4",
            ),
            (
                "feffe9928665731c6d6a8f9467308308",
                "cafebabefacedbaddecaf888",
                "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72
                 1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
                "feedfacedeadbeeffeedfacedeadbeefabaddad2",
                "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
                "5bc94fbc3221a5db94fae95ae7121a47",
            ),
            (
                "0000000000000000000000000000000000000000000000000000000000000000",
                "000000000000000000000000",
                "",
                "",
                "",
                "530f8afbc74536b9a963b4f1c4cb738b",
            ),
            (
                "0000000000000000000000000000000000000000000000000000000000000000",
                "000000000000000000000000",
                "00000000000000000000000000000000",
                "",
                "cea7403d4d606b6e074ec5d3baf39d18",
                "d0d1c8a799996bf0265b98b5d48ab919",
            ),
        ];
        for (key, iv, pt, aad, ct, tag) in cases {
            let iv: [u8; 12] = unhex(iv).try_into().expect("12 bytes");
            let (c, t) = gcm_seal(&unhex(key), &iv, &unhex(aad), &unhex(pt));
            assert_eq!(c, unhex(ct), "ciphertext, key {key}");
            assert_eq!(t, block(tag), "tag, key {key}");
        }
    }

    /// RFC 8452 Appendix A's POLYVAL example.
    #[test]
    fn polyval_matches_rfc8452_appendix_a() {
        let h = block("25629347589242761d31f826ba4b757b");
        let xs = [block("4f4f95668c83dfb6401762bb2d01a262"), block("d1a24ddd2721d006bbe45f20d3c9f362")];
        assert_eq!(polyval(&h, xs), block("f7a3b47b846119fae5b7866cf5e5b77e"));
    }

    /// RFC 8452 Appendix C.1 (AES-128-GCM-SIV) and C.2 (AES-256-GCM-SIV),
    /// with and without AAD. `Result` is ciphertext ‖ tag.
    #[test]
    fn gcm_siv_matches_rfc8452_appendix_c() {
        let key128 = "01000000000000000000000000000000";
        let key256 = "0100000000000000000000000000000000000000000000000000000000000000";
        let nonce = "030000000000000000000000";
        let cases = [
            (key128, "", "", "dc20e2d83f25705bb49e439eca56de25"),
            (key128, "0100000000000000", "", "b5d839330ac7b786578782fff6013b815b287c22493a364c"),
            (key128, "010000000000000000000000", "", "7323ea61d05932260047d942a4978db357391a0bc4fdec8b0d106639"),
            (
                key128,
                "01000000000000000000000000000000",
                "",
                "743f7c8077ab25f8624e2e948579cf77303aaf90f6fe21199c6068577437a0c4",
            ),
            (key128, "0200000000000000", "01", "1e6daba35669f4273b0a1a2560969cdf790d99759abd1508"),
            (key128, "020000000000000000000000", "01", "296c7889fd99f41917f4462008299c5102745aaa3a0c469fad9e075a"),
            (key256, "", "", "07f5f4169bbf55a8400cd47ea6fd400f"),
            (key256, "0100000000000000", "", "c2ef328e5c71c83b843122130f7364b761e0b97427e3df28"),
            (key256, "0200000000000000", "01", "1de22967237a813291213f267e3b452f02d01ae33e4ec854"),
            (key256, "02000000", "010000000000000000000000", "22b3f4cd1835e517741dfddccfa07fa4661b74cf"),
        ];
        for (key, pt, aad, result) in cases {
            let nonce: [u8; 12] = unhex(nonce).try_into().expect("12 bytes");
            let (c, t) = gcm_siv_seal(&unhex(key), &nonce, &unhex(aad), &unhex(pt));
            assert_eq!([c, t.to_vec()].concat(), unhex(result), "key {key}, pt {pt}, aad {aad}");
        }
    }
}
