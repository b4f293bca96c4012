//! The SHA-256 and SHA-512 hash functions (FIPS 180-4).
//!
//! SHA-256 is used for enclave measurements, bucket MACs and (through
//! [`crate::hmac`]) HKDF; SHA-512 is required by
//! [`crate::ed25519`].
//!
//! SHA-256 compresses on one of two byte-identical functions, chosen by
//! [`crate::cpu::sha_lane`]: the scalar one in this file, or the SHA-NI
//! kernel (`sha_ni`) where the CPU has the extensions. Both take any whole
//! number of blocks and read them where they lie.
//!
//! # Examples
//!
//! ```
//! use nexus_crypto::sha2::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(digest[0], 0xba);
//! ```

use crate::cpu::ShaLane;

pub(crate) const K256: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const K512: [u64; 80] = [
    0x428a2f98d728ae22, 0x7137449123ef65cd, 0xb5c0fbcfec4d3b2f, 0xe9b5dba58189dbbc,
    0x3956c25bf348b538, 0x59f111f1b605d019, 0x923f82a4af194f9b, 0xab1c5ed5da6d8118,
    0xd807aa98a3030242, 0x12835b0145706fbe, 0x243185be4ee4b28c, 0x550c7dc3d5ffb4e2,
    0x72be5d74f27b896f, 0x80deb1fe3b1696b1, 0x9bdc06a725c71235, 0xc19bf174cf692694,
    0xe49b69c19ef14ad2, 0xefbe4786384f25e3, 0x0fc19dc68b8cd5b5, 0x240ca1cc77ac9c65,
    0x2de92c6f592b0275, 0x4a7484aa6ea6e483, 0x5cb0a9dcbd41fbd4, 0x76f988da831153b5,
    0x983e5152ee66dfab, 0xa831c66d2db43210, 0xb00327c898fb213f, 0xbf597fc7beef0ee4,
    0xc6e00bf33da88fc2, 0xd5a79147930aa725, 0x06ca6351e003826f, 0x142929670a0e6e70,
    0x27b70a8546d22ffc, 0x2e1b21385c26c926, 0x4d2c6dfc5ac42aed, 0x53380d139d95b3df,
    0x650a73548baf63de, 0x766a0abb3c77b2a8, 0x81c2c92e47edaee6, 0x92722c851482353b,
    0xa2bfe8a14cf10364, 0xa81a664bbc423001, 0xc24b8b70d0f89791, 0xc76c51a30654be30,
    0xd192e819d6ef5218, 0xd69906245565a910, 0xf40e35855771202a, 0x106aa07032bbd1b8,
    0x19a4c116b8d2d0c8, 0x1e376c085141ab53, 0x2748774cdf8eeb99, 0x34b0bcb5e19b48a8,
    0x391c0cb3c5c95a63, 0x4ed8aa4ae3418acb, 0x5b9cca4f7763e373, 0x682e6ff3d6b2b8a3,
    0x748f82ee5defb2fc, 0x78a5636f43172f60, 0x84c87814a1f0ab72, 0x8cc702081a6439ec,
    0x90befffa23631e28, 0xa4506cebde82bde9, 0xbef9a3f7b2c67915, 0xc67178f2e372532b,
    0xca273eceea26619c, 0xd186b8c721c0c207, 0xeada7dd6cde0eb1e, 0xf57d4f7fee6ed178,
    0x06f067aa72176fba, 0x0a637dc5a2c898a6, 0x113f9804bef90dae, 0x1b710b35131c471b,
    0x28db77f523047d84, 0x32caab7b40c72493, 0x3c9ebe0a15c9bebc, 0x431d67c49c100d4c,
    0x4cc5d4becb3e42b6, 0x597f299cfc657e2a, 0x5fcb6fab3ad6faec, 0x6c44198c4a475817,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sha256").field("total_len", &self.total_len).finish()
    }
}

impl Sha256 {
    /// Creates a new hasher with the standard initial state.
    pub fn new() -> Sha256 {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return self;
            }
            compress_blocks(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let (whole, tail) = data.split_at(data.len() - data.len() % 64);
        if !whole.is_empty() {
            compress_blocks(&mut self.state, whole);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
        self
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // buffer ‖ 0x80 ‖ zeros ‖ bit length: one block when the length
        // field fits behind the marker, two when it does not.
        let mut pad = [0u8; 128];
        pad[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        pad[self.buf_len] = 0x80;
        let end = if self.buf_len < 56 { 64 } else { 128 };
        pad[end - 8..end].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress_blocks(&mut self.state, &pad[..end]);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }
}

/// The lane this call compresses on: [`crate::cpu::sha_lane`], or the one
/// a unit test pinned for its thread.
fn lane() -> ShaLane {
    #[cfg(test)]
    if let Some(pinned) = crate::test_util::pinned_sha_lane() {
        return pinned;
    }
    crate::cpu::sha_lane()
}

/// The SHA-256 compression function over `blocks`, a whole number of
/// 64-byte blocks, on the lane chosen once per call.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    match lane() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the lane is `ShaNi` only when CPUID shows the SHA
        // extensions, SSSE3 and SSE4.1 (`cpu::sha_lane`; the test pin
        // checks `cpu::sha_ni_available`) — every feature the kernel
        // enables.
        ShaLane::ShaNi => unsafe { crate::sha_ni::compress_blocks(state, blocks) },
        _ => compress_blocks_portable(state, blocks),
    }
}

/// The portable lane: every block of `blocks`, read in place.
fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    assert_eq!(blocks.len() % 64, 0, "SHA-256 compresses whole 64-byte blocks");
    for block in blocks.chunks_exact(64) {
        compress_block_portable(state, block);
    }
}

/// FIPS 180-4 §6.2.2 over one 64-byte block. `K256` is indexed by round
/// number only. A function of its own: inlined into the loop above, the
/// rounds compiled ≈ 10 % slower.
fn compress_block_portable(state: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("a 4-byte chunk"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K256[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(add);
    }
}

/// Incremental SHA-512 hasher.
#[derive(Clone)]
pub struct Sha512 {
    state: [u64; 8],
    buf: [u8; 128],
    buf_len: usize,
    total_len: u128,
}

impl Default for Sha512 {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Sha512 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sha512").field("total_len", &self.total_len).finish()
    }
}

impl Sha512 {
    /// Creates a new hasher with the standard initial state.
    pub fn new() -> Sha512 {
        Sha512 {
            state: [
                0x6a09e667f3bcc908, 0xbb67ae8584caa73b, 0x3c6ef372fe94f82b, 0xa54ff53a5f1d36f1,
                0x510e527fade682d1, 0x9b05688c2b3e6c1f, 0x1f83d9abfb41bd6b, 0x5be0cd19137e2179,
            ],
            buf: [0; 128],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(data.len() as u128);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (128 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 128 {
                return self;
            }
            compress_blocks_512(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let (whole, tail) = data.split_at(data.len() - data.len() % 128);
        if !whole.is_empty() {
            compress_blocks_512(&mut self.state, whole);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
        self
    }

    /// Finishes the hash and returns the 64-byte digest.
    pub fn finalize(mut self) -> [u8; 64] {
        // buffer ‖ 0x80 ‖ zeros ‖ bit length, as in `Sha256::finalize`.
        let mut pad = [0u8; 256];
        pad[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        pad[self.buf_len] = 0x80;
        let end = if self.buf_len < 112 { 128 } else { 256 };
        pad[end - 16..end].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress_blocks_512(&mut self.state, &pad[..end]);
        let mut out = [0u8; 64];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 64] {
        let mut h = Sha512::new();
        h.update(data);
        h.finalize()
    }
}

/// The SHA-512 compression function (FIPS 180-4 §6.4.2) over `blocks`, a
/// whole number of 128-byte blocks, read in place.
fn compress_blocks_512(state: &mut [u64; 8], blocks: &[u8]) {
    assert_eq!(blocks.len() % 128, 0, "SHA-512 compresses whole 128-byte blocks");
    for block in blocks.chunks_exact(128) {
        let mut w = [0u64; 80];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(8)) {
            *word = u64::from_be_bytes(bytes.try_into().expect("an 8-byte chunk"));
        }
        for i in 16..80 {
            let s0 = w[i - 15].rotate_right(1) ^ w[i - 15].rotate_right(8) ^ (w[i - 15] >> 7);
            let s1 = w[i - 2].rotate_right(19) ^ w[i - 2].rotate_right(61) ^ (w[i - 2] >> 6);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..80 {
            let s1 = e.rotate_right(14) ^ e.rotate_right(18) ^ e.rotate_right(41);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K512[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(28) ^ a.rotate_right(34) ^ a.rotate_right(39);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{SecureRandom, SeededRandom};
    use crate::test_util::{hex, on_each_sha_lane, unhex};

    /// The byte pattern the pasted known answers below were computed over.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 131 + 89) as u8) ^ ((i >> 8) as u8)).collect()
    }

    /// A FIPS 180-4 example vector, on both engines.
    fn assert_sha256_on_both_lanes(msg: &[u8], expect: &str) {
        on_each_sha_lane(|lane| assert_eq!(hex(&Sha256::digest(msg)), expect, "{lane:?}"));
    }

    #[test]
    fn sha256_empty() {
        assert_sha256_on_both_lanes(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn sha256_abc() {
        assert_sha256_on_both_lanes(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn sha256_two_blocks() {
        assert_sha256_on_both_lanes(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn sha256_million_a() {
        assert_sha256_on_both_lanes(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    /// Lengths either side of where the length field stops fitting in the
    /// block that holds the `0x80` marker (55/56), a full buffer (63/64) and
    /// the same one block on (119/120). Answers from the byte-at-a-time
    /// padding this file used to have.
    #[test]
    fn sha256_padding_edges_match_the_pre_change_digests() {
        const KNOWN: [(usize, &str); 6] = [
            (55, "5cd933fd80e612f4b717bcbd4ac4aea9ffda9b9743e566cac438e174f811dbc1"),
            (56, "059c6bf706ee37fbd6403d8a344ad8100c4df88070fd9922711dfb39b2f2d926"),
            (63, "f9b7467f604d3cc1d04cd97889494455a82fa578ccd6bccfc3a3869685a9565f"),
            (64, "f751999fdf22bb8bc98699dcd71c4bebbc6ceda5365a7ff73ee08471eb2c27c7"),
            (119, "f49f9e3c1cca29efa2b47eea66a93c33e8e99785aea83314ed322935ce495dfa"),
            (120, "ae296348c14d84810c4d0cf7470f45909a4ee5097e0225470b5b346af1c46903"),
        ];
        on_each_sha_lane(|lane| {
            for (len, expect) in KNOWN {
                assert_eq!(hex(&Sha256::digest(&pattern(len))), expect, "{lane:?}, {len} bytes");
            }
        });
    }

    /// The kernel against the portable compression function, from a state
    /// that is not the initial one, over block counts that cover one block,
    /// the per-call state permutation carried across several, and a long run.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn kernel_compresses_like_the_portable_engine() {
        if !crate::test_util::sha_ni_or_skip() {
            return;
        }
        let mut rng = SeededRandom::new(0x5a256);
        for n_blocks in [0usize, 1, 2, 3, 17, 1000] {
            let mut blocks = vec![0u8; 64 * n_blocks];
            rng.fill(&mut blocks);
            let start: [u8; 32] = rng.bytes();
            let mut expect = [0u32; 8];
            for (word, bytes) in expect.iter_mut().zip(start.chunks_exact(4)) {
                *word = u32::from_le_bytes(bytes.try_into().unwrap());
            }
            let mut got = expect;
            compress_blocks_portable(&mut expect, &blocks);
            // SAFETY: `sha_ni_or_skip` reported sha, ssse3 and sse4.1.
            unsafe { crate::sha_ni::compress_blocks(&mut got, &blocks) };
            assert_eq!(got, expect, "{n_blocks} blocks");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    #[should_panic(expected = "whole 64-byte blocks")]
    fn kernel_refuses_a_ragged_input() {
        if !crate::test_util::sha_ni_or_skip() {
            panic!("whole 64-byte blocks");
        }
        // SAFETY: `sha_ni_or_skip` reported sha, ssse3 and sse4.1.
        unsafe { crate::sha_ni::compress_blocks(&mut [0; 8], &[0u8; 65]) };
    }

    /// `Sha256::digest` on each lane, for every short length (each residue
    /// of the block and both padding shapes several times over), the bucket
    /// size that matters, and a megabyte either side of a block boundary.
    #[test]
    fn digests_agree_across_lanes_at_every_length() {
        let mut lens: Vec<usize> = (0..=300).collect();
        lens.extend([3400, (1 << 20) - 1, 1 << 20, (1 << 20) + 1]);
        let mut data = vec![0u8; (1 << 20) + 1];
        SeededRandom::new(0xd16e57).fill(&mut data);
        let mut portable: Option<Vec<[u8; 32]>> = None;
        on_each_sha_lane(|lane| {
            let digests: Vec<[u8; 32]> =
                lens.iter().map(|&len| Sha256::digest(&data[..len])).collect();
            match &portable {
                None => portable = Some(digests),
                Some(expect) => {
                    for ((len, got), expect) in lens.iter().zip(&digests).zip(expect) {
                        assert_eq!(got, expect, "{lane:?} against the portable engine, {len} bytes");
                    }
                }
            }
        });
    }

    /// The SHA-NI lane against the portable engine over the matrix the GCM
    /// kernels get in `kernel_differential.rs`: every length 0..=1024, read
    /// from each of the sixteen offsets past a 16-byte boundary (the kernel's
    /// block loads are unaligned ones; `update` hands it the caller's bytes
    /// where they lie), fed in two `update`s cut wherever the block buffer
    /// changes behaviour — empty, one byte, either side of the padding
    /// boundary, either side of one and two blocks, the middle, one short of
    /// everything. The pin reaches both lanes in one process, whatever
    /// dispatch or `NEXUS_CRYPTO_FORCE_PORTABLE` picked.
    #[test]
    fn sha_ni_lane_matches_portable_at_every_length_offset_and_split() {
        const MAX: usize = 1024;
        let mut content = vec![0u8; MAX];
        SeededRandom::new(0x0005_a256_d1ff).fill(&mut content);
        let mut arena = vec![0u8; MAX + 32];
        let aligned = arena.as_ptr().align_offset(16);
        let mut expect: Vec<[u8; 32]> = Vec::new();
        let mut compared = 0usize;
        on_each_sha_lane(|lane| {
            if lane == ShaLane::Portable {
                expect = (0..=MAX).map(|len| Sha256::digest(&content[..len])).collect();
                return;
            }
            for offset in 0..16 {
                let at = aligned + offset;
                arena[at..at + MAX].copy_from_slice(&content);
                for (len, expect) in expect.iter().enumerate() {
                    let msg = &arena[at..at + len];
                    let mut splits = vec![0, 1, 55, 56, 63, 64, 65, 119, 127, 128, 129];
                    splits.extend([len / 2, len.saturating_sub(1), len]);
                    splits.retain(|&split| split <= len);
                    splits.sort_unstable();
                    splits.dedup();
                    for split in splits {
                        let mut h = Sha256::new();
                        h.update(&msg[..split]).update(&msg[split..]);
                        assert!(
                            h.finalize() == *expect,
                            "{lane:?} diverged: {len} bytes at offset {offset}, split at {split}"
                        );
                        compared += 1;
                    }
                }
            }
        });
        if crate::cpu::sha_ni_available() {
            assert!(compared > 16 * MAX * 10, "only {compared} comparisons: has the matrix shrunk?");
        }
    }

    /// Incremental hashing over seeded random piece sequences — with the
    /// pieces that stress the buffer (empty, one byte, one short of a block,
    /// a block, one over) dealt in often — equals one-shot, on both lanes.
    #[test]
    fn sha256_incremental_matches_oneshot() {
        const EDGE_PIECES: [usize; 6] = [0, 1, 63, 64, 65, 127];
        let mut rng = SeededRandom::new(0x5eed_5917);
        let mut data = vec![0u8; 5000];
        rng.fill(&mut data);
        on_each_sha_lane(|lane| {
            let expect = Sha256::digest(&data);
            for round in 0..200 {
                let mut h = Sha256::new();
                let mut rest = &data[..];
                let mut pieces = Vec::new();
                while !rest.is_empty() {
                    let pick = u16::from_le_bytes(rng.bytes()) as usize;
                    let want = if pick.is_multiple_of(2) { EDGE_PIECES[pick / 2 % 6] } else { pick % 700 };
                    let (piece, after) = rest.split_at(want.min(rest.len()));
                    h.update(piece);
                    pieces.push(piece.len());
                    rest = after;
                }
                assert_eq!(h.finalize(), expect, "{lane:?}, round {round}, pieces {pieces:?}");
            }
        });
    }

    #[test]
    fn sha512_abc() {
        assert_eq!(
            hex(&Sha512::digest(b"abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
             2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
        );
    }

    #[test]
    fn sha512_empty() {
        assert_eq!(
            hex(&Sha512::digest(b"")),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce\
             47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
        );
    }

    #[test]
    fn sha512_two_blocks() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            hex(&Sha512::digest(msg)),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018\
             501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909"
        );
    }

    /// SHA-512's padding edges: 111/112 (the 16-byte length field stops
    /// fitting), 127/128 (a full buffer), 239/240 (one block on). Answers
    /// from the byte-at-a-time padding this file used to have.
    #[test]
    fn sha512_padding_edges_match_the_pre_change_digests() {
        const KNOWN: [(usize, &str); 6] = [
            (
                111,
                "671f5b1bed8fc2900bb16625c998f408f0dc1b7d7df529d4348affc99e82c2ab\
                 f30279ce956322879a3ede6285103c273728d6e8b1d9b9ee2f9f95c4c35f78b6",
            ),
            (
                112,
                "b02ff16b6954a86eb471ca5c38051b6ec1ce79fc9d4a868ed89f8ebe4b60ee95\
                 80548b161072f293c2ed40647e51fbbd776837fcc7803dc80c4f1d9555a42527",
            ),
            (
                127,
                "2aa2560f85976081d861dcc61cbcdcd448291fb1199bba213699c5341dee924a\
                 c34047573007230f0d708a4bfc00fb266545858c2d4b4bf522b68194f42034c7",
            ),
            (
                128,
                "6c3284cc48ed82566b8c5f990c86642a169daaebf0d357d198f6e05594bb6d30\
                 289ac768384d84cc882da0fbe8d8c809227c44fcea78ea21c059a6c4b5d830cc",
            ),
            (
                239,
                "0aa438395428af8e13f337621e8ed18849285d9b9fd2d27d3ef0a81b32c7ade3\
                 424515a3b0c74e42404edd58fd7dcf3446526bdd53175fdeffebaf45d266cc5d",
            ),
            (
                240,
                "3fbd0dc6943891444817feefa93c914cf21cac6b02a1000f658ae02d1ee2b5f6\
                 04db79f63d293f5a88af3ef0d8fd89a7beee53d9e976d90c677ff841b99ca97e",
            ),
        ];
        for (len, expect) in KNOWN {
            assert_eq!(hex(&Sha512::digest(&pattern(len))), expect, "{len} bytes");
        }
    }

    #[test]
    fn sha512_incremental_matches_oneshot() {
        let data: Vec<u8> = (0..4000u32).map(|i| (i % 253) as u8).collect();
        for split in [0usize, 1, 127, 128, 129, 255, 2000, 3999, 4000] {
            let mut h = Sha512::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize().to_vec(), Sha512::digest(&data).to_vec(), "split={split}");
        }
    }

    #[test]
    fn unhex_roundtrip() {
        let v = unhex("00ff10ab");
        assert_eq!(v, vec![0x00, 0xff, 0x10, 0xab]);
        assert_eq!(hex(&v), "00ff10ab");
    }
}
