//! Bitsliced constant-time AES.
//!
//! A textbook AES encrypts through T-tables and S-box lookups indexed by
//! key- and plaintext-derived bytes; which cache lines those loads touch
//! is a function of the secret state, the classic AES cache-timing
//! channel. Inside an SGX-style enclave the adversary *is*
//! the co-resident OS (paper §III), which can prime/probe caches at will,
//! so production keys must never index memory by a secret.
//!
//! This module bitslices instead: the 128 bytes of eight AES states are
//! transposed into eight `u128` bit planes (plane `b`, bit `L` = bit `b`
//! of byte lane `L`), and every round transformation becomes a fixed
//! sequence of XOR/AND/shift operations on whole planes:
//!
//! - **SubBytes** is computed algebraically — GF(2^8) inversion as the
//!   power `x^254` (squarings are linear bit maps; multiplications are
//!   AND/XOR convolutions) followed by the affine map — with no table in
//!   sight;
//! - **ShiftRows** permutes 16-bit block groups with masked lane
//!   rotations;
//! - **MixColumns** rotates 4-bit column groups and applies `xtime` as a
//!   plane permutation plus conditional XOR of the top plane.
//!
//! Every operation touches the same memory locations in the same order
//! for any key and plaintext. The price is arithmetic: all 256 S-box
//! values are effectively computed and discarded per lookup; the
//! `micro_ct` bench (BENCH_ct.json) tracks the cost.
//!
//! The scalar [`sbox_ct`] used by the hardened key schedule follows the
//! same inversion route one byte at a time with branchless masking.

/// All-ones plane, used to XOR the constant bits of the affine maps.
const ONES: u128 = u128::MAX;

/// Replicates a 16-bit block-group mask across the eight blocks.
#[inline(always)]
const fn rep16(m: u16) -> u128 {
    (m as u128) * 0x0001_0001_0001_0001_0001_0001_0001_0001
}

/// Replicates a 4-bit column-group mask across all 32 columns.
#[inline(always)]
const fn rep4(m: u8) -> u128 {
    (m as u128) * 0x1111_1111_1111_1111_1111_1111_1111_1111
}

/// Rotates every 16-bit block group right by `n` (1..=15).
#[inline(always)]
fn rotr16(x: u128, n: u32) -> u128 {
    ((x >> n) & rep16((0xffffu32 >> n) as u16))
        | ((x << (16 - n)) & rep16(((0xffffu32 << (16 - n)) & 0xffff) as u16))
}

/// Rotates every 4-bit column group right by `n` (1..=3).
#[inline(always)]
fn rotr4(x: u128, n: u32) -> u128 {
    ((x >> n) & rep4((0xfu32 >> n) as u8))
        | ((x << (4 - n)) & rep4(((0xfu32 << (4 - n)) & 0xf) as u8))
}

/// Transposes an 8×8 bit matrix held as a `u64` (byte `r`, bit `c` ↔ byte
/// `c`, bit `r`) with three delta swaps; self-inverse.
#[inline(always)]
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00aa_00aa_00aa_00aa;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_cccc_0000_cccc;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_f0f0_f0f0;
    x ^= t ^ (t << 28);
    x
}

/// Packs eight 16-byte blocks into bit planes: plane `b`, bit `L` = bit
/// `b` of state byte `L % 16` of block `L / 16`.
fn pack(blocks: &[[u8; 16]; 8]) -> [u128; 8] {
    let mut q = [0u128; 8];
    for g in 0..16 {
        let base = 8 * g;
        let mut w = 0u64;
        for j in 0..8 {
            let lane = base + j;
            w |= (blocks[lane >> 4][lane & 15] as u64) << (8 * j);
        }
        let t = transpose8(w);
        for (b, plane) in q.iter_mut().enumerate() {
            *plane |= (((t >> (8 * b)) & 0xff) as u128) << base;
        }
    }
    q
}

/// Inverse of [`pack`].
fn unpack(q: &[u128; 8], blocks: &mut [[u8; 16]; 8]) {
    for g in 0..16 {
        let base = 8 * g;
        let mut t = 0u64;
        for (b, plane) in q.iter().enumerate() {
            t |= (((plane >> base) & 0xff) as u64) << (8 * b);
        }
        let w = transpose8(t);
        for j in 0..8 {
            let lane = base + j;
            blocks[lane >> 4][lane & 15] = (w >> (8 * j)) as u8;
        }
    }
}

/// GF(2^8) multiplication of two bitsliced values: AND/XOR convolution to
/// a degree-14 product, folded down with `x^8 = x^4 + x^3 + x + 1`.
fn gmul(a: &[u128; 8], b: &[u128; 8]) -> [u128; 8] {
    let mut c = [0u128; 15];
    for i in 0..8 {
        for j in 0..8 {
            c[i + j] ^= a[i] & b[j];
        }
    }
    for k in (8..15).rev() {
        let t = c[k];
        c[k - 8] ^= t;
        c[k - 7] ^= t;
        c[k - 5] ^= t;
        c[k - 4] ^= t;
    }
    c[..8].try_into().expect("eight planes")
}

/// GF(2^8) squaring: a linear map on the coefficient planes.
fn gsq(a: &[u128; 8]) -> [u128; 8] {
    [
        a[0] ^ a[4] ^ a[6],
        a[4] ^ a[6] ^ a[7],
        a[1] ^ a[5],
        a[4] ^ a[5] ^ a[6] ^ a[7],
        a[2] ^ a[4] ^ a[7],
        a[5] ^ a[6],
        a[3] ^ a[5],
        a[6] ^ a[7],
    ]
}

/// GF(2^8) inversion as `x^254` (maps 0 to 0, as SubBytes requires).
fn ginv(a: &[u128; 8]) -> [u128; 8] {
    let x2 = gsq(a);
    let x3 = gmul(&x2, a);
    let x12 = gsq(&gsq(&x3));
    let x15 = gmul(&x12, &x3);
    let x240 = gsq(&gsq(&gsq(&gsq(&x15))));
    let x252 = gmul(&x240, &x12);
    gmul(&x252, &x2)
}

/// Bitsliced SubBytes: inversion, then the forward affine map
/// `b'_i = b_i ⊕ b_{i+4} ⊕ b_{i+5} ⊕ b_{i+6} ⊕ b_{i+7} ⊕ 0x63_i`.
fn sub_bytes(q: &mut [u128; 8]) {
    let inv = ginv(q);
    for (i, plane) in q.iter_mut().enumerate() {
        *plane = inv[i]
            ^ inv[(i + 4) % 8]
            ^ inv[(i + 5) % 8]
            ^ inv[(i + 6) % 8]
            ^ inv[(i + 7) % 8]
            ^ (if (0x63 >> i) & 1 == 1 { ONES } else { 0 });
    }
}

/// Bitsliced InvSubBytes: inverse affine map
/// `b_i = y_{i+2} ⊕ y_{i+5} ⊕ y_{i+7} ⊕ 0x05_i`, then inversion.
fn inv_sub_bytes(q: &mut [u128; 8]) {
    let mut t = [0u128; 8];
    for (i, plane) in t.iter_mut().enumerate() {
        *plane = q[(i + 2) % 8]
            ^ q[(i + 5) % 8]
            ^ q[(i + 7) % 8]
            ^ (if (0x05 >> i) & 1 == 1 { ONES } else { 0 });
    }
    *q = ginv(&t);
}

/// Bitsliced ShiftRows. State byte `4c + r` sits at bit `4c + r` of each
/// block group; row `r` rotates left by `r` columns, i.e. bit `p` takes
/// the value of bit `p + 4r` within its group.
fn shift_rows(q: &mut [u128; 8]) {
    for plane in q.iter_mut() {
        let p = *plane;
        *plane = (p & rep16(0x1111))
            | rotr16(p & rep16(0x1111 << 1), 4)
            | rotr16(p & rep16(0x1111 << 2), 8)
            | rotr16(p & rep16(0x1111 << 3), 12);
    }
}

/// Bitsliced InvShiftRows (rotations in the opposite direction).
fn inv_shift_rows(q: &mut [u128; 8]) {
    for plane in q.iter_mut() {
        let p = *plane;
        *plane = (p & rep16(0x1111))
            | rotr16(p & rep16(0x1111 << 1), 12)
            | rotr16(p & rep16(0x1111 << 2), 8)
            | rotr16(p & rep16(0x1111 << 3), 4);
    }
}

/// `xtime` across planes: shift the coefficient planes up one and fold
/// the top plane back through `0x1b` (planes 0, 1, 3, 4).
#[inline(always)]
fn xt(v: &[u128; 8]) -> [u128; 8] {
    [v[7], v[0] ^ v[7], v[1], v[2] ^ v[7], v[3] ^ v[7], v[4], v[5], v[6]]
}

/// Bitsliced MixColumns via `s' = xtime(s ⊕ rot1) ⊕ rot1 ⊕ rot2 ⊕ rot3`,
/// where `rotK` aligns the value `K` rows below within the column.
fn mix_columns(q: &mut [u128; 8]) {
    let mut sum = [0u128; 8]; // s ^ rot1, input to xtime
    let mut rest = [0u128; 8]; // rot1 ^ rot2 ^ rot3
    for i in 0..8 {
        let r1 = rotr4(q[i], 1);
        sum[i] = q[i] ^ r1;
        rest[i] = r1 ^ rotr4(q[i], 2) ^ rotr4(q[i], 3);
    }
    let doubled = xt(&sum);
    for i in 0..8 {
        q[i] = doubled[i] ^ rest[i];
    }
}

/// Bitsliced InvMixColumns: `0e·s ⊕ 0b·rot1 ⊕ 0d·rot2 ⊕ 09·rot3`, each
/// constant multiple assembled from `xtime` chains (x2, x4, x8).
fn inv_mix_columns(q: &mut [u128; 8]) {
    let mut acc = [0u128; 8];
    for k in 0..4u32 {
        let mut u = *q;
        if k > 0 {
            for plane in u.iter_mut() {
                *plane = rotr4(*plane, k);
            }
        }
        let x2 = xt(&u);
        let x4 = xt(&x2);
        let x8 = xt(&x4);
        for i in 0..8 {
            // Constants by rotation: 0x0e, 0x0b, 0x0d, 0x09.
            acc[i] ^= match k {
                0 => x8[i] ^ x4[i] ^ x2[i],
                1 => x8[i] ^ x2[i] ^ u[i],
                2 => x8[i] ^ x4[i] ^ u[i],
                _ => x8[i] ^ u[i],
            };
        }
    }
    *q = acc;
}

#[inline(always)]
fn xor_planes(q: &mut [u128; 8], rk: &[u128; 8]) {
    for (plane, k) in q.iter_mut().zip(rk.iter()) {
        *plane ^= k;
    }
}

/// Branchless GF(2^8) multiplication (scalar, for the key schedule).
#[inline]
fn gf_mul_ct(a: u8, b: u8) -> u8 {
    let mut acc = 0u8;
    let mut a = a;
    for i in 0..8 {
        acc ^= a & ((b >> i) & 1).wrapping_neg();
        a = (a << 1) ^ (0x1b & ((a >> 7) & 1).wrapping_neg());
    }
    acc
}

/// Constant-time scalar S-box: GF(2^8) inversion by exponentiation plus
/// the affine map, no table lookup or secret-dependent branch. Used by
/// the hardened key schedule, where the expanded key bytes themselves
/// pass through SubWord.
pub(crate) fn sbox_ct(b: u8) -> u8 {
    let x2 = gf_mul_ct(b, b);
    let x3 = gf_mul_ct(x2, b);
    let x6 = gf_mul_ct(x3, x3);
    let x12 = gf_mul_ct(x6, x6);
    let x15 = gf_mul_ct(x12, x3);
    let x30 = gf_mul_ct(x15, x15);
    let x60 = gf_mul_ct(x30, x30);
    let x120 = gf_mul_ct(x60, x60);
    let x240 = gf_mul_ct(x120, x120);
    let x252 = gf_mul_ct(x240, x12);
    let inv = gf_mul_ct(x252, x2);
    inv ^ inv.rotate_left(1) ^ inv.rotate_left(2) ^ inv.rotate_left(3) ^ inv.rotate_left(4) ^ 0x63
}

/// The bitsliced round-key schedule: one set of eight plane constants per
/// round, each a 16-bit pattern replicated across the eight blocks.
#[derive(Clone)]
pub(crate) struct AesCt {
    rk_planes: Vec<[u128; 8]>,
    rounds: usize,
}

impl AesCt {
    /// Packs expanded round keys (already derived constant-time by the
    /// caller) into plane form.
    pub(crate) fn from_round_keys(round_keys: &[[u8; 16]]) -> AesCt {
        let rk_planes = round_keys
            .iter()
            .map(|rk| {
                let mut planes = [0u128; 8];
                for (b, plane) in planes.iter_mut().enumerate() {
                    let mut m = 0u16;
                    for (i, byte) in rk.iter().enumerate() {
                        m |= (((byte >> b) & 1) as u16) << i;
                    }
                    *plane = rep16(m);
                }
                planes
            })
            .collect::<Vec<_>>();
        AesCt { rounds: rk_planes.len() - 1, rk_planes }
    }

    /// Encrypts eight blocks in place; the whole batch costs one pass of
    /// plane arithmetic, which is why single-block callers still route
    /// through here (seven idle lanes) rather than get a scalar path with
    /// different timing behaviour.
    pub(crate) fn encrypt_blocks8(&self, blocks: &mut [[u8; 16]; 8]) {
        let mut q = pack(blocks);
        xor_planes(&mut q, &self.rk_planes[0]);
        for rk in &self.rk_planes[1..self.rounds] {
            sub_bytes(&mut q);
            shift_rows(&mut q);
            mix_columns(&mut q);
            xor_planes(&mut q, rk);
        }
        sub_bytes(&mut q);
        shift_rows(&mut q);
        xor_planes(&mut q, &self.rk_planes[self.rounds]);
        unpack(&q, blocks);
    }

    /// Decrypts eight blocks in place (inverse round order).
    pub(crate) fn decrypt_blocks8(&self, blocks: &mut [[u8; 16]; 8]) {
        let mut q = pack(blocks);
        xor_planes(&mut q, &self.rk_planes[self.rounds]);
        inv_shift_rows(&mut q);
        inv_sub_bytes(&mut q);
        for rk in self.rk_planes[1..self.rounds].iter().rev() {
            xor_planes(&mut q, rk);
            inv_mix_columns(&mut q);
            inv_shift_rows(&mut q);
            inv_sub_bytes(&mut q);
        }
        xor_planes(&mut q, &self.rk_planes[0]);
        unpack(&q, blocks);
    }

    /// Best-effort volatile clear of the round-key planes (called from
    /// [`crate::aes::Aes`]'s `Drop`).
    pub(crate) fn wipe(&mut self) {
        for planes in self.rk_planes.iter_mut() {
            crate::ct::zeroize_u128(planes);
        }
    }
}

impl std::fmt::Debug for AesCt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AesCt").field("rounds", &self.rounds).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_testkit::spec::{self, SBOX};

    /// Packs byte value `base + lane` into every lane, applies `f` to the
    /// planes, and returns the resulting 128 lane bytes.
    fn map_lanes(base: usize, f: impl Fn(&mut [u128; 8])) -> Vec<u8> {
        let mut blocks = [[0u8; 16]; 8];
        for lane in 0..128 {
            blocks[lane >> 4][lane & 15] = (base + lane) as u8;
        }
        let mut q = pack(&blocks);
        f(&mut q);
        unpack(&q, &mut blocks);
        (0..128).map(|lane| blocks[lane >> 4][lane & 15]).collect()
    }

    #[test]
    fn pack_unpack_roundtrip_matches_naive_reference() {
        use crate::rng::{SecureRandom, SeededRandom};
        let mut rng = SeededRandom::new(7);
        for _ in 0..20 {
            let mut blocks = [[0u8; 16]; 8];
            for b in blocks.iter_mut() {
                rng.fill(b);
            }
            let q = pack(&blocks);
            // Naive per-bit reference for the plane layout.
            for (b, plane) in q.iter().enumerate() {
                for lane in 0..128 {
                    let expect = (blocks[lane >> 4][lane & 15] >> b) & 1;
                    assert_eq!(((plane >> lane) & 1) as u8, expect, "plane {b} lane {lane}");
                }
            }
            let mut back = [[0u8; 16]; 8];
            unpack(&q, &mut back);
            assert_eq!(back, blocks);
        }
    }

    #[test]
    fn sbox_ct_matches_table_for_all_bytes() {
        for b in 0..=255u8 {
            assert_eq!(sbox_ct(b), SBOX[b as usize], "byte {b:#04x}");
        }
    }

    #[test]
    fn bitsliced_sub_bytes_matches_table_for_all_bytes() {
        for base in [0usize, 128] {
            let out = map_lanes(base, sub_bytes);
            for lane in 0..128 {
                assert_eq!(out[lane], SBOX[base + lane], "byte {}", base + lane);
            }
        }
    }

    /// The inverse S-box undoes the table's S-box on every byte.
    #[test]
    fn bitsliced_inv_sub_bytes_matches_table_for_all_bytes() {
        for base in [0usize, 128] {
            let out = map_lanes(base, inv_sub_bytes);
            for lane in 0..128 {
                assert_eq!(SBOX[out[lane] as usize] as usize, base + lane, "byte {}", base + lane);
            }
        }
    }

    /// ShiftRows and MixColumns on the planes match the spec's byte-level
    /// transforms, and their inverses undo them.
    #[test]
    fn bitsliced_row_column_ops_match_byte_reference() {
        use crate::rng::{SecureRandom, SeededRandom};
        let mut rng = SeededRandom::new(9);
        type PlaneOp = fn(&mut [u128; 8]);
        type ByteOp = fn(&mut [u8; 16]);
        let cases: [(PlaneOp, PlaneOp, ByteOp); 2] = [
            (shift_rows, inv_shift_rows, spec::shift_rows),
            (mix_columns, inv_mix_columns, spec::mix_columns),
        ];
        for (plane_op, inverse, byte_op) in cases {
            for _ in 0..20 {
                let mut blocks = [[0u8; 16]; 8];
                for b in blocks.iter_mut() {
                    rng.fill(b);
                }
                let mut expect = blocks;
                for b in expect.iter_mut() {
                    byte_op(b);
                }
                let mut q = pack(&blocks);
                plane_op(&mut q);
                let mut got = [[0u8; 16]; 8];
                unpack(&q, &mut got);
                assert_eq!(got, expect);
                inverse(&mut q);
                unpack(&q, &mut got);
                assert_eq!(got, blocks);
            }
        }
    }

    #[test]
    fn gmul_gsq_agree_with_scalar_field() {
        // Exhaustive over a × b by packing 128 lanes per pass: squaring
        // and multiplication of every byte pair must match gf_mul_ct.
        for a in 0..=255u8 {
            let mut blocks = [[0u8; 16]; 8];
            for lane in 0..128 {
                blocks[lane >> 4][lane & 15] = a;
            }
            let qa = pack(&blocks);
            assert_eq!(
                {
                    let mut out = [[0u8; 16]; 8];
                    unpack(&gsq(&qa), &mut out);
                    out[0][0]
                },
                gf_mul_ct(a, a),
                "square of {a:#04x}"
            );
            for base in [0usize, 128] {
                let mut bb = [[0u8; 16]; 8];
                for lane in 0..128 {
                    bb[lane >> 4][lane & 15] = (base + lane) as u8;
                }
                let qb = pack(&bb);
                let mut out = [[0u8; 16]; 8];
                unpack(&gmul(&qa, &qb), &mut out);
                for lane in 0..128 {
                    let b = (base + lane) as u8;
                    assert_eq!(
                        out[lane >> 4][lane & 15],
                        gf_mul_ct(a, b),
                        "{a:#04x} * {b:#04x}"
                    );
                }
            }
        }
    }
}
