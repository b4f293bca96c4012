//! Differential test of the AES-GCM bulk path against the one-block-at-a-time
//! reference, at the lengths and buffer alignments where a kernel hand-over
//! can go wrong.
//!
//! `seal_into`/`open_into` split a body three ways on the hardware lane —
//! whole 256-byte groups to the VAES + VPCLMULQDQ kernel (bodies of 768 bytes
//! and up, where `cpu` allows it), the whole 128-byte group left to the
//! AES-NI + PCLMULQDQ kernel, the rest to scalar code — and every length the
//! adversary picks lands somewhere in that chain. The kernels read and write
//! through raw pointers, so the matrix also moves source and destination
//! through all sixteen offsets of a 16-byte line: independently (all 256
//! pairs) at every length up to 1024, and through sixteen pairs per length —
//! each source offset and each destination offset once, paired differently
//! from one length to the next — around the multiples of 256 above that,
//! where the bytes are forty times as many and nothing but the group count
//! changes.
//!
//! The reference is `nexus_testkit::spec::gcm_seal`: FIPS 197 by S-box
//! lookup, SP 800-38D one block at a time, sharing no code — not even the key
//! schedule — with any kernel, with the bitsliced engine, or with
//! `nexus-crypto` at all.
//!
//! Which engines run: the one `AesGcm::new` dispatches to, always. Under
//! `NEXUS_CRYPTO_FORCE_PORTABLE=1` (as `scripts/verify.sh` reruns this file)
//! that is the bitsliced engine, and the hardware engine is pinned beside it
//! where the CPU has it — with the override on, `cpu::wide_lane` is off, so
//! that run drives the 128-bit kernel over every whole group of every body:
//! the coverage it would otherwise lose on a machine whose long bodies all go
//! wide. The bitsliced engine has no alignment-sensitive code (it copies,
//! then works in place) and runs ~40× slower unoptimised, so it gets every
//! length at one rotating pair of offsets instead of all 256.
//!
//! Counters either side of the 2³² wrap cannot be reached through this API
//! (a 96-bit nonce starts the counter at 1); the in-crate tests
//! `gcm_vaes::tests::wide_and_narrow_groups_match_block_at_a_time_ctr_and_ghash`
//! and `gcm_ni::tests::groups_match_block_at_a_time_ctr_and_ghash` drive both
//! kernels directly from start counters on both sides of it.

use nexus_crypto::gcm::{AesGcm, TAG_LEN};
use nexus_crypto::CryptoBackend;
use nexus_testkit::spec;

const NONCE: [u8; 12] = [0xa1, 0xb2, 0xc3, 0xd4, 0xe5, 0xf6, 0x07, 0x18, 0x29, 0x3a, 0x4b, 0x5c];
const AAD_37: &[u8; 37] = b"thirty-seven bytes of associated data";
const MAX_LEN: usize = 8 * 1024 + 17;

/// An engine under test and how much of the offset matrix it gets.
struct Lane {
    backend: CryptoBackend,
    every_offset_pair: bool,
}

fn lanes() -> Vec<Lane> {
    let dispatched = AesGcm::new(&[0u8; 16]).backend();
    let mut lanes =
        vec![Lane { backend: dispatched, every_offset_pair: dispatched == CryptoBackend::HwAccel }];
    if dispatched != CryptoBackend::HwAccel && nexus_crypto::cpu::hw_accel_available() {
        lanes.push(Lane { backend: CryptoBackend::HwAccel, every_offset_pair: true });
    }
    lanes
}

/// Every length 0..=1024, then every length within ±17 of each multiple of
/// 256 up to 8 KiB.
fn lengths() -> Vec<usize> {
    let mut lens: Vec<usize> = (0..=1024).collect();
    for multiple in (1280..=8192).step_by(256) {
        lens.extend(multiple - 17..=multiple + 17);
    }
    lens
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u32).wrapping_mul(2_654_435_761).to_le_bytes()[3] ^ salt).collect()
}

/// A buffer whose byte `start + k` sits `k` past a 64-byte boundary, so the
/// caller picks a misalignment by picking `k`.
struct Arena {
    bytes: Vec<u8>,
    start: usize,
}

impl Arena {
    fn new(capacity: usize) -> Arena {
        let bytes = vec![0u8; capacity + 64 + 16];
        let start = bytes.as_ptr().align_offset(64);
        Arena { bytes, start }
    }

    fn at(&mut self, misalign: usize, len: usize) -> &mut [u8] {
        let from = self.start + misalign;
        &mut self.bytes[from..from + len]
    }
}

/// One key size × one AAD over the whole length set: `seal_into` must write
/// the reference's `ciphertext ‖ tag` and `open_into` must give the
/// plaintext back, wherever source and destination start.
fn differential(key: &[u8], aad: &[u8]) {
    let plain = pattern(MAX_LEN, key.len() as u8);
    let (mut src, mut dst) = (Arena::new(MAX_LEN + TAG_LEN), Arena::new(MAX_LEN + TAG_LEN));
    let lanes: Vec<(AesGcm, Lane)> =
        lanes().into_iter().map(|lane| (AesGcm::with_backend(key, lane.backend), lane)).collect();
    for len in lengths() {
        let pt = &plain[..len];
        // One reference seal per length, whichever lanes check against it.
        let (ct, tag) = spec::gcm_seal(key, &NONCE, aad, pt);
        let sealed = [&ct[..], &tag[..]].concat();
        for (gcm, lane) in &lanes {
            let pairs: Vec<(usize, usize)> = match (lane.every_offset_pair, len <= 1024) {
                (true, true) => (0..16).flat_map(|s| (0..16).map(move |d| (s, d))).collect(),
                // Every source offset and every destination offset once per
                // length, paired differently at each length.
                (true, false) => (0..16).map(|s| (s, (5 * s + len) % 16)).collect(),
                // All 256 pairs get visited as the length goes up.
                (false, _) => vec![(len % 16, len / 16 % 16)],
            };
            for (s, d) in pairs {
                let what = || {
                    let (lane, key, aad) = (lane.backend, key.len(), aad.len());
                    format!("{lane:?}, {key}-byte key, {aad}-byte aad, len {len}, src+{s}, dst+{d}")
                };
                src.at(s, len).copy_from_slice(pt);
                let out = dst.at(d, len + TAG_LEN);
                out.fill(0xee);
                gcm.seal_into(&NONCE, aad, src.at(s, len), out);
                assert!(out == &sealed[..], "seal_into diverged: {}", what());

                src.at(s, len + TAG_LEN).copy_from_slice(&sealed);
                let out = dst.at(d, len);
                out.fill(0xee);
                let opened = gcm.open_into(&NONCE, aad, src.at(s, len + TAG_LEN), out);
                assert!(opened.is_ok(), "open_into refused the reference's bytes: {}", what());
                assert!(out == pt, "open_into diverged: {}", what());
            }
        }
    }
}

#[test]
fn aes128_empty_aad_matches_the_scalar_reference_at_every_length_and_offset() {
    differential(&[0x3c; 16], b"");
}

#[test]
fn aes128_with_aad_matches_the_scalar_reference_at_every_length_and_offset() {
    differential(&[0x3c; 16], AAD_37);
}

#[test]
fn aes256_empty_aad_matches_the_scalar_reference_at_every_length_and_offset() {
    differential(&pattern(32, 0x77), b"");
}

#[test]
fn aes256_with_aad_matches_the_scalar_reference_at_every_length_and_offset() {
    differential(&pattern(32, 0x77), AAD_37);
}

/// A body that crosses all three stages — 3 × 256 bytes for the wide kernel,
/// one 128-byte group for the narrow one, a 50-byte scalar tail — with one
/// bit flipped in each stage's region and in the tag: every one fails
/// `open_into`, and the output slot comes back zeroized, never holding the
/// plaintext the same pass had already produced.
#[test]
fn a_flipped_bit_in_any_stage_fails_open_and_leaves_the_slot_zeroized() {
    const LEN: usize = 3 * 256 + 128 + 50;
    let regions: [(&str, std::ops::Range<usize>); 4] = [
        ("wide region", 0..768),
        ("narrow remainder", 768..896),
        ("scalar tail", 896..LEN),
        ("tag", LEN..LEN + TAG_LEN),
    ];
    for key in [pattern(16, 1), pattern(32, 2)] {
        for lane in lanes() {
            let gcm = AesGcm::with_backend(&key, lane.backend);
            let pt = pattern(LEN, 0x42);
            let mut sealed = vec![0u8; LEN + TAG_LEN];
            gcm.seal_into(&NONCE, AAD_37, &pt, &mut sealed);
            let mut out = vec![0xeeu8; LEN];
            gcm.open_into(&NONCE, AAD_37, &sealed, &mut out).unwrap();
            assert_eq!(out, pt);
            for (name, region) in &regions {
                for at in [region.start, (region.start + region.end) / 2, region.end - 1] {
                    for bit in [0, 7] {
                        let mut tampered = sealed.clone();
                        tampered[at] ^= 1 << bit;
                        let mut out = vec![0xeeu8; LEN];
                        assert!(
                            gcm.open_into(&NONCE, AAD_37, &tampered, &mut out).is_err(),
                            "{:?}: bit {bit} of byte {at} ({name}) went unnoticed",
                            lane.backend
                        );
                        assert!(
                            out.iter().all(|&b| b == 0),
                            "{:?}: flip at {at} ({name}) left bytes in the slot",
                            lane.backend
                        );
                    }
                }
            }
        }
    }
}
