//! Property-based tests for the cryptographic substrate: roundtrips,
//! tamper-rejection, and algebraic identities over arbitrary inputs.
//! Runs on the in-repo `nexus-testkit` harness (hermetic build policy).

use nexus_crypto::ed25519::SigningKey;
use nexus_crypto::gcm::AesGcm;
use nexus_crypto::gcm_siv::AesGcmSiv;
use nexus_crypto::hmac::{hkdf, hmac_sha256};
use nexus_crypto::sha2::{Sha256, Sha512};
use nexus_crypto::x25519;
use nexus_crypto::CryptoBackend;
use nexus_testkit::{shrink, spec, tk_assert, tk_assert_eq, tk_assert_ne, Runner};

const CASES: u32 = 64;

#[test]
fn gcm_roundtrips_any_input() {
    Runner::new("gcm_roundtrips_any_input").cases(CASES).run(
        |g| (g.bytes::<32>(), g.bytes::<12>(), g.byte_vec(0, 128), g.byte_vec(0, 2048)),
        |(key, nonce, aad, pt)| {
            shrink::bytes(pt).into_iter().map(|pt| (*key, *nonce, aad.clone(), pt)).collect()
        },
        |(key, nonce, aad, plaintext)| {
            let gcm = AesGcm::new_256(key);
            let sealed = gcm.seal(nonce, aad, plaintext);
            tk_assert_eq!(gcm.open(nonce, aad, &sealed).unwrap(), *plaintext);
            Ok(())
        },
    );
}

#[test]
fn gcm_rejects_any_single_bitflip() {
    Runner::new("gcm_rejects_any_single_bitflip").cases(CASES).run(
        |g| {
            let pt = g.byte_vec(1, 256);
            let flip_byte = g.u64();
            let flip_bit = g.u8() % 8;
            (g.bytes::<32>(), g.bytes::<12>(), pt, flip_byte, flip_bit)
        },
        shrink::none,
        |(key, nonce, plaintext, flip_byte, flip_bit)| {
            let gcm = AesGcm::new_256(key);
            let mut sealed = gcm.seal(nonce, b"aad", plaintext);
            let idx = (*flip_byte % sealed.len() as u64) as usize;
            sealed[idx] ^= 1 << flip_bit;
            tk_assert!(gcm.open(nonce, b"aad", &sealed).is_err());
            Ok(())
        },
    );
}

#[test]
fn gcm_siv_roundtrips_and_is_deterministic() {
    Runner::new("gcm_siv_roundtrips_and_is_deterministic").cases(CASES).run(
        |g| (g.bytes::<32>(), g.bytes::<12>(), g.byte_vec(0, 512)),
        shrink::none,
        |(key, nonce, plaintext)| {
            let siv = AesGcmSiv::new_256(key);
            let a = siv.seal(nonce, b"ctx", plaintext);
            let b = siv.seal(nonce, b"ctx", plaintext);
            tk_assert_eq!(&a, &b, "SIV is deterministic");
            tk_assert_eq!(siv.open(nonce, b"ctx", &a).unwrap(), *plaintext);
            Ok(())
        },
    );
}

/// Pieces that stress the block buffer — empty, one byte, one short of a
/// block, a block, one over — dealt in beside arbitrary split points.
#[test]
fn sha256_incremental_equals_oneshot() {
    const EDGE_PIECES: [usize; 5] = [0, 1, 63, 64, 65];
    Runner::new("sha256_incremental_equals_oneshot").cases(CASES).run(
        |g| {
            let data = g.byte_vec(0, 4096);
            let pieces = g.vec(0, 24, |g| match g.u8() % 2 {
                0 => EDGE_PIECES[g.index(EDGE_PIECES.len())],
                _ => g.index(data.len() + 1),
            });
            (data, pieces)
        },
        shrink::none,
        |(data, pieces)| {
            let mut h = Sha256::new();
            let mut rest = &data[..];
            for piece in pieces {
                let (head, tail) = rest.split_at((*piece).min(rest.len()));
                h.update(head);
                rest = tail;
            }
            h.update(rest);
            tk_assert_eq!(h.finalize(), Sha256::digest(data));
            Ok(())
        },
    );
}

/// The byte pattern the pinned digests below were computed over.
fn sha_pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 131 + 89) as u8) ^ ((i >> 8) as u8)).collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Whatever lane dispatch picked (the SHA-NI kernel where the CPU has it;
/// the portable engine under `NEXUS_CRYPTO_FORCE_PORTABLE=1`, which
/// `scripts/verify.sh` reruns this suite with) emits the digests the scalar
/// engine with byte-at-a-time padding emitted before either existed: every
/// length 0..=300, a full bucket blob, and a megabyte either side of a block
/// boundary, folded into one pinned digest; SHA-512 over 0..=300 likewise.
#[test]
fn sha2_digests_at_every_length_are_the_pre_change_digests() {
    let data = sha_pattern((1 << 20) + 1);
    let mut lens: Vec<usize> = (0..=300).collect();
    lens.extend([3400, (1 << 20) - 1, 1 << 20, (1 << 20) + 1]);
    let mut fold = Sha256::new();
    for &len in &lens {
        fold.update(&Sha256::digest(&data[..len]));
    }
    assert_eq!(
        hex(&fold.finalize()),
        "4c4ce8f4fa41ecd7cb3de5e75842a348e01967b9b9b2d6508a660f8997d3c256",
        "a SHA-256 digest changed on lane {:?}",
        nexus_crypto::cpu::sha_lane()
    );
    let mut fold = Sha512::new();
    for len in 0..=300 {
        fold.update(&Sha512::digest(&data[..len]));
    }
    assert_eq!(
        hex(&fold.finalize()),
        "467303f85837e6f8621c7c78a7606a264b9e3945544741f22d2d3df42b90554b\
         db53c0d05a0b769a306d4cc2e1e4c4e89f75a6fdfbfd322f9f0391bb216f3440",
        "a SHA-512 digest changed"
    );
}

#[test]
fn sha512_incremental_equals_oneshot() {
    Runner::new("sha512_incremental_equals_oneshot").cases(CASES).run(
        |g| {
            let data = g.byte_vec(0, 4096);
            let split = g.index(data.len() + 1);
            (data, split)
        },
        shrink::none,
        |(data, split)| {
            let mut h = Sha512::new();
            h.update(&data[..*split]);
            h.update(&data[*split..]);
            tk_assert_eq!(h.finalize().to_vec(), Sha512::digest(data).to_vec());
            Ok(())
        },
    );
}

#[test]
fn x25519_diffie_hellman_commutes() {
    Runner::new("x25519_diffie_hellman_commutes").cases(CASES).run(
        |g| (g.bytes::<32>(), g.bytes::<32>()),
        shrink::none,
        |(a, b)| {
            let pub_a = x25519::x25519_public_key(a);
            let pub_b = x25519::x25519_public_key(b);
            tk_assert_eq!(x25519::x25519(a, &pub_b), x25519::x25519(b, &pub_a));
            Ok(())
        },
    );
}

#[test]
fn ed25519_signs_and_verifies_any_message() {
    Runner::new("ed25519_signs_and_verifies_any_message").cases(CASES).run(
        |g| (g.bytes::<32>(), g.byte_vec(0, 512)),
        |(seed, msg)| shrink::bytes(msg).into_iter().map(|m| (*seed, m)).collect(),
        |(seed, msg)| {
            let key = SigningKey::from_seed(seed);
            let sig = key.sign(msg);
            tk_assert!(key.verifying_key().verify(msg, &sig).is_ok());
            // Any other message fails (unless identical).
            let mut other = msg.clone();
            other.push(0);
            tk_assert!(key.verifying_key().verify(&other, &sig).is_err());
            Ok(())
        },
    );
}

#[test]
fn ed25519_signature_tamper_rejected() {
    Runner::new("ed25519_signature_tamper_rejected").cases(CASES).run(
        |g| (g.bytes::<32>(), g.byte_vec(0, 64), g.u64(), g.u8() % 8),
        shrink::none,
        |(seed, msg, flip_byte, flip_bit)| {
            let key = SigningKey::from_seed(seed);
            let mut sig = key.sign(msg).to_bytes();
            let idx = (*flip_byte % sig.len() as u64) as usize;
            sig[idx] ^= 1 << flip_bit;
            let sig = nexus_crypto::ed25519::Signature::from_bytes(&sig).unwrap();
            tk_assert!(key.verifying_key().verify(msg, &sig).is_err());
            Ok(())
        },
    );
}

#[test]
fn hmac_is_deterministic_and_key_sensitive() {
    Runner::new("hmac_is_deterministic_and_key_sensitive").cases(CASES).run(
        |g| (g.byte_vec(0, 96), g.byte_vec(0, 256)),
        shrink::none,
        |(key, msg)| {
            let a = hmac_sha256(key, msg);
            let b = hmac_sha256(key, msg);
            tk_assert_eq!(a, b);
            let mut other_key = key.clone();
            other_key.push(1);
            tk_assert_ne!(hmac_sha256(&other_key, msg), a);
            Ok(())
        },
    );
}

#[test]
fn hkdf_output_lengths_are_exact() {
    Runner::new("hkdf_output_lengths_are_exact").cases(CASES).run(
        |g| (g.byte_vec(1, 64), g.usize_in(1, 199)),
        shrink::none,
        |(ikm, len)| {
            let okm = hkdf(b"salt", ikm, b"info", *len);
            tk_assert_eq!(okm.len(), *len);
            // Prefix property: shorter outputs are prefixes of longer ones.
            let longer = hkdf(b"salt", ikm, b"info", len + 13);
            tk_assert_eq!(&longer[..*len], &okm[..]);
            Ok(())
        },
    );
}

/// Every engine available on this machine: the portable bitsliced lane,
/// and — where CPUID allows — the AES-NI + PCLMULQDQ lane.
fn all_backends() -> Vec<CryptoBackend> {
    let mut v = vec![CryptoBackend::Bitsliced];
    if nexus_crypto::cpu::hw_accel_available() {
        v.push(CryptoBackend::HwAccel);
    }
    v
}

#[test]
fn all_crypto_lanes_are_byte_identical() {
    // Every implementation engine (bitsliced, intrinsics) must be
    // byte-identical to the spec reference for every key/nonce/AAD/length,
    // including lengths straddling the 8-block (128-byte) batch boundary,
    // and each lane must open what every other lane sealed (cross-lane
    // seal/open regression).
    const BOUNDARY_LENS: [usize; 10] = [0, 1, 15, 16, 17, 112, 127, 128, 129, 257];
    Runner::new("all_crypto_lanes_are_byte_identical").cases(CASES).run(
        |g| {
            let pt = if g.u8() % 2 == 0 {
                let len = BOUNDARY_LENS[(g.u64() % BOUNDARY_LENS.len() as u64) as usize];
                g.byte_vec(len, len)
            } else {
                g.byte_vec(0, 600)
            };
            (g.bytes::<32>(), g.bytes::<12>(), g.byte_vec(0, 64), pt)
        },
        |(key, nonce, aad, pt)| {
            shrink::bytes(pt).into_iter().map(|pt| (*key, *nonce, aad.clone(), pt)).collect()
        },
        |(key, nonce, aad, pt)| {
            let (ct, tag) = spec::gcm_seal(key, nonce, aad, pt);
            let reference = [ct, tag.to_vec()].concat();
            let gcms: Vec<AesGcm> =
                all_backends().into_iter().map(|b| AesGcm::with_backend(key, b)).collect();
            let sealed: Vec<Vec<u8>> = gcms.iter().map(|g| g.seal(nonce, aad, pt)).collect();
            for (g, s) in gcms.iter().zip(sealed.iter()) {
                tk_assert_eq!(s, &reference, "GCM lane diverged ({:?})", g.backend());
                // Cross-lane: every lane opens what every other lane sealed.
                for other in &sealed {
                    tk_assert_eq!(g.open(nonce, aad, other).unwrap(), *pt);
                }
            }
            // What dispatch picks seals as the reference does.
            tk_assert_eq!(AesGcm::new(key).seal(nonce, aad, pt), reference);

            let (ct, tag) = spec::gcm_siv_seal(key, nonce, aad, pt);
            let reference = [ct, tag.to_vec()].concat();
            let sivs: Vec<AesGcmSiv> =
                all_backends().into_iter().map(|b| AesGcmSiv::with_backend(key, b)).collect();
            let sealed: Vec<Vec<u8>> = sivs.iter().map(|s| s.seal(nonce, aad, pt)).collect();
            for (siv, s) in sivs.iter().zip(sealed.iter()) {
                tk_assert_eq!(s, &reference, "SIV lane diverged ({:?})", siv.backend());
                for other in &sealed {
                    tk_assert_eq!(siv.open(nonce, aad, other).unwrap(), *pt);
                }
            }
            tk_assert_eq!(AesGcmSiv::new(key).seal(nonce, aad, pt), reference);
            Ok(())
        },
    );
}

/// The in-place calls against SP 800-38D one block at a time
/// (`spec::gcm_seal`: no fused kernel, no 8-block CTR batch, no batched
/// GHASH, no code shared with `nexus-crypto`), on every engine this host
/// has. The
/// lengths cross every boundary the bulk path has: each residue of the
/// 128-byte group and the 16-byte block up to two groups and a bit, the
/// portable GHASH batching threshold (8 KiB ± 1), a mid-sized ragged body
/// and a whole file chunk; the AAD lengths are empty, sub-block, one block
/// and ragged.
#[test]
fn into_calls_equal_the_scalar_reference_on_every_lane() {
    let mut lens: Vec<usize> = (0..=300).collect();
    lens.extend([8 * 1024 - 1, 8 * 1024, 8 * 1024 + 1, 64 * 1024 + 77, 1024 * 1024]);
    let aad_src: Vec<u8> = (0..29u8).map(|i| i.wrapping_mul(37) ^ 0x5c).collect();
    let mut g = nexus_testkit::Gen::new(0x1a70);
    let mut src = vec![0u8; *lens.last().unwrap()];
    for chunk in src.chunks_mut(8) {
        chunk.copy_from_slice(&g.u64().to_le_bytes()[..chunk.len()]);
    }
    for key in [g.bytes::<32>()[..16].to_vec(), g.bytes::<32>().to_vec()] {
        let lanes: Vec<AesGcm> =
            all_backends().into_iter().map(|b| AesGcm::with_backend(&key, b)).collect();
        for &len in &lens {
            let pt = &src[..len];
            // The megabyte runs once per lane; everything else at all four.
            let aad_lens: &[usize] = if len > 64 * 1024 + 77 { &[29] } else { &[0, 1, 16, 29] };
            for &aad_len in aad_lens {
                let aad = &aad_src[..aad_len];
                let nonce = g.bytes::<12>();
                let (ct, tag) = spec::gcm_seal(&key, &nonce, aad, pt);
                for gcm in &lanes {
                    let lane = gcm.backend();
                    let what = format!("{lane:?}, key {}, len {len}, aad {aad_len}", key.len());
                    let mut sealed = vec![0xa5u8; len + 16];
                    gcm.seal_into(&nonce, aad, pt, &mut sealed);
                    assert!(sealed[..len] == ct[..], "ciphertext diverged: {what}");
                    assert_eq!(sealed[len..], tag, "tag diverged: {what}");
                    assert!(gcm.seal(&nonce, aad, pt) == sealed, "seal wrapper diverged: {what}");

                    let mut opened = vec![0xa5u8; len];
                    gcm.open_into(&nonce, aad, &sealed, &mut opened).expect("authentic");
                    assert!(opened == pt, "plaintext diverged: {what}");
                }
            }
        }
    }
}

/// `open_into` decrypts while it authenticates, so a forgery has been
/// decrypted by the time it is recognised: whatever byte is flipped — body,
/// tag, or a byte of the AAD — the call fails and hands back zeros only.
#[test]
fn open_into_leaves_nothing_behind_a_flipped_byte() {
    Runner::new("open_into_leaves_nothing_behind_a_flipped_byte").cases(CASES).run(
        |g| {
            // Straddle the fused kernel's 128-byte group: tail only, one
            // group exactly, groups plus a tail.
            let len = match g.u8() % 3 {
                0 => g.usize_in(1, 127),
                1 => 128 * g.usize_in(1, 4),
                _ => g.usize_in(129, 3000),
            };
            (g.bytes::<16>(), g.bytes::<12>(), g.byte_vec(0, 40), g.byte_vec(len, len), g.u64(), g.u8() % 8)
        },
        shrink::none,
        |(key, nonce, aad, pt, flip_byte, flip_bit)| {
            for backend in all_backends() {
                let gcm = AesGcm::with_backend(key, backend);
                let mut sealed = vec![0u8; pt.len() + 16];
                gcm.seal_into(nonce, aad, pt, &mut sealed);
                let mut aad = aad.clone();
                let idx = (*flip_byte % (sealed.len() + aad.len()) as u64) as usize;
                match idx.checked_sub(sealed.len()) {
                    None => sealed[idx] ^= 1 << flip_bit,
                    Some(in_aad) => aad[in_aad] ^= 1 << flip_bit,
                }
                let mut out = vec![0xa5u8; pt.len()];
                tk_assert!(gcm.open_into(nonce, &aad, &sealed, &mut out).is_err(), "{backend:?}");
                tk_assert!(out.iter().all(|&b| b == 0), "{backend:?} left bytes in `out`");
                tk_assert!(gcm.open(nonce, &aad, &sealed).is_err(), "{backend:?}");
            }
            Ok(())
        },
    );
}
