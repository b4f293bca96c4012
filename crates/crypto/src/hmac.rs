//! HMAC (RFC 2104) instantiated with SHA-256 and SHA-512.
//!
//! # Examples
//!
//! ```
//! use nexus_crypto::hmac::hmac_sha256;
//!
//! let tag = hmac_sha256(b"key", b"message");
//! assert_eq!(tag.len(), 32);
//! ```

use crate::sha2::{Sha256, Sha512};

/// Computes HMAC-SHA-256 over `msg` with `key`.
///
/// Keys longer than the 64-byte block size are hashed first, per RFC 2104.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; 32] {
    let mut k = [0u8; 64];
    if key.len() > 64 {
        k[..32].copy_from_slice(&Sha256::digest(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0x36u8; 64];
    let mut opad = [0x5cu8; 64];
    for i in 0..64 {
        ipad[i] ^= k[i];
        opad[i] ^= k[i];
    }
    let mut inner = Sha256::new();
    inner.update(&ipad).update(msg);
    let inner_digest = inner.finalize();
    let mut outer = Sha256::new();
    outer.update(&opad).update(&inner_digest);
    let tag = outer.finalize();
    // The padded key and both derived pads are key material; clear them
    // before the stack frames are reused.
    crate::ct::zeroize(&mut k);
    crate::ct::zeroize(&mut ipad);
    crate::ct::zeroize(&mut opad);
    tag
}

/// Computes HMAC-SHA-512 over `msg` with `key`.
pub fn hmac_sha512(key: &[u8], msg: &[u8]) -> [u8; 64] {
    let mut k = [0u8; 128];
    if key.len() > 128 {
        k[..64].copy_from_slice(&Sha512::digest(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0x36u8; 128];
    let mut opad = [0x5cu8; 128];
    for i in 0..128 {
        ipad[i] ^= k[i];
        opad[i] ^= k[i];
    }
    let mut inner = Sha512::new();
    inner.update(&ipad).update(msg);
    let inner_digest = inner.finalize();
    let mut outer = Sha512::new();
    outer.update(&opad).update(&inner_digest);
    let tag = outer.finalize();
    crate::ct::zeroize(&mut k);
    crate::ct::zeroize(&mut ipad);
    crate::ct::zeroize(&mut opad);
    tag
}

/// HKDF (RFC 5869) with SHA-256: extract step.
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> [u8; 32] {
    hmac_sha256(salt, ikm)
}

/// HKDF (RFC 5869) with SHA-256: expand step.
///
/// # Panics
///
/// Panics if `out_len > 255 * 32` as required by the RFC.
pub fn hkdf_expand(prk: &[u8; 32], info: &[u8], out_len: usize) -> Vec<u8> {
    let mut out = vec![0u8; out_len];
    hkdf_expand_into(prk, info, &mut out);
    out
}

/// [`hkdf_expand`] into `out`. Every intermediate block is volatilely
/// cleared before it returns.
///
/// # Panics
///
/// Panics if `out.len() > 255 * 32` as required by the RFC.
fn hkdf_expand_into(prk: &[u8; 32], info: &[u8], out: &mut [u8]) {
    assert!(out.len() <= 255 * 32, "HKDF output too long");
    let mut msg = Vec::with_capacity(32 + info.len() + 1);
    let mut t = [0u8; 32];
    for (i, chunk) in out.chunks_mut(32).enumerate() {
        msg.clear();
        if i > 0 {
            msg.extend_from_slice(&t);
        }
        msg.extend_from_slice(info);
        msg.push(i as u8 + 1);
        t = hmac_sha256(prk, &msg);
        chunk.copy_from_slice(&t[..chunk.len()]);
    }
    // Each T(i) is output key material, and `msg` held every one but the
    // last (`msg` never reallocated: its capacity fits the longest input).
    crate::ct::zeroize(&mut t);
    crate::ct::zeroize(&mut msg);
}

/// Convenience: full HKDF extract-then-expand.
pub fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], out_len: usize) -> Vec<u8> {
    let mut out = vec![0u8; out_len];
    hkdf_into(salt, ikm, info, &mut out);
    out
}

/// [`hkdf`] into a buffer the caller owns; the pseudorandom key and every
/// intermediate block are volatilely cleared before it returns.
pub fn hkdf_into(salt: &[u8], ikm: &[u8], info: &[u8], out: &mut [u8]) {
    let mut prk = hkdf_extract(salt, ikm);
    hkdf_expand_into(&prk, info, out);
    crate::ct::zeroize(&mut prk);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{hex, on_each_sha_lane, unhex};

    /// An RFC 4231 HMAC-SHA-256 case, on both SHA-256 engines.
    fn assert_hmac_sha256(key: &[u8], msg: &[u8], expect: &str) {
        on_each_sha_lane(|lane| assert_eq!(hex(&hmac_sha256(key, msg)), expect, "{lane:?}"));
    }

    /// An RFC 5869 HKDF case, on both SHA-256 engines.
    fn assert_hkdf(salt: &[u8], ikm: &[u8], info: &[u8], out_len: usize, expect: &str) {
        on_each_sha_lane(|lane| assert_eq!(hex(&hkdf(salt, ikm, info, out_len)), expect, "{lane:?}"));
    }

    #[test]
    fn rfc4231_case1_sha256() {
        assert_hmac_sha256(
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    #[test]
    fn rfc4231_case2_sha256() {
        assert_hmac_sha256(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    #[test]
    fn rfc4231_case3_sha256() {
        assert_hmac_sha256(
            &[0xaa; 20],
            &[0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        );
    }

    #[test]
    fn rfc4231_case6_long_key_sha256() {
        assert_hmac_sha256(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    #[test]
    fn rfc4231_case1_sha512() {
        let key = vec![0x0b; 20];
        let tag = hmac_sha512(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde\
             daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854"
        );
    }

    #[test]
    fn rfc5869_case1_hkdf() {
        let ikm = vec![0x0b; 22];
        let salt = unhex("000102030405060708090a0b0c");
        let info = unhex("f0f1f2f3f4f5f6f7f8f9");
        assert_hkdf(
            &salt,
            &ikm,
            &info,
            42,
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf\
             34007208d5b887185865",
        );
    }

    #[test]
    fn rfc5869_case2_hkdf_long() {
        let ikm = unhex(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f\
             202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f\
             404142434445464748494a4b4c4d4e4f",
        );
        let salt = unhex(
            "606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f\
             808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f\
             a0a1a2a3a4a5a6a7a8a9aaabacadaeaf",
        );
        let info = unhex(
            "b0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecf\
             d0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeef\
             f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff",
        );
        assert_hkdf(
            &salt,
            &ikm,
            &info,
            82,
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c\
             59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71\
             cc30c58179ec3e87c14c01d5c1f3434f1d87",
        );
    }

    #[test]
    fn rfc5869_case3_zero_salt() {
        let ikm = vec![0x0b; 22];
        assert_hkdf(
            &[],
            &ikm,
            &[],
            42,
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d\
             9d201395faa4b61a96c8",
        );
    }

    #[test]
    #[should_panic(expected = "HKDF output too long")]
    fn hkdf_output_cap() {
        let _ = hkdf_expand(&[0u8; 32], b"", 255 * 32 + 1);
    }
}
