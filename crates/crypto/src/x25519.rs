//! X25519 Diffie–Hellman (RFC 7748).
//!
//! NEXUS uses X25519 for the enclave-to-enclave rootkey exchange protocol
//! (paper §IV-B1): each enclave holds an ECDH keypair whose public half is
//! bound into an SGX quote, and the shared secret encrypts the rootkey.
//!
//! # Examples
//!
//! ```
//! use nexus_crypto::x25519::{x25519, X25519_BASEPOINT};
//!
//! let alice_secret = [0x11u8; 32];
//! let bob_secret = [0x22u8; 32];
//! let alice_public = x25519(&alice_secret, &X25519_BASEPOINT);
//! let bob_public = x25519(&bob_secret, &X25519_BASEPOINT);
//! assert_eq!(
//!     x25519(&alice_secret, &bob_public),
//!     x25519(&bob_secret, &alice_public),
//! );
//! ```

use crate::field25519::Fe;

/// The canonical base point (u = 9).
pub const X25519_BASEPOINT: [u8; 32] = {
    let mut b = [0u8; 32];
    b[0] = 9;
    b
};

/// Clamps a 32-byte scalar per RFC 7748 §5.
pub fn clamp_scalar(mut scalar: [u8; 32]) -> [u8; 32] {
    scalar[0] &= 248;
    scalar[31] &= 127;
    scalar[31] |= 64;
    scalar
}

/// The X25519 function: scalar multiplication on the Montgomery curve.
///
/// `scalar` is clamped internally; `u` is a little-endian u-coordinate whose
/// top bit is ignored, both per RFC 7748. The Montgomery ladder runs the
/// same field operations for every scalar: each bit only steers masked
/// swaps ([`Fe::cswap`]), and the final inversion is a fixed addition chain.
pub fn x25519(scalar: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
    let k = clamp_scalar(*scalar);
    let x1 = Fe::from_bytes(u);
    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let a24 = Fe::from_u64(121665);
    let mut swap = 0u64;

    for t in (0..255).rev() {
        let k_t = ((k[t / 8] >> (t % 8)) & 1) as u64;
        swap ^= k_t;
        Fe::cswap(swap, &mut x2, &mut x3);
        Fe::cswap(swap, &mut z2, &mut z3);
        swap = k_t;

        let a = x2.add(&z2);
        let aa = a.square();
        let b = x2.sub(&z2);
        let bb = b.square();
        let e = aa.sub(&bb);
        let c = x3.add(&z3);
        let d = x3.sub(&z3);
        let da = d.mul(&a);
        let cb = c.mul(&b);
        x3 = da.add(&cb).square();
        z3 = x1.mul(&da.sub(&cb).square());
        x2 = aa.mul(&bb);
        z2 = e.mul(&aa.add(&a24.mul(&e)));
    }
    Fe::cswap(swap, &mut x2, &mut x3);
    Fe::cswap(swap, &mut z2, &mut z3);

    x2.mul(&z2.invert()).to_bytes()
}

/// Derives the public key for a (clamped) private scalar.
pub fn x25519_public_key(secret: &[u8; 32]) -> [u8; 32] {
    x25519(secret, &X25519_BASEPOINT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field25519::op_count;
    use crate::field25519::tests::invert_by_pow;
    use crate::test_util::{hex, unhex};
    use nexus_testkit::Gen;

    /// The ladder as it was before the masked swap: `if swap` exchanges the
    /// pairs and square-and-multiply inverts. The oracle for the
    /// differential test.
    fn x25519_oracle(scalar: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
        let k = clamp_scalar(*scalar);
        let x1 = Fe::from_bytes(u);
        let (mut x2, mut z2, mut x3, mut z3) = (Fe::ONE, Fe::ZERO, x1, Fe::ONE);
        let a24 = Fe::from_u64(121665);
        let mut swap = false;
        for t in (0..255).rev() {
            let k_t = (k[t / 8] >> (t % 8)) & 1 == 1;
            swap ^= k_t;
            if swap {
                std::mem::swap(&mut x2, &mut x3);
                std::mem::swap(&mut z2, &mut z3);
            }
            swap = k_t;
            let a = x2.add(&z2);
            let aa = a.square();
            let b = x2.sub(&z2);
            let bb = b.square();
            let e = aa.sub(&bb);
            let c = x3.add(&z3);
            let d = x3.sub(&z3);
            let da = d.mul(&a);
            let cb = c.mul(&b);
            x3 = da.add(&cb).square();
            z3 = x1.mul(&da.sub(&cb).square());
            x2 = aa.mul(&bb);
            z2 = e.mul(&aa.add(&a24.mul(&e)));
        }
        if swap {
            std::mem::swap(&mut x2, &mut x3);
            std::mem::swap(&mut z2, &mut z3);
        }
        x2.mul(&invert_by_pow(&z2)).to_bytes()
    }

    #[test]
    fn matches_the_oracle_on_random_scalars_and_points() {
        let mut g = Gen::new(0x0072_5519);
        for _ in 0..1000 {
            let scalar = g.bytes::<32>();
            let u = g.bytes::<32>();
            assert_eq!(x25519(&scalar, &u), x25519_oracle(&scalar, &u));
            assert_eq!(x25519_public_key(&scalar), x25519_oracle(&scalar, &X25519_BASEPOINT));
        }
    }

    #[test]
    fn field_op_count_is_independent_of_the_scalar() {
        let sparse = [0u8; 32];
        let dense = [0xffu8; 32];
        let u = x25519_public_key(&[0x24; 32]);
        let (_, sparse_ops) = op_count::of(|| x25519(&sparse, &u));
        let (_, dense_ops) = op_count::of(|| x25519(&dense, &u));
        assert_eq!(sparse_ops, dense_ops);
    }

    #[test]
    fn rfc7748_vector_1() {
        let scalar: [u8; 32] =
            unhex("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4")
                .try_into()
                .unwrap();
        let u: [u8; 32] =
            unhex("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c")
                .try_into()
                .unwrap();
        assert_eq!(
            hex(&x25519(&scalar, &u)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
    }

    #[test]
    fn rfc7748_vector_2() {
        let scalar: [u8; 32] =
            unhex("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d")
                .try_into()
                .unwrap();
        let u: [u8; 32] =
            unhex("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493")
                .try_into()
                .unwrap();
        assert_eq!(
            hex(&x25519(&scalar, &u)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
        );
    }

    #[test]
    fn rfc7748_diffie_hellman() {
        let alice_priv: [u8; 32] =
            unhex("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a")
                .try_into()
                .unwrap();
        let bob_priv: [u8; 32] =
            unhex("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb")
                .try_into()
                .unwrap();
        let alice_pub = x25519_public_key(&alice_priv);
        let bob_pub = x25519_public_key(&bob_priv);
        assert_eq!(
            hex(&alice_pub),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
        assert_eq!(
            hex(&bob_pub),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        );
        let shared_a = x25519(&alice_priv, &bob_pub);
        let shared_b = x25519(&bob_priv, &alice_pub);
        assert_eq!(shared_a, shared_b);
        assert_eq!(
            hex(&shared_a),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        );
    }

    #[test]
    fn clamping_is_applied() {
        // Two scalars differing only in clamped bits produce the same output.
        let mut a = [0x42u8; 32];
        let mut b = a;
        a[0] |= 0x07;
        b[0] &= !0x07;
        assert_eq!(x25519_public_key(&a), x25519_public_key(&b));
    }

    #[test]
    fn shared_secret_changes_with_key() {
        let a = x25519(&[1u8; 32], &X25519_BASEPOINT);
        let b = x25519(&[2u8; 32], &X25519_BASEPOINT);
        assert_ne!(a, b);
    }
}
