//! Constant-time helpers: branchless comparison and volatile zeroization.
//!
//! ## The public-length contract
//!
//! Every comparison in this module treats the *lengths* of its inputs as
//! public information and only their *contents* as secret. This is the one
//! place that contract is documented; every caller in the workspace
//! (AEAD tags, SGX measurements, keywrap tags) compares fixed-size values
//! whose length is structural, never attacker-chosen, so an early return on
//! a length mismatch reveals nothing.

/// Branchless equality of two equal-length byte slices, returned as a mask:
/// `0xff` when every byte matches, `0x00` otherwise. No branch or memory
/// access depends on the contents.
///
/// # Panics
///
/// Panics when the lengths differ — use [`ct_eq`] for the length-checking
/// `bool` form. (Lengths are public; see the module docs.)
pub fn ct_eq_mask(a: &[u8], b: &[u8]) -> u8 {
    assert_eq!(a.len(), b.len(), "ct_eq_mask requires equal lengths");
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    // 0 -> underflows to 0xff..; nonzero -> high bits clear after >> 8.
    ((diff as u16).wrapping_sub(1) >> 8) as u8
}

/// Compares two byte slices in constant time (with respect to contents).
///
/// Returns `false` immediately when lengths differ; lengths are public
/// information (see the module docs). The contents comparison is the
/// branchless mask of [`ct_eq_mask`].
///
/// # Examples
///
/// ```
/// assert!(nexus_crypto::ct::ct_eq(b"abc", b"abc"));
/// assert!(!nexus_crypto::ct::ct_eq(b"abc", b"abd"));
/// ```
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    ct_eq_mask(a, b) == 0xff
}

/// Marker trait for key-holding types whose `Drop` routes through the
/// volatile [`zeroize`] helpers; tests assert each such type implements it.
pub trait ZeroizeOnDrop {}

/// Best-effort volatile clear of a byte buffer.
///
/// `ptr::write_volatile` keeps the stores from being elided as dead writes,
/// and the compiler fence keeps them from being sunk past the buffer's
/// deallocation. "Best effort" because Rust offers no guarantee about
/// copies the optimizer already spilled elsewhere (moves, registers).
pub fn zeroize(buf: &mut [u8]) {
    for b in buf.iter_mut() {
        // SAFETY: `b` is a valid, aligned, exclusive reference.
        unsafe { std::ptr::write_volatile(b, 0) };
    }
    std::sync::atomic::compiler_fence(std::sync::atomic::Ordering::SeqCst);
}

/// [`zeroize`] for `u128` words (GHASH/POLYVAL keys, powers of H,
/// bitsliced key planes).
pub fn zeroize_u128(buf: &mut [u128]) {
    for w in buf.iter_mut() {
        // SAFETY: `w` is a valid, aligned, exclusive reference.
        unsafe { std::ptr::write_volatile(w, 0) };
    }
    std::sync::atomic::compiler_fence(std::sync::atomic::Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_slices() {
        assert!(ct_eq(&[], &[]));
        assert!(ct_eq(&[1, 2, 3], &[1, 2, 3]));
    }

    #[test]
    fn different_contents() {
        assert!(!ct_eq(&[1, 2, 3], &[1, 2, 4]));
        assert!(!ct_eq(&[0], &[255]));
    }

    #[test]
    fn different_lengths() {
        assert!(!ct_eq(&[1, 2], &[1, 2, 3]));
    }

    #[test]
    fn mask_values() {
        assert_eq!(ct_eq_mask(&[], &[]), 0xff);
        assert_eq!(ct_eq_mask(&[7; 32], &[7; 32]), 0xff);
        // Any single differing bit collapses the mask to zero.
        for bit in 0..8 {
            let a = [0u8; 4];
            let mut b = [0u8; 4];
            b[2] = 1 << bit;
            assert_eq!(ct_eq_mask(&a, &b), 0x00);
        }
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn mask_panics_on_length_mismatch() {
        ct_eq_mask(&[1], &[1, 2]);
    }

    #[test]
    fn zeroize_clears() {
        let mut bytes = [0xaau8; 37];
        zeroize(&mut bytes);
        assert_eq!(bytes, [0u8; 37]);
        let mut wide = [u128::MAX; 5];
        zeroize_u128(&mut wide);
        assert_eq!(wide, [0u128; 5]);
    }
}
