//! A global allocator that reports key bytes left behind in freed memory.
//!
//! A test installs [`FreedKeyCheck`] as its binary's `#[global_allocator]`,
//! [`plant`]s the 16-byte patterns it must never see freed (an object key
//! it hands the code under test through its `fill_random`, say), runs the
//! code, and reads [`leaks`]. Every block the program frees while a
//! pattern is planted is scanned first; one holding any planted pattern
//! at any offset counts as a leak. Patterns live in fixed atomics, so the
//! allocator never allocates or locks itself.
//!
//! Every block is zero-filled when it is handed out, so the scan reads
//! only initialised bytes. Growth goes through the trait's default
//! `realloc` (allocate, copy, free the old block), so the old copy of a
//! growing buffer is scanned too.
//!
//! ```
//! use nexus_testkit::freed;
//!
//! #[global_allocator]
//! static ALLOC: freed::FreedKeyCheck = freed::FreedKeyCheck;
//!
//! fn main() {
//!     freed::plant(*b"a planted secret");
//!     drop(std::hint::black_box(b"a planted secret".to_vec()));
//!     assert_eq!(freed::leaks(), 1);
//!     freed::clear();
//! }
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};

/// How many patterns may be planted at once.
pub const MAX_PATTERNS: usize = 8;

/// Each planted pattern as two little-endian words.
static PATTERNS: [[AtomicU64; 2]; MAX_PATTERNS] =
    [const { [AtomicU64::new(0), AtomicU64::new(0)] }; MAX_PATTERNS];
/// How many of [`PATTERNS`] are planted.
static PLANTED: AtomicUsize = AtomicUsize::new(0);
/// Freed blocks found holding a planted pattern.
static LEAKS: AtomicUsize = AtomicUsize::new(0);

/// The allocator: [`System`], plus the zero fill and the scan.
pub struct FreedKeyCheck;

/// Plants `pattern`: from now on a freed block that holds it is a leak.
///
/// # Panics
///
/// Panics when [`MAX_PATTERNS`] are planted already.
pub fn plant(pattern: [u8; 16]) {
    let slot = PLANTED.load(SeqCst);
    assert!(
        slot < MAX_PATTERNS,
        "at most {MAX_PATTERNS} planted patterns"
    );
    PATTERNS[slot][0].store(u64::from_le_bytes(pattern[..8].try_into().unwrap()), SeqCst);
    PATTERNS[slot][1].store(u64::from_le_bytes(pattern[8..].try_into().unwrap()), SeqCst);
    PLANTED.store(slot + 1, SeqCst);
}

/// Forgets every planted pattern and resets the leak count.
pub fn clear() {
    PLANTED.store(0, SeqCst);
    LEAKS.store(0, SeqCst);
}

/// Freed blocks found holding a planted pattern since the last [`clear`].
pub fn leaks() -> usize {
    LEAKS.load(SeqCst)
}

/// True when `block` holds one of the first `planted` patterns.
fn holds_a_pattern(block: &[u8], planted: usize) -> bool {
    block.windows(16).any(|w| {
        let lo = u64::from_le_bytes(w[..8].try_into().unwrap());
        let hi = u64::from_le_bytes(w[8..].try_into().unwrap());
        PATTERNS[..planted]
            .iter()
            .any(|p| p[0].load(SeqCst) == lo && p[1].load(SeqCst) == hi)
    })
}

// SAFETY: every method forwards to `System` with the caller's pointer and
// layout unchanged, so `System`'s contract is the caller's contract; the
// additions only write into a block just allocated and read a block about
// to be freed, both within `layout.size()` bytes.
unsafe impl GlobalAlloc for FreedKeyCheck {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` has non-zero size (the trait's
        // contract), which is all `System.alloc_zeroed` asks. Zeroed, every
        // byte of the block is initialised when `dealloc` reads it.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let planted = PLANTED.load(SeqCst);
        if planted > 0 {
            // SAFETY: `ptr` came from `alloc` with this `layout` (the
            // trait's contract) and is not yet freed, so it points at
            // `layout.size()` bytes this allocator zero-filled at
            // allocation, initialised ever since, which nothing else uses
            // once the caller frees them.
            let block = unsafe { std::slice::from_raw_parts(ptr, layout.size()) };
            if holds_a_pattern(block, planted) {
                LEAKS.fetch_add(1, SeqCst);
            }
        }
        // SAFETY: as the caller promised us: `ptr` is live and was
        // allocated by `System` (through `alloc`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_a_pattern_at_any_offset_and_only_a_planted_one() {
        clear();
        plant(*b"0123456789abcdef");
        for offset in 0..20 {
            let mut block = vec![0u8; 64];
            block[offset..offset + 16].copy_from_slice(b"0123456789abcdef");
            assert!(holds_a_pattern(&block, 1), "offset {offset}");
            block[offset + 7] ^= 1;
            assert!(!holds_a_pattern(&block, 1), "offset {offset}");
        }
        assert!(!holds_a_pattern(b"0123456789abcde", 1));
        clear();
    }
}
