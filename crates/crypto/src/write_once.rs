//! Write-once AEAD output buffers: memory the kernels fill, allocated
//! without being filled first.
//!
//! `vec![0u8; n]` writes `n` bytes that the AES-GCM kernel is about to
//! overwrite, every one — at 8 MiB a whole extra pass over the data object.
//! [`WriteOnce`] reserves the capacity and nothing else, hands it out as
//! [`Slot`]s, and becomes a `Vec<u8>` only when every slot has been filled
//! by a [`Slot::seal`] or an authenticated [`Slot::open`].
//!
//! ```
//! use nexus_crypto::gcm::{AesGcm, TAG_LEN};
//! use nexus_crypto::write_once::WriteOnce;
//!
//! let gcm = AesGcm::new_128(&[7u8; 16]);
//! let chunks: [&[u8]; 2] = [b"first chunk", b"second"];
//! let mut object = WriteOnce::reserve(11 + 6 + 2 * TAG_LEN);
//! let slots = object.slots(chunks.iter().map(|c| c.len() + TAG_LEN));
//! for ((chunk, mut slot), index) in chunks.iter().zip(slots).zip(0u8..) {
//!     slot.seal(&gcm, &[index; 12], b"", chunk);
//! }
//! let object = object.finish();
//! assert_eq!(gcm.open(&[1u8; 12], b"", &object[11 + TAG_LEN..]).unwrap(), b"second");
//! ```
//!
//! # Soundness
//!
//! The one thing that must never happen is a `u8`-typed view of a byte
//! nothing wrote. The argument is in three parts, all of it in this module:
//!
//! - **Who can construct a slot.** [`WriteOnce::slot`] and
//!   [`WriteOnce::slots`] only (and the crate-private `Slot::over`, whose
//!   bytes are initialised already). A slot's destination is private: code
//!   outside this module can call `seal` or `open` on it, nothing else.
//!   The slots of one buffer are disjoint sub-slices of
//!   `Vec::spare_capacity_mut`, split by safe code.
//! - **Who can mark it filled.** `Slot::filled`, private, called from
//!   `seal`, `seal_detached` and the authenticated arm of `open_detached`
//!   after `AesGcm::crypt` has returned. `crypt` writes every byte of the
//!   destination it is given — its contract (`gcm.rs`), which the fused
//!   kernels meet by walking `chunks_exact_mut` of the whole destination and
//!   the tail by `write_copy_of_slice` of what is left, and which
//!   `kernel_differential.rs` checks against the spec reference at every
//!   length and alignment — and the tag is written here. A slot gives its
//!   destination away to the first `seal` or `open` it meets and is spent by
//!   it, so no slot is counted twice and none is counted for a fill that
//!   was refused.
//! - **What `finish` checks.** That the slots handed out cover the whole
//!   reservation and that as many were filled as were handed out. Only then
//!   does `set_len` make the bytes part of the `Vec`. A slot left unfilled —
//!   skipped, or refused by `open` — makes `finish` panic, and the buffer
//!   drops with its length still at the prefix.
//!
//! A failed [`Slot::open`] volatilely zeroes its destination before it
//! returns, exactly as `AesGcm::open_into` always has: the one-pass kernels
//! decrypt while they authenticate, so the slot holds `keystream ⊕ forgery`
//! by then, and that must not survive in freed memory either.

use std::mem::MaybeUninit;
use std::sync::atomic::{compiler_fence, AtomicUsize, Ordering};

use crate::ct::ct_eq;
use crate::gcm::{AesGcm, Direction, NONCE_LEN, TAG_LEN};
use crate::AeadError;

/// An output buffer whose bytes are written exactly once, by the kernels.
#[derive(Debug)]
pub struct WriteOnce {
    /// `len()` is the initialised prefix; the reservation is the spare
    /// capacity behind it.
    bytes: Vec<u8>,
    /// Bytes the slots must cover.
    reserved: usize,
    /// Bytes of the reservation handed out so far.
    handed_bytes: usize,
    /// Slots handed out so far.
    handed_slots: usize,
    /// Slots filled so far. Workers add to it; `finish` reads it by value,
    /// which it can only do once every slot's borrow has ended.
    filled_slots: AtomicUsize,
}

/// One disjoint piece of a [`WriteOnce`]: the destination of exactly one
/// [`Slot::seal`] or [`Slot::open`].
#[derive(Debug)]
pub struct Slot<'a> {
    /// `None` once a `seal` or an `open` has taken it, whatever came of it.
    dst: Option<&'a mut [MaybeUninit<u8>]>,
    /// The owning buffer's count; `None` over a caller's initialised bytes.
    filled_slots: Option<&'a AtomicUsize>,
}

impl WriteOnce {
    /// Reserves `len` bytes for the kernels to write.
    pub fn reserve(len: usize) -> WriteOnce {
        WriteOnce::after(&[], len)
    }

    /// A buffer that opens with a copy of `prefix` — bytes that are written
    /// as they stand, like the header a sealed body's AAD is made of — and
    /// reserves `len` bytes behind it.
    pub fn after(prefix: &[u8], len: usize) -> WriteOnce {
        let mut bytes = Vec::with_capacity(prefix.len() + len);
        bytes.extend_from_slice(prefix);
        WriteOnce {
            bytes,
            reserved: len,
            handed_bytes: 0,
            handed_slots: 0,
            filled_slots: AtomicUsize::new(0),
        }
    }

    /// The whole reservation as one slot.
    pub fn slot(&mut self) -> Slot<'_> {
        let dst = &mut self.bytes.spare_capacity_mut()[self.handed_bytes..self.reserved];
        self.handed_bytes = self.reserved;
        self.handed_slots += 1;
        Slot { dst: Some(dst), filled_slots: Some(&self.filled_slots) }
    }

    /// The reservation cut into consecutive slots of `lens` bytes.
    ///
    /// # Panics
    ///
    /// Panics unless `lens` sum to exactly the bytes reserved: a slot
    /// nothing covers could never be filled.
    pub fn slots(&mut self, lens: impl IntoIterator<Item = usize>) -> Vec<Slot<'_>> {
        let mut unclaimed = &mut self.bytes.spare_capacity_mut()[self.handed_bytes..self.reserved];
        let filled_slots = &self.filled_slots;
        let slots: Vec<Slot<'_>> = lens
            .into_iter()
            .map(|len| {
                assert!(len <= unclaimed.len(), "slot lengths exceed the bytes reserved");
                let (dst, rest) = std::mem::take(&mut unclaimed).split_at_mut(len);
                unclaimed = rest;
                Slot { dst: Some(dst), filled_slots: Some(filled_slots) }
            })
            .collect();
        assert!(unclaimed.is_empty(), "slot lengths fall short of the bytes reserved");
        self.handed_bytes = self.reserved;
        self.handed_slots += slots.len();
        slots
    }

    /// The buffer, every byte of it written.
    ///
    /// # Panics
    ///
    /// Panics if part of the reservation was never handed out or a slot was
    /// not filled — left alone, or refused by [`Slot::open`]. Nothing of the
    /// buffer is exposed then.
    pub fn finish(mut self) -> Vec<u8> {
        assert_eq!(self.handed_bytes, self.reserved, "part of the buffer was never handed out");
        assert_eq!(
            *self.filled_slots.get_mut(),
            self.handed_slots,
            "a slot of the buffer was not filled"
        );
        let len = self.bytes.len() + self.reserved;
        // SAFETY: `len` is within the capacity `after` allocated. The bytes
        // below the old length are the prefix; the `reserved` bytes above it
        // were all handed out as slots (first assertion), and every slot
        // handed out was filled (second assertion: a slot counts itself only
        // in `Slot::filled`, once, after `AesGcm::crypt` wrote its whole
        // destination). `self` by value means every slot's borrow — and so
        // every worker's write — ended before this read.
        unsafe { self.bytes.set_len(len) };
        self.bytes
    }
}

impl<'a> Slot<'a> {
    /// A caller's own buffer as a slot, for the `&mut [u8]` entry points
    /// (`AesGcm::seal_into`/`open_into`).
    pub(crate) fn over(buf: &'a mut [u8]) -> Slot<'a> {
        let (ptr, len) = (buf.as_mut_ptr().cast::<MaybeUninit<u8>>(), buf.len());
        // SAFETY: same address, length and lifetime as `buf`, exclusively
        // borrowed, and `MaybeUninit<u8>` has `u8`'s layout. The view could
        // be misused only by writing an uninitialised byte through it; it is
        // private to this module, where `seal` and `open` write kernel
        // output, tags and zeros and nothing else.
        let dst = unsafe { std::slice::from_raw_parts_mut(ptr, len) };
        Slot { dst: Some(dst), filled_slots: None }
    }

    /// Gives the destination away. Every `seal` and `open` starts here, so
    /// a slot serves one of them and is spent — filled or not.
    fn take(&mut self) -> &'a mut [MaybeUninit<u8>] {
        self.dst.take().expect("an AEAD output slot serves one seal or open")
    }

    /// [`Slot::take`], after checking the destination is `len` bytes.
    fn take_exactly(&mut self, len: usize) -> &'a mut [MaybeUninit<u8>] {
        let dst = self.take();
        assert_eq!(dst.len(), len, "AES-GCM output buffer has the wrong length");
        dst
    }

    /// Records that every byte of the destination `take` gave away has been
    /// written. Private, and reached only past a `take` in the same call, so
    /// once per slot at most: `WriteOnce::finish` trusts this count.
    fn filled(&self) {
        if let Some(count) = self.filled_slots {
            // Relaxed: the count publishes nothing. `finish` reads it
            // through `self` by value, which the borrow checker grants only
            // after this slot's `&'a mut` has been given back — by a join,
            // a lock or a return, each of which orders this add before it.
            count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Encrypts `plaintext` under `gcm` and fills the slot with
    /// `ciphertext ‖ tag`. The plaintext is read once and the ciphertext
    /// written once, straight into the slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not `plaintext.len() + TAG_LEN` bytes long, or
    /// has served a seal or an open before.
    pub fn seal(&mut self, gcm: &AesGcm, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) {
        let dst = self.take_exactly(plaintext.len() + TAG_LEN);
        let (body, tag) = dst.split_at_mut(plaintext.len());
        tag.write_copy_of_slice(&gcm.crypt(nonce, aad, plaintext, body, Direction::Seal));
        self.filled();
    }

    /// [`Slot::seal`] with the tag returned instead of appended: the slot
    /// is `plaintext.len()` bytes.
    pub(crate) fn seal_detached(
        &mut self,
        gcm: &AesGcm,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
    ) -> [u8; TAG_LEN] {
        let dst = self.take_exactly(plaintext.len());
        let tag = gcm.crypt(nonce, aad, plaintext, dst, Direction::Seal);
        self.filled();
        tag
    }

    /// Opens a `ciphertext ‖ tag` buffer produced by a seal into the slot.
    ///
    /// Decryption happens in the same pass as authentication, so the slot
    /// holds unauthenticated plaintext while this call runs — and only
    /// then: nobody can read a slot, and on a tag mismatch it is volatilely
    /// zeroed and left unfilled before the call returns.
    ///
    /// # Errors
    ///
    /// Returns [`AeadError`] if `sealed` is shorter than a tag or the tag
    /// does not verify. The slot is all zero in that case, and its buffer
    /// can no longer be finished.
    ///
    /// # Panics
    ///
    /// Panics if `sealed` holds a tag and the slot is not `sealed.len() -
    /// TAG_LEN` bytes long, or if the slot has served a seal or an open
    /// before.
    pub fn open(
        &mut self,
        gcm: &AesGcm,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<(), AeadError> {
        let Some(ct_len) = sealed.len().checked_sub(TAG_LEN) else {
            wipe(self.take());
            return Err(AeadError);
        };
        let (ciphertext, tag) = sealed.split_at(ct_len);
        self.open_detached(gcm, nonce, aad, ciphertext, tag)
    }

    /// [`Slot::open`] with the tag passed beside the ciphertext.
    pub(crate) fn open_detached(
        &mut self,
        gcm: &AesGcm,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        ciphertext: &[u8],
        tag: &[u8],
    ) -> Result<(), AeadError> {
        let dst = self.take_exactly(ciphertext.len());
        let expected = gcm.crypt(nonce, aad, ciphertext, dst, Direction::Open);
        if ct_eq(&expected, tag) {
            self.filled();
            Ok(())
        } else {
            wipe(dst);
            Err(AeadError)
        }
    }
}

/// Volatile best-effort clear, as [`crate::ct::zeroize`], of bytes that may
/// or may not have been written yet.
fn wipe(dst: &mut [MaybeUninit<u8>]) {
    for b in dst.iter_mut() {
        // SAFETY: `b` is a valid, aligned, exclusive reference to one byte,
        // and a write needs nothing of the value it replaces.
        unsafe { b.as_mut_ptr().write_volatile(0) };
    }
    compiler_fence(Ordering::SeqCst);
}

/// What `kernel` leaves in `len` bytes of fresh memory, for the unit tests
/// that drive a kernel below `AesGcm::crypt`.
#[cfg(test)]
pub(crate) fn written_by(len: usize, kernel: impl FnOnce(&mut [MaybeUninit<u8>])) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    kernel(&mut out.spare_capacity_mut()[..len]);
    // SAFETY: test-only, and every caller's `kernel` is one of this crate's
    // group kernels or `AesGcm::crypt` over the whole slice, which write
    // every byte of the destination they are given (see the module docs).
    unsafe { out.set_len(len) };
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gcm() -> AesGcm {
        AesGcm::new_128(&[0x5a; 16])
    }

    const NONCE: [u8; NONCE_LEN] = [3; NONCE_LEN];

    /// Slots are the per-piece seals laid end to end behind the prefix, and
    /// the `Vec` is exactly as long — and as large — as what was asked for.
    #[test]
    fn finish_returns_prefix_and_slots_with_no_spare_capacity() {
        let gcm = gcm();
        let pieces: [&[u8]; 4] = [b"one", b"", &[7u8; 300], b"four"];
        let total: usize = pieces.iter().map(|p| p.len() + TAG_LEN).sum();
        let mut buf = WriteOnce::after(b"head", total);
        let mut slots = buf.slots(pieces.iter().map(|p| p.len() + TAG_LEN));
        // Filled out of order: a slot's place is fixed when it is cut.
        for (i, slot) in slots.iter_mut().enumerate().rev() {
            slot.seal(&gcm, &NONCE, &[i as u8], pieces[i]);
        }
        let out = buf.finish();
        let mut expect = b"head".to_vec();
        for (i, piece) in pieces.iter().enumerate() {
            expect.extend(gcm.seal(&NONCE, &[i as u8], piece));
        }
        assert_eq!(out, expect);
        assert_eq!(out.len(), 4 + total);
        assert_eq!(out.capacity(), 4 + total, "the reservation is the request, not more");

        for len in [0usize, 1, 4096, 1 << 20] {
            let pt = vec![0xabu8; len];
            let sealed = gcm.seal(&NONCE, b"", &pt);
            assert_eq!((sealed.len(), sealed.capacity()), (len + TAG_LEN, len + TAG_LEN));
            let opened = gcm.open(&NONCE, b"", &sealed).unwrap();
            assert_eq!((opened.len(), opened.capacity()), (len, len));
        }
    }

    #[test]
    fn an_empty_reservation_finishes_empty() {
        let mut buf = WriteOnce::reserve(0);
        assert!(buf.slots([]).is_empty());
        assert_eq!(buf.finish(), Vec::<u8>::new());
        assert_eq!(WriteOnce::after(b"only a prefix", 0).finish(), b"only a prefix");
    }

    /// A zero-length slot still has to be opened: an empty chunk is a bare
    /// tag, and skipping its check must not pass for an authenticated file.
    #[test]
    fn zero_length_slots_count() {
        let gcm = gcm();
        let bare_tag = gcm.seal(&NONCE, b"aad", b"");
        let mut buf = WriteOnce::reserve(0);
        buf.slot().open(&gcm, &NONCE, b"aad", &bare_tag).unwrap();
        assert!(buf.finish().is_empty());

        let mut buf = WriteOnce::reserve(0);
        assert!(buf.slot().open(&gcm, &NONCE, b"other", &bare_tag).is_err());
        let unfinished = std::panic::catch_unwind(move || buf.finish());
        assert!(unfinished.is_err(), "a refused empty slot finished");
    }

    #[test]
    #[should_panic(expected = "a slot of the buffer was not filled")]
    fn an_unfilled_slot_makes_finish_panic() {
        let gcm = gcm();
        let mut buf = WriteOnce::reserve(2 * (8 + TAG_LEN));
        let mut slots = buf.slots([8 + TAG_LEN; 2]);
        slots[0].seal(&gcm, &NONCE, b"", &[1u8; 8]);
        let _ = buf.finish();
    }

    #[test]
    #[should_panic(expected = "a slot of the buffer was not filled")]
    fn a_refused_open_makes_finish_panic() {
        let gcm = gcm();
        let mut sealed = gcm.seal(&NONCE, b"", &[9u8; 40]);
        sealed[11] ^= 1;
        let mut buf = WriteOnce::reserve(40);
        let _ = buf.slot().open(&gcm, &NONCE, b"", &sealed);
        let _ = buf.finish();
    }

    #[test]
    #[should_panic(expected = "never handed out")]
    fn a_reservation_nobody_took_makes_finish_panic() {
        let _ = WriteOnce::reserve(16).finish();
    }

    #[test]
    #[should_panic(expected = "fall short of the bytes reserved")]
    fn slot_lengths_short_of_the_reservation_are_refused() {
        let _ = WriteOnce::reserve(100).slots([60, 39]);
    }

    #[test]
    #[should_panic(expected = "exceed the bytes reserved")]
    fn slot_lengths_beyond_the_reservation_are_refused() {
        let _ = WriteOnce::reserve(100).slots([60, 41]);
    }

    /// One slot, one seal or open. Were a second one counted, an empty
    /// slot opened twice would stand in for a neighbour nobody wrote.
    #[test]
    #[should_panic(expected = "serves one seal or open")]
    fn a_slot_is_spent_by_its_first_use() {
        let gcm = gcm();
        let bare_tag = gcm.seal(&NONCE, b"", b"");
        let mut buf = WriteOnce::reserve(32);
        let mut slots = buf.slots([0, 32]);
        slots[0].open(&gcm, &NONCE, b"", &bare_tag).unwrap();
        let _ = slots[0].open(&gcm, &NONCE, b"", &bare_tag);
    }

    /// Not even by a failure: a slot refused for a short input does not
    /// come back as an empty one that a bare tag then "fills".
    #[test]
    #[should_panic(expected = "serves one seal or open")]
    fn a_refused_slot_is_spent_too() {
        let gcm = gcm();
        let mut buf = WriteOnce::reserve(32);
        let mut slot = buf.slot();
        assert!(slot.open(&gcm, &NONCE, b"", &[0u8; TAG_LEN - 1]).is_err());
        let _ = slot.open(&gcm, &NONCE, b"", &gcm.seal(&NONCE, b"", b""));
    }

    /// Every refusal leaves zeros behind, in memory that was initialised
    /// (`Slot::over`) and in memory that was not.
    #[test]
    fn a_refused_open_wipes_its_destination() {
        let gcm = gcm();
        let pt = [0x77u8; 300];
        let mut sealed = gcm.seal(&NONCE, b"aad", &pt);
        sealed[150] ^= 0x80;
        let mut out = [0xeeu8; 300];
        assert!(Slot::over(&mut out).open(&gcm, &NONCE, b"aad", &sealed).is_err());
        assert_eq!(out, [0u8; 300]);
        let mut out = [0xeeu8; 5];
        assert!(Slot::over(&mut out).open(&gcm, &NONCE, b"aad", &sealed[..TAG_LEN - 1]).is_err());
        assert_eq!(out, [0u8; 5]);

        let wiped = written_by(300, |dst| {
            let mut slot = Slot { dst: Some(dst), filled_slots: None };
            assert!(slot.open(&gcm, &NONCE, b"aad", &sealed).is_err());
        });
        assert_eq!(wiped, [0u8; 300]);
    }
}
