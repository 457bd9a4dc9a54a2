//! Append-only shared buffers: the storage under every [`Column`].
//!
//! A [`Values<T>`] is a snapshot of a buffer: an `Arc` over one
//! fixed-capacity allocation plus this snapshot's length. Readers borrow
//! `&[T]` of their own length, so a kernel never sees whether the buffer
//! behind it has grown since. Appending writes the delta past the
//! snapshot's length, in the same allocation, when
//!
//! * this snapshot is the buffer's **tip** — its length is the buffer's
//!   committed length, which the writer moves past the delta with one
//!   compare-exchange (so of two appends to one snapshot, one extends and
//!   the other copies), and
//! * the allocation has room for the delta.
//!
//! Otherwise the append copies into a new buffer with twice the room it
//! needs, so a table that grows by small appends pays O(delta) amortised
//! instead of O(table) per append — the MonetDB/X100 way of keeping
//! immutable vectors cheap to extend. Wrapping a `Vec` adopts its
//! allocation, spare capacity included, without a copy.
//!
//! This module is the only place with `unsafe` storage code. Its one
//! invariant: **no snapshot's length exceeds its buffer's committed
//! length, and a writer writes only beyond the committed length, into a
//! range it claimed first.** Every element a reader can reach was written
//! before the snapshot that reaches it existed, and is never written
//! again.
//!
//! [`Column`]: crate::Column

use std::fmt;
use std::mem::ManuallyDrop;
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A snapshot of an append-only shared buffer (see the module docs).
/// Cloning shares the buffer.
pub struct Values<T: Copy> {
    buf: Arc<Buffer<T>>,
    len: usize,
}

/// One allocation, taken over from a `Vec<T>`.
struct Buffer<T: Copy> {
    ptr: NonNull<T>,
    cap: usize,
    /// Elements `[0, committed)` are written or claimed by a writer; no
    /// snapshot is longer.
    committed: AtomicUsize,
}

// SAFETY: `ptr` owns its allocation as the `Vec` it came from did, and
// `cap` never changes. Through a shared `Buffer`, threads only read
// elements below some snapshot's length, which no writer touches again,
// and write disjoint ranges claimed through `committed`, an atomic.
// Elements cross threads by value (`T: Copy`) and by shared reference,
// hence `T: Send + Sync`.
unsafe impl<T: Copy + Send + Sync> Send for Buffer<T> {}
// SAFETY: as for `Send`: every access through `&Buffer` is a read below
// a snapshot's length, an atomic operation on `committed`, or a write to
// a range the writer claimed alone.
unsafe impl<T: Copy + Send + Sync> Sync for Buffer<T> {}

impl<T: Copy> Drop for Buffer<T> {
    fn drop(&mut self) {
        // SAFETY: `ptr` and `cap` are the parts of the `Vec` `Values::from`
        // took over, and this is the only owner. `T: Copy` needs no drop,
        // so length 0 frees the allocation and nothing else.
        unsafe { drop(Vec::from_raw_parts(self.ptr.as_ptr(), 0, self.cap)) }
    }
}

impl<T: Copy> Values<T> {
    /// True when both snapshots read the same allocation.
    pub fn shares_buffer(&self, other: &Values<T>) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }

    /// This snapshot followed by `more`: written in place when this
    /// snapshot is its buffer's tip and the buffer has room, else copied
    /// into a new buffer with room for as many again. `self` is unchanged
    /// either way.
    pub fn extended(&self, more: &[T]) -> Values<T> {
        let len = self.len + more.len();
        if more.is_empty() {
            return self.clone();
        }
        let buf = &self.buf;
        // The exchange only decides which writer owns `[self.len, len)`.
        // The elements reach readers with the snapshot that reads them,
        // through whatever hands that snapshot to another thread (the
        // catalog's lock, a channel, a scoped spawn); `AcqRel` also orders
        // this claim after the writes of the append that made `self`.
        if len <= buf.cap
            && buf
                .committed
                .compare_exchange(self.len, len, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            // SAFETY: the compare-exchange moved `committed` from this
            // snapshot's length to `len`, so `[self.len, len)` lies inside
            // the allocation (`len <= cap`), no snapshot reaches it (none
            // is longer than the old committed length), and no other
            // writer can claim it (their exchange expects a length below
            // the new `committed`). `more` is a shared borrow and cannot
            // alias this unreachable range.
            unsafe {
                buf.ptr
                    .as_ptr()
                    .add(self.len)
                    .copy_from_nonoverlapping(more.as_ptr(), more.len());
            }
            return Values {
                buf: Arc::clone(buf),
                len,
            };
        }
        let mut grown = Vec::with_capacity(2 * len);
        grown.extend_from_slice(self);
        grown.extend_from_slice(more);
        Values::from(grown)
    }
}

impl<T: Copy> Deref for Values<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        // SAFETY: `len` never exceeds the committed length, and every
        // element below it was written before this snapshot was made and
        // is never written again (module invariant).
        unsafe { std::slice::from_raw_parts(self.buf.ptr.as_ptr(), self.len) }
    }
}

impl<T: Copy> From<Vec<T>> for Values<T> {
    fn from(v: Vec<T>) -> Self {
        let mut v = ManuallyDrop::new(v);
        let len = v.len();
        let buf = Buffer {
            // A `Vec`'s pointer is never null (dangling when unallocated).
            ptr: NonNull::new(v.as_mut_ptr()).expect("a Vec's pointer is non-null"),
            cap: v.capacity(),
            committed: AtomicUsize::new(len),
        };
        Values {
            buf: Arc::new(buf),
            len,
        }
    }
}

impl<T: Copy> FromIterator<T> for Values<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Values::from(iter.into_iter().collect::<Vec<T>>())
    }
}

impl<T: Copy> Default for Values<T> {
    fn default() -> Self {
        Values::from(Vec::new())
    }
}

impl<T: Copy> Clone for Values<T> {
    fn clone(&self) -> Self {
        Values {
            buf: Arc::clone(&self.buf),
            len: self.len,
        }
    }
}

impl<T: Copy + PartialEq> PartialEq for Values<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Copy + Eq> Eq for Values<T> {}

impl<T: Copy + fmt::Debug> fmt::Debug for Values<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adopting_a_vec_keeps_its_allocation() {
        let mut v = Vec::with_capacity(8);
        v.extend([1u32, 2, 3]);
        let ptr = v.as_ptr();
        let values = Values::from(v);
        assert_eq!(&*values, &[1, 2, 3]);
        assert_eq!(values.as_ptr(), ptr);
        // The spare capacity takes appends in place.
        let longer = values.extended(&[4, 5]);
        assert!(longer.shares_buffer(&values));
        assert_eq!(&*longer, &[1, 2, 3, 4, 5]);
        assert_eq!(&*values, &[1, 2, 3], "the old snapshot keeps its length");
    }

    #[test]
    fn only_the_tip_extends_in_place() {
        let base = Values::from(Vec::with_capacity(16)).extended(&[7u64]);
        let first = base.extended(&[8]);
        // `base` is no longer the tip: its second child copies.
        let second = base.extended(&[9]);
        assert!(first.shares_buffer(&base));
        assert!(!second.shares_buffer(&base));
        assert_eq!(&*first, &[7, 8]);
        assert_eq!(&*second, &[7, 9]);
        // The copy has room to grow and is its own buffer's tip.
        let third = second.extended(&[10]);
        assert!(third.shares_buffer(&second));
        assert_eq!(&*third, &[7, 9, 10]);
        assert_eq!(&*first, &[7, 8]);
    }

    #[test]
    fn a_full_buffer_copies_with_room_to_grow() {
        let full = Values::from(vec![1i64, 2]);
        let grown = full.extended(&[3]);
        assert!(!grown.shares_buffer(&full));
        assert_eq!(&*grown, &[1, 2, 3]);
        // Room for as many again: the next appends stay in place.
        let mut tip = grown.clone();
        for x in 4..=6 {
            tip = tip.extended(&[x]);
            assert!(tip.shares_buffer(&grown));
        }
        assert_eq!(&*tip, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(&*grown, &[1, 2, 3]);
        // An empty append is the snapshot itself.
        assert!(full.extended(&[]).shares_buffer(&full));
    }

    #[test]
    fn equality_and_debug_are_the_slices() {
        let a: Values<u32> = (0..3).collect();
        let b = Values::from(vec![0u32, 1, 2]);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), "[0, 1, 2]");
        assert!(Values::<bool>::default().is_empty());
    }
}
