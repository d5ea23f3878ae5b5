//! Aligned scratch arenas — typed, grow-only buffers over the 64-byte
//! [`AlignedBytes`] storage cell from `mfdfp-dfp`.
//!
//! Two layers share one alignment story:
//!
//! * [`AlignedBytes`] (re-exported from [`mfdfp_dfp::aligned`]) is the raw
//!   cell — `std::alloc::Layout`-allocated bytes whose base pointer is
//!   always 64-byte aligned, with validated typed views.
//! * [`AlignedVec`] is `Vec<T>` with that alignment guarantee: the
//!   [`Workspace`](crate::Workspace) activation/im2col/logit lanes
//!   are built on it, so every kernel scratch pointer is cache-line (and
//!   AVX-512 lane) aligned by construction rather than by allocator luck.

use std::marker::PhantomData;

pub use mfdfp_dfp::aligned::{AlignedBytes, Pod, ALIGN};

/// A growable typed buffer whose base pointer is always 64-byte aligned.
///
/// Supports the `Vec` subset the inference hot path needs — `resize`,
/// `reserve`, `extend_from_slice`, slice deref — with the alignment of
/// the backing memory part of the type's contract. Lengths may shrink
/// (cheap, just a counter), but capacity never does: like
/// [`Workspace`](crate::Workspace) lanes, an `AlignedVec` warms to its
/// peak and stays there.
///
/// # Examples
///
/// ```
/// use mfdfp_tensor::arena::{AlignedVec, ALIGN};
///
/// let mut v: AlignedVec<i64> = AlignedVec::new();
/// v.resize(5, -1);
/// v[0] = 42;
/// assert_eq!(&v[..], &[42, -1, -1, -1, -1]);
/// assert_eq!(v.as_ptr() as usize % ALIGN, 0);
/// ```
#[derive(Debug, Clone)]
pub struct AlignedVec<T: Pod> {
    /// Backing bytes; `bytes.len()` is the capacity in bytes and is
    /// always fully initialised (zeroed on growth), so any prefix is
    /// safe to view as `[T]`.
    bytes: AlignedBytes,
    /// Logical element count.
    len: usize,
    _elem: PhantomData<T>,
}

impl<T: Pod> AlignedVec<T> {
    /// An empty vector; allocates nothing until elements are added.
    pub const fn new() -> Self {
        AlignedVec { bytes: AlignedBytes::new(), len: 0, _elem: PhantomData }
    }

    /// An empty vector with room for `cap` elements.
    pub fn with_capacity(cap: usize) -> Self {
        let mut v = Self::new();
        v.reserve(cap);
        v
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Elements the vector can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.bytes.len() / std::mem::size_of::<T>()
    }

    /// Ensures capacity for at least `cap` elements without changing the
    /// length; never shrinks.
    pub fn reserve(&mut self, cap: usize) {
        self.bytes.grow_zeroed(cap * std::mem::size_of::<T>());
    }

    /// Resizes to `len` elements; new elements are `fill`. Shrinking only
    /// drops the logical length — capacity is retained, so a warmed
    /// buffer never re-allocates for a smaller pass.
    pub fn resize(&mut self, len: usize, fill: T) {
        if len > self.capacity() {
            self.reserve(len);
        }
        if len > self.len {
            let spare: &mut [T] = {
                // SAFETY: capacity covers `len`, the backing bytes are
                // initialised, and `T: Pod` accepts any bit pattern.
                unsafe { std::slice::from_raw_parts_mut(self.bytes.as_mut_ptr().cast::<T>(), len) }
            };
            spare[self.len..len].fill(fill);
        }
        self.len = len;
    }

    /// Drops all elements (capacity retained).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Appends `items` at the end.
    pub fn extend_from_slice(&mut self, items: &[T]) {
        if items.is_empty() {
            return;
        }
        let old = self.len;
        let new = old + items.len();
        if new > self.capacity() {
            self.reserve(new);
        }
        // The backing bytes are initialised up to capacity, so bumping the
        // length before the copy only exposes zeroed (valid Pod) values.
        self.len = new;
        self.as_mut_slice()[old..].copy_from_slice(items);
    }

    /// Appends one element.
    pub fn push(&mut self, item: T) {
        self.extend_from_slice(&[item]);
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: `len * size_of::<T>() <= bytes.len()` (invariant), the
        // bytes are initialised, the 64-byte base alignment covers every
        // Pod type, and `T: Pod` accepts any bit pattern.
        unsafe { std::slice::from_raw_parts(self.bytes.as_ptr().cast::<T>(), self.len) }
    }

    /// The elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        let len = self.len;
        // SAFETY: as `as_slice`, plus `&mut self` guarantees uniqueness.
        unsafe { std::slice::from_raw_parts_mut(self.bytes.as_mut_ptr().cast::<T>(), len) }
    }

    /// Base pointer (64-byte aligned; dangling-aligned when empty).
    pub fn as_ptr(&self) -> *const T {
        self.bytes.as_ptr().cast::<T>()
    }
}

impl<T: Pod> Default for AlignedVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Pod> std::ops::Deref for AlignedVec<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> std::ops::DerefMut for AlignedVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Pod + PartialEq> PartialEq for AlignedVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod + PartialEq + Eq> Eq for AlignedVec<T> {}

impl<T: Pod> From<&[T]> for AlignedVec<T> {
    fn from(items: &[T]) -> Self {
        let mut v = Self::with_capacity(items.len());
        v.extend_from_slice(items);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_vec_behaves_like_vec() {
        let mut v: AlignedVec<i32> = AlignedVec::new();
        assert!(v.is_empty());
        v.resize(3, 7);
        assert_eq!(&v[..], &[7, 7, 7]);
        v[1] = -1;
        v.push(9);
        assert_eq!(&v[..], &[7, -1, 7, 9]);
        v.resize(2, 0);
        assert_eq!(&v[..], &[7, -1]);
        // Regrowing fills with the new value, not stale data.
        v.resize(4, 5);
        assert_eq!(&v[..], &[7, -1, 5, 5]);
        v.extend_from_slice(&[10, 11]);
        assert_eq!(v.len(), 6);
        assert_eq!(&v[4..], &[10, 11]);
    }

    #[test]
    fn aligned_vec_pointers_are_aligned() {
        for n in [1usize, 17, 64, 1000] {
            let mut v: AlignedVec<i8> = AlignedVec::new();
            v.resize(n, 1);
            assert_eq!(v.as_ptr() as usize % ALIGN, 0, "n={n}");
        }
        let mut w: AlignedVec<i64> = AlignedVec::with_capacity(4);
        assert!(w.capacity() >= 4);
        w.resize(4, -3);
        assert_eq!(w.as_ptr() as usize % ALIGN, 0);
    }

    #[test]
    fn aligned_vec_shrink_keeps_capacity() {
        let mut v: AlignedVec<f32> = AlignedVec::new();
        v.resize(100, 0.5);
        let cap = v.capacity();
        v.resize(3, 0.0);
        assert_eq!(v.capacity(), cap);
        v.clear();
        assert_eq!(v.capacity(), cap);
        assert!(v.is_empty());
    }

    #[test]
    fn aligned_vec_eq_and_from_slice() {
        let a: AlignedVec<i64> = AlignedVec::from(&[1i64, 2, 3][..]);
        let b: AlignedVec<i64> = AlignedVec::from(&[1i64, 2, 3][..]);
        let c: AlignedVec<i64> = AlignedVec::from(&[1i64, 2, 4][..]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
