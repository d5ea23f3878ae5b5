//! Aligned scratch arenas — typed, grow-only buffers over the 64-byte
//! [`AlignedBytes`] storage cell from `mfdfp-dfp`.
//!
//! Three layers share one alignment story:
//!
//! * [`AlignedBytes`] (re-exported from [`mfdfp_dfp::aligned`]) is the raw
//!   cell — `std::alloc::Layout`-allocated bytes whose base pointer is
//!   always 64-byte aligned, with validated typed views.
//! * [`AlignedVec`] is `Vec<T>` with that alignment guarantee: the
//!   [`Workspace`](crate::Workspace) activation/im2col/logit lanes
//!   are built on it, so every kernel scratch pointer is cache-line (and
//!   AVX-512 lane) aligned by construction rather than by allocator luck.
//! * [`AlignedArena`] is an append-only byte builder with explicit
//!   alignment control — the deployment-image writer in `mfdfp-core` lays
//!   out header, section table and weight payloads through it, so every
//!   recorded offset is aligned the moment it is written.

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

/// An append-only aligned byte builder — the writer side of the
/// deployment-image story.
///
/// Every `push_*` returns the byte offset where the data landed, and
/// [`AlignedArena::align_to`] pads with zeros so the *next* push starts
/// on a chosen boundary. Because the backing [`AlignedBytes`] base is
/// 64-byte aligned, an offset that is a multiple of `a` is genuinely
/// `a`-aligned in memory — the writer's offsets and the reader's typed
/// views agree by construction.
///
/// # Examples
///
/// ```
/// use mfdfp_tensor::arena::AlignedArena;
///
/// let mut a = AlignedArena::new();
/// a.push_bytes(&[1, 2, 3]);
/// let off = a.align_to(64);
/// assert_eq!(off, 64);
/// let w_off = a.push_bytes(&[9; 10]);
/// assert_eq!(w_off, 64);
/// let img = a.finish();
/// assert_eq!(img.len(), 74);
/// assert_eq!(&img.as_slice()[64..], &[9; 10]);
/// ```
#[derive(Debug, Default)]
pub struct AlignedArena {
    buf: AlignedBytes,
}

impl AlignedArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far — the offset the next unaligned push lands at.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Zero-pads until the length is a multiple of `align` (a power of
    /// two); returns the aligned offset.
    pub fn align_to(&mut self, align: usize) -> usize {
        self.buf.pad_to(align);
        self.buf.len()
    }

    /// Appends raw bytes; returns the offset of the first byte written.
    pub fn push_bytes(&mut self, bytes: &[u8]) -> usize {
        let off = self.buf.len();
        self.buf.extend_from_slice(bytes);
        off
    }

    /// Appends every `i64` as 8 little-endian bytes; returns the offset
    /// of the first value.
    pub fn push_i64_le(&mut self, vals: &[i64]) -> usize {
        let off = self.buf.len();
        for v in vals {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        off
    }

    /// A view of the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        self.buf.as_slice()
    }

    /// Overwrites `dst..dst + src.len()` with `src` — back-patching a
    /// header field whose value (e.g. a table offset) is only known after
    /// later sections land.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the bytes written so far.
    pub fn patch(&mut self, dst: usize, src: &[u8]) {
        self.buf.as_mut_slice()[dst..dst + src.len()].copy_from_slice(src);
    }

    /// Finishes the build, handing the bytes to the caller.
    pub fn finish(self) -> AlignedBytes {
        self.buf
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

    #[test]
    fn arena_layout_is_deterministic() {
        let mut a = AlignedArena::new();
        assert!(a.is_empty());
        let h = a.push_bytes(&[0xAB; 10]);
        assert_eq!(h, 0);
        let aligned = a.align_to(64);
        assert_eq!(aligned % 64, 0);
        let w = a.push_i64_le(&[-2, 3]);
        assert_eq!(w, 64);
        assert_eq!(a.len(), 80);
        let img = a.finish();
        assert_eq!(img.view::<i64>(64, 2).unwrap(), &[-2, 3]);
        assert!(img.as_slice()[10..64].iter().all(|&b| b == 0), "padding is zeroed");
    }

    #[test]
    fn arena_patch_overwrites_in_place() {
        let mut a = AlignedArena::new();
        a.push_bytes(&[0u8; 16]);
        a.patch(4, &0xDEADBEEFu32.to_le_bytes());
        let img = a.finish();
        assert_eq!(img.view::<u32>(4, 1).unwrap(), &[0xDEADBEEF]);
    }
}
