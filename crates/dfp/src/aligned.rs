//! 64-byte-aligned storage — the one buffer type every deployed weight
//! image, packed weight matrix and inference scratch lane sits on.
//!
//! The paper's deployment model (Fig. 2) is a host DMA-ing a packed
//! weight image into a fixed accelerator buffer: the bytes are laid out
//! once, aligned for the datapath, and never decoded or copied again.
//! [`AlignedVec<T>`] is the software rendition of that buffer: a growable
//! vector of plain-old-data elements kept in a `Vec` of [`ALIGN`]-byte
//! lines, so std's allocator supplies the alignment, the amortised
//! growth, `Drop`, `Clone`, `Send` and `Sync`. [`AlignedBytes`]
//! (`AlignedVec<u8>`) adds the image writer's padding helpers and safe
//! typed views (`&[i8]`, `&[i64]`, …) carved out at validated offsets.
//!
//! Three consumers build on it:
//!
//! * [`PackedPow2Matrix`](crate::PackedPow2Matrix) backs its nibble codes
//!   with either an owned [`AlignedBytes`] or a shared window into one
//!   (`Arc`-refcounted), so a deployment image can lend its weight bytes
//!   to the kernel with zero copies.
//! * [`I64Section`] does the same for bias vectors, which the datapath
//!   reads as little-endian `i64` accumulator constants.
//! * `mfdfp-tensor`'s `Workspace` lanes are `AlignedVec<i8>` and
//!   `AlignedVec<f32>`.
//!
//! Alignment contract: the base pointer of every [`AlignedVec`] — empty
//! ones included — is [`ALIGN`]-byte aligned, so any interior byte offset
//! that is a multiple of `size_of::<T>()` yields a well-aligned `&[T]`.
//!
//! The module's only `unsafe` is one private cast from `&[Line]` to
//! `&[T]` and its `&mut` twin; every typed slice and view is safe
//! indexing on top of them.

use std::marker::PhantomData;
use std::sync::Arc;

use crate::error::{DfpError, Result};

/// Alignment (bytes) of every [`AlignedVec`] allocation: one x86 cache
/// line, which is also the widest vector lane (AVX-512) any planned
/// kernel loads.
pub const ALIGN: usize = 64;

mod sealed {
    pub trait Sealed {}
}

/// Plain-old-data element types that may live in an [`AlignedVec`] or be
/// viewed out of an [`AlignedBytes`] region: fixed-size numeric types
/// with no padding, no invalid bit patterns and no drop glue.
///
/// Sealed — implemented for `i8`, `u8`, `i32`, `u32`, `i64`, `u64`,
/// `f32`.
pub trait Pod: sealed::Sealed + Copy + Send + Sync + 'static {}

macro_rules! pod {
    ($($t:ty),*) => {$(
        impl sealed::Sealed for $t {}
        impl Pod for $t {}
        // The `Pod` half of the cast invariant (see `elems`).
        const _: () = assert!(
            size_of::<$t>() == align_of::<$t>() && ALIGN.is_multiple_of(size_of::<$t>())
        );
    )*};
}

pod!(i8, u8, i32, u32, i64, u64, f32);

/// One [`ALIGN`]-byte storage line. A `Vec<Line>` is an [`ALIGN`]-aligned
/// allocation by construction, and its dangling empty pointer is too.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Line([u8; ALIGN]);

const _: () = assert!(size_of::<Line>() == ALIGN && align_of::<Line>() == ALIGN);

/// Every line of `lines`, reinterpreted as `T`s.
fn elems<T: Pod>(lines: &[Line]) -> &[T] {
    let n = lines.len() * (ALIGN / size_of::<T>());
    // SAFETY: the invariant is that every line is initialised and
    // ALIGN-aligned (`Line` is plain bytes with `align(64)`; an empty
    // slice's dangling pointer is aligned to `Line` too), and each `Pod`
    // type's size equals its alignment and divides ALIGN (const-asserted
    // at `pod!`). So the pointer is aligned for `T`, the `lines.len() *
    // ALIGN` initialised bytes hold exactly `n` whole `T`s, and every
    // `Pod` accepts any bit pattern. The result borrows `lines`.
    unsafe { std::slice::from_raw_parts(lines.as_ptr().cast::<T>(), n) }
}

/// [`elems`], mutably.
fn elems_mut<T: Pod>(lines: &mut [Line]) -> &mut [T] {
    let n = lines.len() * (ALIGN / size_of::<T>());
    // SAFETY: as `elems`, and the `&mut` borrow makes the view unique.
    unsafe { std::slice::from_raw_parts_mut(lines.as_mut_ptr().cast::<T>(), n) }
}

/// A growable vector of [`Pod`] elements whose base pointer is always
/// [`ALIGN`]-byte aligned.
///
/// Supports the `Vec` subset the workspace needs — `resize`, `reserve`,
/// `extend_from_slice`, `push`, slice deref — with the alignment part of
/// the type's contract, so a reader may stream rows into aligned SIMD
/// loads without runtime checks beyond offset arithmetic. Lengths may
/// shrink (cheap, just a counter), but capacity never does: like the
/// `Workspace` lanes built on it, an `AlignedVec` warms to its peak and
/// stays there.
///
/// # Examples
///
/// ```
/// use mfdfp_dfp::aligned::{AlignedVec, ALIGN};
///
/// let mut v: AlignedVec<i64> = AlignedVec::new();
/// v.resize(5, -1);
/// v[0] = 42;
/// assert_eq!(&v[..], &[42, -1, -1, -1, -1]);
/// assert_eq!(v.as_ptr() as usize % ALIGN, 0);
/// ```
#[derive(Clone)]
pub struct AlignedVec<T: Pod> {
    /// Backing lines. Lines are appended zeroed and never removed, so
    /// `lines.len()` is a high-water mark: shrinking and regrowing the
    /// length within it touches no allocator.
    lines: Vec<Line>,
    /// Element count: the first `len` of `elems(&lines)`.
    len: usize,
    _elem: PhantomData<T>,
}

impl<T: Pod> AlignedVec<T> {
    /// Elements per line.
    const PER_LINE: usize = ALIGN / size_of::<T>();

    /// An empty vector; allocates nothing until elements are added.
    pub const fn new() -> Self {
        AlignedVec { lines: Vec::new(), len: 0, _elem: PhantomData }
    }

    /// An empty vector with room for `cap` elements (rounded up to whole
    /// lines).
    pub fn with_capacity(cap: usize) -> Self {
        AlignedVec { lines: Vec::with_capacity(cap.div_ceil(Self::PER_LINE)), ..Self::new() }
    }

    /// Copies `items` into a fresh aligned vector.
    pub fn from_slice(items: &[T]) -> Self {
        let mut v = Self::with_capacity(items.len());
        v.extend_from_slice(items);
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
        self.lines.capacity() * Self::PER_LINE
    }

    /// Base pointer; [`ALIGN`]-byte aligned (for the empty vector it is a
    /// dangling aligned address, never to be dereferenced).
    pub fn as_ptr(&self) -> *const T {
        self.lines.as_ptr().cast()
    }

    /// Base pointer, mutably (see [`AlignedVec::as_ptr`]).
    pub fn as_mut_ptr(&mut self) -> *mut T {
        self.lines.as_mut_ptr().cast()
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        &elems(&self.lines)[..self.len]
    }

    /// The elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut elems_mut(&mut self.lines)[..self.len]
    }

    /// Ensures capacity for at least `total` elements (a total, not an
    /// increment), preserving contents and alignment. Growth at least
    /// doubles, except from empty, where a planned buffer gets exactly
    /// its plan; capacity never shrinks.
    pub fn reserve(&mut self, total: usize) {
        let (lines, cap) = (total.div_ceil(Self::PER_LINE), self.lines.capacity());
        if lines > cap {
            self.lines.reserve_exact(lines.max(2 * cap) - self.lines.len());
        }
    }

    /// Sets the length, appending zeroed lines when `len` outgrows the
    /// high-water mark. Elements past the old length hold zeros or stale
    /// values until the caller writes them.
    fn set_len(&mut self, len: usize) {
        let lines = len.div_ceil(Self::PER_LINE);
        if lines > self.lines.len() {
            self.lines.resize(lines, Line([0; ALIGN]));
        }
        self.len = len;
    }

    /// Resizes to `len` elements; new elements are `fill`. Shrinking only
    /// drops the logical length — capacity is retained, so a warmed
    /// buffer never re-allocates for a smaller pass.
    pub fn resize(&mut self, len: usize, fill: T) {
        let old = self.len;
        self.set_len(len);
        if len > old {
            self.as_mut_slice()[old..].fill(fill);
        }
    }

    /// Drops all elements (capacity retained).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Appends `items` at the end.
    pub fn extend_from_slice(&mut self, items: &[T]) {
        let old = self.len;
        self.set_len(old + items.len());
        self.as_mut_slice()[old..].copy_from_slice(items);
    }

    /// Appends one element.
    pub fn push(&mut self, item: T) {
        self.extend_from_slice(&[item]);
    }
}

/// An owned, growable byte buffer whose base pointer is always
/// [`ALIGN`]-byte aligned — the storage cell behind deployment images and
/// packed weight matrices.
///
/// # Examples
///
/// ```
/// use mfdfp_dfp::aligned::{AlignedBytes, ALIGN};
///
/// let mut buf = AlignedBytes::new();
/// buf.extend_from_slice(&[1u8, 2, 3]);
/// buf.pad_to(8);
/// assert_eq!(buf.len(), 8);
/// assert_eq!(buf.as_ptr() as usize % ALIGN, 0);
/// let words: &[i64] = buf.view::<i64>(0, 1)?;
/// assert_eq!(words[0], i64::from_le_bytes([1, 2, 3, 0, 0, 0, 0, 0]));
/// # Ok::<(), mfdfp_dfp::DfpError>(())
/// ```
pub type AlignedBytes = AlignedVec<u8>;

impl AlignedVec<u8> {
    /// Grows the buffer to `len` bytes, zero-filling the new tail.
    /// Grow-only: a smaller `len` is a no-op.
    pub fn grow_zeroed(&mut self, len: usize) {
        if len > self.len {
            self.resize(len, 0);
        }
    }

    /// Appends zero bytes until `len()` is a multiple of `align`
    /// (a power of two). Image writers use this to start every section
    /// on an aligned boundary.
    pub fn pad_to(&mut self, align: usize) {
        debug_assert!(align.is_power_of_two());
        self.grow_zeroed(self.len.next_multiple_of(align));
    }

    /// A typed view of `count` elements of `T` starting at byte
    /// `offset` — the zero-copy read path of the deployment image.
    ///
    /// # Errors
    ///
    /// [`DfpError::Misaligned`] if `offset` is not a multiple of
    /// `align_of::<T>()`; [`DfpError::LengthMismatch`] if the range runs
    /// past the buffer's bytes.
    pub fn view<T: Pod>(&self, offset: usize, count: usize) -> Result<&[T]> {
        // `size_of::<T>() == align_of::<T>()` for every `Pod`, so an
        // aligned offset is a whole number of elements.
        let size = size_of::<T>();
        if !offset.is_multiple_of(size) {
            return Err(DfpError::Misaligned { offset, align: size });
        }
        match count.checked_mul(size).and_then(|b| b.checked_add(offset)) {
            Some(end) if end <= self.len => {
                let first = offset / size;
                Ok(&elems(&self.lines)[first..first + count])
            }
            _ => Err(DfpError::LengthMismatch {
                expected: offset.saturating_add(count.saturating_mul(size)),
                actual: self.len,
            }),
        }
    }
}

impl<T: Pod> Default for AlignedVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Pod> std::fmt::Debug for AlignedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedVec").field("len", &self.len).field("cap", &self.capacity()).finish()
    }
}

impl<T: Pod + PartialEq> PartialEq for AlignedVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod + Eq> Eq for AlignedVec<T> {}

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

impl<T: Pod> From<&[T]> for AlignedVec<T> {
    fn from(items: &[T]) -> Self {
        Self::from_slice(items)
    }
}

impl<T: Pod> From<Vec<T>> for AlignedVec<T> {
    fn from(items: Vec<T>) -> Self {
        Self::from_slice(&items)
    }
}

/// A bias vector: either owned `i64` values or a zero-copy window into a
/// shared aligned buffer (a deployment image).
///
/// Both variants dereference to `&[i64]`, so the datapath is oblivious
/// to the backing. The shared variant is how `QuantizedNet::from_image`
/// (in `mfdfp-core`) lends image bytes to the accelerator layers without
/// copying them.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use mfdfp_dfp::aligned::{AlignedBytes, I64Section};
///
/// let owned: I64Section = vec![1i64, -2, 3].into();
/// let mut buf = AlignedBytes::new();
/// for v in [1i64, -2, 3] {
///     buf.extend_from_slice(&v.to_le_bytes());
/// }
/// let shared = I64Section::from_shared(Arc::new(buf), 0, 3)?;
/// assert_eq!(&owned[..], &shared[..]);
/// assert_eq!(owned, shared);
/// # Ok::<(), mfdfp_dfp::DfpError>(())
/// ```
#[derive(Debug, Clone)]
pub enum I64Section {
    /// Values held in a plain vector (the training / direct-construction
    /// path).
    Owned(Vec<i64>),
    /// A validated window into a shared aligned buffer (the deployment
    /// image path; zero bytes copied).
    Shared {
        /// The backing buffer, shared with the image and sibling layers.
        buf: Arc<AlignedBytes>,
        /// Byte offset of the first element; always a multiple of 8.
        offset: usize,
        /// Element count.
        len: usize,
    },
}

impl I64Section {
    /// A zero-copy window of `len` little-endian `i64` values at byte
    /// `offset` into `buf`.
    ///
    /// On big-endian targets the values are decoded into an owned vector
    /// instead (correct everywhere, zero-copy where the wire format
    /// matches memory).
    ///
    /// # Errors
    ///
    /// [`DfpError::Misaligned`] if `offset` is not 8-byte aligned;
    /// [`DfpError::LengthMismatch`] if the window runs past `buf`.
    pub fn from_shared(buf: Arc<AlignedBytes>, offset: usize, len: usize) -> Result<Self> {
        // Validate eagerly so `Deref` can be infallible.
        buf.view::<i64>(offset, len)?;
        #[cfg(target_endian = "little")]
        {
            Ok(I64Section::Shared { buf, offset, len })
        }
        #[cfg(not(target_endian = "little"))]
        {
            let bytes = &buf.as_slice()[offset..offset + len * 8];
            let vals = bytes
                .chunks_exact(8)
                .map(|c| i64::from_le_bytes(c.try_into().expect("chunk of 8")))
                .collect();
            Ok(I64Section::Owned(vals))
        }
    }

    /// The values as a slice.
    pub fn as_slice(&self) -> &[i64] {
        match self {
            I64Section::Owned(v) => v,
            I64Section::Shared { buf, offset, len } => {
                buf.view::<i64>(*offset, *len).expect("validated at construction")
            }
        }
    }

    /// Whether this section borrows from a shared buffer (true) or owns
    /// its values (false).
    pub fn is_shared(&self) -> bool {
        matches!(self, I64Section::Shared { .. })
    }
}

impl std::ops::Deref for I64Section {
    type Target = [i64];
    fn deref(&self) -> &[i64] {
        self.as_slice()
    }
}

impl From<Vec<i64>> for I64Section {
    fn from(v: Vec<i64>) -> Self {
        I64Section::Owned(v)
    }
}

impl PartialEq for I64Section {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for I64Section {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_buffer_allocates_nothing() {
        let b = AlignedBytes::new();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.capacity(), 0);
        assert!(b.as_slice().is_empty());
        assert_eq!(b.as_ptr() as usize % ALIGN, 0);
    }

    #[test]
    fn base_pointer_is_always_aligned() {
        for n in [1usize, 63, 64, 65, 1000, 4096] {
            let b = AlignedBytes::from_slice(&vec![0xA5u8; n]);
            assert_eq!(b.as_ptr() as usize % ALIGN, 0, "n={n}");
            assert_eq!(b.len(), n);
        }
    }

    #[test]
    fn growth_preserves_contents_and_alignment() {
        let mut b = AlignedBytes::new();
        let mut mirror = Vec::new();
        for i in 0..1000u32 {
            let bytes = i.to_le_bytes();
            b.extend_from_slice(&bytes);
            mirror.extend_from_slice(&bytes);
            assert_eq!(b.as_ptr() as usize % ALIGN, 0);
        }
        assert_eq!(b.as_slice(), mirror.as_slice());
    }

    #[test]
    fn pad_to_zero_fills() {
        let mut b = AlignedBytes::from_slice(&[0xFFu8; 5]);
        b.pad_to(64);
        assert_eq!(b.len(), 64);
        assert!(b.as_slice()[5..].iter().all(|&x| x == 0));
        b.pad_to(64); // already aligned: no-op
        assert_eq!(b.len(), 64);
    }

    #[test]
    fn typed_views_round_trip() {
        let vals: Vec<i64> = (0..9).map(|i| i * 1_000_000_007 - 4).collect();
        let mut b = AlignedBytes::new();
        for v in &vals {
            b.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(b.view::<i64>(0, vals.len()).unwrap(), vals.as_slice());
        assert_eq!(b.view::<i64>(8, 2).unwrap(), &vals[1..3]);
        assert_eq!(b.view::<u8>(0, b.len()).unwrap(), b.as_slice());
        let i8s = b.view::<i8>(0, b.len()).unwrap();
        assert_eq!(i8s.len(), b.len());
    }

    #[test]
    fn view_rejects_misalignment_and_overrun() {
        let b = AlignedBytes::from_slice(&[0u8; 32]);
        assert!(matches!(b.view::<i64>(4, 1), Err(DfpError::Misaligned { offset: 4, align: 8 })));
        assert!(matches!(b.view::<i64>(0, 5), Err(DfpError::LengthMismatch { .. })));
        assert!(matches!(b.view::<i64>(32, 1), Err(DfpError::LengthMismatch { .. })));
        // Zero-length views at the end are fine.
        assert_eq!(b.view::<i64>(32, 0).unwrap(), &[] as &[i64]);
        // Overflowing arithmetic must error, not wrap.
        assert!(b.view::<i64>(8, usize::MAX / 4).is_err());
    }

    #[test]
    fn clone_eq_debug() {
        let a = AlignedBytes::from_slice(b"hello world");
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, AlignedBytes::from_slice(b"hello worlb"));
        assert!(format!("{a:?}").contains("len"));
    }

    #[test]
    fn i64_section_owned_and_shared_agree() {
        let vals = vec![i64::MIN, -1, 0, 1, i64::MAX];
        let owned = I64Section::from(vals.clone());
        assert!(!owned.is_shared());
        let mut buf = AlignedBytes::new();
        for v in &vals {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let shared = I64Section::from_shared(Arc::new(buf), 0, vals.len()).unwrap();
        assert_eq!(&owned[..], vals.as_slice());
        assert_eq!(&shared[..], vals.as_slice());
        assert_eq!(owned, shared);
    }

    #[test]
    fn i64_section_rejects_bad_windows() {
        let buf = Arc::new(AlignedBytes::from_slice(&[0u8; 24]));
        assert!(I64Section::from_shared(Arc::clone(&buf), 4, 1).is_err());
        assert!(I64Section::from_shared(Arc::clone(&buf), 0, 4).is_err());
        assert!(I64Section::from_shared(Arc::clone(&buf), 24, 1).is_err());
        assert!(I64Section::from_shared(buf, 24, 0).is_ok());
    }

    #[test]
    fn aligned_bytes_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AlignedBytes>();
        assert_send_sync::<AlignedVec<f32>>();
        assert_send_sync::<I64Section>();
    }

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
