//! Row-aligned nibble-packed weight matrices — the storage format the
//! shift-only GEMM kernel ([`mfdfp_tensor::ops::qgemm`] in the tensor
//! crate) consumes directly, with no per-element [`Pow2Weight`] decode.
//!
//! Each weight is the 4-bit hardware code of [`Pow2Weight::encode4`]; two
//! codes share a byte (low nibble first).
//! **Every row starts on a byte boundary**: a row of odd length carries one
//! zero pad nibble at its end, which consumers must skip — code `0`
//! decodes to `+2^0 = +1`, not zero, so the pad nibble is *never* part of
//! the arithmetic. Row alignment is what lets a kernel slice out one
//! output neuron's weights as a plain `&[u8]` without bit offsets.
//!
//! Since PR 6 the backing bytes live in an [`AlignedBytes`] cell — either
//! owned by the matrix or a shared window into a deployment image
//! ([`PackedPow2Matrix::from_shared`]), so loading a model image lends its
//! weight payload to the kernel with zero copies. The row stride may also
//! exceed the minimal `ceil(cols/2)`
//! ([`PackedPow2Matrix::from_weights_with_stride`]); an image records it
//! per layer.

use std::sync::Arc;

use crate::aligned::AlignedBytes;
use crate::error::{DfpError, Result};
use crate::pow2::Pow2Weight;

/// The byte region holding the packed nibbles: owned by this matrix or a
/// window into a shared buffer (a deployment image).
#[derive(Debug, Clone)]
enum Storage {
    Owned(AlignedBytes),
    Shared { buf: Arc<AlignedBytes>, offset: usize, len: usize },
}

impl Storage {
    fn bytes(&self) -> &[u8] {
        match self {
            Storage::Owned(b) => b.as_slice(),
            Storage::Shared { buf, offset, len } => &buf.as_slice()[*offset..*offset + *len],
        }
    }
}

/// A `rows × cols` matrix of power-of-two weights, stored as row-aligned
/// packed 4-bit codes.
///
/// This is the deployed form of a weight matrix: 4 bits per weight plus at
/// most one pad nibble per row, i.e. the same 8× compression as the
/// paper's weight buffer, in a layout a shift-only kernel can stream.
/// The backing bytes are 64-byte-[`AlignedBytes`], owned or borrowed
/// zero-copy from a shared deployment image.
///
/// # Examples
///
/// ```
/// use mfdfp_dfp::{PackedPow2Matrix, Pow2Weight};
///
/// // A 2×3 matrix: each 3-code row occupies 2 bytes (one pad nibble).
/// let ws: Vec<Pow2Weight> =
///     [0.5f32, -0.25, 1.0, -1.0, 0.125, 0.0078125].iter().map(|&w| Pow2Weight::from_f32(w)).collect();
/// let m = PackedPow2Matrix::from_weights(2, 3, &ws)?;
/// assert_eq!(m.row_stride(), 2);
/// assert_eq!(m.get(0, 1), Pow2Weight::from_f32(-0.25));
/// assert_eq!(m.to_weights(), ws); // lossless round trip
/// # Ok::<(), mfdfp_dfp::DfpError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PackedPow2Matrix {
    rows: usize,
    cols: usize,
    stride: usize,
    storage: Storage,
}

impl PackedPow2Matrix {
    /// Packs `rows × cols` weights (row-major) into nibble codes with the
    /// minimal row stride `ceil(cols/2)` — the most compact image form.
    ///
    /// # Errors
    ///
    /// Returns [`DfpError::LengthMismatch`] if `ws.len() != rows * cols`.
    pub fn from_weights(rows: usize, cols: usize, ws: &[Pow2Weight]) -> Result<Self> {
        Self::from_weights_with_stride(rows, cols, cols.div_ceil(2), ws)
    }

    /// Packs `rows × cols` weights with an explicit row stride (bytes).
    ///
    /// # Errors
    ///
    /// Returns [`DfpError::LengthMismatch`] if `ws.len() != rows * cols`
    /// or `stride < ceil(cols/2)`.
    pub fn from_weights_with_stride(
        rows: usize,
        cols: usize,
        stride: usize,
        ws: &[Pow2Weight],
    ) -> Result<Self> {
        if ws.len() != rows * cols {
            return Err(DfpError::LengthMismatch { expected: rows * cols, actual: ws.len() });
        }
        let payload = cols.div_ceil(2);
        if stride < payload {
            return Err(DfpError::LengthMismatch { expected: payload, actual: stride });
        }
        let mut data = AlignedBytes::with_capacity(rows * stride);
        let mut row_buf = vec![0u8; stride];
        for r in 0..rows {
            row_buf.fill(0);
            let row = &ws[r * cols..(r + 1) * cols];
            for (byte, pair) in row_buf.iter_mut().zip(row.chunks(2)) {
                let lo = pair[0].encode4();
                let hi = if pair.len() == 2 { pair[1].encode4() } else { 0 };
                *byte = (hi << 4) | lo;
            }
            data.extend_from_slice(&row_buf);
        }
        Ok(PackedPow2Matrix { rows, cols, stride, storage: Storage::Owned(data) })
    }

    /// Quantizes `rows × cols` float weights (row-major) to powers of two
    /// and packs them — the one-step path from a trained layer to its
    /// deployed weight buffer.
    ///
    /// # Errors
    ///
    /// Returns [`DfpError::LengthMismatch`] if `ws.len() != rows * cols`.
    pub fn from_f32(rows: usize, cols: usize, ws: &[f32]) -> Result<Self> {
        let quantized: Vec<Pow2Weight> = ws.iter().map(|&w| Pow2Weight::from_f32(w)).collect();
        Self::from_weights(rows, cols, &quantized)
    }

    /// A zero-copy matrix over `rows * stride` packed bytes at `offset`
    /// into a shared buffer — the deployment-image read path. No byte is
    /// copied or decoded; the image's nibble payload *is* the kernel's
    /// weight buffer.
    ///
    /// # Errors
    ///
    /// Returns [`DfpError::LengthMismatch`] if `stride < ceil(cols/2)` or
    /// the window runs past `buf`.
    pub fn from_shared(
        rows: usize,
        cols: usize,
        stride: usize,
        buf: Arc<AlignedBytes>,
        offset: usize,
    ) -> Result<Self> {
        let payload = cols.div_ceil(2);
        if stride < payload {
            return Err(DfpError::LengthMismatch { expected: payload, actual: stride });
        }
        let len = rows
            .checked_mul(stride)
            .ok_or(DfpError::LengthMismatch { expected: usize::MAX, actual: buf.len() })?;
        let end = offset
            .checked_add(len)
            .ok_or(DfpError::LengthMismatch { expected: usize::MAX, actual: buf.len() })?;
        if end > buf.len() {
            return Err(DfpError::LengthMismatch { expected: end, actual: buf.len() });
        }
        Ok(PackedPow2Matrix { rows, cols, stride, storage: Storage::Shared { buf, offset, len } })
    }

    /// Number of weight rows (output neurons).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of weight columns (input synapses per neuron).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total weight count (`rows × cols`), pad nibbles excluded.
    pub fn count(&self) -> usize {
        self.rows * self.cols
    }

    /// Bytes between consecutive row starts. At least
    /// `ceil(cols / 2)` (the payload size); more when the matrix was
    /// built with an aligned stride.
    pub fn row_stride(&self) -> usize {
        self.stride
    }

    /// Payload bytes per row: `ceil(cols / 2)`, independent of stride.
    pub fn row_payload_bytes(&self) -> usize {
        self.cols.div_ceil(2)
    }

    /// Whether the backing bytes are a zero-copy window into a shared
    /// buffer (a deployment image) rather than owned by this matrix.
    pub fn is_shared(&self) -> bool {
        matches!(self.storage, Storage::Shared { .. })
    }

    /// The packed payload bytes of row `r`: `ceil(cols / 2)` bytes, low
    /// nibble first; for odd `cols` the final high nibble is zero
    /// padding. Stride padding beyond the payload is never included.
    pub fn row_bytes(&self, r: usize) -> &[u8] {
        let start = r * self.stride;
        &self.storage.bytes()[start..start + self.row_payload_bytes()]
    }

    /// The whole packed backing region, row-major: `rows * row_stride()`
    /// bytes including any inter-row stride padding. With the default
    /// minimal stride this is exactly the per-row-aligned nibble image.
    pub fn as_bytes(&self) -> &[u8] {
        self.storage.bytes()
    }

    /// Decodes the weight at `(r, c)` — a convenience for tests and
    /// reference paths; the hot kernel never calls this.
    pub fn get(&self, r: usize, c: usize) -> Pow2Weight {
        let byte = self.storage.bytes()[r * self.stride + c / 2];
        let nibble = if c.is_multiple_of(2) { byte & 0xF } else { byte >> 4 };
        Pow2Weight::decode4(nibble).expect("4-bit nibble is always a valid code")
    }

    /// Unpacks every weight back to [`Pow2Weight`] values (row-major, pad
    /// nibbles skipped) — the decode-based reference path uses this;
    /// inference does not.
    pub fn to_weights(&self) -> Vec<Pow2Weight> {
        let mut out = Vec::with_capacity(self.count());
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.push(self.get(r, c));
            }
        }
        out
    }
}

/// Equality is *logical*: same shape and same weight codes, regardless of
/// row stride or whether the backing is owned or shared. Pad nibbles and
/// stride padding never participate.
impl PartialEq for PackedPow2Matrix {
    fn eq(&self, other: &Self) -> bool {
        if self.rows != other.rows || self.cols != other.cols {
            return false;
        }
        let payload = self.row_payload_bytes();
        let odd = !self.cols.is_multiple_of(2);
        for r in 0..self.rows {
            let (a, b) = (self.row_bytes(r), other.row_bytes(r));
            if payload == 0 {
                continue;
            }
            if a[..payload - 1] != b[..payload - 1] {
                return false;
            }
            // Mask the pad nibble of the last byte for odd row lengths so
            // a shared window with dirty padding still compares by value.
            let mask = if odd { 0x0F } else { 0xFF };
            if a[payload - 1] & mask != b[payload - 1] & mask {
                return false;
            }
        }
        true
    }
}

impl Eq for PackedPow2Matrix {}

#[cfg(test)]
mod tests {
    use super::*;

    fn weights(n: usize) -> Vec<Pow2Weight> {
        (0..n).map(|i| Pow2Weight::decode4((i % 16) as u8).unwrap()).collect()
    }

    #[test]
    fn round_trips_even_and_odd_row_lengths() {
        for cols in [1usize, 2, 3, 7, 8] {
            for rows in [1usize, 2, 5] {
                let ws = weights(rows * cols);
                let m = PackedPow2Matrix::from_weights(rows, cols, &ws).unwrap();
                assert_eq!(m.rows(), rows);
                assert_eq!(m.cols(), cols);
                assert_eq!(m.count(), rows * cols);
                assert_eq!(m.row_stride(), cols.div_ceil(2));
                assert_eq!(m.to_weights(), ws, "rows={rows} cols={cols}");
                for r in 0..rows {
                    for c in 0..cols {
                        assert_eq!(m.get(r, c), ws[r * cols + c]);
                    }
                }
            }
        }
    }

    #[test]
    fn even_rows_match_flat_nibble_packing() {
        // With even cols there are no pad nibbles, so the buffer is exactly
        // the flat image: two codes per byte, low nibble first.
        let ws = weights(4 * 6);
        let m = PackedPow2Matrix::from_weights(4, 6, &ws).unwrap();
        let flat: Vec<u8> = ws.chunks(2).map(|p| (p[1].encode4() << 4) | p[0].encode4()).collect();
        assert_eq!(m.as_bytes(), flat.as_slice());
    }

    #[test]
    fn odd_rows_are_byte_aligned_with_zero_pad() {
        let ws = weights(2 * 3);
        let m = PackedPow2Matrix::from_weights(2, 3, &ws).unwrap();
        assert_eq!(m.as_bytes().len(), 4); // 2 rows × 2 bytes
        assert_eq!(m.row_bytes(0)[1] >> 4, 0, "pad nibble must be zero");
        assert_eq!(m.row_bytes(1)[1] >> 4, 0);
    }

    #[test]
    fn degenerate_shapes() {
        let m = PackedPow2Matrix::from_weights(0, 5, &[]).unwrap();
        assert_eq!(m.count(), 0);
        assert!(m.as_bytes().is_empty());
        let m = PackedPow2Matrix::from_weights(3, 0, &[]).unwrap();
        assert_eq!(m.row_stride(), 0);
        assert_eq!(m.to_weights(), vec![]);
    }

    #[test]
    fn rejects_wrong_count() {
        assert!(PackedPow2Matrix::from_weights(2, 2, &weights(3)).is_err());
        assert!(PackedPow2Matrix::from_f32(2, 2, &[0.5; 5]).is_err());
    }

    #[test]
    fn from_f32_quantizes_like_pow2weight() {
        let vals = [0.3f32, -0.6, 0.01, 1.0];
        let m = PackedPow2Matrix::from_f32(2, 2, &vals).unwrap();
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(m.get(i / 2, i % 2), Pow2Weight::from_f32(v));
        }
    }

    #[test]
    fn aligned_stride_is_logically_equal_to_compact() {
        for (rows, cols) in [(1usize, 1usize), (3, 5), (4, 6), (2, 129)] {
            let ws = weights(rows * cols);
            let compact = PackedPow2Matrix::from_weights(rows, cols, &ws).unwrap();
            let stride = cols.div_ceil(2).next_multiple_of(64);
            let aligned =
                PackedPow2Matrix::from_weights_with_stride(rows, cols, stride, &ws).unwrap();
            assert_eq!(aligned.row_stride() % 64, 0);
            assert_eq!(aligned.row_payload_bytes(), compact.row_stride());
            assert_eq!(aligned, compact, "rows={rows} cols={cols}");
            assert_eq!(aligned.to_weights(), ws);
            for r in 0..rows {
                assert_eq!(aligned.row_bytes(r), compact.row_bytes(r));
            }
        }
    }

    #[test]
    fn shared_window_is_zero_copy_and_equal() {
        let ws = weights(3 * 5);
        let owned = PackedPow2Matrix::from_weights(3, 5, &ws).unwrap();
        // Build a buffer with a 64-byte header before the payload, as a
        // deployment image would.
        let mut buf = AlignedBytes::from_slice(&[0xEEu8; 64]);
        buf.extend_from_slice(owned.as_bytes());
        let buf = Arc::new(buf);
        let shared =
            PackedPow2Matrix::from_shared(3, 5, owned.row_stride(), Arc::clone(&buf), 64).unwrap();
        assert!(shared.is_shared());
        assert!(!owned.is_shared());
        assert_eq!(shared, owned);
        assert_eq!(shared.to_weights(), ws);
        assert_eq!(shared.as_bytes().as_ptr(), unsafe { buf.as_ptr().add(64) });
    }

    #[test]
    fn from_shared_rejects_bad_geometry() {
        let buf = Arc::new(AlignedBytes::from_slice(&[0u8; 64]));
        // stride below payload
        assert!(PackedPow2Matrix::from_shared(2, 5, 2, Arc::clone(&buf), 0).is_err());
        // window past end
        assert!(PackedPow2Matrix::from_shared(2, 64, 32, Arc::clone(&buf), 32).is_err());
        // overflowing arithmetic
        assert!(PackedPow2Matrix::from_shared(usize::MAX, 2, 1, Arc::clone(&buf), 0).is_err());
        assert!(PackedPow2Matrix::from_shared(1, 2, 1, buf, usize::MAX).is_err());
    }

    #[test]
    fn equality_masks_dirty_pad_nibbles() {
        let ws = weights(2 * 3);
        let owned = PackedPow2Matrix::from_weights(2, 3, &ws).unwrap();
        // Same payload but with garbage in the pad nibbles.
        let mut dirty = owned.as_bytes().to_vec();
        dirty[1] |= 0xF0;
        dirty[3] |= 0xA0;
        let buf = Arc::new(AlignedBytes::from_slice(&dirty));
        let shared = PackedPow2Matrix::from_shared(2, 3, 2, buf, 0).unwrap();
        assert_eq!(shared, owned);
        assert_eq!(shared.to_weights(), ws);
    }
}
