//! Shapes, strides and index arithmetic for dense row-major tensors.

use std::fmt;

/// The dimensions of a dense, row-major tensor.
///
/// A `Shape` is an ordered list of dimension sizes. The rightmost dimension
/// varies fastest in memory (C order). Zero-sized dimensions are permitted
/// (the tensor then holds no elements), but a `Shape` always has at least one
/// axis.
///
/// # Examples
///
/// ```
/// use mfdfp_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a list of dimension sizes.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty; scalars are represented as `[1]`.
    pub fn new(dims: Vec<usize>) -> Self {
        assert!(!dims.is_empty(), "shape must have at least one dimension");
        Shape { dims }
    }

    /// Shape of a 1-D tensor of length `n`.
    pub fn d1(n: usize) -> Self {
        Shape::new(vec![n])
    }

    /// Shape of a 2-D (rows × cols) tensor.
    pub fn d2(rows: usize, cols: usize) -> Self {
        Shape::new(vec![rows, cols])
    }

    /// Shape of a 4-D NCHW tensor (batch, channels, height, width).
    pub fn nchw(n: usize, c: usize, h: usize, w: usize) -> Self {
        Shape::new(vec![n, c, h, w])
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of all dimensions).
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the shape contains no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The dimension sizes as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Size of axis `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// Row-major strides (in elements) for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat offset.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the index rank mismatches or any
    /// coordinate is out of bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.dims.len(), "index rank mismatch");
        let mut off = 0usize;
        let mut stride = 1usize;
        for axis in (0..self.dims.len()).rev() {
            debug_assert!(
                index[axis] < self.dims[axis],
                "index {} out of bounds for axis {} (size {})",
                index[axis],
                axis,
                self.dims[axis]
            );
            off += index[axis] * stride;
            stride *= self.dims[axis];
        }
        off
    }

    /// Interprets this shape as NCHW, returning `(n, c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if the rank is not 4.
    pub fn as_nchw(&self) -> (usize, usize, usize, usize) {
        assert_eq!(self.rank(), 4, "expected rank-4 NCHW shape, got {self}");
        (self.dims[0], self.dims[1], self.dims[2], self.dims[3])
    }

    /// Returns `true` if `other` has the same total element count, making a
    /// reshape between the two valid.
    pub fn reshape_compatible(&self, other: &Shape) -> bool {
        self.len() == other.len()
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape({:?})", self.dims)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "×")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_is_product_of_dims() {
        assert_eq!(Shape::new(vec![2, 3, 4]).len(), 24);
        assert_eq!(Shape::d1(7).len(), 7);
        assert_eq!(Shape::d2(3, 5).len(), 15);
    }

    #[test]
    fn zero_dim_yields_empty() {
        let s = Shape::new(vec![4, 0, 2]);
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn empty_dims_panics() {
        let _ = Shape::new(vec![]);
    }

    #[test]
    fn row_major_strides() {
        assert_eq!(Shape::new(vec![2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::d1(5).strides(), vec![1]);
        assert_eq!(Shape::nchw(2, 3, 8, 8).strides(), vec![192, 64, 8, 1]);
    }

    #[test]
    fn offset_round_trips_all_indices() {
        let s = Shape::new(vec![3, 4, 5]);
        let mut seen = vec![false; s.len()];
        for i in 0..3 {
            for j in 0..4 {
                for k in 0..5 {
                    let off = s.offset(&[i, j, k]);
                    assert!(!seen[off], "offset {off} visited twice");
                    seen[off] = true;
                }
            }
        }
        assert!(seen.iter().all(|&v| v));
    }

    #[test]
    fn offset_matches_strides() {
        let s = Shape::new(vec![2, 3, 4]);
        let strides = s.strides();
        assert_eq!(s.offset(&[1, 2, 3]), strides[0] + 2 * strides[1] + 3 * strides[2]);
    }

    #[test]
    fn nchw_accessor() {
        let s = Shape::nchw(8, 3, 32, 32);
        assert_eq!(s.as_nchw(), (8, 3, 32, 32));
    }

    #[test]
    #[should_panic(expected = "rank-4")]
    fn nchw_accessor_wrong_rank_panics() {
        Shape::d2(3, 3).as_nchw();
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Shape::new(vec![2, 3]).to_string(), "[2×3]");
    }

    #[test]
    fn from_array_and_slice() {
        let a: Shape = [2, 3].into();
        let b: Shape = vec![2, 3].into();
        assert_eq!(a, b);
    }

    #[test]
    fn reshape_compatibility() {
        assert!(Shape::new(vec![2, 6]).reshape_compatible(&Shape::new(vec![3, 4])));
        assert!(!Shape::new(vec![2, 6]).reshape_compatible(&Shape::new(vec![3, 5])));
    }
}
