//! The dense `f32` tensor type and its element-wise operations.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub};

use crate::error::{Result, TensorError};
use crate::Shape;

/// A dense, row-major, heap-allocated `f32` tensor.
///
/// This is the numeric workhorse of the workspace: activations, weights and
/// gradients are all `Tensor`s. Storage is always contiguous; views are not
/// supported (operations copy), which keeps the implementation simple and
/// predictable for a reproduction codebase.
///
/// # Examples
///
/// ```
/// use mfdfp_tensor::{Shape, Tensor};
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], Shape::d2(2, 2))?;
/// assert_eq!(t.at(&[1, 0]), 3.0);
/// assert_eq!(t.sum(), 10.0);
/// # Ok::<(), mfdfp_tensor::TensorError>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let len = shape.len();
        Tensor { shape, data: vec![0.0; len] }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let len = shape.len();
        Tensor { shape, data: vec![value; len] }
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Wraps an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] if `data.len()` differs from the
    /// shape's element count.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Result<Self> {
        let shape = shape.into();
        if data.len() != shape.len() {
            return Err(TensorError::DataLength { expected: shape.len(), actual: data.len() });
        }
        Ok(Tensor { shape, data })
    }

    /// Builds a 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor { shape: Shape::d1(data.len()), data: data.to_vec() }
    }

    /// Builds a tensor by evaluating `f` at every flat index.
    pub fn from_fn(shape: impl Into<Shape>, f: impl FnMut(usize) -> f32) -> Self {
        let shape = shape.into();
        let data = (0..shape.len()).map(f).collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying buffer (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) when the index is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable element access at a multi-dimensional index.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    /// Returns a copy with a new shape holding the same elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeLength`] if element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Tensor> {
        let shape = shape.into();
        if !self.shape.reshape_compatible(&shape) {
            return Err(TensorError::ReshapeLength { from: self.shape.clone(), to: shape });
        }
        Ok(Tensor { shape, data: self.data.clone() })
    }

    /// Reshapes in place (no copy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeLength`] if element counts differ.
    pub fn reshape_in_place(&mut self, shape: impl Into<Shape>) -> Result<()> {
        let shape = shape.into();
        if !self.shape.reshape_compatible(&shape) {
            return Err(TensorError::ReshapeLength { from: self.shape.clone(), to: shape });
        }
        self.shape = shape;
        Ok(())
    }

    /// Flattens to 1-D, preserving element order.
    pub fn flattened(&self) -> Tensor {
        Tensor { shape: Shape::d1(self.data.len()), data: self.data.clone() }
    }

    /// Applies `f` element-wise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Applies `f` element-wise in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped tensors element-wise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        self.check_same_shape(other, "zip_map")?;
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect();
        Ok(Tensor { shape: self.shape.clone(), data })
    }

    /// `self += alpha * other`, the BLAS `axpy` primitive.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        self.check_same_shape(other, "axpy")?;
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Multiplies every element by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Sets every element to zero.
    pub fn zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Largest element (−∞ for empty tensors).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Smallest element (+∞ for empty tensors).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Largest absolute value (0 for empty tensors).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Index of the largest element in the flattened buffer.
    ///
    /// Ties resolve to the earliest index. Returns 0 for empty tensors.
    pub fn argmax(&self) -> usize {
        let mut best = 0usize;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in self.data.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Squared L2 norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Dot product with another tensor of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        self.check_same_shape(other, "dot")?;
        Ok(self.data.iter().zip(&other.data).map(|(&a, &b)| a * b).sum())
    }

    /// Extracts the `n`-th slice along axis 0 (e.g. one sample of a batch).
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn index_axis0(&self, n: usize) -> Tensor {
        let d0 = self.shape.dim(0);
        assert!(n < d0, "axis-0 index {n} out of range (size {d0})");
        let inner: usize = self.shape.dims()[1..].iter().product();
        let data = self.data[n * inner..(n + 1) * inner].to_vec();
        let dims: Vec<usize> =
            if self.shape.rank() == 1 { vec![1] } else { self.shape.dims()[1..].to_vec() };
        Tensor { shape: Shape::new(dims), data }
    }

    /// Stacks same-shaped tensors along a new leading axis: `k` tensors of
    /// shape `d…` become one tensor of shape `k×d…`. This is the batch
    /// assembly primitive the serving runtime uses to coalesce queued
    /// single-image requests into one `N×C×H×W` inference batch.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] for an empty item list and
    /// [`TensorError::ShapeMismatch`] when items disagree on shape.
    pub fn stack_axis0(items: &[Tensor]) -> Result<Tensor> {
        let Some(first) = items.first() else {
            return Err(TensorError::DataLength { expected: 1, actual: 0 });
        };
        let mut data = Vec::with_capacity(items.len() * first.len());
        for item in items {
            if item.shape != first.shape {
                return Err(TensorError::ShapeMismatch {
                    left: first.shape.clone(),
                    right: item.shape.clone(),
                    op: "stack_axis0",
                });
            }
            data.extend_from_slice(&item.data);
        }
        let mut dims = Vec::with_capacity(first.shape.rank() + 1);
        dims.push(items.len());
        dims.extend_from_slice(first.shape.dims());
        Ok(Tensor { shape: Shape::new(dims), data })
    }

    /// Splits along axis 0 into its slices (inverse of
    /// [`Tensor::stack_axis0`] up to the leading unit axis): an `N×d…`
    /// tensor becomes `N` tensors of shape `d…`. The serving runtime uses
    /// this to scatter a batched logits matrix back into per-request
    /// responses.
    pub fn unstack_axis0(&self) -> Vec<Tensor> {
        (0..self.shape.dim(0)).map(|n| self.index_axis0(n)).collect()
    }

    /// Writes `src` into the `n`-th slice along axis 0.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range or the slice sizes differ.
    pub fn set_axis0(&mut self, n: usize, src: &Tensor) {
        let d0 = self.shape.dim(0);
        assert!(n < d0, "axis-0 index {n} out of range (size {d0})");
        let inner: usize = self.shape.dims()[1..].iter().product();
        assert_eq!(src.len(), inner, "slice length mismatch");
        self.data[n * inner..(n + 1) * inner].copy_from_slice(&src.data);
    }

    fn check_same_shape(&self, other: &Tensor, op: &'static str) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
                op,
            });
        }
        Ok(())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, "{:?}", self.data)
        } else {
            write!(f, "[{:?}, …; {}]", &self.data[..8], self.data.len())
        }
    }
}

impl Index<usize> for Tensor {
    type Output = f32;

    fn index(&self, i: usize) -> &f32 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Tensor {
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        &mut self.data[i]
    }
}

impl Add<&Tensor> for &Tensor {
    type Output = Tensor;

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ; use [`Tensor::zip_map`] for a fallible
    /// variant.
    fn add(self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a + b).expect("shape mismatch in tensor addition")
    }
}

impl Sub<&Tensor> for &Tensor {
    type Output = Tensor;

    /// Element-wise difference.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    fn sub(self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a - b).expect("shape mismatch in tensor subtraction")
    }
}

impl Mul<f32> for &Tensor {
    type Output = Tensor;

    fn mul(self, rhs: f32) -> Tensor {
        self.map(|x| x * rhs)
    }
}

impl AddAssign<&Tensor> for Tensor {
    /// # Panics
    ///
    /// Panics when shapes differ.
    fn add_assign(&mut self, rhs: &Tensor) {
        self.axpy(1.0, rhs).expect("shape mismatch in tensor +=");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        let z = Tensor::zeros([2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let o = Tensor::ones([2, 2]);
        assert_eq!(o.sum(), 4.0);
        let f = Tensor::full([3], 2.5);
        assert_eq!(f.as_slice(), &[2.5, 2.5, 2.5]);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![1.0; 6], Shape::d2(2, 3)).is_ok());
        let err = Tensor::from_vec(vec![1.0; 5], Shape::d2(2, 3)).unwrap_err();
        assert_eq!(err, TensorError::DataLength { expected: 6, actual: 5 });
    }

    #[test]
    fn multi_index_access() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), Shape::new(vec![2, 3, 4]))
            .unwrap();
        assert_eq!(t.at(&[0, 0, 0]), 0.0);
        assert_eq!(t.at(&[1, 2, 3]), 23.0);
        assert_eq!(t.at(&[1, 0, 2]), 14.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let r = t.reshape([2, 2]).unwrap();
        assert_eq!(r.at(&[1, 1]), 4.0);
        assert!(t.reshape([3, 2]).is_err());
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        let b = a.map(f32::abs);
        assert_eq!(b.as_slice(), &[1.0, 2.0, 3.0]);
        let c = a.zip_map(&b, |x, y| x + y).unwrap();
        assert_eq!(c.as_slice(), &[2.0, 0.0, 6.0]);
        let bad = Tensor::from_slice(&[1.0]);
        assert!(a.zip_map(&bad, |x, _| x).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_slice(&[1.0, 1.0]);
        let g = Tensor::from_slice(&[2.0, -4.0]);
        a.axpy(0.5, &g).unwrap();
        assert_eq!(a.as_slice(), &[2.0, -1.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_slice(&[-3.0, 1.0, 2.0]);
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.max(), 2.0);
        assert_eq!(t.min(), -3.0);
        assert_eq!(t.abs_max(), 3.0);
        assert_eq!(t.argmax(), 2);
        assert_eq!(t.norm_sq(), 14.0);
    }

    #[test]
    fn argmax_prefers_first_on_ties() {
        let t = Tensor::from_slice(&[1.0, 5.0, 5.0]);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn dot_product() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
    }

    #[test]
    fn axis0_slicing_round_trip() {
        let t =
            Tensor::from_vec((0..12).map(|i| i as f32).collect(), Shape::new(vec![3, 4])).unwrap();
        let row1 = t.index_axis0(1);
        assert_eq!(row1.as_slice(), &[4.0, 5.0, 6.0, 7.0]);
        let mut t2 = Tensor::zeros([3, 4]);
        t2.set_axis0(1, &row1);
        assert_eq!(t2.at(&[1, 2]), 6.0);
        assert_eq!(t2.at(&[0, 0]), 0.0);
    }

    #[test]
    fn stack_axis0_builds_batches() {
        let a = Tensor::from_vec(vec![1.0, 2.0], Shape::d2(1, 2)).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], Shape::d2(1, 2)).unwrap();
        let batch = Tensor::stack_axis0(&[a.clone(), b]).unwrap();
        assert_eq!(batch.shape().dims(), &[2, 1, 2]);
        assert_eq!(batch.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        // Errors: empty list, mismatched shapes.
        assert!(Tensor::stack_axis0(&[]).is_err());
        let c = Tensor::from_slice(&[9.0]);
        assert!(Tensor::stack_axis0(&[a, c]).is_err());
    }

    #[test]
    fn unstack_inverts_stack() {
        let items: Vec<Tensor> =
            (0..3).map(|i| Tensor::from_fn([2, 2], |j| (i * 4 + j) as f32)).collect();
        let batch = Tensor::stack_axis0(&items).unwrap();
        let back = batch.unstack_axis0();
        assert_eq!(back.len(), 3);
        for (orig, got) in items.iter().zip(&back) {
            assert_eq!(orig.as_slice(), got.as_slice());
            assert_eq!(orig.shape(), got.shape());
        }
    }

    #[test]
    fn operators() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[3.0, 4.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 6.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 2.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn debug_is_nonempty_and_bounded() {
        let small = Tensor::from_slice(&[1.0]);
        assert!(!format!("{small:?}").is_empty());
        let big = Tensor::zeros([100]);
        assert!(format!("{big:?}").len() < 300);
    }

    #[test]
    fn from_fn_uses_flat_index() {
        let t = Tensor::from_fn([2, 2], |i| i as f32);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }
}
