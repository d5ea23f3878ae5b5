//! Dense matrix multiplication (GEMM) with optional operand transposes.
//!
//! All entry points funnel into one row-range kernel (`gemm_rows`): the
//! serial path runs it once over every row, the parallel path splits the
//! output rows across the persistent `mfdfp-rt` pool. Because each output
//! element is accumulated in the same (ascending-`p`) order regardless of
//! how rows are partitioned, the parallel path is **bit-identical** to the
//! serial one — determinism is a property of the kernel, not the schedule.

use crate::error::{Result, TensorError};
use crate::{Shape, Tensor};

/// Whether a GEMM operand should be read transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Transpose {
    /// Read the operand as stored.
    #[default]
    No,
    /// Read the operand transposed.
    Yes,
}

impl Transpose {
    fn apply(self, rows: usize, cols: usize) -> (usize, usize) {
        match self {
            Transpose::No => (rows, cols),
            Transpose::Yes => (cols, rows),
        }
    }
}

/// Column-tile width: a 256-element C/B panel slice stays resident in L1
/// while a row of A streams past it.
const COL_TILE: usize = 256;

/// Computes output rows `[row0, row0 + rows)` of `C = A(op) × B(op)` into
/// `out` (a `rows × n` slice).
///
/// Per output element the reduction always runs over `p = 0..k` in
/// ascending order with the same zero-skip rule, so any row partition of
/// the output produces bit-identical `f32` results.
#[allow(clippy::too_many_arguments)] // private kernel: slices + full index frame
fn gemm_rows(
    ta: Transpose,
    tb: Transpose,
    ad: &[f32],
    bd: &[f32],
    out: &mut [f32],
    row0: usize,
    rows: usize,
    m: usize,
    n: usize,
    k: usize,
) {
    debug_assert_eq!(out.len(), rows * n);
    match (ta, tb) {
        (Transpose::No, Transpose::No) => {
            // C[i,j] += A[i,p] * B[p,j] — p-outer streams B rows; the column
            // tile keeps the C row chunk hot across the p loop.
            for j0 in (0..n).step_by(COL_TILE) {
                let j1 = (j0 + COL_TILE).min(n);
                for r in 0..rows {
                    let i = row0 + r;
                    let arow = &ad[i * k..(i + 1) * k];
                    let crow = &mut out[r * n + j0..r * n + j1];
                    for (p, &av) in arow.iter().enumerate() {
                        if av == 0.0 {
                            continue;
                        }
                        let brow = &bd[p * n + j0..p * n + j1];
                        for (c, &bv) in crow.iter_mut().zip(brow) {
                            *c += av * bv;
                        }
                    }
                }
            }
        }
        (Transpose::No, Transpose::Yes) => {
            // B stored n×k; C[i,j] = dot(Arow_i, Brow_j): both contiguous.
            for r in 0..rows {
                let i = row0 + r;
                let arow = &ad[i * k..(i + 1) * k];
                for j in 0..n {
                    let brow = &bd[j * k..(j + 1) * k];
                    let mut acc = 0.0f32;
                    for (&x, &y) in arow.iter().zip(brow) {
                        acc += x * y;
                    }
                    out[r * n + j] = acc;
                }
            }
        }
        (Transpose::Yes, Transpose::No) => {
            // A stored k×m; C[i,j] += A[p,i] * B[p,j], p ascending per row.
            for j0 in (0..n).step_by(COL_TILE) {
                let j1 = (j0 + COL_TILE).min(n);
                for r in 0..rows {
                    let i = row0 + r;
                    let crow = &mut out[r * n + j0..r * n + j1];
                    for p in 0..k {
                        let av = ad[p * m + i];
                        if av == 0.0 {
                            continue;
                        }
                        let brow = &bd[p * n + j0..p * n + j1];
                        for (c, &bv) in crow.iter_mut().zip(brow) {
                            *c += av * bv;
                        }
                    }
                }
            }
        }
        (Transpose::Yes, Transpose::Yes) => {
            // A stored k×m, B stored n×k.
            for r in 0..rows {
                let i = row0 + r;
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in 0..k {
                        acc += ad[p * m + i] * bd[j * k + p];
                    }
                    out[r * n + j] = acc;
                }
            }
        }
    }
}

fn gemm_check(
    a: &Tensor,
    ta: Transpose,
    b: &Tensor,
    tb: Transpose,
) -> Result<(usize, usize, usize)> {
    if a.shape().rank() != 2 || b.shape().rank() != 2 {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().clone(),
            right: b.shape().clone(),
            op: "gemm (rank-2 required)",
        });
    }
    let (m, ka) = ta.apply(a.shape().dim(0), a.shape().dim(1));
    let (kb, n) = tb.apply(b.shape().dim(0), b.shape().dim(1));
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().clone(),
            right: b.shape().clone(),
            op: "gemm (inner dimension)",
        });
    }
    Ok((m, n, ka))
}

/// General matrix multiply: `C = A(op) × B(op)`.
///
/// `a` must be rank-2 of logical shape `m×k` after applying `ta`, and `b`
/// rank-2 of logical shape `k×n` after applying `tb`. The result is `m×n`.
///
/// Large products (at least two output rows, the shared `par` work
/// threshold, and a pool of width ≥ 2 — checked in that order, so small
/// products never instantiate the pool) are split by output row across
/// the persistent pool's threads; the result is bit-identical to
/// [`gemm_serial`] (see the module docs).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if either operand is not rank-2 or
/// the inner dimensions disagree.
///
/// # Examples
///
/// ```
/// use mfdfp_tensor::{gemm, Shape, Tensor, Transpose};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], Shape::d2(2, 2))?;
/// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], Shape::d2(2, 2))?;
/// let c = gemm(&a, Transpose::No, &i, Transpose::No)?;
/// assert_eq!(c.as_slice(), a.as_slice());
/// # Ok::<(), mfdfp_tensor::TensorError>(())
/// ```
pub fn gemm(a: &Tensor, ta: Transpose, b: &Tensor, tb: Transpose) -> Result<Tensor> {
    let (m, n, k) = gemm_check(a, ta, b, tb)?;
    if crate::par::should_fan_out(m, m * n * k) {
        return gemm_parallel(a, ta, b, tb);
    }
    gemm_serial(a, ta, b, tb)
}

/// Single-threaded GEMM — the deterministic reference kernel.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] under the same conditions as
/// [`gemm`].
pub fn gemm_serial(a: &Tensor, ta: Transpose, b: &Tensor, tb: Transpose) -> Result<Tensor> {
    let (m, n, k) = gemm_check(a, ta, b, tb)?;
    let mut out = vec![0.0f32; m * n];
    gemm_rows(ta, tb, a.as_slice(), b.as_slice(), &mut out, 0, m, m, n, k);
    Tensor::from_vec(out, Shape::d2(m, n))
}

/// Multi-threaded GEMM: output rows are split across the persistent
/// `mfdfp-rt` pool. Bit-identical to [`gemm_serial`] for every input (the
/// row kernel fixes the accumulation order; threads only change which core
/// computes which rows).
///
/// Prefer [`gemm`], which falls back to the serial kernel when the product
/// is too small to repay even the pool's (spawn-free) dispatch cost.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] under the same conditions as
/// [`gemm`].
pub fn gemm_parallel(a: &Tensor, ta: Transpose, b: &Tensor, tb: Transpose) -> Result<Tensor> {
    let (m, n, k) = gemm_check(a, ta, b, tb)?;
    let mut out = vec![0.0f32; m * n];
    let (ad, bd) = (a.as_slice(), b.as_slice());
    crate::par::for_each_row_chunk(&mut out, m, n, |row0, rows, chunk| {
        gemm_rows(ta, tb, ad, bd, chunk, row0, rows, m, n, k);
    });
    Tensor::from_vec(out, Shape::d2(m, n))
}

/// Matrix–vector product `y = A x` for a rank-2 `a` and rank-1 `x`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a` is not rank-2, `x` not
/// rank-1, or the dimensions disagree.
pub fn matvec(a: &Tensor, x: &Tensor) -> Result<Tensor> {
    if a.shape().rank() != 2 || x.shape().rank() != 1 {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().clone(),
            right: x.shape().clone(),
            op: "matvec (rank)",
        });
    }
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    if k != x.len() {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().clone(),
            right: x.shape().clone(),
            op: "matvec (inner dimension)",
        });
    }
    let ad = a.as_slice();
    let xd = x.as_slice();
    let mut out = vec![0.0f32; m];
    for i in 0..m {
        let row = &ad[i * k..(i + 1) * k];
        out[i] = row.iter().zip(xd).map(|(&a, &b)| a * b).sum();
    }
    Ok(Tensor::from_slice(&out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(rows: usize, cols: usize, vals: &[f32]) -> Tensor {
        Tensor::from_vec(vals.to_vec(), Shape::d2(rows, cols)).unwrap()
    }

    #[test]
    fn gemm_identity() {
        let a = t2(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = t2(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        let c = gemm(&a, Transpose::No, &i, Transpose::No).unwrap();
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn gemm_known_product() {
        // [1 2; 3 4] × [5 6; 7 8] = [19 22; 43 50]
        let a = t2(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = t2(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        let c = gemm(&a, Transpose::No, &b, Transpose::No).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn gemm_rectangular() {
        let a = t2(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t2(3, 1, &[1.0, 1.0, 1.0]);
        let c = gemm(&a, Transpose::No, &b, Transpose::No).unwrap();
        assert_eq!(c.shape().dims(), &[2, 1]);
        assert_eq!(c.as_slice(), &[6.0, 15.0]);
    }

    #[test]
    fn gemm_wider_than_col_tile() {
        // Exercise the column-tiled path: n > COL_TILE.
        let n = COL_TILE + 17;
        let a = t2(2, 3, &[1.0, -2.0, 0.5, 0.0, 1.0, 2.0]);
        let b = Tensor::from_fn(vec![3, n], |i| (i % 7) as f32 - 3.0);
        let c = gemm(&a, Transpose::No, &b, Transpose::No).unwrap();
        // Check a handful of entries against the naive definition.
        for (i, j) in [(0, 0), (1, 5), (0, COL_TILE), (1, n - 1)] {
            let expect: f32 = (0..3).map(|p| a.at(&[i, p]) * b.at(&[p, j])).sum();
            assert!((c.at(&[i, j]) - expect).abs() < 1e-4);
        }
    }

    #[test]
    fn all_transpose_combinations_agree() {
        let a = t2(2, 3, &[1.0, -2.0, 3.0, 0.5, 4.0, -1.0]);
        let b = t2(3, 4, &[2.0, 0.0, 1.0, -1.0, 3.0, 5.0, -2.0, 0.5, 1.0, 1.0, 1.0, 1.0]);
        let reference = gemm(&a, Transpose::No, &b, Transpose::No).unwrap();

        // Transpose the stored layouts manually and ask gemm to undo it.
        let at = transpose(&a);
        let bt = transpose(&b);
        let c1 = gemm(&at, Transpose::Yes, &b, Transpose::No).unwrap();
        let c2 = gemm(&a, Transpose::No, &bt, Transpose::Yes).unwrap();
        let c3 = gemm(&at, Transpose::Yes, &bt, Transpose::Yes).unwrap();
        for c in [c1, c2, c3] {
            for (x, y) in c.as_slice().iter().zip(reference.as_slice()) {
                assert!((x - y).abs() < 1e-5, "{x} vs {y}");
            }
        }
    }

    fn transpose(t: &Tensor) -> Tensor {
        let (r, c) = (t.shape().dim(0), t.shape().dim(1));
        let mut out = Tensor::zeros([c, r]);
        for i in 0..r {
            for j in 0..c {
                *out.at_mut(&[j, i]) = t.at(&[i, j]);
            }
        }
        out
    }

    #[test]
    fn gemm_shape_errors() {
        let a = t2(2, 3, &[0.0; 6]);
        let b = t2(2, 3, &[0.0; 6]);
        assert!(gemm(&a, Transpose::No, &b, Transpose::No).is_err());
        assert!(gemm(&a, Transpose::No, &b, Transpose::Yes).is_ok());
        let v = Tensor::from_slice(&[1.0, 2.0]);
        assert!(gemm(&a, Transpose::No, &v, Transpose::No).is_err());
    }

    #[test]
    fn matvec_matches_gemm() {
        let a = t2(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let x = Tensor::from_slice(&[1.0, -1.0]);
        let y = matvec(&a, &x).unwrap();
        assert_eq!(y.as_slice(), &[-1.0, -1.0, -1.0]);
        let xm = x.reshape([2, 1]).unwrap();
        let ym = gemm(&a, Transpose::No, &xm, Transpose::No).unwrap();
        assert_eq!(y.as_slice(), ym.as_slice());
    }

    #[test]
    fn matvec_shape_errors() {
        let a = t2(2, 2, &[0.0; 4]);
        let bad = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        assert!(matvec(&a, &bad).is_err());
    }

    mod parallel {
        use super::*;

        #[test]
        fn parallel_bit_identical_even_below_threshold() {
            // Force the parallel kernel on a product the dispatcher would
            // run serially.
            let a = Tensor::from_fn(vec![7, 13], |i| (i as f32).sin());
            let b = Tensor::from_fn(vec![13, 9], |i| (i as f32 * 0.37).cos());
            for ta in [Transpose::No, Transpose::Yes] {
                for tb in [Transpose::No, Transpose::Yes] {
                    let (a, b) = match (ta, tb) {
                        (Transpose::No, Transpose::No) => (a.clone(), b.clone()),
                        (Transpose::No, Transpose::Yes) => (a.clone(), transpose(&b)),
                        (Transpose::Yes, Transpose::No) => (transpose(&a), b.clone()),
                        (Transpose::Yes, Transpose::Yes) => (transpose(&a), transpose(&b)),
                    };
                    let s = gemm_serial(&a, ta, &b, tb).unwrap();
                    let p = gemm_parallel(&a, ta, &b, tb).unwrap();
                    let same = s
                        .as_slice()
                        .iter()
                        .zip(p.as_slice())
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(same, "parallel gemm diverged for ({ta:?}, {tb:?})");
                }
            }
        }

        #[test]
        fn parallel_handles_zero_width_output() {
            // Regression: chunks_mut(0) must not panic when n == 0.
            let a = Tensor::from_fn(vec![4, 3], |i| i as f32);
            let b = Tensor::from_vec(vec![], Shape::d2(3, 0)).unwrap();
            let p = gemm_parallel(&a, Transpose::No, &b, Transpose::No).unwrap();
            assert_eq!(p.shape().dims(), &[4, 0]);
            let s = gemm_serial(&a, Transpose::No, &b, Transpose::No).unwrap();
            assert_eq!(s.shape(), p.shape());
        }

        #[test]
        fn dispatcher_crosses_threshold_bit_identically() {
            // 128×128×128 > par::MIN_MACS ⇒ gemm() takes the threaded path.
            let a = Tensor::from_fn(vec![128, 128], |i| ((i * 31 % 101) as f32 - 50.0) / 25.0);
            let b = Tensor::from_fn(vec![128, 128], |i| ((i * 17 % 97) as f32 - 48.0) / 24.0);
            let s = gemm_serial(&a, Transpose::No, &b, Transpose::No).unwrap();
            let d = gemm(&a, Transpose::No, &b, Transpose::No).unwrap();
            assert!(s.as_slice().iter().zip(d.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }
}
