//! Max and average pooling with exact backward passes.

use crate::error::{Result, TensorError};
use crate::{Shape, Tensor};

/// Pooling flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Maximum over the window; backward routes gradient to the argmax.
    Max,
    /// Mean over the window; backward spreads gradient uniformly.
    Avg,
}

/// Static geometry of a 2-D pooling operation.
///
/// Pooling uses *ceiling* output sizing (Caffe convention), so windows may
/// overhang the input's bottom/right edge; overhanging taps are skipped for
/// `Max` and excluded from the divisor for `Avg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolGeometry {
    /// Channels (pooling is per-channel).
    pub channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square window side.
    pub window: usize,
    /// Stride in both dimensions.
    pub stride: usize,
}

impl PoolGeometry {
    /// Creates and validates a pooling geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BadGeometry`] on zero extents, a window
    /// larger than the input, or a stride wider than the window whose
    /// last window would start past the input's edge (it would pool
    /// nothing).
    pub fn new(
        channels: usize,
        in_h: usize,
        in_w: usize,
        window: usize,
        stride: usize,
    ) -> Result<Self> {
        if channels == 0 || in_h == 0 || in_w == 0 || window == 0 {
            return Err(TensorError::BadGeometry("zero-sized pooling extent".into()));
        }
        if stride == 0 {
            return Err(TensorError::BadGeometry("stride must be positive".into()));
        }
        if window > in_h || window > in_w {
            return Err(TensorError::BadGeometry(format!(
                "pool window {window} larger than input {in_h}x{in_w}"
            )));
        }
        let g = PoolGeometry { channels, in_h, in_w, window, stride };
        if (g.out_h() - 1) * stride >= in_h || (g.out_w() - 1) * stride >= in_w {
            return Err(TensorError::BadGeometry(format!(
                "pool window {window} at stride {stride} starts past the {in_h}x{in_w} input"
            )));
        }
        Ok(g)
    }

    /// Output height (ceil mode).
    pub fn out_h(&self) -> usize {
        (self.in_h - self.window).div_ceil(self.stride) + 1
    }

    /// Output width (ceil mode).
    pub fn out_w(&self) -> usize {
        (self.in_w - self.window).div_ceil(self.stride) + 1
    }

    /// Comparison/add operations for one image (hardware cost model input).
    pub fn ops(&self) -> usize {
        self.channels * self.out_h() * self.out_w() * self.window * self.window
    }
}

/// Forward pooling over a batched `N×C×H×W` tensor.
///
/// Returns `(output, argmax)`; `argmax` stores, for every output element,
/// the flat input offset that produced it (meaningful for `Max` only, empty
/// for `Avg`) and is consumed by [`pool_backward`].
///
/// # Errors
///
/// Returns a shape error if `input` disagrees with the geometry.
pub fn pool_forward(
    input: &Tensor,
    kind: PoolKind,
    g: &PoolGeometry,
) -> Result<(Tensor, Vec<usize>)> {
    let n = input.shape().dim(0);
    let expect = Shape::nchw(n, g.channels, g.in_h, g.in_w);
    if input.shape() != &expect {
        return Err(TensorError::ShapeMismatch {
            left: input.shape().clone(),
            right: expect,
            op: "pool_forward",
        });
    }
    let (oh, ow) = (g.out_h(), g.out_w());
    let mut out = Tensor::zeros([n, g.channels, oh, ow]);
    let mut argmax = match kind {
        PoolKind::Max => vec![0usize; n * g.channels * oh * ow],
        PoolKind::Avg => Vec::new(),
    };
    let x = input.as_slice();
    let od = out.as_mut_slice();
    for s in 0..n {
        for c in 0..g.channels {
            let in_base = (s * g.channels + c) * g.in_h * g.in_w;
            let out_base = (s * g.channels + c) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let y0 = oy * g.stride;
                    let x0 = ox * g.stride;
                    let y1 = (y0 + g.window).min(g.in_h);
                    let x1 = (x0 + g.window).min(g.in_w);
                    match kind {
                        PoolKind::Max => {
                            let mut best = f32::NEG_INFINITY;
                            let mut best_off = in_base + y0 * g.in_w + x0;
                            for iy in y0..y1 {
                                for ix in x0..x1 {
                                    let off = in_base + iy * g.in_w + ix;
                                    if x[off] > best {
                                        best = x[off];
                                        best_off = off;
                                    }
                                }
                            }
                            od[out_base + oy * ow + ox] = best;
                            argmax[out_base + oy * ow + ox] = best_off;
                        }
                        PoolKind::Avg => {
                            let mut acc = 0.0f32;
                            let count = ((y1 - y0) * (x1 - x0)) as f32;
                            for iy in y0..y1 {
                                for ix in x0..x1 {
                                    acc += x[in_base + iy * g.in_w + ix];
                                }
                            }
                            od[out_base + oy * ow + ox] = acc / count;
                        }
                    }
                }
            }
        }
    }
    Ok((out, argmax))
}

/// Backward pooling: scatters `grad_out` back onto the input.
///
/// `argmax` must be the vector returned by the matching [`pool_forward`]
/// call for `Max` pooling (it is ignored for `Avg`).
///
/// # Errors
///
/// Returns a shape error if `grad_out` disagrees with the geometry.
pub fn pool_backward(
    grad_out: &Tensor,
    kind: PoolKind,
    argmax: &[usize],
    g: &PoolGeometry,
) -> Result<Tensor> {
    let n = grad_out.shape().dim(0);
    let (oh, ow) = (g.out_h(), g.out_w());
    let expect = Shape::nchw(n, g.channels, oh, ow);
    if grad_out.shape() != &expect {
        return Err(TensorError::ShapeMismatch {
            left: grad_out.shape().clone(),
            right: expect,
            op: "pool_backward",
        });
    }
    let mut grad_in = Tensor::zeros([n, g.channels, g.in_h, g.in_w]);
    let gi = grad_in.as_mut_slice();
    let go = grad_out.as_slice();
    match kind {
        PoolKind::Max => {
            debug_assert_eq!(argmax.len(), go.len(), "argmax length mismatch");
            for (i, &src) in argmax.iter().enumerate() {
                gi[src] += go[i];
            }
        }
        PoolKind::Avg => {
            for s in 0..n {
                for c in 0..g.channels {
                    let in_base = (s * g.channels + c) * g.in_h * g.in_w;
                    let out_base = (s * g.channels + c) * oh * ow;
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let y0 = oy * g.stride;
                            let x0 = ox * g.stride;
                            let y1 = (y0 + g.window).min(g.in_h);
                            let x1 = (x0 + g.window).min(g.in_w);
                            let share =
                                go[out_base + oy * ow + ox] / ((y1 - y0) * (x1 - x0)) as f32;
                            for iy in y0..y1 {
                                for ix in x0..x1 {
                                    gi[in_base + iy * g.in_w + ix] += share;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(grad_in)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_ceil_mode() {
        // Caffe cifar10-quick pool1: 32×32, window 3, stride 2 → 16×16.
        let g = PoolGeometry::new(32, 32, 32, 3, 2).unwrap();
        assert_eq!((g.out_h(), g.out_w()), (16, 16));
        // Even split: 4→2 with window 2 stride 2.
        let g = PoolGeometry::new(1, 4, 4, 2, 2).unwrap();
        assert_eq!((g.out_h(), g.out_w()), (2, 2));
        // AlexNet pool1: 55×55 window 3 stride 2 → 27×27.
        let g = PoolGeometry::new(96, 55, 55, 3, 2).unwrap();
        assert_eq!((g.out_h(), g.out_w()), (27, 27));
    }

    #[test]
    fn geometry_validation() {
        assert!(PoolGeometry::new(0, 4, 4, 2, 2).is_err());
        assert!(PoolGeometry::new(1, 4, 4, 0, 2).is_err());
        assert!(PoolGeometry::new(1, 4, 4, 2, 0).is_err());
        assert!(PoolGeometry::new(1, 2, 2, 3, 1).is_err());
        // Stride 5 past a window of 2: the second window would start at
        // row 5 of 4 and pool nothing.
        assert!(PoolGeometry::new(1, 4, 4, 2, 5).is_err());
        assert!(PoolGeometry::new(1, 2, 4, 2, 5).is_err());
        // Stride 3 past a window of 2 still starts its last window inside.
        let g = PoolGeometry::new(1, 4, 4, 2, 3).unwrap();
        assert_eq!((g.out_h(), g.out_w()), (2, 2));
    }

    #[test]
    fn max_pool_known_values() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            Shape::nchw(1, 1, 4, 4),
        )
        .unwrap();
        let g = PoolGeometry::new(1, 4, 4, 2, 2).unwrap();
        let (y, arg) = pool_forward(&x, PoolKind::Max, &g).unwrap();
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
        assert_eq!(arg, vec![5, 7, 13, 15]);
    }

    #[test]
    fn avg_pool_known_values() {
        let x = Tensor::from_vec((1..=16).map(|v| v as f32).collect(), Shape::nchw(1, 1, 4, 4))
            .unwrap();
        let g = PoolGeometry::new(1, 4, 4, 2, 2).unwrap();
        let (y, _) = pool_forward(&x, PoolKind::Avg, &g).unwrap();
        assert_eq!(y.as_slice(), &[3.5, 5.5, 11.5, 13.5]);
    }

    #[test]
    fn overhanging_window_avg_uses_true_count() {
        // 3×3 input, window 2 stride 2 → ceil gives 2×2 output; the corner
        // window covers a single element.
        let x =
            Tensor::from_vec((1..=9).map(|v| v as f32).collect(), Shape::nchw(1, 1, 3, 3)).unwrap();
        let g = PoolGeometry::new(1, 3, 3, 2, 2).unwrap();
        let (y, _) = pool_forward(&x, PoolKind::Avg, &g).unwrap();
        // Windows: {1,2,4,5}, {3,6}, {7,8}, {9}
        assert_eq!(y.as_slice(), &[3.0, 4.5, 7.5, 9.0]);
    }

    #[test]
    fn max_backward_routes_to_argmax_only() {
        let x = Tensor::from_vec(
            vec![1.0, 9.0, 2.0, 3.0, 4.0, 5.0, 8.0, 6.0, 7.0],
            Shape::nchw(1, 1, 3, 3),
        )
        .unwrap();
        let g = PoolGeometry::new(1, 3, 3, 3, 3).unwrap();
        let (y, arg) = pool_forward(&x, PoolKind::Max, &g).unwrap();
        assert_eq!(y.as_slice(), &[9.0]);
        let go = Tensor::from_vec(vec![2.5], Shape::nchw(1, 1, 1, 1)).unwrap();
        let gi = pool_backward(&go, PoolKind::Max, &arg, &g).unwrap();
        let mut expect = [0.0f32; 9];
        expect[1] = 2.5;
        assert_eq!(gi.as_slice(), &expect[..]);
    }

    #[test]
    fn avg_backward_spreads_uniformly() {
        let g = PoolGeometry::new(1, 2, 2, 2, 2).unwrap();
        let go = Tensor::from_vec(vec![4.0], Shape::nchw(1, 1, 1, 1)).unwrap();
        let gi = pool_backward(&go, PoolKind::Avg, &[], &g).unwrap();
        assert_eq!(gi.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn pool_gradient_is_adjoint() {
        // ⟨pool(x), y⟩ sensitivity check via finite differences for both kinds.
        let g = PoolGeometry::new(2, 5, 5, 3, 2).unwrap();
        // Strictly distinct values (no ties), so the max-pool gradient is
        // well-defined at every point and finite differences are valid.
        let mut x = Tensor::from_fn([1, 2, 5, 5], |i| i as f32 * 0.137 + (i * i) as f32 * 0.011);
        for kind in [PoolKind::Max, PoolKind::Avg] {
            let (y, arg) = pool_forward(&x, kind, &g).unwrap();
            let ones = Tensor::ones(y.shape().clone());
            let gi = pool_backward(&ones, kind, &arg, &g).unwrap();
            let eps = 1e-3;
            for idx in [0usize, 12, 24, 37, 49] {
                let orig = x.as_slice()[idx];
                x.as_mut_slice()[idx] = orig + eps;
                let up = pool_forward(&x, kind, &g).unwrap().0.sum();
                x.as_mut_slice()[idx] = orig - eps;
                let down = pool_forward(&x, kind, &g).unwrap().0.sum();
                x.as_mut_slice()[idx] = orig;
                let numeric = (up - down) / (2.0 * eps);
                let analytic = gi.as_slice()[idx];
                assert!(
                    (numeric - analytic).abs() < 1e-2,
                    "{kind:?} idx {idx}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn batch_and_channel_independence() {
        // Pooling one 2-image batch equals pooling each image alone.
        let g = PoolGeometry::new(3, 4, 4, 2, 2).unwrap();
        let x = Tensor::from_fn([2, 3, 4, 4], |i| (i as f32).sin());
        let (full, _) = pool_forward(&x, PoolKind::Max, &g).unwrap();
        for s in 0..2 {
            let img = x.index_axis0(s).reshape([1, 3, 4, 4]).unwrap();
            let (one, _) = pool_forward(&img, PoolKind::Max, &g).unwrap();
            assert_eq!(full.index_axis0(s).as_slice(), one.index_axis0(0).as_slice());
        }
    }
}
