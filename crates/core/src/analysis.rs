//! Quantization analysis: weight-exponent histograms and per-layer
//! quantization error reports.
//!
//! The paper's 4-bit encoding rests on an empirical observation — "the
//! magnitudes of the weights is less than 1, so our rounding leads to 8
//! possible exponents" — and its accuracy claims rest on the quantization
//! error being small relative to activations. This module measures both
//! for any network, so the claims can be checked rather than assumed.

use mfdfp_dfp::{Pow2Weight, EXP_MAX, EXP_MIN};
use mfdfp_nn::{Layer, Network};

/// Histogram of quantized weight exponents across a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExponentHistogram {
    /// `counts[i]` = number of weights with exponent `−i` (0 ⇒ e = 0, …,
    /// 7 ⇒ e = −7).
    pub counts: Vec<u64>,
    /// Weights whose float magnitude exceeded 1 (clamped to `e = 0`).
    pub clamped_high: u64,
    /// Weights whose float magnitude fell below `2^(−7.5)` (clamped to
    /// `e = −7`, including exact zeros).
    pub clamped_low: u64,
}

impl ExponentHistogram {
    /// Total weights counted.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of weights whose exponent was *not* clamped — the paper's
    /// "magnitudes below 1" observation quantified.
    pub fn in_range_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 1.0;
        }
        1.0 - (self.clamped_high + self.clamped_low) as f64 / total as f64
    }
}

/// Computes the exponent histogram of every conv/FC weight in `net`.
pub fn exponent_histogram(net: &Network) -> ExponentHistogram {
    let span = (EXP_MAX - EXP_MIN) as usize + 1;
    let mut hist = ExponentHistogram { counts: vec![0; span], clamped_high: 0, clamped_low: 0 };
    for layer in net.layers() {
        let weights = match layer {
            Layer::Conv(c) => c.weights(),
            Layer::Linear(l) => l.weights(),
            _ => continue,
        };
        for &w in weights.as_slice() {
            let q = Pow2Weight::from_f32(w);
            hist.counts[(-q.exp()) as usize] += 1;
            let mag = w.abs();
            if mag > 1.0 + 1e-9 {
                hist.clamped_high += 1;
            } else if mag < 2.0f32.powf(EXP_MIN as f32 - 0.5) {
                hist.clamped_low += 1;
            }
        }
    }
    hist
}

/// Per-layer weight quantization error statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerQuantError {
    /// Layer description.
    pub layer: String,
    /// Number of weights.
    pub weights: usize,
    /// Root-mean-square absolute quantization error.
    pub rms_error: f64,
    /// Mean relative (log-domain-bounded) error `|w − ŵ| / max(|w|, ε)`.
    pub mean_rel_error: f64,
    /// Largest absolute error.
    pub max_abs_error: f64,
}

/// Measures power-of-two quantization error per weighted layer.
pub fn quantization_errors(net: &Network) -> Vec<LayerQuantError> {
    let mut out = Vec::new();
    for layer in net.layers() {
        let weights = match layer {
            Layer::Conv(c) => c.weights(),
            Layer::Linear(l) => l.weights(),
            _ => continue,
        };
        let mut sq = 0.0f64;
        let mut rel = 0.0f64;
        let mut max_abs = 0.0f64;
        for &w in weights.as_slice() {
            let q = Pow2Weight::from_f32(w).to_f32();
            let err = (w - q).abs() as f64;
            sq += err * err;
            rel += err / (w.abs() as f64).max(1e-12);
            max_abs = max_abs.max(err);
        }
        let n = weights.len();
        out.push(LayerQuantError {
            layer: layer.describe(),
            weights: n,
            rms_error: (sq / n.max(1) as f64).sqrt(),
            mean_rel_error: rel / n.max(1) as f64,
            max_abs_error: max_abs,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfdfp_nn::layers::Linear;
    use mfdfp_tensor::{Shape, Tensor, TensorRng};

    fn net_with_weights(ws: &[f32]) -> Network {
        let mut rng = TensorRng::seed_from(0);
        let mut l = Linear::new("fc", ws.len(), 1, &mut rng);
        *l.weights_mut() = Tensor::from_vec(ws.to_vec(), Shape::d2(1, ws.len())).unwrap();
        let mut net = Network::new("probe");
        net.push(Layer::Linear(l));
        net
    }

    #[test]
    fn histogram_buckets_exponents() {
        let net = net_with_weights(&[1.0, 0.5, 0.5, 0.25, -0.25, 1.0 / 128.0]);
        let h = exponent_histogram(&net);
        assert_eq!(h.counts[0], 1); // e = 0
        assert_eq!(h.counts[1], 2); // e = −1
        assert_eq!(h.counts[2], 2); // e = −2
        assert_eq!(h.counts[7], 1); // e = −7
        assert_eq!(h.total(), 6);
        assert_eq!(h.clamped_high, 0);
        assert_eq!(h.clamped_low, 0);
        assert_eq!(h.in_range_fraction(), 1.0);
    }

    #[test]
    fn clamps_are_counted() {
        let net = net_with_weights(&[2.0, 0.0, 1e-9, 0.5]);
        let h = exponent_histogram(&net);
        assert_eq!(h.clamped_high, 1);
        assert_eq!(h.clamped_low, 2);
        assert!((h.in_range_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn trained_like_weights_are_mostly_in_range() {
        let mut rng = TensorRng::seed_from(9);
        let mut net = Network::new("g");
        let mut l = Linear::new("fc", 64, 64, &mut rng);
        *l.weights_mut() = rng.gaussian([64, 64], 0.0, 0.1);
        net.push(Layer::Linear(l));
        let h = exponent_histogram(&net);
        assert!(h.in_range_fraction() > 0.8, "{}", h.in_range_fraction());
    }

    #[test]
    fn quantization_error_zero_for_exact_powers() {
        let net = net_with_weights(&[0.5, -0.25, 1.0, 0.0078125]);
        let errs = quantization_errors(&net);
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].rms_error, 0.0);
        assert_eq!(errs[0].max_abs_error, 0.0);
    }

    #[test]
    fn quantization_error_bounded_by_half_octave() {
        let ws: Vec<f32> = (1..100).map(|i| i as f32 / 100.0).collect();
        let net = net_with_weights(&ws);
        let errs = quantization_errors(&net);
        // Log-domain rounding keeps relative error below 2^0.5 − 1 ≈ 0.414.
        assert!(errs[0].mean_rel_error < 0.42, "{}", errs[0].mean_rel_error);
        assert!(errs[0].rms_error > 0.0);
    }
}
