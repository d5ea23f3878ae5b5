//! The PR-3 contract: the packed shift-only `qgemm` hot path and the
//! decode-based Figure 2(a) datapath are **bit-identical** — for dense and
//! convolutional layers, every geometry quirk (odd synapse counts hitting
//! the per-row pad nibble, grouped channels, padding, stride), and at
//! every pool width (CI runs the workspace suite at the default width and
//! under `MFDFP_THREADS=4`).
//!
//! The decode path (`run_reference`) audits products through the widening
//! adder tree; the packed path never decodes a nibble. Agreement here is
//! what lets `mfdfp-core` serve traffic on the fast kernel while the slow
//! one keeps proving the hardware semantics.

use mfdfp_accel::{ShiftConv, ShiftLinear};
use mfdfp_dfp::{AdderTree, PackedPow2Matrix, Pow2Weight};
use mfdfp_tensor::ConvGeometry;
use proptest::prelude::*;

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dense layers: packed `run` == decode-based `run_reference` for
    /// arbitrary widths — odd `in_features` exercises the pad nibble at
    /// every row boundary of the packed matrix.
    #[test]
    fn linear_packed_equals_decode_reference(
        seed in 0u64..100_000,
        in_features in 1usize..48,
        out_features in 1usize..8,
        in_frac in 4i8..8,
        out_frac in 0i8..7,
    ) {
        let mut next = xorshift(seed);
        let input: Vec<i8> = (0..in_features).map(|_| (next() % 256) as u8 as i8).collect();
        let weights: Vec<Pow2Weight> = (0..in_features * out_features)
            .map(|_| Pow2Weight::decode4((next() % 16) as u8).unwrap())
            .collect();
        let bias: Vec<i64> = (0..out_features).map(|_| (next() % 4096) as i64 - 2048).collect();
        let layer = ShiftLinear {
            in_features,
            out_features,
            weights: PackedPow2Matrix::from_weights(out_features, in_features, &weights).unwrap(),
            bias: bias.into(),
            in_frac,
            out_frac,
        };
        let packed = layer.run(&input).unwrap();
        let decoded = layer.run_reference(&input, &AdderTree::new(16).unwrap()).unwrap();
        prop_assert_eq!(packed, decoded);
    }

    /// Convolutions: packed `run` == decode-based `run_reference` across
    /// kernel/stride/pad/group combinations, including odd
    /// `col_height` values (e.g. 1×3×3 → 9 synapses per row).
    #[test]
    fn conv_packed_equals_decode_reference(
        seed in 0u64..100_000,
        kernel in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        grouped in proptest::bool::ANY,
        in_frac in 4i8..8,
        out_frac in 0i8..7,
    ) {
        let in_c = if grouped { 4 } else { 1 };
        let out_c = if grouped { 6 } else { 3 };
        let hw = 6usize;
        if hw + 2 * pad < kernel {
            return Ok(());
        }
        let mut g = ConvGeometry::new(in_c, hw, hw, out_c, kernel, stride, pad).unwrap();
        if grouped {
            g = g.with_groups(2).unwrap();
        }
        let mut next = xorshift(seed);
        let input: Vec<i8> = (0..in_c * hw * hw).map(|_| (next() % 256) as u8 as i8).collect();
        let weights: Vec<Pow2Weight> = (0..g.weight_count())
            .map(|_| Pow2Weight::decode4((next() % 16) as u8).unwrap())
            .collect();
        let bias: Vec<i64> = (0..out_c).map(|_| (next() % 4096) as i64 - 2048).collect();
        let layer = ShiftConv {
            geom: g,
            weights: PackedPow2Matrix::from_weights(g.out_c, g.col_height(), &weights).unwrap(),
            bias: bias.into(),
            in_frac,
            out_frac,
        };
        let packed = layer.run(&input).unwrap();
        let decoded = layer.run_reference(&input, &AdderTree::new(16).unwrap()).unwrap();
        prop_assert_eq!(packed, decoded);
    }
}

/// Saturation rails and the all-minimum-exponent corner, deterministic:
/// the two paths must agree even when every output pins to ±rail or every
/// product degenerates to ±x.
#[test]
fn extreme_weight_and_saturation_corners_agree() {
    let tree = AdderTree::new(16).unwrap();
    for code in [0u8, 7, 8, 15] {
        // 0 → +1 (max magnitude), 7 → +2^−7 (min), 8/15 their negatives.
        let w = Pow2Weight::decode4(code).unwrap();
        let weights = vec![w; 31]; // odd count: pad nibble in every row
        let layer = ShiftLinear {
            in_features: 31,
            out_features: 1,
            weights: PackedPow2Matrix::from_weights(1, 31, &weights).unwrap(),
            bias: vec![0].into(),
            in_frac: 7,
            out_frac: 7, // upscale route: saturates for the big codes
        };
        for fill in [-128i8, -1, 0, 1, 127] {
            let input = vec![fill; 31];
            let packed = layer.run(&input).unwrap();
            let decoded = layer.run_reference(&input, &tree).unwrap();
            assert_eq!(packed, decoded, "code={code} fill={fill}");
        }
    }
}
