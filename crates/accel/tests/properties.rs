//! Property-based tests of the accelerator model: the functional datapath
//! against exact arithmetic, and structural invariants of the cost model.

use mfdfp_accel::{
    avg_pool_codes, avg_pool_codes_batch_into, design_metrics, max_pool_codes,
    max_pool_codes_batch_into, pool_out_dims, relu_codes, schedule_network, AcceleratorConfig,
    ComponentLibrary, DmaModel, Precision, ShiftLinear,
};
use mfdfp_dfp::{AdderTree, PackedPow2Matrix, Pow2Weight};
use mfdfp_nn::zoo;
use mfdfp_tensor::TensorRng;
use proptest::prelude::*;

/// `batch` images of `len` codes from a xorshift stream, one in four a
/// rail (−128, 127) or −1 so windows meet the extremes and the negative
/// `.5` ties of a round-half-away average.
fn pool_images(seed: u64, len: usize, batch: usize) -> Vec<Vec<i8>> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..batch)
        .map(|_| {
            (0..len)
                .map(|_| match next() % 16 {
                    0 => -128,
                    1 => 127,
                    2 => -1,
                    _ => (next() % 256) as u8 as i8,
                })
                .collect()
        })
        .collect()
}

/// Pools `images` both ways — interleaved through the batched entry, and
/// one image at a time through the tap-by-tap oracle — and checks the
/// batched result, de-interleaved, against the oracle's. A geometry the
/// oracle refuses must be refused by the batched entry too.
fn check_batched_pool(
    images: &[Vec<i8>],
    channels: usize,
    in_h: usize,
    in_w: usize,
    window: usize,
    stride: usize,
) {
    let batch = images.len();
    let per = images[0].len();
    let mut fused = vec![0i8; per * batch];
    for (b, img) in images.iter().enumerate() {
        for (e, &v) in img.iter().enumerate() {
            fused[e * batch + b] = v;
        }
    }
    let frame = format!("{channels}x{in_h}x{in_w} window {window}/{stride} batch {batch}");
    let Ok((oh, ow)) = pool_out_dims(in_h, in_w, window, stride) else {
        let mut out = vec![0i8; channels * batch];
        assert!(max_pool_codes(&images[0], channels, in_h, in_w, window, stride).is_err());
        assert!(
            max_pool_codes_batch_into(
                &fused, channels, in_h, in_w, window, stride, batch, &mut out
            )
            .is_err(),
            "{frame}"
        );
        assert!(
            avg_pool_codes_batch_into(
                &fused, channels, in_h, in_w, window, stride, batch, &mut out
            )
            .is_err(),
            "{frame}"
        );
        return;
    };
    let out_len = channels * oh * ow;
    type Batched =
        fn(&[i8], usize, usize, usize, usize, usize, usize, &mut [i8]) -> mfdfp_accel::Result<()>;
    type Oracle = fn(&[i8], usize, usize, usize, usize, usize) -> mfdfp_accel::Result<Vec<i8>>;
    let pairs: [(&str, Batched, Oracle); 2] = [
        ("max", max_pool_codes_batch_into, max_pool_codes),
        ("avg", avg_pool_codes_batch_into, avg_pool_codes),
    ];
    for (kind, batched, oracle) in pairs {
        let mut out = vec![0i8; out_len * batch];
        batched(&fused, channels, in_h, in_w, window, stride, batch, &mut out).unwrap();
        for (b, img) in images.iter().enumerate() {
            let want = oracle(img, channels, in_h, in_w, window, stride).unwrap();
            let got: Vec<i8> = (0..out_len).map(|e| out[e * batch + b]).collect();
            assert_eq!(got, want, "{kind} {frame}, image {b}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The separable batched pooling pass ≡ the tap-by-tap oracle, image
    /// by image, de-interleaved: ceil-mode partial windows, windows
    /// larger than the input, strides past the window, odd batches.
    #[test]
    fn batched_pool_matches_per_image_oracle(
        channels in 1usize..4,
        in_h in 1usize..=12,
        in_w in 1usize..=12,
        window in 1usize..=16,
        stride in 1usize..=3,
        batch in 1usize..=17,
        seed in 0u64..1_000_000,
    ) {
        let images = pool_images(seed, channels * in_h * in_w, batch);
        check_batched_pool(&images, channels, in_h, in_w, window, stride);
    }
}

/// Fixed edges of the batched pass: a row longer than one stack scratch
/// chunk, a window row wider than a whole chunk, and window populations
/// whose sums leave `i16` (`256 · 128 = 2^15`) at the rails.
#[test]
fn batched_pool_matches_oracle_at_chunk_and_accumulator_edges() {
    // 40 columns × 64 images = 2560 codes per row.
    check_batched_pool(&pool_images(1, 2 * 5 * 40, 64), 2, 5, 40, 3, 2);
    // A 24-wide window over 100 images: 2400 codes in one window row.
    check_batched_pool(&pool_images(2, 24 * 24, 100), 1, 24, 24, 24, 5);
    for fill in [-128i8, 127] {
        for (side, window) in [(16usize, 16usize), (17, 17), (20, 20)] {
            let images = vec![vec![fill; side * side]; 3];
            check_batched_pool(&images, 1, side, side, window, 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The shift-linear layer computes the exact fixed-point dot product:
    /// against f64 arithmetic on the dequantized operands, the result is
    /// within half an output LSB (the routing round) for non-saturating
    /// outputs.
    #[test]
    fn shift_linear_is_exact_fixed_point(
        codes in proptest::collection::vec(-128i32..=127, 16),
        wcodes in proptest::collection::vec(0u8..16, 16),
    ) {
        let weights: Vec<Pow2Weight> =
            wcodes.iter().map(|&c| Pow2Weight::decode4(c).unwrap()).collect();
        let layer = ShiftLinear {
            in_features: 16,
            out_features: 1,
            weights: PackedPow2Matrix::from_weights(1, 16, &weights).unwrap(),
            bias: vec![0].into(),
            in_frac: 7,
            out_frac: 3,
        };
        let input: Vec<i8> = codes.iter().map(|&c| c as i8).collect();
        let tree = AdderTree::new(16).unwrap();
        let out = layer.run(&input).unwrap();
        // The packed path and the decode-based datapath must agree exactly.
        prop_assert_eq!(&out, &layer.run_reference(&input, &tree).unwrap());
        // Exact value in f64.
        let exact: f64 = input
            .iter()
            .zip(&weights)
            .map(|(&x, w)| (x as f64) * 2f64.powi(-7) * w.to_f32() as f64)
            .sum();
        let step = 2f64.powi(-3);
        let dequant = out[0] as f64 * step;
        if (-128.0 * step..=127.0 * step).contains(&exact) {
            prop_assert!((dequant - exact).abs() <= step / 2.0 + 1e-12,
                "{dequant} vs {exact}");
        } else {
            // Saturated: must sit at a rail.
            prop_assert!(out[0] == 127 || out[0] == -128);
        }
    }

    /// ReLU on codes is idempotent and non-negative.
    #[test]
    fn relu_codes_properties(mut codes in proptest::collection::vec(-128i8..=127, 32)) {
        relu_codes(&mut codes);
        prop_assert!(codes.iter().all(|&c| c >= 0));
        let copy = codes.clone();
        relu_codes(&mut codes);
        prop_assert_eq!(codes, copy);
    }

    /// Max pooling of codes commutes with ReLU: relu(maxpool(x)) ==
    /// maxpool(relu(x)) for window == input (single window per channel).
    #[test]
    fn max_pool_commutes_with_relu(codes in proptest::collection::vec(-128i8..=127, 16)) {
        let a = {
            let mut pooled = max_pool_codes(&codes, 1, 4, 4, 4, 4).unwrap();
            relu_codes(&mut pooled);
            pooled
        };
        let b = {
            let mut c = codes.clone();
            relu_codes(&mut c);
            max_pool_codes(&c, 1, 4, 4, 4, 4).unwrap()
        };
        prop_assert_eq!(a, b);
    }

    /// Avg pooling of codes stays within the min/max of the window.
    #[test]
    fn avg_pool_codes_bounded(codes in proptest::collection::vec(-128i8..=127, 16)) {
        let out = avg_pool_codes(&codes, 1, 4, 4, 4, 4).unwrap();
        let lo = *codes.iter().min().unwrap();
        let hi = *codes.iter().max().unwrap();
        prop_assert!(out[0] >= lo && out[0] <= hi);
    }

    /// Design metrics scale monotonically with PU count, and the marginal
    /// cost of each extra PU is constant (control amortised).
    #[test]
    fn design_cost_affine_in_pus(pus in 1usize..6) {
        let lib = ComponentLibrary::calibrated_65nm();
        let mut cfg = AcceleratorConfig::paper_mf_dfp();
        cfg.num_pus = pus;
        let m = design_metrics(&cfg, &lib).unwrap();
        cfg.num_pus = pus + 1;
        let m2 = design_metrics(&cfg, &lib).unwrap();
        cfg.num_pus = 1;
        let one = design_metrics(&cfg, &lib).unwrap();
        cfg.num_pus = 2;
        let two = design_metrics(&cfg, &lib).unwrap();
        let marginal = two.area_mm2 - one.area_mm2;
        prop_assert!((m2.area_mm2 - m.area_mm2 - marginal).abs() < 1e-9);
        prop_assert!(m2.power_mw > m.power_mw);
    }

    /// FP32 designs always cost more than MF-DFP at the same organisation.
    #[test]
    fn fp32_always_costs_more(neurons in 1usize..5, log_syn in 1u32..6) {
        let lib = ComponentLibrary::calibrated_65nm();
        let mut cfg = AcceleratorConfig::paper_mf_dfp();
        cfg.neurons = neurons * 8;
        cfg.synapses = 1 << log_syn;
        let mf = design_metrics(&cfg, &lib).unwrap();
        cfg.precision = Precision::Fp32;
        let fp = design_metrics(&cfg, &lib).unwrap();
        prop_assert!(fp.area_mm2 > mf.area_mm2);
        prop_assert!(fp.power_mw > mf.power_mw);
    }

    /// Scheduling is monotone in lane count: more lanes, fewer (or equal)
    /// cycles.
    #[test]
    fn schedule_monotone_in_lanes(log_syn in 2u32..6) {
        let mut rng = TensorRng::seed_from(0);
        let net = zoo::quick_custom(3, 16, [8, 8, 16], 32, 10, &mut rng).unwrap();
        let mut small = AcceleratorConfig::paper_mf_dfp();
        small.synapses = 1 << log_syn;
        let mut big = small;
        big.synapses = 1 << (log_syn + 1);
        let s_small = schedule_network(&net, &small, DmaModel::Overlapped).unwrap();
        let s_big = schedule_network(&net, &big, DmaModel::Overlapped).unwrap();
        prop_assert!(s_big.total_cycles <= s_small.total_cycles);
    }

    /// Limited DMA never makes a schedule faster than overlapped DMA.
    #[test]
    fn limited_dma_never_faster(bw in 1.0f64..256.0) {
        let mut rng = TensorRng::seed_from(0);
        let net = zoo::quick_custom(3, 16, [8, 8, 16], 32, 10, &mut rng).unwrap();
        let cfg = AcceleratorConfig::paper_mf_dfp();
        let free = schedule_network(&net, &cfg, DmaModel::Overlapped).unwrap();
        let limited =
            schedule_network(&net, &cfg, DmaModel::Limited { bytes_per_cycle: bw }).unwrap();
        prop_assert!(limited.total_cycles >= free.total_cycles);
    }
}
