//! Property-based tests for the fixed-point numerics: the invariants the
//! rest of the workspace (quantizer, integer inference engine, accelerator
//! datapath) silently relies on.

use std::fmt::Debug;

use mfdfp_dfp::{
    fits_in_bits, realign, saturate, shift_round, Accumulator, AdderTree, AlignedBytes, AlignedVec,
    DfpError, DfpFormat, PackedPow2Matrix, Pod, Pow2Weight, RangeStats, ALIGN, EXP_MAX, EXP_MIN,
    PRODUCT_BITS,
};
use proptest::prelude::*;

proptest! {
    /// Quantize→dequantize lands within half an LSB for in-range values,
    /// and exactly on the saturation bound outside.
    #[test]
    fn dfp_round_trip_error_bound(x in -1000.0f32..1000.0, frac in -2i8..10) {
        let fmt = DfpFormat::q8(frac);
        let y = fmt.round_trip(x);
        if x.abs() <= fmt.max_value() {
            prop_assert!((y - x).abs() <= fmt.step() / 2.0 + fmt.step() * 1e-4,
                "x={x} y={y} step={}", fmt.step());
        } else {
            prop_assert!(y == fmt.max_value() || y == fmt.min_value());
        }
    }

    /// Quantization is monotone: x ≤ y ⇒ q(x) ≤ q(y).
    #[test]
    fn dfp_quantize_monotone(a in -300.0f32..300.0, b in -300.0f32..300.0, frac in 0i8..8) {
        let fmt = DfpFormat::q8(frac);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(fmt.quantize(lo) <= fmt.quantize(hi));
    }

    /// Codes produced by quantize always lie inside the representable range.
    #[test]
    fn dfp_codes_in_range(x in proptest::num::f32::ANY, frac in -8i8..12) {
        let fmt = DfpFormat::q8(frac);
        let c = fmt.quantize(x);
        prop_assert!(c >= fmt.min_code() && c <= fmt.max_code());
    }

    /// Power-of-two quantization keeps the sign and bounds the log-domain
    /// error by half an octave (for magnitudes within the exponent range).
    #[test]
    fn pow2_log_domain_error(w in 0.008f32..1.0) {
        let q = Pow2Weight::from_f32(w);
        let err = (w.log2() - q.to_f32().abs().log2()).abs();
        prop_assert!(err <= 0.5 + 1e-4, "w={w} q={} err={err}", q.to_f32());
    }

    /// Negation of the input negates the quantized weight.
    #[test]
    fn pow2_odd_symmetry(w in 0.001f32..2.0) {
        let p = Pow2Weight::from_f32(w);
        let n = Pow2Weight::from_f32(-w);
        prop_assert_eq!(p.exp(), n.exp());
        prop_assert_eq!(p.to_f32(), -n.to_f32());
    }

    /// The 4-bit codec is a bijection on valid weights.
    #[test]
    fn pow2_codec_round_trip(w in proptest::num::f32::NORMAL) {
        let q = Pow2Weight::from_f32(w);
        prop_assert_eq!(Pow2Weight::decode4(q.encode4()).unwrap(), q);
    }

    /// Shift-multiply exactly equals multiplication by the weight value,
    /// scaled by 2^7 — for every valid activation code and weight code.
    #[test]
    fn mul_shift_exact(x in -128i32..=127, code in 0u8..16) {
        let w = Pow2Weight::decode4(code).unwrap();
        let p = w.mul_shift(x);
        let expect = (x as f64) * (w.to_f32() as f64) * 128.0;
        prop_assert_eq!(p as f64, expect);
        prop_assert!(fits_in_bits(p as i64, PRODUCT_BITS));
    }

    /// Nibble packing round-trips arbitrary weight vectors.
    #[test]
    fn nibble_pack_round_trip(ws in proptest::collection::vec(-1.0f32..1.0, 0..64)) {
        let qs: Vec<Pow2Weight> = ws.iter().map(|&w| Pow2Weight::from_f32(w)).collect();
        let packed = PackedPow2Matrix::from_weights(1, qs.len(), &qs).unwrap();
        prop_assert_eq!(packed.as_bytes().len(), qs.len().div_ceil(2));
        prop_assert_eq!(packed.to_weights(), qs);
    }

    /// Odd-count nibble packing: the final byte's high nibble is the zero
    /// pad, the round trip is exact, and boundary exponents (±2^0, ±2^−7 —
    /// the extreme 4-bit codes) survive packing at every position,
    /// including the odd tail.
    #[test]
    fn nibble_pack_odd_counts_and_boundary_exponents(
        halves in proptest::collection::vec(0usize..4, 0..32),
        tail in 0usize..4,
    ) {
        // Draw weights only from the boundary corners of the code space:
        // sign × {EXP_MAX, EXP_MIN}.
        let corner = |i: usize| {
            let sign = if i & 1 == 0 { mfdfp_dfp::Sign::Plus } else { mfdfp_dfp::Sign::Minus };
            let exp = if i & 2 == 0 { EXP_MAX } else { EXP_MIN };
            Pow2Weight::new(sign, exp).unwrap()
        };
        let mut qs: Vec<Pow2Weight> = halves.iter().map(|&i| corner(i)).collect();
        if qs.len().is_multiple_of(2) {
            qs.push(corner(tail)); // force an odd count
        }
        prop_assert_eq!(qs.len() % 2, 1);
        let packed = PackedPow2Matrix::from_weights(1, qs.len(), &qs).unwrap();
        let bytes = packed.as_bytes();
        prop_assert_eq!(bytes.len(), qs.len() / 2 + 1);
        // The pad nibble must be zero so deployment images are
        // deterministic byte-for-byte.
        prop_assert_eq!(bytes[bytes.len() - 1] >> 4, 0);
        prop_assert_eq!(packed.to_weights(), qs);
    }

    /// The adder tree computes the exact integer sum for any products that
    /// fit the 16-bit product register.
    #[test]
    fn adder_tree_is_exact_sum(products in proptest::collection::vec(-(1i32<<15)..(1i32<<15), 16)) {
        let tree = AdderTree::new(16).unwrap();
        let expect: i64 = products.iter().map(|&p| p as i64).sum();
        prop_assert_eq!(tree.sum(&products).unwrap(), expect);
    }

    /// shift_round approximates real division by a power of two to within
    /// half a unit, and is odd-symmetric.
    #[test]
    fn shift_round_properties(v in -1_000_000i64..1_000_000, s in 1i32..20) {
        let r = shift_round(v, -s);
        let exact = v as f64 / 2f64.powi(s);
        prop_assert!((r as f64 - exact).abs() <= 0.5 + 1e-9);
        prop_assert_eq!(shift_round(-v, -s), -r);
    }

    /// Realign is lossless when widening and bounded-error when narrowing.
    #[test]
    fn realign_error_bound(v in -100_000i64..100_000, from in 0i32..16, to in 0i32..16) {
        let out = realign(v, from, to);
        let vin = v as f64 * 2f64.powi(-from);
        let vout = out as f64 * 2f64.powi(-to);
        // Error at most half an output LSB.
        prop_assert!((vin - vout).abs() <= 2f64.powi(-to) / 2.0 + 1e-12);
    }

    /// Saturation is idempotent and order-preserving.
    #[test]
    fn saturate_properties(a in proptest::num::i64::ANY, b in proptest::num::i64::ANY, bits in 2u8..32) {
        let sa = saturate(a, bits);
        prop_assert_eq!(saturate(sa, bits), sa);
        if a <= b {
            prop_assert!(sa <= saturate(b, bits));
        }
        prop_assert!(fits_in_bits(sa, bits));
    }

    /// Range analysis always yields a format that covers what it saw.
    #[test]
    fn range_stats_cover(xs in proptest::collection::vec(-500.0f32..500.0, 1..100)) {
        let mut stats = RangeStats::new();
        stats.observe_slice(&xs);
        let fmt = stats.choose_format(8);
        let m = stats.max_abs();
        prop_assert!(fmt.max_value() >= m * 0.999, "fmt {fmt} max_abs {m}");
    }

    /// Merging stats is equivalent to observing the concatenation.
    #[test]
    fn range_stats_merge_equiv(
        a in proptest::collection::vec(-10.0f32..10.0, 0..40),
        b in proptest::collection::vec(-10.0f32..10.0, 0..40),
    ) {
        let mut s1 = RangeStats::new();
        s1.observe_slice(&a);
        let mut s2 = RangeStats::new();
        s2.observe_slice(&b);
        s1.merge(&s2);
        let mut joint = RangeStats::new();
        joint.observe_slice(&a);
        joint.observe_slice(&b);
        prop_assert_eq!(s1.max_abs(), joint.max_abs());
        prop_assert_eq!(s1.count(), joint.count());
    }

    /// A full MAC lane (quantize → shift-mul → tree → accumulate → route)
    /// approximates the float dot product within the error budget of the
    /// two quantization steps combined.
    #[test]
    fn mac_lane_end_to_end(
        xs in proptest::collection::vec(-0.9f32..0.9, 16),
        ws in proptest::collection::vec(-0.9f32..0.9, 16),
    ) {
        let in_fmt = DfpFormat::q8(7);
        let m = 7i32;
        let codes: Vec<i32> = xs.iter().map(|&x| in_fmt.quantize(x)).collect();
        let qw: Vec<Pow2Weight> = ws.iter().map(|&w| Pow2Weight::from_f32(w)).collect();
        let products: Vec<i32> = codes.iter().zip(&qw).map(|(&c, w)| w.mul_shift(c)).collect();
        let tree = AdderTree::new(16).unwrap();
        let mut acc = Accumulator::new();
        acc.add(tree.sum(&products).unwrap()).unwrap();
        // Wide result, fractional length m+7; compare against the float dot
        // product computed with the *quantized* operand values (the lane
        // must be exact w.r.t. its own quantized inputs).
        let got = acc.value() as f64 * 2f64.powi(-(m + 7));
        let expect: f64 = codes
            .iter()
            .zip(&qw)
            .map(|(&c, w)| (c as f64 * 2f64.powi(-m)) * w.to_f32() as f64)
            .sum();
        prop_assert!((got - expect).abs() < 1e-9, "lane must be exact: {got} vs {expect}");
    }
}

#[test]
fn exponent_constants_match_paper() {
    assert_eq!(EXP_MIN, -7);
    assert_eq!(EXP_MAX, 0);
}

/// One step of a buffer-operation sequence: `(operation, size, value seed)`.
type Step = (u8, usize, u64);

/// Random operation sequences; sizes span several 64-byte lines so
/// growth, shrinking and regrowth all cross line boundaries.
fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0u8..7, 0usize..300, proptest::num::u64::ANY), 0..40)
}

/// Applies one step of the shared `Vec` subset to the buffer and to its
/// `Vec` mirror.
fn apply<T: Pod>(
    v: &mut AlignedVec<T>,
    mirror: &mut Vec<T>,
    (op, n, seed): Step,
    val: fn(u64) -> T,
) {
    match op % 5 {
        0 => {
            v.resize(n, val(seed));
            mirror.resize(n, val(seed));
        }
        1 => {
            let items: Vec<T> = (0..n % 9).map(|i| val(seed ^ i as u64)).collect();
            v.extend_from_slice(&items);
            mirror.extend_from_slice(&items);
        }
        2 => {
            v.push(val(seed));
            mirror.push(val(seed));
        }
        3 => {
            v.clear();
            mirror.clear();
        }
        _ => {
            v.reserve(n);
            assert!(v.capacity() >= n, "reserve({n}) left capacity {}", v.capacity());
        }
    }
}

/// The invariants every step must keep: same contents as the mirror, an
/// aligned base pointer, and a capacity that never shrinks.
fn check<T: Pod + PartialEq + Debug>(v: &AlignedVec<T>, mirror: &[T], cap: &mut usize) {
    assert_eq!(v.as_slice(), mirror);
    assert_eq!(v.as_ptr() as usize % ALIGN, 0, "base pointer lost its alignment");
    assert!(v.capacity() >= (*cap).max(v.len()), "capacity {} after {}", v.capacity(), *cap);
    *cap = v.capacity();
}

/// Runs `steps` on an `AlignedVec<T>` against a `Vec<T>` model.
fn run_model<T: Pod + PartialEq + Debug>(steps: &[Step], val: fn(u64) -> T) {
    let (mut v, mut mirror, mut cap) = (AlignedVec::<T>::new(), Vec::new(), 0);
    for &step in steps {
        apply(&mut v, &mut mirror, step, val);
        check(&v, &mirror, &mut cap);
    }
    assert_eq!(v.clone(), AlignedVec::from(mirror.as_slice()));
}

/// Every 8-aligned in-bounds `i64` view equals the mirror's
/// little-endian decode; one word more is a length error, and every
/// misaligned offset an alignment error.
fn check_i64_views(b: &AlignedBytes, mirror: &[u8]) {
    for off in (0..=mirror.len()).step_by(8) {
        let count = (mirror.len() - off) / 8;
        let expect: Vec<i64> = mirror[off..off + 8 * count]
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(b.view::<i64>(off, count).unwrap(), expect.as_slice(), "offset {off}");
        assert!(matches!(b.view::<i64>(off, count + 1), Err(DfpError::LengthMismatch { .. })));
        for skew in 1..8 {
            assert!(matches!(
                b.view::<i64>(off + skew, 0),
                Err(DfpError::Misaligned { align: 8, .. })
            ));
        }
    }
}

proptest! {
    /// `AlignedVec<T>` is a `Vec<T>` with an aligned base: every random
    /// sequence of resize / extend / push / clear / reserve leaves the
    /// same contents as on a `Vec`, for byte, word and float elements.
    #[test]
    fn aligned_vec_matches_vec_model(steps in steps()) {
        run_model::<i8>(&steps, |s| s as i8);
        run_model::<i64>(&steps, |s| s as i64);
        run_model::<f32>(&steps, |s| (s as i32) as f32 / 8.0);
    }

    /// The byte buffer adds the image writer's `pad_to` and
    /// `grow_zeroed` to the same model, and its typed `i64` views agree
    /// with decoding the model's bytes after every step.
    #[test]
    fn aligned_bytes_matches_vec_model_and_views(steps in steps()) {
        let (mut b, mut mirror, mut cap) = (AlignedBytes::new(), Vec::new(), 0);
        for &(op, n, seed) in &steps {
            match op {
                5 => {
                    let align = 1 << (n % 8);
                    b.pad_to(align);
                    mirror.resize(mirror.len().next_multiple_of(align), 0);
                }
                6 => {
                    b.grow_zeroed(n);
                    mirror.resize(mirror.len().max(n), 0);
                }
                _ => apply(&mut b, &mut mirror, (op, n, seed), |s| s as u8),
            }
            check(&b, &mirror, &mut cap);
            check_i64_views(&b, &mirror);
        }
    }
}
