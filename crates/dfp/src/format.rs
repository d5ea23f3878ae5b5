//! Dynamic fixed-point format `⟨b, f⟩` and activation quantization.

use std::fmt;

use crate::error::{DfpError, Result};

/// A dynamic fixed-point format `⟨b, f⟩` (Courbariaux et al. notation used
/// by the paper): `b` total bits including sign, fractional length `f`.
///
/// A stored integer code `c` represents the real value `c · 2^(−f)`.
/// "Dynamic" refers to different layers choosing different `f` — the paper's
/// central data representation (`b = 8` everywhere in their experiments).
///
/// `f` may be negative (values larger than the integer range) or exceed
/// `b−1` (values much smaller than 1); both arise in practice.
///
/// # Examples
///
/// ```
/// use mfdfp_dfp::DfpFormat;
///
/// let fmt = DfpFormat::new(8, 5)?; // Q2.5, range ±3.96875
/// let code = fmt.quantize(1.37);
/// assert_eq!(code, 44); // 44 · 2⁻⁵ = 1.375
/// assert!((fmt.dequantize(code) - 1.375).abs() < 1e-6);
/// # Ok::<(), mfdfp_dfp::DfpError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DfpFormat {
    bits: u8,
    frac: i8,
}

impl DfpFormat {
    /// The paper's activation bit-width.
    pub const PAPER_BITS: u8 = 8;

    /// Creates a format with `bits` total bits and fractional length `frac`.
    ///
    /// # Errors
    ///
    /// Returns [`DfpError::BadFormat`] unless `2 ≤ bits ≤ 32`.
    pub fn new(bits: u8, frac: i8) -> Result<Self> {
        if !(2..=32).contains(&bits) {
            return Err(DfpError::BadFormat { bits, frac });
        }
        Ok(DfpFormat { bits, frac })
    }

    /// The paper's 8-bit format with fractional length `frac`.
    pub fn q8(frac: i8) -> Self {
        DfpFormat { bits: 8, frac }
    }

    /// Total bit-width (including sign).
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Fractional length `f`; the radix point sits `f` bits from the LSB.
    pub fn frac(&self) -> i8 {
        self.frac
    }

    /// Quantization step `2^(−f)` — the value of one LSB.
    ///
    /// Built from its bits rather than by `exp2f`: every `2^(−f)` an `i8`
    /// fraction reaches is a normal `f64`, and the cast to `f32` rounds
    /// `2^128` to infinity and keeps `2^−127` as the exact subnormal, as
    /// `exp2f` does — without a libm call per quantized element.
    #[inline]
    pub fn step(&self) -> f32 {
        f64::from_bits(((1023 - self.frac as i64) as u64) << 52) as f32
    }

    /// Largest representable integer code: `2^(b−1) − 1`.
    #[inline]
    pub fn max_code(&self) -> i32 {
        i32::MAX >> (32 - self.bits)
    }

    /// Smallest representable integer code: `−2^(b−1)`.
    #[inline]
    pub fn min_code(&self) -> i32 {
        i32::MIN >> (32 - self.bits)
    }

    /// Largest representable real value.
    pub fn max_value(&self) -> f32 {
        self.max_code() as f32 * self.step()
    }

    /// Smallest (most negative) representable real value.
    pub fn min_value(&self) -> f32 {
        self.min_code() as f32 * self.step()
    }

    /// Quantizes a real value to the nearest integer code, saturating at the
    /// format bounds (round half away from zero, the hardware convention).
    /// NaN quantizes to 0.
    ///
    /// `scaled ± 0.5` truncated toward zero is `floor(scaled + 0.5)` for
    /// `scaled ≥ 0` and `ceil(scaled − 0.5)` below, so the rounding needs
    /// no `floorf`/`ceilf` call: `as i32` truncates, saturates at the
    /// `i32` rails and maps NaN to 0, and an integer clamp then puts the
    /// code on the format's rails exactly — a float clamp could not, since
    /// `2^(b−1) − 1` is not an `f32` for `b ≥ 26`.
    #[inline]
    pub fn quantize(&self, x: f32) -> i32 {
        let scaled = x / self.step();
        let rounded = (scaled + 0.5f32.copysign(scaled)) as i32;
        rounded.clamp(self.min_code(), self.max_code())
    }

    /// Real value of an integer code.
    #[inline]
    pub fn dequantize(&self, code: i32) -> f32 {
        code as f32 * self.step()
    }

    /// Quantize-dequantize round trip: the representable value nearest `x`.
    pub fn round_trip(&self, x: f32) -> f32 {
        self.dequantize(self.quantize(x))
    }

    /// Quantizes a slice of reals into integer codes.
    pub fn quantize_slice(&self, xs: &[f32]) -> Vec<i32> {
        xs.iter().map(|&x| self.quantize(x)).collect()
    }

    /// Dequantizes a slice of codes into reals.
    pub fn dequantize_slice(&self, codes: &[i32]) -> Vec<f32> {
        codes.iter().map(|&c| self.dequantize(c)).collect()
    }

    /// Worst-case absolute quantization error for in-range values: half an
    /// LSB.
    pub fn max_abs_error(&self) -> f32 {
        self.step() / 2.0
    }
}

impl Default for DfpFormat {
    /// The paper's default: 8 bits, radix point mid-word (Q3.4).
    fn default() -> Self {
        DfpFormat::q8(4)
    }
}

impl fmt::Display for DfpFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{},{}⟩", self.bits, self.frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_bounds() {
        assert!(DfpFormat::new(8, 4).is_ok());
        assert!(DfpFormat::new(1, 0).is_err());
        assert!(DfpFormat::new(33, 0).is_err());
        assert!(DfpFormat::new(2, -8).is_ok());
    }

    #[test]
    fn code_range_is_twos_complement() {
        let f = DfpFormat::q8(0);
        assert_eq!(f.max_code(), 127);
        assert_eq!(f.min_code(), -128);
        let f = DfpFormat::new(4, 0).unwrap();
        assert_eq!(f.max_code(), 7);
        assert_eq!(f.min_code(), -8);
    }

    #[test]
    fn step_and_range_follow_frac() {
        let f = DfpFormat::q8(7);
        assert_eq!(f.step(), 1.0 / 128.0);
        assert!((f.max_value() - 127.0 / 128.0).abs() < 1e-6);
        let f = DfpFormat::q8(0);
        assert_eq!(f.max_value(), 127.0);
        // Negative fractional length scales up.
        let f = DfpFormat::q8(-2);
        assert_eq!(f.step(), 4.0);
        assert_eq!(f.max_value(), 508.0);
    }

    #[test]
    fn quantize_round_half_away_from_zero() {
        let f = DfpFormat::q8(0);
        assert_eq!(f.quantize(2.5), 3);
        assert_eq!(f.quantize(-2.5), -3);
        assert_eq!(f.quantize(2.4), 2);
        assert_eq!(f.quantize(-2.4), -2);
    }

    #[test]
    fn quantize_saturates() {
        let f = DfpFormat::q8(0);
        assert_eq!(f.quantize(1e9), 127);
        assert_eq!(f.quantize(-1e9), -128);
        assert_eq!(f.quantize(f32::INFINITY), 127);
        assert_eq!(f.quantize(f32::NEG_INFINITY), -128);
        assert_eq!(f.quantize(f32::NAN), 0);
    }

    #[test]
    fn round_trip_error_within_half_step() {
        let f = DfpFormat::q8(5);
        for i in -100..100 {
            let x = i as f32 * 0.037;
            if x.abs() <= f.max_value() {
                let err = (f.round_trip(x) - x).abs();
                assert!(err <= f.max_abs_error() + 1e-7, "x={x} err={err}");
            }
        }
    }

    #[test]
    fn known_example_from_docs() {
        let f = DfpFormat::new(8, 5).unwrap();
        assert_eq!(f.quantize(1.37), 44);
        assert!((f.dequantize(44) - 1.375).abs() < 1e-6);
    }

    #[test]
    fn exact_codes_survive() {
        let f = DfpFormat::q8(4);
        for code in [-128, -77, -1, 0, 1, 64, 127] {
            assert_eq!(f.quantize(f.dequantize(code)), code);
        }
    }

    /// Every radix point a model can load ([−32, 32]) dequantizes the 256
    /// codes of an 8-bit format to 256 distinct finite values, so two
    /// dequantized logit vectors agree bit for bit exactly when their
    /// codes do. (It fails from frac −122 down, where every code from 64
    /// up overflows `f32` to infinity.)
    #[test]
    fn dequantize_is_injective_on_8_bit_codes() {
        for frac in -32..=32i8 {
            let f = DfpFormat::q8(frac);
            let mut bits: Vec<u32> = (f.min_code()..=f.max_code())
                .map(|c| {
                    let v = f.dequantize(c);
                    assert!(v.is_finite(), "frac {frac}, code {c}: {v}");
                    v.to_bits()
                })
                .collect();
            bits.sort_unstable();
            bits.dedup();
            assert_eq!(bits.len(), 256, "frac {frac}: two codes share a value");
        }
    }

    #[test]
    fn slice_helpers() {
        let f = DfpFormat::q8(4);
        let xs = [0.5, -0.25, 3.0];
        let codes = f.quantize_slice(&xs);
        assert_eq!(codes, vec![8, -4, 48]);
        let back = f.dequantize_slice(&codes);
        assert_eq!(back, vec![0.5, -0.25, 3.0]);
    }

    /// The float-clamp quantizer `quantize` replaced: `floorf`/`ceilf`
    /// rounding and a clamp to the rails as `f32`. The reference for every
    /// format whose rails are `f32`s (`bits ≤ 25`).
    fn quantize_float_clamp(f: &DfpFormat, x: f32) -> i32 {
        if x.is_nan() {
            return 0;
        }
        let scaled = x / (-(f.frac() as f32)).exp2();
        let rounded = if scaled >= 0.0 { (scaled + 0.5).floor() } else { (scaled - 0.5).ceil() };
        let max_code = (1i32 << (f.bits() - 1)) - 1;
        let min_code = -(1i32 << (f.bits() - 1));
        rounded.clamp(min_code as f32, max_code as f32) as i32
    }

    fn assert_matches_float_clamp(f: &DfpFormat, x: f32) {
        assert_eq!(
            f.quantize(x),
            quantize_float_clamp(f, x),
            "{f} x={x:e} ({:#010x})",
            x.to_bits()
        );
    }

    #[test]
    fn integer_clamp_matches_float_clamp_up_to_25_bits() {
        let specials = [
            0.0f32,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007F_FFFF),
            -f32::from_bits(0x007F_FFFF),
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MAX,
            f32::MIN,
            0.49999997,
            -0.49999997,
        ];
        for bits in 2u8..=25 {
            for frac in [-6i8, 0, 7, bits as i8 + 3] {
                let f = DfpFormat::new(bits, frac).unwrap();
                for &x in &specials {
                    assert_matches_float_clamp(&f, x);
                }
                // The rails, one ulp either side of each.
                for rail in [f.max_value(), f.min_value()] {
                    for d in [-1i32, 0, 1] {
                        let x = f32::from_bits(rail.to_bits().wrapping_add_signed(d));
                        assert_matches_float_clamp(&f, x);
                    }
                }
                // A strided sweep of every sign, exponent and mantissa.
                for u in (0..=u32::MAX).step_by(65_521) {
                    assert_matches_float_clamp(&f, f32::from_bits(u));
                }
            }
            // Every code and both of its `k ± 0.5` ties (one format per
            // width, so the sweep stays at 2^26 codes in all).
            let f = DfpFormat::new(bits, 1).unwrap();
            for k in f.min_code()..=f.max_code() {
                let x = k as f32 * f.step();
                for y in [x, x - f.step() / 2.0, x + f.step() / 2.0] {
                    assert_matches_float_clamp(&f, y);
                }
            }
        }
    }

    #[test]
    fn step_is_exp2_of_minus_frac() {
        for frac in i8::MIN..=i8::MAX {
            let want = (-(frac as f32)).exp2();
            assert_eq!(DfpFormat::q8(frac).step().to_bits(), want.to_bits(), "frac={frac}");
        }
    }

    #[test]
    fn wide_formats_hit_their_rails_exactly() {
        for bits in [2u8, 8, 24, 26, 31, 32] {
            let f = DfpFormat::new(bits, 0).unwrap();
            let max = (1i64 << (bits - 1)) - 1;
            assert_eq!(f.max_code() as i64, max, "bits={bits}");
            assert_eq!(f.min_code() as i64, -max - 1, "bits={bits}");
            for big in [1e12f32, f32::MAX, f32::INFINITY] {
                assert_eq!(f.quantize(big), f.max_code(), "bits={bits} x={big:e}");
                assert_eq!(f.quantize(-big), f.min_code(), "bits={bits} x={:e}", -big);
            }
        }
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(DfpFormat::q8(4).to_string(), "⟨8,4⟩");
    }

    #[test]
    fn default_is_paper_bits() {
        assert_eq!(DfpFormat::default().bits(), DfpFormat::PAPER_BITS);
    }
}
