//! Integer power-of-two weights `⟨s, e⟩` and their 4-bit hardware codec.
//!
//! The paper quantizes every weight `w` to `s · 2^e` with
//! `e = max(round(log2 |w|), −7)`; because trained weight magnitudes are
//! below 1, the exponents land in `{0, −1, …, −7}`, so a weight packs into
//! **4 bits** (1 sign + 3 exponent). Multiplication by such a weight is an
//! arithmetic shift — the whole point of the multiplier-free accelerator.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::{DfpError, Result};

/// Most negative representable exponent (paper: bounded by 8-bit inputs).
pub const EXP_MIN: i8 = -7;
/// Largest representable exponent (weight magnitudes are below 1).
pub const EXP_MAX: i8 = 0;

/// The sign of a power-of-two weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Sign {
    /// Weight is `+2^e`.
    Plus,
    /// Weight is `−2^e`.
    Minus,
}

impl Sign {
    /// `+1` or `−1` as an `i32` factor.
    pub fn factor(self) -> i32 {
        match self {
            Sign::Plus => 1,
            Sign::Minus => -1,
        }
    }

    /// Sign of a real number (`Plus` for non-negative, including ±0).
    pub fn of(x: f32) -> Self {
        if x.is_sign_negative() && x != 0.0 {
            Sign::Minus
        } else {
            Sign::Plus
        }
    }
}

/// A weight quantized to an integer power of two: `s · 2^e`, `e ∈ [−7, 0]`.
///
/// # Examples
///
/// ```
/// use mfdfp_dfp::Pow2Weight;
///
/// let w = Pow2Weight::from_f32(-0.30);
/// assert_eq!(w.to_f32(), -0.25);            // nearest power of two in log domain
/// let code = w.encode4();
/// assert_eq!(Pow2Weight::decode4(code)?, w); // 4-bit round trip
/// # Ok::<(), mfdfp_dfp::DfpError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Pow2Weight {
    sign: Sign,
    exp: i8,
}

impl Pow2Weight {
    /// Builds a weight from sign and exponent.
    ///
    /// # Errors
    ///
    /// Returns [`DfpError::BadWeightCode`] if `exp` is outside `[−7, 0]`.
    pub fn new(sign: Sign, exp: i8) -> Result<Self> {
        if !(EXP_MIN..=EXP_MAX).contains(&exp) {
            return Err(DfpError::BadWeightCode(exp as u8));
        }
        Ok(Pow2Weight { sign, exp })
    }

    /// Quantizes a real weight to the nearest power of two in the log
    /// domain (`e = round(log2 |w|)`), clamping `e` to `[−7, 0]`.
    ///
    /// Zero (and sub-`2^−7.5` magnitudes) map to the smallest magnitude
    /// `±2^−7`; the 4-bit code has no exact zero, per the paper.
    pub fn from_f32(w: f32) -> Self {
        let sign = Sign::of(w);
        let mag = w.abs();
        let exp = if mag == 0.0 || mag.is_nan() {
            EXP_MIN
        } else if mag == f32::INFINITY {
            EXP_MAX
        } else {
            let e = mag.log2().round();
            e.clamp(EXP_MIN as f32, EXP_MAX as f32) as i8
        };
        Pow2Weight { sign, exp }
    }

    /// The represented real value `s · 2^e`.
    pub fn to_f32(self) -> f32 {
        self.sign.factor() as f32 * (self.exp as f32).exp2()
    }

    /// The weight's sign.
    pub fn sign(self) -> Sign {
        self.sign
    }

    /// The weight's exponent `e ∈ [−7, 0]`.
    pub fn exp(self) -> i8 {
        self.exp
    }

    /// Packs into the 4-bit hardware code: bit 3 = sign (1 ⇒ negative),
    /// bits 2..0 = `−e`.
    pub fn encode4(self) -> u8 {
        let sign_bit = match self.sign {
            Sign::Plus => 0u8,
            Sign::Minus => 1u8,
        };
        (sign_bit << 3) | ((-self.exp) as u8 & 0x7)
    }

    /// Unpacks a 4-bit hardware code.
    ///
    /// # Errors
    ///
    /// Returns [`DfpError::BadWeightCode`] if `code > 15`.
    pub fn decode4(code: u8) -> Result<Self> {
        if code > 0xF {
            return Err(DfpError::BadWeightCode(code));
        }
        let sign = if code & 0x8 != 0 { Sign::Minus } else { Sign::Plus };
        let exp = -((code & 0x7) as i8);
        Ok(Pow2Weight { sign, exp })
    }

    /// Multiplies an integer activation code by this weight **exactly**, in
    /// a widened register, using only negate-and-shift — the hardware
    /// operation `(s · x) ≪ e`.
    ///
    /// The input `x` is an activation code in some format `⟨b, m⟩`; the
    /// returned product is an integer in format `⟨b+7, m+7⟩`:
    /// `x·2^(−m) · s·2^e  =  (s·x · 2^(e+7)) · 2^(−m−7)` with
    /// `e + 7 ∈ [0, 7]`, so the left shift is always non-negative and no
    /// precision is lost (the paper's "no loss in intermediate values").
    ///
    /// # Examples
    ///
    /// ```
    /// use mfdfp_dfp::Pow2Weight;
    ///
    /// // w = −0.25 = −2^−2; an activation code x stands for x·2^−m.
    /// let w = Pow2Weight::from_f32(-0.25);
    /// // The product carries 7 extra fractional bits: −0.25·80 = −20,
    /// // returned as −20·2^7 = −2560 in format ⟨·, m+7⟩.
    /// assert_eq!(w.mul_shift(80), -2560);
    /// // Exactly sign · (x << (e + 7)) — a negate and a shift, no multiplier.
    /// assert_eq!(w.mul_shift(80), -(80 << 5));
    /// ```
    pub fn mul_shift(self, x: i32) -> i32 {
        (self.sign.factor() * x) << (self.exp - EXP_MIN)
    }

    /// Stochastically quantizes `w`, choosing between the two neighbouring
    /// exponents with probability proportional to log-domain proximity.
    ///
    /// `u` must be a uniform sample in `[0, 1)`. The paper evaluated both
    /// and chose deterministic quantization ([`Pow2Weight::from_f32`]);
    /// this variant exists for the ablation bench.
    pub fn from_f32_stochastic(w: f32, u: f32) -> Self {
        let sign = Sign::of(w);
        let mag = w.abs();
        if mag == 0.0 || !mag.is_finite() {
            return Pow2Weight { sign, exp: EXP_MIN };
        }
        let l = mag.log2();
        let lo = l.floor();
        let frac = l - lo;
        let e = if u < frac { lo + 1.0 } else { lo };
        let exp = e.clamp(EXP_MIN as f32, EXP_MAX as f32) as i8;
        Pow2Weight { sign, exp }
    }
}

impl fmt::Display for Pow2Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self.sign {
            Sign::Plus => '+',
            Sign::Minus => '-',
        };
        write!(f, "{s}2^{}", self.exp)
    }
}

/// Quantizes a slice of real weights to powers of two (deterministic).
pub fn quantize_weights(ws: &[f32]) -> Vec<Pow2Weight> {
    ws.iter().map(|&w| Pow2Weight::from_f32(w)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantizes_to_nearest_log_domain_power() {
        // 0.3 → log2 = -1.74 → rounds to -2 → 0.25
        assert_eq!(Pow2Weight::from_f32(0.3).to_f32(), 0.25);
        // 0.4 → log2 = -1.32 → rounds to -1 → 0.5
        assert_eq!(Pow2Weight::from_f32(0.4).to_f32(), 0.5);
        assert_eq!(Pow2Weight::from_f32(-0.3).to_f32(), -0.25);
        assert_eq!(Pow2Weight::from_f32(1.0).to_f32(), 1.0);
        assert_eq!(Pow2Weight::from_f32(0.125).to_f32(), 0.125);
    }

    #[test]
    fn exponent_clamps_at_minus_seven() {
        let w = Pow2Weight::from_f32(1e-9);
        assert_eq!(w.exp(), -7);
        assert_eq!(Pow2Weight::from_f32(0.0).exp(), -7);
    }

    #[test]
    fn exponent_clamps_at_zero() {
        let w = Pow2Weight::from_f32(100.0);
        assert_eq!(w.exp(), 0);
        assert_eq!(w.to_f32(), 1.0);
    }

    #[test]
    fn four_bit_round_trip_all_codes() {
        for code in 0..16u8 {
            let w = Pow2Weight::decode4(code).unwrap();
            assert_eq!(w.encode4(), code);
        }
        assert!(Pow2Weight::decode4(16).is_err());
    }

    #[test]
    fn all_sixteen_values_distinct() {
        let mut vals: Vec<f32> =
            (0..16u8).map(|c| Pow2Weight::decode4(c).unwrap().to_f32()).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        vals.dedup();
        assert_eq!(vals.len(), 16, "4-bit codes must map to 16 distinct weights");
    }

    #[test]
    fn mul_shift_equals_float_multiply() {
        for code in 0..16u8 {
            let w = Pow2Weight::decode4(code).unwrap();
            for x in [-128i32, -77, -1, 0, 1, 5, 127] {
                let exact = w.mul_shift(x);
                // mul_shift returns the product scaled by 2^7 relative to x.
                let float = (x as f32) * w.to_f32() * 128.0;
                assert_eq!(exact as f32, float, "w={w} x={x}");
            }
        }
    }

    #[test]
    fn mul_shift_fits_sixteen_bits() {
        // Worst case |x| = 128, e = 0 → |p| = 128·128 = 16384 < 2^15.
        for code in 0..16u8 {
            let w = Pow2Weight::decode4(code).unwrap();
            for x in [-128i32, 127] {
                let p = w.mul_shift(x);
                assert!((-(1 << 15)..(1 << 15)).contains(&p), "product {p} overflows 16 bits");
            }
        }
    }

    #[test]
    fn log_domain_rounding_boundary() {
        // Midpoint in log domain between 2^-1 and 2^-2 is 2^-1.5 ≈ 0.35355.
        let just_above = Pow2Weight::from_f32(0.36);
        assert_eq!(just_above.exp(), -1);
        let just_below = Pow2Weight::from_f32(0.35);
        assert_eq!(just_below.exp(), -2);
    }

    #[test]
    fn relative_error_bounded_by_sqrt2() {
        // Log-domain rounding guarantees w/ŵ ∈ [2^-0.5, 2^0.5].
        for i in 1..1000 {
            let w = i as f32 / 1000.0; // (0, 1]
            let q = Pow2Weight::from_f32(w).to_f32();
            let ratio = w / q;
            if w >= 2.0f32.powi(-7) {
                assert!(
                    (2f32.powf(-0.5) - 1e-3..=2f32.powf(0.5) + 1e-3).contains(&ratio),
                    "w={w} q={q} ratio={ratio}"
                );
            }
        }
    }

    #[test]
    fn stochastic_quantization_brackets_deterministic() {
        let w = 0.3f32; // log2 = -1.737
        let down = Pow2Weight::from_f32_stochastic(w, 0.9); // u > frac(0.263) → floor
        let up = Pow2Weight::from_f32_stochastic(w, 0.1); // u < frac → ceil
        assert_eq!(down.to_f32(), 0.25);
        assert_eq!(up.to_f32(), 0.5);
    }

    #[test]
    fn stochastic_is_unbiased_in_log_domain() {
        let w = 0.3f32;
        let n = 10_000;
        let mut ups = 0;
        for i in 0..n {
            let u = (i as f32 + 0.5) / n as f32;
            if Pow2Weight::from_f32_stochastic(w, u).to_f32() == 0.5 {
                ups += 1;
            }
        }
        let frac = (w.log2() - w.log2().floor()) as f64;
        assert!((ups as f64 / n as f64 - frac).abs() < 0.01);
    }

    #[test]
    fn nibble_packing_round_trip() {
        let ws: Vec<Pow2Weight> = [0.5f32, -0.25, 0.007, 1.0, -1.0, 0.1, 0.9]
            .iter()
            .map(|&w| Pow2Weight::from_f32(w))
            .collect();
        let packed = crate::PackedPow2Matrix::from_weights(1, ws.len(), &ws).unwrap();
        assert_eq!(packed.as_bytes().len(), 4); // ceil(7/2)
        assert_eq!(packed.to_weights(), ws);
        assert!(crate::PackedPow2Matrix::from_weights(1, 9, &ws).is_err());
    }

    #[test]
    fn new_validates_exponent() {
        assert!(Pow2Weight::new(Sign::Plus, 0).is_ok());
        assert!(Pow2Weight::new(Sign::Plus, -7).is_ok());
        assert!(Pow2Weight::new(Sign::Plus, 1).is_err());
        assert!(Pow2Weight::new(Sign::Minus, -8).is_err());
    }

    #[test]
    fn display_shows_sign_and_exponent() {
        assert_eq!(Pow2Weight::from_f32(0.25).to_string(), "+2^-2");
        assert_eq!(Pow2Weight::from_f32(-1.0).to_string(), "-2^0");
    }

    #[test]
    fn sign_of_handles_negative_zero() {
        assert_eq!(Sign::of(-0.0).factor(), 1);
        assert_eq!(Sign::of(-1.0).factor(), -1);
        assert_eq!(Sign::of(2.0).factor(), 1);
    }
}
