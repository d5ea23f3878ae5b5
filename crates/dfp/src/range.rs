//! Ristretto-style range analysis: choosing per-layer fractional lengths
//! from observed activation statistics.

use crate::format::DfpFormat;

/// Running range statistics over a stream of real values.
///
/// During calibration (a forward pass of the float network over a sample of
/// training data) one `RangeStats` per layer records the observed extremes;
/// [`RangeStats::choose_format`] then picks the fractional length that
/// covers the range with 8 bits — the "dynamic" in dynamic fixed point.
///
/// # Examples
///
/// ```
/// use mfdfp_dfp::RangeStats;
///
/// let mut stats = RangeStats::new();
/// stats.observe_slice(&[0.1, -2.4, 1.9]);
/// let fmt = stats.choose_format(8);
/// assert!(fmt.max_value() >= 2.4);          // covers the range
/// assert!(fmt.max_value() < 2.0 * 2.4 + 1.0); // without wasting bits
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeStats {
    max_abs: f32,
    count: u64,
    sum_abs: f64,
}

impl RangeStats {
    /// Fresh, empty statistics.
    pub fn new() -> Self {
        RangeStats { max_abs: 0.0, count: 0, sum_abs: 0.0 }
    }

    /// Records one value.
    pub fn observe(&mut self, x: f32) {
        if x.is_finite() {
            self.max_abs = self.max_abs.max(x.abs());
            self.sum_abs += x.abs() as f64;
            self.count += 1;
        }
    }

    /// Records every value in a slice.
    pub fn observe_slice(&mut self, xs: &[f32]) {
        for &x in xs {
            self.observe(x);
        }
    }

    /// Merges statistics gathered elsewhere (e.g. another batch).
    pub fn merge(&mut self, other: &RangeStats) {
        self.max_abs = self.max_abs.max(other.max_abs);
        self.sum_abs += other.sum_abs;
        self.count += other.count;
    }

    /// Largest absolute value observed.
    pub fn max_abs(&self) -> f32 {
        self.max_abs
    }

    /// Number of finite values observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean absolute value observed (0 when empty).
    pub fn mean_abs(&self) -> f32 {
        if self.count == 0 {
            0.0
        } else {
            (self.sum_abs / self.count as f64) as f32
        }
    }

    /// Chooses the `bits`-bit dynamic fixed-point format whose range just
    /// covers the observed maximum (Ristretto's rule): integer length
    /// `il = ceil(log2 max_abs)` bits before the radix point, so
    /// `f = bits − 1 − il`.
    ///
    /// With no observations the all-fractional format `⟨bits, bits−1⟩` is
    /// returned.
    pub fn choose_format(&self, bits: u8) -> DfpFormat {
        DfpFormat::new(bits, Self::frac_for_max_abs(self.max_abs, bits))
            .expect("bits validated by caller formats")
    }

    /// The fractional length covering `max_abs` with `bits` total bits.
    ///
    /// Chooses the largest `f` with `max_code · 2^(−f) ≥ max_abs`, i.e.
    /// `f = ⌊log2(max_code / max_abs)⌋` — note the max *code* is
    /// `2^(b−1) − 1`, not `2^(b−1)`, so values in the last-LSB sliver just
    /// below a power of two need one fewer fractional bit than the naive
    /// integer-length rule gives. A final verification step guards the
    /// floating-point edge cases.
    pub fn frac_for_max_abs(max_abs: f32, bits: u8) -> i8 {
        if max_abs <= 0.0 {
            return (bits - 1) as i8;
        }
        let max_code = ((1i64 << (bits - 1)) - 1) as f32;
        let mut f =
            (max_code / max_abs).log2().floor().clamp(i8::MIN as f32, i8::MAX as f32) as i32;
        // Floating-point log2 can land one off at exact-ratio boundaries;
        // verify and adjust (at most one step in practice).
        while f > i8::MIN as i32 && max_code * (-f as f32).exp2() < max_abs {
            f -= 1;
        }
        f as i8
    }
}

impl Default for RangeStats {
    fn default() -> Self {
        RangeStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_default_to_all_fractional() {
        let s = RangeStats::new();
        assert_eq!(s.choose_format(8).frac(), 7);
    }

    #[test]
    fn observe_tracks_max_abs() {
        let mut s = RangeStats::new();
        s.observe_slice(&[0.5, -3.0, 2.0]);
        assert_eq!(s.max_abs(), 3.0);
        assert_eq!(s.count(), 3);
        assert!((s.mean_abs() - (0.5 + 3.0 + 2.0) / 3.0).abs() < 1e-6);
    }

    #[test]
    fn non_finite_values_ignored() {
        let mut s = RangeStats::new();
        s.observe(f32::NAN);
        s.observe(f32::INFINITY);
        s.observe(1.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.max_abs(), 1.0);
    }

    #[test]
    fn chosen_format_covers_range() {
        for max in [0.01f32, 0.3, 0.99, 1.0, 1.5, 3.9, 4.0, 100.0, 200.0] {
            let mut s = RangeStats::new();
            s.observe(max);
            let fmt = s.choose_format(8);
            assert!(
                fmt.max_value() >= max * 0.999,
                "format {fmt} max {} does not cover {max}",
                fmt.max_value()
            );
            // And is tight: half the range would not cover.
            let tighter = DfpFormat::new(8, fmt.frac() + 1).unwrap();
            assert!(tighter.max_value() < max, "format {fmt} wastes a bit for max_abs {max}");
        }
    }

    #[test]
    fn known_fractional_lengths() {
        // max 0.9 → il = 0 → f = 7; range ±0.992.
        assert_eq!(RangeStats::frac_for_max_abs(0.9, 8), 7);
        // max 1.5 → il = 1 → f = 6; range ±1.98.
        assert_eq!(RangeStats::frac_for_max_abs(1.5, 8), 6);
        // max 100 → il = 7 → f = 0; range ±127.
        assert_eq!(RangeStats::frac_for_max_abs(100.0, 8), 0);
        // max 200 → il = 8 → f = −1; range ±254.
        assert_eq!(RangeStats::frac_for_max_abs(200.0, 8), -1);
        // Tiny values gain fractional bits beyond the word: max 0.004 →
        // il = −7 (0.004 < 2^−7) → wait: ceil(log2 0.004) = −7 → f = 14.
        assert_eq!(RangeStats::frac_for_max_abs(0.004, 8), 14);
    }

    #[test]
    fn exact_powers_of_two_still_covered() {
        // 1.0 cannot be represented in ⟨8,7⟩ (max 0.992); rule must pick f=6.
        assert_eq!(RangeStats::frac_for_max_abs(1.0, 8), 6);
        assert_eq!(RangeStats::frac_for_max_abs(4.0, 8), 4);
    }

    #[test]
    fn merge_combines_batches() {
        let mut a = RangeStats::new();
        a.observe_slice(&[1.0, 2.0]);
        let mut b = RangeStats::new();
        b.observe_slice(&[-5.0]);
        a.merge(&b);
        assert_eq!(a.max_abs(), 5.0);
        assert_eq!(a.count(), 3);
    }
}
