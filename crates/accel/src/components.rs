//! Component-level area/power library (65 nm, 250 MHz, typical corner).
//!
//! The paper synthesises its designs with Synopsys DC and a 65 nm standard
//! cell library; that flow is unavailable offline, so this module supplies
//! per-component area/power constants **calibrated** such that the composed
//! FP32 baseline matches the paper's Table 1 (16.52 mm², 1361.61 mW). The
//! MF-DFP and ensemble designs are then *predicted* from the same constants
//! — the savings percentages are outputs of the model, not inputs
//! (see PAPER_MAP.md, "§4 · Accelerator design").

/// Area (µm²) and power (mW at 250 MHz) of one hardware component.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AreaPower {
    /// Silicon area in µm².
    pub area_um2: f64,
    /// Average power in mW at the design clock.
    pub power_mw: f64,
}

impl AreaPower {
    /// Creates a component cost.
    pub fn new(area_um2: f64, power_mw: f64) -> Self {
        AreaPower { area_um2, power_mw }
    }

    /// Scales the cost by an instance count.
    pub fn times(self, n: usize) -> Self {
        AreaPower { area_um2: self.area_um2 * n as f64, power_mw: self.power_mw * n as f64 }
    }

    /// Sums two costs.
    pub fn plus(self, other: AreaPower) -> Self {
        AreaPower {
            area_um2: self.area_um2 + other.area_um2,
            power_mw: self.power_mw + other.power_mw,
        }
    }

    /// Area in mm².
    pub fn area_mm2(self) -> f64 {
        self.area_um2 / 1e6
    }
}

/// The calibrated 65 nm component library.
///
/// All values are per instance unless stated otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentLibrary {
    /// 32-bit floating-point multiplier (3-stage pipeline).
    pub fp32_multiplier: AreaPower,
    /// 32-bit floating-point adder.
    pub fp32_adder: AreaPower,
    /// Barrel shifter: 8-bit input × 3-bit shift amount → 16-bit product,
    /// with sign handling (the multiplier replacement).
    pub barrel_shifter: AreaPower,
    /// Ripple/carry-select integer adder, **per output bit** — the widening
    /// tree adders (17…20 bit) are priced by their exact widths.
    pub int_adder_per_bit: AreaPower,
    /// Accumulator & Routing unit: 32-bit accumulate + radix realign
    /// shifter + saturator (the `m`/`n` control block of Figure 2(a)).
    pub accumulator_unit: AreaPower,
    /// Non-linearity unit (ReLU comparator + pooling support).
    pub nl_unit: AreaPower,
    /// On-chip SRAM, **per bit** (single-port, including array overheads).
    pub sram_per_bit: AreaPower,
    /// Control circuitry + DMA engines + memory interface (shared across
    /// processing units in the ensemble configuration).
    pub control: AreaPower,
}

impl ComponentLibrary {
    /// The calibrated library (see module docs).
    pub fn calibrated_65nm() -> Self {
        ComponentLibrary {
            fp32_multiplier: AreaPower::new(50_000.0, 4.00),
            fp32_adder: AreaPower::new(13_000.0, 0.95),
            barrel_shifter: AreaPower::new(6_000.0, 0.29),
            int_adder_per_bit: AreaPower::new(55.0, 0.008),
            accumulator_unit: AreaPower::new(6_000.0, 0.35),
            nl_unit: AreaPower::new(4_000.0, 0.40),
            sram_per_bit: AreaPower::new(0.525, 0.000_135),
            control: AreaPower::new(20_000.0, 7.65),
        }
    }

    /// Cost of an integer adder of the given output width.
    pub fn int_adder(&self, bits: u8) -> AreaPower {
        self.int_adder_per_bit.times(bits as usize)
    }

    /// Cost of an SRAM of the given capacity in bits.
    pub fn sram(&self, bits: usize) -> AreaPower {
        self.sram_per_bit.times(bits)
    }
}

impl Default for ComponentLibrary {
    fn default() -> Self {
        ComponentLibrary::calibrated_65nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_helpers() {
        let a = AreaPower::new(100.0, 1.0);
        let b = a.times(3);
        assert_eq!(b.area_um2, 300.0);
        assert_eq!(b.power_mw, 3.0);
        let c = b.plus(AreaPower::new(1.0, 0.5));
        assert_eq!(c.area_um2, 301.0);
        assert_eq!(c.power_mw, 3.5);
        assert!((AreaPower::new(2e6, 0.0).area_mm2() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn multiplier_dwarfs_shifter() {
        // The core claim of the paper's hardware section: a shift unit is an
        // order of magnitude cheaper than an FP32 multiplier.
        let lib = ComponentLibrary::calibrated_65nm();
        assert!(lib.fp32_multiplier.area_um2 / lib.barrel_shifter.area_um2 > 5.0);
        assert!(lib.fp32_multiplier.power_mw / lib.barrel_shifter.power_mw > 10.0);
    }

    #[test]
    fn int_adder_scales_with_width() {
        let lib = ComponentLibrary::calibrated_65nm();
        let a17 = lib.int_adder(17);
        let a20 = lib.int_adder(20);
        assert!(a20.area_um2 > a17.area_um2);
        assert!((a17.area_um2 - 17.0 * 55.0).abs() < 1e-9);
    }

    #[test]
    fn fp32_adder_dwarfs_int_adder() {
        let lib = ComponentLibrary::calibrated_65nm();
        assert!(lib.fp32_adder.area_um2 / lib.int_adder(20).area_um2 > 5.0);
    }

    #[test]
    fn sram_is_per_bit() {
        let lib = ComponentLibrary::calibrated_65nm();
        let one_kb = lib.sram(8 * 1024);
        assert!((one_kb.area_um2 - 8.0 * 1024.0 * 0.525).abs() < 1e-6);
    }
}
