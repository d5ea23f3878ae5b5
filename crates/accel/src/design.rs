//! Accelerator design composition: datapath precision, processing-unit
//! organisation, memory subsystem — and the resulting area/power.

use mfdfp_dfp::AdderTree;

use crate::components::{AreaPower, ComponentLibrary};
use crate::error::{AccelError, Result};

/// Datapath precision of an accelerator design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 32-bit floating point throughout (the paper's baseline): real
    /// multipliers, constant 32-bit datapath.
    Fp32,
    /// The paper's multiplier-free dynamic fixed point: 8-bit activations,
    /// 4-bit power-of-two weights, shift-based products, widening integer
    /// adder tree.
    MfDfp,
}

impl Precision {
    /// The `(input bits, weight bits)` the paper prints next to each
    /// design, e.g. "MF-DFP(8,4)".
    pub fn bits(self) -> (u8, u8) {
        match self {
            Precision::Fp32 => (32, 32),
            Precision::MfDfp => (8, 4),
        }
    }
}

/// Configuration of one accelerator instance.
///
/// The paper's organisation (Section 5): processing units of 16 physical
/// neurons × 16 synapses each (DianNao-style), three dedicated buffers
/// (input / weights / output) with DMA, shared control. The ensemble
/// design instantiates `num_pus = 2` with duplicated datapaths and buffers
/// but shared control.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorConfig {
    /// Datapath precision.
    pub precision: Precision,
    /// Number of processing units (1 = single network, 2 = paper ensemble).
    pub num_pus: usize,
    /// Physical neurons per processing unit.
    pub neurons: usize,
    /// Synapses (MAC lanes) per neuron.
    pub synapses: usize,
    /// Entries in the input buffer (each entry feeds all synapse lanes).
    pub nbin_entries: usize,
    /// Entries in the weight buffer.
    pub sb_entries: usize,
    /// Entries in the output buffer.
    pub nbout_entries: usize,
    /// Clock frequency in MHz (paper: constant 250 MHz for all designs).
    pub clock_mhz: f64,
}

impl AcceleratorConfig {
    /// The paper's FP32 baseline: one PU, 32-bit everywhere.
    pub fn paper_fp32() -> Self {
        AcceleratorConfig { precision: Precision::Fp32, num_pus: 1, ..Self::base() }
    }

    /// The paper's proposed MF-DFP(8,4) design: one PU.
    pub fn paper_mf_dfp() -> Self {
        AcceleratorConfig { precision: Precision::MfDfp, num_pus: 1, ..Self::base() }
    }

    /// The paper's ensemble design: two MF-DFP PUs, shared control.
    pub fn paper_ensemble() -> Self {
        AcceleratorConfig { precision: Precision::MfDfp, num_pus: 2, ..Self::base() }
    }

    fn base() -> Self {
        AcceleratorConfig {
            precision: Precision::MfDfp,
            num_pus: 1,
            neurons: 16,
            synapses: 16,
            nbin_entries: 64,
            sb_entries: 64,
            nbout_entries: 64,
            clock_mhz: 250.0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::BadConfig`] for zero-sized structures or a
    /// synapse count that is not a power of two (the adder tree requires
    /// one).
    pub fn validate(&self) -> Result<()> {
        if self.num_pus == 0 || self.neurons == 0 || self.synapses == 0 {
            return Err(AccelError::BadConfig("PU/neuron/synapse counts must be positive".into()));
        }
        if !self.synapses.is_power_of_two() || self.synapses < 2 {
            return Err(AccelError::BadConfig(format!(
                "synapses per neuron must be a power of two ≥ 2 for the adder tree, got {}",
                self.synapses
            )));
        }
        if self.nbin_entries == 0 || self.sb_entries == 0 || self.nbout_entries == 0 {
            return Err(AccelError::BadConfig("buffer entry counts must be positive".into()));
        }
        if self.clock_mhz <= 0.0 || self.clock_mhz.is_nan() {
            return Err(AccelError::BadConfig(format!(
                "clock must be positive, got {} MHz",
                self.clock_mhz
            )));
        }
        Ok(())
    }

    /// MAC lanes per PU (`neurons × synapses`).
    pub fn lanes_per_pu(&self) -> usize {
        self.neurons * self.synapses
    }

    /// `(activation bits, weight bits)` of the datapath.
    pub fn bits(&self) -> (u8, u8) {
        self.precision.bits()
    }

    /// Total on-chip buffer capacity in bits, per PU.
    pub fn buffer_bits_per_pu(&self) -> usize {
        let (act_bits, w_bits) = self.bits();
        let nbin = self.nbin_entries * self.synapses * act_bits as usize;
        let sb = self.sb_entries * self.lanes_per_pu() * w_bits as usize;
        let nbout = self.nbout_entries * self.neurons * act_bits as usize;
        nbin + sb + nbout
    }

    /// Clock period in nanoseconds.
    pub fn clock_period_ns(&self) -> f64 {
        1e3 / self.clock_mhz
    }
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        AcceleratorConfig::paper_mf_dfp()
    }
}

/// One line of an area/power breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownLine {
    /// Component group name.
    pub component: String,
    /// Instance count.
    pub count: usize,
    /// Aggregate cost of the group.
    pub cost: AreaPower,
}

/// Area/power of a composed accelerator design.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignMetrics {
    /// Total silicon area (mm²).
    pub area_mm2: f64,
    /// Total power (mW) at the design clock.
    pub power_mw: f64,
    /// Per-component-group breakdown.
    pub breakdown: Vec<BreakdownLine>,
}

impl DesignMetrics {
    /// Percentage saving of `self` relative to `baseline` in area.
    pub fn area_saving_vs(&self, baseline: &DesignMetrics) -> f64 {
        100.0 * (1.0 - self.area_mm2 / baseline.area_mm2)
    }

    /// Percentage saving of `self` relative to `baseline` in power.
    pub fn power_saving_vs(&self, baseline: &DesignMetrics) -> f64 {
        100.0 * (1.0 - self.power_mw / baseline.power_mw)
    }
}

/// Composes the area/power of a design from the component library.
///
/// # Errors
///
/// Returns [`AccelError::BadConfig`] if the configuration is invalid.
pub fn design_metrics(cfg: &AcceleratorConfig, lib: &ComponentLibrary) -> Result<DesignMetrics> {
    cfg.validate()?;
    let mut breakdown = Vec::new();
    let lanes = cfg.lanes_per_pu() * cfg.num_pus;
    let neurons = cfg.neurons * cfg.num_pus;

    match cfg.precision {
        Precision::Fp32 => {
            // 256 multiplier lanes + a full FP32 adder per tree node and
            // accumulator ("keeps the bitwidth constant at 32-bits").
            breakdown.push(BreakdownLine {
                component: "fp32 multipliers".into(),
                count: lanes,
                cost: lib.fp32_multiplier.times(lanes),
            });
            let tree_adders = (cfg.synapses - 1) * neurons;
            let acc_adders = neurons;
            breakdown.push(BreakdownLine {
                component: "fp32 adders (tree + accumulate)".into(),
                count: tree_adders + acc_adders,
                cost: lib.fp32_adder.times(tree_adders + acc_adders),
            });
        }
        Precision::MfDfp => {
            breakdown.push(BreakdownLine {
                component: "barrel shifters".into(),
                count: lanes,
                cost: lib.barrel_shifter.times(lanes),
            });
            // Widening tree adders priced by exact output widths
            // (17, 18, 19, 20 bits for a 16-input tree).
            let tree = AdderTree::new(cfg.synapses).map_err(AccelError::Dfp)?;
            let mut tree_cost = AreaPower::default();
            let mut tree_count = 0usize;
            for level in 0..tree.levels() {
                let adders = tree.adders_at_level(level) * neurons;
                tree_cost = tree_cost.plus(lib.int_adder(tree.width_at_level(level)).times(adders));
                tree_count += adders;
            }
            breakdown.push(BreakdownLine {
                component: "widening integer adder tree".into(),
                count: tree_count,
                cost: tree_cost,
            });
            breakdown.push(BreakdownLine {
                component: "accumulator & routing".into(),
                count: neurons,
                cost: lib.accumulator_unit.times(neurons),
            });
        }
    }

    breakdown.push(BreakdownLine {
        component: "non-linearity units".into(),
        count: neurons,
        cost: lib.nl_unit.times(neurons),
    });

    let buffer_bits = cfg.buffer_bits_per_pu() * cfg.num_pus;
    breakdown.push(BreakdownLine {
        component: "SRAM buffers (NBin/SB/NBout)".into(),
        count: buffer_bits,
        cost: lib.sram(buffer_bits),
    });

    // Control + DMA + memory interface is shared across PUs.
    breakdown.push(BreakdownLine {
        component: "control & DMA".into(),
        count: 1,
        cost: lib.control,
    });

    let total = breakdown.iter().fold(AreaPower::default(), |acc, line| acc.plus(line.cost));
    Ok(DesignMetrics { area_mm2: total.area_mm2(), power_mw: total.power_mw, breakdown })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> ComponentLibrary {
        ComponentLibrary::calibrated_65nm()
    }

    #[test]
    fn fp32_baseline_matches_paper_table1() {
        let m = design_metrics(&AcceleratorConfig::paper_fp32(), &lib()).unwrap();
        assert!((m.area_mm2 - 16.52).abs() / 16.52 < 0.01, "area {}", m.area_mm2);
        assert!((m.power_mw - 1361.61).abs() / 1361.61 < 0.01, "power {}", m.power_mw);
    }

    #[test]
    fn mf_dfp_matches_paper_table1() {
        let m = design_metrics(&AcceleratorConfig::paper_mf_dfp(), &lib()).unwrap();
        assert!((m.area_mm2 - 1.99).abs() / 1.99 < 0.01, "area {}", m.area_mm2);
        assert!((m.power_mw - 138.96).abs() / 138.96 < 0.01, "power {}", m.power_mw);
    }

    #[test]
    fn ensemble_matches_paper_table1() {
        let m = design_metrics(&AcceleratorConfig::paper_ensemble(), &lib()).unwrap();
        assert!((m.area_mm2 - 3.96).abs() / 3.96 < 0.01, "area {}", m.area_mm2);
        assert!((m.power_mw - 270.27).abs() / 270.27 < 0.01, "power {}", m.power_mw);
    }

    #[test]
    fn savings_match_paper_percentages() {
        let fp = design_metrics(&AcceleratorConfig::paper_fp32(), &lib()).unwrap();
        let mf = design_metrics(&AcceleratorConfig::paper_mf_dfp(), &lib()).unwrap();
        let ens = design_metrics(&AcceleratorConfig::paper_ensemble(), &lib()).unwrap();
        assert!((mf.area_saving_vs(&fp) - 87.97).abs() < 1.0);
        assert!((mf.power_saving_vs(&fp) - 89.79).abs() < 1.0);
        assert!((ens.area_saving_vs(&fp) - 76.00).abs() < 1.0);
        assert!((ens.power_saving_vs(&fp) - 80.15).abs() < 1.0);
    }

    #[test]
    fn ensemble_control_is_shared() {
        // Ensemble < 2 × single because control is not duplicated.
        let mf = design_metrics(&AcceleratorConfig::paper_mf_dfp(), &lib()).unwrap();
        let ens = design_metrics(&AcceleratorConfig::paper_ensemble(), &lib()).unwrap();
        assert!(ens.area_mm2 < 2.0 * mf.area_mm2);
        assert!(ens.power_mw < 2.0 * mf.power_mw);
    }

    #[test]
    fn buffer_bits_shrink_with_precision() {
        let fp = AcceleratorConfig::paper_fp32();
        let mf = AcceleratorConfig::paper_mf_dfp();
        // 32-bit everything vs 8-bit activations + 4-bit weights.
        assert!(fp.buffer_bits_per_pu() > 5 * mf.buffer_bits_per_pu());
    }

    #[test]
    fn config_validation() {
        let mut c = AcceleratorConfig::paper_mf_dfp();
        c.synapses = 12;
        assert!(c.validate().is_err());
        c.synapses = 16;
        c.num_pus = 0;
        assert!(c.validate().is_err());
        c.num_pus = 1;
        c.clock_mhz = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn breakdown_sums_to_total() {
        let m = design_metrics(&AcceleratorConfig::paper_fp32(), &lib()).unwrap();
        let area: f64 = m.breakdown.iter().map(|l| l.cost.area_mm2()).sum();
        let power: f64 = m.breakdown.iter().map(|l| l.cost.power_mw).sum();
        assert!((area - m.area_mm2).abs() < 1e-9);
        assert!((power - m.power_mw).abs() < 1e-9);
    }

    #[test]
    fn paper_bits_labels() {
        assert_eq!(Precision::Fp32.bits(), (32, 32));
        assert_eq!(Precision::MfDfp.bits(), (8, 4));
    }
}
