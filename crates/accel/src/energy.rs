//! Energy rollup: design power × scheduled time, the savings
//! calculators behind Table 2, and the per-op cost model that turns the
//! runtime's live op counters ([`mfdfp_obs::ops`]) into an energy
//! estimate — the paper's shift-add-vs-multiply argument applied to the
//! operations a deployment *actually executed*.

use mfdfp_obs::OpCounters;
use serde::{Deserialize, Serialize};

use crate::components::{AreaPower, ComponentLibrary};
use crate::design::DesignMetrics;
use crate::schedule::NetworkSchedule;

/// Time/energy of running one inference on one design.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Total cycles for one input.
    pub cycles: u64,
    /// Latency in microseconds.
    pub time_us: f64,
    /// Energy in microjoules (`power · time`).
    pub energy_uj: f64,
}

impl RunReport {
    /// Combines a schedule with a design's power draw.
    ///
    /// Energy is literally `power × time`, which is how the paper's
    /// Table 2 numbers relate to its Table 1 numbers (e.g.
    /// 1361.61 mW × 246.52 µs ≈ 335.68 µJ).
    pub fn from_schedule(schedule: &NetworkSchedule, design: &DesignMetrics) -> Self {
        RunReport {
            cycles: schedule.total_cycles,
            time_us: schedule.time_us,
            energy_uj: design.power_mw * schedule.time_us / 1000.0,
        }
    }

    /// Percentage energy saving relative to a baseline run.
    pub fn energy_saving_vs(&self, baseline: &RunReport) -> f64 {
        100.0 * (1.0 - self.energy_uj / baseline.energy_uj)
    }
}

/// Per-operation energy costs in picojoules, derived from the
/// [`ComponentLibrary`] at a fixed clock: at frequency `f`, a unit that
/// burns `P` while active spends `P / f` per operation (mW / MHz = nJ).
///
/// This is the *op-count* companion to [`RunReport`]'s power×time
/// rollup: instead of scheduling a hypothetical network, it prices the
/// shift-MACs and staging bytes the runtime counted while serving real
/// traffic (`mfdfp_obs::ops::counters()`), which is how the serve
/// metrics' `energy_estimate` sub-object is produced.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpCostModel {
    /// One multiplier-free MAC: barrel shift + 20-bit integer add (the
    /// widest tree stage — a deliberate upper bound).
    pub shift_mac_pj: f64,
    /// One FP32 MAC on the baseline datapath: fp32 multiply + fp32 add.
    pub fp32_mac_pj: f64,
    /// Moving one staged `i8` im2col byte, priced as 8 bits of SRAM
    /// active for one cycle — a conservative on-chip-movement stand-in
    /// (data movement is deliberately *not* where this model claims its
    /// savings; both datapaths pay it identically).
    pub sram_byte_pj: f64,
}

impl OpCostModel {
    /// Derives per-op costs from a component library at `clock_mhz`.
    pub fn from_library(lib: &ComponentLibrary, clock_mhz: f64) -> Self {
        // mW / MHz = nJ per op; ×1000 → pJ.
        let pj = |c: AreaPower| c.power_mw / clock_mhz * 1000.0;
        OpCostModel {
            shift_mac_pj: pj(lib.barrel_shifter) + pj(lib.int_adder(20)),
            fp32_mac_pj: pj(lib.fp32_multiplier) + pj(lib.fp32_adder),
            sram_byte_pj: pj(lib.sram(8)),
        }
    }

    /// The calibrated 65 nm library at the paper's 250 MHz design clock.
    pub fn calibrated_65nm() -> Self {
        Self::from_library(&ComponentLibrary::calibrated_65nm(), 250.0)
    }

    /// Prices an op-counter snapshot: the multiplier-free energy those
    /// operations cost, and what the same MACs would have cost on the
    /// FP32 baseline datapath (identical data movement).
    pub fn estimate(&self, ops: &OpCounters) -> OpEnergyEstimate {
        let mac_uj = ops.shift_macs as f64 * self.shift_mac_pj * 1e-6;
        let sram_uj = ops.im2col_bytes as f64 * self.sram_byte_pj * 1e-6;
        let total_uj = mac_uj + sram_uj;
        let fp32_baseline_uj = ops.shift_macs as f64 * self.fp32_mac_pj * 1e-6 + sram_uj;
        let saving_pct =
            if fp32_baseline_uj > 0.0 { 100.0 * (1.0 - total_uj / fp32_baseline_uj) } else { 0.0 };
        OpEnergyEstimate { mac_uj, sram_uj, total_uj, fp32_baseline_uj, saving_pct }
    }
}

/// A priced op-counter snapshot (all in microjoules) — see
/// [`OpCostModel::estimate`]. All-zero when nothing was counted.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpEnergyEstimate {
    /// Energy of the counted shift-MACs on the multiplier-free datapath.
    pub mac_uj: f64,
    /// Energy of the counted im2col byte movement.
    pub sram_uj: f64,
    /// `mac_uj + sram_uj`.
    pub total_uj: f64,
    /// The same MACs priced on the FP32 multiply-add datapath (plus the
    /// identical byte movement).
    pub fp32_baseline_uj: f64,
    /// `100 · (1 − total/baseline)`; 0 when nothing was counted.
    pub saving_pct: f64,
}

impl Default for OpEnergyEstimate {
    fn default() -> Self {
        OpCostModel::calibrated_65nm().estimate(&OpCounters::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::ComponentLibrary;
    use crate::design::{design_metrics, AcceleratorConfig};
    use crate::schedule::{schedule_network, DmaModel};
    use mfdfp_nn::zoo;
    use mfdfp_tensor::TensorRng;

    #[test]
    fn energy_is_power_times_time() {
        let s = NetworkSchedule { layers: vec![], total_cycles: 61_630, time_us: 246.52 };
        let d = DesignMetrics { area_mm2: 16.52, power_mw: 1361.61, breakdown: vec![] };
        let r = RunReport::from_schedule(&s, &d);
        assert!((r.energy_uj - 335.68).abs() < 0.05, "energy {}", r.energy_uj);
    }

    #[test]
    fn savings_reproduce_paper_shape_on_cifar() {
        // End-to-end: schedule cifar10-quick on both designs, combine with
        // composed power, check ~90% energy saving (paper: 89.81%).
        let mut rng = TensorRng::seed_from(0);
        let net = zoo::cifar10_quick(10, &mut rng).unwrap();
        let lib = ComponentLibrary::calibrated_65nm();
        let fp_cfg = AcceleratorConfig::paper_fp32();
        let mf_cfg = AcceleratorConfig::paper_mf_dfp();
        let ens_cfg = AcceleratorConfig::paper_ensemble();
        let fp = RunReport::from_schedule(
            &schedule_network(&net, &fp_cfg, DmaModel::Overlapped).unwrap(),
            &design_metrics(&fp_cfg, &lib).unwrap(),
        );
        let mf = RunReport::from_schedule(
            &schedule_network(&net, &mf_cfg, DmaModel::Overlapped).unwrap(),
            &design_metrics(&mf_cfg, &lib).unwrap(),
        );
        let ens = RunReport::from_schedule(
            &schedule_network(&net, &ens_cfg, DmaModel::Overlapped).unwrap(),
            &design_metrics(&ens_cfg, &lib).unwrap(),
        );
        let saving_mf = mf.energy_saving_vs(&fp);
        let saving_ens = ens.energy_saving_vs(&fp);
        assert!((saving_mf - 89.81).abs() < 1.5, "single saving {saving_mf}%");
        assert!((saving_ens - 80.17).abs() < 1.5, "ensemble saving {saving_ens}%");
        // Times nearly equal, energy wildly different — the paper's story.
        assert!((fp.time_us - mf.time_us).abs() / fp.time_us < 0.01);
        assert!(fp.energy_uj > 8.0 * mf.energy_uj);
    }

    #[test]
    fn op_cost_model_prices_shift_macs_far_below_fp32() {
        let m = OpCostModel::calibrated_65nm();
        // Barrel shift + int add vs fp32 mul + add: >5× per-MAC gap is
        // the paper's Table 4 energy argument at op granularity.
        assert!(m.fp32_mac_pj > 5.0 * m.shift_mac_pj, "{m:?}");
        assert!(m.shift_mac_pj > 0.0 && m.sram_byte_pj > 0.0);
        // 250 MHz: barrel 0.29 mW → 1.16 pJ, +20-bit add 0.64 pJ.
        assert!((m.shift_mac_pj - 1.8).abs() < 0.05, "{}", m.shift_mac_pj);
        assert!((m.fp32_mac_pj - 19.8).abs() < 0.2, "{}", m.fp32_mac_pj);
    }

    #[test]
    fn estimate_prices_counters_and_reports_saving() {
        let m = OpCostModel::calibrated_65nm();
        let ops = mfdfp_obs::OpCounters {
            shift_macs: 1_000_000,
            im2col_bytes: 100_000,
            decode_rows: 0,
            overflow_audits: 0,
        };
        let e = m.estimate(&ops);
        assert!((e.mac_uj - 1_000_000.0 * m.shift_mac_pj * 1e-6).abs() < 1e-9);
        assert!((e.total_uj - (e.mac_uj + e.sram_uj)).abs() < 1e-12);
        assert!(e.fp32_baseline_uj > e.total_uj);
        assert!(e.saving_pct > 80.0 && e.saving_pct < 100.0, "{}", e.saving_pct);
    }

    #[test]
    fn empty_counters_estimate_is_all_zero() {
        let e = OpEnergyEstimate::default();
        assert_eq!(
            (e.mac_uj, e.sram_uj, e.total_uj, e.fp32_baseline_uj, e.saving_pct),
            (0.0, 0.0, 0.0, 0.0, 0.0)
        );
    }
}
