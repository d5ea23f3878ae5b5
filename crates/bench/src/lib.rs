//! # mfdfp-bench — experiment harnesses for every table and figure
//!
//! Shared helpers for the binaries that regenerate the paper's evaluation:
//!
//! | Binary    | Paper artifact | Command |
//! |-----------|----------------|---------|
//! | `table1`  | Table 1 (area/power) | `cargo run -p mfdfp-bench --bin table1 --release` |
//! | `fig3`    | Figure 3 (fine-tuning curves) | `cargo run -p mfdfp-bench --bin fig3 --release` |
//! | `table2`  | Table 2 (accuracy/time/energy) | `cargo run -p mfdfp-bench --bin table2 --release` |
//! | `table3`  | Table 3 (parameter memory) | `cargo run -p mfdfp-bench --bin table3 --release` |
//! | `ablations` | design-choice studies beyond the paper | `cargo run -p mfdfp-bench --bin ablations --release` |
//!
//! Performance is measured elsewhere: `perfbench/` + `BENCHMARK.json`.

#![deny(missing_docs)]

use mfdfp_data::{Batcher, Split, SyntheticDataset};
use mfdfp_nn::{evaluate, train_epoch, Network, Sgd, SgdConfig};

/// Trains a float network on a dataset split — the "input: a fully trained
/// floating-point network" precondition of Algorithm 1.
///
/// Deterministic in `seed`. Returns the trained network.
///
/// # Panics
///
/// Panics on internal configuration errors (fixed hyper-parameters are
/// valid by construction).
pub fn pretrain_float(
    mut net: Network,
    split: &Split,
    epochs: usize,
    learning_rate: f32,
    batch: usize,
    seed: u64,
) -> Network {
    let cfg = SgdConfig { learning_rate, momentum: 0.9, weight_decay: 1e-4 };
    let mut sgd = Sgd::new(cfg).expect("valid SGD configuration");
    for epoch in 0..epochs {
        let batches: Vec<_> =
            Batcher::new(&split.train, batch).shuffled(seed ^ epoch as u64).collect();
        train_epoch(&mut net, &mut sgd, batches).expect("training step");
    }
    net
}

/// Trains a float network to (near) convergence: plateau-decayed SGD, up
/// to `max_epochs`, stopping when the paper's learning-rate protocol
/// finishes. This is the "fully trained floating-point network" the paper
/// feeds into Algorithm 1 — without it, fine-tuning conflates quantization
/// recovery with ordinary training progress and the Figure 3 shape is
/// meaningless.
///
/// # Panics
///
/// Panics on internal configuration errors.
pub fn pretrain_float_converged(
    mut net: Network,
    split: &Split,
    max_epochs: usize,
    learning_rate: f32,
    batch: usize,
    seed: u64,
) -> Network {
    let initial = net.snapshot_params();
    let mut lr0 = learning_rate;
    for attempt in 0..3u64 {
        let cfg = SgdConfig { learning_rate: lr0, momentum: 0.9, weight_decay: 1e-4 };
        let mut sgd = Sgd::new(cfg).expect("valid SGD configuration");
        let mut schedule =
            mfdfp_nn::PlateauSchedule::new(lr0, 0.1, 3, lr0 * 1e-3).expect("valid schedule");
        // Early epochs are noisy; let the schedule observe only after
        // warmup so an unlucky start cannot freeze the learning rate.
        let warmup = 5usize.min(max_epochs / 2);
        let mut snapshot = net.snapshot_params();
        let mut last_acc = 0.0f32;
        for epoch in 0..max_epochs {
            let shuffle = seed ^ (attempt << 32) ^ epoch as u64;
            let batches: Vec<_> = Batcher::new(&split.train, batch).shuffled(shuffle).collect();
            let stats = train_epoch(&mut net, &mut sgd, batches).expect("training step");
            if !stats.mean_loss.is_finite() || stats.mean_loss > 50.0 {
                // Diverged mid-run: the parameters are garbage (possibly
                // NaN). Roll back to the last good epoch, halve the rate.
                net.restore_params(&snapshot);
                let halved = sgd.learning_rate() * 0.5;
                sgd = Sgd::new(SgdConfig { learning_rate: halved, ..cfg })
                    .expect("valid SGD configuration");
                continue;
            }
            snapshot = net.snapshot_params();
            last_acc = stats.accuracy;
            if epoch >= warmup {
                let lr = schedule.observe(stats.mean_loss);
                sgd.set_learning_rate(lr);
                if schedule.finished() {
                    break;
                }
            }
        }
        // A run that cannot fit its own training set is an optimisation
        // failure, not a converged network: restart from the original
        // init at half the rate (at most twice).
        if last_acc >= 0.6 || attempt == 2 {
            break;
        }
        net.restore_params(&initial);
        lr0 *= 0.5;
    }
    net
}

/// Top-1 / top-k accuracy of a float network on a dataset.
///
/// # Panics
///
/// Panics on forward-pass errors (shapes are consistent by construction).
pub fn float_accuracy(
    net: &mut Network,
    data: &SyntheticDataset,
    batch: usize,
    k: usize,
) -> (f32, f32) {
    let batches: Vec<_> = Batcher::new(data, batch).iter().collect();
    let acc = evaluate(net, batches, k).expect("evaluation");
    (acc.top1(), acc.topk())
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfdfp_data::SynthSpec;
    use mfdfp_nn::zoo;
    use mfdfp_tensor::TensorRng;

    #[test]
    fn pretrain_improves_over_init() {
        let spec = SynthSpec {
            classes: 4,
            channels: 2,
            size: 16,
            per_class: 16,
            noise: 0.3,
            max_shift: 1,
            seed: 11,
        };
        let split = Split::generate(&spec, 8);
        let mut rng = TensorRng::seed_from(2);
        let net = zoo::quick_custom(2, 16, [4, 4, 4], 8, 4, &mut rng).unwrap();
        let mut untrained = net.clone();
        let (before, _) = float_accuracy(&mut untrained, &split.test, 16, 1);
        let mut trained = pretrain_float(net, &split, 6, 0.02, 16, 3);
        let (after, _) = float_accuracy(&mut trained, &split.test, 16, 1);
        assert!(after > before.max(0.3), "training did not help: {before} → {after}");
    }

    #[test]
    fn helpers_format() {
        assert_eq!(pct(89.812), "89.81");
    }
}
