//! Algorithm 1 end-to-end: float network → calibrate → Phase-1 hard-label
//! fine-tuning → Phase-2 student–teacher fine-tuning → deployed
//! [`QuantizedNet`].

use mfdfp_data::{Batcher, SyntheticDataset};
use mfdfp_nn::{DistillConfig, Network, PlateauSchedule, SgdConfig};

use crate::error::{CoreError, Result};
use crate::qnet::QuantizedNet;
use crate::quantize::calibrate;
use crate::shadow::ShadowTrainer;

/// Which phase an epoch belongs to (Figure 3's x-axis annotation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseTag {
    /// Hard-label fine-tuning.
    Phase1,
    /// Student–teacher fine-tuning.
    Phase2,
}

/// One point of the fine-tuning trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochPoint {
    /// Phase of this epoch.
    pub phase: PhaseTag,
    /// Epoch index (global, continuing across the phase switch).
    pub epoch: usize,
    /// Mean training loss of the epoch.
    pub train_loss: f32,
    /// Quantized top-1 error on the held-out set (Figure 3's y-axis).
    pub test_error: f32,
    /// Learning rate in force during the epoch.
    pub learning_rate: f32,
}

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Activation bit-width (the paper: 8).
    pub activation_bits: u8,
    /// Maximum Phase-1 epochs (plateau schedule may stop earlier).
    pub phase1_epochs: usize,
    /// Maximum Phase-2 epochs (0 disables Phase 2).
    pub phase2_epochs: usize,
    /// Initial learning rate (the paper: 1e-3).
    pub learning_rate: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Distillation temperature τ (the paper: 20).
    pub temperature: f32,
    /// Distillation weight β (the paper: 0.2).
    pub beta: f32,
    /// Batch size.
    pub batch_size: usize,
    /// Top-k tracked in evaluations (5 for ImageNet-style runs).
    pub eval_k: usize,
    /// Seed for epoch shuffles.
    pub seed: u64,
}

impl PipelineConfig {
    /// The paper's hyper-parameters, scaled to small-epoch CPU budgets.
    pub fn paper_defaults() -> Self {
        PipelineConfig {
            activation_bits: 8,
            phase1_epochs: 10,
            phase2_epochs: 6,
            learning_rate: 1e-3,
            momentum: 0.9,
            weight_decay: 1e-4,
            temperature: 20.0,
            beta: 0.2,
            batch_size: 32,
            eval_k: 5,
            seed: 0x1DAC,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] on inconsistent values.
    pub fn validate(&self) -> Result<()> {
        if self.batch_size == 0 {
            return Err(CoreError::BadConfig("batch size must be positive".into()));
        }
        if self.phase1_epochs == 0 {
            return Err(CoreError::BadConfig("phase 1 needs at least one epoch".into()));
        }
        if self.learning_rate <= 0.0 || self.learning_rate.is_nan() {
            return Err(CoreError::BadConfig("learning rate must be positive".into()));
        }
        Ok(())
    }
}

/// The result of running Algorithm 1.
#[derive(Debug)]
pub struct PipelineOutcome {
    /// The deployed quantized network (integer engine).
    pub qnet: QuantizedNet,
    /// The fine-tuned float master (shadow weights) that produced it.
    pub master: Network,
    /// Per-epoch trajectory (regenerates Figure 3).
    pub history: Vec<EpochPoint>,
    /// Final quantized top-1 accuracy on the held-out set.
    pub final_top1: f32,
    /// Final quantized top-k accuracy on the held-out set.
    pub final_topk: f32,
}

/// Runs Algorithm 1 on a trained float network.
///
/// * Calibrates per-layer dynamic fixed-point formats on the first
///   training batches.
/// * **Phase 1** — shadow-weight fine-tuning with hard labels, learning
///   rate ÷10 on plateau.
/// * **Phase 2** — switches to the student–teacher loss *at the first
///   plateau decay* (the paper: "the value of i … should be close to
///   convergence but not the global optimal point"), with the original
///   float network as the frozen teacher.
/// * Emits the deployed [`QuantizedNet`] built from the fine-tuned master.
///
/// # Errors
///
/// Propagates configuration, calibration and training errors.
///
/// # Examples
///
/// End to end on a tiny synthetic problem: the paper's hyper-parameters
/// ([`PipelineConfig::paper_defaults`]) with the epoch budget cut down to
/// doc-test scale. The outcome carries the deployed integer network, the
/// fine-tuned float master and the Figure-3-style per-epoch trajectory.
///
/// ```
/// use mfdfp_core::{run_pipeline, PhaseTag, PipelineConfig};
/// use mfdfp_data::{Split, SynthSpec};
/// use mfdfp_tensor::TensorRng;
///
/// // 2-class, 1×16×16 synthetic data and a matching tiny topology.
/// let spec = SynthSpec {
///     classes: 2, channels: 1, size: 16, per_class: 6,
///     noise: 0.2, max_shift: 1, seed: 7,
/// };
/// let split = Split::generate(&spec, 4);
/// let mut rng = TensorRng::seed_from(3);
/// let float_net = mfdfp_nn::zoo::quick_custom(1, 16, [2, 2, 2], 4, 2, &mut rng)?;
///
/// let cfg = PipelineConfig {
///     phase1_epochs: 2,   // paper defaults, doc-test epoch budget
///     phase2_epochs: 1,
///     batch_size: 4,
///     eval_k: 1,
///     ..PipelineConfig::paper_defaults()
/// };
/// let outcome = run_pipeline(float_net, &split.train, &split.test, &cfg)?;
///
/// // Phase 1 ran; the trajectory records loss/error/learning-rate.
/// assert!(outcome.history.iter().any(|p| p.phase == PhaseTag::Phase1));
/// // The deployed artifact answers integer-only inference end to end.
/// let (image, _label) = split.test.sample(0);
/// let logits = outcome.qnet.logits(image)?;
/// assert_eq!(logits.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_pipeline(
    float_net: Network,
    train: &SyntheticDataset,
    test: &SyntheticDataset,
    cfg: &PipelineConfig,
) -> Result<PipelineOutcome> {
    cfg.validate()?;
    let teacher = float_net.clone();
    let mut master = float_net;

    let calib: Vec<_> = Batcher::new(train, cfg.batch_size).iter().take(4).collect();
    let plan = calibrate(&mut master, &calib, cfg.activation_bits)?;

    let sgd = SgdConfig {
        learning_rate: cfg.learning_rate,
        momentum: cfg.momentum,
        weight_decay: cfg.weight_decay,
    };
    let mut trainer = ShadowTrainer::new(master, plan.clone(), sgd)?;
    let mut schedule = PlateauSchedule::paper(cfg.learning_rate);
    let mut history = Vec::new();
    let mut epoch = 0usize;

    // Phase 1: hard labels until the schedule first decays (near-converged,
    // non-optimal switch point) or the epoch budget runs out.
    for _ in 0..cfg.phase1_epochs {
        let batches: Vec<_> =
            Batcher::new(train, cfg.batch_size).shuffled(cfg.seed ^ epoch as u64).collect();
        let stats = trainer.train_epoch(batches)?;
        let eval: Vec<_> = Batcher::new(test, cfg.batch_size).iter().collect();
        let acc = trainer.evaluate_quantized(eval, cfg.eval_k)?;
        history.push(EpochPoint {
            phase: PhaseTag::Phase1,
            epoch,
            train_loss: stats.mean_loss,
            test_error: acc.top1_error(),
            learning_rate: trainer.learning_rate(),
        });
        epoch += 1;
        let before = schedule.learning_rate();
        let lr = schedule.observe(stats.mean_loss);
        trainer.set_learning_rate(lr);
        if cfg.phase2_epochs > 0 && lr < before {
            break; // first decay ⇒ switch to Phase 2
        }
        if schedule.finished() {
            break;
        }
    }

    // Phase 2: student–teacher fine-tuning from the Phase-1 checkpoint.
    if cfg.phase2_epochs > 0 {
        let distill = DistillConfig {
            temperature: cfg.temperature,
            beta: cfg.beta,
            mode: mfdfp_nn::DistillMode::Exact,
        };
        trainer.enable_distillation(teacher, distill)?;
        for _ in 0..cfg.phase2_epochs {
            let batches: Vec<_> =
                Batcher::new(train, cfg.batch_size).shuffled(cfg.seed ^ epoch as u64).collect();
            let stats = trainer.train_epoch(batches)?;
            let eval: Vec<_> = Batcher::new(test, cfg.batch_size).iter().collect();
            let acc = trainer.evaluate_quantized(eval, cfg.eval_k)?;
            history.push(EpochPoint {
                phase: PhaseTag::Phase2,
                epoch,
                train_loss: stats.mean_loss,
                test_error: acc.top1_error(),
                learning_rate: trainer.learning_rate(),
            });
            epoch += 1;
            let lr = schedule.observe(stats.mean_loss);
            trainer.set_learning_rate(lr);
            if schedule.finished() {
                break;
            }
        }
    }

    // Final evaluation and deployment artifact.
    let eval: Vec<_> = Batcher::new(test, cfg.batch_size).iter().collect();
    let acc = trainer.evaluate_quantized(eval, cfg.eval_k)?;
    let master = trainer.into_master();
    let qnet = QuantizedNet::from_network(&master, &plan)?;
    Ok(PipelineOutcome { qnet, master, history, final_top1: acc.top1(), final_topk: acc.topk() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfdfp_data::{Split, SynthSpec};
    use mfdfp_nn::{evaluate, zoo, Sgd};
    use mfdfp_tensor::TensorRng;

    fn pretrained_float(split: &Split) -> Network {
        let mut rng = TensorRng::seed_from(31);
        let mut net = zoo::quick_custom(2, 16, [4, 4, 8], 16, 4, &mut rng).unwrap();
        let sgd_cfg = SgdConfig { learning_rate: 0.02, momentum: 0.9, weight_decay: 1e-4 };
        let mut sgd = Sgd::new(sgd_cfg).unwrap();
        for epoch in 0..6 {
            let batches: Vec<_> = Batcher::new(&split.train, 16).shuffled(epoch).collect();
            mfdfp_nn::train_epoch(&mut net, &mut sgd, batches).unwrap();
        }
        net
    }

    #[test]
    fn full_pipeline_runs_and_stays_close_to_float() {
        let spec = SynthSpec {
            classes: 4,
            channels: 2,
            size: 16,
            per_class: 24,
            noise: 0.3,
            max_shift: 1,
            seed: 9,
        };
        let split = Split::generate(&spec, 10);
        let mut float_net = pretrained_float(&split);
        let float_acc = {
            let batches: Vec<_> = Batcher::new(&split.test, 16).iter().collect();
            evaluate(&mut float_net, batches, 1).unwrap().top1()
        };
        let cfg = PipelineConfig {
            phase1_epochs: 4,
            phase2_epochs: 2,
            learning_rate: 5e-3,
            batch_size: 16,
            eval_k: 2,
            ..PipelineConfig::paper_defaults()
        };
        let outcome = run_pipeline(float_net, &split.train, &split.test, &cfg).unwrap();
        assert!(!outcome.history.is_empty());
        // Both phases appear.
        assert!(outcome.history.iter().any(|p| p.phase == PhaseTag::Phase1));
        assert!(outcome.history.iter().any(|p| p.phase == PhaseTag::Phase2));
        // The deployed quantized net evaluates end-to-end.
        let (x, labels) = Batcher::new(&split.test, 16).iter().next().unwrap();
        let logits = outcome.qnet.logits_batch(&x).unwrap();
        assert_eq!(logits.shape().dims(), &[16, 4]);
        let _ = labels;
        // Accuracy within a sane band of float (paper: within ~1%; the
        // tiny CPU budget here warrants a looser envelope).
        assert!(
            outcome.final_top1 >= float_acc - 0.25,
            "quantized {} vs float {float_acc}",
            outcome.final_top1
        );
    }

    #[test]
    fn config_validation() {
        let mut cfg = PipelineConfig::paper_defaults();
        cfg.batch_size = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = PipelineConfig::paper_defaults();
        cfg.phase1_epochs = 0;
        assert!(cfg.validate().is_err());
        assert!(PipelineConfig::paper_defaults().validate().is_ok());
    }
}
