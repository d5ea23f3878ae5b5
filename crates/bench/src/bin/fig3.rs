//! Regenerates **Figure 3** of the paper: top-1 validation error over
//! fine-tuning epochs for (a) the quantized network trained with data
//! labels only (Phase 1 throughout) and (b) Phase 1 followed by
//! student–teacher Phase 2, against the floating-point reference line.
//!
//! ```text
//! cargo run -p mfdfp-bench --bin fig3 --release
//! ```
//!
//! Output is a CSV series (epoch, labels-only error, student-teacher
//! error, float error) plus an ASCII sketch. The expected shape: both
//! curves fall toward the float line; the student-teacher curve dips
//! below the labels-only curve after the phase switch.

use mfdfp_bench::{float_accuracy, pretrain_float_converged};
use mfdfp_core::{run_pipeline, PhaseTag, PipelineConfig};
use mfdfp_data::{Split, SynthSpec};
use mfdfp_nn::zoo;
use mfdfp_tensor::TensorRng;

fn main() {
    // The paper plots ImageNet; we use its synthetic stand-in with the
    // reduced AlexNet-pattern network (PAPER_MAP.md's introduction). The
    // stand-in is made deliberately hard (high noise, large shifts) so
    // the float network converges to a non-trivial error and quantization
    // recovery is visible, as in the paper's plot.
    let mut spec = SynthSpec::imagenet(30, 23);
    spec.noise = 1.1;
    spec.max_shift = 4;
    let split = Split::generate(&spec, 10);
    let mut rng = TensorRng::seed_from(6);
    let float_net = zoo::alexnet_like_small(20, &mut rng).expect("topology");
    // Train the float reference to convergence first (Algorithm 1's input
    // is "a fully trained floating-point network").
    let mut float_net = pretrain_float_converged(float_net, &split, 30, 0.02, 32, 61);
    let (float_top1, _) = float_accuracy(&mut float_net, &split.test, 32, 5);
    let float_err = 1.0 - float_top1;

    let total_epochs = 10usize;

    // Series A: data labels only (Phase 1 for the whole budget).
    let cfg_labels = PipelineConfig {
        phase1_epochs: 2 * total_epochs,
        phase2_epochs: 0,
        learning_rate: 2e-3,
        batch_size: 32,
        eval_k: 5,
        ..PipelineConfig::paper_defaults()
    };
    let labels_only = run_pipeline(float_net.clone(), &split.train, &split.test, &cfg_labels)
        .expect("labels-only run");

    // Series B: Phase 1, switching to student-teacher at the first
    // learning-rate decay (the paper's "near convergence but not the
    // global optimal point").
    let cfg_st = PipelineConfig {
        phase1_epochs: total_epochs,
        phase2_epochs: total_epochs + 4,
        learning_rate: 2e-3,
        temperature: 20.0,
        beta: 0.2,
        batch_size: 32,
        eval_k: 5,
        ..PipelineConfig::paper_defaults()
    };
    let student_teacher =
        run_pipeline(float_net, &split.train, &split.test, &cfg_st).expect("student-teacher run");

    println!("Figure 3: validation top-1 error vs fine-tuning epoch");
    println!("(synthetic ImageNet stand-in; float reference err = {float_err:.4})\n");
    println!("epoch,labels_only_error,student_teacher_error,float_error,st_phase");
    let n = labels_only.history.len().max(student_teacher.history.len());
    for e in 0..n {
        let a = labels_only.history.get(e).map(|p| p.test_error);
        let b = student_teacher.history.get(e);
        println!(
            "{},{},{},{:.4},{}",
            e,
            a.map_or(String::new(), |v| format!("{v:.4}")),
            b.map_or(String::new(), |p| format!("{:.4}", p.test_error)),
            float_err,
            b.map_or(String::new(), |p| match p.phase {
                PhaseTag::Phase1 => "1".to_string(),
                PhaseTag::Phase2 => "2".to_string(),
            })
        );
    }

    // ASCII sketch of the two curves.
    println!("\nSketch (each column = one epoch; lower is better):");
    let max_err = labels_only
        .history
        .iter()
        .chain(&student_teacher.history)
        .map(|p| p.test_error)
        .fold(float_err, f32::max);
    let min_err = labels_only
        .history
        .iter()
        .chain(&student_teacher.history)
        .map(|p| p.test_error)
        .fold(float_err, f32::min);
    let span = (max_err - min_err).max(1e-6);
    let rows = 12usize;
    for r in 0..=rows {
        let level = max_err - span * r as f32 / rows as f32;
        let mut line = String::new();
        for e in 0..n {
            let a = labels_only.history.get(e).map(|p| p.test_error);
            let b = student_teacher.history.get(e).map(|p| p.test_error);
            let near =
                |v: Option<f32>| v.is_some_and(|v| (v - level).abs() <= span / (2.0 * rows as f32));
            line.push(match (near(a), near(b)) {
                (true, true) => '*',
                (true, false) => 'L',
                (false, true) => 'S',
                _ => {
                    if (float_err - level).abs() <= span / (2.0 * rows as f32) {
                        '-'
                    } else {
                        ' '
                    }
                }
            });
        }
        println!("{level:>7.3} |{line}");
    }
    println!("         L = labels only, S = student-teacher, - = float reference");

    let last_a = labels_only.history.last().map_or(f32::NAN, |p| p.test_error);
    let last_b = student_teacher.history.last().map_or(f32::NAN, |p| p.test_error);
    println!("\nFinal errors: labels-only {last_a:.4}, student-teacher {last_b:.4}, float {float_err:.4}");
    let switch = student_teacher.history.iter().position(|p| p.phase == PhaseTag::Phase2);
    if let Some(s) = switch {
        println!("Phase 2 began at epoch {s} (first plateau decay).");
    }
}
