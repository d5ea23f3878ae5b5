//! Ablation studies for the design choices the paper calls out
//! (PAPER_MAP.md, "§5 · Evaluation artifacts"):
//!
//! 1. deterministic vs stochastic weight quantization (paper §4.1 chose
//!    deterministic);
//! 2. dynamic per-layer radix points vs a single uniform format (the
//!    paper's motivation for *dynamic* fixed point);
//! 3. the exponent clamp `e ≥ −7` that enables the 4-bit weight encoding;
//! 4. shadow weights vs naive direct training of quantized weights
//!    (Courbariaux mechanism, paper §4.1);
//! 5. ensemble size M (the paper deploys M = 2).
//!
//! ```text
//! cargo run -p mfdfp-bench --bin ablations --release
//! ```

use mfdfp_bench::{float_accuracy, pretrain_float_converged};
use mfdfp_core::{
    build_working_net, calibrate, run_pipeline, sync_quantized_params, Ensemble, PipelineConfig,
    QuantizationPlan, QuantizedNet, ShadowTrainer,
};
use mfdfp_data::{Batcher, Split, SynthSpec};
use mfdfp_dfp::{DfpFormat, Pow2Weight, RangeStats};
use mfdfp_nn::{zoo, Network, Phase, Sgd, SgdConfig};
use mfdfp_tensor::{Tensor, TensorRng};

fn problem() -> (Network, Split) {
    let spec = SynthSpec {
        classes: 6,
        channels: 3,
        size: 16,
        per_class: 30,
        noise: 0.95,
        max_shift: 3,
        seed: 17,
    };
    let split = Split::generate(&spec, 15);
    let mut rng = TensorRng::seed_from(4);
    let net = zoo::quick_custom(3, 16, [8, 8, 16], 32, 6, &mut rng).expect("topology");
    let net = pretrain_float_converged(net, &split, 16, 0.02, 32, 40);
    (net, split)
}

fn eval_float_like(net: &mut Network, split: &Split) -> f32 {
    float_accuracy(net, &split.test, 32, 1).0
}

fn eval_qnet(q: &QuantizedNet, split: &Split) -> f32 {
    let e = Ensemble::new(vec![q.clone()]).expect("singleton ensemble");
    let batches: Vec<_> = Batcher::new(&split.test, 32).iter().collect();
    e.evaluate(batches, 1).expect("eval").top1()
}

/// 1. Deterministic vs stochastic power-of-two rounding (no fine-tuning).
fn ablation_rounding(float_net: &Network, plan: &QuantizationPlan, split: &Split) {
    println!("\n[1] weight rounding mode (no fine-tuning)");
    let det = QuantizedNet::from_network(float_net, plan).expect("quantize");
    println!("    deterministic (paper): top-1 {:.2}%", eval_qnet(&det, split) * 100.0);
    for seed in [1u64, 2, 3] {
        let mut rng = TensorRng::seed_from(seed);
        let mut stochastic = float_net.clone();
        stochastic.visit_params(&mut |v, _| {
            // Biases are handled by the plan; only weight tensors have >1 axis.
            if v.shape().rank() > 1 {
                let us = rng.uniform([v.len()], 0.0, 1.0);
                for (w, &u) in v.as_mut_slice().iter_mut().zip(us.as_slice()) {
                    *w = Pow2Weight::from_f32_stochastic(*w, u).to_f32();
                }
            }
        });
        let q = QuantizedNet::from_network(&stochastic, plan).expect("quantize");
        println!("    stochastic (seed {seed}):   top-1 {:.2}%", eval_qnet(&q, split) * 100.0);
    }
}

/// 2. Dynamic per-layer formats vs one uniform format.
fn ablation_uniform_format(float_net: &Network, plan: &QuantizationPlan, split: &Split) {
    println!("\n[2] dynamic vs uniform fixed point (no fine-tuning)");
    let dynamic = QuantizedNet::from_network(float_net, plan).expect("quantize");
    println!(
        "    dynamic per-layer <8,f_l> (paper): top-1 {:.2}%",
        eval_qnet(&dynamic, split) * 100.0
    );
    // Uniform: every boundary forced to the single format that covers the
    // worst-case range anywhere in the network.
    let worst = plan
        .boundary_formats
        .iter()
        .chain(std::iter::once(&plan.input_format))
        .map(|f| f.frac())
        .min()
        .expect("non-empty");
    let uniform_fmt = DfpFormat::q8(worst);
    let mut uniform = plan.clone();
    uniform.input_format = uniform_fmt;
    for f in &mut uniform.boundary_formats {
        *f = uniform_fmt;
    }
    for b in uniform.bias_formats.iter_mut().flatten() {
        let capped = (b.frac() as i32).min(worst as i32 + 7) as i8;
        *b = DfpFormat::q8(capped);
    }
    let q = QuantizedNet::from_network(float_net, &uniform).expect("quantize");
    println!(
        "    uniform <8,{worst}> everywhere:       top-1 {:.2}%",
        eval_qnet(&q, split) * 100.0
    );
}

/// 3. Exponent clamp sweep (float-domain emulation; `e ≥ −7` is the 4-bit
///    paper encoding, wider clamps would need 5 bits).
fn ablation_exponent_clamp(float_net: &Network, plan: &QuantizationPlan, split: &Split) {
    println!("\n[3] weight exponent clamp e >= e_min (fake-quant domain)");
    for (e_min, bits) in [(-3i32, 3), (-5, 4), (-7, 4), (-9, 5), (-15, 5)] {
        let mut net = float_net.clone();
        let mut working = build_working_net(&net, plan);
        sync_quantized_params(&net, &mut working, plan);
        // Re-round weights with the custom clamp (overrides the −7 sync).
        let mut src = 0usize;
        let masters: Vec<Tensor> = {
            let mut v = Vec::new();
            net.visit_params(&mut |p, _| v.push(p.clone()));
            v
        };
        working.visit_params(&mut |p, _| {
            if p.shape().rank() > 1 {
                let m = &masters[src];
                let quant: Vec<f32> = m
                    .as_slice()
                    .iter()
                    .map(|&w| {
                        if w == 0.0 {
                            return 0.0;
                        }
                        let e = w.abs().log2().round().clamp(e_min as f32, 0.0);
                        w.signum() * e.exp2()
                    })
                    .collect();
                p.as_mut_slice().copy_from_slice(&quant);
            }
            src += 1;
        });
        let acc = eval_float_like(&mut working, split);
        println!("    e >= {e_min:>3} ({bits}-bit code): top-1 {:.2}%", acc * 100.0);
    }
}

/// 4. Shadow weights vs naive direct quantized training.
fn ablation_shadow_weights(float_net: &Network, plan: &QuantizationPlan, split: &Split) {
    println!("\n[4] shadow weights vs naive quantized-weight training (3 epochs)");
    let sgd = SgdConfig { learning_rate: 5e-3, momentum: 0.9, weight_decay: 1e-4 };

    // Paper mechanism: gradients accumulate in the float master.
    let mut shadow = ShadowTrainer::new(float_net.clone(), plan.clone(), sgd).expect("trainer");
    for epoch in 0..3 {
        let batches: Vec<_> = Batcher::new(&split.train, 32).shuffled(epoch).collect();
        shadow.train_epoch(batches).expect("epoch");
    }
    let acc_shadow = {
        let batches: Vec<_> = Batcher::new(&split.test, 32).iter().collect();
        shadow.evaluate_quantized(batches, 1).expect("eval").top1()
    };

    // Strawman: re-quantize the *trained* weights themselves every step —
    // small updates are erased by the pow2 rounding.
    let mut working = build_working_net(float_net, plan);
    sync_quantized_params(float_net, &mut working, plan);
    let requantize = |net: &mut Network| {
        net.visit_params(&mut |v, _| {
            if v.shape().rank() > 1 {
                v.map_in_place(|w| Pow2Weight::from_f32(w).to_f32());
            }
        });
    };
    let mut sgd_naive = Sgd::new(sgd).expect("sgd");
    for epoch in 0..3 {
        for (x, labels) in Batcher::new(&split.train, 32).shuffled(epoch) {
            // Quantize the working net's own weights in place (no master):
            // sub-LSB updates are erased every step.
            requantize(&mut working);
            let logits = working.forward(&x, Phase::Train).expect("forward");
            let (_, grad) = mfdfp_nn::softmax_cross_entropy(&logits, &labels).expect("loss");
            working.backward(&grad).expect("backward");
            sgd_naive.step(&mut working);
        }
    }
    requantize(&mut working);
    let acc_naive = eval_float_like(&mut working, split);

    println!("    shadow weights (paper): top-1 {:.2}%", acc_shadow * 100.0);
    println!("    naive direct training:  top-1 {:.2}%", acc_naive * 100.0);
}

/// 5. Ensemble size sweep.
fn ablation_ensemble_size(split: &Split) {
    println!("\n[5] ensemble size M (paper deploys M = 2)");
    let cfg = PipelineConfig {
        phase1_epochs: 4,
        phase2_epochs: 2,
        learning_rate: 4e-3,
        batch_size: 32,
        eval_k: 1,
        ..PipelineConfig::paper_defaults()
    };
    let mut members = Vec::new();
    for seed in 0..3u64 {
        let mut rng = TensorRng::seed_from(100 + seed);
        let net = zoo::quick_custom(3, 16, [8, 8, 16], 32, 6, &mut rng).expect("topology");
        let net = pretrain_float_converged(net, split, 12, 0.02, 32, 300 + seed);
        let mut c = cfg;
        c.seed ^= seed.wrapping_mul(0x9E37_79B9);
        let out = run_pipeline(net, &split.train, &split.test, &c).expect("pipeline");
        members.push(out.qnet);
    }
    for m in 1..=members.len() {
        let e = Ensemble::new(members[..m].to_vec()).expect("ensemble");
        let batches: Vec<_> = Batcher::new(&split.test, 32).iter().collect();
        let acc = e.evaluate(batches, 1).expect("eval").top1();
        println!("    M = {m}: top-1 {:.2}%   (energy scales ~{m}x single MF-DFP)", acc * 100.0);
    }
}

/// 6. Activation bit-width sweep (fake-quant domain): the paper picks 8
///    bits; fewer breaks, more buys little.
fn ablation_bit_width(float_net: &Network, split: &Split) {
    println!("\n[6] activation bit-width sweep (dynamic per-layer formats)");
    for bits in [4u8, 6, 8, 12, 16] {
        let mut net = float_net.clone();
        let calib: Vec<_> = Batcher::new(&split.train, 32).iter().take(4).collect();
        let plan = match calibrate(&mut net, &calib, bits) {
            Ok(p) => p,
            Err(e) => {
                println!("    {bits:>2}-bit: calibration failed: {e}");
                continue;
            }
        };
        let mut working = build_working_net(&net, &plan);
        sync_quantized_params(&net, &mut working, &plan);
        let acc = eval_float_like(&mut working, split);
        println!("    {bits:>2}-bit activations: top-1 {:.2}%", acc * 100.0);
    }
}

fn main() {
    println!("MF-DFP ablation studies (synthetic CIFAR-like stand-in, 16 px)");
    let (mut float_net, split) = problem();
    let float_acc = eval_float_like(&mut float_net, &split);
    println!("float reference: top-1 {:.2}%", float_acc * 100.0);

    let calib: Vec<_> = Batcher::new(&split.train, 32).iter().take(4).collect();
    let plan = calibrate(&mut float_net, &calib, 8).expect("calibration");
    // Summarize the dynamic formats the calibrator chose.
    print!("calibrated fractional lengths: input f={}", plan.input_format.frac());
    for (i, layer) in float_net.layers().iter().enumerate() {
        if layer.is_weighted() {
            print!(
                ", {} f={}",
                layer.describe().split(':').next().unwrap_or("?"),
                plan.boundary_formats[i].frac()
            );
        }
    }
    println!();

    ablation_rounding(&float_net, &plan, &split);
    ablation_uniform_format(&float_net, &plan, &split);
    ablation_exponent_clamp(&float_net, &plan, &split);
    ablation_shadow_weights(&float_net, &plan, &split);
    ablation_ensemble_size(&split);
    ablation_bit_width(&float_net, &split);

    // Range statistics sanity: report observed weight exponent histogram.
    println!("\n[7] weight exponent histogram (motivates the 4-bit encoding)");
    let mut hist = [0usize; 9];
    let mut stats = RangeStats::new();
    float_net.clone().visit_params(&mut |v, _| {
        if v.shape().rank() > 1 {
            stats.observe_slice(v.as_slice());
            for &w in v.as_slice() {
                let q = Pow2Weight::from_f32(w);
                hist[(-q.exp()) as usize] += 1;
            }
        }
    });
    for (i, count) in hist.iter().enumerate() {
        println!("    e = -{i}: {count}");
    }
    println!("    max |w| observed: {:.4} (< 1, as the paper assumes)", stats.max_abs());
}
