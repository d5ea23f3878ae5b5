//! Cross-crate integration tests: the full codesign loop from synthetic
//! data through float training, quantization, fine-tuning, integer
//! inference and the hardware model — everything a user of the umbrella
//! crate touches.

use mfdfp::accel::{
    design_metrics, schedule_network, AcceleratorConfig, ComponentLibrary, DmaModel, RunReport,
};
use mfdfp::core::{calibrate, memory_report, run_pipeline, Ensemble, PipelineConfig, QuantizedNet};
use mfdfp::data::{Batcher, Split, SynthSpec};
use mfdfp::nn::{evaluate, train_epoch, zoo, Network, Phase, Sgd, SgdConfig};
use mfdfp::tensor::TensorRng;

fn small_split() -> Split {
    let spec = SynthSpec {
        classes: 4,
        channels: 3,
        size: 16,
        per_class: 24,
        noise: 0.35,
        max_shift: 1,
        seed: 42,
    };
    Split::generate(&spec, 8)
}

fn trained_float(split: &Split, seed: u64) -> Network {
    let mut rng = TensorRng::seed_from(seed);
    let mut net = zoo::quick_custom(3, 16, [6, 6, 12], 24, 4, &mut rng).expect("topology");
    let mut sgd = Sgd::new(SgdConfig { learning_rate: 0.02, momentum: 0.9, weight_decay: 1e-4 })
        .expect("sgd");
    for epoch in 0..8 {
        let batches: Vec<_> = Batcher::new(&split.train, 16).shuffled(seed ^ epoch).collect();
        train_epoch(&mut net, &mut sgd, batches).expect("epoch");
    }
    net
}

#[test]
fn float_training_then_quantization_then_integer_inference() {
    let split = small_split();
    let mut net = trained_float(&split, 1);

    // Float accuracy is meaningfully above chance (4 classes → 25%).
    let test: Vec<_> = Batcher::new(&split.test, 16).iter().collect();
    let float_acc = evaluate(&mut net, test, 1).expect("eval").top1();
    assert!(float_acc > 0.5, "float accuracy {float_acc}");

    // Quantize with calibration and run integer-only inference.
    let calib: Vec<_> = Batcher::new(&split.train, 16).iter().take(3).collect();
    let plan = calibrate(&mut net, &calib, 8).expect("calibration");
    let qnet = QuantizedNet::from_network(&net, &plan).expect("quantize");
    let test: Vec<_> = Batcher::new(&split.test, 16).iter().collect();
    let mut acc = mfdfp::nn::Accuracy::new(1);
    for (x, labels) in test {
        let logits = qnet.logits_batch(&x).expect("integer inference");
        acc.update(&logits, &labels).expect("metric");
    }
    // Post-quantization (before fine-tuning) should stay within a broad
    // band of float accuracy — the starting point of Algorithm 1.
    assert!(acc.top1() > float_acc - 0.3, "quantized {} vs float {float_acc}", acc.top1());
}

#[test]
fn pipeline_recovers_quantization_loss_and_ensemble_helps() {
    let split = small_split();
    let net1 = trained_float(&split, 1);
    let net2 = trained_float(&split, 2);
    let test: Vec<_> = Batcher::new(&split.test, 16).iter().collect();
    let float_acc = evaluate(&mut net1.clone(), test, 1).expect("eval").top1();

    let cfg = PipelineConfig {
        phase1_epochs: 4,
        phase2_epochs: 2,
        learning_rate: 4e-3,
        batch_size: 16,
        eval_k: 1,
        ..PipelineConfig::paper_defaults()
    };
    let out1 = run_pipeline(net1, &split.train, &split.test, &cfg).expect("pipeline 1");
    let mut cfg2 = cfg;
    cfg2.seed ^= 77;
    let out2 = run_pipeline(net2, &split.train, &split.test, &cfg2).expect("pipeline 2");

    // Fine-tuned quantized accuracy within a few points of float.
    assert!(
        out1.final_top1 >= float_acc - 0.15,
        "single MF-DFP {} vs float {float_acc}",
        out1.final_top1
    );

    // Ensemble at least matches the best single member (on this test set).
    let ens = Ensemble::new(vec![out1.qnet.clone(), out2.qnet.clone()]).expect("ensemble");
    let test: Vec<_> = Batcher::new(&split.test, 16).iter().collect();
    let ens_acc = ens.evaluate(test, 1).expect("eval").top1();
    let best_single = out1.final_top1.max(out2.final_top1);
    assert!(
        ens_acc >= best_single - 0.08,
        "ensemble {ens_acc} far below best single {best_single}"
    );
}

#[test]
fn hardware_model_composes_with_any_supported_topology() {
    let split = small_split();
    let net = trained_float(&split, 3);
    let lib = ComponentLibrary::calibrated_65nm();
    for cfg in [
        AcceleratorConfig::paper_fp32(),
        AcceleratorConfig::paper_mf_dfp(),
        AcceleratorConfig::paper_ensemble(),
    ] {
        let design = design_metrics(&cfg, &lib).expect("design");
        let schedule = schedule_network(&net, &cfg, DmaModel::Overlapped).expect("schedule");
        let run = RunReport::from_schedule(&schedule, &design);
        assert!(run.cycles > 0);
        assert!(run.time_us > 0.0);
        assert!(run.energy_uj > 0.0);
        // Energy = power × time, exactly.
        let expect = design.power_mw * run.time_us / 1000.0;
        assert!((run.energy_uj - expect).abs() < 1e-9);
    }
}

#[test]
fn quantized_network_memory_matches_report() {
    let split = small_split();
    let mut net = trained_float(&split, 4);
    let calib: Vec<_> = Batcher::new(&split.train, 16).iter().take(2).collect();
    let plan = calibrate(&mut net, &calib, 8).expect("calibration");
    let qnet = QuantizedNet::from_network(&net, &plan).expect("quantize");
    let report = memory_report(&net);
    assert_eq!(qnet.memory_bytes(), report.mfdfp_bytes);
    assert!(report.compression() > 7.5);
}

#[test]
fn determinism_same_seed_same_everything() {
    let split = small_split();
    let cfg = PipelineConfig {
        phase1_epochs: 2,
        phase2_epochs: 1,
        learning_rate: 4e-3,
        batch_size: 16,
        eval_k: 1,
        ..PipelineConfig::paper_defaults()
    };
    let out_a = run_pipeline(trained_float(&split, 9), &split.train, &split.test, &cfg).expect("a");
    let out_b = run_pipeline(trained_float(&split, 9), &split.train, &split.test, &cfg).expect("b");
    assert_eq!(out_a.final_top1, out_b.final_top1);
    assert_eq!(out_a.history.len(), out_b.history.len());
    for (a, b) in out_a.history.iter().zip(&out_b.history) {
        assert_eq!(a.train_loss, b.train_loss);
        assert_eq!(a.test_error, b.test_error);
    }
    // And the deployed artifacts produce identical logits, bit for bit.
    let (x, _) = Batcher::new(&split.test, 4).iter().next().expect("batch");
    let img = x.index_axis0(0);
    let bits = |q: &QuantizedNet| -> Vec<u32> {
        q.logits(&img).expect("logits").as_slice().iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(&out_a.qnet), bits(&out_b.qnet));
}

#[test]
fn working_net_and_integer_engine_agree_within_one_lsb() {
    // The codesign contract across crate boundaries: training view
    // (fake-quant float) == deployment view (integer shifts), bit-for-bit
    // up to float-summation slack.
    let split = small_split();
    let mut net = trained_float(&split, 5);
    let calib: Vec<_> = Batcher::new(&split.train, 16).iter().take(2).collect();
    let plan = calibrate(&mut net, &calib, 8).expect("calibration");
    let mut working = mfdfp::core::build_working_net(&net, &plan);
    mfdfp::core::sync_quantized_params(&net, &mut working, &plan);
    let qnet = QuantizedNet::from_network(&net, &plan).expect("quantize");

    let (x, _) = Batcher::new(&split.test, 8).iter().next().expect("batch");
    let fq = working.forward(&x, Phase::Eval).expect("fake-quant forward");
    let hw = qnet.logits_batch(&x).expect("integer forward");
    let step = qnet.output_format().step();
    for (a, b) in fq.as_slice().iter().zip(hw.as_slice()) {
        assert!(
            ((a - b) / step).abs() <= 1.0 + 1e-3,
            "training view {a} vs deployed view {b} (> 1 LSB apart)"
        );
    }
}
