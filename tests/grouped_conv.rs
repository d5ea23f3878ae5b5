//! Grouped convolutions through the whole codesign stack: float training,
//! quantization, integer inference, deployment round-trip and scheduling —
//! exercising the AlexNet dual-GPU layer structure end to end.

use std::sync::Arc;

use mfdfp::accel::{schedule_network, AcceleratorConfig, DmaModel};
use mfdfp::core::{calibrate, to_image, ImageView, QuantizedNet};
use mfdfp::data::{Batcher, Split, SynthSpec};
use mfdfp::nn::layers::{Conv2d, Flatten, Linear, Pool, Relu};
use mfdfp::nn::{evaluate, train_epoch, Layer, Network, Phase, Sgd, SgdConfig};
use mfdfp::tensor::{ConvGeometry, PoolGeometry, PoolKind, TensorRng};

/// A small network with a grouped middle convolution (AlexNet pattern).
fn grouped_net(classes: usize, rng: &mut TensorRng) -> Network {
    let mut net = Network::new("grouped-mini");
    net.push(Layer::Conv(Conv2d::new(
        "conv1",
        ConvGeometry::new(2, 12, 12, 8, 3, 1, 1).unwrap(),
        rng,
    )));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Pool(Pool::new(
        "pool1",
        PoolKind::Max,
        PoolGeometry::new(8, 12, 12, 2, 2).unwrap(),
    )));
    net.push(Layer::Conv(Conv2d::new(
        "conv2",
        ConvGeometry::new(8, 6, 6, 8, 3, 1, 1).unwrap().with_groups(2).unwrap(),
        rng,
    )));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Flatten(Flatten::new()));
    net.push(Layer::Linear(Linear::new("fc", 8 * 6 * 6, classes, rng)));
    net
}

#[test]
fn grouped_net_trains_quantizes_and_deploys() {
    let spec = SynthSpec {
        classes: 3,
        channels: 2,
        size: 12,
        per_class: 20,
        noise: 0.3,
        max_shift: 1,
        seed: 55,
    };
    let split = Split::generate(&spec, 8);
    let mut rng = TensorRng::seed_from(5);
    let mut net = grouped_net(3, &mut rng);

    // Train.
    let mut sgd =
        Sgd::new(SgdConfig { learning_rate: 0.02, momentum: 0.9, weight_decay: 1e-4 }).unwrap();
    for epoch in 0..8 {
        let batches: Vec<_> = Batcher::new(&split.train, 12).shuffled(epoch).collect();
        train_epoch(&mut net, &mut sgd, batches).unwrap();
    }
    let test: Vec<_> = Batcher::new(&split.test, 12).iter().collect();
    let float_acc = evaluate(&mut net, test, 1).unwrap().top1();
    assert!(float_acc > 0.5, "grouped float net failed to train: {float_acc}");

    // Quantize and run the integer engine.
    let calib: Vec<_> = Batcher::new(&split.train, 12).iter().take(2).collect();
    let plan = calibrate(&mut net, &calib, 8).unwrap();
    let qnet = QuantizedNet::from_network(&net, &plan).unwrap();
    let (x, labels) = Batcher::new(&split.test, 12).iter().next().unwrap();
    let logits = qnet.logits_batch(&x).unwrap();
    assert_eq!(logits.shape().dims(), &[12, 3]);

    // Quantized predictions correlate with float predictions.
    let fl = net.forward(&x, Phase::Eval).unwrap();
    let fl_pred = mfdfp::tensor::argmax_rows(&fl).unwrap();
    let hw_pred = mfdfp::tensor::argmax_rows(&logits).unwrap();
    let agree = fl_pred.iter().zip(&hw_pred).filter(|(a, b)| a == b).count();
    assert!(agree >= 8, "only {agree}/12 predictions agree");
    let _ = labels;

    // Deployment image round-trips bit-exactly.
    let view = ImageView::open(Arc::new(to_image(&qnet))).unwrap();
    let back = QuantizedNet::from_image(&view).unwrap();
    let img = x.index_axis0(0);
    let bits = |q: &QuantizedNet| -> Vec<u32> {
        q.logits(&img).unwrap().as_slice().iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(&qnet), bits(&back));

    // The scheduler handles grouped layers (fewer MACs than dense).
    let sched =
        schedule_network(&net, &AcceleratorConfig::paper_mf_dfp(), DmaModel::Overlapped).unwrap();
    assert!(sched.total_cycles > 0);
}

#[test]
fn grouping_halves_conv_cycles() {
    let mut rng = TensorRng::seed_from(1);
    let mut dense = Network::new("dense");
    dense.push(Layer::Conv(Conv2d::new(
        "c",
        ConvGeometry::new(8, 8, 8, 8, 3, 1, 1).unwrap(),
        &mut rng,
    )));
    let mut grouped = Network::new("grouped");
    grouped.push(Layer::Conv(Conv2d::new(
        "c",
        ConvGeometry::new(8, 8, 8, 8, 3, 1, 1).unwrap().with_groups(2).unwrap(),
        &mut rng,
    )));
    let cfg = AcceleratorConfig::paper_mf_dfp();
    let sd = schedule_network(&dense, &cfg, DmaModel::Overlapped).unwrap();
    let sg = schedule_network(&grouped, &cfg, DmaModel::Overlapped).unwrap();
    // Half the synapses per neuron → strictly fewer compute cycles, but
    // never better than exactly half (synapse chunks round up to the
    // 16-lane tile: 72 synapses → 5 chunks, 36 → 3, not 2.5).
    assert!(sg.layers[0].compute < sd.layers[0].compute);
    assert!(sg.layers[0].compute >= sd.layers[0].compute / 2);
}
