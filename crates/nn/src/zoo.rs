//! Model zoo: the paper's two benchmark topologies plus scaled-down
//! trainable variants for CPU-budget experiments.
//!
//! * [`cifar10_quick`] — the Caffe "CIFAR-10 quick" network the paper uses
//!   for its CIFAR-10 benchmark (the paper's reference \[2\], Krizhevsky).
//! * [`alexnet`] — AlexNet (reference \[20\]) with LRN layers removed, as the
//!   paper does ("we remove all local response normalization layers").
//!   Convolutions are ungrouped (single-GPU formulation), which slightly
//!   increases the parameter count over the grouped Caffe model.
//! * [`quick_custom`] / [`alexnet_like_small`] — reduced-width variants
//!   with the same layer *pattern*, used where full-scale CPU training
//!   would be infeasible (accuracy curves, tests).

use mfdfp_tensor::{ConvGeometry, PoolGeometry, PoolKind, TensorRng};

use crate::error::Result;
use crate::layer::Layer;
use crate::layers::{Conv2d, Dropout, Flatten, Linear, Lrn, Pool, Relu};
use crate::net::Network;

/// Builds the Caffe "CIFAR-10 quick" topology for 3×32×32 inputs:
///
/// `conv(5×5,32,p2) → maxpool(3,s2) → relu → conv(5×5,32,p2) → relu →
/// avgpool(3,s2) → conv(5×5,64,p2) → relu → avgpool(3,s2) → fc(64) →
/// fc(classes)`.
///
/// # Errors
///
/// Propagates geometry validation errors (none for the standard sizes).
pub fn cifar10_quick(classes: usize, rng: &mut TensorRng) -> Result<Network> {
    let mut net = Network::new("cifar10-quick");
    net.push(Layer::Conv(Conv2d::new("conv1", ConvGeometry::new(3, 32, 32, 32, 5, 1, 2)?, rng)));
    net.push(Layer::Pool(Pool::new("pool1", PoolKind::Max, PoolGeometry::new(32, 32, 32, 3, 2)?)));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Conv(Conv2d::new("conv2", ConvGeometry::new(32, 16, 16, 32, 5, 1, 2)?, rng)));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Pool(Pool::new("pool2", PoolKind::Avg, PoolGeometry::new(32, 16, 16, 3, 2)?)));
    net.push(Layer::Conv(Conv2d::new("conv3", ConvGeometry::new(32, 8, 8, 64, 5, 1, 2)?, rng)));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Pool(Pool::new("pool3", PoolKind::Avg, PoolGeometry::new(64, 8, 8, 3, 2)?)));
    net.push(Layer::Flatten(Flatten::new()));
    net.push(Layer::Linear(Linear::new("ip1", 64 * 4 * 4, 64, rng)));
    net.push(Layer::Linear(Linear::new("ip2", 64, classes, rng)));
    Ok(net)
}

/// Builds the Caffe "CIFAR-10 full" topology for 3×32×32 inputs — the
/// CIFAR-10 benchmark network of the paper (its Table 3 memory footprint,
/// 0.3417 MiB = 89,578 parameters × 4 B, identifies this network):
///
/// `conv(5×5,32,p2) → maxpool(3,s2) → relu → conv(5×5,32,p2) → relu →
/// avgpool(3,s2) → conv(5×5,64,p2) → relu → avgpool(3,s2) →
/// fc(classes)`.
///
/// The difference from [`cifar10_quick`]: a single inner-product layer
/// straight to the classes, no 64-unit hidden FC.
///
/// # Errors
///
/// Propagates geometry validation errors (none for the standard sizes).
pub fn cifar10_full(classes: usize, rng: &mut TensorRng) -> Result<Network> {
    let mut net = Network::new("cifar10-full");
    net.push(Layer::Conv(Conv2d::new("conv1", ConvGeometry::new(3, 32, 32, 32, 5, 1, 2)?, rng)));
    net.push(Layer::Pool(Pool::new("pool1", PoolKind::Max, PoolGeometry::new(32, 32, 32, 3, 2)?)));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Conv(Conv2d::new("conv2", ConvGeometry::new(32, 16, 16, 32, 5, 1, 2)?, rng)));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Pool(Pool::new("pool2", PoolKind::Avg, PoolGeometry::new(32, 16, 16, 3, 2)?)));
    net.push(Layer::Conv(Conv2d::new("conv3", ConvGeometry::new(32, 8, 8, 64, 5, 1, 2)?, rng)));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Pool(Pool::new("pool3", PoolKind::Avg, PoolGeometry::new(64, 8, 8, 3, 2)?)));
    net.push(Layer::Flatten(Flatten::new()));
    net.push(Layer::Linear(Linear::new("ip1", 64 * 4 * 4, classes, rng)));
    Ok(net)
}

/// Builds a width/size-parametrised variant of the quick topology for
/// `in_c×in_hw×in_hw` inputs (`in_hw` divisible by 4): three 5×5 conv
/// stages with channel widths `widths`, then a hidden FC of `fc` units.
///
/// `quick_custom(3, 32, [32, 32, 64], 64, 10, rng)` reproduces
/// [`cifar10_quick`] exactly.
///
/// # Errors
///
/// Propagates geometry validation errors for inconsistent sizes.
pub fn quick_custom(
    in_c: usize,
    in_hw: usize,
    widths: [usize; 3],
    fc: usize,
    classes: usize,
    rng: &mut TensorRng,
) -> Result<Network> {
    let mut net = Network::new(format!("quick-{in_hw}px"));
    let [c1, c2, c3] = widths;
    let s1 = in_hw; // conv1 output (pad 2 keeps size)
    let p1 = s1 / 2; // after pool (3, s2, ceil)
    let p2 = p1 / 2;
    let p3 = p2 / 2;
    net.push(Layer::Conv(Conv2d::new("conv1", ConvGeometry::new(in_c, s1, s1, c1, 5, 1, 2)?, rng)));
    net.push(Layer::Pool(Pool::new("pool1", PoolKind::Max, PoolGeometry::new(c1, s1, s1, 3, 2)?)));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Conv(Conv2d::new("conv2", ConvGeometry::new(c1, p1, p1, c2, 5, 1, 2)?, rng)));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Pool(Pool::new("pool2", PoolKind::Avg, PoolGeometry::new(c2, p1, p1, 3, 2)?)));
    net.push(Layer::Conv(Conv2d::new("conv3", ConvGeometry::new(c2, p2, p2, c3, 5, 1, 2)?, rng)));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Pool(Pool::new("pool3", PoolKind::Avg, PoolGeometry::new(c3, p2, p2, 3, 2)?)));
    net.push(Layer::Flatten(Flatten::new()));
    net.push(Layer::Linear(Linear::new("ip1", c3 * p3 * p3, fc, rng)));
    net.push(Layer::Linear(Linear::new("ip2", fc, classes, rng)));
    Ok(net)
}

/// Builds AlexNet for 3×227×227 inputs (ungrouped convolutions, LRN
/// removed per the paper; pass `with_lrn = true` to restore the original
/// LRN layers for the ablation study).
///
/// # Errors
///
/// Propagates geometry validation errors (none for the standard sizes).
pub fn alexnet(classes: usize, with_lrn: bool, rng: &mut TensorRng) -> Result<Network> {
    let mut net = Network::new(if with_lrn { "alexnet-lrn" } else { "alexnet" });
    net.push(Layer::Conv(Conv2d::new("conv1", ConvGeometry::new(3, 227, 227, 96, 11, 4, 0)?, rng)));
    net.push(Layer::Relu(Relu::new()));
    if with_lrn {
        net.push(Layer::Lrn(Lrn::alexnet()));
    }
    net.push(Layer::Pool(Pool::new("pool1", PoolKind::Max, PoolGeometry::new(96, 55, 55, 3, 2)?)));
    net.push(Layer::Conv(Conv2d::new("conv2", ConvGeometry::new(96, 27, 27, 256, 5, 1, 2)?, rng)));
    net.push(Layer::Relu(Relu::new()));
    if with_lrn {
        net.push(Layer::Lrn(Lrn::alexnet()));
    }
    net.push(Layer::Pool(Pool::new("pool2", PoolKind::Max, PoolGeometry::new(256, 27, 27, 3, 2)?)));
    net.push(Layer::Conv(Conv2d::new("conv3", ConvGeometry::new(256, 13, 13, 384, 3, 1, 1)?, rng)));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Conv(Conv2d::new("conv4", ConvGeometry::new(384, 13, 13, 384, 3, 1, 1)?, rng)));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Conv(Conv2d::new("conv5", ConvGeometry::new(384, 13, 13, 256, 3, 1, 1)?, rng)));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Pool(Pool::new("pool5", PoolKind::Max, PoolGeometry::new(256, 13, 13, 3, 2)?)));
    net.push(Layer::Flatten(Flatten::new()));
    net.push(Layer::Linear(Linear::new("fc6", 256 * 6 * 6, 4096, rng)));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Dropout(Dropout::new(0.5, 0xA1EC)));
    net.push(Layer::Linear(Linear::new("fc7", 4096, 4096, rng)));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Dropout(Dropout::new(0.5, 0xA1ED)));
    net.push(Layer::Linear(Linear::new("fc8", 4096, classes, rng)));
    Ok(net)
}

/// Builds the original *grouped* AlexNet (Caffe `bvlc_alexnet`): conv2,
/// conv4 and conv5 split into two channel groups, as on the original
/// dual-GPU training setup. 60,965,224 parameters at 1000 classes.
///
/// The paper's Table 3 memory figure (237.95 MiB) corresponds to the
/// *ungrouped* formulation ([`alexnet`]); this variant exists to quantify
/// the difference and to exercise grouped convolutions end-to-end.
///
/// # Errors
///
/// Propagates geometry validation errors (none for the standard sizes).
pub fn alexnet_grouped(classes: usize, rng: &mut TensorRng) -> Result<Network> {
    let mut net = Network::new("alexnet-grouped");
    net.push(Layer::Conv(Conv2d::new("conv1", ConvGeometry::new(3, 227, 227, 96, 11, 4, 0)?, rng)));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Pool(Pool::new("pool1", PoolKind::Max, PoolGeometry::new(96, 55, 55, 3, 2)?)));
    net.push(Layer::Conv(Conv2d::new(
        "conv2",
        ConvGeometry::new(96, 27, 27, 256, 5, 1, 2)?.with_groups(2)?,
        rng,
    )));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Pool(Pool::new("pool2", PoolKind::Max, PoolGeometry::new(256, 27, 27, 3, 2)?)));
    net.push(Layer::Conv(Conv2d::new("conv3", ConvGeometry::new(256, 13, 13, 384, 3, 1, 1)?, rng)));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Conv(Conv2d::new(
        "conv4",
        ConvGeometry::new(384, 13, 13, 384, 3, 1, 1)?.with_groups(2)?,
        rng,
    )));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Conv(Conv2d::new(
        "conv5",
        ConvGeometry::new(384, 13, 13, 256, 3, 1, 1)?.with_groups(2)?,
        rng,
    )));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Pool(Pool::new("pool5", PoolKind::Max, PoolGeometry::new(256, 13, 13, 3, 2)?)));
    net.push(Layer::Flatten(Flatten::new()));
    net.push(Layer::Linear(Linear::new("fc6", 256 * 6 * 6, 4096, rng)));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Dropout(Dropout::new(0.5, 0xA1EE)));
    net.push(Layer::Linear(Linear::new("fc7", 4096, 4096, rng)));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Dropout(Dropout::new(0.5, 0xA1EF)));
    net.push(Layer::Linear(Linear::new("fc8", 4096, classes, rng)));
    Ok(net)
}

/// Builds a reduced AlexNet-pattern network for 3×32×32 inputs (conv →
/// pool pyramid with dropout-regularised FC head) used for the ImageNet
/// accuracy experiments at CPU scale.
///
/// # Errors
///
/// Propagates geometry validation errors (none for the standard sizes).
pub fn alexnet_like_small(classes: usize, rng: &mut TensorRng) -> Result<Network> {
    let mut net = Network::new("alexnet-small");
    net.push(Layer::Conv(Conv2d::new("conv1", ConvGeometry::new(3, 32, 32, 24, 5, 2, 2)?, rng)));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Pool(Pool::new("pool1", PoolKind::Max, PoolGeometry::new(24, 16, 16, 3, 2)?)));
    net.push(Layer::Conv(Conv2d::new("conv2", ConvGeometry::new(24, 8, 8, 48, 3, 1, 1)?, rng)));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Pool(Pool::new("pool2", PoolKind::Max, PoolGeometry::new(48, 8, 8, 3, 2)?)));
    net.push(Layer::Conv(Conv2d::new("conv3", ConvGeometry::new(48, 4, 4, 64, 3, 1, 1)?, rng)));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Flatten(Flatten::new()));
    net.push(Layer::Linear(Linear::new("fc6", 64 * 4 * 4, 128, rng)));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Dropout(Dropout::new(0.25, 0x5EED)));
    net.push(Layer::Linear(Linear::new("fc7", 128, classes, rng)));
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Phase;
    use mfdfp_tensor::Tensor;

    #[test]
    fn cifar10_quick_shapes_and_params() {
        let mut rng = TensorRng::seed_from(0);
        let mut net = cifar10_quick(10, &mut rng).unwrap();
        // Parameter count: conv1 2432 + conv2 25632 + conv3 51264 +
        // ip1 65600 + ip2 650 = 145,578 (the float model of Table 3).
        assert_eq!(net.param_count(), 145_578);
        let x = Tensor::zeros([1, 3, 32, 32]);
        let y = net.forward(&x, Phase::Eval).unwrap();
        assert_eq!(y.shape().dims(), &[1, 10]);
    }

    #[test]
    fn cifar10_full_matches_paper_table3_param_count() {
        let mut rng = TensorRng::seed_from(0);
        let net = cifar10_full(10, &mut rng).unwrap();
        // 89,578 params × 4 B = 0.3417 MiB — the paper's Table 3 float row.
        assert_eq!(net.param_count(), 89_578);
        let mib = net.param_count() as f64 * 4.0 / (1024.0 * 1024.0);
        assert!((mib - 0.3417).abs() < 0.0005, "{mib} MiB");
    }

    #[test]
    fn quick_custom_reproduces_cifar10_quick() {
        let mut rng = TensorRng::seed_from(0);
        let reference = cifar10_quick(10, &mut rng).unwrap();
        let mut rng = TensorRng::seed_from(0);
        let custom = quick_custom(3, 32, [32, 32, 64], 64, 10, &mut rng).unwrap();
        assert_eq!(reference.param_count(), custom.param_count());
        assert_eq!(reference.len(), custom.len());
    }

    #[test]
    fn quick_custom_small_forward() {
        let mut rng = TensorRng::seed_from(0);
        let mut net = quick_custom(3, 16, [8, 8, 16], 32, 10, &mut rng).unwrap();
        let x = Tensor::zeros([2, 3, 16, 16]);
        let y = net.forward(&x, Phase::Eval).unwrap();
        assert_eq!(y.shape().dims(), &[2, 10]);
    }

    #[test]
    fn alexnet_param_count_is_full_scale() {
        let mut rng = TensorRng::seed_from(0);
        let net = alexnet(1000, false, &mut rng).unwrap();
        // Ungrouped AlexNet: 62,378,344 parameters.
        assert_eq!(net.param_count(), 62_378_344);
        // 18 MACs-bearing + activation layers; no LRN present.
        assert!(net.layers().iter().all(|l| !matches!(l, Layer::Lrn(_))));
    }

    #[test]
    fn alexnet_grouped_matches_caffe_param_count() {
        let mut rng = TensorRng::seed_from(0);
        let net = alexnet_grouped(1000, &mut rng).unwrap();
        // Caffe bvlc_alexnet: 60,965,224 parameters.
        assert_eq!(net.param_count(), 60_965_224);
    }

    #[test]
    fn alexnet_grouped_forward_shape() {
        let mut rng = TensorRng::seed_from(0);
        let mut net = alexnet_grouped(10, &mut rng).unwrap();
        let x = Tensor::zeros([1, 3, 227, 227]);
        let y = net.forward(&x, Phase::Eval).unwrap();
        assert_eq!(y.shape().dims(), &[1, 10]);
    }

    #[test]
    fn alexnet_with_lrn_has_lrn_layers() {
        let mut rng = TensorRng::seed_from(0);
        let net = alexnet(10, true, &mut rng).unwrap();
        let lrn_count = net.layers().iter().filter(|l| matches!(l, Layer::Lrn(_))).count();
        assert_eq!(lrn_count, 2);
    }

    #[test]
    fn alexnet_small_forward() {
        let mut rng = TensorRng::seed_from(0);
        let mut net = alexnet_like_small(16, &mut rng).unwrap();
        let x = Tensor::zeros([2, 3, 32, 32]);
        let y = net.forward(&x, Phase::Train).unwrap();
        assert_eq!(y.shape().dims(), &[2, 16]);
    }
}
