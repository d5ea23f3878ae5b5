//! Parameter-memory accounting (Table 3).
//!
//! Float models store every parameter in 32 bits. MF-DFP models store
//! weights in 4 bits (sign + 3-bit exponent) and biases in 8 bits (one
//! dynamic fixed-point code) — which reproduces the paper's numbers
//! exactly: cifar10-full 0.3417 → 0.0428 MiB, AlexNet 237.95 → 29.75 MiB.

use mfdfp_nn::{Layer, Network};

/// Bytes in one MiB (the paper's "MB" column is mebibytes).
pub const MIB: f64 = 1024.0 * 1024.0;

/// Parameter-memory report for one network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryReport {
    /// Weight parameters (conv kernels + FC matrices).
    pub weights: u64,
    /// Bias parameters.
    pub biases: u64,
    /// Bytes at 32-bit floating point.
    pub fp32_bytes: u64,
    /// Bytes as deployed MF-DFP (4-bit packed weights + 8-bit biases).
    pub mfdfp_bytes: u64,
}

impl MemoryReport {
    /// Total parameter count.
    pub fn params(&self) -> u64 {
        self.weights + self.biases
    }

    /// Float size in MiB (Table 3, "Floating-Point" row).
    pub fn fp32_mib(&self) -> f64 {
        self.fp32_bytes as f64 / MIB
    }

    /// MF-DFP size in MiB (Table 3, "MF-DFP" row).
    pub fn mfdfp_mib(&self) -> f64 {
        self.mfdfp_bytes as f64 / MIB
    }

    /// Ensemble-of-`m` MF-DFP size in MiB (Table 3, "Ensemble" row).
    pub fn ensemble_mib(&self, m: usize) -> f64 {
        self.mfdfp_mib() * m as f64
    }

    /// Compression ratio float → MF-DFP (the paper's "8× less memory").
    pub fn compression(&self) -> f64 {
        self.fp32_bytes as f64 / self.mfdfp_bytes as f64
    }
}

/// Computes the memory report of a float network's parameters.
pub fn memory_report(net: &Network) -> MemoryReport {
    let mut weights = 0u64;
    let mut biases = 0u64;
    for layer in net.layers() {
        match layer {
            Layer::Conv(c) => {
                weights += c.weights().len() as u64;
                biases += c.bias().len() as u64;
            }
            Layer::Linear(l) => {
                weights += l.weights().len() as u64;
                biases += l.bias().len() as u64;
            }
            _ => {}
        }
    }
    MemoryReport {
        weights,
        biases,
        fp32_bytes: (weights + biases) * 4,
        mfdfp_bytes: weights.div_ceil(2) + biases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfdfp_nn::zoo;
    use mfdfp_tensor::TensorRng;

    #[test]
    fn cifar10_full_matches_paper_table3() {
        let mut rng = TensorRng::seed_from(0);
        let net = zoo::cifar10_full(10, &mut rng).unwrap();
        let r = memory_report(&net);
        assert_eq!(r.params(), 89_578);
        assert!((r.fp32_mib() - 0.3417).abs() < 0.0005, "fp32 {}", r.fp32_mib());
        assert!((r.mfdfp_mib() - 0.0428).abs() < 0.0005, "mfdfp {}", r.mfdfp_mib());
        assert!((r.ensemble_mib(2) - 0.0855).abs() < 0.001, "ens {}", r.ensemble_mib(2));
    }

    #[test]
    fn alexnet_matches_paper_table3() {
        let mut rng = TensorRng::seed_from(0);
        let net = zoo::alexnet(1000, false, &mut rng).unwrap();
        let r = memory_report(&net);
        assert!((r.fp32_mib() - 237.95).abs() < 0.1, "fp32 {}", r.fp32_mib());
        assert!((r.mfdfp_mib() - 29.75).abs() < 0.05, "mfdfp {}", r.mfdfp_mib());
        assert!((r.ensemble_mib(2) - 59.50).abs() < 0.1, "ens {}", r.ensemble_mib(2));
    }

    #[test]
    fn compression_is_roughly_eightfold() {
        let mut rng = TensorRng::seed_from(0);
        let net = zoo::cifar10_full(10, &mut rng).unwrap();
        let r = memory_report(&net);
        assert!((7.9..=8.0).contains(&r.compression()), "compression {}", r.compression());
    }
}
