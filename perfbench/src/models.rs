//! The models the workloads run, their seeded input pools and the
//! expected output of every pool image.
//!
//! Expected logits come from the decode-based oracle
//! ([`QuantizedNet::forward_codes_reference`]) — a different code path
//! from anything the workloads time — so a kernel change that moves a bit
//! is caught by every workload, on every request.

use std::sync::Arc;

use mfdfp_core::{calibrate, to_image, AlignedBytes, QuantizedNet, ZooBuilder};
use mfdfp_nn::zoo;
use mfdfp_tensor::{Tensor, TensorRng};

/// Times the pieces of a set-up: every [`Laps::lap`] records the time
/// since the previous one under a name. Set-up runs several times; the
/// same piece's laps are then compared across the repetitions.
pub struct Laps {
    last: std::time::Instant,
    /// `(piece, seconds)`, in the order the pieces ran.
    pub laps: Vec<(&'static str, f64)>,
}

impl Laps {
    /// Starts timing now.
    pub fn start() -> Laps {
        Laps { last: std::time::Instant::now(), laps: Vec::new() }
    }

    /// Ends the piece `name`: everything since the previous lap.
    pub fn lap(&mut self, name: &'static str) {
        let now = std::time::Instant::now();
        self.laps.push((name, (now - self.last).as_secs_f64()));
        self.last = now;
    }

    /// Laps as given (for tests of [`Laps::best_total`]).
    pub fn from_pairs(laps: Vec<(&'static str, f64)>) -> Laps {
        Laps { laps, ..Laps::start() }
    }

    /// This repetition's total, seconds.
    pub fn total(&self) -> f64 {
        self.laps.iter().map(|l| l.1).sum()
    }

    /// Set-up time from several repetitions of the same set-up: every
    /// piece counted at the fastest time any piece *of that name* took in
    /// any repetition. Pieces of one name are the same operation (the
    /// oracle costs the same on every image), so eight images × three
    /// repetitions give one piece 24 chances to run undisturbed — a
    /// one-second set-up never fits into a quiet moment of a noisy host,
    /// one of its 0.1 s pieces does (see [`crate::stats::floor`] for why
    /// the fastest is what is reported).
    pub fn best_total(reps: &[Laps]) -> f64 {
        let Some(first) = reps.first() else { return 0.0 };
        first
            .laps
            .iter()
            .map(|(name, _)| {
                reps.iter()
                    .flat_map(|r| &r.laps)
                    .filter(|lap| lap.0 == *name)
                    .map(|lap| lap.1)
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    }
}

/// Images per model pool.
pub const POOL: usize = 8;

/// Which network a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// `zoo::cifar10_quick` — the paper's CIFAR-10 network, 3×32×32
    /// input, 12.35 M shift-MACs per image.
    Cifar10Quick,
    /// `zoo::quick_custom(3,16,[4,4,8],16,10)` — the small `serve_load`
    /// model, where serving overhead dominates the datapath.
    QuickSmall,
}

impl ModelKind {
    /// Registry name the model is served under.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Cifar10Quick => "cifar",
            ModelKind::QuickSmall => "small",
        }
    }

    fn input_shape(self) -> [usize; 3] {
        match self {
            ModelKind::Cifar10Quick => [3, 32, 32],
            ModelKind::QuickSmall => [3, 16, 16],
        }
    }
}

/// One set of weights in every form the workloads need.
pub struct Weights {
    /// The quantized network.
    pub net: QuantizedNet,
    /// Its flat v2 image (what a hot swap loads).
    pub image: Arc<AlignedBytes>,
    /// Expected logits of each pool image, from the decode oracle.
    pub expected: Vec<Vec<f32>>,
}

/// A model with its input pool and expected outputs.
pub struct Model {
    /// Which network this is.
    pub kind: ModelKind,
    /// Weight set A — what every workload serves.
    pub a: Weights,
    /// Weight set B — what `swap_under_load` alternates with.
    pub b: Option<Weights>,
    /// One-model zoo image of weight set A (what a cold start loads).
    pub zoo: Arc<AlignedBytes>,
    /// The seeded input pool.
    pub pool: Vec<Tensor>,
}

/// Weight seeds are fixed: `--seed` varies the inputs, never the program
/// under test.
const WEIGHT_SEED_A: u64 = 21;
const WEIGHT_SEED_B: u64 = 22;

fn build_net(kind: ModelKind, weight_seed: u64) -> QuantizedNet {
    let mut rng = TensorRng::seed_from(weight_seed);
    let mut float_net = match kind {
        ModelKind::Cifar10Quick => zoo::cifar10_quick(10, &mut rng),
        ModelKind::QuickSmall => zoo::quick_custom(3, 16, [4, 4, 8], 16, 10, &mut rng),
    }
    .expect("zoo topologies are valid by construction");
    let [c, h, w] = kind.input_shape();
    let calib = rng.gaussian([4, c, h, w], 0.0, 0.7);
    let plan =
        calibrate(&mut float_net, &[(calib, vec![0, 1, 2, 3])], 8).expect("zoo networks calibrate");
    QuantizedNet::from_network(&float_net, &plan).expect("zoo networks quantize")
}

/// Expected logits of `image`: decode-oracle codes, dequantized exactly
/// as the served path dequantizes them.
pub fn oracle_logits(net: &QuantizedNet, image: &Tensor) -> Vec<f32> {
    let fmt = net.output_format();
    net.forward_codes_reference(image)
        .expect("the oracle accepts every pool image")
        .iter()
        .map(|&c| fmt.dequantize(i32::from(c)))
        .collect()
}

fn weights(kind: ModelKind, weight_seed: u64, pool: &[Tensor], laps: &mut Laps) -> Weights {
    let net = build_net(kind, weight_seed);
    let image = Arc::new(to_image(&net));
    laps.lap("build + calibrate + quantize + to_image");
    let expected = pool
        .iter()
        .map(|img| {
            let logits = oracle_logits(&net, img);
            laps.lap("oracle, one image");
            logits
        })
        .collect();
    Weights { net, image, expected }
}

impl Model {
    /// Builds, calibrates and quantizes the model, draws its input pool
    /// from `seed` and precomputes every expected output. `with_b` also
    /// builds the second weight set.
    pub fn build(kind: ModelKind, seed: u64, with_b: bool, laps: &mut Laps) -> Model {
        let [c, h, w] = kind.input_shape();
        let mut rng = TensorRng::seed_from(seed ^ 0x706f_6f6c); // "pool"
        let pool: Vec<Tensor> = (0..POOL).map(|_| rng.gaussian([c, h, w], 0.0, 0.7)).collect();
        laps.lap("input pool");
        let a = weights(kind, WEIGHT_SEED_A, &pool, laps);
        let b = with_b.then(|| weights(kind, WEIGHT_SEED_B, &pool, laps));
        let mut zoo = ZooBuilder::new();
        zoo.push(kind.name(), &a.net);
        let zoo = Arc::new(zoo.finish());
        laps.lap("zoo image");
        Model { kind, a, b, zoo, pool }
    }

    /// Registry name.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// The weight set registry version `version` serves: versions start
    /// at 1 with A and every swap alternates.
    pub fn weights_of_version(&self, version: u64) -> &Weights {
        match &self.b {
            Some(b) if version.is_multiple_of(2) => b,
            _ => &self.a,
        }
    }
}

/// Bit-exact comparison of served logits with the expected ones.
pub fn logits_match(got: &[f32], expected: &[f32]) -> bool {
    got.len() == expected.len() && got.iter().zip(expected).all(|(g, e)| g.to_bits() == e.to_bits())
}
