//! Deterministic synthetic image classification datasets.
//!
//! Real CIFAR-10 / ImageNet files are unavailable offline, so the
//! workspace substitutes seeded, class-conditional generators (see
//! PAPER_MAP.md's introduction). Each class owns a smooth random template
//! built from a few 2-D sinusoids; a sample is its class template under a
//! random spatial shift, contrast/brightness jitter and additive Gaussian
//! noise.
//! The task is convolution-friendly (translation structure), non-trivial
//! (jitter + noise + shift), and its difficulty is one knob
//! ([`SynthSpec::noise`]).

use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use mfdfp_tensor::{Shape, Tensor};

/// Specification of a synthetic dataset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SynthSpec {
    /// Number of classes.
    pub classes: usize,
    /// Image channels.
    pub channels: usize,
    /// Image height = width.
    pub size: usize,
    /// Samples per class.
    pub per_class: usize,
    /// Additive Gaussian noise σ relative to unit template amplitude
    /// (0.3–0.8 spans easy → hard).
    pub noise: f32,
    /// Maximum spatial shift (pixels) applied to the template.
    pub max_shift: usize,
    /// Master seed; the same spec always generates the same dataset.
    pub seed: u64,
}

impl SynthSpec {
    /// The CIFAR-10 stand-in: 10 classes of 3×32×32 images.
    pub fn cifar(per_class: usize, seed: u64) -> Self {
        SynthSpec { classes: 10, channels: 3, size: 32, per_class, noise: 0.55, max_shift: 2, seed }
    }

    /// The ImageNet stand-in: more classes (so top-5 is meaningful),
    /// 3×32×32 images, harder noise.
    pub fn imagenet(per_class: usize, seed: u64) -> Self {
        SynthSpec { classes: 20, channels: 3, size: 32, per_class, noise: 0.75, max_shift: 3, seed }
    }

    /// Total number of samples.
    pub fn len(&self) -> usize {
        self.classes * self.per_class
    }

    /// Whether the spec describes an empty dataset.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One class's generative template: a sum of random 2-D sinusoids.
#[derive(Debug, Clone)]
struct ClassTemplate {
    /// Per-component parameters: (amplitude, wx, wy, phase, channel_phase).
    waves: Vec<(f32, f32, f32, f32, f32)>,
}

impl ClassTemplate {
    fn sample_value(&self, ch: usize, y: f32, x: f32) -> f32 {
        self.waves
            .iter()
            .map(|&(a, wx, wy, phase, chp)| (wx * x + wy * y + phase + ch as f32 * chp).sin() * a)
            .sum()
    }
}

/// A fully materialised synthetic dataset.
///
/// # Examples
///
/// ```
/// use mfdfp_data::{SynthSpec, SyntheticDataset};
///
/// let spec = SynthSpec { classes: 3, channels: 1, size: 8, per_class: 4,
///                        noise: 0.3, max_shift: 1, seed: 9 };
/// let ds = SyntheticDataset::generate(&spec);
/// assert_eq!(ds.len(), 12);
/// let (img, label) = ds.sample(0);
/// assert_eq!(img.shape().dims(), &[1, 8, 8]);
/// assert!(label < 3);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    spec: SynthSpec,
    images: Vec<Tensor>,
    labels: Vec<usize>,
}

impl SyntheticDataset {
    /// Generates the dataset described by `spec` (deterministic in the
    /// seed).
    pub fn generate(spec: &SynthSpec) -> Self {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let templates: Vec<ClassTemplate> =
            (0..spec.classes).map(|_| Self::random_template(&mut rng)).collect();

        let uni = Uniform::new(0.0f32, 1.0);
        let mut images = Vec::with_capacity(spec.len());
        let mut labels = Vec::with_capacity(spec.len());
        for (class, template) in templates.iter().enumerate() {
            for _ in 0..spec.per_class {
                let img = Self::render(spec, template, &mut rng, uni);
                images.push(img);
                labels.push(class);
            }
        }
        SyntheticDataset { spec: *spec, images, labels }
    }

    fn random_template(rng: &mut StdRng) -> ClassTemplate {
        let amp = Uniform::new(0.4f32, 1.0);
        let freq = Uniform::new(0.15f32, 0.9);
        let phase = Uniform::new(0.0f32, std::f32::consts::TAU);
        let sign = Uniform::new(0usize, 2);
        let waves = (0..4)
            .map(|_| {
                let sx = if sign.sample(rng) == 0 { -1.0 } else { 1.0 };
                let sy = if sign.sample(rng) == 0 { -1.0 } else { 1.0 };
                (
                    amp.sample(rng),
                    sx * freq.sample(rng),
                    sy * freq.sample(rng),
                    phase.sample(rng),
                    phase.sample(rng),
                )
            })
            .collect();
        ClassTemplate { waves }
    }

    fn render(
        spec: &SynthSpec,
        template: &ClassTemplate,
        rng: &mut StdRng,
        uni: Uniform<f32>,
    ) -> Tensor {
        let s = spec.size;
        let shift = Uniform::new_inclusive(-(spec.max_shift as i32), spec.max_shift as i32);
        let (dy, dx) = (shift.sample(rng) as f32, shift.sample(rng) as f32);
        let contrast = 0.7 + 0.6 * uni.sample(rng);
        let brightness = 0.3 * (uni.sample(rng) - 0.5);
        let mut data = Vec::with_capacity(spec.channels * s * s);
        for ch in 0..spec.channels {
            for y in 0..s {
                for x in 0..s {
                    let v = template.sample_value(ch, y as f32 + dy, x as f32 + dx);
                    // Box–Muller noise sample.
                    let u1 = uni.sample(rng).max(f32::EPSILON);
                    let u2 = uni.sample(rng);
                    let noise = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
                    data.push(contrast * v + brightness + spec.noise * noise);
                }
            }
        }
        Tensor::from_vec(data, Shape::new(vec![spec.channels, s, s]))
            .expect("length matches by construction")
    }

    /// Assembles a dataset from pre-built images and labels (used by the
    /// train/test splitter and the augmentation pipeline).
    ///
    /// # Panics
    ///
    /// Panics if `images` and `labels` lengths differ.
    pub fn from_parts(spec: SynthSpec, images: Vec<Tensor>, labels: Vec<usize>) -> Self {
        assert_eq!(images.len(), labels.len(), "images/labels length mismatch");
        SyntheticDataset { spec, images, labels }
    }

    /// The generating specification.
    pub fn spec(&self) -> &SynthSpec {
        &self.spec
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.spec.classes
    }

    /// The `i`-th sample (image, label).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn sample(&self, i: usize) -> (&Tensor, usize) {
        (&self.images[i], self.labels[i])
    }

    /// All labels in sample order.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Stacks samples `indices` into a batch tensor `N×C×H×W` plus labels.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let s = self.spec.size;
        let mut batch = Tensor::zeros([indices.len(), self.spec.channels, s, s]);
        let mut labels = Vec::with_capacity(indices.len());
        for (row, &i) in indices.iter().enumerate() {
            batch.set_axis0(row, &self.images[i]);
            labels.push(self.labels[i]);
        }
        (batch, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SynthSpec {
        SynthSpec {
            classes: 3,
            channels: 2,
            size: 8,
            per_class: 5,
            noise: 0.2,
            max_shift: 1,
            seed: 1,
        }
    }

    #[test]
    fn deterministic_generation() {
        let a = SyntheticDataset::generate(&tiny_spec());
        let b = SyntheticDataset::generate(&tiny_spec());
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.sample(i).0.as_slice(), b.sample(i).0.as_slice());
            assert_eq!(a.sample(i).1, b.sample(i).1);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticDataset::generate(&tiny_spec());
        let spec2 = SynthSpec { seed: 2, ..tiny_spec() };
        let b = SyntheticDataset::generate(&spec2);
        assert_ne!(a.sample(0).0.as_slice(), b.sample(0).0.as_slice());
    }

    #[test]
    fn labels_are_balanced() {
        let ds = SyntheticDataset::generate(&tiny_spec());
        for c in 0..3 {
            assert_eq!(ds.labels().iter().filter(|&&l| l == c).count(), 5);
        }
    }

    #[test]
    fn classes_are_statistically_separable() {
        // Same-class images should correlate more than cross-class images.
        let spec = SynthSpec { per_class: 10, noise: 0.1, ..tiny_spec() };
        let ds = SyntheticDataset::generate(&spec);
        let corr = |a: &Tensor, b: &Tensor| {
            let d = a.dot(b).unwrap();
            d / (a.norm_sq().sqrt() * b.norm_sq().sqrt())
        };
        // Compare class 0's first two samples vs class 0 sample and class 1.
        let same = corr(ds.sample(0).0, ds.sample(1).0);
        let cross = corr(ds.sample(0).0, ds.sample(10).0);
        assert!(same > cross, "same-class correlation {same} should exceed cross-class {cross}");
    }

    #[test]
    fn gather_stacks_batches() {
        let ds = SyntheticDataset::generate(&tiny_spec());
        let (batch, labels) = ds.gather(&[0, 5, 10]);
        assert_eq!(batch.shape().dims(), &[3, 2, 8, 8]);
        assert_eq!(labels, vec![0, 1, 2]);
        assert_eq!(batch.index_axis0(1).as_slice(), ds.sample(5).0.as_slice());
    }

    #[test]
    fn presets_have_expected_shape() {
        let c = SynthSpec::cifar(5, 0);
        assert_eq!((c.classes, c.channels, c.size), (10, 3, 32));
        let i = SynthSpec::imagenet(5, 0);
        assert!(i.classes > 10, "top-5 must be meaningful");
    }
}
