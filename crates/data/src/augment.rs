//! Training-time augmentation: padded random crop and horizontal flip —
//! the standard CIFAR-10 recipe of the paper's era.

use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

use mfdfp_tensor::{Shape, Tensor};

/// Augmentation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AugmentConfig {
    /// Zero-padding added on every border before cropping back to the
    /// original size at a random offset (0 disables cropping).
    pub pad: usize,
    /// Whether to mirror images horizontally with probability ½.
    pub flip: bool,
}

impl AugmentConfig {
    /// The classic CIFAR recipe: pad-4 random crop + horizontal flip.
    pub fn cifar() -> Self {
        AugmentConfig { pad: 4, flip: true }
    }

    /// No augmentation.
    pub fn none() -> Self {
        AugmentConfig { pad: 0, flip: false }
    }
}

/// A seeded augmentation pipeline.
#[derive(Debug)]
pub struct Augmenter {
    cfg: AugmentConfig,
    rng: StdRng,
}

impl Augmenter {
    /// Creates a pipeline with its own deterministic RNG stream.
    pub fn new(cfg: AugmentConfig, seed: u64) -> Self {
        Augmenter { cfg, rng: StdRng::seed_from_u64(seed) }
    }

    /// Augments one `C×H×W` image.
    ///
    /// # Panics
    ///
    /// Panics if the input is not rank-3.
    pub fn apply(&mut self, img: &Tensor) -> Tensor {
        assert_eq!(img.shape().rank(), 3, "expected C×H×W image");
        let mut out = img.clone();
        if self.cfg.pad > 0 {
            let off = Uniform::new_inclusive(0, 2 * self.cfg.pad);
            let dy = off.sample(&mut self.rng) as isize - self.cfg.pad as isize;
            let dx = off.sample(&mut self.rng) as isize - self.cfg.pad as isize;
            out = shift_with_zero_fill(&out, dy, dx);
        }
        if self.cfg.flip && Uniform::new(0u8, 2).sample(&mut self.rng) == 1 {
            out = hflip(&out);
        }
        out
    }

    /// Augments a whole `N×C×H×W` batch in place sample-by-sample.
    ///
    /// # Panics
    ///
    /// Panics if the input is not rank-4.
    pub fn apply_batch(&mut self, batch: &Tensor) -> Tensor {
        assert_eq!(batch.shape().rank(), 4, "expected N×C×H×W batch");
        let mut out = batch.clone();
        let n = batch.shape().dim(0);
        for s in 0..n {
            let img = batch.index_axis0(s);
            out.set_axis0(s, &self.apply(&img));
        }
        out
    }
}

/// Translates an image by `(dy, dx)`, filling vacated pixels with zero —
/// equivalent to the classic pad-then-crop augmentation.
pub fn shift_with_zero_fill(img: &Tensor, dy: isize, dx: isize) -> Tensor {
    let dims = img.shape().dims().to_vec();
    let (c, h, w) = (dims[0], dims[1], dims[2]);
    let src = img.as_slice();
    let mut data = vec![0.0f32; src.len()];
    for ch in 0..c {
        for y in 0..h {
            let sy = y as isize + dy;
            if sy < 0 || sy >= h as isize {
                continue;
            }
            for x in 0..w {
                let sx = x as isize + dx;
                if sx < 0 || sx >= w as isize {
                    continue;
                }
                data[(ch * h + y) * w + x] = src[(ch * h + sy as usize) * w + sx as usize];
            }
        }
    }
    Tensor::from_vec(data, Shape::new(dims)).expect("same length")
}

/// Mirrors an image horizontally.
pub fn hflip(img: &Tensor) -> Tensor {
    let dims = img.shape().dims().to_vec();
    let (c, h, w) = (dims[0], dims[1], dims[2]);
    let src = img.as_slice();
    let mut data = vec![0.0f32; src.len()];
    for ch in 0..c {
        for y in 0..h {
            for x in 0..w {
                data[(ch * h + y) * w + x] = src[(ch * h + y) * w + (w - 1 - x)];
            }
        }
    }
    Tensor::from_vec(data, Shape::new(dims)).expect("same length")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img() -> Tensor {
        Tensor::from_vec((0..16).map(|v| v as f32).collect(), Shape::new(vec![1, 4, 4])).unwrap()
    }

    #[test]
    fn hflip_reverses_rows() {
        let f = hflip(&img());
        assert_eq!(&f.as_slice()[0..4], &[3.0, 2.0, 1.0, 0.0]);
        // Involution.
        assert_eq!(hflip(&f).as_slice(), img().as_slice());
    }

    #[test]
    fn zero_shift_is_identity() {
        assert_eq!(shift_with_zero_fill(&img(), 0, 0).as_slice(), img().as_slice());
    }

    #[test]
    fn shift_moves_and_zero_fills() {
        let s = shift_with_zero_fill(&img(), 1, 0);
        // Row 0 of output = row 1 of input; last row zero-filled.
        assert_eq!(&s.as_slice()[0..4], &[4.0, 5.0, 6.0, 7.0]);
        assert_eq!(&s.as_slice()[12..16], &[0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn augmenter_is_deterministic_per_seed() {
        let mut a = Augmenter::new(AugmentConfig::cifar(), 9);
        let mut b = Augmenter::new(AugmentConfig::cifar(), 9);
        for _ in 0..5 {
            assert_eq!(a.apply(&img()).as_slice(), b.apply(&img()).as_slice());
        }
    }

    #[test]
    fn none_config_is_identity() {
        let mut a = Augmenter::new(AugmentConfig::none(), 1);
        assert_eq!(a.apply(&img()).as_slice(), img().as_slice());
    }

    #[test]
    fn batch_augmentation_processes_each_sample() {
        let mut batch = Tensor::zeros([2, 1, 4, 4]);
        batch.set_axis0(0, &img());
        batch.set_axis0(1, &img());
        let mut a = Augmenter::new(AugmentConfig { pad: 1, flip: true }, 3);
        let out = a.apply_batch(&batch);
        assert_eq!(out.shape().dims(), &[2, 1, 4, 4]);
    }
}
