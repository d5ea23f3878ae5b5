//! # mfdfp-data — deterministic synthetic stand-ins for CIFAR-10 / ImageNet
//!
//! The paper evaluates on CIFAR-10 and ImageNet 2012. Neither is available
//! in this offline environment, so this crate provides seeded synthetic
//! class-conditional image generators with the same tensor shapes and a
//! tunable difficulty knob (PAPER_MAP.md's introduction states the
//! substitution and the *relative* claims it preserves).
//!
//! * [`SyntheticDataset`] / [`SynthSpec`] — class templates of random 2-D
//!   sinusoids + shift/contrast jitter + Gaussian noise.
//! * [`Split`] — train/test partitions sharing class templates.
//! * [`Batcher`] — deterministic shuffling batch iterator.
//! * [`Augmenter`] — pad-crop + horizontal-flip training augmentation.
//!
//! # Examples
//!
//! ```
//! use mfdfp_data::{Batcher, Split, SynthSpec};
//!
//! let split = Split::generate(&SynthSpec::cifar(8, 42), 4);
//! assert_eq!(split.train.len(), 80);
//! assert_eq!(split.test.len(), 40);
//! let n: usize = Batcher::new(&split.train, 32).iter().map(|(_, l)| l.len()).sum();
//! assert_eq!(n, 80);
//! ```

#![deny(missing_docs)]

mod augment;
mod loader;
mod synthetic;

pub use augment::{hflip, shift_with_zero_fill, AugmentConfig, Augmenter};
pub use loader::{BatchIter, Batcher, IntoBatchIter, Split};
pub use synthetic::{SynthSpec, SyntheticDataset};
