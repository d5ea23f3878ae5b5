//! # mfdfp-dfp — dynamic fixed-point and power-of-two numerics
//!
//! The number systems of *"Hardware-Software Codesign of Accurate,
//! Multiplier-free Deep Neural Networks"* (Tann et al., DAC 2017):
//!
//! * [`DfpFormat`] — the 8-bit dynamic fixed-point activation format
//!   `⟨b, f⟩`, with per-layer fractional length `f`.
//! * [`Pow2Weight`] — weights quantized to `s · 2^e`, `e ∈ [−7, 0]`, packed
//!   into 4 bits; multiplication becomes an arithmetic shift
//!   ([`Pow2Weight::mul_shift`]).
//! * [`AdderTree`] / [`Accumulator`] — bit-accurate models of the widening
//!   adder tree (17→20 bits) and the radix-realigning accumulator of the
//!   paper's Figure 2(a), with per-level overflow audits.
//! * [`RangeStats`] — Ristretto-style calibration that picks each layer's
//!   fractional length from observed activation ranges.
//! * [`aligned`] — the 64-byte-aligned storage cell ([`AlignedBytes`])
//!   that deployment images and packed weight buffers sit on, modelling
//!   the paper's DMA-able accelerator weight buffer.
//! * [`crc32`] / [`Crc32`] — hand-rolled CRC-32 (IEEE) that deployment
//!   images and zoos carry in their headers, so a torn write or flipped
//!   bit is rejected before any weight byte reaches a kernel.
//!
//! Everything here is pure integer/float math with no dependencies on the
//! tensor or network crates, so the same code backs both the software
//! quantized-inference engine (`mfdfp-core`) and the accelerator functional
//! simulation (`mfdfp-accel`) — which is how the workspace proves the two
//! are bit-identical.
//!
//! # Examples
//!
//! A complete software rendition of one hardware MAC lane:
//!
//! ```
//! use mfdfp_dfp::{Accumulator, AdderTree, DfpFormat, Pow2Weight};
//!
//! let input_fmt = DfpFormat::q8(7);   // m = 7
//! let output_fmt = DfpFormat::q8(5);  // n = 5
//! let xs = [0.5f32, -0.25, 0.125, 0.75];
//! let ws = [0.5f32, 0.5, -1.0, 0.25];
//!
//! // Quantize, shift-multiply, sum through the tree, route to the output.
//! let codes: Vec<i32> = xs.iter().map(|&x| input_fmt.quantize(x)).collect();
//! let weights: Vec<Pow2Weight> = ws.iter().map(|&w| Pow2Weight::from_f32(w)).collect();
//! let products: Vec<i32> =
//!     codes.iter().zip(&weights).map(|(&c, w)| w.mul_shift(c)).collect();
//! let tree = AdderTree::new(4)?;
//! let mut acc = Accumulator::new();
//! acc.add(tree.sum(&products)?)?;
//! // Products carry fractional length m + 7.
//! let y = acc.route(7 + 7, 5, 8);
//! let expect: f32 = xs.iter().zip(&ws).map(|(x, w)| x * w).sum();
//! assert!((y as f32 * output_fmt.step() - expect).abs() < output_fmt.step());
//! # Ok::<(), mfdfp_dfp::DfpError>(())
//! ```

#![deny(missing_docs)]

pub mod aligned;
mod arith;
mod crc;
mod error;
mod format;
mod packed;
mod pow2;
mod range;

pub use aligned::{AlignedBytes, I64Section, Pod, ALIGN};
pub use arith::{
    fits_in_bits, realign, saturate, shift_round, Accumulator, AdderTree, ACCUMULATOR_BITS,
    PRODUCT_BITS, TREE_ROOT_BITS,
};
pub use crc::{crc32, Crc32};
pub use error::{DfpError, Result};
pub use format::DfpFormat;
pub use packed::PackedPow2Matrix;
pub use pow2::{quantize_weights, Pow2Weight, Sign, EXP_MAX, EXP_MIN};
pub use range::RangeStats;
