//! # mfdfp-tensor — dense `f32` tensor substrate
//!
//! The numeric foundation of the MF-DFP reproduction (Tann et al.,
//! DAC 2017): a small, dependency-light, row-major tensor library with
//! exactly the operations a convolutional network needs — GEMM,
//! im2col-based convolution, pooling, softmax-family reductions and seeded
//! random initialisation.
//!
//! Design choices:
//!
//! * **Contiguous storage only.** No views or broadcasting rules to reason
//!   about; operations copy. The networks in this workspace are small enough
//!   that clarity wins over zero-copy cleverness.
//! * **`f32` kernels plus one integer exception.** Quantized *types* live
//!   in `mfdfp-dfp`; this crate is the float world Algorithm 1 quantizes
//!   *from* — except [`ops::qgemm`], the packed shift-only integer GEMM
//!   that serves as the deployed hot path (it reuses the same row-parallel
//!   scheduling machinery as the float GEMM, which is why it lives here).
//! * **Explicit seeds everywhere** ([`TensorRng`]), so every experiment is
//!   reproducible.
//!
//! # Examples
//!
//! ```
//! use mfdfp_tensor::{conv2d_forward, ConvGeometry, Tensor, TensorRng};
//!
//! let g = ConvGeometry::new(3, 8, 8, 4, 3, 1, 1)?;
//! let mut rng = TensorRng::seed_from(1);
//! let x = rng.gaussian([2, 3, 8, 8], 0.0, 1.0);
//! let w = rng.he([4, 3, 3, 3], g.col_height());
//! let b = Tensor::zeros([4]);
//! let y = conv2d_forward(&x, &w, &b, &g)?;
//! assert_eq!(y.shape().dims(), &[2, 4, 8, 8]);
//! # Ok::<(), mfdfp_tensor::TensorError>(())
//! ```

#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod error;
mod init;
pub mod ops;
pub mod par;
mod shape;
mod tensor;
pub mod workspace;

pub use error::{Result, TensorError};
pub use init::TensorRng;
pub use mfdfp_dfp::{AlignedBytes, AlignedVec};
pub use ops::conv::{
    col2im, conv2d_backward, conv2d_forward, conv2d_forward_parallel, conv2d_forward_serial,
    im2col, im2col_batched_i8, ConvGeometry,
};
pub use ops::matmul::{gemm, gemm_parallel, gemm_serial, matvec, Transpose};
pub use ops::pool::{pool_backward, pool_forward, PoolGeometry, PoolKind};
pub use ops::qgemm::{qgemm_fused_into_i8, qgemm_fused_railed_into_i8};
pub use ops::reduce::{
    argmax_rows, log_softmax, softmax, softmax_with_temperature, sum_axis0, topk_rows,
};
pub use shape::Shape;
pub use tensor::Tensor;
pub use workspace::{Workspace, WorkspacePlan};
