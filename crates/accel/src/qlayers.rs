//! Bit-accurate functional model of the multiplier-free datapath.
//!
//! These routines execute quantized layers exactly the way the hardware of
//! Figure 2(a) would — but through two implementations of the same
//! arithmetic:
//!
//! * [`ShiftConv::run_batch_into`] / [`ShiftLinear::run_batch_into`] —
//!   the **deployed hot path**: weights stay in their packed 4-bit nibble
//!   form ([`PackedPow2Matrix`]) and flow through the shift-only
//!   [`mfdfp_tensor::qgemm_fused_into_i8`] kernel (im2col for
//!   convolutions), whose inner loop is pure shift/mask/add — no
//!   `Pow2Weight` decode, no branch, no multiply. Activations stay 8-bit
//!   codes end to end: the im2col gather copies `i8` bytes and the kernel
//!   widens in register, so the operand bound is structural. Large layers
//!   fan output rows across the persistent pool when its width
//!   (`MFDFP_THREADS`) is ≥ 2.
//!
//!   These entries write into caller buffers and draw their staging
//!   space from a [`Workspace`]; the allocating single-image
//!   [`ShiftConv::run`] / [`ShiftLinear::run`] wrappers are the same path
//!   at batch 1 through the calling thread's persistent workspace, so on
//!   a long-lived thread even they stop allocating scratch after the
//!   first call (only the returned `Vec` remains).
//! * [`ShiftConv::run_reference`] / [`ShiftLinear::run_reference`] — the
//!   **decode-based audit path**: every nibble is unpacked to a
//!   [`Pow2Weight`], products go one [`Pow2Weight::mul_shift`] at a time
//!   through the widening [`AdderTree`] (with per-level overflow audits)
//!   and the 32-bit [`Accumulator`]. This is the original cycle-faithful
//!   rendition of the Figure 2(a) datapath; it is kept as the oracle the
//!   packed path is property-tested against
//!   (`tests/qgemm_equivalence.rs`) and as the decode-overhead baseline
//!   the `qgemm` benches measure.
//!
//! Both paths compute identical activation codes for every valid input —
//! integer products are exact and integer addition is order-independent —
//! so `mfdfp-core` can serve traffic on the packed path while the audit
//! path keeps proving the hardware semantics. (The contract is over
//! successful results: overflow *audits* run at different granularity —
//! per 16-product chunk on the reference path, per final output sum on
//! the packed path — which can only diverge beyond ~2^16 worst-case
//! synapses per neuron, far outside the paper's layer sizes; see the
//! `qgemm` module docs.)

use mfdfp_dfp::{Accumulator, AdderTree, I64Section, PackedPow2Matrix, Pow2Weight};
use mfdfp_tensor::{
    im2col_batched_i8, qgemm_fused_into_i8, with_thread_workspace, ConvGeometry, Workspace,
};

use crate::error::{AccelError, Result};

/// Number of integer bits produced by the shift stage beyond the input
/// format: products carry fractional length `m + 7`.
pub const PRODUCT_FRAC_SHIFT: i32 = 7;

/// A convolution layer in hardware representation.
#[derive(Debug, Clone)]
pub struct ShiftConv {
    /// Convolution geometry (shared with the float framework).
    pub geom: ConvGeometry,
    /// Packed power-of-two weights: `out_c` rows of `col_height()`
    /// synapses each (`OutC×InC/g×k×k` order, nibble-packed per row).
    pub weights: PackedPow2Matrix,
    /// Per-output-channel bias, pre-aligned to the accumulator format
    /// (fractional length `m + 7`). Owned values or a zero-copy window
    /// into a deployment image ([`I64Section`]).
    pub bias: I64Section,
    /// Input activation fractional length `m`.
    pub in_frac: i8,
    /// Output activation fractional length `n`.
    pub out_frac: i8,
}

impl ShiftConv {
    /// Executes the layer on one image of activation codes (`C×H×W`,
    /// row-major), returning output codes (`OutC×OH×OW`):
    /// [`ShiftConv::run_batch_into`] at batch 1, drawing scratch from the
    /// calling thread's persistent workspace; only the returned `Vec`
    /// allocates once the thread is warm.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::BadInput`] on a length mismatch and
    /// propagates the kernel's overflow audits as [`AccelError::Tensor`].
    pub fn run(&self, input: &[i8]) -> Result<Vec<i8>> {
        let mut out = vec![0i8; self.out_len()];
        with_thread_workspace(|ws| self.run_batch_into(input, 1, ws, &mut out))?;
        Ok(out)
    }

    /// The allocation-free, batch-fused entry: executes the layer on
    /// `batch` images at once — **one** im2col gather and **one** packed
    /// shift-MAC pass per channel group for the whole batch, instead of
    /// `batch` of each. With a warmed workspace this performs zero heap
    /// allocations — activation codes stream byte-for-byte from `input`
    /// through the gather into the in-register-widening kernel.
    ///
    /// `input` and `out` use the element-interleaved fused layout
    /// ([`mfdfp_tensor::im2col_batched_i8`]): element `e` (usual `C×H×W`
    /// order) of image `b` lives at index `e · batch + b`. The fused
    /// GEMM's output columns come out in exactly that order, so layers
    /// chain with no re-staging, and `batch = 1` is byte-for-byte the
    /// per-image layout.
    ///
    /// Bit-identical to `batch` calls at batch 1 — the kernel's
    /// per-output accumulation order does not depend on the column count
    /// (see [`mfdfp_tensor::qgemm_fused_into_i8`]) — while the row-banded
    /// parallel threshold sees the whole layer-batch product, splitting
    /// per-layer instead of per-image work. The
    /// workspace must be planned with the batch dimension
    /// (`WorkspacePlan::for_batch`): staging needs
    /// `im2col_len() × batch` `i8` elements.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::BadConfig`] for a zero batch,
    /// [`AccelError::BadInput`] if `input`/`out` are not `batch`
    /// interleaved images/outputs, and propagates the kernel's overflow
    /// audits as [`AccelError::Tensor`].
    pub fn run_batch_into(
        &self,
        input: &[i8],
        batch: usize,
        ws: &mut Workspace,
        out: &mut [i8],
    ) -> Result<()> {
        if batch == 0 {
            return Err(AccelError::BadConfig("conv batch must be positive".into()));
        }
        let g = &self.geom;
        let expect = g.in_c * g.in_h * g.in_w;
        // Weight/bias shape checks are shared with the reference path.
        self.validate(expect)?;
        if input.len() != expect * batch {
            return Err(AccelError::BadInput { expected: expect * batch, actual: input.len() });
        }
        if out.len() != self.out_len() * batch {
            return Err(AccelError::BadInput {
                expected: self.out_len() * batch,
                actual: out.len(),
            });
        }
        let npix = g.out_h() * g.out_w();
        let syn = g.col_height();
        let acc_frac = self.in_frac as i32 + PRODUCT_FRAC_SHIFT;
        let group_out = g.out_c / g.groups;
        // One fused column matrix per group: `syn × (npix · batch)`.
        let xt = ws.im2col_i8(syn * npix * batch);
        for grp in 0..g.groups {
            {
                let _span = mfdfp_obs::span!("conv.im2col_batched", (syn * npix * batch) as u64);
                im2col_batched_i8(input, g, grp, batch, xt).map_err(AccelError::Tensor)?;
            }
            // Telemetry stays exact under fusion: `syn·npix·batch` bytes
            // staged here equals the sum of the per-image gathers.
            mfdfp_obs::ops::record_im2col_bytes((syn * npix * batch) as u64);
            let row0 = grp * group_out;
            qgemm_fused_into_i8(
                &self.weights,
                row0,
                group_out,
                xt,
                npix,
                batch,
                &self.bias[row0..row0 + group_out],
                acc_frac,
                self.out_frac as i32,
                &mut out[row0 * npix * batch..(row0 + group_out) * npix * batch],
            )
            .map_err(AccelError::Tensor)?;
        }
        Ok(())
    }

    /// Output element count (`OutC×OH×OW`).
    pub fn out_len(&self) -> usize {
        self.geom.out_c * self.geom.out_h() * self.geom.out_w()
    }

    /// Peak im2col staging this layer needs (`col_height × OH·OW` `i8`
    /// elements) — the workspace-planning input.
    pub fn im2col_len(&self) -> usize {
        self.geom.col_height() * self.geom.out_h() * self.geom.out_w()
    }

    /// Executes the layer through the decode-based Figure 2(a) datapath:
    /// per-element [`Pow2Weight::mul_shift`], the widening adder `tree`,
    /// and the audited 32-bit accumulator. Kept as the bit-exactness
    /// oracle and decode-overhead baseline for [`ShiftConv::run`].
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::BadInput`] on a length mismatch and
    /// propagates overflow audits from the adder tree.
    pub fn run_reference(&self, input: &[i8], tree: &AdderTree) -> Result<Vec<i8>> {
        let g = &self.geom;
        self.validate(input.len())?;
        // Telemetry: these output rows take the decode fallback, not the
        // packed kernel (one fetch_add per layer call).
        mfdfp_obs::ops::record_decode_rows(g.out_c as u64);
        let weights = self.weights.to_weights();
        let (oh, ow) = (g.out_h(), g.out_w());
        let k = g.kernel;
        let acc_frac = self.in_frac as i32 + PRODUCT_FRAC_SHIFT;
        let mut out = vec![0i8; g.out_c * oh * ow];
        // Synapse gather buffer reused across outputs.
        let syn_count = g.col_height();
        let mut xs = vec![0i32; syn_count];
        let mut acc = Accumulator::new();
        let mut products = Vec::new();
        let group_in = g.in_c / g.groups;
        let group_out = g.out_c / g.groups;
        for oc in 0..g.out_c {
            let wbase = oc * syn_count;
            // Grouped convolutions see only their group's input channels.
            let c_lo = (oc / group_out) * group_in;
            for oy in 0..oh {
                for ox in 0..ow {
                    // Gather the receptive field (zero for padding).
                    let mut si = 0usize;
                    for c in c_lo..c_lo + group_in {
                        for ky in 0..k {
                            let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                            for kx in 0..k {
                                let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                                xs[si] = if iy < 0
                                    || ix < 0
                                    || iy >= g.in_h as isize
                                    || ix >= g.in_w as isize
                                {
                                    0
                                } else {
                                    input[(c * g.in_h + iy as usize) * g.in_w + ix as usize] as i32
                                };
                                si += 1;
                            }
                        }
                    }
                    let code = mac_reduce(
                        &xs,
                        &weights[wbase..wbase + syn_count],
                        self.bias[oc],
                        acc_frac,
                        self.out_frac as i32,
                        tree,
                        &mut acc,
                        &mut products,
                    )?;
                    out[(oc * oh + oy) * ow + ox] = code;
                }
            }
        }
        Ok(out)
    }

    fn validate(&self, input_len: usize) -> Result<()> {
        let g = &self.geom;
        let expect = g.in_c * g.in_h * g.in_w;
        if input_len != expect {
            return Err(AccelError::BadInput { expected: expect, actual: input_len });
        }
        if self.weights.rows() != g.out_c || self.weights.cols() != g.col_height() {
            return Err(AccelError::BadConfig(format!(
                "packed weight matrix is {}×{}, geometry needs {}×{}",
                self.weights.rows(),
                self.weights.cols(),
                g.out_c,
                g.col_height()
            )));
        }
        if self.bias.len() != g.out_c {
            return Err(AccelError::BadInput { expected: g.out_c, actual: self.bias.len() });
        }
        Ok(())
    }
}

/// A fully-connected layer in hardware representation.
#[derive(Debug, Clone)]
pub struct ShiftLinear {
    /// Input features.
    pub in_features: usize,
    /// Output features.
    pub out_features: usize,
    /// Packed power-of-two weights: `out_features` rows of `in_features`
    /// synapses each, nibble-packed per row.
    pub weights: PackedPow2Matrix,
    /// Per-output bias in accumulator format (fractional length `m + 7`).
    /// Owned values or a zero-copy window into a deployment image
    /// ([`I64Section`]).
    pub bias: I64Section,
    /// Input activation fractional length `m`.
    pub in_frac: i8,
    /// Output activation fractional length `n`.
    pub out_frac: i8,
}

impl ShiftLinear {
    /// Executes the layer on one activation-code vector:
    /// [`ShiftLinear::run_batch_into`] at batch 1; only the returned
    /// `Vec` allocates.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::BadInput`] on a length mismatch and
    /// propagates the kernel's overflow audits as [`AccelError::Tensor`].
    pub fn run(&self, input: &[i8]) -> Result<Vec<i8>> {
        let mut out = vec![0i8; self.out_features];
        self.run_batch_into(input, 1, &mut out)?;
        Ok(out)
    }

    /// The allocation-free, batch-fused entry: one packed shift-MAC pass
    /// over `batch` activation vectors at once. In the element-interleaved
    /// fused layout the input buffer (`in_features × batch`,
    /// feature-major) **is** the `k × batch` im2col column matrix, so this
    /// stages nothing at all — no widening copy, no scratch, zero heap
    /// allocations; the whole batch is one kernel call whose rows are
    /// `batch` columns wide. Bit-identical to `batch` calls at batch 1
    /// (see [`mfdfp_tensor::qgemm_fused_into_i8`]).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::BadConfig`] for a zero batch,
    /// [`AccelError::BadInput`] on length mismatches, and propagates the
    /// kernel's overflow audits as [`AccelError::Tensor`].
    pub fn run_batch_into(&self, input: &[i8], batch: usize, out: &mut [i8]) -> Result<()> {
        if batch == 0 {
            return Err(AccelError::BadConfig("linear batch must be positive".into()));
        }
        // Weight/bias shape checks are shared with the reference path.
        self.validate(self.in_features)?;
        if input.len() != self.in_features * batch {
            return Err(AccelError::BadInput {
                expected: self.in_features * batch,
                actual: input.len(),
            });
        }
        if out.len() != self.out_features * batch {
            return Err(AccelError::BadInput {
                expected: self.out_features * batch,
                actual: out.len(),
            });
        }
        let acc_frac = self.in_frac as i32 + PRODUCT_FRAC_SHIFT;
        qgemm_fused_into_i8(
            &self.weights,
            0,
            self.out_features,
            input,
            1,
            batch,
            &self.bias,
            acc_frac,
            self.out_frac as i32,
            out,
        )
        .map_err(AccelError::Tensor)
    }

    /// Executes the layer through the decode-based Figure 2(a) datapath
    /// (see [`ShiftConv::run_reference`]).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::BadInput`] on a length mismatch and
    /// propagates overflow audits from the adder tree.
    pub fn run_reference(&self, input: &[i8], tree: &AdderTree) -> Result<Vec<i8>> {
        self.validate(input.len())?;
        // Telemetry: decode-fallback rows, as in ShiftConv.
        mfdfp_obs::ops::record_decode_rows(self.out_features as u64);
        let weights = self.weights.to_weights();
        let acc_frac = self.in_frac as i32 + PRODUCT_FRAC_SHIFT;
        let xs: Vec<i32> = input.iter().map(|&c| c as i32).collect();
        let mut acc = Accumulator::new();
        let mut products = Vec::new();
        let mut out = vec![0i8; self.out_features];
        for (o, out_code) in out.iter_mut().enumerate() {
            let wbase = o * self.in_features;
            *out_code = mac_reduce(
                &xs,
                &weights[wbase..wbase + self.in_features],
                self.bias[o],
                acc_frac,
                self.out_frac as i32,
                tree,
                &mut acc,
                &mut products,
            )?;
        }
        Ok(out)
    }

    fn validate(&self, input_len: usize) -> Result<()> {
        if input_len != self.in_features {
            return Err(AccelError::BadInput { expected: self.in_features, actual: input_len });
        }
        if self.weights.rows() != self.out_features || self.weights.cols() != self.in_features {
            return Err(AccelError::BadConfig(format!(
                "packed weight matrix is {}×{}, layer needs {}×{}",
                self.weights.rows(),
                self.weights.cols(),
                self.out_features,
                self.in_features
            )));
        }
        if self.bias.len() != self.out_features {
            return Err(AccelError::BadInput {
                expected: self.out_features,
                actual: self.bias.len(),
            });
        }
        Ok(())
    }
}

/// One neuron's multi-cycle MAC reduction: shift-multiply chunks of
/// `tree.fan_in()` synapses, sum each chunk through the widening tree,
/// accumulate, add bias, and route to the 8-bit output format.
///
/// `products` is the caller's product-register buffer, resized (grow-only)
/// to the tree's fan-in — hoisted out of this per-neuron routine so a
/// whole reference-path layer reuses one buffer instead of allocating per
/// output.
#[allow(clippy::too_many_arguments)] // cycle-model internals: full datapath state
fn mac_reduce(
    xs: &[i32],
    ws: &[Pow2Weight],
    bias: i64,
    acc_frac: i32,
    out_frac: i32,
    tree: &AdderTree,
    acc: &mut Accumulator,
    products: &mut Vec<i32>,
) -> Result<i8> {
    debug_assert_eq!(xs.len(), ws.len());
    let fan_in = tree.fan_in();
    acc.reset();
    products.resize(fan_in, 0);
    for (xc, wc) in xs.chunks(fan_in).zip(ws.chunks(fan_in)) {
        for (p, (x, w)) in products.iter_mut().zip(xc.iter().zip(wc)) {
            *p = w.mul_shift(*x);
        }
        // Final partial chunk: unused lanes contribute zero products.
        for p in products.iter_mut().skip(xc.len()) {
            *p = 0;
        }
        acc.add(tree.sum(products)?)?;
    }
    acc.add(bias)?;
    Ok(acc.route(acc_frac, out_frac, 8) as i8)
}

/// ReLU on activation codes (the NL unit): `max(0, code)`.
pub fn relu_codes(codes: &mut [i8]) {
    for c in codes {
        if *c < 0 {
            *c = 0;
        }
    }
}

/// Ceil-mode output dimensions of a pooling window, matching the float
/// framework (and the `oh`/`ow` the `*_pool_codes` routines produce).
/// Workspace planning and the forward loops share this so buffer sizes
/// and outputs can never disagree.
///
/// # Errors
///
/// Returns [`AccelError::BadConfig`] for a zero window or stride — the
/// one configuration with no defined output size.
pub fn pool_out_dims(
    in_h: usize,
    in_w: usize,
    window: usize,
    stride: usize,
) -> Result<(usize, usize)> {
    if window == 0 || stride == 0 {
        return Err(AccelError::BadConfig("pool window/stride must be positive".into()));
    }
    let oh = (in_h - window.min(in_h)).div_ceil(stride) + 1;
    let ow = (in_w - window.min(in_w)).div_ceil(stride) + 1;
    Ok((oh, ow))
}

/// Max pooling on activation codes. Monotone, so pooling codes equals
/// pooling values: no precision concerns.
///
/// # Errors
///
/// Returns [`AccelError::BadInput`] on a length mismatch.
pub fn max_pool_codes(
    input: &[i8],
    channels: usize,
    in_h: usize,
    in_w: usize,
    window: usize,
    stride: usize,
) -> Result<Vec<i8>> {
    pool_codes_alloc(input, channels, in_h, in_w, window, stride, true)
}

/// Average pooling on activation codes with round-half-away integer
/// division.
///
/// Hardware note: window populations here are 1–9; division by a small
/// constant is realised as a shift-add constant multiplier (a few adders),
/// preserving the multiplier-free property. The cycle model charges the
/// pooling unit accordingly.
///
/// # Errors
///
/// Returns [`AccelError::BadInput`] on a length mismatch.
pub fn avg_pool_codes(
    input: &[i8],
    channels: usize,
    in_h: usize,
    in_w: usize,
    window: usize,
    stride: usize,
) -> Result<Vec<i8>> {
    pool_codes_alloc(input, channels, in_h, in_w, window, stride, false)
}

/// [`max_pool_codes`] into a caller buffer (`channels × oh × ow × batch`,
/// see [`pool_out_dims`]) over a fused batch in the element-interleaved
/// layout (element `e` of image `b` at `e · batch + b`, as produced by
/// the batched conv path): the allocation-free pooling entry. Each window
/// is reduced independently per image, so the result is bit-identical to
/// `batch` per-image pooling calls, de-interleaved.
///
/// # Errors
///
/// Returns [`AccelError::BadConfig`] for a zero batch (or zero
/// window/stride) and [`AccelError::BadInput`] on length mismatches.
#[allow(clippy::too_many_arguments)] // pooling frame + batch dimension
pub fn max_pool_codes_batch_into(
    input: &[i8],
    channels: usize,
    in_h: usize,
    in_w: usize,
    window: usize,
    stride: usize,
    batch: usize,
    out: &mut [i8],
) -> Result<()> {
    pool_codes_batch_into(input, channels, in_h, in_w, window, stride, true, batch, out)
}

/// [`avg_pool_codes`] into a caller buffer over a fused batch in the
/// element-interleaved layout — see [`max_pool_codes_batch_into`] for the
/// layout and bit-identity contract (the round-half-away division runs
/// per image).
///
/// # Errors
///
/// Returns [`AccelError::BadConfig`] for a zero batch (or zero
/// window/stride) and [`AccelError::BadInput`] on length mismatches.
#[allow(clippy::too_many_arguments)] // pooling frame + batch dimension
pub fn avg_pool_codes_batch_into(
    input: &[i8],
    channels: usize,
    in_h: usize,
    in_w: usize,
    window: usize,
    stride: usize,
    batch: usize,
    out: &mut [i8],
) -> Result<()> {
    pool_codes_batch_into(input, channels, in_h, in_w, window, stride, false, batch, out)
}

#[allow(clippy::too_many_arguments)] // private pooling frame + mode flag
fn pool_codes_alloc(
    input: &[i8],
    channels: usize,
    in_h: usize,
    in_w: usize,
    window: usize,
    stride: usize,
    is_max: bool,
) -> Result<Vec<i8>> {
    let (oh, ow) = pool_out_dims(in_h, in_w, window, stride)?;
    let mut out = vec![0i8; channels * oh * ow];
    // `batch = 1` is exactly the per-image layout and loop.
    pool_codes_batch_into(input, channels, in_h, in_w, window, stride, is_max, 1, &mut out)?;
    Ok(out)
}

/// The pooling workhorse, generalized over the fused batch dimension:
/// input element `(c, iy, ix)` of image `b` lives at
/// `((c·in_h + iy)·in_w + ix)·batch + b` and the output uses the same
/// interleave. Each image's window reduction runs in the identical
/// per-element order, so larger batches are bit-identical to
/// de-interleaved `batch = 1` calls.
#[allow(clippy::too_many_arguments)] // private pooling frame + mode flag + batch
fn pool_codes_batch_into(
    input: &[i8],
    channels: usize,
    in_h: usize,
    in_w: usize,
    window: usize,
    stride: usize,
    is_max: bool,
    batch: usize,
    out: &mut [i8],
) -> Result<()> {
    if batch == 0 {
        return Err(AccelError::BadConfig("pool batch must be positive".into()));
    }
    let expect = channels * in_h * in_w * batch;
    if input.len() != expect {
        return Err(AccelError::BadInput { expected: expect, actual: input.len() });
    }
    // Ceil-mode output size, matching the float framework.
    let (oh, ow) = pool_out_dims(in_h, in_w, window, stride)?;
    if out.len() != channels * oh * ow * batch {
        return Err(AccelError::BadInput {
            expected: channels * oh * ow * batch,
            actual: out.len(),
        });
    }
    for c in 0..channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let y0 = oy * stride;
                let x0 = ox * stride;
                let y1 = (y0 + window).min(in_h);
                let x1 = (x0 + window).min(in_w);
                let obase = ((c * oh + oy) * ow + ox) * batch;
                for b in 0..batch {
                    let v = if is_max {
                        let mut best = i8::MIN;
                        for iy in y0..y1 {
                            for ix in x0..x1 {
                                best = best.max(input[((c * in_h + iy) * in_w + ix) * batch + b]);
                            }
                        }
                        best
                    } else {
                        let mut sum = 0i32;
                        let count = ((y1 - y0) * (x1 - x0)) as i32;
                        for iy in y0..y1 {
                            for ix in x0..x1 {
                                sum += input[((c * in_h + iy) * in_w + ix) * batch + b] as i32;
                            }
                        }
                        // Round half away from zero.
                        let half = count / 2;
                        let q =
                            if sum >= 0 { (sum + half) / count } else { -((-sum + half) / count) };
                        q.clamp(i8::MIN as i32, i8::MAX as i32) as i8
                    };
                    out[obase + b] = v;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfdfp_dfp::DfpFormat;

    fn tree16() -> AdderTree {
        AdderTree::new(16).unwrap()
    }

    fn pack(rows: usize, cols: usize, ws: &[f32]) -> PackedPow2Matrix {
        PackedPow2Matrix::from_f32(rows, cols, ws).unwrap()
    }

    #[test]
    fn shift_linear_matches_float_reference() {
        // 4 inputs in ⟨8,7⟩, weights exact powers of two: the integer path
        // must agree with exact real arithmetic.
        let in_fmt = DfpFormat::q8(7);
        let xs = [0.5f32, -0.25, 0.75, 0.125];
        let ws = [0.5f32, -0.5, 0.25, 1.0, -1.0, 0.125, 0.5, -0.25];
        let layer = ShiftLinear {
            in_features: 4,
            out_features: 2,
            weights: pack(2, 4, &ws),
            bias: vec![0, 0].into(),
            in_frac: 7,
            out_frac: 5,
        };
        let codes: Vec<i8> = xs.iter().map(|&x| in_fmt.quantize(x) as i8).collect();
        let out = layer.run(&codes).unwrap();
        assert_eq!(out, layer.run_reference(&codes, &tree16()).unwrap());
        let out_fmt = DfpFormat::q8(5);
        for (o, row) in out.iter().enumerate() {
            let expect: f32 = xs.iter().zip(&ws[o * 4..(o + 1) * 4]).map(|(x, w)| x * w).sum();
            let got = out_fmt.dequantize(*row as i32);
            assert!((got - expect).abs() <= out_fmt.step(), "neuron {o}: {got} vs {expect}");
        }
    }

    #[test]
    fn bias_is_added_in_accumulator_format() {
        let layer = ShiftLinear {
            in_features: 1,
            out_features: 1,
            weights: pack(1, 1, &[1.0]),
            bias: vec![1 << 11].into(), // 1.0 at fractional length m+7 = 11
            in_frac: 4,
            out_frac: 4,
        };
        // 0·w + 1.0 → code 16 in ⟨8,4⟩, on both paths.
        assert_eq!(layer.run(&[0]).unwrap(), vec![16]);
        assert_eq!(layer.run_reference(&[0], &tree16()).unwrap(), vec![16]);
    }

    #[test]
    fn routing_saturates_output() {
        let layer = ShiftLinear {
            in_features: 4,
            out_features: 1,
            weights: pack(1, 4, &[1.0; 4]),
            bias: vec![0].into(),
            in_frac: 0,
            out_frac: 7, // huge upscale forces saturation
        };
        assert_eq!(layer.run(&[100, 100, 100, 100]).unwrap(), vec![127]);
        assert_eq!(layer.run_reference(&[100, 100, 100, 100], &tree16()).unwrap(), vec![127]);
    }

    fn dummy_linear(inf: usize, outf: usize) -> ShiftLinear {
        ShiftLinear {
            in_features: inf,
            out_features: outf,
            weights: pack(outf, inf, &vec![0.5f32; inf * outf]),
            bias: vec![0; outf].into(),
            in_frac: 7,
            out_frac: 7,
        }
    }

    #[test]
    fn linear_validates_lengths() {
        let l = dummy_linear(4, 2);
        assert!(l.run(&[0; 3]).is_err());
        assert!(l.run_reference(&[0; 3], &tree16()).is_err());
        let mut bad = dummy_linear(4, 2);
        bad.weights = pack(2, 3, &[0.5; 6]); // wrong column count
        assert!(bad.run(&[0; 4]).is_err());
    }

    #[test]
    fn shift_conv_matches_dequantized_reference() {
        // 1×3×3 input, one 2×2 kernel, exact power-of-two values.
        let geom = ConvGeometry::new(1, 3, 3, 1, 2, 1, 0).unwrap();
        let in_fmt = DfpFormat::q8(6);
        let xvals = [0.5f32, 0.25, -0.5, 1.0, -0.25, 0.125, 0.5, 0.5, -1.0];
        let wvals = [0.5f32, -0.5, 0.25, 1.0];
        let layer = ShiftConv {
            geom,
            weights: pack(1, 4, &wvals),
            bias: vec![0].into(),
            in_frac: 6,
            out_frac: 5,
        };
        let codes: Vec<i8> = xvals.iter().map(|&x| in_fmt.quantize(x) as i8).collect();
        let out = layer.run(&codes).unwrap();
        assert_eq!(out, layer.run_reference(&codes, &tree16()).unwrap());
        assert_eq!(out.len(), 4);
        let out_fmt = DfpFormat::q8(5);
        // Manually compute expected top-left output.
        let expect = 0.5 * 0.5 + 0.25 * (-0.5) + 1.0 * 0.25 + (-0.25) * 1.0;
        let got = out_fmt.dequantize(out[0] as i32);
        assert!((got - expect).abs() <= out_fmt.step(), "{got} vs {expect}");
    }

    #[test]
    fn conv_padding_contributes_zero() {
        let geom = ConvGeometry::new(1, 2, 2, 1, 3, 1, 1).unwrap();
        let layer = ShiftConv {
            geom,
            weights: pack(1, 9, &[1.0; 9]),
            bias: vec![0].into(),
            in_frac: 0,
            out_frac: 0,
        };
        let out = layer.run(&[1, 1, 1, 1]).unwrap();
        // Centre of the 2×2 output: each position sees all four ones.
        assert_eq!(out, vec![4, 4, 4, 4]);
        assert_eq!(layer.run_reference(&[1, 1, 1, 1], &tree16()).unwrap(), out);
    }

    #[test]
    fn grouped_shift_conv_blocks_cross_group_paths() {
        // 2 input channels, 2 output channels, 2 groups, 1×1 kernels of
        // weight 1: output c equals input c exactly — no cross-talk.
        let geom = ConvGeometry::new(2, 2, 2, 2, 1, 1, 0).unwrap().with_groups(2).unwrap();
        let layer = ShiftConv {
            geom,
            weights: pack(2, 1, &[1.0; 2]),
            bias: vec![0, 0].into(),
            in_frac: 0,
            out_frac: 0,
        };
        let input = [1i8, 2, 3, 4, 10, 20, 30, 40];
        let out = layer.run(&input).unwrap();
        assert_eq!(out, input.to_vec());
        assert_eq!(layer.run_reference(&input, &tree16()).unwrap(), input.to_vec());
    }

    #[test]
    fn run_into_matches_run_and_validates_out_len() {
        // The caller-buffer entry at batch 1 against the allocating
        // wrapper, on an explicit (then reused) workspace.
        let geom = ConvGeometry::new(2, 5, 5, 3, 3, 1, 1).unwrap();
        let layer = ShiftConv {
            geom,
            weights: pack(3, 18, &[0.5; 54]),
            bias: vec![0; 3].into(),
            in_frac: 6,
            out_frac: 4,
        };
        let input: Vec<i8> = (0..50).map(|i| (i * 5 % 127) as i8 - 40).collect();
        let expect = layer.run(&input).unwrap();
        let mut ws = Workspace::new();
        let mut out = vec![0i8; layer.out_len()];
        layer.run_batch_into(&input, 1, &mut ws, &mut out).unwrap();
        assert_eq!(out, expect);
        // Reusing the warmed workspace must give the same answer.
        let mut again = vec![0i8; layer.out_len()];
        layer.run_batch_into(&input, 1, &mut ws, &mut again).unwrap();
        assert_eq!(again, expect);
        let mut short = vec![0i8; layer.out_len() - 1];
        assert!(layer.run_batch_into(&input, 1, &mut ws, &mut short).is_err());

        let lin = dummy_linear(4, 2);
        let lexpect = lin.run(&[1, 2, 3, 4]).unwrap();
        let mut lout = vec![0i8; 2];
        lin.run_batch_into(&[1, 2, 3, 4], 1, &mut lout).unwrap();
        assert_eq!(lout, lexpect);
        assert!(lin.run_batch_into(&[1, 2, 3, 4], 1, &mut lout[..1]).is_err());
    }

    /// Interleaves per-image buffers into the fused layout
    /// (`fused[e·B + b] = images[b][e]`).
    fn interleave(images: &[Vec<i8>]) -> Vec<i8> {
        let batch = images.len();
        let per = images[0].len();
        let mut fused = vec![0i8; per * batch];
        for (b, img) in images.iter().enumerate() {
            for (e, &v) in img.iter().enumerate() {
                fused[e * batch + b] = v;
            }
        }
        fused
    }

    /// Splits a fused buffer back into per-image vectors.
    fn deinterleave(fused: &[i8], batch: usize) -> Vec<Vec<i8>> {
        let per = fused.len() / batch;
        (0..batch).map(|b| (0..per).map(|e| fused[e * batch + b]).collect()).collect()
    }

    fn images(per: usize, batch: usize, seed: i32) -> Vec<Vec<i8>> {
        (0..batch)
            .map(|b| {
                (0..per)
                    .map(|e| ((e as i32 * 17 + b as i32 * 41 + seed) % 251 - 120) as i8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn batched_conv_matches_per_image_runs() {
        let geom = ConvGeometry::new(2, 5, 5, 3, 3, 1, 1).unwrap();
        let layer = ShiftConv {
            geom,
            weights: pack(3, 18, &(0..54).map(|i| [0.5, -0.25, 1.0][i % 3]).collect::<Vec<_>>()),
            bias: vec![0, 1 << 10, -(1 << 10)].into(),
            in_frac: 6,
            out_frac: 4,
        };
        for batch in [1usize, 2, 3, 5] {
            let imgs = images(2 * 5 * 5, batch, 7);
            let mut ws = Workspace::new();
            let mut fused = vec![0i8; layer.out_len() * batch];
            layer.run_batch_into(&interleave(&imgs), batch, &mut ws, &mut fused).unwrap();
            let per: Vec<Vec<i8>> = imgs.iter().map(|img| layer.run(img).unwrap()).collect();
            assert_eq!(deinterleave(&fused, batch), per, "batch={batch}");
            let oracle: Vec<Vec<i8>> =
                imgs.iter().map(|img| layer.run_reference(img, &tree16()).unwrap()).collect();
            assert_eq!(per, oracle, "batch={batch} vs decode oracle");
        }
    }

    #[test]
    fn batched_grouped_conv_matches_per_image_runs() {
        let geom = ConvGeometry::new(4, 4, 4, 4, 3, 1, 1).unwrap().with_groups(2).unwrap();
        let layer = ShiftConv {
            geom,
            weights: pack(4, 18, &(0..72).map(|i| [1.0, -0.5, 0.25][i % 3]).collect::<Vec<_>>()),
            bias: vec![0; 4].into(),
            in_frac: 5,
            out_frac: 4,
        };
        let batch = 3;
        let imgs = images(4 * 4 * 4, batch, 13);
        let mut ws = Workspace::new();
        let mut fused = vec![0i8; layer.out_len() * batch];
        layer.run_batch_into(&interleave(&imgs), batch, &mut ws, &mut fused).unwrap();
        let per: Vec<Vec<i8>> = imgs.iter().map(|img| layer.run(img).unwrap()).collect();
        assert_eq!(deinterleave(&fused, batch), per);
        let oracle: Vec<Vec<i8>> =
            imgs.iter().map(|img| layer.run_reference(img, &tree16()).unwrap()).collect();
        assert_eq!(per, oracle, "vs decode oracle");
    }

    #[test]
    fn batched_linear_matches_per_image_runs() {
        let lin = dummy_linear(6, 3);
        for batch in [1usize, 2, 4, 7] {
            let imgs = images(6, batch, 3);
            let mut fused_out = vec![0i8; 3 * batch];
            lin.run_batch_into(&interleave(&imgs), batch, &mut fused_out).unwrap();
            let per: Vec<Vec<i8>> = imgs.iter().map(|img| lin.run(img).unwrap()).collect();
            assert_eq!(deinterleave(&fused_out, batch), per, "batch={batch}");
            let oracle: Vec<Vec<i8>> =
                imgs.iter().map(|img| lin.run_reference(img, &tree16()).unwrap()).collect();
            assert_eq!(per, oracle, "batch={batch} vs decode oracle");
        }
    }

    #[test]
    fn batched_pools_match_per_image_pools() {
        for batch in [1usize, 2, 3] {
            let imgs = images(2 * 5 * 5, batch, 29);
            let fused = interleave(&imgs);
            for (window, stride) in [(2usize, 2usize), (3, 2)] {
                let (oh, ow) = pool_out_dims(5, 5, window, stride).unwrap();
                let mut out = vec![0i8; 2 * oh * ow * batch];
                max_pool_codes_batch_into(&fused, 2, 5, 5, window, stride, batch, &mut out)
                    .unwrap();
                let per: Vec<Vec<i8>> = imgs
                    .iter()
                    .map(|img| max_pool_codes(img, 2, 5, 5, window, stride).unwrap())
                    .collect();
                assert_eq!(deinterleave(&out, batch), per, "max {window}/{stride} B={batch}");
                avg_pool_codes_batch_into(&fused, 2, 5, 5, window, stride, batch, &mut out)
                    .unwrap();
                let per: Vec<Vec<i8>> = imgs
                    .iter()
                    .map(|img| avg_pool_codes(img, 2, 5, 5, window, stride).unwrap())
                    .collect();
                assert_eq!(deinterleave(&out, batch), per, "avg {window}/{stride} B={batch}");
            }
        }
    }

    #[test]
    fn batched_entries_validate_batch_and_lengths() {
        let geom = ConvGeometry::new(1, 3, 3, 1, 2, 1, 0).unwrap();
        let layer = ShiftConv {
            geom,
            weights: pack(1, 4, &[0.5; 4]),
            bias: vec![0].into(),
            in_frac: 6,
            out_frac: 5,
        };
        let mut ws = Workspace::new();
        let mut out = vec![0i8; layer.out_len() * 2];
        assert!(layer.run_batch_into(&[0; 18], 0, &mut ws, &mut out).is_err());
        assert!(layer.run_batch_into(&[0; 17], 2, &mut ws, &mut out).is_err());
        assert!(layer.run_batch_into(&[0; 18], 2, &mut ws, &mut out[..7]).is_err());
        assert!(layer.run_batch_into(&[0; 18], 2, &mut ws, &mut out).is_ok());

        let lin = dummy_linear(4, 2);
        let mut lout = vec![0i8; 4];
        assert!(lin.run_batch_into(&[0; 8], 0, &mut lout).is_err());
        assert!(lin.run_batch_into(&[0; 7], 2, &mut lout).is_err());
        assert!(lin.run_batch_into(&[0; 8], 2, &mut lout[..3]).is_err());
        assert!(lin.run_batch_into(&[0; 8], 2, &mut lout).is_ok());

        let mut pout = vec![0i8; 8];
        assert!(max_pool_codes_batch_into(&[0; 18], 1, 3, 3, 2, 2, 0, &mut pout).is_err());
        assert!(max_pool_codes_batch_into(&[0; 17], 1, 3, 3, 2, 2, 2, &mut pout).is_err());
        assert!(max_pool_codes_batch_into(&[0; 18], 1, 3, 3, 2, 2, 2, &mut pout).is_ok());
    }

    #[test]
    fn pool_into_matches_allocating_pools() {
        let input: Vec<i8> = (0..2 * 5 * 5).map(|i| (i * 7 % 120) as i8 - 60).collect();
        for (window, stride) in [(2usize, 2usize), (3, 2), (3, 3)] {
            let (oh, ow) = pool_out_dims(5, 5, window, stride).unwrap();
            let mut out = vec![0i8; 2 * oh * ow];
            max_pool_codes_batch_into(&input, 2, 5, 5, window, stride, 1, &mut out).unwrap();
            assert_eq!(out, max_pool_codes(&input, 2, 5, 5, window, stride).unwrap());
            avg_pool_codes_batch_into(&input, 2, 5, 5, window, stride, 1, &mut out).unwrap();
            assert_eq!(out, avg_pool_codes(&input, 2, 5, 5, window, stride).unwrap());
            // Wrong output size is rejected, not silently truncated.
            let mut bad = vec![0i8; 2 * oh * ow + 1];
            assert!(
                max_pool_codes_batch_into(&input, 2, 5, 5, window, stride, 1, &mut bad).is_err()
            );
        }
    }

    #[test]
    fn relu_codes_clamps() {
        let mut codes = [-5i8, 0, 7, -128, 127];
        relu_codes(&mut codes);
        assert_eq!(codes, [0, 0, 7, 0, 127]);
    }

    #[test]
    fn max_pool_codes_matches_scalar_max() {
        let input = [1i8, 9, 2, 3, 4, 5, 8, 6, 7];
        let out = max_pool_codes(&input, 1, 3, 3, 3, 3).unwrap();
        assert_eq!(out, vec![9]);
    }

    #[test]
    fn avg_pool_codes_rounds_half_away() {
        // Window {1,2,3,4} sums to 10, /4 = 2.5 → 3.
        let out = avg_pool_codes(&[1, 2, 3, 4], 1, 2, 2, 2, 2).unwrap();
        assert_eq!(out, vec![3]);
        // Negative: {-1,-2,-3,-4} → -2.5 → -3.
        let out = avg_pool_codes(&[-1, -2, -3, -4], 1, 2, 2, 2, 2).unwrap();
        assert_eq!(out, vec![-3]);
    }

    #[test]
    fn pool_validates_input_length() {
        assert!(max_pool_codes(&[0; 5], 1, 3, 3, 2, 2).is_err());
    }

    #[test]
    fn pool_out_dims_rejects_zero_window_or_stride() {
        assert!(pool_out_dims(3, 3, 0, 1).is_err());
        assert!(pool_out_dims(3, 3, 2, 0).is_err());
        assert!(max_pool_codes(&[0; 9], 1, 3, 3, 2, 0).is_err());
        assert_eq!(pool_out_dims(3, 3, 2, 2).unwrap(), (2, 2));
    }
}
