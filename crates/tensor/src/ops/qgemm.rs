//! Shift-only GEMM over packed 4-bit power-of-two weight codes — the
//! paper's signature operation, specialised for its encoding.
//!
//! A 4-bit code has only 8 exponents × 2 signs, and a left shift
//! distributes over integer addition, so a dot product against such
//! weights regroups by code:
//!
//! ```text
//! Σ_c ±(x_c << s_c)  =  Σ_{s=0..7} ((Σ_{c: +,s} x_c − Σ_{c: −,s} x_c) << s)
//! ```
//!
//! One **add** per synapse and eight shifts per *output*, instead of a
//! shift per synapse. The kernel is built on that identity ("add first,
//! shift once"): for a slab of `NR` output columns and a block of
//! `MR = 8` output rows it keeps one bucket per (row, code) — 16 codes ×
//! `NR` `i16` lanes per row — and for every synapse widens one slab row
//! of activations to `i16` once, reads the synapse's nibble for each of
//! the eight rows, and adds the slab row into that row's bucket. There is
//! no shift, sign handling or widening to 32 bits anywhere in that loop,
//! and **no multiply anywhere in the kernel** (add, sub, shift, xor and
//! compare only). After at most 255 synapses the buckets fold
//! Horner-style into `i32` lanes, `t = (t << 1) + (bucket[+,s] −
//! bucket[−,s])` for `s = 7..0`; `i32` lanes flush to `i64` every 2^14
//! synapses; the row result plus bias is routed to the 8-bit output
//! exactly like the hardware's "Accumulator & Routing" block.
//!
//! **Nothing can overflow.** Every synapse of an output lands in exactly
//! one of that output's 16 buckets, so after 255 synapses of `|x| ≤ 128`
//! one bucket, and likewise a `+`/`−` bucket difference, is at most
//! `255 · 128 = 32 640 < 2^15`; the Horner sum of one run is at most
//! `32 640 · 2^7 < 2^22`; a 2^14-synapse chunk of products `≤ 2^14`
//! reaches at most `2^28`. The sums are the same integers the decode
//! path adds, and integer addition is associative and commutative, so
//! the result is **bit-identical** to the decode-based reference
//! (`mac_reduce` in `mfdfp-accel`) for every input — property-tested in
//! `crates/tensor/tests/qgemm_properties.rs` and
//! `crates/accel/tests/qgemm_equivalence.rs`.
//!
//! **Constants, not tunables.** `MR = 8` amortises the widening to 1/8
//! per MAC and makes the bucket file `8 · 16 · 64 · 2 B = 16 KiB`, half
//! an L1d. `NR = 64` is one cache line of activation codes per synapse;
//! `NR = 16` is one 16-lane `i16` vector, taken when the whole product is
//! at most 16 columns wide (every `ShiftLinear` up to batch 16) so a
//! one-column product does not pay for 64 lanes. The selection reads
//! `ncols` and nothing else. Runs are 255 long because 256 · 128 = 2^15
//! is the first length that can wrap an `i16`.
//!
//! **Ceiling.** Per 16-lane vector per output row the scatter loop
//! issues one load, one add and one store (the load folds into the add),
//! plus 1/`MR` of a widening load and, per 255 synapses, the fold: about
//! 5 MACs per µop, ≈ 20 MAC/cycle/core on a 4-wide core, store-port bound
//! at 16. Measured on the benchmark host (`perfbench`, one thread,
//! batch 8, AVX2 body): `tensor.qgemm.{conv1,conv2,conv3,ip1}
//! .gmacs_per_s_b8` ≈ 11 / 17 / 18 / 4 GMAC/s at 2.1 GHz (4.3 / 8.3 /
//! 8.2 / 1.6 before this kernel), i.e. 5–9 MAC/cycle on the conv layers,
//! a quarter to a half of the ceiling. conv1 (`k = 75`) pays one
//! zero-and-fold of the bucket file per 75 synapses; `ip1` runs one
//! vector per row, so the scalar nibble read dominates.
//!
//! Like the hardware, the kernel has one activation width and one entry
//! ([`qgemm_fused_into_i8`]): activations are raw 8-bit codes, so the
//! operand bound behind the overflow argument above is *structural* — a
//! property of the type, not a per-call scan. All scratch is fixed-size
//! arrays on the stack (≈ 22 KiB at `NR = 64`), so the kernel never
//! touches the heap.
//!
//! Audit: each routed accumulator is checked against the 32-bit
//! accumulator register — [`TensorError::QuantizedOverflow`] mirrors the
//! decode path's per-level overflow audits at kernel granularity. The
//! error is returned iff some real output's accumulator leaves the
//! register (zero-padding lanes of a tail slab are never audited); when
//! several do, the reported `value` is the first in the kernel's own
//! slab-major, then block, then row order, not row-major order. The
//! bit-identical contract is over **successful** results: the decode path
//! audits the 32-bit accumulator after every 16-product chunk, this
//! kernel audits the final per-output sum, so a layer whose same-sign
//! partials transiently exceed 2^31 before cancelling back (needs > 2^16
//! synapses of worst-case magnitude — far beyond any layer here, whose
//! bound the `Accumulator` docs derive as ≤ 2^26) can error on one path
//! and route on the other.

use mfdfp_dfp::{realign, saturate, PackedPow2Matrix, ACCUMULATOR_BITS};

use crate::error::{Result, TensorError};

/// Output rows per block: one widened activation slab row is added into
/// `MR` rows' buckets, so the `i8 → i16` widening costs `1/MR` per MAC.
/// Eight makes the bucket file `8 · 16 · 64 · 2 B = 16 KiB` — half of a
/// 32 KiB L1d, leaving room for the slab rows streaming through.
const MR: usize = 8;
/// Wide slab: 64 output columns — one cache line of `i8` activation
/// codes per synapse, four 16-lane `i16` vectors per bucket row.
const NR_WIDE: usize = 64;
/// Narrow slab: 16 output columns — one 16-lane `i16` vector, the
/// smallest unit the adds run at. Taken when the whole product is at
/// most this wide, which is every `ShiftLinear` up to batch 16.
const NR_NARROW: usize = 16;
/// Synapses added into the `i16` buckets between folds. Every synapse of
/// an output lands in exactly one of its 16 buckets, so one bucket holds
/// at most `255 · 128 = 32 640 < 2^15` in magnitude; 256 could reach
/// `2^15` and wrap.
const BUCKET_RUN: usize = 255;
/// Synapses folded into the 32-bit lanes between flushes to the 64-bit
/// accumulator: a shifted product is at most `128 · 2^7 = 2^14` in
/// magnitude, so `2^14` of them reach at most `2^28`.
const ACC32_CHUNK: usize = 1 << 14;

// The audit below is `acc == acc as i32`.
const _: () = assert!(ACCUMULATOR_BITS == 32);

/// Shape validation of the kernel entry.
fn qgemm_check(
    w: &PackedPow2Matrix,
    row0: usize,
    rows: usize,
    xt: &[i8],
    ncols: usize,
    bias: &[i64],
    out_len: usize,
) -> Result<()> {
    let k = w.cols();
    if row0.checked_add(rows).is_none_or(|end| end > w.rows()) {
        return Err(TensorError::BadGeometry(format!(
            "qgemm row band {row0}+{rows} exceeds {} weight rows",
            w.rows()
        )));
    }
    let Some(xt_len) = ncols.checked_mul(k) else {
        return Err(TensorError::BadGeometry(format!(
            "qgemm column matrix {k} x {ncols} overflows usize"
        )));
    };
    if xt.len() != xt_len {
        return Err(TensorError::DataLength { expected: xt_len, actual: xt.len() });
    }
    if bias.len() != rows {
        return Err(TensorError::DataLength { expected: rows, actual: bias.len() });
    }
    // `rows ≤ w.rows()` and, for `k > 0`, `ncols ≤ xt.len()`, but at
    // `k = 0` nothing bounds `ncols` yet.
    let Some(expect_out) = rows.checked_mul(ncols) else {
        return Err(TensorError::BadGeometry(format!(
            "qgemm output {rows} x {ncols} overflows usize"
        )));
    };
    if out_len != expect_out {
        return Err(TensorError::DataLength { expected: expect_out, actual: out_len });
    }
    Ok(())
}

/// The "Accumulator & Routing" epilogue over one lane set: audits every
/// accumulator against the 32-bit register, then realigns from
/// `acc_frac` to `out_frac` (round half away from zero) and saturates to
/// the 8-bit activation code — `saturate(realign(v, acc_frac, out_frac),
/// 8)` for each lane, without a data-dependent branch.
///
/// The accumulator's sign is a coin flip per output, so `shift_round`'s
/// `if v >= 0` mispredicts half the time; here the sign becomes a mask
/// (`v >> 63`), the magnitude is rounded and shifted, and the mask puts
/// the sign back. Left shifts and right shifts of 32 or more (where
/// `a + half` is no longer obviously inside `i64`) are rare radix
/// settings, decided once per call, and take the scalar helpers.
#[inline(always)]
fn route_lanes(acc: &[i64], acc_frac: i32, out_frac: i32, out: &mut [i8]) -> Result<()> {
    debug_assert_eq!(acc.len(), out.len());
    let overflows = |v: i64| v != v as i32 as i64;
    // An OR over the lane set, not an early-exit search: no branch per lane.
    if acc.iter().fold(false, |any, &v| any | overflows(v)) {
        let value = acc.iter().copied().find(|&v| overflows(v)).expect("a lane overflowed");
        mfdfp_obs::ops::record_overflow_audit();
        return Err(TensorError::QuantizedOverflow { value, bits: ACCUMULATOR_BITS });
    }
    let right = acc_frac.saturating_sub(out_frac);
    if (1..32).contains(&right) {
        let half = 1i64 << (right - 1);
        for (o, &v) in out.iter_mut().zip(acc) {
            let sign = v >> 63;
            let a = (v ^ sign) - sign;
            let r = (((a + half) >> right) ^ sign) - sign;
            *o = r.clamp(-128, 127) as i8;
        }
    } else {
        for (o, &v) in out.iter_mut().zip(acc) {
            *o = saturate(realign(v, acc_frac, out_frac), 8) as i8;
        }
    }
    Ok(())
}

/// One activation slab row (`src.len() ≤ NR` codes) widened to `i16`
/// lanes; lanes past a tail slab's width are zero, so they add nothing.
#[inline(always)]
fn widen<const NR: usize>(src: &[i8]) -> [i16; NR] {
    let mut lanes = [0i16; NR];
    if let Ok(full) = <&[i8; NR]>::try_from(src) {
        // A whole slab has a fixed trip count: straight sign-extending
        // vector loads instead of a length-checked loop.
        for (l, &x) in lanes.iter_mut().zip(full) {
            *l = x as i16;
        }
    } else {
        for (l, &x) in lanes.iter_mut().zip(src) {
            *l = x as i16;
        }
    }
    lanes
}

/// The class-bucket loop nest at one lane width, over output rows
/// `[band0, band0 + rows)` and all `ncols` columns:
///
/// ```text
/// for each slab of NR columns                  (tail slab zero-padded)
///   for each block of MR rows                  (tail rows alias the last)
///     acc64[MR][NR] = bias
///     for each chunk of 2^14 synapses          acc32[MR][NR] = 0
///       for each run of 255 synapses           bucket[MR][16][NR] = 0
///         for each synapse c                   x = widen(xt[c][slab])
///           for each row i                     bucket[i][code(i, c)] += x
///         acc32[i] += Σ_s (bucket[i][+,s] − bucket[i][−,s]) << s
///       acc64 += acc32
///     out[block][slab] = route(acc64)          (real rows and lanes only)
/// ```
///
/// Slabs are the outer loop so a slab's `k × NR` activation bytes stay in
/// L2 while every row block re-reads them; the packed weights are small
/// and re-read per slab. The pad nibble of an odd-length row is never
/// read because `c` stops at `k`.
#[allow(clippy::too_many_arguments)] // private kernel: slices + full index frame
#[inline(always)]
fn band_body<const NR: usize>(
    w: &PackedPow2Matrix,
    band0: usize,
    rows: usize,
    xt: &[i8],
    ncols: usize,
    bias: &[i64],
    acc_frac: i32,
    out_frac: i32,
    out: &mut [i8],
) -> Result<()> {
    let k = w.cols();
    for j0 in (0..ncols).step_by(NR) {
        let width = NR.min(ncols - j0);
        for r0 in (0..rows).step_by(MR) {
            // Rows past the block's end alias its last row: the scatter
            // loop keeps a fixed trip count and their lanes are dropped.
            let row = |i: usize| r0 + i.min(rows - r0 - 1);
            let wrows: [&[u8]; MR] = std::array::from_fn(|i| w.row_bytes(band0 + row(i)));
            let mut acc64: [[i64; NR]; MR] = std::array::from_fn(|i| [bias[row(i)]; NR]);
            for c0 in (0..k).step_by(ACC32_CHUNK) {
                let c1 = (c0 + ACC32_CHUNK).min(k);
                let mut acc32 = [[0i32; NR]; MR];
                for q0 in (c0..c1).step_by(BUCKET_RUN) {
                    let mut bucket = [[[0i16; NR]; 16]; MR];
                    for c in q0..(q0 + BUCKET_RUN).min(c1) {
                        let x = widen::<NR>(&xt[c * ncols + j0..][..width]);
                        for (b, wrow) in bucket.iter_mut().zip(&wrows) {
                            let code = (wrow[c >> 1] >> ((c & 1) * 4)) & 0xF;
                            for (lane, &xl) in b[code as usize].iter_mut().zip(&x) {
                                *lane += xl;
                            }
                        }
                    }
                    // Horner fold: code `e` (bits 2..0) shifts by `7 − e`,
                    // bit 3 is the sign.
                    for (a32, b) in acc32.iter_mut().zip(&bucket) {
                        let mut t = [0i32; NR];
                        for e in 0..8 {
                            for (l, tl) in t.iter_mut().enumerate() {
                                *tl = (*tl << 1) + (b[e][l] - b[8 + e][l]) as i32;
                            }
                        }
                        for (al, &tl) in a32.iter_mut().zip(&t) {
                            *al += tl;
                        }
                    }
                }
                for (a64, a32) in acc64.iter_mut().zip(&acc32) {
                    for (al, &sl) in a64.iter_mut().zip(a32) {
                        *al += sl as i64;
                    }
                }
            }
            for (i, a64) in acc64.iter().enumerate().take(rows - r0) {
                let orow = &mut out[(r0 + i) * ncols + j0..][..width];
                route_lanes(&a64[..width], acc_frac, out_frac, orow)?;
            }
        }
    }
    Ok(())
}

/// The band at the lane width its column count selects — `ncols` is the
/// one thing the kernel can observe about its caller. Compiled for the
/// build's baseline target; [`band_avx2`] is the same body with AVX2
/// codegen.
#[allow(clippy::too_many_arguments)] // private kernel: slices + full index frame
#[inline(always)]
fn band_portable(
    w: &PackedPow2Matrix,
    band0: usize,
    rows: usize,
    xt: &[i8],
    ncols: usize,
    bias: &[i64],
    acc_frac: i32,
    out_frac: i32,
    out: &mut [i8],
) -> Result<()> {
    if ncols > NR_NARROW {
        band_body::<NR_WIDE>(w, band0, rows, xt, ncols, bias, acc_frac, out_frac, out)
    } else {
        band_body::<NR_NARROW>(w, band0, rows, xt, ncols, bias, acc_frac, out_frac, out)
    }
}

/// [`band_portable`] compiled with AVX2 codegen.
///
/// # Safety
///
/// Callers must have verified AVX2 support at runtime
/// (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)] // private kernel: slices + full index frame
unsafe fn band_avx2(
    w: &PackedPow2Matrix,
    band0: usize,
    rows: usize,
    xt: &[i8],
    ncols: usize,
    bias: &[i64],
    acc_frac: i32,
    out_frac: i32,
    out: &mut [i8],
) -> Result<()> {
    band_portable(w, band0, rows, xt, ncols, bias, acc_frac, out_frac, out)
}

/// The serial band kernel: computes output rows `[band0, band0 + rows)` of
/// the packed product into `out` (`rows × ncols`, row-major activation
/// codes). `bias` is indexed relative to the band. Counts the band's
/// shift-MACs, then runs [`band_body`] — multiversioned once per band,
/// not per synapse: the AVX2 build where the CPU has it, the baseline
/// build otherwise. Integer add/sub/shift do not change meaning with
/// vector width, so the two builds are bit-identical (unit-tested).
#[allow(clippy::too_many_arguments)] // private kernel: slices + full index frame
fn qgemm_band(
    w: &PackedPow2Matrix,
    band0: usize,
    rows: usize,
    xt: &[i8],
    ncols: usize,
    bias: &[i64],
    acc_frac: i32,
    out_frac: i32,
    out: &mut [i8],
) -> Result<()> {
    // Op-count telemetry, amortized: one fetch_add per band call (the
    // parallel dispatcher calls once per row chunk), never per MAC.
    mfdfp_obs::ops::record_shift_macs((rows * w.cols() * ncols) as u64);
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 requirement is runtime-checked just above.
        return unsafe { band_avx2(w, band0, rows, xt, ncols, bias, acc_frac, out_frac, out) };
    }
    band_portable(w, band0, rows, xt, ncols, bias, acc_frac, out_frac, out)
}

/// The packed shift-only kernel's one entry: computes output rows
/// `[row0, row0 + rows)` of `out = route(W · Xᵀ + bias)` over the
/// **fused** column matrix of a whole batch, into a caller-provided
/// buffer.
///
/// * `w` — packed `R × k` power-of-two weight matrix; the band selects
///   rows `row0..row0 + rows` (e.g. one group of a grouped convolution).
/// * `xt` — raw 8-bit activation codes in the batched im2col layout
///   produced by [`im2col_batched_i8`](crate::ops::conv::im2col_batched_i8):
///   `k × (ncols_per_image · batch)` row-major with the batch interleaved
///   innermost (column `j = p · batch + b` is output pixel `p` of image
///   `b`), so one synapse's activations across all output columns are
///   contiguous and one nibble read serves a whole slab of them.
///   At `batch = 1` this is the standard `k × ncols` im2col layout.
/// * `bias` — `rows` accumulator-format biases (fractional length
///   `acc_frac`), relative to the band.
/// * `acc_frac`/`out_frac` — the radix control signals `m + 7` and `n` of
///   the routing stage; `out` receives the band's
///   `rows × (ncols_per_image · batch)` saturated 8-bit activation codes
///   in the same interleaved order, ready to be the next layer's input.
///
/// **Bit-identity contract.** Every output element is an exact integer
/// sum of its own column's products (no intermediate can overflow — see
/// the [module docs](self)), so neither the lane width the column count
/// selects nor a column's position in its slab can change it. Widening
/// `ncols` from `ncols_per_image` to `ncols_per_image · batch` therefore
/// yields, column for column, exactly the integers `batch` separate
/// calls at `batch = 1` produce (property-tested in
/// `crates/tensor/tests/properties.rs`). The
/// shift-MAC telemetry is likewise exact automatically:
/// `rows · k · (ncols_per_image · batch)` equals the sum of the per-image
/// counts.
///
/// What fusion buys is dispatch shape, not arithmetic: the activation
/// rows are `batch`× longer (more slabs per nibble read, and full 64-lane
/// slabs where a single image's row is narrower) and the row-banded
/// parallel threshold sees the whole layer-batch product at once, so the
/// pool splits per-layer work instead of per-image work. Bands of at
/// least two rows whose work crosses the shared `par` module threshold
/// are split by output row across the persistent pool when its width
/// (`MFDFP_THREADS`) is ≥ 2 — bit-identical to the serial kernel.
///
/// # Errors
///
/// [`TensorError::BadGeometry`] for a zero batch, a row band outside
/// the matrix or an extent that overflows `usize`,
/// [`TensorError::DataLength`] on buffer-length mismatches,
/// [`TensorError::QuantizedOverflow`] if an accumulator leaves its 32-bit
/// register (operands cannot overflow by construction).
///
/// # Examples
///
/// ```
/// use mfdfp_dfp::{PackedPow2Matrix, Pow2Weight};
/// use mfdfp_tensor::ops::qgemm::qgemm_fused_into_i8;
///
/// // 1×2 weight row [0.5, −1] against one activation column [64, 10].
/// let w = PackedPow2Matrix::from_f32(1, 2, &[0.5, -1.0])?;
/// let x = [64i8, 10];
/// // Products carry 7 extra fractional bits (mul_shift semantics):
/// let acc: i64 = Pow2Weight::from_f32(0.5).mul_shift(x[0] as i32) as i64
///     + Pow2Weight::from_f32(-1.0).mul_shift(x[1] as i32) as i64;
/// // Route from fractional length 7+7 back to 7: divide by 2^7.
/// let mut out = [0i8; 1];
/// qgemm_fused_into_i8(&w, 0, 1, &x, 1, 1, &[0], 7 + 7, 7, &mut out)?;
/// assert_eq!(out, [(acc >> 7) as i8]); // (64·0.5 − 10) = 22
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[allow(clippy::too_many_arguments)] // kernel entry: slices + full index frame
pub fn qgemm_fused_into_i8(
    w: &PackedPow2Matrix,
    row0: usize,
    rows: usize,
    xt: &[i8],
    ncols_per_image: usize,
    batch: usize,
    bias: &[i64],
    acc_frac: i32,
    out_frac: i32,
    out: &mut [i8],
) -> Result<()> {
    if batch == 0 {
        return Err(TensorError::BadGeometry("fused qgemm needs a positive batch".into()));
    }
    let Some(ncols) = ncols_per_image.checked_mul(batch) else {
        return Err(TensorError::BadGeometry(format!(
            "fused qgemm width {ncols_per_image} x {batch} images overflows usize"
        )));
    };
    qgemm_check(w, row0, rows, xt, ncols, bias, out.len())?;
    let _span = mfdfp_obs::span!("qgemm.fused", (rows * w.cols() * ncols) as u64);
    dispatch_band(w, row0, rows, xt, ncols, bias, acc_frac, out_frac, out)
}

/// Serial/parallel dispatch: bands whose work crosses the `par` module
/// threshold fan output rows across the persistent pool; shape checks
/// have already run. The conditions are ordered so a small product never
/// instantiates the pool.
///
/// The dispatch decision is traced: one span per call,
/// labelled `qgemm.parallel` or `qgemm.serial` by the path chosen, with
/// the band's MAC count as the argument — the flight-recorder view of
/// *which* kernel variant served each layer.
#[allow(clippy::too_many_arguments)] // private kernel: slices + full index frame
fn dispatch_band(
    w: &PackedPow2Matrix,
    row0: usize,
    rows: usize,
    xt: &[i8],
    ncols: usize,
    bias: &[i64],
    acc_frac: i32,
    out_frac: i32,
    out: &mut [i8],
) -> Result<()> {
    let macs = rows * w.cols() * ncols;
    if crate::par::should_fan_out(rows, macs) {
        let _span = mfdfp_obs::span!("qgemm.parallel", macs as u64);
        return qgemm_band_parallel(w, row0, rows, xt, ncols, bias, acc_frac, out_frac, out);
    }
    let _span = mfdfp_obs::span!("qgemm.serial", macs as u64);
    qgemm_band(w, row0, rows, xt, ncols, bias, acc_frac, out_frac, out)
}

/// Row-parallel band execution over `par::for_each_row_chunk`. The first
/// audit failure (in chunk-claim order) wins via a write-once slot —
/// `OnceLock::set` cannot poison, so a panicking sibling chunk unwinds
/// through the scope without turning the audit error into a second panic.
/// Chunks are disjoint, so no further synchronisation is needed.
#[allow(clippy::too_many_arguments)] // private kernel: slices + full index frame
fn qgemm_band_parallel(
    w: &PackedPow2Matrix,
    row0: usize,
    rows: usize,
    xt: &[i8],
    ncols: usize,
    bias: &[i64],
    acc_frac: i32,
    out_frac: i32,
    out: &mut [i8],
) -> Result<()> {
    let error = std::sync::OnceLock::new();
    crate::par::for_each_row_chunk(out, rows, ncols, |r0, nrows, chunk| {
        if let Err(e) = qgemm_band(
            w,
            row0 + r0,
            nrows,
            xt,
            ncols,
            &bias[r0..r0 + nrows],
            acc_frac,
            out_frac,
            chunk,
        ) {
            let _ = error.set(e);
        }
    });
    match error.into_inner() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfdfp_dfp::Pow2Weight;

    /// Decode-based oracle mirroring `mac_reduce`: per-element
    /// `mul_shift`, i64 accumulate, bias, realign + saturate.
    fn reference(
        w: &PackedPow2Matrix,
        xt: &[i8],
        ncols: usize,
        bias: &[i64],
        acc_frac: i32,
        out_frac: i32,
    ) -> Vec<i8> {
        let k = w.cols();
        let mut out = Vec::with_capacity(w.rows() * ncols);
        for (r, &b) in bias.iter().enumerate() {
            for j in 0..ncols {
                let mut acc = b;
                for c in 0..k {
                    acc += w.get(r, c).mul_shift(xt[c * ncols + j] as i32) as i64;
                }
                out.push(saturate(realign(acc, acc_frac, out_frac), 8) as i8);
            }
        }
        out
    }

    /// Whole-matrix product through the public entry at `batch = 1`.
    fn qgemm(
        w: &PackedPow2Matrix,
        xt: &[i8],
        ncols: usize,
        bias: &[i64],
        acc_frac: i32,
        out_frac: i32,
    ) -> Result<Vec<i8>> {
        let mut out = vec![0i8; w.rows() * ncols];
        qgemm_fused_into_i8(w, 0, w.rows(), xt, ncols, 1, bias, acc_frac, out_frac, &mut out)?;
        Ok(out)
    }

    fn codes_matrix(rows: usize, cols: usize, seed: u64) -> PackedPow2Matrix {
        let mut state = seed | 1;
        let ws: Vec<Pow2Weight> = (0..rows * cols)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                Pow2Weight::decode4((state % 16) as u8).unwrap()
            })
            .collect();
        PackedPow2Matrix::from_weights(rows, cols, &ws).unwrap()
    }

    fn inputs(n: usize, seed: u64) -> Vec<i8> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 256) as u8 as i8
            })
            .collect()
    }

    #[test]
    fn matches_decode_reference_across_geometries() {
        for (rows, cols, ncols) in
            [(1, 1, 1), (3, 7, 5), (4, 16, 2), (5, 9, 9), (2, 33, 3), (8, 8, 1)]
        {
            let w = codes_matrix(rows, cols, (rows * 31 + cols * 7 + ncols) as u64);
            let xt = inputs(ncols * cols, 99);
            let bias: Vec<i64> = (0..rows).map(|r| (r as i64 - 2) * 100).collect();
            let got = qgemm(&w, &xt, ncols, &bias, 13, 4).unwrap();
            let want = reference(&w, &xt, ncols, &bias, 13, 4);
            assert_eq!(got, want, "rows={rows} cols={cols} ncols={ncols}");
        }
    }

    #[test]
    fn zero_row_and_zero_col_matrices() {
        let w = codes_matrix(0, 5, 3);
        assert_eq!(qgemm(&w, &inputs(10, 1), 2, &[], 10, 3).unwrap(), vec![]);
        let w = codes_matrix(4, 0, 3);
        // k = 0: every output is just its routed bias (frac 14 → frac 7).
        let out = qgemm(&w, &[], 3, &[0, 1 << 7, -(1 << 7), 1 << 20], 14, 7).unwrap();
        assert_eq!(out.len(), 12);
        assert_eq!(&out[..3], &[0, 0, 0]);
        assert_eq!(&out[3..6], &[1, 1, 1]);
        assert_eq!(&out[6..9], &[-1, -1, -1]);
        assert_eq!(&out[9..], &[127, 127, 127], "oversized bias must saturate");
        // ncols = 0 is also legal and produces an empty output.
        let w = codes_matrix(2, 3, 5);
        assert_eq!(qgemm(&w, &[], 0, &[0, 0], 10, 3).unwrap(), vec![]);
    }

    #[test]
    fn single_element_matrix() {
        for code in 0..16u8 {
            let wgt = Pow2Weight::decode4(code).unwrap();
            let w = PackedPow2Matrix::from_weights(1, 1, &[wgt]).unwrap();
            for x in [-128i8, -1, 0, 1, 127] {
                let out = qgemm(&w, &[x], 1, &[0], 7, 7).unwrap();
                let want = saturate(realign(wgt.mul_shift(x as i32) as i64, 7, 7), 8) as i8;
                assert_eq!(out, vec![want], "code={code} x={x}");
            }
        }
    }

    #[test]
    fn odd_column_pad_nibble_is_inert() {
        // cols = 3: the pad nibble decodes to +1, the worst possible
        // contamination if it ever entered the sum.
        let w = codes_matrix(4, 3, 17);
        let xt = inputs(3 * 6, 23);
        let bias = vec![0i64; 4];
        let got = qgemm(&w, &xt, 6, &bias, 10, 3).unwrap();
        assert_eq!(got, reference(&w, &xt, 6, &bias, 10, 3));
    }

    #[test]
    fn all_minimum_exponent_weights() {
        // exp = −7 ⇒ shift amount 0: products equal ±x exactly.
        let ws: Vec<Pow2Weight> = (0..8)
            .map(|i| {
                let code = if i % 2 == 0 { 7u8 } else { 0x8 | 7 }; // ±2^−7
                Pow2Weight::decode4(code).unwrap()
            })
            .collect();
        let w = PackedPow2Matrix::from_weights(2, 4, &ws).unwrap();
        let xt = inputs(4, 7);
        let got = qgemm(&w, &xt, 1, &[0, 0], 7, 7).unwrap();
        assert_eq!(got, reference(&w, &xt, 1, &[0, 0], 7, 7));
    }

    #[test]
    fn saturating_accumulator_routes_to_rails() {
        // All +1 weights on all-max inputs with a large upscale: the
        // routed value flies past the 8-bit rails on both sides.
        let w = PackedPow2Matrix::from_f32(2, 16, &[1.0; 32]).unwrap();
        let hi = vec![127i8; 16];
        let lo = vec![-128i8; 16];
        assert_eq!(qgemm(&w, &hi, 1, &[0, 0], 7, 7).unwrap(), vec![127, 127]);
        assert_eq!(qgemm(&w, &lo, 1, &[0, 0], 7, 7).unwrap(), vec![-128, -128]);
    }

    #[test]
    fn audits_accumulator_width() {
        // A bias at the edge of the 32-bit accumulator register routes;
        // one past it is rejected — on the serial and the row-parallel
        // band alike.
        let w = codes_matrix(2, 4, 9);
        let xt = vec![0i8; 4];
        let ok = [i32::MAX as i64, i32::MIN as i64];
        assert!(qgemm(&w, &xt, 1, &ok, 10, 3).is_ok());
        let over = [0, i32::MAX as i64 + 1];
        assert!(matches!(
            qgemm(&w, &xt, 1, &over, 10, 3),
            Err(TensorError::QuantizedOverflow { bits: ACCUMULATOR_BITS, .. })
        ));
        let mut out = vec![0i8; 2];
        assert!(matches!(
            qgemm_band_parallel(&w, 0, 2, &xt, 1, &over, 10, 3, &mut out),
            Err(TensorError::QuantizedOverflow { bits: ACCUMULATOR_BITS, .. })
        ));
    }

    #[test]
    fn audit_sees_real_lanes_only() {
        // One +1 weight (shift 7) per row; 65 columns = one full wide slab
        // plus a one-column tail slab padded with 63 zero lanes.
        let w = PackedPow2Matrix::from_f32(9, 1, &[1.0; 9]).unwrap();
        let mut xt = vec![0i8; 65];
        xt[64] = 1;
        // Only the tail slab's one real lane of the last row (second row
        // block) overflows: MAX − 100 + (1 << 7).
        let mut bias = vec![0i64; 9];
        bias[8] = i32::MAX as i64 - 100;
        let want = i32::MAX as i64 + 28;
        let mut out = vec![0i8; 9 * 65];
        for result in [
            qgemm_band(&w, 0, 9, &xt, 65, &bias, 10, 3, &mut out),
            qgemm_band_parallel(&w, 0, 9, &xt, 65, &bias, 10, 3, &mut out),
        ] {
            assert!(matches!(
                result,
                Err(TensorError::QuantizedOverflow { value, .. }) if value == want
            ));
        }
        // A padding lane holds the bare bias (its activation is zero). A
        // bias outside the register that every real lane brings back
        // inside must route: narrow slab (15 padding lanes) and wide tail.
        let over = i32::MAX as i64 + 100;
        for ncols in [1usize, 65] {
            let xt = vec![-1i8; ncols];
            let mut out = vec![0i8; ncols];
            qgemm_band(&w, 0, 1, &xt, ncols, &[over], 10, 3, &mut out).unwrap();
            assert_eq!(out, reference(&w, &xt, ncols, &[over], 10, 3));
        }
    }

    #[test]
    fn branch_free_route_matches_realign_saturate() {
        // Accumulator values over the whole 32-bit register: the rails,
        // every power of two and its neighbours on both sides of zero,
        // and a pseudo-random fill.
        let mut acc = vec![0i64, i32::MIN as i64, i32::MAX as i64];
        for bit in 0..31 {
            for d in [-1i64, 0, 1] {
                acc.extend([(1i64 << bit) + d, -(1i64 << bit) + d]);
            }
        }
        acc.extend(
            inputs(4096, 11).chunks(4).map(|c| {
                i32::from_le_bytes([c[0] as u8, c[1] as u8, c[2] as u8, c[3] as u8]) as i64
            }),
        );
        let mut out = vec![0i8; acc.len()];
        // out − acc ∈ −40..=8: right shifts through the branch-free form
        // (1..=31) and both fallbacks (≥ 32, and left shifts).
        for acc_frac in [0i32, 14, 40] {
            for out_frac in acc_frac - 40..=acc_frac + 8 {
                route_lanes(&acc, acc_frac, out_frac, &mut out).unwrap();
                for (&v, &o) in acc.iter().zip(&out) {
                    let want = saturate(realign(v, acc_frac, out_frac), 8) as i8;
                    assert_eq!(o, want, "v={v} acc_frac={acc_frac} out_frac={out_frac}");
                }
            }
        }
    }

    #[test]
    fn portable_band_matches_dispatched_band() {
        // `qgemm_band` runs the AVX2 build of the body wherever the CPU
        // has it — every CI runner — so this is the only place the
        // portable build executes there: wide, narrow and tail shapes.
        for (rows, cols, ncols) in
            [(9, 300, 130), (17, 75, 64), (8, 40, 16), (3, 1024, 1), (5, 7, 17)]
        {
            let w = codes_matrix(rows, cols, (rows * cols + ncols) as u64);
            let xt = inputs(cols * ncols, 29);
            let bias: Vec<i64> = (0..rows).map(|r| (r as i64 - 4) * 1000).collect();
            let mut dispatched = vec![0i8; rows * ncols];
            qgemm_band(&w, 0, rows, &xt, ncols, &bias, 13, 4, &mut dispatched).unwrap();
            let mut portable = vec![0i8; rows * ncols];
            band_portable(&w, 0, rows, &xt, ncols, &bias, 13, 4, &mut portable).unwrap();
            assert_eq!(portable, dispatched, "rows={rows} cols={cols} ncols={ncols}");
            assert_eq!(portable, reference(&w, &xt, ncols, &bias, 13, 4));
        }
    }

    #[test]
    fn row_band_matches_full_product() {
        // Band selection composes with the fused batch dimension: a band
        // of the batch-2 product equals the same rows of the full one.
        let (ncols_pi, batch) = (2, 2);
        let ncols = ncols_pi * batch;
        let w = codes_matrix(6, 10, 41);
        let xt = inputs(10 * ncols, 3);
        let bias: Vec<i64> = (0..6).map(|r| r as i64 * 64).collect();
        let mut full = vec![0i8; 6 * ncols];
        qgemm_fused_into_i8(&w, 0, 6, &xt, ncols_pi, batch, &bias, 12, 5, &mut full).unwrap();
        assert_eq!(full, reference(&w, &xt, ncols, &bias, 12, 5));
        for (row0, rows) in [(0usize, 2usize), (2, 3), (5, 1), (0, 6)] {
            let mut band = vec![0i8; rows * ncols];
            let b = &bias[row0..row0 + rows];
            qgemm_fused_into_i8(&w, row0, rows, &xt, ncols_pi, batch, b, 12, 5, &mut band).unwrap();
            assert_eq!(band, full[row0 * ncols..(row0 + rows) * ncols], "band {row0}+{rows}");
        }
    }

    #[test]
    fn i8_band_matches_full_product() {
        let w = codes_matrix(6, 10, 43);
        let xt = inputs(10 * 4, 8);
        let bias: Vec<i64> = (0..6).map(|r| r as i64 * 32).collect();
        let full = qgemm(&w, &xt, 4, &bias, 12, 5).unwrap();
        for (row0, rows) in [(0usize, 3usize), (3, 3), (4, 2)] {
            let mut band = vec![0i8; rows * 4];
            let b = &bias[row0..row0 + rows];
            qgemm_fused_into_i8(&w, row0, rows, &xt, 4, 1, b, 12, 5, &mut band).unwrap();
            assert_eq!(band, full[row0 * 4..(row0 + rows) * 4], "band {row0}+{rows}");
        }
    }

    #[test]
    fn i8_entry_validates_shapes() {
        let w = codes_matrix(2, 4, 9);
        let bias = vec![0i64; 2];
        let xt = inputs(4, 5);
        assert!(qgemm(&w, &xt, 1, &bias, 10, 3).is_ok());
        assert!(qgemm(&w, &xt[..3], 1, &bias, 10, 3).is_err());
        assert!(qgemm(&w, &xt, 1, &[0], 10, 3).is_err());
        let mut out = vec![0i8; 2];
        // Output too short, row band past the matrix, zero batch.
        assert!(qgemm_fused_into_i8(&w, 0, 2, &xt, 1, 1, &bias, 10, 3, &mut out[..1]).is_err());
        assert!(qgemm_fused_into_i8(&w, 1, 2, &xt, 1, 1, &bias, 10, 3, &mut out).is_err());
        assert!(matches!(
            qgemm_fused_into_i8(&w, 0, 2, &xt, 1, 0, &bias, 10, 3, &mut out),
            Err(TensorError::BadGeometry(_))
        ));
    }

    #[test]
    fn entry_rejects_overflowing_extents() {
        // Each of these extents wraps to a small value in release
        // arithmetic and used to match the (empty) buffers.
        let w = codes_matrix(4, 4, 9);
        let bias = vec![0i64; 4];
        let half = 1usize << (usize::BITS - 1);
        for (row0, rows, ncols_pi, batch) in [
            (0, 4, half, 2),       // ncols_per_image · batch
            (0, 4, half / 2, 1),   // ncols · k
            (usize::MAX, 1, 1, 1), // row0 + rows
        ] {
            let b = &bias[..rows];
            assert!(
                matches!(
                    qgemm_fused_into_i8(&w, row0, rows, &[], ncols_pi, batch, b, 10, 3, &mut []),
                    Err(TensorError::BadGeometry(_))
                ),
                "row0={row0} rows={rows} ncols_pi={ncols_pi} batch={batch}"
            );
        }
        // rows · ncols: with k = 0 no column-matrix length bounds ncols.
        let w = codes_matrix(4, 0, 9);
        assert!(matches!(
            qgemm_fused_into_i8(&w, 0, 4, &[], half / 2, 1, &bias, 10, 3, &mut []),
            Err(TensorError::BadGeometry(_))
        ));
    }

    #[test]
    fn i8_extremes_are_structurally_in_bounds() {
        // -128 and 127 are the rails of the code space; both must route
        // without any operand audit (there is none: the bound is the type).
        let w = codes_matrix(3, 8, 5);
        let xt = [-128i8, 127, -128, 127, -128, 127, -128, 127];
        let bias = vec![0i64; 3];
        assert_eq!(qgemm(&w, &xt, 1, &bias, 10, 3).unwrap(), reference(&w, &xt, 1, &bias, 10, 3));
    }

    #[test]
    fn parallel_dispatch_bit_identical() {
        // Large enough to cross MIN_MACS, so the entry takes the
        // row-parallel band whenever the pool is ≥ 2 wide
        // (`MFDFP_THREADS`); either way it must equal the serial band.
        let (rows, cols, ncols) = (64, 64, 64);
        let w = codes_matrix(rows, cols, 3);
        let xt = inputs(cols * ncols, 4);
        let bias: Vec<i64> = (0..rows).map(|r| r as i64).collect();
        let via_dispatch = qgemm(&w, &xt, ncols, &bias, 13, 4).unwrap();
        let mut serial = vec![0i8; rows * ncols];
        qgemm_band(&w, 0, rows, &xt, ncols, &bias, 13, 4, &mut serial).unwrap();
        assert_eq!(via_dispatch, serial);
    }

    #[test]
    fn parallel_bit_identical_to_serial() {
        // Forced row-parallel band below the dispatch threshold.
        let (rows, cols, ncols) = (23, 17, 9);
        let w = codes_matrix(rows, cols, 77);
        let xt = inputs(cols * ncols, 13);
        let bias: Vec<i64> = (0..rows).map(|r| (r as i64 - 11) * 32).collect();
        let mut s = vec![0i8; rows * ncols];
        qgemm_band(&w, 0, rows, &xt, ncols, &bias, 13, 4, &mut s).unwrap();
        let mut p = vec![0i8; rows * ncols];
        qgemm_band_parallel(&w, 0, rows, &xt, ncols, &bias, 13, 4, &mut p).unwrap();
        assert_eq!(s, p);
    }
}
