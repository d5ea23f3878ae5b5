//! Property tests of the packed shift-only GEMM's one public entry
//! (`qgemm_fused_into_i8`): agreement with a scalar `mul_shift` decode
//! oracle for arbitrary shapes (including the odd-column pad nibble at
//! every row boundary), across the serial/row-parallel dispatch
//! threshold, and band ≡ full product; plus fixed cases at the kernel's
//! own edges — the 255-synapse bucket run at its `i16` rails, the 2^14
//! flush, and every slab/block boundary. (Serial ≡ forced-parallel and
//! portable ≡ AVX2 on the private band functions are checked in the
//! kernel's own unit tests.)

use mfdfp_dfp::{realign, saturate, PackedPow2Matrix, Pow2Weight};
use mfdfp_tensor::qgemm_fused_into_i8;
use proptest::prelude::*;

/// Decode-based oracle: per-element `Pow2Weight::mul_shift`, exact i64
/// accumulation, bias, then the routing realign + saturate.
fn decode_oracle(
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
) -> Vec<i8> {
    let mut out = vec![0i8; w.rows() * ncols];
    qgemm_fused_into_i8(w, 0, w.rows(), xt, ncols, 1, bias, acc_frac, out_frac, &mut out).unwrap();
    out
}

/// Xorshift stream → (random-code weight matrix, `count` activation codes
/// covering every `i8` bit pattern).
fn operands(seed: u64, rows: usize, cols: usize, count: usize) -> (PackedPow2Matrix, Vec<i8>) {
    let mut state = seed.wrapping_mul(0xD1B54A32D192ED03) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let codes: Vec<Pow2Weight> =
        (0..rows * cols).map(|_| Pow2Weight::decode4((next() % 16) as u8).unwrap()).collect();
    let w = PackedPow2Matrix::from_weights(rows, cols, &codes).unwrap();
    let xt = (0..count).map(|_| (next() % 256) as u8 as i8).collect();
    (w, xt)
}

/// `k` synapses of one weight code against one activation value, with
/// the bias cancelling the exact sum down to `residue` and a one-bit
/// routing shift: any lost, duplicated or wrapped contribution moves the
/// output off `route(residue)` (a saturating route of the raw sum would
/// hide it).
fn assert_exact_sum(code: u8, x: i8, k: usize) {
    let wgt = Pow2Weight::decode4(code).unwrap();
    let w = PackedPow2Matrix::from_weights(1, k, &vec![wgt; k]).unwrap();
    let xt = vec![x; k];
    let residue = 37i64;
    let bias = [residue - k as i64 * wgt.mul_shift(x as i32) as i64];
    let got = qgemm(&w, &xt, 1, &bias, 8, 7);
    assert_eq!(got, decode_oracle(&w, &xt, 1, &bias, 8, 7), "code={code} x={x} k={k}");
    assert_eq!(got, [19], "code={code} x={x} k={k}");
}

/// Bucket-run edges: one short of, exactly, and one past one and two
/// runs of 255, with every synapse in the same bucket at the activation
/// rails — the input that drives one `i16` bucket to ±32 640.
#[test]
fn bucket_runs_hold_the_activation_rails() {
    for code in 0..16u8 {
        for x in [-128i8, 127] {
            for k in [254usize, 255, 256, 509, 510, 511, 1024] {
                assert_exact_sum(code, x, k);
            }
        }
    }
}

/// The `i32 → i64` flush: three synapses past one 2^14 chunk, at the
/// largest product magnitude (2^14 each, 2^28 per chunk).
#[test]
fn accumulator_flush_boundary_is_exact() {
    assert_exact_sum(0, -128, (1 << 14) + 3);
    assert_exact_sum(8, -128, (1 << 14) + 3);
}

/// Slab and block edges: column counts around the 16- and 64-lane slabs
/// (and the `ncols ≤ 16` selection between them), row counts around the
/// 8-row block, as full products and as a band starting mid-block.
#[test]
fn slab_and_block_edges_match_decode_oracle() {
    let k = 19;
    for ncols in [1usize, 15, 16, 17, 63, 64, 65, 129] {
        for rows in [1usize, 7, 8, 9, 17] {
            let (w, xt) = operands((ncols * 31 + rows) as u64, rows + 3, k, ncols * k);
            let bias: Vec<i64> = (0..rows + 3).map(|r| r as i64 * 211 - 900).collect();
            let full = decode_oracle(&w, &xt, ncols, &bias, 12, 4);
            assert_eq!(qgemm(&w, &xt, ncols, &bias, 12, 4), full, "ncols={ncols} rows={rows}");
            let mut band = vec![0i8; rows * ncols];
            qgemm_fused_into_i8(&w, 3, rows, &xt, ncols, 1, &bias[3..], 12, 4, &mut band).unwrap();
            assert_eq!(band, full[3 * ncols..], "band 3+{rows} ncols={ncols}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// qgemm == decode oracle for random shapes, codes and inputs.
    /// `cols` spans odd and even values so the row-boundary pad nibble is
    /// exercised constantly; `acc_frac`/`out_frac` spans down- and
    /// up-routing (the latter saturates frequently). Every `i8` bit
    /// pattern is a legal operand — the structural-audit claim.
    #[test]
    fn qgemm_matches_decode_oracle(
        rows in 1usize..8,
        cols in 1usize..34,
        ncols in 1usize..6,
        seed in 0u64..100_000,
        acc_frac in 7i32..15,
        out_frac in 0i32..8,
    ) {
        let (w, xt) = operands(seed, rows, cols, ncols * cols);
        let bias: Vec<i64> = (0..rows).map(|r| (seed as i64 * 31 + r as i64 * 977) % 8192 - 4096).collect();
        let got = qgemm(&w, &xt, ncols, &bias, acc_frac, out_frac);
        prop_assert_eq!(got, decode_oracle(&w, &xt, ncols, &bias, acc_frac, out_frac));
    }

    /// Any row band of a fused-batch product equals the corresponding
    /// slice of the full product — the invariant grouped convolutions
    /// rely on, at every batch width.
    #[test]
    fn row_bands_compose_to_full_product(
        rows in 2usize..8,
        cols in 1usize..20,
        ncols_pi in 1usize..5,
        batch in 1usize..5,
        seed in 0u64..100_000,
        split in 1usize..7,
    ) {
        let split = split.min(rows - 1);
        let ncols = ncols_pi * batch;
        let (w, xt) = operands(seed, rows, cols, ncols * cols);
        let bias: Vec<i64> = (0..rows).map(|r| r as i64 * 17 - 40).collect();
        let full = decode_oracle(&w, &xt, ncols, &bias, 12, 4);
        let mut pieced = vec![0i8; rows * ncols];
        let (lo, hi) = pieced.split_at_mut(split * ncols);
        qgemm_fused_into_i8(&w, 0, split, &xt, ncols_pi, batch, &bias[..split], 12, 4, lo)
            .unwrap();
        qgemm_fused_into_i8(
            &w, split, rows - split, &xt, ncols_pi, batch, &bias[split..], 12, 4, hi,
        )
        .unwrap();
        prop_assert_eq!(pieced, full);
    }

    /// Scheduling determinism: shapes straddle the dispatch threshold
    /// (`MIN_MACS = 1 << 17`), so on a pool ≥ 2 wide some cases take the
    /// row-parallel band and the rest the serial one — all must emit the
    /// oracle's bytes.
    #[test]
    fn qgemm_schedules_are_bit_identical(
        rows in 1usize..48,
        cols in 24usize..72,
        ncols in 24usize..72,
        seed in 0u64..100_000,
    ) {
        let (w, xt) = operands(seed, rows, cols, ncols * cols);
        let bias: Vec<i64> = (0..rows).map(|r| (r as i64 * 131) % 1024 - 512).collect();
        let dispatch = qgemm(&w, &xt, ncols, &bias, 13, 5);
        prop_assert_eq!(dispatch, decode_oracle(&w, &xt, ncols, &bias, 13, 5));
    }

    /// Row bands compose at batch 1 — the grouped-convolution hot path of
    /// single-image inference.
    #[test]
    fn i8_row_bands_compose_to_full_product(
        rows in 2usize..8,
        cols in 1usize..20,
        ncols in 1usize..5,
        seed in 0u64..100_000,
        split in 1usize..7,
    ) {
        let split = split.min(rows - 1);
        let (w, xt) = operands(seed, rows, cols, ncols * cols);
        let bias: Vec<i64> = (0..rows).map(|r| r as i64 * 17 - 40).collect();
        let full = qgemm(&w, &xt, ncols, &bias, 12, 4);
        let mut pieced = vec![0i8; rows * ncols];
        let (lo, hi) = pieced.split_at_mut(split * ncols);
        qgemm_fused_into_i8(&w, 0, split, &xt, ncols, 1, &bias[..split], 12, 4, lo).unwrap();
        qgemm_fused_into_i8(&w, split, rows - split, &xt, ncols, 1, &bias[split..], 12, 4, hi)
            .unwrap();
        prop_assert_eq!(pieced, full);
    }
}
