//! Property tests of the packed shift-only GEMM's one public entry
//! (`qgemm_fused_into_i8`): agreement with a scalar `mul_shift` decode
//! oracle for arbitrary shapes (including the odd-column pad nibble at
//! every row boundary), across the serial/row-parallel dispatch
//! threshold, and band ≡ full product. (Serial ≡ forced-parallel on the
//! private band functions is checked in the kernel's own unit tests.)

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
