//! Pool-backed fan-out helpers for the row-parallel kernels.
//!
//! The build environment has no crates.io access, so instead of `rayon`
//! this module provides the two primitives the hot path needs — a worker
//! count and a disjoint row-chunk fan-out. Work is partitioned into
//! *contiguous row ranges*; the kernels invoked on each range fix the
//! per-element accumulation order, so results are bit-identical to a
//! single-threaded run no matter how many workers the machine offers.
//!
//! Chunks run on the persistent process-wide [`mfdfp_rt`] pool: threads
//! are spawned **once** (lazily, at first dispatch) and parked between
//! calls, so a dispatch costs a queue push and a wake-up — single-digit
//! microseconds — instead of the tens of microseconds per-call
//! `std::thread::scope` spawning used to cost. That is why the dispatch
//! threshold below sits ~8× lower than it did in the spawn-per-call era.
//!
//! Chunk boundaries depend only on `threads()` and the matrix extents —
//! never on which pool thread runs which chunk — so the partition (and
//! therefore the result bytes) is a pure function of `MFDFP_THREADS`.

/// Work threshold (in multiply-accumulates) below which the parallel
/// dispatchers fall back to the serial kernels. With per-call thread
/// spawning this had to be `1 << 20`; on the persistent pool a dispatch
/// only pays an enqueue + wake (~1–2 µs), so products down to ~128 k
/// MACs can repay fan-out. Shared by the GEMM, packed-qGEMM and
/// convolution dispatch so the hot paths stay consistent.
const MIN_MACS: usize = 1 << 17;

/// The one serial-vs-pool decision every dispatcher (GEMM, packed qGEMM,
/// batched convolution) makes: fan `rows` independent rows totalling
/// `macs` multiply-accumulates out across the pool? The conditions are
/// ordered so a small product never instantiates the pool.
pub(crate) fn should_fan_out(rows: usize, macs: usize) -> bool {
    rows >= 2 && macs >= MIN_MACS && threads() >= 2
}

/// Number of worker lanes to fan out to: the width of the shared
/// [`mfdfp_rt`] pool (`MFDFP_THREADS` overrides the detected core
/// count; values of 0 or 1 disable fan-out).
///
/// First use instantiates the process-wide pool.
pub fn threads() -> usize {
    mfdfp_rt::global().threads()
}

/// Splits `out` (an `m × n` row-major buffer) into contiguous row chunks
/// and runs `kernel(row0, rows, chunk)` on each chunk as a task on the
/// shared persistent pool. Runs inline when a single chunk covers the
/// whole buffer.
///
/// Generic over the element type so the same fan-out drives the `f32`
/// GEMM/conv kernels and the `i8` activation-code buffers of the packed
/// quantized kernel ([`crate::ops::qgemm`]).
///
/// # Panics
///
/// Re-raises the first panic of any chunk kernel after all chunks
/// completed (the pool scope's contract, matching `std::thread::scope`).
pub fn for_each_row_chunk<T, F>(out: &mut [T], m: usize, n: usize, kernel: F)
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    debug_assert_eq!(out.len(), m * n);
    let pool = mfdfp_rt::global();
    // Degenerate extents (m == 0 or n == 0): nothing to fan out, and
    // `chunks_mut(0)` would panic.
    let rows_per_chunk = m.div_ceil(pool.threads().max(1)).max(1);
    if rows_per_chunk >= m || n == 0 {
        kernel(0, m, out);
        return;
    }
    let kernel = &kernel;
    pool.scope(|scope| {
        for (idx, chunk) in out.chunks_mut(rows_per_chunk * n).enumerate() {
            scope.spawn(move || {
                let row0 = idx * rows_per_chunk;
                kernel(row0, chunk.len() / n, chunk);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_every_row_exactly_once() {
        let (m, n) = (23, 5);
        let mut out = vec![0.0f32; m * n];
        for_each_row_chunk(&mut out, m, n, |row0, rows, chunk| {
            for r in 0..rows {
                for c in 0..n {
                    chunk[r * n + c] += (row0 + r) as f32;
                }
            }
        });
        for i in 0..m {
            for j in 0..n {
                assert_eq!(out[i * n + j], i as f32, "row {i} col {j}");
            }
        }
    }

    #[test]
    fn single_row_runs_inline() {
        let mut out = vec![0.0f32; 4];
        for_each_row_chunk(&mut out, 1, 4, |row0, rows, chunk| {
            assert_eq!((row0, rows, chunk.len()), (0, 1, 4));
            chunk.fill(1.0);
        });
        assert_eq!(out, [1.0; 4]);
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(threads() >= 1);
    }

    #[test]
    fn repeated_dispatch_reuses_the_pool() {
        // The whole point of the runtime: a second dispatch must not
        // re-spawn workers. Observable via the global pool counters —
        // tasks accumulate, width stays fixed.
        let before = mfdfp_rt::global_stats();
        for round in 0..3 {
            let (m, n) = (16, 8);
            let mut out = vec![0u32; m * n];
            for_each_row_chunk(&mut out, m, n, |row0, rows, chunk| {
                for r in 0..rows {
                    for c in 0..n {
                        chunk[r * n + c] = (round + row0 + r) as u32;
                    }
                }
            });
        }
        let after = mfdfp_rt::global_stats();
        assert_eq!(after.threads, mfdfp_rt::global().threads());
        assert!(after.tasks_run >= before.tasks_run);
    }
}
