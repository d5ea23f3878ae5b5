//! Process-wide op-count counters for the quantized datapath.
//!
//! The paper's core argument is about *operation energy* — a shift-add
//! MAC costs a fraction of a float multiply-add — so the runtime counts
//! the operations it actually executes. Recording is **amortized**: the
//! qgemm band kernel adds `rows·k·ncols` once per band call, the conv
//! layer adds one gather's bytes per group — one `fetch_add` per kernel
//! entry, never one per MAC. `accel::energy::OpCostModel` converts a
//! [`counters`] snapshot into a live energy estimate, and the serving
//! metrics fold both into every `MetricsSnapshot`.
//!
//! Counters are monotonic since process start (like the `mfdfp-rt` pool
//! counters); diff two snapshots via [`OpCounters::since`] for
//! per-interval rates.

use std::sync::atomic::{AtomicU64, Ordering};

/// A point-in-time view of the process-wide op counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Shift-add MACs executed by the packed qgemm band kernel
    /// (`rows·k·ncols` per band, counted at dispatch).
    pub shift_macs: u64,
    /// `i8` im2col bytes gathered into conv staging buffers.
    pub im2col_bytes: u64,
    /// Output rows produced through the decode-based reference datapath
    /// (the Figure 2(a) bit-exactness oracle) instead of the packed
    /// kernel.
    pub decode_rows: u64,
    /// Overflow audits that **tripped** (operand outside its 9-bit
    /// register or accumulator outside 32 bits) — each is a rejected
    /// kernel call surfacing as `QuantizedOverflow`.
    pub overflow_audits: u64,
}

impl OpCounters {
    /// The counter deltas accumulated after `earlier` was taken
    /// (saturating, so snapshots from different processes never wrap).
    pub fn since(&self, earlier: &OpCounters) -> OpCounters {
        OpCounters {
            shift_macs: self.shift_macs.saturating_sub(earlier.shift_macs),
            im2col_bytes: self.im2col_bytes.saturating_sub(earlier.im2col_bytes),
            decode_rows: self.decode_rows.saturating_sub(earlier.decode_rows),
            overflow_audits: self.overflow_audits.saturating_sub(earlier.overflow_audits),
        }
    }

    /// Total counted events (useful as an "anything recorded?" probe).
    pub fn total(&self) -> u64 {
        self.shift_macs
            .saturating_add(self.im2col_bytes)
            .saturating_add(self.decode_rows)
            .saturating_add(self.overflow_audits)
    }
}

static SHIFT_MACS: AtomicU64 = AtomicU64::new(0);
static IM2COL_BYTES: AtomicU64 = AtomicU64::new(0);
static DECODE_ROWS: AtomicU64 = AtomicU64::new(0);
static OVERFLOW_AUDITS: AtomicU64 = AtomicU64::new(0);

/// Adds `n` shift-add MACs (one call per qgemm band).
#[inline]
pub fn record_shift_macs(n: u64) {
    SHIFT_MACS.fetch_add(n, Ordering::Relaxed);
}

/// Adds `n` gathered im2col staging bytes (one call per conv group).
#[inline]
pub fn record_im2col_bytes(n: u64) {
    IM2COL_BYTES.fetch_add(n, Ordering::Relaxed);
}

/// Adds `n` decode-path output rows (one call per reference layer).
#[inline]
pub fn record_decode_rows(n: u64) {
    DECODE_ROWS.fetch_add(n, Ordering::Relaxed);
}

/// Counts one tripped overflow audit (error path only).
#[inline]
pub fn record_overflow_audit() {
    OVERFLOW_AUDITS.fetch_add(1, Ordering::Relaxed);
}

/// Samples all counters (individually relaxed — a monitoring view,
/// not a barrier).
pub fn counters() -> OpCounters {
    OpCounters {
        shift_macs: SHIFT_MACS.load(Ordering::Relaxed),
        im2col_bytes: IM2COL_BYTES.load(Ordering::Relaxed),
        decode_rows: DECODE_ROWS.load(Ordering::Relaxed),
        overflow_audits: OVERFLOW_AUDITS.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_saturating() {
        let a = OpCounters { shift_macs: 10, im2col_bytes: 5, decode_rows: 1, overflow_audits: 0 };
        let b = OpCounters { shift_macs: 4, im2col_bytes: 9, decode_rows: 1, overflow_audits: 0 };
        let d = a.since(&b);
        assert_eq!(d.shift_macs, 6);
        assert_eq!(d.im2col_bytes, 0, "saturates instead of wrapping");
        assert_eq!(d.decode_rows, 0);
        assert_eq!(a.total(), 16);
    }

    #[test]
    fn counters_accumulate_deltas() {
        let before = counters();
        record_shift_macs(1000);
        record_im2col_bytes(64);
        record_decode_rows(3);
        record_overflow_audit();
        let d = counters().since(&before);
        // Other tests in this binary may record concurrently: >= is the
        // invariant on a process-global counter.
        assert!(d.shift_macs >= 1000);
        assert!(d.im2col_bytes >= 64);
        assert!(d.decode_rows >= 3);
        assert!(d.overflow_audits >= 1);
    }
}
