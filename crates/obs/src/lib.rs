//! # mfdfp-obs — flight-recorder tracing and op-count telemetry
//!
//! An always-cheap observability layer for the MF-DFP runtime, in the
//! spirit of JFR-style flight recorders: the hot path writes fixed-size
//! span records into **per-thread lock-free ring buffers** and bumps a
//! handful of **process-wide op counters**; everything heavier (merging,
//! sorting, JSON export) happens only when someone asks for a dump.
//! `std`-only, dependency-free, like the rest of the workspace.
//!
//! ## Feature gate
//!
//! The whole crate sits behind the `enabled` cargo feature (surfaced as
//! `obs` by every downstream crate). Instrumented code calls this API
//! unconditionally; without the feature, [`Span`] is a zero-sized type,
//! [`span!`] never evaluates its argument, the record functions are empty
//! `#[inline]` stubs and [`dump`] returns an empty vector — a true no-op,
//! guarded by an overhead regression test and by the workspace
//! alloc-regression suite.
//!
//! ## The recorder
//!
//! * Each thread lazily owns one fixed-capacity ring
//!   ([`ring_capacity`] events). Recording a span is two monotonic
//!   timestamp reads plus a handful of relaxed atomic stores into the
//!   thread's own ring — no allocation, no locking, no contention.
//! * Labels are `&'static str` (stored as pointer + length), plus one
//!   free-form `u64` argument per event.
//! * When the ring is full the **oldest event is overwritten** — flight
//!   recorders keep recent history, they do not backpressure the
//!   datapath. A per-slot version counter (seqlock protocol) lets
//!   [`dump`] skip events that are mid-overwrite, so a dump never
//!   contains a torn record.
//! * A process-wide registry keeps one handle per ring (threads register
//!   on their first event and stay registered after exit), and [`dump`]
//!   merges every ring into one timestamp-ordered event list.
//!
//! The [`json`] writer (plain code, present in every build) renders the
//! trace export and every JSON body the serve tier answers with.
//!
//! ## Example
//!
//! ```
//! // Scoped span: records [enter, drop] on this thread's ring.
//! {
//!     let _span = mfdfp_obs::span!("example.work", 42);
//!     // ... the traced work ...
//! }
//! // Cross-thread duration (e.g. queue wait measured at dequeue):
//! let t0 = mfdfp_obs::now_ns();
//! mfdfp_obs::record_complete("example.wait", 1, t0, mfdfp_obs::now_ns());
//! // Merge all rings and export for https://ui.perfetto.dev:
//! let trace = mfdfp_obs::chrome_trace_json(&mfdfp_obs::dump());
//! assert!(trace.starts_with("{"));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_op_in_unsafe_fn)]

mod chrome;
pub mod json;
pub mod ops;
mod recorder;

pub use chrome::chrome_trace_json;
pub use ops::OpCounters;
pub use recorder::{dump, now_ns, record_complete, ring_capacity, Span};

/// One completed span pulled out of a ring by [`dump`].
///
/// `start_ns`/`dur_ns` are nanoseconds on the process-wide monotonic
/// clock ([`now_ns`]); `thread` is the recording ring's registration
/// index (stable for the life of the process, dense from 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Static label the span was recorded under (e.g. `"qnet.conv"`).
    pub label: &'static str,
    /// The span's free-form argument (layer index, batch size, MAC
    /// count — whatever the instrumentation site chose).
    pub arg: u64,
    /// Span start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Ring (≈ thread) id the event was recorded on.
    pub thread: u64,
}

/// Opens a scoped [`Span`]: `span!("label")` or `span!("label", arg)`
/// where `arg` is a `u64`. The span records itself on this thread's ring
/// when the guard drops.
///
/// Without the `enabled` feature this expands to a zero-sized guard and
/// the argument expression is **type-checked but never evaluated** — the
/// macro is a true no-op in disabled builds.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! span {
    ($label:expr) => {
        $crate::Span::enter($label, 0)
    };
    ($label:expr, $arg:expr) => {
        $crate::Span::enter($label, $arg)
    };
}

/// Opens a scoped [`Span`] (disabled build: expands to the zero-sized
/// guard without evaluating the argument — see the `enabled`-build docs).
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! span {
    ($label:expr) => {{
        let _ = $label;
        $crate::Span
    }};
    ($label:expr, $arg:expr) => {{
        // Type-check (and mark used) without evaluating: the closure is
        // never called and compiles away entirely.
        let _ = || {
            let _ = $label;
            let _arg: u64 = $arg;
        };
        $crate::Span
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn trace_event_is_plain_data() {
        let e = super::TraceEvent { label: "t", arg: 1, start_ns: 2, dur_ns: 3, thread: 0 };
        assert_eq!(e, e.clone());
    }
}
