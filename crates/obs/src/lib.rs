//! # mfdfp-obs — flight-recorder tracing and op-count telemetry
//!
//! An always-cheap observability layer for the MF-DFP runtime, in the
//! spirit of JFR-style flight recorders: the hot path writes fixed-size
//! span records into **per-thread lock-free ring buffers** and bumps a
//! handful of **process-wide op counters**; everything heavier (merging,
//! sorting, JSON export) happens only when someone asks for a dump.
//! `std`-only, dependency-free, like the rest of the workspace.
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
//! * A process-wide registry keeps every ring. A thread takes a ring on
//!   its first event and hands it back when it exits; the next new
//!   thread reuses it, so thread-per-connection servers hold no more
//!   rings than their peak number of live recording threads. A finished
//!   thread's events stay in the ring until overwritten, and [`dump`]
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
#![deny(clippy::undocumented_unsafe_blocks)]
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
/// clock ([`now_ns`]); `thread` is the recording ring's index (dense
/// from 0). A ring has one owner thread at a time and passes to a later
/// thread when its owner exits, so one id may carry several threads'
/// events one after another, never interleaved.
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
    /// Id of the ring the event was recorded on.
    pub thread: u64,
}

/// Opens a scoped [`Span`]: `span!("label")` or `span!("label", arg)`
/// where `arg` is a `u64`. The span records itself on this thread's ring
/// when the guard drops.
#[macro_export]
macro_rules! span {
    ($label:expr) => {
        $crate::Span::enter($label, 0)
    };
    ($label:expr, $arg:expr) => {
        $crate::Span::enter($label, $arg)
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn trace_event_is_plain_data() {
        let e = super::TraceEvent { label: "t", arg: 1, start_ns: 2, dur_ns: 3, thread: 0 };
        assert_eq!(e, e.clone());
    }
}
