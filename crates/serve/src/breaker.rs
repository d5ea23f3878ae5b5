//! Per-model circuit breakers: fast-fail admission for models whose
//! dispatches keep failing.
//!
//! A model caught in a panic storm (or a datapath fault that fails every
//! batch) would otherwise keep eating queue capacity, worker time and
//! client latency budgets on requests that are doomed at dispatch. The
//! breaker watches *consecutive* dispatch failures per model; at the
//! configured threshold it **opens** and admissions fast-fail with the
//! typed [`ServeError::CircuitOpen`] (HTTP 503 + `Retry-After`) without
//! ever queueing. After the backoff it **half-opens**: a bounded number
//! of probe requests are admitted, and the first probe outcome decides —
//! success closes the circuit (resetting the backoff), failure re-opens
//! it with the backoff doubled up to the configured cap.
//!
//! Only dispatch outcomes move the dial: worker panics and inference
//! errors count as failures, completed batches as successes. Sheds,
//! deadline expiries and shutdown rejections are *discards* — the model
//! was never exercised, so they neither trip nor heal the breaker (they
//! only release a held probe slot, so a shed probe cannot wedge the
//! half-open state).
//!
//! [`ServeError::CircuitOpen`]: crate::ServeError::CircuitOpen

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::config::BreakerConfig;

/// The observable position of a breaker's state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: admissions flow, consecutive failures are counted.
    Closed,
    /// Tripped: admissions fast-fail until the backoff expires.
    Open,
    /// Probing: a bounded number of requests are admitted; the first
    /// outcome closes or re-opens the circuit.
    HalfOpen,
}

impl BreakerState {
    /// Stable lower-case name (used in health JSON).
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// A point-in-time view of one model's breaker, reported by the health
/// surface (`GET /v1/health`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerSnapshot {
    /// Current state-machine position.
    pub state: BreakerState,
    /// Consecutive dispatch failures observed (resets on success).
    pub consecutive_failures: u32,
    /// Time until the next probe admission, while open.
    pub retry_in: Option<Duration>,
    /// How many times this circuit has (re-)opened.
    pub opens: u64,
}

#[derive(Debug)]
struct State {
    kind: BreakerState,
    consecutive_failures: u32,
    /// While open: when the circuit half-opens.
    open_until: Instant,
    /// Backoff applied at the *next* (re-)open; doubles on a failed
    /// probe, resets on close.
    backoff: Duration,
    /// Probe admissions outstanding while half-open.
    probes_in_flight: u32,
}

/// Admission verdict from [`CircuitBreaker::try_admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Admit (normally, or as a half-open probe).
    Allowed,
    /// Fast-fail: the circuit is open (or its probe budget is taken).
    Rejected {
        /// Time until the breaker next admits a probe.
        retry_after: Duration,
    },
}

/// One model's circuit breaker. All transitions run under a tiny mutex
/// whose critical sections contain no user code, so it cannot be
/// poisoned by a contained worker panic.
#[derive(Debug)]
pub(crate) struct CircuitBreaker {
    cfg: BreakerConfig,
    state: Mutex<State>,
    opens: AtomicU64,
}

impl CircuitBreaker {
    pub(crate) fn new(cfg: BreakerConfig) -> Self {
        let backoff = cfg.backoff;
        CircuitBreaker {
            cfg,
            state: Mutex::new(State {
                kind: BreakerState::Closed,
                consecutive_failures: 0,
                open_until: Instant::now(),
                backoff,
                probes_in_flight: 0,
            }),
            opens: AtomicU64::new(0),
        }
    }

    /// Admission check, called once per `submit` before any queueing.
    pub(crate) fn try_admit(&self, now: Instant) -> Admission {
        let mut s = self.state.lock().expect("breaker poisoned");
        if s.kind == BreakerState::Open {
            if now < s.open_until {
                return Admission::Rejected { retry_after: s.open_until - now };
            }
            // Backoff served: half-open and let probes through.
            s.kind = BreakerState::HalfOpen;
            s.probes_in_flight = 0;
        }
        if s.kind == BreakerState::HalfOpen {
            if s.probes_in_flight < self.cfg.probes {
                s.probes_in_flight += 1;
                return Admission::Allowed;
            }
            // Probe budget taken; the outstanding probe's outcome is the
            // earliest the state can change, so quote the base backoff.
            return Admission::Rejected { retry_after: self.cfg.backoff };
        }
        Admission::Allowed
    }

    /// A dispatch for this model completed: the model demonstrably
    /// serves, so any state collapses back to closed and the backoff
    /// resets.
    pub(crate) fn record_success(&self) {
        let mut s = self.state.lock().expect("breaker poisoned");
        s.kind = BreakerState::Closed;
        s.consecutive_failures = 0;
        s.backoff = self.cfg.backoff;
        s.probes_in_flight = 0;
    }

    /// A dispatch for this model failed (worker panic or inference
    /// error). A failure that (re-)opens the circuit counts in
    /// [`CircuitBreaker::opens`].
    pub(crate) fn record_failure(&self, now: Instant) {
        let mut s = self.state.lock().expect("breaker poisoned");
        s.consecutive_failures = s.consecutive_failures.saturating_add(1);
        let opened = match s.kind {
            BreakerState::Closed => {
                if s.consecutive_failures >= self.cfg.threshold {
                    s.kind = BreakerState::Open;
                    s.open_until = now + s.backoff;
                    true
                } else {
                    false
                }
            }
            // Backlog admitted before the trip keeps failing: stay open
            // without extending the deadline (the backlog is history, not
            // new evidence about recovery time).
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                // The probe failed: re-open, backoff doubled and capped.
                s.backoff = (s.backoff * 2).min(self.cfg.backoff_max);
                s.kind = BreakerState::Open;
                s.open_until = now + s.backoff;
                s.probes_in_flight = 0;
                true
            }
        };
        if opened {
            self.opens.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// How many times this circuit has (re-)opened; the server's
    /// `breaker_opens` is the sum over models.
    pub(crate) fn opens(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }

    /// A request left the tier without a dispatch outcome (shed at its
    /// deadline, or rejected by the shutdown drain): release its probe
    /// slot, judge nothing.
    pub(crate) fn record_discarded(&self) {
        let mut s = self.state.lock().expect("breaker poisoned");
        if s.kind == BreakerState::HalfOpen && s.probes_in_flight > 0 {
            s.probes_in_flight -= 1;
        }
    }

    /// Point-in-time view for the health surface.
    pub(crate) fn snapshot(&self, now: Instant) -> BreakerSnapshot {
        let s = self.state.lock().expect("breaker poisoned");
        BreakerSnapshot {
            state: s.kind,
            consecutive_failures: s.consecutive_failures,
            retry_in: (s.kind == BreakerState::Open && s.open_until > now)
                .then(|| s.open_until - now),
            opens: self.opens(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            threshold: 3,
            backoff: Duration::from_millis(100),
            backoff_max: Duration::from_millis(350),
            probes: 1,
        }
    }

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let b = CircuitBreaker::new(cfg());
        let t0 = Instant::now();
        assert_eq!(b.try_admit(t0), Admission::Allowed);
        b.record_failure(t0);
        b.record_failure(t0);
        // A success resets the streak: failures must be *consecutive*.
        b.record_success();
        b.record_failure(t0);
        b.record_failure(t0);
        assert_eq!(b.opens(), 0, "two consecutive failures must not open");
        b.record_failure(t0);
        assert_eq!(b.opens(), 1, "third consecutive failure must open");
        match b.try_admit(t0) {
            Admission::Rejected { retry_after } => {
                assert!(retry_after <= Duration::from_millis(100));
                assert!(retry_after > Duration::ZERO);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        let snap = b.snapshot(t0);
        assert_eq!(snap.state, BreakerState::Open);
        assert_eq!(snap.opens, 1);
        assert!(snap.retry_in.is_some());
    }

    #[test]
    fn half_open_probe_success_closes_and_resets_backoff() {
        let b = CircuitBreaker::new(cfg());
        let t0 = Instant::now();
        for _ in 0..3 {
            b.record_failure(t0);
        }
        // Past the backoff the circuit half-opens and admits one probe.
        let t1 = t0 + Duration::from_millis(101);
        assert_eq!(b.try_admit(t1), Admission::Allowed);
        assert_eq!(b.snapshot(t1).state, BreakerState::HalfOpen);
        // The probe budget (1) is taken: a second admission fast-fails.
        assert!(matches!(b.try_admit(t1), Admission::Rejected { .. }));
        b.record_success();
        let snap = b.snapshot(t1);
        assert_eq!(snap.state, BreakerState::Closed);
        assert_eq!(snap.consecutive_failures, 0);
        assert_eq!(b.try_admit(t1), Admission::Allowed);
    }

    #[test]
    fn failed_probe_reopens_with_doubled_capped_backoff() {
        let b = CircuitBreaker::new(cfg());
        let mut now = Instant::now();
        for _ in 0..3 {
            b.record_failure(now);
        }
        // Trip 1: backoff 100ms. Fail the probe → 200ms, then → 350ms
        // (capped below 400ms).
        for expect_ms in [200u64, 350, 350] {
            now += Duration::from_millis(500);
            assert_eq!(b.try_admit(now), Admission::Allowed, "probe must be admitted");
            let opens = b.opens();
            b.record_failure(now);
            assert_eq!(b.opens(), opens + 1, "failed probe must re-open");
            let retry = match b.try_admit(now) {
                Admission::Rejected { retry_after } => retry_after,
                other => panic!("expected rejection, got {other:?}"),
            };
            assert!(
                retry <= Duration::from_millis(expect_ms)
                    && retry > Duration::from_millis(expect_ms - 50),
                "expected ~{expect_ms}ms backoff, got {retry:?}"
            );
        }
        assert_eq!(b.snapshot(now).opens, 4);
    }

    #[test]
    fn discard_releases_a_probe_slot_instead_of_wedging() {
        let b = CircuitBreaker::new(cfg());
        let t0 = Instant::now();
        for _ in 0..3 {
            b.record_failure(t0);
        }
        let t1 = t0 + Duration::from_millis(101);
        assert_eq!(b.try_admit(t1), Admission::Allowed);
        // The probe is shed before dispatch: without the discard the
        // half-open state would reject probes forever.
        assert!(matches!(b.try_admit(t1), Admission::Rejected { .. }));
        b.record_discarded();
        assert_eq!(b.try_admit(t1), Admission::Allowed);
    }

    #[test]
    fn failures_while_open_do_not_extend_the_deadline() {
        let b = CircuitBreaker::new(cfg());
        let t0 = Instant::now();
        for _ in 0..3 {
            b.record_failure(t0);
        }
        // Backlog failures land while open.
        b.record_failure(t0 + Duration::from_millis(50));
        assert_eq!(b.opens(), 1, "a failure while open is not a re-open");
        // The original deadline still half-opens on time.
        assert_eq!(b.try_admit(t0 + Duration::from_millis(101)), Admission::Allowed);
    }

    /// The breakers live in the per-model records: created lazily, one
    /// per name, listed sorted — and only for records an admission gave
    /// a breaker (a record `swap_model` created is not listed).
    #[test]
    fn board_creates_lazily_and_snapshots_sorted() {
        let metrics = crate::metrics::ServerMetrics::new(1);
        let zeta = metrics.model("zeta");
        let b1: *const CircuitBreaker = zeta.breaker_or_init(&cfg());
        metrics.model("alpha").breaker_or_init(&cfg()).record_failure(Instant::now());
        assert!(std::ptr::eq(metrics.model("zeta").breaker_or_init(&cfg()), b1));
        metrics.model("swapped-only");
        let snap = metrics.breakers(Instant::now());
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, "alpha");
        assert_eq!(snap[0].1.consecutive_failures, 1);
        assert_eq!(snap[1].0, "zeta");
        assert_eq!(snap[1].1.state, BreakerState::Closed);
    }
}
