//! The shared load generator: client-side outcome accounting, the closed
//! loop, and the open loop with its due-time latency and lateness.
//!
//! The open loop is generic over a [`Clock`] so that its schedule — due
//! times, how late the generator ran, latency counted from the due time —
//! can be tested against a fake clock without a server.

use std::time::{Duration, Instant};

/// What became of one attempted operation, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered, correct, and within any latency limit.
    Ok,
    /// Refused at admission (queue full, quota, open circuit).
    Refused,
    /// Shed after admission (deadline exceeded) or errored.
    Shed,
    /// Answered correctly but after the latency limit.
    Late,
    /// Answered with the wrong output. Fails the run.
    Wrong,
}

/// Client-side counters; `attempted = ok + refused + shed + late + wrong`
/// holds by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Correct and in time.
    pub ok: u64,
    /// Refused at admission.
    pub refused: u64,
    /// Shed or errored after admission.
    pub shed: u64,
    /// Correct but late.
    pub late: u64,
    /// Wrong output.
    pub wrong: u64,
}

impl Tally {
    /// Counts one outcome.
    pub fn count(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::Refused => self.refused += 1,
            Outcome::Shed => self.shed += 1,
            Outcome::Late => self.late += 1,
            Outcome::Wrong => self.wrong += 1,
        }
    }

    /// Adds another tally into this one.
    pub fn add(&mut self, other: &Tally) {
        self.ok += other.ok;
        self.refused += other.refused;
        self.shed += other.shed;
        self.late += other.late;
        self.wrong += other.wrong;
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.ok + self.refused + self.shed + self.late + self.wrong
    }

    /// Operations that did not end [`Outcome::Ok`].
    pub fn failed(&self) -> u64 {
        self.attempted() - self.ok
    }

    /// Operations that never got a right answer: refused, shed or wrong.
    pub fn lost(&self) -> u64 {
        self.refused + self.shed + self.wrong
    }

    /// `failed / attempted` (`0.0` for nothing attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted() == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted() as f64
        }
    }
}

/// What one timed window of one phase produced.
#[derive(Debug, Clone, Default)]
pub struct WindowResult {
    /// Outcome counts.
    pub tally: Tally,
    /// How long the window ran, milliseconds.
    pub len_ms: f64,
    /// The window's rate, in the workload's work items per second.
    pub rate: f64,
    /// Latency samples of answered operations, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Closed loops: when each [`Outcome::Ok`] operation completed,
    /// milliseconds from the start of the window, ascending.
    pub done_ms: Vec<f64>,
    /// Durations of the workload's throughput work units, where it has
    /// its own, milliseconds: the offline workload's fused-batch calls,
    /// the open loop's time per item of each run of batches.
    pub unit_ms: Vec<f64>,
    /// Open loop only: how late the generator started each arrival, µs.
    pub lateness_us: Vec<f64>,
    /// Hot swaps performed beside the load: bytes → visible, ms.
    pub swap_ms: Vec<f64>,
    /// When each of those swaps began, on the clock of `done_ms`.
    pub swap_at_ms: Vec<f64>,
}

/// Runs `op` back to back until `len` has elapsed since `start`, the
/// origin of the completion times; each call reports its outcome and,
/// when answered, its latency.
pub fn closed_loop(
    start: Instant,
    len: Duration,
    mut op: impl FnMut() -> (Outcome, Option<Duration>),
) -> WindowResult {
    let mut result = WindowResult::default();
    while start.elapsed() < len {
        let (outcome, latency) = op();
        result.tally.count(outcome);
        if outcome == Outcome::Ok {
            result.done_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        if let Some(l) = latency {
            result.latencies_ms.push(l.as_secs_f64() * 1e3);
        }
    }
    result.len_ms = len.as_secs_f64() * 1e3;
    result.rate = result.tally.ok as f64 / start.elapsed().as_secs_f64();
    result
}

/// Merges the windows several closed-loop clients ran over the same
/// interval of `len`: counts and samples add, the rate is the aggregate.
pub fn merge_clients(len: Duration, clients: Vec<WindowResult>) -> WindowResult {
    let mut merged = WindowResult::default();
    for c in clients {
        merged.tally.add(&c.tally);
        merged.latencies_ms.extend(c.latencies_ms);
        merged.done_ms.extend(c.done_ms);
    }
    merged.done_ms.sort_by(|a, b| a.partial_cmp(b).expect("clock offsets are finite"));
    merged.len_ms = len.as_secs_f64() * 1e3;
    merged.rate = merged.tally.ok as f64 / len.as_secs_f64();
    merged
}

/// Time as the open-loop generator sees it: an offset from the clock's
/// own epoch.
pub trait Clock {
    /// Now.
    fn now(&self) -> Duration;
    /// Returns no earlier than `t`.
    fn wait_until(&self, t: Duration);
}

/// The wall clock. Plain `thread::sleep` overshoots by 3–30 ms on this
/// host, so it sleeps to about a millisecond before the target and
/// yield-spins the rest.
pub struct WallClock(Instant);

impl WallClock {
    /// A clock whose epoch is now.
    pub fn start() -> WallClock {
        WallClock(Instant::now())
    }

    /// The instant `t` on this clock.
    pub fn instant(&self, t: Duration) -> Instant {
        self.0 + t
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn wait_until(&self, t: Duration) {
        const SPIN: Duration = Duration::from_millis(1);
        loop {
            let now = self.now();
            if now >= t {
                return;
            }
            if t - now > SPIN {
                std::thread::sleep(t - now - SPIN);
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// The timing of one open-loop arrival as the generator saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Position in the schedule.
    pub index: u64,
    /// When the arrival was due.
    pub due: Duration,
    /// When the generator actually started submitting it.
    pub started: Duration,
    /// When the submit call returned.
    pub returned: Duration,
}

impl Arrival {
    /// How late the generator ran: `started − due`.
    pub fn lateness(&self) -> Duration {
        self.started.saturating_sub(self.due)
    }

    /// Latency counted **from the due time**: the wait from due time to
    /// the submit call returning, plus the server's own admission-to-
    /// response latency. A stalled generator or a slow admission is
    /// charged to the request that suffered it.
    pub fn latency_from_due(&self, response_latency: Duration) -> Duration {
        self.returned.saturating_sub(self.due) + response_latency
    }
}

/// The open-loop generator: arrival `i` is due at `i · interval` after
/// `clock.now()` at entry, for every due time before `len`; `submit` is
/// called at (or as soon as possible after) each due time regardless of
/// completions, and every arrival is handed to `sink` with what `submit`
/// returned — `sink` should pass it to another thread, not wait on it.
pub fn open_loop<C: Clock, T>(
    clock: &C,
    interval: Duration,
    len: Duration,
    mut submit: impl FnMut(u64) -> T,
    mut sink: impl FnMut(Arrival, T),
) {
    let origin = clock.now();
    for index in 0u64.. {
        let offset = interval.mul_f64(index as f64);
        if offset >= len {
            return;
        }
        let due = origin + offset;
        clock.wait_until(due);
        let started = clock.now();
        let submitted = submit(index);
        let returned = clock.now();
        sink(Arrival { index, due, started, returned }, submitted);
    }
}
