//! The server's supervisor thread: worker watchdog + adaptive
//! degradation controller.
//!
//! One background thread per server ticks every
//! [`ServeConfig::supervise_interval`]. Each tick does two things:
//!
//! 1. **Watchdog** — [`Shard::supervise`] on every shard: workers whose
//!    thread died (outside the per-dispatch panic containment) or whose
//!    heartbeat went stale past [`ServeConfig::hang_timeout`] are
//!    replaced crash-only and counted in the `respawns` metric.
//! 2. **Degradation control** — with [`ServeConfig::degrade`] set, the
//!    controller differences the queue-wait histogram against the
//!    previous tick and estimates the p95 wait *of that tick alone*.
//!    Above the target it raises the degrade level (workers trim one
//!    more ensemble member); it lowers the level only after
//!    [`DegradeConfig::release_ticks`] consecutive calm ticks (p95 under
//!    half the target, or no traffic), so the level is hysteretic —
//!    oscillating load cannot flap it every tick.
//!
//! The supervisor must be stopped before the queues close (the server
//! does this in every shutdown path); otherwise the watchdog would
//! respawn the very workers a shutdown is joining.
//!
//! [`ServeConfig::supervise_interval`]: crate::ServeConfig::supervise_interval
//! [`ServeConfig::hang_timeout`]: crate::ServeConfig::hang_timeout
//! [`ServeConfig::degrade`]: crate::ServeConfig::degrade
//! [`DegradeConfig::release_ticks`]: crate::DegradeConfig::release_ticks
//! [`Shard::supervise`]: crate::shard::Shard::supervise

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::config::{DegradeConfig, ServeConfig};
use crate::metrics::{percentile_upper_bound, ServerMetrics};
use crate::shard::Shard;

/// Ceiling on the degrade level: far above any real ensemble width, it
/// bounds how long hysteretic release can take after a long overload
/// (the dispatch path independently clamps per model anyway).
const MAX_LEVEL: u64 = 32;

/// Handle to the supervisor thread; stopping is idempotent and `Drop`
/// stops it as a last resort.
pub(crate) struct Supervisor {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Supervisor {
    /// Spawns the supervisor over clones of the server's shards.
    pub(crate) fn start(
        shards: Vec<Shard>,
        metrics: Arc<ServerMetrics>,
        cfg: ServeConfig,
    ) -> Supervisor {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("mfdfp-serve-supervisor".into())
            .spawn(move || supervise_loop(&shards, &metrics, &cfg, &thread_stop))
            .expect("failed to spawn supervisor");
        Supervisor { stop, handle: Some(handle) }
    }

    /// Signals the thread and joins it (idempotent).
    pub(crate) fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.stop();
    }
}

fn supervise_loop(
    shards: &[Shard],
    metrics: &Arc<ServerMetrics>,
    cfg: &ServeConfig,
    stop: &AtomicBool,
) {
    let mut controller = cfg.degrade.clone().map(DegradeController::new);
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(cfg.supervise_interval);
        for shard in shards {
            shard.supervise(metrics, cfg);
        }
        if let Some(controller) = &mut controller {
            controller.tick(metrics);
        }
    }
}

/// The hysteretic degrade-level controller (one per supervisor; all
/// state is private to the control thread — workers only see the level
/// gauge it publishes into [`ServerMetrics`]).
struct DegradeController {
    cfg: DegradeConfig,
    /// Cumulative queue-wait buckets at the previous tick.
    last_buckets: Vec<u64>,
    level: u64,
    calm_ticks: u32,
}

impl DegradeController {
    fn new(cfg: DegradeConfig) -> Self {
        DegradeController { cfg, last_buckets: Vec::new(), level: 0, calm_ticks: 0 }
    }

    /// One control tick: estimate this tick's queue-wait p95 from the
    /// histogram delta and move the level at most one step.
    fn tick(&mut self, metrics: &ServerMetrics) {
        let now_buckets = metrics.queue_wait.bucket_counts();
        let delta: Vec<u64> = if self.last_buckets.is_empty() {
            now_buckets.clone()
        } else {
            now_buckets.iter().zip(&self.last_buckets).map(|(a, b)| a.saturating_sub(*b)).collect()
        };
        self.last_buckets = now_buckets;
        let samples: u64 = delta.iter().sum();
        let target_us = self.cfg.target_p95.as_micros() as f64;
        let p95_us = percentile_upper_bound(&delta, 0.95);
        if samples > 0 && p95_us > target_us {
            // Overloaded: degrade one more step.
            self.calm_ticks = 0;
            if self.level < MAX_LEVEL {
                self.level += 1;
                metrics.set_degrade_level(self.level);
            }
        } else if samples == 0 || p95_us < target_us / 2.0 {
            // Calm: release one step only after `release_ticks` of it.
            if self.level > 0 {
                self.calm_ticks += 1;
                if self.calm_ticks >= self.cfg.release_ticks {
                    self.calm_ticks = 0;
                    self.level -= 1;
                    metrics.set_degrade_level(self.level);
                }
            }
        } else {
            // Between half-target and target: hold the level and restart
            // the calm streak (the hysteresis band).
            self.calm_ticks = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn controller() -> DegradeController {
        DegradeController::new(DegradeConfig {
            target_p95: Duration::from_micros(1000),
            release_ticks: 2,
        })
    }

    /// Record `n` queue waits of `us` microseconds.
    fn waits(m: &ServerMetrics, n: usize, us: u64) {
        for _ in 0..n {
            m.queue_wait.record(Duration::from_micros(us));
        }
    }

    #[test]
    fn engages_holds_and_releases_hysteretically() {
        let m = ServerMetrics::new(1);
        let mut c = controller();
        // No traffic, level 0: nothing to do.
        c.tick(&m);
        assert_eq!(m.degrade_level(), 0);
        // Two overloaded ticks (p95 ~10ms over a 1ms target): one step
        // each.
        waits(&m, 10, 10_000);
        c.tick(&m);
        assert_eq!(m.degrade_level(), 1);
        waits(&m, 10, 10_000);
        c.tick(&m);
        assert_eq!(m.degrade_level(), 2);
        // The hysteresis band (~300µs → bucket bound 512µs, between
        // target/2 and target): hold, and restart any calm streak.
        waits(&m, 10, 300);
        c.tick(&m);
        assert_eq!(m.degrade_level(), 2);
        // Calm ticks (fast waits and idle both count): release one step
        // per `release_ticks`.
        waits(&m, 10, 100);
        c.tick(&m);
        assert_eq!(m.degrade_level(), 2, "first calm tick must not release yet");
        c.tick(&m); // idle tick
        assert_eq!(m.degrade_level(), 1);
        c.tick(&m);
        c.tick(&m);
        assert_eq!(m.degrade_level(), 0);
        // Already at zero: calm ticks are a no-op.
        c.tick(&m);
        assert_eq!(m.degrade_level(), 0);
    }

    #[test]
    fn mid_band_traffic_resets_the_calm_streak() {
        let m = ServerMetrics::new(1);
        let mut c = controller();
        waits(&m, 10, 10_000);
        c.tick(&m);
        assert_eq!(m.degrade_level(), 1);
        // calm, band, calm, calm: the band tick must break the streak so
        // release needs two *consecutive* calm ticks after it.
        waits(&m, 10, 100);
        c.tick(&m);
        waits(&m, 10, 300);
        c.tick(&m);
        waits(&m, 10, 100);
        c.tick(&m);
        assert_eq!(m.degrade_level(), 1, "streak was reset by the band tick");
        c.tick(&m);
        assert_eq!(m.degrade_level(), 0);
    }

    #[test]
    fn level_is_capped() {
        let m = ServerMetrics::new(1);
        let mut c = controller();
        for _ in 0..(MAX_LEVEL + 10) {
            waits(&m, 5, 50_000);
            c.tick(&m);
        }
        assert_eq!(m.degrade_level(), MAX_LEVEL);
    }

    #[test]
    fn first_tick_uses_the_full_histogram_as_its_delta() {
        // Waits recorded before the controller's first tick still count
        // (the controller starts with an empty baseline).
        let m = ServerMetrics::new(1);
        waits(&m, 10, 10_000);
        let mut c = controller();
        c.tick(&m);
        assert_eq!(m.degrade_level(), 1);
    }
}
