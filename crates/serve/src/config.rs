//! Serving runtime tuning knobs.

use std::time::Duration;

use crate::error::{Result, ServeError};

/// Configuration for a [`crate::Server`].
///
/// Batching is work-conserving at its core: a worker that comes free
/// takes what is queued *now*, up to `max_batch`, so batches form from
/// the backlog that accumulates while the previous batch computes — size
/// one at idle, `max_batch` at saturation. `max_wait` adds a linger on
/// top: an unfilled batch is held open that long for late arrivals. At
/// `Duration::ZERO` there is no linger and no request waits on a timer;
/// the default is a short one (1 ms, see the field). A batch
/// dispatches through the batch-fused `logits_batch_into`, whose large
/// layers fan output rows across the shared `mfdfp-rt` pool when its
/// width (`MFDFP_THREADS`) is ≥ 2.
///
/// The sharding knob splits the server into `shards` independent
/// (queue + worker pool) units; requests route by a stable hash of the
/// model name, so independent models stop contending on one queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Independent worker shards. Each shard owns its bounded queue and
    /// its own worker pool; a request routes to `hash(model) % shards`.
    pub shards: usize,
    /// Worker threads draining each shard's queue (each dispatches whole
    /// batches); the total worker count is `shards × workers`.
    pub workers: usize,
    /// Bounded per-shard request-queue capacity; submissions beyond it
    /// are rejected with [`ServeError::QueueFull`] (admission control).
    pub queue_capacity: usize,
    /// Largest batch a worker will take from the queue in one dispatch.
    pub max_batch: usize,
    /// The linger: how long a worker holds an *unfilled* batch open for
    /// late arrivals. It buys larger batches when arrivals are sparser
    /// than a dispatch is long, and it paces concurrent closed-loop
    /// clients into one batch per linger, which makes their rate a
    /// property of the timer rather than of how the OS places threads;
    /// it costs every request popped into an unfilled batch up to
    /// `max_wait` of added latency — at low load, all of them.
    /// `Duration::ZERO` turns it off: the batch path then reads no clock
    /// and a request never waits for company. A `max_wait` past the
    /// clock's range (`Duration::MAX`) lingers with no deadline, until
    /// the batch fills, a priority request arrives or the server closes.
    /// Default 1 ms.
    pub max_wait: Duration,
    /// Per-model in-flight quota: at most this many requests per model
    /// may be queued/in flight at once; the excess is rejected with
    /// [`ServeError::QuotaExceeded`]. `None` disables quotas.
    pub model_quota: Option<u64>,
    /// Per-model circuit breakers ([`ServeError::CircuitOpen`] fast
    /// fail after consecutive dispatch failures). `None` disables them.
    pub breaker: Option<BreakerConfig>,
    /// Adaptive ensemble degradation: when recent queue-wait p95 crosses
    /// the configured target, ensembles serve a truncated member prefix
    /// until pressure falls. `None` (the default) disables degradation.
    pub degrade: Option<DegradeConfig>,
    /// How often the supervisor thread scans worker heartbeats and the
    /// degradation controller re-evaluates queue pressure. Also the
    /// heartbeat cadence of an idle worker parked on its queue.
    pub supervise_interval: Duration,
    /// A worker whose heartbeat is older than this is declared hung and
    /// crash-only respawned by the watchdog (its thread is detached, a
    /// replacement takes its slot). Must comfortably exceed the longest
    /// legitimate batch dispatch.
    pub hang_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 1,
            workers: 1,
            queue_capacity: 256,
            max_batch: 16,
            max_wait: Duration::from_millis(1),
            model_quota: None,
            breaker: Some(BreakerConfig::default()),
            degrade: None,
            supervise_interval: Duration::from_millis(20),
            hang_timeout: Duration::from_secs(2),
        }
    }
}

impl ServeConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for zero shards, zero workers,
    /// zero capacity, a zero batch bound or a zero quota.
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(ServeError::BadConfig("shards must be at least 1".into()));
        }
        if self.workers == 0 {
            return Err(ServeError::BadConfig("workers must be at least 1".into()));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::BadConfig("queue_capacity must be at least 1".into()));
        }
        if self.max_batch == 0 {
            return Err(ServeError::BadConfig("max_batch must be at least 1".into()));
        }
        if self.model_quota == Some(0) {
            return Err(ServeError::BadConfig("model_quota must be at least 1 (or None)".into()));
        }
        if let Some(b) = &self.breaker {
            b.validate()?;
        }
        if let Some(d) = &self.degrade {
            d.validate()?;
        }
        if self.supervise_interval.is_zero() {
            return Err(ServeError::BadConfig("supervise_interval must be positive".into()));
        }
        if self.hang_timeout <= self.supervise_interval {
            return Err(ServeError::BadConfig(
                "hang_timeout must exceed supervise_interval, or every idle heartbeat \
                 gap reads as a hang"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// Tuning of the per-model circuit breaker (see
/// [`ServeError::CircuitOpen`]).
///
/// The breaker counts *consecutive* dispatch failures
/// ([`ServeError::WorkerPanic`] / [`ServeError::Inference`]); at
/// `threshold` it opens and fast-fails admissions for `backoff`. It then
/// half-opens: up to `probes` requests are admitted as probes; one
/// probe success closes the circuit (and resets the backoff), one probe
/// failure re-opens it with the backoff doubled, capped at
/// `backoff_max`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive dispatch failures that open the circuit.
    pub threshold: u32,
    /// How long the circuit stays open after the first trip.
    pub backoff: Duration,
    /// Ceiling of the exponential backoff across repeated re-opens.
    pub backoff_max: Duration,
    /// Concurrent probe admissions while half-open.
    pub probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            threshold: 5,
            backoff: Duration::from_millis(100),
            backoff_max: Duration::from_secs(5),
            probes: 1,
        }
    }
}

impl BreakerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for zero knobs or a backoff cap
    /// below the base backoff.
    pub fn validate(&self) -> Result<()> {
        if self.threshold == 0 || self.probes == 0 {
            return Err(ServeError::BadConfig(
                "breaker threshold and probes must be at least 1".into(),
            ));
        }
        if self.backoff.is_zero() {
            return Err(ServeError::BadConfig("breaker backoff must be positive".into()));
        }
        if self.backoff_max < self.backoff {
            return Err(ServeError::BadConfig(
                "breaker backoff_max must be at least the base backoff".into(),
            ));
        }
        Ok(())
    }
}

/// Tuning of adaptive ensemble degradation — the paper's Table 3
/// accuracy-for-cost dial turned into a runtime controller.
///
/// Every supervise tick the controller computes the queue-wait p95 over
/// the requests recorded *since the previous tick*. Above `target_p95`
/// the degradation level rises by one (each level drops one ensemble
/// member from the served prefix, floored at one member); only after
/// `release_ticks` consecutive calm ticks (p95 under half the target, or
/// no traffic) does it step back down — hysteresis, so the dial does not
/// flap on a noisy boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradeConfig {
    /// Queue-wait p95 above which the tier sheds ensemble members.
    pub target_p95: Duration,
    /// Consecutive calm ticks required before restoring one member.
    pub release_ticks: u32,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        DegradeConfig { target_p95: Duration::from_millis(50), release_ticks: 3 }
    }
}

impl DegradeConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for a zero target or zero
    /// release ticks.
    pub fn validate(&self) -> Result<()> {
        if self.target_p95.is_zero() {
            return Err(ServeError::BadConfig("degrade target_p95 must be positive".into()));
        }
        if self.release_ticks == 0 {
            return Err(ServeError::BadConfig("degrade release_ticks must be at least 1".into()));
        }
        Ok(())
    }
}

/// Limits and knobs for the HTTP/1.1 front-end ([`crate::HttpServer`]).
///
/// The defaults are deliberately strict: the hand-rolled parser enforces
/// every bound *before* buffering, so a hostile peer cannot make the
/// server allocate more than `max_head_bytes + max_body_bytes` per
/// connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpConfig {
    /// Largest accepted request head (request line + headers, through the
    /// terminating blank line). Larger heads are rejected with `431`.
    pub max_head_bytes: usize,
    /// Largest accepted request body (`Content-Length`); larger bodies
    /// are rejected with `413` without reading them.
    pub max_body_bytes: usize,
    /// Concurrent connections served; the acceptor answers `503` and
    /// closes once this many handler threads are live (load shedding at
    /// the edge).
    pub max_connections: usize,
    /// Per-read socket timeout: the granularity at which a blocked
    /// handler thread wakes to check its idle deadline.
    pub read_timeout: Duration,
    /// Keep-alive idle deadline: a connection that does not deliver a
    /// complete request within this long of being accepted (or of its
    /// previous response) is answered `408 Request Timeout` and closed,
    /// releasing its connection-cap slot. A slow-loris peer trickling
    /// partial bytes is held to the same deadline. Counted in the
    /// `http_idle_closed` metric. An `idle_timeout` past the clock's
    /// range (`Duration::MAX`) never idles a connection out.
    pub idle_timeout: Duration,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
            max_connections: 64,
            read_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(30),
        }
    }
}

impl HttpConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for zero limits.
    pub fn validate(&self) -> Result<()> {
        if self.max_head_bytes == 0 || self.max_body_bytes == 0 {
            return Err(ServeError::BadConfig("http byte limits must be positive".into()));
        }
        if self.max_connections == 0 {
            return Err(ServeError::BadConfig("max_connections must be at least 1".into()));
        }
        if self.read_timeout.is_zero() {
            return Err(ServeError::BadConfig("read_timeout must be positive".into()));
        }
        if self.idle_timeout.is_zero() {
            return Err(ServeError::BadConfig("idle_timeout must be positive".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(ServeConfig::default().validate().is_ok());
        assert!(HttpConfig::default().validate().is_ok());
    }

    #[test]
    fn default_linger_is_short_and_zero_is_valid() {
        // The default linger is half the 2 ms it used to be, and the
        // work-conserving setting (no linger at all) is a valid config.
        assert_eq!(ServeConfig::default().max_wait, Duration::from_millis(1));
        let no_linger = ServeConfig { max_wait: Duration::ZERO, ..ServeConfig::default() };
        assert!(no_linger.validate().is_ok());
    }

    #[test]
    fn zero_knobs_rejected() {
        for cfg in [
            ServeConfig { shards: 0, ..Default::default() },
            ServeConfig { workers: 0, ..Default::default() },
            ServeConfig { queue_capacity: 0, ..Default::default() },
            ServeConfig { max_batch: 0, ..Default::default() },
            ServeConfig { model_quota: Some(0), ..Default::default() },
            ServeConfig {
                breaker: Some(BreakerConfig { threshold: 0, ..Default::default() }),
                ..Default::default()
            },
            ServeConfig {
                breaker: Some(BreakerConfig { backoff: Duration::ZERO, ..Default::default() }),
                ..Default::default()
            },
            ServeConfig {
                breaker: Some(BreakerConfig {
                    backoff: Duration::from_secs(1),
                    backoff_max: Duration::from_millis(1),
                    ..Default::default()
                }),
                ..Default::default()
            },
            ServeConfig {
                degrade: Some(DegradeConfig { target_p95: Duration::ZERO, ..Default::default() }),
                ..Default::default()
            },
            ServeConfig {
                degrade: Some(DegradeConfig { release_ticks: 0, ..Default::default() }),
                ..Default::default()
            },
            ServeConfig { supervise_interval: Duration::ZERO, ..Default::default() },
            ServeConfig {
                supervise_interval: Duration::from_secs(3),
                hang_timeout: Duration::from_secs(2),
                ..Default::default()
            },
        ] {
            assert!(matches!(cfg.validate(), Err(ServeError::BadConfig(_))));
        }
        for cfg in [
            HttpConfig { max_head_bytes: 0, ..Default::default() },
            HttpConfig { max_body_bytes: 0, ..Default::default() },
            HttpConfig { max_connections: 0, ..Default::default() },
            HttpConfig { read_timeout: Duration::ZERO, ..Default::default() },
            HttpConfig { idle_timeout: Duration::ZERO, ..Default::default() },
        ] {
            assert!(matches!(cfg.validate(), Err(ServeError::BadConfig(_))));
        }
    }
}
