//! Serving telemetry: one record per model, server-wide totals by
//! summation, per-stage breakdowns, op-count/energy metering and
//! shared-pool counters.
//!
//! Recording is lock-free and relaxed (counts need no synchronises-with
//! edges): a [`Counter`] increment or a [`Histogram`] sample costs a few
//! nanoseconds. Latencies land in power-of-two microsecond buckets;
//! percentiles are the matching bucket's upper bound, exact enough for
//! operational monitoring (perfbench's `client.*` metrics time every
//! request exactly, from the client side).
//!
//! * **models** — one [`ModelMetrics`] record per model name: request
//!   counters, latency buckets, batch histogram, quota slots,
//!   version/swaps and the model's circuit breaker. The map is
//!   read-locked once per submit; each request carries its record's
//!   `Arc`, so workers never touch it.
//! * **totals** — a snapshot *sums* the model records into the
//!   server-wide `submitted` … `failed`, latency (buckets first, then
//!   percentiles), batch histogram and `breaker_opens`; nothing is
//!   recorded twice. Only what no model owns — queue-full and breaker
//!   rejections, degraded answers, drain rejections, idle HTTP closes,
//!   respawns, the degrade level and the stage histograms — is
//!   server-wide.
//! * **ops** / **energy_estimate** — the process-wide datapath op
//!   counters ([`mfdfp_obs::ops`]) priced by
//!   [`mfdfp_accel::OpCostModel`]; monotonic since process start.
//! * **pool** — the shared `mfdfp-rt` pool's width and monotonic
//!   counters ([`mfdfp_rt::global_stats`]; reading never instantiates
//!   the pool, so a metrics poll has no side effects).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

use mfdfp_accel::{OpCostModel, OpEnergyEstimate};
use mfdfp_obs::json;
use mfdfp_obs::OpCounters;

use crate::breaker::{BreakerSnapshot, CircuitBreaker};
use crate::config::BreakerConfig;

/// Number of log2 latency buckets: bucket `i` covers `[2^i, 2^{i+1})` µs
/// (bucket 0 also absorbs sub-microsecond latencies), so the top bucket
/// starts at `2^39` µs ≈ 6.4 days — effectively unbounded.
const LATENCY_BUCKETS: usize = 40;

/// A monotonic event counter.
#[derive(Default)]
pub(crate) struct Counter(AtomicU64);

impl Counter {
    pub(crate) fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log2-µs duration histogram: bucket counts (their sum is the
/// observation count) plus the exact sum for the mean.
pub(crate) struct Histogram {
    sum_us: AtomicU64,
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { sum_us: AtomicU64::new(0), buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl Histogram {
    pub(crate) fn record(&self, d: Duration) {
        let us = d.as_micros().min(u128::from(u64::MAX)) as u64;
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        let idx = (us.max(1).ilog2() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Raw bucket counts (cumulative since start). The supervisor
    /// differences two samples of the queue-wait histogram to get one
    /// control tick's distribution.
    pub(crate) fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    fn load(&self) -> HistogramCounts {
        HistogramCounts {
            sum_us: self.sum_us.load(Ordering::Relaxed),
            buckets: self.bucket_counts(),
        }
    }
}

/// A histogram's counts, loaded once. The histogram of a union is the
/// element-wise sum, so a total's percentiles come from summed buckets,
/// never from averaged percentiles.
struct HistogramCounts {
    sum_us: u64,
    buckets: Vec<u64>,
}

impl HistogramCounts {
    fn snapshot(&self) -> StageSnapshot {
        let count = self.buckets.iter().sum();
        StageSnapshot {
            count,
            mean_us: if count == 0 { 0.0 } else { self.sum_us as f64 / count as f64 },
            p50_us: percentile_upper_bound(&self.buckets, 0.50),
            p95_us: percentile_upper_bound(&self.buckets, 0.95),
            p99_us: percentile_upper_bound(&self.buckets, 0.99),
        }
    }
}

fn add_elementwise(into: &mut [u64], from: &[u64]) {
    for (a, b) in into.iter_mut().zip(from) {
        *a += b;
    }
}

/// Batch counts by size with trailing zero sizes trimmed (one entry is
/// always kept).
fn trimmed(mut batches: Vec<u64>) -> Vec<u64> {
    batches.truncate(batches.iter().rposition(|&c| c > 0).map_or(1, |i| i + 1));
    batches
}

/// Live metrics shared between the server, its workers and observers.
/// No field is a sum of per-model fields: totals are computed at
/// snapshot time.
#[derive(Default)]
pub(crate) struct ServerMetrics {
    max_batch: usize,
    models: RwLock<HashMap<String, Arc<ModelMetrics>>>,
    /// Admissions rejected because the shard queue was full.
    pub(crate) rejected: Counter,
    /// Admissions fast-failed by an open circuit breaker.
    pub(crate) breaker_rejected: Counter,
    /// Requests answered in degraded mode (truncated ensemble).
    pub(crate) degraded: Counter,
    /// Queued requests rejected at the bounded-drain deadline.
    pub(crate) shutdown_rejected: Counter,
    /// HTTP connections closed by the keep-alive idle timeout.
    pub(crate) http_idle_closed: Counter,
    /// Worker threads respawned by the watchdog (dead or hung).
    pub(crate) respawns: Counter,
    /// Gauge, not a counter: the adaptive-degradation controller's
    /// current level (ensemble members trimmed). Workers read it per
    /// dispatch; only the supervisor writes it.
    degrade_level: AtomicU64,
    /// Admission→dispatch wait, per request.
    pub(crate) queue_wait: Histogram,
    /// Batched-inference time, per dispatched batch.
    pub(crate) infer: Histogram,
    /// Response materialisation/send time, per dispatched batch.
    pub(crate) respond: Histogram,
}

impl ServerMetrics {
    /// Creates zeroed metrics for a server whose largest batch is
    /// `max_batch`.
    pub(crate) fn new(max_batch: usize) -> Self {
        ServerMetrics { max_batch: max_batch.max(1), ..ServerMetrics::default() }
    }

    /// The record for `name`, created on first use. One read-lock per
    /// call (plus a write-lock the first time a name is seen) — the
    /// server resolves this once at admission and carries the `Arc` with
    /// the request, so workers never touch the map.
    pub(crate) fn model(&self, name: &str) -> Arc<ModelMetrics> {
        if let Some(m) = self.models.read().expect("metrics poisoned").get(name) {
            return Arc::clone(m);
        }
        Arc::clone(
            self.models
                .write()
                .expect("metrics poisoned")
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(ModelMetrics::new(self.max_batch))),
        )
    }

    /// Sets the adaptive-degradation level gauge (supervisor only).
    pub(crate) fn set_degrade_level(&self, level: u64) {
        self.degrade_level.store(level, Ordering::Relaxed);
    }

    /// Current adaptive-degradation level: how many ensemble members the
    /// dispatch path trims (0 = full ensembles). Workers read this once
    /// per dispatched group.
    pub(crate) fn degrade_level(&self) -> u64 {
        self.degrade_level.load(Ordering::Relaxed)
    }

    /// Every admitted model's breaker snapshot, sorted by name (health
    /// surface). A record gets its breaker at its first admission, so a
    /// model only swapped or never submitted to is not listed.
    pub(crate) fn breakers(&self, now: Instant) -> Vec<(String, BreakerSnapshot)> {
        let map = self.models.read().expect("metrics poisoned");
        let mut out: Vec<(String, BreakerSnapshot)> = map
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.breaker.get()?.snapshot(now))))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Takes a consistent-enough point-in-time view (counters are read
    /// individually; relaxed skew of a few requests is acceptable for
    /// monitoring) of a server started at `started`. `shard_depths`
    /// holds each shard's queue depth (sampled by the caller, which owns
    /// the shards); the aggregate `queue_depth` is their sum. `uptime`
    /// and `throughput_rps` come from **one** `elapsed()` sample, so the
    /// reported rate is always reproducible from the reported uptime no
    /// matter how many shards were merged.
    pub(crate) fn snapshot(&self, started: Instant, shard_depths: &[usize]) -> MetricsSnapshot {
        let mut latency = HistogramCounts { sum_us: 0, buckets: vec![0; LATENCY_BUCKETS] };
        let mut breaker_opens = 0;
        let mut models: Vec<ModelSnapshot> = self
            .models
            .read()
            .expect("metrics poisoned")
            .iter()
            .map(|(name, m)| {
                let counts = m.completed.load();
                latency.sum_us += counts.sum_us;
                add_elementwise(&mut latency.buckets, &counts.buckets);
                breaker_opens += m.breaker.get().map_or(0, CircuitBreaker::opens);
                m.snapshot(name.clone(), &counts)
            })
            .collect();
        models.sort_by(|a, b| a.name.cmp(&b.name));
        let sum = |field: fn(&ModelSnapshot) -> u64| models.iter().map(field).sum();
        let (submitted, quota_rejected, shed, failed) =
            (sum(|m| m.submitted), sum(|m| m.quota_rejected), sum(|m| m.shed), sum(|m| m.failed));
        let mut batches = vec![0; self.max_batch];
        for m in &models {
            add_elementwise(&mut batches, &m.batch_histogram);
        }
        let latency = latency.snapshot();
        // One clock sample for both `uptime` and the throughput
        // denominator — two `elapsed()` calls can disagree within a
        // snapshot and make the reported rate irreproducible from the
        // reported uptime.
        let uptime = started.elapsed();
        let ops = mfdfp_obs::ops::counters();
        let pool = mfdfp_rt::global_stats();
        MetricsSnapshot {
            uptime,
            submitted,
            rejected: self.rejected.get(),
            quota_rejected,
            shed,
            completed: latency.count,
            failed,
            queue_depth: shard_depths.iter().sum(),
            shard_depths: shard_depths.to_vec(),
            throughput_rps: latency.count as f64 / uptime.as_secs_f64().max(1e-9),
            mean_latency_us: latency.mean_us,
            p50_latency_us: latency.p50_us,
            p95_latency_us: latency.p95_us,
            p99_latency_us: latency.p99_us,
            batch_histogram: trimmed(batches),
            stages: StagesSnapshot {
                queue_wait: self.queue_wait.load().snapshot(),
                infer: self.infer.load().snapshot(),
                respond: self.respond.load().snapshot(),
            },
            models,
            breaker_rejected: self.breaker_rejected.get(),
            breaker_opens,
            respawns: self.respawns.get(),
            degraded: self.degraded.get(),
            degrade_level: self.degrade_level(),
            shutdown_rejected: self.shutdown_rejected.get(),
            http_idle_closed: self.http_idle_closed.get(),
            ops,
            energy: OpCostModel::calibrated_65nm().estimate(&ops),
            pool_threads: pool.threads,
            pool_tasks_run: pool.tasks_run,
            pool_steals: pool.steals,
            pool_idle_parks: pool.idle_parks,
        }
    }
}

/// One model's record, handed to workers as an `Arc` at admission (keyed
/// by model name in [`ServerMetrics::model`], mirroring the
/// [`ModelRegistry`](crate::ModelRegistry) keying).
#[derive(Default)]
pub(crate) struct ModelMetrics {
    /// Requests accepted into the queue.
    pub(crate) submitted: Counter,
    /// Admissions rejected by this model's in-flight quota.
    pub(crate) quota_rejected: Counter,
    /// Requests shed at their deadline, before inference.
    pub(crate) shed: Counter,
    /// Requests that failed in the datapath.
    pub(crate) failed: Counter,
    /// End-to-end latency of every answered request; its count is the
    /// model's `completed`.
    pub(crate) completed: Histogram,
    /// Index `i` counts dispatched batches of size `i + 1`.
    batch_buckets: Vec<AtomicU64>,
    /// Requests admitted but not yet answered/failed/shed — the
    /// admission token the per-model quota gates on.
    in_flight: AtomicU64,
    /// Registry version observed at the latest admission/swap.
    version: AtomicU64,
    /// Hot swaps recorded against this model (via `Server::swap_model`).
    swaps: AtomicU64,
    /// The model's circuit breaker: created closed at its first
    /// admission ([`ModelMetrics::breaker_or_init`]), never when
    /// breakers are disabled.
    pub(crate) breaker: OnceLock<CircuitBreaker>,
}

impl ModelMetrics {
    fn new(max_batch: usize) -> Self {
        let batch_buckets = (0..max_batch.max(1)).map(|_| AtomicU64::new(0)).collect();
        ModelMetrics { batch_buckets, ..ModelMetrics::default() }
    }

    /// Records one dispatched batch of `size` requests for this model.
    pub(crate) fn record_batch(&self, size: usize) {
        let idx = size.clamp(1, self.batch_buckets.len()) - 1;
        self.batch_buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Attempts to take one in-flight admission slot. With `quota:
    /// Some(q)` the acquisition fails (and nothing is counted) once `q`
    /// requests are in flight; with `None` it always succeeds. Every
    /// successful acquisition must be paired with a
    /// [`ModelMetrics::release_slot`] (or [`ModelMetrics::discard`])
    /// when the request reaches a terminal state.
    pub(crate) fn try_acquire_slot(&self, quota: Option<u64>) -> bool {
        self.in_flight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| match quota {
                Some(q) if n >= q => None,
                _ => Some(n + 1),
            })
            .is_ok()
    }

    /// Releases one in-flight admission slot (saturating — a stray
    /// release can never underflow).
    pub(crate) fn release_slot(&self) {
        let _ =
            self.in_flight.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
    }

    /// Notes the registry version a request resolved at admission (keeps
    /// the reported version fresh even if swaps bypass the server).
    pub(crate) fn note_version(&self, version: u64) {
        self.version.store(version, Ordering::Relaxed);
    }

    /// Records a hot swap to `new_version` against this model.
    pub(crate) fn record_swap(&self, new_version: u64) {
        self.version.store(new_version, Ordering::Relaxed);
        self.swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// The model's breaker, created closed from `cfg` on first use — the
    /// admission path calls this, so only admitted models have one.
    pub(crate) fn breaker_or_init(&self, cfg: &BreakerConfig) -> &CircuitBreaker {
        self.breaker.get_or_init(|| CircuitBreaker::new(cfg.clone()))
    }

    /// An admitted request left the tier without a dispatch outcome
    /// (rejected by its queue, shed at its deadline, or rejected by the
    /// shutdown drain): frees its quota slot and any breaker probe slot
    /// it held, judging nothing.
    pub(crate) fn discard(&self) {
        self.release_slot();
        if let Some(breaker) = self.breaker.get() {
            breaker.record_discarded();
        }
    }

    fn snapshot(&self, name: String, completed: &HistogramCounts) -> ModelSnapshot {
        let latency = completed.snapshot();
        ModelSnapshot {
            name,
            submitted: self.submitted.get(),
            quota_rejected: self.quota_rejected.get(),
            shed: self.shed.get(),
            completed: latency.count,
            failed: self.failed.get(),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            version: self.version.load(Ordering::Relaxed),
            swaps: self.swaps.load(Ordering::Relaxed),
            mean_latency_us: latency.mean_us,
            p50_latency_us: latency.p50_us,
            p95_latency_us: latency.p95_us,
            p99_latency_us: latency.p99_us,
            batch_histogram: trimmed(
                self.batch_buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            ),
        }
    }
}

/// Upper bound (µs) of the bucket holding the `q`-quantile observation;
/// 0 when nothing was recorded. `pub(crate)` so the supervisor can run
/// the same estimator over per-tick bucket deltas.
pub(crate) fn percentile_upper_bound(buckets: &[u64], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = (q * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return 2f64.powi(i as i32 + 1);
        }
    }
    2f64.powi(buckets.len() as i32)
}

/// Percentile view of one histogram series (a pipeline stage, or a
/// model's latency): count, mean and bucket-upper-bound percentiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Mean duration in microseconds.
    pub mean_us: f64,
    /// Median (bucket upper bound), microseconds.
    pub p50_us: f64,
    /// 95th percentile (bucket upper bound), microseconds.
    pub p95_us: f64,
    /// 99th percentile (bucket upper bound), microseconds.
    pub p99_us: f64,
}

/// The pipeline-stage breakdown of a snapshot: where a request's
/// end-to-end latency goes. `queue_wait` is per request
/// (admission → dispatch); `infer` and `respond` are per dispatched
/// batch (so their counts track batches, not requests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagesSnapshot {
    /// Admission→dispatch wait, per request.
    pub queue_wait: StageSnapshot,
    /// Batched-inference time, per dispatched batch.
    pub infer: StageSnapshot,
    /// Response materialisation/send time, per dispatched batch.
    pub respond: StageSnapshot,
}

/// One model's slice of a snapshot (sorted by name in
/// [`MetricsSnapshot::models`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSnapshot {
    /// Registry name the model serves under.
    pub name: String,
    /// Requests accepted into the queue for this model.
    pub submitted: u64,
    /// Admissions rejected by this model's in-flight quota.
    pub quota_rejected: u64,
    /// Requests shed by the batcher (deadline expired before inference).
    pub shed: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests that failed in the datapath.
    pub failed: u64,
    /// Requests currently in flight (admitted, not yet terminal).
    pub in_flight: u64,
    /// Registry version at the latest admission or recorded swap (0
    /// before any request resolved this model).
    pub version: u64,
    /// Hot swaps recorded against this model.
    pub swaps: u64,
    /// Mean end-to-end latency in microseconds.
    pub mean_latency_us: f64,
    /// Median latency (bucket upper bound), microseconds.
    pub p50_latency_us: f64,
    /// 95th-percentile latency (bucket upper bound), microseconds.
    pub p95_latency_us: f64,
    /// 99th-percentile latency (bucket upper bound), microseconds.
    pub p99_latency_us: f64,
    /// `batch_histogram[i]` = dispatched batches of size `i+1` for this
    /// model (trailing zero sizes trimmed).
    pub batch_histogram: Vec<u64>,
}

/// A point-in-time metrics view, exportable as JSON. The request totals
/// (`submitted` … `failed`, the latency fields, `batch_histogram`,
/// `breaker_opens`) are sums over [`models`](Self::models).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Time since the metrics (server) were created. The reported
    /// `throughput_rps` uses this exact sample as its denominator.
    pub uptime: Duration,
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests rejected by admission control (queue full).
    pub rejected: u64,
    /// Requests rejected by a per-model in-flight quota.
    pub quota_rejected: u64,
    /// Requests shed by the batcher: their deadline expired before
    /// inference started, so the datapath never ran for them. Every
    /// admitted request ends in exactly one of `completed`, `failed`,
    /// `shed` or `shutdown_rejected` — after a drain,
    /// `completed + failed + shed + shutdown_rejected == submitted`.
    pub shed: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests that failed in the datapath.
    pub failed: u64,
    /// Items queued at snapshot time, summed across shards.
    pub queue_depth: usize,
    /// Per-shard queue depths (one entry per shard, in shard order); the
    /// aggregate `queue_depth` is their sum and shares the same single
    /// clock sample as `uptime`/`throughput_rps`.
    pub shard_depths: Vec<usize>,
    /// Completed requests per second since start-up.
    pub throughput_rps: f64,
    /// Mean end-to-end latency in microseconds.
    pub mean_latency_us: f64,
    /// Median latency (bucket upper bound), microseconds.
    pub p50_latency_us: f64,
    /// 95th-percentile latency (bucket upper bound), microseconds.
    pub p95_latency_us: f64,
    /// 99th-percentile latency (bucket upper bound), microseconds.
    pub p99_latency_us: f64,
    /// `batch_histogram[i]` = number of dispatched batches of size `i+1`
    /// (trailing zero sizes trimmed).
    pub batch_histogram: Vec<u64>,
    /// Queue-wait / inference / response-send breakdown.
    pub stages: StagesSnapshot,
    /// Per-model series, sorted by model name. A model appears once its
    /// first request passes admission validation, or once it is swapped.
    pub models: Vec<ModelSnapshot>,
    /// Admissions fast-failed by an open circuit breaker.
    pub breaker_rejected: u64,
    /// Times any model's circuit (re-)opened.
    pub breaker_opens: u64,
    /// Worker threads respawned by the watchdog (dead or hung).
    pub respawns: u64,
    /// Requests answered in degraded mode (truncated ensemble prefix).
    pub degraded: u64,
    /// Adaptive-degradation level at snapshot time (gauge; 0 = full
    /// ensembles).
    pub degrade_level: u64,
    /// Queued requests rejected at the bounded-drain deadline
    /// ([`ServeError::ShuttingDown`](crate::ServeError::ShuttingDown)).
    pub shutdown_rejected: u64,
    /// HTTP keep-alive connections closed by the idle timeout.
    pub http_idle_closed: u64,
    /// Process-wide datapath op counters (monotonic since process
    /// start).
    pub ops: OpCounters,
    /// [`ops`](Self::ops) priced by the calibrated 65 nm
    /// [`OpCostModel`] — the live shift-add-vs-multiply energy story.
    pub energy: OpEnergyEstimate,
    /// Width of the shared `mfdfp-rt` pool (workers + helping caller);
    /// `0` until a kernel first has work above the dispatch threshold.
    /// Serving itself never consults the pool: a batch of any model mix
    /// runs on the worker that popped it.
    pub pool_threads: usize,
    /// Pool tasks run since process start: the kernels' row and sample
    /// chunks, never a serve group (counted at execution start, so an
    /// in-flight task is already included).
    pub pool_tasks_run: u64,
    /// Pool tasks executed by a thread other than their submitter.
    pub pool_steals: u64,
    /// Times a pool worker parked on an empty queue.
    pub pool_idle_parks: u64,
}

impl MetricsSnapshot {
    /// Largest batch size that was actually dispatched (0 before any
    /// dispatch).
    pub fn max_batch_observed(&self) -> usize {
        self.batch_histogram.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1)
    }

    /// Serialises the snapshot as one JSON object (the `GET /v1/metrics`
    /// body) with a fixed key order and number precision: the request
    /// totals, queue depths, `throughput_rps`, `latency_us` and
    /// `batch_histogram`, then the `stages`, `models`, `resilience`,
    /// `ops`, `energy_estimate` and `pool` objects. README "Metrics &
    /// capacity tuning" shows and explains a document; `tests/golden.rs`
    /// pins its bytes.
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.key("uptime_s").fixed(self.uptime.as_secs_f64(), 3);
            w.key("submitted").raw(self.submitted);
            w.key("rejected").raw(self.rejected);
            w.key("quota_rejected").raw(self.quota_rejected);
            w.key("shed").raw(self.shed);
            w.key("completed").raw(self.completed);
            w.key("failed").raw(self.failed);
            w.key("queue_depth").raw(self.queue_depth);
            w.key("shard_depths").values(&self.shard_depths);
            w.key("throughput_rps").fixed(self.throughput_rps, 2);
            w.key("latency_us").object(|w| {
                w.key("mean").fixed(self.mean_latency_us, 1);
                w.key("p50").fixed(self.p50_latency_us, 1);
                w.key("p95").fixed(self.p95_latency_us, 1);
                w.key("p99").fixed(self.p99_latency_us, 1);
            });
            w.key("batch_histogram").values(&self.batch_histogram);
            w.key("stages").object(|w| {
                let stages = &self.stages;
                for (name, s) in [
                    ("queue_wait", &stages.queue_wait),
                    ("infer", &stages.infer),
                    ("respond", &stages.respond),
                ] {
                    w.key(name).object(|w| {
                        w.key("count").raw(s.count);
                        w.key("mean").fixed(s.mean_us, 1);
                        w.key("p50").fixed(s.p50_us, 1);
                        w.key("p95").fixed(s.p95_us, 1);
                        w.key("p99").fixed(s.p99_us, 1);
                    });
                }
            });
            w.key("models").object(|w| {
                for m in &self.models {
                    w.key(&m.name).object(|w| {
                        w.key("submitted").raw(m.submitted);
                        w.key("quota_rejected").raw(m.quota_rejected);
                        w.key("shed").raw(m.shed);
                        w.key("completed").raw(m.completed);
                        w.key("failed").raw(m.failed);
                        w.key("in_flight").raw(m.in_flight);
                        w.key("version").raw(m.version);
                        w.key("swaps").raw(m.swaps);
                        w.key("latency_us").object(|w| {
                            w.key("mean").fixed(m.mean_latency_us, 1);
                            w.key("p50").fixed(m.p50_latency_us, 1);
                            w.key("p95").fixed(m.p95_latency_us, 1);
                            w.key("p99").fixed(m.p99_latency_us, 1);
                        });
                        w.key("batch_histogram").values(&m.batch_histogram);
                    });
                }
            });
            w.key("resilience").object(|w| {
                w.key("respawns").raw(self.respawns);
                w.key("breaker_rejected").raw(self.breaker_rejected);
                w.key("breaker_opens").raw(self.breaker_opens);
                w.key("degraded").raw(self.degraded);
                w.key("degrade_level").raw(self.degrade_level);
                w.key("shutdown_rejected").raw(self.shutdown_rejected);
                w.key("http_idle_closed").raw(self.http_idle_closed);
            });
            w.key("ops").object(|w| {
                w.key("shift_macs").raw(self.ops.shift_macs);
                w.key("im2col_bytes").raw(self.ops.im2col_bytes);
                w.key("decode_rows").raw(self.ops.decode_rows);
                w.key("overflow_audits").raw(self.ops.overflow_audits);
            });
            w.key("energy_estimate").object(|w| {
                w.key("mac_uj").fixed(self.energy.mac_uj, 3);
                w.key("sram_uj").fixed(self.energy.sram_uj, 3);
                w.key("total_uj").fixed(self.energy.total_uj, 3);
                w.key("fp32_baseline_uj").fixed(self.energy.fp32_baseline_uj, 3);
                w.key("saving_pct").fixed(self.energy.saving_pct, 2);
            });
            w.key("pool").object(|w| {
                w.key("threads").raw(self.pool_threads);
                w.key("tasks_run").raw(self.pool_tasks_run);
                w.key("steals").raw(self.pool_steals);
                w.key("idle_parks").raw(self.pool_idle_parks);
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(m: &ServerMetrics, depth: usize) -> MetricsSnapshot {
        m.snapshot(Instant::now(), &[depth])
    }

    #[test]
    fn counters_accumulate() {
        let m = ServerMetrics::new(8);
        let mm = m.model("tiny");
        mm.submitted.inc();
        mm.submitted.inc();
        m.rejected.inc();
        mm.completed.record(Duration::from_micros(100));
        mm.failed.inc();
        let s = snapshot(&m, 3);
        assert_eq!((s.submitted, s.rejected, s.completed, s.failed), (2, 1, 1, 1));
        assert_eq!(s.queue_depth, 3);
        assert!(s.throughput_rps > 0.0);
    }

    #[test]
    fn batch_histogram_counts_sizes() {
        let m = ServerMetrics::new(4);
        let mm = m.model("tiny");
        mm.record_batch(1);
        mm.record_batch(3);
        mm.record_batch(3);
        mm.record_batch(9); // clamped into the top bucket
        let s = snapshot(&m, 0);
        assert_eq!(s.batch_histogram, vec![1, 0, 2, 1]);
        assert_eq!(s.max_batch_observed(), 4);
    }

    #[test]
    fn percentiles_track_bucket_bounds() {
        let m = ServerMetrics::new(1);
        // 99 fast requests (~16 µs bucket) and one slow outlier (~1 ms),
        // split over two models: the totals' percentiles come from the
        // summed buckets.
        for i in 0..99 {
            m.model(if i % 2 == 0 { "a" } else { "b" }).completed.record(Duration::from_micros(16));
        }
        m.model("b").completed.record(Duration::from_micros(1000));
        let s = snapshot(&m, 0);
        assert_eq!(s.p50_latency_us, 32.0);
        assert_eq!(s.p95_latency_us, 32.0);
        // The p99 rank (ceil(0.99·100) = 99) still lands in the fast
        // bucket; only p100 would hit the outlier.
        assert_eq!(s.p99_latency_us, 32.0);
        assert!(s.mean_latency_us > 16.0);
        // Model "b" alone: 49 fast + the outlier; its p99 is the outlier.
        assert_eq!(s.models[1].p99_latency_us, 1024.0);
    }

    #[test]
    fn empty_snapshot_is_zeroed() {
        let s = snapshot(&ServerMetrics::new(2), 0);
        assert_eq!(s.p50_latency_us, 0.0);
        assert_eq!(s.mean_latency_us, 0.0);
        assert_eq!(s.max_batch_observed(), 0);
        assert_eq!(s.batch_histogram, vec![0]);
        assert!(s.models.is_empty());
        assert_eq!(s.stages.queue_wait.count, 0);
        assert_eq!(s.stages.infer.count, 0);
        assert_eq!(s.stages.respond.count, 0);
    }

    #[test]
    fn uptime_and_throughput_share_one_clock_sample() {
        let m = ServerMetrics::new(1);
        let mm = m.model("tiny");
        for _ in 0..1000 {
            mm.completed.record(Duration::from_micros(10));
        }
        let s = snapshot(&m, 0);
        // The reported rate must be exactly reproducible from the
        // reported uptime — the two fields come from one clock sample.
        let expected = s.completed as f64 / s.uptime.as_secs_f64().max(1e-9);
        assert_eq!(s.throughput_rps, expected);
    }

    #[test]
    fn sharded_snapshot_merges_depths_and_keeps_one_clock_sample() {
        let (m, started) = (ServerMetrics::new(1), Instant::now());
        let mm = m.model("tiny");
        for _ in 0..500 {
            mm.completed.record(Duration::from_micros(10));
        }
        // The regression this pins: merging per-shard depths must not
        // introduce a second `elapsed()` sample — uptime and throughput
        // still agree exactly, for any number of shards.
        for depths in [vec![0usize], vec![3, 0, 7], vec![1, 2, 3, 4, 5, 6, 7, 8]] {
            let s = m.snapshot(started, &depths);
            assert_eq!(s.shard_depths, depths);
            assert_eq!(s.queue_depth, depths.iter().sum::<usize>());
            let expected = s.completed as f64 / s.uptime.as_secs_f64().max(1e-9);
            assert_eq!(
                s.throughput_rps, expected,
                "shard-merged snapshot must sample elapsed() exactly once"
            );
        }
    }

    #[test]
    fn shed_and_quota_counters_accumulate() {
        let m = ServerMetrics::new(2);
        let (tiny, other) = (m.model("tiny"), m.model("other"));
        tiny.shed.inc();
        other.shed.inc();
        tiny.quota_rejected.inc();
        let s = snapshot(&m, 0);
        assert_eq!((s.shed, s.quota_rejected), (2, 1));
        assert_eq!((s.models[1].shed, s.models[1].quota_rejected), (1, 1));
        let json = s.to_json();
        assert!(json.contains("\"shed\":2"), "{json}");
        assert!(json.contains("\"quota_rejected\":1"), "{json}");
        assert!(json.contains("\"shard_depths\":[0]"), "{json}");
    }

    #[test]
    fn quota_slots_gate_and_release() {
        let mm = ModelMetrics::new(1);
        let in_flight = || mm.in_flight.load(Ordering::Relaxed);
        assert!(mm.try_acquire_slot(Some(2)));
        assert!(mm.try_acquire_slot(Some(2)));
        assert!(!mm.try_acquire_slot(Some(2)), "third slot must be refused at quota 2");
        assert_eq!(in_flight(), 2);
        mm.release_slot();
        assert!(mm.try_acquire_slot(Some(2)));
        // Unlimited admission still counts in-flight.
        assert!(mm.try_acquire_slot(None));
        assert_eq!(in_flight(), 3);
        // A discard frees the slot like a terminal answer does.
        mm.discard();
        assert_eq!(in_flight(), 2);
        for _ in 0..10 {
            mm.release_slot(); // saturating: never underflows
        }
        assert_eq!(in_flight(), 0);
    }

    #[test]
    fn versions_and_swaps_are_reported() {
        let m = ServerMetrics::new(1);
        let mm = m.model("hot");
        mm.note_version(1);
        mm.record_swap(2);
        mm.record_swap(3);
        let s = snapshot(&m, 0);
        assert_eq!((s.models[0].version, s.models[0].swaps), (3, 2));
        let json = s.to_json();
        assert!(json.contains("\"version\":3"), "{json}");
        assert!(json.contains("\"swaps\":2"), "{json}");
    }

    #[test]
    fn stage_histograms_record_independently() {
        let m = ServerMetrics::new(4);
        m.queue_wait.record(Duration::from_micros(100));
        m.queue_wait.record(Duration::from_micros(100));
        m.infer.record(Duration::from_micros(700));
        m.respond.record(Duration::from_micros(3));
        let s = snapshot(&m, 0);
        assert_eq!(s.stages.queue_wait.count, 2);
        assert_eq!(s.stages.infer.count, 1);
        assert_eq!(s.stages.respond.count, 1);
        assert!((s.stages.queue_wait.mean_us - 100.0).abs() < 1e-9);
        assert_eq!(s.stages.infer.p50_us, 1024.0); // bucket [512, 1024)
        assert!(s.stages.respond.p99_us <= 4.0);
    }

    #[test]
    fn per_model_series_accumulate_and_sort() {
        let m = ServerMetrics::new(4);
        let b = m.model("beta");
        let a = m.model("alpha");
        assert!(Arc::ptr_eq(&a, &m.model("alpha")), "same name, same series");
        a.submitted.inc();
        a.record_batch(2);
        a.completed.record(Duration::from_micros(64));
        b.submitted.inc();
        b.record_batch(1);
        b.failed.inc();
        let s = snapshot(&m, 0);
        assert_eq!(s.models.len(), 2);
        assert_eq!(s.models[0].name, "alpha");
        assert_eq!(s.models[1].name, "beta");
        assert_eq!((s.models[0].submitted, s.models[0].completed), (1, 1));
        assert_eq!(s.models[0].batch_histogram, vec![0, 1]);
        assert!(s.models[0].mean_latency_us > 0.0);
        assert_eq!((s.models[1].submitted, s.models[1].failed), (1, 1));
        assert_eq!(s.models[1].batch_histogram, vec![1]);
        // The totals are the model records summed, histograms element-wise.
        assert_eq!((s.submitted, s.completed, s.failed), (2, 1, 1));
        assert_eq!(s.batch_histogram, vec![1, 1]);
        assert_eq!(s.mean_latency_us, s.models[0].mean_latency_us);
    }

    #[test]
    fn json_snapshot_is_well_formed() {
        let m = ServerMetrics::new(2);
        let mm = m.model("tiny");
        mm.submitted.inc();
        mm.record_batch(2);
        mm.completed.record(Duration::from_micros(50));
        m.queue_wait.record(Duration::from_micros(20));
        let json = snapshot(&m, 1).to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"submitted\":1",
            "\"queue_depth\":1",
            "\"batch_histogram\":[0,1]",
            "\"p95\":",
            "\"stages\":{\"queue_wait\":{\"count\":1",
            "\"infer\":{\"count\":0",
            "\"respond\":{\"count\":0",
            "\"models\":{\"tiny\":{\"submitted\":1",
            "\"resilience\":{\"respawns\":0",
            "\"breaker_opens\":0",
            "\"degrade_level\":0",
            "\"http_idle_closed\":0",
            "\"ops\":{\"shift_macs\":",
            "\"overflow_audits\":",
            "\"energy_estimate\":{\"mac_uj\":",
            "\"saving_pct\":",
            "\"pool\":{\"threads\":",
            "\"tasks_run\":",
            "\"idle_parks\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Balanced braces/brackets (cheap well-formedness check without a
        // JSON parser in the dependency-free workspace).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn resilience_counters_and_gauge_accumulate() {
        let m = ServerMetrics::new(1);
        let cfg = BreakerConfig {
            threshold: 1,
            backoff: Duration::from_secs(1),
            backoff_max: Duration::from_secs(1),
            probes: 1,
        };
        m.respawns.inc();
        m.breaker_rejected.inc();
        m.breaker_rejected.inc();
        m.model("a").breaker_or_init(&cfg).record_failure(Instant::now());
        m.degraded.inc();
        m.shutdown_rejected.inc();
        m.http_idle_closed.inc();
        m.set_degrade_level(2);
        assert_eq!(m.degrade_level(), 2);
        let s = snapshot(&m, 0);
        assert_eq!(s.respawns, 1);
        assert_eq!(s.breaker_rejected, 2);
        assert_eq!(s.breaker_opens, 1, "the sum of every model breaker's opens");
        assert_eq!(s.degraded, 1);
        assert_eq!(s.degrade_level, 2);
        assert_eq!(s.shutdown_rejected, 1);
        assert_eq!(s.http_idle_closed, 1);
        let json = s.to_json();
        assert!(json.contains("\"breaker_rejected\":2"), "{json}");
        assert!(json.contains("\"degrade_level\":2"), "{json}");
        // The gauge is a gauge: it moves both ways.
        m.set_degrade_level(0);
        assert_eq!(m.degrade_level(), 0);
    }

    #[test]
    fn queue_wait_buckets_expose_cumulative_counts_for_deltas() {
        let m = ServerMetrics::new(1);
        let before = m.queue_wait.bucket_counts();
        assert_eq!(before.iter().sum::<u64>(), 0);
        m.queue_wait.record(Duration::from_micros(100));
        m.queue_wait.record(Duration::from_micros(100_000));
        let after = m.queue_wait.bucket_counts();
        let delta: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
        assert_eq!(delta.iter().sum::<u64>(), 2);
        // The same estimator the snapshot uses works on the delta.
        assert!(percentile_upper_bound(&delta, 0.95) >= 100_000.0);
    }

    #[test]
    fn json_escapes_model_names() {
        let m = ServerMetrics::new(1);
        m.model("we\"ird\\name");
        let json = snapshot(&m, 0).to_json();
        assert!(json.contains("\"we\\\"ird\\\\name\":{"), "{json}");
    }

    #[test]
    fn ops_and_energy_are_live_and_coherent() {
        mfdfp_obs::ops::record_shift_macs(1000);
        let s = snapshot(&ServerMetrics::new(1), 0);
        // The counters are process-global and other tests in this binary
        // run real inference, so only lower bounds and coherence hold.
        assert!(s.ops.shift_macs >= 1000);
        assert!(s.energy.mac_uj > 0.0);
        assert!(s.energy.fp32_baseline_uj >= s.energy.total_uj);
        assert!((s.energy.total_uj - (s.energy.mac_uj + s.energy.sram_uj)).abs() < 1e-9);
    }

    #[test]
    fn pool_fields_are_coherent() {
        // The snapshot samples the process-wide pool: either nothing has
        // engaged it yet (all zeros incl. width) or it reports its real
        // width and monotonic counters.
        let s = snapshot(&ServerMetrics::new(1), 0);
        if s.pool_threads == 0 {
            assert_eq!((s.pool_tasks_run, s.pool_steals, s.pool_idle_parks), (0, 0, 0));
        } else {
            assert!(s.pool_steals <= s.pool_tasks_run);
        }
        let later = snapshot(&ServerMetrics::new(1), 0);
        assert!(later.pool_tasks_run >= s.pool_tasks_run, "pool counters are monotonic");
    }
}
