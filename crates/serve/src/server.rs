//! The serving runtime: admission control → shard routing → bounded
//! queues → micro-batcher worker pools → batched integer inference →
//! per-request responses.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mfdfp_tensor::Tensor;

use mfdfp_obs::json;

use crate::breaker::{Admission, BreakerSnapshot};
use crate::config::ServeConfig;
use crate::error::{Result, ServeError};
use crate::fault;
use crate::metrics::{MetricsSnapshot, ModelMetrics, ServerMetrics};
use crate::queue::PushRejection;
use crate::registry::{ModelRegistry, ServedModel};
use crate::shard::Shard;
use crate::supervisor::Supervisor;

/// A finished inference answer.
#[derive(Debug, Clone)]
pub struct Response {
    /// Name of the model that served the request.
    pub model: String,
    /// Registry version of the model that served the request (1 for a
    /// fresh registration, bumped on every replacement/hot swap). Under a
    /// concurrent [`Server::swap_model`] this tells the caller *which*
    /// weights answered: always exactly one version's, never a mix.
    pub version: u64,
    /// Dequantized logits (`classes` values) — byte-identical to a direct
    /// [`mfdfp_core::QuantizedNet::logits`] call on the same input.
    pub logits: Tensor,
    /// `argmax` of the logits: the predicted class.
    pub class: usize,
    /// Size of the coalesced batch this request was dispatched in.
    pub batch_size: usize,
    /// End-to-end latency: admission to response (queue wait + inference).
    pub latency: std::time::Duration,
    /// Whether this answer was served in degraded mode: the adaptive
    /// degradation controller trimmed ensemble members to shed compute
    /// under overload. A degraded answer is still bit-identical to a
    /// standalone ensemble of the served prefix — smaller ensemble, not
    /// different arithmetic. Always `false` for single models. Surfaced
    /// over HTTP as the `x-mfdfp-degraded: 1` header and the `degraded`
    /// JSON field.
    pub degraded: bool,
}

/// A claim on a response that has not necessarily been computed yet.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Response>>,
}

impl Ticket {
    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// Propagates serving/inference errors; [`ServeError::Closed`] if the
    /// server was torn down before answering.
    pub fn wait(self) -> Result<Response> {
        self.rx.recv().unwrap_or(Err(ServeError::Closed))
    }
}

/// Scheduling class of a submission (see [`SubmitOptions::priority`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Throughput lane: batched with whatever else is queued when a
    /// worker comes free, up to `max_batch`, plus whatever arrives
    /// within the `max_wait` linger (none when it is zero).
    #[default]
    Normal,
    /// Latency lane: popped ahead of every normal-lane request and never
    /// coalesced with them, so it overtakes a backlog instead of joining
    /// it; a priority arrival also cuts a linger in progress short.
    High,
}

/// Per-request admission options for [`Server::submit_with`].
///
/// `Default` reproduces [`Server::submit`]: no deadline, normal priority.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Time budget from admission. A request still queued when its budget
    /// expires is *shed*: answered with [`ServeError::DeadlineExceeded`]
    /// at batch formation, before any datapath time is spent on it, and
    /// counted in the `shed` metrics. `None` never sheds, and neither
    /// does a budget too large to add to the admission instant (such as
    /// `Duration::MAX`).
    pub deadline: Option<Duration>,
    /// Scheduling class; see [`Priority`].
    pub priority: Priority,
}

/// One queued unit of work. The model is resolved at admission so workers
/// skip the registry and removal cannot strand in-flight requests; the
/// model's record (metrics series, quota slot, circuit breaker) rides
/// along the same way, so workers never touch the name-keyed map either.
pub(crate) struct Request {
    pub(crate) model_name: String,
    pub(crate) model: ServedModel,
    pub(crate) version: u64,
    pub(crate) metrics_model: Arc<ModelMetrics>,
    pub(crate) image: Tensor,
    pub(crate) submitted: Instant,
    /// Flight-recorder timestamp of admission, so the
    /// exported trace can show each request's queue-wait span.
    pub(crate) submitted_ns: u64,
    /// Absolute shed deadline (admission time + the caller's budget;
    /// `None` when there is none or it lies beyond `Instant`'s range).
    pub(crate) deadline: Option<Instant>,
    pub(crate) tx: mpsc::Sender<Result<Response>>,
}

/// A sharded, multi-threaded dynamic-batching inference server over a
/// [`ModelRegistry`].
///
/// Lifecycle: [`Server::start`] spawns `shards × workers` worker threads
/// across [`ServeConfig::shards`] independent queue+pool units;
/// [`Server::submit`] / [`Server::submit_with`] perform admission control
/// (model resolution, input validation, per-model quota) and route to
/// `hash(model) % shards`; workers take the queued backlog in batches
/// (bounded by `max_batch`, held open at most `max_wait`), shed the
/// requests whose deadline already passed, and dispatch the rest through the
/// batched integer datapath; [`Server::swap_model`] hot-swaps a model's
/// weights with zero downtime; [`Server::shutdown`] (or drop) closes the
/// queues, drains them and joins the workers.
pub struct Server {
    started: Instant,
    registry: Arc<ModelRegistry>,
    shards: Vec<Shard>,
    metrics: Arc<ServerMetrics>,
    supervisor: Supervisor,
    config: ServeConfig,
}

impl Server {
    /// Validates `config`, spawns the per-shard worker pools and the
    /// supervisor thread (worker watchdog + adaptive degradation
    /// controller; see the `supervisor` module docs).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for invalid knobs.
    pub fn start(registry: Arc<ModelRegistry>, config: ServeConfig) -> Result<Server> {
        config.validate()?;
        let started = Instant::now();
        let metrics = Arc::new(ServerMetrics::new(config.max_batch));
        let shards =
            (0..config.shards).map(|id| Shard::start(id, &config, &metrics)).collect::<Vec<_>>();
        let supervisor = Supervisor::start(shards.clone(), Arc::clone(&metrics), config.clone());
        Ok(Server { started, registry, shards, metrics, supervisor, config })
    }

    /// Admits one inference request for `model` on a single image tensor
    /// (`C×H×W`, or flat features for MLPs) with default options (no
    /// deadline, normal priority) — see [`Server::submit_with`].
    ///
    /// # Errors
    ///
    /// As [`Server::submit_with`].
    ///
    /// # Examples
    ///
    /// End to end: quantize a tiny network, register it, submit one image
    /// and block on the ticket. The response is byte-identical to a
    /// direct `QuantizedNet::logits` call on the same input.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use mfdfp_core::{calibrate, QuantizedNet};
    /// use mfdfp_serve::{ModelRegistry, ServeConfig, Server};
    /// use mfdfp_tensor::TensorRng;
    ///
    /// // A small calibrated MF-DFP network (3×16×16 input, 10 classes).
    /// let mut rng = TensorRng::seed_from(5);
    /// let mut net = mfdfp_nn::zoo::quick_custom(3, 16, [2, 2, 4], 8, 10, &mut rng)?;
    /// let calib = rng.gaussian([2, 3, 16, 16], 0.0, 0.7);
    /// let plan = calibrate(&mut net, &[(calib, vec![0, 1])], 8)?;
    /// let qnet = QuantizedNet::from_network(&net, &plan)?;
    ///
    /// let registry = Arc::new(ModelRegistry::new());
    /// registry.register("tiny", qnet.clone());
    /// let server = Server::start(registry, ServeConfig::default())?;
    ///
    /// let image = rng.gaussian([3, 16, 16], 0.0, 0.7);
    /// let ticket = server.submit("tiny", image.clone())?;   // admission + enqueue
    /// let response = ticket.wait()?;                        // blocks for the batch
    /// assert_eq!(response.model, "tiny");
    /// assert_eq!(response.version, 1);
    /// assert_eq!(response.logits.as_slice(), qnet.logits(&image)?.as_slice());
    /// server.shutdown();
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn submit(&self, model: &str, image: Tensor) -> Result<Ticket> {
        self.submit_with(model, image, SubmitOptions::default())
    }

    /// Admits one inference request with explicit [`SubmitOptions`]
    /// (deadline for load shedding, priority lane).
    ///
    /// Admission control runs *before* the queue: unknown models,
    /// wrong-sized inputs and over-quota models are rejected without
    /// consuming capacity; a full shard queue rejects with
    /// [`ServeError::QueueFull`] (backpressure — the caller decides
    /// whether to retry, shed or block). The model's `Arc` and registry
    /// version are resolved here, so a concurrent
    /// [`Server::swap_model`] never changes what an admitted request
    /// computes on.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`], [`ServeError::BadInput`],
    /// [`ServeError::QuotaExceeded`], [`ServeError::QueueFull`] or
    /// [`ServeError::Closed`].
    pub fn submit_with(&self, model: &str, image: Tensor, opts: SubmitOptions) -> Result<Ticket> {
        let _span = mfdfp_obs::span!("serve.submit", image.len() as u64);
        let (resolved, version) = {
            let _span = mfdfp_obs::span!("serve.route", self.shards.len() as u64);
            self.registry.get_versioned(model)?
        };
        let expected = resolved.input_len();
        if image.len() != expected {
            return Err(ServeError::BadInput {
                model: model.to_string(),
                expected,
                actual: image.len(),
            });
        }
        let metrics_model = self.metrics.model(model);
        metrics_model.note_version(version);
        // Circuit breaker: an open circuit fast-fails here, before any
        // quota slot or queue capacity is consumed. An allowed admission
        // may hold a half-open probe slot, so every later rejection path
        // must discard it.
        let breaker = self.config.breaker.as_ref().map(|cfg| metrics_model.breaker_or_init(cfg));
        if let Some(breaker) = breaker {
            if let Admission::Rejected { retry_after } = breaker.try_admit(Instant::now()) {
                self.metrics.breaker_rejected.inc();
                return Err(ServeError::CircuitOpen { model: model.to_string(), retry_after });
            }
        }
        // Quota slot: held from admission to terminal answer (response,
        // failure or shed), so `in_flight` counts queued + computing.
        if !metrics_model.try_acquire_slot(self.config.model_quota) {
            metrics_model.quota_rejected.inc();
            if let Some(breaker) = breaker {
                breaker.record_discarded();
            }
            return Err(ServeError::QuotaExceeded {
                model: model.to_string(),
                quota: self.config.model_quota.unwrap_or(0),
            });
        }
        let submitted = Instant::now();
        let (tx, rx) = mpsc::channel();
        let request = Request {
            model_name: model.to_string(),
            model: resolved,
            version,
            metrics_model: Arc::clone(&metrics_model),
            image,
            submitted,
            submitted_ns: mfdfp_obs::now_ns(),
            deadline: opts.deadline.and_then(|d| submitted.checked_add(d)),
            tx,
        };
        let shard = &self.shards[Self::route(model, self.shards.len())];
        // Fault injection (compiled into every build, a no-op until a test
        // arms it): pretend the shard queue is at capacity to exercise the
        // backpressure path deterministically.
        let pushed = if fault::take_queue_full() {
            Err((request, PushRejection::Full))
        } else {
            match opts.priority {
                Priority::Normal => shard.queue().try_push(request),
                Priority::High => shard.queue().try_push_priority(request),
            }
        };
        match pushed {
            Ok(()) => {
                metrics_model.submitted.inc();
                Ok(Ticket { rx })
            }
            Err((_, PushRejection::Full)) => {
                metrics_model.discard();
                self.metrics.rejected.inc();
                Err(ServeError::QueueFull { capacity: shard.queue().capacity() })
            }
            Err((_, PushRejection::Closed)) => {
                metrics_model.discard();
                Err(ServeError::Closed)
            }
        }
    }

    /// Hot-swaps the model behind `name` with zero downtime and returns
    /// the new registry version.
    ///
    /// The swap is an `Arc` flip in the registry: requests admitted
    /// before the flip drain on the old weights (the batcher groups by
    /// `Arc` identity, so a batch never mixes versions), requests
    /// admitted after it compute on the new ones, and every response
    /// reports which via [`Response::version`]. The per-model metrics
    /// record the version bump and count the swap.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] when `name` is not
    /// registered (a swap is an update; a typo must not create a second
    /// model).
    pub fn swap_model(&self, name: &str, model: impl Into<ServedModel>) -> Result<u64> {
        let (_old, version) = self.registry.swap(name, model)?;
        self.metrics.model(name).record_swap(version);
        Ok(version)
    }

    /// The registry this server draws models from.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// The live metrics recorder (crate-internal: the HTTP front-end
    /// counts idle-timeout closes against it).
    pub(crate) fn metrics_inner(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// A point-in-time metrics view: the per-model series, the request
    /// totals summed from them, the server-wide counters and every
    /// shard's current queue depth; `uptime` and `throughput_rps` share
    /// a single clock read.
    pub fn metrics(&self) -> MetricsSnapshot {
        let depths: Vec<usize> = self.shards.iter().map(Shard::depth).collect();
        self.metrics.snapshot(self.started, &depths)
    }

    /// The self-healing status surface: per-shard worker heartbeat ages
    /// and queue depths, per-model breaker states, the degradation
    /// level and the respawn count. Served over HTTP as
    /// `GET /v1/health`; its `ready` bit alone as `GET /v1/ready`.
    pub fn health(&self) -> HealthSnapshot {
        let now = Instant::now();
        let shards: Vec<ShardHealth> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| ShardHealth {
                shard: i,
                queue_depth: shard.depth(),
                heartbeat_ages: shard.heartbeat_ages(),
            })
            .collect();
        // Ready = every shard still has at least one worker beating
        // within the hang timeout (a shard past that is either fully
        // hung — about to be respawned — or being torn down).
        let ready = shards
            .iter()
            .all(|s| s.heartbeat_ages.iter().any(|age| *age <= self.config.hang_timeout));
        HealthSnapshot {
            ready,
            shards,
            breakers: self.metrics.breakers(now),
            degrade_level: self.metrics.degrade_level(),
            respawns: self.metrics.respawns.get(),
        }
    }

    /// Readiness probe: `true` while every shard has a worker whose
    /// heartbeat is fresher than [`ServeConfig::hang_timeout`].
    pub fn ready(&self) -> bool {
        self.health().ready
    }

    /// Stable shard index for `model`: `hash(name) % shards`.
    /// `DefaultHasher::new()` uses fixed keys, so the mapping is
    /// deterministic across processes and runs.
    fn route(model: &str, shards: usize) -> usize {
        let mut hasher = DefaultHasher::new();
        model.hash(&mut hasher);
        (hasher.finish() % shards as u64) as usize
    }

    /// Stops admissions, drains queued requests and joins the workers
    /// (unbounded drain: every queued request is still answered). Dropping
    /// the server does the same.
    pub fn shutdown(self) {
        drop(self);
    }

    /// Graceful shutdown with a **bounded** drain: admissions stop
    /// immediately, queued requests get up to `drain` to dispatch, and
    /// whatever is still queued at the deadline is answered with
    /// [`ServeError::ShuttingDown`] and counted in `shutdown_rejected` —
    /// so shutdown can never be held hostage by a deep queue, and the
    /// accounting identity still balances exactly:
    /// `completed + failed + shed + shutdown_rejected == submitted`.
    /// (In-flight batches already at a worker always finish; the bound
    /// applies to queue wait, not to compute.) A `drain` too long to put
    /// a deadline on, such as `Duration::MAX`, drains without bound like
    /// [`Server::shutdown`]. Returns the final metrics snapshot, taken
    /// after every worker has joined, so callers can audit that identity.
    pub fn shutdown_within(mut self, drain: Duration) -> MetricsSnapshot {
        self.close_and_join(Instant::now().checked_add(drain));
        self.metrics()
    }

    /// The one shutdown path: stops the supervisor (its watchdog must not
    /// respawn the workers about to be joined), closes every queue, and
    /// joins the workers, which drain what is still queued. With a
    /// `deadline`, what is still queued when it passes is answered
    /// [`ServeError::ShuttingDown`] instead. Idempotent: `Drop` runs it
    /// again after an explicit shutdown.
    fn close_and_join(&mut self, deadline: Option<Instant>) {
        self.supervisor.stop();
        for shard in &self.shards {
            shard.close();
        }
        if let Some(deadline) = deadline {
            while self.shards.iter().any(|s| s.depth() > 0) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            for shard in &self.shards {
                for request in shard.queue().drain_pending() {
                    self.metrics.shutdown_rejected.inc();
                    request.metrics_model.discard();
                    let _ = request.tx.send(Err(ServeError::ShuttingDown));
                }
            }
        }
        for shard in &mut self.shards {
            shard.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.close_and_join(None);
    }
}

/// One shard's supervision view inside a [`HealthSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealth {
    /// Shard index (the routing target `hash(model) % shards`).
    pub shard: usize,
    /// Requests queued on this shard at sample time.
    pub queue_depth: usize,
    /// Each worker slot's heartbeat age at sample time. An age past
    /// [`ServeConfig::hang_timeout`] means the watchdog is about to
    /// replace that worker.
    pub heartbeat_ages: Vec<Duration>,
}

/// The self-healing status surface returned by [`Server::health`] and
/// served at `GET /v1/health`.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSnapshot {
    /// Every shard has at least one worker whose heartbeat is fresher
    /// than the hang timeout (the `GET /v1/ready` bit).
    pub ready: bool,
    /// Per-shard queue depth and worker heartbeat ages.
    pub shards: Vec<ShardHealth>,
    /// Per-model circuit-breaker snapshots, sorted by model name (empty
    /// while no model has been submitted to, or when breakers are
    /// disabled).
    pub breakers: Vec<(String, BreakerSnapshot)>,
    /// Current adaptive-degradation level (0 = full ensembles served).
    pub degrade_level: u64,
    /// Watchdog worker respawns since the server started.
    pub respawns: u64,
}

impl HealthSnapshot {
    /// Serialises the snapshot as a self-contained JSON object with
    /// stable key order: the `ready` bit, the `degrade_level` gauge, the
    /// `respawns` counter, a `shards` array
    /// (`{shard, queue_depth, heartbeat_ages_ms}`) and a name-keyed
    /// `breakers` object
    /// (`{state, consecutive_failures, retry_in_ms, opens}`).
    pub fn to_json(&self) -> String {
        let ms = |d: Duration| d.as_secs_f64() * 1000.0;
        json::object(|w| {
            w.key("ready").raw(self.ready);
            w.key("degrade_level").raw(self.degrade_level);
            w.key("respawns").raw(self.respawns);
            w.key("shards").array(|w| {
                for s in &self.shards {
                    w.object(|w| {
                        w.key("shard").raw(s.shard);
                        w.key("queue_depth").raw(s.queue_depth);
                        let ages = &s.heartbeat_ages;
                        w.key("heartbeat_ages_ms")
                            .array(|w| ages.iter().for_each(|a| w.fixed(ms(*a), 3)));
                    });
                }
            });
            w.key("breakers").object(|w| {
                for (name, b) in &self.breakers {
                    w.key(name).object(|w| {
                        w.key("state").str(b.state.name());
                        w.key("consecutive_failures").raw(b.consecutive_failures);
                        w.key("retry_in_ms").fixed(ms(b.retry_in.unwrap_or_default()), 3);
                        w.key("opens").raw(b.opens);
                    });
                }
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for shards in 1..=8 {
            for name in ["a", "mnist", "cifar10", "svhn", "zoo/model-17"] {
                let first = Server::route(name, shards);
                assert!(first < shards);
                assert_eq!(first, Server::route(name, shards));
            }
        }
        // One shard takes everything.
        assert_eq!(Server::route("anything", 1), 0);
    }
}
