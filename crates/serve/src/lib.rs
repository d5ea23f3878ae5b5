//! # mfdfp-serve — dynamic-batching inference serving for MF-DFP networks
//!
//! The paper's end product is an accelerator that answers classification
//! queries with multiplier-free shift/add arithmetic; this crate is the
//! software layer that turns *concurrent request traffic* into efficient
//! *batched* work for that datapath — the role tract/burn-style serving
//! stacks play above their kernel layers. `std`-only, like the rest of the
//! workspace.
//!
//! Pipeline:
//!
//! 1. **Front-end (optional)** — [`HttpServer`] exposes the tier over
//!    `std`-only HTTP/1.1 (thread-per-connection, hand-rolled parser
//!    with strict size limits — see [`http`]): `POST /v1/infer/<model>`
//!    with a JSON f32 array, `GET /v1/models`, `GET /v1/metrics`.
//!    Logits cross the wire bit-exactly; the `x-mfdfp-deadline-us` and
//!    `x-mfdfp-priority` headers map onto the admission options below.
//! 2. **Admission control** — [`Server::submit`] /
//!    [`Server::submit_with`] resolves the model (and its version) in
//!    the [`ModelRegistry`], validates the input size, takes a
//!    per-model quota slot ([`ServeConfig::model_quota`], rejected as
//!    [`ServeError::QuotaExceeded`]), and routes to
//!    `hash(model) % shards` — each shard an independent bounded MPMC
//!    queue + worker pool, so a slow model cannot convoy a fast one. A
//!    full queue rejects immediately ([`ServeError::QueueFull`]) so
//!    overload surfaces as backpressure, not unbounded memory.
//!    [`SubmitOptions`] attaches an optional deadline and a priority
//!    lane ([`Priority::High`] dispatches ahead of throughput batches).
//! 3. **Micro-batching** — a shard worker that comes free takes what
//!    is queued now, up to [`ServeConfig::max_batch`] requests, so
//!    batches form from the backlog that accumulates while the previous
//!    batch computes; it then holds an unfilled batch open for
//!    [`ServeConfig::max_wait`] (default 1 ms; zero = work-conserving,
//!    no request ever waits on a timer).
//!    Workers **shed** every request whose deadline expired while it
//!    queued ([`ServeError::DeadlineExceeded`] — zero datapath time
//!    spent), group by the resolved model's
//!    allocation identity (a batch never mixes two models or two
//!    versions of one — the invariant behind zero-downtime
//!    [`Server::swap_model`] hot swaps), and dispatch each group, in
//!    order, on the worker that popped the batch, through
//!    `Ensemble::logits_batch_into` under `catch_unwind` (a panicking
//!    dispatch degrades to typed [`ServeError::WorkerPanic`] responses;
//!    the worker survives). A served model is the `Arc<Ensemble>`
//!    itself ([`ServedModel`]); a single network is the ensemble of
//!    one. Models run concurrently across
//!    `shards × workers`; inside one group the packed kernel fans its
//!    rows out on the shared `mfdfp-rt` pool (see README "Threading
//!    model").
//! 4. **Telemetry** — one record per model (request counters, latency
//!    buckets, batch histogram, quota slots, version/swaps, circuit
//!    breaker); [`Server::metrics`] sums the records into the server
//!    totals and adds queue depths, a queue-wait / inference / respond
//!    stage breakdown, the datapath op counters with their energy
//!    estimate and the shared pool's counters.
//!    [`MetricsSnapshot::to_json`] renders it with the `mfdfp_obs::json`
//!    writer every body the tier serves uses. The pipeline stages also
//!    emit flight-recorder spans
//!    (`serve.accept`, `serve.http_parse`, `serve.submit`,
//!    `serve.route`, `serve.batch_form`, `serve.shed`,
//!    `serve.queue_wait`, `serve.infer`, `serve.respond`) exportable as
//!    a Chrome/Perfetto trace.
//!
//! 5. **Self-healing** — a supervisor thread per server runs a worker
//!    **watchdog** (heartbeat-stale or dead workers are respawned
//!    crash-only and counted) and the **adaptive degradation**
//!    controller (queue-wait p95 over [`DegradeConfig::target_p95`]
//!    trims ensemble members one hysteretic step at a time — a degraded
//!    answer is bit-identical to the truncated ensemble served
//!    standalone, and flagged via [`Response::degraded`]). Per-model
//!    **circuit breakers** ([`BreakerConfig`]) fast-fail admissions
//!    with [`ServeError::CircuitOpen`] after consecutive dispatch
//!    failures and recover through half-open probes with exponential
//!    backoff. [`Server::health`] / `GET /v1/health` expose heartbeat
//!    ages, breaker states, the degrade level and respawn counts;
//!    [`Server::shutdown_within`] drains on a deadline, answering
//!    leftovers with [`ServeError::ShuttingDown`] so the request
//!    accounting still balances exactly.
//!
//! Failure paths are provable: the [`fault`] module compiles
//! deterministic injection points (queue-full, worker panic, slow
//! batch, registry-read dwell, worker hang, worker death) into every
//! build, disarmed until a test arms them, so the chaos and fault
//! harnesses in `tests/` can drive every degradation and self-healing
//! path on demand.
//!
//! Batching changes *when* images are evaluated, never *what* they
//! evaluate to: responses are byte-identical to direct `logits` calls
//! (property-tested in `mfdfp-core`, asserted end-to-end in this crate's
//! tests).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use mfdfp_serve::{ModelRegistry, ServeConfig, Server};
//!
//! let registry = Arc::new(ModelRegistry::new());
//! // registry.register("cifar10", quantized_net);
//! let server = Server::start(registry, ServeConfig::default())?;
//! // let ticket = server.submit("cifar10", image)?;
//! // let response = ticket.wait()?;
//! server.shutdown();
//! # Ok::<(), mfdfp_serve::ServeError>(())
//! ```

#![deny(missing_docs)]

mod breaker;
mod config;
mod error;
pub mod fault;
pub mod http;
mod metrics;
mod queue;
mod registry;
mod server;
mod shard;
mod supervisor;

pub use breaker::{BreakerSnapshot, BreakerState};
pub use config::{BreakerConfig, DegradeConfig, HttpConfig, ServeConfig};
pub use error::{Result, ServeError};
pub use http::HttpServer;
pub use metrics::{MetricsSnapshot, ModelSnapshot, StageSnapshot, StagesSnapshot};
pub use queue::{BoundedQueue, PopTick, PushRejection};
pub use registry::{ModelRegistry, ServedModel};
pub use server::{HealthSnapshot, Priority, Response, Server, ShardHealth, SubmitOptions, Ticket};
