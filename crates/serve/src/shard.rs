//! Worker shards: each shard is an independent (bounded queue +
//! micro-batcher worker pool) unit.
//!
//! The server routes a request to `hash(model name) % shards`, so two
//! independent models never contend on one queue and a slow model cannot
//! convoy a fast one. Inside a shard the pipeline is the micro-batcher,
//! extended with admission-control semantics:
//!
//! * **one owner per batch** — the worker that pops a batch runs every
//!   model group of it, in order, against the one [`WorkerScratch`] it
//!   owns; concurrency across models comes from `shards × workers`,
//!   concurrency within one group from the packed kernel's row-band
//!   fan-out;
//! * **deadline shedding** — after popping a batch, the worker drops
//!   every request whose deadline already expired (typed
//!   [`ServeError::DeadlineExceeded`], counted in the `shed` metrics)
//!   *before* spending datapath time on it;
//! * **panic containment** — inference runs under `catch_unwind`; a
//!   panicking dispatch answers its whole batch with
//!   [`ServeError::WorkerPanic`] and the worker thread survives (no lock
//!   is held across the unwind, so nothing is poisoned);
//! * **priority lane** — the queue's priority lane is popped first and
//!   never coalesced with normal-lane requests (see
//!   [`BoundedQueue::pop_batch`](crate::BoundedQueue::pop_batch));
//! * **supervision** — every worker publishes a heartbeat (nanoseconds
//!   since the shard's origin instant, stored at the top of its loop;
//!   the ticked pop keeps idle workers beating). The server's supervisor
//!   calls [`Shard::supervise`] each control tick: a worker whose thread
//!   finished (death outside the dispatch containment) or whose beat is
//!   older than [`ServeConfig::hang_timeout`] is replaced crash-only — a
//!   fresh worker takes its queue slot immediately, the hung thread is
//!   detached (its in-flight batch still answers its tickets whenever
//!   the stall ends, because tickets and queue `Arc`s outlive the slot),
//!   and the respawn is counted;
//! * **adaptive degradation** — dispatch reads the server-wide degrade
//!   level and serves ensembles with that many members trimmed off the
//!   end (never below one); prefix summation order is unchanged, so a
//!   degraded `k`-member answer is bit-identical to a standalone
//!   `k`-member ensemble, and the response is flagged degraded;
//! * **circuit-breaker feedback** — each dispatched group reports its
//!   outcome (success / worker panic / inference fault) to the
//!   originating model's breaker exactly once per group.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mfdfp_tensor::{Tensor, Workspace};

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::fault;
use crate::metrics::ServerMetrics;
use crate::queue::{BoundedQueue, PopTick};
use crate::server::{Request, Response};

/// One worker thread's supervision slot: its join handle plus the
/// heartbeat it publishes (ns since the shard's origin).
struct WorkerSlot {
    handle: JoinHandle<()>,
    beat_ns: Arc<AtomicU64>,
}

/// The shard state shared between the server, its workers and the
/// supervisor (all hold `Arc`s, so a replaced worker never strands the
/// queue).
pub(crate) struct ShardInner {
    id: usize,
    queue: BoundedQueue<Request>,
    /// Heartbeat epoch: beats are ns since this instant, so one relaxed
    /// `u64` store publishes a beat.
    origin: Instant,
    workers: Mutex<Vec<WorkerSlot>>,
    /// Total workers ever spawned on this shard (names respawns
    /// uniquely: `mfdfp-serve-<shard>.<spawn#>`).
    spawned: AtomicU64,
}

impl ShardInner {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spawns one worker thread and returns its supervision slot.
    fn spawn_worker(
        self: &Arc<Self>,
        metrics: &Arc<ServerMetrics>,
        cfg: &ServeConfig,
    ) -> WorkerSlot {
        let n = self.spawned.fetch_add(1, Ordering::Relaxed);
        let beat_ns = Arc::new(AtomicU64::new(self.now_ns()));
        let beat = Arc::clone(&beat_ns);
        let inner = Arc::clone(self);
        let metrics = Arc::clone(metrics);
        let cfg = cfg.clone();
        let handle = std::thread::Builder::new()
            .name(format!("mfdfp-serve-{}.{}", self.id, n))
            .spawn(move || worker_loop(&inner, &metrics, &cfg, &beat))
            .expect("failed to spawn serving worker");
        WorkerSlot { handle, beat_ns }
    }
}

/// One independent queue + worker-pool unit of a sharded server. Clones
/// share the same shard (the supervisor holds one per shard).
#[derive(Clone)]
pub(crate) struct Shard {
    inner: Arc<ShardInner>,
}

impl Shard {
    /// Spawns the shard's worker pool over a fresh bounded queue.
    pub(crate) fn start(id: usize, config: &ServeConfig, metrics: &Arc<ServerMetrics>) -> Shard {
        let inner = Arc::new(ShardInner {
            id,
            queue: BoundedQueue::new(config.queue_capacity),
            origin: Instant::now(),
            workers: Mutex::new(Vec::new()),
            spawned: AtomicU64::new(0),
        });
        let slots: Vec<WorkerSlot> =
            (0..config.workers).map(|_| inner.spawn_worker(metrics, config)).collect();
        *inner.workers.lock().expect("shard workers poisoned") = slots;
        Shard { inner }
    }

    /// The shard's request queue (admission pushes into it).
    pub(crate) fn queue(&self) -> &BoundedQueue<Request> {
        &self.inner.queue
    }

    /// Items currently queued on this shard.
    pub(crate) fn depth(&self) -> usize {
        self.inner.queue.len()
    }

    /// Stops admissions into this shard.
    pub(crate) fn close(&self) {
        self.inner.queue.close();
    }

    /// Joins the shard's workers (the queue must already be closed, and
    /// the supervisor stopped — otherwise it would respawn what we join).
    pub(crate) fn join(&mut self) {
        let slots: Vec<WorkerSlot> =
            std::mem::take(&mut *self.inner.workers.lock().expect("shard workers poisoned"));
        for slot in slots {
            let _ = slot.handle.join();
        }
    }

    /// One watchdog pass: replace every worker whose thread finished
    /// (died outside the dispatch containment) or whose heartbeat is
    /// older than [`ServeConfig::hang_timeout`]. Replacement is
    /// crash-only — the fresh worker starts pulling from the queue
    /// immediately; a dead thread is reaped, a hung one detached (its
    /// in-flight batch still answers whenever the stall ends). Each
    /// replacement bumps the `respawns` counter.
    pub(crate) fn supervise(&self, metrics: &Arc<ServerMetrics>, cfg: &ServeConfig) {
        let hang_ns = cfg.hang_timeout.as_nanos() as u64;
        let mut workers = self.inner.workers.lock().expect("shard workers poisoned");
        let now_ns = self.inner.now_ns();
        for slot in workers.iter_mut() {
            let dead = slot.handle.is_finished();
            let hung = now_ns.saturating_sub(slot.beat_ns.load(Ordering::Relaxed)) > hang_ns;
            if !(dead || hung) {
                continue;
            }
            let fresh = self.inner.spawn_worker(metrics, cfg);
            let old = std::mem::replace(slot, fresh);
            if dead {
                let _ = old.handle.join();
            }
            metrics.respawns.inc();
        }
    }

    /// Each live worker's heartbeat age (for the health surface).
    pub(crate) fn heartbeat_ages(&self) -> Vec<Duration> {
        let workers = self.inner.workers.lock().expect("shard workers poisoned");
        let now_ns = self.inner.now_ns();
        workers
            .iter()
            .map(|s| Duration::from_nanos(now_ns.saturating_sub(s.beat_ns.load(Ordering::Relaxed))))
            .collect()
    }
}

/// Drains the queue until close-and-empty: pops whatever backlog formed
/// while the previous batch computed (up to `max_batch`), sheds expired
/// requests, groups the rest per model, dispatches each group through
/// the batched quantized forward, scatters responses.
///
/// Every group runs here, one after another, against the worker's own
/// [`WorkerScratch`] — warmed by its first dispatches and owned by this
/// frame, so no other thread can reach it. A respawned worker starts
/// with a fresh one.
fn worker_loop(inner: &ShardInner, metrics: &ServerMetrics, cfg: &ServeConfig, beat: &AtomicU64) {
    let mut scratch = WorkerScratch::default();
    loop {
        // Heartbeat: published at the top of every iteration. The ticked
        // pop below returns `Idle` at least every `supervise_interval`,
        // so an idle worker keeps beating; a worker stuck inside a
        // dispatch stops beating and goes stale.
        beat.store(inner.now_ns(), Ordering::Relaxed);
        fault::maybe_worker_die();
        // Batch formation spans the blocking pop plus the linger (none
        // when `max_wait` is zero), so the trace shows how long each
        // worker sat idle between dispatches.
        let formed_from = mfdfp_obs::now_ns();
        let batch =
            match inner.queue.pop_batch_ticked(cfg.max_batch, cfg.max_wait, cfg.supervise_interval)
            {
                PopTick::Idle => continue,
                PopTick::Closed => break,
                PopTick::Batch(batch) => batch,
            };
        mfdfp_obs::record_complete(
            "serve.batch_form",
            batch.len() as u64,
            formed_from,
            mfdfp_obs::now_ns(),
        );
        let batch = shed_expired(batch);
        if batch.is_empty() {
            continue;
        }
        for group in partition_by_model(batch) {
            dispatch_group(group, metrics, &mut scratch);
        }
    }
}

/// Deadline-based load shedding: requests whose deadline passed while
/// they queued are answered with [`ServeError::DeadlineExceeded`] and
/// counted in the `shed` metrics — the datapath never runs for them.
/// One clock sample judges the whole batch, so a batch's shed decisions
/// are mutually consistent.
fn shed_expired(batch: Vec<Request>) -> Vec<Request> {
    let now = Instant::now();
    if batch.iter().all(|r| r.deadline.is_none_or(|d| d > now)) {
        return batch;
    }
    let shed_from = mfdfp_obs::now_ns();
    let mut live = Vec::with_capacity(batch.len());
    let mut shed = 0u64;
    for request in batch {
        match request.deadline {
            Some(d) if d <= now => {
                request.metrics_model.shed.inc();
                // The model was never exercised: free the quota slot and
                // any held breaker probe without judging the outcome.
                request.metrics_model.discard();
                let err = ServeError::DeadlineExceeded { model: request.model_name.clone() };
                let _ = request.tx.send(Err(err));
                shed += 1;
            }
            _ => live.push(request),
        }
    }
    mfdfp_obs::record_complete("serve.shed", shed, shed_from, mfdfp_obs::now_ns());
    live
}

/// Splits a popped batch into per-model groups, preserving arrival order
/// within each group. Grouping keys on the resolved model's allocation
/// identity (not its name, so a name re-registered or hot-swapped
/// mid-queue never mixes two different networks — or two versions of one
/// network — into one batch). Admission refuses any image whose length
/// is not the model's `input_len`, so one identity means one length.
fn partition_by_model(batch: Vec<Request>) -> Vec<Vec<Request>> {
    let mut groups: Vec<(usize, Vec<Request>)> = Vec::new();
    for request in batch {
        let key = request.model.identity();
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, group)) => group.push(request),
            None => groups.push((key, vec![request])),
        }
    }
    groups.into_iter().map(|(_, g)| g).collect()
}

/// One worker's dispatch scratch: the flattened input batch, the logits
/// output row-block (both grow-only) and its inference [`Workspace`], so
/// a warmed dispatch's inference performs zero heap allocations. Only the
/// per-request response materialisation (one logits `Tensor` per ticket,
/// the channel send) still allocates, because those buffers leave the
/// worker with the response.
#[derive(Default)]
struct WorkerScratch {
    data: Vec<f32>,
    logits: Vec<f32>,
    ws: Workspace,
}

/// Runs one same-model group as a single batched inference and answers
/// every member. Inference faults fan the error out to the whole group;
/// a *panicking* dispatch is contained by `catch_unwind` and fans out
/// [`ServeError::WorkerPanic`] instead — the worker thread survives and
/// no lock is poisoned (nothing in this function holds a lock across
/// the compute).
///
/// The batch is assembled flat (`N×len` — the integer datapath reads raw
/// element slices, so per-image shape is irrelevant): requests that were
/// admitted with equal element counts but different shapes, e.g. `[768]`
/// next to `[3,16,16]`, batch together instead of poisoning each other.
/// Staging and inference scratch come from the caller's `scratch`, so a
/// warmed worker's steady-state compute performs zero heap allocations;
/// nothing here is tied to the calling thread.
fn dispatch_group(group: Vec<Request>, metrics: &ServerMetrics, scratch: &mut WorkerScratch) {
    let dispatched = Instant::now();
    let dispatched_ns = mfdfp_obs::now_ns();
    group[0].metrics_model.record_batch(group.len());
    for request in &group {
        // `duration_since` saturates to zero, so a clock read that lands
        // between two threads' samples can never panic the worker.
        metrics.queue_wait.record(dispatched.duration_since(request.submitted));
        mfdfp_obs::record_complete(
            "serve.queue_wait",
            group.len() as u64,
            request.submitted_ns,
            dispatched_ns,
        );
    }
    let model = group[0].model.clone();
    let batch_size = group.len();
    let classes = model.classes();
    // Adaptive degradation: the supervisor's level gauge trims that many
    // ensemble members off the end of the dispatch (never below one
    // member; single models are unaffected). Prefix order is unchanged,
    // so a degraded k-member answer is bit-identical to a standalone
    // k-member ensemble.
    let total_members = model.members();
    let level = (metrics.degrade_level() as usize).min(total_members.saturating_sub(1));
    let members = total_members - level;
    let degraded = members < total_members;
    // The compute half runs under `catch_unwind` so an injected (or
    // real) panic degrades to a typed per-request error instead of
    // killing the worker; the group itself stays outside the closure so
    // its tickets can still be answered after an unwind.
    let inference = catch_unwind(AssertUnwindSafe(|| {
        fault::maybe_worker_hang();
        fault::maybe_slow_batch();
        fault::maybe_worker_panic();
        scratch.data.clear();
        for request in &group {
            scratch.data.extend_from_slice(request.image.as_slice());
        }
        scratch.logits.resize(batch_size * classes, 0.0);
        // Size the inference workspace for the batch-fused forward (the
        // whole batch runs as one interleaved layer loop, so activation
        // and im2col staging scale by the batch). `reserve` on a warmed
        // workspace is a no-op, so steady-state dispatch stays
        // allocation-free.
        scratch.ws.reserve(&model.plan_for_batch(batch_size));
        let infer_started = Instant::now();
        let inference = {
            let _span = mfdfp_obs::span!("serve.infer", batch_size as u64);
            model.logits_batch_into(
                &scratch.data,
                batch_size,
                &mut scratch.ws,
                &mut scratch.logits,
                members,
            )
        };
        metrics.infer.record(infer_started.elapsed());
        inference.map(|()| scratch.logits.clone())
    }));
    match inference {
        Ok(Ok(logits)) => {
            record_group_outcome(&group, true);
            let respond_started = Instant::now();
            let _span = mfdfp_obs::span!("serve.respond", batch_size as u64);
            for (row, request) in logits.chunks(classes).zip(group) {
                let latency = request.submitted.elapsed();
                request.metrics_model.completed.record(latency);
                request.metrics_model.release_slot();
                if degraded {
                    metrics.degraded.inc();
                }
                let logits = Tensor::from_slice(row);
                let response = Response {
                    model: request.model_name,
                    version: request.version,
                    class: logits.argmax(),
                    logits,
                    batch_size,
                    latency,
                    degraded,
                };
                // A dropped Ticket is not an error; the work is done.
                let _ = request.tx.send(Ok(response));
            }
            metrics.respond.record(respond_started.elapsed());
        }
        Ok(Err(e)) => {
            record_group_outcome(&group, false);
            fail_group(group, ServeError::Inference(e));
        }
        Err(_panic) => {
            record_group_outcome(&group, false);
            fail_group(group, ServeError::WorkerPanic);
        }
    }
}

/// Reports a dispatched group's outcome to each *distinct* model's
/// breaker in it exactly once (groups key on model identity, so two
/// registry names sharing one network can land in one group — each
/// name's breaker gets one verdict, never one per request).
fn record_group_outcome(group: &[Request], success: bool) {
    let now = Instant::now();
    for (i, request) in group.iter().enumerate() {
        let record = &request.metrics_model;
        let Some(breaker) = record.breaker.get() else { continue };
        if group[..i].iter().any(|earlier| Arc::ptr_eq(&earlier.metrics_model, record)) {
            continue;
        }
        if success {
            breaker.record_success();
        } else {
            breaker.record_failure(now);
        }
    }
}

/// Answers every member of a group with `err` and records the failures.
fn fail_group(group: Vec<Request>, err: ServeError) {
    for request in group {
        // Count before answering: a client that wakes on this error and
        // immediately snapshots the metrics must already see its failure
        // counted (the success path orders itself the same way).
        request.metrics_model.failed.inc();
        request.metrics_model.release_slot();
        let _ = request.tx.send(Err(err.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ServedModel;
    use mfdfp_core::{calibrate, QuantizedNet};
    use mfdfp_nn::zoo;
    use mfdfp_tensor::TensorRng;
    use std::sync::mpsc;

    fn tiny_net(seed: u64) -> QuantizedNet {
        let mut rng = TensorRng::seed_from(seed);
        let mut net = zoo::quick_custom(3, 16, [2, 2, 4], 8, 10, &mut rng).unwrap();
        let x = rng.gaussian([4, 3, 16, 16], 0.0, 0.7);
        let plan = calibrate(&mut net, &[(x, vec![0, 1, 2, 3])], 8).unwrap();
        QuantizedNet::from_network(&net, &plan).unwrap()
    }

    fn image() -> Tensor {
        TensorRng::seed_from(7).gaussian([3, 16, 16], 0.0, 0.7)
    }

    fn request(
        name: &str,
        model: &ServedModel,
        metrics: &ServerMetrics,
    ) -> (Request, mpsc::Receiver<crate::Result<Response>>) {
        let (tx, rx) = mpsc::channel();
        let request = Request {
            model_name: name.into(),
            model: model.clone(),
            version: 1,
            metrics_model: metrics.model(name),
            image: image(),
            submitted: Instant::now(),
            submitted_ns: 0,
            deadline: None,
            tx,
        };
        (request, rx)
    }

    #[test]
    fn multi_group_batch_answers_every_group() {
        // One worker, batches of exactly two, a linger far longer than the
        // test: each pair below leaves the queue as one batch — first one
        // model group of two, then two groups of one. The worker runs every
        // group itself, so at any pool width no pool task runs (the tiny
        // nets stay under the kernel's fan-out threshold even at batch 2),
        // and every answer is bit-exact against a direct call.
        let nets = [tiny_net(5), tiny_net(6)];
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let want: Vec<Vec<u32>> = nets.iter().map(|n| bits(&n.logits(&image()).unwrap())).collect();
        let models: Vec<ServedModel> = nets.into_iter().map(ServedModel::from).collect();
        let cfg = ServeConfig {
            workers: 1,
            max_batch: 2,
            max_wait: Duration::from_secs(30),
            ..ServeConfig::default()
        };
        let metrics = Arc::new(ServerMetrics::new(cfg.max_batch));
        let mut shard = Shard::start(0, &cfg, &metrics);
        let before = mfdfp_rt::global_stats().tasks_run;
        for pair in [[0, 0], [0, 1]] {
            let tickets: Vec<_> = pair
                .iter()
                .map(|&m| {
                    let (req, rx) = request(["a", "b"][m], &models[m], &metrics);
                    assert!(shard.queue().try_push(req).is_ok());
                    rx
                })
                .collect();
            for (&m, rx) in pair.iter().zip(tickets) {
                let response = rx.recv().unwrap().unwrap();
                assert_eq!(bits(&response.logits), want[m], "model {m} of {pair:?}");
                assert_eq!(response.batch_size, pair.iter().filter(|&&k| k == m).count());
            }
        }
        let ran = mfdfp_rt::global_stats().tasks_run - before;
        assert_eq!(ran, 0, "a popped batch ran {ran} pool tasks");
        shard.close();
        shard.join();
    }
}
