//! The four workloads behind one trait, and the pieces the serving
//! workloads share.

mod http;
mod offline;
mod open;
mod swap;

use std::sync::Arc;
use std::time::{Duration, Instant};

use mfdfp_core::{ImageView, QuantizedNet};
use mfdfp_serve::{ModelRegistry, ServeConfig, ServeError, Server, SubmitOptions};

use crate::loadgen::{Outcome, WindowResult};
use crate::models::{logits_match, Laps, Model, Weights};
use crate::stats::floor;
use crate::trace::Tracer;

pub use http::{http_call, CLIENTS as HTTP_CLIENTS};

/// One phase of a workload: a traffic shape measured in its own windows.
pub struct Phase {
    /// Phase name (`main` for single-phase workloads).
    pub name: &'static str,
    /// Whether its failures count against the run. `false` only for a
    /// phase that overloads the server on purpose.
    pub gated: bool,
}

pub(crate) const SINGLE_PHASE: [Phase; 1] = [Phase { name: "main", gated: true }];

/// A workload after set-up: models built, expected outputs known,
/// servers started.
pub trait Workload {
    /// The model it runs.
    fn model(&self) -> &Model;

    /// Its phases, in the order windows rotate through them.
    fn phases(&self) -> &'static [Phase] {
        &SINGLE_PHASE
    }

    /// Index of the phase whose window rate is `throughput_rps`.
    fn throughput_phase(&self) -> usize {
        0
    }

    /// Index of the phase whose latencies are `client.latency_p50_ms` /
    /// `client.latency_p95_ms` and whose stage means are reported.
    fn latency_phase(&self) -> usize {
        0
    }

    /// Runs one window of `phase` for `len`, checking every output. With
    /// a tracer, records client-side spans around each call into the
    /// program.
    fn run_window(&mut self, phase: usize, len: Duration, tracer: Option<&Tracer>) -> WindowResult;

    /// `throughput_rps` from the windows of the throughput phase: items
    /// per second over the workload's fastest runs, each workload cutting
    /// its runs where its work has a seam (a fused call, a pair of
    /// batches, a swap).
    fn throughput(&self, windows: &[WindowResult]) -> f64;

    /// `latency_floor_ms` from the ascending latencies of every phase
    /// that does not overload: their [`floor`](crate::stats::floor).
    fn latency_floor(&self, sorted_latencies_ms: &[f64]) -> f64 {
        floor(sorted_latencies_ms)
    }

    /// One model reload with no load running: image bytes → CRC-verified
    /// open → `from_image` → visible to this workload's serving surface.
    /// Returns the time in milliseconds.
    fn swap_ms(&mut self) -> f64;

    /// One checked request through the workload's serving surface (after
    /// a round of reloads: the reloaded model must still answer right).
    fn check(&mut self) -> Outcome;

    /// One cold start through this workload's surface: model image bytes
    /// → surface up → first correct answer, then torn down. Returns the
    /// time to the first answer in milliseconds.
    fn cold_start_ms(&mut self) -> (f64, Outcome);

    /// The server whose `metrics()` describe the timed windows, if the
    /// workload has one.
    fn server(&self) -> Option<&Server> {
        None
    }
}

/// `fastest`, the rate over a workload's fastest runs, unless no window
/// was long enough to hold a run (`--quick`): then the best plain rate of
/// a window.
pub(crate) fn or_window_rate(fastest: f64, windows: &[WindowResult]) -> f64 {
    if fastest > 0.0 {
        fastest
    } else {
        windows.iter().map(|w| w.rate).fold(0.0, f64::max)
    }
}

/// Builds workload `name` with inputs drawn from `seed`, timing its
/// pieces into `laps`. This is the set-up that `setup_s` times.
pub fn setup(name: &str, seed: u64, laps: &mut Laps) -> Option<Box<dyn Workload>> {
    let workload: Box<dyn Workload> = match name {
        "offline_cifar" => Box::new(offline::Offline::setup(seed, laps)),
        "http_closed_small" => Box::new(http::HttpClosed::setup(seed, laps)),
        "open_cifar" => Box::new(open::OpenLoop::setup(seed, laps)),
        "swap_under_load" => Box::new(swap::SwapUnderLoad::setup(seed, laps)),
        _ => return None,
    };
    laps.lap("load image + start serving surface");
    Some(workload)
}

/// Loads the model's zoo image into a fresh registry and starts a server
/// at `ServeConfig::default()` (1 shard × 1 worker, `max_batch` 16,
/// `max_wait` 2 ms) — the serve tier every serving workload measures.
pub fn start_server(model: &Model) -> Arc<Server> {
    let registry = Arc::new(ModelRegistry::new());
    registry.load_zoo(Arc::clone(&model.zoo)).expect("the benchmark's own zoo image loads");
    Arc::new(Server::start(registry, ServeConfig::default()).expect("default config is valid"))
}

/// What [`inproc_call`] observed: the outcome and the instants around
/// the two calls (for spans).
pub struct InprocCall {
    /// What became of the request.
    pub outcome: Outcome,
    /// The server's admission-to-response latency, when answered.
    pub latency: Option<Duration>,
    /// Before `submit_with`.
    pub submit_start: Instant,
    /// After `submit_with` returned.
    pub submit_end: Instant,
    /// After `Ticket::wait` returned and the output was checked.
    pub wait_end: Instant,
}

/// One in-process request for pool image `idx`: `submit_with` + `wait`,
/// output checked against the weight set of the version that answered.
pub fn inproc_call(server: &Server, model: &Model, idx: usize, opts: SubmitOptions) -> InprocCall {
    let image = model.pool[idx].clone();
    let submit_start = Instant::now();
    let ticket = server.submit_with(model.name(), image, opts);
    let submit_end = Instant::now();
    let (outcome, latency) = match ticket {
        Ok(ticket) => classify(model, idx, ticket.wait()),
        Err(e) => (refusal(&e), None),
    };
    InprocCall { outcome, latency, submit_start, submit_end, wait_end: Instant::now() }
}

/// Outcome of a submit-side error: admission refusals are `Refused`,
/// anything else is an error the client sees as a failed request.
pub(crate) fn refusal(e: &ServeError) -> Outcome {
    match e {
        ServeError::QueueFull { .. }
        | ServeError::QuotaExceeded { .. }
        | ServeError::CircuitOpen { .. } => Outcome::Refused,
        _ => Outcome::Shed,
    }
}

/// Outcome and server-side latency of a waited ticket.
pub(crate) fn classify(
    model: &Model,
    idx: usize,
    answer: Result<mfdfp_serve::Response, ServeError>,
) -> (Outcome, Option<Duration>) {
    match answer {
        Ok(r) => {
            let expected = &model.weights_of_version(r.version).expected[idx];
            if logits_match(r.logits.as_slice(), expected) {
                (Outcome::Ok, Some(r.latency))
            } else {
                (Outcome::Wrong, Some(r.latency))
            }
        }
        Err(_) => (Outcome::Shed, None),
    }
}

/// The full hot-swap path: CRC-verified open of the image bytes →
/// `from_image` → `Server::swap_model`. Returns milliseconds from bytes
/// to the new version being visible in the registry.
pub(crate) fn swap_in(server: &Server, model: &Model, weights: &Weights) -> f64 {
    let t0 = Instant::now();
    let view = ImageView::open(Arc::clone(&weights.image)).expect("own image verifies");
    let net = QuantizedNet::from_image(&view).expect("own image loads");
    let version = server.swap_model(model.name(), net).expect("model is registered");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(server.registry().version(model.name()).ok(), Some(version), "swap not visible");
    ms
}

/// A swap with no load running, to the weight set the next registry
/// version stands for.
pub(crate) fn swap_quiescent(server: &Server, model: &Model) -> f64 {
    let next = server.registry().version(model.name()).expect("model is registered") + 1;
    swap_in(server, model, model.weights_of_version(next))
}

/// In-process cold start: zoo image bytes → `load_zoo` → `Server::start`
/// → first checked logits. The shutdown that follows is not timed.
pub(crate) fn cold_start_inproc(model: &Model) -> (f64, Outcome) {
    let image = model.pool[0].clone();
    let t0 = Instant::now();
    let registry = Arc::new(ModelRegistry::new());
    registry.load_zoo(Arc::clone(&model.zoo)).expect("the benchmark's own zoo image loads");
    let server = Server::start(registry, ServeConfig::default()).expect("default config is valid");
    let answer = server.submit(model.name(), image).and_then(mfdfp_serve::Ticket::wait);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let outcome = classify(model, 0, answer).0;
    server.shutdown();
    (ms, outcome)
}
