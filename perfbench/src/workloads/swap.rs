//! `swap_under_load`: one closed-loop in-process client on
//! `cifar10_quick` while a swapper thread publishes alternating weight
//! sets A/B at a fixed 10 Hz through the full load path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mfdfp_serve::{Server, SubmitOptions};
use mfdfp_tensor::TensorRng;

use super::{
    cold_start_inproc, inproc_call, or_window_rate, start_server, swap_in, swap_quiescent, Workload,
};
use crate::loadgen::{closed_loop, Clock, Outcome, WallClock, WindowResult};
use crate::models::{Laps, Model, ModelKind, POOL};
use crate::stats::event_run_rate;
use crate::trace::Tracer;

/// Swap period: 10 Hz.
const SWAP_PERIOD: Duration = Duration::from_millis(100);

/// Completions per run in `throughput_rps`: the request that met the
/// swap and the three after it, about 20 ms of this one client.
const RUN: usize = 4;

pub(crate) struct SwapUnderLoad {
    server: Arc<Server>,
    rng: TensorRng,
    model: Model,
    requests: u64,
}

impl SwapUnderLoad {
    pub(crate) fn setup(seed: u64, laps: &mut Laps) -> SwapUnderLoad {
        let model = Model::build(ModelKind::Cifar10Quick, seed, true, laps);
        let server = start_server(&model);
        SwapUnderLoad { server, rng: TensorRng::seed_from(seed ^ 0x7377_6170), model, requests: 0 }
    }
}

impl Workload for SwapUnderLoad {
    fn model(&self) -> &Model {
        &self.model
    }

    fn run_window(
        &mut self,
        _phase: usize,
        len: Duration,
        tracer: Option<&Tracer>,
    ) -> WindowResult {
        let (server, model, rng, requests) =
            (&self.server, &self.model, &mut self.rng, &mut self.requests);
        let stop = AtomicBool::new(false);
        let start = Instant::now();
        std::thread::scope(|scope| {
            // Swapper: version v+1 gets the weight set its parity stands
            // for, so every response can be checked against the weights
            // of the version it claims.
            let swapper = scope.spawn(|| {
                let clock = WallClock::start();
                let (mut swaps_ms, mut swaps_at_ms) = (Vec::new(), Vec::new());
                for tick in 1u32.. {
                    clock.wait_until(SWAP_PERIOD * tick);
                    // SeqCst: pairs with the store below; a plain flag.
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let next = server.registry().version(model.name()).expect("registered") + 1;
                    swaps_at_ms.push(start.elapsed().as_secs_f64() * 1e3);
                    swaps_ms.push(swap_in(server, model, model.weights_of_version(next)));
                }
                (swaps_ms, swaps_at_ms)
            });
            let mut tt = tracer.map(|t| t.thread(0));
            let mut result = closed_loop(start, len, || {
                let idx = rng.index(POOL);
                let call = inproc_call(server, model, idx, SubmitOptions::default());
                *requests += 1;
                if let Some(tt) = tt.as_mut() {
                    let parent = tt.reserve();
                    let id = *requests;
                    tt.span(
                        "serve.submit_with",
                        Some(parent),
                        id,
                        call.submit_start,
                        call.submit_end,
                    );
                    tt.span("serve.ticket_wait", Some(parent), id, call.submit_end, call.wait_end);
                    tt.record(parent, "client.request", None, id, call.submit_start, call.wait_end);
                }
                (call.outcome, call.latency.map(|_| call.wait_end - call.submit_start))
            });
            stop.store(true, Ordering::SeqCst);
            (result.swap_ms, result.swap_at_ms) = swapper.join().expect("swapper thread");
            result
        })
    }

    /// The rate over the fastest runs of [`RUN`] completions that each
    /// **hold a swap**: a run begins at the last completion before a swap
    /// began, so what a swap costs the reader is in every run, and the
    /// fastest of them cannot be the ones that met no swap.
    fn throughput(&self, windows: &[WindowResult]) -> f64 {
        let with_swaps = windows.iter().map(|w| (w.done_ms.as_slice(), w.swap_at_ms.as_slice()));
        or_window_rate(event_run_rate(with_swaps, RUN), windows)
    }

    fn swap_ms(&mut self) -> f64 {
        swap_quiescent(&self.server, &self.model)
    }

    fn check(&mut self) -> Outcome {
        inproc_call(&self.server, &self.model, 0, SubmitOptions::default()).outcome
    }

    fn cold_start_ms(&mut self) -> (f64, Outcome) {
        cold_start_inproc(&self.model)
    }

    fn server(&self) -> Option<&Server> {
        Some(&self.server)
    }
}
