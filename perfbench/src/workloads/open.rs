//! `open_cifar`: an in-process open loop on `cifar10_quick`. One
//! generator thread paces `Server::submit_with` on a fixed schedule and
//! hands the tickets to one collector thread; three phases at fixed
//! absolute rates.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mfdfp_serve::{Server, SubmitOptions, Ticket};
use mfdfp_tensor::TensorRng;

use super::{
    classify, cold_start_inproc, inproc_call, or_window_rate, refusal, start_server,
    swap_quiescent, Phase, Workload,
};
use crate::loadgen::{open_loop, Arrival, Outcome, WallClock, WindowResult};
use crate::models::{Laps, Model, ModelKind, POOL};
use crate::stats::{batch_run_item_ms, floor, sorted};
use crate::trace::Tracer;

/// The phases and their arrival rates, requests per second. Seed
/// capacity is about 450 req/s on a quiet host (250–300 on a noisy one),
/// so `over` — twice that, leaving room for a 2× faster kernel to show —
/// overloads on purpose, and its failures are reported, not gated.
const PHASES: [Phase; 3] = [
    Phase { name: "low", gated: true },
    Phase { name: "mid", gated: true },
    Phase { name: "over", gated: false },
];
const RATES: [f64; 3] = [40.0, 120.0, 1000.0];

/// Per-request shed deadline of the `over` phase: the server drops what
/// it cannot start in time. `low` and `mid` carry none — a 40 ms stall of
/// this host would otherwise shed requests of a server that is keeping
/// up — and are held to the latency limit alone.
const SHED_DEADLINE: Duration = Duration::from_millis(40);
/// Latency limit, counted from the due time; a later answer is `Late`.
pub(crate) const LATENCY_LIMIT: Duration = Duration::from_millis(80);

/// Batches per run in `throughput_rps`.
const RUN_BATCHES: usize = 2;

pub(crate) struct OpenLoop {
    server: Arc<Server>,
    rng: TensorRng,
    model: Model,
    requests: u64,
}

impl OpenLoop {
    pub(crate) fn setup(seed: u64, laps: &mut Laps) -> OpenLoop {
        let model = Model::build(ModelKind::Cifar10Quick, seed, false, laps);
        let server = start_server(&model);
        OpenLoop { server, rng: TensorRng::seed_from(seed ^ 0x6f70_656e), model, requests: 0 }
    }
}

impl Workload for OpenLoop {
    fn model(&self) -> &Model {
        &self.model
    }

    fn phases(&self) -> &'static [Phase] {
        &PHASES
    }

    fn throughput_phase(&self) -> usize {
        2
    }

    fn run_window(&mut self, phase: usize, len: Duration, tracer: Option<&Tracer>) -> WindowResult {
        let interval = Duration::from_secs_f64(1.0 / RATES[phase]);
        let deadline = (!PHASES[phase].gated).then_some(SHED_DEADLINE);
        let opts = SubmitOptions { deadline, ..Default::default() };
        let (server, model, rng) = (&self.server, &self.model, &mut self.rng);
        let first_request = self.requests;
        let clock = WallClock::start();
        let (tx, rx) = mpsc::channel::<(Arrival, usize, Result<Ticket, Outcome>)>();
        let mut result = std::thread::scope(|scope| {
            // Collector: waits on tickets concurrently with generation,
            // so a ticket's wait never delays a later arrival.
            let collector = scope.spawn(|| {
                let mut tt = tracer.map(|t| t.thread(1));
                let mut result = WindowResult::default();
                let mut answers = Vec::new();
                for (arrival, idx, submitted) in rx {
                    result.lateness_us.push(arrival.lateness().as_secs_f64() * 1e6);
                    let waited_from = Instant::now();
                    let (outcome, latency) = match submitted {
                        Ok(ticket) => {
                            let answer = ticket.wait();
                            if let Ok(r) = &answer {
                                // At the time the *server* answered, not
                                // when this thread got round to looking.
                                let at = (arrival.returned + r.latency).as_secs_f64() * 1e3;
                                answers.push((at, r.batch_size));
                            }
                            classify(model, idx, answer)
                        }
                        Err(refused) => (refused, None),
                    };
                    if let Some(tt) = tt.as_mut() {
                        let id = first_request + arrival.index;
                        tt.span("serve.ticket_wait", None, id, waited_from, Instant::now());
                    }
                    let from_due = latency.map(|l| arrival.latency_from_due(l));
                    let outcome = match (outcome, from_due) {
                        (Outcome::Ok, Some(l)) if l > LATENCY_LIMIT => Outcome::Late,
                        (o, _) => o,
                    };
                    result.tally.count(outcome);
                    if let Some(l) = from_due {
                        result.latencies_ms.push(l.as_secs_f64() * 1e3);
                    }
                }
                result.unit_ms = batch_run_item_ms(&answers, RUN_BATCHES);
                result
            });
            let mut tt = tracer.map(|t| t.thread(0));
            open_loop(
                &clock,
                interval,
                len,
                |_| {
                    let idx = rng.index(POOL);
                    let image = model.pool[idx].clone();
                    (idx, server.submit_with(model.name(), image, opts).map_err(|e| refusal(&e)))
                },
                |a, (idx, submitted)| {
                    if let Some(tt) = tt.as_mut() {
                        let (t0, t1) = (clock.instant(a.started), clock.instant(a.returned));
                        tt.span("serve.submit_with", None, first_request + a.index, t0, t1);
                    }
                    tx.send((a, idx, submitted)).expect("collector outlives the generator");
                },
            );
            drop(tx);
            collector.join().expect("collector thread")
        });
        self.requests += result.tally.attempted();
        // Right answers per second of schedule, in time or late.
        result.len_ms = len.as_secs_f64() * 1e3;
        result.rate = (result.tally.ok + result.tally.late) as f64 / len.as_secs_f64();
        result
    }

    /// Right answers per second of `over`, in time or late, over the
    /// fastest runs of [`RUN_BATCHES`] batches: what the server sustains
    /// with its queue never empty when the host leaves it alone.
    fn throughput(&self, windows: &[WindowResult]) -> f64 {
        let item_ms = sorted(windows.iter().flat_map(|w| w.unit_ms.iter().copied()).collect());
        let fastest = floor(&item_ms);
        or_window_rate(if fastest > 0.0 { 1e3 / fastest } else { 0.0 }, windows)
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
