//! `offline_cifar`: one thread, `QuantizedNet::logits_batch_into` on
//! `cifar10_quick` with a planned, warmed workspace, alternating fused
//! batches of 8 with single images. No serve tier at all.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mfdfp_core::{ImageView, QuantizedNet, Workspace};
use mfdfp_tensor::TensorRng;

use super::Workload;
use crate::layers::replay_forward;
use crate::loadgen::{Outcome, WindowResult};
use crate::models::{logits_match, Laps, Model, ModelKind, POOL};
use crate::stats::{floor, median, sorted};
use crate::trace::Tracer;

/// Fused batch size of the throughput half.
const BATCH: usize = 8;
/// Single-image calls per fused batch, so both halves get similar time.
const SINGLES_PER_BATCH: usize = 4;

pub(crate) struct Offline {
    model: Model,
    /// The network the loop runs: loaded from the image bytes, as a
    /// deployed process would, and replaced by [`Workload::swap_ms`].
    net: QuantizedNet,
    ws: Workspace,
    rng: TensorRng,
    batch_data: Vec<f32>,
    batch_out: Vec<f32>,
    requests: u64,
}

fn load(model: &Model) -> QuantizedNet {
    let view = ImageView::open(Arc::clone(&model.a.image)).expect("own image verifies");
    QuantizedNet::from_image(&view).expect("own image loads")
}

impl Offline {
    pub(crate) fn setup(seed: u64, laps: &mut Laps) -> Offline {
        let model = Model::build(ModelKind::Cifar10Quick, seed, false, laps);
        let net = load(&model);
        let ws = net.plan_for_batch(BATCH).workspace();
        let per_image = model.pool[0].len();
        let classes = net.classes();
        Offline {
            model,
            net,
            ws,
            rng: TensorRng::seed_from(seed ^ 0x6f66_666c), // "offl"
            batch_data: vec![0.0; per_image * BATCH],
            batch_out: vec![0.0; classes * BATCH],
            requests: 0,
        }
    }

    /// Runs pool images `first..first + n` (wrapping) as one call and
    /// checks every row. Returns the call's duration and how many rows
    /// were wrong.
    fn forward(&mut self, first: usize, n: usize, tracer: Option<&Tracer>) -> (Duration, u64) {
        let per_image = self.model.pool[0].len();
        let classes = self.net.classes();
        for b in 0..n {
            let img = self.model.pool[(first + b) % POOL].as_slice();
            self.batch_data[b * per_image..(b + 1) * per_image].copy_from_slice(img);
        }
        let data = &self.batch_data[..per_image * n];
        let out = &mut self.batch_out[..classes * n];
        self.requests += 1;
        let t0 = Instant::now();
        match tracer {
            // The traced pass is the layer replay: same arithmetic, one
            // span per layer under a `core.forward` parent.
            Some(tracer) => {
                let mut tt = tracer.thread(0);
                replay_forward(
                    &self.net,
                    data,
                    n,
                    &mut self.ws,
                    out,
                    Some((&mut tt, self.requests)),
                    false,
                );
            }
            None => self
                .net
                .logits_batch_into(data, n, &mut self.ws, out)
                .expect("pool images are valid inputs"),
        }
        let elapsed = t0.elapsed();
        let wrong = (0..n)
            .filter(|&b| {
                let expected = &self.model.a.expected[(first + b) % POOL];
                !logits_match(&out[b * classes..(b + 1) * classes], expected)
            })
            .count() as u64;
        (elapsed, wrong)
    }
}

impl Workload for Offline {
    fn model(&self) -> &Model {
        &self.model
    }

    fn run_window(
        &mut self,
        _phase: usize,
        len: Duration,
        tracer: Option<&Tracer>,
    ) -> WindowResult {
        let mut result = WindowResult::default();
        let start = Instant::now();
        while start.elapsed() < len {
            let first = self.rng.index(POOL);
            let (t, wrong) = self.forward(first, BATCH, tracer);
            result.unit_ms.push(t.as_secs_f64() * 1e3);
            result.tally.wrong += wrong;
            result.tally.ok += BATCH as u64 - wrong;
            for _ in 0..SINGLES_PER_BATCH {
                let idx = self.rng.index(POOL);
                let (t, wrong) = self.forward(idx, 1, tracer);
                result.tally.wrong += wrong;
                result.tally.ok += 1 - wrong;
                result.latencies_ms.push(t.as_secs_f64() * 1e3);
            }
        }
        // Images per second of the fused batch, at the window's median
        // B=8 call time: undiluted by the single-image half of the
        // window.
        result.len_ms = len.as_secs_f64() * 1e3;
        result.rate = BATCH as f64 * 1e3 / median(&result.unit_ms);
        result
    }

    /// Images per second of the fused batch at the floor of the B=8 call
    /// times — the rate the kernel sustains when the host leaves it alone.
    fn throughput(&self, windows: &[WindowResult]) -> f64 {
        let calls = sorted(windows.iter().flat_map(|w| w.unit_ms.iter().copied()).collect());
        BATCH as f64 * 1e3 / floor(&calls)
    }

    fn swap_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        self.net = load(&self.model);
        t0.elapsed().as_secs_f64() * 1e3
    }

    fn check(&mut self) -> Outcome {
        let (_, wrong) = self.forward(0, 1, None);
        if wrong == 0 {
            Outcome::Ok
        } else {
            Outcome::Wrong
        }
    }

    fn cold_start_ms(&mut self) -> (f64, Outcome) {
        let image = self.model.pool[0].as_slice();
        let mut out = vec![0.0f32; self.net.classes()];
        let t0 = Instant::now();
        let net = load(&self.model);
        let mut ws = net.plan_for_batch(BATCH).workspace();
        net.logits_batch_into(image, 1, &mut ws, &mut out).expect("pool images are valid inputs");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let ok = logits_match(&out, &self.model.a.expected[0]);
        (ms, if ok { Outcome::Ok } else { Outcome::Wrong })
    }
}
