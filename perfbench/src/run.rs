//! One benchmark run: set-up, warm-up, timed windows, reloads and cold
//! starts, the traced pass, and the metrics that come out.

use std::path::PathBuf;
use std::time::Duration;

use mfdfp_serve::MetricsSnapshot;

use crate::catalog::{self, END_TO_END, WINDOWS};
use crate::json::Json;
use crate::loadgen::{Outcome, Tally, WindowResult};
use crate::models::Laps;
use crate::probes::{self, Effort};
use crate::refkernel::RefKernel;
use crate::stats::{floor, highest_supported, median, percentile, sorted, Summary};
use crate::trace::Tracer;
use crate::workloads::{self, Workload};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name (see [`catalog::WORKLOADS`]).
    pub workload: String,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Seconds the timed windows last in total.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Smoke run: one short window per phase, minimal repetitions.
    pub quick: bool,
    /// Where to write the Chrome trace of a traced run.
    pub trace_out: Option<PathBuf>,
}

/// Seconds within which a cheap set-up is repeated at once.
const SETUP_BUDGET_S: f64 = 0.5;

/// The repetition counts and lengths of a run.
struct Shape {
    /// Set-up repetitions before the first window: one, and up to
    /// `setup_reps_first` while they stay within [`SETUP_BUDGET_S`] in
    /// all — a cheap set-up (the small model: 15 ms) is repeated at once.
    setup_reps_first: usize,
    /// Set-up repetitions between the rotations of windows, one after
    /// every second rotation: a noisy spell of the host that owns the
    /// start of the run does not own these.
    setup_reps_later: usize,
    warmup: Duration,
    windows: usize,
    /// Timed seconds in total, shared equally by every window.
    timed: Duration,
    /// Model reloads and cold starts per round; one round follows every
    /// rotation of windows.
    round_swaps: usize,
    round_colds: usize,
    ref_passes: u32,
    effort: Effort,
}

impl Shape {
    fn of(cfg: &RunConfig) -> Shape {
        if cfg.quick {
            Shape {
                setup_reps_first: 1,
                setup_reps_later: 0,
                warmup: Duration::from_millis(100),
                windows: 1,
                timed: Duration::from_millis(300),
                round_swaps: 2,
                round_colds: 2,
                ref_passes: 20,
                effort: Effort::QUICK,
            }
        } else {
            Shape {
                setup_reps_first: 12,
                setup_reps_later: 2,
                warmup: Duration::from_secs(2),
                windows: WINDOWS,
                timed: Duration::from_secs_f64(cfg.seconds),
                round_swaps: 32,
                round_colds: 40,
                ref_passes: 200,
                effort: Effort::FULL,
            }
        }
    }

    /// Length of one window when `phases` phases share the timed seconds.
    /// A quick run gives every phase its one short window in full.
    fn window(&self, phases: usize) -> Duration {
        if self.windows == 1 {
            self.timed
        } else {
            self.timed / (self.windows * phases) as u32
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Catalogue name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// For context beside a floor or a fastest-runs rate: the same quantity as
    /// each window's median (or rate), summarised over the windows.
    pub windows: Option<Summary>,
    /// Samples the value was taken from.
    pub samples: Option<u64>,
}

impl Measured {
    fn plain(name: &str, unit: &'static str, value: f64) -> Measured {
        Measured { name: name.to_string(), unit, value, windows: None, samples: None }
    }

    fn end_to_end(name: &str, value: f64, samples: usize, per_window: &[f64]) -> Measured {
        let spec = END_TO_END.iter().find(|m| m.name == name).expect("catalogued");
        Measured {
            name: name.to_string(),
            unit: spec.unit,
            value,
            windows: (!per_window.is_empty()).then(|| Summary::of(per_window)),
            samples: Some(samples as u64),
        }
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("value".to_string(), Json::Num(self.value)),
            ("unit".to_string(), Json::str(self.unit)),
        ];
        if let Some(n) = self.samples {
            pairs.push(("samples".to_string(), Json::Int(n as i64)));
        }
        if let Some(s) = self.windows {
            pairs.push(("window_median".to_string(), Json::Num(s.median)));
            pairs.push((
                "window_spread".to_string(),
                Json::Arr(vec![Json::Num(s.min), Json::Num(s.max)]),
            ));
        }
        Json::Obj(pairs)
    }
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The configuration that ran.
    pub config: RunConfig,
    /// Every output matched and every accounting identity held.
    pub correct: bool,
    /// Operations attempted in the gated phases, reloads and cold starts.
    pub attempted: u64,
    /// Of those, the ones that never got a right answer: refused, shed,
    /// errored or wrong. A right answer that came late is a timing, and
    /// timings are metrics: how many there are follows the host's stalls
    /// (`client.late`, `client.failed_share`), not the code.
    pub failed: u64,
    /// The end-to-end metrics (always measured).
    pub end_to_end: Vec<Measured>,
    /// The per-layer metrics (traced runs only).
    pub per_layer: Vec<Measured>,
    /// Why `correct` is false, when it is.
    pub problems: Vec<String>,
}

impl RunOutput {
    /// The metrics the run was asked for: per-layer with `--trace 1`,
    /// end-to-end otherwise.
    pub fn metrics(&self) -> &[Measured] {
        if self.config.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The one-line result: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, each metric as `{value, unit}`.
    pub fn result_line(&self) -> Json {
        let metrics = self.metrics().iter().map(|m| {
            (
                m.name.clone(),
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::Obj(metrics.collect())),
        ])
    }

    /// Everything measured, with window spreads and sample counts.
    pub fn detail(&self) -> Json {
        let section =
            |ms: &[Measured]| Json::Obj(ms.iter().map(|m| (m.name.clone(), m.to_json())).collect());
        Json::obj([
            ("workload", Json::str(self.config.workload.as_str())),
            ("seed", Json::Int(self.config.seed as i64)),
            ("seconds", Json::Num(self.config.seconds)),
            ("quick", Json::Bool(self.config.quick)),
            ("correct", Json::Bool(self.correct)),
            ("problems", Json::strs(self.problems.iter().map(String::as_str))),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("end_to_end", section(&self.end_to_end)),
            ("per_layer", section(&self.per_layer)),
        ])
    }
}

/// Server-side counters as plain sums, so that two snapshots subtract.
#[derive(Debug, Clone, Copy, Default)]
struct ServeCounters {
    submitted: f64,
    completed: f64,
    failed: f64,
    shed: f64,
    rejected: f64,
    /// `(count, total µs)` of the queue-wait / infer / respond stages.
    stages: [(f64, f64); 3],
    batches: f64,
    batched_requests: f64,
}

impl ServeCounters {
    fn of(s: &MetricsSnapshot) -> ServeCounters {
        let stage =
            |st: &mfdfp_serve::StageSnapshot| (st.count as f64, st.mean_us * st.count as f64);
        ServeCounters {
            submitted: s.submitted as f64,
            completed: s.completed as f64,
            failed: s.failed as f64,
            shed: s.shed as f64,
            rejected: s.rejected as f64,
            stages: [stage(&s.stages.queue_wait), stage(&s.stages.infer), stage(&s.stages.respond)],
            batches: s.batch_histogram.iter().sum::<u64>() as f64,
            batched_requests: s
                .batch_histogram
                .iter()
                .enumerate()
                .map(|(i, &n)| (i as u64 + 1) * n)
                .sum::<u64>() as f64,
        }
    }

    /// `self += after − before`.
    fn add_delta(&mut self, before: &ServeCounters, after: &ServeCounters) {
        self.submitted += after.submitted - before.submitted;
        self.completed += after.completed - before.completed;
        self.failed += after.failed - before.failed;
        self.shed += after.shed - before.shed;
        self.rejected += after.rejected - before.rejected;
        for i in 0..3 {
            self.stages[i].0 += after.stages[i].0 - before.stages[i].0;
            self.stages[i].1 += after.stages[i].1 - before.stages[i].1;
        }
        self.batches += after.batches - before.batches;
        self.batched_requests += after.batched_requests - before.batched_requests;
    }

    fn add(&mut self, other: &ServeCounters) {
        self.add_delta(&ServeCounters::default(), other);
    }

    fn stage_mean_us(&self, i: usize) -> f64 {
        ratio(self.stages[i].1, self.stages[i].0)
    }

    fn batch_mean(&self) -> f64 {
        ratio(self.batched_requests, self.batches)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// What one phase accumulated over its windows.
#[derive(Default)]
struct PhaseAgg {
    windows: Vec<WindowResult>,
    traced_rates: Vec<f64>,
    serve: ServeCounters,
}

impl PhaseAgg {
    fn rates(&self) -> Vec<f64> {
        self.windows.iter().map(|w| w.rate).collect()
    }

    fn window_p50s(&self) -> Vec<f64> {
        self.windows.iter().map(|w| percentile(&sorted(w.latencies_ms.clone()), 0.5)).collect()
    }

    fn pooled_latencies(&self) -> Vec<f64> {
        sorted(self.windows.iter().flat_map(|w| w.latencies_ms.iter().copied()).collect())
    }

    fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for w in &self.windows {
            t.add(&w.tally);
        }
        t
    }
}

/// Runs one window and folds the server-side counter movement into
/// `serve`.
fn window(
    w: &mut dyn Workload,
    phase: usize,
    len: Duration,
    tracer: Option<&Tracer>,
    serve: &mut ServeCounters,
) -> WindowResult {
    let before = w.server().map(|s| ServeCounters::of(&s.metrics()));
    let result = w.run_window(phase, len, tracer);
    if let (Some(before), Some(server)) = (before, w.server()) {
        serve.add_delta(&before, &ServeCounters::of(&server.metrics()));
    }
    result
}

/// Runs the benchmark once. `None` for an unknown workload name.
pub fn run(cfg: &RunConfig) -> Option<RunOutput> {
    catalog::WORKLOADS.iter().find(|w| w.name == cfg.workload)?;
    let mut problems = Vec::new();
    let shape = Shape::of(cfg);

    // Set-up, several times over, timed piece by piece: `setup_s` adds up
    // each piece's fastest repetition. The first instance is the one
    // measured; the others are torn down untimed.
    let mut setups: Vec<Laps> = Vec::new();
    let set_up = |setups: &mut Vec<Laps>| {
        let mut laps = Laps::start();
        let workload = workloads::setup(&cfg.workload, cfg.seed, &mut laps);
        setups.push(laps);
        workload
    };
    let mut workload = set_up(&mut setups)?;
    while setups.len() < shape.setup_reps_first
        && setups.iter().map(Laps::total).sum::<f64>() < SETUP_BUDGET_S
    {
        drop(set_up(&mut setups));
    }
    let mut setups_later = shape.setup_reps_later;
    let w = workload.as_mut();
    let phases = w.phases();
    let window_len = shape.window(phases.len());

    let tracer = Tracer::new();
    let mut refk = RefKernel::new();
    let mut ref_ns = vec![refk.time_ns(shape.ref_passes)];
    let mut lifetime = Tally::default();
    let mut discard = ServeCounters::default();

    // Warm-up, discarded: caches fill, the worker's workspace is planned,
    // connections are established.
    for p in 0..phases.len() {
        let len = shape.warmup / phases.len() as u32;
        lifetime.add(&window(w, p, len, None, &mut discard).tally);
    }

    // Timed windows, rotating through the phases so that host drift
    // lands on every phase alike; the reference kernel runs between
    // them. A traced run splits every window into an untraced and a
    // traced half, alternating which comes first.
    let mut aggs: Vec<PhaseAgg> = phases.iter().map(|_| PhaseAgg::default()).collect();
    let mut ops = Tally::default();
    let (mut swap_rounds, mut cold_rounds): (Vec<Vec<f64>>, Vec<Vec<f64>>) =
        (Vec::new(), Vec::new());
    for i in 0..shape.windows {
        let mut swapped_beside_load = Vec::new();
        for (p, agg) in aggs.iter_mut().enumerate() {
            let plain = if cfg.trace {
                let half = window_len / 2;
                let mut plain = None;
                for traced in if i % 2 == 0 { [false, true] } else { [true, false] } {
                    let r = window(w, p, half, traced.then_some(&tracer), &mut agg.serve);
                    lifetime.add(&r.tally);
                    if traced {
                        agg.traced_rates.push(r.rate);
                        if r.tally.wrong > 0 {
                            problems.push(format!(
                                "{} wrong outputs in a traced window",
                                r.tally.wrong
                            ));
                        }
                    } else {
                        plain = Some(r);
                    }
                }
                plain.expect("one half of every window is untraced")
            } else {
                let r = window(w, p, window_len, None, &mut agg.serve);
                lifetime.add(&r.tally);
                r
            };
            swapped_beside_load.extend_from_slice(&plain.swap_ms);
            agg.windows.push(plain);
            ref_ns.push(refk.time_ns(shape.ref_passes));
        }

        // A round of model reloads (unless the workload swapped beside
        // its load) and of cold starts, each through the workload's own
        // surface. One round per rotation spreads them over the run like
        // the windows.
        if swapped_beside_load.is_empty() {
            let round: Vec<f64> = (0..shape.round_swaps).map(|_| w.swap_ms()).collect();
            // The reloaded model must still answer right.
            let outcome = w.check();
            if w.server().is_some() {
                lifetime.count(outcome);
            }
            if outcome == Outcome::Ok {
                ops.ok += round.len() as u64;
            } else {
                ops.wrong += round.len() as u64;
            }
            swap_rounds.push(round);
        } else {
            // Each swap beside the load is verified by the responses
            // that claim its version: attempted and answered.
            ops.ok += swapped_beside_load.len() as u64;
            swap_rounds.push(swapped_beside_load);
        }
        cold_rounds.push(
            (0..shape.round_colds)
                .map(|_| {
                    let (ms, outcome) = w.cold_start_ms();
                    ops.count(outcome);
                    ms
                })
                .collect(),
        );
        if i % 2 == 1 && setups_later > 0 {
            setups_later -= 1;
            drop(set_up(&mut setups));
        }
    }

    // Accounting: what the clients attempted is what the server counted.
    if let Some(server) = w.server() {
        let snap = server.metrics();
        if snap.submitted != snap.completed + snap.failed + snap.shed + snap.shutdown_rejected {
            problems.push("server accounting identity does not balance".into());
        }
        if lifetime.attempted() - lifetime.refused != snap.submitted {
            problems.push(format!(
                "clients attempted {} (+{} refused) but the server admitted {}",
                lifetime.attempted() - lifetime.refused,
                lifetime.refused,
                snap.submitted
            ));
        }
    }

    // Totals over the gated phases.
    let mut gated = ops;
    let mut ungated = Tally::default();
    for (phase, agg) in phases.iter().zip(&aggs) {
        if phase.gated {
            gated.add(&agg.tally());
        } else {
            ungated.add(&agg.tally());
        }
    }
    let wrong = gated.wrong + ungated.wrong;
    if wrong > 0 {
        problems.push(format!("{wrong} wrong outputs"));
    }

    let tp = &aggs[w.throughput_phase()];
    let lp = &aggs[w.latency_phase()];
    let pooled = lp.pooled_latencies();
    // The latency floor pools every phase that does not overload: at
    // the floor each of them found the server idle, and the more samples
    // the floor is taken from, the less one spell of the host moves it.
    let floor_pool = sorted(
        phases
            .iter()
            .zip(&aggs)
            .filter(|(phase, _)| phase.gated)
            .flat_map(|(_, agg)| agg.windows.iter().flat_map(|w| w.latencies_ms.iter().copied()))
            .collect(),
    );
    let refs = Summary::of(&ref_ns);
    let throughput = w.throughput(&tp.windows);
    let (swaps, colds) = (sorted(swap_rounds.concat()), sorted(cold_rounds.concat()));
    let round_medians = |rounds: &[Vec<f64>]| rounds.iter().map(|r| median(r)).collect::<Vec<_>>();
    let setup_totals: Vec<f64> = setups.iter().map(Laps::total).collect();
    let end_to_end = vec![
        Measured::end_to_end("setup_s", Laps::best_total(&setups), setups.len(), &setup_totals),
        Measured::end_to_end("throughput_rps", throughput, tp.windows.len(), &tp.rates()),
        Measured::end_to_end(
            "latency_floor_ms",
            w.latency_floor(&floor_pool),
            floor_pool.len(),
            &lp.window_p50s(),
        ),
        Measured::end_to_end(
            "swap_floor_ms",
            floor(&swaps),
            swaps.len(),
            &round_medians(&swap_rounds),
        ),
        Measured::end_to_end(
            "cold_first_logit_floor_ms",
            floor(&colds),
            colds.len(),
            &round_medians(&cold_rounds),
        ),
    ];

    // The traced pass: per-layer probes on this workload's model, plus
    // what the windows themselves saw.
    let mut per_layer = Vec::new();
    if cfg.trace {
        let mut m = Vec::new();
        if !probes::layer_metrics(w.model(), &tracer, shape.effort, &mut m) {
            problems.push("layer replay diverged from logits_batch_into or the oracle".into());
        }
        probes::gemm_256_metrics(shape.effort, &mut m);
        probes::image_metrics(w.model(), shape.effort, &mut m);
        probes::serve_metrics(w.model(), shape.effort, &mut m);
        probes::runtime_metrics(shape.effort, &mut m);

        let mut serve = ServeCounters::default();
        for agg in &aggs {
            serve.add(&agg.serve);
        }
        // Stage means come from the latency phase: for the open loop
        // that is `low`, where they must add up to the client's p50.
        let lat_serve = &lp.serve;
        let over = phases.iter().position(|p| !p.gated).map(|p| &aggs[p]);
        let mid = phases.iter().position(|p| p.name == "mid").map(|p| &aggs[p]);
        let all = {
            let mut t = gated;
            t.add(&ungated);
            t
        };
        let tail_q = highest_supported(pooled.len());
        let lateness = sorted(
            aggs.iter()
                .flat_map(|a| a.windows.iter().flat_map(|w| w.lateness_us.iter().copied()))
                .collect(),
        );
        let traced = tp.traced_rates.iter().copied().fold(0.0, f64::max);
        let untraced = tp.rates().into_iter().fold(0.0, f64::max);
        m.extend([
            ("serve.stage.queue_wait_us".to_string(), lat_serve.stage_mean_us(0)),
            ("serve.stage.infer_us".into(), lat_serve.stage_mean_us(1)),
            ("serve.stage.respond_us".into(), lat_serve.stage_mean_us(2)),
            ("serve.batch_mean".into(), serve.batch_mean()),
            ("serve.batch_mean_over".into(), over.map_or(0.0, |a| a.serve.batch_mean())),
            ("serve.submitted".into(), serve.submitted),
            ("serve.completed".into(), serve.completed),
            ("serve.failed".into(), serve.failed),
            ("serve.shed".into(), serve.shed),
            ("serve.rejected".into(), serve.rejected),
            ("client.attempted".into(), all.attempted() as f64),
            ("client.ok".into(), all.ok as f64),
            ("client.refused".into(), all.refused as f64),
            ("client.shed".into(), all.shed as f64),
            ("client.late".into(), all.late as f64),
            ("client.wrong".into(), all.wrong as f64),
            ("client.failed_share".into(), gated.failed_share()),
            ("client.failed_share_over".into(), ungated.failed_share()),
            (
                "client.goodput_rps_over".into(),
                over.map_or(0.0, |a| {
                    let seconds = a.windows.iter().map(|w| w.len_ms).sum::<f64>() / 1e3;
                    ratio(a.tally().ok as f64, seconds)
                }),
            ),
            ("client.latency_p50_ms".into(), percentile(&pooled, 0.5)),
            (
                "client.latency_p50_ms_mid".into(),
                mid.map_or(0.0, |a| percentile(&a.pooled_latencies(), 0.5)),
            ),
            ("client.latency_p95_ms".into(), percentile(&pooled, 0.95)),
            ("client.swap_ms_p50".into(), percentile(&swaps, 0.5)),
            ("client.cold_first_logit_ms_p50".into(), percentile(&colds, 0.5)),
            ("client.throughput_rps_median_window".into(), median(&tp.rates())),
            ("client.latency_tail_ms".into(), tail_q.map_or(0.0, |q| percentile(&pooled, q))),
            ("client.latency_tail_q".into(), tail_q.unwrap_or(0.0)),
            ("client.latency_samples".into(), pooled.len() as f64),
            ("client.latency_max_ms".into(), pooled.last().copied().unwrap_or(0.0)),
            ("gen.lateness_p99_us".into(), percentile(&lateness, 0.99)),
            (
                "host.nproc".into(),
                std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64),
            ),
            ("host.timer_ns".into(), probes::timer_ns()),
            ("host.ref_kernel_ns".into(), refs.median),
            ("host.ref_kernel_spread".into(), refs.relative_spread()),
            ("host.throughput_per_ref".into(), throughput * refs.min / 1e9),
            ("trace.overhead_share".into(), 1.0 - ratio(traced, untraced)),
            ("trace.spans".into(), tracer.len() as f64),
        ]);
        per_layer = catalogued(m);
        if let Some(path) = &cfg.trace_out {
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            if let Err(e) = std::fs::write(path, tracer.chrome_json().compact()) {
                eprintln!("perfbench: could not write trace {}: {e}", path.display());
            } else {
                eprintln!("perfbench: wrote {} (load at https://ui.perfetto.dev)", path.display());
            }
        }
    }

    Some(RunOutput {
        config: cfg.clone(),
        correct: problems.is_empty(),
        attempted: gated.attempted(),
        failed: gated.lost(),
        end_to_end,
        per_layer,
        problems,
    })
}

/// Orders probe results as the catalogue lists them and insists the two
/// name exactly the same metrics.
fn catalogued(mut measured: Vec<(String, f64)>) -> Vec<Measured> {
    let out: Vec<Measured> = catalog::per_layer()
        .iter()
        .map(|spec| {
            let at = measured
                .iter()
                .position(|(name, _)| *name == spec.name)
                .unwrap_or_else(|| panic!("per-layer metric {} was not measured", spec.name));
            Measured::plain(&spec.name, spec.unit, measured.swap_remove(at).1)
        })
        .collect();
    assert!(measured.is_empty(), "measured but not catalogued: {measured:?}");
    out
}
