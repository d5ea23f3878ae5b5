//! Tests of the harness itself: the arithmetic behind every reported
//! number, the open-loop schedule, the catalogue's naming rules, and that
//! a run emits exactly the metrics `BENCHMARK.json` names.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

use mfdfp_perfbench::catalog::{self, END_TO_END, WORKLOADS};
use mfdfp_perfbench::json::Json;
use mfdfp_perfbench::loadgen::{open_loop, Arrival, Clock, Outcome, Tally};
use mfdfp_perfbench::models::Laps;
use mfdfp_perfbench::refkernel::RefKernel;
use mfdfp_perfbench::run::{run, RunConfig};
use mfdfp_perfbench::stats::{
    batch_run_item_ms, best_run_rate, event_run_rate, floor, highest_supported, median, percentile,
    sorted, supports, worsening, Summary,
};
use mfdfp_perfbench::trace::{self_time_ns, Tracer};

#[test]
fn percentile_is_nearest_rank() {
    let s: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&s, 0.5), 5.0); // rank ceil(5.0) = 5
    assert_eq!(percentile(&s, 0.51), 6.0); // rank ceil(5.1) = 6
    assert_eq!(percentile(&s, 0.95), 10.0);
    assert_eq!(percentile(&s, 0.0), 1.0); // rank clamps to 1
    assert_eq!(percentile(&s, 1.0), 10.0);
    assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0); // never interpolated
    assert_eq!(percentile(&[], 0.5), 0.0);
    assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    // p95 of 200 has rank 190: exactly ten beyond. Of 199, nine.
    assert!(supports(200, 0.95));
    assert!(!supports(199, 0.95));
    assert!(supports(1000, 0.99));
    assert!(!supports(999, 0.99));
    assert!(!supports(0, 0.5));
    assert_eq!(highest_supported(99), None);
    assert_eq!(highest_supported(100), Some(0.90));
    assert_eq!(highest_supported(240), Some(0.95));
    assert_eq!(highest_supported(1000), Some(0.99));
    assert_eq!(highest_supported(10_000), Some(0.999));
}

#[test]
fn windows_report_median_and_spread() {
    let s = Summary::of(&[310.0, 290.0, 300.0, 330.0, 305.0]);
    assert_eq!((s.median, s.min, s.max, s.windows), (305.0, 290.0, 330.0, 5));
    assert!((s.relative_spread() - 40.0 / 305.0).abs() < 1e-12);
    assert_eq!(Summary::of(&[]).median, 0.0);
    // Worsening follows the metric's direction.
    assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
    assert!((worsening(100.0, 90.0, false) + 0.10).abs() < 1e-12);
    assert_eq!(worsening(0.0, 5.0, true), 0.0);
}

#[test]
fn the_floor_is_the_first_percentile_but_never_the_two_smallest() {
    let s: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(floor(&s), 10.0); // rank ceil(0.01 · 1000) = 10
    let s: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(floor(&s), 3.0); // p01 would be rank 1: clamped to the third
                                // Two freak readings cannot set it.
    assert_eq!(floor(&[0.001, 0.002, 5.0, 5.1, 5.2]), 5.0);
    assert_eq!(floor(&[7.0, 8.0]), 8.0); // fewer than three: the largest
    assert_eq!(floor(&[]), 0.0);
}

#[test]
fn throughput_is_the_rate_over_the_fastest_runs_of_completions() {
    // One completion every 10 ms, except a 200 ms stall after the 13th:
    // runs of 4 intervals take 40 ms, the one spanning the stall 230 ms.
    let mut t = 0.0;
    let done: Vec<f64> = (0..40)
        .map(|i| {
            t += if i == 13 { 200.0 } else { 10.0 };
            t
        })
        .collect();
    // Nine runs; the floor (third fastest) is an undisturbed 40 ms.
    assert_eq!(best_run_rate([done.as_slice()], 4), 4.0 * 1e3 / 40.0);
    // Runs never span windows: two windows of 5 completions hold one run
    // of 4 intervals each, never one made of both.
    let (a, b) = ([0.0, 10.0, 20.0, 30.0, 40.0], [1000.0, 1020.0, 1040.0, 1060.0, 1080.0]);
    assert_eq!(best_run_rate([a.as_slice(), b.as_slice()], 4), 4.0 * 1e3 / 80.0);
    // Bursts: batches of 4 completing together every 50 ms are 80/s, not
    // the 4-in-no-time a naive count per batch would give.
    let bursts: Vec<f64> = (0..40).map(|i| f64::from(i / 4) * 50.0).collect();
    assert_eq!(best_run_rate([bursts.as_slice()], 4), 80.0);
    assert_eq!(best_run_rate([[1.0, 2.0].as_slice()], 4), 0.0);
}

#[test]
fn event_runs_hold_the_operation_that_met_the_event() {
    // One completion every 10 ms, but the operation in flight at each
    // event (at 105, 205, … ms) takes 15 ms longer.
    let events: Vec<f64> = (1..=6).map(|i| f64::from(i) * 100.0 + 5.0).collect();
    let (mut t, mut done) = (0.0, Vec::new());
    while t < 700.0 {
        done.push(t);
        t += if events.iter().any(|&e| t <= e && e < t + 10.0) { 25.0 } else { 10.0 };
    }
    // Free runs of 4 find stretches without an event; event runs cannot.
    assert_eq!(best_run_rate([done.as_slice()], 4), 4.0 * 1e3 / 40.0);
    assert_eq!(event_run_rate([(done.as_slice(), events.as_slice())], 4), 4.0 * 1e3 / 55.0);
    // An event before the first completion or too near the end has no run.
    assert_eq!(event_run_rate([(done.as_slice(), [-1.0, 699.0].as_slice())], 4), 0.0);
}

#[test]
fn batch_runs_count_only_items_whose_batch_they_paid_for() {
    // A never-idle server answers batches of 4, 2 and 4 items at 10, 15
    // and 25 ms and so on, 2.5 ms an item; answers come in the order sent,
    // one of each batch stamped late by a client that read its clock late.
    let mut answers = Vec::new();
    let mut at = 0.0;
    for round in 0..6 {
        for n in [4usize, 2, 4] {
            at += 2.5 * n as f64;
            let late = if round % 2 == 0 { 7.0 } else { 0.0 };
            answers.extend((0..n).map(|i| (if i == 1 { at + late } else { at }, n)));
        }
    }
    for m in [1, 2, 3] {
        let runs = batch_run_item_ms(&answers, m);
        assert_eq!(runs.len(), 18 - m);
        assert!(runs.iter().all(|&ms| (ms - 2.5).abs() < 1e-12), "{m}: {runs:?}");
    }
    // Runs cut at arbitrary completions count items whose batch they did
    // not pay for: batches of 4 every 10 ms are 400/s, not 600/s.
    let fours: Vec<(f64, usize)> = (0..48).map(|i| (f64::from(i / 4 + 1) * 10.0, 4)).collect();
    let done: Vec<f64> = fours.iter().map(|a| a.0).collect();
    assert_eq!(best_run_rate([done.as_slice()], 6), 600.0);
    assert_eq!(1e3 / floor(&sorted(batch_run_item_ms(&fours, 2))), 400.0);
    // A batch cut short by the end of the window is left out.
    assert_eq!(batch_run_item_ms(&answers[..5], 1), Vec::<f64>::new());
    assert_eq!(batch_run_item_ms(&answers[..6], 1), [2.5]);
}

#[test]
fn setup_time_counts_every_piece_at_its_names_fastest_time() {
    let rep = |laps: &[(&'static str, f64)]| Laps::from_pairs(laps.to_vec());
    let reps = [
        rep(&[("build", 0.10), ("oracle", 0.90), ("oracle", 0.30), ("start", 0.02)]),
        rep(&[("build", 0.30), ("oracle", 0.20), ("oracle", 0.50), ("start", 0.02)]),
    ];
    // build 0.10 + oracle 2 × 0.20 (the fastest oracle of all four) + start 0.02.
    assert!((Laps::best_total(&reps) - 0.52).abs() < 1e-12);
    assert!((reps[0].total() - 1.32).abs() < 1e-12);
    assert_eq!(Laps::best_total(&[]), 0.0);
    let mut laps = Laps::start();
    laps.lap("a");
    laps.lap("b");
    assert_eq!(laps.laps.iter().map(|l| l.0).collect::<Vec<_>>(), ["a", "b"]);
}

#[test]
fn tally_identity_holds() {
    let mut t = Tally::default();
    for o in
        [Outcome::Ok, Outcome::Ok, Outcome::Refused, Outcome::Shed, Outcome::Late, Outcome::Wrong]
    {
        t.count(o);
    }
    assert_eq!(t.attempted(), t.ok + t.refused + t.shed + t.late + t.wrong);
    assert_eq!((t.attempted(), t.failed()), (6, 4));
    assert_eq!(t.lost(), 3); // the late one was answered, and answered right
    assert!((t.failed_share() - 4.0 / 6.0).abs() < 1e-12);
}

/// A clock that only moves when told to: `wait_until` jumps to the target
/// (plus a configurable oversleep), `advance` models a slow call.
struct FakeClock {
    now: Cell<Duration>,
    oversleep: Duration,
}

impl Clock for FakeClock {
    fn now(&self) -> Duration {
        self.now.get()
    }

    fn wait_until(&self, t: Duration) {
        if t > self.now.get() {
            self.now.set(t + self.oversleep);
        }
    }
}

#[test]
fn open_loop_schedule_is_fixed_and_latency_counts_from_due_time() {
    let ms = Duration::from_millis;
    let clock = FakeClock { now: Cell::new(ms(1000)), oversleep: ms(1) };
    let arrivals: RefCell<Vec<(Arrival, u64)>> = RefCell::new(Vec::new());
    // A stub server: every submit takes 2 ms, except the third, which
    // stalls for 35 ms — longer than the 10 ms interval.
    open_loop(
        &clock,
        ms(10),
        ms(60),
        |i| {
            clock.now.set(clock.now.get() + if i == 2 { ms(35) } else { ms(2) });
            i * 100
        },
        |a, ticket| arrivals.borrow_mut().push((a, ticket)),
    );
    let arrivals = arrivals.into_inner();
    // Six arrivals, due every 10 ms from the start, stall or no stall.
    assert_eq!(arrivals.len(), 6);
    for (i, (a, ticket)) in arrivals.iter().enumerate() {
        assert_eq!(a.index, i as u64);
        assert_eq!(a.due, ms(1000 + 10 * i as u64));
        assert_eq!(*ticket, i as u64 * 100);
    }
    // On-time arrivals are late by exactly the oversleep.
    assert_eq!(arrivals[1].0.lateness(), ms(1));
    assert_eq!(arrivals[2].0.lateness(), ms(1));
    // The stall (started 1021, returned 1056) makes the next three late:
    // they were due at 1030, 1040, 1050 and start back to back.
    assert_eq!(arrivals[3].0.started, ms(1056));
    assert_eq!(arrivals[3].0.lateness(), ms(26));
    assert_eq!(arrivals[4].0.lateness(), ms(18));
    assert_eq!(arrivals[5].0.lateness(), ms(10));
    // Latency counts from the due time: the victim of the stall is
    // charged the 26 ms it waited plus its own 2 ms submit, on top of the
    // server's 3 ms.
    assert_eq!(arrivals[3].0.latency_from_due(ms(3)), ms(26 + 2 + 3));
    // The stalled request itself: 1 ms late + 35 ms submit + 3 ms server.
    assert_eq!(arrivals[2].0.latency_from_due(ms(3)), ms(1 + 35 + 3));
    // A generator that is never late adds only the submit time.
    assert_eq!(arrivals[0].0.latency_from_due(ms(3)), ms(2 + 3));
}

#[test]
fn self_time_is_span_minus_children() {
    let tracer = Tracer::new();
    let t0 = Instant::now();
    let at = |us: u64| t0 + Duration::from_micros(us);
    {
        let mut tt = tracer.thread(0);
        let parent = tt.reserve();
        tt.span("child.a", Some(parent), 7, at(10), at(30));
        tt.span("child.b", Some(parent), 7, at(25), at(50)); // overlaps a by 5
        tt.span("child.c", Some(parent), 7, at(90), at(120)); // sticks out by 20
        let grandchild_of = tt.span("other", None, 8, at(0), at(100));
        tt.span("not.a.child", Some(grandchild_of), 8, at(0), at(100));
        tt.record(parent, "parent", None, 7, at(0), at(100));
    }
    let spans = tracer.spans();
    let parent = spans.iter().find(|s| s.name == "parent").expect("recorded");
    // Covered: [10,50] and [90,100] = 50 of 100 µs.
    assert_eq!(self_time_ns(&spans, parent.id), 50_000);
    let ids: std::collections::HashSet<_> = spans.iter().map(|s| s.id).collect();
    assert_eq!(ids.len(), spans.len(), "span ids are unique");
    let Json::Obj(doc) = tracer.chrome_json() else { panic!("trace is an object") };
    let Json::Arr(events) = &doc[0].1 else { panic!("traceEvents is an array") };
    assert_eq!(events.len(), spans.len());
}

#[test]
fn json_writer_escapes_and_nests() {
    let doc = Json::obj([
        ("s", Json::str("a\"b\\c\n")),
        ("n", Json::Num(1.5)),
        ("i", Json::Int(-3)),
        ("nan", Json::Num(f64::NAN)),
        ("a", Json::Arr(vec![Json::Bool(true), Json::Arr(vec![])])),
    ]);
    assert_eq!(doc.compact(), r#"{"s":"a\"b\\c\n","n":1.5,"i":-3,"nan":null,"a":[true,[]]}"#);
    assert!(doc.pretty().starts_with("{\n  \"s\": "));
    // A measurement keeps every digit it has.
    assert_eq!(Json::Num(3.472304000000001).compact(), "3.472304000000001");
}

#[test]
fn reference_kernel_is_deterministic() {
    let (mut a, mut b) = (RefKernel::new(), RefKernel::new());
    let first = a.pass();
    assert_eq!(first, b.pass());
    assert_eq!(a.pass(), b.pass());
    assert!(a.time_ns(3) > 0.0);
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn catalogue_obeys_the_benchmark_contract() {
    let per_layer = catalog::per_layer();
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(per_layer.iter().map(|m| m.name.as_str()));
    for name in &names {
        assert!(valid_name(name), "bad name {name:?}");
    }
    let unique: std::collections::HashSet<_> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    for unit in END_TO_END.iter().map(|m| m.unit).chain(per_layer.iter().map(|m| m.unit)) {
        assert!(valid_unit(unit), "bad unit {unit:?}");
    }
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&per_layer.len()));
    assert!((1..=60).contains(&catalog::RUN_SECONDS));
    for w in &WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "why of {} too long", w.name);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
    assert!(setup.unit == "s" && !setup.higher_is_better);
    for m in &END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {} out of range", m.name);
        assert!(m.bound <= setup.bound, "setup_s carries the largest bound");
    }
}

#[test]
fn benchmark_json_is_the_generated_manifest() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        catalog::benchmark_json().pretty(),
        "BENCHMARK.json is stale: regenerate it with `harness manifest > BENCHMARK.json`"
    );
    assert!(on_disk.len() <= 64 * 1024);
}

/// Keys of `metrics` in a result line, with each entry's keys.
fn result_metrics(line: &Json) -> Vec<(String, Vec<String>)> {
    let Json::Obj(top) = line else { panic!("result line is an object") };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let Json::Obj(metrics) = &top[3].1 else { panic!("metrics is an object") };
    metrics
        .iter()
        .map(|(name, m)| {
            let Json::Obj(fields) = m else { panic!("metric is an object") };
            (name.clone(), fields.iter().map(|(k, _)| k.clone()).collect())
        })
        .collect()
}

#[test]
fn a_quick_run_emits_exactly_the_catalogued_metrics() {
    for w in &WORKLOADS {
        for trace in [false, true] {
            let cfg = RunConfig {
                workload: w.name.to_string(),
                seed: 5,
                seconds: 18.0,
                trace,
                quick: true,
                trace_out: None,
            };
            let out = run(&cfg).expect("known workload");
            assert!(out.correct, "{} (trace {trace}) was incorrect: {:?}", w.name, out.problems);
            assert!(out.attempted >= 1);
            let emitted = result_metrics(&out.result_line());
            let expected: Vec<String> = if trace {
                catalog::per_layer().into_iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name.to_string()).collect()
            };
            let names: Vec<String> = emitted.iter().map(|(n, _)| n.clone()).collect();
            assert_eq!(names, expected, "{} (trace {trace}) emitted the wrong set", w.name);
            for (name, fields) in &emitted {
                assert_eq!(fields, &["value", "unit"], "{name} lacks a value or a unit");
            }
            if !trace {
                for m in &out.end_to_end {
                    assert!(m.value > 0.0, "{}: end-to-end {} must never be 0", w.name, m.name);
                }
            }
        }
    }
    assert!(run(&RunConfig {
        workload: "no_such_workload".into(),
        seed: 1,
        seconds: 1.0,
        trace: false,
        quick: true,
        trace_out: None,
    })
    .is_none());
}
