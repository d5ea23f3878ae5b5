//! The benchmark driver.
//!
//! ```text
//! harness --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the BENCHMARK.json contract)
//! harness [--seed <n>] [--seconds <s>]                               all four workloads, untraced then traced
//! harness repeat [--seed <n>] [--seconds <s>]                        the benchmark twice, compared against its bounds
//! harness manifest                                                    print BENCHMARK.json
//! ```
//!
//! `--quick` shrinks any of these to one 0.3 s window per phase.
//! `--trace-out <path>` chooses where a traced run writes its Chrome
//! trace (default: beside the executable, in `perfbench-traces/`).
//!
//! The last line of standard output of a single run is the result
//! object; everything else goes to standard error or precedes it. The
//! exit code is non-zero when any output was wrong.

use std::path::PathBuf;
use std::process::ExitCode;

use mfdfp_perfbench::catalog::{self, END_TO_END, RUN_SECONDS, WORKLOADS};
use mfdfp_perfbench::json::Json;
use mfdfp_perfbench::run::{run, RunConfig, RunOutput};
use mfdfp_perfbench::stats::worsening;

struct Cli {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    trace_out: Option<PathBuf>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        command: None,
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        trace_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => {
                cli.seed = value("--seed")?.parse().map_err(|_| "--seed needs a whole number")?;
            }
            "--seconds" => {
                cli.seconds =
                    value("--seconds")?.parse().map_err(|_| "--seconds needs a number")?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--quick" => cli.quick = true,
            "repeat" | "manifest" if cli.command.is_none() => cli.command = Some(arg),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(name) = &cli.workload {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {name:?} (known: {})", known.join(", ")));
        }
    }
    Ok(cli)
}

impl Cli {
    fn config(&self, workload: &str, trace: bool) -> RunConfig {
        let trace_out = trace.then(|| {
            self.trace_out.clone().unwrap_or_else(|| {
                // Beside the executable, i.e. inside the cargo target
                // directory, whatever the working directory is.
                let dir = std::env::current_exe()
                    .ok()
                    .and_then(|exe| exe.parent().map(|p| p.join("perfbench-traces")))
                    .unwrap_or_else(|| PathBuf::from("perfbench-traces"));
                dir.join(format!("{workload}-seed{}.json", self.seed))
            })
        });
        RunConfig {
            workload: workload.to_string(),
            seed: self.seed,
            seconds: self.seconds,
            trace,
            quick: self.quick,
            trace_out,
        }
    }
}

fn run_one(cfg: &RunConfig) -> RunOutput {
    let out = run(cfg).expect("workload names are checked while parsing");
    for problem in &out.problems {
        eprintln!("perfbench: {}: {problem}", cfg.workload);
    }
    out
}

/// All four workloads, untraced then traced, as one document.
fn run_all(cli: &Cli) -> ExitCode {
    let mut correct = true;
    let mut docs = Vec::new();
    for w in &WORKLOADS {
        let plain = run_one(&cli.config(w.name, false));
        let traced = run_one(&cli.config(w.name, true));
        correct &= plain.correct && traced.correct;
        docs.push(Json::obj([("untraced", plain.detail()), ("traced", traced.detail())]));
    }
    println!(
        "{}",
        Json::obj([("correct", Json::Bool(correct)), ("workloads", Json::Arr(docs))]).pretty()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The benchmark twice — set A in catalogue order, set B in reverse —
/// with every end-to-end metric of set B held against set A and its
/// bound. This is the evidence that two sets of runs of the same code
/// agree within the benchmark's own bounds.
fn repeat(cli: &Cli) -> ExitCode {
    let a: Vec<RunOutput> = WORKLOADS.iter().map(|w| run_one(&cli.config(w.name, false))).collect();
    let mut b: Vec<RunOutput> =
        WORKLOADS.iter().rev().map(|w| run_one(&cli.config(w.name, false))).collect();
    b.reverse();
    let mut all_pass = true;
    let mut rows = Vec::new();
    println!(
        "{:<18} {:<24} {:>12} {:>12} {:>8} {:>6}  {:<19} {:<19}",
        "workload", "metric", "A", "B", "diff", "bound", "windows A", "windows B"
    );
    for (ra, rb) in a.iter().zip(&b) {
        all_pass &= ra.correct && rb.correct;
        for ((ma, mb), spec) in ra.end_to_end.iter().zip(&rb.end_to_end).zip(&END_TO_END) {
            // Symmetric: neither set may be worse than the other by more
            // than the bound.
            let diff = worsening(ma.value, mb.value, spec.higher_is_better);
            let back = worsening(mb.value, ma.value, spec.higher_is_better);
            let pass = diff <= spec.bound && back <= spec.bound;
            all_pass &= pass;
            let spread = |m: &mfdfp_perfbench::run::Measured| {
                m.windows.map_or("-".to_string(), |s| format!("{:.4}..{:.4}", s.min, s.max))
            };
            println!(
                "{:<18} {:<24} {:>12.4} {:>12.4} {:>+7.1}% {:>5.0}%  {:<19} {:<19} {}",
                ra.config.workload,
                spec.name,
                ma.value,
                mb.value,
                diff * 100.0,
                spec.bound * 100.0,
                spread(ma),
                spread(mb),
                if pass { "pass" } else { "FAIL" },
            );
            rows.push(Json::obj([
                ("workload", Json::str(ra.config.workload.as_str())),
                ("metric", Json::str(spec.name)),
                ("a", Json::Num(ma.value)),
                ("b", Json::Num(mb.value)),
                ("worsening", Json::Num(diff)),
                ("bound", Json::Num(spec.bound)),
                ("pass", Json::Bool(pass)),
            ]));
        }
    }
    println!(
        "{}",
        Json::obj([("pass", Json::Bool(all_pass)), ("rows", Json::Arr(rows))]).compact()
    );
    if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // The shared compute pool stays out of the measurement: default
    // features never dispatch to it, and this pins its width should a
    // later build do so. Set while this is still the only thread.
    std::env::set_var("MFDFP_THREADS", "1");
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("harness: {msg}");
            return ExitCode::from(2);
        }
    };
    match (cli.command.as_deref(), &cli.workload) {
        (Some("manifest"), _) => {
            print!("{}", catalog::benchmark_json().pretty());
            ExitCode::SUCCESS
        }
        (Some("repeat"), _) => repeat(&cli),
        (_, None) => run_all(&cli),
        (_, Some(workload)) => {
            let out = run_one(&cli.config(workload, cli.trace));
            println!("{}", out.detail().compact());
            println!("{}", out.result_line().compact());
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
