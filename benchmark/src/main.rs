//! The repository's benchmark: host time of the operations users run,
//! end to end, and a traced run that splits it by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload fleet-day|compare-cold|campaign-2y|serve-mixed] \
//!     [--seed N] [--seconds S] [--trace [0|1]]
//! ```
//!
//! With `--workload` it runs that workload in this process and prints,
//! last, one JSON line `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics, or with `--trace` the per-layer ones. Without
//! it, it runs every workload in a child process of its own, so peak
//! memory is per workload. It exits non-zero when an output check
//! fails. `README.md` beside this file describes the workloads and
//! metrics.

mod campaign_2y;
mod client;
mod compare_cold;
mod fleet_day;
mod harness;
mod probe;
mod serve_mixed;
mod stats;
mod sys;
mod trace;

use std::io::BufRead as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use eh_serve::Json;

use crate::harness::Run;
use crate::stats::{Metric, Outcome};

/// One workload's entry point.
type Workload = fn(&Run) -> Outcome;

/// The workloads, in the order a full invocation runs them.
const WORKLOADS: [(&str, Workload); 4] = [
    ("fleet-day", fleet_day::run),
    ("compare-cold", compare_cold::run),
    ("campaign-2y", campaign_2y::run),
    ("serve-mixed", serve_mixed::run),
];

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 2011,
        seconds: 25.0,
        trace: false,
    };
    let mut it = args.into_iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = it.next().ok_or("--workload needs a name")?;
                if !WORKLOADS.iter().any(|(w, _)| *w == name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                parsed.workload = Some(name);
            }
            "--seed" => {
                parsed.seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs a non-negative integer")?;
            }
            "--seconds" => {
                parsed.seconds = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                parsed.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload here; true when every output check passed.
fn run_one(name: &str, args: &Args) -> bool {
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        out_dir: PathBuf::from("target").join("benchmark"),
        toy: false,
    };
    println!(
        "== {name}: seed {}, {} s, {} cores, {}",
        run.seed,
        run.seconds,
        run.nproc,
        if run.trace { "traced" } else { "untraced" }
    );
    let (_, workload) = WORKLOADS
        .iter()
        .find(|(w, _)| *w == name)
        .expect("parse_args accepts only known workloads");
    let mut outcome = workload(&run);
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    let names_ok = outcome
        .metrics
        .iter()
        .all(|m| stats::valid_metric_name(&m.name));
    if !names_ok {
        outcome.failed += 1;
        println!("FAILED: a metric name is not [A-Za-z0-9_.-]+");
    }
    println!("{}", outcome.result_line());
    outcome.failed == 0 && outcome.attempted > 0
}

/// Runs every workload in a child process of its own and prints a
/// combined result line; true when every child passed.
fn run_all(args: &Args) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return false;
        }
    };
    let start = Instant::now();
    let mut all = Outcome::default();
    let mut ok = true;
    for (name, _) in WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .spawn();
        let mut child = match child {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cannot start {name}: {e}");
                return false;
            }
        };
        let mut last = String::new();
        if let Some(stdout) = child.stdout.take() {
            for line in std::io::BufReader::new(stdout)
                .lines()
                .map_while(Result::ok)
            {
                println!("{line}");
                last = line;
            }
        }
        let passed = child.wait().is_ok_and(|s| s.success());
        match absorb(name, &last, &mut all) {
            Ok(()) => ok &= passed,
            Err(e) => {
                eprintln!("{name}: unreadable result line: {e}");
                ok = false;
            }
        }
    }
    println!(
        "== all workloads: {:.1} s, {} operations, {} failed",
        start.elapsed().as_secs_f64(),
        all.attempted,
        all.failed
    );
    println!("{}", all.result_line());
    ok
}

/// Adds a child's result line to the combined outcome, prefixing its
/// metric names with the workload.
fn absorb(workload: &str, line: &str, all: &mut Outcome) -> Result<(), String> {
    let json = Json::parse(line)?;
    let count = |key: &str| {
        json.get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("no {key}"))
    };
    all.attempted += count("attempted")?;
    all.failed += count("failed")?;
    for (name, m) in json
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("no metrics")?
    {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        all.metrics
            .push(Metric::new(format!("{workload}.{name}"), value, unit));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn arguments_parse() {
        let a = args("--workload compare-cold --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("compare-cold"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(!args("--trace 0").unwrap().trace);
        assert!(args("--trace").unwrap().trace);
        assert!(args("--trace --seed 4").unwrap().trace);
        assert_eq!(args("").unwrap().seed, 2011);
        assert!(args("--workload warp").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed -1").is_err());
        assert!(args("--bogus").is_err());
    }

    /// `(name, unit)` of a metric list in `BENCHMARK.json`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let Some(Json::Arr(items)) = json.get(key) else {
            panic!("BENCHMARK.json has no {key} list")
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// Every workload, untraced and traced, at toy sizes through the
    /// same code paths: its checks pass and it reports exactly the
    /// metrics `BENCHMARK.json` declares, with valid names.
    #[test]
    fn every_workload_runs_at_toy_size() {
        let workloads: Vec<String> = {
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
            let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
            let Some(Json::Arr(items)) = json.get("workloads") else {
                panic!("no workloads")
            };
            items
                .iter()
                .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_owned())
                .collect()
        };
        assert_eq!(workloads, WORKLOADS.map(|(w, _)| w.to_owned()));
        for trace in [false, true] {
            let expected = declared(if trace { "per_layer" } else { "end_to_end" });
            for (name, workload) in WORKLOADS {
                let run = Run {
                    seed: 3,
                    seconds: 0.3,
                    trace,
                    nproc: 2,
                    out_dir: PathBuf::from(concat!(
                        env!("CARGO_MANIFEST_DIR"),
                        "/../target/benchmark-test"
                    )),
                    toy: true,
                };
                let o = workload(&run);
                assert!(
                    o.attempted > 0 && o.failed == 0,
                    "{name} trace={trace}: {:#?}",
                    o.notes
                );
                let got: Vec<(String, String)> = o
                    .metrics
                    .iter()
                    .map(|m| (m.name.clone(), m.unit.clone()))
                    .collect();
                assert_eq!(got, expected, "{name} trace={trace}");
                for m in &o.metrics {
                    assert!(stats::valid_metric_name(&m.name), "{}", m.name);
                    assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
                    if m.name == "trace.e2e_ms" || m.name == "trace.attributed_frac" {
                        assert!(m.value > 0.0, "{name}: the trace recorded no time");
                    }
                }
                let line = Json::parse(&o.result_line()).unwrap();
                assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
            }
        }
    }
}
