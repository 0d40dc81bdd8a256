//! The repository benchmark: seeded closed-loop workloads against the
//! live sharded runtime (`runtime::Database`).
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot-dynamic --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` makes the traced pass for the per-layer metrics. Leaving
//! out `--workload` runs every workload, and leaving out `--trace` runs
//! both passes. Each pass prints its metrics by name with units, then
//! one JSON line; the process exits non-zero if any history fails the
//! serializability oracle or the value audit. See `README.md` for the
//! workloads and the layer metrics.

mod audit;
mod metrics;
mod round;
mod summary;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use crate::round::Round;
use crate::workload::Workload;

/// Rounds of each kind a pass makes however short `--seconds` is, so
/// that every median has several values.
const MIN_ROUNDS: usize = 3;

/// Read-only and writing samples the untraced pass collects at least, so
/// that its p99 latencies have ten samples beyond them.
const MIN_CLASS_SAMPLES: usize = 1_000;

struct Args {
    /// `None` runs every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    /// `None` runs the untraced pass, then the traced one.
    traced: Option<bool>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        traced: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The rounds of one pass, run until their windows add up to `seconds`
/// and hold enough samples of each class, or until a round fails
/// verification. The untraced pass runs untraced rounds only; the traced
/// pass alternates untraced and traced rounds, so the tracing overhead is
/// measured under the same conditions.
fn run_pass(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Vec<Round> {
    let mut rounds: Vec<Round> = Vec::new();
    let mut measured = 0.0;
    let per_kind = |rounds: &[Round], t: bool| rounds.iter().filter(|r| r.traced == t).count();
    let per_class = |rounds: &[Round], read_only: bool| {
        rounds
            .iter()
            .flat_map(|r| &r.samples)
            .filter(|s| s.read_only == read_only)
            .count()
    };
    while measured < seconds
        || per_kind(&rounds, false) < MIN_ROUNDS
        || (traced && per_kind(&rounds, true) < MIN_ROUNDS)
        || (!traced && per_class(&rounds, true) < MIN_CLASS_SAMPLES)
        || (!traced && per_class(&rounds, false) < MIN_CLASS_SAMPLES)
    {
        let index = rounds.len() as u64;
        let round = round::run(workload, seed, index, traced && index % 2 == 1);
        measured += round.window_s;
        let failed_verification = round.violation.is_some();
        rounds.push(round);
        if failed_verification {
            break;
        }
    }
    rounds
}

/// Run one pass in this process, print its metrics and result line, and
/// return whether every round verified.
fn single_pass(workload: Workload, seed: u64, seconds: f64, traced: bool) -> bool {
    let pass = if traced { "traced" } else { "untraced" };
    println!(
        "== perfbench {} seed {seed} {pass} pass, {} clients x {} txns per round, {}",
        workload.name(),
        workload::CLIENTS,
        workload.window_txns(),
        metrics::host_stamp(),
    );
    let started = Instant::now();
    let rounds = run_pass(workload, seed, seconds, traced);
    let violation = rounds.iter().find_map(|r| r.violation.as_deref());
    let reported = match violation {
        None if traced => metrics::per_layer(&rounds),
        None => metrics::end_to_end(&rounds),
        Some(_) => Vec::new(),
    };
    match violation {
        None => println!(
            "   {} rounds in {:.1} s, every history serializable and every value audit passed",
            rounds.len(),
            started.elapsed().as_secs_f64()
        ),
        Some(violation) => println!("   VIOLATION: {violation}"),
    }
    let attempted = rounds.iter().map(|r| r.attempted).sum();
    let failed = rounds.iter().map(|r| r.failed).sum();
    println!(
        "{}",
        metrics::result_line(violation.is_none(), attempted, failed, &reported)
    );
    violation.is_none()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.workload, args.traced) {
        (Some(workload), Some(traced)) => single_pass(workload, args.seed, args.seconds, traced),
        (workload, traced) => {
            // Every pass gets a process of its own, so that `rss_peak_mb`
            // (the process's peak) never includes an earlier pass.
            let workloads = workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
            let passes = traced.map_or(vec![false, true], |t| vec![t]);
            let exe = std::env::current_exe().expect("the running executable has a path");
            let mut ok = true;
            for w in &workloads {
                for &t in &passes {
                    let status = std::process::Command::new(&exe)
                        .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
                        .args(["--seconds", &args.seconds.to_string()])
                        .args(["--trace", if t { "1" } else { "0" }])
                        .status();
                    ok &= status.is_ok_and(|s| s.success());
                }
            }
            ok
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
