//! The metrics a pass reports, their human-readable lines, and the JSON
//! result line.

use crate::round::{Counters, Round, Route, Sample};
use crate::summary::{median, Summary};

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Print one metric line.
fn show(name: &str, unit: &str, value: f64, note: &str) {
    println!("   {name:<34} {value:>12.4} {unit:<6} {note}");
}

/// Collects the reported metrics and prints each as it is added.
#[derive(Default)]
struct Sheet(Vec<Metric>);

impl Sheet {
    fn add(&mut self, name: &'static str, unit: &'static str, value: f64, note: &str) {
        show(name, unit, value, note);
        self.0.push(Metric { name, unit, value });
    }

    /// Add the p50 of a set of timings, noting the highest supported
    /// tail and the sample count; returns the summary for the caller's p99.
    fn timing(&mut self, p50_name: &'static str, mut samples: Vec<f64>) -> Option<Summary> {
        let summary = Summary::of(&mut samples);
        match &summary {
            Some(s) => self.add(p50_name, "us", s.p50, &s.describe("us")),
            None => self.add(p50_name, "us", 0.0, "(no samples)"),
        }
        summary
    }
}

/// The p99 of a summary (0 without samples), and a warning when fewer
/// than ten samples lie beyond it.
fn p99(summary: &Option<Summary>) -> (f64, &'static str) {
    match summary {
        Some(s) if s.tail.is_some_and(|(pct, _)| pct >= 99.0) => (s.p99, ""),
        Some(s) => (s.p99, "(fewer than 10 samples beyond p99)"),
        None => (0.0, "(no samples)"),
    }
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Commits per slice of [`slice_tps`].
const SLICE_COMMITS: usize = 50;

fn tps(round: &Round) -> f64 {
    ratio(round.samples.len() as f64, round.window_s)
}

/// The throughput of each run of [`SLICE_COMMITS`] consecutive commits in
/// a round's window, both clients' commits merged in the order they
/// returned. A stall of the host or of the program lengthens only the
/// slices it falls in, so the median over slices is the window's
/// throughput between stalls; [`tps`] is the whole window's, stalls
/// included.
fn slice_tps(round: &Round) -> Vec<f64> {
    let mut done: Vec<_> = round.samples.iter().map(|s| s.done).collect();
    done.sort();
    done.windows(SLICE_COMMITS + 1)
        .step_by(SLICE_COMMITS)
        .map(|w| {
            ratio(
                SLICE_COMMITS as f64,
                (w[SLICE_COMMITS] - w[0]).as_secs_f64(),
            )
        })
        .collect()
}

fn latencies<'a>(
    rounds: impl Iterator<Item = &'a Round>,
    keep: impl Fn(&Sample) -> bool,
    of: impl Fn(&Sample) -> Option<f64>,
) -> Vec<f64> {
    rounds
        .flat_map(|r| &r.samples)
        .filter(|s| keep(s))
        .filter_map(of)
        .collect()
}

/// The end-to-end metrics of an untraced pass.
pub fn end_to_end(rounds: &[Round]) -> Vec<Metric> {
    let mut sheet = Sheet::default();
    let n = rounds.len();
    let mut slices: Vec<f64> = rounds.iter().flat_map(slice_tps).collect();
    sheet.add(
        "commit_tps",
        "1/s",
        median(&mut slices),
        &format!(
            "(median of {} slices of {SLICE_COMMITS} commits)",
            slices.len()
        ),
    );
    let mut round_tps: Vec<f64> = rounds.iter().map(tps).collect();
    // Printed, not reported: the host's stalls land on whole windows,
    // and on a shared 2-vCPU host they moved this figure up to fourfold
    // between runs while the p50s moved by about a third.
    show(
        "window_tps",
        "1/s",
        median(&mut round_tps),
        &format!("(not gated; whole windows, median of {n} rounds)"),
    );
    for (read_only, p50_name, p99_name) in [
        (true, "ro_latency_p50_us", "ro_latency_p99_us"),
        (false, "rw_latency_p50_us", "rw_latency_p99_us"),
    ] {
        let samples = latencies(
            rounds.iter(),
            |s| s.read_only == read_only,
            |s| Some(s.total_us),
        );
        let (value, note) = p99(&sheet.timing(p50_name, samples));
        // Printed, not reported: on a shared 2-vCPU host the p99 moves
        // two to three times as much as the p50 from run to run.
        show(p99_name, "us", value, &format!("(not gated) {note}"));
    }
    let mut setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    sheet.add(
        "setup_s",
        "s",
        median(&mut setups),
        &format!("(open + warm-up, median of {n} rounds)"),
    );
    sheet.add(
        "rss_peak_mb",
        "MiB",
        rounds[0].rss_peak_mb,
        "(VmHWM after the first window, before verification)",
    );
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    show(
        "fail_frac",
        "ratio",
        ratio(failed as f64, attempted as f64),
        &format!("(not gated; {failed} of {attempted} calls returned Err)"),
    );
    sheet.0
}

/// The per-layer metrics of a traced pass: database counters and trace
/// segments summed over its traced rounds, benchmark-side call timings
/// from the same rounds, and the untraced rounds as the overhead base.
pub fn per_layer(rounds: &[Round]) -> Vec<Metric> {
    let mut sheet = Sheet::default();
    let traced = || rounds.iter().filter(|r| r.traced);
    let c = traced().fold(Counters::default(), |sum, r| sum.plus(&r.counters));
    let per_span = |sum: f64| ratio(sum, c.spans);

    let segment = per_span(c.sel_us);
    let compute = ratio(c.selection_us, c.selections);
    sheet.add(
        "selection.segment_us",
        "us",
        segment,
        "(trace `sel`, lock wait included)",
    );
    sheet.add(
        "selection.compute_us",
        "us",
        compute,
        "(selector, lock held)",
    );
    sheet.add(
        "selection.lock_wait_us",
        "us",
        segment - compute,
        "(segment - compute)",
    );
    sheet.add(
        "selection.cache_hit_rate",
        "ratio",
        ratio(c.cache_hits, c.cache_hits + c.cache_misses),
        "",
    );

    sheet.add(
        "transport.xport_us",
        "us",
        per_span(c.xport_us),
        "(trace `xport`)",
    );
    sheet.add(
        "transport.ring_dwell_us",
        "us",
        ratio(c.ring_dwell_us, c.ring_msgs),
        "(shard ring dwell per command)",
    );
    sheet.add(
        "transport.reply_us",
        "us",
        per_span(c.reply_us),
        "(trace `reply`)",
    );
    sheet.add(
        "transport.msgs_per_txn",
        "count",
        ratio(c.ring_msgs, c.committed),
        "(ring commands per commit)",
    );
    sheet.add("transport.stale_replies", "count", c.stale_replies, "");
    sheet.add("transport.full_drops", "count", c.full_drops, "");

    sheet.add(
        "core.queue_block_us",
        "us",
        per_span(c.queue_us),
        "(trace `qu/blk`)",
    );
    sheet.add(
        "core.conflicted_grant_frac",
        "ratio",
        ratio(c.prescheduled, c.grants),
        "",
    );
    sheet.add(
        "core.restarts_per_commit",
        "ratio",
        ratio(c.restarts, c.committed),
        "",
    );
    sheet.add(
        "core.grants_per_commit",
        "ratio",
        ratio(c.grants, c.committed),
        "",
    );

    let begin = latencies(traced(), |_| true, |s| s.begin_commit_us.map(|(b, _)| b));
    let (value, note) = p99(&sheet.timing("runtime.begin_us_p50", begin));
    sheet.add("runtime.begin_us_p99", "us", value, note);
    let commit = latencies(traced(), |_| true, |s| s.begin_commit_us.map(|(_, c)| c));
    sheet.timing("runtime.commit_us_p50", commit);
    // Only `execute` calls take the snapshot and fast-path routes.
    let executes = |route: Route| latencies(traced(), |s| s.route == route, |s| Some(s.total_us));
    sheet.timing("runtime.execute_snapshot_us_p50", executes(Route::Snapshot));
    sheet.timing("runtime.execute_fastpath_us_p50", executes(Route::FastPath));
    let count = |keep: &dyn Fn(&Sample) -> bool| {
        traced()
            .flat_map(|r| &r.samples)
            .filter(|s| keep(s))
            .count() as f64
    };
    let read_only = count(&|s| s.read_only);
    let adds = count(&|s| !s.read_only && s.begin_commit_us.is_none());
    sheet.add(
        "runtime.snapshot_serve_frac",
        "ratio",
        ratio(c.snapshot_reads, read_only),
        "(of read-only transactions)",
    );
    sheet.add("runtime.snapshot_refused", "count", c.snapshot_refused, "");
    sheet.add(
        "runtime.fastpath_apply_frac",
        "ratio",
        ratio(c.fastpath_applied, adds),
        "(of add transactions)",
    );

    let mut traced_tps: Vec<f64> = traced().map(tps).collect();
    let mut untraced_tps: Vec<f64> = rounds.iter().filter(|r| !r.traced).map(tps).collect();
    sheet.add(
        "trace.overhead_frac",
        "ratio",
        1.0 - ratio(median(&mut traced_tps), median(&mut untraced_tps)),
        "(1 - traced / untraced commit_tps)",
    );
    let coordinated = latencies(
        traced(),
        |s| s.route == Route::Coordinated,
        |s| Some(s.total_us),
    );
    let measured_mean = ratio(coordinated.iter().sum(), coordinated.len() as f64);
    sheet.add(
        "trace.unattributed_frac",
        "ratio",
        1.0 - ratio(per_span(c.end_to_end_us), measured_mean),
        "(1 - trace end-to-end / measured coordinated mean)",
    );

    let mut checks: Vec<f64> = rounds.iter().map(|r| r.check_s).collect();
    sheet.add(
        "sercheck.check_s",
        "s",
        median(&mut checks),
        &format!("(oracle per round history, median of {})", rounds.len()),
    );
    sheet.0
}

/// The last line of a pass: one JSON object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

/// CPU count, compiler and revision, for stamping every result.
pub fn host_stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let output = |program: &str, args: &[&str]| {
        let mut command = std::process::Command::new(program);
        command.args(args);
        // Look for a repository here only, never in the directories above.
        if let Ok(here) = std::env::current_dir() {
            if let Some(parent) = here.parent() {
                command.env("GIT_CEILING_DIRECTORIES", parent);
            }
        }
        command
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    format!(
        "nproc {nproc}, {}, rev {}",
        output("rustc", &["-V"]),
        output("git", &["rev-parse", "--short", "HEAD"])
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys_and_full_digits() {
        let metrics = [
            Metric {
                name: "a_us",
                unit: "us",
                value: 1.0 / 3.0,
            },
            Metric {
                name: "b",
                unit: "count",
                value: f64::NAN,
            },
        ];
        assert_eq!(
            result_line(true, 10, 1, &metrics),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"a_us\": {\"value\": 0.3333333333333333, \"unit\": \"us\"}, \
             \"b\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn a_stall_lengthens_only_the_slice_it_falls_in() {
        use std::time::{Duration, Instant};
        // Four slices' worth of commits 1 ms apart, with one 100 ms stall
        // before commit 120 (in the third slice).
        let start = Instant::now();
        let samples = (0..=4 * SLICE_COMMITS)
            .map(|k| {
                let stall = if k >= 120 { 100 } else { 0 };
                Sample {
                    read_only: false,
                    route: Route::Coordinated,
                    total_us: 1_000.0,
                    begin_commit_us: None,
                    done: start + Duration::from_millis(k as u64 + stall),
                }
            })
            .rev()
            .collect();
        let round = Round {
            traced: false,
            setup_s: 0.0,
            window_s: 0.3,
            samples,
            attempted: 0,
            failed: 0,
            counters: Counters::default(),
            rss_peak_mb: 0.0,
            check_s: 0.0,
            violation: None,
        };
        let slices = slice_tps(&round);
        assert_eq!(slices.len(), 4);
        let stalled = SLICE_COMMITS as f64 / 0.150;
        for (i, &tps) in slices.iter().enumerate() {
            let expected = if i == 2 { stalled } else { 1_000.0 };
            assert!((tps - expected).abs() < 1e-6, "slice {i}: {tps}");
        }
        assert!((median(&mut slices.clone()) - 1_000.0).abs() < 1e-6);
    }
}
