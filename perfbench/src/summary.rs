//! Timing summaries: a median, a fixed percentile, and the highest
//! percentile the sample supports.

/// The tails a summary may report, highest first.
const TAILS: [f64; 4] = [99.99, 99.9, 99.0, 90.0];

/// Samples that must lie beyond a percentile before it is reported as a
/// supported tail.
const BEYOND: usize = 10;

/// A summary of one set of timings.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    /// The highest percentile with at least ten samples beyond it, and
    /// its value; `None` below 100 samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarize `samples` (reordered in place); `None` when empty.
    pub fn of(samples: &mut [f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let tail = TAILS
            .into_iter()
            .find(|&pct| n - rank(n, pct) >= BEYOND)
            .map(|pct| (pct, percentile(samples, pct)));
        Some(Summary {
            n,
            p50: percentile(samples, 50.0),
            p99: percentile(samples, 99.0),
            tail,
        })
    }

    /// `p50 …  p99.9 …  (n=…)`, with values in `unit`.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((pct, value)) => format!("p{pct} {value:.1} {unit}"),
            None => "no supported tail".to_string(),
        };
        format!("p50 {:.1} {unit}  {tail}  (n={})", self.p50, self.n)
    }
}

/// The 1-based nearest rank of `pct` among `n` samples. The epsilon
/// keeps products such as `99.9 / 100 * 10000` from rounding up a rank.
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending, non-empty slice.
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    sorted[rank(sorted.len(), pct) - 1]
}

/// The median of `values` (reordered in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending, so the summary has to sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles_of_a_ramp() {
        let s = Summary::of(&mut ramp(1000)).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p99, 990.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let tail = |n| Summary::of(&mut ramp(n)).unwrap().tail;
        assert_eq!(tail(99), None);
        assert_eq!(tail(100), Some((90.0, 90.0)));
        assert_eq!(tail(999), Some((90.0, 900.0)));
        assert_eq!(tail(1000), Some((99.0, 990.0)));
        assert_eq!(tail(10_000), Some((99.9, 9990.0)));
        assert_eq!(tail(100_000), Some((99.99, 99_990.0)));
    }

    #[test]
    fn empty_and_single_samples() {
        assert_eq!(Summary::of(&mut []), None);
        assert_eq!(median(&mut []), 0.0);
        let s = Summary::of(&mut [4.5]).unwrap();
        assert_eq!((s.n, s.p50, s.p99), (1, 4.5, 4.5));
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn describe_states_the_sample_count() {
        let s = Summary::of(&mut ramp(1000)).unwrap();
        assert_eq!(s.describe("us"), "p50 500.0 us  p99 990.0 us  (n=1000)");
    }
}
