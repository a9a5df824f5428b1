//! Order statistics: percentile selection, Python-compatible quartiles, and
//! the best-of-rounds summary every reported value goes through.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Times, sizes.
    Lower,
    /// Rates.
    Higher,
}

impl Better {
    /// The contract's spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Nearest-rank percentile of ascending `sorted` (`p` in 0..=100).
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n >= 1` samples. The
/// product is formed before the division so that a whole-number rank (p99
/// of 1000) is computed exactly.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// Tail percentiles tried, highest first.
const TAIL_CANDIDATES: [f64; 7] = [99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// The highest tail percentile (99 at most) that has at least ten of `n`
/// samples beyond it, or `None` when not even the median has.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Median of unsorted values (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method) gives
/// them, which is what the benchmark contract's spread check uses. `None`
/// for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range over the median: the contract's spread.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// A value measured once per round.
#[derive(Debug, Clone, PartialEq)]
pub struct Rounds {
    /// The median round: the reported value. The reference host alternates
    /// between a slow and a fast state in phases of 1 to 30 s; with many
    /// short rounds the median sits in the state the host is in most of
    /// the time, whichever phases a run happens to see (README, "Why the
    /// median of many short rounds").
    pub median: f64,
    /// The best round: the maximum of a rate, the minimum of a time.
    pub best: f64,
    /// Every round, in order.
    pub all: Vec<f64>,
}

impl Rounds {
    /// Summarises per-round values.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn of(all: Vec<f64>, better: Better) -> Rounds {
        let best = match better {
            Better::Lower => all.iter().copied().fold(f64::INFINITY, f64::min),
            Better::Higher => all.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        };
        Rounds {
            best,
            median: median(&all),
            all,
        }
    }

    /// `|median − best| ÷ best`, in percent: how far the typical round was
    /// from the least disturbed one.
    pub fn spread_pct(&self) -> f64 {
        if self.best == 0.0 {
            return 0.0;
        }
        100.0 * (self.median - self.best).abs() / self.best.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7u64], 99.0), 7);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples leaves exactly 10 beyond; of 999, only 9.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(999), Some(98.0));
        // 120 batches: p90 leaves 12 beyond, p95 only 6.
        assert_eq!(tail_percentile(120), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(50), Some(80.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        // Never above p99, however many samples there are.
        assert_eq!(tail_percentile(10_000_000), Some(99.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3.0, 1.0], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[10.0, 20.0, 30.0]), Some([10.0, 20.0, 30.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_share(&v), Some(1.0));
    }

    #[test]
    fn rounds_report_best_and_median() {
        let r = Rounds::of(vec![10.0, 12.0, 11.0, 30.0, 10.5], Better::Lower);
        assert_eq!((r.best, r.median), (10.0, 11.0));
        assert!((r.spread_pct() - 10.0).abs() < 1e-9);
        let r = Rounds::of(vec![100.0, 80.0, 90.0], Better::Higher);
        assert_eq!((r.best, r.median), (100.0, 90.0));
        assert!((r.spread_pct() - 10.0).abs() < 1e-9);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
