//! Sample summaries: the quiet quartile and its diagnostics.
//!
//! Rule 1 of the benchmark: on a shared host other tenants only ever *add*
//! time, so a timing is many samples of one fixed unit of identical work
//! and the reported figure is **Q25**, the nearest-rank 25th percentile —
//! the cost when the host does not interfere. The host interferes in
//! bursts of milliseconds to tens of seconds, so an end-to-end timing takes
//! its Q25 over the quietest [`STRETCH`] consecutive samples of the run
//! ([`quiet_q25`]). p50 and the tail of all samples are diagnostics printed
//! beside it.

/// The `⌈n·num/den⌉`-th smallest sample of an ascending slice (nearest
/// rank). Panics on an empty slice: every metric is built from at least
/// one sample, and a workload that produced none has already failed.
pub fn nearest_rank(sorted: &[u64], num: usize, den: usize) -> u64 {
    assert!(!sorted.is_empty(), "a summary needs at least one sample");
    let rank = (sorted.len() * num).div_ceil(den).max(1);
    sorted[rank - 1]
}

/// Ascending copy of `samples`.
pub fn sorted(samples: &[u64]) -> Vec<u64> {
    let mut v = samples.to_vec();
    v.sort_unstable();
    v
}

/// Q25 of unsorted samples: the `⌈n/4⌉`-th smallest (n = 5 → the second
/// smallest, n = 1 → that sample).
pub fn q25(samples: &[u64]) -> u64 {
    nearest_rank(&sorted(samples), 1, 4)
}

/// Consecutive samples in one stretch of [`quiet_q25`]: long enough that
/// its Q25 is the fourth smallest (a quarter of a stretch must be fast, so
/// a rare fast path cannot set the figure), short enough (80 ms of
/// queries, about a second of passes) to fit between two bursts of
/// interference.
pub const STRETCH: usize = 16;

/// The quiet quartile of samples given in the order they were taken: the
/// Q25 of every window of [`STRETCH`] consecutive samples, and of those
/// the smallest — the Q25 of the quietest stretch. Fewer samples than one
/// stretch are one stretch.
pub fn quiet_q25(in_time_order: &[u64]) -> u64 {
    if in_time_order.len() <= STRETCH {
        return q25(in_time_order);
    }
    in_time_order
        .windows(STRETCH)
        .map(q25)
        .min()
        .expect("more samples than one stretch")
}

/// Nearest-rank median of unsorted samples.
pub fn p50(samples: &[u64]) -> u64 {
    nearest_rank(&sorted(samples), 1, 2)
}

/// The tail pick: the `pct`-th percentile if at least `beyond` samples lie
/// above it, otherwise the highest rank that still has `beyond` samples
/// above it, never below the median. Returns the value and the percentile
/// actually used, so a short window says what it reported.
pub fn tail(samples: &[u64], pct: usize, beyond: usize) -> (u64, f64) {
    let s = sorted(samples);
    let n = s.len();
    let wanted = (n * pct).div_ceil(100).max(1);
    let median = n.div_ceil(2).max(1);
    let rank = wanted.min(n.saturating_sub(beyond)).max(median);
    (s[rank - 1], rank as f64 * 100.0 / n as f64)
}

/// The three quartile cut points Python's
/// `statistics.quantiles(values, n=4)` returns (its default "exclusive"
/// method) — the driver's spread is computed from these, so `repeat`
/// computes the same.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.total_cmp(b));
    let ld = data.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// `(Q3 − Q1) / median` and `(max − min) / median` of `values`.
pub fn spreads(values: &[f64]) -> (f64, f64, f64) {
    let [q1, q2, q3] = quartiles(values);
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    (q2, (q3 - q1) / q2, (hi - lo) / q2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q25_is_nearest_rank() {
        assert_eq!(q25(&[50, 10, 40, 20, 30]), 20, "n=5: second smallest");
        assert_eq!(q25(&[7]), 7, "n=1: that sample");
        assert_eq!(q25(&[4, 3, 2, 1]), 1, "n=4: the smallest");
        assert_eq!(q25(&[8, 7, 6, 5, 4, 3, 2, 1]), 2, "n=8: second smallest");
        assert_eq!(p50(&[5, 1, 4, 2, 3]), 3);
    }

    #[test]
    fn quiet_q25_is_the_q25_of_the_quietest_stretch() {
        // Short runs: one stretch, plain Q25.
        assert_eq!(quiet_q25(&[50, 10, 40, 20, 30]), 20);
        // 40 slow samples with one quiet stretch of 16 in the middle: the
        // figure is that stretch's fourth smallest, not the run's.
        let mut run = vec![900u64; 40];
        for (i, slot) in run[12..28].iter_mut().enumerate() {
            *slot = 100 + i as u64;
        }
        assert_eq!(quiet_q25(&run), 103);
        assert_eq!(q25(&run), 109, "the flat Q25 mixes both states");
        // Three fast samples are fewer than a quarter of any stretch: they
        // cannot set the figure.
        let mut rare = vec![900u64; 40];
        rare[5] = 1;
        rare[6] = 2;
        rare[7] = 3;
        assert_eq!(quiet_q25(&rare), 900);
    }

    #[test]
    fn tail_honours_samples_beyond() {
        let big: Vec<u64> = (1..=5000).collect();
        assert_eq!(tail(&big, 99, 30), (4950, 99.0), "50 samples beyond p99");
        // 200 samples: p99 would leave 2 beyond, so the pick drops to the
        // 170th — the highest rank with 30 above it.
        let small: Vec<u64> = (1..=200).collect();
        assert_eq!(tail(&small, 99, 30), (170, 85.0));
        // Fewer samples than `beyond`: never below the median.
        let tiny: Vec<u64> = (1..=9).collect();
        assert_eq!(tail(&tiny, 99, 30).0, 5);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        let (median, iqr, range) = spreads(&v);
        assert_eq!(median, 5.5);
        assert!((iqr - 1.0).abs() < 1e-12);
        assert!((range - 9.0 / 5.5).abs() < 1e-12);
    }
}
