//! Order statistics the benchmark reports: nearest-rank percentiles, the
//! median of a handful of floats, and the windowed percentile behind the
//! serving latency metrics.

/// Nearest-rank percentile of an ascending slice: the value at 1-based rank
/// `ceil(p/100 · n)`. Returns 0 for an empty slice (callers print the sample
/// count next to every percentile, so an empty sample is visible).
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of the `p`-th percentile among `n >= 1` samples.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Sorts and returns the nearest-rank percentile.
pub fn percentile(values: &mut [u64], p: f64) -> u64 {
    values.sort_unstable();
    nearest_rank(values, p)
}

/// Median of a small float sample (mean of the two middle values when the
/// count is even). Returns 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are finite"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile of a small float sample (0 when empty).
pub fn percentile_f64(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are finite"));
    sorted[rank(sorted.len(), p) - 1]
}

/// Operations per second of a run of timed operations (`sorted_walls_ns`
/// ascending, not empty): the upper quartile over the operations of each
/// one's own rate, i.e. one over the lower quartile of the wall times. The
/// host only ever adds time, for one operation or a few, so this is the rate
/// of the run when left alone, like the upper quartile over the closed
/// loop's windows; operations over total time spread 0.03-0.11 of its
/// median between identical runs where this spreads 0.02-0.08.
pub fn quiet_rate_per_s(sorted_walls_ns: &[u64]) -> f64 {
    1e9 / nearest_rank(sorted_walls_ns, 25.0) as f64
}

/// The windowed latency statistic: samples are bucketed into consecutive
/// windows, each window's nearest-rank `p`-th percentile is taken, and the
/// nearest-rank `across`-th percentile over the windows is returned. A
/// window only counts when at least `min_beyond` samples lie beyond its
/// percentile (so the percentile is supported by data). Returns the
/// statistic and the number of windows that counted.
pub fn windowed_percentile(
    samples: &[(u32, u64)],
    windows: usize,
    p: f64,
    min_beyond: usize,
    across: f64,
) -> (f64, usize) {
    let per_window = window_percentiles(samples, windows, p, min_beyond);
    (percentile_f64(&per_window, across), per_window.len())
}

/// Each counting window's nearest-rank `p`-th percentile, in window order.
pub fn window_percentiles(
    samples: &[(u32, u64)],
    windows: usize,
    p: f64,
    min_beyond: usize,
) -> Vec<f64> {
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); windows];
    for &(window, value) in samples {
        if let Some(bucket) = buckets.get_mut(window as usize) {
            bucket.push(value);
        }
    }
    buckets
        .iter_mut()
        .filter(|b| !b.is_empty() && b.len() - rank(b.len(), p) >= min_beyond)
        .map(|b| percentile(b, p) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50);
        assert_eq!(nearest_rank(&v, 99.0), 99);
        assert_eq!(nearest_rank(&v, 100.0), 100);
        assert_eq!(nearest_rank(&v, 0.0), 1);
        // Five samples: p50 is the 3rd, p90 the 5th (ceil(4.5)).
        assert_eq!(nearest_rank(&[10, 20, 30, 40, 50], 50.0), 30);
        assert_eq!(nearest_rank(&[10, 20, 30, 40, 50], 90.0), 50);
        assert_eq!(nearest_rank(&[], 50.0), 0);
    }

    #[test]
    fn quiet_rate_is_one_over_the_lower_quartile_wall_time() {
        // Walls of 1, 2, 4 and 40 ms: the lower quartile is the first.
        let walls = [1_000_000, 2_000_000, 4_000_000, 40_000_000];
        assert_eq!(quiet_rate_per_s(&walls), 1_000.0);
        // Eight walls: rank ceil(0.25 * 8) = 2, and a stalled one is ignored.
        let walls = [4, 5, 5, 5, 5, 5, 5, 900].map(|ms| ms * 1_000_000);
        assert_eq!(quiet_rate_per_s(&walls), 200.0);
    }

    #[test]
    fn float_percentiles_are_nearest_rank_too() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile_f64(&v, 25.0), 1.0);
        assert_eq!(percentile_f64(&v, 50.0), 2.0);
        assert_eq!(percentile_f64(&v, 75.0), 3.0);
        assert_eq!(percentile_f64(&v, 100.0), 4.0);
        assert_eq!(percentile_f64(&[], 25.0), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windowed_percentile_is_the_median_of_per_window_tails() {
        // Three windows of 100 samples; the middle one has a 10x tail.
        let mut samples = Vec::new();
        for w in 0..3u32 {
            for i in 1..=100u64 {
                let v = if w == 1 && i > 90 { i * 10 } else { i };
                samples.push((w, v));
            }
        }
        let (p99, counted) = windowed_percentile(&samples, 3, 99.0, 1, 50.0);
        assert_eq!(counted, 3);
        // Windows 0 and 2 give 99, window 1 gives 990: the median and the
        // lower quartile ignore it, the upper quartile is it.
        assert_eq!(p99, 99.0);
        assert_eq!(windowed_percentile(&samples, 3, 99.0, 1, 25.0).0, 99.0);
        assert_eq!(windowed_percentile(&samples, 3, 99.0, 1, 75.0).0, 990.0);
    }

    #[test]
    fn windows_without_enough_samples_beyond_the_percentile_do_not_count() {
        let samples: Vec<(u32, u64)> = (0..50).map(|i| (0, i)).chain([(1, 7)]).collect();
        // 50 samples leave 0 beyond p99; requiring 1 drops both windows.
        assert_eq!(windowed_percentile(&samples, 2, 99.0, 1, 50.0), (0.0, 0));
        // p90 leaves 5 beyond in window 0; window 1 (one sample) still drops.
        let (p90, counted) = windowed_percentile(&samples, 2, 90.0, 5, 50.0);
        assert_eq!((p90, counted), (44.0, 1));
        // Samples addressed to a window past the end are ignored.
        assert_eq!(windowed_percentile(&[(9, 1)], 2, 50.0, 0, 50.0), (0.0, 0));
    }
}
