//! Small statistics helpers, a seeded generator, and the process's peak
//! resident set.

/// Nearest-rank percentile `q ∈ [0, 1]` of `values` (sorted in place).
/// Returns NaN for an empty slice.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Per-item medians of repeated passes: `samples` holds `items` values per
/// pass, pass after pass, and entry `i` of the result is the median of
/// item `i` over the passes. A burst of interference from outside the
/// benchmark slows one pass, not the median.
#[must_use]
pub fn item_medians(samples: &[f64], items: usize) -> Vec<f64> {
    (0..items)
        .map(|i| {
            median(
                &mut samples
                    .iter()
                    .skip(i)
                    .step_by(items)
                    .copied()
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// One window of a closed-loop phase.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Requests completed by every client in the window.
    pub requests: u64,
    /// Wall time of the window, s.
    pub wall_s: f64,
    /// Factor from wall time to reference time (see `calib`).
    pub scale: f64,
}

/// Throughput and latency of a closed-loop phase, window by window:
/// `latencies` holds the round trips (ms) in order, and `ends` the number
/// recorded by the end of each window (a leading 0, then one entry per
/// window). Returns the mean scaled rate of the middle half of the windows,
/// and the medians over the windows of each window's scaled p50 and p99 —
/// a burst of interference from outside the benchmark spoils a few windows,
/// not the figures.
#[must_use]
pub fn windowed(latencies: &[f32], ends: &[usize], windows: &[Window]) -> (f64, f64, f64) {
    let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    for (w, span) in windows.iter().enumerate() {
        rates.push(span.requests as f64 / (span.wall_s * span.scale));
        let mut window: Vec<f64> = latencies[ends[w]..ends[w + 1]]
            .iter()
            .map(|&ms| f64::from(ms) * span.scale)
            .collect();
        if !window.is_empty() {
            p50s.push(percentile(&mut window, 0.50));
            p99s.push(percentile(&mut window, 0.99));
        }
    }
    rates.sort_by(f64::total_cmp);
    let n = rates.len();
    (
        mean(&rates[n / 4..n - n / 4]),
        median(&mut p50s),
        median(&mut p99s),
    )
}

/// Arithmetic mean; NaN for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Geometric mean of positive values; NaN when empty or any value is not
/// positive.
#[must_use]
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Geometric mean of a quality metric's per-cell values, or 0 when a value
/// is missing (its answer failed a check, and the run reports
/// `correct: false`).
#[must_use]
pub fn quality(values: &[f64]) -> f64 {
    let g = gmean(values);
    if g.is_finite() {
        g
    } else {
        0.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or NaN where the
/// kernel does not report it.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert!(percentile(&mut [], 0.5).is_nan());
    }

    #[test]
    fn robust_rates_ignore_one_slow_pass() {
        // two items, three passes; the second pass is slow
        let samples = [1.0, 2.0, 9.0, 9.0, 1.0, 2.0];
        assert_eq!(item_medians(&samples, 2), vec![1.0, 2.0]);
        // four windows of twenty requests each; the second is disturbed
        // (slow round trips, the window five times as long), and the
        // fourth ran at half the reference speed: twice the wall time and
        // round trips, calibrations twice as long
        let mut latencies = [1.0_f32; 80];
        latencies[20..40].fill(50.0);
        latencies[60..80].fill(2.0);
        latencies[79] = 4.0;
        latencies[19] = 2.0;
        let span = |wall_s, scale| Window {
            requests: 20,
            wall_s,
            scale,
        };
        let windows = [
            span(1.0, 1.0),
            span(5.0, 1.0),
            span(1.0, 1.0),
            span(2.0, 0.5),
        ];
        let (rate, p50, p99) = windowed(&latencies, &[0, 20, 40, 60, 80], &windows);
        assert!((rate - 20.0).abs() < 1e-9);
        assert_eq!((p50, p99), (1.0, 2.0));
    }

    #[test]
    fn gmean_rejects_non_positive_values() {
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!(gmean(&[1.0, 0.0]).is_nan());
        assert!(gmean(&[]).is_nan());
    }

    #[test]
    fn splitmix_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut g = SplitMix::new(7);
                move |_| g.next_u64()
            })
            .collect();
        let mut g = SplitMix::new(7);
        assert_eq!(a, (0..4).map(|_| g.next_u64()).collect::<Vec<_>>());
        assert_ne!(SplitMix::new(8).next_u64(), a[0]);
    }
}
