//! The noise-robust estimator: fastest-3, part by part, over equal-work
//! slices.
//!
//! On the shared 2-core box this benchmark was written on, identical
//! 100 ms slices of one loop measured anywhere between 45 k and 100 k
//! decisions/s in multi-second regimes (neighbour contention, not
//! preemption: user time tracked real time, and a fixed reference kernel
//! did not track the slowdown, so normalising does not help). The median
//! over all slices moved 63 → 85 k between runs while the mean of the
//! three fastest slices read 101 / 100 / 101 k.
//!
//! In bad hours not one 300 ms slice of a 12 s run is wholly fast, while
//! the per-second minimum of a 10 ms kernel stays within 5 %; in the
//! worst, a fast stretch lasts a few milliseconds. So a slice is cut
//! into fixed *parts* (an episode, a simulated day, a pipeline stage),
//! and a part into the *ops* inside it (a decision) plus what is left
//! (episode construction, `finish()`). Every slice repeats the same
//! inputs, so op `j` of part `i` is the same work in every slice: each
//! op, and each part's rest, keeps its own series over the run's slices
//! and is reported as the mean of its three fastest instances, and a
//! slice's time is the sum of them all ([`compose`]). The all-slice
//! median and IQR are printed next to the result so the noise stays
//! visible.

/// How many of a series' fastest instances a reported figure averages.
pub const FASTEST: usize = 3;

/// One timed part of a slice: its duration and the latency of every op
/// inside it (a part that is itself the op carries its own duration; a
/// part of a slice that is one op as a whole carries none).
#[derive(Debug, Clone, Default)]
pub struct Part {
    pub ns: u64,
    pub op_ns: Vec<u64>,
}

/// The [`FASTEST`] smallest values of one series, ascending.
#[derive(Debug, Clone, Copy, Default)]
struct Lowest {
    vals: [u64; FASTEST],
    len: usize,
}

impl Lowest {
    fn offer(&mut self, v: u64) {
        if self.len < FASTEST {
            self.vals[self.len] = v;
            self.len += 1;
        } else if v < self.vals[FASTEST - 1] {
            self.vals[FASTEST - 1] = v;
        } else {
            return;
        }
        self.vals[..self.len].sort_unstable();
    }

    fn mean(&self) -> f64 {
        self.vals[..self.len].iter().sum::<u64>() as f64 / self.len as f64
    }
}

/// The series of one part over a run's slices: one per op inside it and
/// one for the rest of it. A long run holds three numbers per op, not
/// hundreds of latency vectors.
#[derive(Debug, Clone, Default)]
pub struct FastestOf {
    rest: Lowest,
    ops: Vec<Lowest>,
}

impl FastestOf {
    pub fn offer(&mut self, part: &Part) {
        if self.ops.len() < part.op_ns.len() {
            self.ops.resize(part.op_ns.len(), Lowest::default());
        }
        for (series, &ns) in self.ops.iter_mut().zip(&part.op_ns) {
            series.offer(ns);
        }
        let in_ops: u64 = part.op_ns.iter().sum();
        self.rest.offer(part.ns.saturating_sub(in_ops));
    }
}

/// A slice's time and op latencies from its series: seconds per slice
/// (Σ over every op and every part's rest of the mean of its fastest
/// instances) and the op latencies so estimated, in ns, ascending. A
/// slice whose parts carry no ops is one op as a whole.
pub fn compose(parts: &[FastestOf]) -> (f64, Vec<u64>) {
    assert!(parts.iter().all(|p| p.rest.len > 0), "a part never ran");
    let mut ops: Vec<f64> = parts
        .iter()
        .flat_map(|p| p.ops.iter().map(Lowest::mean))
        .collect();
    let ns = ops.iter().sum::<f64>() + parts.iter().map(|p| p.rest.mean()).sum::<f64>();
    if ops.is_empty() {
        ops.push(ns);
    }
    ops.sort_by(f64::total_cmp);
    (ns / 1e9, ops.iter().map(|ns| ns.round() as u64).collect())
}

/// Indices of the `FASTEST` shortest durations (fewer if there are fewer
/// slices), fastest first. Ties keep the earlier slice.
pub fn fastest_indices(durations_s: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..durations_s.len()).collect();
    order.sort_by(|&a, &b| durations_s[a].total_cmp(&durations_s[b]).then(a.cmp(&b)));
    order.truncate(FASTEST);
    order
}

/// Mean of `per_slice` over the slices named by `picked`.
pub fn mean_over(per_slice: &[f64], picked: &[usize]) -> f64 {
    assert!(!picked.is_empty(), "no slices to average");
    picked.iter().map(|&i| per_slice[i]).sum::<f64>() / picked.len() as f64
}

/// Median of an unsorted series.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Inter-quartile range as a share of the median, with the quartiles
/// Python's `statistics.quantiles(values, n=4)` gives (exclusive
/// method) — the same spread the acceptance check computes over runs.
/// Zero for fewer than two values.
pub fn iqr_frac(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |k: usize| {
        // Position k·(n+1)/4 on a 1-based scale, clamped to the data.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (quartile(3) - quartile(1)) / median(&v)
}

/// The `p`-th percentile (nearest rank) of an ascending-sorted series.
pub fn percentile_sorted(sorted_ns: &[u64], p: f64) -> u64 {
    assert!(!sorted_ns.is_empty(), "percentile of nothing");
    let rank = ((p / 100.0) * sorted_ns.len() as f64).ceil() as usize;
    sorted_ns[rank.clamp(1, sorted_ns.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic regime-switching series: a true cost of 1.0 with a
    /// slow regime (×1.3–×2.2) covering `slow_share` of the slices in
    /// multi-slice bursts, the shape measured on the shared box.
    fn regime_series(n: usize, slow_share: f64, phase: usize) -> Vec<f64> {
        let burst = 7;
        (0..n)
            .map(|i| {
                let block = (i + phase) / burst;
                // Low-discrepancy block selector so bursts spread over the run.
                let u = (block as f64 * 0.618_033_988_75).fract();
                let jitter = 1.0 + 0.004 * ((i * 37 % 11) as f64 / 11.0);
                if u < slow_share {
                    jitter * (1.3 + 0.9 * u / slow_share)
                } else {
                    jitter
                }
            })
            .collect()
    }

    #[test]
    fn fastest3_ignores_slow_regimes_that_move_the_median() {
        let mut fastest = Vec::new();
        let mut medians = Vec::new();
        for (share, phase) in [(0.2, 0), (0.45, 3), (0.6, 5), (0.7, 1)] {
            let s = regime_series(60, share, phase);
            fastest.push(mean_over(&s, &fastest_indices(&s)));
            medians.push(median(&s));
        }
        let spread = |v: &[f64]| {
            let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = v.iter().cloned().fold(0.0, f64::max);
            (hi - lo) / lo
        };
        assert!(spread(&fastest) < 0.01, "fastest-3 moved: {fastest:?}");
        assert!(spread(&medians) > 0.25, "median should move: {medians:?}");
        assert!(fastest.iter().all(|&f| (1.0..1.01).contains(&f)));
    }

    #[test]
    fn composing_parts_recovers_a_time_no_whole_slice_shows() {
        // 40 slices of 6 parts, true cost 10 ms a part. A slow stretch
        // (×1.6) three parts long moves through every slice, so no slice
        // is faster than 6 + 3·0.6 = 7.8 parts' worth.
        let mut parts = vec![FastestOf::default(); 6];
        let mut slices = Vec::new();
        for s in 0..40usize {
            let mut total = 0u64;
            for (p, series) in parts.iter_mut().enumerate() {
                let slow = (p + 6 - s % 6) % 6 < 3;
                let ns = if slow { 16_000_000 } else { 10_000_000 } + (s * 7 + p) as u64 % 5;
                total += ns;
                series.offer(&Part {
                    ns,
                    op_ns: vec![ns],
                });
            }
            slices.push(total as f64 / 1e9);
        }
        let by_slice = mean_over(&slices, &fastest_indices(&slices));
        let (by_part, ops) = compose(&parts);
        assert!(by_slice > 0.0779, "whole slices stay slow: {by_slice}");
        assert!(
            (0.060..0.0601).contains(&by_part),
            "parts recover 60 ms: {by_part}"
        );
        assert_eq!(ops.len(), 6, "one estimate per op");
        assert!(ops.windows(2).all(|w| w[0] <= w[1]) && ops[5] < 10_000_010);
    }

    #[test]
    fn every_op_and_the_rest_of_a_part_keep_their_own_three_fastest() {
        // A part of two ops and 100 ns of rest; each is slow in other
        // slices than the others.
        let mut part = FastestOf::default();
        for s in 0..8u64 {
            let (a, b) = (10 + 40 * (s % 2), 20 + 40 * ((s + 1) % 2));
            let rest = 100 + 300 * u64::from(s < 4);
            part.offer(&Part {
                ns: a + b + rest,
                op_ns: vec![a, b],
            });
        }
        // No slice was below 10 + 60 + 100, yet every series saw its best.
        let (seconds, ops) = compose(&[part]);
        assert_eq!(ops, [10, 20]);
        assert!((seconds * 1e9 - 130.0).abs() < 1e-6, "{seconds}");

        // A part without ops is all rest, and the slice is the op; fewer
        // than three instances average what there is.
        let mut whole = FastestOf::default();
        whole.offer(&Part {
            ns: 50,
            op_ns: Vec::new(),
        });
        whole.offer(&Part {
            ns: 30,
            op_ns: Vec::new(),
        });
        let (seconds, ops) = compose(&[whole]);
        assert!(ops == [40] && (seconds * 1e9 - 40.0).abs() < 1e-6);
    }

    #[test]
    fn fastest_indices_orders_and_truncates() {
        assert_eq!(fastest_indices(&[5.0, 1.0, 3.0, 2.0, 4.0]), vec![1, 3, 2]);
        assert_eq!(fastest_indices(&[2.0, 1.0]), vec![1, 0]);
        // Ties keep the earlier slice.
        assert_eq!(fastest_indices(&[1.0, 1.0, 1.0, 1.0]), vec![0, 1, 2]);
    }

    #[test]
    fn iqr_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_frac(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0].
        assert!((iqr_frac(&[8.0, 1.0, 4.0, 2.0]) - (7.0 - 1.25) / 3.0).abs() < 1e-12);
        assert_eq!(iqr_frac(&[3.0]), 0.0);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 500);
        assert_eq!(percentile_sorted(&v, 99.0), 990);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
    }
}
