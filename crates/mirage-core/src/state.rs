//! State encoding (§4.1–4.2 of the paper).
//!
//! Each instant is summarized by an `m = 46`-dimensional vector:
//!
//! | vars   | content                                                        |
//! |--------|----------------------------------------------------------------|
//! | 1      | queued job count                                               |
//! | 2–6    | queued sizes: 0/25/50/75/100th percentiles                     |
//! | 7–11   | queued ages: percentiles                                       |
//! | 12–16  | queued runtime limits: percentiles                             |
//! | 17     | running job count                                              |
//! | 18–24  | running sizes: percentiles + mean + std                        |
//! | 25–29  | running elapsed: percentiles                                   |
//! | 30–34  | running limits: percentiles                                    |
//! | 35–38  | predecessor size, limit, queue time, elapsed                   |
//! | 39–40  | successor size, limit                                          |
//! | 41–42  | fault state: available-node fraction, recent eviction rate     |
//! | 43–46  | hetero state: pool 0/1 free fractions, tail-pool free, contention |
//!
//! The fault pair is written only when
//! [`StateEncoder::fault_features`] is set (off by default): with the
//! flag off both variables are the constant `0.0`, keeping every
//! pre-fault encoding byte-identical. The hetero quad follows the same
//! discipline behind [`StateEncoder::hetero_features`]: the free-node
//! fractions of the first two pools, the aggregate free fraction of any
//! remaining pools, and the contended share of running jobs — all `0.0`
//! with the flag off, so hetero-off encodings stay byte-identical too.
//!
//! `k` consecutive vectors, recorded every `interval` seconds, stack into
//! the `k × m` state matrix the foundation model consumes (the paper's
//! default: 144 rows at 10-minute cadence = 24 h of history).
//!
//! All features are normalized: node counts by the partition size, times
//! by the site's 48 h limit, counts by `log1p` against a nominal queue
//! scale — trees ignore this, the transformer needs it.
//!
//! # Percentiles
//!
//! A percentile is the order statistic at rank `round((n − 1) · p)` of the
//! ascending value set — exactly what a full sort would put there, at
//! every depth. The six sets are integers (`u32` node counts, `i64`
//! seconds) and `as f32` is monotone, so the ranks are taken **on the
//! integers** and only the five picks are converted and normalized. How
//! each set is ranked depends on what is known about it, never on its
//! size:
//!
//! * node counts are counted into a histogram over `0..=total_nodes`
//!   (a queue holds a handful of distinct sizes), sorted instead only if
//!   a value does not fit;
//! * queued ages are read by index when the queue is in arrival order
//!   (ages non-increasing — checked on every call; a fault-evicted job
//!   re-enters with its original submit time and breaks it), sorted
//!   otherwise;
//! * limits and elapsed times are sorted (`sort_unstable` on `i64`).

use mirage_nn::Matrix;
use mirage_sim::{ClusterSnapshot, QueuedJobView};
use serde::{Deserialize, Serialize};

/// Width of the per-instant state vector: the paper's 40 variables plus
/// the two fault-state variables (zero unless fault features are on) plus
/// the four hetero-state variables (zero unless hetero features are on).
pub const STATE_VARS: usize = 46;

/// Predecessor-job status at encoding time (§4.1(c)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredecessorState {
    /// Requested nodes.
    pub nodes: u32,
    /// Wall-clock limit, seconds.
    pub timelimit: i64,
    /// Queue wait it experienced, seconds (0 while still queued).
    pub queue_time: i64,
    /// Elapsed runtime, seconds (0 while queued).
    pub elapsed: i64,
}

/// Successor-job static information (§4.1(d); it has not entered the
/// cluster yet).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SuccessorSpec {
    /// Requested nodes.
    pub nodes: u32,
    /// Wall-clock limit, seconds.
    pub timelimit: i64,
}

/// Normalizing encoder from cluster snapshots to state vectors/matrices.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StateEncoder {
    /// Partition size for node normalization.
    pub total_nodes: u32,
    /// Time normalizer (the site's 48 h cap).
    pub max_time: i64,
    /// Nominal queue length for count normalization.
    pub queue_scale: f32,
    /// Whether to write the fault-state variables (vars 41–42). Off by
    /// default so fault-free encodings stay byte-identical to the
    /// pre-fault layout.
    #[serde(default)]
    pub fault_features: bool,
    /// Whether to write the hetero-state variables (vars 43–46). Off by
    /// default so hetero-off encodings stay byte-identical to the
    /// pre-pool layout.
    #[serde(default)]
    pub hetero_features: bool,
}

/// Reusable working memory for [`StateEncoder::encode_into`]: the
/// node-count histogram and the integer sort buffer behind the six
/// five-number summaries, so per-decision encoding allocates nothing once
/// their capacity covers the partition and the deepest queue/running set
/// seen.
#[derive(Debug, Clone, Default)]
pub struct EncoderScratch {
    /// Occurrences per node count; all zero between summaries.
    hist: Vec<u32>,
    /// The value set being sorted; overwritten by every use.
    keys: Vec<i64>,
}

/// Ranks of `[min, p25, p50, p75, max]` in an ascending set of `n ≥ 1`
/// values.
fn five_ranks(n: usize) -> [usize; 5] {
    let idx = |p: f32| ((n - 1) as f32 * p).round() as usize;
    [0, idx(0.25), idx(0.5), idx(0.75), n - 1]
}

impl EncoderScratch {
    /// `[min, p25, p50, p75, max]` of `values` by sorting them; `None`
    /// for an empty set.
    fn summary_by_sort(&mut self, values: impl Iterator<Item = i64>) -> Option<[i64; 5]> {
        self.keys.clear();
        self.keys.extend(values);
        if self.keys.is_empty() {
            return None;
        }
        self.keys.sort_unstable();
        Some(five_ranks(self.keys.len()).map(|r| self.keys[r]))
    }

    /// The same summary of node counts by counting over `0..=max_nodes`,
    /// falling back to the sort if a count does not fit the histogram.
    fn summary_by_count(
        &mut self,
        max_nodes: u32,
        values: impl Iterator<Item = u32> + Clone,
    ) -> Option<[i64; 5]> {
        let bins = max_nodes as usize + 1;
        if self.hist.len() < bins {
            self.hist.resize(bins, 0);
        }
        let (mut n, mut lo, mut hi) = (0usize, u32::MAX, 0u32);
        for x in values.clone() {
            let Some(count) = self.hist.get_mut(x as usize) else {
                // Does not fit: take back the partial count and sort.
                if n > 0 {
                    self.hist[lo as usize..=hi as usize].fill(0);
                }
                return self.summary_by_sort(values.map(i64::from));
            };
            *count += 1;
            n += 1;
            lo = lo.min(x);
            hi = hi.max(x);
        }
        if n == 0 {
            return None;
        }
        let counted = &mut self.hist[lo as usize..=hi as usize];
        let ranks = five_ranks(n);
        let mut picks = [0i64; 5];
        let (mut next, mut seen) = (0, 0usize);
        for (x, count) in (i64::from(lo)..).zip(counted) {
            seen += *count as usize;
            *count = 0;
            while next < 5 && ranks[next] < seen {
                picks[next] = x;
                next += 1;
            }
        }
        Some(picks)
    }

    /// The same summary of queued ages: index look-ups while the queue is
    /// in arrival order (oldest first), the sort otherwise.
    fn summary_of_ages(&mut self, queued: &[QueuedJobView]) -> Option<[i64; 5]> {
        if queued.windows(2).all(|w| w[0].age >= w[1].age) {
            let n = queued.len();
            (n > 0).then(|| five_ranks(n).map(|r| queued[n - 1 - r].age))
        } else {
            self.summary_by_sort(queued.iter().map(|q| q.age))
        }
    }
}

/// Writes a five-number summary through `norm`; an empty set encodes
/// zeros.
fn write_summary(out: &mut [f32], picks: Option<[i64; 5]>, norm: impl Fn(f32) -> f32) {
    match picks {
        Some(picks) => {
            for (o, x) in out.iter_mut().zip(picks) {
                *o = norm(x as f32);
            }
        }
        None => out.fill(0.0),
    }
}

impl StateEncoder {
    /// Encoder for a partition of `total_nodes` with a 48 h limit.
    pub fn new(total_nodes: u32, max_time: i64) -> Self {
        Self {
            total_nodes,
            max_time,
            queue_scale: 1000.0,
            fault_features: false,
            hetero_features: false,
        }
    }

    #[inline]
    fn norm_nodes(&self, n: f32) -> f32 {
        n / self.total_nodes.max(1) as f32
    }

    #[inline]
    fn norm_time(&self, t: f32) -> f32 {
        (t / self.max_time as f32).clamp(0.0, 4.0)
    }

    #[inline]
    fn norm_count(&self, c: f32) -> f32 {
        (1.0 + c).ln() / (1.0 + self.queue_scale).ln()
    }

    /// Encodes one instant into the 46-variable vector (allocating
    /// convenience wrapper around [`StateEncoder::encode_into`]).
    pub fn encode(
        &self,
        snap: &ClusterSnapshot,
        pred: &PredecessorState,
        succ: &SuccessorSpec,
    ) -> [f32; STATE_VARS] {
        self.encode_into(snap, pred, succ, &mut EncoderScratch::default())
    }

    /// Encodes one instant into the 46-variable vector, ranking every
    /// percentile through the reusable `scratch` buffers (see the module
    /// docs): no allocation once their capacity covers the partition and
    /// the deepest queue/running set seen. The output is identical to
    /// [`StateEncoder::encode`], and stale `scratch` contents never reach
    /// it.
    pub fn encode_into(
        &self,
        snap: &ClusterSnapshot,
        pred: &PredecessorState,
        succ: &SuccessorSpec,
        scratch: &mut EncoderScratch,
    ) -> [f32; STATE_VARS] {
        let mut v = [0.0f32; STATE_VARS];
        let nodes = |x: f32| self.norm_nodes(x);
        let time = |x: f32| self.norm_time(x);
        let (queued, running) = (&snap.queued, &snap.running);

        // (a) queue state.
        v[0] = self.norm_count(queued.len() as f32);
        let sizes = scratch.summary_by_count(self.total_nodes, queued.iter().map(|q| q.nodes));
        write_summary(&mut v[1..6], sizes, nodes);
        write_summary(&mut v[6..11], scratch.summary_of_ages(queued), time);
        let limits = scratch.summary_by_sort(queued.iter().map(|q| q.timelimit));
        write_summary(&mut v[11..16], limits, time);

        // (b) server state. Mean/std stay f32 sums in snapshot order,
        // matching the historical arithmetic.
        v[16] = self.norm_count(running.len() as f32);
        let sizes = scratch.summary_by_count(self.total_nodes, running.iter().map(|r| r.nodes));
        write_summary(&mut v[17..22], sizes, nodes);
        let (mean, std_dev) = mean_std(running.iter().map(|r| r.nodes as f32));
        v[22] = self.norm_nodes(mean);
        v[23] = self.norm_nodes(std_dev);
        let elapsed = scratch.summary_by_sort(running.iter().map(|r| r.elapsed));
        write_summary(&mut v[24..29], elapsed, time);
        let limits = scratch.summary_by_sort(running.iter().map(|r| r.timelimit));
        write_summary(&mut v[29..34], limits, time);

        // (c) predecessor job state.
        v[34] = self.norm_nodes(pred.nodes as f32);
        v[35] = self.norm_time(pred.timelimit as f32);
        v[36] = self.norm_time(pred.queue_time as f32);
        v[37] = self.norm_time(pred.elapsed as f32);

        // (d) successor job information.
        v[38] = self.norm_nodes(succ.nodes as f32);
        v[39] = self.norm_time(succ.timelimit as f32);

        // (e) fault state, gated so fault-free encodings stay
        // byte-identical: healthy-node fraction and recent eviction rate.
        if self.fault_features {
            v[40] = self.norm_nodes(snap.available_nodes() as f32);
            v[41] = self.norm_count(snap.recent_evictions as f32);
        }

        // (f) hetero state, gated the same way: per-pool headroom for the
        // two head pools, aggregate headroom of the tail, and the
        // contended share of running jobs.
        if self.hetero_features {
            v[42] = self.norm_nodes(snap.pool_free.first().copied().unwrap_or(0) as f32);
            v[43] = self.norm_nodes(snap.pool_free.get(1).copied().unwrap_or(0) as f32);
            let tail: u32 = snap.pool_free.iter().skip(2).sum();
            v[44] = self.norm_nodes(tail as f32);
            v[45] = snap.contention() as f32;
        }
        v
    }
}

/// Fixed-length history of state vectors forming the `k × m` state matrix.
#[derive(Debug)]
pub struct StateHistory {
    k: usize,
    rows: Vec<[f32; STATE_VARS]>,
}

impl Clone for StateHistory {
    fn clone(&self) -> Self {
        Self {
            k: self.k,
            rows: self.rows.clone(),
        }
    }

    /// In place, reusing the row buffer.
    fn clone_from(&mut self, source: &Self) {
        self.k = source.k;
        self.rows.clone_from(&source.rows);
    }
}

impl StateHistory {
    /// History holding the most recent `k` vectors.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "history must hold at least one row");
        Self {
            k,
            rows: Vec::with_capacity(k),
        }
    }

    /// Appends the newest vector, evicting the oldest beyond `k`.
    pub fn push(&mut self, v: [f32; STATE_VARS]) {
        if self.rows.len() == self.k {
            self.rows.remove(0);
        }
        self.rows.push(v);
    }

    /// Recorded row count (≤ k).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows have been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The state matrix: oldest row first, newest last. Until `k` rows have
    /// been recorded, the earliest row is repeated as left-padding so the
    /// matrix always has `k` rows (the foundation model expects a fixed
    /// sequence length).
    pub fn matrix(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.write_matrix(&mut out);
        out
    }

    /// Writes the state matrix into a caller-provided buffer (reshaped in
    /// place; no allocation once warm). Identical contents to
    /// [`StateHistory::matrix`].
    pub fn write_matrix(&self, out: &mut Matrix) {
        out.reset(self.k, STATE_VARS);
        self.write_matrix_rows(out, 0);
    }

    /// Writes the `k` state-matrix rows into rows `row0 .. row0 + k` of a
    /// larger (already shaped) matrix — the row-stacked-batch assembly
    /// primitive: lockstep engines write each episode's block straight
    /// into the shared batch matrix instead of staging a `k × m` copy.
    /// Row contents are identical to [`StateHistory::matrix`].
    pub fn write_matrix_rows(&self, out: &mut Matrix, row0: usize) {
        assert!(!self.rows.is_empty(), "no state recorded yet");
        let pad = self.k - self.rows.len();
        for r in 0..self.k {
            let idx = r.saturating_sub(pad).min(self.rows.len() - 1);
            out.row_mut(row0 + r).copy_from_slice(&self.rows[idx]);
        }
    }
}

/// Mean and population standard deviation of `xs`, as sequential f32
/// sums in iteration order (`(0, 0)` when empty, deviation `0` below two
/// values).
fn mean_std(xs: impl ExactSizeIterator<Item = f32> + Clone) -> (f32, f32) {
    let n = xs.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let mean = xs.clone().sum::<f32>() / n as f32;
    if n < 2 {
        return (mean, 0.0);
    }
    let var = xs.map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_sim::RunningJobView;
    use mirage_trace::{HOUR, MINUTE};
    use proptest::prelude::*;

    fn snap(queued: usize, running: usize) -> ClusterSnapshot {
        ClusterSnapshot {
            now: 1000,
            free_nodes: 4,
            total_nodes: 16,
            down_nodes: 0,
            recent_evictions: 0,
            queued: (0..queued)
                .map(|i| QueuedJobView {
                    id: i as u64,
                    nodes: 1 + (i % 4) as u32,
                    submit: 0,
                    age: (i as i64 + 1) * HOUR,
                    timelimit: 24 * HOUR,
                    user: 1,
                })
                .collect(),
            running: (0..running)
                .map(|i| RunningJobView {
                    id: 100 + i as u64,
                    nodes: 2,
                    start: 0,
                    elapsed: (i as i64 + 1) * HOUR / 2,
                    timelimit: 48 * HOUR,
                    user: 2,
                })
                .collect(),
            ..ClusterSnapshot::default()
        }
    }

    fn pred() -> PredecessorState {
        PredecessorState {
            nodes: 1,
            timelimit: 48 * HOUR,
            queue_time: HOUR,
            elapsed: 10 * HOUR,
        }
    }

    fn succ() -> SuccessorSpec {
        SuccessorSpec {
            nodes: 1,
            timelimit: 48 * HOUR,
        }
    }

    #[test]
    fn vector_is_forty_six_wide_and_finite() {
        let enc = StateEncoder::new(16, 48 * HOUR);
        let v = enc.encode(&snap(5, 3), &pred(), &succ());
        assert_eq!(v.len(), 46);
        assert!(v.iter().all(|x| x.is_finite()));
        assert_eq!(
            &v[40..],
            &[0.0; 6],
            "fault and hetero vars stay zero with the flags off"
        );
    }

    #[test]
    fn fault_features_encode_health_and_eviction_rate() {
        let mut enc = StateEncoder::new(16, 48 * HOUR);
        enc.fault_features = true;
        let mut s = snap(2, 1);
        s.down_nodes = 4;
        s.recent_evictions = 3;
        let v = enc.encode(&s, &pred(), &succ());
        assert!((v[40] - 12.0 / 16.0).abs() < 1e-6, "12 of 16 nodes healthy");
        assert!(v[41] > 0.0, "eviction rate surfaces");
        // The first 40 variables are untouched by the flag.
        let mut off = enc;
        off.fault_features = false;
        let v_off = off.encode(&s, &pred(), &succ());
        assert_eq!(&v[..40], &v_off[..40]);
        assert_eq!(&v_off[40..], &[0.0; 6]);
    }

    #[test]
    fn hetero_features_encode_pool_headroom_and_contention() {
        let mut enc = StateEncoder::new(16, 48 * HOUR);
        enc.hetero_features = true;
        let mut s = snap(2, 4);
        s.pool_free = vec![2, 6, 3, 1];
        s.pool_total = vec![4, 8, 3, 1];
        s.contended_running = 1;
        let v = enc.encode(&s, &pred(), &succ());
        assert!((v[42] - 2.0 / 16.0).abs() < 1e-6, "pool 0 headroom");
        assert!((v[43] - 6.0 / 16.0).abs() < 1e-6, "pool 1 headroom");
        assert!((v[44] - 4.0 / 16.0).abs() < 1e-6, "tail pools aggregate");
        assert!((v[45] - 0.25).abs() < 1e-6, "1 of 4 running contended");
        // The first 42 variables are untouched by the flag, and a
        // homogeneous snapshot encodes zeros even with the flag on.
        let mut off = enc;
        off.hetero_features = false;
        let v_off = off.encode(&s, &pred(), &succ());
        assert_eq!(&v[..42], &v_off[..42]);
        assert_eq!(&v_off[42..], &[0.0; 4]);
        let v_homog = enc.encode(&snap(2, 0), &pred(), &succ());
        assert_eq!(&v_homog[42..], &[0.0; 4]);
    }

    #[test]
    fn empty_cluster_encodes_zeros_for_stats() {
        let enc = StateEncoder::new(16, 48 * HOUR);
        let v = enc.encode(&snap(0, 0), &pred(), &succ());
        assert_eq!(v[0], 0.0, "log1p(0) = 0 queue count");
        assert!(v[1..16].iter().all(|&x| x == 0.0), "queue stats empty");
        assert!(v[17..34].iter().all(|&x| x == 0.0), "server stats empty");
        // Predecessor/successor vars still present.
        assert!(v[34] > 0.0 && v[39] > 0.0);
    }

    #[test]
    fn busier_queue_raises_count_var() {
        let enc = StateEncoder::new(16, 48 * HOUR);
        let v_small = enc.encode(&snap(2, 0), &pred(), &succ());
        let v_big = enc.encode(&snap(50, 0), &pred(), &succ());
        assert!(v_big[0] > v_small[0]);
    }

    #[test]
    fn percentiles_are_monotone() {
        let enc = StateEncoder::new(16, 48 * HOUR);
        let v = enc.encode(&snap(9, 0), &pred(), &succ());
        for w in v[6..11].windows(2) {
            assert!(
                w[0] <= w[1],
                "age percentiles must be sorted: {:?}",
                &v[6..11]
            );
        }
    }

    #[test]
    fn normalization_bounds_hold() {
        let enc = StateEncoder::new(16, 48 * HOUR);
        let v = enc.encode(&snap(20, 10), &pred(), &succ());
        // Node fractions within [0, 2] (oversized jobs clamp naturally).
        assert!(v[1..6].iter().all(|&x| (0.0..=2.0).contains(&x)));
        // Times clamped at 4× the max limit.
        assert!(v.iter().all(|&x| x <= 4.0));
    }

    /// Test-only reference for the bits of the 32 summary variables:
    /// every value set converted to f32 and fully sorted, mean/std as
    /// plain slice sums.
    fn full_sort_oracle(enc: &StateEncoder, snap: &ClusterSnapshot) -> Vec<u32> {
        fn five(mut xs: Vec<f32>, norm: impl Fn(f32) -> f32) -> [f32; 5] {
            if xs.is_empty() {
                return [0.0; 5];
            }
            xs.sort_by(f32::total_cmp);
            let idx = |p: f32| ((xs.len() - 1) as f32 * p).round() as usize;
            [0, idx(0.25), idx(0.5), idx(0.75), xs.len() - 1].map(|r| norm(xs[r]))
        }
        let nodes = |x| enc.norm_nodes(x);
        let time = |x| enc.norm_time(x);
        let (q, r) = (&snap.queued, &snap.running);
        let sizes: Vec<f32> = r.iter().map(|r| r.nodes as f32).collect();
        let n = sizes.len() as f32;
        let mean = if sizes.is_empty() {
            0.0
        } else {
            sizes.iter().sum::<f32>() / n
        };
        let std = if sizes.len() < 2 {
            0.0
        } else {
            (sizes.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n).sqrt()
        };
        let mut v = Vec::new();
        v.extend(five(q.iter().map(|q| q.nodes as f32).collect(), nodes));
        v.extend(five(q.iter().map(|q| q.age as f32).collect(), time));
        v.extend(five(q.iter().map(|q| q.timelimit as f32).collect(), time));
        v.extend(five(sizes, nodes));
        v.extend([nodes(mean), nodes(std)]);
        v.extend(five(r.iter().map(|r| r.elapsed as f32).collect(), time));
        v.extend(five(r.iter().map(|r| r.timelimit as f32).collect(), time));
        v.into_iter().map(f32::to_bits).collect()
    }

    /// The summary variables of an encoding, in the oracle's order.
    fn summary_vars(v: &[f32; STATE_VARS]) -> Vec<u32> {
        v[1..16]
            .iter()
            .chain(&v[17..34])
            .map(|x| x.to_bits())
            .collect()
    }

    /// A snapshot of the given depths with heavily duplicated values.
    /// `arrival_order` keeps queued ages non-increasing (the look-up
    /// path); otherwise they are shuffled, as a fault retry leaves them.
    /// `oversized` plants one node count above the encoder's partition.
    fn random_snap(
        rng: &mut impl rand::Rng,
        queued: usize,
        running: usize,
        arrival_order: bool,
        oversized: bool,
    ) -> ClusterSnapshot {
        let limits = [HOUR, 2 * HOUR, 12 * HOUR, 24 * HOUR, 48 * HOUR, 300 * HOUR];
        let now = 40 * 24 * HOUR;
        let mut submits: Vec<i64> = (0..queued)
            .map(|_| now - rng.gen_range(0..30i64) * HOUR)
            .collect();
        if arrival_order {
            submits.sort_unstable();
        }
        let mut snap = ClusterSnapshot {
            now,
            total_nodes: 16,
            queued: submits
                .iter()
                .enumerate()
                .map(|(i, &submit)| QueuedJobView {
                    id: i as u64,
                    nodes: rng.gen_range(0..=6u32).min(4) * 4,
                    submit,
                    age: now - submit,
                    timelimit: limits[rng.gen_range(0..limits.len())],
                    user: 1,
                })
                .collect(),
            running: (0..running)
                .map(|i| RunningJobView {
                    id: 5000 + i as u64,
                    nodes: rng.gen_range(1..=3u32),
                    start: 0,
                    elapsed: rng.gen_range(0..20i64) * HOUR / 2,
                    timelimit: limits[rng.gen_range(0..limits.len())],
                    user: 2,
                })
                .collect(),
            ..ClusterSnapshot::default()
        };
        if oversized {
            if let Some(q) = snap.queued.last_mut() {
                q.nodes = 17 + rng.gen_range(0..1000u32);
            }
            if let Some(r) = snap.running.first_mut() {
                r.nodes = 40;
            }
        }
        snap
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `encode_into` against the full-sort oracle, bit for bit, with
        /// one scratch carried across snapshots of growing and shrinking
        /// depth — so a histogram bin or sort key left over from an
        /// earlier, deeper snapshot would surface — over every ranking
        /// path: counted and oversized node counts, arrival-order and
        /// shuffled ages, depths on both sides of the old 128 threshold.
        #[test]
        fn encode_into_matches_full_sort_oracle(
            seed in 0u64..u64::MAX,
            steps in prop::collection::vec(
                (0usize..=1000, 0usize..=1000, 0u32..8, 0u32..6),
                2..6,
            ),
        ) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let enc = StateEncoder::new(16, 48 * HOUR);
            let mut scratch = EncoderScratch::default();
            for (queued, running, shallow, mode) in steps {
                // A quarter of the snapshots stay at or under depth 130.
                let queued = if shallow < 2 { queued % 131 } else { queued };
                let running = if shallow == 0 { running % 3 } else { running };
                let snap = random_snap(&mut rng, queued, running, mode % 2 == 0, mode == 5);
                let v = enc.encode_into(&snap, &pred(), &succ(), &mut scratch);
                prop_assert_eq!(
                    summary_vars(&v), full_sort_oracle(&enc, &snap),
                    "queued {} running {} mode {}", queued, running, mode
                );
                prop_assert_eq!(v, enc.encode(&snap, &pred(), &succ()));
            }
        }
    }

    /// The first depth past the old `n <= 128` sort threshold, where the
    /// nested bottom-up selection displaced the 25th and 50th percentiles:
    /// every value set is a permutation of `1..=129` (scaled), so the
    /// expected ranks are known without sorting anything.
    #[test]
    fn quartiles_are_exact_at_depth_129() {
        let enc = StateEncoder::new(256, 48 * HOUR);
        let perm = |i: usize, stride: usize| (1 + i * stride % 129) as i64;
        let mut s = snap(129, 129);
        for (i, q) in s.queued.iter_mut().enumerate() {
            q.nodes = perm(i, 37) as u32;
            q.age = perm(i, 50) * MINUTE;
            q.timelimit = perm(i, 101) * MINUTE;
        }
        for (i, r) in s.running.iter_mut().enumerate() {
            r.nodes = perm(i, 11) as u32;
            r.elapsed = perm(i, 64) * MINUTE;
            r.timelimit = perm(i, 7) * MINUTE;
        }
        let v = enc.encode(&s, &pred(), &succ());
        let ranks = [1.0f32, 33.0, 65.0, 97.0, 129.0];
        let as_nodes = ranks.map(|x| enc.norm_nodes(x));
        let as_time = ranks.map(|x| enc.norm_time(x * MINUTE as f32));
        assert_eq!(v[1..6], as_nodes, "queued sizes");
        assert_eq!(v[6..11], as_time, "queued ages");
        assert_eq!(v[11..16], as_time, "queued limits");
        assert_eq!(v[17..22], as_nodes, "running sizes");
        assert_eq!(v[24..29], as_time, "running elapsed");
        assert_eq!(v[29..34], as_time, "running limits");
    }

    #[test]
    fn history_pads_then_slides() {
        let mut h = StateHistory::new(3);
        let mk = |x: f32| {
            let mut v = [0.0f32; STATE_VARS];
            v[0] = x;
            v
        };
        h.push(mk(1.0));
        let m = h.matrix();
        assert_eq!(m.shape(), (3, STATE_VARS));
        // All rows padded with the single recorded vector.
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(2, 0), 1.0);
        h.push(mk(2.0));
        h.push(mk(3.0));
        h.push(mk(4.0)); // evicts 1.0
        let m = h.matrix();
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.get(2, 0), 4.0);
    }

    #[test]
    #[should_panic(expected = "no state recorded")]
    fn empty_history_matrix_panics() {
        let h = StateHistory::new(2);
        let _ = h.matrix();
    }
}
