//! Seeded synthetic workload generator.
//!
//! Substitutes for the production TACC traces the paper uses. The
//! generator is calibrated against everything the paper publishes about the
//! three clusters:
//!
//! * monthly job volume and its variability (Fig 2),
//! * requested-node mix with the published per-cluster means (§3.1),
//! * multi-node jobs dominating node-hour consumption (Fig 3) via
//!   size-correlated runtimes,
//! * the RTX short-job spike (96 780 sub-30 s jobs),
//! * demand-to-capacity pressure (`load_intensity`) so the replayed trace
//!   reproduces the congestion regimes of Fig 1 / Fig 4, and
//! * the data-cleaning anomalies of §3.2 (early over-sized requests and
//!   chained sub-jobs) so the cleaning pipeline has real work to do.
//!
//! Arrivals follow a Markov-modulated non-homogeneous Poisson process:
//! a base rate per month (log-normal monthly modulation) shaped by diurnal
//! and weekly cycles, multiplied during bursty episodes governed by a
//! two-state Markov chain. Everything is driven by a single `u64` seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Exp, LogNormal};
use serde::{Deserialize, Serialize};

use crate::cluster::ClusterProfile;
use crate::job::JobRecord;
use crate::time::{day_of_week, time_of_day, DAY, HOUR, MONTH};

/// Wall-clock limit grid users pick from (typical site queue limits).
pub const TIMELIMIT_GRID: [i64; 7] = [
    HOUR,
    2 * HOUR,
    4 * HOUR,
    8 * HOUR,
    12 * HOUR,
    24 * HOUR,
    48 * HOUR,
];

/// Configuration for one synthetic trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Cluster being modelled.
    pub profile: ClusterProfile,
    /// Master seed; two generators with equal configs produce equal traces.
    pub seed: u64,
    /// Overrides `profile.trace_months` when set (handy for tests).
    pub months: Option<u32>,
    /// Injects the §3.2 anomalies (over-sized early jobs, sub-job chains).
    pub anomalies: bool,
    /// Blanks out a one-day maintenance window each month (§3.2).
    pub maintenance: bool,
    /// Explicit arrival-rate multiplier. `None` auto-calibrates demand to
    /// `profile.load_intensity` with a two-pass generation.
    pub rate_scale: Option<f64>,
    /// Number of distinct users submitting work.
    pub user_count: u32,
}

impl SynthConfig {
    /// Default configuration for a cluster profile.
    pub fn new(profile: ClusterProfile, seed: u64) -> Self {
        Self {
            profile,
            seed,
            months: None,
            anomalies: true,
            maintenance: true,
            rate_scale: None,
            user_count: 150,
        }
    }

    /// Trace span in seconds.
    pub fn span(&self) -> i64 {
        i64::from(self.months.unwrap_or(self.profile.trace_months)) * MONTH
    }
}

/// Deterministic synthetic trace generator.
pub struct TraceGenerator {
    cfg: SynthConfig,
}

/// Internal per-generation state derived from the seed.
struct GenState {
    rng: StdRng,
    month_factor: Vec<f64>,
    day_factor: Vec<f64>,
    burst_intervals: Vec<(i64, i64)>,
    maintenance_windows: Vec<(i64, i64)>,
    user_cdf: Vec<f64>,
    size_choices: Vec<u32>,
    size_cdf: Vec<f64>,
}

impl TraceGenerator {
    /// Creates a generator for `cfg`.
    pub fn new(cfg: SynthConfig) -> Self {
        Self { cfg }
    }

    /// Generator configuration.
    pub fn config(&self) -> &SynthConfig {
        &self.cfg
    }

    /// Generates the full trace, sorted by submit time with sequential ids.
    ///
    /// When `rate_scale` is `None` the generator runs twice: a first pass
    /// measures the realized demand-to-capacity ratio, and the second pass
    /// rescales *runtimes* so mean offered load matches
    /// `profile.load_intensity` while the submission count stays on the
    /// published jobs-per-month target. Both passes are seeded identically,
    /// so the output is still a pure function of the config.
    pub fn generate(&self) -> Vec<JobRecord> {
        match self.cfg.rate_scale {
            Some(scale) => self.generate_with_scale(scale, 1.0),
            None => {
                let probe = self.generate_with_scale(1.0, 1.0);
                let ratio = demand_ratio(&probe, &self.cfg.profile, self.cfg.span());
                let scale = if ratio > 1e-9 {
                    self.cfg.profile.load_intensity / ratio
                } else {
                    1.0
                };
                self.generate_with_scale(1.0, scale)
            }
        }
    }

    fn generate_with_scale(&self, rate_scale: f64, runtime_scale: f64) -> Vec<JobRecord> {
        let cfg = &self.cfg;
        let span = cfg.span();
        let months = cfg.months.unwrap_or(cfg.profile.trace_months) as usize;
        let mut st = self.derive_state(months);

        let base_rate = cfg.profile.jobs_per_month / MONTH as f64 * rate_scale;
        // Envelope for thinning: peak diurnal (1.45) × weekday (1.12) ×
        // burst multiplier, per-month factor applied inside the loop.
        let burst_mult = 1.0 + 4.0 * cfg.profile.burstiness;
        let mut jobs = Vec::with_capacity((cfg.profile.jobs_per_month * months as f64) as usize);

        let mut serial: u64 = 0;
        for m in 0..months {
            let month_start = m as i64 * MONTH;
            let month_end = month_start + MONTH;
            let lambda_max = base_rate * st.month_factor[m] * 1.25 * 1.45 * 1.12 * burst_mult;
            if lambda_max <= 0.0 {
                continue;
            }
            let gap = Exp::new(lambda_max).expect("positive rate");
            let mut t = month_start as f64;
            loop {
                t += gap.sample(&mut st.rng);
                let ti = t as i64;
                if ti >= month_end {
                    break;
                }
                let day = (ti / DAY) as usize;
                let rate = base_rate
                    * st.month_factor[m]
                    * st.day_factor[day.min(st.day_factor.len() - 1)]
                    * diurnal_factor(ti)
                    * weekly_factor(ti)
                    * burst_factor(&st.burst_intervals, ti, burst_mult);
                if st.rng.gen::<f64>() * lambda_max > rate {
                    continue; // thinned out
                }
                if in_window(&st.maintenance_windows, ti) {
                    continue; // site maintenance: nobody submits
                }
                serial += 1;
                self.emit_job(&mut st, &mut jobs, ti, serial, span, runtime_scale);
            }
        }

        jobs.sort_by_key(|j| (j.submit, j.id));
        for (i, j) in jobs.iter_mut().enumerate() {
            j.id = i as u64 + 1;
        }
        jobs
    }

    /// Emits one logical submission: usually a single job, occasionally a
    /// chained group of sub-jobs or an over-sized request (when anomalies
    /// are enabled).
    fn emit_job(
        &self,
        st: &mut GenState,
        out: &mut Vec<JobRecord>,
        submit: i64,
        serial: u64,
        span: i64,
        runtime_scale: f64,
    ) {
        let cfg = &self.cfg;
        let user = sample_cdf(&st.user_cdf, st.rng.gen::<f64>()) as u32;

        // §3.2 anomaly (a): early-production jobs requesting more nodes than
        // the partition has. Confined to the first two months like the paper
        // describes ("in the early-production phase ... all nodes are in the
        // same partition").
        if cfg.anomalies && submit < 2 * MONTH && st.rng.gen::<f64>() < 0.003 {
            let nodes = cfg.profile.nodes + 1 + st.rng.gen_range(0..cfg.profile.nodes);
            let runtime = st.rng.gen_range(HOUR..8 * HOUR);
            let mut j = JobRecord::new(
                0,
                format!("u{user}_oversized{serial}"),
                user,
                submit,
                nodes,
                48 * HOUR,
                runtime,
            );
            j.timelimit = j.timelimit.min(cfg.profile.max_timelimit);
            out.push(j);
            return;
        }

        let nodes = st.size_choices[sample_cdf(&st.size_cdf, st.rng.gen::<f64>())];
        let (runtime, timelimit) = self.sample_runtime(st, nodes, runtime_scale);

        // §3.2 anomaly (b): chained sub-jobs (checkpoint-restart sequences)
        // recorded separately in the accounting DB. The cleaner merges them
        // back; the chain volume is calibrated so the original/filtered
        // ratio matches Table 1.
        if cfg.anomalies && st.rng.gen::<f64>() < cfg.profile.chain_fraction {
            let max_len = (2.0 * (cfg.profile.chain_len_mean - 1.0)).round().max(3.0) as usize;
            let parts = st.rng.gen_range(2..=max_len);
            let mut sub_submit = submit;
            for k in 0..parts {
                let (sub_runtime, sub_limit) = self.sample_runtime(st, nodes, runtime_scale);
                if sub_submit >= span {
                    break;
                }
                out.push(JobRecord::new(
                    0,
                    format!("u{user}_chain{serial}_{k}"),
                    user,
                    sub_submit,
                    nodes,
                    sub_limit,
                    sub_runtime,
                ));
                // Next sub-job enters the queue once the previous one would
                // have finished (Slurm releases dependents on completion).
                sub_submit += sub_runtime + st.rng.gen_range(60..30 * 60);
            }
            return;
        }

        out.push(JobRecord::new(
            0,
            format!("u{user}_job{serial}"),
            user,
            submit,
            nodes,
            timelimit,
            runtime,
        ));
    }

    /// Samples (runtime, timelimit) for a job of the given size.
    /// `runtime_scale` is the demand-calibration factor from the two-pass
    /// generation (1.0 on the probe pass).
    fn sample_runtime(&self, st: &mut GenState, nodes: u32, runtime_scale: f64) -> (i64, i64) {
        let cfg = &self.cfg;
        if st.rng.gen::<f64>() < cfg.profile.short_job_fraction {
            // "Noisy" short job: asks for hours, runs for seconds.
            let runtime = st.rng.gen_range(5..30);
            let limit = TIMELIMIT_GRID[st.rng.gen_range(2..TIMELIMIT_GRID.len())];
            return (runtime, limit.min(cfg.profile.max_timelimit));
        }
        // Multi-node jobs run longer — this is what makes them dominate
        // node-hour consumption (Fig 3) despite being a small job fraction.
        let size_stretch = 1.0 + 0.8 * (nodes as f64).ln();
        let median = cfg.profile.median_runtime as f64 * size_stretch * runtime_scale;
        let dist = LogNormal::new(median.ln(), 1.3).expect("valid lognormal");
        let mut runtime = dist.sample(&mut st.rng) as i64;
        runtime = runtime.clamp(60, cfg.profile.max_timelimit);

        // Users over-request by a 1.1–4× slack, snapped up to the grid.
        let slack = 1.1 + 2.9 * st.rng.gen::<f64>();
        let want = (runtime as f64 * slack) as i64;
        let limit = TIMELIMIT_GRID
            .iter()
            .copied()
            .find(|&g| g >= want)
            .unwrap_or(cfg.profile.max_timelimit)
            .min(cfg.profile.max_timelimit);
        // A few jobs hit their wall-clock limit exactly (killed by Slurm).
        if st.rng.gen::<f64>() < 0.05 {
            runtime = limit;
        }
        (runtime.min(limit), limit)
    }

    fn derive_state(&self, months: usize) -> GenState {
        let cfg = &self.cfg;
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // Log-normal monthly volume modulation with the profile's CV.
        let cv = cfg.profile.monthly_cv.max(1e-3);
        let sigma = (1.0 + cv * cv).ln().sqrt();
        let mu = -sigma * sigma / 2.0; // unit mean
        let month_dist = LogNormal::new(mu, sigma).expect("valid lognormal");
        // Clamp the tails: the generator is open-loop (chained sub-jobs do
        // not stretch out under congestion the way real dependent jobs do),
        // so an unbounded month-long overload would push the queue into a
        // runaway backlog instead of the paper's heavy-but-recovering
        // regimes. Month-scale variation is kept mild; most congestion
        // dynamics come from the day-scale campaign factor below.
        let month_factor: Vec<f64> = (0..months)
            .map(|_| month_dist.sample(&mut rng).clamp(0.7, 1.1))
            .collect();

        // Day-scale demand campaigns: a log-normal Ornstein-Uhlenbeck
        // factor with a ~4-day correlation time. Multi-day busy stretches
        // build 20-60 h backlogs that drain again — the congestion pattern
        // behind Fig 1 / Fig 4 — without saturating whole months.
        let day_cv: f64 = 0.45;
        let day_sigma = (1.0 + day_cv * day_cv).ln().sqrt();
        let day_mu = -day_sigma * day_sigma / 2.0;
        let rho = (-1.0f64 / 4.0).exp();
        let n_days = months * 30 + 1;
        let mut day_factor = Vec::with_capacity(n_days);
        let mut x = 0.0f64;
        for _ in 0..n_days {
            let eps: f64 = rand_distr::StandardNormal.sample(&mut rng);
            x = rho * x + (1.0 - rho * rho).sqrt() * eps;
            day_factor.push((day_mu + day_sigma * x).exp().clamp(0.35, 1.25));
        }

        // Burst episodes: alternate calm (mean 6 h) / burst (mean 45 min).
        let span = cfg.span();
        let calm = Exp::new(1.0 / (6.0 * HOUR as f64)).unwrap();
        let burst = Exp::new(1.0 / (45.0 * 60.0_f64)).unwrap();
        let mut burst_intervals = Vec::new();
        let mut t = 0i64;
        while t < span {
            t += calm.sample(&mut rng) as i64 + 1;
            let b_end = t + burst.sample(&mut rng) as i64 + 1;
            if t >= span {
                break;
            }
            burst_intervals.push((t, b_end.min(span)));
            t = b_end;
        }

        // One-day maintenance window per month at a random day.
        let maintenance_windows = if cfg.maintenance {
            (0..months)
                .map(|m| {
                    let day = rng.gen_range(0..28) as i64;
                    let s = m as i64 * MONTH + day * DAY;
                    (s, s + DAY)
                })
                .collect()
        } else {
            Vec::new()
        };

        // Zipf user activity.
        let weights: Vec<f64> = (1..=cfg.user_count.max(1))
            .map(|r| 1.0 / r as f64)
            .collect();
        let user_cdf = to_cdf(&weights);

        // Requested-node mix: weights ∝ size^(−α), α solved so the mean
        // matches the cluster's published mean nodes/job. Sizes larger than
        // the partition are unreachable for legitimate jobs (only the §3.2
        // anomaly path emits those).
        let mut size_choices: Vec<u32> = vec![1, 2, 3, 4, 8, 16, 32];
        size_choices.retain(|&s| s <= cfg.profile.nodes);
        if size_choices.is_empty() {
            size_choices.push(1);
        }
        let alpha = solve_size_alpha(&size_choices, cfg.profile.mean_nodes_per_job);
        let size_weights: Vec<f64> = size_choices
            .iter()
            .map(|&s| (s as f64).powf(-alpha))
            .collect();
        let size_cdf = to_cdf(&size_weights);

        GenState {
            rng,
            month_factor,
            day_factor,
            burst_intervals,
            maintenance_windows,
            user_cdf,
            size_choices,
            size_cdf,
        }
    }
}

/// Diurnal arrival shape: peak mid-afternoon, trough before dawn.
fn diurnal_factor(t: i64) -> f64 {
    let tod = time_of_day(t) as f64 / DAY as f64; // 0..1
    let phase = (tod - 14.0 / 24.0) * std::f64::consts::TAU;
    1.0 + 0.45 * phase.cos()
}

/// Weekly arrival shape: weekdays busier than weekends.
fn weekly_factor(t: i64) -> f64 {
    if day_of_week(t) < 5 {
        1.12
    } else {
        0.70
    }
}

fn burst_factor(intervals: &[(i64, i64)], t: i64, mult: f64) -> f64 {
    if in_window(intervals, t) {
        mult
    } else {
        1.0
    }
}

/// Binary search over sorted, non-overlapping windows.
fn in_window(windows: &[(i64, i64)], t: i64) -> bool {
    match windows.binary_search_by(|&(s, _)| s.cmp(&t)) {
        Ok(_) => true,
        Err(0) => false,
        Err(i) => t < windows[i - 1].1,
    }
}

/// Converts weights to a normalized CDF for inverse-transform sampling.
fn to_cdf(weights: &[f64]) -> Vec<f64> {
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// Index of the first CDF entry ≥ `u` (u ∈ [0,1)).
fn sample_cdf(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// Bisection for the size-mix exponent: weights ∝ size^(−α) whose mean hits
/// `target`.
fn solve_size_alpha(sizes: &[u32], target: f64) -> f64 {
    let mean = |alpha: f64| -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for &s in sizes {
            let w = (s as f64).powf(-alpha);
            num += s as f64 * w;
            den += w;
        }
        num / den
    };
    let (mut lo, mut hi) = (0.0f64, 8.0f64);
    // mean(α) is strictly decreasing; clamp the target into the achievable
    // range before bisecting.
    let target = target.clamp(mean(hi), mean(lo));
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if mean(mid) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Realized demand-to-capacity ratio of a trace: node-seconds requested over
/// node-seconds available in the span.
pub fn demand_ratio(jobs: &[JobRecord], profile: &ClusterProfile, span: i64) -> f64 {
    let demand: f64 = jobs
        .iter()
        .filter(|j| j.nodes <= profile.nodes)
        .map(|j| j.nodes as f64 * j.runtime as f64)
        .sum();
    demand / (profile.nodes as f64 * span as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(seed: u64) -> SynthConfig {
        let mut cfg = SynthConfig::new(ClusterProfile::v100().scaled(0.3), seed);
        cfg.months = Some(2);
        cfg
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TraceGenerator::new(small_cfg(7)).generate();
        let b = TraceGenerator::new(small_cfg(7)).generate();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let a = TraceGenerator::new(small_cfg(1)).generate();
        let b = TraceGenerator::new(small_cfg(2)).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn jobs_sorted_with_sequential_ids() {
        let jobs = TraceGenerator::new(small_cfg(3)).generate();
        for (i, w) in jobs.windows(2).enumerate() {
            assert!(w[0].submit <= w[1].submit, "unsorted at {i}");
        }
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, i as u64 + 1);
        }
    }

    #[test]
    fn runtimes_respect_limits() {
        let jobs = TraceGenerator::new(small_cfg(4)).generate();
        for j in &jobs {
            assert!(j.runtime > 0, "job {} has nonpositive runtime", j.id);
            assert!(
                j.runtime <= j.timelimit,
                "job {} exceeds its wall-clock limit",
                j.id
            );
            assert!(j.submit >= 0 && j.submit < 2 * MONTH);
            assert!(j.start.is_none() && j.end.is_none());
        }
    }

    #[test]
    fn auto_calibration_hits_target_load() {
        let cfg = small_cfg(5);
        let jobs = TraceGenerator::new(cfg.clone()).generate();
        let r = demand_ratio(&jobs, &cfg.profile, cfg.span());
        let target = cfg.profile.load_intensity;
        assert!(
            (r - target).abs() / target < 0.35,
            "demand ratio {r:.3} too far from target {target:.3}"
        );
    }

    #[test]
    fn anomalies_present_when_enabled() {
        let mut cfg = SynthConfig::new(ClusterProfile::v100().scaled(0.5), 11);
        cfg.months = Some(2);
        let jobs = TraceGenerator::new(cfg.clone()).generate();
        assert!(
            jobs.iter().any(|j| j.nodes > cfg.profile.nodes),
            "expected over-sized anomaly jobs"
        );
        assert!(
            jobs.iter().any(|j| j.name.contains("chain")),
            "expected chained sub-jobs"
        );
    }

    #[test]
    fn anomalies_absent_when_disabled() {
        let mut cfg = small_cfg(6);
        cfg.anomalies = false;
        let jobs = TraceGenerator::new(cfg.clone()).generate();
        assert!(jobs.iter().all(|j| j.nodes <= cfg.profile.nodes));
        assert!(jobs.iter().all(|j| !j.name.contains("chain")));
    }

    #[test]
    fn short_job_fraction_tracks_profile() {
        let mut cfg = SynthConfig::new(ClusterProfile::rtx().scaled(0.4), 9);
        cfg.months = Some(2);
        cfg.anomalies = false;
        let jobs = TraceGenerator::new(cfg.clone()).generate();
        let frac = jobs.iter().filter(|j| j.is_short()).count() as f64 / jobs.len() as f64;
        let target = cfg.profile.short_job_fraction;
        assert!(
            (frac - target).abs() < 0.08,
            "short fraction {frac:.3} vs target {target:.3}"
        );
    }

    #[test]
    fn mean_job_size_tracks_profile() {
        let mut cfg = SynthConfig::new(ClusterProfile::v100().scaled(0.5), 13);
        cfg.months = Some(3);
        cfg.anomalies = false;
        // Short jobs also draw sizes, so the overall mean tracks the target.
        let jobs = TraceGenerator::new(cfg.clone()).generate();
        let mean: f64 = jobs.iter().map(|j| j.nodes as f64).sum::<f64>() / jobs.len() as f64;
        assert!(
            (mean - 2.5).abs() < 0.5,
            "mean size {mean:.2} should be near 2.5"
        );
    }

    #[test]
    fn size_alpha_solver_is_monotone_and_accurate() {
        let sizes = vec![1, 2, 3, 4, 8, 16, 32];
        for target in [1.3, 1.6, 2.5, 5.0] {
            let alpha = solve_size_alpha(&sizes, target);
            let w: Vec<f64> = sizes.iter().map(|&s| (s as f64).powf(-alpha)).collect();
            let total: f64 = w.iter().sum();
            let mean: f64 = sizes
                .iter()
                .zip(&w)
                .map(|(&s, &wi)| s as f64 * wi)
                .sum::<f64>()
                / total;
            assert!((mean - target).abs() < 1e-6, "α solve failed for {target}");
        }
    }

    #[test]
    fn window_lookup() {
        let w = vec![(10, 20), (30, 40)];
        assert!(!in_window(&w, 9));
        assert!(in_window(&w, 10));
        assert!(in_window(&w, 19));
        assert!(!in_window(&w, 20));
        assert!(in_window(&w, 35));
        assert!(!in_window(&w, 45));
    }
}
