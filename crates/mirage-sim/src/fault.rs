//! Fault injection: node crash/recovery models, job retry policy, and
//! the per-run fault ledgers the simulator maintains.
//!
//! A [`FaultModel`] turns a seed into a deterministic crash tape
//! ([`mirage_trace::fault_schedule`]) plus an order-independent transient
//! job-failure draw; a [`RetryPolicy`] decides how evicted jobs re-enter
//! the queue (max attempts, exponential backoff). Both live inside the
//! simulator configs so `reset()` replays the identical fault schedule —
//! that is what lets the chaos evaluation lane compare RL and heuristic
//! methods on the same crashes.

use std::collections::VecDeque;
use std::fmt;

use mirage_trace::faults::NodeFaultEvent;
use mirage_trace::{fault_schedule, splitmix64, DAY, HOUR, MINUTE};
use serde::{Deserialize, Serialize};

/// A numeric field of a simulator / fault configuration that cannot
/// yield a sound simulation — NaN or out-of-range probabilities,
/// negative durations, an empty partition. Produced by the
/// `validate()` / `try_build` family so a bad config surfaces as a
/// typed error at build time instead of a NaN fault tape at runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfigError {
    /// Dotted path of the offending field (e.g. `faults.mtbf`).
    pub field: &'static str,
    /// The rejected value, rendered for the message.
    pub value: String,
    /// Why the value is rejected.
    pub reason: &'static str,
}

impl SimConfigError {
    pub(crate) fn new(field: &'static str, value: impl fmt::Display, reason: &'static str) -> Self {
        Self {
            field,
            value: value.to_string(),
            reason,
        }
    }
}

impl fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid simulator config: {} = {} ({})",
            self.field, self.value, self.reason
        )
    }
}

impl std::error::Error for SimConfigError {}

/// Node failure/recovery + transient job-failure model.
///
/// `mtbf <= 0` disables node faults and `job_fail_prob <= 0` disables
/// transient failures; [`FaultModel::none`] (the `Default`) disables both,
/// leaving every simulator code path byte-identical to the pre-fault
/// behavior.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultModel {
    /// Mean seconds between failures per node (exponential; `<= 0` off).
    #[serde(default)]
    pub mtbf: i64,
    /// Mean seconds a crashed node stays down (exponential, min 1 s).
    #[serde(default)]
    pub mttr: i64,
    /// Probability that one job attempt dies mid-run (order-independent
    /// hash draw on `(seed, job id, attempt)`).
    #[serde(default)]
    pub job_fail_prob: f64,
    /// Master seed of the crash tape and failure draws.
    #[serde(default)]
    pub seed: u64,
    /// Crashes are generated up to this instant (recoveries may land
    /// later so no node stays down forever).
    #[serde(default)]
    pub horizon: i64,
}

impl Default for FaultModel {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultModel {
    /// Perfectly reliable hardware — the default, and the identity pins'
    /// guarantee: with this model every simulator path is unchanged.
    pub fn none() -> Self {
        Self {
            mtbf: 0,
            mttr: 0,
            job_fail_prob: 0.0,
            seed: 0,
            horizon: 0,
        }
    }

    /// Occasional failures: node crashes every ~4 days, ~2 h repairs,
    /// 2 % of job attempts die mid-run.
    pub fn moderate(seed: u64) -> Self {
        Self {
            mtbf: 4 * DAY,
            mttr: 2 * HOUR,
            job_fail_prob: 0.02,
            seed,
            horizon: 60 * DAY,
        }
    }

    /// Hostile hardware: node crashes every ~18 h, ~4 h repairs, 8 % of
    /// job attempts die mid-run.
    pub fn severe(seed: u64) -> Self {
        Self {
            mtbf: 18 * HOUR,
            mttr: 4 * HOUR,
            job_fail_prob: 0.08,
            seed,
            horizon: 60 * DAY,
        }
    }

    /// The same model on a different seed stream.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether the model injects nothing at all.
    pub fn is_none(&self) -> bool {
        self.mtbf <= 0 && self.job_fail_prob <= 0.0
    }

    /// Rejects fields that cannot parameterize the fault processes: a
    /// non-finite or out-of-`[0, 1]` failure probability, or negative
    /// durations (`0` stays valid — it means "off").
    pub fn validate(&self) -> Result<(), SimConfigError> {
        if !self.job_fail_prob.is_finite() {
            return Err(SimConfigError::new(
                "faults.job_fail_prob",
                self.job_fail_prob,
                "must be finite",
            ));
        }
        if !(0.0..=1.0).contains(&self.job_fail_prob) {
            return Err(SimConfigError::new(
                "faults.job_fail_prob",
                self.job_fail_prob,
                "must lie in [0, 1]",
            ));
        }
        if self.mtbf < 0 {
            return Err(SimConfigError::new(
                "faults.mtbf",
                self.mtbf,
                "must be >= 0 (0 disables node faults)",
            ));
        }
        if self.mttr < 0 {
            return Err(SimConfigError::new(
                "faults.mttr",
                self.mttr,
                "must be >= 0",
            ));
        }
        if self.horizon < 0 {
            return Err(SimConfigError::new(
                "faults.horizon",
                self.horizon,
                "must be >= 0",
            ));
        }
        Ok(())
    }

    /// The deterministic crash/recovery tape for a partition of `nodes`
    /// nodes (empty when node faults are disabled).
    pub fn node_schedule(&self, nodes: u32) -> Vec<NodeFaultEvent> {
        if self.mtbf <= 0 || nodes == 0 {
            return Vec::new();
        }
        fault_schedule(self.seed, nodes, self.mtbf, self.mttr, self.horizon.max(1))
    }

    /// Whether attempt number `attempt` (1-based) of job `id` dies mid-run,
    /// and if so at which fraction of its runtime, in `(0, 1]`.
    ///
    /// A pure hash of `(seed, id, attempt)` — independent of dispatch
    /// order, so the event-driven and tick-driven simulators draw the
    /// same verdict for the same attempt even though they start jobs at
    /// different instants.
    pub fn job_fails(&self, id: u64, attempt: u32) -> Option<f64> {
        if self.job_fail_prob <= 0.0 {
            return None;
        }
        let h = splitmix64(
            self.seed
                ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ u64::from(attempt).wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if u >= self.job_fail_prob {
            return None;
        }
        let h2 = splitmix64(h ^ 0xA076_1D64_78BD_642F);
        let frac = (h2 >> 11) as f64 / (1u64 << 53) as f64;
        Some(frac.max(f64::EPSILON))
    }
}

/// How evicted / failed jobs re-enter the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts a job gets (first run included). 0 and 1 both mean
    /// "never retry".
    #[serde(default)]
    pub max_attempts: u32,
    /// Backoff before the first retry, seconds.
    #[serde(default)]
    pub backoff_base: i64,
    /// Backoff ceiling, seconds.
    #[serde(default)]
    pub backoff_cap: i64,
}

impl Default for RetryPolicy {
    /// Three attempts, 1 min → 2 min → … doubling backoff capped at 1 h —
    /// Slurm-requeue-flavored defaults.
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_base: MINUTE,
            backoff_cap: HOUR,
        }
    }
}

impl RetryPolicy {
    /// Whether a job that has already started `attempts` times may retry.
    pub fn allows(&self, attempts: u32) -> bool {
        attempts < self.max_attempts
    }

    /// Rejects negative backoff fields (`0` stays valid — [`delay`]
    /// clamps it up to 1 s).
    ///
    /// [`delay`]: RetryPolicy::delay
    pub fn validate(&self) -> Result<(), SimConfigError> {
        if self.backoff_base < 0 {
            return Err(SimConfigError::new(
                "retry.backoff_base",
                self.backoff_base,
                "must be >= 0",
            ));
        }
        if self.backoff_cap < 0 {
            return Err(SimConfigError::new(
                "retry.backoff_cap",
                self.backoff_cap,
                "must be >= 0",
            ));
        }
        Ok(())
    }

    /// Backoff delay before retry number `retry` (1-based): exponential
    /// doubling from `backoff_base`, capped at `backoff_cap`, at least 1 s.
    pub fn delay(&self, retry: u32) -> i64 {
        let shift = retry.saturating_sub(1).min(31);
        self.backoff_base
            .max(1)
            .saturating_mul(1i64 << shift)
            .min(self.backoff_cap.max(1))
            .max(1)
    }
}

/// Aggregate fault counters of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultStats {
    /// Node crash events fired.
    pub node_crashes: u64,
    /// Node recovery events fired.
    pub node_recoveries: u64,
    /// Running jobs evicted (node crash + transient failure together).
    pub evictions: u64,
    /// Evictions caused by transient mid-run job failures.
    pub job_failures: u64,
    /// Retries scheduled (evictions that re-queued under backoff).
    pub retries: u64,
    /// Jobs that completed after at least one retry.
    pub retry_successes: u64,
    /// Jobs that exhausted their attempts and failed terminally.
    pub failed_jobs: u64,
}

impl std::ops::AddAssign for FaultStats {
    /// Counter-wise sum: folds one run's counters into a lane total.
    fn add_assign(&mut self, run: Self) {
        self.node_crashes += run.node_crashes;
        self.node_recoveries += run.node_recoveries;
        self.evictions += run.evictions;
        self.job_failures += run.job_failures;
        self.retries += run.retries;
        self.retry_successes += run.retry_successes;
        self.failed_jobs += run.failed_jobs;
    }
}

/// Per-job fault ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct JobFaults {
    /// Times this job was evicted mid-run.
    pub evictions: u32,
    /// Seconds between each eviction and the subsequent restart — the
    /// service downtime a predecessor's evictions inflicted.
    pub downtime: i64,
}

/// Sliding log of eviction instants, bounded like the admission module's
/// `RecentStarts` so a month-long run cannot grow it without bound. Backs
/// the recent-eviction-rate accessor agents observe.
#[derive(Debug, Default)]
pub struct EvictionLog {
    times: VecDeque<i64>,
}

impl Clone for EvictionLog {
    fn clone(&self) -> Self {
        Self {
            times: self.times.clone(),
        }
    }

    /// In place, keeping the ring's capacity.
    fn clone_from(&mut self, source: &Self) {
        self.times.clone_from(&source.times);
    }
}

/// Retention cap: evictions are rare events (per-node MTBF ≫ the 24 h
/// observation window), so 4096 instants cover any plausible window.
const EVICTION_LOG_CAP: usize = 4096;

impl EvictionLog {
    /// Forgets every eviction, keeping the ring's capacity.
    pub fn clear(&mut self) {
        self.times.clear();
    }

    /// Records an eviction at `now`.
    pub fn record(&mut self, now: i64) {
        if self.times.len() == EVICTION_LOG_CAP {
            self.times.pop_front();
        }
        self.times.push_back(now);
    }

    /// Evictions recorded within the trailing `window` seconds.
    pub fn count(&self, now: i64, window: i64) -> u32 {
        let cutoff = now - window;
        self.times
            .iter()
            .rev()
            .take_while(|&&t| t >= cutoff)
            .count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_injects_nothing() {
        let m = FaultModel::none();
        assert!(m.is_none());
        assert!(m.node_schedule(128).is_empty());
        assert_eq!(m.job_fails(1, 1), None);
        assert_eq!(FaultModel::default(), m);
    }

    #[test]
    fn presets_are_ordered_by_severity() {
        let mo = FaultModel::moderate(1);
        let se = FaultModel::severe(1);
        assert!(se.mtbf < mo.mtbf, "severe crashes more often");
        assert!(se.job_fail_prob > mo.job_fail_prob);
        assert!(!mo.is_none() && !se.is_none());
    }

    #[test]
    fn job_failure_draw_is_a_pure_function_of_id_and_attempt() {
        let m = FaultModel::severe(9);
        for id in 0..200u64 {
            for attempt in 1..4u32 {
                assert_eq!(m.job_fails(id, attempt), m.job_fails(id, attempt));
            }
        }
        // Roughly `job_fail_prob` of attempts fail, and the failure point
        // is a valid runtime fraction.
        let fails: Vec<f64> = (0..5000u64).filter_map(|id| m.job_fails(id, 1)).collect();
        let rate = fails.len() as f64 / 5000.0;
        assert!((rate - m.job_fail_prob).abs() < 0.02, "rate {rate}");
        assert!(fails.iter().all(|&f| f > 0.0 && f <= 1.0));
    }

    #[test]
    fn retry_backoff_doubles_and_caps() {
        let r = RetryPolicy {
            max_attempts: 4,
            backoff_base: 60,
            backoff_cap: 300,
        };
        assert_eq!(r.delay(1), 60);
        assert_eq!(r.delay(2), 120);
        assert_eq!(r.delay(3), 240);
        assert_eq!(r.delay(4), 300, "capped");
        assert_eq!(r.delay(60), 300, "shift-safe far past the cap");
        assert!(r.allows(3) && !r.allows(4));
        let never = RetryPolicy {
            max_attempts: 1,
            ..r
        };
        assert!(!never.allows(1));
    }

    #[test]
    fn eviction_log_counts_the_trailing_window() {
        let mut log = EvictionLog::default();
        for t in [100, 200, 5000, 9000] {
            log.record(t);
        }
        assert_eq!(log.count(9000, 100), 1);
        assert_eq!(log.count(9000, 5000), 2, "cutoff 4000 excludes 100/200");
        assert_eq!(log.count(9000, 8800), 3, "cutoff 200 is inclusive");
        assert_eq!(log.count(9000, 100_000), 4);
        assert_eq!(log.count(100_000, 100), 0);
    }

    #[test]
    fn eviction_log_is_bounded() {
        let mut log = EvictionLog::default();
        for t in 0..(EVICTION_LOG_CAP as i64 + 500) {
            log.record(t);
        }
        assert_eq!(
            log.count(i64::MAX / 2, i64::MAX / 2),
            EVICTION_LOG_CAP as u32
        );
    }

    #[test]
    fn fault_model_validation_rejects_unsound_fields() {
        assert!(FaultModel::none().validate().is_ok());
        assert!(FaultModel::moderate(1).validate().is_ok());
        assert!(FaultModel::severe(1).validate().is_ok());

        let nan = FaultModel {
            job_fail_prob: f64::NAN,
            ..FaultModel::none()
        };
        let err = nan.validate().unwrap_err();
        assert_eq!(err.field, "faults.job_fail_prob");
        assert!(err.to_string().contains("finite"), "message: {err}");

        for bad_prob in [-0.1, 1.5, f64::INFINITY] {
            let m = FaultModel {
                job_fail_prob: bad_prob,
                ..FaultModel::none()
            };
            assert!(m.validate().is_err(), "prob {bad_prob} must be rejected");
        }
        for (field, m) in [
            (
                "faults.mtbf",
                FaultModel {
                    mtbf: -1,
                    ..FaultModel::none()
                },
            ),
            (
                "faults.mttr",
                FaultModel {
                    mttr: -HOUR,
                    ..FaultModel::none()
                },
            ),
            (
                "faults.horizon",
                FaultModel {
                    horizon: -1,
                    ..FaultModel::none()
                },
            ),
        ] {
            assert_eq!(m.validate().unwrap_err().field, field);
        }
    }

    #[test]
    fn retry_policy_validation_rejects_negative_backoff() {
        assert!(RetryPolicy::default().validate().is_ok());
        let bad_base = RetryPolicy {
            backoff_base: -1,
            ..RetryPolicy::default()
        };
        assert_eq!(bad_base.validate().unwrap_err().field, "retry.backoff_base");
        let bad_cap = RetryPolicy {
            backoff_cap: -MINUTE,
            ..RetryPolicy::default()
        };
        assert_eq!(bad_cap.validate().unwrap_err().field, "retry.backoff_cap");
    }
}
