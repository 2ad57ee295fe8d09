//! The single-service provisioning episode (§4.4, §5.1 of the paper),
//! generic over any [`ClusterBackend`]: the N = 1 view of the hand-off
//! engine in [`crate::multiservice`].
//!
//! One episode covers one predecessor–successor pair of chained sub-jobs:
//!
//! 1. the backend replays background trace jobs to build realistic queue
//!    state, while state vectors are recorded at the decision cadence,
//! 2. the predecessor sub-job is submitted at the episode start,
//! 3. every `decision_interval` seconds the policy sees the `k × m` state
//!    matrix and answers *submit* or *no-submit* for the successor,
//! 4. once the predecessor completes, the successor is submitted if the
//!    policy has not (that is exactly the reactive user's behavior, so no
//!    learned policy can do worse than `reactive` on interruption),
//! 5. the backend runs until the successor dispatches, revealing the
//!    episode outcome (interruption or overlap).
//!
//! All of that is [`MultiServiceEnv`]'s state machine, run with the one
//! service [`MultiServiceConfig::single`] describes; the engine owns the
//! backend, the encoder, the history and the pair jobs. This module owns
//! the single-service *vocabulary* — [`Action`], [`EpisodeConfig`] (and
//! its typed [`EpisodeConfigError`]), the borrowed [`DecisionContext`] a
//! policy decides on, [`EpisodeResult`] — and two entry points over the
//! engine: [`EpisodeDriver`] exposes the loop one decision at a time and
//! [`run_episode`] drives a policy closure through it to completion.

use std::borrow::Borrow;
use std::fmt;

use mirage_nn::Matrix;
use mirage_sim::{ClusterBackend, ClusterSnapshot};
use mirage_trace::{JobRecord, DAY, HOUR};
use serde::{Deserialize, Serialize};

use crate::multiservice::{MultiServiceConfig, MultiServiceEnv, ServiceEpisode};
use crate::reward::{EpisodeOutcome, RewardShaper};
use crate::state::SuccessorSpec;

/// The provisioner's two actions (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Action {
    /// Do not submit the successor yet.
    Wait,
    /// Submit the successor now.
    Submit,
}

impl Action {
    /// Action index used by the RL agents (no-submit = 0, submit = 1).
    pub fn index(self) -> usize {
        match self {
            Action::Wait => 0,
            Action::Submit => 1,
        }
    }

    /// Inverse of [`Action::index`].
    pub fn from_index(i: usize) -> Self {
        if i == 1 {
            Action::Submit
        } else {
            Action::Wait
        }
    }
}

/// Everything a policy may look at when deciding (§4.1: no job-internal
/// state beyond the pair's own public attributes).
///
/// The matrix and snapshot are **borrowed from the driver's reusable
/// buffers** — valid until the next `advance()` — so the steady-state
/// decision loop hands policies a view without copying or allocating.
#[derive(Debug, Clone, Copy)]
pub struct DecisionContext<'a> {
    /// Simulated time of the decision.
    pub now: i64,
    /// The `k × m` state matrix (history of encoded snapshots).
    pub state_matrix: &'a Matrix,
    /// Raw snapshot at the decision instant.
    pub snapshot: &'a ClusterSnapshot,
    /// Whether the predecessor has started running.
    pub pred_started: bool,
    /// Estimated seconds until the predecessor ends: limit-based while
    /// running, `timelimit` while still queued (the user knows only the
    /// limit, not the true runtime).
    pub pred_remaining: i64,
    /// Mean queue wait of background jobs that started in the last 24 h
    /// (the observable the `avg` heuristic uses), seconds.
    pub recent_avg_wait: Option<f64>,
    /// Successor spec.
    pub successor: SuccessorSpec,
}

/// Episode parameters. The paper's evaluation uses pairs of 48-hour jobs
/// (1-node in §6.1, 8-node in §6.2) with a 10-minute decision cadence; the
/// defaults here use 1-node 48-hour pairs, a 1-hour cadence and k = 12.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpisodeConfig {
    /// Nodes requested by both sub-jobs.
    pub pair_nodes: u32,
    /// Wall-clock limit of both sub-jobs.
    pub pair_timelimit: i64,
    /// Actual runtime of both sub-jobs (long-running services run to the
    /// limit).
    pub pair_runtime: i64,
    /// Seconds between decisions (the paper's 10-minute invocation).
    pub decision_interval: i64,
    /// History rows in the state matrix (`k`).
    pub history_k: usize,
    /// Background-trace replay before the episode start, to build up
    /// realistic queue/running state. Must exceed the longest plausible
    /// wait + limit so the warm state is faithful.
    pub warmup: i64,
    /// User id for the pair (distinct from background users).
    pub pair_user: u32,
    /// Expose the backend's fault surface (available-node fraction,
    /// recent eviction rate) as extra state features. Off by default:
    /// with the flag off the encoded vectors are byte-identical to the
    /// pre-fault encoder, which is what the bit-identity pins rely on.
    #[serde(default)]
    pub fault_features: bool,
    /// Expose the backend's heterogeneity surface (per-pool headroom,
    /// contended running share) as extra state features. Off by default,
    /// with the same bit-identity guarantee as `fault_features`.
    #[serde(default)]
    pub hetero_features: bool,
}

impl Default for EpisodeConfig {
    fn default() -> Self {
        Self {
            pair_nodes: 1,
            pair_timelimit: 48 * HOUR,
            pair_runtime: 48 * HOUR,
            decision_interval: HOUR,
            history_k: 12,
            // Long enough for multi-day backlogs to rebuild inside the
            // replay window; short warm-ups systematically underestimate
            // congestion on clusters whose queues deepen over a week.
            warmup: 12 * DAY,
            pair_user: 1_000_000,
            fault_features: false,
            hetero_features: false,
        }
    }
}

impl EpisodeConfig {
    /// Checks that an episode under this config can run on a partition
    /// of `total_nodes`: positive `decision_interval` (the decision
    /// clock would otherwise never advance), positive `pair_timelimit` /
    /// `pair_runtime`, and a pair no wider than the partition (it could
    /// never start). The episode runs as the one-service engine config
    /// [`MultiServiceConfig::single`] builds, and the error names that
    /// config's fields (`services[0].timelimit` is `pair_timelimit`).
    pub fn validate(&self, total_nodes: u32) -> Result<(), EpisodeConfigError> {
        MultiServiceConfig::single(self, RewardShaper::default()).validate(total_nodes)
    }
}

/// A configuration value under which a provisioning episode cannot run
/// — a decision clock that never advances, a pair job that never fits.
/// Produced by [`EpisodeConfig::validate`],
/// [`MultiServiceConfig::validate`] and [`MultiServiceEnv::try_new`], so
/// a bad config surfaces as a typed error when the episode is built
/// instead of a hang or an `unreachable!` mid-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpisodeConfigError {
    /// Path of the offending field (e.g. `decision_interval`,
    /// `services[1].user`).
    pub field: String,
    /// The rejected value, rendered for the message.
    pub value: String,
    /// Why the value is rejected.
    pub reason: &'static str,
}

impl fmt::Display for EpisodeConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid episode config: {} = {} ({})",
            self.field, self.value, self.reason
        )
    }
}

impl std::error::Error for EpisodeConfigError {}

/// Full record of one episode.
#[derive(Debug, Clone)]
pub struct EpisodeResult {
    /// Interruption/overlap outcome.
    pub outcome: EpisodeOutcome,
    /// When the predecessor was submitted.
    pub pred_submit: i64,
    /// When the predecessor started.
    pub pred_start: i64,
    /// When the predecessor ended.
    pub pred_end: i64,
    /// When the successor was submitted.
    pub succ_submit: i64,
    /// When the successor started.
    pub succ_start: i64,
    /// `(state matrix, action index)` at every decision the policy made
    /// (ends with the submit decision if the policy submitted).
    pub decisions: Vec<(Matrix, usize)>,
    /// Whether the policy submitted (vs the reactive fallback at
    /// predecessor completion).
    pub submitted_by_policy: bool,
}

impl EpisodeResult {
    /// The successor's queue wait.
    pub fn succ_wait(&self) -> i64 {
        self.succ_start - self.succ_submit
    }

    /// Moves the recorded decision trajectory out, leaving `decisions`
    /// empty. Converting decisions into training samples (replay
    /// experiences, REINFORCE steps) owns the `k × m` matrices outright —
    /// taking them avoids a per-decision matrix clone.
    pub fn take_decisions(&mut self) -> Vec<(Matrix, usize)> {
        std::mem::take(&mut self.decisions)
    }
}

impl From<ServiceEpisode> for EpisodeResult {
    /// The single-service record of one service's hand-off (drops the
    /// shared-cluster fields: reward, stampede and usage accounting).
    fn from(s: ServiceEpisode) -> Self {
        Self {
            outcome: s.outcome,
            pred_submit: s.pred_submit,
            pred_start: s.pred_start,
            pred_end: s.pred_end,
            succ_submit: s.succ_submit,
            succ_start: s.succ_start,
            decisions: s.decisions,
            submitted_by_policy: s.submitted_by_policy,
        }
    }
}

/// One episode as an explicit state machine over any backend: the
/// one-service [`MultiServiceEnv`], spoken to in single-service terms
/// (one [`DecisionContext`] out, one [`Action`] in, one
/// [`EpisodeResult`] at the end).
///
/// The driver owns (or mutably borrows, via the `&mut B` blanket impl of
/// [`ClusterBackend`]) the backend for the episode. Usage:
///
/// 1. [`EpisodeDriver::new`] replays warm-up, records the pre-`t0` history
///    window and submits the predecessor,
/// 2. [`advance`](Self::advance) moves to the next decision instant and
///    yields the [`DecisionContext`] — or `None` once the reactive
///    fallback submitted the successor,
/// 3. [`apply`](Self::apply) records the policy's decision; `true` means
///    the successor is in and the decision loop is over,
/// 4. [`finish`](Self::finish) resolves the outcome.
pub struct EpisodeDriver<B: ClusterBackend> {
    env: MultiServiceEnv<B>,
}

impl<B: ClusterBackend> EpisodeDriver<B> {
    /// Resets `backend`, replays `trace` up to `t0` (recording the history
    /// window at the decision cadence) and submits the predecessor.
    ///
    /// # Panics
    /// If `cfg` fails [`EpisodeConfig::validate`] for the backend's
    /// partition.
    pub fn new(backend: B, trace: &[JobRecord], cfg: &EpisodeConfig, t0: i64) -> Self {
        let single = MultiServiceConfig::single(cfg, RewardShaper::default());
        Self {
            env: MultiServiceEnv::new(backend, trace, &single, t0),
        }
    }

    /// Controls whether `apply()` records `(state matrix, action)` pairs
    /// into the episode result. Recording clones the `k × m` matrix per
    /// decision; pure serving/benchmark loops turn it off to keep the
    /// steady state allocation-free.
    pub fn set_record_decisions(&mut self, record: bool) {
        self.env.set_record_decisions(record);
    }

    /// Advances to the next decision instant. Returns the context the
    /// policy must decide on, or `None` when the successor is already in
    /// (the reactive fallback fired, or [`apply`](Self::apply) submitted)
    /// — the decision loop is over and further calls stay `None`.
    ///
    /// The context borrows the engine's reusable snapshot/matrix buffers,
    /// so the steady-state loop allocates nothing; read what you need,
    /// then call [`apply`](Self::apply).
    pub fn advance(&mut self) -> Option<DecisionContext<'_>> {
        (self.env.advance_tick() > 0).then(|| self.env.decision_context(0))
    }

    /// The [`DecisionContext`] of the last [`advance`](Self::advance)
    /// that returned `Some`, rebuilt from the engine's reusable buffers.
    /// Only meaningful (and only callable without a panic) between such
    /// an `advance` and the matching [`apply`](Self::apply).
    pub fn decision_context(&self) -> DecisionContext<'_> {
        self.env.decision_context(0)
    }

    /// The current `k × m` state matrix — the same buffer the last
    /// [`advance`](Self::advance)'s [`DecisionContext`] borrowed. Only
    /// meaningful between an `advance` that returned `Some` and the
    /// matching [`apply`](Self::apply).
    pub fn state_matrix(&self) -> &Matrix {
        self.decision_context().state_matrix
    }

    /// Records the policy's decision for the context returned by the last
    /// [`advance`](Self::advance). Returns `true` once the successor is
    /// submitted (the decision loop is over).
    pub fn apply(&mut self, action: Action) -> bool {
        self.env.apply(&[action]);
        !self.env.is_deciding()
    }

    /// Runs the backend until both the predecessor completed and the
    /// successor started, and returns the episode record plus the backend
    /// (reusable for the next episode after a reset).
    pub fn finish(self) -> (EpisodeResult, B) {
        let (mut result, backend) = self.env.finish();
        (result.services.remove(0).into(), backend)
    }

    /// Abandons the episode, handing the backend back untouched-from-here
    /// (the next [`EpisodeDriver::new`] resets it anyway).
    pub fn into_backend(self) -> B {
        self.env.into_backend()
    }

    /// A fork: a driver in exactly this one's state that owns a clone of
    /// its backend — of `B` itself, or of `C` when this driver runs on an
    /// `&mut C`. Run on, it produces the episode this driver would.
    pub fn fork<C>(&self) -> EpisodeDriver<C>
    where
        B: Borrow<C>,
        C: ClusterBackend + Clone,
    {
        EpisodeDriver {
            env: self.env.fork(),
        }
    }

    /// Restores `source`'s state in place, on this driver's own backend:
    /// afterwards this driver runs on exactly as a [`fork`](Self::fork)
    /// of `source` would. Every buffer is reused — the backend's job arena, event heap and
    /// queue, the history and state matrix, the snapshot — so restoring
    /// a freshly warmed driver into one that ran an episode of the same
    /// window allocates nothing. This is how one warm-up serves many
    /// policies: warm once with [`new`](Self::new), then restore a
    /// working driver from it before each run.
    pub fn restore_from<W>(&mut self, source: &EpisodeDriver<W>)
    where
        W: ClusterBackend + Borrow<B>,
        B: Clone,
    {
        self.env.restore_from(&source.env);
    }
}

/// Runs one episode on any backend. `trace` is the background workload
/// (pre-windowed to `[t0 − warmup, …]` by the caller for speed); `t0` is
/// the predecessor submission instant; `decide` is called at each decision
/// point. The backend is reset first, so any backend value can be reused
/// across episodes.
pub fn run_episode<B: ClusterBackend>(
    backend: &mut B,
    trace: &[JobRecord],
    cfg: &EpisodeConfig,
    t0: i64,
    decide: impl FnMut(&DecisionContext) -> Action,
) -> EpisodeResult {
    EpisodeDriver::new(backend, trace, cfg, t0)
        .env
        .play_single(decide)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_sim::{BackendKind, SimConfig, Simulator};
    use mirage_trace::MINUTE;

    fn bg_job(id: u64, submit: i64, nodes: u32, runtime: i64) -> JobRecord {
        JobRecord::new(
            id,
            format!("bg{id}"),
            5,
            submit,
            nodes,
            2 * runtime,
            runtime,
        )
    }

    fn small_cfg() -> EpisodeConfig {
        EpisodeConfig {
            pair_nodes: 1,
            pair_timelimit: 4 * HOUR,
            pair_runtime: 4 * HOUR,
            decision_interval: 30 * MINUTE,
            history_k: 4,
            warmup: DAY,
            pair_user: 999,
            fault_features: false,
            hetero_features: false,
        }
    }

    fn sim4() -> Simulator {
        Simulator::new(SimConfig::new(4))
    }

    #[test]
    fn reactive_on_idle_cluster_has_zero_everything() {
        // Empty cluster: pred starts instantly, successor (reactive)
        // submitted at pred end also starts instantly → no gap, no overlap.
        let r = run_episode(&mut sim4(), &[], &small_cfg(), DAY, |_| Action::Wait);
        assert!(!r.submitted_by_policy);
        assert_eq!(r.outcome.interruption, 0);
        assert_eq!(r.outcome.overlap, 0);
        assert_eq!(r.pred_start, DAY);
        assert_eq!(r.succ_start, r.pred_end);
    }

    #[test]
    fn reactive_under_load_gets_interrupted() {
        // Background saturates the cluster around the pred end, so the
        // reactively-submitted successor must wait → interruption.
        let cfg = small_cfg();
        let t0 = DAY;
        let pred_end = t0 + cfg.pair_runtime; // pred starts immediately on idle 4-node cluster (1 node)
        let bg: Vec<JobRecord> = (0..12)
            .map(|i| bg_job(i + 1, pred_end - HOUR + i as i64 * 60, 2, 6 * HOUR))
            .collect();
        let r = run_episode(&mut sim4(), &bg, &cfg, t0, |_| Action::Wait);
        assert!(
            r.outcome.interruption > 0,
            "queue was full at pred end: {:?}",
            r.outcome
        );
        assert_eq!(r.outcome.overlap, 0);
    }

    #[test]
    fn early_submission_on_idle_cluster_pays_overlap() {
        // Submitting immediately on an idle cluster starts the successor
        // right away → overlap ≈ the predecessor's whole runtime.
        let r = run_episode(&mut sim4(), &[], &small_cfg(), DAY, |_| Action::Submit);
        assert!(r.submitted_by_policy);
        assert_eq!(r.outcome.interruption, 0);
        assert!(r.outcome.overlap > 3 * HOUR, "overlap {:?}", r.outcome);
    }

    #[test]
    fn well_timed_submission_beats_reactive_under_load() {
        // Same congested backdrop; a policy submitting ~2 h before the
        // pred end lets the successor age in the queue.
        let cfg = small_cfg();
        let t0 = DAY;
        let pred_end = t0 + cfg.pair_runtime;
        let bg: Vec<JobRecord> = (0..12)
            .map(|i| bg_job(i + 1, pred_end - HOUR + i as i64 * 60, 2, 6 * HOUR))
            .collect();
        let mut sim = sim4();
        let reactive = run_episode(&mut sim, &bg, &cfg, t0, |_| Action::Wait);
        let proactive = run_episode(&mut sim, &bg, &cfg, t0, |ctx| {
            if ctx.pred_started && ctx.pred_remaining <= 2 * HOUR {
                Action::Submit
            } else {
                Action::Wait
            }
        });
        assert!(proactive.submitted_by_policy);
        assert!(
            proactive.outcome.interruption < reactive.outcome.interruption,
            "proactive {:?} vs reactive {:?}",
            proactive.outcome,
            reactive.outcome
        );
    }

    #[test]
    fn decisions_record_states_and_actions() {
        let cfg = small_cfg();
        let mut count = 0;
        let r = run_episode(&mut sim4(), &[], &cfg, DAY, |_| {
            count += 1;
            if count >= 3 {
                Action::Submit
            } else {
                Action::Wait
            }
        });
        assert_eq!(r.decisions.len(), 3);
        assert_eq!(r.decisions[0].1, 0);
        assert_eq!(r.decisions[2].1, 1);
        let (m, _) = &r.decisions[0];
        assert_eq!(m.shape(), (cfg.history_k, crate::state::STATE_VARS));
    }

    #[test]
    fn succ_wait_is_consistent() {
        let r = run_episode(&mut sim4(), &[], &small_cfg(), DAY, |_| Action::Wait);
        assert_eq!(r.succ_wait(), r.succ_start - r.succ_submit);
        assert!(r.succ_wait() >= 0);
    }

    #[test]
    fn any_backend_runs_episodes_too() {
        // The same episode through enum-dispatched backends: the
        // tick-driven reference produces a valid (slightly tick-shifted)
        // outcome through the identical generic code path.
        let cfg = small_cfg();
        for kind in [BackendKind::EventDriven, BackendKind::Tick] {
            let mut backend = SimConfig::builder().nodes(4).backend(kind).build();
            let r = run_episode(&mut backend, &[], &cfg, DAY, |_| Action::Wait);
            // The tick-driven backend starts jobs only on scheduler
            // ticks, so the predecessor's end drifts off the decision
            // grid and the reactive fallback (which fires at decision
            // instants) pays up to one decision interval plus one
            // scheduling pass.
            assert!(
                r.outcome.interruption <= cfg.decision_interval + 120,
                "{kind:?}: {:?}",
                r.outcome
            );
            assert_eq!(r.outcome.overlap, 0, "{kind:?}");
            assert!(r.pred_start >= DAY, "{kind:?}");
        }
    }

    #[test]
    fn driver_steps_match_run_episode() {
        // Driving the state machine by hand gives the same record as the
        // closure loop.
        let cfg = small_cfg();
        let policy = |ctx: &DecisionContext| {
            if ctx.pred_started && ctx.pred_remaining <= HOUR {
                Action::Submit
            } else {
                Action::Wait
            }
        };
        let by_loop = run_episode(&mut sim4(), &[], &cfg, DAY, policy);

        let mut sim = sim4();
        let mut driver = EpisodeDriver::new(&mut sim, &[], &cfg, DAY);
        while let Some(ctx) = driver.advance() {
            let action = policy(&ctx);
            if driver.apply(action) {
                break;
            }
        }
        let (by_driver, _) = driver.finish();
        assert_eq!(by_driver.outcome, by_loop.outcome);
        assert_eq!(by_driver.decisions.len(), by_loop.decisions.len());
        assert_eq!(by_driver.submitted_by_policy, by_loop.submitted_by_policy);
        assert_eq!(by_driver.succ_start, by_loop.succ_start);
    }

    #[test]
    fn advance_past_the_end_is_inert() {
        // Once the successor is in, extra advance() calls must not submit
        // a second successor or disturb the outcome (release-mode safety
        // for external drivers of the state machine).
        let mut sim = sim4();
        let mut driver = EpisodeDriver::new(&mut sim, &[], &small_cfg(), DAY);
        while let Some(ctx) = driver.advance() {
            let _ = ctx;
            if driver.apply(Action::Submit) {
                break;
            }
        }
        assert!(driver.advance().is_none());
        assert!(driver.advance().is_none());
        let (result, _) = driver.finish();
        assert!(result.submitted_by_policy);
        assert_eq!(result.decisions.len(), 1);
    }

    #[test]
    fn backend_is_reusable_across_episodes() {
        // One backend value, many episodes: reset makes them independent.
        let mut sim = sim4();
        let a = run_episode(&mut sim, &[], &small_cfg(), DAY, |_| Action::Wait);
        let b = run_episode(&mut sim, &[], &small_cfg(), DAY, |_| Action::Wait);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.pred_start, b.pred_start);
    }
}
