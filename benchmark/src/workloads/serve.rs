//! `serve_light` and `serve_heavy`: the provisioning decision loop
//! (`EpisodeDriver::new → advance → DqnPolicy::decide → apply → finish`)
//! over 48 h 1-node pairs at a 600 s cadence, k = 12, d_model 16.
//!
//! Same code, two regimes. Light: A100 at half its arrival rate, queue
//! ≈ 0, so the forward pass is ~90 % of a decision. Heavy: RTX at 1.3×
//! its arrival rate, queue in the hundreds, so `run_until`, snapshot
//! sampling and state encoding dominate and episode construction (the
//! 12-day warm-up replay) is most of an episode's wall time.
//!
//! Work unit: one decision. Op: one decision, `advance()` entry to
//! `apply()` return.

use std::time::Instant;

use mirage::core::state::{
    EncoderScratch, PredecessorState, StateEncoder, StateHistory, SuccessorSpec, STATE_VARS,
};
use mirage::core::train::episode_window;
use mirage::core::{
    Action, DecisionContext, DqnPolicy, EpisodeConfig, EpisodeDriver, EpisodeOutcome, EpisodeResult,
};
use mirage::nn::foundation::FoundationKind;
use mirage::nn::{Matrix, TransformerConfig};
use mirage::rl::{greedy_pair, ActionEncoding, DqnAgent, DqnConfig, DualHeadConfig, DualHeadNet};
use mirage::sim::{ClusterBackend, ClusterSnapshot, JobStatus, SimConfig, Simulator};
use mirage::trace::{split_seed, ClusterProfile, JobRecord, DAY, HOUR};

use super::{grid_starts, synth_trace, Digest, Metrics, SliceOut, SynthTrace, Workload};
use crate::estimate::Part;
use crate::hold::{hold_rule, HoldUntilDeadline};
use crate::kernels;
use crate::names::*;
use crate::span;
use crate::spans::Tracer;

/// Decision cadence and history length of every serving episode.
pub const DECISION_INTERVAL: i64 = 600;
pub const HISTORY_K: usize = 12;

/// Episodes per slice: sized so a slice is ≥ 100 ms and ≥ 1 000
/// decisions in both regimes (~290–340 decisions per episode).
const LIGHT_EPISODES: usize = 30;
const HEAVY_EPISODES: usize = 6;

/// The experiment-scale serving net: one 2-head encoder layer, width 16.
pub fn serving_net(seed: u64) -> DualHeadNet {
    DualHeadNet::new(DualHeadConfig {
        foundation: FoundationKind::Transformer,
        transformer: TransformerConfig {
            input_dim: STATE_VARS,
            seq_len: HISTORY_K,
            d_model: 16,
            heads: 2,
            layers: 1,
            ff_mult: 2,
        },
        action_encoding: ActionEncoding::TwoHead,
        freeze_foundation: false,
        seed,
    })
}

pub fn serving_episode() -> EpisodeConfig {
    EpisodeConfig {
        decision_interval: DECISION_INTERVAL,
        history_k: HISTORY_K,
        ..EpisodeConfig::default()
    }
}

/// What one episode produced, product path or recomposed.
struct EpisodeRecord {
    outcome: EpisodeOutcome,
    pred_start: i64,
    pred_end: i64,
    succ_submit: i64,
    succ_start: i64,
    submitted_by_policy: bool,
}

impl EpisodeRecord {
    fn of(r: &EpisodeResult) -> Self {
        Self {
            outcome: r.outcome,
            pred_start: r.pred_start,
            pred_end: r.pred_end,
            succ_submit: r.succ_submit,
            succ_start: r.succ_start,
            submitted_by_policy: r.submitted_by_policy,
        }
    }

    fn digest(&self, d: &mut Digest) {
        for v in [
            self.outcome.interruption,
            self.outcome.overlap,
            self.outcome.fault_interruption,
            self.pred_start,
            self.pred_end,
            self.succ_submit,
            self.succ_start,
            i64::from(self.submitted_by_policy),
        ] {
            d.push(v as u64);
        }
    }
}

/// Counts of the last slice run (either path).
#[derive(Debug, Clone, Copy, Default)]
struct SliceStats {
    decisions: u64,
    policy_submits: u64,
    queued_sum: u64,
    running_sum: u64,
}

pub struct Serve {
    heavy: bool,
    trace: SynthTrace,
    cfg: EpisodeConfig,
    starts: Vec<i64>,
    sim: Simulator,
    policy: HoldUntilDeadline<DqnPolicy>,
    stats: SliceStats,
    /// Snapshot at the last decision of the last slice: the queue the
    /// sim kernels are timed against.
    last_snapshot: ClusterSnapshot,
    nonfinite_q: u64,
}

impl Serve {
    pub fn setup(seed: u64, heavy: bool) -> Self {
        let (profile, rate, episodes) = if heavy {
            (ClusterProfile::rtx(), 1.3, HEAVY_EPISODES)
        } else {
            (ClusterProfile::a100(), 0.5, LIGHT_EPISODES)
        };
        let trace = synth_trace(profile, seed, 3, rate);
        let cfg = serving_episode();
        // Starts leave the full 12-day warm-up before them and the
        // pair's horizon after them.
        let starts = grid_starts(12 * DAY, 84 * DAY, episodes, 6 * HOUR, split_seed(seed, 1));
        let agent = DqnAgent::new(serving_net(split_seed(seed, 2)), DqnConfig::default());
        Self {
            heavy,
            sim: Simulator::new(SimConfig::new(trace.profile.nodes)),
            trace,
            cfg,
            starts,
            policy: HoldUntilDeadline::new(
                DqnPolicy {
                    agent,
                    label: "transformer+DQN".into(),
                },
                DECISION_INTERVAL,
            ),
            stats: SliceStats::default(),
            last_snapshot: ClusterSnapshot::default(),
            nonfinite_q: 0,
        }
    }

    fn begin_slice(&mut self) {
        self.policy.decisions = 0;
        self.policy.inner_submits = 0;
        self.policy.queued_sum = 0;
        self.policy.running_sum = 0;
        self.policy.trail = Digest::default().0;
    }

    fn end_slice(&mut self, records: &[EpisodeRecord]) -> SliceOut {
        self.stats = SliceStats {
            decisions: self.policy.decisions,
            policy_submits: records.iter().filter(|r| r.submitted_by_policy).count() as u64,
            queued_sum: self.policy.queued_sum,
            running_sum: self.policy.running_sum,
        };
        let mut d = Digest::default();
        for r in records {
            r.digest(&mut d);
        }
        d.push(self.policy.trail);
        d.push(self.stats.decisions);
        d.push(self.stats.queued_sum);
        d.push(self.stats.running_sum);
        SliceOut {
            work: self.stats.decisions,
            attempted: records.len() as u64,
            digest: d.0,
        }
    }

    /// One episode through public pieces only, mirroring
    /// `EpisodeDriver::{new, advance, apply, finish}` call for call. The
    /// slice digest (actions, outcomes, queue statistics) pins it to the
    /// product path.
    fn recomposed_episode(&mut self, t: &mut Tracer, t0: i64) -> EpisodeRecord {
        let cfg = self.cfg;
        let window = episode_window(&self.trace.jobs, t0, &cfg);
        let sim = &mut self.sim;
        let succ_spec = SuccessorSpec {
            nodes: cfg.pair_nodes,
            timelimit: cfg.pair_timelimit,
        };
        let pair_job = |name: &str, submit: i64| {
            JobRecord::new(
                0,
                name,
                cfg.pair_user,
                submit,
                cfg.pair_nodes,
                cfg.pair_timelimit,
                cfg.pair_runtime,
            )
        };

        t.enter(EPISODE_NEW);
        span!(t, SIM_RESET_WITH, sim.reset_with(window));
        let encoder = StateEncoder::new(sim.total_nodes(), cfg.pair_timelimit.max(48 * HOUR));
        let mut history = StateHistory::new(cfg.history_k);
        let mut snapshot = ClusterSnapshot::default();
        let mut enc_scratch = EncoderScratch::default();
        let record_start = t0 - cfg.history_k as i64 * cfg.decision_interval;
        span!(t, SIM_WARMUP_RUN_UNTIL, sim.run_until(record_start.min(t0)));
        let fresh_pred = PredecessorState {
            nodes: cfg.pair_nodes,
            timelimit: cfg.pair_timelimit,
            queue_time: 0,
            elapsed: 0,
        };
        let mut at = record_start;
        while at < t0 {
            if at > record_start {
                span!(t, SIM_RUN_UNTIL, sim.run_until(at));
            }
            span!(t, SIM_SAMPLE_INTO, sim.sample_into(&mut snapshot));
            let row = span!(
                t,
                STATE_ENCODE_INTO,
                encoder.encode_into(&snapshot, &fresh_pred, &succ_spec, &mut enc_scratch)
            );
            history.push(row);
            at += cfg.decision_interval;
        }
        span!(t, SIM_RUN_UNTIL, sim.run_until(t0));
        let pred_id = span!(t, SIM_SUBMIT, sim.submit(pair_job("mirage_pred", t0)));
        t.exit();

        let mut matrix = Matrix::zeros(0, 0);
        let mut now = t0;
        let mut submitted_by_policy = false;
        let (succ_id, succ_submit) = loop {
            t.enter(BENCH_OP);
            now += cfg.decision_interval;
            span!(t, SIM_RUN_UNTIL, sim.run_until(now));
            let status = span!(t, SIM_STATUS, sim.status(pred_id)).expect("predecessor exists");
            let (pred_state, pred_started, pred_remaining, pred_done) = match status {
                JobStatus::Pending | JobStatus::Future => (
                    PredecessorState {
                        queue_time: now - t0,
                        ..fresh_pred
                    },
                    false,
                    cfg.pair_timelimit,
                    false,
                ),
                JobStatus::Running { start } => (
                    PredecessorState {
                        queue_time: start - t0,
                        elapsed: now - start,
                        ..fresh_pred
                    },
                    true,
                    (start + cfg.pair_timelimit - now).max(0),
                    false,
                ),
                JobStatus::Completed { start, end } | JobStatus::Failed { start, end } => (
                    PredecessorState {
                        queue_time: start - t0,
                        elapsed: end - start,
                        ..fresh_pred
                    },
                    true,
                    0,
                    true,
                ),
                JobStatus::Rejected => unreachable!("pair jobs always fit"),
            };
            span!(t, SIM_SAMPLE_INTO, sim.sample_into(&mut snapshot));
            let row = span!(
                t,
                STATE_ENCODE_INTO,
                encoder.encode_into(&snapshot, &pred_state, &succ_spec, &mut enc_scratch)
            );
            history.push(row);
            if pred_done {
                // The reactive fallback: not a decision.
                let id = span!(t, SIM_SUBMIT, sim.submit(pair_job("mirage_succ", 0)));
                t.exit();
                break (id, sim.now());
            }
            span!(t, STATE_WRITE_MATRIX, history.write_matrix(&mut matrix));
            let recent_avg_wait = span!(t, SIM_AVG_RECENT_WAIT, sim.avg_recent_wait(24 * HOUR));
            let ctx = DecisionContext {
                now,
                state_matrix: &matrix,
                snapshot: &snapshot,
                pred_started,
                pred_remaining,
                recent_avg_wait,
                successor: succ_spec,
            };
            // `DqnPolicy::decide` is `greedy_pair(q_values(..))`; spelled
            // out so the forward pass gets its own span.
            t.enter(POLICY_DECIDE);
            let q = span!(t, NN_Q_VALUES, self.policy.inner.agent.q_pair(&matrix));
            self.nonfinite_q += u64::from(!(q[0].is_finite() && q[1].is_finite()));
            let wanted = Action::from_index(greedy_pair(q));
            self.policy.note(wanted, &ctx);
            let action = hold_rule(&ctx, cfg.decision_interval);
            t.exit();
            if action == Action::Submit {
                let id = span!(t, SIM_SUBMIT, sim.submit(pair_job("mirage_succ", 0)));
                submitted_by_policy = true;
                t.exit();
                break (id, sim.now());
            }
            t.exit();
        };
        self.last_snapshot = snapshot;

        t.enter(EPISODE_FINISH);
        let started = |s: Option<JobStatus>| match s {
            Some(
                JobStatus::Running { start }
                | JobStatus::Completed { start, .. }
                | JobStatus::Failed { start, .. },
            ) => Some(start),
            _ => None,
        };
        let (pred_start, pred_end, succ_start) = loop {
            let pred = span!(t, SIM_STATUS, sim.status(pred_id));
            let succ = span!(t, SIM_STATUS, sim.status(succ_id));
            if let (
                Some(JobStatus::Completed { start, end } | JobStatus::Failed { start, end }),
                Some(succ_start),
            ) = (pred, started(succ))
            {
                break (start, end, succ_start);
            }
            assert!(
                sim.is_active(),
                "simulation drained before the pair resolved"
            );
            span!(t, SIM_STEP, sim.step(HOUR));
        };
        let mut outcome = EpisodeOutcome::from_times(pred_end, succ_start);
        outcome.fault_interruption =
            sim.job_faults(pred_id).downtime + sim.job_faults(succ_id).downtime;
        t.exit();

        EpisodeRecord {
            outcome,
            pred_start,
            pred_end,
            succ_submit,
            succ_start,
            submitted_by_policy,
        }
    }
}

impl Workload for Serve {
    /// One part per episode, `EpisodeDriver::new` to `finish()`.
    fn slice(&mut self, parts: &mut Vec<Part>) -> SliceOut {
        self.begin_slice();
        let mut records = Vec::with_capacity(self.starts.len());
        for i in 0..self.starts.len() {
            let t0 = self.starts[i];
            let window = episode_window(&self.trace.jobs, t0, &self.cfg);
            let mut op_ns = Vec::with_capacity(512);
            let episode = Instant::now();
            let mut driver = EpisodeDriver::new(&mut self.sim, window, &self.cfg, t0);
            // Serving keeps no training trajectory.
            driver.set_record_decisions(false);
            loop {
                let began = Instant::now();
                let Some(ctx) = driver.advance() else { break };
                let action = self.policy.decide(&ctx);
                let done = driver.apply(action);
                op_ns.push(began.elapsed().as_nanos() as u64);
                if done {
                    break;
                }
            }
            let result = driver.finish().0;
            parts.push(Part {
                ns: episode.elapsed().as_nanos() as u64,
                op_ns,
            });
            records.push(EpisodeRecord::of(&result));
        }
        self.end_slice(&records)
    }

    fn traced_slice(&mut self, t: &mut Tracer) -> SliceOut {
        self.begin_slice();
        let mut records = Vec::with_capacity(self.starts.len());
        for i in 0..self.starts.len() {
            t.set_op(i as u32);
            let t0 = self.starts[i];
            records.push(self.recomposed_episode(t, t0));
        }
        self.end_slice(&records)
    }

    fn check(&mut self, failures: &mut Vec<String>) {
        let depth = self.stats.queued_sum as f64 / self.stats.decisions.max(1) as f64;
        if self.heavy && depth < 100.0 {
            failures.push(format!("serve_heavy mean queue depth {depth:.1} < 100"));
        }
        if !self.heavy && depth > 5.0 {
            failures.push(format!("serve_light mean queue depth {depth:.1} > 5"));
        }
        if self.stats.policy_submits != self.starts.len() as u64 {
            failures.push(format!(
                "{} of {} episodes ended by the reactive fallback, not the hold rule",
                self.starts.len() as u64 - self.stats.policy_submits,
                self.starts.len()
            ));
        }
        let probe = Matrix::zeros(HISTORY_K, STATE_VARS);
        let q = self.policy.inner.agent.q_pair(&probe);
        if !(q[0].is_finite() && q[1].is_finite()) || self.nonfinite_q > 0 {
            failures.push(format!(
                "non-finite Q ({} in decisions, probe {q:?})",
                self.nonfinite_q
            ));
        }
    }

    fn layer_metrics(&mut self, out: &mut Metrics) {
        let decisions = self.stats.decisions.max(1) as f64;
        out.insert("trace.generate.ms", self.trace.generate_ms);
        out.insert("trace.clean.ms", self.trace.clean_ms);
        out.insert(
            "sim.queue_depth.mean",
            self.stats.queued_sum as f64 / decisions,
        );
        out.insert(
            "sim.running_jobs.mean",
            self.stats.running_sum as f64 / decisions,
        );
        out.insert("core.episode.decisions.count", self.stats.decisions as f64);
        out.insert(
            "core.episode.policy_submits.count",
            self.stats.policy_submits as f64,
        );
        kernels::sim_kernels(&self.last_snapshot, &self.trace.profile, out);
        kernels::nn_kernels(&self.policy.inner.agent.net, out);
    }
}
