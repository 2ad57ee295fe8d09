//! The hand-off engine: N concurrent services, each a chain of
//! predecessor → successor sub-jobs, sharing one cluster — and, at N = 1,
//! the paper's single-service provisioning episode.
//!
//! [`MultiServiceEnv`] is **the hand-off state machine**, the only one in
//! the crate. It owns the backend, the shared snapshot and encoder
//! scratch, and per service the encoder, state history, pair-job ids and
//! recorded decisions; it replays the warm-up, submits the predecessors,
//! maps each predecessor's status to the encoded state every decision
//! tick, fires the reactive fallback and resolves the outcomes (hand-off
//! gap, fault downtime, stampede accounting). Every episode in the crate
//! runs on it: one at a time through [`crate::eval`]'s warm-once loop
//! (evaluation and offline collection), or several in lockstep under
//! [`BatchedEpisodeDriver`](crate::batch::BatchedEpisodeDriver), which
//! holds one engine per training lane.
//!
//! [`EpisodeDriver`](crate::episode::EpisodeDriver) and
//! [`BatchedEpisodeDriver`](crate::batch::BatchedEpisodeDriver) are N = 1
//! views over it, built from [`MultiServiceConfig::single`]: what reaches
//! the engine (fault and pool features, config validation) reaches one,
//! two or N services through the same code.
//!
//! Around the engine sits the multi-service scenario layer: [`ServiceSpec`]
//! (SLO → per-service reward weights, demand from a [`TrafficModel`]'s
//! requests/s → required-node curve) with the canonical
//! [`diurnal_scenario`] / [`bursty_scenario`] builders; a shared-cluster
//! reward (per-service Eq. 8 penalties minus a *stampede* penalty when
//! several services provision in the same tick and pile onto the queue);
//! and the classic baselines ([`UniformSharePolicy`],
//! [`GreedyPerServicePolicy`], [`ShortestQueuePolicy`]) beside the RL
//! agents in [`evaluate_multiservice`]. That harness runs on the one
//! evaluation loop in [`crate::eval`]: one `make_backends` call, start `i`
//! warmed once on backend `i`, and every method run on a restored
//! [`MultiServiceEnv`] (so the backend must be `Clone`).

use std::borrow::Borrow;

use mirage_nn::Matrix;
use mirage_rl::DqnAgent;
use mirage_sim::{ClusterBackend, ClusterSnapshot, JobStatus, ServiceUsage};
use mirage_trace::{JobRecord, TrafficModel, DAY, HOUR};
use serde::{Deserialize, Serialize};

use crate::episode::{Action, DecisionContext, EpisodeConfig, EpisodeConfigError, EpisodeResult};
use crate::eval::warm_once;
use crate::reward::{EpisodeOutcome, RewardShaper};
use crate::state::{
    EncoderScratch, PredecessorState, StateEncoder, StateHistory, SuccessorSpec, STATE_VARS,
};

/// A service's level objectives, in episode terms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceSlo {
    /// Target ceiling on the hand-off gap, seconds (tight for
    /// latency-critical services).
    pub latency_target: i64,
    /// Interruption budget per episode, seconds: the gap the service
    /// tolerates before the episode counts as an SLO miss.
    pub interruption_budget: i64,
}

impl ServiceSlo {
    /// A balanced SLO: both knobs at `target`.
    pub fn with_target(target: i64) -> Self {
        Self {
            latency_target: target.max(1),
            interruption_budget: target.max(1),
        }
    }

    /// Maps the SLO onto Eq. 8 weights: a service with a tight latency
    /// target weighs interruption hours more heavily (scaled against the
    /// 4-hour reference target, clamped to [1, 8]× the default), while
    /// the overlap weight stays at the default — overlap wastes nodes
    /// equally for everyone.
    pub fn weights(&self) -> RewardShaper {
        let base = RewardShaper::default();
        let scale = (4.0 * HOUR as f32 / self.latency_target.max(1) as f32).clamp(0.5, 4.0);
        RewardShaper {
            e_interrupt: base.e_interrupt * scale,
            e_overlap: base.e_overlap,
        }
    }
}

impl Default for ServiceSlo {
    fn default() -> Self {
        Self::with_target(4 * HOUR)
    }
}

/// One service in a multi-service scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceSpec {
    /// Display name (`"svc0"`, `"search"`, …).
    pub name: String,
    /// User id tagging this service's pair jobs in the shared queue
    /// (distinct per service, distinct from background users) — the key
    /// the per-service [`ServiceUsage`] ledger is read under.
    pub user: u32,
    /// Wall-clock limit of the service's sub-jobs.
    pub timelimit: i64,
    /// Actual runtime of the sub-jobs (services run to the limit).
    pub runtime: i64,
    /// The service's objectives (reporting: SLO hit/miss per episode).
    pub slo: ServiceSlo,
    /// Eq. 8 weights used for this service's reward (scenario builders
    /// derive them from the SLO via [`ServiceSlo::weights`]).
    pub shaper: RewardShaper,
    /// Demand model: requests/s over time → required nodes.
    pub traffic: TrafficModel,
}

impl ServiceSpec {
    /// Nodes the service must provision at `t` (its traffic model's
    /// requests/s → required-node curve).
    pub fn nodes_at(&self, t: i64) -> u32 {
        self.traffic.required_nodes(t)
    }
}

/// N services plus the shared episode parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiServiceConfig {
    /// The concurrent services, in decision order.
    pub services: Vec<ServiceSpec>,
    /// Seconds between decisions (shared cadence — one lockstep tick
    /// decides every service).
    pub decision_interval: i64,
    /// History rows per service state matrix (`k`).
    pub history_k: usize,
    /// Background-trace replay before the episode start.
    pub warmup: i64,
    /// Stampede penalty: charged per *peer* service submitting its
    /// successor in the same decision tick (0 disables the coupling).
    pub stampede_coef: f32,
    /// Expose the backend's fault surface to every service's encoder
    /// (see [`EpisodeConfig::fault_features`]). Off by default, with the
    /// flag-off encodings byte-identical to the pre-fault encoder.
    #[serde(default)]
    pub fault_features: bool,
    /// Expose the backend's heterogeneity surface to every service's
    /// encoder (see [`EpisodeConfig::hetero_features`]). Off by default,
    /// with the same bit-identity guarantee.
    #[serde(default)]
    pub hetero_features: bool,
}

impl MultiServiceConfig {
    /// The degenerate one-service configuration equivalent to a
    /// single-service [`EpisodeConfig`] + [`RewardShaper`]: constant
    /// traffic pinned to `pair_nodes`, the pair's user id, the episode's
    /// encoder flags, and no stampede coupling. This is the config the
    /// N = 1 views ([`EpisodeDriver`](crate::episode::EpisodeDriver),
    /// [`BatchedEpisodeDriver`](crate::batch::BatchedEpisodeDriver))
    /// hand the engine.
    pub fn single(cfg: &EpisodeConfig, shaper: RewardShaper) -> Self {
        Self {
            services: vec![ServiceSpec {
                name: "service".into(),
                user: cfg.pair_user,
                timelimit: cfg.pair_timelimit,
                runtime: cfg.pair_runtime,
                slo: ServiceSlo::default(),
                shaper,
                traffic: TrafficModel::constant(cfg.pair_nodes),
            }],
            decision_interval: cfg.decision_interval,
            history_k: cfg.history_k,
            warmup: cfg.warmup,
            stampede_coef: 0.0,
            fault_features: cfg.fault_features,
            hetero_features: cfg.hetero_features,
        }
    }

    /// Service count.
    pub fn n_services(&self) -> usize {
        self.services.len()
    }

    /// Checks that an episode under this config can run on a partition
    /// of `total_nodes`: a positive decision cadence (the decision clock
    /// must advance), at least one service, and per service positive
    /// `timelimit` / `runtime`, a user id no other service shares (the
    /// per-user [`ServiceUsage`] ledgers would merge) and a baseline
    /// demand ([`TrafficModel::base_nodes`]) that fits the partition (a
    /// wider pair job can never start; traffic peaks above it are
    /// submitted clamped to the partition).
    pub fn validate(&self, total_nodes: u32) -> Result<(), EpisodeConfigError> {
        let reject = |field: String, value: &dyn std::fmt::Display, reason| {
            let value = value.to_string();
            Err(EpisodeConfigError {
                field,
                value,
                reason,
            })
        };
        if self.decision_interval <= 0 {
            let field = "decision_interval".to_string();
            return reject(field, &self.decision_interval, "must be positive");
        }
        if self.services.is_empty() {
            return reject("services".to_string(), &"[]", "need at least one");
        }
        for (i, svc) in self.services.iter().enumerate() {
            let field = |name: &str| format!("services[{i}].{name}");
            if svc.timelimit <= 0 {
                return reject(field("timelimit"), &svc.timelimit, "must be positive");
            }
            if svc.runtime <= 0 {
                return reject(field("runtime"), &svc.runtime, "must be positive");
            }
            if self.services[..i].iter().any(|o| o.user == svc.user) {
                let reason = "shared with an earlier service";
                return reject(field("user"), &svc.user, reason);
            }
            let nodes = svc.traffic.base_nodes();
            if nodes > total_nodes {
                let reason = "baseline demand is wider than the partition";
                return reject(field("traffic"), &format_args!("{nodes} nodes"), reason);
            }
        }
        Ok(())
    }
}

/// First user id the scenario builders assign to services (clear of the
/// single-service `pair_user` default and every background user).
pub const SERVICE_USER_BASE: u32 = 2_000_000;

/// Canonical diurnal scenario: `services` day-night services with
/// staggered peak hours, heterogeneous latency targets and smooth
/// (burst-free) demand, sized so their combined peak wants roughly half
/// of `cluster_nodes`.
pub fn diurnal_scenario(services: usize, cluster_nodes: u32, seed: u64) -> MultiServiceConfig {
    scenario(services, cluster_nodes, seed, false)
}

/// Canonical bursty scenario: the diurnal base with a mean-one Gamma
/// burst overlay per service (independent seed-split streams), so demand
/// spikes hit services at uncorrelated instants.
pub fn bursty_scenario(services: usize, cluster_nodes: u32, seed: u64) -> MultiServiceConfig {
    scenario(services, cluster_nodes, seed, true)
}

fn scenario(services: usize, cluster_nodes: u32, seed: u64, bursty: bool) -> MultiServiceConfig {
    use mirage_trace::{split_seed, GammaBurst};
    let services = services.max(1);
    let targets = [30 * 60, HOUR, 2 * HOUR, 4 * HOUR];
    // Combined mean demand ≈ cluster_nodes / 2, split evenly.
    let mean_nodes = (f64::from(cluster_nodes) * 0.5 / services as f64).max(1.0);
    let specs = (0..services)
        .map(|i| {
            let slo = ServiceSlo::with_target(targets[i % targets.len()]);
            let mut traffic =
                TrafficModel::diurnal(mean_nodes * 20.0, 20.0, 0.35, (8 + 4 * (i % 4)) as f64);
            if bursty {
                traffic = traffic.with_burst(
                    GammaBurst::mean_one(1.5, 2 * HOUR),
                    split_seed(seed, i as u64),
                );
            }
            ServiceSpec {
                name: format!("svc{i}"),
                user: SERVICE_USER_BASE + i as u32,
                timelimit: 24 * HOUR,
                runtime: 24 * HOUR,
                slo,
                shaper: slo.weights(),
                traffic,
            }
        })
        .collect();
    MultiServiceConfig {
        services: specs,
        decision_interval: HOUR,
        history_k: 12,
        warmup: 12 * DAY,
        stampede_coef: 0.5,
        fault_features: false,
        hetero_features: false,
    }
}

/// Everything a heuristic needs to decide one pending service of an
/// episode — the multi-service analogue of
/// [`crate::episode::DecisionContext`], as owned scalars so a policy can
/// look at every pending service of a tick at once.
#[derive(Debug, Clone, Copy)]
pub struct SlotContext {
    /// Service index within the episode.
    pub service: usize,
    /// Services sharing the episode's cluster.
    pub n_services: usize,
    /// Simulated time of the decision.
    pub now: i64,
    /// Whether this service's predecessor has started running.
    pub pred_started: bool,
    /// Estimated seconds until the predecessor ends (limit-based).
    pub pred_remaining: i64,
    /// Mean queue wait of jobs started in the last 24 h, seconds.
    pub recent_avg_wait: Option<f64>,
    /// The successor the service would submit now (nodes follow the
    /// traffic curve).
    pub successor: SuccessorSpec,
    /// Partition size of the shared cluster.
    pub total_nodes: u32,
    /// Idle nodes at the decision instant.
    pub free_nodes: u32,
    /// Nodes requested by the queued jobs at the decision instant.
    pub queued_nodes: u64,
    /// Peer services of this episode that already provisioned their
    /// successor.
    pub peers_provisioned: usize,
}

/// A policy deciding every pending service of one decision tick: `batch`
/// row-stacks `slots.len()` state matrices (`slots.len() · k` rows), and
/// the implementation pushes exactly one [`Action`] per slot, in order.
/// RL policies answer with one batched forward; heuristics read the
/// per-slot contexts.
pub trait MultiServicePolicy: Send {
    /// Display name used in reports.
    fn name(&self) -> String;
    /// Called before each episode the evaluation harness runs.
    fn reset(&mut self) {}
    /// Decides all slots of one tick.
    fn decide(&mut self, batch: &Matrix, slots: &[SlotContext], actions: &mut Vec<Action>);
}

/// Greedy RL agent over the slot batch: one `q_values_batch` forward per
/// tick for all pending services (the serving path).
pub struct RlServicePolicy {
    /// The trained agent.
    pub agent: DqnAgent,
    /// Display label.
    pub label: String,
    indices: Vec<usize>,
}

impl RlServicePolicy {
    /// Wraps a (trained) agent.
    pub fn new(agent: DqnAgent, label: impl Into<String>) -> Self {
        Self {
            agent,
            label: label.into(),
            indices: Vec::new(),
        }
    }
}

impl MultiServicePolicy for RlServicePolicy {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn decide(&mut self, batch: &Matrix, slots: &[SlotContext], actions: &mut Vec<Action>) {
        self.agent
            .act_greedy_batch(batch, slots.len(), &mut self.indices);
        actions.extend(self.indices.iter().map(|&i| Action::from_index(i)));
    }
}

/// Uniform-share baseline: every service provisions as if it owned
/// `1/N` of the cluster. The lead time scales the observed average wait
/// by how much of the service's fair share the successor needs — a
/// service asking for more than its share provisions earlier, one well
/// under it provisions later.
#[derive(Debug, Clone, Default)]
pub struct UniformSharePolicy;

impl MultiServicePolicy for UniformSharePolicy {
    fn name(&self) -> String {
        "uniform-share".into()
    }

    fn decide(&mut self, _batch: &Matrix, slots: &[SlotContext], actions: &mut Vec<Action>) {
        for s in slots {
            if !s.pred_started {
                actions.push(Action::Wait);
                continue;
            }
            let share = (f64::from(s.total_nodes) / s.n_services as f64).max(1.0);
            let pressure = f64::from(s.successor.nodes) / share;
            let lead = s.recent_avg_wait.unwrap_or(0.0) * pressure;
            actions.push(if (s.pred_remaining as f64) <= lead {
                Action::Submit
            } else {
                Action::Wait
            });
        }
    }
}

/// Greedy-per-service baseline: every service independently runs the
/// single-service `avg` heuristic (submit `T_avg` before its own
/// predecessor ends), ignoring the other services entirely — the
/// stampede-prone common practice this subsystem's shared reward is
/// built to expose.
#[derive(Debug, Clone)]
pub struct GreedyPerServicePolicy {
    /// Safety multiplier on `T_avg` (1.0 = the paper's heuristic).
    pub multiplier: f64,
}

impl Default for GreedyPerServicePolicy {
    fn default() -> Self {
        Self { multiplier: 1.0 }
    }
}

impl MultiServicePolicy for GreedyPerServicePolicy {
    fn name(&self) -> String {
        "greedy-per-service".into()
    }

    fn decide(&mut self, _batch: &Matrix, slots: &[SlotContext], actions: &mut Vec<Action>) {
        for s in slots {
            let t_avg = s.recent_avg_wait.unwrap_or(0.0) * self.multiplier;
            actions.push(if s.pred_started && (s.pred_remaining as f64) <= t_avg {
                Action::Submit
            } else {
                Action::Wait
            });
        }
    }
}

/// Shortest-queue baseline: within a lead window before the predecessor
/// ends, grab capacity during queue *dips* (submit while the queued
/// demand fits the idle nodes — the successor would start almost
/// immediately); if no dip shows up, fall back to the greedy `T_avg`
/// threshold so the service still provisions before the hand-off.
#[derive(Debug, Clone)]
pub struct ShortestQueuePolicy {
    /// Lead window as a multiple of the observed average wait.
    pub window_mult: f64,
}

impl Default for ShortestQueuePolicy {
    fn default() -> Self {
        Self { window_mult: 3.0 }
    }
}

impl MultiServicePolicy for ShortestQueuePolicy {
    fn name(&self) -> String {
        "shortest-queue".into()
    }

    fn decide(&mut self, _batch: &Matrix, slots: &[SlotContext], actions: &mut Vec<Action>) {
        for s in slots {
            if !s.pred_started {
                actions.push(Action::Wait);
                continue;
            }
            let t_avg = s.recent_avg_wait.unwrap_or(0.0);
            let window = (t_avg * self.window_mult).max(HOUR as f64);
            let remaining = s.pred_remaining as f64;
            let dip = s.queued_nodes <= u64::from(s.free_nodes);
            actions.push(if (remaining <= window && dip) || remaining <= t_avg {
                Action::Submit
            } else {
                Action::Wait
            });
        }
    }
}

/// Record of one service's episode inside a multi-service run.
#[derive(Debug, Clone)]
pub struct ServiceEpisode {
    /// Service name.
    pub name: String,
    /// Service user id.
    pub user: u32,
    /// Interruption/overlap outcome of the hand-off.
    pub outcome: EpisodeOutcome,
    /// When the predecessor was submitted / started / ended.
    pub pred_submit: i64,
    /// Predecessor dispatch instant.
    pub pred_start: i64,
    /// Predecessor completion instant.
    pub pred_end: i64,
    /// When the successor was submitted / started.
    pub succ_submit: i64,
    /// Successor dispatch instant.
    pub succ_start: i64,
    /// Whether the policy submitted (vs the reactive fallback).
    pub submitted_by_policy: bool,
    /// Peer services whose successor landed in the same decision tick.
    pub co_submitters: usize,
    /// Whether the episode met the service's interruption budget.
    pub slo_met: bool,
    /// The shared-cluster reward: the service's own Eq. 8 penalty minus
    /// the stampede penalty for co-submitting peers.
    pub reward: f32,
    /// `(state matrix, action)` at every decision the policy made.
    pub decisions: Vec<(Matrix, usize)>,
    /// The service's ledger on the shared cluster at episode end.
    pub usage: ServiceUsage,
}

/// Result of one multi-service episode.
#[derive(Debug, Clone)]
pub struct MultiServiceResult {
    /// Per-service records, in service order.
    pub services: Vec<ServiceEpisode>,
    /// Decision ticks in which two or more services submitted.
    pub stampede_ticks: usize,
}

/// Per-service hand-off state inside a [`MultiServiceEnv`].
struct ServiceState {
    encoder: StateEncoder,
    history: StateHistory,
    succ_spec: SuccessorSpec,
    /// The predecessor's actual size, pinned at submission (the
    /// successor's size keeps following the traffic curve; the
    /// predecessor's cannot change once queued).
    pred_nodes: u32,
    pred_id: u64,
    succ_id: Option<u64>,
    succ_submit: i64,
    submitted_by_policy: bool,
    submit_tick: u64,
    matrix: Matrix,
    decisions: Vec<(Matrix, usize)>,
    last_pred_started: bool,
    last_pred_remaining: i64,
}

impl Clone for ServiceState {
    fn clone(&self) -> Self {
        Self {
            history: self.history.clone(),
            matrix: self.matrix.clone(),
            decisions: self.decisions.clone(),
            ..*self
        }
    }

    /// In place, reusing the history, matrix and decision buffers.
    fn clone_from(&mut self, source: &Self) {
        let Self {
            encoder,
            history,
            succ_spec,
            pred_nodes,
            pred_id,
            succ_id,
            succ_submit,
            submitted_by_policy,
            submit_tick,
            matrix,
            decisions,
            last_pred_started,
            last_pred_remaining,
        } = self;
        *encoder = source.encoder;
        history.clone_from(&source.history);
        *succ_spec = source.succ_spec;
        *pred_nodes = source.pred_nodes;
        *pred_id = source.pred_id;
        *succ_id = source.succ_id;
        *succ_submit = source.succ_submit;
        *submitted_by_policy = source.submitted_by_policy;
        *submit_tick = source.submit_tick;
        matrix.clone_from(&source.matrix);
        decisions.clone_from(&source.decisions);
        *last_pred_started = source.last_pred_started;
        *last_pred_remaining = source.last_pred_remaining;
    }
}

/// A service's pair job (`name` tells predecessor from successor in the
/// queue; `submit` is overridden by the backend for live submissions).
fn pair_job(svc: &ServiceSpec, name: &str, submit: i64, nodes: u32) -> JobRecord {
    JobRecord::new(0, name, svc.user, submit, nodes, svc.timelimit, svc.runtime)
}

/// Row-stacks pending `k × m` state matrices into `batch` (`k` rows
/// each, in iteration order), reusing its allocation.
pub(crate) fn stack_states<'m>(
    batch: &mut Matrix,
    k: usize,
    states: impl ExactSizeIterator<Item = &'m Matrix>,
) {
    batch.reset(states.len() * k, STATE_VARS);
    for (slot, m) in states.enumerate() {
        debug_assert_eq!(m.shape(), (k, STATE_VARS));
        for r in 0..k {
            batch.row_mut(slot * k + r).copy_from_slice(m.row(r));
        }
    }
}

/// One episode as an explicit state machine: N services sharing one
/// backend, stepped per decision tick — [`new`](Self::new),
/// then [`advance_tick`](Self::advance_tick) / [`apply`](Self::apply)
/// until no service [`is_deciding`](Self::is_deciding), then
/// [`finish`](Self::finish). One snapshot is shared per tick (the
/// cluster state is the same for every service at a given instant); the
/// snapshot, state matrices and encoder scratch are written in place, so
/// the steady-state loop allocates nothing.
pub struct MultiServiceEnv<B: ClusterBackend> {
    backend: B,
    cfg: MultiServiceConfig,
    t0: i64,
    services: Vec<ServiceState>,
    now: i64,
    tick: u64,
    snapshot: ClusterSnapshot,
    enc_scratch: EncoderScratch,
    pending: Vec<usize>,
    last_avg_wait: Option<f64>,
    record: bool,
    /// Successor submissions per decision tick (stampede accounting).
    submits_by_tick: Vec<u32>,
}

impl<B: ClusterBackend> MultiServiceEnv<B> {
    /// Resets `backend`, replays `trace` up to `t0` (recording each
    /// service's history window at the decision cadence) and submits
    /// every service's predecessor at `t0`, in service order.
    ///
    /// # Panics
    /// If `cfg` fails [`MultiServiceConfig::validate`] for the backend's
    /// partition; [`try_new`](Self::try_new) returns the error instead.
    pub fn new(backend: B, trace: &[JobRecord], cfg: &MultiServiceConfig, t0: i64) -> Self {
        Self::try_new(backend, trace, cfg, t0)
            .unwrap_or_else(|e| panic!("MultiServiceEnv::new: {e}"))
    }

    /// [`new`](Self::new) returning a typed error for a config that
    /// cannot run on `backend`'s partition, before the backend is touched.
    pub fn try_new(
        mut backend: B,
        trace: &[JobRecord],
        cfg: &MultiServiceConfig,
        t0: i64,
    ) -> Result<Self, EpisodeConfigError> {
        let total_nodes = backend.total_nodes();
        cfg.validate(total_nodes)?;
        backend.reset_with(trace);
        let k = cfg.history_k.max(1);

        let mut services: Vec<ServiceState> = cfg
            .services
            .iter()
            .map(|svc| {
                let mut encoder = StateEncoder::new(total_nodes, svc.timelimit.max(48 * HOUR));
                encoder.fault_features = cfg.fault_features;
                encoder.hetero_features = cfg.hetero_features;
                ServiceState {
                    encoder,
                    history: StateHistory::new(k),
                    succ_spec: SuccessorSpec {
                        nodes: svc.nodes_at(t0),
                        timelimit: svc.timelimit,
                    },
                    // A traffic peak may want more than the partition
                    // (`validate` checks only the baseline); a wider job
                    // would be rejected and never run.
                    pred_nodes: svc.nodes_at(t0).min(total_nodes),
                    pred_id: 0,
                    succ_id: None,
                    succ_submit: 0,
                    submitted_by_policy: false,
                    submit_tick: 0,
                    matrix: Matrix::zeros(0, 0),
                    decisions: Vec::new(),
                    last_pred_started: false,
                    last_pred_remaining: 0,
                }
            })
            .collect();

        // Replay up to the start of the recorded history window, then
        // record state vectors at the decision cadence while approaching
        // t0: one shared snapshot per recorded tick, one encoded row per
        // service. The snapshot and encoder buffers allocated here are
        // the ones the decision loop keeps reusing.
        let mut snapshot = ClusterSnapshot::default();
        let mut enc_scratch = EncoderScratch::default();
        let record_start = t0 - (k as i64) * cfg.decision_interval;
        backend.run_until(record_start.min(t0));
        let mut t = record_start;
        while t < t0 {
            if t > record_start {
                backend.run_until(t);
            }
            backend.sample_into(&mut snapshot);
            for (svc, st) in cfg.services.iter().zip(&mut services) {
                let pred = PredecessorState {
                    nodes: st.pred_nodes,
                    timelimit: svc.timelimit,
                    queue_time: 0,
                    elapsed: 0,
                };
                st.history.push(st.encoder.encode_into(
                    &snapshot,
                    &pred,
                    &st.succ_spec,
                    &mut enc_scratch,
                ));
            }
            t += cfg.decision_interval;
        }
        backend.run_until(t0);

        // Submit every predecessor at t0, in service order (they queue
        // behind each other exactly as N users hitting submit together).
        for (svc, st) in cfg.services.iter().zip(&mut services) {
            st.pred_id = backend.submit(pair_job(svc, "mirage_pred", t0, st.pred_nodes));
        }

        Ok(Self {
            backend,
            cfg: cfg.clone(),
            t0,
            services,
            now: t0,
            tick: 0,
            snapshot,
            enc_scratch,
            pending: Vec::new(),
            last_avg_wait: None,
            record: true,
            submits_by_tick: Vec::new(),
        })
    }

    /// Service count.
    pub fn n_services(&self) -> usize {
        self.services.len()
    }

    /// Whether any service still awaits decisions.
    pub fn is_deciding(&self) -> bool {
        self.services.iter().any(|s| s.succ_id.is_none())
    }

    /// Controls whether `apply()` records `(state matrix, action)` pairs
    /// per service. Recording clones the `k × m` matrix per decision;
    /// pure serving/benchmark loops turn it off to keep the steady state
    /// allocation-free.
    pub fn set_record_decisions(&mut self, record: bool) {
        self.record = record;
    }

    /// Submits service `i`'s successor at the current instant, sized for
    /// current demand clamped to the partition (the encoded demand stays
    /// unclamped).
    fn submit_successor(&mut self, i: usize, by_policy: bool) {
        let nodes = self.services[i]
            .succ_spec
            .nodes
            .min(self.backend.total_nodes());
        let job = pair_job(&self.cfg.services[i], "mirage_succ", 0, nodes);
        let id = self.backend.submit(job);
        let st = &mut self.services[i];
        st.succ_id = Some(id);
        st.succ_submit = self.backend.now();
        st.submitted_by_policy = by_policy;
        st.submit_tick = self.tick;
        let tick = self.tick as usize;
        if self.submits_by_tick.len() <= tick {
            self.submits_by_tick.resize(tick + 1, 0);
        }
        self.submits_by_tick[tick] += 1;
    }

    /// Advances one decision interval: runs the shared backend to the
    /// next tick, samples it once, updates every still-deciding
    /// service's history (successor sizes following the traffic curve)
    /// and fires reactive fallbacks. Returns the pending width — how
    /// many services await an action this tick (0 with
    /// [`is_deciding`](Self::is_deciding) false means the episode's
    /// decision loop is over).
    pub fn advance_tick(&mut self) -> usize {
        self.pending.clear();
        if !self.is_deciding() {
            // Calling past the end must not submit a second successor.
            return 0;
        }
        self.now += self.cfg.decision_interval;
        self.backend.run_until(self.now);
        self.tick += 1;
        let now = self.now;
        self.backend.sample_into(&mut self.snapshot);

        for i in 0..self.services.len() {
            if self.services[i].succ_id.is_some() {
                continue;
            }
            let svc = &self.cfg.services[i];
            let st = &mut self.services[i];
            let pred_status = self.backend.status(st.pred_id).expect("predecessor exists");
            // Demand follows the traffic curve: the successor the service
            // would submit *now* is sized for current load.
            st.succ_spec.nodes = svc.nodes_at(now);
            // `remaining` is limit-based: the user knows only the limit,
            // not the true runtime.
            let (queue_time, elapsed, started, remaining, done) = match pred_status {
                JobStatus::Pending | JobStatus::Future => {
                    (now - self.t0, 0, false, svc.timelimit, false)
                }
                JobStatus::Running { start } => (
                    start - self.t0,
                    now - start,
                    true,
                    (start + svc.timelimit - now).max(0),
                    false,
                ),
                // A terminally failed predecessor (fault injection,
                // retries exhausted) ends the instance like a completion:
                // the operator restarts via the successor.
                JobStatus::Completed { start, end } | JobStatus::Failed { start, end } => {
                    (start - self.t0, end - start, true, 0, true)
                }
                JobStatus::Rejected => {
                    panic!("{}: predecessor wider than the partition", svc.name)
                }
            };
            let pred_state = PredecessorState {
                nodes: st.pred_nodes,
                timelimit: svc.timelimit,
                queue_time,
                elapsed,
            };
            st.history.push(st.encoder.encode_into(
                &self.snapshot,
                &pred_state,
                &st.succ_spec,
                &mut self.enc_scratch,
            ));

            if done {
                // Reactive fallback: a real operator submits the
                // successor the moment the predecessor is done, no matter
                // what the policy thinks.
                self.submit_successor(i, false);
                continue;
            }
            st.history.write_matrix(&mut st.matrix);
            st.last_pred_started = started;
            st.last_pred_remaining = remaining;
            self.pending.push(i);
        }

        if !self.pending.is_empty() {
            self.last_avg_wait = self.backend.avg_recent_wait(24 * HOUR);
        }
        self.pending.len()
    }

    /// Row-stacks the pending services' state matrices into `batch`
    /// (`pending · k` rows), in [`pending`](Self::pending) order.
    pub fn stack_pending(&self, batch: &mut Matrix) {
        let states = self.pending.iter().map(|&i| &self.services[i].matrix);
        stack_states(batch, self.cfg.history_k.max(1), states);
    }

    /// Service indices awaiting an action this tick, in row order.
    pub fn pending(&self) -> &[usize] {
        &self.pending
    }

    /// The [`SlotContext`] of pending batch row `row`.
    pub fn slot_context(&self, row: usize) -> SlotContext {
        let i = self.pending[row];
        let st = &self.services[i];
        SlotContext {
            service: i,
            n_services: self.services.len(),
            now: self.now,
            pred_started: st.last_pred_started,
            pred_remaining: st.last_pred_remaining,
            recent_avg_wait: self.last_avg_wait,
            successor: st.succ_spec,
            total_nodes: self.snapshot.total_nodes,
            free_nodes: self.snapshot.free_nodes,
            queued_nodes: u64::from(self.snapshot.queued_nodes()),
            peers_provisioned: self.services.iter().filter(|s| s.succ_id.is_some()).count(),
        }
    }

    /// The [`DecisionContext`] of pending batch row `row`, borrowing the
    /// service's state matrix and the shared snapshot in place — valid
    /// between the last [`advance_tick`](Self::advance_tick) and the
    /// matching [`apply`](Self::apply).
    pub fn decision_context(&self, row: usize) -> DecisionContext<'_> {
        let st = &self.services[self.pending[row]];
        DecisionContext {
            now: self.now,
            state_matrix: &st.matrix,
            snapshot: &self.snapshot,
            pred_started: st.last_pred_started,
            pred_remaining: st.last_pred_remaining,
            recent_avg_wait: self.last_avg_wait,
            successor: st.succ_spec,
        }
    }

    /// Applies one action per pending service (batch row order).
    pub fn apply(&mut self, actions: &[Action]) {
        assert_eq!(
            actions.len(),
            self.pending.len(),
            "one action per pending service"
        );
        for (row, &action) in actions.iter().enumerate() {
            let i = self.pending[row];
            if self.record {
                let m = self.services[i].matrix.clone();
                self.services[i].decisions.push((m, action.index()));
            }
            if action == Action::Submit {
                self.submit_successor(i, true);
            }
        }
        self.pending.clear();
    }

    /// Drives the decision loop to completion: every tick with pending
    /// services, `decide` pushes exactly one action per pending row, in
    /// row order.
    fn drive(&mut self, mut decide: impl FnMut(&Self, &mut Vec<Action>)) {
        let mut actions = Vec::new();
        while self.is_deciding() {
            let width = self.advance_tick();
            if width == 0 {
                continue;
            }
            actions.clear();
            decide(self, &mut actions);
            assert_eq!(actions.len(), width, "policy must answer every slot");
            self.apply(&actions);
        }
    }

    /// Drives the decision loop to completion with `policy`, one
    /// [`MultiServicePolicy::decide`] per tick over every pending
    /// service. Returns the decisions answered.
    pub fn run<P: MultiServicePolicy + ?Sized>(&mut self, policy: &mut P) -> u64 {
        let mut batch = Matrix::zeros(0, 0);
        let mut slots = Vec::with_capacity(self.n_services());
        let mut decisions = 0;
        self.drive(|env, actions| {
            env.stack_pending(&mut batch);
            slots.clear();
            slots.extend((0..env.pending.len()).map(|row| env.slot_context(row)));
            policy.decide(&batch, &slots, actions);
            decisions += slots.len() as u64;
        });
        decisions
    }

    /// The N = 1 decision loop: `decide` answers service 0's
    /// [`decision_context`](Self::decision_context) every tick, then the
    /// episode resolves, leaving the engine resolved (to be dropped or
    /// restored). What `run_episode`, the single-service evaluation
    /// harnesses and offline collection run.
    pub(crate) fn play_single(
        &mut self,
        mut decide: impl FnMut(&DecisionContext) -> Action,
    ) -> EpisodeResult {
        self.drive(|env, actions| actions.push(decide(&env.decision_context(0))));
        self.resolve().services.remove(0).into()
    }

    /// `(pred_start, pred_end, succ_start)` of a service whose
    /// predecessor ended and whose successor started; `None` until then.
    fn resolved(&self, st: &ServiceState) -> Option<(i64, i64, i64)> {
        let (pred_start, pred_end) = match self.backend.status(st.pred_id)? {
            JobStatus::Completed { start, end } | JobStatus::Failed { start, end } => (start, end),
            _ => return None,
        };
        match self.backend.status(st.succ_id?)? {
            JobStatus::Running { start }
            | JobStatus::Completed { start, .. }
            | JobStatus::Failed { start, .. } => Some((pred_start, pred_end, start)),
            _ => None,
        }
    }

    /// Runs the backend until every pair resolves and returns the
    /// episode record plus the backend (reusable for the next episode
    /// after a reset).
    pub fn finish(mut self) -> (MultiServiceResult, B) {
        let result = self.resolve();
        (result, self.backend)
    }

    /// [`finish`](Self::finish) in place: the engine is left resolved,
    /// to be dropped or restored from a warm one.
    fn resolve(&mut self) -> MultiServiceResult {
        assert!(
            !self.is_deciding(),
            "finish() before the decision loop ended"
        );
        while self.services.iter().any(|st| self.resolved(st).is_none()) {
            assert!(
                self.backend.is_active(),
                "simulation drained before every pair resolved"
            );
            self.backend.step(HOUR);
        }

        let mut services = Vec::with_capacity(self.services.len());
        for i in 0..self.services.len() {
            let decisions = std::mem::take(&mut self.services[i].decisions);
            let (svc, st) = (&self.cfg.services[i], &self.services[i]);
            let (pred_start, pred_end, succ_start) = self.resolved(st).expect("pair resolved");
            let succ_id = st.succ_id.expect("successor submitted");
            let mut outcome = EpisodeOutcome::from_times(pred_end, succ_start);
            // Eviction → restart gaps the pair suffered under fault
            // injection are interruption the service's users saw, charged
            // by the reward identically to the submit-too-late kind.
            outcome.fault_interruption = self.backend.job_faults(st.pred_id).downtime
                + self.backend.job_faults(succ_id).downtime;
            let co_submitters = (self.submits_by_tick[st.submit_tick as usize] - 1) as usize;
            let reward =
                svc.shaper.reward(&outcome) - self.cfg.stampede_coef * co_submitters as f32;
            services.push(ServiceEpisode {
                name: svc.name.clone(),
                user: svc.user,
                outcome,
                pred_submit: self.t0,
                pred_start,
                pred_end,
                succ_submit: st.succ_submit,
                succ_start,
                submitted_by_policy: st.submitted_by_policy,
                co_submitters,
                slo_met: outcome.interruption <= svc.slo.interruption_budget,
                reward,
                decisions,
                usage: self.backend.user_usage(svc.user),
            });
        }

        let stampede_ticks = self.submits_by_tick.iter().filter(|&&c| c >= 2).count();
        MultiServiceResult {
            services,
            stampede_ticks,
        }
    }

    /// Abandons the episode, handing the backend back untouched-from-here
    /// (the next episode resets it anyway).
    pub fn into_backend(self) -> B {
        self.backend
    }

    /// The backend the engine runs on.
    pub(crate) fn backend(&self) -> &B {
        &self.backend
    }

    /// A fork: an engine in exactly this one's state that owns a clone of
    /// its backend — of `B` itself, or of what `B` borrows when the
    /// engine runs on an `&mut` backend.
    pub(crate) fn fork<C>(&self) -> MultiServiceEnv<C>
    where
        B: Borrow<C>,
        C: ClusterBackend + Clone,
    {
        MultiServiceEnv {
            backend: self.backend.borrow().clone(),
            cfg: self.cfg.clone(),
            t0: self.t0,
            services: self.services.clone(),
            now: self.now,
            tick: self.tick,
            snapshot: self.snapshot.clone(),
            enc_scratch: EncoderScratch::default(),
            pending: self.pending.clone(),
            last_avg_wait: self.last_avg_wait,
            record: self.record,
            submits_by_tick: self.submits_by_tick.clone(),
        }
    }

    /// Restores `source`'s state in place — this engine becomes the fork
    /// [`fork`](Self::fork) would make of `source` — reusing every buffer
    /// it has: the backend's (see `Simulator`'s `clone_from`), the
    /// histories, state matrices and snapshot. Restoring the engine a
    /// warm-up left into one that ran the same episode allocates nothing.
    pub(crate) fn restore_from<W>(&mut self, source: &MultiServiceEnv<W>)
    where
        W: ClusterBackend + Borrow<B>,
        B: Clone,
    {
        // Exhaustive on purpose: a new field must decide what a restore
        // means.
        let Self {
            backend,
            cfg,
            t0,
            services,
            now,
            tick,
            snapshot,
            enc_scratch: _, // overwritten by every encode
            pending,
            last_avg_wait,
            record,
            submits_by_tick,
        } = self;
        backend.clone_from(source.backend.borrow());
        if *cfg != source.cfg {
            cfg.clone_from(&source.cfg);
        }
        *t0 = source.t0;
        services.clone_from(&source.services);
        *now = source.now;
        *tick = source.tick;
        snapshot.clone_from(&source.snapshot);
        pending.clone_from(&source.pending);
        *last_avg_wait = source.last_avg_wait;
        *record = source.record;
        submits_by_tick.clone_from(&source.submits_by_tick);
    }
}

/// Aggregate of one method over a batch of multi-service episodes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MultiMethodSummary {
    /// Method display name.
    pub method: String,
    /// Episodes evaluated.
    pub episodes: usize,
    /// Mean shared-cluster reward per service-episode.
    pub mean_reward: f64,
    /// Mean interruption per service-episode, hours.
    pub mean_interruption_h: f64,
    /// Mean overlap per service-episode, hours.
    pub mean_overlap_h: f64,
    /// Fraction of service-episodes meeting their interruption budget.
    pub slo_hit_rate: f64,
    /// Decision ticks with ≥ 2 simultaneous submissions, summed over
    /// episodes.
    pub stampede_ticks: usize,
    /// Fraction of service-episodes provisioned by the policy (vs the
    /// reactive fallback).
    pub proactive_rate: f64,
}

/// Report of one multi-service evaluation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiServiceReport {
    /// Scenario label (`"diurnal"`, `"bursty"`, …).
    pub scenario: String,
    /// Services per episode.
    pub services: usize,
    /// Per-method aggregates, in method order.
    pub methods: Vec<MultiMethodSummary>,
    /// Total `(episode, service)` decisions answered across methods.
    pub decisions: u64,
}

impl MultiServiceReport {
    /// The summary for `method`, if present.
    pub fn method(&self, method: &str) -> Option<&MultiMethodSummary> {
        self.methods.iter().find(|m| m.method == method)
    }
}

/// Evaluates every method over the same multi-service episodes,
/// aggregating per-service rewards, SLO hits and stampede counts into a
/// [`MultiServiceReport`].
///
/// `make_backends` is called once, with `t0s.len()`, and must return one
/// backend per start. Start `i` is warmed once on backend `i` (reset,
/// warm-up replay, predecessors), and every method runs on a restore of
/// that warm engine (`B: Clone`; see [`crate::eval`]), so methods see
/// identical clusters. The report equals building fresh backends and
/// re-warming every start for every method, bit for bit.
pub fn evaluate_multiservice<B, F>(
    methods: &mut [Box<dyn MultiServicePolicy>],
    make_backends: F,
    trace: &[JobRecord],
    t0s: &[i64],
    cfg: &MultiServiceConfig,
    scenario: &str,
) -> MultiServiceReport
where
    B: ClusterBackend + Clone,
    F: FnOnce(usize) -> Vec<B>,
{
    assert!(!t0s.is_empty(), "evaluation needs at least one episode");
    let mut hosts = make_backends(t0s.len());
    assert_eq!(hosts.len(), t0s.len(), "need one backend per episode start");
    let mut summaries: Vec<MultiMethodSummary> = methods
        .iter()
        .map(|m| MultiMethodSummary {
            method: m.name(),
            ..MultiMethodSummary::default()
        })
        .collect();
    let mut decisions = 0u64;
    warm_once(
        &mut hosts,
        t0s,
        |_| trace,
        cfg,
        methods,
        |j, m, work| {
            m.reset();
            decisions += work.run(m.as_mut());
            let r = work.resolve();
            let s = &mut summaries[j];
            s.episodes += 1;
            s.stampede_ticks += r.stampede_ticks;
            for svc in &r.services {
                s.mean_reward += f64::from(svc.reward);
                s.mean_interruption_h += svc.outcome.interruption as f64 / 3600.0;
                s.mean_overlap_h += svc.outcome.overlap as f64 / 3600.0;
                s.slo_hit_rate += f64::from(u8::from(svc.slo_met));
                s.proactive_rate += f64::from(u8::from(svc.submitted_by_policy));
            }
        },
    );
    // The sums become means per service-episode.
    let per_service = (t0s.len() * cfg.n_services()) as f64;
    for s in &mut summaries {
        s.mean_reward /= per_service;
        s.mean_interruption_h /= per_service;
        s.mean_overlap_h /= per_service;
        s.slo_hit_rate /= per_service;
        s.proactive_rate /= per_service;
    }
    MultiServiceReport {
        scenario: scenario.into(),
        services: cfg.n_services(),
        methods: summaries,
        decisions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::episode::run_episode;
    use mirage_sim::{SimConfig, Simulator};
    use mirage_trace::MINUTE;

    fn sim(nodes: u32) -> Simulator {
        Simulator::new(SimConfig::new(nodes))
    }

    fn episode_cfg() -> EpisodeConfig {
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

    fn two_service_cfg() -> MultiServiceConfig {
        let mut cfg = MultiServiceConfig::single(&episode_cfg(), RewardShaper::default());
        let mut second = cfg.services[0].clone();
        second.name = "svc1".into();
        second.user = 1001;
        second.slo = ServiceSlo::with_target(HOUR);
        second.shaper = second.slo.weights();
        cfg.services.push(second);
        cfg.stampede_coef = 0.5;
        cfg
    }

    fn bg_trace() -> Vec<JobRecord> {
        (0..30)
            .map(|i| {
                JobRecord::new(
                    i + 1,
                    format!("bg{i}"),
                    5,
                    DAY / 2 + i as i64 * 1200,
                    1 + (i % 2) as u32,
                    5 * HOUR,
                    2 * HOUR,
                )
            })
            .collect()
    }

    #[test]
    fn single_service_matches_episode_driver_exactly() {
        // The in-module smoke of the N=1 degeneration claim (the full
        // property test lives in tests/multiservice.rs): same decisions,
        // same outcome, same timestamps.
        let cfg = episode_cfg();
        let ms = MultiServiceConfig::single(&cfg, RewardShaper::default());
        let trace = bg_trace();
        let threshold = |started: bool, remaining: i64| {
            if started && remaining <= HOUR {
                Action::Submit
            } else {
                Action::Wait
            }
        };

        let expect = run_episode(&mut sim(4), &trace, &cfg, DAY, |ctx| {
            threshold(ctx.pred_started, ctx.pred_remaining)
        });

        let mut env = MultiServiceEnv::new(sim(4), &trace, &ms, DAY);
        let mut policy_calls = 0;
        while env.is_deciding() {
            let w = env.advance_tick();
            if w == 0 {
                continue;
            }
            let ctx = env.slot_context(0);
            policy_calls += 1;
            env.apply(&[threshold(ctx.pred_started, ctx.pred_remaining)]);
        }
        let (result, _) = env.finish();
        let s = &result.services[0];
        assert_eq!(s.outcome, expect.outcome);
        assert_eq!(s.succ_submit, expect.succ_submit);
        assert_eq!(s.succ_start, expect.succ_start);
        assert_eq!(s.pred_start, expect.pred_start);
        assert_eq!(s.submitted_by_policy, expect.submitted_by_policy);
        assert_eq!(s.decisions.len(), expect.decisions.len());
        assert_eq!(policy_calls, expect.decisions.len());
        for ((am, aa), (bm, ba)) in s.decisions.iter().zip(&expect.decisions) {
            assert_eq!(aa, ba);
            assert_eq!(am, bm);
        }
        assert_eq!(s.co_submitters, 0);
        assert_eq!(result.stampede_ticks, 0);
        assert_eq!(s.reward, RewardShaper::default().reward(&expect.outcome));
    }

    #[test]
    fn services_share_the_cluster_and_tag_their_jobs() {
        let cfg = two_service_cfg();
        let mut env = MultiServiceEnv::new(sim(4), &[], &cfg, DAY);
        // Submit both successors immediately: on an idle 4-node cluster
        // both pairs overlap, and the ledger sees each service's jobs.
        while env.is_deciding() {
            let w = env.advance_tick();
            if w == 0 {
                continue;
            }
            env.apply(&vec![Action::Submit; w]);
        }
        let (result, backend) = env.finish();
        assert_eq!(result.services.len(), 2);
        for s in &result.services {
            assert!(s.submitted_by_policy);
            assert!(s.outcome.overlap > 0, "{:?}", s.outcome);
            assert!(!s.usage.is_idle());
            assert_eq!(s.usage.user, s.user);
        }
        // Both submitted at the same tick → one stampede tick, each
        // charged one co-submitter.
        assert_eq!(result.stampede_ticks, 1);
        assert_eq!(result.services[0].co_submitters, 1);
        // Stampede penalty shows up in the reward.
        let s0 = &result.services[0];
        let base = cfg.services[0].shaper.reward(&s0.outcome);
        assert!((s0.reward - (base - 0.5)).abs() < 1e-6);
        // The shared backend accounted both users separately.
        assert_eq!(backend.user_usage(999).completed, 2);
        assert_eq!(backend.user_usage(1001).completed, 2);
    }

    #[test]
    fn traffic_sizes_the_pair_jobs() {
        // A diurnal service's successor request follows the demand curve:
        // provision at a different hour, get a different node count.
        let mut cfg = MultiServiceConfig::single(&episode_cfg(), RewardShaper::default());
        cfg.services[0].traffic = TrafficModel::diurnal(60.0, 10.0, 0.5, 14.0);
        let peak_t0 = 10 * DAY + 10 * HOUR; // decisions land around 14:00
        let mut env = MultiServiceEnv::new(sim(32), &[], &cfg, peak_t0);
        let w = env.advance_tick();
        assert_eq!(w, 1);
        let near_peak = env.slot_context(0).successor.nodes;
        env.apply(&[Action::Wait]);
        assert!(
            near_peak > 6,
            "peak demand should exceed the mean: {near_peak}"
        );
    }

    #[test]
    fn baselines_answer_every_slot_and_differ() {
        let cfg = two_service_cfg();
        let trace = bg_trace();
        let run_with = |policy: &mut dyn MultiServicePolicy| {
            let mut env = MultiServiceEnv::new(sim(2), &trace, &cfg, DAY);
            env.run(policy);
            let (r, _) = env.finish();
            r
        };
        let uniform = run_with(&mut UniformSharePolicy);
        let greedy = run_with(&mut GreedyPerServicePolicy::default());
        let shortest = run_with(&mut ShortestQueuePolicy::default());
        for r in [&uniform, &greedy, &shortest] {
            assert_eq!(r.services.len(), 2);
        }
        // Shortest-queue provisions during dips, so on this congested
        // 2-node cluster it must act earlier than pure greedy for at
        // least one service (sanity that the heuristics are distinct).
        let earliest =
            |r: &MultiServiceResult| r.services.iter().map(|s| s.succ_submit).min().unwrap();
        assert!(earliest(&shortest) <= earliest(&greedy));
    }

    #[test]
    fn scenario_builders_produce_heterogeneous_services() {
        let d = diurnal_scenario(4, 64, 7);
        assert_eq!(d.n_services(), 4);
        let users: Vec<u32> = d.services.iter().map(|s| s.user).collect();
        let mut unique = users.clone();
        unique.dedup();
        assert_eq!(users, unique, "distinct users per service");
        assert!(d.services.iter().all(|s| s.traffic.burst.is_none()));
        // SLO targets differ across services.
        assert_ne!(
            d.services[0].slo.latency_target,
            d.services[1].slo.latency_target
        );
        // Tighter SLO → heavier interruption weight.
        assert!(d.services[0].shaper.e_interrupt > d.services[3].shaper.e_interrupt);
        let b = bursty_scenario(3, 64, 7);
        assert!(b.services.iter().all(|s| s.traffic.burst.is_some()));
        // Burst streams are seed-split per service.
        assert_ne!(b.services[0].traffic.seed, b.services[1].traffic.seed);
    }

    #[test]
    fn evaluate_reports_rl_and_baselines_on_one_harness() {
        use mirage_rl::{DqnConfig, DualHeadConfig, DualHeadNet};
        let cfg = two_service_cfg();
        let trace = bg_trace();
        let agent = DqnAgent::new(
            DualHeadNet::new(DualHeadConfig::small(
                mirage_nn::FoundationKind::Transformer,
                STATE_VARS,
                cfg.history_k,
                5,
            )),
            DqnConfig::default(),
        );
        let mut methods: Vec<Box<dyn MultiServicePolicy>> = vec![
            Box::new(RlServicePolicy::new(agent, "dqn")),
            Box::new(UniformSharePolicy),
            Box::new(GreedyPerServicePolicy::default()),
            Box::new(ShortestQueuePolicy::default()),
        ];
        let t0s = [DAY, DAY + 3 * HOUR];
        let report = evaluate_multiservice(
            &mut methods,
            |n| (0..n).map(|_| sim(4)).collect::<Vec<_>>(),
            &trace,
            &t0s,
            &cfg,
            "unit",
        );
        assert_eq!(report.scenario, "unit");
        assert_eq!(report.services, 2);
        assert_eq!(report.methods.len(), 4);
        assert!(report.decisions > 0);
        for m in &report.methods {
            assert_eq!(m.episodes, 2);
            assert!(m.mean_reward <= 0.0, "{}: {}", m.method, m.mean_reward);
            assert!((0.0..=1.0).contains(&m.slo_hit_rate));
            assert!((0.0..=1.0).contains(&m.proactive_rate));
        }
        assert!(report.method("dqn").is_some());
        assert!(report.method("uniform-share").is_some());
    }

    /// What `try_new` reports for `cfg` on a 4-node partition (checked
    /// against `validate`, which must agree).
    fn rejection(cfg: &MultiServiceConfig) -> EpisodeConfigError {
        let err = cfg.validate(4).expect_err("config must be rejected");
        let built = MultiServiceEnv::try_new(sim(4), &[], cfg, DAY);
        assert_eq!(built.err().as_ref(), Some(&err));
        err
    }

    #[test]
    fn a_decision_clock_that_cannot_advance_is_a_typed_error() {
        for interval in [0, -600] {
            let cfg = EpisodeConfig {
                decision_interval: interval,
                ..episode_cfg()
            };
            let err = cfg.validate(4).unwrap_err();
            assert_eq!(err.field, "decision_interval");
            assert_eq!(
                rejection(&MultiServiceConfig::single(&cfg, RewardShaper::default())),
                err
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid episode config: decision_interval = 0 (must be positive)")]
    fn run_episode_panics_on_a_zero_interval_instead_of_never_returning() {
        let cfg = EpisodeConfig {
            decision_interval: 0,
            ..episode_cfg()
        };
        run_episode(&mut sim(4), &[], &cfg, DAY, |_| Action::Wait);
    }

    #[test]
    fn a_pair_wider_than_the_partition_is_a_typed_error() {
        let cfg = EpisodeConfig {
            pair_nodes: 5,
            ..episode_cfg()
        };
        assert!(cfg.validate(5).is_ok());
        let err = cfg.validate(4).unwrap_err();
        assert_eq!(err.field, "services[0].traffic");
        assert_eq!(err.value, "5 nodes");
        assert_eq!(
            rejection(&MultiServiceConfig::single(&cfg, RewardShaper::default())),
            err
        );
    }

    #[test]
    fn non_positive_durations_are_typed_errors() {
        let zero_limit = EpisodeConfig {
            pair_timelimit: 0,
            ..episode_cfg()
        };
        assert_eq!(
            zero_limit.validate(4).unwrap_err().field,
            "services[0].timelimit"
        );
        let mut cfg = two_service_cfg();
        cfg.services[1].runtime = -HOUR;
        assert_eq!(rejection(&cfg).field, "services[1].runtime");
    }

    #[test]
    fn an_empty_service_list_is_a_typed_error() {
        let mut cfg = two_service_cfg();
        cfg.services.clear();
        assert_eq!(rejection(&cfg).field, "services");
    }

    #[test]
    fn services_sharing_a_user_are_a_typed_error() {
        // Their `ServiceUsage` ledgers are keyed by user and would merge.
        let mut cfg = two_service_cfg();
        cfg.services[1].user = cfg.services[0].user;
        let err = rejection(&cfg);
        assert_eq!(err.field, "services[1].user");
        assert_eq!(err.value, "999");
        assert!(err.to_string().contains("shared with an earlier service"));
    }

    #[test]
    fn scenario_builders_and_defaults_validate() {
        assert!(EpisodeConfig::default().validate(1).is_ok());
        assert!(two_service_cfg().validate(4).is_ok());
        assert!(diurnal_scenario(4, 64, 7).validate(64).is_ok());
        assert!(bursty_scenario(3, 8, 7).validate(8).is_ok());
    }
}
