//! The eight provisioning policies compared in §6 of the paper.
//!
//! * Heuristics: [`ReactivePolicy`] (the common practice) and
//!   [`AvgWaitPolicy`] (submit `T_avg` before the predecessor's end).
//! * Ensemble learners: [`WaitPredictorPolicy`] wrapping a Random Forest
//!   or XGBoost-style wait predictor.
//! * RL: [`DqnPolicy`] and [`PgPolicy`] over a transformer or MoE
//!   foundation — the four {transformer, MoE} × {DQN, PG} combinations.
//!   Their agents check every network output: a non-finite or
//!   degenerate one degrades to the reactive move and is counted, so
//!   silent NN corruption shows up in episode outcomes.

use mirage_ensemble::{GradientBoosting, RandomForest};
use mirage_rl::{DqnAgent, PgAgent};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::episode::{Action, DecisionContext};
use crate::features::extract_features;

/// A provisioning policy: called at every decision instant.
pub trait ProvisionPolicy: Send {
    /// Display name used in reports (e.g. `"reactive"`, `"MoE+DQN"`).
    fn name(&self) -> String;
    /// Per-episode reset (clear internal state).
    fn reset(&mut self) {}
    /// The §4.3 decision: submit the successor now or wait.
    fn decide(&mut self, ctx: &DecisionContext) -> Action;
    /// Cumulative count of decisions where the policy's agent rejected
    /// its network's output and degraded to the heuristic. `0` for
    /// policies without a network; the evaluation harnesses diff this
    /// around each episode to stamp
    /// [`EpisodeOutcome::guard_fallbacks`](crate::reward::EpisodeOutcome::guard_fallbacks).
    fn guard_fallbacks(&self) -> u64 {
        0
    }
}

/// The reactive baseline: never submits proactively; the episode driver's
/// fallback submits at predecessor completion — exactly what researchers
/// do by hand today (§6: "the reactive baseline is what researchers
/// usually use as a common practice").
#[derive(Debug, Clone, Default)]
pub struct ReactivePolicy;

impl ProvisionPolicy for ReactivePolicy {
    fn name(&self) -> String {
        "reactive".into()
    }

    fn decide(&mut self, _ctx: &DecisionContext) -> Action {
        Action::Wait
    }
}

/// The `avg` heuristic: monitor the average queue wait `T_avg` and submit
/// the successor `T_avg` before the predecessor finishes.
#[derive(Debug, Clone)]
pub struct AvgWaitPolicy {
    /// Safety multiplier on `T_avg` (1.0 = the paper's heuristic).
    pub multiplier: f64,
}

impl Default for AvgWaitPolicy {
    fn default() -> Self {
        Self { multiplier: 1.0 }
    }
}

impl ProvisionPolicy for AvgWaitPolicy {
    fn name(&self) -> String {
        "avg".into()
    }

    fn decide(&mut self, ctx: &DecisionContext) -> Action {
        // Until the predecessor runs, its end time is unbounded — wait.
        if !ctx.pred_started {
            return Action::Wait;
        }
        let t_avg = ctx.recent_avg_wait.unwrap_or(0.0) * self.multiplier;
        if (ctx.pred_remaining as f64) <= t_avg {
            Action::Submit
        } else {
            Action::Wait
        }
    }
}

/// Which ensemble model backs a [`WaitPredictorPolicy`].
#[derive(Debug, Clone)]
pub enum WaitModel {
    /// Random forest regressor.
    Forest(RandomForest),
    /// Gradient-boosted trees (XGBoost-style).
    Gbdt(GradientBoosting),
}

impl WaitModel {
    fn predict_wait_hours(&self, features: &[f32]) -> f32 {
        match self {
            WaitModel::Forest(f) => f.predict(features),
            WaitModel::Gbdt(g) => g.predict(features),
        }
    }

    fn label(&self) -> &'static str {
        match self {
            WaitModel::Forest(_) => "random-forest",
            WaitModel::Gbdt(_) => "xgboost",
        }
    }
}

/// Ensemble policy: predicts the successor's queue wait from the current
/// features and submits once the predecessor's remaining time drops below
/// the prediction.
#[derive(Debug, Clone)]
pub struct WaitPredictorPolicy {
    /// The fitted wait model (target in hours).
    pub model: WaitModel,
}

impl WaitPredictorPolicy {
    /// Wraps a fitted model.
    pub fn new(model: WaitModel) -> Self {
        Self { model }
    }
}

impl ProvisionPolicy for WaitPredictorPolicy {
    fn name(&self) -> String {
        self.model.label().into()
    }

    fn decide(&mut self, ctx: &DecisionContext) -> Action {
        if !ctx.pred_started {
            return Action::Wait;
        }
        let features = extract_features(ctx);
        let predicted_wait_h = self.model.predict_wait_hours(&features).max(0.0);
        if ctx.pred_remaining as f32 / 3600.0 <= predicted_wait_h {
            Action::Submit
        } else {
            Action::Wait
        }
    }
}

/// DQN policy (deterministic, §4.4): submit when Q(submit) > Q(no-submit).
pub struct DqnPolicy {
    /// The trained agent.
    pub agent: DqnAgent,
    /// Display label (`"transformer+DQN"` / `"MoE+DQN"`).
    pub label: String,
}

impl ProvisionPolicy for DqnPolicy {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn decide(&mut self, ctx: &DecisionContext) -> Action {
        Action::from_index(self.agent.act_greedy(ctx.state_matrix))
    }

    fn guard_fallbacks(&self) -> u64 {
        self.agent.fallbacks()
    }
}

/// Policy-gradient policy (non-deterministic, §4.4): the action is sampled
/// from the P-head's output distribution.
pub struct PgPolicy {
    /// The trained agent.
    pub agent: PgAgent,
    /// Display label (`"transformer+PG"` / `"MoE+PG"`).
    pub label: String,
    /// Sampling seed (per-policy stream keeps evaluation reproducible).
    pub rng: StdRng,
}

impl PgPolicy {
    /// Sampling policy with the given seed.
    pub fn new(agent: PgAgent, label: impl Into<String>, seed: u64) -> Self {
        Self {
            agent,
            label: label.into(),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl ProvisionPolicy for PgPolicy {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn decide(&mut self, ctx: &DecisionContext) -> Action {
        Action::from_index(self.agent.act(ctx.state_matrix, &mut self.rng))
    }

    fn guard_fallbacks(&self) -> u64 {
        self.agent.fallbacks()
    }
}

// ---------------------------------------------------------------------
// Classic-scheduler baselines for the heterogeneous lane.
//
// Each reinterprets a textbook queueing discipline as a submit-timing
// rule, so the hetero evaluation compares RL against the moves a classic
// scheduler would imply — not against straw men. All four are stateless
// and deterministic, which keeps the lane's seeded comparisons exact.

/// First-come-first-served: enter the queue immediately and let arrival
/// order do the rest. Maximal overlap exposure, minimal interruption —
/// the "book a node the moment you can" discipline.
#[derive(Debug, Clone, Default)]
pub struct FcfsPolicy;

impl ProvisionPolicy for FcfsPolicy {
    fn name(&self) -> String {
        "fcfs".into()
    }

    fn decide(&mut self, _ctx: &DecisionContext) -> Action {
        Action::Submit
    }
}

/// Expected work of one queued job, node-seconds: half the wall-clock
/// limit is the classic requested-vs-actual runtime prior.
fn queued_work(nodes: u32, timelimit: i64) -> f64 {
    nodes as f64 * timelimit as f64 / 2.0
}

/// Shortest-job-first: only the queued jobs *shorter* than the successor
/// would run ahead of it under SJF order, so the estimated wait is their
/// aggregate work spread over the partition. Submit once the
/// predecessor's remaining time drops below that estimate.
#[derive(Debug, Clone, Default)]
pub struct SjfPolicy;

impl ProvisionPolicy for SjfPolicy {
    fn name(&self) -> String {
        "sjf".into()
    }

    fn decide(&mut self, ctx: &DecisionContext) -> Action {
        if !ctx.pred_started {
            return Action::Wait;
        }
        let ahead: f64 = ctx
            .snapshot
            .queued
            .iter()
            .filter(|q| q.timelimit <= ctx.successor.timelimit)
            .map(|q| queued_work(q.nodes, q.timelimit))
            .sum();
        let est_wait = ahead / ctx.snapshot.total_nodes.max(1) as f64;
        if ctx.pred_remaining as f64 <= est_wait {
            Action::Submit
        } else {
            Action::Wait
        }
    }
}

/// Shortest-queue: estimate the whole backlog's drain time (every queued
/// job's expected work over the partition) and join once the
/// predecessor's remaining time drops below it — the deeper the queue,
/// the earlier this submits. Distinct from the multi-service allocator
/// of the same name ([`crate::multiservice::ShortestQueuePolicy`]),
/// which splits *nodes* across services; this one times a *submission*.
#[derive(Debug, Clone, Default)]
pub struct ShortestQueuePolicy;

impl ProvisionPolicy for ShortestQueuePolicy {
    fn name(&self) -> String {
        "shortest_queue".into()
    }

    fn decide(&mut self, ctx: &DecisionContext) -> Action {
        if !ctx.pred_started {
            return Action::Wait;
        }
        let backlog: f64 = ctx
            .snapshot
            .queued
            .iter()
            .map(|q| queued_work(q.nodes, q.timelimit))
            .sum();
        let drain = backlog / ctx.snapshot.total_nodes.max(1) as f64;
        if ctx.pred_remaining as f64 <= drain {
            Action::Submit
        } else {
            Action::Wait
        }
    }
}

/// Pool-greedy: the heterogeneity-aware claim-it-while-it's-free rule.
/// Submits the moment any node pool has enough free nodes to host the
/// successor outright (falling back to aggregate free nodes on a
/// homogeneous cluster with no pool snapshot). Greedy capacity grabbing
/// front-runs contention but pays overlap whenever the cluster is quiet.
#[derive(Debug, Clone, Default)]
pub struct PoolGreedyPolicy;

impl ProvisionPolicy for PoolGreedyPolicy {
    fn name(&self) -> String {
        "pool_greedy".into()
    }

    fn decide(&mut self, ctx: &DecisionContext) -> Action {
        if !ctx.pred_started {
            return Action::Wait;
        }
        let snap = ctx.snapshot;
        let fits = if snap.pool_free.is_empty() {
            snap.free_nodes >= ctx.successor.nodes
        } else {
            snap.pool_free.iter().any(|&f| f >= ctx.successor.nodes)
        };
        if fits {
            Action::Submit
        } else {
            Action::Wait
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{SuccessorSpec, STATE_VARS};
    use mirage_nn::Matrix;
    use mirage_sim::ClusterSnapshot;
    use mirage_trace::HOUR;

    struct CtxData {
        m: Matrix,
        snap: ClusterSnapshot,
    }

    fn data() -> CtxData {
        CtxData {
            m: Matrix::zeros(4, STATE_VARS),
            snap: ClusterSnapshot {
                now: 0,
                free_nodes: 4,
                total_nodes: 8,
                down_nodes: 0,
                recent_evictions: 0,
                queued: vec![],
                running: vec![],
                ..ClusterSnapshot::default()
            },
        }
    }

    fn ctx(
        d: &CtxData,
        pred_started: bool,
        pred_remaining: i64,
        avg_wait: Option<f64>,
    ) -> DecisionContext<'_> {
        DecisionContext {
            now: 0,
            state_matrix: &d.m,
            snapshot: &d.snap,
            pred_started,
            pred_remaining,
            recent_avg_wait: avg_wait,
            successor: SuccessorSpec {
                nodes: 1,
                timelimit: 48 * HOUR,
            },
        }
    }

    #[test]
    fn reactive_always_waits() {
        let d = data();
        let mut p = ReactivePolicy;
        assert_eq!(p.decide(&ctx(&d, true, 0, Some(1e9))), Action::Wait);
        assert_eq!(p.name(), "reactive");
    }

    #[test]
    fn avg_submits_when_remaining_below_t_avg() {
        let d = data();
        let mut p = AvgWaitPolicy::default();
        // 2h remaining, 3h average wait → submit now.
        assert_eq!(
            p.decide(&ctx(&d, true, 2 * HOUR, Some(3.0 * HOUR as f64))),
            Action::Submit
        );
        // 5h remaining, 3h average wait → hold.
        assert_eq!(
            p.decide(&ctx(&d, true, 5 * HOUR, Some(3.0 * HOUR as f64))),
            Action::Wait
        );
        // Not started yet → always hold.
        assert_eq!(p.decide(&ctx(&d, false, 0, Some(1e9))), Action::Wait);
        // No wait data → nothing suggests congestion; hold until the end.
        assert_eq!(p.decide(&ctx(&d, true, HOUR, None)), Action::Wait);
    }

    #[test]
    fn avg_multiplier_scales_the_threshold() {
        let d = data();
        let mut cautious = AvgWaitPolicy { multiplier: 0.5 };
        // 2h remaining, 3h avg → 1.5h effective threshold → hold.
        assert_eq!(
            cautious.decide(&ctx(&d, true, 2 * HOUR, Some(3.0 * HOUR as f64))),
            Action::Wait
        );
    }

    #[test]
    fn guarded_policy_degrades_to_wait_and_counts() {
        use mirage_nn::foundation::FoundationKind;
        use mirage_nn::transformer::TransformerConfig;
        use mirage_rl::{ActionEncoding, DqnConfig, DualHeadConfig, DualHeadNet, PgConfig};

        let mut net = DualHeadNet::new(DualHeadConfig {
            foundation: FoundationKind::Transformer,
            transformer: TransformerConfig {
                input_dim: STATE_VARS,
                seq_len: 4,
                d_model: 8,
                heads: 2,
                layers: 1,
                ff_mult: 2,
            },
            action_encoding: ActionEncoding::TwoHead,
            freeze_foundation: false,
            seed: 3,
        });
        // NaN every weight: a silently corrupted checkpoint or diverged
        // update, as seen from inference.
        let ids: Vec<_> = net.ps.iter().map(|(id, _)| id).collect();
        for id in ids {
            for v in net.ps.get_mut(id).data_mut() {
                *v = f32::NAN;
            }
        }
        let d = data();
        let mut dqn = DqnPolicy {
            agent: DqnAgent::new(net.clone(), DqnConfig::default()),
            label: "guarded".into(),
        };
        let mut pg = PgPolicy::new(PgAgent::new(net, PgConfig::default()), "guarded", 5);
        for p in [&mut dqn as &mut dyn ProvisionPolicy, &mut pg] {
            assert_eq!(p.guard_fallbacks(), 0);
            for _ in 0..3 {
                assert_eq!(p.decide(&ctx(&d, true, 0, None)), Action::Wait);
            }
            assert_eq!(p.guard_fallbacks(), 3, "every poisoned decision counted");
        }
    }

    #[test]
    fn unguarded_policies_report_zero_fallbacks() {
        assert_eq!(ReactivePolicy.guard_fallbacks(), 0);
        assert_eq!(AvgWaitPolicy::default().guard_fallbacks(), 0);
    }

    #[test]
    fn classic_baselines_follow_their_disciplines() {
        use mirage_sim::QueuedJobView;
        let mut d = data();
        let (mut fcfs, mut sjf) = (FcfsPolicy, SjfPolicy);
        let (mut sq, mut pg) = (ShortestQueuePolicy, PoolGreedyPolicy);
        assert_eq!(fcfs.name(), "fcfs");
        assert_eq!(sjf.name(), "sjf");
        assert_eq!(sq.name(), "shortest_queue");
        assert_eq!(pg.name(), "pool_greedy");

        // FCFS submits unconditionally — even before the predecessor runs.
        assert_eq!(fcfs.decide(&ctx(&d, false, HOUR, None)), Action::Submit);
        // Everyone else holds until the predecessor is at least running.
        for p in [
            sjf.decide(&ctx(&d, false, 0, None)),
            sq.decide(&ctx(&d, false, 0, None)),
            pg.decide(&ctx(&d, false, 0, None)),
        ] {
            assert_eq!(p, Action::Wait);
        }

        // Empty queue → zero estimated wait: SJF and shortest-queue hold
        // to the very end.
        assert_eq!(sjf.decide(&ctx(&d, true, HOUR, None)), Action::Wait);
        assert_eq!(sq.decide(&ctx(&d, true, HOUR, None)), Action::Wait);
        assert_eq!(sjf.decide(&ctx(&d, true, 0, None)), Action::Submit);

        // Eight 1-node jobs at a 4 h limit ≈ 2 h of expected work over the
        // 8-node partition → both submit at 2 h remaining, neither at 3 h.
        let short = |id| QueuedJobView {
            id,
            nodes: 1,
            submit: 0,
            age: 0,
            timelimit: 4 * HOUR,
            user: 1,
        };
        d.snap.queued = (0..8).map(short).collect();
        assert_eq!(sjf.decide(&ctx(&d, true, 3 * HOUR, None)), Action::Wait);
        assert_eq!(sjf.decide(&ctx(&d, true, 2 * HOUR, None)), Action::Submit);
        assert_eq!(sq.decide(&ctx(&d, true, 2 * HOUR, None)), Action::Submit);

        // A queued monster over the successor's own limit inflates the
        // whole-backlog drain but is invisible to SJF order.
        d.snap.queued.push(QueuedJobView {
            id: 99,
            nodes: 8,
            submit: 0,
            age: 0,
            timelimit: 96 * HOUR,
            user: 1,
        });
        assert_eq!(sjf.decide(&ctx(&d, true, 3 * HOUR, None)), Action::Wait);
        assert_eq!(sq.decide(&ctx(&d, true, 3 * HOUR, None)), Action::Submit);

        // Pool-greedy keys on per-pool headroom when pools are reported…
        d.snap.pool_free = vec![0, 0];
        assert_eq!(pg.decide(&ctx(&d, true, HOUR, None)), Action::Wait);
        d.snap.pool_free = vec![0, 2];
        assert_eq!(pg.decide(&ctx(&d, true, HOUR, None)), Action::Submit);
        // …and on aggregate free nodes on a homogeneous cluster.
        d.snap.pool_free.clear();
        assert_eq!(pg.decide(&ctx(&d, true, HOUR, None)), Action::Submit);
        d.snap.free_nodes = 0;
        assert_eq!(pg.decide(&ctx(&d, true, HOUR, None)), Action::Wait);
    }

    #[test]
    fn wait_predictor_uses_model_output() {
        let d = data();
        use mirage_ensemble::{Dataset, GbdtConfig};
        // Train a trivial GBDT that always predicts ~5 (hours).
        let rows: Vec<Vec<f32>> = (0..16)
            .map(|_| vec![0.0; crate::features::FEATURE_DIM])
            .collect();
        let ys = vec![5.0f32; 16];
        let data = Dataset::from_rows(&rows, &ys);
        let model = GradientBoosting::fit(
            &data,
            &GbdtConfig {
                n_rounds: 2,
                ..Default::default()
            },
        );
        let mut p = WaitPredictorPolicy::new(WaitModel::Gbdt(model));
        assert_eq!(p.name(), "xgboost");
        // 3h remaining < 5h predicted wait → submit.
        assert_eq!(p.decide(&ctx(&d, true, 3 * HOUR, None)), Action::Submit);
        // 10h remaining > 5h predicted wait → hold.
        assert_eq!(p.decide(&ctx(&d, true, 10 * HOUR, None)), Action::Wait);
    }
}
