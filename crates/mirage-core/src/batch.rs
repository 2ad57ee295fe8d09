//! Lockstep single-service episodes: N provisioning episodes stepped
//! tick by tick with **one batched NN forward per decision tick** — what
//! online training's collection windows run.
//!
//! Training throughput in the paper's regime is dominated by running many
//! episodes, and each episode's per-decision forward pass is a chain of
//! tiny matmuls that cannot saturate a core on its own. The lockstep
//! driver amortizes them: every episode is its own one-service
//! [`MultiServiceEnv`] on its own backend (built, e.g., by
//! `mirage_sim::BackendPool::build_range`), the pending episodes' `k × m`
//! state matrices are stacked into one `(width·k) × m` batch, and the RL
//! agents answer it with a single `q_values_batch`/`p_probs_batch`
//! forward. Episodes finish at different ticks (a policy submits, or the
//! reactive fallback fires); the batch narrows as they do, and the
//! per-episode results are **bit-identical** to sequential execution.
//!
//! [`BatchedEpisodeDriver`] holds those engines and speaks single-service
//! terms over them: episodes configured by an [`EpisodeConfig`], rows
//! addressed by episode index, contexts as borrowed [`DecisionContext`]s,
//! results as [`EpisodeResult`]s, and the policy shape the §4.9 training
//! loops (`mirage_core::train`) speak,
//! [`LanePolicy`]/[`BatchedEpisodeDriver::run_lanes`], with per-lane
//! RNG/ε streams that follow their episodes through the narrowing batch.

use mirage_nn::Matrix;
use mirage_sim::ClusterBackend;
use mirage_trace::JobRecord;

use crate::episode::{Action, DecisionContext, EpisodeConfig, EpisodeResult};
use crate::multiservice::{stack_states, MultiServiceConfig, MultiServiceEnv};
use crate::reward::RewardShaper;

/// A policy deciding one lockstep tick of a training window.
///
/// The policy is handed the whole driver, so it can read the row-stacked
/// states ([`BatchedEpisodeDriver::batch_states`]), map batch rows to
/// window lanes ([`BatchedEpisodeDriver::pending`]) for per-lane RNG and
/// ε streams that survive the batch narrowing, and inspect each pending
/// episode's [`DecisionContext`]
/// ([`BatchedEpisodeDriver::pending_context`]). Implemented by the DQN
/// and PG learners of the online loop in [`crate::train`].
pub trait LanePolicy<B: ClusterBackend> {
    /// Decides one lockstep tick: pushes exactly one action index per
    /// pending batch row, in row order ([`BatchedEpisodeDriver::pending`]
    /// maps rows to lanes).
    fn decide_lanes(&mut self, driver: &BatchedEpisodeDriver<B>, actions: &mut Vec<usize>);
}

/// N lockstep episodes behind one batched decision loop: one one-service
/// [`MultiServiceEnv`] per episode.
///
/// Usage mirrors [`EpisodeDriver`](crate::episode::EpisodeDriver), lifted
/// to a batch:
///
/// 1. [`BatchedEpisodeDriver::new`] starts one episode per
///    `(backend, t0)` pair (warm-up replay and predecessor submission
///    happen per episode, exactly as sequentially),
/// 2. [`advance_tick`](Self::advance_tick) moves every still-deciding
///    episode one decision interval and assembles the row-stacked batch
///    of state matrices; episodes whose reactive fallback fired drop out,
/// 3. [`apply`](Self::apply) records one action per pending episode,
/// 4. [`finish`](Self::finish) resolves every episode's outcome.
///
/// [`run_lanes`](Self::run_lanes) wires 2–3 to a [`LanePolicy`] until no
/// episode is deciding. The assembled batch and the pending bookkeeping
/// reuse their buffers, so a steady-state tick allocates nothing.
pub struct BatchedEpisodeDriver<B: ClusterBackend> {
    envs: Vec<MultiServiceEnv<B>>,
    /// History rows per state matrix.
    k: usize,
    /// The pending episodes' state matrices, row-stacked.
    batch: Matrix,
    /// Episode indices awaiting an action for the current tick, in batch
    /// row order.
    pending: Vec<usize>,
}

impl<B: ClusterBackend> BatchedEpisodeDriver<B> {
    /// Starts one episode per backend: `backends[i]` hosts an episode
    /// whose predecessor is submitted at `t0s[i]`, all sharing `trace`
    /// and `cfg`.
    pub fn new(
        backends: impl IntoIterator<Item = B>,
        trace: &[JobRecord],
        cfg: &EpisodeConfig,
        t0s: &[i64],
    ) -> Self {
        Self::with_windows(backends, t0s.iter().map(|_| trace), cfg, t0s)
    }

    /// [`new`](Self::new) with a **per-episode background trace**:
    /// episode `i` replays `windows[i]`. Training windows mix episode
    /// starts, and each start replays only its own
    /// [`episode_window`](crate::train::episode_window) slice of the full
    /// trace — sharing one slice across different `t0`s would change
    /// every episode's warm-up state (and break bit-identity with
    /// sequential training).
    pub fn with_windows<'w>(
        backends: impl IntoIterator<Item = B>,
        windows: impl IntoIterator<Item = &'w [JobRecord]>,
        cfg: &EpisodeConfig,
        t0s: &[i64],
    ) -> Self {
        let single = MultiServiceConfig::single(cfg, RewardShaper::default());
        let backends: Vec<B> = backends.into_iter().collect();
        let windows: Vec<&[JobRecord]> = windows.into_iter().collect();
        assert!(
            backends.len() == t0s.len() && windows.len() == t0s.len(),
            "need exactly one backend and one trace window per episode start \
             (got {} backends and {} windows for {} starts)",
            backends.len(),
            windows.len(),
            t0s.len()
        );
        assert!(!t0s.is_empty(), "batch needs at least one episode");
        let envs = backends
            .into_iter()
            .zip(windows)
            .zip(t0s)
            .map(|((backend, window), &t0)| MultiServiceEnv::new(backend, window, &single, t0))
            .collect();
        Self {
            envs,
            k: cfg.history_k.max(1),
            batch: Matrix::zeros(0, 0),
            pending: Vec::with_capacity(t0s.len()),
        }
    }

    /// Episode count (fixed; the *pending* width shrinks as episodes
    /// leave the decision loop).
    pub fn width(&self) -> usize {
        self.envs.len()
    }

    /// Whether any episode still awaits decisions.
    pub fn is_deciding(&self) -> bool {
        self.envs.iter().any(MultiServiceEnv::is_deciding)
    }

    /// Forwards
    /// [`EpisodeDriver::set_record_decisions`](crate::episode::EpisodeDriver::set_record_decisions)
    /// to every episode.
    pub fn set_record_decisions(&mut self, record: bool) {
        for env in &mut self.envs {
            env.set_record_decisions(record);
        }
    }

    /// Advances every still-deciding episode one decision interval and
    /// assembles the batch. Returns the pending width: how many episodes
    /// produced a decision context this tick (0 when the remaining
    /// episodes all hit their reactive fallback — check
    /// [`is_deciding`](Self::is_deciding) to tell that apart from being
    /// done).
    pub fn advance_tick(&mut self) -> usize {
        self.pending.clear();
        for (i, env) in self.envs.iter_mut().enumerate() {
            if env.advance_tick() > 0 {
                self.pending.push(i);
            }
        }
        if !self.pending.is_empty() {
            let envs = &self.envs;
            let states = self
                .pending
                .iter()
                .map(|&i| envs[i].decision_context(0).state_matrix);
            stack_states(&mut self.batch, self.k, states);
        }
        self.pending.len()
    }

    /// The row-stacked states of the episodes pending after the last
    /// [`advance_tick`](Self::advance_tick).
    pub fn batch_states(&self) -> &Matrix {
        &self.batch
    }

    /// Episode indices the current batch rows belong to, in row order.
    pub fn pending(&self) -> &[usize] {
        &self.pending
    }

    /// The [`DecisionContext`] of pending batch row `row` (index into
    /// [`pending`](Self::pending)), borrowing its episode's buffers —
    /// valid between the last [`advance_tick`](Self::advance_tick) and
    /// the matching [`apply`](Self::apply). Heuristic policies read it;
    /// the NN policies only need [`batch_states`](Self::batch_states).
    pub fn pending_context(&self, row: usize) -> DecisionContext<'_> {
        self.envs[self.pending[row]].decision_context(0)
    }

    /// Applies one action per pending episode (batch row order).
    pub fn apply(&mut self, actions: &[Action]) {
        assert_eq!(actions.len(), self.pending.len(), "one action per lane");
        for (&i, action) in self.pending.iter().zip(actions) {
            self.envs[i].apply(std::slice::from_ref(action));
        }
        self.pending.clear();
    }

    /// Drives the decision loops to completion: one
    /// [`LanePolicy::decide_lanes`] per lockstep tick, with the driver
    /// itself exposed so the policy can follow its lanes through the
    /// narrowing batch.
    pub fn run_lanes<P: LanePolicy<B> + ?Sized>(&mut self, policy: &mut P) {
        let mut indices = Vec::with_capacity(self.width());
        let mut actions = Vec::with_capacity(self.width());
        while self.is_deciding() {
            if self.advance_tick() == 0 {
                continue;
            }
            indices.clear();
            policy.decide_lanes(self, &mut indices);
            assert_eq!(
                indices.len(),
                self.pending.len(),
                "policy must answer every lane"
            );
            actions.clear();
            actions.extend(indices.iter().map(|&i| Action::from_index(i)));
            self.apply(&actions);
        }
    }

    /// Resolves every episode (running each backend until its pair
    /// completes) and returns the per-episode results alongside the
    /// backends, both in construction order.
    pub fn finish(self) -> (Vec<EpisodeResult>, Vec<B>) {
        self.envs
            .into_iter()
            .map(|env| {
                let (mut result, backend) = env.finish();
                (result.services.remove(0).into(), backend)
            })
            .unzip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::episode::run_episode;
    use crate::state::STATE_VARS;
    use mirage_rl::{ActionEncoding, DqnAgent, DqnConfig, DualHeadConfig, DualHeadNet};
    use mirage_sim::{BackendPool, SimConfig, Simulator};
    use mirage_trace::{DAY, HOUR, MINUTE};

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

    fn bg_trace() -> Vec<JobRecord> {
        (0..40)
            .map(|i| {
                JobRecord::new(
                    i + 1,
                    format!("bg{i}"),
                    5,
                    DAY + i as i64 * 1800,
                    1 + (i % 3) as u32,
                    6 * HOUR,
                    3 * HOUR,
                )
            })
            .collect()
    }

    fn dqn_agent() -> DqnAgent {
        DqnAgent::new(
            DualHeadNet::new(DualHeadConfig {
                foundation: mirage_nn::FoundationKind::Transformer,
                transformer: mirage_nn::TransformerConfig {
                    input_dim: STATE_VARS,
                    seq_len: 4,
                    d_model: 8,
                    heads: 2,
                    layers: 1,
                    ff_mult: 2,
                },
                action_encoding: ActionEncoding::TwoHead,
                freeze_foundation: false,
                seed: 5,
            }),
            DqnConfig::default(),
        )
    }

    /// A closure over the driver as a [`LanePolicy`].
    struct Lanes<F>(F);

    impl<B, F> LanePolicy<B> for Lanes<F>
    where
        B: ClusterBackend,
        F: FnMut(&BatchedEpisodeDriver<B>, &mut Vec<usize>),
    {
        fn decide_lanes(&mut self, driver: &BatchedEpisodeDriver<B>, actions: &mut Vec<usize>) {
            (self.0)(driver, actions);
        }
    }

    /// Runs one lockstep episode per `(backend, t0)` under `policy`.
    fn run_batched<B: ClusterBackend>(
        backends: impl IntoIterator<Item = B>,
        trace: &[JobRecord],
        t0s: &[i64],
        policy: impl FnMut(&BatchedEpisodeDriver<B>, &mut Vec<usize>),
    ) -> Vec<EpisodeResult> {
        let mut driver = BatchedEpisodeDriver::new(backends, trace, &small_cfg(), t0s);
        driver.run_lanes(&mut Lanes(policy));
        driver.finish().0
    }

    #[test]
    fn lockstep_batch_matches_sequential_episodes() {
        // The headline bit-identity claim at the episode level: N
        // episodes through one batched agent forward per tick produce
        // exactly the per-episode decisions and outcomes of sequential
        // execution — including episodes that end at different ticks.
        let cfg = small_cfg();
        let trace = bg_trace();
        let t0s = [DAY, DAY + 2 * HOUR, DAY + 5 * HOUR, DAY + HOUR / 2];

        let mut seq_agent = dqn_agent();
        let sequential: Vec<EpisodeResult> = t0s
            .iter()
            .map(|&t0| {
                let mut sim = Simulator::new(SimConfig::new(4));
                run_episode(&mut sim, &trace, &cfg, t0, |ctx| {
                    Action::from_index(seq_agent.act_greedy(ctx.state_matrix))
                })
            })
            .collect();

        let mut batch_agent = dqn_agent();
        let backends = (0..t0s.len()).map(|_| Simulator::new(SimConfig::new(4)));
        let batched = run_batched(backends, &trace, &t0s, |driver, actions| {
            let width = driver.pending().len();
            batch_agent.act_greedy_batch(driver.batch_states(), width, actions);
        });

        assert_eq!(batched.len(), sequential.len());
        for (b, s) in batched.iter().zip(&sequential) {
            assert_eq!(b.outcome, s.outcome);
            assert_eq!(b.succ_submit, s.succ_submit);
            assert_eq!(b.succ_start, s.succ_start);
            assert_eq!(b.submitted_by_policy, s.submitted_by_policy);
            assert_eq!(b.decisions.len(), s.decisions.len());
            for ((bm, ba), (sm, sa)) in b.decisions.iter().zip(&s.decisions) {
                assert_eq!(ba, sa);
                assert_eq!(bm, sm);
            }
        }
    }

    #[test]
    fn closure_policies_and_pool_built_backends_compose() {
        // A heuristic closure over the pending rows, against BackendPool-
        // constructed backends; every episode must resolve.
        let t0s = [DAY, DAY + HOUR];
        let pool = BackendPool::with_seed(|_seed: u64| Simulator::new(SimConfig::new(4)), 2, 0);
        let backends = pool.build_range(0, t0s.len());
        let results = run_batched(backends, &[], &t0s, |driver, actions| {
            actions.extend(std::iter::repeat_n(1usize, driver.pending().len()));
        });
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(r.submitted_by_policy);
            assert_eq!(r.decisions.len(), 1);
        }
    }

    #[test]
    fn width_narrows_as_episodes_finish() {
        let cfg = small_cfg();
        // Episode 0 submits on its first decision; episode 1 never does.
        let t0s = [DAY, DAY];
        let backends = (0..2).map(|_| Simulator::new(SimConfig::new(4)));
        let mut driver = BatchedEpisodeDriver::new(backends, &[], &cfg, &t0s);
        let w = driver.advance_tick();
        assert_eq!(w, 2);
        assert_eq!(driver.batch_states().shape(), (2 * 4, STATE_VARS));
        driver.apply(&[Action::Submit, Action::Wait]);
        let w = driver.advance_tick();
        assert_eq!(w, 1, "submitted episode left the batch");
        assert_eq!(driver.pending(), &[1]);
        assert_eq!(driver.batch_states().shape(), (4, STATE_VARS));
        driver.apply(&[Action::Wait]);
        while driver.is_deciding() {
            let w = driver.advance_tick();
            let waits = vec![Action::Wait; w];
            driver.apply(&waits);
        }
        let (results, _) = driver.finish();
        assert!(results[0].submitted_by_policy);
        assert!(!results[1].submitted_by_policy);
    }
}
