//! Deep Q-Network agent (§2.2, §4.9 of the paper).
//!
//! ε-greedy action selection over the dual-head network's Q-values,
//! experience-replay mini-batches, a Huber loss, gradient clipping and
//! Adam. What it learns is a regression of Q(s, a) onto the reward stored
//! with each sample: `mirage-core` stores every decision with its
//! episode's final reward (offline warm start and online collection
//! alike), a terminal transition in DQN terms, so there is no discount,
//! target network or successor state. The paper's labels (`DqnAgent`,
//! `transformer+DQN`, `MoE+DQN`) stay: this is its Q-head, action
//! selection and replay, on targets that need no bootstrapping.
//!
//! The update path runs **one batched forward/backward per mini-batch**
//! over a row-stacked [`MiniBatch`], on the calling thread — the only
//! update path; the unit tests hold it bit for bit to a test-only
//! per-experience oracle.

use mirage_nn::optim::Adam;
use mirage_nn::param::{GradSink, Grads};
use mirage_nn::scratch::Scratch;
use mirage_nn::tensor::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::dualhead::{
    check_snapshot_fits, install_params, BatchInferCache, DualHeadNet, HeadBatchCache,
    StateMismatch,
};
use crate::replay::MiniBatch;
use crate::schedule::{EpsilonSchedule, ExploreLane};
use crate::{greedy_pair, q_pair_is_valid, FALLBACK_ACTION};

/// DQN hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DqnConfig {
    /// Exploration schedule.
    pub epsilon: EpsilonSchedule,
    /// Adam learning rate.
    pub lr: f32,
    /// Huber threshold of the regression loss.
    pub huber_delta: f32,
    /// Global gradient-norm clip (0 disables).
    pub grad_clip: f32,
}

impl Default for DqnConfig {
    fn default() -> Self {
        Self {
            epsilon: EpsilonSchedule::default(),
            lr: 1e-3,
            huber_delta: 1.0,
            grad_clip: 5.0,
        }
    }
}

/// One ε-greedy draw: a uniform sample against `eps`, then either a
/// random action (second draw) or the lazily computed greedy action —
/// exploration never evaluates Q. The single copy of the draw order that
/// the batched/sequential bit-identity contract depends on, shared by
/// [`DqnAgent::act`], [`DqnAgent::act_lane`] and [`DqnAgent::act_batch`].
#[inline]
fn epsilon_draw(rng: &mut impl Rng, eps: f32, greedy: impl FnOnce() -> usize) -> usize {
    if rng.gen::<f32>() < eps {
        rng.gen_range(0..2)
    } else {
        greedy()
    }
}

/// The one place a DQN turns a Q pair into a greedy action: the argmax
/// of a finite pair, else [`FALLBACK_ACTION`], counted in `fallbacks`.
#[inline]
fn checked_greedy(q: [f32; 2], fallbacks: &mut u64) -> usize {
    if q_pair_is_valid(q) {
        greedy_pair(q)
    } else {
        *fallbacks += 1;
        FALLBACK_ACTION
    }
}

/// Scalar Huber loss/derivative for one `1 × 1` prediction: exactly the
/// [`huber`](mirage_nn::loss::huber) arithmetic at `n = 1` (where the `/ n` normalizations are
/// exact identities), inlined so the batched pass computes per-sample
/// losses without building row-vector matrices.
#[inline]
fn huber_scalar(pred: f32, target: f32, delta: f32) -> (f32, f32) {
    let d = pred - target;
    if d.abs() <= delta {
        (0.5 * d * d, d)
    } else {
        (delta * (d.abs() - 0.5 * delta), delta * d.signum())
    }
}

/// Everything a [`DqnAgent`] needs to resume bit-identically after a
/// crash: weights, Adam moments and both step clocks. Derived state
/// (scratch arenas, training buffers) is rebuilt empty on import — it
/// never affects results, only allocation reuse.
#[derive(Debug, Clone)]
pub struct DqnAgentState {
    /// Network parameters, in [`ParamSet`](mirage_nn::ParamSet)
    /// allocation order.
    pub net_params: Vec<Matrix>,
    /// Always `None`, never written or read: the agent has no target
    /// network. Kept only because the repository's benchmark names it.
    pub target_params: Option<Vec<Matrix>>,
    /// Adam update steps taken.
    pub opt_t: u64,
    /// Adam first moments, by parameter position.
    pub opt_m: Vec<Option<Matrix>>,
    /// Adam second moments, by parameter position.
    pub opt_v: Vec<Option<Matrix>>,
    /// Environment steps (the global ε clock).
    pub steps: u64,
    /// Mini-batch updates taken.
    pub train_steps: u64,
}

/// DQN agent over a [`DualHeadNet`].
#[derive(Debug, Clone)]
pub struct DqnAgent {
    /// The Q-network being trained.
    pub net: DualHeadNet,
    opt: Adam,
    cfg: DqnConfig,
    /// Environment steps taken (drives ε decay).
    pub steps: u64,
    train_steps: u64,
    /// Reusable inference buffers: serving-time decisions allocate
    /// nothing once this arena is warm.
    scratch: Scratch,
    /// Reusable Q-pair buffer for the batched greedy path.
    batch_vals: Vec<[f32; 2]>,
    /// Retained buffers for the batched update path.
    train_cache: HeadBatchCache,
    /// Mini-batch gradient accumulator (reset per update).
    grads: Grads,
    /// Greedy decisions whose Q pair was not finite (a diagnostic, not
    /// training state: checkpoints do not carry it).
    fallbacks: u64,
}

impl DqnAgent {
    /// Wraps a network with DQN training machinery.
    pub fn new(net: DualHeadNet, cfg: DqnConfig) -> Self {
        let opt = Adam::new(cfg.lr);
        let grads = Grads::new(&net.ps);
        Self {
            net,
            opt,
            cfg,
            steps: 0,
            train_steps: 0,
            scratch: Scratch::new(),
            batch_vals: Vec::new(),
            train_cache: HeadBatchCache::default(),
            grads,
            fallbacks: 0,
        }
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f32 {
        self.cfg.epsilon.value(self.steps)
    }

    /// The raw, unvalidated Q-pair `[Q(wait), Q(submit)]` for one state:
    /// what [`act_greedy`](Self::act_greedy) checks and then argmaxes.
    pub fn q_pair(&mut self, state: &Matrix) -> [f32; 2] {
        self.net.q_values(state, &mut self.scratch)
    }

    /// Greedy decisions since construction that fell back to
    /// [`FALLBACK_ACTION`] because the Q pair was not finite.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Snapshots the full training state for crash-safe checkpointing.
    /// Round-trips through [`import_state`](Self::import_state).
    pub fn export_state(&self) -> DqnAgentState {
        DqnAgentState {
            net_params: self.net.ps.iter().map(|(_, m)| m.clone()).collect(),
            target_params: None,
            opt_t: self.opt.steps(),
            opt_m: self.opt.state().1.to_vec(),
            opt_v: self.opt.state().2.to_vec(),
            steps: self.steps,
            train_steps: self.train_steps,
        }
    }

    /// Restores an [`export_state`](Self::export_state) snapshot into an
    /// agent freshly built over the same network architecture. After
    /// this, every act/train call is bit-identical to what the
    /// snapshotted agent would have produced. A snapshot of a different
    /// architecture (parameter count, or any parameter or Adam moment
    /// shape) is refused before anything is installed.
    pub fn import_state(&mut self, state: DqnAgentState) -> Result<(), StateMismatch> {
        let ps = &mut self.net.ps;
        check_snapshot_fits(ps, &state.net_params, &state.opt_m, &state.opt_v)?;
        install_params(ps, state.net_params);
        self.opt
            .restore_state(state.opt_t, state.opt_m, state.opt_v);
        self.steps = state.steps;
        self.train_steps = state.train_steps;
        Ok(())
    }

    /// ε-greedy action; advances the agent's global exploration clock.
    pub fn act(&mut self, state: &Matrix, rng: &mut impl Rng) -> usize {
        self.steps += 1;
        let eps = self.epsilon();
        epsilon_draw(rng, eps, || self.act_greedy(state))
    }

    /// ε-greedy action against a lane's private RNG stream and ε clock
    /// (advanced here), leaving the agent's global clock untouched. This
    /// is the sequential specification of one [`act_batch`] row: batched
    /// lane `i` is bit-identical to `act_lane` on lane `i`'s state and a
    /// matching [`ExploreLane`].
    ///
    /// [`act_batch`]: Self::act_batch
    pub fn act_lane(&mut self, state: &Matrix, lane: &mut ExploreLane) -> usize {
        lane.steps += 1;
        let eps = self.cfg.epsilon.value(lane.steps);
        epsilon_draw(&mut lane.rng, eps, || self.act_greedy(state))
    }

    /// ε-greedy actions for a lockstep batch in **one** batched forward:
    /// `states` row-stacks `rows.len()` state matrices, and batch row `r`
    /// draws from `lanes[rows[r]]`'s RNG stream and lane-local ε clock
    /// (the indirection lets a narrowing lockstep batch keep each
    /// episode pinned to its lane as other episodes finish). The Q batch
    /// is computed for every row — that is the amortization — and rows
    /// that explore simply ignore their pair, exactly as the sequential
    /// path never evaluates Q when exploring; per row the action is
    /// bit-identical to [`act_lane`](Self::act_lane).
    pub fn act_batch(
        &mut self,
        states: &Matrix,
        lanes: &mut [ExploreLane],
        rows: &[usize],
        actions: &mut Vec<usize>,
    ) {
        self.net.q_values_batch(
            states,
            rows.len(),
            &mut self.batch_vals,
            &mut self.scratch,
            &mut BatchInferCache,
        );
        actions.clear();
        for (r, &l) in rows.iter().enumerate() {
            let lane = &mut lanes[l];
            lane.steps += 1;
            let eps = self.cfg.epsilon.value(lane.steps);
            actions.push(epsilon_draw(&mut lane.rng, eps, || {
                checked_greedy(self.batch_vals[r], &mut self.fallbacks)
            }));
        }
    }

    /// Greedy action (serving-time policy, §4.4: submit only when
    /// Q(submit) exceeds Q(no-submit)); a non-finite pair falls back to
    /// [`FALLBACK_ACTION`] and is counted. Runs the allocation-free
    /// `q_values` fast path against the agent's own scratch arena.
    pub fn act_greedy(&mut self, state: &Matrix) -> usize {
        checked_greedy(self.q_pair(state), &mut self.fallbacks)
    }

    /// Greedy actions for `batch` row-stacked states in **one** batched
    /// forward (`q_values_batch`):
    /// `actions[b]` is bit-identical to `act_greedy` on episode `b`'s
    /// state alone. Does not advance the exploration clock — this is the
    /// serving/evaluation path.
    pub fn act_greedy_batch(&mut self, states: &Matrix, batch: usize, actions: &mut Vec<usize>) {
        self.net.q_values_batch(
            states,
            batch,
            &mut self.batch_vals,
            &mut self.scratch,
            &mut BatchInferCache,
        );
        actions.clear();
        for &q in &self.batch_vals {
            actions.push(checked_greedy(q, &mut self.fallbacks));
        }
    }

    /// One batched mini-batch update: a single forward/backward over the
    /// row-stacked states (one matmul per layer instead of one per
    /// sample). Bit-identical to the test-only per-experience oracle on
    /// the same samples; allocation-free once the retained buffers are
    /// warm.
    pub fn train_minibatch(&mut self, mb: &MiniBatch) -> f32 {
        assert!(!mb.is_empty(), "empty training batch");
        let delta = self.cfg.huber_delta;
        let n = mb.len;
        self.grads.reset();
        let mut total_loss = 0.0f32;
        let net = &self.net;
        let scratch = &mut self.scratch;
        let mut q = scratch.take(n, 2);
        net.q_forward_batch_train(&mb.states, n, &mut q, &mut self.train_cache, scratch);
        let mut dq = scratch.take(n, 2);
        for i in 0..n {
            let a = mb.actions[i];
            let (loss, dl) = huber_scalar(q.get(i, a), mb.rewards[i], delta);
            dq.set(i, a, dl);
            total_loss += loss;
        }
        let mut sink = GradSink::Fused(&mut self.grads);
        net.q_backward_batch(
            &mut self.train_cache,
            &mb.states,
            &dq,
            n,
            &mut sink,
            scratch,
        );
        scratch.give(dq);
        scratch.give(q);
        self.apply_update(total_loss, n)
    }

    /// [`train_minibatch`](Self::train_minibatch) under the name the
    /// repository's benchmark calls. Training has one worker: `workers`
    /// must be 0 or 1.
    pub fn train_minibatch_sharded(&mut self, mb: &MiniBatch, workers: usize) -> f32 {
        assert!(workers <= 1, "one training worker, got {workers}");
        self.train_minibatch(mb)
    }

    /// Shared update tail: mean-scales the accumulated gradients, clips,
    /// steps Adam and advances the update clock. Returns the mean loss.
    fn apply_update(&mut self, total_loss: f32, n: usize) -> f32 {
        self.grads.scale(1.0 / n as f32);
        if self.cfg.grad_clip > 0.0 {
            self.grads.clip_global_norm(self.cfg.grad_clip);
        }
        self.opt.step(&mut self.net.ps, &self.grads);
        self.train_steps += 1;
        total_loss / n as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dualhead::{stack_states_into, ActionEncoding, DualHeadConfig, DualHeadNet};
    use crate::env::SignBandit;
    use crate::replay::{Experience, ReplayBuffer};
    use mirage_nn::foundation::FoundationKind;
    use mirage_nn::loss::huber;
    use mirage_nn::transformer::TransformerConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rayon::prelude::*;

    /// One batched update on reference samples.
    fn train_refs(agent: &mut DqnAgent, batch: &[&Experience]) -> f32 {
        let mut mb = MiniBatch::new();
        mb.assemble_refs(batch);
        agent.train_minibatch(&mb)
    }

    /// The pinned per-experience oracle [`DqnAgent::train_minibatch`] is
    /// held to: one `q_forward` / `q_backward` per sample, each regressed
    /// onto its own reward, gradients folded sequentially in batch order.
    impl DqnAgent {
        fn train_batch_scalar(&mut self, batch: &[&Experience]) -> f32 {
            assert!(!batch.is_empty(), "empty training batch");
            let delta = self.cfg.huber_delta;
            let net = &self.net;
            // Per-sample passes in parallel; gradients folded in batch
            // order, so the floating-point merge order is deterministic.
            let per_sample: Vec<(f32, Grads)> = batch
                .par_iter()
                .map(|e| {
                    let (q, cache) = net.q_forward(&e.state);
                    let pred = Matrix::row_vector(vec![q[e.action]]);
                    let tgt = Matrix::row_vector(vec![e.reward]);
                    let (loss, dl) = huber(&pred, &tgt, delta);
                    let mut dq = [0.0f32; 2];
                    dq[e.action] = dl.get(0, 0);
                    let mut grads = Grads::new(&net.ps);
                    net.q_backward(&cache, dq, &mut grads);
                    (loss, grads)
                })
                .collect();
            let (total_loss, merged) = per_sample.into_iter().fold(
                (0.0f32, Grads::new(&net.ps)),
                |(l1, mut g1), (l2, g2)| {
                    g1.merge(g2);
                    (l1 + l2, g1)
                },
            );
            self.grads.reset();
            self.grads.merge(merged);
            self.apply_update(total_loss, batch.len())
        }
    }

    fn tiny_net_of(kind: FoundationKind, seed: u64) -> DualHeadNet {
        DualHeadNet::new(DualHeadConfig {
            foundation: kind,
            transformer: TransformerConfig {
                input_dim: 3,
                seq_len: 2,
                d_model: 8,
                heads: 2,
                layers: 1,
                ff_mult: 2,
            },
            action_encoding: ActionEncoding::TwoHead,
            freeze_foundation: false,
            seed,
        })
    }

    fn tiny_net(seed: u64) -> DualHeadNet {
        tiny_net_of(FoundationKind::Transformer, seed)
    }

    /// `tiny_net(seed)` with every parameter NaN: a diverged update or a corrupted
    /// checkpoint, as seen from inference.
    fn poisoned_net(seed: u64) -> DualHeadNet {
        let mut net = tiny_net(seed);
        let ids: Vec<_> = net.ps.iter().map(|(id, _)| id).collect();
        for id in ids {
            net.ps.get_mut(id).data_mut().fill(f32::NAN);
        }
        net
    }

    fn assert_nets_bitwise_eq(a: &DualHeadNet, b: &DualHeadNet, ctx: &str) {
        for ((id_a, m_a), (id_b, m_b)) in a.ps.iter().zip(b.ps.iter()) {
            assert_eq!(id_a, id_b, "{ctx}: param order diverged");
            for (i, (&x, &y)) in m_a.data().iter().zip(m_b.data()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{ctx}: param {id_a:?} element {i}: {x} vs {y}"
                );
            }
        }
    }

    /// `n` experiences over `2 × 3` states, both actions, random rewards.
    fn make_batch(rng: &mut StdRng, n: usize) -> Vec<Experience> {
        (0..n)
            .map(|i| {
                let state = Matrix::xavier(2, 3, rng);
                let reward = rng.gen::<f32>() - 0.5;
                Experience::terminal(state, i % 2, reward)
            })
            .collect()
    }

    /// Fills a replay buffer with random-action bandit transitions.
    fn bandit_buffer(seed: u64, n: usize) -> ReplayBuffer {
        let mut env = SignBandit::new(seed, 2, 3);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let mut rb = ReplayBuffer::new(n);
        let mut state = env.reset();
        for _ in 0..n {
            let action = rng.gen_range(0..2);
            let (next, reward) = env.step(action);
            rb.push(Experience::terminal(state, action, reward));
            state = next;
        }
        rb
    }

    fn bandit_accuracy(agent: &mut DqnAgent, seed: u64, trials: usize) -> f64 {
        let mut env = SignBandit::new(seed, 2, 3);
        let mut correct = 0;
        let mut state = env.reset();
        for _ in 0..trials {
            if agent.act_greedy(&state) == env.correct_action() {
                correct += 1;
            }
            state = env.reset();
        }
        correct as f64 / trials as f64
    }

    #[test]
    fn learns_the_sign_bandit() {
        let mut agent = DqnAgent::new(
            tiny_net(3),
            DqnConfig {
                lr: 3e-3,
                ..DqnConfig::default()
            },
        );
        let rb = bandit_buffer(1, 512);
        let mut rng = StdRng::seed_from_u64(2);
        let before = bandit_accuracy(&mut agent, 99, 100);
        for _ in 0..150 {
            let batch = rb.sample(&mut rng, 16);
            train_refs(&mut agent, &batch);
        }
        let after = bandit_accuracy(&mut agent, 99, 100);
        assert!(
            after > 0.85,
            "DQN should solve the bandit: before {before:.2}, after {after:.2}"
        );
    }

    #[test]
    fn import_state_refuses_a_misfitting_snapshot_before_installing_anything() {
        // A trained agent's snapshot: weights and both Adam moments.
        let mut src = DqnAgent::new(tiny_net(3), DqnConfig::default());
        let rb = bandit_buffer(1, 64);
        train_refs(&mut src, &rb.sample(&mut StdRng::seed_from_u64(2), 16));
        let good = src.export_state();
        assert!(good.opt_m.iter().any(Option::is_some));
        let fresh = || DqnAgent::new(tiny_net(4), DqnConfig::default());
        let untouched = fresh().export_state();

        let mut bad_param = good.clone();
        bad_param.net_params[1] = Matrix::zeros(1, 1);
        let mut bad_moment = good.clone();
        *bad_moment.opt_v.last_mut().unwrap() = Some(Matrix::zeros(9, 9));
        for (bad, names) in [(bad_param, "parameter `"), (bad_moment, "Adam moment `")] {
            let mut dst = fresh();
            let err = dst.import_state(bad).unwrap_err();
            assert!(err.saved.contains(names), "{err}");
            let after = dst.export_state();
            assert_eq!(after.net_params, untouched.net_params, "{names}");
            assert_eq!((after.opt_t, after.train_steps), (0, 0), "{names}");
        }
        let mut dst = fresh();
        dst.import_state(good.clone()).unwrap();
        assert_eq!(dst.export_state().net_params, good.net_params);
    }

    #[test]
    fn dqn_batched_update_matches_scalar_reference_bitwise() {
        // The batched row-stacked update must equal the per-sample oracle
        // bit for bit — losses and every parameter, across foundation
        // kinds, over sequential updates (retained caches must never go
        // stale).
        for kind in [
            FoundationKind::Transformer,
            FoundationKind::MoE { experts: 2 },
        ] {
            let mut batched = DqnAgent::new(tiny_net_of(kind, 7), DqnConfig::default());
            let mut scalar = batched.clone();
            let mut rng = StdRng::seed_from_u64(11);
            for step in 0..3 {
                let batch = make_batch(&mut rng, 5 + step);
                let refs: Vec<&Experience> = batch.iter().collect();
                let lb = train_refs(&mut batched, &refs);
                let ls = scalar.train_batch_scalar(&refs);
                assert_eq!(
                    lb.to_bits(),
                    ls.to_bits(),
                    "{kind:?} step {step}: loss {lb} vs {ls}"
                );
                assert_nets_bitwise_eq(&batched.net, &scalar.net, &format!("{kind:?} step {step}"));
            }
        }
    }

    #[test]
    fn act_batch_rows_match_act_lane_bitwise() {
        // The batched ε-greedy path must equal per-lane sequential acting
        // bit for bit: same greedy pairs (one batched forward), same RNG
        // draws, same lane-local ε clocks — including across a train step
        // (stale-cache invalidation) and a narrowed batch with permuted
        // lane mapping.
        let mut batch_agent = DqnAgent::new(
            tiny_net(17),
            DqnConfig {
                epsilon: EpsilonSchedule::linear(0.8, 0.0, 12),
                ..DqnConfig::default()
            },
        );
        let mut seq_agent = batch_agent.clone();
        let mut batch_lanes: Vec<ExploreLane> =
            (0..3).map(|l| ExploreLane::seeded(100 + l, l)).collect();
        let mut seq_lanes = batch_lanes.clone();
        let mut rng = StdRng::seed_from_u64(55);
        let states: Vec<Matrix> = (0..3).map(|_| Matrix::xavier(2, 3, &mut rng)).collect();
        let rb = bandit_buffer(18, 64);

        let mut actions = Vec::new();
        for tick in 0..6 {
            // Narrow the batch over time and permute the lane map.
            let rows: Vec<usize> = match tick {
                0 | 1 => vec![0, 1, 2],
                2 => vec![2, 0],
                _ => vec![1],
            };
            let mut stacked = Matrix::zeros(rows.len() * 2, 3);
            for (r, &l) in rows.iter().enumerate() {
                for i in 0..2 {
                    stacked.row_mut(r * 2 + i).copy_from_slice(states[l].row(i));
                }
            }
            batch_agent.act_batch(&stacked, &mut batch_lanes, &rows, &mut actions);
            assert_eq!(actions.len(), rows.len());
            for (r, &l) in rows.iter().enumerate() {
                let expect = seq_agent.act_lane(&states[l], &mut seq_lanes[l]);
                assert_eq!(actions[r], expect, "tick {tick} row {r} lane {l} diverged");
                assert_eq!(batch_lanes[l].steps, seq_lanes[l].steps);
            }
            if tick == 3 {
                // Move the weights mid-stream: both sides update
                // identically and act on the new weights.
                let mut r1 = StdRng::seed_from_u64(9);
                let mut r2 = StdRng::seed_from_u64(9);
                train_refs(&mut batch_agent, &rb.sample(&mut r1, 8));
                train_refs(&mut seq_agent, &rb.sample(&mut r2, 8));
            }
        }
    }

    #[test]
    fn lane_clocks_decay_epsilon_locally() {
        // Satellite property: with lane-local clocks, a lane's ε after n
        // of *its own* decisions equals a sequential agent's ε after n
        // global decisions — batch width never accelerates decay. The
        // global-clock alternative would hit ε = end after
        // decay_steps / width ticks per lane.
        let schedule = EpsilonSchedule::linear(1.0, 0.0, 8);
        let mut agent = DqnAgent::new(
            tiny_net(19),
            DqnConfig {
                epsilon: schedule,
                ..DqnConfig::default()
            },
        );
        let width = 4usize;
        let mut lanes: Vec<ExploreLane> = (0..width)
            .map(|l| ExploreLane::seeded(l as u64, 0))
            .collect();
        let mut stacked = Matrix::zeros(width * 2, 3);
        let mut rng = StdRng::seed_from_u64(3);
        for r in 0..stacked.rows() {
            for c in 0..stacked.cols() {
                stacked.set(r, c, rng.gen::<f32>());
            }
        }
        let rows: Vec<usize> = (0..width).collect();
        let mut actions = Vec::new();
        for tick in 1..=8u64 {
            agent.act_batch(&stacked, &mut lanes, &rows, &mut actions);
            for lane in &lanes {
                assert_eq!(lane.steps, tick, "one clock advance per own decision");
                assert_eq!(schedule.value(lane.steps), schedule.value(tick));
            }
        }
        // 8 ticks × 4 lanes = 32 global decisions, but every lane sits at
        // exactly the end of its own 8-step decay, not 4× past it.
        assert_eq!(schedule.value(lanes[0].steps), 0.0);
        assert!(schedule.value(lanes[0].steps / width as u64) > 0.0);
    }

    #[test]
    fn healthy_act_paths_are_the_unchecked_formula() {
        // On a finite net every act path is greedy_pair(q_pair(s)) under
        // the same ε draws, and nothing falls back.
        let epsilon = EpsilonSchedule::linear(0.8, 0.0, 12);
        let cfg = DqnConfig {
            epsilon,
            ..DqnConfig::default()
        };
        let mut agent = DqnAgent::new(tiny_net(23), cfg);
        let mut rng = StdRng::seed_from_u64(24);
        let states: Vec<Matrix> = (0..3).map(|_| Matrix::xavier(2, 3, &mut rng)).collect();
        let greedy: Vec<usize> = states
            .iter()
            .map(|s| greedy_pair(agent.q_pair(s)))
            .collect();
        let mut stacked = Matrix::zeros(0, 0);
        stack_states_into(states.iter(), &mut stacked);
        let fresh = || {
            let lanes: Vec<ExploreLane> = (0..3).map(|l| ExploreLane::seeded(30 + l, 0)).collect();
            (StdRng::seed_from_u64(25), lanes)
        };
        let (mut act_rng, mut lanes) = fresh();
        let mut batch_lanes = lanes.clone();
        let (mut oracle_rng, mut oracle_lanes) = fresh();
        let mut actions = Vec::new();
        for tick in 1..=6u64 {
            agent.act_batch(&stacked, &mut batch_lanes, &[0, 1, 2], &mut actions);
            for (l, s) in states.iter().enumerate() {
                assert_eq!(agent.act_greedy(s), greedy[l]);
                let eps = epsilon.value(3 * (tick - 1) + l as u64 + 1);
                let expect = epsilon_draw(&mut oracle_rng, eps, || greedy[l]);
                assert_eq!(agent.act(s, &mut act_rng), expect, "act, tick {tick}");
                let lane = &mut oracle_lanes[l];
                lane.steps += 1;
                let expect = epsilon_draw(&mut lane.rng, epsilon.value(lane.steps), || greedy[l]);
                assert_eq!(agent.act_lane(s, &mut lanes[l]), expect, "act_lane");
                assert_eq!(actions[l], expect, "act_batch row {l}, tick {tick}");
            }
            agent.act_greedy_batch(&stacked, 3, &mut actions);
            assert_eq!(actions, greedy);
        }
        assert_eq!(agent.fallbacks(), 0);
    }

    #[test]
    fn poisoned_act_paths_fall_back_and_count_every_decision() {
        let net = poisoned_net(27);
        let at = |eps: f32| DqnConfig {
            epsilon: EpsilonSchedule::constant(eps),
            ..DqnConfig::default()
        };
        let mut agent = DqnAgent::new(net.clone(), at(0.0));
        let s = Matrix::zeros(2, 3);
        let mut stacked = Matrix::zeros(0, 0);
        stack_states_into([&s, &s, &s].into_iter(), &mut stacked);
        let mut lanes: Vec<ExploreLane> = (0..3).map(|l| ExploreLane::seeded(l, 0)).collect();
        let mut rng = StdRng::seed_from_u64(28);
        let mut actions = Vec::new();
        assert_eq!(agent.act_greedy(&s), FALLBACK_ACTION);
        assert_eq!(agent.act(&s, &mut rng), FALLBACK_ACTION);
        assert_eq!(agent.act_lane(&s, &mut lanes[0]), FALLBACK_ACTION);
        agent.act_batch(&stacked, &mut lanes, &[0, 1, 2], &mut actions);
        assert_eq!(actions, [FALLBACK_ACTION; 3]);
        agent.act_greedy_batch(&stacked, 3, &mut actions);
        assert_eq!(actions, [FALLBACK_ACTION; 3]);
        assert_eq!(agent.fallbacks(), 9, "every decision counted");

        // Exploring rows never read Q, so nothing is checked or counted.
        let mut explorer = DqnAgent::new(net, at(1.0));
        explorer.act(&s, &mut rng);
        explorer.act_batch(&stacked, &mut lanes, &[0, 1, 2], &mut actions);
        assert_eq!(explorer.fallbacks(), 0);
    }

    #[test]
    fn epsilon_decays_with_steps() {
        let mut agent = DqnAgent::new(
            tiny_net(1),
            DqnConfig {
                epsilon: EpsilonSchedule::linear(1.0, 0.0, 10),
                ..DqnConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(0);
        let s = Matrix::zeros(2, 3);
        assert_eq!(agent.epsilon(), 1.0);
        for _ in 0..10 {
            let _ = agent.act(&s, &mut rng);
        }
        assert_eq!(agent.epsilon(), 0.0);
    }

    #[test]
    fn training_reduces_td_loss() {
        let mut agent = DqnAgent::new(
            tiny_net(13),
            DqnConfig {
                lr: 3e-3,
                ..DqnConfig::default()
            },
        );
        let rb = bandit_buffer(14, 256);
        let mut rng = StdRng::seed_from_u64(15);
        let first: f32 = (0..5)
            .map(|_| train_refs(&mut agent, &rb.sample(&mut rng, 16)))
            .sum::<f32>()
            / 5.0;
        for _ in 0..100 {
            train_refs(&mut agent, &rb.sample(&mut rng, 16));
        }
        let last: f32 = (0..5)
            .map(|_| train_refs(&mut agent, &rb.sample(&mut rng, 16)))
            .sum::<f32>()
            / 5.0;
        assert!(last < first, "loss should drop: {first:.4} → {last:.4}");
    }
}
