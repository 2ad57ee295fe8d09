//! The lockstep online-training data-path (§4.9.2): the collection
//! windows behind DQN and PG fine-tuning. (§4.9.1 offline collection
//! plays fixed split-point policies, so it runs on the warm-once loop in
//! [`crate::eval`] instead: see [`crate::train::collect_offline`].)
//!
//! Training throughput in the paper's regime is sample-collection
//! throughput: every decision of every training episode used to pay a
//! full per-episode NN forward in the sequential loops of
//! [`crate::train`]. The [`BatchedCollector`] replaces those loops' run
//! machinery with lockstep *windows*: `lanes` episodes step together
//! through a [`BatchedEpisodeDriver`], one batched forward per decision
//! tick (reusing the per-lane embed-row caches, which the agents
//! invalidate on every train step), and each window's results come back
//! in episode order so replay pushes and update cadence are untouched.
//! Every window runs on the calling thread: a wider window is the only
//! way online training gets wider.
//!
//! Correctness contract, pinned by the `lockstep_training` property
//! tests:
//!
//! * with `lanes == 1`, a training run is **bit-identical** to the
//!   sequential loop this module replaced — same replay contents, same
//!   final weights, same episode outcomes;
//! * with `lanes == N`, every lane is bit-identical to a sequential run
//!   of its episode under the same per-lane `(seed, ε-step-base)` and
//!   the same window-start weights ([`ExploreLane`] keeps lane streams
//!   and clocks independent of the batch width).
//!
//! Acting inside a window always uses the window-start weights (updates
//! happen between windows, per finished episode) — that is the standard
//! batched-collection trade, and `lanes == 1` recovers the fully
//! sequential cadence exactly.

use mirage_rl::{DqnAgent, ExploreLane, PgAgent};
use mirage_sim::{BackendFactory, BackendPool};
use mirage_trace::JobRecord;

use crate::batch::{BatchedEpisodeDriver, LanePolicy};
use crate::episode::EpisodeConfig;
use crate::train::episode_window;

/// Lockstep episode collection over a [`BackendPool`]: chunks an episode
/// list into windows of at most `lanes`, builds one fresh pool backend
/// and one [`episode_window`] trace slice per lane, and steps each
/// window through a [`BatchedEpisodeDriver`].
pub struct BatchedCollector<'a, F: BackendFactory> {
    pool: &'a BackendPool<F>,
    trace: &'a [JobRecord],
    episode: &'a EpisodeConfig,
    lanes: usize,
}

impl<'a, F: BackendFactory> BatchedCollector<'a, F> {
    /// Collector stepping `lanes` episodes per lockstep window (clamped
    /// to at least 1).
    pub fn new(
        pool: &'a BackendPool<F>,
        trace: &'a [JobRecord],
        episode: &'a EpisodeConfig,
        lanes: usize,
    ) -> Self {
        Self {
            pool,
            trace,
            episode,
            lanes: lanes.max(1),
        }
    }

    /// Window width (episodes per lockstep window).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Builds the lockstep driver for one window of episode starts: one
    /// fresh pool backend per lane (slots `0..t0s.len()`, from
    /// [`BackendPool::build_range`]) and one per-`t0` trace window per
    /// lane. Decision recording is on — the trajectories are the training
    /// data. Training loops step windows themselves, updating weights
    /// between them.
    pub fn window(&self, t0s: &[i64]) -> BatchedEpisodeDriver<F::Backend> {
        let windows: Vec<&[JobRecord]> = t0s
            .iter()
            .map(|&t0| episode_window(self.trace, t0, self.episode))
            .collect();
        BatchedEpisodeDriver::with_windows(
            self.pool.build_range(0, t0s.len()),
            windows,
            self.episode,
            t0s,
        )
    }
}

/// One window of ε-greedy DQN collection: each lockstep tick is a single
/// [`DqnAgent::act_batch`] forward, with batch rows mapped through the
/// driver's pending list onto the window's [`ExploreLane`]s.
pub struct DqnActWindow<'a> {
    /// The training agent (weights frozen while the window runs).
    pub agent: &'a mut DqnAgent,
    /// One exploration lane per window episode, lane order.
    pub lanes: &'a mut [ExploreLane],
}

impl<B: mirage_sim::ClusterBackend> LanePolicy<B> for DqnActWindow<'_> {
    fn decide_lanes(&mut self, driver: &BatchedEpisodeDriver<B>, actions: &mut Vec<usize>) {
        self.agent
            .act_batch(driver.batch_states(), self.lanes, driver.pending(), actions);
    }
}

/// One window of stochastic PG collection: each lockstep tick is a
/// single [`PgAgent::act_sample_batch`] forward with per-lane RNG draws.
pub struct PgActWindow<'a> {
    /// The training agent (weights frozen while the window runs).
    pub agent: &'a mut PgAgent,
    /// One sampling lane per window episode, lane order.
    pub lanes: &'a mut [ExploreLane],
}

impl<B: mirage_sim::ClusterBackend> LanePolicy<B> for PgActWindow<'_> {
    fn decide_lanes(&mut self, driver: &BatchedEpisodeDriver<B>, actions: &mut Vec<usize>) {
        self.agent
            .act_sample_batch(driver.batch_states(), self.lanes, driver.pending(), actions);
    }
}
