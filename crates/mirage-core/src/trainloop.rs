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
//! With several training workers, [`dqn_collect_sharded`] /
//! [`pg_collect_sharded`] split one window into contiguous per-thread
//! sub-windows — the only threads in the crate's episode loops.
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
use crate::episode::{EpisodeConfig, EpisodeResult};
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
    /// fresh pool backend (slots `0..`, from [`BackendPool::build_range`])
    /// and one per-`t0` trace window per lane. Decision recording is on —
    /// the trajectories are the training data. Training loops step
    /// windows themselves, updating weights between them.
    pub fn window(&self, t0s: &[i64]) -> BatchedEpisodeDriver<F::Backend> {
        self.window_at(0, t0s)
    }

    /// [`window`](Self::window) for a *sub*-window whose lanes occupy
    /// slots `first .. first + t0s.len()` of a wider lockstep window:
    /// backends come from [`BackendPool::build_range`], so `W` workers
    /// each driving their contiguous lane range use, collectively, the
    /// exact backend sequence one worker driving the whole window would.
    pub fn window_at(&self, first: usize, t0s: &[i64]) -> BatchedEpisodeDriver<F::Backend> {
        let windows: Vec<&[JobRecord]> = t0s
            .iter()
            .map(|&t0| episode_window(self.trace, t0, self.episode))
            .collect();
        BatchedEpisodeDriver::with_windows(
            self.pool.build_range(first, t0s.len()),
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

/// One `chunk.len()`-lane lockstep window of ε-greedy DQN collection
/// split across synchronized workers, `per_worker` contiguous lanes
/// each: every worker acts with its own clone of the window-start agent
/// (weights are frozen while a window runs, and the per-lane embed
/// caches are bit-transparent), drives backends from
/// [`BackendPool::build_range`] over its lane slots, and results land in
/// lane order — bit-identical to one worker driving the whole window
/// (pinned by `tests/lockstep_training.rs`). `lanes` must hold one
/// [`ExploreLane`] per chunk episode, lane order.
pub fn dqn_collect_sharded<F: BackendFactory>(
    collector: &BatchedCollector<'_, F>,
    chunk: &[i64],
    per_worker: usize,
    agent: &DqnAgent,
    lanes: &mut [ExploreLane],
) -> Vec<EpisodeResult> {
    collect_sharded(collector, chunk, per_worker, lanes, |driver, sub_lanes| {
        let mut local = agent.clone();
        driver.run_lanes(&mut DqnActWindow {
            agent: &mut local,
            lanes: sub_lanes,
        });
    })
}

/// The stochastic-PG analogue of [`dqn_collect_sharded`]: per-lane RNG
/// streams live in `lanes`, so worker fan-out never moves a draw between
/// episodes.
pub fn pg_collect_sharded<F: BackendFactory>(
    collector: &BatchedCollector<'_, F>,
    chunk: &[i64],
    per_worker: usize,
    agent: &PgAgent,
    lanes: &mut [ExploreLane],
) -> Vec<EpisodeResult> {
    collect_sharded(collector, chunk, per_worker, lanes, |driver, sub_lanes| {
        let mut local = agent.clone();
        driver.run_lanes(&mut PgActWindow {
            agent: &mut local,
            lanes: sub_lanes,
        });
    })
}

/// Shared fan-out: contiguous `per_worker`-lane sub-windows, one thread
/// each. `run` receives the sub-window's driver plus its lane slice
/// (clones its agent inside the thread); results re-assemble in lane
/// order.
fn collect_sharded<F, Run>(
    collector: &BatchedCollector<'_, F>,
    chunk: &[i64],
    per_worker: usize,
    lanes: &mut [ExploreLane],
    run: Run,
) -> Vec<EpisodeResult>
where
    F: BackendFactory,
    Run: Fn(&mut BatchedEpisodeDriver<F::Backend>, &mut [ExploreLane]) + Sync,
{
    assert_eq!(chunk.len(), lanes.len(), "one exploration lane per episode");
    let per_worker = per_worker.max(1);
    let n_shards = chunk.len().div_ceil(per_worker).max(1);
    let mut slots: Vec<Option<Vec<EpisodeResult>>> = (0..n_shards).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut lanes_rest = lanes;
        let mut first = 0usize;
        for slot in &mut slots {
            let n = per_worker.min(chunk.len() - first);
            let (sub_lanes, rest) = lanes_rest.split_at_mut(n);
            lanes_rest = rest;
            let sub = &chunk[first..first + n];
            let run = &run;
            scope.spawn(move || {
                let mut driver = collector.window_at(first, sub);
                run(&mut driver, sub_lanes);
                *slot = Some(driver.finish().0);
            });
            first += n;
        }
    });
    slots
        .into_iter()
        .flat_map(|s| s.expect("every sub-window ran"))
        .collect()
}
