//! The lockstep training data-path (§4.9): one engine behind online
//! DQN/PG fine-tuning and §4.9.1 offline collection.
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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use mirage_rl::{DqnAgent, ExploreLane, PgAgent};
use mirage_sim::{BackendFactory, BackendPool};
use mirage_trace::JobRecord;

use crate::batch::{BatchedEpisodeDriver, LanePolicy};
use crate::episode::{Action, EpisodeConfig, EpisodeResult};
use crate::features::extract_features;
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
    /// the trajectories are the training data.
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

    /// Runs every episode of `t0s` through lockstep windows with one
    /// policy and returns all results in episode order. The convenience
    /// path for policies with no between-window training (offline
    /// collection); training loops that update weights between windows
    /// iterate [`window`](Self::window) themselves.
    pub fn run<P: LanePolicy<F::Backend>>(
        &self,
        t0s: &[i64],
        policy: &mut P,
    ) -> Vec<EpisodeResult> {
        let mut results = Vec::with_capacity(t0s.len());
        for chunk in t0s.chunks(self.lanes) {
            policy.begin_window(results.len(), chunk.len());
            let mut driver = self.window(chunk);
            driver.run_lanes(policy);
            results.extend(driver.finish().0);
        }
        results
    }

    /// [`run`](Self::run) with whole windows fanned out across `threads`
    /// std threads (each window still steps its lanes in lockstep):
    /// threads claim window indices from a shared cursor and every
    /// window's results land at its own offset, so the output — every
    /// episode against its own fresh, identically seeded backend — is
    /// byte-identical to the single-threaded [`run`](Self::run),
    /// whatever the thread interleaving. One policy is built per thread
    /// (`make_policy`) and all are returned for the caller to merge;
    /// windows reach a thread's policy in claim order, so policies must
    /// key any per-episode state on the absolute ordinals
    /// `begin_window` hands them. NN-free offline collection uses this;
    /// the online RL loops keep one thread (one shared set of weights).
    pub fn run_threaded<P, MkP>(
        &self,
        t0s: &[i64],
        threads: usize,
        make_policy: MkP,
    ) -> (Vec<EpisodeResult>, Vec<P>)
    where
        P: LanePolicy<F::Backend> + Send,
        MkP: Fn() -> P + Sync,
    {
        let mut windows: Vec<(usize, &[i64])> = Vec::new();
        let mut first = 0;
        for chunk in t0s.chunks(self.lanes) {
            windows.push((first, chunk));
            first += chunk.len();
        }
        let threads = threads.clamp(1, windows.len().max(1));
        if threads == 1 {
            let mut policy = make_policy();
            let results = self.run(t0s, &mut policy);
            return (results, vec![policy]);
        }

        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Vec<EpisodeResult>>>> =
            (0..windows.len()).map(|_| Mutex::new(None)).collect();
        let policies: Vec<P> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let cursor = &cursor;
                    let slots = &slots;
                    let windows = &windows;
                    let make_policy = &make_policy;
                    scope.spawn(move || {
                        let mut policy = make_policy();
                        loop {
                            let w = cursor.fetch_add(1, Ordering::Relaxed);
                            if w >= windows.len() {
                                break;
                            }
                            let (first, chunk) = windows[w];
                            policy.begin_window(first, chunk.len());
                            let mut driver = self.window(chunk);
                            driver.run_lanes(&mut policy);
                            *slots[w].lock().expect("unpoisoned window slot") =
                                Some(driver.finish().0);
                        }
                        policy
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("collector thread panicked"))
                .collect()
        });
        let results = slots
            .into_iter()
            .flat_map(|slot| {
                slot.into_inner()
                    .expect("unpoisoned window slot")
                    .expect("every window index was claimed exactly once")
            })
            .collect();
        (results, policies)
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

/// The §4.9.1 split-point heuristic over collection windows: task `i`
/// waits (`splits[i] == None`, the reactive run) or submits once the
/// predecessor's elapsed fraction of its limit passes
/// `(j + 1) / (points + 1)` (`splits[i] == Some(j)`), and the features
/// at each task's first submit decision are recorded for the ensemble
/// wait predictors.
pub struct SplitCollectPolicy<'a> {
    episode: &'a EpisodeConfig,
    points: usize,
    splits: &'a [Option<usize>],
    first: usize,
    /// Features at each task's first submit decision, task order
    /// (pre-sized to the task count: windows may reach a policy out of
    /// order under [`BatchedCollector::run_threaded`]).
    pub submit_features: Vec<Option<Vec<f32>>>,
}

impl<'a> SplitCollectPolicy<'a> {
    /// Policy over `splits.len()` tasks with `points` split points.
    pub fn new(episode: &'a EpisodeConfig, points: usize, splits: &'a [Option<usize>]) -> Self {
        Self {
            episode,
            points: points.max(1),
            splits,
            first: 0,
            submit_features: vec![None; splits.len()],
        }
    }
}

impl<B: mirage_sim::ClusterBackend> LanePolicy<B> for SplitCollectPolicy<'_> {
    fn begin_window(&mut self, first: usize, _width: usize) {
        self.first = first;
    }

    fn decide_lanes(&mut self, driver: &BatchedEpisodeDriver<B>, actions: &mut Vec<usize>) {
        for (row, &lane) in driver.pending().iter().enumerate() {
            let task = self.first + lane;
            let ctx = driver.pending_context(row);
            let act = match self.splits[task] {
                None => Action::Wait,
                Some(j) => {
                    // Submit once the predecessor's elapsed fraction
                    // passes (j+1)/(points+1) of its limit.
                    let threshold =
                        (j as i64 + 1) * self.episode.pair_timelimit / (self.points as i64 + 1);
                    let elapsed = self.episode.pair_timelimit - ctx.pred_remaining;
                    if ctx.pred_started && elapsed >= threshold {
                        Action::Submit
                    } else {
                        Action::Wait
                    }
                }
            };
            if act == Action::Submit && self.submit_features[task].is_none() {
                self.submit_features[task] = Some(extract_features(&ctx));
            }
            actions.push(act.index());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_sim::{BackendKind, SimConfig};
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
        (0..10 * 24)
            .map(|i| {
                JobRecord::new(
                    i as u64 + 1,
                    format!("bg{i}"),
                    (i % 5) as u32,
                    i * HOUR,
                    1 + (i % 3) as u32,
                    4 * HOUR,
                    2 * HOUR,
                )
            })
            .collect()
    }

    #[test]
    fn threaded_windows_match_single_threaded_run_bitwise() {
        // Window fan-out across threads must not change anything: same
        // per-episode outcomes and decisions, same recorded features,
        // whatever the thread count.
        let cfg = small_cfg();
        let trace = bg_trace();
        let pool = SimConfig::builder()
            .nodes(4)
            .backend(BackendKind::Pooled { workers: 4 })
            .build_pool();
        let t0s: Vec<i64> = (0..10).map(|i| 2 * DAY + i * 5 * HOUR).collect();
        let splits: Vec<Option<usize>> = (0..10)
            .map(|i| if i % 3 == 0 { None } else { Some(i % 3 - 1) })
            .collect();
        let collector = BatchedCollector::new(&pool, &trace, &cfg, 3);

        let mut single = SplitCollectPolicy::new(&cfg, 2, &splits);
        let sequential = collector.run(&t0s, &mut single);
        for threads in [2usize, 4] {
            let (threaded, policies) =
                collector.run_threaded(&t0s, threads, || SplitCollectPolicy::new(&cfg, 2, &splits));
            assert_eq!(threaded.len(), sequential.len());
            for (a, b) in threaded.iter().zip(&sequential) {
                assert_eq!(a.outcome, b.outcome);
                assert_eq!(a.succ_submit, b.succ_submit);
                assert_eq!(a.submitted_by_policy, b.submitted_by_policy);
                assert_eq!(a.decisions, b.decisions);
            }
            // Every task's features appear in exactly one thread policy
            // and match the single-threaded recording.
            for i in 0..t0s.len() {
                let merged: Vec<&Vec<f32>> = policies
                    .iter()
                    .filter_map(|p| p.submit_features[i].as_ref())
                    .collect();
                assert!(merged.len() <= 1, "task {i} ran on one thread");
                assert_eq!(
                    merged.first().copied(),
                    single.submit_features[i].as_ref(),
                    "task {i} features"
                );
            }
        }
    }
}
