//! Scheduling-plan core: priority order + EASY backfill.
//!
//! One planner (`plan_queue`). Given the pending queue in priority
//! order, the free-node count and the *estimated* release times of
//! running jobs, it decides which pending jobs start right now.
//! [`plan_schedule`] / [`plan_schedule_into`] feed it a slice that is
//! already sorted (outside callers, the benchmarks); the simulator's
//! scheduling pass — on either clock — feeds it a `PassQueue` over the
//! columnar pending table itself: each row's rank is computed once, into
//! the table's rank column by two vectorised loops over its columns, and
//! every read is one scan of that column — a minimum fold over the ranks
//! of the rows the planner's test accepts, then the tie-breaks among the
//! rows of that rank. Nothing is built or sorted. The `sched_depth` cut is
//! checked on the row a read finds, by one count over the rank column.
//!
//! The planner follows Slurm semantics:
//!
//! * jobs start strictly in priority order until the first job that does
//!   not fit (the *blocked head*),
//! * EASY backfill then computes the head's **shadow time** — the earliest
//!   instant enough nodes will be free, *assuming running jobs hold their
//!   nodes until their wall-clock limits* — and starts lower-priority jobs
//!   early only if they cannot delay the head: either they finish (by
//!   their own limit) before the shadow time, or they fit in the nodes
//!   left over at the shadow time,
//! * release-time estimates use **requested limits**, while jobs actually
//!   finish at their (usually shorter) real runtimes. That mismatch is the
//!   fundamental source of queue-wait unpredictability the paper builds
//!   its case on (§3).

use serde::{Deserialize, Serialize};

use crate::pending::{PendingTable, Ranking, Rows};

/// Backfill flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackfillPolicy {
    /// No backfill: strict priority order (head-of-line blocking).
    None,
    /// EASY backfill with reservations for the top `reserve_depth` blocked
    /// jobs. `reserve_depth = 1` is classic EASY.
    Easy {
        /// How many blocked jobs get start-time reservations.
        reserve_depth: usize,
    },
}

impl Default for BackfillPolicy {
    fn default() -> Self {
        BackfillPolicy::Easy { reserve_depth: 1 }
    }
}

/// What the planner needs to know about one pending job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingView {
    /// Requested node count.
    pub nodes: u32,
    /// Requested wall-clock limit (the planner's runtime estimate).
    pub timelimit: i64,
}

/// A start-time reservation for a blocked job.
#[derive(Debug, Clone, Copy)]
struct Reservation {
    /// Earliest instant the blocked job can start (by limit estimates).
    shadow: i64,
    /// Nodes spare at the shadow instant after the blocked job starts.
    extra: u32,
}

/// Reusable working memory for [`plan_schedule_into`], so the per-event
/// scheduling pass allocates nothing once warm.
#[derive(Debug, Default)]
pub struct PlanScratch {
    /// Sorted copy of the caller's `running` (public entry point only).
    releases: Vec<(i64, u32)>,
    /// `(release, nodes)` of the jobs started this pass while reservations
    /// are still being made, sorted.
    fresh: Vec<(i64, u32)>,
    reservations: Vec<Reservation>,
}

/// The pending queue as the planner consumes it: a read hands out the
/// best unread job that the planner's test accepts.
pub(crate) trait PlanQueue {
    /// The unread job of highest priority that passes `keep`, as `(handle,
    /// view)`; the handle is what the plan reports in `starts`. `keep`
    /// fails every job wider than `free`, and the planner's tests only get
    /// stricter within a pass, so a job it skips would fail again: a skip
    /// is for good.
    fn next(
        &mut self,
        free: u32,
        keep: impl FnMut(&PendingView) -> bool,
    ) -> Option<(usize, PendingView)>;
}

/// A queue that is already fully ordered: the public entry points' case.
struct SortedSlice<'a> {
    pending: &'a [PendingView],
    cursor: usize,
}

impl PlanQueue for SortedSlice<'_> {
    fn next(
        &mut self,
        _free: u32,
        mut keep: impl FnMut(&PendingView) -> bool,
    ) -> Option<(usize, PendingView)> {
        while let Some(&view) = self.pending.get(self.cursor) {
            self.cursor += 1;
            if keep(&view) {
                return Some((self.cursor - 1, view));
            }
        }
        None
    }
}

/// The rank of a job of the given `priority` (finite —
/// `PriorityWeights::validate`): ascending rank is descending priority.
/// `f64::total_cmp`'s own fold of the sign-magnitude bits, applied once per
/// job so every later comparison is a plain integer one. Written as a
/// compare-select rather than `bits ^ ((bits >> 63) as u64 >> 1)`, which
/// is the same value: AVX2 has no 64-bit arithmetic shift. No finite
/// priority folds to [`GONE`].
#[inline]
pub(crate) fn rank(priority: f64) -> i64 {
    let bits = (-priority).to_bits() as i64;
    if bits < 0 {
        bits ^ i64::MAX
    } else {
        bits
    }
}

/// The rank a [`PassQueue`] writes over a row it handed out, and the one a
/// scan gives a row its test fails: only a NaN folds to it.
const GONE: i64 = i64::MAX;

/// The pending table as one scheduling pass reads it: its rank column,
/// scanned once per read.
///
/// [`PassQueue::new`] ranks every row into the table's rank column, in
/// two loops over its columns that vectorise ([`PendingTable::rank`]).
/// The key of a row is `(rank, submit, id)`: ascending is descending
/// priority, with FIFO and then id tie-breaks, and ids are unique, so the
/// order is total. Every read is one scan of the column: a minimum fold of
/// the rank of each row the planner's test keeps ([`GONE`] for the rest),
/// then the tie-breaks among the kept rows of that rank. The row found is
/// marked [`GONE`], so it is never read again. A pass scans the table once
/// per read: once per job it starts (at most the free nodes), once per
/// blocked job phase 2 reads, and once for the read that ends it. Nothing
/// is built or sorted.
///
/// The `depth` cut (Slurm's `bf_max_job_test`: only the `depth` best keys
/// are in play) is checked on the row a read finds. Every row read earlier
/// has a smaller key (it was the best kept row when read, and the test
/// only gets stricter), so the row is inside the cut exactly when fewer
/// than `depth` rows sort below it: the rows read, and the live rows of
/// lower rank or of its rank with smaller tie-breaks. That is one count
/// over the rank column, run only when the table holds more than `depth`
/// rows. The first row found outside the cut ends the queue, as does a
/// read with fewer free nodes than the narrowest row asks for.
pub(crate) struct PassQueue<'a> {
    ranks: &'a mut [i64],
    rows: Rows<'a>,
    /// The fewest nodes any row asks for: no job fits in fewer.
    narrowest: u32,
    /// `depth`, at least 1: the reads of the whole pass inside the cut.
    depth: usize,
    /// Rows handed out; `depth` once the queue has ended at the cut.
    read: usize,
}

impl<'a> PassQueue<'a> {
    /// Queues the rows of `table` as `ranking` ranks them, cut to the
    /// `depth` best; the plan's handles are positions in the table.
    pub(crate) fn new(table: &'a mut PendingTable, ranking: Ranking, depth: usize) -> Self {
        let narrowest = table.min_nodes();
        let (rows, ranks) = table.rank(&ranking);
        debug_assert!(
            !ranks.contains(&GONE),
            "a finite priority never ranks as GONE"
        );
        Self {
            ranks,
            rows,
            narrowest,
            depth: depth.max(1),
            read: 0,
        }
    }

    /// The unread row of minimum key among those that pass `keep`: a
    /// minimum fold over the rank column with every row `keep` fails read
    /// as [`GONE`], then the tie-breaks among the kept rows of that rank
    /// only. A count (which vectorises) of that rank behind the first row
    /// holding it skips the tie loop when no other row holds it.
    fn scan(&self, mut keep: impl FnMut(&PendingView) -> bool) -> Option<usize> {
        let ranks = &*self.ranks;
        // A `for` loop, which vectorises where a `fold` over the zip does not.
        let mut best = GONE;
        for (&rank, view) in ranks.iter().zip(self.rows.views()) {
            best = best.min(if keep(&view) { rank } else { GONE });
        }
        if best == GONE {
            return None;
        }
        let mut holders = ranks
            .iter()
            .zip(self.rows.views())
            .enumerate()
            .filter(|&(_, (&rank, view))| rank == best && keep(&view))
            .map(|(at, _)| at);
        let first = holders.next().expect("a kept row holds the minimum rank");
        let behind = &ranks[first + 1..];
        if behind.iter().filter(|&&rank| rank == best).count() == 0 {
            return Some(first);
        }
        std::iter::once(first)
            .chain(holders)
            .min_by_key(|&at| self.rows.tie(at))
    }

    /// Whether the unread row `at` is among the `depth` best keys: fewer
    /// than `depth` rows sort below it, read (all of them) or live.
    fn inside(&self, at: usize) -> bool {
        let rank = self.ranks[at];
        let (below, equal) = self.ranks.iter().fold((0, 0), |(below, equal), &r| {
            (
                below + usize::from(r < rank),
                equal + usize::from(r == rank),
            )
        });
        let below = self.read + below;
        if below + equal <= self.depth {
            return true; // every row of its rank is inside
        }
        // The tie-breaks decide among the live rows of this rank.
        let tie = self.rows.tie(at);
        let ahead = self.ranks.iter().enumerate();
        let ahead = ahead
            .filter(|&(other, &r)| r == rank && self.rows.tie(other) < tie)
            .count();
        below + ahead < self.depth
    }
}

impl PlanQueue for PassQueue<'_> {
    fn next(
        &mut self,
        free: u32,
        keep: impl FnMut(&PendingView) -> bool,
    ) -> Option<(usize, PendingView)> {
        if self.read == self.depth || free < self.narrowest {
            return None; // the rest is outside the cut, or no job fits
        }
        let at = self.scan(keep)?;
        if self.rows.len() > self.depth && !self.inside(at) {
            self.read = self.depth; // every row still kept sorts after it
            return None;
        }
        self.ranks[at] = GONE;
        self.read += 1;
        Some((at, self.rows.view(at)))
    }
}

/// Decides which pending jobs start now (allocating convenience wrapper
/// around [`plan_schedule_into`]).
///
/// * `pending` must be sorted by descending priority.
/// * `running` holds `(estimated_release_time, nodes)` of running jobs;
///   order is irrelevant.
///
/// Returns indices into `pending` in the order they should be started.
pub fn plan_schedule(
    pending: &[PendingView],
    free_nodes: u32,
    total_nodes: u32,
    now: i64,
    running: &[(i64, u32)],
    policy: BackfillPolicy,
) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut scratch = PlanScratch::default();
    plan_schedule_into(
        pending,
        free_nodes,
        total_nodes,
        now,
        running,
        policy,
        &mut scratch,
        &mut starts,
    );
    starts
}

/// [`plan_schedule`] writing into caller-provided buffers: `starts` is
/// cleared and filled with the pending indices to start, `scratch` holds
/// the plan's working vectors for reuse across passes.
///
/// This is the "already fully ordered" case of the one planner
/// (`plan_queue`) the simulator's pass drives with a `PassQueue`: the
/// slice is its own sorted prefix, and `running` is
/// sorted here because the planner takes a sorted release ledger.
#[allow(clippy::too_many_arguments)]
pub fn plan_schedule_into(
    pending: &[PendingView],
    free_nodes: u32,
    total_nodes: u32,
    now: i64,
    running: &[(i64, u32)],
    policy: BackfillPolicy,
    scratch: &mut PlanScratch,
    starts: &mut Vec<usize>,
) {
    let mut releases = std::mem::take(&mut scratch.releases);
    releases.clear();
    releases.extend_from_slice(running);
    if policy != BackfillPolicy::None {
        releases.sort_unstable(); // only reservations read the ledger
    }
    plan_queue(
        &mut SortedSlice { pending, cursor: 0 },
        free_nodes,
        total_nodes,
        now,
        &releases,
        policy,
        scratch,
        starts,
    );
    scratch.releases = releases;
}

/// The planner. Reads `queue` in priority order and fills `starts` with
/// the handles of the jobs to start now, in start order. `ledger` is the
/// `(estimated_release_time, nodes)` of every running job, **sorted**.
///
/// A job is *harmless* if it fits in the free nodes and, for every
/// reservation made so far, ends by the shadow or fits in the spare nodes
/// there (which starting it then uses up).
///
/// * Phase 1 starts jobs in strict priority order until the first that
///   does not fit (the blocked *head*).
/// * Phase 2 reads on from the head until `reserve_depth` jobs have been
///   found blocked. A harmless job on the way starts; a blocked one gets a
///   reservation where one exists — none if it can never run
///   (`nodes > total_nodes`) or no release satisfies it. Later
///   reservations pessimistically assume the jobs *actually reserved*
///   before them hold their nodes forever (documented simplification;
///   exact for depth 1, where this phase reads the head and nothing else).
/// * Phase 3 starts every remaining job that is harmless, in priority
///   order.
///
/// Phase 3 reads only the jobs that are harmless against the *current*
/// `free` and reservations: each read hands out the best of them, and the
/// queue skips the rest. The skip is exact: `free` and every `extra` only
/// shrink during phase 3, so a job failing now fails when its turn comes,
/// and a failing job changes nothing — skipping it cannot alter any later
/// decision. It is what lets a read of the pass queue be one scan.
#[allow(clippy::too_many_arguments)]
pub(crate) fn plan_queue(
    queue: &mut impl PlanQueue,
    free_nodes: u32,
    total_nodes: u32,
    now: i64,
    ledger: &[(i64, u32)],
    policy: BackfillPolicy,
    scratch: &mut PlanScratch,
    starts: &mut Vec<usize>,
) {
    let mut free = free_nodes;
    starts.clear();
    let fresh = &mut scratch.fresh;
    fresh.clear();

    // Phase 1: strict priority order until the first blocked job.
    let head = loop {
        let Some((handle, p)) = queue.next(u32::MAX, |_| true) else {
            return; // everything fit
        };
        if p.nodes > free {
            break (handle, p);
        }
        free -= p.nodes;
        fresh.push((now + p.timelimit, p.nodes));
        starts.push(handle);
    };
    let BackfillPolicy::Easy { reserve_depth } = policy else {
        return; // no backfill: stop at the blocked head
    };
    fresh.sort_unstable();

    // Phase 2: reservations for the top `reserve_depth` blocked jobs.
    let reservations = &mut scratch.reservations;
    reservations.clear();
    let mut promised = 0u32;
    let mut to_reserve = reserve_depth.max(1);
    let mut blocked = Some(head);
    while to_reserve > 0 {
        let Some((handle, p)) = blocked.take().or_else(|| queue.next(u32::MAX, |_| true)) else {
            return;
        };
        if harmless(&p, free, now, reservations) {
            backfill(&p, &mut free, now, reservations);
            starts.push(handle);
            let release = (now + p.timelimit, p.nodes);
            fresh.insert(fresh.partition_point(|r| *r < release), release);
        } else {
            to_reserve -= 1;
            if let Some(r) = reserve(p.nodes, free, promised, total_nodes, now, ledger, fresh) {
                reservations.push(r);
                promised += p.nodes;
            }
        }
    }

    // Phase 3: backfill whatever is harmless among the rest.
    while let Some((handle, p)) = next_harmless(queue, free, now, reservations) {
        debug_assert!(harmless(&p, free, now, reservations));
        backfill(&p, &mut free, now, reservations);
        starts.push(handle);
    }
}

/// The best unread job of `queue` that is [`harmless`] against `free` and
/// `reservations`. The common cases, no reservation and one, test without
/// a branch per job.
fn next_harmless(
    queue: &mut impl PlanQueue,
    free: u32,
    now: i64,
    reservations: &[Reservation],
) -> Option<(usize, PendingView)> {
    match *reservations {
        [] => queue.next(free, |p| p.nodes <= free),
        [r] => queue.next(free, |p| {
            (p.nodes <= free) & ((now + p.timelimit <= r.shadow) | (p.nodes <= r.extra))
        }),
        _ => queue.next(free, |p| harmless(p, free, now, reservations)),
    }
}

/// Whether starting `p` now delays no reserved job.
fn harmless(p: &PendingView, free: u32, now: i64, reservations: &[Reservation]) -> bool {
    p.nodes <= free
        && reservations
            .iter()
            .all(|r| now + p.timelimit <= r.shadow || p.nodes <= r.extra)
}

/// Books the start of a [`harmless`] job: it takes its nodes now, and out
/// of the spare capacity of every reservation it runs past.
fn backfill(p: &PendingView, free: &mut u32, now: i64, reservations: &mut [Reservation]) {
    *free -= p.nodes;
    for r in reservations {
        if now + p.timelimit > r.shadow {
            r.extra -= p.nodes;
        }
    }
}

/// The reservation of a blocked job needing `need` nodes: the earliest
/// instant — now, or a release in the merge of the sorted `ledger` and
/// `fresh` — by which `need` nodes are available beyond the `promised`
/// ones. `None` if the job can never run or no release satisfies it.
fn reserve(
    need: u32,
    free: u32,
    promised: u32,
    total_nodes: u32,
    now: i64,
    ledger: &[(i64, u32)],
    fresh: &[(i64, u32)],
) -> Option<Reservation> {
    if need > total_nodes {
        return None; // can never run; must not wedge the reservation chain
    }
    let mut avail = free;
    let mut shadow = now;
    let (mut ledger, mut fresh) = (ledger.iter().peekable(), fresh.iter().peekable());
    while avail.saturating_sub(promised) < need {
        let &(t, n) = match (ledger.peek(), fresh.peek()) {
            (Some(l), Some(f)) if l <= f => ledger.next()?,
            (Some(_), None) => ledger.next()?,
            _ => fresh.next()?,
        };
        avail += n;
        shadow = t;
    }
    Some(Reservation {
        shadow,
        extra: avail.saturating_sub(promised) - need,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pending::PendingRow;
    use crate::priority::PriorityWeights;
    use proptest::prelude::*;

    const EASY: BackfillPolicy = BackfillPolicy::Easy { reserve_depth: 1 };

    fn p(nodes: u32, timelimit: i64) -> PendingView {
        PendingView { nodes, timelimit }
    }

    #[test]
    fn everything_starts_when_it_fits() {
        let pending = [p(2, 100), p(3, 100)];
        let starts = plan_schedule(&pending, 8, 8, 0, &[], EASY);
        assert_eq!(starts, vec![0, 1]);
    }

    #[test]
    fn strict_priority_without_backfill() {
        // Head needs 8, only 4 free; the 1-node job behind it must wait.
        let pending = [p(8, 100), p(1, 10)];
        let starts = plan_schedule(&pending, 4, 8, 0, &[(50, 4)], BackfillPolicy::None);
        assert!(starts.is_empty());
    }

    #[test]
    fn easy_backfills_short_job_that_fits_before_shadow() {
        // 8 total, 4 free, a 4-node job releases at t=50 → head(8) shadow=50.
        // A 1-node job with limit 10 ends at 10 ≤ 50: backfill it.
        let pending = [p(8, 100), p(1, 10)];
        let starts = plan_schedule(&pending, 4, 8, 0, &[(50, 4)], EASY);
        assert_eq!(starts, vec![1]);
    }

    #[test]
    fn easy_rejects_job_that_would_delay_head() {
        // Same setup, but the backfill candidate runs past the shadow and
        // would eat nodes the head needs (extra at shadow = 0).
        let pending = [p(8, 100), p(1, 100)];
        let starts = plan_schedule(&pending, 4, 8, 0, &[(50, 4)], EASY);
        assert!(starts.is_empty());
    }

    #[test]
    fn easy_allows_long_job_in_spare_shadow_capacity() {
        // 10 total, 5 free; 5 running release at 50. Head needs 8 → shadow
        // 50, extra = 10 − 8 = 2. A 2-node long job fits in the extra.
        let pending = [p(8, 100), p(2, 1000)];
        let starts = plan_schedule(&pending, 5, 10, 0, &[(50, 5)], EASY);
        assert_eq!(starts, vec![1]);
    }

    #[test]
    fn extra_capacity_is_consumed_not_reused() {
        // Two 2-node long jobs, but only 2 extra nodes at the shadow: only
        // the first backfills.
        let pending = [p(8, 100), p(2, 1000), p(2, 1000)];
        let starts = plan_schedule(&pending, 5, 10, 0, &[(50, 5)], EASY);
        assert_eq!(starts, vec![1]);
    }

    #[test]
    fn shadow_accumulates_multiple_releases() {
        // 8 total, 0 free; releases at t=10 (2 nodes), t=20 (3), t=30 (3).
        // Head needs 6 → shadow = 20 (2+3 ≥ 6? no, 5 < 6 → t=30, 8 ≥ 6).
        let pending = [p(6, 100), p(2, 5)];
        let starts = plan_schedule(&pending, 0, 8, 0, &[(10, 2), (20, 3), (30, 3)], EASY);
        // Candidate needs 2 nodes but 0 are free now — nothing can start.
        assert!(starts.is_empty());
    }

    #[test]
    fn phase1_starts_consume_future_availability() {
        // 4 free; a 4-node limit-100 job starts in phase 1 and its release
        // becomes part of the timeline for the 6-node head behind it.
        let pending = [p(4, 100), p(6, 50)];
        let starts = plan_schedule(&pending, 4, 8, 0, &[(40, 4)], EASY);
        assert_eq!(starts, vec![0]);
    }

    #[test]
    fn oversized_job_cannot_wedge_the_queue() {
        // Head requests more nodes than exist; backfill continues behind it.
        let pending = [p(16, 100), p(1, 10)];
        let starts = plan_schedule(&pending, 4, 8, 0, &[(50, 4)], EASY);
        assert_eq!(starts, vec![1]);
    }

    #[test]
    fn deeper_reservations_protect_second_blocked_job() {
        // 8 total, 4 free, release of 4 at t=50.
        // blocked: A(8, shadow 50), B(4).
        // With depth 2, B gets a reservation too; candidate C(1, limit 10)
        // still backfills because it ends before both shadows.
        let pending = [p(8, 100), p(4, 100), p(1, 10)];
        let deep = BackfillPolicy::Easy { reserve_depth: 2 };
        let starts = plan_schedule(&pending, 4, 8, 0, &[(50, 4)], deep);
        assert_eq!(starts, vec![2]);
    }

    #[test]
    fn empty_queue_is_a_noop() {
        let starts = plan_schedule(&[], 8, 8, 0, &[], EASY);
        assert!(starts.is_empty());
    }

    #[test]
    fn unrunnable_head_does_not_hold_back_the_job_behind_it() {
        // Depth 2. The head can never run, so it gets no reservation and
        // nothing blocks B or C. (Counting the head as "reserved" offered
        // B to backfill against its own start-now reservation, which then
        // starved C.)
        let pending = [p(16, 100), p(2, 100), p(2, 1000)];
        let deep = BackfillPolicy::Easy { reserve_depth: 2 };
        let starts = plan_schedule(&pending, 4, 8, 0, &[(50, 4)], deep);
        assert_eq!(starts, vec![1, 2]);
    }

    #[test]
    fn reservations_behind_an_unrunnable_head_promise_the_right_nodes() {
        // Depth 3, 12 nodes, 4 free, 4 more at t=50 and at t=80. A can
        // never run. B(6) reserves t=50 with 2 spare; C(6) must count B's 6
        // nodes as promised — not A's 16 — which gives it t=80 with none
        // spare. X runs past both shadows and fits B's spare but not C's,
        // so only Y (done by t=40) backfills.
        let pending = [p(16, 100), p(6, 100), p(6, 100), p(1, 100), p(1, 40)];
        let deep = BackfillPolicy::Easy { reserve_depth: 3 };
        let starts = plan_schedule(&pending, 4, 12, 0, &[(50, 4), (80, 4)], deep);
        assert_eq!(starts, vec![4]);
        // With C unreserved (depth 2) X is free to use B's spare nodes.
        let starts = plan_schedule(
            &pending,
            4,
            12,
            0,
            &[(50, 4), (80, 4)],
            BackfillPolicy::Easy { reserve_depth: 2 },
        );
        assert_eq!(starts, vec![3, 4]);
    }

    #[test]
    fn harmless_job_behind_the_head_starts_instead_of_reserving() {
        // Depth 2. B ends long before A's shadow: it starts now rather
        // than taking the second reservation (at t=80) and waiting for it.
        let pending = [p(8, 100), p(2, 10)];
        let deep = BackfillPolicy::Easy { reserve_depth: 2 };
        let starts = plan_schedule(&pending, 4, 12, 0, &[(50, 4), (80, 4)], deep);
        assert_eq!(starts, vec![1]);
    }

    /// The planner written flat over a sorted slice — no queue trait, no
    /// ledger merge, no cut — as the oracle for the proptests below.
    fn oracle(
        pending: &[PendingView],
        mut free: u32,
        total: u32,
        now: i64,
        running: &[(i64, u32)],
        policy: BackfillPolicy,
    ) -> Vec<usize> {
        let mut starts = Vec::new();
        let mut timeline = running.to_vec();
        let mut at = 0;
        while at < pending.len() && pending[at].nodes <= free {
            free -= pending[at].nodes;
            timeline.push((now + pending[at].timelimit, pending[at].nodes));
            starts.push(at);
            at += 1;
        }
        let BackfillPolicy::Easy { reserve_depth } = policy else {
            return starts;
        };
        let mut reserved: Vec<(i64, u32)> = Vec::new(); // (shadow, extra)
        let mut promised = 0;
        let mut to_reserve = reserve_depth.max(1);
        for (i, job) in pending.iter().enumerate().skip(at) {
            let end = now + job.timelimit;
            let fits = job.nodes <= free
                && reserved
                    .iter()
                    .all(|&(shadow, extra)| end <= shadow || job.nodes <= extra);
            if fits {
                free -= job.nodes;
                for (shadow, extra) in &mut reserved {
                    if end > *shadow {
                        *extra -= job.nodes;
                    }
                }
                timeline.push((end, job.nodes));
                starts.push(i);
            } else if to_reserve > 0 {
                to_reserve -= 1;
                if job.nodes > total {
                    continue;
                }
                timeline.sort_unstable();
                let mut avail = free;
                let mut shadow = (avail.saturating_sub(promised) >= job.nodes).then_some(now);
                for &(t, n) in &timeline {
                    if shadow.is_some() {
                        break;
                    }
                    avail += n;
                    shadow = (avail.saturating_sub(promised) >= job.nodes).then_some(t);
                }
                if let Some(shadow) = shadow {
                    reserved.push((shadow, avail - promised - job.nodes));
                    promised += job.nodes;
                }
            }
        }
        starts
    }

    const POLICIES: [BackfillPolicy; 3] = [
        BackfillPolicy::None,
        EASY,
        BackfillPolicy::Easy { reserve_depth: 3 },
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The planner over a sorted slice equals the flat oracle.
        #[test]
        fn plan_matches_the_flat_oracle(
            jobs in prop::collection::vec((1u32..=20, 0usize..6), 0..40),
            running in prop::collection::vec((1i64..50_000, 1u32..=8), 0..12),
            free in 0u32..=16,
            down in 0u32..=6,
        ) {
            const LIMITS: [i64; 6] = [60, 600, 3_600, 20_000, 50_000, 100_000];
            let pending: Vec<_> = jobs.iter().map(|&(n, l)| p(n, LIMITS[l])).collect();
            for policy in POLICIES {
                let got = plan_schedule(&pending, free, 16 - down, 10, &running, policy);
                let want = oracle(&pending, free, 16 - down, 10, &running, policy);
                prop_assert_eq!(got, want, "{:?}", policy);
            }
        }

        /// The pass queue plans exactly what sorting the pending rows first
        /// and planning over the slice does: duplicated priorities (FIFO
        /// and id tie-breaks decide, ids in no particular order),
        /// `sched_depth` below the backlog down to cutting every row but
        /// the head, no backfill, deep reservations, nodes down, narrow
        /// jobs that phase 1 starts by the dozen, and a backlog of harmless
        /// jobs (narrow and short, every release far off) behind a few wide
        /// ones, so the backfill phase reads many rows and the depth cut
        /// falls inside a run of equal ranks; up to 140 rows.
        #[test]
        fn pass_queue_matches_sort_then_plan(
            jobs in prop::collection::vec(
                (0u32..4, 0i64..3, 1u32..=20, 0usize..6), 0..140),
            running in prop::collection::vec((1i64..50_000, 1u32..=8), 0..12),
            free in 0u32..=16,
            down in 0u32..=6,
            depth in 1usize..150,
            shape in 0u32..3,
        ) {
            let rows: Vec<(f64, PendingRow)> = jobs
                .iter()
                .enumerate()
                .map(|(i, &(prio, submit, n, l))| {
                    let (nodes, limit) = match shape {
                        0 => (n, l),
                        1 => (1 + n % 2, l),
                        _ => (if n > 12 { n } else { 1 + n % 2 }, l % 2),
                    };
                    (f64::from(prio) * 0.5, row(submit, i, nodes, limit))
                })
                .collect();
            let far = if shape == 2 { 100_000 } else { 0 };
            let running: Vec<_> = running.iter().map(|&(t, n)| (t + far, n)).collect();
            let mut ledger = running.clone();
            ledger.sort_unstable();
            for policy in POLICIES {
                let want = sort_then_plan(&rows, depth, free, 16 - down, &running, policy);
                let got = pass_plan(&rows, depth, free, 16 - down, &ledger, policy);
                prop_assert_eq!(&got, &want, "{:?}", policy);
            }
        }
    }

    const LIMITS: [i64; 6] = [60, 600, 3_600, 20_000, 50_000, 100_000];

    /// Row `i` of a drawn queue; ids are unique but not in row order.
    fn row(submit: i64, i: usize, nodes: u32, limit: usize) -> PendingRow {
        let n = i as u64;
        PendingRow {
            idx: i,
            id: (n * 37) % 101 + 1 + 101 * (n / 101),
            submit,
            timelimit: LIMITS[limit],
            nodes,
            user: 0,
            user_slot: 0,
            size_term: 0.0,
        }
    }

    /// What the planner sees of a row.
    fn view(r: &PendingRow) -> PendingView {
        p(r.nodes, r.timelimit)
    }

    /// A pending table of `rows` and the ranking under which each row's
    /// priority is its drawn one: every weight but size is 0, and the
    /// drawn priority is the row's size term.
    fn table(rows: &[(f64, PendingRow)]) -> (PendingTable, Ranking<'static>) {
        let mut table = PendingTable::default();
        for &(prio, r) in rows {
            table.push(PendingRow {
                size_term: prio,
                ..r
            });
        }
        let weights = PriorityWeights {
            age: 0.0,
            fairshare: 0.0,
            ..PriorityWeights::default()
        };
        let ranking = Ranking {
            weights,
            now: 10,
            factors: &[1.0],
        };
        (table, ranking)
    }

    /// The oracle: sort every row by `(rank, submit, id)`, keep the first
    /// `depth`, plan over the slice, and report row numbers.
    fn sort_then_plan(
        rows: &[(f64, PendingRow)],
        depth: usize,
        free: u32,
        total: u32,
        running: &[(i64, u32)],
        policy: BackfillPolicy,
    ) -> Vec<usize> {
        let mut sorted: Vec<usize> = (0..rows.len()).collect();
        sorted.sort_by_key(|&at| {
            let (prio, r) = rows[at];
            (rank(prio), r.submit, r.id)
        });
        sorted.truncate(depth);
        let views: Vec<_> = sorted.iter().map(|&at| view(&rows[at].1)).collect();
        plan_schedule(&views, free, total, 10, running, policy)
            .into_iter()
            .map(|at| sorted[at])
            .collect()
    }

    /// The row numbers of `rows` sorted by `(rank, submit, id)`, as the
    /// oracle sorts them.
    fn key_order(rows: &[(f64, PendingRow)]) -> Vec<usize> {
        let mut sorted: Vec<usize> = (0..rows.len()).collect();
        sorted.sort_by_key(|&at| {
            let (prio, r) = rows[at];
            (rank(prio), r.submit, r.id)
        });
        sorted
    }

    /// The simulator's way: a [`PassQueue`] over the rows.
    fn pass_plan(
        rows: &[(f64, PendingRow)],
        depth: usize,
        free: u32,
        total: u32,
        ledger: &[(i64, u32)],
        policy: BackfillPolicy,
    ) -> Vec<usize> {
        let (mut table, ranking) = table(rows);
        let mut queue = PassQueue::new(&mut table, ranking, depth);
        let mut starts = Vec::new();
        plan_queue(
            &mut queue,
            free,
            total,
            10,
            ledger,
            policy,
            &mut PlanScratch::default(),
            &mut starts,
        );
        starts
    }

    /// The shapes the property must reach, each pinned by its outcome:
    /// depth 1 starts only the head; phase 1 spends the depth; a filtered
    /// read outside the cut ends the queue, where the uncut plan starts
    /// more; the cut falls inside a run of equal ranks, so the tie count
    /// decides; fewer free nodes than the narrowest row end the queue; and
    /// phase 1 starts more than `ilog2(n)` jobs.
    #[test]
    fn pass_queue_cuts_and_sorts_like_sort_then_plan() {
        // Four priorities, ten rows each; all but five rows are narrow.
        let rows: Vec<(f64, PendingRow)> = (0..40)
            .map(|i| {
                let nodes = if i % 8 == 3 { 12 } else { 1 + i % 2 };
                (
                    f64::from(i % 4) * 0.5,
                    row(i64::from(i % 3), i as usize, nodes, i as usize % 6),
                )
            })
            .collect();
        // Far off, every narrow job ends before the shadow; near, only the
        // seven one-node jobs of limit 60 do, and no node is spare there.
        let far: &[(i64, u32)] = &[(200_000, 4), (400_000, 8)];
        let near: &[(i64, u32)] = &[(100, 11)];
        // Every row one node wide, and every row two wide.
        let wide = |nodes| -> Vec<(f64, PendingRow)> {
            let rows = rows.iter();
            rows.map(|&(prio, r)| (prio, PendingRow { nodes, ..r }))
                .collect()
        };
        let (narrow, two) = (wide(1), wide(2));
        let easy: &[BackfillPolicy] = &[EASY, BackfillPolicy::Easy { reserve_depth: 3 }];
        let one: &[BackfillPolicy] = &[EASY];
        // The plan of each policy, checked against the oracle, and the
        // plan without the depth cut.
        let plans = |rows: &[(f64, PendingRow)], depth, free, ledger, policies: &[_]| {
            let plans = policies.iter().map(|&policy| {
                let want = sort_then_plan(rows, depth, free, 16, ledger, policy);
                let got = pass_plan(rows, depth, free, 16, ledger, policy);
                assert_eq!(got, want, "depth {depth}, free {free}, {policy:?}");
                let uncut = sort_then_plan(rows, usize::MAX, free, 16, ledger, policy);
                (got, uncut)
            });
            plans.collect::<Vec<_>>()
        };
        // The key order of every shape: a row's nodes do not move its rank.
        let order = key_order(&rows);
        let rank_of = |at: usize| rank(rows[at].0);

        // The head starts if it fits, and nothing else does.
        for (got, uncut) in plans(&narrow, 1, 3, far, &POLICIES) {
            assert_eq!(got, order[..1]);
            assert_eq!(uncut, order[..3]);
        }
        for (got, uncut) in plans(&rows, 1, 3, far, easy) {
            assert!(got.is_empty(), "the head blocks");
            assert!(!uncut.is_empty());
        }
        for (got, uncut) in plans(&narrow, 4, 16, far, &POLICIES) {
            assert_eq!(got, order[..4], "phase 1 spends the depth");
            assert_eq!(uncut, order[..16]);
        }
        // The twelve-node head blocks, and the backfill phase finds a
        // harmless row outside the cut, which the uncut plan starts.
        for (depth, free, ledger, policies) in
            [(6, 1, near, easy), (6, 9, far, one), (6, 13, far, one)]
        {
            for (got, uncut) in plans(&rows, depth, free, ledger, policies) {
                assert!(got.iter().all(|at| order[..depth].contains(at)));
                assert_ne!(got, uncut, "depth {depth}, free {free}");
            }
        }
        // The cut splits a run of rows of one rank. The backfill phase
        // starts one of them inside the cut, behind an unread one ahead of
        // it, and the uncut plan one outside it: counting every row of the
        // rank as ahead, or none, moves the plan. At depth 8 that row is
        // the first outside the cut, with exactly `depth` rows below it.
        for depth in [6, 8] {
            let tied = rank_of(order[depth]);
            assert_eq!(rank_of(order[depth - 1]), tied);
            for (got, uncut) in plans(&rows, depth, 11, far, one) {
                assert!(got.contains(&order[5]) && !got.contains(&order[3]));
                assert!(uncut.contains(&order[8]) && rank_of(order[8]) == tied);
            }
        }
        // Fewer free nodes than the narrowest row asks for.
        for (got, _) in plans(&rows, 40, 0, far, easy) {
            assert!(got.is_empty());
        }
        for (got, _) in plans(&narrow, 40, 5, far, easy) {
            assert_eq!(got, order[..5], "phase 1 fills the free nodes");
        }
        for (got, _) in plans(&two, 40, 5, far, easy) {
            assert_eq!(
                got,
                order[..2],
                "one node is left, and every row asks for two"
            );
        }
        for (got, _) in plans(&narrow, 25, 16, far, &POLICIES) {
            assert_eq!(got, order[..16]);
            assert!(
                got.len() > 40u32.ilog2() as usize,
                "phase 1 past ilog2(n) reads"
            );
        }
    }

    #[test]
    fn rank_orders_like_total_cmp_on_the_negated_priority() {
        let priorities = [0.0, 1e-300, 0.5, 1.0, 1.0 + f64::EPSILON, 1700.0, 1e300];
        for a in priorities {
            for b in priorities {
                assert_eq!(rank(a).cmp(&rank(b)), (-a).total_cmp(&-b), "{a} vs {b}");
                assert_ne!(rank(a), GONE);
            }
        }

        // The compare-select is the arithmetic-shift fold, on both signs.
        let shift = |priority: f64| {
            let bits = (-priority).to_bits() as i64;
            bits ^ (((bits >> 63) as u64) >> 1) as i64
        };
        let subnormal = f64::MIN_POSITIVE / 4.0;
        let edges = [
            0.0,
            subnormal,
            f64::from_bits(1),
            1.0 - f64::EPSILON / 2.0,
            1.0,
            1.0 + f64::EPSILON,
            1e300,
            f64::MAX,
        ];
        for p in edges.into_iter().flat_map(|p| [p, -p]) {
            assert_eq!(rank(p), shift(p), "{p:e}");
            assert_ne!(rank(p), GONE, "{p:e}");
        }

        // The pass's age, `now as f64 - submit as f64`, is priority()'s
        // `(now - submit) as f64` bit for bit for times up to 2^52 in
        // magnitude, and so is the rank the table gives the row. An
        // `age_max` far past every age keeps the age term unsaturated.
        let weights = PriorityWeights {
            age_max: 1 << 60,
            ..PriorityWeights::default()
        };
        let mut fairshare = crate::priority::FairshareTracker::new(1e6);
        let slot = fairshare.slot(0);
        fairshare.record(slot, 3.5e5);
        fairshare.enqueue(slot);
        fairshare.refresh();
        let usage = fairshare.normalized_usage(slot);
        let big = 1i64 << 52;
        let times = [-big, -big + 1, -1, 0, 1, 12_345_678_901, big - 3, big];
        for now in times {
            for submit in times {
                let age = now as f64 - submit as f64;
                assert_eq!(
                    age.to_bits(),
                    ((now - submit) as f64).to_bits(),
                    "{now} - {submit}"
                );
                let mut table = PendingTable::default();
                table.push(PendingRow {
                    idx: 0,
                    id: 1,
                    submit,
                    timelimit: 60,
                    nodes: 3,
                    user: 0,
                    user_slot: slot,
                    size_term: crate::priority::size_term(&weights, 3, 8),
                });
                let ranking = Ranking {
                    weights,
                    now,
                    factors: fairshare.factors(),
                };
                let want = rank(crate::priority::priority(
                    &weights,
                    now - submit,
                    3,
                    8,
                    usage,
                ));
                let (_, ranks) = table.rank(&ranking);
                assert_eq!(ranks[0], want, "now {now}, submit {submit}");
            }
        }
    }
}
