//! Scheduling-plan core: priority order + EASY backfill.
//!
//! One planner (`plan_queue`). Given the pending queue in priority
//! order, the free-node count and the *estimated* release times of
//! running jobs, it decides which pending jobs start right now.
//! [`plan_schedule`] / [`plan_schedule_into`] feed it a slice that is
//! already sorted (outside callers, the benchmarks); the simulator's
//! scheduling pass — on either clock — feeds it a `PassQueue` over the
//! columnar pending table itself: each row's rank is computed once, into
//! the table's rank column by two vectorised loops over its columns, a
//! minimum fold finds the head, and the queue is put in priority order
//! only as far as the planner reads — the jobs phase 1 starts are scans
//! of the rank column, and only the jobs that survive the planner's first
//! backfill cut are built from the columns and ordered (by a
//! `LazyOrder`). The `sched_depth` cut takes the same path at every queue
//! depth: it is a budget of reads, and only the few survivors are checked
//! against it.
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

/// The pending queue as the planner consumes it: strictly in priority
/// order, but only as far as it reads.
pub(crate) trait PlanQueue {
    /// The next job in priority order as `(handle, view)`; the handle is
    /// what the plan reports in `starts`.
    fn next(&mut self) -> Option<(usize, PendingView)>;

    /// Drops not-yet-read jobs that fail `keep`, where that saves ordering
    /// them. The planner only passes a test whose failures are sure to
    /// fail again when it reaches them, so dropping is optional; `keep`
    /// fails every job wider than `free`.
    fn retain_rest(&mut self, free: u32, keep: impl FnMut(&PendingView) -> bool);
}

/// A queue that is already fully ordered: the public entry points' case.
struct SortedSlice<'a> {
    pending: &'a [PendingView],
    cursor: usize,
}

impl PlanQueue for SortedSlice<'_> {
    fn next(&mut self) -> Option<(usize, PendingView)> {
        let at = self.cursor;
        let view = *self.pending.get(at)?;
        self.cursor += 1;
        Some((at, view))
    }

    fn retain_rest(&mut self, _free: u32, _keep: impl FnMut(&PendingView) -> bool) {}
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

/// The rank a [`PassQueue`] writes over a row it handed out: only a NaN
/// folds to it.
const GONE: i64 = i64::MAX;

/// One job as [`LazyOrder`] holds it: its sort key, the handle the plan
/// reports for it, and what the planner sees of it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Queued {
    /// `(rank, submit, id)`, ascending = descending priority with FIFO,
    /// then id, tie-breaks. Ids are unique, which makes the order total:
    /// selecting minima one at a time yields exactly the sequence a full
    /// sort would.
    key: (i64, i64, u64),
    handle: usize,
    view: PendingView,
}

impl Queued {
    #[inline]
    fn new(handle: usize, rank: i64, rows: &Rows) -> Self {
        let (submit, id) = rows.tie(handle);
        Self {
            key: (rank, submit, id),
            handle,
            view: rows.view(handle),
        }
    }
}

/// Reusable working memory of a [`PassQueue`], so a warm scheduling pass
/// allocates nothing. (The rank column is the pending table's own.)
#[derive(Debug, Default)]
pub(crate) struct PassScratch {
    /// The rows still in play once the queue leaves the rank column.
    survivors: Vec<Queued>,
}

/// Which branch of the depth cut a [`PassQueue`] took when it left the
/// rank column.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cut {
    /// Every live row was inside the cut (or the queue never left).
    Uncut,
    /// No row fits in the free nodes: the queue ended without a build.
    NoneFits,
    /// The scans ran out: every live row built, then selected by key.
    KeepAll,
    /// A few survivors, each kept by counting the live keys below it.
    Counted,
    /// Survivors kept by a threshold rank selected in the rank column;
    /// `tied` if the threshold's ties were settled by their full keys.
    Threshold { tied: bool },
}

/// The pending table as one scheduling pass reads it, in priority order
/// and only as far as the planner reads.
///
/// [`PassQueue::new`] ranks every row into the table's rank column, in
/// two loops over its columns that vectorise ([`PendingTable::rank`]),
/// and finds the minimum key, the *head*: a minimum fold over the rank
/// column, then the tie-breaks among the rows of that rank only. Until
/// the planner's first [`PlanQueue::retain_rest`], the queue is that rank
/// column: the head is handed out for free and every later read is one
/// such scan. A congested pass reads the head, maybe a few reserved jobs
/// behind it, and then cuts the rest to the jobs that can backfill — so
/// only those survivors are built as [`Queued`] from the table's columns
/// and ordered, by a [`LazyOrder`]. A pass that starts hundreds of jobs
/// before any cut stops scanning once the scans spent reach `log2` of
/// what is left, and hands the whole rest to the [`LazyOrder`], which
/// sorts it once.
///
/// The `depth` cut (Slurm's `bf_max_job_test`: only the `depth` best keys
/// are in play) is a budget of reads, not a pass over the table. Rows are
/// handed out in key order, so the k-th read is inside the cut exactly
/// when k ≤ `depth`: the queue ends once its `room` is spent. A row left
/// in the rank column is inside the cut if fewer than `room` live keys
/// sort below it, and only the survivors of the backfill cut are checked:
/// up to eight by counting the live ranks below each, more against the
/// `room`-th smallest live rank, selected in the rank column in place. A
/// build after the scans run out keeps every live row, and selects the
/// `room` best of them by key. A backfill cut that leaves fewer free nodes
/// than the narrowest row asks for ends the queue without a build.
pub(crate) struct PassQueue<'a> {
    ranks: &'a mut [i64],
    survivors: &'a mut Vec<Queued>,
    rows: Rows<'a>,
    ranking: Ranking<'a>,
    /// The minimum key, until handed out.
    head: Option<usize>,
    /// Rows not yet handed out, while in the rank column.
    live: usize,
    /// The fewest nodes any row asks for: no job fits in fewer.
    narrowest: u32,
    /// `depth`, at least 1: reads of the whole pass inside the cut.
    depth: usize,
    /// Reads left inside the cut.
    room: usize,
    scans: u32,
    /// `Some` once the queue has moved to `survivors`.
    order: Option<LazyOrder>,
    #[cfg(test)]
    cut: Cut,
}

impl<'a> PassQueue<'a> {
    /// Queues the rows of `table` as `ranking` ranks them, cut to the
    /// `depth` best; the plan's handles are positions in the table.
    pub(crate) fn new(
        scratch: &'a mut PassScratch,
        table: &'a mut PendingTable,
        ranking: Ranking<'a>,
        depth: usize,
    ) -> Self {
        let narrowest = table.min_nodes();
        let (rows, ranks) = table.rank(&ranking);
        debug_assert!(
            !ranks.contains(&GONE),
            "a finite priority never ranks as GONE"
        );
        let survivors = &mut scratch.survivors;
        // Room for every row, so it grows with the table: a build after
        // the scans run out copies every live row.
        survivors.clear();
        survivors.reserve(rows.len());
        let depth = depth.max(1);
        let mut queue = Self {
            ranks,
            survivors,
            rows,
            ranking,
            head: None,
            live: rows.len(),
            narrowest,
            depth,
            room: depth,
            scans: 0,
            order: None,
            #[cfg(test)]
            cut: Cut::Uncut,
        };
        if queue.live > 0 {
            queue.head = Some(queue.scan());
        }
        queue
    }

    /// The live row of minimum key: a minimum fold over the rank column,
    /// then the tie-breaks among the rows of that rank only. A count (which
    /// vectorises) of the minimum behind the first row holding it skips
    /// the tie loop when there is no tie.
    fn scan(&self) -> usize {
        let best = self.ranks.iter().copied().fold(GONE, i64::min);
        let first = self.ranks.iter().position(|&rank| rank == best);
        let first = first.expect("a live row holds the minimum rank");
        let behind = &self.ranks[first + 1..];
        if behind.iter().filter(|&&rank| rank == best).count() == 0 {
            return first;
        }
        let mut min = first;
        for (at, &rank) in self.ranks.iter().enumerate().skip(first + 1) {
            if rank == best && self.rows.tie(at) < self.rows.tie(min) {
                min = at;
            }
        }
        min
    }

    /// Moves the live rows that pass `keep` to `survivors`, leaving the
    /// rank column for good. Whether a row survives is data no branch
    /// predictor guesses, so the test runs without a branch over 64 rows
    /// at a time into a mask, and only its set bits are built.
    fn build(&mut self, mut keep: impl FnMut(&PendingView) -> bool) {
        self.survivors.clear();
        let mut views = self.rows.views();
        for (block, ranks) in self.ranks.chunks(64).enumerate() {
            let mut mask = 0u64;
            for (bit, (&rank, view)) in ranks.iter().zip(views.by_ref()).enumerate() {
                mask |= u64::from((rank != GONE) & keep(&view)) << bit;
            }
            while mask != 0 {
                let at = block * 64 + mask.trailing_zeros() as usize;
                self.survivors
                    .push(Queued::new(at, self.ranks[at], &self.rows));
                mask &= mask - 1;
            }
        }
        self.head = None;
        self.order = Some(LazyOrder {
            scans: self.scans,
            ..LazyOrder::default()
        });
    }

    /// Drops the survivors of a filtered [`build`](Self::build) that sort
    /// outside the cut: those with `room` or more live keys below them.
    /// Needs `live > room > 0` and the rank column as the build left it.
    fn cut(&mut self) {
        let Self {
            ranks,
            survivors,
            rows,
            room,
            ..
        } = self;
        let room = *room;
        // The live ranks below `rank`, and those equal to it.
        let counts = |ranks: &[i64], rank: i64| {
            ranks.iter().fold((0, 0), |(below, equal), &r| {
                (
                    below + usize::from(r < rank),
                    equal + usize::from(r == rank),
                )
            })
        };
        if survivors.len() <= 8 {
            #[cfg(test)]
            {
                self.cut = Cut::Counted;
            }
            survivors.retain(|s| {
                let (below, equal) = counts(ranks, s.key.0);
                if below + equal <= room {
                    return true;
                }
                // The tie-breaks decide among the rows of this rank.
                let ahead = ranks
                    .iter()
                    .enumerate()
                    .filter(|&(at, &rank)| rank == s.key.0 && rows.tie(at) < (s.key.1, s.key.2))
                    .count();
                below + ahead < room
            });
            return;
        }
        // The `room`-th smallest live rank: read rows are GONE and sort
        // last. Survivors ranked below it are in, those above it out.
        let threshold = *ranks.select_nth_unstable(room - 1).1;
        let (below, equal) = counts(ranks, threshold);
        let tied = below + equal > room && survivors.iter().any(|s| s.key.0 == threshold);
        #[cfg(test)]
        {
            self.cut = Cut::Threshold { tied };
        }
        let last = if tied {
            self.last_tie_inside(threshold)
        } else {
            (i64::MAX, u64::MAX)
        };
        self.survivors.retain(|s| {
            s.key.0 < threshold || (s.key.0 == threshold && (s.key.1, s.key.2) <= last)
        });
    }

    /// The tie-breaks of the last row of rank `threshold` inside the cut,
    /// once the rank column is scrambled by the selection: every rank is
    /// computed again, row by row. Read rows sort below every live row, so
    /// a row is inside exactly when fewer than `depth` rows, read or live,
    /// sort below it. The dead rank column holds the positions of the rows
    /// of that rank.
    fn last_tie_inside(&mut self, threshold: i64) -> (i64, u64) {
        let (mut below, mut tied) = (0, 0);
        for at in 0..self.rows.len() {
            match self.rows.rank(at, &self.ranking).cmp(&threshold) {
                std::cmp::Ordering::Less => below += 1,
                std::cmp::Ordering::Equal => {
                    self.ranks[tied] = at as i64;
                    tied += 1;
                }
                std::cmp::Ordering::Greater => {}
            }
        }
        let rows = self.rows;
        let tie_of = |at: &i64| rows.tie(*at as usize);
        let last = *self.ranks[..tied]
            .select_nth_unstable_by_key(self.depth - below - 1, tie_of)
            .1;
        tie_of(&last)
    }
}

impl PlanQueue for PassQueue<'_> {
    fn next(&mut self) -> Option<(usize, PendingView)> {
        if self.room == 0 {
            return None; // the rest is outside the cut
        }
        if let Some(order) = &mut self.order {
            let job = order.next(self.survivors)?;
            self.room -= 1;
            return Some((job.handle, job.view));
        }
        if self.live == 0 {
            return None;
        }
        let at = match self.head.take() {
            Some(head) => head,
            None if self.scans < self.live.ilog2() => {
                self.scans += 1;
                self.scan()
            }
            None => {
                self.build(|_| true);
                if self.live > self.room {
                    #[cfg(test)]
                    {
                        self.cut = Cut::KeepAll;
                    }
                    let room = self.room;
                    self.survivors
                        .select_nth_unstable_by_key(room - 1, |q| q.key);
                    self.survivors.truncate(room);
                }
                return self.next();
            }
        };
        self.ranks[at] = GONE;
        self.live -= 1;
        self.room -= 1;
        Some((at, self.rows.view(at)))
    }

    fn retain_rest(&mut self, free: u32, keep: impl FnMut(&PendingView) -> bool) {
        if self.room == 0 {
            return; // nothing more is read
        }
        match &mut self.order {
            None if free < self.narrowest => {
                // No job fits, so none passes `keep`: the queue ends here,
                // with no row built.
                self.room = 0;
                #[cfg(test)]
                {
                    self.cut = Cut::NoneFits;
                }
            }
            None => {
                self.build(keep);
                if self.live > self.room {
                    self.cut();
                }
            }
            Some(order) => order.retain_rest(self.survivors, keep),
        }
    }
}

/// An unordered run of [`Queued`] jobs put in priority order only as far
/// as it is read.
///
/// Invariant: `order[..cursor]`, the jobs handed out, is the **sorted
/// prefix** — exactly the `cursor` smallest keys, ascending, i.e. the jobs
/// a full sort would put first, in that order. `order[cursor..]` holds the
/// rest: in no particular order until `rest_sorted`, ascending after.
///
/// The prefix grows one linear minimum-scan at a time. Once the scans
/// spent reach `log2` of what is left, the rest is sorted once — so a run
/// never costs more than the full sort.
#[derive(Default)]
struct LazyOrder {
    cursor: usize,
    rest_sorted: bool,
    scans: u32,
}

impl LazyOrder {
    fn next(&mut self, order: &mut [Queued]) -> Option<Queued> {
        let rest = &mut order[self.cursor..];
        if rest.is_empty() {
            return None;
        }
        if !self.rest_sorted {
            // Bring the minimum of the rest to its front.
            if self.scans < rest.len().ilog2() {
                self.scans += 1;
                let mut min = 0;
                for at in 1..rest.len() {
                    if rest[at].key < rest[min].key {
                        min = at;
                    }
                }
                rest.swap(0, min);
            } else {
                rest.sort_unstable_by_key(|q| q.key);
                self.rest_sorted = true;
            }
        }
        self.cursor += 1;
        Some(rest[0])
    }

    fn retain_rest(&mut self, order: &mut Vec<Queued>, mut keep: impl FnMut(&PendingView) -> bool) {
        if self.rest_sorted {
            return; // the ordering is already paid for: nothing to save
        }
        let mut kept = self.cursor;
        for at in self.cursor..order.len() {
            let job = order[at];
            if keep(&job.view) {
                order[kept] = job;
                kept += 1;
            }
        }
        order.truncate(kept);
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
/// Before phase 3 reads the queue, and again after every start, the unread
/// rest is cut to the jobs that are harmless against the *current* `free`
/// and reservations. The cut is exact: `free` and every `extra` only
/// shrink during phase 3, so a job failing now fails when its turn comes,
/// and a failing job changes nothing — dropping it cannot alter any later
/// decision. It is what lets a lazy queue order only the survivors.
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
        let Some((handle, p)) = queue.next() else {
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
        let Some((handle, p)) = blocked.take().or_else(|| queue.next()) else {
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
    cut_rest(queue, free, now, reservations);
    while let Some((handle, p)) = queue.next() {
        if harmless(&p, free, now, reservations) {
            backfill(&p, &mut free, now, reservations);
            starts.push(handle);
            cut_rest(queue, free, now, reservations);
        }
    }
}

/// Cuts the unread rest of `queue` to the jobs [`harmless`] against `free`
/// and `reservations`. The common cases, no reservation and one, test
/// without a branch per job.
fn cut_rest(queue: &mut impl PlanQueue, free: u32, now: i64, reservations: &[Reservation]) {
    match *reservations {
        [] => queue.retain_rest(free, |p| p.nodes <= free),
        [r] => queue.retain_rest(free, |p| {
            (p.nodes <= free) & ((now + p.timelimit <= r.shadow) | (p.nodes <= r.extra))
        }),
        _ => queue.retain_rest(free, |p| harmless(p, free, now, reservations)),
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
        /// jobs that phase 1 starts by the dozen, past `ilog2(n)` scans, so
        /// the rest is sorted, and a backlog of harmless jobs (narrow and
        /// short, every release far off) behind a few wide ones, so more
        /// than eight survive the backfill cut and the depth cut falls
        /// inside a run of equal ranks; up to 140 rows, so a build spans
        /// more than one 64-row mask.
        #[test]
        fn lazy_order_matches_sort_then_plan(
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
            let mut scratch = PassScratch::default();
            for policy in POLICIES {
                let want = sort_then_plan(&rows, depth, free, 16 - down, &running, policy);
                let (got, _) =
                    pass_plan(&rows, depth, free, 16 - down, &ledger, policy, &mut scratch);
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

    /// How a [`PassQueue`] ended: whether phase 1 spent the whole cut in
    /// the rank column, which cut its build took, and whether its rest
    /// ended sorted.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Ended {
        spent: bool,
        cut: Cut,
        sorted: bool,
    }

    /// The simulator's way: a [`PassQueue`] over the rows. Also reports
    /// how the queue ended.
    fn pass_plan(
        rows: &[(f64, PendingRow)],
        depth: usize,
        free: u32,
        total: u32,
        ledger: &[(i64, u32)],
        policy: BackfillPolicy,
        scratch: &mut PassScratch,
    ) -> (Vec<usize>, Ended) {
        let (mut table, ranking) = table(rows);
        let mut queue = PassQueue::new(scratch, &mut table, ranking, depth);
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
        let ended = Ended {
            spent: queue.room == 0 && queue.order.is_none() && queue.cut == Cut::Uncut,
            cut: queue.cut,
            sorted: queue.order.is_some_and(|o| o.rest_sorted),
        };
        (starts, ended)
    }

    /// The shapes the property must reach, pinned: every row but the head
    /// cut; the cut spent by phase 1 inside the rank column; a few
    /// survivors of the backfill cut, counted against the depth cut; more
    /// than eight, cut at a threshold rank whose ties straddle it, and at
    /// one whose ties all fit; a phase 1 that starts more than `ilog2(n)`
    /// jobs, so every live row is built, selected by key, and the rest
    /// sorted; and a backfill cut with no free node, which builds nothing.
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
        // Every row one node wide: phase 1 starts sixteen.
        let narrow: Vec<(f64, PendingRow)> = rows
            .iter()
            .map(|&(prio, r)| (prio, PendingRow { nodes: 1, ..r }))
            .collect();
        let mut scratch = PassScratch::default();
        let easy: &[BackfillPolicy] = &[EASY, BackfillPolicy::Easy { reserve_depth: 3 }];
        let one: &[BackfillPolicy] = &[EASY];
        let (tied, untied) = (
            Cut::Threshold { tied: true },
            Cut::Threshold { tied: false },
        );
        // The branch each shape takes; `None`: phase 1 spends the cut in
        // the rank column.
        let cases: [(_, _, _, _, &[BackfillPolicy], _); 7] = [
            (&rows, 1, 3, far, &POLICIES, None),
            (&rows, 4, 16, far, &POLICIES, None),
            (&rows, 6, 1, near, easy, Some(Cut::Counted)),
            (&rows, 6, 9, far, one, Some(tied)),
            (&rows, 6, 13, far, one, Some(untied)),
            (&narrow, 25, 16, far, &POLICIES, Some(Cut::KeepAll)),
            (&rows, 40, 0, far, easy, Some(Cut::NoneFits)),
        ];
        for (rows, depth, free, ledger, policies, branch) in cases {
            for &policy in policies {
                let want = sort_then_plan(rows, depth, free, 16, ledger, policy);
                let (got, ended) = pass_plan(rows, depth, free, 16, ledger, policy, &mut scratch);
                let case = format!("depth {depth}, free {free}, {policy:?}: {ended:?}");
                assert_eq!(got, want, "{case}");
                match branch {
                    None => assert!(ended.spent, "phase 1 spends the cut: {case}"),
                    Some(cut) => assert_eq!(ended.cut, cut, "{case}"),
                }
                match branch {
                    None if depth == 1 => assert!(got.len() <= 1, "only the head: {case}"),
                    Some(Cut::Counted | Cut::Threshold { .. }) => {
                        let uncut = sort_then_plan(rows, usize::MAX, free, 16, ledger, policy);
                        assert_ne!(got, uncut, "the cut drops a job that would start: {case}");
                    }
                    Some(Cut::KeepAll) => {
                        assert!(got.len() > (depth as u32).ilog2() as usize);
                        assert!(ended.sorted, "phase 1 past ilog2(n) scans sorts the rest");
                    }
                    _ => {}
                }
            }
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
                let (rows, ranks) = table.rank(&ranking);
                assert_eq!(ranks[0], want, "now {now}, submit {submit}");
                assert_eq!(rows.rank(0, &ranking), want, "now {now}, submit {submit}");
            }
        }
    }
}
