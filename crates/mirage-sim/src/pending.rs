//! The pending table: the queue of jobs waiting to start, in arrival
//! order, stored column by column.
//!
//! Every column is a stripe of one buffer (`COLUMNS` stripes of equal
//! room), so the table grows as one allocation, doubling like a `Vec` of
//! rows would. Cells are `i64`: integer columns hold their value, `f64`
//! columns their bits. The scheduling pass ranks the whole table in two
//! loops over contiguous columns that vectorise: one gathers each row's
//! fair-share factor into the rank column (the table's last stripe,
//! scratch that is never copied), one turns it into the rank with the
//! row's `submit` (held as `f64` too, since AVX2 cannot convert an `i64`
//! lane) and size term ([`PendingTable::rank`]). A pass then drops the few
//! rows it started by shifting only the rows on the shorter side of them
//! ([`PendingTable::remove`]), keeping arrival order: the snapshot's queue
//! order, which the state encoder reads, is arrival order.

use std::fmt;

use crate::backfill::{rank, PendingView};
use crate::priority::{priority_from_terms, PriorityWeights};
use crate::snapshot::QueuedJobView;

/// One pending job as the scheduling pass, [`crate::Simulator::sample_into`]
/// and [`crate::Simulator::user_usage`] read it: everything they need,
/// copied out of the job arena at arrival, so they stream the table's
/// columns instead of chasing a job per row. Nothing here changes while
/// the job pends (`submit` survives an eviction, so a retry's row is older
/// than its neighbours).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PendingRow {
    /// Arena index of the job.
    pub(crate) idx: usize,
    pub(crate) id: u64,
    pub(crate) submit: i64,
    pub(crate) timelimit: i64,
    pub(crate) nodes: u32,
    pub(crate) user: u32,
    pub(crate) user_slot: u32,
    /// The job's constant [`crate::priority::size_term`] of the priority.
    pub(crate) size_term: f64,
}

// The stripes, in buffer order. `SUBMIT_F` is `submit as f64`: exact, as
// every time is below 2^53 seconds in magnitude.
const IDX: usize = 0;
const ID: usize = 1;
const SUBMIT: usize = 2;
const SUBMIT_F: usize = 3;
const TIMELIMIT: usize = 4;
const NODES: usize = 5;
const USER: usize = 6;
const SLOT: usize = 7;
const SIZE: usize = 8;
/// The pass's scratch column: the fair-share factor, then the rank. Last,
/// so the other columns split off it, and never copied.
const RANK: usize = 9;
const COLUMNS: usize = 10;

/// Times at or below this magnitude are exact in `f64`, so the pass's
/// `now as f64 - submit as f64` is `(now - submit) as f64` bit for bit.
const EXACT_TIME: u64 = 1 << 53;

/// The queue, in arrival order, one column per field of [`PendingRow`]
/// plus the pass's rank column, all in one buffer.
pub(crate) struct PendingTable {
    /// Column `c` of row `at` is `cells[c * stride + front + at]`.
    cells: Vec<i64>,
    /// Rows each stripe has room for.
    stride: usize,
    /// The rows are cells `front..front + len` of every stripe: a drop
    /// near the front of the queue shifts the rows ahead of it back and
    /// moves `front` on, rather than shifting every row behind it.
    front: usize,
    len: usize,
    /// The fewest nodes any row asks for, `u32::MAX` when the table is
    /// empty: exact at every instant. A push lowers it to the new row's
    /// request; a [`remove`](Self::remove) keeps it unless a removed row
    /// asked for exactly that many nodes, and only then rescans the nodes
    /// column. The planner can only ever start a job whose request fits in
    /// the free nodes (both the priority and the backfill phase check it),
    /// so a pass with fewer free nodes than this is provably a no-op and
    /// the event clock skips it wholesale — on a congested cluster that is
    /// most passes. Skipping also skips the pass's fair-share decay, so
    /// *which* passes are skipped is part of the replayed arithmetic:
    /// nothing but the table's rows may move this bound. Inside a pass,
    /// the [`crate::backfill::PassQueue`] answers a read with fewer free
    /// nodes than this with no job, without a scan.
    min_nodes: u32,
}

/// What a pass ranks the table by besides the table itself.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ranking<'a> {
    pub(crate) weights: PriorityWeights,
    /// The pass instant.
    pub(crate) now: i64,
    /// The fair-share factor by slot ([`crate::priority::FairshareTracker`]).
    pub(crate) factors: &'a [f64],
}

impl Default for PendingTable {
    fn default() -> Self {
        Self {
            cells: Vec::new(),
            stride: 0,
            front: 0,
            len: 0,
            min_nodes: u32::MAX,
        }
    }
}

impl PendingTable {
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The fewest nodes any row asks for (see the field).
    #[inline]
    pub(crate) fn min_nodes(&self) -> u32 {
        self.min_nodes
    }

    /// The fewest nodes any row asks for, by a scan of the nodes column.
    pub(crate) fn scan_min_nodes(&self) -> u32 {
        let nodes = self.rows().col(NODES);
        nodes.iter().map(|&n| n as u32).min().unwrap_or(u32::MAX)
    }

    /// Drops every row, keeping the buffer.
    pub(crate) fn clear(&mut self) {
        self.front = 0;
        self.len = 0;
        self.min_nodes = u32::MAX;
    }

    /// Appends `row`. When the stripes are full to their end, the rows
    /// slide back to the start of their stripes if at least as many cells
    /// are free ahead of them as there are rows (so a slide moves no more
    /// rows than it frees cells), and otherwise every stripe grows at once.
    pub(crate) fn push(&mut self, row: PendingRow) {
        debug_assert!(
            row.submit.unsigned_abs() <= EXACT_TIME,
            "submit {} is not exact in f64",
            row.submit
        );
        if self.front + self.len == self.stride {
            if self.front > 0 && self.front >= self.len {
                let (front, len) = (self.front, self.len);
                for stripe in self.cells.chunks_exact_mut(self.stride).take(RANK) {
                    stripe.copy_within(front..front + len, 0);
                }
                self.front = 0;
            } else {
                self.grow(self.len + 1);
            }
        }
        let (stride, at) = (self.stride, self.front + self.len);
        let cells = [
            (IDX, row.idx as i64),
            (ID, row.id as i64),
            (SUBMIT, row.submit),
            (SUBMIT_F, (row.submit as f64).to_bits() as i64),
            (TIMELIMIT, row.timelimit),
            (NODES, i64::from(row.nodes)),
            (USER, i64::from(row.user)),
            (SLOT, i64::from(row.user_slot)),
            (SIZE, row.size_term.to_bits() as i64),
        ];
        for (col, cell) in cells {
            self.cells[col * stride + at] = cell;
        }
        self.len += 1;
        self.min_nodes = self.min_nodes.min(row.nodes);
    }

    /// Re-lays the stripes at room for at least `need` rows: double the
    /// old room, at least 4, as `Vec` grows. One allocation.
    fn grow(&mut self, need: usize) {
        let stride = need.max(2 * self.stride).max(4);
        let mut cells = vec![0; COLUMNS * stride];
        for col in 0..RANK {
            cells[col * stride..][..self.len].copy_from_slice(self.rows().col(col));
        }
        self.cells = cells;
        self.stride = stride;
        self.front = 0;
    }

    /// Every column but the rank column, read-only.
    #[inline]
    pub(crate) fn rows(&self) -> Rows<'_> {
        Rows {
            cells: &self.cells[..RANK * self.stride],
            stride: self.stride,
            front: self.front,
            len: self.len,
        }
    }

    /// Ranks every row into the rank column and returns the other columns
    /// beside it. Two loops over contiguous columns, so both vectorise:
    /// the first gathers each row's fair-share factor into its rank cell
    /// (as bits), the second turns that into the row's rank. The age is
    /// `now as f64 - submit as f64`, bit for bit `(now - submit) as f64`
    /// for times of at most 2^53 in magnitude, which [`push`](Self::push)
    /// and this method debug-assert.
    pub(crate) fn rank(&mut self, by: &Ranking) -> (Rows<'_>, &mut [i64]) {
        debug_assert!(
            by.now.unsigned_abs() <= EXACT_TIME,
            "now {} is not exact in f64",
            by.now
        );
        let (stride, front, len) = (self.stride, self.front, self.len);
        let (cells, ranks) = self.cells.split_at_mut(RANK * stride);
        let rows = Rows {
            cells,
            stride,
            front,
            len,
        };
        let ranks = &mut ranks[..len];
        for (cell, &slot) in ranks.iter_mut().zip(rows.col(SLOT)) {
            *cell = by.factors[slot as usize].to_bits() as i64;
        }
        let (weights, now) = (by.weights, by.now as f64);
        for ((cell, &submit), &size) in ranks.iter_mut().zip(rows.col(SUBMIT_F)).zip(rows.col(SIZE))
        {
            let [submit, size, factor] =
                [submit, size, *cell].map(|bits| f64::from_bits(bits as u64));
            *cell = rank(priority_from_terms(&weights, now - submit, size, factor));
        }
        (rows, ranks)
    }

    /// Drops the rows at positions `gone` (distinct, in any order; sorted
    /// here) and keeps the rest in order. Each column moves, by memmove,
    /// only the segments on the shorter side of the dropped rows: those
    /// ahead of the last one shift back and `front` moves on, or those
    /// behind the first one shift forward. A pass starts the jobs of
    /// highest priority, and age dominates priority, so its starts sit
    /// near the front of the arrival-ordered queue.
    pub(crate) fn remove(&mut self, gone: &mut [usize]) {
        if gone.is_empty() {
            return;
        }
        if gone.len() == self.len {
            // Every row started: the queue of an idle cluster.
            self.clear();
            return;
        }
        gone.sort_unstable();
        let (first, last, k) = (gone[0], gone[gone.len() - 1], gone.len());
        let nodes = self.rows().col(NODES);
        let rescan = gone.iter().any(|&at| nodes[at] as u32 == self.min_nodes);
        let (front, len) = (self.front, self.len);
        let ahead = last + 1 < len - first;
        for stripe in self.cells.chunks_exact_mut(self.stride).take(RANK) {
            let rows = &mut stripe[front..front + len];
            if ahead {
                let mut end = last + 1;
                for (j, &at) in gone.iter().enumerate().rev() {
                    let from = if j == 0 { 0 } else { gone[j - 1] + 1 };
                    if from < at {
                        end -= at - from;
                        rows.copy_within(from..at, end);
                    }
                }
            } else {
                let mut to = first;
                for (j, &at) in gone.iter().enumerate() {
                    let end = gone.get(j + 1).copied().unwrap_or(len);
                    if at + 1 < end {
                        rows.copy_within(at + 1..end, to);
                        to += end - at - 1;
                    }
                }
            }
        }
        if ahead {
            self.front += k;
        }
        self.len -= k;
        if rescan {
            self.min_nodes = self.scan_min_nodes();
        }
    }
}

impl Clone for PendingTable {
    fn clone(&self) -> Self {
        let mut table = Self::default();
        table.clone_from(self);
        table
    }

    /// In place: the stripes grow only when `source` holds more rows than
    /// they have room for.
    fn clone_from(&mut self, source: &Self) {
        self.len = 0;
        if self.stride < source.len {
            self.grow(source.len);
        }
        self.front = 0;
        let stride = self.stride;
        for col in 0..RANK {
            self.cells[col * stride..][..source.len].copy_from_slice(source.rows().col(col));
        }
        self.len = source.len;
        self.min_nodes = source.min_nodes;
    }
}

impl fmt::Debug for PendingTable {
    /// The rows, in order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.rows().iter()).finish()
    }
}

/// The table's columns but the rank column, read-only.
#[derive(Clone, Copy)]
pub(crate) struct Rows<'a> {
    cells: &'a [i64],
    stride: usize,
    front: usize,
    len: usize,
}

impl<'a> Rows<'a> {
    #[inline]
    fn col(&self, col: usize) -> &'a [i64] {
        &self.cells[col * self.stride + self.front..][..self.len]
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The arena index of row `at`'s job.
    #[inline]
    pub(crate) fn idx(&self, at: usize) -> usize {
        self.col(IDX)[at] as usize
    }

    /// Row `at`'s tie-breaks of equal ranks: `(submit, id)`.
    #[inline]
    pub(crate) fn tie(&self, at: usize) -> (i64, u64) {
        (self.col(SUBMIT)[at], self.col(ID)[at] as u64)
    }

    /// What the planner sees of row `at`.
    #[inline]
    pub(crate) fn view(&self, at: usize) -> PendingView {
        PendingView {
            nodes: self.col(NODES)[at] as u32,
            timelimit: self.col(TIMELIMIT)[at],
        }
    }

    /// What the planner sees of every row, in order.
    #[inline]
    pub(crate) fn views(&self) -> impl Iterator<Item = PendingView> + 'a {
        let nodes = self.col(NODES).iter();
        nodes
            .zip(self.col(TIMELIMIT))
            .map(|(&nodes, &timelimit)| PendingView {
                nodes: nodes as u32,
                timelimit,
            })
    }

    /// Every row's fair-share slot, in order.
    pub(crate) fn slots(&self) -> impl Iterator<Item = u32> + Clone + 'a {
        self.col(SLOT).iter().map(|&slot| slot as u32)
    }

    /// The snapshot's view of every row at instant `now`, in order.
    pub(crate) fn queued(&self, now: i64) -> impl Iterator<Item = QueuedJobView> + 'a {
        let ids = self.col(ID).iter().zip(self.col(SUBMIT));
        let rest = self
            .col(NODES)
            .iter()
            .zip(self.col(TIMELIMIT))
            .zip(self.col(USER));
        ids.zip(rest).map(
            move |((&id, &submit), ((&nodes, &timelimit), &user))| QueuedJobView {
                id: id as u64,
                nodes: nodes as u32,
                submit,
                age: now - submit,
                timelimit,
                user: user as u32,
            },
        )
    }

    /// How many rows belong to `user`, and the nodes they ask for.
    pub(crate) fn queued_by(&self, user: u32) -> (usize, u64) {
        let rows = self.col(USER).iter().zip(self.col(NODES));
        rows.filter(|&(&u, _)| u as u32 == user)
            .fold((0, 0), |(count, nodes), (_, &n)| {
                (count + 1, nodes + n as u64)
            })
    }

    /// Every row, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = PendingRow> + 'a {
        let rows = *self;
        (0..self.len).map(move |at| PendingRow {
            idx: rows.idx(at),
            id: rows.col(ID)[at] as u64,
            submit: rows.col(SUBMIT)[at],
            timelimit: rows.col(TIMELIMIT)[at],
            nodes: rows.col(NODES)[at] as u32,
            user: rows.col(USER)[at] as u32,
            user_slot: rows.col(SLOT)[at] as u32,
            size_term: f64::from_bits(rows.col(SIZE)[at] as u64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Row `i` of a drawn queue, asking for `nodes` nodes; every field
    /// differs from row to row.
    fn row(i: usize, nodes: u32) -> PendingRow {
        let i64_i = i as i64;
        PendingRow {
            idx: i,
            id: (i as u64 * 7919) % 100_003 + 1,
            submit: 600 * i64_i - (i64_i % 5) * 4_000,
            timelimit: 3_600 + i64_i,
            nodes,
            user: (i % 7) as u32,
            user_slot: (i % 5) as u32,
            size_term: f64::from(nodes) * 0.25 + i as f64 * 1e-9,
        }
    }

    /// The table as it was before it had columns: a `Vec` of rows that a
    /// pass drops its starts from with `retain`, recomputing the bound.
    #[derive(Default)]
    struct Oracle {
        rows: Vec<PendingRow>,
    }

    impl Oracle {
        fn remove(&mut self, gone: &[usize]) {
            let mut at = 0;
            self.rows.retain(|_| {
                at += 1;
                !gone.contains(&(at - 1))
            });
        }

        fn min_nodes(&self) -> u32 {
            self.rows.iter().map(|r| r.nodes).min().unwrap_or(u32::MAX)
        }
    }

    /// The table holds the oracle's rows, in its order, with its bound;
    /// so do a clone and a restore into a table holding other rows.
    fn same(table: &PendingTable, oracle: &Oracle, used: &mut PendingTable) -> Result<(), String> {
        let rows: Vec<PendingRow> = table.rows().iter().collect();
        prop_assert_eq!(&rows, &oracle.rows);
        prop_assert_eq!(table.rows().len(), oracle.rows.len());
        prop_assert_eq!(table.is_empty(), oracle.rows.is_empty());
        prop_assert_eq!(table.min_nodes(), oracle.min_nodes());
        prop_assert_eq!(table.scan_min_nodes(), oracle.min_nodes());
        used.clone_from(table);
        let restored: Vec<PendingRow> = used.rows().iter().collect();
        prop_assert_eq!(&restored, &oracle.rows);
        prop_assert_eq!(used.min_nodes(), oracle.min_nodes());
        let cloned = table.clone();
        prop_assert_eq!(cloned.rows().iter().collect::<Vec<_>>(), rows);
        prop_assert_eq!(cloned.min_nodes(), oracle.min_nodes());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A table of 0-700 rows, then rounds of drawn starts (distinct
        /// positions, in the planner's order, any of them the narrowest)
        /// and drawn arrivals in between, across the stripes' doublings:
        /// after every step the rows, their order and the exact bound are
        /// those of a `Vec` of rows dropped by `retain`.
        #[test]
        fn removal_keeps_arrival_order_and_the_exact_bound(
            depth in 0usize..=700,
            small in 0u32..3,
            first in prop::collection::vec(1u32..=16, 700),
            rounds in prop::collection::vec(
                (prop::collection::vec(0usize..100_000, 0..10),
                 prop::collection::vec(1u32..=16, 0..40)),
                1..12),
        ) {
            // One case in three starts from a table of at most 3 rows,
            // which the starts drain.
            let depth = if small == 0 { depth % 4 } else { depth };
            let (mut table, mut oracle) = (PendingTable::default(), Oracle::default());
            let mut used = PendingTable::default();
            for i in 0..40 {
                used.push(row(10_000 + i, 3));
            }
            let mut next = 0;
            for &nodes in &first[..depth] {
                table.push(row(next, nodes));
                oracle.rows.push(row(next, nodes));
                next += 1;
            }
            same(&table, &oracle, &mut used)?;
            for (draws, arrivals) in rounds {
                let len = oracle.rows.len();
                let mut gone: Vec<usize> = Vec::new();
                for draw in draws {
                    if len > 0 && !gone.contains(&(draw % len)) {
                        gone.push(draw % len);
                    }
                }
                oracle.remove(&gone);
                table.remove(&mut gone);
                same(&table, &oracle, &mut used)?;
                for nodes in arrivals {
                    table.push(row(next, nodes));
                    oracle.rows.push(row(next, nodes));
                    next += 1;
                    prop_assert_eq!(table.min_nodes(), oracle.min_nodes());
                }
                same(&table, &oracle, &mut used)?;
            }
            table.clear();
            oracle.rows.clear();
            same(&table, &oracle, &mut used)?;
        }
    }
}
