//! Event queue for the discrete-event simulator.
//!
//! Events are ordered by `(time, kind, seq)`: the kind order encodes the
//! same-instant semantics (recoveries and completions free capacity before
//! a crash picks its eviction victim, and arrivals observe everything that
//! freed up), with a monotone sequence number as the final deterministic
//! tie-break — so interleaving a fault stream with job events can never
//! perturb the pop order of same-timestamp events.
//!
//! The queue is a sorted **stream** beside a binary heap. A trace loads its
//! arrivals in submit order, so an arrival pushed at or after the last
//! time still waiting in the stream is appended there — already in
//! `(time, seq)` order — and read with a cursor; everything else
//! (completions, failures, node events, agent submits, retries, an
//! out-of-order trace) goes to the heap. A pop takes the smaller of the two
//! heads by the full key, so the pop order is exactly that of one heap
//! holding every event, while the tens of thousands of future arrivals of a
//! bulk replay never pay a heap sift.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What happened. The variant order **is** the same-instant priority:
///
/// 1. [`NodeUp`](EventKind::NodeUp) — a recovering node is usable by
///    everything else firing this instant,
/// 2. [`Completion`](EventKind::Completion) — a job finishing exactly when
///    a node crashes must not be chosen as the eviction victim,
/// 3. [`JobFail`](EventKind::JobFail) — transient mid-run deaths, after
///    clean completions at the same instant,
/// 4. [`NodeDown`](EventKind::NodeDown) — crashes evict from whatever is
///    still running,
/// 5. [`Arrival`](EventKind::Arrival) — arrivals see every node freed at
///    this instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A crashed node recovered; payload is the node index.
    NodeUp,
    /// A running job finished; payload is the arena index.
    Completion,
    /// A running job died mid-run (transient fault); payload is the arena
    /// index.
    JobFail,
    /// A node crashed; payload is the node index.
    NodeDown,
    /// A job entered the queue; payload is the arena index.
    Arrival,
}

/// A scheduled simulator event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Simulation timestamp at which the event fires.
    pub time: i64,
    /// What fires.
    pub kind: EventKind,
    /// Arena index of the affected job, or the node index for
    /// [`EventKind::NodeUp`]/[`EventKind::NodeDown`].
    pub job: usize,
    /// Job attempt number the event was scheduled for (0 for arrivals and
    /// node events). Evicting a job strands its in-flight completion
    /// event; the attempt stamp lets the simulator recognize and drop the
    /// stale event instead of completing a re-queued attempt early.
    pub epoch: u32,
}

impl Event {
    /// A job event with epoch 0 (arrivals, and every pre-fault call site).
    pub fn new(time: i64, kind: EventKind, job: usize) -> Self {
        Self {
            time,
            kind,
            job,
            epoch: 0,
        }
    }
}

/// Heap key: `(time, kind, seq, job, epoch)` — min-popped, so the kind
/// order above plus the monotone `seq` give a total deterministic order.
type EventKey = Reverse<(i64, EventKind, u64, usize, u32)>;

/// Min-ordered event queue with deterministic tie-breaking: a heap plus
/// a stream of in-order arrivals (see the module docs).
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<EventKey>,
    /// `(time, seq, job)` of arrivals (epoch 0), sorted by `(time, seq)`;
    /// `stream[cursor..]` is still to pop.
    stream: Vec<(i64, u64, usize)>,
    cursor: usize,
    seq: u64,
}

impl Clone for EventQueue {
    /// Clones only the live part of the stream.
    fn clone(&self) -> Self {
        Self {
            heap: self.heap.clone(),
            stream: self.live().to_vec(),
            cursor: 0,
            seq: self.seq,
        }
    }

    /// In place, keeping the heap's and the stream's capacity.
    fn clone_from(&mut self, source: &Self) {
        self.heap.clone_from(&source.heap);
        self.stream.clear();
        self.stream.extend_from_slice(source.live());
        self.cursor = 0;
        self.seq = source.seq;
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every outstanding event and restarts the tie-break sequence,
    /// keeping both stores' capacity: indistinguishable from a new queue.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.stream.clear();
        self.cursor = 0;
        self.seq = 0;
    }

    /// The stream's arrivals still to pop.
    fn live(&self) -> &[(i64, u64, usize)] {
        &self.stream[self.cursor..]
    }

    /// Drops the stream's popped prefix.
    fn compact(&mut self) {
        self.stream.drain(..self.cursor);
        self.cursor = 0;
    }

    /// Schedules an event.
    pub fn push(&mut self, ev: Event) {
        self.seq += 1;
        let in_order = self.live().last().is_none_or(|&(t, ..)| t <= ev.time);
        if ev.kind == EventKind::Arrival && ev.epoch == 0 && in_order {
            // Reuse the popped prefix before growing: drained, or at least
            // half popped when full.
            if self.cursor == self.stream.len()
                || (self.stream.len() == self.stream.capacity()
                    && self.cursor * 2 >= self.stream.len())
            {
                self.compact();
            }
            self.stream.push((ev.time, self.seq, ev.job));
        } else {
            self.heap
                .push(Reverse((ev.time, ev.kind, self.seq, ev.job, ev.epoch)));
        }
    }

    /// Ensures the stream holds `n` more arrivals without growing: a trace
    /// of `n` jobs reserves it once, exactly, before pushing them.
    pub(crate) fn reserve_arrivals(&mut self, n: usize) {
        self.compact();
        self.stream.reserve_exact(n);
    }

    /// Ensures capacity for at least `cap` outstanding events, so pushes
    /// on the steady-state path never grow the heap. The stream's live
    /// arrivals count towards `cap`: the heap is reserved net of them.
    pub fn reserve_total(&mut self, cap: usize) {
        let need = cap.saturating_sub(self.live().len());
        if self.heap.capacity() < need {
            self.heap.reserve(need - self.heap.len());
        }
    }

    /// Timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<i64> {
        let heap = self.heap.peek().map(|Reverse((t, ..))| *t);
        let stream = self.live().first().map(|&(t, ..)| t);
        match (heap, stream) {
            (Some(h), Some(s)) => Some(h.min(s)),
            (h, s) => h.or(s),
        }
    }

    /// Pops the next event.
    pub fn pop(&mut self) -> Option<Event> {
        let from_stream = match (self.heap.peek(), self.live().first()) {
            (_, None) => false,
            (None, Some(_)) => true,
            (Some(Reverse(head)), Some(&(time, seq, job))) => {
                (time, EventKind::Arrival, seq, job, 0) < *head
            }
        };
        if from_stream {
            let (time, _, job) = self.stream[self.cursor];
            self.cursor += 1;
            return Some(Event::new(time, EventKind::Arrival, job));
        }
        self.heap
            .pop()
            .map(|Reverse((time, kind, _, job, epoch))| Event {
                time,
                kind,
                job,
                epoch,
            })
    }

    /// Number of outstanding events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.live().len()
    }

    /// Whether no events are outstanding.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The queue as it was before the arrival stream: one heap of every
    /// event. The oracle for the property below.
    #[derive(Debug, Default, Clone)]
    struct HeapQueue {
        heap: BinaryHeap<EventKey>,
        seq: u64,
    }

    impl HeapQueue {
        fn push(&mut self, ev: Event) {
            self.seq += 1;
            self.heap
                .push(Reverse((ev.time, ev.kind, self.seq, ev.job, ev.epoch)));
        }

        fn peek_time(&self) -> Option<i64> {
            self.heap.peek().map(|Reverse((t, ..))| *t)
        }

        fn pop(&mut self) -> Option<Event> {
            self.heap
                .pop()
                .map(|Reverse((time, kind, _, job, epoch))| Event {
                    time,
                    kind,
                    job,
                    epoch,
                })
        }
    }

    /// A queue that has been used: a consumed stream prefix, live
    /// arrivals, heap entries and a sequence number of its own.
    fn dirty() -> EventQueue {
        let mut q = EventQueue::new();
        for j in 0..6 {
            q.push(Event::new(j, EventKind::Arrival, 90 + j as usize));
            q.push(Event::new(5 - j, EventKind::Completion, 80 + j as usize));
        }
        for _ in 0..4 {
            q.pop();
        }
        q
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The stream-plus-heap queue pops exactly the single heap's
        /// sequence, with equal `len`, `is_empty` and `peek_time` after
        /// every step: in-order trace arrivals (ties included) and
        /// out-of-order ones, agent submits at the current instant,
        /// completions and failures carrying epochs, node events, ties of
        /// every kind at one instant, `clear`, reservations, and a
        /// `clone_from` into a dirty queue or a `clone`.
        #[test]
        fn stream_and_heap_pop_like_one_heap(
            ops in prop::collection::vec((0u32..12, 0i64..4, 0usize..40, 0u32..3), 1..200),
        ) {
            let mut q = EventQueue::new();
            let mut oracle = HeapQueue::default();
            let (mut now, mut trace_end) = (0i64, 0i64);
            for (op, dt, job, epoch) in ops {
                let ev = |time, kind| Event { time, kind, job, epoch };
                match op {
                    0 | 1 => {
                        // The next trace arrival: in order, often tied.
                        trace_end = trace_end.max(now) + dt / 2;
                        let e = Event::new(trace_end, EventKind::Arrival, job);
                        q.push(e);
                        oracle.push(e);
                    }
                    2 => {
                        // Out of order: a retry or a trace loaded late.
                        let e = Event::new(now + dt, EventKind::Arrival, job);
                        q.push(e);
                        oracle.push(e);
                    }
                    3 => {
                        let e = Event::new(now, EventKind::Arrival, job); // agent submit
                        q.push(e);
                        oracle.push(e);
                    }
                    4 | 5 => {
                        let kind = [EventKind::Completion, EventKind::JobFail][op as usize - 4];
                        q.push(ev(now + dt, kind));
                        oracle.push(ev(now + dt, kind));
                    }
                    6 => {
                        let kind = [EventKind::NodeUp, EventKind::NodeDown][epoch as usize % 2];
                        q.push(Event::new(now + dt, kind, job));
                        oracle.push(Event::new(now + dt, kind, job));
                    }
                    7 | 8 => {
                        let (got, want) = (q.pop(), oracle.pop());
                        prop_assert_eq!(got, want);
                        if let Some(e) = got {
                            now = e.time;
                        }
                    }
                    9 => {
                        if dt == 0 {
                            q.clear();
                            oracle = HeapQueue::default();
                            (now, trace_end) = (0, 0);
                        } else {
                            q.reserve_arrivals(job);
                            q.reserve_total(job);
                        }
                    }
                    10 => {
                        let mut restored = dirty();
                        restored.clone_from(&q);
                        q = restored;
                    }
                    _ => {
                        q = q.clone();
                    }
                }
                prop_assert_eq!(q.len(), oracle.heap.len());
                prop_assert_eq!(q.is_empty(), oracle.heap.is_empty());
                prop_assert_eq!(q.peek_time(), oracle.peek_time());
            }
            while let Some(want) = oracle.pop() {
                prop_assert_eq!(q.pop(), Some(want));
            }
            prop_assert!(q.is_empty());
            prop_assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(Event::new(30, EventKind::Arrival, 1));
        q.push(Event::new(10, EventKind::Arrival, 2));
        q.push(Event::new(20, EventKind::Arrival, 3));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.job).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn completions_fire_before_arrivals_at_same_instant() {
        let mut q = EventQueue::new();
        q.push(Event::new(10, EventKind::Arrival, 1));
        q.push(Event::new(10, EventKind::Completion, 2));
        assert_eq!(q.pop().unwrap().kind, EventKind::Completion);
        assert_eq!(q.pop().unwrap().kind, EventKind::Arrival);
    }

    #[test]
    fn same_instant_kinds_pop_in_documented_priority() {
        // Push in scrambled order; the pop order must be exactly the
        // documented same-instant semantics, independent of insertion.
        let kinds = [
            EventKind::Arrival,
            EventKind::NodeDown,
            EventKind::NodeUp,
            EventKind::JobFail,
            EventKind::Completion,
        ];
        let mut q = EventQueue::new();
        for (j, &k) in kinds.iter().enumerate() {
            q.push(Event::new(5, k, j));
        }
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        assert_eq!(
            popped,
            vec![
                EventKind::NodeUp,
                EventKind::Completion,
                EventKind::JobFail,
                EventKind::NodeDown,
                EventKind::Arrival,
            ]
        );
    }

    #[test]
    fn same_key_pops_in_push_order() {
        let mut q = EventQueue::new();
        for j in 0..5 {
            q.push(Event::new(1, EventKind::Arrival, j));
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.job).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn fault_stream_cannot_perturb_job_event_ties() {
        // Interleave a fault stream between two same-key job pushes: the
        // job events still pop in their own push order.
        let mut q = EventQueue::new();
        q.push(Event::new(7, EventKind::Arrival, 10));
        q.push(Event::new(7, EventKind::NodeDown, 0));
        q.push(Event::new(7, EventKind::Arrival, 11));
        q.push(Event::new(7, EventKind::NodeUp, 0));
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.kind, e.job))
            .collect();
        assert_eq!(
            order,
            vec![
                (EventKind::NodeUp, 0),
                (EventKind::NodeDown, 0),
                (EventKind::Arrival, 10),
                (EventKind::Arrival, 11),
            ]
        );
    }

    #[test]
    fn epoch_survives_the_heap_round_trip() {
        let mut q = EventQueue::new();
        q.push(Event {
            time: 3,
            kind: EventKind::Completion,
            job: 9,
            epoch: 2,
        });
        let ev = q.pop().unwrap();
        assert_eq!((ev.job, ev.epoch), (9, 2));
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(Event::new(42, EventKind::Completion, 0));
        assert_eq!(q.peek_time(), Some(42));
        assert_eq!(q.pop().unwrap().time, 42);
        assert!(q.is_empty());
    }
}
