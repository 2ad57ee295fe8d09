//! Event queue for the discrete-event simulator.
//!
//! Events are ordered by `(time, kind, seq)`: the kind order encodes the
//! same-instant semantics (recoveries and completions free capacity before
//! a crash picks its eviction victim, and arrivals observe everything that
//! freed up), with a monotone sequence number as the final deterministic
//! tie-break — so interleaving a fault stream with job events can never
//! perturb the pop order of same-timestamp events.

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

/// Min-ordered event queue with deterministic tie-breaking.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<EventKey>,
    seq: u64,
}

impl Clone for EventQueue {
    fn clone(&self) -> Self {
        Self {
            heap: self.heap.clone(),
            seq: self.seq,
        }
    }

    /// In place, keeping the heap's capacity.
    fn clone_from(&mut self, source: &Self) {
        self.heap.clone_from(&source.heap);
        self.seq = source.seq;
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every outstanding event and restarts the tie-break sequence,
    /// keeping the heap's capacity: indistinguishable from a new queue.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
    }

    /// Schedules an event.
    pub fn push(&mut self, ev: Event) {
        self.seq += 1;
        self.heap
            .push(Reverse((ev.time, ev.kind, self.seq, ev.job, ev.epoch)));
    }

    /// Ensures capacity for at least `cap` outstanding events, so pushes
    /// on the steady-state path never grow the heap.
    pub fn reserve_total(&mut self, cap: usize) {
        if self.heap.capacity() < cap {
            self.heap.reserve(cap - self.heap.len());
        }
    }

    /// Timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<i64> {
        self.heap.peek().map(|Reverse((t, ..))| *t)
    }

    /// Pops the next event.
    pub fn pop(&mut self) -> Option<Event> {
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
        self.heap.len()
    }

    /// Whether no events are outstanding.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
