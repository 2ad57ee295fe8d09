//! Admission bookkeeping of the cluster state machine
//! ([`crate::Simulator`], which both clocks drive).
//!
//! A job is admitted by clearing any recorded outcome, keeping the
//! requested id when unique (otherwise assigning the next free one) and
//! clamping the submit instant to the present; dispatches feed the
//! recent-wait observable behind the paper's `avg` heuristic. The id map
//! and the fair-share slot map hash their integer keys with [`IdHasher`].

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use mirage_trace::JobRecord;

/// A map keyed by job ids or user ids, hashed with [`IdHasher`] instead
/// of SipHash: a load looks every job up and inserts it once, so the key
/// hash is on the per-job path.
///
/// The hasher is fixed, so iteration order is a function of the
/// insertions alone; nothing iterates these maps in an order that reaches
/// any output anyway. The simulator's id map is only read by key, and the
/// one iteration — the re-insert of a restore — fills another map that is
/// read only by key too.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// An Fx-style hasher for integer keys: each word is folded in by a
/// rotate, an xor and a multiply by an odd constant. `finish` rotates the
/// well-mixed high bits down, so keys that differ only above bit 32 still
/// spread over the low bits the table indexes by.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher {
    hash: u64,
}

impl IdHasher {
    /// The multiplier (odd, so multiplying is a bijection on `u64`).
    const K: u64 = 0xf135_7aea_2e62_a9c5;
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(Self::K);
    }

    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Prepares `job` for admission at simulated time `now`: resets its
/// outcome fields, resolves its id against `id_map`/`next_id`, tracks
/// the earliest submission in `first_submit`, and returns
/// `(id, effective_submit)`.
pub(crate) fn prepare_admission(
    job: &mut JobRecord,
    now: i64,
    id_map: &IdMap<u64, usize>,
    next_id: &mut u64,
    first_submit: &mut Option<i64>,
) -> (u64, i64) {
    job.start = None;
    job.end = None;
    if job.id == 0 || id_map.contains_key(&job.id) {
        while id_map.contains_key(next_id) {
            *next_id += 1;
        }
        job.id = *next_id;
        *next_id += 1;
    }
    *next_id = (*next_id).max(job.id + 1);
    let submit = job.submit.max(now);
    *first_submit = Some(first_submit.map_or(submit, |f| f.min(submit)));
    (job.id, submit)
}

/// Rolling `(start_time, wait)` log of dispatches — the observable
/// statistic behind the `avg` heuristic baseline (§6: submit `T_avg`
/// before the predecessor's end).
#[derive(Debug, Default)]
pub(crate) struct RecentStarts {
    log: VecDeque<(i64, i64)>,
}

impl Clone for RecentStarts {
    fn clone(&self) -> Self {
        Self {
            log: self.log.clone(),
        }
    }

    /// In place, keeping the ring's capacity.
    fn clone_from(&mut self, source: &Self) {
        self.log.clone_from(&source.log);
    }
}

impl RecentStarts {
    /// Bound on retained dispatches; old entries beyond any realistic
    /// averaging window are dropped.
    const CAP: usize = 4096;

    /// Forgets every dispatch, keeping the ring's capacity.
    pub(crate) fn clear(&mut self) {
        self.log.clear();
    }

    /// Records a dispatch at `now` of a job that waited `wait` seconds.
    ///
    /// The backing ring is reserved to its cap on first use so the hot
    /// loop never grows it — start recording is on the simulator's
    /// steady-state (allocation-free) path.
    pub(crate) fn record(&mut self, now: i64, wait: i64) {
        if self.log.capacity() <= Self::CAP {
            self.log.reserve(Self::CAP + 1 - self.log.len());
        }
        self.log.push_back((now, wait));
        if self.log.len() > Self::CAP {
            self.log.pop_front();
        }
    }

    /// Mean wait of jobs that started within the trailing `window`
    /// seconds before `now`; `None` if nothing started in the window.
    pub(crate) fn avg(&self, now: i64, window: i64) -> Option<f64> {
        let cutoff = now - window;
        let mut sum = 0.0f64;
        let mut n = 0usize;
        for &(start, wait) in self.log.iter().rev() {
            if start < cutoff {
                break;
            }
            sum += wait as f64;
            n += 1;
        }
        (n > 0).then(|| sum / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recent_starts_window_and_cap() {
        let mut rs = RecentStarts::default();
        assert_eq!(rs.avg(100, 50), None);
        rs.record(10, 100);
        rs.record(60, 200);
        rs.record(90, 600);
        // Window catches the last two only.
        assert_eq!(rs.avg(100, 50), Some(400.0));
        // Wider window catches all three.
        assert_eq!(rs.avg(100, 1000), Some(300.0));
        // The cap keeps the log bounded and retains the newest entries.
        for i in 0..(RecentStarts::CAP as i64 + 10) {
            rs.record(1000 + i, 7);
        }
        assert!(rs.log.len() <= RecentStarts::CAP);
        assert_eq!(rs.avg(1000 + RecentStarts::CAP as i64 + 9, 1), Some(7.0));
    }

    fn job(id: u64, submit: i64) -> JobRecord {
        let mut j = JobRecord::new(id, format!("j{id}"), 1, submit, 1, 100, 50);
        j.complete_at(submit + 1); // stale outcome that admission must clear
        j
    }

    #[test]
    fn unique_ids_survive_and_outcomes_clear() {
        let id_map = IdMap::default();
        let mut next_id = 1;
        let mut first = None;
        let mut j = job(7, 40);
        let (id, submit) = prepare_admission(&mut j, 10, &id_map, &mut next_id, &mut first);
        assert_eq!(id, 7);
        assert_eq!(submit, 40);
        assert_eq!(next_id, 8);
        assert_eq!(first, Some(40));
        assert!(j.start.is_none() && j.end.is_none());
    }

    #[test]
    fn collisions_and_zero_ids_are_reassigned_past_taken_slots() {
        let mut id_map = IdMap::default();
        id_map.insert(7u64, 0usize);
        id_map.insert(8u64, 1usize);
        let mut next_id = 7;
        let mut first = Some(5);
        let mut dup = job(7, 2);
        let (id, submit) = prepare_admission(&mut dup, 10, &id_map, &mut next_id, &mut first);
        assert_eq!(id, 9, "skips the taken 7 and 8");
        assert_eq!(submit, 10, "past submits clamp to now");
        assert_eq!(first, Some(5), "earlier first submit wins");
        let mut zero = job(0, 20);
        let (id2, _) = prepare_admission(&mut zero, 10, &id_map, &mut next_id, &mut first);
        assert_eq!(id2, 10);
    }

    /// Keys that differ only in their low bits and keys that differ only
    /// above bit 32 insert into and look up from the map like an ordered
    /// map does, including overwrites and misses.
    #[test]
    fn id_map_agrees_with_an_ordered_map_on_low_and_high_bit_keys() {
        use std::collections::BTreeMap;
        let keys = (0..2000u64).chain((1..2000u64).map(|k| k << 32));
        let mut map: IdMap<u64, usize> = IdMap::default();
        let mut oracle = BTreeMap::new();
        for (i, key) in keys.clone().enumerate() {
            assert_eq!(map.insert(key, i), oracle.insert(key, i));
        }
        for (i, key) in keys.clone().step_by(3).enumerate() {
            assert_eq!(map.insert(key, i), oracle.insert(key, i), "overwrite {key}");
        }
        assert_eq!(map.len(), oracle.len());
        for key in keys {
            assert_eq!(map.get(&key), oracle.get(&key), "key {key}");
            assert_eq!(map.get(&(key | 1 << 63)), None);
        }
    }
}
