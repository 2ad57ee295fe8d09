//! Slurm multifactor priority (§5 of the paper; SchedMD's
//! `priority/multifactor` plugin).
//!
//! Priority is a weighted sum of normalized factors:
//!
//! * **age** — time spent pending, saturating at `age_max` (Slurm's
//!   `PriorityMaxAge`); note that, as the paper points out, the age factor
//!   of a dependent job only starts accruing once its predecessor
//!   completes — which is exactly why reactive chained submission waits so
//!   long,
//! * **job size** — larger allocations get a boost so wide jobs are not
//!   starved by a stream of single-node work,
//! * **fair-share** — users with little recent usage are favored; recent
//!   usage decays exponentially with a configurable half-life.

use serde::{Deserialize, Serialize};

use crate::admission::IdMap;
use crate::fault::SimConfigError;

/// Weights of the multifactor priority, mirroring Slurm's
/// `PriorityWeightAge`, `PriorityWeightJobSize` and `PriorityWeightFairshare`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PriorityWeights {
    /// Weight of the (saturating) queue-age factor.
    pub age: f64,
    /// Pending time at which the age factor saturates, seconds.
    pub age_max: i64,
    /// Weight of the job-size factor (`nodes / total_nodes`).
    pub size: f64,
    /// Weight of the fair-share factor.
    pub fairshare: f64,
    /// Half-life of historical usage decay, seconds.
    pub fairshare_halflife: i64,
}

impl Default for PriorityWeights {
    /// Defaults shaped like a typical TACC multifactor configuration: age
    /// dominates (FIFO-ish), fair-share corrects hogs, size gives wide jobs
    /// a fighting chance.
    fn default() -> Self {
        Self {
            age: 1000.0,
            age_max: 7 * 24 * 3600,
            size: 200.0,
            fairshare: 500.0,
            fairshare_halflife: 7 * 24 * 3600,
        }
    }
}

impl PriorityWeights {
    /// Rejects weights that make a priority NaN or infinite: the
    /// scheduling pass orders the queue by a key it requires to be finite.
    /// (`fairshare_halflife <= 0` is legal: it disables decay.)
    pub fn validate(&self) -> Result<(), SimConfigError> {
        if self.age_max <= 0 {
            return Err(SimConfigError::new(
                "weights.age_max",
                self.age_max,
                "age saturation point must be positive",
            ));
        }
        for (field, w) in [
            ("weights.age", self.age),
            ("weights.size", self.size),
            ("weights.fairshare", self.fairshare),
        ] {
            if !w.is_finite() || w < 0.0 {
                return Err(SimConfigError::new(
                    field,
                    w,
                    "priority weight must be finite and non-negative",
                ));
            }
        }
        Ok(())
    }
}

/// Decayed usage below this many node-seconds is dropped to exactly zero,
/// so a user who went idle long ago is indistinguishable from a new one.
const NEGLIGIBLE_USAGE: f64 = 1e-6;

/// Tracks decayed per-user usage for the fair-share factor, densely.
///
/// Users are interned to **slots** ([`FairshareTracker::slot`]); usage,
/// the factor and the queued-job count live in `Vec`s indexed by slot, so
/// the scheduling pass never hashes. Invariants:
///
/// * a slot stays valid from `slot()` until [`FairshareTracker::clear`]
///   (the simulators intern at admission and clear on `reset()`, which
///   also drops every job that carried a slot); `slot()` sizes every
///   per-slot table, so nothing else here allocates,
/// * `queued[slot]` counts the slot's jobs in the queue — one `enqueue`
///   per arrival, one `dequeue` per start — and `active` lists exactly the
///   slots whose count is positive, each once,
/// * `refresh` sets `factor[slot]` to
///   `fairshare_factor(normalized_usage(slot))` for every active slot in
///   one loop — a pure function of the usage, so the bits do not depend on
///   when it runs. The scheduling pass refreshes after its decay and then
///   reads the factor of every pending job's slot, all active; the factor
///   of an inactive slot is whatever its last refresh left,
/// * usage that decays to `NEGLIGIBLE_USAGE` (1e-6) or below becomes exactly
///   `0.0`, which reads and accumulates like an absent entry.
#[derive(Debug)]
pub struct FairshareTracker {
    slots: IdMap<u32, u32>,
    usage: Vec<f64>,
    factor: Vec<f64>,
    /// Queued jobs per slot.
    queued: Vec<u32>,
    /// The slots with queued jobs, in no particular order.
    active: Vec<u32>,
    /// Position of each active slot in `active` (stale for the rest).
    active_at: Vec<u32>,
    /// Node-seconds the cluster delivers over one half-life; usage is
    /// normalized by it. Non-positive disables the factor (usage reads 0).
    capacity: f64,
    last_decay: i64,
}

impl Clone for FairshareTracker {
    fn clone(&self) -> Self {
        let mut tracker = Self::new(self.capacity);
        tracker.clone_from(self);
        tracker
    }

    /// In place, keeping every table's capacity (the user set is interned
    /// when a trace loads, so a restore sees an equally sized `slots`),
    /// with room for every slot to be active, as `slot()` leaves it.
    fn clone_from(&mut self, source: &Self) {
        self.slots.clone_from(&source.slots);
        self.usage.clone_from(&source.usage);
        self.factor.clone_from(&source.factor);
        self.queued.clone_from(&source.queued);
        self.active.clone_from(&source.active);
        self.active.reserve(self.usage.len() - self.active.len());
        self.active_at.clone_from(&source.active_at);
        self.capacity = source.capacity;
        self.last_decay = source.last_decay;
    }
}

impl FairshareTracker {
    /// Creates a tracker with no recorded usage, normalizing against
    /// `capacity_node_seconds` (the cluster's node-seconds over one
    /// half-life).
    pub fn new(capacity_node_seconds: f64) -> Self {
        Self {
            slots: IdMap::default(),
            usage: Vec::new(),
            factor: Vec::new(),
            queued: Vec::new(),
            active: Vec::new(),
            active_at: Vec::new(),
            capacity: capacity_node_seconds,
            last_decay: 0,
        }
    }

    /// Forgets every user, all usage and every queued job (invalidating
    /// every slot handed out), keeping the capacity and the allocations.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.usage.clear();
        self.factor.clear();
        self.queued.clear();
        self.active.clear();
        self.active_at.clear();
        self.last_decay = 0;
    }

    /// The slot of `user`, interning it (with zero usage and nothing
    /// queued) on first sight.
    pub fn slot(&mut self, user: u32) -> u32 {
        let next = self.usage.len() as u32;
        let slot = *self.slots.entry(user).or_insert(next);
        if slot == next {
            self.usage.push(0.0);
            self.factor.push(fairshare_factor(0.0));
            self.queued.push(0);
            self.active_at.push(0);
            // Room for every slot to be active at once.
            self.active.reserve(self.usage.len() - self.active.len());
        }
        slot
    }

    /// Counts one more queued job of the user in `slot`.
    pub(crate) fn enqueue(&mut self, slot: u32) {
        let count = &mut self.queued[slot as usize];
        *count += 1;
        if *count == 1 {
            self.active_at[slot as usize] = self.active.len() as u32;
            self.active.push(slot);
        }
    }

    /// Counts one queued job of the user in `slot` out (it started).
    pub(crate) fn dequeue(&mut self, slot: u32) {
        let count = &mut self.queued[slot as usize];
        debug_assert!(*count > 0, "dequeue of slot {slot} with nothing queued");
        *count -= 1;
        if *count == 0 {
            let at = self.active_at[slot as usize] as usize;
            self.active.swap_remove(at);
            if let Some(&moved) = self.active.get(at) {
                self.active_at[moved as usize] = at as u32;
            }
        }
    }

    /// Decays all recorded usage to instant `now` with the given half-life.
    pub fn decay_to(&mut self, now: i64, halflife: i64) {
        if now <= self.last_decay || halflife <= 0 {
            self.last_decay = self.last_decay.max(now);
            return;
        }
        let dt = (now - self.last_decay) as f64;
        let decay = 0.5f64.powf(dt / halflife as f64);
        for u in &mut self.usage {
            *u *= decay;
            if *u <= NEGLIGIBLE_USAGE {
                *u = 0.0;
            }
        }
        self.last_decay = now;
    }

    /// Recomputes the factor of every active slot from its current usage.
    pub(crate) fn refresh(&mut self) {
        let Self {
            usage,
            factor,
            active,
            capacity,
            ..
        } = self;
        for &slot in active.iter() {
            let slot = slot as usize;
            factor[slot] = fairshare_factor(normalize(usage[slot], *capacity));
        }
    }

    /// Records `node_seconds` of consumption by the user in `slot`.
    pub fn record(&mut self, slot: u32, node_seconds: f64) {
        self.usage[slot as usize] += node_seconds;
    }

    /// Normalized usage of the user in `slot` relative to the tracker's
    /// capacity. 0 = idle user.
    pub fn normalized_usage(&self, slot: u32) -> f64 {
        normalize(self.usage[slot as usize], self.capacity)
    }

    /// The fair-share factors by slot as of the last
    /// [`FairshareTracker::refresh`]: entry `slot` is
    /// `fairshare_factor(normalized_usage(slot))`, bit for bit, if the slot
    /// was active then and its usage has not changed since.
    pub(crate) fn factors(&self) -> &[f64] {
        &self.factor
    }

    /// Whether `slots`, one per queued job, are exactly what the counts
    /// say is queued: every slot's count equals its number of entries, and
    /// `active` lists each slot with a positive count once. A debug check
    /// of the simulator's pass; it borrows the counts and gives them back,
    /// so it allocates nothing.
    pub(crate) fn counts_match(&mut self, slots: impl Iterator<Item = u32> + Clone) -> bool {
        let mut ok = true;
        for slot in slots.clone() {
            let count = &mut self.queued[slot as usize];
            ok &= *count > 0;
            *count = count.wrapping_sub(1);
        }
        ok &= self.queued.iter().all(|&c| c == 0);
        for slot in slots {
            let count = &mut self.queued[slot as usize];
            *count = count.wrapping_add(1);
        }
        let positive = self.queued.iter().filter(|&&c| c > 0).count();
        ok && positive == self.active.len()
            && self.active.iter().enumerate().all(|(at, &slot)| {
                self.queued[slot as usize] > 0 && self.active_at[slot as usize] as usize == at
            })
    }
}

/// `usage / capacity`, or 0 when the capacity disables the factor.
fn normalize(usage: f64, capacity: f64) -> f64 {
    if capacity <= 0.0 {
        return 0.0;
    }
    usage / capacity
}

/// Slurm's fair-share curve: `2^(-usage)`; idle users get 1.0. `exp2`
/// instead of `powf` — generic `pow` is several times slower.
fn fairshare_factor(usage_norm: f64) -> f64 {
    (-usage_norm.max(0.0)).exp2()
}

/// Computes the multifactor priority of one pending job.
///
/// `age` is seconds pending, `nodes`/`total_nodes` give the size factor and
/// `usage_norm` is the user's normalized decayed usage (see
/// [`FairshareTracker::normalized_usage`]).
pub fn priority(
    weights: &PriorityWeights,
    age: i64,
    nodes: u32,
    total_nodes: u32,
    usage_norm: f64,
) -> f64 {
    priority_from_terms(
        weights,
        age as f64,
        size_term(weights, nodes, total_nodes),
        fairshare_factor(usage_norm),
    )
}

/// The job-size term of [`priority`]: `weights.size · nodes / total_nodes`.
/// Constant for as long as a job is pending, so the simulator computes it
/// once, at arrival.
pub(crate) fn size_term(weights: &PriorityWeights, nodes: u32, total_nodes: u32) -> f64 {
    weights.size * (f64::from(nodes) / f64::from(total_nodes.max(1)))
}

/// [`priority`] given its [`size_term`] and the fair-share factor itself
/// (see [`FairshareTracker::refresh`]) rather than what they derive from:
/// the same three terms, summed in the same order. The age is seconds
/// pending as `f64`: [`priority`] passes `age as f64`, and the scheduling
/// pass `now as f64 - submit as f64`, which is the same value for times
/// of at most 2^53 in magnitude.
#[inline]
pub(crate) fn priority_from_terms(
    weights: &PriorityWeights,
    age: f64,
    size_term: f64,
    fs_factor: f64,
) -> f64 {
    let age_factor = (age / weights.age_max as f64).clamp(0.0, 1.0);
    weights.age * age_factor + size_term + weights.fairshare * fs_factor
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    const W: PriorityWeights = PriorityWeights {
        age: 1000.0,
        age_max: 1000,
        size: 100.0,
        fairshare: 500.0,
        fairshare_halflife: 1000,
    };

    #[test]
    fn age_factor_saturates() {
        let p1 = priority(&W, 500, 1, 10, 0.0);
        let p2 = priority(&W, 1000, 1, 10, 0.0);
        let p3 = priority(&W, 5000, 1, 10, 0.0);
        assert!(p2 > p1);
        assert!((p3 - p2).abs() < 1e-9, "age saturates at age_max");
    }

    #[test]
    fn bigger_jobs_get_size_boost() {
        let small = priority(&W, 0, 1, 10, 0.0);
        let big = priority(&W, 0, 8, 10, 0.0);
        assert!(big > small);
        assert!((big - small - 100.0 * 0.7).abs() < 1e-9);
    }

    #[test]
    fn heavy_users_lose_fairshare() {
        let idle = priority(&W, 0, 1, 10, 0.0);
        let hog = priority(&W, 0, 1, 10, 2.0);
        assert!(idle > hog);
        assert!((idle - hog - 500.0 * (1.0 - 0.25)).abs() < 1e-9);
    }

    #[test]
    fn usage_decays_with_halflife() {
        let mut fs = FairshareTracker::new(1.0);
        let u = fs.slot(1);
        fs.record(u, 100.0);
        fs.decay_to(1000, 1000);
        assert!((fs.normalized_usage(u) - 50.0).abs() < 1e-9);
        fs.decay_to(2000, 1000);
        assert!((fs.normalized_usage(u) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn decay_is_lazy_and_monotone() {
        let mut fs = FairshareTracker::new(1.0);
        let u = fs.slot(1);
        fs.record(u, 8.0);
        fs.decay_to(500, 1000);
        fs.decay_to(500, 1000); // idempotent at same instant
        let usage = fs.normalized_usage(u);
        assert!(usage < 8.0 && usage > 4.0);
        // time never goes backwards
        fs.decay_to(100, 1000);
        assert!((fs.normalized_usage(u) - usage).abs() < 1e-12);
    }

    #[test]
    fn unknown_user_has_zero_usage() {
        let mut fs = FairshareTracker::new(100.0);
        let u = fs.slot(42);
        assert_eq!(fs.normalized_usage(u), 0.0);
        fs.enqueue(u);
        fs.refresh();
        assert_eq!(fs.factors()[u as usize], 1.0);
    }

    #[test]
    fn negligible_usage_is_dropped() {
        let mut fs = FairshareTracker::new(1.0);
        let u = fs.slot(1);
        fs.record(u, 1e-3);
        fs.decay_to(100_000, 100); // 1000 half-lives
        assert_eq!(fs.normalized_usage(u), 0.0);
    }

    #[test]
    fn slots_are_stable_until_clear() {
        let mut fs = FairshareTracker::new(1.0);
        let (a, b) = (fs.slot(7), fs.slot(9));
        assert_ne!(a, b);
        assert_eq!(fs.slot(7), a, "re-interning returns the same slot");
        fs.enqueue(a);
        fs.record(a, 2.0);
        fs.refresh();
        assert_eq!(fs.factors()[a as usize], 0.25);
        fs.record(a, 1.0);
        fs.refresh();
        assert_eq!(
            fs.factors()[a as usize],
            0.125,
            "refresh reads the current usage"
        );
        fs.clear();
        let again = fs.slot(9);
        assert_eq!(again, 0, "clear restarts slot numbering");
        assert_eq!(fs.normalized_usage(again), 0.0);
    }

    /// The tracker as it was before slots: a user-keyed map whose
    /// negligible entries are removed. The oracle for the proptest below.
    #[derive(Default)]
    struct MapTracker {
        usage: HashMap<u32, f64>,
        last_decay: i64,
    }

    impl MapTracker {
        fn decay_to(&mut self, now: i64, halflife: i64) {
            if now <= self.last_decay || halflife <= 0 {
                self.last_decay = self.last_decay.max(now);
                return;
            }
            let dt = (now - self.last_decay) as f64;
            let factor = 0.5f64.powf(dt / halflife as f64);
            for u in self.usage.values_mut() {
                *u *= factor;
            }
            self.usage.retain(|_, u| *u > 1e-6);
            self.last_decay = now;
        }

        fn normalized_usage(&self, user: u32, capacity: f64) -> f64 {
            if capacity <= 0.0 {
                return 0.0;
            }
            self.usage.get(&user).copied().unwrap_or(0.0) / capacity
        }
    }

    proptest! {
        /// Refreshed slot factors give the same priority, bit for bit, as
        /// `priority` over the user-keyed map's normalized usage — for
        /// every user with queued jobs, across interleaved records, decays,
        /// enqueues and dequeues, tiny usages that fall under the drop
        /// threshold included — and the active slots are exactly the users
        /// with queued jobs.
        #[test]
        fn slot_factors_match_the_map_tracker_bitwise(
            ops in prop::collection::vec(
                (0u32..6, 0u32..4, 0i64..40, 0i64..400_000), 1..60),
            capacity in 0u32..3,
            halflife in 0i64..3,
        ) {
            let capacity = [0.0, 1.0, 84.0 * 604_800.0][capacity as usize];
            let halflife = [0, 3_600, 604_800][halflife as usize];
            let mut dense = FairshareTracker::new(capacity);
            let mut map = MapTracker::default();
            let mut queued = [0u32; 6];
            let mut now = 0;
            for (user, kind, magnitude, dt) in ops {
                let slot = dense.slot(user);
                match kind {
                    0 => {
                        now += dt;
                        dense.decay_to(now, halflife);
                        map.decay_to(now, halflife);
                    }
                    1 => {
                        // 2^-20 .. 2^19 node-seconds: straddles 1e-6.
                        let consumed = (f64::from(magnitude as i32) - 20.0).exp2();
                        dense.record(slot, consumed);
                        *map.usage.entry(user).or_insert(0.0) += consumed;
                    }
                    2 => {
                        dense.enqueue(slot);
                        queued[user as usize] += 1;
                    }
                    _ => {
                        if queued[user as usize] > 0 {
                            dense.dequeue(slot);
                            queued[user as usize] -= 1;
                        }
                    }
                }
                let slots: Vec<u32> = (0u32..6)
                    .flat_map(|u| std::iter::repeat_n(u, queued[u as usize] as usize))
                    .map(|u| dense.slot(u))
                    .collect();
                prop_assert!(dense.counts_match(slots.iter().copied()));
                dense.refresh();
                for probe in 0u32..6 {
                    let slot = dense.slot(probe);
                    prop_assert_eq!(
                        dense.normalized_usage(slot).to_bits(),
                        map.normalized_usage(probe, capacity).to_bits()
                    );
                    if queued[probe as usize] == 0 {
                        continue; // inactive: the pass reads no factor of it
                    }
                    let expected = priority(
                        &W, now, 1 + probe, 8, map.normalized_usage(probe, capacity));
                    let got = priority_from_terms(
                        &W, now as f64, size_term(&W, 1 + probe, 8), dense.factors()[slot as usize]);
                    prop_assert_eq!(got.to_bits(), expected.to_bits(), "user {}", probe);
                }
            }
        }
    }
}
