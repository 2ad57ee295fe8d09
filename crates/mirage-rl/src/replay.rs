//! Experience replay (§4.8 of the paper).
//!
//! A bounded ring buffer of `(state, action, reward)` samples. Random
//! mini-batch sampling breaks the correlation between consecutive
//! training samples that otherwise "explodes the variance of gradient
//! updates and distorts a policy's value estimates".

use mirage_nn::Matrix;
use rand::Rng;

/// One stored sample in the §4.9.1 shape: the state a decision was taken
/// in, the action, and the reward it is regressed onto (the episode's
/// final reward). There is no successor state: no update bootstraps.
#[derive(Debug, Clone)]
pub struct Experience {
    /// State the action was taken in.
    pub state: Matrix,
    /// Action index.
    pub action: usize,
    /// Observed reward.
    pub reward: f32,
}

impl Experience {
    /// A state–action–reward sample: in DQN terms a terminal transition,
    /// whose target is its reward alone.
    pub fn terminal(state: Matrix, action: usize, reward: f32) -> Self {
        Self {
            state,
            action,
            reward,
        }
    }
}

/// Bounded ring buffer with uniform random sampling.
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    buf: Vec<Experience>,
    capacity: usize,
    write: usize,
}

impl ReplayBuffer {
    /// Buffer holding at most `capacity` transitions.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            buf: Vec::with_capacity(capacity.min(4096)),
            capacity,
            write: 0,
        }
    }

    /// Appends a transition, evicting the oldest once full.
    pub fn push(&mut self, e: Experience) {
        if self.buf.len() < self.capacity {
            self.buf.push(e);
        } else {
            self.buf[self.write] = e;
        }
        self.write = (self.write + 1) % self.capacity;
    }

    /// Stored transition count.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Uniformly samples `n` transitions with replacement.
    pub fn sample<'a>(&'a self, rng: &mut impl Rng, n: usize) -> Vec<&'a Experience> {
        let mut out = Vec::with_capacity(n);
        self.sample_into(rng, n, &mut out);
        out
    }

    /// [`sample`](Self::sample) appending into a caller-owned buffer, so
    /// per-update mini-batch sampling reuses one allocation across a
    /// whole training run instead of building a fresh `Vec` every call.
    /// Draw order (and therefore the RNG stream) matches `sample`.
    pub fn sample_into<'a>(&'a self, rng: &mut impl Rng, n: usize, out: &mut Vec<&'a Experience>) {
        assert!(!self.buf.is_empty(), "cannot sample an empty buffer");
        out.extend((0..n).map(|_| &self.buf[rng.gen_range(0..self.buf.len())]));
    }

    /// Iterates over everything stored (oldest first while filling; ring
    /// order afterwards).
    pub fn iter(&self) -> impl Iterator<Item = &Experience> {
        self.buf.iter()
    }

    /// Records `n` uniform draws as `(tag, slot)` pairs without touching
    /// the stored experiences. One `gen_range` per draw, in draw order —
    /// the exact RNG stream of [`ReplayBuffer::sample_into`].
    fn record_draws(&self, rng: &mut impl Rng, n: usize, tag: bool, out: &mut Vec<(bool, usize)>) {
        assert!(!self.buf.is_empty(), "cannot sample an empty buffer");
        out.extend((0..n).map(|_| (tag, rng.gen_range(0..self.buf.len()))));
    }

    /// Samples `n` transitions straight into a row-stacked [`MiniBatch`]
    /// (no intermediate `Vec<&Experience>`): the same RNG stream and draw
    /// order as [`ReplayBuffer::sample_into`], assembled for the batched
    /// training path. Allocation-free once `mb` is warm.
    pub fn sample_minibatch(&self, rng: &mut impl Rng, n: usize, mb: &mut MiniBatch) {
        mb.draws.clear();
        self.record_draws(rng, n, false, &mut mb.draws);
        mb.assemble_draws(|_, slot| &self.buf[slot]);
    }

    /// The raw ring state — `(capacity, write cursor, stored slots in
    /// ring order)` — for crash-safe checkpointing. Round-trips through
    /// [`ReplayBuffer::from_raw_parts`] bit for bit, eviction order
    /// included.
    pub fn raw_parts(&self) -> (usize, usize, &[Experience]) {
        (self.capacity, self.write, &self.buf)
    }

    /// Rebuilds a buffer from a [`ReplayBuffer::raw_parts`] snapshot:
    /// the restored ring pushes, evicts and samples exactly as the
    /// snapshotted one would have.
    pub fn from_raw_parts(capacity: usize, write: usize, buf: Vec<Experience>) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(buf.len() <= capacity, "ring holds more than its capacity");
        assert!(write < capacity, "write cursor out of range");
        Self {
            buf,
            capacity,
            write,
        }
    }
}

/// Class-balanced wait/submit replay (§4.9.2a).
///
/// Submit decisions are roughly 1-in-50 of the provisioning pool — at
/// most one per episode — so uniform sampling would starve the Q(submit)
/// column. Transitions are routed by action into two ring buffers, and
/// every mini-batch draws half its rows from the submit buffer (when it
/// has any), the same class balancing the online DQN loop has always
/// used, now shared instead of hand-rolled at each call site.
#[derive(Debug, Clone)]
pub struct BalancedReplay {
    wait: ReplayBuffer,
    submit: ReplayBuffer,
}

impl BalancedReplay {
    /// Two-buffer pool with the given per-class capacities.
    pub fn new(wait_capacity: usize, submit_capacity: usize) -> Self {
        Self {
            wait: ReplayBuffer::new(wait_capacity),
            submit: ReplayBuffer::new(submit_capacity),
        }
    }

    /// Routes a transition to its class buffer (action 1 = submit).
    pub fn push(&mut self, e: Experience) {
        if e.action == 1 {
            self.submit.push(e);
        } else {
            self.wait.push(e);
        }
    }

    /// Total stored transitions across both classes.
    pub fn len(&self) -> usize {
        self.wait.len() + self.submit.len()
    }

    /// Whether both class buffers are empty.
    pub fn is_empty(&self) -> bool {
        self.wait.is_empty() && self.submit.is_empty()
    }

    /// The wait-class (action 0) buffer.
    pub fn wait(&self) -> &ReplayBuffer {
        &self.wait
    }

    /// The submit-class (action 1) buffer.
    pub fn submit(&self) -> &ReplayBuffer {
        &self.submit
    }

    /// Reassembles a pool from two restored class rings (the
    /// checkpoint-resume path; pair with [`ReplayBuffer::raw_parts`] /
    /// [`ReplayBuffer::from_raw_parts`] on each class).
    pub fn from_buffers(wait: ReplayBuffer, submit: ReplayBuffer) -> Self {
        Self { wait, submit }
    }

    /// Samples an `n`-transition class-balanced mini-batch into `out`
    /// (cleared first): `n - n/2` wait rows, then `n/2` submit rows when
    /// the submit buffer has any. A one-class pool (either class empty)
    /// fills the whole batch from the other class; sampling an entirely
    /// empty pool panics. Allocation-free once `out` is warm.
    pub fn sample_into<'a>(&'a self, rng: &mut impl Rng, n: usize, out: &mut Vec<&'a Experience>) {
        out.clear();
        if self.wait.is_empty() {
            // Early all-submit training diets (e.g. an eager untrained
            // policy with no warm start) must not abort the run.
            self.submit.sample_into(rng, n, out);
            return;
        }
        let half = n / 2;
        self.wait.sample_into(rng, n - half, out);
        if !self.submit.is_empty() {
            self.submit.sample_into(rng, half, out);
        }
    }

    /// [`BalancedReplay::sample_into`] assembling straight into a
    /// row-stacked [`MiniBatch`]: identical RNG stream, draw order and
    /// class balancing, but the sampled states land directly in the
    /// stacked matrices the batched update consumes — no intermediate
    /// reference `Vec`. Allocation-free once `mb` is warm.
    pub fn sample_minibatch(&self, rng: &mut impl Rng, n: usize, mb: &mut MiniBatch) {
        mb.draws.clear();
        if self.wait.is_empty() {
            self.submit.record_draws(rng, n, true, &mut mb.draws);
        } else {
            let half = n / 2;
            self.wait.record_draws(rng, n - half, false, &mut mb.draws);
            if !self.submit.is_empty() {
                self.submit.record_draws(rng, half, true, &mut mb.draws);
            }
        }
        mb.assemble_draws(|submit, slot| {
            if submit {
                &self.submit.buf[slot]
            } else {
                &self.wait.buf[slot]
            }
        });
    }
}

/// A sampled mini-batch assembled as row-stacked matrices, ready for one
/// batched forward/backward per update instead of per-experience passes.
///
/// `states` stacks the `len` sampled state matrices (each `seq` rows) in
/// draw order, beside each sample's action and reward. All buffers are
/// retained across refills, so steady-state sampling and assembly
/// allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct MiniBatch {
    /// Row-stacked sampled states, `(len · seq) × m`.
    pub states: Matrix,
    /// Action index per sample, in draw order.
    pub actions: Vec<usize>,
    /// Observed reward per sample, in draw order.
    pub rewards: Vec<f32>,
    /// Sample count.
    pub len: usize,
    /// Rows per state matrix.
    pub seq: usize,
    /// Recorded `(submit-class, slot)` draws (scratch for two-pass
    /// assembly; retained so sampling never allocates once warm).
    draws: Vec<(bool, usize)>,
}

impl MiniBatch {
    /// Empty mini-batch; buffers grow on first fill and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mini-batch holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Assembles from an already-sampled reference batch, stacking states
    /// in slice order. Only tests call it, to feed a batch their
    /// per-sample oracles also see; training assembles directly from the
    /// recorded draws.
    pub fn assemble_refs(&mut self, batch: &[&Experience]) {
        self.assemble_with(batch.len(), |i| batch[i]);
    }

    /// Two-pass assembly from the recorded `draws`.
    fn assemble_draws<'a>(&mut self, lookup: impl Fn(bool, usize) -> &'a Experience) {
        // Detach the draw list so the lookup closure can read it while
        // the matrices fill (returned below — the buffer stays warm).
        let draws = std::mem::take(&mut self.draws);
        self.assemble_with(draws.len(), |i| {
            let (submit, slot) = draws[i];
            lookup(submit, slot)
        });
        self.draws = draws;
    }

    /// Shared assembly core: `lookup(i)` yields sample `i` of `n`.
    fn assemble_with<'a>(&mut self, n: usize, lookup: impl Fn(usize) -> &'a Experience) {
        self.len = n;
        self.actions.clear();
        self.rewards.clear();
        if n == 0 {
            self.seq = 0;
            self.states.reset(0, 0);
            return;
        }
        let (seq, m) = lookup(0).state.shape();
        self.seq = seq;
        self.states.reset(n * seq, m);
        for i in 0..n {
            let e = lookup(i);
            assert_eq!(
                e.state.shape(),
                (seq, m),
                "mini-batch states must share one shape"
            );
            for r in 0..seq {
                self.states
                    .row_mut(i * seq + r)
                    .copy_from_slice(e.state.row(r));
            }
            self.actions.push(e.action);
            self.rewards.push(e.reward);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn exp(reward: f32) -> Experience {
        Experience::terminal(Matrix::zeros(1, 2), 0, reward)
    }

    #[test]
    fn fills_then_overwrites_oldest() {
        let mut rb = ReplayBuffer::new(3);
        for i in 0..5 {
            rb.push(exp(i as f32));
        }
        assert_eq!(rb.len(), 3);
        let rewards: Vec<f32> = rb.iter().map(|e| e.reward).collect();
        // Slots: [3, 4, 2] after wrapping twice.
        assert!(rewards.contains(&2.0));
        assert!(rewards.contains(&3.0));
        assert!(rewards.contains(&4.0));
        assert!(!rewards.contains(&0.0));
    }

    #[test]
    fn sampling_draws_from_stored_items() {
        let mut rb = ReplayBuffer::new(10);
        for i in 0..10 {
            rb.push(exp(i as f32));
        }
        let mut rng = StdRng::seed_from_u64(0);
        let batch = rb.sample(&mut rng, 100);
        assert_eq!(batch.len(), 100);
        assert!(batch.iter().all(|e| e.reward >= 0.0 && e.reward < 10.0));
        // With 100 draws from 10 items we should see some variety.
        let distinct: std::collections::HashSet<_> =
            batch.iter().map(|e| e.reward as i64).collect();
        assert!(distinct.len() > 3);
    }

    #[test]
    #[should_panic(expected = "empty buffer")]
    fn sampling_empty_panics() {
        let rb = ReplayBuffer::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = rb.sample(&mut rng, 1);
    }

    #[test]
    fn sample_into_matches_sample() {
        let mut rb = ReplayBuffer::new(16);
        for i in 0..16 {
            rb.push(exp(i as f32));
        }
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let by_vec: Vec<f32> = rb.sample(&mut a, 32).iter().map(|e| e.reward).collect();
        let mut buf = Vec::new();
        rb.sample_into(&mut b, 32, &mut buf);
        let by_buf: Vec<f32> = buf.iter().map(|e| e.reward).collect();
        assert_eq!(by_vec, by_buf, "identical RNG stream, identical draws");
    }

    #[test]
    fn balanced_replay_routes_and_balances() {
        let mut rb = BalancedReplay::new(64, 64);
        for i in 0..50 {
            rb.push(Experience::terminal(Matrix::zeros(1, 2), 0, i as f32));
        }
        rb.push(Experience::terminal(Matrix::zeros(1, 2), 1, -1.0));
        assert_eq!(rb.len(), 51);
        assert_eq!(rb.wait().len(), 50);
        assert_eq!(rb.submit().len(), 1);
        let mut rng = StdRng::seed_from_u64(0);
        let mut batch = Vec::new();
        rb.sample_into(&mut rng, 8, &mut batch);
        assert_eq!(batch.len(), 8);
        // Half of every batch comes from the (tiny) submit class.
        assert_eq!(batch.iter().filter(|e| e.action == 1).count(), 4);
        // Wait rows lead, submit rows trail (the sequential loop's order).
        assert!(batch[..4].iter().all(|e| e.action == 0));
    }

    #[test]
    fn balanced_replay_without_waits_fills_from_submit() {
        let mut rb = BalancedReplay::new(16, 16);
        for i in 0..6 {
            rb.push(Experience::terminal(Matrix::zeros(1, 2), 1, i as f32));
        }
        let mut rng = StdRng::seed_from_u64(2);
        let mut batch = Vec::new();
        rb.sample_into(&mut rng, 8, &mut batch);
        assert_eq!(batch.len(), 8);
        assert!(batch.iter().all(|e| e.action == 1));
    }

    #[test]
    fn balanced_replay_without_submits_fills_from_wait() {
        let mut rb = BalancedReplay::new(16, 16);
        for i in 0..10 {
            rb.push(Experience::terminal(Matrix::zeros(1, 2), 0, i as f32));
        }
        let mut rng = StdRng::seed_from_u64(1);
        let mut batch = Vec::new();
        rb.sample_into(&mut rng, 9, &mut batch);
        // n - n/2 wait rows; the submit half is skipped while empty.
        assert_eq!(batch.len(), 5);
        assert!(batch.iter().all(|e| e.action == 0));
    }

    #[test]
    fn experience_constructors() {
        let t = Experience::terminal(Matrix::zeros(1, 1), 1, -2.0);
        assert_eq!((t.state.shape(), t.action, t.reward), ((1, 1), 1, -2.0));
    }
}
