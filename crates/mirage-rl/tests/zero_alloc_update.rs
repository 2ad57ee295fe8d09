//! Steady-state allocation regression pins for the batched DQN update,
//! on a transformer and on a 3-expert MoE foundation:
//! once the agent's retained buffers — mini-batch row-stacks,
//! forward/backward caches, gradient accumulators, Adam moments — are
//! warmed by two identically-shaped updates, a third update must not
//! touch the allocator at all. The agents' batched acting
//! (`DqnAgent::act_batch` / `act_greedy_batch`, `PgAgent::act_sample_batch`)
//! is pinned the same way, over a lockstep batch that narrows from four
//! rows to two.
//!
//! The tests stay in their own integration-test binary, and both the
//! counting window and the count are **thread-local**: the
//! `#[global_allocator]` sees every thread in the process — including
//! the libtest harness thread, which allocates at its own pace while a
//! test body runs, and the other test of this binary — so only the test
//! thread's own allocations may count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mirage_nn::foundation::FoundationKind;
use mirage_nn::tensor::Matrix;
use mirage_nn::transformer::TransformerConfig;
use mirage_rl::{
    ActionEncoding, DqnAgent, DqnConfig, DualHeadConfig, DualHeadNet, Experience, ExploreLane,
    MiniBatch, PgAgent, PgConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct CountingAlloc;

thread_local! {
    // Const-initialized so reading them from inside the allocator never
    // triggers a lazy TLS initialization (which could itself allocate).
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Counts one allocation if this thread armed the counter — `try_with`
/// so allocations during TLS teardown never panic inside the allocator.
fn record() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_batched_update_does_not_allocate() {
    assert_steady_update_allocates_nothing(FoundationKind::Transformer);
}

/// The MoE's params-only backward (per-expert encoders, one gate
/// product) must be as allocation-free as the transformer's.
#[test]
fn steady_state_moe_update_does_not_allocate() {
    assert_steady_update_allocates_nothing(FoundationKind::MoE { experts: 3 });
}

fn tiny_net(foundation: FoundationKind) -> DualHeadNet {
    DualHeadNet::new(DualHeadConfig {
        foundation,
        transformer: TransformerConfig {
            input_dim: 3,
            seq_len: 2,
            d_model: 8,
            heads: 2,
            layers: 1,
            ff_mult: 2,
        },
        action_encoding: ActionEncoding::TwoHead,
        freeze_foundation: false,
        seed: 7,
    })
}

/// Runs `f` with this thread's allocation counter armed and returns how
/// many allocations it made.
fn count_allocs(f: impl FnOnce()) -> usize {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(Cell::get)
}

fn assert_steady_update_allocates_nothing(foundation: FoundationKind) {
    let mut agent = DqnAgent::new(tiny_net(foundation), DqnConfig::default());

    let mut rng = StdRng::seed_from_u64(11);
    let batch: Vec<Experience> = (0..8)
        .map(|i| {
            let state = Matrix::xavier(2, 3, &mut rng);
            let reward = rng.gen::<f32>() - 0.5;
            Experience::terminal(state, i % 2, reward)
        })
        .collect();
    let refs: Vec<&Experience> = batch.iter().collect();
    let mut mb = MiniBatch::new();
    mb.assemble_refs(&refs);

    // Two warm-up updates grow every retained buffer to the batch shape
    // (including Adam's lazily-created moment matrices on the first).
    agent.train_minibatch(&mb);
    agent.train_minibatch(&mb);

    let mut loss = f32::NAN;
    let n = count_allocs(|| loss = agent.train_minibatch(&mb));

    assert!(loss.is_finite(), "update still trains: loss {loss}");
    assert_eq!(
        n, 0,
        "steady-state batched {foundation:?} update allocated {n} times"
    );
}

/// Once a four-row and a two-row tick have sized the agents' scratch
/// arenas and value buffers, batched acting allocates nothing — across
/// both foundations and a lockstep batch that narrows from four rows
/// (lanes 0-3) to two (lanes 1 and 3).
#[test]
fn warm_batched_acting_does_not_allocate() {
    let mut rng = StdRng::seed_from_u64(5);
    let wide = Matrix::xavier(4 * 2, 3, &mut rng);
    let narrow = Matrix::xavier(2 * 2, 3, &mut rng);
    let ticks: [(&Matrix, &[usize]); 2] = [(&wide, &[0, 1, 2, 3]), (&narrow, &[1, 3])];
    for foundation in [
        FoundationKind::Transformer,
        FoundationKind::MoE { experts: 3 },
    ] {
        let mut dqn = DqnAgent::new(tiny_net(foundation), DqnConfig::default());
        let mut pg = PgAgent::new(tiny_net(foundation), PgConfig::default());
        let mut lanes: Vec<ExploreLane> = (0..4).map(|i| ExploreLane::seeded(i, 0)).collect();
        let mut actions = Vec::new();
        let mut act_all = |dqn: &mut DqnAgent, pg: &mut PgAgent, lanes: &mut [ExploreLane]| {
            for &(states, rows) in &ticks {
                dqn.act_batch(states, lanes, rows, &mut actions);
                dqn.act_greedy_batch(states, rows.len(), &mut actions);
                pg.act_sample_batch(states, lanes, rows, &mut actions);
                assert!(actions.len() == rows.len() && actions.iter().all(|&a| a < 2));
            }
        };
        act_all(&mut dqn, &mut pg, &mut lanes);
        let n = count_allocs(|| act_all(&mut dqn, &mut pg, &mut lanes));
        assert_eq!(
            n, 0,
            "warm batched {foundation:?} acting allocated {n} times"
        );
        assert_eq!((dqn.fallbacks(), pg.fallbacks()), (0, 0), "{foundation:?}");
    }
}
