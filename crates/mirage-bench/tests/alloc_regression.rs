//! Allocation-regression test: the steady-state decision loop — simulator
//! step → `sample_into` → `encode_into` → `write_matrix` → `q_values` —
//! must perform **zero heap allocations** after warm-up, and so must the
//! *batched* lockstep loop (N simulators → one row-stacked batch →
//! one `q_values_batch` per tick).
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! drives 1 000 decision steps (with live completions and job starts
//! inside the window) and asserts the allocation counter did not move,
//! then repeats the claim for the batched engine, and finally for the
//! product path itself: an `EpisodeDriver` (the N = 1 view of the
//! hand-off engine) looping `advance → apply(Wait)` with decision
//! recording off must not allocate once warm. The warm-up
//! phases are what the `Scratch`/`*_into` reuse contract calls out: first
//! passes size every buffer, steady state then recycles them.
//!
//! "Warm" means every buffer has seen its deepest backlog. In the first
//! three phases the whole trace is queued before the window opens, so the
//! backlog only shrinks. Phase 4 is the other case — a queue deeper than
//! 128 jobs that keeps growing through the window — and there the claim
//! is narrower: the first such episode pays a bounded number of capacity
//! doublings (the simulator's pending table and pass scratch, the
//! snapshot's `queued`, the encoder's sort keys), and a repeat of it on
//! the same simulator after `reset()`, with the same snapshot and encoder
//! scratch, pays none.
//!
//! Phase 5 is the restore `evaluate` performs before every method's run:
//! an `EpisodeDriver` warmed once is restored (`restore_from`) into a
//! working driver that has just run an episode, and that restore — job
//! arena, event heap, queue, id map, history, snapshot — allocates
//! nothing.
//!
//! Phase 6 is the online-training lane driver: a 4-lane
//! `BatchedEpisodeDriver` (one engine per lane, their state matrices
//! stacked into one batch per tick) on the phase 1 backlog, recording
//! off, whose steady-state tick must not allocate either.
//!
//! Phase 7 is a congested pass the single-user backlogs never reach: six
//! users (so the fair-share tracker counts and refreshes several active
//! slots) and a queue hundreds deep that drains across `sched_depth`, so
//! the window runs passes both cut to the best `sched_depth` keys and
//! uncut. Its steady-state decision steps must not allocate.
//!
//! Phase 8 is the reload: `reset()` keeps the job arena's slots, so a
//! second `reset()` + `load_trace` of a trace loaded once before, and a
//! reload of a shorter trace, copy every record into a spare slot (the
//! name into the slot's old buffer) and allocate nothing; nor does a
//! phase 5 restore into a working engine that holds more jobs than its
//! source.
//!
//! This file intentionally contains a single test: the counter is global,
//! and a concurrently running test would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mirage_core::batch::BatchedEpisodeDriver;
use mirage_core::episode::{Action, EpisodeConfig, EpisodeDriver};
use mirage_core::state::{
    EncoderScratch, PredecessorState, StateEncoder, StateHistory, SuccessorSpec, STATE_VARS,
};
use mirage_nn::foundation::FoundationKind;
use mirage_nn::transformer::TransformerConfig;
use mirage_nn::{Matrix, Scratch};
use mirage_rl::{ActionEncoding, BatchInferCache, DualHeadConfig, DualHeadNet};
use mirage_sim::{ClusterSnapshot, SimConfig, Simulator};
use mirage_trace::{JobRecord, HOUR};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_decision_loop_is_allocation_free() {
    const NODES: u32 = 16;
    const K: usize = 12;
    const STEP: i64 = 600;

    // A heavily oversubscribed single-user backlog, fully submitted up
    // front: completions keep freeing nodes and queued jobs keep starting
    // throughout the measured window, so the zero-allocation claim covers
    // live event processing and scheduling passes, not an idle clock.
    let trace: Vec<JobRecord> = (0..2000)
        .map(|i| {
            JobRecord::new(
                i as u64 + 1,
                format!("bg{i}"),
                0,
                (i as i64 * 43) % (24 * HOUR),
                1 + (i % 3) as u32,
                8 * HOUR,
                4 * HOUR + (i as i64 % 7) * 1800,
            )
        })
        .collect();

    let mut sim = Simulator::new(SimConfig::new(NODES));
    sim.load_trace(&trace);

    let net = DualHeadNet::new(DualHeadConfig {
        foundation: FoundationKind::Transformer,
        transformer: TransformerConfig {
            input_dim: STATE_VARS,
            seq_len: K,
            d_model: 16,
            heads: 2,
            layers: 1,
            ff_mult: 2,
        },
        action_encoding: ActionEncoding::TwoHead,
        freeze_foundation: false,
        seed: 11,
    });

    let encoder = StateEncoder::new(NODES, 48 * HOUR);
    let mut history = StateHistory::new(K);
    let pred = PredecessorState {
        nodes: 1,
        timelimit: 48 * HOUR,
        queue_time: 0,
        elapsed: 12 * HOUR,
    };
    let succ = SuccessorSpec {
        nodes: 1,
        timelimit: 48 * HOUR,
    };
    let mut snap = ClusterSnapshot::default();
    let mut enc_scratch = EncoderScratch::default();
    let mut matrix = Matrix::zeros(0, 0);
    let mut scratch = Scratch::new();

    let decision_step = |sim: &mut Simulator,
                         history: &mut StateHistory,
                         snap: &mut ClusterSnapshot,
                         enc_scratch: &mut EncoderScratch,
                         matrix: &mut Matrix,
                         scratch: &mut Scratch| {
        sim.step(STEP);
        sim.sample_into(snap);
        history.push(encoder.encode_into(snap, &pred, &succ, enc_scratch));
        history.write_matrix(matrix);
        let q = net.q_values(matrix, scratch);
        let m = sim.metrics(); // O(1), also exercised in the loop
        u64::from(q[1] > q[0]) + m.completed_jobs as u64
    };

    // Warm-up: all arrivals enter the queue, buffers reach their peak
    // shapes, the single user records its first completion, and the
    // scratch arena settles into its steady take/give cycle.
    let mut checksum = 0u64;
    for _ in 0..300 {
        checksum += decision_step(
            &mut sim,
            &mut history,
            &mut snap,
            &mut enc_scratch,
            &mut matrix,
            &mut scratch,
        );
    }
    assert!(
        sim.metrics().completed_jobs > 0,
        "warm-up must include completions so the measured window is live"
    );
    assert!(
        !snap.queued.is_empty(),
        "measured window must run against a live backlog"
    );

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..1000 {
        checksum += decision_step(
            &mut sim,
            &mut history,
            &mut snap,
            &mut enc_scratch,
            &mut matrix,
            &mut scratch,
        );
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;

    // Completions and starts really happened inside the measured window.
    assert!(
        sim.metrics().completed_jobs > 50,
        "window was not live: only {} completions",
        sim.metrics().completed_jobs
    );
    assert_eq!(
        delta, 0,
        "steady-state decision loop allocated {delta} times across 1000 steps (checksum {checksum})"
    );

    // Phase 2: the batched lockstep loop. Four independent simulators
    // replay the same backlog on the timeline phase 1 proved
    // allocation-free (a staggered start would shift each lane's
    // internal Vec capacity doublings into the measured window and
    // charge simulator growth to the batched NN path under test), their
    // state matrices are row-stacked into one batch, and a single
    // `q_values_batch` answers every tick. After its own warm-up the
    // whole thing must also be allocation-free.
    const BATCH: usize = 4;
    let mut lanes: Vec<(Simulator, StateHistory, ClusterSnapshot, EncoderScratch)> = (0..BATCH)
        .map(|_| {
            let mut sim = Simulator::new(SimConfig::new(NODES));
            sim.load_trace(&trace);
            (
                sim,
                StateHistory::new(K),
                ClusterSnapshot::default(),
                EncoderScratch::default(),
            )
        })
        .collect();
    let mut stacked = Matrix::zeros(BATCH * K, STATE_VARS);
    let mut vals: Vec<[f32; 2]> = Vec::new();

    let batched_step =
        |lanes: &mut Vec<(Simulator, StateHistory, ClusterSnapshot, EncoderScratch)>,
         stacked: &mut Matrix,
         vals: &mut Vec<[f32; 2]>,
         scratch: &mut Scratch| {
            for (l, (sim, history, snap, enc)) in lanes.iter_mut().enumerate() {
                sim.step(STEP);
                sim.sample_into(snap);
                history.push(encoder.encode_into(snap, &pred, &succ, enc));
                history.write_matrix_rows(stacked, l * K);
            }
            net.q_values_batch(stacked, BATCH, vals, scratch, &mut BatchInferCache);
            vals.iter().map(|&q| u64::from(q[1] > q[0])).sum::<u64>()
        };

    for _ in 0..300 {
        checksum += batched_step(&mut lanes, &mut stacked, &mut vals, &mut scratch);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..1000 {
        checksum += batched_step(&mut lanes, &mut stacked, &mut vals, &mut scratch);
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(
        lanes
            .iter()
            .any(|(sim, ..)| sim.metrics().completed_jobs > 50),
        "batched window was not live"
    );
    assert_eq!(
        delta, 0,
        "steady-state batched loop allocated {delta} times across 1000 ticks (checksum {checksum})"
    );

    // Phase 3: the product decision loop. An `EpisodeDriver` on the same
    // backlog, its predecessor submitted once every arrival is in,
    // recording off. The first tick sizes the state matrix and the
    // warm-up lets the snapshot reach its widest running set (as in
    // phase 1); every later `advance → apply(Wait)` must leave the
    // allocator alone.
    let cfg = EpisodeConfig {
        pair_nodes: 1,
        pair_timelimit: 400 * HOUR,
        pair_runtime: 400 * HOUR,
        decision_interval: STEP,
        history_k: K,
        ..EpisodeConfig::default()
    };
    let mut sim = Simulator::new(SimConfig::new(NODES));
    let mut driver = EpisodeDriver::new(&mut sim, &trace, &cfg, 30 * HOUR);
    driver.set_record_decisions(false);
    let tick = |driver: &mut EpisodeDriver<&mut Simulator>| {
        let ctx = driver.advance().expect("predecessor outlives the window");
        let seen = ctx.snapshot.queued.len() as u64 + ctx.state_matrix.rows() as u64;
        assert!(!driver.apply(Action::Wait));
        seen
    };
    for _ in 0..300 {
        checksum += tick(&mut driver);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..1000 {
        checksum += tick(&mut driver);
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let completed = driver.into_backend().metrics().completed_jobs;
    assert!(completed > 50, "driver window was not live: {completed}");
    assert_eq!(
        delta, 0,
        "EpisodeDriver advance/apply allocated {delta} times across 1000 ticks (checksum {checksum})"
    );

    // Phase 4: a backlog deeper than 128 that is still growing. 260 jobs
    // land in the first hour, then one every 20 minutes against a drain
    // of about one and a half an hour, so arrivals, starts and
    // completions all happen inside the window while the queue climbs
    // from 328 to 569 — across the 512-entry capacity doubling of every
    // backlog-sized buffer. The first episode may pay those doublings
    // (seven, counted when the depth cut became a budget of reads; six
    // when this phase was written) and nothing else; the same episode
    // again after `reset()` must not allocate at all.
    let growing: Vec<JobRecord> = (0..1200i64)
        .map(|i| {
            let submit = if i < 260 {
                i * 13
            } else {
                HOUR + (i - 260) * 1200
            };
            JobRecord::new(
                i as u64 + 1,
                format!("g{i}"),
                (i % 3) as u32,
                submit,
                1 + (i % 3) as u32,
                8 * HOUR,
                4 * HOUR + (i % 7) * 1800,
            )
        })
        .collect();
    let mut sim = Simulator::new(SimConfig::new(NODES));
    let mut snap = ClusterSnapshot::default();
    let mut enc_scratch = EncoderScratch::default();
    let mut window_allocs = [0u64; 2];
    for allocs in &mut window_allocs {
        sim.reset();
        sim.load_trace(&growing);
        for _ in 0..300 {
            checksum += decision_step(
                &mut sim,
                &mut history,
                &mut snap,
                &mut enc_scratch,
                &mut matrix,
                &mut scratch,
            );
        }
        let depth_at_open = snap.queued.len();
        assert!(depth_at_open > 128, "queue only {depth_at_open} deep");
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..1000 {
            checksum += decision_step(
                &mut sim,
                &mut history,
                &mut snap,
                &mut enc_scratch,
                &mut matrix,
                &mut scratch,
            );
        }
        *allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert!(
            snap.queued.len() > depth_at_open + 100,
            "queue did not grow: {depth_at_open} -> {}",
            snap.queued.len()
        );
        assert!(sim.is_active() && sim.metrics().completed_jobs > 200);
    }
    let [first, repeat] = window_allocs;
    assert!(
        first <= 8,
        "growing backlog allocated {first} times: more than its buffers' doublings"
    );
    assert_eq!(
        repeat, 0,
        "repeat of the growing episode after reset() allocated {repeat} times (checksum {checksum})"
    );

    // Phase 5: warm once, restore per method — what `evaluate` does at
    // every episode start. A driver warmed on `sim` (the phase 1 backlog,
    // predecessor in) is forked into a working driver that owns a clone
    // of the backend; each round the working driver runs (decisions,
    // completions, starts, a successor submitted half-way) and is then
    // restored from the warm driver. Every restore into the used working
    // driver must leave the allocator alone.
    let mut sim = Simulator::new(SimConfig::new(NODES));
    let mut warm = EpisodeDriver::new(&mut sim, &trace, &cfg, 30 * HOUR);
    warm.set_record_decisions(false);
    let mut work: EpisodeDriver<Simulator> = warm.fork();
    let mut restore_allocs = [0u64; 3];
    for allocs in &mut restore_allocs {
        for step in 0..24 {
            let ctx = work.advance().expect("the successor is not in yet");
            checksum += ctx.snapshot.queued.len() as u64;
            let action = if step == 12 {
                Action::Submit
            } else {
                Action::Wait
            };
            if work.apply(action) {
                break;
            }
        }
        assert!(work.advance().is_none(), "the successor went in");
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        work.restore_from(&warm);
        *allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    }
    assert_eq!(
        restore_allocs, [0; 3],
        "restoring a warm driver into a used one allocated (checksum {checksum})"
    );

    // Phase 6: the lockstep training lanes. Four engines on the phase 1
    // backlog, predecessors in at the phase 3 instant, recording off;
    // each tick advances every lane, stacks the batch, reads every
    // pending context and waits. After phase 3's warm-up length, 1 000
    // such ticks must leave the allocator alone.
    const LANES: usize = 4;
    let backends = (0..LANES).map(|_| Simulator::new(SimConfig::new(NODES)));
    let mut lanes = BatchedEpisodeDriver::new(backends, &trace, &cfg, &[30 * HOUR; LANES]);
    lanes.set_record_decisions(false);
    let waits = [Action::Wait; LANES];
    let lane_tick = |driver: &mut BatchedEpisodeDriver<Simulator>| {
        let width = driver.advance_tick();
        assert_eq!(width, LANES, "every predecessor outlives the window");
        let mut queued = driver.batch_states().rows() as u64;
        for row in 0..width {
            queued += driver.pending_context(row).snapshot.queued.len() as u64;
        }
        driver.apply(&waits[..width]);
        queued
    };
    for _ in 0..300 {
        checksum += lane_tick(&mut lanes);
    }
    let at_open = lane_tick(&mut lanes);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut at_close = at_open;
    for _ in 0..1000 {
        at_close = lane_tick(&mut lanes);
        checksum += at_close;
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(
        at_close < at_open,
        "lane window was not live: {at_open} -> {at_close}"
    );
    assert_eq!(
        delta, 0,
        "BatchedEpisodeDriver tick allocated {delta} times across 1000 ticks (checksum {checksum})"
    );

    // Phase 7: six users and a deep queue that drains across
    // `sched_depth`. 700 jobs land in the first hour; about two finish an
    // hour, so the queue opens the window above the 400-job depth (every
    // pass cuts to the best 400 keys) and closes it below (no cut). As in
    // phase 4, the first episode may pay for a running set wider than any
    // before (two allocations when this phase was written); the same
    // episode again after `reset()` must not allocate at all.
    const DEPTH: usize = 400;
    let users: Vec<JobRecord> = (0..700i64)
        .map(|i| {
            JobRecord::new(
                i as u64 + 1,
                format!("u{i}"),
                (i % 6) as u32,
                i * 5,
                1 + (i % 3) as u32,
                8 * HOUR,
                3 * HOUR + (i % 5) * 1800,
            )
        })
        .collect();
    let mut deep = SimConfig::new(NODES);
    deep.sched_depth = DEPTH;
    let mut sim = Simulator::new(deep);
    let mut window_allocs = [0u64; 2];
    for allocs in &mut window_allocs {
        sim.reset();
        sim.load_trace(&users);
        for _ in 0..300 {
            checksum += decision_step(
                &mut sim,
                &mut history,
                &mut snap,
                &mut enc_scratch,
                &mut matrix,
                &mut scratch,
            );
        }
        let depth_at_open = snap.queued.len();
        let completed_at_open = sim.metrics().completed_jobs;
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..1000 {
            checksum += decision_step(
                &mut sim,
                &mut history,
                &mut snap,
                &mut enc_scratch,
                &mut matrix,
                &mut scratch,
            );
        }
        *allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
        let depth_at_close = snap.queued.len();
        assert!(
            depth_at_open > DEPTH && (100..DEPTH).contains(&depth_at_close),
            "queue did not drain across sched_depth: {depth_at_open} -> {depth_at_close}"
        );
        let queued_users: std::collections::BTreeSet<u32> =
            snap.queued.iter().map(|q| q.user).collect();
        assert!(
            queued_users.len() >= 5,
            "only {} users queued",
            queued_users.len()
        );
        assert!(sim.metrics().completed_jobs > completed_at_open + 100);
    }
    let [first, repeat] = window_allocs;
    assert!(
        first <= 4,
        "six-user congested passes allocated {first} times: more than a wider running set"
    );
    assert_eq!(
        repeat, 0,
        "repeat of the six-user congested episode after reset() allocated {repeat} times (checksum {checksum})"
    );

    // Phase 8: reloads write into the job arena's slots. After one run
    // of the phase 1 backlog, reloading it and then reloading a shorter
    // trace with shorter names (run to completion in between, so every
    // slot is dirty) must not allocate; each reload runs every job.
    let shorter: Vec<JobRecord> = trace[..1500]
        .iter()
        .enumerate()
        .map(|(i, j)| JobRecord {
            name: format!("s{i}"),
            runtime: j.runtime / 2,
            ..j.clone()
        })
        .collect();
    let mut sim = Simulator::new(SimConfig::new(NODES));
    sim.load_trace(&trace);
    sim.run_to_completion();
    let mut reload_allocs = [0u64; 2];
    for (allocs, jobs) in reload_allocs.iter_mut().zip([&trace, &shorter]) {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        sim.reset();
        sim.load_trace(jobs);
        *allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
        sim.run_to_completion();
        assert_eq!(sim.metrics().completed_jobs, jobs.len());
    }
    assert_eq!(
        reload_allocs, [0; 2],
        "reloading the same trace, then a shorter one, allocated"
    );

    // The phase 5 restore from a driver warmed on the shorter trace
    // (1 500 jobs) into a working driver forked from one warmed on the
    // phase 1 backlog (2 000 jobs, renamed so that no slot's name is
    // shorter than the source's, the predecessor's included: a restore
    // grows a name buffer only for a longer name). The first restore
    // leaves 500 spare slots in the working arena, and each later round's
    // working driver again holds one job more than its source (the
    // successor). No restore may allocate.
    let longer: Vec<JobRecord> = trace
        .iter()
        .enumerate()
        .map(|(i, j)| JobRecord {
            name: format!("background{i:04}"),
            ..j.clone()
        })
        .collect();
    let mut big = Simulator::new(SimConfig::new(NODES));
    let mut warm_big = EpisodeDriver::new(&mut big, &longer, &cfg, 30 * HOUR);
    warm_big.set_record_decisions(false);
    let mut work: EpisodeDriver<Simulator> = warm_big.fork();
    let mut small = Simulator::new(SimConfig::new(NODES));
    let mut warm = EpisodeDriver::new(&mut small, &shorter, &cfg, 30 * HOUR);
    warm.set_record_decisions(false);
    let mut restore_allocs = [0u64; 3];
    for allocs in &mut restore_allocs {
        for step in 0..24 {
            let ctx = work.advance().expect("the successor is not in yet");
            checksum += ctx.snapshot.queued.len() as u64;
            let action = if step == 12 {
                Action::Submit
            } else {
                Action::Wait
            };
            if work.apply(action) {
                break;
            }
        }
        assert!(work.advance().is_none(), "the successor went in");
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        work.restore_from(&warm);
        *allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    }
    assert_eq!(
        restore_allocs, [0; 3],
        "restoring a warm driver into one holding more jobs allocated (checksum {checksum})"
    );
}
