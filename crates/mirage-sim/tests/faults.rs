//! Property-based tests for the fault-injection subsystem.
//!
//! Two guarantees matter for the chaos evaluation lane:
//!
//! 1. **Replay determinism** — the same fault seed produces bit-identical
//!    eviction/retry schedules run after run (including across `reset()`),
//!    on both the event-driven and the tick-driven backend. This is what
//!    makes the RL-vs-heuristic chaos comparison a controlled experiment.
//! 2. **Identity with faults off** — [`FaultModel::none`] leaves every
//!    observable output byte-for-byte equal to a config that predates the
//!    fault subsystem, so all existing identity pins hold unchanged.

mod common;

use mirage_sim::{
    ClusterBackend, FaultModel, FaultStats, HeteroModel, ReferenceConfig, ReferenceSimulator,
    RetryPolicy, SimConfig, SimMetrics, Simulator,
};
use mirage_trace::JobRecord;
use proptest::prelude::*;

/// Everything a run exposes, for whole-run equality checks.
fn observe<B: ClusterBackend>(backend: &mut B) -> (Vec<JobRecord>, SimMetrics, FaultStats) {
    backend.run_to_completion();
    (
        backend.completed(),
        backend.metrics(),
        backend.fault_stats(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same severe fault seed → bit-identical schedules: across two fresh
    /// simulators, and across `reset()` replay of one, on both backends.
    #[test]
    fn identical_seeds_give_bit_identical_fault_schedules(
        fault_seed in 0u64..1_000_000,
        seed_jobs in prop::collection::vec(
            (0i64..100_000, 1u32..=4, 1800i64..20_000), 1..25),
    ) {
        let trace = common::trace_from("f", &seed_jobs);

        let mut cfg = SimConfig::new(6);
        cfg.faults = FaultModel::severe(fault_seed);
        cfg.retry = RetryPolicy::default();
        let mut a = Simulator::new(cfg.clone());
        let mut b = Simulator::new(cfg);
        a.load_trace(&trace);
        b.load_trace(&trace);
        let run_a = observe(&mut a);
        prop_assert_eq!(&run_a, &observe(&mut b), "fresh event-driven twins");
        a.reset_with(&trace);
        prop_assert_eq!(&run_a, &observe(&mut a), "event-driven reset replay");

        let mut rcfg = ReferenceConfig::new(6);
        rcfg.faults = FaultModel::severe(fault_seed);
        rcfg.retry = RetryPolicy::default();
        let mut ra = ReferenceSimulator::new(rcfg.clone());
        let mut rb = ReferenceSimulator::new(rcfg);
        ra.load_trace(&trace);
        rb.load_trace(&trace);
        let run_ra = observe(&mut ra);
        prop_assert_eq!(&run_ra, &observe(&mut rb), "fresh tick-driven twins");
        ra.reset_with(&trace);
        prop_assert_eq!(&run_ra, &observe(&mut ra), "tick-driven reset replay");
    }

    /// `FaultModel::none()` is the identity: every observable output —
    /// completions (order included), metrics, snapshots, fault surface —
    /// is byte-for-byte what a fault-free config produces.
    #[test]
    fn none_model_changes_nothing(
        seed_jobs in prop::collection::vec(
            (0i64..80_000, 1u32..=4, 600i64..15_000), 1..30),
        probe in 0i64..100_000,
    ) {
        let trace = common::trace_from("f", &seed_jobs);

        let plain_cfg = SimConfig::new(8);
        let mut none_cfg = plain_cfg.clone();
        none_cfg.faults = FaultModel::none();
        none_cfg.retry = RetryPolicy::default();
        let mut plain = Simulator::new(plain_cfg);
        let mut none = Simulator::new(none_cfg);
        plain.load_trace(&trace);
        none.load_trace(&trace);
        plain.run_until(probe);
        none.run_until(probe);
        prop_assert_eq!(plain.sample(), none.sample(), "mid-run snapshot");
        prop_assert_eq!(observe(&mut plain), observe(&mut none), "event-driven");
        prop_assert_eq!(none.fault_stats(), FaultStats::default());

        let rplain_cfg = ReferenceConfig::new(8);
        let mut rnone_cfg = rplain_cfg.clone();
        rnone_cfg.faults = FaultModel::none();
        rnone_cfg.retry = RetryPolicy::default();
        let mut rplain = ReferenceSimulator::new(rplain_cfg);
        let mut rnone = ReferenceSimulator::new(rnone_cfg);
        rplain.load_trace(&trace);
        rnone.load_trace(&trace);
        rplain.run_until(probe);
        rnone.run_until(probe);
        prop_assert_eq!(rplain.sample(), rnone.sample(), "mid-run snapshot");
        prop_assert_eq!(observe(&mut rplain), observe(&mut rnone), "tick-driven");
    }

    /// Jobs and nodes are conserved under severe chaos, on both clocks,
    /// on a homogeneous partition or with pools underneath, under drawn
    /// retry policies, reservation depths and `sched_depth`s: every trace
    /// job completes, fails terminally or was rejected, every node is
    /// free, down or allocated on every hourly snapshot, retry
    /// bookkeeping stays consistent, `reset()` replays the run and a
    /// restore at a drawn hour runs on like the original (the body, shared
    /// with `tests/hetero.rs`, is `common::check_backend`).
    #[test]
    fn chaos_conserves_jobs_and_retry_accounting(
        fault_seed in 0u64..1_000_000,
        seed_jobs in prop::collection::vec(
            (0i64..100_000, 1u32..=4, 1800i64..20_000), 1..25),
        nodes in 4u32..=12,
        pools in (0u8..3, 0u64..1_000_000),
        cadence in common::cadence_strategy(),
        knobs in common::knobs_strategy(),
        fork_hour in 0..=common::SNAPSHOT_HOURS,
    ) {
        let hetero = match pools {
            (0, _) => HeteroModel::none(),
            (1, seed) => HeteroModel::balanced(nodes, seed),
            (_, seed) => HeteroModel::scarce(nodes, seed),
        };
        let builder = SimConfig::builder()
            .nodes(nodes)
            .faults(FaultModel::severe(fault_seed))
            .hetero(hetero);
        let trace = common::trace_from("f", &seed_jobs);
        common::check_conservation(builder, cadence, knobs, fork_hour, &trace)?;
    }
}
