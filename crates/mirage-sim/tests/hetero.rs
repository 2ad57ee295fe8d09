//! Property-based tests for the heterogeneity subsystem.
//!
//! Two guarantees matter for the hetero evaluation lane:
//!
//! 1. **Identity with heterogeneity off** — both the homogeneous
//!    [`HeteroModel::none`] and a *degenerate* pooled model (one
//!    baseline-speed pool, zero contention) leave every observable output
//!    byte-for-byte equal to the pre-hetero homogeneous simulator, on both
//!    backends. This is the same discipline `FaultModel::none()` pins.
//! 2. **Replay determinism** — the same hetero seed produces bit-identical
//!    placements, slowdowns and pool-local eviction schedules run after
//!    run (including across `reset()`), with and without faults layered on
//!    top, so RL-vs-baseline comparisons are controlled experiments.

mod common;

use mirage_sim::{
    ClusterBackend, FaultModel, HeteroModel, HeteroStats, NodePool, ReferenceConfig,
    ReferenceSimulator, SimConfig, SimMetrics, Simulator,
};
use mirage_trace::JobRecord;
use proptest::prelude::*;

/// Everything a run exposes, for whole-run equality checks.
fn observe<B: ClusterBackend>(backend: &mut B) -> (Vec<JobRecord>, SimMetrics, HeteroStats) {
    backend.run_to_completion();
    (
        backend.completed(),
        backend.metrics(),
        backend.hetero_stats(),
    )
}

/// One baseline-speed pool covering the partition, contention off: the
/// pool machinery runs, but is mathematically an identity.
fn degenerate(nodes: u32) -> HeteroModel {
    HeteroModel::with_pools(vec![NodePool::new("v100", nodes, 1.0)], 0.0, 3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A single-pool, contention-off hetero config is byte-identical to
    /// the pre-hetero homogeneous path on both backends: same snapshots
    /// mid-run, same completions (order included), same metrics.
    #[test]
    fn degenerate_pool_model_changes_nothing(
        seed_jobs in prop::collection::vec(
            (0i64..80_000, 1u32..=4, 600i64..15_000), 1..30),
        probe in 0i64..100_000,
    ) {
        let trace = common::trace_from("h", &seed_jobs);

        let plain_cfg = SimConfig::new(8);
        let mut one_pool_cfg = plain_cfg.clone();
        one_pool_cfg.hetero = degenerate(8);
        one_pool_cfg.validate().unwrap();
        let mut plain = Simulator::new(plain_cfg);
        let mut pooled = Simulator::new(one_pool_cfg);
        plain.load_trace(&trace);
        pooled.load_trace(&trace);
        plain.run_until(probe);
        pooled.run_until(probe);
        let mut psnap = pooled.sample();
        prop_assert_eq!(psnap.pool_total.clone(), vec![8], "pool fields are reported");
        // Blank the pool-only fields, then demand byte-equality on the rest.
        psnap.pool_free.clear();
        psnap.pool_total.clear();
        prop_assert_eq!(plain.sample(), psnap, "mid-run snapshot");
        let (pc, pm, _) = observe(&mut plain);
        let (hc, hm, hstats) = observe(&mut pooled);
        prop_assert_eq!((pc, pm), (hc, hm), "event-driven identity");
        prop_assert_eq!(hstats.slowdowns, 0, "identity model never rescales");
        prop_assert_eq!(hstats.span_placements, 0);

        let rplain_cfg = ReferenceConfig::new(8);
        let mut rpool_cfg = rplain_cfg.clone();
        rpool_cfg.hetero = degenerate(8);
        rpool_cfg.validate().unwrap();
        let mut rplain = ReferenceSimulator::new(rplain_cfg);
        let mut rpooled = ReferenceSimulator::new(rpool_cfg);
        rplain.load_trace(&trace);
        rpooled.load_trace(&trace);
        rplain.run_until(probe);
        rpooled.run_until(probe);
        let mut rsnap = rpooled.sample();
        rsnap.pool_free.clear();
        rsnap.pool_total.clear();
        prop_assert_eq!(rplain.sample(), rsnap, "mid-run snapshot");
        let (pc, pm, _) = observe(&mut rplain);
        let (hc, hm, _) = observe(&mut rpooled);
        prop_assert_eq!((pc, pm), (hc, hm), "tick-driven identity");
    }

    /// Same hetero seed → bit-identical placement schedules: across two
    /// fresh simulators, and across `reset()` replay, on both backends,
    /// with node-crash faults layered on top of the pools.
    #[test]
    fn identical_seeds_give_bit_identical_hetero_schedules(
        hetero_seed in 0u64..1_000_000,
        fault_seed in 0u64..1_000_000,
        seed_jobs in prop::collection::vec(
            (0i64..100_000, 1u32..=4, 1800i64..20_000), 1..25),
    ) {
        let trace = common::trace_from("h", &seed_jobs);

        let mut cfg = SimConfig::new(8);
        cfg.hetero = HeteroModel::balanced(8, hetero_seed);
        cfg.faults = FaultModel::severe(fault_seed);
        cfg.validate().unwrap();
        let mut a = Simulator::new(cfg.clone());
        let mut b = Simulator::new(cfg);
        a.load_trace(&trace);
        b.load_trace(&trace);
        let run_a = observe(&mut a);
        prop_assert_eq!(&run_a, &observe(&mut b), "fresh event-driven twins");
        a.reset_with(&trace);
        prop_assert_eq!(&run_a, &observe(&mut a), "event-driven reset replay");

        let mut rcfg = ReferenceConfig::new(8);
        rcfg.hetero = HeteroModel::balanced(8, hetero_seed);
        rcfg.faults = FaultModel::severe(fault_seed);
        rcfg.validate().unwrap();
        let mut ra = ReferenceSimulator::new(rcfg.clone());
        let mut rb = ReferenceSimulator::new(rcfg);
        ra.load_trace(&trace);
        rb.load_trace(&trace);
        let run_ra = observe(&mut ra);
        prop_assert_eq!(&run_ra, &observe(&mut rb), "fresh tick-driven twins");
        ra.reset_with(&trace);
        prop_assert_eq!(&run_ra, &observe(&mut ra), "tick-driven reset replay");
    }

    /// Pool accounting is conserved under contended multi-pool scenarios,
    /// on both clocks, with reliable nodes or with faults on top, under
    /// drawn retry policies, reservation depths and `sched_depth`s: every
    /// job completes or terminates, the pools' free counts add up to the
    /// cluster's on every hourly snapshot and drain back to their totals,
    /// runtimes respect the slowdown bounds, `reset()` replays the run and
    /// a restore at a drawn hour runs on like the original (the body,
    /// shared with `tests/faults.rs`, is `common::check_backend`).
    #[test]
    fn pools_conserve_nodes_and_jobs(
        hetero_seed in 0u64..1_000_000,
        seed_jobs in prop::collection::vec(
            (0i64..100_000, 1u32..=4, 1800i64..20_000), 1..25),
        nodes in 4u32..=12,
        faults in (0u8..3, 0u64..1_000_000),
        cadence in common::cadence_strategy(),
        knobs in common::knobs_strategy(),
        fork_hour in 0..=common::SNAPSHOT_HOURS,
    ) {
        let faults = match faults {
            (0, _) => FaultModel::none(),
            (1, seed) => FaultModel::moderate(seed),
            (_, seed) => FaultModel::severe(seed),
        };
        let builder = SimConfig::builder()
            .nodes(nodes)
            .hetero(HeteroModel::scarce(nodes, hetero_seed))
            .faults(faults);
        let trace = common::trace_from("h", &seed_jobs);
        common::check_conservation(builder, cadence, knobs, fork_hour, &trace)?;
    }
}
