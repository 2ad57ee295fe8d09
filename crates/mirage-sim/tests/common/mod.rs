//! What `tests/faults.rs` and `tests/hetero.rs` share: their trace
//! builder and the conservation property, one body generic over
//! [`ClusterBackend`] that both run on the event clock and on the tick
//! clock with faults and pools combined, under drawn retry,
//! backfill-reservation and `sched_depth` knobs — and the fork pin: a
//! backend restored mid-run (`clone_from`) into a dirty one runs on
//! exactly like the original.

use mirage_sim::{
    BackendKind, BackfillPolicy, ClusterBackend, ClusterSnapshot, FaultStats, HeteroStats,
    RetryPolicy, SimBuilder, SimMetrics,
};
use mirage_trace::{JobRecord, DAY, HOUR};
use proptest::prelude::*;

/// Everything a run exposes: its hourly snapshots and trailing-day mean
/// waits, then the finished run's completed jobs, metrics and fault and
/// pool counters.
type Observed = (
    Vec<(ClusterSnapshot, Option<f64>)>,
    Vec<JobRecord>,
    SimMetrics,
    FaultStats,
    HeteroStats,
);

/// One job per `(submit, nodes, runtime)` triple, named `<tag><index>`,
/// spread over four users, each with a limit of twice its runtime.
pub fn trace_from(tag: &str, seed_jobs: &[(i64, u32, i64)]) -> Vec<JobRecord> {
    seed_jobs
        .iter()
        .enumerate()
        .map(|(i, &(submit, n, runtime))| {
            JobRecord::new(
                i as u64 + 1,
                format!("{tag}{i}"),
                (i % 4) as u32,
                submit,
                n,
                runtime * 2,
                runtime,
            )
        })
        .collect()
}

/// Hourly snapshots while the trace arrives and drains, then the tail.
pub const SNAPSHOT_HOURS: i64 = 72;

/// Runs the loaded trace on from hour `from` to completion, checking on
/// hourly snapshots that the clock lands where it was sent (and never
/// runs backwards after) and every node is in exactly one place: free,
/// down, or under a running job — and, on a heterogeneous partition,
/// that the pools' free counts add up to the cluster's.
fn drive<B: ClusterBackend>(backend: &mut B, from: i64) -> Result<Observed, String> {
    let mut samples = Vec::new();
    for hour in from + 1..=SNAPSHOT_HOURS {
        backend.run_until(hour * HOUR);
        let snap = backend.sample();
        prop_assert_eq!(snap.now, hour * HOUR);
        let allocated: u32 = snap.running.iter().map(|r| r.nodes).sum();
        prop_assert_eq!(
            snap.free_nodes + snap.down_nodes + allocated,
            snap.total_nodes,
            "free + down + allocated at t={}",
            snap.now
        );
        if !snap.pool_total.is_empty() {
            prop_assert_eq!(snap.pool_free.iter().sum::<u32>(), snap.free_nodes);
            prop_assert!(snap
                .pool_free
                .iter()
                .zip(&snap.pool_total)
                .all(|(f, t)| f <= t));
        }
        samples.push((snap, backend.avg_recent_wait(DAY)));
    }
    let last = samples.last().map_or(from * HOUR, |(snap, _)| snap.now);
    backend.run_to_completion();
    prop_assert!(backend.now() >= last, "clock ran backwards");
    Ok((
        samples,
        backend.completed(),
        backend.metrics(),
        backend.fault_stats(),
        backend.hetero_stats(),
    ))
}

/// Jobs, nodes and retry accounting are conserved on `backend` over
/// `trace`, `reset()` replays the run exactly, and a restore at
/// `fork_hour` runs on exactly like the run it was taken from.
fn check_backend<B: ClusterBackend + Clone>(
    backend: &mut B,
    trace: &[JobRecord],
    fork_hour: i64,
) -> Result<(), String> {
    backend.load_trace(trace);
    let run = drive(backend, 0)?;
    let (_, completed, m, faults, hetero) = &run;

    prop_assert_eq!(
        completed.len() + m.failed_jobs + m.rejected_jobs,
        trace.len(),
        "complete + terminal-fail + rejected must cover the trace"
    );
    prop_assert_eq!(m.failed_jobs as u64, faults.failed_jobs);
    prop_assert!(
        faults.retries <= faults.evictions,
        "every retry is an eviction"
    );
    prop_assert!(faults.job_failures <= faults.evictions);
    prop_assert!(
        faults.retry_successes as usize <= completed.len(),
        "retry successes are completions"
    );

    // Nothing runs any more: every node is free or still crashed (the
    // tick clock stops with the last job, not with the fault tape).
    let cluster = backend.cluster();
    let down = cluster.total_nodes() - cluster.available_nodes();
    prop_assert_eq!(cluster.free_nodes() + down, cluster.total_nodes());
    prop_assert_eq!(cluster.contended_running(), 0);
    if !cluster.pool_total().is_empty() {
        prop_assert_eq!(
            cluster.pool_free().iter().sum::<u32>(),
            cluster.free_nodes()
        );
        if down == 0 {
            prop_assert_eq!(
                cluster.pool_free(),
                cluster.pool_total(),
                "pools drain to full"
            );
        }
        // Every attempt was placed once and ended as a completion or an
        // eviction.
        prop_assert_eq!(hetero.placements, completed.len() as u64 + faults.evictions);
    }
    prop_assert!(hetero.span_placements <= hetero.placements);

    // Completed jobs respect causality; slowdowns stay within the worst
    // case (`(1 + contention) / slowest throughput`, capped by the time
    // limit).
    for j in completed {
        let (start, end) = (j.start.unwrap(), j.end.unwrap());
        prop_assert!(start >= j.submit);
        let max_scaled = ((j.runtime as f64) * 2.0 / 0.6).ceil() as i64 + 1;
        prop_assert!(end - start > 0 && end - start <= max_scaled.min(j.timelimit));
    }

    backend.reset_with(trace);
    prop_assert_eq!(&drive(backend, 0)?, &run, "reset replays the run");

    // A restore is `clone_from`, here into a dirty backend (a copy of the
    // finished run, with every buffer at its deepest) at the drawn hour.
    let mut restored = backend.clone();
    backend.reset_with(trace);
    backend.run_until(fork_hour * HOUR);
    restored.clone_from(backend);
    let original = drive(backend, fork_hour)?;
    prop_assert_eq!(
        &drive(&mut restored, fork_hour)?,
        &original,
        "restored at hour {}",
        fork_hour
    );
    Ok(())
}

/// The tick clock's `(tick, sched_interval, backfill_interval)`, seconds.
pub type Cadence = (i64, i64, i64);

/// A tick of 1, 30 or 97 s (the last divides neither an hour nor an
/// interval) and a main and a backfill pass every tick, 60, 120 or 300 s.
pub fn cadence_strategy() -> impl Strategy<Value = Cadence> {
    (0usize..3, 0usize..4, 0usize..4).prop_map(|(tick, sched, backfill)| {
        let tick = [1, 30, 97][tick];
        let interval = |i: usize| [tick, 60, 120, 300][i];
        (tick, interval(sched), interval(backfill))
    })
}

/// The scheduling and retry knobs: a retry policy, an EASY backfill
/// reservation depth and the event clock's `sched_depth` (the tick clock
/// ignores it).
pub type Knobs = (RetryPolicy, BackfillPolicy, usize);

/// 1 to 5 attempts with 0–600 s base and 0–3 600 s cap backoff (a cap
/// below the base included), `reserve_depth` 1 to 3, and a `sched_depth`
/// of 1, 8 or 512.
pub fn knobs_strategy() -> impl Strategy<Value = Knobs> {
    (1u32..=5, 0i64..=600, 0i64..=3_600, 1usize..=3, 0usize..3).prop_map(
        |(max_attempts, backoff_base, backoff_cap, reserve_depth, depth)| {
            let retry = RetryPolicy {
                max_attempts,
                backoff_base,
                backoff_cap,
            };
            (
                retry,
                BackfillPolicy::Easy { reserve_depth },
                [1, 8, 512][depth],
            )
        },
    )
}

/// [`check_backend`] on both clocks of the cluster `builder` describes,
/// with the drawn `knobs`, the tick clock on the drawn `cadence`, forked
/// at the drawn `fork_hour` (`0..=SNAPSHOT_HOURS`).
pub fn check_conservation(
    builder: SimBuilder,
    (tick, sched_interval, backfill_interval): Cadence,
    (retry, backfill, sched_depth): Knobs,
    fork_hour: i64,
    trace: &[JobRecord],
) -> Result<(), String> {
    let builder = builder
        .retry(retry)
        .backfill(backfill)
        .sched_depth(sched_depth)
        .tick(tick)
        .sched_interval(sched_interval)
        .backfill_interval(backfill_interval);
    for kind in [BackendKind::EventDriven, BackendKind::Tick] {
        let mut backend = builder
            .clone()
            .backend(kind)
            .try_build()
            .map_err(|e| e.to_string())?;
        check_backend(&mut backend, trace, fork_hour).map_err(|e| format!("{kind:?}: {e}"))?;
    }
    Ok(())
}
