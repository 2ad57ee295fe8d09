//! Reload ≡ fresh: a simulator that ran one trace and was then `reset()`
//! and loaded with another runs the second exactly like a simulator that
//! never saw the first.
//!
//! `reset()` keeps the job arena's slots and `load_trace` writes the new
//! records over them in place, so a slot the second trace does not reach
//! keeps a stale job, and a slot it does reach held another job's name,
//! status, attempt count, fault ledger and pool placement a moment ago.
//! The property draws two traces of independent lengths (the second
//! shorter, as long or longer), with ids from a small range that includes
//! 0 and repeats (so admission reassigns ids, differently per trace) and
//! names from empty to 40 bytes, and checks on both clocks, under drawn
//! faults and pools:
//!
//! * the reloaded run equals the fresh one in its hourly snapshots, the
//!   status and fault ledger of every id either trace can hold (hourly
//!   and at the end), and the finished run's completed jobs (names
//!   included), metrics and fault and pool counters;
//! * a restore (`clone_from`) of the reloaded simulator at a drawn hour
//!   into a simulator holding *more* jobs, and a `clone()` fork of it,
//!   both run on like it.

use std::ops::RangeInclusive;

use mirage_sim::{
    AnyBackend, BackendKind, ClusterBackend, ClusterSnapshot, FaultModel, FaultStats, HeteroModel,
    HeteroStats, JobFaults, JobStatus, SimConfig, SimMetrics,
};
use mirage_trace::{JobRecord, HOUR};
use proptest::prelude::*;

/// Hours of hourly snapshots; the drawn traces arrive within the first 40.
const HOURS: i64 = 48;

/// Drawn ids are below this, so most of a trace's ids are 0 or repeats.
const IDS: u64 = 6;

/// `((id, name length), user, submit, nodes, runtime)` of one job.
type Draw = ((u64, usize), u32, i64, u32, i64);

fn job_strategy() -> impl Strategy<Value = Draw> {
    (
        (0..IDS, 0usize..=40),
        0u32..4,
        0..40 * HOUR,
        1u32..=6,
        600i64..20_000,
    )
}

/// One job per draw, with a limit of twice its runtime and a name whose
/// letters depend on `tag`, so the two traces' names differ.
fn trace(tag: u8, draws: &[Draw]) -> Vec<JobRecord> {
    draws
        .iter()
        .enumerate()
        .map(|(i, &((id, len), user, submit, nodes, runtime))| {
            let name: String = (0..len)
                .map(|k| char::from(b'a' + (usize::from(tag) + i + k) as u8 % 26))
                .collect();
            JobRecord::new(id, name, user, submit, nodes, runtime * 2, runtime)
        })
        .collect()
}

/// `(status, fault ledger)` of each asked id.
type Ledger = Vec<(Option<JobStatus>, JobFaults)>;

/// What a finished run exposes: the ledger, the completed jobs, the
/// metrics and the fault and pool counters.
type End = (Ledger, Vec<JobRecord>, SimMetrics, FaultStats, HeteroStats);

fn ledger(backend: &AnyBackend, ids: &[u64]) -> Ledger {
    ids.iter()
        .map(|&id| (backend.status(id), backend.job_faults(id)))
        .collect()
}

/// Runs `backend` to each hour of `hours`, recording a snapshot and the
/// ledger there.
fn run_hours(
    backend: &mut AnyBackend,
    ids: &[u64],
    hours: RangeInclusive<i64>,
    out: &mut Vec<(ClusterSnapshot, Ledger)>,
) {
    for hour in hours {
        backend.run_until(hour * HOUR);
        out.push((backend.sample(), ledger(backend, ids)));
    }
}

fn finish(backend: &mut AnyBackend, ids: &[u64]) -> End {
    backend.run_to_completion();
    (
        ledger(backend, ids),
        backend.completed(),
        backend.metrics(),
        backend.fault_stats(),
        backend.hetero_stats(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `a`, then `reset()` + `load_trace(b)`, is a fresh `load_trace(b)`,
    /// and so are a restore of it into a fuller simulator and a fork of
    /// it, on both clocks under drawn faults and pools.
    #[test]
    fn a_reload_runs_like_a_fresh_load(
        a in prop::collection::vec(job_strategy(), 1..20),
        b in prop::collection::vec(job_strategy(), 0..20),
        nodes in 4u32..=10,
        chaos in (0u8..2, 0u64..1_000_000),
        pools in (0u8..3, 0u64..1_000_000),
        hours in (0..=HOURS + 1, 0..=HOURS),
    ) {
        let (a, b) = (trace(0, &a), trace(7, &b));
        // How far `a` runs before the reset (past `HOURS`: to completion),
        // and the hour of the restore and the fork.
        let (stop, fork) = hours;
        let faults = match chaos {
            (0, _) => FaultModel::none(),
            (_, seed) => FaultModel::severe(seed),
        };
        let hetero = match pools {
            (0, _) => HeteroModel::none(),
            (1, seed) => HeteroModel::balanced(nodes, seed),
            (_, seed) => HeteroModel::scarce(nodes, seed),
        };
        // Every drawn id, and every id admission can reassign to.
        let ids: Vec<u64> = (0..=IDS + (a.len() + b.len()) as u64).collect();
        // The restore target holds more jobs than either trace.
        let fuller: Vec<JobRecord> = a.iter().chain(&b).cloned().collect();

        for kind in [BackendKind::EventDriven, BackendKind::Tick] {
            let build = || {
                SimConfig::builder()
                    .nodes(nodes)
                    .faults(faults)
                    .hetero(hetero.clone())
                    .backend(kind)
                    .build()
            };

            let mut fresh = build();
            fresh.load_trace(&b);
            let mut expected = Vec::new();
            run_hours(&mut fresh, &ids, 1..=HOURS, &mut expected);
            let expected_end = finish(&mut fresh, &ids);

            let mut reloaded = build();
            reloaded.load_trace(&a);
            if stop > HOURS {
                reloaded.run_to_completion();
            } else {
                reloaded.run_until(stop * HOUR);
            }
            reloaded.reset();
            reloaded.load_trace(&b);
            let mut seen = Vec::new();
            run_hours(&mut reloaded, &ids, 1..=fork, &mut seen);

            let mut forked = reloaded.clone();
            let mut restored = build();
            restored.load_trace(&fuller);
            restored.run_until(stop.min(HOURS) * HOUR);
            restored.clone_from(&reloaded);

            for (name, backend) in [
                ("reloaded", &mut reloaded),
                ("forked", &mut forked),
                ("restored", &mut restored),
            ] {
                let mut hourly = seen.clone();
                run_hours(backend, &ids, fork + 1..=HOURS, &mut hourly);
                for (hour, (got, want)) in hourly.iter().zip(&expected).enumerate() {
                    prop_assert_eq!(got, want, "{:?} {} at hour {}", kind, name, hour + 1);
                }
                prop_assert_eq!(
                    &finish(backend, &ids),
                    &expected_end,
                    "{:?} {} at the end",
                    kind,
                    name
                );
            }
        }
    }
}
