//! Comparing the fast event-driven simulator against the tick-driven
//! reference simulator on one sampled week (§5.2 in miniature).
//!
//! Both are the same cluster state machine; only the clock differs
//! (scheduling passes at events vs on `slurmctld`'s cadences), so the
//! printed differences and the speedup are the price of that cadence and
//! nothing else.
//!
//! ```sh
//! cargo run --release --example simulator_fidelity
//! ```

use mirage::prelude::*;
use mirage::sim::fidelity::run_both;

fn main() {
    let profile = ClusterProfile::v100().scaled(0.5);
    let mut cfg = SynthConfig::new(profile.clone(), 3);
    cfg.months = Some(1);
    let raw = TraceGenerator::new(cfg).generate();
    let (jobs, _) = clean_trace(&raw, profile.nodes);

    // One week out of the month.
    let week: Vec<_> = jobs
        .iter()
        .filter(|j| j.submit >= WEEK && j.submit < 2 * WEEK)
        .cloned()
        .collect();
    println!("replaying {} jobs through both simulators ...", week.len());
    let (report, t_fast, t_ref) = run_both(&week, profile.nodes);
    println!("jobs compared        : {}", report.jobs_compared);
    println!(
        "makespan             : fast {:.1}h vs reference {:.1}h ({:.2}% apart)",
        report.makespan_fast as f64 / HOUR as f64,
        report.makespan_reference as f64 / HOUR as f64,
        report.makespan_rel_diff * 100.0
    );
    println!(
        "JCT geo-mean diff    : {:.2}%  (paper budget: <= 15%)",
        report.jct_geomean_diff * 100.0
    );
    println!(
        "avg wait             : fast {:.2}h vs reference {:.2}h",
        report.avg_wait_fast / HOUR as f64,
        report.avg_wait_reference / HOUR as f64
    );
    println!(
        "wall-clock           : fast {:?} vs reference {:?} ({:.1}x speedup)",
        t_fast,
        t_ref,
        t_ref.as_secs_f64() / t_fast.as_secs_f64().max(1e-9)
    );
}
