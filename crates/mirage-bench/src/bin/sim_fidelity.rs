//! §5.2 simulator-fidelity study: the fast event-driven simulator vs the
//! tick-driven reference simulator on five randomly sampled weeks per
//! cluster.
//!
//! Paper numbers: makespan difference < 2.5 % across the five runs, JCT
//! geometric-mean difference ≤ 15 %, and 3–26× lower overhead.
//!
//! The two simulators here are one cluster state machine under two clocks
//! (`mirage_sim::reference`), so the `speedup` column measures the clock
//! alone: walking every 30 s tick and running every due pass over the
//! whole queue, against leaping between events and skipping passes that
//! cannot start anything. It reads about 2–12× on these weeks, and the
//! makespan / JCT columns are what moving starts onto the scheduler's
//! cadence costs in fidelity — nothing else differs between the runs.

use mirage_bench::prepare_cluster;
use mirage_sim::fidelity::run_both;
use mirage_trace::{ClusterProfile, WEEK};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    println!("Simulator fidelity: fast event-driven vs tick-driven reference");
    println!("(paper: makespan diff < 2.5%, JCT geomean diff <= 15%, 3-26x speedup)\n");
    let mut rng = StdRng::seed_from_u64(7);
    for profile in ClusterProfile::all() {
        let pc = prepare_cluster(&profile, None, 42);
        let span_end = pc.jobs.last().map(|j| j.submit).unwrap_or(0);
        println!("{}:", profile.name);
        println!(
            "  {:>6} {:>8} {:>14} {:>14} {:>12} {:>12} {:>9}",
            "week", "jobs", "makespan diff", "JCT geo diff", "fast (ms)", "ref (ms)", "speedup"
        );
        for w in 0..5 {
            let start = rng.gen_range(0..(span_end - WEEK).max(1));
            let lo = pc.jobs.partition_point(|j| j.submit < start);
            let hi = pc.jobs.partition_point(|j| j.submit < start + WEEK);
            let week: Vec<_> = pc.jobs[lo..hi].to_vec();
            if week.is_empty() {
                continue;
            }
            let (report, t_fast, t_ref) = run_both(&week, profile.nodes);
            println!(
                "  {:>6} {:>8} {:>13.2}% {:>13.2}% {:>12.1} {:>12.1} {:>8.1}x",
                w + 1,
                report.jobs_compared,
                report.makespan_rel_diff * 100.0,
                report.jct_geomean_diff * 100.0,
                t_fast.as_secs_f64() * 1e3,
                t_ref.as_secs_f64() * 1e3,
                t_ref.as_secs_f64() / t_fast.as_secs_f64().max(1e-9),
            );
        }
        println!();
    }
}
