//! Regenerates every table and figure in one run.
//!
//! Trains each (cluster × pair-size) experiment once and prints Figures
//! 8, 9 and 10 from the shared reports, so the full suite costs three
//! training passes per pair size instead of nine.

use mirage_bench::{
    cluster_reports, prepare_clusters, print_fig10, print_fig8, print_fig9, print_headline,
    EIGHT_NODES, ONE_NODE,
};
use std::process::Command;
use std::time::Instant;

fn run_binary(name: &str) {
    println!("\n################ {name} ################");
    let t = Instant::now();
    // Re-exec the sibling binary so each section stays independently
    // reproducible; fall back to a notice if missing.
    let exe = std::env::current_exe().expect("current exe");
    let dir = exe.parent().expect("bin dir");
    let status = Command::new(dir.join(name)).status();
    match status {
        Ok(s) if s.success() => {}
        other => println!("[run_all] {name} failed to run: {other:?}"),
    }
    println!("[run_all] {name} took {:?}", t.elapsed());
}

fn main() {
    let t_all = Instant::now();
    for bin in [
        "table1_trace_stats",
        "fig1_queue_wait",
        "fig2_job_arrivals",
        "fig3_node_hours",
        "fig4_wait_distribution",
        "sim_fidelity",
    ] {
        run_binary(bin);
    }

    // Figures 8/9/10 and the headline share trained experiments.
    let prepared = prepare_clusters();
    let one_node = cluster_reports(&prepared, ONE_NODE);
    let eight_nodes = cluster_reports(&prepared, EIGHT_NODES);
    println!("\n################ fig8_interruption_single ################");
    print_fig8(&one_node);
    println!("\n################ fig9_interruption_multi ################");
    print_fig9(&eight_nodes);
    println!("\n################ fig10_overlap_light ################");
    print_fig10(&one_node, &eight_nodes);
    println!("\n################ headline_summary ################");
    print_headline(&one_node);
    println!("\n[run_all] total {:?}", t_all.elapsed());
}
