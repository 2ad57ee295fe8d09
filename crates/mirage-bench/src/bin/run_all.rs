//! Regenerates every table and figure in one run.
//!
//! Trains each (cluster × pair-size) experiment once and prints Figures
//! 8, 9 and 10 from the shared reports, so the full suite costs three
//! training passes per pair size instead of nine.

use mirage_bench::{
    interruption_experiment, prepare_cluster, print_panel, print_reductions, ExperimentScale,
    FigureMetric, PreparedCluster,
};
use mirage_core::{EvalReport, LoadLevel};
use mirage_trace::ClusterProfile;
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

    // Figures 8/9/10 share trained experiments.
    let scale = ExperimentScale::default();
    let prepared: Vec<PreparedCluster> = ClusterProfile::all()
        .iter()
        .map(|p| prepare_cluster(p, None, 42))
        .collect();

    let mut single: Vec<(String, EvalReport)> = Vec::new();
    let mut multi: Vec<(String, EvalReport)> = Vec::new();
    for pc in &prepared {
        eprintln!(
            "[run_all] training 8 methods on {} (1-node pairs)",
            pc.profile.name
        );
        let t = Instant::now();
        let exp1 = interruption_experiment(pc, 1, 42, scale);
        eprintln!("[run_all]   1-node done in {:?}", t.elapsed());
        single.push((pc.profile.name.clone(), exp1.report));
        eprintln!(
            "[run_all] training 8 methods on {} (8-node pairs)",
            pc.profile.name
        );
        let t = Instant::now();
        let exp8 = interruption_experiment(pc, 8, 43, scale);
        eprintln!("[run_all]   8-node done in {:?}", t.elapsed());
        multi.push((pc.profile.name.clone(), exp8.report));
    }

    let single_refs: Vec<(String, &EvalReport)> =
        single.iter().map(|(n, r)| (n.clone(), r)).collect();
    let multi_refs: Vec<(String, &EvalReport)> =
        multi.iter().map(|(n, r)| (n.clone(), r)).collect();

    println!("\n################ fig8_interruption_single ################");
    print_panel(
        "Figure 8(a): avg interruption, 48h 1-node pairs",
        FigureMetric::Interruption,
        LoadLevel::Heavy,
        &single_refs,
    );
    print_reductions(LoadLevel::Heavy, &single_refs);
    print_panel(
        "Figure 8(b): avg interruption, 48h 1-node pairs",
        FigureMetric::Interruption,
        LoadLevel::Medium,
        &single_refs,
    );
    print_reductions(LoadLevel::Medium, &single_refs);

    println!("\n################ fig9_interruption_multi ################");
    print_panel(
        "Figure 9(a): avg interruption, 48h 8-node pairs",
        FigureMetric::Interruption,
        LoadLevel::Heavy,
        &multi_refs,
    );
    print_reductions(LoadLevel::Heavy, &multi_refs);
    print_panel(
        "Figure 9(b): avg interruption, 48h 8-node pairs",
        FigureMetric::Interruption,
        LoadLevel::Medium,
        &multi_refs,
    );
    print_reductions(LoadLevel::Medium, &multi_refs);

    println!("\n################ fig10_overlap_light ################");
    print_panel(
        "Figure 10(a): avg overlap, 1-node pairs",
        FigureMetric::Overlap,
        LoadLevel::Light,
        &single_refs,
    );
    print_panel(
        "Figure 10(b): avg overlap, 8-node pairs",
        FigureMetric::Overlap,
        LoadLevel::Light,
        &multi_refs,
    );

    println!("\n################ headline (zero-interruption / reductions) ################");
    for (name, report) in &single {
        println!("{name}:");
        for load in [LoadLevel::Heavy, LoadLevel::Medium] {
            let n = report.episodes_at(load);
            if n == 0 {
                continue;
            }
            for method in ["MoE+DQN", "transformer+PG"] {
                let s = report.summarize(method, load);
                let red = report
                    .reduction_vs_reactive(method, load)
                    .map(|r| format!("{r:.0}%"))
                    .unwrap_or_else(|| "n/a".into());
                println!(
                    "  {:6} {:16} zero={:3.0}% (n={:2}) reduction={red}",
                    load.label(),
                    method,
                    s.zero_interruption_frac * 100.0,
                    n
                );
            }
        }
    }
    println!("\n[run_all] total {:?}", t_all.elapsed());
}
