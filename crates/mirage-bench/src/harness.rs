//! Shared experiment plumbing.

use mirage_core::prelude::*;
use mirage_core::train::{collect_offline, sample_training_starts, OfflineData};
use mirage_sim::SimConfig;
use mirage_trace::{
    clean_trace, split_by_time, CleanReport, ClusterProfile, JobRecord, SynthConfig,
    TraceGenerator, HOUR,
};

/// Whether `MIRAGE_QUICK=1` smoke mode is active.
pub fn quick_mode() -> bool {
    std::env::var("MIRAGE_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// A generated, cleaned and split cluster trace ready for experiments.
pub struct PreparedCluster {
    /// Cluster profile the trace models.
    pub profile: ClusterProfile,
    /// Cleaned jobs, sorted by submit time.
    pub jobs: Vec<JobRecord>,
    /// Raw (pre-cleaning) job count.
    pub raw_jobs: usize,
    /// Cleaning report (Table 1 numbers).
    pub clean_report: CleanReport,
    /// Training range `[start, end)` (first 80 % of the span).
    pub train_range: (i64, i64),
    /// Validation range `[start, end)` (last 20 %).
    pub val_range: (i64, i64),
}

/// Generates, cleans and splits one cluster's trace (80:20 as in §6).
pub fn prepare_cluster(
    profile: &ClusterProfile,
    months: Option<u32>,
    seed: u64,
) -> PreparedCluster {
    let mut cfg = SynthConfig::new(profile.clone(), seed);
    cfg.months = months;
    if quick_mode() {
        cfg.months = Some(months.unwrap_or(profile.trace_months).min(3));
    }
    let raw = TraceGenerator::new(cfg).generate();
    let (jobs, clean_report) = clean_trace(&raw, profile.nodes);
    let split = split_by_time(&jobs, 0.8);
    let first = jobs.first().map(|j| j.submit).unwrap_or(0);
    let last = jobs.last().map(|j| j.submit).unwrap_or(0);
    PreparedCluster {
        profile: profile.clone(),
        raw_jobs: raw.len(),
        clean_report,
        train_range: (first, split.split_time),
        val_range: (split.split_time, last),
        jobs,
    }
}

/// Experiment scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentScale {
    /// Offline collection episode starts.
    pub offline_episodes: usize,
    /// Online RL fine-tuning episodes.
    pub online_episodes: usize,
    /// Validation episodes.
    pub eval_episodes: usize,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        if quick_mode() {
            Self {
                offline_episodes: 8,
                online_episodes: 12,
                eval_episodes: 10,
            }
        } else {
            Self {
                offline_episodes: 32,
                online_episodes: 80,
                eval_episodes: 60,
            }
        }
    }
}

/// Most node-second-hungry user of a trace. The provisioned pair runs as
/// this user so its sub-jobs queue with a realistic (poor) fair-share
/// standing — a fresh user id would jump every congested queue.
pub fn busiest_user(jobs: &[JobRecord]) -> u32 {
    use std::collections::HashMap;
    let mut usage: HashMap<u32, f64> = HashMap::new();
    for j in jobs {
        *usage.entry(j.user).or_insert(0.0) += j.nodes as f64 * j.runtime as f64;
    }
    usage
        .into_iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(b.0.cmp(&a.0)))
        .map(|(u, _)| u)
        .unwrap_or(0)
}

/// A §6 pair size and its one training seed: every binary trains a pair
/// size with the same seed, so a figure panel reads the same in its own
/// binary and in `run_all`.
#[derive(Debug, Clone, Copy)]
pub struct PairSize {
    /// Nodes per sub-job.
    pub nodes: u32,
    /// Training and evaluation seed.
    pub seed: u64,
}

/// 48 h single-node pairs: Figures 8 and 10(a) and the headline.
pub const ONE_NODE: PairSize = PairSize { nodes: 1, seed: 42 };

/// 48 h eight-node pairs: Figures 9 and 10(b).
pub const EIGHT_NODES: PairSize = PairSize { nodes: 8, seed: 43 };

/// Every cluster's prepared trace, in [`ClusterProfile::all`] order.
pub fn prepare_clusters() -> Vec<PreparedCluster> {
    ClusterProfile::all()
        .iter()
        .map(|p| prepare_cluster(p, None, 42))
        .collect()
}

/// Trains and evaluates the eight methods on every prepared cluster at
/// one pair size, at [`ExperimentScale::default`]; the reports are named
/// by cluster.
pub fn cluster_reports(prepared: &[PreparedCluster], pair: PairSize) -> Vec<(String, EvalReport)> {
    let scale = ExperimentScale::default();
    prepared
        .iter()
        .map(|pc| {
            eprintln!(
                "[mirage-bench] training 8 methods on {} ({}-node pairs)",
                pc.profile.name, pair.nodes
            );
            let report = interruption_experiment(pc, pair.nodes, pair.seed, scale);
            (pc.profile.name.clone(), report)
        })
        .collect()
}

/// One full §6 experiment on one cluster and pair size: trains all eight
/// methods on the training range and evaluates them on identical
/// validation episodes.
fn interruption_experiment(
    pc: &PreparedCluster,
    pair_nodes: u32,
    seed: u64,
    scale: ExperimentScale,
) -> EvalReport {
    let mut tcfg = TrainConfig::default();
    tcfg.episode.pair_nodes = pair_nodes;
    tcfg.episode.pair_user = busiest_user(&pc.jobs);
    tcfg.offline_episodes = scale.offline_episodes;
    tcfg.online_episodes = scale.online_episodes;
    tcfg.seed = seed;

    let starts = sample_training_starts(
        &pc.jobs,
        pc.profile.nodes,
        pc.train_range.0,
        pc.train_range.1,
        &tcfg.episode,
        tcfg.offline_episodes,
        seed,
    );
    // Offline collection and online fine-tuning both run in lockstep
    // windows over the pool's seeded backends; evaluation reuses one
    // backend value.
    let pool = SimConfig::builder()
        .nodes(pc.profile.nodes)
        .seed(seed)
        .build_pool();
    let data: OfflineData = collect_offline(&pool, &pc.jobs, &tcfg, &starts);

    let mut backend = SimConfig::builder()
        .nodes(pc.profile.nodes)
        .seed(seed)
        .build();
    let mut methods: Vec<Box<dyn ProvisionPolicy>> = Vec::new();
    for kind in MethodKind::all() {
        methods.push(mirage_core::train::train_method(
            kind,
            &pool,
            &pc.jobs,
            &tcfg,
            &data,
            pc.train_range,
        ));
    }

    let ecfg = EvalConfig {
        episode: tcfg.episode,
        n_episodes: scale.eval_episodes,
        seed: seed ^ 0xEE,
    };
    evaluate(&mut methods, &mut backend, &pc.jobs, pc.val_range, &ecfg)
}

/// Which outcome column a figure shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureMetric {
    /// Average interruption (Figs 8, 9).
    Interruption,
    /// Average overlap (Fig 10).
    Overlap,
}

/// Prints one paper-style figure panel: methods × clusters at one load
/// level.
pub fn print_panel(
    title: &str,
    metric: FigureMetric,
    load: LoadLevel,
    cluster_reports: &[(String, EvalReport)],
) {
    println!("\n=== {title} [{} load] ===", load.label());
    print!("{:18}", "method");
    for (name, report) in cluster_reports {
        print!(
            " | {:>21}",
            format!("{} (n={})", name, report.episodes_at(load))
        );
    }
    println!();
    let methods: Vec<String> = cluster_reports
        .first()
        .map(|(_, r)| r.method_names.clone())
        .unwrap_or_default();
    for m in &methods {
        print!("{m:18}");
        for (_, report) in cluster_reports {
            let s = report.summarize(m, load);
            let value = match metric {
                FigureMetric::Interruption => s.avg_interruption_h,
                FigureMetric::Overlap => s.avg_overlap_h,
            };
            print!(
                " | {:>8.2}h  zero={:3.0}%",
                value,
                s.zero_interruption_frac * 100.0
            );
        }
        println!();
    }
}

/// Prints interruption reductions vs the reactive baseline (the §6
/// headline statistic).
pub fn print_reductions(load: LoadLevel, cluster_reports: &[(String, EvalReport)]) {
    println!(
        "\n--- interruption reduction vs reactive [{} load] ---",
        load.label()
    );
    let methods: Vec<String> = cluster_reports
        .first()
        .map(|(_, r)| r.method_names.clone())
        .unwrap_or_default();
    for m in methods.iter().filter(|m| m.as_str() != "reactive") {
        print!("{m:18}");
        for (_, report) in cluster_reports {
            match report.reduction_vs_reactive(m, load) {
                Some(red) => print!(" | {red:>7.1}%"),
                None => print!(" | {:>8}", "n/a"),
            }
        }
        println!();
    }
}

/// Figure 8 or 9: average interruption under heavy and medium load, each
/// panel followed by its reductions vs reactive.
fn print_interruption_figure(figure: u32, pair: PairSize, reports: &[(String, EvalReport)]) {
    for (panel, load) in [("a", LoadLevel::Heavy), ("b", LoadLevel::Medium)] {
        let title = format!(
            "Figure {figure}({panel}): avg interruption, 48h {}-node pairs",
            pair.nodes
        );
        print_panel(&title, FigureMetric::Interruption, load, reports);
        print_reductions(load, reports);
    }
}

/// Figure 8 from the [`ONE_NODE`] reports.
pub fn print_fig8(one_node: &[(String, EvalReport)]) {
    print_interruption_figure(8, ONE_NODE, one_node);
}

/// Figure 9 from the [`EIGHT_NODES`] reports.
pub fn print_fig9(eight_nodes: &[(String, EvalReport)]) {
    print_interruption_figure(9, EIGHT_NODES, eight_nodes);
}

/// Figure 10: average overlap under light load, one panel per pair size.
pub fn print_fig10(one_node: &[(String, EvalReport)], eight_nodes: &[(String, EvalReport)]) {
    for (panel, pair, reports) in [("a", ONE_NODE, one_node), ("b", EIGHT_NODES, eight_nodes)] {
        let title = format!("Figure 10({panel}): avg overlap, {}-node pairs", pair.nodes);
        print_panel(&title, FigureMetric::Overlap, LoadLevel::Light, reports);
    }
}

/// The §6 headline from the [`ONE_NODE`] reports: per cluster, at heavy
/// and medium load, Mirage's default (MoE+DQN) and aggressive
/// (transformer+PG) methods' zero-interruption fraction, reduction vs
/// reactive and mean overlap. The overlap is what a zero-interruption
/// claim cost: submitting at once reaches 100 % on both other columns.
pub fn print_headline(one_node: &[(String, EvalReport)]) {
    println!("Headline summary (48h 1-node pairs, Mirage default = MoE+DQN, aggressive = transformer+PG)");
    for (name, report) in one_node {
        println!("\n{name}:");
        for load in [LoadLevel::Heavy, LoadLevel::Medium] {
            let n = report.episodes_at(load);
            if n == 0 {
                println!("  {:6}: no episodes sampled at this level", load.label());
                continue;
            }
            for method in ["MoE+DQN", "transformer+PG"] {
                let s = report.summarize(method, load);
                let red = report
                    .reduction_vs_reactive(method, load)
                    .map(|r| format!("{r:.0}%"))
                    .unwrap_or_else(|| "n/a".into());
                println!(
                    "  {:6} {:16} zero={:3.0}% (n={n:2}) reduction={red} overlap={:.2}h",
                    load.label(),
                    method,
                    s.zero_interruption_frac * 100.0,
                    s.avg_overlap_h
                );
            }
        }
    }
}

/// Formats seconds as hours with one decimal.
pub fn hours(secs: f64) -> f64 {
    secs / HOUR as f64
}
