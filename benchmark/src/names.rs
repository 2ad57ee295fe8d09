//! Every name this benchmark prints: workloads, end-to-end metrics,
//! per-layer metrics and span names. `BENCHMARK.json` lists the same
//! names (a unit test compares them), and later issues cite them, so a
//! rename here is a benchmark change of its own.

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Only `BENCHMARK.json` states directions; the test below holds the
    /// two together.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

pub const WORKLOADS: [&str; 6] = [
    "serve_light",
    "serve_heavy",
    "replay_congested",
    "train_online",
    "paper_pipeline",
    "scenario_sweep",
];

/// What `--trace 0` reports, on every workload. "Work" and "op" are the
/// workload's own units (README, "Units per workload").
pub const END_TO_END: [MetricDef; 5] = [
    m("work_per_s", "1/s", "higher"),
    m("op_p50_us", "us", "lower"),
    m("op_p99_us", "us", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// What `--trace 1` reports, on every workload; a layer the workload
/// does not enter reads 0. Mean self time per call unless the name says
/// otherwise (`core.episode.new` and `.finish` include their children);
/// the unit is the name's last component where it is a time.
pub const PER_LAYER: &[MetricDef] = &[
    // trace
    m("trace.generate.ms", "ms", "lower"),
    m("trace.clean.ms", "ms", "lower"),
    m("trace.split.ms", "ms", "lower"),
    // sim, as serving uses it
    m("sim.reset_with.ms", "ms", "lower"),
    m("sim.warmup_run_until.ms", "ms", "lower"),
    m("sim.run_until.ns", "ns", "lower"),
    m("sim.status.ns", "ns", "lower"),
    m("sim.sample_into.ns", "ns", "lower"),
    m("sim.avg_recent_wait.ns", "ns", "lower"),
    m("sim.submit.ns", "ns", "lower"),
    m("sim.step.us", "us", "lower"),
    // sim, as bulk replay uses it
    m("sim.load_trace.ms", "ms", "lower"),
    m("sim.run_to_completion.ms", "ms", "lower"),
    m("sim.reset.ms", "ms", "lower"),
    m("sim.completed.ms", "ms", "lower"),
    m("sim.ns_per_event", "ns", "lower"),
    // sim public kernels at the workload's own queue depth
    m("sim.backfill.plan_schedule_into.us", "us", "lower"),
    m("sim.priority.priority.ns", "ns", "lower"),
    m("sim.event.push_pop.ns", "ns", "lower"),
    // sim alternate uses
    m("sim.replay_light.events_per_s", "1/s", "higher"),
    m("sim.tick.events_per_s", "1/s", "higher"),
    m("sim.fidelity.wait_err_frac", "frac", "lower"),
    // simulated statistics: must repeat exactly for a seed
    m("sim.queue_depth.mean", "count", "lower"),
    m("sim.running_jobs.mean", "count", "higher"),
    m("sim.jobs_completed.count", "count", "higher"),
    m("sim.avg_wait_h", "h", "lower"),
    m("sim.utilization", "frac", "higher"),
    m("sim.fault.evictions.count", "count", "lower"),
    m("sim.fault.retries.count", "count", "lower"),
    m("sim.fault.retry_successes.count", "count", "higher"),
    m("sim.hetero.slowdowns.count", "count", "lower"),
    m("sim.hetero.span_placements.count", "count", "lower"),
    // core: state, episode, policy, features
    m("core.state.encode_into.ns", "ns", "lower"),
    m("core.state.write_matrix.ns", "ns", "lower"),
    m("core.episode.new.ms", "ms", "lower"),
    m("core.episode.finish.ms", "ms", "lower"),
    m("core.episode.decisions.count", "count", "higher"),
    m("core.episode.policy_submits.count", "count", "higher"),
    m("core.policy.decide.ns", "ns", "lower"),
    m("core.features.extract.ns", "ns", "lower"),
    // nn: the serving forward and its parts (stand-alone sub-layers at
    // the net's shapes; the encoder's own sub-layers are private)
    m("nn.q_values.ns", "ns", "lower"),
    m("nn.embed.ns", "ns", "lower"),
    m("nn.layernorm.ns", "ns", "lower"),
    m("nn.attention.ns", "ns", "lower"),
    m("nn.ff.ns", "ns", "lower"),
    m("nn.heads.ns", "ns", "lower"),
    m("nn.forward_unattributed.ns", "ns", "lower"),
    m("nn.moe.q_values.ns", "ns", "lower"),
    m("nn.q_values_batch8.ns_per_row", "ns", "lower"),
    m("nn.q_forward_batch_train.us", "us", "lower"),
    m("nn.q_backward_batch.us", "us", "lower"),
    m("nn.flops_per_forward.count", "count", "lower"),
    // rl
    m("rl.replay.push.ns", "ns", "lower"),
    m("rl.replay.sample_minibatch.us", "us", "lower"),
    m("rl.dqn.train_minibatch.us", "us", "lower"),
    m("rl.dqn.act_batch.us", "us", "lower"),
    m("rl.pg.train_episodes.us", "us", "lower"),
    m("rl.dqn.steps.count", "count", "higher"),
    m("rl.dqn.updates.count", "count", "higher"),
    m("rl.dqn.final_loss", "loss", "lower"),
    // core: training loop, pipeline stages, checkpoints
    m("core.trainloop.collect_window.ms", "ms", "lower"),
    m("core.train.sample_training_starts.ms", "ms", "lower"),
    m("core.train.collect_offline.ms", "ms", "lower"),
    m("core.train.build_pretrained_net.ms", "ms", "lower"),
    m("core.train.behavior_clone.ms", "ms", "lower"),
    m("core.train.dqn_transformer.ms", "ms", "lower"),
    m("core.train.dqn_moe.ms", "ms", "lower"),
    m("core.train.pg_transformer.ms", "ms", "lower"),
    m("core.train.pg_moe.ms", "ms", "lower"),
    m("core.train.offline_samples.count", "count", "higher"),
    m("core.checkpoint.save.ms", "ms", "lower"),
    m("core.checkpoint.load.ms", "ms", "lower"),
    m("core.checkpoint.bytes", "B", "lower"),
    // ensemble
    m("ensemble.forest.fit.ms", "ms", "lower"),
    m("ensemble.gbdt.fit.ms", "ms", "lower"),
    m("ensemble.forest.predict.ns", "ns", "lower"),
    m("ensemble.gbdt.predict.ns", "ns", "lower"),
    // core: evaluation harnesses and the quality numbers they yield
    // (deterministic for a seed)
    m("core.eval.evaluate.ms", "ms", "lower"),
    m("core.eval.reactive.penalty_h", "h", "lower"),
    m("core.eval.best_ensemble.penalty_h", "h", "lower"),
    m("core.eval.best_rl.penalty_h", "h", "lower"),
    m("core.eval.best_rl.zero_interruption_frac", "frac", "higher"),
    m("core.chaos.evaluate.ms", "ms", "lower"),
    m("core.hetero.evaluate.ms", "ms", "lower"),
    m("core.multiservice.evaluate.ms", "ms", "lower"),
    m("core.multiservice.decisions.count", "count", "higher"),
    m("core.chaos.severe.rl_reward", "reward", "higher"),
    m("core.hetero.scarce.rl_reward", "reward", "higher"),
    m("core.multiservice.bursty.rl_reward", "reward", "higher"),
    // the harness itself
    m("bench.trace_overhead_frac", "frac", "lower"),
    m("bench.decision_unattributed_frac", "frac", "lower"),
    m("bench.slice_median", "s", "lower"),
    m("bench.slice_iqr_frac", "frac", "lower"),
    m("bench.slices.count", "count", "higher"),
];

/// Declares span-name constants and the table the tracer indexes.
macro_rules! span_names {
    ($($id:ident = $name:literal),* $(,)?) => {
        span_names!(@consts 0usize; $($id,)*);
        pub static SPAN_NAMES: &[&str] = &[$($name),*];
    };
    (@consts $n:expr; $id:ident, $($rest:ident,)*) => {
        pub const $id: usize = $n;
        span_names!(@consts $n + 1usize; $($rest,)*);
    };
    (@consts $n:expr;) => {};
}

// A span is named after the public call it wraps; `bench.*` spans are
// the benchmark's own frames (their self time is the glue between
// calls, reported through `bench.decision_unattributed_frac`).
span_names! {
    BENCH_OP = "bench.op",
    EPISODE_NEW = "core.episode.new",
    EPISODE_FINISH = "core.episode.finish",
    SIM_RESET_WITH = "sim.reset_with",
    SIM_WARMUP_RUN_UNTIL = "sim.warmup_run_until",
    SIM_RUN_UNTIL = "sim.run_until",
    SIM_STATUS = "sim.status",
    SIM_SAMPLE_INTO = "sim.sample_into",
    SIM_AVG_RECENT_WAIT = "sim.avg_recent_wait",
    SIM_SUBMIT = "sim.submit",
    SIM_STEP = "sim.step",
    STATE_ENCODE_INTO = "core.state.encode_into",
    STATE_WRITE_MATRIX = "core.state.write_matrix",
    POLICY_DECIDE = "core.policy.decide",
    NN_Q_VALUES = "nn.q_values",
    SIM_RESET = "sim.reset",
    SIM_LOAD_TRACE = "sim.load_trace",
    SIM_RUN_TO_COMPLETION = "sim.run_to_completion",
    COLLECT_WINDOW = "core.trainloop.collect_window",
    DQN_ACT_BATCH = "rl.dqn.act_batch",
    REPLAY_PUSH = "rl.replay.push",
    REPLAY_SAMPLE_MINIBATCH = "rl.replay.sample_minibatch",
    DQN_TRAIN_MINIBATCH = "rl.dqn.train_minibatch",
    CHECKPOINT_SAVE = "core.checkpoint.save",
    CHECKPOINT_LOAD = "core.checkpoint.load",
    SAMPLE_TRAINING_STARTS = "core.train.sample_training_starts",
    COLLECT_OFFLINE = "core.train.collect_offline",
    FOREST_FIT = "ensemble.forest.fit",
    GBDT_FIT = "ensemble.gbdt.fit",
    TRAIN_DQN_TRANSFORMER = "core.train.dqn_transformer",
    TRAIN_DQN_MOE = "core.train.dqn_moe",
    TRAIN_PG_TRANSFORMER = "core.train.pg_transformer",
    TRAIN_PG_MOE = "core.train.pg_moe",
    EVAL_EVALUATE = "core.eval.evaluate",
    CHAOS_EVALUATE = "core.chaos.evaluate",
    HETERO_EVALUATE = "core.hetero.evaluate",
    MULTISERVICE_EVALUATE = "core.multiservice.evaluate",
}

/// Spans whose metric is the whole call, children included: what
/// building and resolving an episode cost, not the few nanoseconds of
/// glue between the simulator calls inside them.
pub const INCLUSIVE: [usize; 2] = [EPISODE_NEW, EPISODE_FINISH];

/// The per-layer metric a span's mean time per call is reported under,
/// and the nanoseconds per unit of that metric. `None` for the
/// benchmark's own frames.
pub fn span_metric(span: usize) -> Option<(&'static str, f64)> {
    let name = SPAN_NAMES[span];
    PER_LAYER.iter().find_map(|d| {
        let (stem, unit) = d.name.rsplit_once('.')?;
        let per = match unit {
            "ns" => 1.0,
            "us" => 1e3,
            "ms" => 1e6,
            _ => return None,
        };
        (stem == name).then_some((d.name, per))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn charset_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_name_fits_the_charset_and_is_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        let all = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|d| d.name))
            .chain(PER_LAYER.iter().map(|d| d.name));
        for name in all {
            assert!(charset_ok(name), "bad name {name:?}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        for name in SPAN_NAMES {
            assert!(charset_ok(name), "bad span name {name:?}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.unit.len() <= 16 && matches!(d.better, "higher" | "lower"));
        }
    }

    #[test]
    fn every_layer_span_maps_to_a_listed_metric() {
        for (i, name) in SPAN_NAMES.iter().enumerate() {
            if name.starts_with("bench.") {
                assert!(span_metric(i).is_none());
            } else {
                let (metric, _) = span_metric(i).unwrap_or_else(|| panic!("{name} unmapped"));
                assert!(metric.starts_with(name));
            }
        }
        assert_eq!(span_metric(SIM_RUN_UNTIL), Some(("sim.run_until.ns", 1.0)));
        assert_eq!(span_metric(EPISODE_NEW), Some(("core.episode.new.ms", 1e6)));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let open = start + text[start..].find('[').unwrap();
            let close = open + text[open..].find(']').unwrap();
            text[open..close]
                .split("\"name\":")
                .skip(1)
                .map(|s| s.split('"').nth(1).unwrap().to_string())
                .collect()
        };
        assert_eq!(section("workloads"), WORKLOADS);
        let names =
            |defs: &[MetricDef]| defs.iter().map(|d| d.name.to_string()).collect::<Vec<_>>();
        assert_eq!(section("end_to_end"), names(&END_TO_END));
        assert_eq!(section("per_layer"), names(PER_LAYER));
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
