//! `paper_pipeline`: the §6 experiment end to end at smoke scale — the
//! light A100 trace split 80:20, then `sample_training_starts →
//! collect_offline → train_method × 8 → evaluate`.
//!
//! The only workload covering `ensemble`, behaviour cloning, PG, MoE and
//! `core.eval`, and the only one that yields the paper's quality
//! numbers; what the eval/training unification changes must not slow.
//!
//! Work unit: one pipeline. Op: one pipeline too (the stages are parts
//! of the slice, timed one by one, but a stage is not what a user of the
//! pipeline waits on).

use std::time::Instant;

use mirage::core::features::extract_features;
use mirage::core::state::STATE_VARS;
use mirage::core::train::{
    behavior_clone, build_pretrained_net, sample_training_starts, train_forest, train_gbdt,
};
use mirage::core::{
    collect_offline, evaluate, train_method, DecisionContext, EvalConfig, EvalReport, MethodKind,
    ProvisionPolicy, RewardShaper, SuccessorSpec, TrainConfig,
};
use mirage::nn::foundation::FoundationKind;
use mirage::nn::Matrix;
use mirage::sim::{AnyBackend, BackendKind, BackendPool, ClusterSnapshot, SimBuilder, SimConfig};
use mirage::trace::{split_by_time, split_seed, ClusterProfile, HOUR};

use super::{ms_since, synth_trace, time_ns, Digest, Metrics, SliceOut, SynthTrace, Workload};
use crate::estimate::Part;
use crate::names::*;
use crate::spans::Tracer;

/// Smoke scale, sized so a pipeline takes well under a second and its
/// longest stage (MoE + PG) about a quarter of one.
const OFFLINE_EPISODES: usize = 4;
const ONLINE_EPISODES: usize = 4;
const VALIDATION_EPISODES: usize = 8;
/// Cap on the reward samples each of the four nets pretrains on.
const PRETRAIN_SAMPLES: usize = 160;

/// The stage spans, in `MethodKind::all()` order (the heuristics train
/// nothing and get none).
fn method_span(kind: MethodKind) -> Option<usize> {
    match kind {
        MethodKind::Reactive | MethodKind::AvgHeuristic => None,
        MethodKind::RandomForest => Some(FOREST_FIT),
        MethodKind::Xgboost => Some(GBDT_FIT),
        MethodKind::TransformerDqn => Some(TRAIN_DQN_TRANSFORMER),
        MethodKind::MoeDqn => Some(TRAIN_DQN_MOE),
        MethodKind::TransformerPg => Some(TRAIN_PG_TRANSFORMER),
        MethodKind::MoePg => Some(TRAIN_PG_MOE),
    }
}

const RL_METHODS: [MethodKind; 4] = [
    MethodKind::TransformerDqn,
    MethodKind::MoeDqn,
    MethodKind::TransformerPg,
    MethodKind::MoePg,
];
const ENSEMBLE_METHODS: [MethodKind; 2] = [MethodKind::RandomForest, MethodKind::Xgboost];

/// Mean Eq. 8 penalty (−reward, default shaper) and zero-interruption
/// fraction of `method` over all validation episodes.
fn quality(report: &EvalReport, method: &str) -> (f64, f64) {
    let shaper = RewardShaper::default();
    let outcomes: Vec<_> = report
        .episodes
        .iter()
        .flat_map(|e| e.methods.iter().filter(|m| m.method == method))
        .map(|m| m.outcome)
        .collect();
    let n = outcomes.len().max(1) as f64;
    (
        outcomes
            .iter()
            .map(|o| -f64::from(shaper.reward(o)))
            .sum::<f64>()
            / n,
        outcomes.iter().filter(|o| o.zero_interruption()).count() as f64 / n,
    )
}

fn best_of(report: &EvalReport, methods: &[MethodKind]) -> (f64, f64) {
    methods
        .iter()
        .map(|k| quality(report, k.label()))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("non-empty method list")
}

pub struct Pipeline {
    trace: SynthTrace,
    split_ms: f64,
    train_range: (i64, i64),
    val_range: (i64, i64),
    cfg: TrainConfig,
    ecfg: EvalConfig,
    pool: BackendPool<SimBuilder>,
    backend: AnyBackend,
    report: Option<EvalReport>,
    offline_samples: usize,
}

impl Pipeline {
    pub fn setup(seed: u64) -> Self {
        let trace = synth_trace(ClusterProfile::a100(), seed, 3, 0.5);
        let t = Instant::now();
        let split = split_by_time(&trace.jobs, 0.8);
        let split_ms = ms_since(t);
        let first = trace.jobs.first().map_or(0, |j| j.submit);
        let last = trace.jobs.last().map_or(0, |j| j.submit);

        let mut cfg = TrainConfig {
            offline_episodes: OFFLINE_EPISODES,
            online_episodes: ONLINE_EPISODES,
            max_pretrain_samples: PRETRAIN_SAMPLES,
            collect_lanes: Some(2),
            train_workers: 1,
            seed: split_seed(seed, 20),
            ..TrainConfig::default()
        };
        // The pair queues as the trace's heaviest user, with that user's
        // (poor) fair-share standing, not as a fresh id that would jump
        // every queue.
        let mut usage = std::collections::BTreeMap::<u32, f64>::new();
        for j in &trace.jobs {
            *usage.entry(j.user).or_default() += f64::from(j.nodes) * j.runtime as f64;
        }
        cfg.episode.pair_user = usage
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(a.0)))
            .map_or(0, |(user, _)| *user);
        let ecfg = EvalConfig {
            episode: cfg.episode,
            n_episodes: VALIDATION_EPISODES,
            seed: split_seed(seed, 21),
        };
        let builder = SimConfig::builder()
            .nodes(trace.profile.nodes)
            .seed(split_seed(seed, 22))
            .backend(BackendKind::Pooled { workers: 2 });
        Self {
            split_ms,
            train_range: (first, split.split_time),
            val_range: (split.split_time, last),
            cfg,
            ecfg,
            pool: builder.build_pool(),
            backend: builder.build(),
            trace,
            report: None,
            offline_samples: 0,
        }
    }

    /// The pipeline, each stage handed to `stage(span, run)` to time.
    fn run(&mut self, mut stage: impl FnMut(Option<usize>, &mut dyn FnMut())) -> SliceOut {
        let (jobs, cfg, pool) = (&self.trace.jobs, &self.cfg, &self.pool);
        let mut starts = Vec::new();
        stage(Some(SAMPLE_TRAINING_STARTS), &mut || {
            starts = sample_training_starts(
                jobs,
                self.trace.profile.nodes,
                self.train_range.0,
                self.train_range.1,
                &cfg.episode,
                cfg.offline_episodes,
                cfg.seed,
            );
        });
        let mut data = Default::default();
        stage(Some(COLLECT_OFFLINE), &mut || {
            data = collect_offline(pool, jobs, cfg, &starts)
        });
        let mut methods: Vec<Box<dyn ProvisionPolicy>> = Vec::new();
        for kind in MethodKind::all() {
            stage(method_span(kind), &mut || {
                methods.push(train_method(kind, pool, jobs, cfg, &data, self.train_range));
            });
        }
        let mut report = None;
        stage(Some(EVAL_EVALUATE), &mut || {
            report = Some(evaluate(
                &mut methods,
                &mut self.backend,
                jobs,
                self.val_range,
                &self.ecfg,
            ));
        });
        let report = report.expect("evaluate ran");

        let mut d = Digest::default();
        d.push(data.reward_samples.len() as u64);
        d.push(data.wait_samples.len() as u64);
        for e in &report.episodes {
            d.push(e.t0 as u64);
            d.push(e.reactive_wait as u64);
            for m in &e.methods {
                for v in [
                    m.outcome.interruption,
                    m.outcome.overlap,
                    i64::from(m.proactive),
                ] {
                    d.push(v as u64);
                }
            }
        }
        self.offline_samples = data.reward_samples.len();
        self.report = Some(report);
        SliceOut {
            work: 1,
            attempted: 3 + MethodKind::all().len() as u64,
            digest: d.0,
        }
    }
}

impl Workload for Pipeline {
    /// One part per stage; no part is an op, so the slice is.
    fn slice(&mut self, parts: &mut Vec<Part>) -> SliceOut {
        self.run(|_, run| {
            let t = Instant::now();
            run();
            parts.push(Part {
                ns: t.elapsed().as_nanos() as u64,
                op_ns: Vec::new(),
            });
        })
    }

    /// The product path is already a sequence of public calls: the
    /// traced slice is the same sequence with a span around each.
    fn traced_slice(&mut self, t: &mut Tracer) -> SliceOut {
        t.set_op(0);
        t.enter(BENCH_OP);
        let out = self.run(|span, run| match span {
            Some(span) => {
                t.enter(span);
                run();
                t.exit();
            }
            None => run(),
        });
        t.exit();
        out
    }

    fn check(&mut self, failures: &mut Vec<String>) {
        let Some(report) = &self.report else {
            failures.push("no evaluation report".into());
            return;
        };
        for kind in MethodKind::all() {
            if !report.method_names.iter().any(|n| n == kind.label()) {
                failures.push(format!(
                    "method {} missing from the EvalReport",
                    kind.label()
                ));
            }
        }
        if report.episodes.len() != VALIDATION_EPISODES {
            failures.push(format!(
                "{} validation episodes, not {VALIDATION_EPISODES}",
                report.episodes.len()
            ));
        }
        if self.offline_samples == 0 {
            failures.push("offline collection produced no samples".into());
        }
    }

    fn layer_metrics(&mut self, out: &mut Metrics) {
        out.insert("trace.generate.ms", self.trace.generate_ms);
        out.insert("trace.clean.ms", self.trace.clean_ms);
        out.insert("trace.split.ms", self.split_ms);
        out.insert(
            "core.train.offline_samples.count",
            self.offline_samples as f64,
        );
        let report = self.report.as_ref().expect("layer_metrics follows a slice");
        out.insert(
            "core.eval.reactive.penalty_h",
            quality(report, MethodKind::Reactive.label()).0,
        );
        out.insert(
            "core.eval.best_ensemble.penalty_h",
            best_of(report, &ENSEMBLE_METHODS).0,
        );
        let (penalty, zero_frac) = best_of(report, &RL_METHODS);
        out.insert("core.eval.best_rl.penalty_h", penalty);
        out.insert("core.eval.best_rl.zero_interruption_frac", zero_frac);

        // What `train_method` does inside its RL stages, timed alone.
        let starts = sample_training_starts(
            &self.trace.jobs,
            self.trace.profile.nodes,
            self.train_range.0,
            self.train_range.1,
            &self.cfg.episode,
            self.cfg.offline_episodes,
            self.cfg.seed,
        );
        let data = collect_offline(&self.pool, &self.trace.jobs, &self.cfg, &starts);
        let t = Instant::now();
        let mut net = build_pretrained_net(FoundationKind::Transformer, &self.cfg, &data);
        out.insert("core.train.build_pretrained_net.ms", ms_since(t));
        let t = Instant::now();
        behavior_clone(
            &mut net,
            &data.best_run_decisions,
            self.cfg.pretrain.epochs + 4,
            self.cfg.pretrain.lr,
            self.cfg.seed ^ 0x77,
        );
        out.insert("core.train.behavior_clone.ms", ms_since(t));

        // Ensemble inference and feature extraction at this workload's
        // shapes, on a context like the ones `evaluate` builds.
        let matrix = Matrix::from_fn(self.cfg.episode.history_k, STATE_VARS, |r, c| {
            ((r * 31 + c * 7) % 17) as f32 / 17.0
        });
        let snapshot = ClusterSnapshot {
            total_nodes: self.trace.profile.nodes,
            ..ClusterSnapshot::default()
        };
        let ctx = DecisionContext {
            now: 0,
            state_matrix: &matrix,
            snapshot: &snapshot,
            pred_started: true,
            pred_remaining: 6 * HOUR,
            recent_avg_wait: Some(1800.0),
            successor: SuccessorSpec {
                nodes: 1,
                timelimit: 48 * HOUR,
            },
        };
        let features = extract_features(&ctx);
        out.insert(
            "core.features.extract.ns",
            time_ns(20_000, || {
                std::hint::black_box(extract_features(std::hint::black_box(&ctx)));
            }),
        );
        let forest = train_forest(&data, self.cfg.seed);
        let gbdt = train_gbdt(&data, self.cfg.seed);
        out.insert(
            "ensemble.forest.predict.ns",
            time_ns(20_000, || {
                std::hint::black_box(forest.predict(std::hint::black_box(&features)));
            }),
        );
        out.insert(
            "ensemble.gbdt.predict.ns",
            time_ns(20_000, || {
                std::hint::black_box(gbdt.predict(std::hint::black_box(&features)));
            }),
        );
    }
}
