//! The Mirage benchmark: one workload per invocation.
//!
//! `mirage-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Builds every input from the seed, runs equal-work slices of the
//! workload for about `--seconds`, checks the outputs, prints every
//! metric as `workload  metric  value  unit`, and ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` measures
//! the end-to-end metrics along the product path with tracing off;
//! `--trace 1` runs the slices again with spans on and reports the
//! per-layer metrics (and writes `out/trace-<workload>.jsonl`).
//!
//! Load model: a closed loop, one client on one thread. Decisions happen
//! on a simulated 600 s cadence, so there is no host-time arrival
//! schedule; throughput is work completed per host second at the stated
//! input size. Thread counts are pinned in the workloads (pool of 2,
//! 2 collection lanes, 1 training worker), never taken from the machine.

mod estimate;
mod hold;
mod kernels;
mod names;
mod spans;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use estimate::{
    compose, fastest_indices, iqr_frac, mean_over, median, percentile_sorted, FastestOf, Part,
};
use names::{span_metric, MetricDef, END_TO_END, INCLUSIVE, PER_LAYER, SPAN_NAMES, WORKLOADS};
use spans::{Agg, Tracer};
use workloads::{Metrics, SliceOut, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// A run never reports from fewer slices than the estimator averages.
const MIN_SLICES: usize = estimate::FASTEST;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range", args.seconds));
    }
    Ok(args)
}

/// Where run output goes: `out/` next to this package's manifest.
fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Timed slices of one phase of a run.
#[derive(Default)]
struct Phase {
    durations_s: Vec<f64>,
    /// Work units per slice: the same every slice, as the digests are.
    work: f64,
    /// Per part of the slice, its fastest instances so far.
    parts: Vec<FastestOf>,
    attempted: u64,
}

impl Phase {
    fn push(&mut self, out: SliceOut, duration_s: f64, parts: Vec<Part>) {
        self.durations_s.push(duration_s);
        self.work = out.work as f64;
        self.attempted += out.attempted;
        self.parts
            .resize_with(parts.len().max(self.parts.len()), FastestOf::default);
        for (series, part) in self.parts.iter_mut().zip(parts) {
            series.offer(&part);
        }
    }

    /// Seconds per slice: whole slices, mean of the three fastest.
    fn slice_seconds(&self) -> f64 {
        mean_over(&self.durations_s, &fastest_indices(&self.durations_s))
    }
}

/// Everything a run found wrong; empty means `correct`.
#[derive(Default)]
struct Verdict {
    failures: Vec<String>,
    failed_ops: u64,
}

/// Runs one timed slice into `phase`, checking its digest against
/// `reference`. A panicking slice counts as one failed operation;
/// returns whether the slice ran.
fn run_slice(
    phase: &mut Phase,
    reference: u64,
    verdict: &mut Verdict,
    slice: impl FnOnce(&mut Vec<Part>) -> SliceOut,
) -> bool {
    let mut parts = Vec::new();
    let t = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| slice(&mut parts)));
    let duration_s = t.elapsed().as_secs_f64();
    let Ok(out) = out else {
        verdict.failed_ops += 1;
        verdict.failures.push("a slice panicked".into());
        return false;
    };
    if out.digest != reference {
        verdict.failed_ops += 1;
        verdict.failures.push(format!(
            "slice {} digest {:#x} differs from the first slice's {reference:#x}",
            phase.durations_s.len(),
            out.digest
        ));
    }
    phase.push(out, duration_s, parts);
    true
}

/// Whether a run measuring for `seconds` since `began` takes another
/// slice: until the time is up, and never fewer than [`MIN_SLICES`].
fn more_slices(began: Instant, seconds: f64, phase: &Phase) -> bool {
    began.elapsed().as_secs_f64() < seconds || phase.durations_s.len() < MIN_SLICES
}

/// Set-up plus one warm-up slice, as `setup_s` counts it.
fn set_up(args: &Args) -> (Box<dyn Workload>, SliceOut, f64) {
    let t = Instant::now();
    let mut w = workloads::build(&args.workload, args.seed);
    let warm = w.slice(&mut Vec::new());
    (w, warm, t.elapsed().as_secs_f64())
}

fn end_to_end(args: &Args, verdict: &mut Verdict) -> (Metrics, u64) {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous copy first: two live copies would double the
        // peak resident set.
        drop(built.take());
        let (w, warm, secs) = set_up(args);
        setups.push(secs);
        built = Some((w, warm));
    }
    let (mut w, warm) = built.expect("SETUP_REPS >= 1");
    let mut phase = Phase::default();
    let began = Instant::now();
    while more_slices(began, args.seconds, &phase)
        && run_slice(&mut phase, warm.digest, verdict, |ops| w.slice(ops))
    {}
    w.check(&mut verdict.failures);

    let (seconds, ops) = compose(&phase.parts);
    let mut out = Metrics::new();
    out.insert("work_per_s", phase.work / seconds);
    out.insert("op_p50_us", percentile_sorted(&ops, 50.0) as f64 / 1e3);
    out.insert("op_p99_us", percentile_sorted(&ops, 99.0) as f64 / 1e3);
    out.insert("setup_s", median(&setups));
    out.insert("peak_rss_mb", peak_rss_mb());
    println!(
        "{}  bench.slices  {}  count  ({} parts; whole slices: median {:.4} s, IQR {:.1} % of it, \
         fastest three {:.4} s; parts composed {:.4} s)",
        args.workload,
        phase.durations_s.len(),
        phase.parts.len(),
        median(&phase.durations_s),
        100.0 * iqr_frac(&phase.durations_s),
        phase.slice_seconds(),
        seconds
    );
    (out, warm.attempted + phase.attempted)
}

fn per_layer(args: &Args, verdict: &mut Verdict) -> (Metrics, u64) {
    let (mut w, warm, _) = set_up(args);
    // Untraced and traced slices alternate, so both sample the same
    // stretches of a machine whose speed drifts over seconds: the
    // untraced ones give the figure the layer times must add up to.
    let mut tracer = Tracer::new(SPAN_NAMES);
    let mut aggs = Vec::new();
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    let began = Instant::now();
    while more_slices(began, 0.8 * args.seconds, &traced)
        && run_slice(&mut plain, warm.digest, verdict, |ops| w.slice(ops))
        && run_slice(&mut traced, warm.digest, verdict, |_| {
            let out = w.traced_slice(&mut tracer);
            aggs.push(tracer.take_slice());
            out
        })
    {}
    w.check(&mut verdict.failures);

    let mut out = Metrics::new();
    let picked = fastest_indices(&traced.durations_s);
    let mut totals = vec![Agg::default(); SPAN_NAMES.len()];
    for &slice in &picked {
        for (total, agg) in totals.iter_mut().zip(&aggs[slice]) {
            total.add(agg);
        }
    }
    let mut layer_ns = 0.0;
    for (span, agg) in totals.iter().enumerate() {
        let Some((metric, ns_per_unit)) = span_metric(span) else {
            continue;
        };
        let self_ns = tracer.corrected_self_ns(agg);
        layer_ns += self_ns;
        let reported_ns = match INCLUSIVE.contains(&span) {
            true => agg.total_ns as f64,
            false => self_ns,
        };
        if agg.calls > 0 {
            out.insert(metric, reported_ns / agg.calls as f64 / ns_per_unit);
        }
    }
    // Whole slices on both sides: traced slices have no parts.
    let plain_ns_per_work = 1e9 * plain.slice_seconds() / plain.work;
    let layer_ns_per_work = layer_ns / (picked.len() as f64 * traced.work);
    out.insert(
        "bench.decision_unattributed_frac",
        (plain_ns_per_work - layer_ns_per_work).abs() / plain_ns_per_work,
    );
    out.insert(
        "bench.trace_overhead_frac",
        traced.slice_seconds() / plain.slice_seconds() - 1.0,
    );
    out.insert("bench.slice_median", median(&plain.durations_s));
    out.insert("bench.slice_iqr_frac", iqr_frac(&plain.durations_s));
    out.insert("bench.slices.count", plain.durations_s.len() as f64);
    w.layer_metrics(&mut out);

    let path = out_dir().join(format!("trace-{}.jsonl", args.workload));
    let written = std::fs::File::create(&path)
        .map(std::io::BufWriter::new)
        .and_then(|mut f| {
            spans::write_jsonl(&tracer.spans(), &mut f)?;
            std::io::Write::flush(&mut f)
        });
    if let Err(e) = written {
        verdict
            .failures
            .push(format!("writing {}: {e}", path.display()));
    }
    (out, warm.attempted + plain.attempted + traced.attempted)
}

/// The result line: exactly the listed metrics, each as measured.
fn result_json(defs: &[MetricDef], values: &Metrics, attempted: u64, verdict: &Verdict) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                values
                    .get(d.name)
                    .copied()
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.failures.is_empty(),
        attempted.max(1),
        verdict.failed_ops,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mirage-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let mut verdict = Verdict::default();
    let (defs, (values, attempted)): (&[MetricDef], _) = if args.trace {
        (PER_LAYER, per_layer(&args, &mut verdict))
    } else {
        (&END_TO_END, end_to_end(&args, &mut verdict))
    };
    for (name, value) in &values {
        if !defs.iter().any(|d| d.name == *name) {
            verdict
                .failures
                .push(format!("metric {name} is not a listed name"));
        }
        if !value.is_finite() {
            verdict
                .failures
                .push(format!("metric {name} is not finite"));
        }
    }
    if !args.trace {
        for d in defs {
            if values.get(d.name).is_none_or(|v| *v <= 0.0) {
                verdict
                    .failures
                    .push(format!("end-to-end metric {} missing or zero", d.name));
            }
        }
    }
    for d in defs {
        let value = values.get(d.name).copied().unwrap_or(0.0);
        println!("{}  {}  {}  {}", args.workload, d.name, value, d.unit);
    }
    for f in &verdict.failures {
        eprintln!("{}  CHECK FAILED  {f}", args.workload);
    }
    let line = result_json(defs, &values, attempted, &verdict);
    let file = format!(
        "{}-{}.json",
        if args.trace { "layers" } else { "results" },
        args.workload
    );
    if let Err(e) = std::fs::write(out_dir().join(&file), format!("{line}\n")) {
        eprintln!("mirage-benchmark: writing out/{file}: {e}");
    }
    println!("{line}");
    std::process::exit(i32::from(!verdict.failures.is_empty()));
}
