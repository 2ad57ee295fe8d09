//! Timings of public kernels at a workload's own shapes: what the spans
//! cannot reach because the call that uses the kernel is opaque.
//!
//! The encoder's sub-layers are private, so the `nn.*` parts are
//! stand-alone `Linear` / `LayerNorm` / `MultiHeadAttention` instances
//! at the serving net's shapes (same code, same sizes, other weights).
//! The simulator's scheduling pass is private, so `sim.backfill.*`,
//! `sim.priority.*` and `sim.event.*` are its public kernels fed the
//! queue the workload ended on.

use std::hint::black_box;

use mirage::nn::foundation::FoundationKind;
use mirage::nn::{
    Activation, GradSink, Grads, LayerNorm, Linear, Matrix, MultiHeadAttention, ParamSet, Scratch,
};
use mirage::rl::{BatchInferCache, DualHeadConfig, DualHeadNet, HeadBatchCache};
use mirage::sim::event::{Event, EventKind, EventQueue};
use mirage::sim::priority::priority;
use mirage::sim::{
    plan_schedule_into, BackfillPolicy, ClusterSnapshot, PendingView, PlanScratch, PriorityWeights,
};
use mirage::trace::ClusterProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::workloads::{time_ns, Metrics};

/// The scheduling-pass kernels against `snap`'s queue and running set.
pub fn sim_kernels(snap: &ClusterSnapshot, profile: &ClusterProfile, out: &mut Metrics) {
    let pending: Vec<PendingView> = snap
        .queued
        .iter()
        .map(|q| PendingView {
            nodes: q.nodes,
            timelimit: q.timelimit,
        })
        .collect();
    let running: Vec<(i64, u32)> = snap
        .running
        .iter()
        .map(|r| (r.start + r.timelimit, r.nodes))
        .collect();
    let mut scratch = PlanScratch::default();
    let mut starts = Vec::new();
    let plan_ns = time_ns(2_000, || {
        plan_schedule_into(
            black_box(&pending),
            snap.free_nodes,
            profile.nodes,
            snap.now,
            &running,
            BackfillPolicy::default(),
            &mut scratch,
            &mut starts,
        );
        black_box(starts.len());
    });
    out.insert("sim.backfill.plan_schedule_into.us", plan_ns / 1e3);

    if !snap.queued.is_empty() {
        let weights = PriorityWeights::default();
        let pass_ns = time_ns(2_000, || {
            let mut acc = 0.0;
            for (i, q) in snap.queued.iter().enumerate() {
                acc += priority(
                    &weights,
                    q.age,
                    q.nodes,
                    profile.nodes,
                    (i % 7) as f64 * 0.3,
                );
            }
            black_box(acc);
        });
        out.insert(
            "sim.priority.priority.ns",
            pass_ns / snap.queued.len() as f64,
        );
    }

    // Heap as deep as the jobs the simulator has in flight.
    let depth = snap.queued.len() + snap.running.len() + 1;
    let mut heap = EventQueue::new();
    for i in 0..depth {
        heap.push(Event::new(
            snap.now + (i as i64 * 7919) % 86_400,
            EventKind::Completion,
            i,
        ));
    }
    let mut tick = 0i64;
    let push_pop_ns = time_ns(200_000, || {
        tick += 1;
        heap.push(Event::new(
            snap.now + (tick * 7919) % 86_400,
            EventKind::Arrival,
            0,
        ));
        black_box(heap.pop());
    });
    out.insert("sim.event.push_pop.ns", push_pop_ns);
}

/// A `seq × m` state whose rows look like encoded snapshots (bounded,
/// mostly non-zero), and `n` successors of it shifted one row at a time
/// the way a decision loop's history window moves.
fn state_ring(seq: usize, m: usize, blocks: usize, n: usize, rng: &mut StdRng) -> Vec<Matrix> {
    let rows = Matrix::xavier(seq + n, m * blocks, rng);
    (0..n)
        .map(|i| {
            Matrix::from_fn(seq * blocks, m, |r, c| {
                let (b, row) = (r / seq, r % seq);
                rows.get(i + row, b * m + c)
            })
        })
        .collect()
}

/// The serving forward, its parts, and the training forward/backward,
/// at `net`'s shapes.
pub fn nn_kernels(net: &DualHeadNet, out: &mut Metrics) {
    let cfg = net.cfg.transformer;
    let (k, m, d, d_ff) = (
        cfg.seq_len,
        cfg.input_dim,
        cfg.d_model,
        cfg.ff_mult * cfg.d_model,
    );
    let mut rng = StdRng::seed_from_u64(net.cfg.seed ^ 0x6b);
    let states = state_ring(k, m, 1, 16, &mut rng);
    let mut scratch = Scratch::new();
    const REPS: u64 = 4_000;

    let mut i = 0usize;
    let q_ns = time_ns(REPS, || {
        i += 1;
        black_box(net.q_values(&states[i % states.len()], &mut scratch));
    });

    let mut ps = ParamSet::new();
    let embed = Linear::new(&mut ps, "embed", m, d, &mut rng);
    let ln = LayerNorm::new(&mut ps, "ln", d);
    let attn = MultiHeadAttention::new(&mut ps, "attn", d, cfg.heads, &mut rng);
    let ff1 = Linear::new(&mut ps, "ff1", d, d_ff, &mut rng);
    let ff2 = Linear::new(&mut ps, "ff2", d_ff, d, &mut rng);
    let head = Linear::new(&mut ps, "head", d, 2, &mut rng);
    let h = Matrix::xavier(k, d, &mut rng);
    let pooled = Matrix::xavier(1, d, &mut rng);
    let (mut y, mut mid) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));

    let embed_ns = time_ns(REPS, || {
        i += 1;
        embed.forward_into(&ps, &states[i % states.len()], &mut y);
        black_box(&y);
    });
    let ln_ns = time_ns(REPS, || {
        ln.forward_into(&ps, black_box(&h), &mut y);
        black_box(&y);
    });
    let attn_ns = time_ns(REPS, || {
        attn.forward_into(&ps, black_box(&h), &mut y, &mut scratch);
        black_box(&y);
    });
    let ff_ns = time_ns(REPS, || {
        ff1.forward_into(&ps, black_box(&h), &mut mid);
        Activation::Gelu.apply_in_place(&mut mid);
        ff2.forward_into(&ps, &mid, &mut y);
        black_box(&y);
    });
    let heads_ns = time_ns(REPS, || {
        head.forward_into(&ps, black_box(&pooled), &mut y);
        black_box(&y);
    });
    let layers = cfg.layers as f64;
    // A serving workload has already measured the forward inside its
    // decision loop; elsewhere this loop is the only reading.
    out.entry("nn.q_values.ns").or_insert(q_ns);
    out.insert("nn.embed.ns", embed_ns);
    out.insert("nn.layernorm.ns", ln_ns);
    out.insert("nn.attention.ns", attn_ns);
    out.insert("nn.ff.ns", ff_ns);
    out.insert("nn.heads.ns", heads_ns);
    // Positional add, residual adds, pooling and the arena traffic.
    out.insert(
        "nn.forward_unattributed.ns",
        (q_ns - embed_ns - layers * (2.0 * ln_ns + attn_ns + ff_ns) - heads_ns).max(0.0),
    );
    // Computed from the shapes, not measured: 2·rows·in·out per matmul,
    // plus the two k×k products per head set.
    let matmul = |rows: usize, a: usize, b: usize| 2.0 * (rows * a * b) as f64;
    out.insert(
        "nn.flops_per_forward.count",
        matmul(k, m, d)
            + layers * (4.0 * matmul(k, d, d) + 2.0 * matmul(k, k, d) + 2.0 * matmul(k, d, d_ff))
            + matmul(1, d, 2),
    );

    let moe = DualHeadNet::new(DualHeadConfig {
        foundation: FoundationKind::MoE { experts: 3 },
        ..net.cfg
    });
    let moe_ns = time_ns(REPS / 2, || {
        i += 1;
        black_box(moe.q_values(&states[i % states.len()], &mut scratch));
    });
    out.insert("nn.moe.q_values.ns", moe_ns);

    let stacked = state_ring(k, m, 8, 16, &mut rng);
    let (mut vals, mut cache) = (Vec::new(), BatchInferCache::new());
    let batch8_ns = time_ns(REPS / 4, || {
        i += 1;
        net.q_values_batch(
            &stacked[i % stacked.len()],
            8,
            &mut vals,
            &mut scratch,
            &mut cache,
        );
        black_box(&vals);
    });
    out.insert("nn.q_values_batch8.ns_per_row", batch8_ns / 8.0);

    const BATCH: usize = 32;
    let train_states = &state_ring(k, m, BATCH, 1, &mut rng)[0];
    let mut q = Matrix::zeros(0, 0);
    let mut train_cache = HeadBatchCache::default();
    let fwd_ns = time_ns(300, || {
        net.q_forward_batch_train(train_states, BATCH, &mut q, &mut train_cache, &mut scratch);
        black_box(&q);
    });
    let dq = Matrix::from_fn(BATCH, 2, |r, c| if r % 2 == c { 0.1 } else { 0.0 });
    let mut grads = Grads::new(&net.ps);
    let bwd_ns = time_ns(300, || {
        grads.reset();
        net.q_backward_batch(
            &mut train_cache,
            train_states,
            &dq,
            BATCH,
            &mut GradSink::Fused(&mut grads),
            &mut scratch,
        );
        black_box(&grads);
    });
    out.insert("nn.q_forward_batch_train.us", fwd_ns / 1e3);
    out.insert("nn.q_backward_batch.us", bwd_ns / 1e3);
}
