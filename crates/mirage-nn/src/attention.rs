//! Multi-head self-attention (Vaswani et al.) with manual backward pass.
//!
//! This is the mechanism §4.6 of the paper leans on: attention over the
//! sequence of historical cluster snapshots "filters out irrelevant
//! snapshots in history and identifies ones that contribute to prediction".
//!
//! # One core, one accumulation order
//!
//! The per-sample `MultiHeadAttention::forward` and `backward` are the
//! definition: allocating, one sequence at a time, every head sliced out
//! into its own matrices and pushed through the generic [`Matrix`]
//! kernels. They are `reference` items, compiled only for tests and the
//! crate's `reference` feature. The production pair —
//! [`MultiHeadAttention::forward_batch`] (with or without a cache;
//! `forward_into` is its batch of one) and
//! [`MultiHeadAttention::backward_batch`] — runs the Q/K/V/output
//! projections as one matmul each over the row-stacked batch and hands
//! each `(block, head)` to one private core (`attend_head`,
//! `backward_head`) that must reproduce the definition **bit for bit**.
//! The contract, per element:
//!
//! * **score** `s[r][c]`: the products `q[r][t]·k[c][t]` summed in
//!   ascending `t` on a single accumulator starting at `0.0`, then one
//!   multiply by `1/√d_head`;
//! * **softmax** of row `r`: the maximum of the row with NaN skipped
//!   (`f32::max` folded from `−∞`), subtract,
//!   [`crate::activation::fast_exp`], sum in ascending `c` from
//!   `Iterator::sum`'s identity, divide when the sum is `> 0`;
//! * **mix** `o[r][j]`: the products `a[r][c]·v[c][j]` summed in
//!   ascending `c` on a single accumulator starting at `0.0`;
//! * **backward**: `da[r][c]` ascending `j` from `0.0`; the softmax
//!   Jacobian row exactly as [`softmax_rows_backward_into`], then one
//!   multiply by the scale; `dq[r][j]` ascending `c` from `0.0`;
//!   `dk[c][j]` and `dv[c][j]` ascending `r` from `0.0`;
//! * no `mul_add` anywhere — a fused multiply-add rounds once where the
//!   definition rounds twice.
//!
//! Those chains fix the order *within* an element and nothing else. Each
//! is one dependent add per step, so a kernel that walks one row at a
//! time waits on add latency, and one that slices heads out spends more
//! time copying than computing (the old cores ran at a quarter of the
//! projections' flop rate). The core gets its speed from what the
//! contract leaves open:
//!
//! * the head's columns of Q/K/V (and of the gradients) are read and
//!   written **in place** in the row-stacked `rows × d_model` matrices —
//!   head columns are contiguous within a row, so nothing is sliced out
//!   or copied back;
//! * `ROWS` query rows are processed together, so that many
//!   independent chains are in flight per lane vector and every key or
//!   value vector loaded is used `ROWS` times; a sequence that is not a
//!   multiple of `ROWS` ends in one narrower group of the same code;
//! * lanes run across *keys* for the scores — the one copy made is the
//!   head's keys (values, in the backward) transposed into a
//!   `d_head × seq` tile once per `(block, head)` — and across *head
//!   columns* for the mixes and the `dk`/`dv` updates. The tile and the
//!   row-group stage are padded to a multiple of `LANES` columns with
//!   zero keys, so every score and `fast_exp` vector is full width; pad
//!   columns are computed and never read — maxima, sums and mixes stop at
//!   `seq`. A head width that is not a multiple of `LANES` is covered
//!   by full tiles, then one `HALF` tile, then single columns, each a
//!   fixed-width copy of the same loop;
//! * the softmax is staged per row group (scale, maxima, shift, one flat
//!   `fast_exp` pass over the whole stage, sums, divide), which keeps a
//!   `k = 144` row group in L1 where a whole `seq × seq` score matrix
//!   would not be.
//!
//! `crates/mirage-nn/tests/attention_identity.rs` holds all of this over
//! `seq` 1..=40, `d_head` up to 32, 1–4 heads and batches of 1 and 3.

use rand::Rng;

use crate::linear::Linear;
use crate::param::{GradSink, ParamSet};
use crate::scratch::Scratch;
use crate::tensor::Matrix;
#[cfg(any(test, feature = "reference"))]
use crate::{linear::LinearCache, param::Grads};

/// Query rows the core processes together: that many independent
/// accumulator chains in flight per lane vector.
const ROWS: usize = 4;
/// Lane width of a key tile and of a head-column tile: 8 × f32 is one
/// 256-bit vector, as in the matmul microkernel.
const LANES: usize = 8;
/// Half a lane vector: the tile that follows the full tiles when a head
/// width is not a multiple of [`LANES`]; what is left after it goes one
/// column at a time.
const HALF: usize = 4;

/// Multi-head self-attention over a `seq × d_model` input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MultiHeadAttention {
    /// Query projection.
    pub wq: Linear,
    /// Key projection.
    pub wk: Linear,
    /// Value projection.
    pub wv: Linear,
    /// Output projection.
    pub wo: Linear,
    /// Head count (must divide `d_model`).
    pub heads: usize,
    /// Model width.
    pub d_model: usize,
}

/// Forward cache of the per-sample pass.
#[cfg(any(test, feature = "reference"))]
#[derive(Debug, Clone)]
pub struct AttentionCache {
    cq: LinearCache,
    ck: LinearCache,
    cv: LinearCache,
    co: LinearCache,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Per-head softmaxed attention matrices (`seq × seq`).
    attn: Vec<Matrix>,
}

#[cfg(any(test, feature = "reference"))]
impl AttentionCache {
    /// The softmaxed `seq × seq` attention matrix of each head.
    pub fn attn(&self) -> &[Matrix] {
        &self.attn
    }
}

/// Retained training cache for a row-stacked batch of sequences. All
/// buffers are reused across calls (reset in place), so a warm update
/// loop never allocates.
#[derive(Debug, Clone, Default)]
pub struct AttentionBatchCache {
    /// The stacked layer input (needed for the projection backward).
    x: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    concat: Matrix,
    /// Softmaxed attention per `(block, head)`, indexed `b·heads + h`.
    attn: Vec<Matrix>,
}

impl AttentionBatchCache {
    /// The buffers [`MultiHeadAttention::forward_batch`] writes through
    /// [`Scratch::lend`]: Q, K, V and the concatenated head outputs.
    fn slots(&mut self) -> [&mut Matrix; 4] {
        [&mut self.q, &mut self.k, &mut self.v, &mut self.concat]
    }

    /// The softmaxed `seq × seq` attention matrix of each `(block, head)`,
    /// indexed `block · heads + head`.
    pub fn attn(&self) -> &[Matrix] {
        &self.attn
    }
}

impl MultiHeadAttention {
    /// Allocates projection parameters.
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        d_model: usize,
        heads: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            heads > 0 && d_model.is_multiple_of(heads),
            "heads must divide d_model"
        );
        Self {
            wq: Linear::new(ps, &format!("{name}.wq"), d_model, d_model, rng),
            wk: Linear::new(ps, &format!("{name}.wk"), d_model, d_model, rng),
            wv: Linear::new(ps, &format!("{name}.wv"), d_model, d_model, rng),
            wo: Linear::new(ps, &format!("{name}.wo"), d_model, d_model, rng),
            heads,
            d_model,
        }
    }

    /// Head width.
    fn d_head(&self) -> usize {
        self.d_model / self.heads
    }

    /// The per-`(block, head)` problem of a stack of `rows` rows holding
    /// `batch` equal blocks.
    fn head_shape(&self, rows: usize, batch: usize) -> HeadShape {
        assert!(
            batch >= 1 && rows.is_multiple_of(batch),
            "batch {batch} must evenly divide {rows} stacked rows"
        );
        let dh = self.d_head();
        HeadShape {
            seq: rows / batch,
            dh,
            scale: 1.0 / (dh as f32).sqrt(),
        }
    }

    /// Forward into a caller-provided buffer that records nothing, every
    /// temporary drawn from `scratch`: no allocation once the arena is
    /// warm. [`MultiHeadAttention::forward_batch`] at batch 1 without a
    /// cache.
    pub fn forward_into(&self, ps: &ParamSet, x: &Matrix, out: &mut Matrix, scratch: &mut Scratch) {
        self.forward_batch(ps, x, 1, out, None, scratch);
    }

    /// The one batched forward: `x` row-stacks `batch` independent
    /// `seq × d_model` sequences (`x.rows() = batch · seq`), and `out`
    /// receives the row-stacked attention outputs. The Q/K/V and output
    /// projections run as **one matmul each over the whole batch**
    /// (row-local, so row-stacking cannot change them), while the
    /// score/softmax/mix core is confined to each block: sequences never
    /// attend across episode boundaries.
    ///
    /// Given a `cache`, the call keeps the input, the projections and the
    /// softmaxed attention of every `(block, head)` there for
    /// [`MultiHeadAttention::backward_batch`]; without one, the projections
    /// are borrowed from `scratch` and nothing is kept. Per block, the
    /// output and the cached attention are bit-identical to the
    /// per-sample `forward` on that block alone.
    pub fn forward_batch(
        &self,
        ps: &ParamSet,
        x: &Matrix,
        batch: usize,
        out: &mut Matrix,
        mut cache: Option<&mut AttentionBatchCache>,
        scratch: &mut Scratch,
    ) {
        let mut bufs = scratch.lend(cache.as_deref_mut().map(AttentionBatchCache::slots));
        let [q, k, v, concat] = &mut bufs;
        self.wq.forward_into(ps, x, q);
        self.wk.forward_into(ps, x, k);
        self.wv.forward_into(ps, x, v);
        concat.reset(x.rows(), self.d_model);
        let attn = cache.as_deref_mut().map(|c| {
            c.x.copy_from(x);
            c.attn.resize_with(batch * self.heads, Matrix::default);
            c.attn.as_mut_slice()
        });
        self.attend(q, k, v, batch, concat, attn, scratch);
        self.wo.forward_into(ps, concat, out);
        scratch.settle(cache.map(AttentionBatchCache::slots), bufs);
    }

    /// Runs the attention core over every `(block, head)` of the
    /// row-stacked projections `q`/`k`/`v`, writing the head outputs into
    /// their columns of `concat` and, when `attn` is given (training),
    /// each softmaxed `seq × seq` matrix into `attn[block · heads + head]`.
    #[allow(clippy::too_many_arguments)]
    fn attend(
        &self,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        batch: usize,
        concat: &mut Matrix,
        mut attn: Option<&mut [Matrix]>,
        scratch: &mut Scratch,
    ) {
        let head = self.head_shape(q.rows(), batch);
        let HeadShape { seq, dh, .. } = head;
        let seq_pad = seq.next_multiple_of(LANES);
        let mut kt = scratch.take(dh, seq_pad);
        let mut stage = scratch.take(ROWS, seq_pad);
        for b in 0..batch {
            for h in 0..self.heads {
                let a = attn.as_deref_mut().map(|a| &mut a[b * self.heads + h]);
                attend_head(
                    head,
                    [q, k, v],
                    b * seq,
                    h * dh,
                    &mut kt,
                    &mut stage,
                    concat,
                    a,
                );
            }
        }
        scratch.give(stage);
        scratch.give(kt);
    }

    /// Batched backward for a recording [`MultiHeadAttention::forward_batch`].
    /// Block `b`'s projection gradients fold into `sink` in ascending
    /// block order (wo, then wq/wk/wv — per-parameter chains stay flat
    /// ascending sums, so this is bit-identical to the sequential
    /// per-sample backward); `dx` receives the row-stacked input
    /// gradient.
    #[allow(clippy::too_many_arguments)]
    pub fn backward_batch(
        &self,
        ps: &ParamSet,
        cache: &AttentionBatchCache,
        dy: &Matrix,
        batch: usize,
        sink: &mut GradSink<'_>,
        dx: &mut Matrix,
        scratch: &mut Scratch,
    ) {
        let rows = dy.rows();
        let head = self.head_shape(rows, batch);
        let HeadShape { seq, dh, .. } = head;

        let mut d_concat = scratch.take(rows, self.d_model);
        self.wo.backward_batch(
            ps,
            &cache.concat,
            dy,
            batch,
            sink,
            Some(&mut d_concat),
            scratch,
        );

        // `dk` and `dv` accumulate over query rows in place, so they
        // start from the arena's zero fill.
        let mut dq = scratch.take(rows, self.d_model);
        let mut dk = scratch.take(rows, self.d_model);
        let mut dv = scratch.take(rows, self.d_model);
        let seq_pad = seq.next_multiple_of(LANES);
        let mut vt = scratch.take(dh, seq_pad);
        let mut stage = scratch.take(ROWS, seq_pad);
        for b in 0..batch {
            for h in 0..self.heads {
                backward_head(
                    head,
                    [&cache.q, &cache.k, &cache.v],
                    &cache.attn[b * self.heads + h],
                    &d_concat,
                    b * seq,
                    h * dh,
                    &mut vt,
                    &mut stage,
                    [&mut dq, &mut dk, &mut dv],
                );
            }
        }
        scratch.give(stage);
        scratch.give(vt);

        self.wq
            .backward_batch(ps, &cache.x, &dq, batch, sink, Some(dx), scratch);
        let mut dx_k = scratch.take(rows, self.d_model);
        let mut dx_v = scratch.take(rows, self.d_model);
        self.wk
            .backward_batch(ps, &cache.x, &dk, batch, sink, Some(&mut dx_k), scratch);
        self.wv
            .backward_batch(ps, &cache.x, &dv, batch, sink, Some(&mut dx_v), scratch);
        // Same elementwise (q + k) + v order as the per-sample backward's
        // `dx_q.add(&dx_k).add(&dx_v)`.
        dx.add_assign(&dx_k);
        dx.add_assign(&dx_v);
        scratch.give(dx_v);
        scratch.give(dx_k);
        scratch.give(dv);
        scratch.give(dk);
        scratch.give(dq);
        scratch.give(d_concat);
    }
}

/// Shape of one `(block, head)` problem.
#[derive(Clone, Copy)]
struct HeadShape {
    /// Sequence length of a block.
    seq: usize,
    /// Head width.
    dh: usize,
    /// `1/√d_head`.
    scale: f32,
}

/// The forward core for one `(block, head)`: the block starts at row
/// `row0` of the row-stacked `[q, k, v]` and the head at column `col0`.
/// Writes the head's `seq × d_head` output into its place in `concat`
/// and, when `attn` is given, the softmaxed `seq × seq` attention.
/// `kt` (`d_head × seq_pad`) and `stage` ([`ROWS`]` × seq_pad`) are work
/// buffers whose pad columns must be zero on entry (and stay zero in
/// `kt`). The module docs state the arithmetic this reproduces.
#[allow(clippy::too_many_arguments)]
fn attend_head(
    head: HeadShape,
    qkv: [&Matrix; 3],
    row0: usize,
    col0: usize,
    kt: &mut Matrix,
    stage: &mut Matrix,
    concat: &mut Matrix,
    mut attn: Option<&mut Matrix>,
) {
    let [q, k, v] = qkv;
    transpose_head(k, row0, col0, head, kt);
    if let Some(a) = attn.as_deref_mut() {
        a.reset_unfilled(head.seq, head.seq);
    }
    let mut rows = |r: usize, group: usize| {
        let at = (row0, col0, r);
        let a = attn.as_deref_mut();
        match group {
            ROWS => attend_rows::<ROWS>(head, q, kt, v, at, stage, concat, a),
            3 => attend_rows::<3>(head, q, kt, v, at, stage, concat, a),
            2 => attend_rows::<2>(head, q, kt, v, at, stage, concat, a),
            _ => attend_rows::<1>(head, q, kt, v, at, stage, concat, a),
        }
    };
    for_row_groups(head.seq, &mut rows);
}

/// Calls `f(first_row, rows)` for each group of [`ROWS`] query rows of a
/// `seq`-row block, then once for the narrower remainder.
fn for_row_groups(seq: usize, f: &mut impl FnMut(usize, usize)) {
    let mut r = 0;
    while r + ROWS <= seq {
        f(r, ROWS);
        r += ROWS;
    }
    if r < seq {
        f(r, seq - r);
    }
}

/// Query rows `r .. r + R` of one `(block, head)`: scores into `stage`,
/// staged softmax, optional copy into `attn`, mix into `concat`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn attend_rows<const R: usize>(
    head: HeadShape,
    q: &Matrix,
    kt: &Matrix,
    v: &Matrix,
    (row0, col0, r): (usize, usize, usize),
    stage: &mut Matrix,
    concat: &mut Matrix,
    attn: Option<&mut Matrix>,
) {
    score_rows::<R>((q, row0 + r, col0), kt, stage);
    softmax_stage::<R>(stage, head.seq, head.scale);
    if let Some(a) = attn {
        for i in 0..R {
            a.row_mut(r + i).copy_from_slice(&stage.row(i)[..head.seq]);
        }
    }
    mix_rows::<R>(stage, head, (v, row0, col0), concat, row0 + r);
}

/// The backward core for one `(block, head)`, given the cached softmaxed
/// attention `a` and the head-output gradient in `d_concat`: writes the
/// head's columns of `dq` and accumulates (over query rows, ascending)
/// into the head's columns of `dk` and `dv`, which must be zero on entry.
/// `vt` and `stage` are work buffers as in [`attend_head`].
#[allow(clippy::too_many_arguments)]
fn backward_head(
    head: HeadShape,
    qkv: [&Matrix; 3],
    a: &Matrix,
    d_concat: &Matrix,
    row0: usize,
    col0: usize,
    vt: &mut Matrix,
    stage: &mut Matrix,
    grads: [&mut Matrix; 3],
) {
    let [q, k, v] = qkv;
    let [dq, dk, dv] = grads;
    transpose_head(v, row0, col0, head, vt);
    let mut rows = |r: usize, group: usize| {
        let at = (row0, col0, r);
        match group {
            ROWS => backward_rows::<ROWS>(head, q, k, a, d_concat, at, vt, stage, dq, dk, dv),
            3 => backward_rows::<3>(head, q, k, a, d_concat, at, vt, stage, dq, dk, dv),
            2 => backward_rows::<2>(head, q, k, a, d_concat, at, vt, stage, dq, dk, dv),
            _ => backward_rows::<1>(head, q, k, a, d_concat, at, vt, stage, dq, dk, dv),
        }
    };
    for_row_groups(head.seq, &mut rows);
}

/// Query rows `r .. r + R` of one `(block, head)` of the backward pass:
/// `da = dO·Vᵀ` into `stage`, softmax Jacobian and scale in place
/// (`stage` now holds `ds`), `dq = ds·K`, then `dv += aᵀ·dO` and
/// `dk += dsᵀ·Q` restricted to these rows.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn backward_rows<const R: usize>(
    head: HeadShape,
    q: &Matrix,
    k: &Matrix,
    a: &Matrix,
    d_concat: &Matrix,
    (row0, col0, r): (usize, usize, usize),
    vt: &Matrix,
    stage: &mut Matrix,
    dq: &mut Matrix,
    dk: &mut Matrix,
    dv: &mut Matrix,
) {
    let seq = head.seq;
    score_rows::<R>((d_concat, row0 + r, col0), vt, stage);
    for i in 0..R {
        let arow = a.row(r + i);
        let srow = &mut stage.row_mut(i)[..seq];
        // The expression of `softmax_rows_backward_into`, then the
        // definition's separate scale pass.
        let dot: f32 = arow.iter().zip(srow.iter()).map(|(x, y)| x * y).sum();
        for (s, &av) in srow.iter_mut().zip(arow) {
            *s = av * (*s - dot) * head.scale;
        }
    }
    mix_rows::<R>(stage, head, (k, row0, col0), dq, row0 + r);
    scatter_rows::<R>((a, r), head, (d_concat, row0 + r, col0), dv, row0);
    scatter_rows::<R>((stage, 0), head, (q, row0 + r, col0), dk, row0);
}

/// Transposes the head slice of `src` — rows `row0 .. row0 + seq`,
/// columns `col0 .. col0 + d_head` — into `out` (`d_head × seq_pad`).
/// Only the first `seq` columns are written: the pad stays zero.
fn transpose_head(src: &Matrix, row0: usize, col0: usize, head: HeadShape, out: &mut Matrix) {
    let stride = out.cols();
    let data = out.data_mut();
    for c in 0..head.seq {
        let srow = &src.row(row0 + c)[col0..col0 + head.dh];
        for (t, &x) in srow.iter().enumerate() {
            data[t * stride + c] = x;
        }
    }
}

/// `stage[i][c] = Σ_t a[row + i][col0 + t] · bt[t][c]` for `i < R` and
/// every (padded) column `c`: lanes across columns, `R` rows in flight,
/// each element one ascending-`t` chain from `0.0`.
#[inline(always)]
fn score_rows<const R: usize>(
    (a, row, col0): (&Matrix, usize, usize),
    bt: &Matrix,
    stage: &mut Matrix,
) {
    let (dh, width) = bt.shape();
    let arows: [&[f32]; R] = std::array::from_fn(|i| &a.row(row + i)[col0..col0 + dh]);
    let bt = bt.data();
    for c0 in (0..width).step_by(LANES) {
        let mut acc = [[0.0f32; LANES]; R];
        for t in 0..dh {
            let b = &bt[t * width + c0..t * width + c0 + LANES];
            for i in 0..R {
                let av = arows[i][t];
                for l in 0..LANES {
                    acc[i][l] += av * b[l];
                }
            }
        }
        for (i, acc) in acc.iter().enumerate() {
            stage.row_mut(i)[c0..c0 + LANES].copy_from_slice(acc);
        }
    }
}

/// Scales the first `R` staged score rows and softmaxes them in place,
/// one stage at a time across the rows so the exponential runs as a
/// single flat pass. Pad columns are carried along and never read.
#[inline(always)]
fn softmax_stage<const R: usize>(stage: &mut Matrix, seq: usize, scale: f32) {
    let width = stage.cols();
    let data = &mut stage.data_mut()[..R * width];
    for x in data.iter_mut() {
        *x *= scale;
    }
    // The `f32::max` fold from −∞ as a compare-and-keep, one instruction
    // where `f32::max` compiles to three: both skip NaN, and they differ
    // only in which zero survives a `0.0`/`-0.0` tie — which a score,
    // summed from `0.0`, can never present.
    let mut max = [f32::NEG_INFINITY; R];
    for c in 0..seq {
        for i in 0..R {
            let x = data[i * width + c];
            if x > max[i] {
                max[i] = x;
            }
        }
    }
    for (row, m) in data.chunks_exact_mut(width).zip(max) {
        for x in row {
            *x -= m;
        }
    }
    for x in data.iter_mut() {
        *x = crate::activation::fast_exp(*x);
    }
    // `Iterator::sum`'s starting value, so each chain is the
    // definition's `row.iter().sum()`.
    let mut sum = [-0.0f32; R];
    for c in 0..seq {
        for i in 0..R {
            sum[i] += data[i * width + c];
        }
    }
    for (row, s) in data.chunks_exact_mut(width).zip(sum) {
        if s > 0.0 {
            for x in &mut row[..seq] {
                *x /= s;
            }
        }
    }
}

/// `out[out_row + i][col0 + j] = Σ_c stage[i][c] · src[row0 + c][col0 + j]`
/// for `i < R`, `j < d_head`, `c < seq`: lanes across head columns, `R`
/// rows in flight, each element one ascending-`c` chain from `0.0`.
#[inline(always)]
fn mix_rows<const R: usize>(
    stage: &Matrix,
    head: HeadShape,
    (src, row0, col0): (&Matrix, usize, usize),
    out: &mut Matrix,
    out_row: usize,
) {
    let end = col0 + head.dh;
    let mut col = col0;
    while col + LANES <= end {
        mix_tile::<R, LANES>(stage, head.seq, (src, row0, col), out, out_row);
        col += LANES;
    }
    if col + HALF <= end {
        mix_tile::<R, HALF>(stage, head.seq, (src, row0, col), out, out_row);
        col += HALF;
    }
    while col < end {
        mix_tile::<R, 1>(stage, head.seq, (src, row0, col), out, out_row);
        col += 1;
    }
}

/// The `W` columns from `col` of [`mix_rows`].
#[inline(always)]
fn mix_tile<const R: usize, const W: usize>(
    stage: &Matrix,
    seq: usize,
    (src, row0, col): (&Matrix, usize, usize),
    out: &mut Matrix,
    out_row: usize,
) {
    let mut acc = [[0.0f32; W]; R];
    for c in 0..seq {
        let b: [f32; W] = lanes(&src.row(row0 + c)[col..]);
        for (i, acc) in acc.iter_mut().enumerate() {
            let av = stage.row(i)[c];
            for l in 0..W {
                acc[l] += av * b[l];
            }
        }
    }
    for (i, acc) in acc.iter().enumerate() {
        out.row_mut(out_row + i)[col..col + W].copy_from_slice(acc);
    }
}

/// `out[row0 + c][col0 + j] += Σ_i coef[coef_row + i][c] · src[src_row + i][col0 + j]`
/// for `c < seq`, `j < d_head`: the `R` rows' contributions join each
/// output element's chain in ascending `i`, continuing from what earlier
/// row groups left in `out`.
#[inline(always)]
fn scatter_rows<const R: usize>(
    coef: (&Matrix, usize),
    head: HeadShape,
    (src, src_row, col0): (&Matrix, usize, usize),
    out: &mut Matrix,
    row0: usize,
) {
    let end = col0 + head.dh;
    let mut col = col0;
    while col + LANES <= end {
        scatter_tile::<R, LANES>(coef, head.seq, (src, src_row, col), out, row0);
        col += LANES;
    }
    if col + HALF <= end {
        scatter_tile::<R, HALF>(coef, head.seq, (src, src_row, col), out, row0);
        col += HALF;
    }
    while col < end {
        scatter_tile::<R, 1>(coef, head.seq, (src, src_row, col), out, row0);
        col += 1;
    }
}

/// The `W` columns from `col` of [`scatter_rows`].
#[inline(always)]
fn scatter_tile<const R: usize, const W: usize>(
    (coef, coef_row): (&Matrix, usize),
    seq: usize,
    (src, src_row, col): (&Matrix, usize, usize),
    out: &mut Matrix,
    row0: usize,
) {
    let s: [[f32; W]; R] = std::array::from_fn(|i| lanes(&src.row(src_row + i)[col..]));
    for c in 0..seq {
        let orow = &mut out.row_mut(row0 + c)[col..col + W];
        let mut o: [f32; W] = lanes(orow);
        for (i, s) in s.iter().enumerate() {
            let x = coef.row(coef_row + i)[c];
            for l in 0..W {
                o[l] += x * s[l];
            }
        }
        orow.copy_from_slice(&o);
    }
}

/// The first `W` values of `xs` as a lane vector.
#[inline(always)]
fn lanes<const W: usize>(xs: &[f32]) -> [f32; W] {
    xs[..W].try_into().expect("W-wide slice")
}

/// Row-wise softmax Jacobian-vector product into `ds`: given the softmax
/// output `a` and upstream `da`, writes `ds` where `s` are the
/// pre-softmax scores.
pub fn softmax_rows_backward_into(a: &Matrix, da: &Matrix, ds: &mut Matrix) {
    ds.reset(a.rows(), a.cols());
    for r in 0..a.rows() {
        let arow = a.row(r);
        let darow = da.row(r);
        let dot: f32 = arow.iter().zip(darow).map(|(x, y)| x * y).sum();
        for c in 0..a.cols() {
            ds.set(r, c, arow[c] * (darow[c] - dot));
        }
    }
}

/// Per-sample definitions: the oracles the batched passes are pinned to.
#[cfg(any(test, feature = "reference"))]
impl MultiHeadAttention {
    /// Self-attention forward over `x` (`seq × d_model`).
    pub fn forward(&self, ps: &ParamSet, x: &Matrix) -> (Matrix, AttentionCache) {
        let (q, cq) = self.wq.forward(ps, x);
        let (k, ck) = self.wk.forward(ps, x);
        let (v, cv) = self.wv.forward(ps, x);
        let dh = self.d_head();
        let scale = 1.0 / (dh as f32).sqrt();
        let seq = x.rows();
        let mut concat = Matrix::zeros(seq, self.d_model);
        let mut attn = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let qh = col_slice(&q, h * dh, dh);
            let kh = col_slice(&k, h * dh, dh);
            let vh = col_slice(&v, h * dh, dh);
            let scores = qh.matmul_t(&kh).scale(scale);
            let a = scores.softmax_rows();
            let oh = a.matmul(&vh);
            col_slice_write(&mut concat, &oh, h * dh);
            attn.push(a);
        }
        let (y, co) = self.wo.forward(ps, &concat);
        (
            y,
            AttentionCache {
                cq,
                ck,
                cv,
                co,
                q,
                k,
                v,
                attn,
            },
        )
    }

    /// Backward pass; accumulates all projection gradients and returns `dx`.
    pub fn backward(
        &self,
        ps: &ParamSet,
        cache: &AttentionCache,
        dy: &Matrix,
        grads: &mut Grads,
    ) -> Matrix {
        let dh = self.d_head();
        let scale = 1.0 / (dh as f32).sqrt();
        let seq = dy.rows();
        let d_concat = self.wo.backward(ps, &cache.co, dy, grads);

        let mut dq = Matrix::zeros(seq, self.d_model);
        let mut dk = Matrix::zeros(seq, self.d_model);
        let mut dv = Matrix::zeros(seq, self.d_model);
        for h in 0..self.heads {
            let doh = col_slice(&d_concat, h * dh, dh);
            let qh = col_slice(&cache.q, h * dh, dh);
            let kh = col_slice(&cache.k, h * dh, dh);
            let vh = col_slice(&cache.v, h * dh, dh);
            let a = &cache.attn[h];
            // O = A·V
            let da = doh.matmul_t(&vh);
            let dvh = a.t_matmul(&doh);
            // softmax backward (per row).
            let ds = softmax_rows_backward(a, &da).scale(scale);
            let dqh = ds.matmul(&kh);
            let dkh = ds.t_matmul(&qh);
            col_slice_write(&mut dq, &dqh, h * dh);
            col_slice_write(&mut dk, &dkh, h * dh);
            col_slice_write(&mut dv, &dvh, h * dh);
        }
        let dx_q = self.wq.backward(ps, &cache.cq, &dq, grads);
        let dx_k = self.wk.backward(ps, &cache.ck, &dk, grads);
        let dx_v = self.wv.backward(ps, &cache.cv, &dv, grads);
        dx_q.add(&dx_k).add(&dx_v)
    }
}

/// Copies columns `[start, start+width)` into a new matrix.
#[cfg(any(test, feature = "reference"))]
fn col_slice(m: &Matrix, start: usize, width: usize) -> Matrix {
    Matrix::from_fn(m.rows(), width, |r, c| m.get(r, start + c))
}

/// Writes `src` into columns `[start, ...)` of `dst`.
#[cfg(any(test, feature = "reference"))]
fn col_slice_write(dst: &mut Matrix, src: &Matrix, start: usize) {
    let width = src.cols();
    for r in 0..src.rows() {
        dst.row_mut(r)[start..start + width].copy_from_slice(src.row(r));
    }
}

/// Row-wise softmax Jacobian-vector product: given the softmax output `a`
/// and upstream `da`, returns `ds` where `s` are the pre-softmax scores.
#[cfg(any(test, feature = "reference"))]
pub fn softmax_rows_backward(a: &Matrix, da: &Matrix) -> Matrix {
    let mut ds = Matrix::zeros(0, 0);
    softmax_rows_backward_into(a, da, &mut ds);
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_shape_matches_input() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mha = MultiHeadAttention::new(&mut ps, "a", 8, 2, &mut rng);
        let x = Matrix::xavier(5, 8, &mut rng);
        let (y, cache) = mha.forward(&ps, &x);
        assert_eq!(y.shape(), (5, 8));
        assert_eq!(cache.attn.len(), 2);
        // Attention rows are probability distributions.
        for a in &cache.attn {
            for r in 0..a.rows() {
                let s: f32 = a.row(r).iter().sum();
                assert!((s - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    #[should_panic(expected = "heads must divide d_model")]
    fn rejects_indivisible_heads() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = MultiHeadAttention::new(&mut ps, "a", 7, 2, &mut rng);
    }

    #[test]
    fn softmax_backward_matches_jacobian() {
        // For a 1×n row: ds_i = a_i (da_i − Σ_j da_j a_j).
        let logits = Matrix::row_vector(vec![0.3, -0.2, 0.9]);
        let a = logits.softmax_rows();
        let da = Matrix::row_vector(vec![1.0, 0.0, -1.0]);
        let ds = softmax_rows_backward(&a, &da);
        // Finite differences through the softmax.
        let eps = 1e-3;
        for i in 0..3 {
            let mut up = logits.clone();
            up.set(0, i, up.get(0, i) + eps);
            let mut dn = logits.clone();
            dn.set(0, i, dn.get(0, i) - eps);
            let f = |m: &Matrix| -> f32 {
                let s = m.softmax_rows();
                s.row(0).iter().zip(da.row(0)).map(|(x, y)| x * y).sum()
            };
            let num = (f(&up) - f(&dn)) / (2.0 * eps);
            assert!((ds.get(0, i) - num).abs() < 1e-3, "i={i}");
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(7);
        let mha = MultiHeadAttention::new(&mut ps, "a", 6, 2, &mut rng);
        let x = Matrix::xavier(4, 6, &mut rng);
        let wvec: Vec<f32> = (0..24).map(|i| ((i * 7) as f32 * 0.13).cos()).collect();
        let weights = Matrix::from_vec(4, 6, wvec);
        let loss = |ps: &ParamSet| mha.forward(ps, &x).0.hadamard(&weights).sum();
        let (_, cache) = mha.forward(&ps, &x);
        let mut grads = Grads::new(&ps);
        let dx = mha.backward(&ps, &cache, &weights, &mut grads);
        let ids = [
            mha.wq.w, mha.wq.b, mha.wk.w, mha.wk.b, mha.wv.w, mha.wv.b, mha.wo.w, mha.wo.b,
        ];
        check_gradients(&mut ps, &ids, loss, &grads, 1e-2, 3e-2).unwrap();
        // Spot-check dx.
        let eps = 1e-2;
        let mut x2 = x.clone();
        for (r, c) in [(0, 0), (2, 3), (3, 5)] {
            let orig = x2.get(r, c);
            x2.set(r, c, orig + eps);
            let up = mha.forward(&ps, &x2).0.hadamard(&weights).sum();
            x2.set(r, c, orig - eps);
            let dn = mha.forward(&ps, &x2).0.hadamard(&weights).sum();
            x2.set(r, c, orig);
            let num = (up - dn) / (2.0 * eps);
            assert!((dx.get(r, c) - num).abs() < 3e-2, "dx[{r},{c}]");
        }
    }
}
