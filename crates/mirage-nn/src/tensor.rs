//! Dense row-major f32 matrix — the only tensor type the substrate needs.
//!
//! Kept deliberately small: the Mirage networks are 2-D at every point
//! (sequences are handled as `seq_len × d_model` matrices, mini-batches
//! as row-stacked blocks of them). Matmul runs a register-tiled
//! single-thread microkernel — at Mirage's layer sizes that beats
//! fan-out; work gets wider through wider row-stacked batches (more
//! lockstep lanes), never through threads. Every
//! producing operation has an `*_into` variant writing into a
//! caller-provided buffer for the allocation-free inference path (see
//! `crate::scratch`).

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Row-major matrix of `f32`.
#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Self {
            data: self.data.clone(),
            ..*self
        }
    }

    /// In place, reusing the allocation whenever its capacity suffices.
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

/// SIMD lane width the matmul microkernel is blocked around: 8 × f32 is
/// one 256-bit vector (AVX2 `ymm` / two NEON `q` registers), the widest
/// unit the targets we build for retire as a single FMA. Accumulators are
/// declared as `[f32; MM_LANES]` blocks so the vectorizer maps each block
/// onto exactly one register instead of guessing a profitable width.
const MM_LANES: usize = 8;
/// Lane vectors per column tile: the accumulator tile spans
/// `MM_LANE_VECS` explicit 8-lane vectors (16 columns).
const MM_LANE_VECS: usize = 2;
/// Register-tile width of the matmul microkernel in columns.
const MM_TILE_J: usize = MM_LANES * MM_LANE_VECS;
/// Rows per register block: three output rows share every streamed `rhs`
/// row, so the kernel performs `MM_TILE_I × MM_LANE_VECS` = 6 FMAs per
/// two vector loads. `3 × 2` lane vectors = 6 accumulator registers —
/// measured fastest on the layer shapes here against 2×2, 4×2 and 2×4
/// tilings (wider tiles start spilling broadcasts out of a 16-register
/// file).
const MM_TILE_I: usize = 3;

/// Computes output rows `r0 .. r0 + R` of `out = lhs × rhs`, where `lhs`
/// is `(≥ r0+R) × kdim` and `rhs` is `kdim × n`, both row-major.
///
/// The accumulator tile — `R` rows × [`MM_LANE_VECS`] explicit
/// [`MM_LANES`]-wide vectors — lives in registers across the whole
/// shared-dimension walk, so each output element is stored exactly once.
/// Per output element the accumulation runs in ascending-`k` order with a
/// single accumulator, so results are bit-identical to the naive triple
/// loop (and therefore independent of `R`: the 4/2/1-row instantiations
/// that tile the output agree bitwise).
///
/// `out` must be pre-zeroed over the final `n % MM_LANES` columns of the
/// computed rows (only the sub-vector column tail accumulates in place).
#[inline(always)]
fn mm_row_block<const R: usize>(
    lhs: &[f32],
    kdim: usize,
    rhs: &[f32],
    n: usize,
    out: &mut [f32],
    r0: usize,
) {
    let arows: [&[f32]; R] = std::array::from_fn(|r| &lhs[(r0 + r) * kdim..(r0 + r + 1) * kdim]);
    let tiles = n / MM_TILE_J;
    for tile in 0..tiles {
        let jj = tile * MM_TILE_J;
        // Flat `MM_TILE_J`-wide accumulators: each is exactly
        // `MM_LANE_VECS` lane vectors, and the flat layout lets the
        // vectorizer keep them in registers without shuffles.
        let mut acc = [[0.0f32; MM_TILE_J]; R];
        for k in 0..kdim {
            let brow = &rhs[k * n + jj..k * n + jj + MM_TILE_J];
            for r in 0..R {
                let av = arows[r][k];
                for t in 0..MM_TILE_J {
                    acc[r][t] += av * brow[t];
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            let o = (r0 + r) * n + jj;
            out[o..o + MM_TILE_J].copy_from_slice(accr);
        }
    }
    let mut jj = tiles * MM_TILE_J;
    // Half tile — one MM_LANES-wide accumulator vector per row — so
    // narrow products (attention's per-head `n = d_head` / `n = seq`
    // shapes) still run register-resident instead of falling straight
    // through to the scalar tail. Per element the accumulation is the
    // same single ascending-`k` chain as the full tile.
    if jj + MM_LANES <= n {
        let mut acc = [[0.0f32; MM_LANES]; R];
        for k in 0..kdim {
            let brow = &rhs[k * n + jj..k * n + jj + MM_LANES];
            for r in 0..R {
                let av = arows[r][k];
                for t in 0..MM_LANES {
                    acc[r][t] += av * brow[t];
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            let o = (r0 + r) * n + jj;
            out[o..o + MM_LANES].copy_from_slice(accr);
        }
        jj += MM_LANES;
    }
    // Column tail (n % MM_LANES): stream each rhs row once, accumulating
    // into the (pre-zeroed) output — still ascending k per element.
    if jj < n {
        for k in 0..kdim {
            let brow = &rhs[k * n + jj..(k + 1) * n];
            for r in 0..R {
                let av = arows[r][k];
                let orow = &mut out[(r0 + r) * n + jj..(r0 + r + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Builds a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Wraps an existing buffer (`data.len()` must equal `rows × cols`).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        Self { rows, cols, data }
    }

    /// A `1 × n` row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        let cols = data.len();
        Self {
            rows: 1,
            cols,
            data,
        }
    }

    /// Xavier/Glorot uniform initialization for a `rows × cols` weight.
    pub fn xavier(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        Self::from_fn(rows, cols, |_, _| rng.gen_range(-bound..bound))
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Flat element view.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat element view.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes in place to `rows × cols`, zero-filled, **reusing the
    /// existing allocation** whenever its capacity suffices. This is the
    /// buffer-recycling primitive behind [`crate::scratch::Scratch`]: in a
    /// shape-stationary loop the second and later calls never touch the
    /// allocator.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes in place to `rows × cols` like [`Matrix::reset`] but
    /// leaves existing contents **unspecified** instead of zero-filling
    /// (new capacity is still zero-initialized). Only for kernels that
    /// overwrite every element before it can be read — skipping the
    /// redundant clear matters on hot paths where the output is written
    /// immediately after.
    pub(crate) fn reset_unfilled(&mut self, rows: usize, cols: usize) {
        let need = rows * cols;
        if self.data.len() < need {
            self.data.resize(need, 0.0);
        } else {
            self.data.truncate(need);
        }
        self.rows = rows;
        self.cols = cols;
    }

    /// Copies `src`'s shape and contents into this matrix, reusing the
    /// allocation when it is large enough.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Matrix product `self × rhs`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product `self × rhs` written into `out` (reshaped in place;
    /// no allocation once `out`'s buffer is large enough).
    ///
    /// The kernel is explicitly SIMD-width-blocked (see `mm_row_block`):
    /// `MM_TILE_I`-row blocks over a column tile of `MM_LANE_VECS`
    /// `MM_LANES`-wide accumulator vectors, so every streamed `rhs` row
    /// feeds `MM_TILE_I × MM_LANE_VECS` FMAs and each output element is
    /// stored once. Per output element the accumulation runs in
    /// ascending-`k` order, so results are bit-identical to the naive
    /// triple loop (pinned by property test) regardless of the tiling.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            rhs.rows,
            "matmul shape mismatch: {:?} × {:?}",
            self.shape(),
            rhs.shape()
        );
        let (m, kdim, n) = (self.rows, self.cols, rhs.cols);
        // Full and half tiles are stored (never read), so only the
        // accumulating sub-vector column tail needs pre-zeroing — not the
        // whole output.
        out.reset_unfilled(m, n);
        let tail = (n / MM_LANES) * MM_LANES;
        if tail < n {
            for r in 0..m {
                out.data[r * n + tail..(r + 1) * n].fill(0.0);
            }
        }
        let mut r = 0;
        while r + MM_TILE_I <= m {
            mm_row_block::<MM_TILE_I>(&self.data, kdim, &rhs.data, n, &mut out.data, r);
            r += MM_TILE_I;
        }
        if r + 2 <= m {
            mm_row_block::<2>(&self.data, kdim, &rhs.data, n, &mut out.data, r);
            r += 2;
        }
        if r < m {
            mm_row_block::<1>(&self.data, kdim, &rhs.data, n, &mut out.data, r);
        }
    }

    /// `selfᵀ × rhs` without materializing the transpose.
    pub fn t_matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.t_matmul_into(rhs, &mut out);
        out
    }

    /// `selfᵀ × rhs` written into `out` (no allocation once warm).
    pub fn t_matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.t_matmul_range_into(rhs, 0, self.rows, out);
    }

    /// `selfᵀ × rhs` restricted to the row band `[r0, r1)` of both
    /// operands, written into `out`. The inner loops are the exact body of
    /// [`Matrix::t_matmul_into`] (which delegates here with the full
    /// range), so a per-block gradient computed over a band of a
    /// row-stacked batch is bit-identical to computing it on a standalone
    /// copy of that block.
    pub fn t_matmul_range_into(&self, rhs: &Matrix, r0: usize, r1: usize, out: &mut Matrix) {
        assert_eq!(
            self.rows,
            rhs.rows,
            "t_matmul shape mismatch: {:?}ᵀ × {:?}",
            self.shape(),
            rhs.shape()
        );
        assert!(
            r0 <= r1 && r1 <= self.rows,
            "t_matmul row band out of range"
        );
        out.reset(self.cols, rhs.cols);
        let n = rhs.cols;
        // Four streamed rows per pass: each output row is loaded and
        // stored once per four rank-1 updates instead of once per update.
        // Within an element the four adds stay separate statements on a
        // register accumulator in ascending-`r` order, so the result is
        // bit-identical to the one-row-at-a-time loop below.
        let mut r = r0;
        while r + 4 <= r1 {
            let (a0, a1, a2, a3) = (
                self.row(r),
                self.row(r + 1),
                self.row(r + 2),
                self.row(r + 3),
            );
            let (b0, b1, b2, b3) = (rhs.row(r), rhs.row(r + 1), rhs.row(r + 2), rhs.row(r + 3));
            for i in 0..self.cols {
                let (x0, x1, x2, x3) = (a0[i], a1[i], a2[i], a3[i]);
                let orow = &mut out.data[i * n..(i + 1) * n];
                for j in 0..n {
                    let mut o = orow[j];
                    o += x0 * b0[j];
                    o += x1 * b1[j];
                    o += x2 * b2[j];
                    o += x3 * b3[j];
                    orow[j] = o;
                }
            }
            r += 4;
        }
        for rr in r..r1 {
            let arow = self.row(rr);
            let brow = rhs.row(rr);
            for (i, &a) in arow.iter().enumerate() {
                let orow = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
    }

    /// `self × rhsᵀ`.
    pub fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_t_into(rhs, &mut out);
        out
    }

    /// `self × rhsᵀ` written into `out`. Allocates a transient transpose
    /// each call; hot loops with a reusable buffer should prefer
    /// [`Matrix::matmul_t_buf_into`], which this delegates to (so the two
    /// agree bitwise).
    pub fn matmul_t_into(&self, rhs: &Matrix, out: &mut Matrix) {
        let mut rhs_t = Matrix::zeros(0, 0);
        self.matmul_t_buf_into(rhs, out, &mut rhs_t);
    }

    /// `self × rhsᵀ` written into `out`, materializing `rhsᵀ` in
    /// `rhs_t_buf` (reshaped in place; no allocation once warm) and
    /// running the tiled `mm_row_block` kernel over it. `rhs` is the
    /// small operand at every call site — a weight matrix or a per-head
    /// block — so the transpose is cheap next to the product, and the
    /// contiguous streaming it buys replaces one horizontal reduction per
    /// output element with dense row-wise FMAs. Per output element the
    /// accumulation runs in ascending-`k` order: bit-identical to
    /// `self.matmul(&rhs.transpose())`.
    pub fn matmul_t_buf_into(&self, rhs: &Matrix, out: &mut Matrix, rhs_t_buf: &mut Matrix) {
        assert_eq!(
            self.cols,
            rhs.cols,
            "matmul_t shape mismatch: {:?} × {:?}ᵀ",
            self.shape(),
            rhs.shape()
        );
        rhs.transpose_into(rhs_t_buf);
        self.matmul_into(rhs_t_buf, out);
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Transpose written into `out` (reshaped in place; no allocation
    /// once `out`'s buffer is large enough).
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.reset_unfilled(self.cols, self.rows);
        for r in 0..self.rows {
            for (c, &v) in self.row(r).iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
    }

    /// Elementwise sum (shapes must match).
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place elementwise `self += rhs`.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// In-place `self += alpha * rhs`.
    pub fn add_scaled(&mut self, rhs: &Matrix, alpha: f32) {
        assert_eq!(self.shape(), rhs.shape(), "add_scaled shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Elementwise difference.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "hadamard shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a * b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scalar multiple.
    pub fn scale(&self, alpha: f32) -> Matrix {
        let data = self.data.iter().map(|a| a * alpha).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place scalar multiple (same arithmetic as [`Matrix::scale`]).
    pub fn scale_in_place(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Adds a `1 × cols` row vector to every row.
    pub fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        assert_eq!(row.rows, 1, "broadcast operand must be a row vector");
        assert_eq!(row.cols, self.cols, "broadcast width mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (o, &b) in out.row_mut(r).iter_mut().zip(&row.data) {
                *o += b;
            }
        }
        out
    }

    /// In-place broadcast add of a `1 × cols` row vector to every row
    /// (same arithmetic as [`Matrix::add_row_broadcast`]).
    pub fn add_row_in_place(&mut self, row: &Matrix) {
        assert_eq!(row.rows, 1, "broadcast operand must be a row vector");
        assert_eq!(row.cols, self.cols, "broadcast width mismatch");
        for r in 0..self.rows {
            for (o, &b) in self.row_mut(r).iter_mut().zip(&row.data) {
                *o += b;
            }
        }
    }

    /// Sums all rows into a `1 × cols` vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Sums the row band `[r0, r1)` into a `1 × cols` vector written into
    /// `out`. Same ascending-row inner loop as [`Matrix::sum_rows`], so a
    /// per-block bias gradient over a band of a row-stacked batch is
    /// bit-identical to `sum_rows` on a standalone copy of that block.
    pub fn sum_rows_range_into(&self, r0: usize, r1: usize, out: &mut Matrix) {
        assert!(
            r0 <= r1 && r1 <= self.rows,
            "sum_rows row band out of range"
        );
        out.reset(1, self.cols);
        for r in r0..r1 {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// Mean of all rows as a `1 × cols` vector.
    pub fn mean_rows(&self) -> Matrix {
        self.sum_rows().scale(1.0 / self.rows.max(1) as f32)
    }

    /// Mean of all rows written into `out` (no allocation once warm; same
    /// arithmetic as [`Matrix::mean_rows`]).
    pub fn mean_rows_into(&self, out: &mut Matrix) {
        out.reset(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out.scale_in_place(1.0 / self.rows.max(1) as f32);
    }

    /// Row-wise softmax (numerically stabilized).
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        out.softmax_rows_in_place();
        out
    }

    /// In-place row-wise softmax (the kernel behind
    /// [`Matrix::softmax_rows`]).
    ///
    /// Same per-element arithmetic as [`softmax_in_place`] on every row —
    /// shift by the row max, [`crate::activation::fast_exp`], divide by
    /// the ascending-order row sum — but staged so the exponential pass
    /// runs over the whole matrix as one flat loop: short rows cannot
    /// amortize per-row vector ramp-up, a single `rows·cols` pass can.
    /// This is the arithmetic the attention core's row-group softmax
    /// reproduces bit for bit (`crate::attention`).
    pub fn softmax_rows_in_place(&mut self) {
        for r in 0..self.rows {
            let row = self.row_mut(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            for x in row.iter_mut() {
                *x -= max;
            }
        }
        for x in self.data.iter_mut() {
            *x = crate::activation::fast_exp(*x);
        }
        for r in 0..self.rows {
            let row = self.row_mut(r);
            let sum: f32 = row.iter().sum();
            if sum > 0.0 {
                for x in row.iter_mut() {
                    *x /= sum;
                }
            }
        }
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let data = self.data.iter().map(|&v| f(v)).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Index of the maximum element in a `1 × n` or `n × 1` vector.
    pub fn argmax(&self) -> usize {
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// Numerically-stable in-place softmax of one slice.
///
/// Exponentials run through [`crate::activation::fast_exp`] — every
/// softmax in the crate (training *and* inference, sequential *and*
/// batched) flows through this one kernel, so the approximation can
/// never introduce drift between paths.
pub fn softmax_in_place(xs: &mut [f32]) {
    let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    // Exponentiation and summation as separate passes: the map pass has
    // no cross-element dependency, so it vectorizes across the row; the
    // sum still adds in ascending index order (same result as a fused
    // loop, without serializing the exponentials behind it).
    for x in xs.iter_mut() {
        *x = crate::activation::fast_exp(*x - max);
    }
    let sum: f32 = xs.iter().sum();
    if sum > 0.0 {
        for x in xs.iter_mut() {
            *x /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_small_known_values() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_parallel_matches_serial() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::xavier(80, 96, &mut rng);
        let b = Matrix::xavier(96, 72, &mut rng);
        let c = a.matmul(&b);
        // Serial reference.
        let expected = Matrix::from_fn(80, 72, |r, k| {
            (0..96).map(|j| a.get(r, j) * b.get(j, k)).sum()
        });
        for (x, y) in c.data().iter().zip(expected.data()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn transposed_products_agree_with_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::xavier(7, 5, &mut rng);
        let b = Matrix::xavier(7, 4, &mut rng);
        let c = Matrix::xavier(6, 5, &mut rng);
        let tm = a.t_matmul(&b);
        let tm_ref = a.transpose().matmul(&b);
        for (x, y) in tm.data().iter().zip(tm_ref.data()) {
            assert!((x - y).abs() < 1e-5);
        }
        let mt = a.matmul_t(&c);
        let mt_ref = a.matmul(&c.transpose());
        for (x, y) in mt.data().iter().zip(mt_ref.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn softmax_rows_are_distributions() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Large inputs do not overflow (stability shift).
        assert!((s.get(1, 0) - 1.0 / 3.0).abs() < 1e-6);
        // Monotone in the logits.
        assert!(s.get(0, 2) > s.get(0, 1) && s.get(0, 1) > s.get(0, 0));
    }

    #[test]
    fn broadcast_and_reductions() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = a.add_row_broadcast(&Matrix::row_vector(vec![10.0, 20.0, 30.0]));
        assert_eq!(b.row(0), &[11.0, 22.0, 33.0]);
        assert_eq!(b.row(1), &[14.0, 25.0, 36.0]);
        assert_eq!(a.sum_rows().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.mean_rows().data(), &[2.5, 3.5, 4.5]);
        assert_eq!(a.sum(), 21.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = m(1, 3, &[1.0, -2.0, 3.0]);
        let b = m(1, 3, &[2.0, 2.0, 2.0]);
        assert_eq!(a.add(&b).data(), &[3.0, 0.0, 5.0]);
        assert_eq!(a.sub(&b).data(), &[-1.0, -4.0, 1.0]);
        assert_eq!(a.hadamard(&b).data(), &[2.0, -4.0, 6.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, -4.0, 6.0]);
        assert_eq!(a.map(f32::abs).data(), &[1.0, 2.0, 3.0]);
        let mut c = a.clone();
        c.add_scaled(&b, 0.5);
        assert_eq!(c.data(), &[2.0, -1.0, 4.0]);
    }

    #[test]
    fn argmax_and_norm() {
        let a = m(1, 4, &[0.1, 3.0, -2.0, 1.0]);
        assert_eq!(a.argmax(), 1);
        let b = m(1, 2, &[3.0, 4.0]);
        assert!((b.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn into_kernels_match_allocating_ops_bitwise_across_reuse() {
        let mut rng = StdRng::seed_from_u64(9);
        // One set of reused buffers across many shapes: reuse must never
        // leak stale contents or shapes.
        let mut out_mm = Matrix::zeros(0, 0);
        let mut out_tm = Matrix::zeros(0, 0);
        let mut out_mt = Matrix::zeros(0, 0);
        let mut out_mean = Matrix::zeros(0, 0);
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 2),
            (17, 40, 9),
            (80, 96, 72),
            (2, 130, 300),
        ] {
            let a = Matrix::xavier(m, k, &mut rng);
            let b = Matrix::xavier(k, n, &mut rng);
            let c = Matrix::xavier(n, k, &mut rng); // for a × cᵀ
            let d = Matrix::xavier(m, n, &mut rng); // for aᵀ invalid; use a rows
            a.matmul_into(&b, &mut out_mm);
            assert_eq!(out_mm, a.matmul(&b));
            a.matmul_t_into(&c, &mut out_mt);
            assert_eq!(out_mt, a.matmul_t(&c));
            a.t_matmul_into(&d, &mut out_tm);
            assert_eq!(out_tm, a.t_matmul(&d));
            a.mean_rows_into(&mut out_mean);
            assert_eq!(out_mean, a.mean_rows());
        }
    }

    #[test]
    fn in_place_variants_match_allocating_ops() {
        let mut rng = StdRng::seed_from_u64(10);
        let a = Matrix::xavier(7, 11, &mut rng);
        let row = Matrix::xavier(1, 11, &mut rng);

        let mut s = a.clone();
        s.scale_in_place(0.37);
        assert_eq!(s, a.scale(0.37));

        let mut b = a.clone();
        b.add_row_in_place(&row);
        assert_eq!(b, a.add_row_broadcast(&row));

        let mut sm = a.clone();
        sm.softmax_rows_in_place();
        assert_eq!(sm, a.softmax_rows());
    }

    #[test]
    fn reset_reuses_capacity_and_zero_fills() {
        let mut m = Matrix::full(8, 8, 3.0);
        let ptr = m.data().as_ptr();
        m.reset(4, 6);
        assert_eq!(m.shape(), (4, 6));
        assert!(m.data().iter().all(|&v| v == 0.0));
        assert_eq!(m.data().as_ptr(), ptr, "shrinking reset must not realloc");
        let mut c = Matrix::zeros(2, 2);
        c.copy_from(&m);
        assert_eq!(c, m);
    }

    #[test]
    fn xavier_is_bounded_and_seeded() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = Matrix::xavier(64, 64, &mut rng);
        let bound = (6.0 / 128.0f32).sqrt();
        assert!(w.data().iter().all(|v| v.abs() <= bound));
        let mut rng2 = StdRng::seed_from_u64(3);
        assert_eq!(w, Matrix::xavier(64, 64, &mut rng2));
    }
}
