//! Parameter storage and gradient accumulation.
//!
//! Modules are *stateless*: they hold [`ParamId`] handles into a shared
//! [`ParamSet`] and thread explicit caches between `forward` and
//! `backward`. Any number of passes can run against one `&ParamSet`, each
//! producing [`Grads`] that merge in a fixed order (the per-sample test
//! oracles do exactly that), and optimizer state (Adam moments) stays
//! aligned with parameters by index.

use serde::{Deserialize, Serialize};

use crate::tensor::Matrix;

/// Handle to one parameter matrix inside a [`ParamSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParamId(pub usize);

/// Flat store of named parameter matrices.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ParamSet {
    params: Vec<Matrix>,
    names: Vec<String>,
}

impl ParamSet {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its handle.
    pub fn alloc(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        self.params.push(value);
        self.names.push(name.into());
        ParamId(self.params.len() - 1)
    }

    /// Parameter by handle.
    #[inline]
    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.params[id.0]
    }

    /// Mutable parameter by handle.
    #[inline]
    pub fn get_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.params[id.0]
    }

    /// Name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total scalar parameter count (for model-size reporting).
    #[cfg(any(test, feature = "reference"))]
    pub fn scalar_count(&self) -> usize {
        self.params.iter().map(|m| m.rows() * m.cols()).sum()
    }

    /// Iterates over `(id, matrix)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Matrix)> {
        self.params.iter().enumerate().map(|(i, m)| (ParamId(i), m))
    }

    /// Applies `update(param, grad)` for every parameter with a gradient.
    #[cfg(any(test, feature = "reference"))]
    pub fn apply_grads(&mut self, grads: &Grads, mut update: impl FnMut(&mut Matrix, &Matrix)) {
        for (i, g) in grads.iter() {
            update(&mut self.params[i.0], g);
        }
    }
}

/// Gradient accumulator parallel to a [`ParamSet`].
///
/// Entries are lazily allocated: untouched parameters cost nothing, which
/// matters when only a head is being trained on top of a frozen foundation.
///
/// Buffers are *retained* across [`Grads::reset`]: a slot keeps its
/// allocation when cleared and the next accumulation copies into it, so a
/// shape-stationary update loop (one `reset` + accumulate + step per
/// mini-batch) stops allocating after the first pass. The first
/// accumulation into a cleared slot is a copy, not a zero-then-add — that
/// keeps `-0.0` contributions bit-identical to a freshly inserted matrix.
#[derive(Debug, Clone, Default)]
pub struct Grads {
    grads: Vec<Option<Matrix>>,
    /// Slots logically filled since the last [`Grads::reset`]. A `Some`
    /// slot with `filled == false` is a parked buffer, not a gradient.
    filled: Vec<bool>,
}

impl Grads {
    /// Empty accumulator sized for `params`.
    pub fn new(params: &ParamSet) -> Self {
        Self {
            grads: vec![None; params.len()],
            filled: vec![false; params.len()],
        }
    }

    /// Clears all gradients while keeping their allocations parked for
    /// reuse. After a reset the accumulator behaves exactly like
    /// [`Grads::new`] — but steady-state accumulation is allocation-free.
    pub fn reset(&mut self) {
        self.filled.fill(false);
    }

    /// Accumulates `g` into the gradient of `id`.
    #[cfg(any(test, feature = "reference"))]
    pub fn accumulate(&mut self, id: ParamId, g: Matrix) {
        if self.filled[id.0] {
            self.grads[id.0]
                .as_mut()
                .expect("filled slot")
                .add_assign(&g);
        } else {
            match &mut self.grads[id.0] {
                Some(parked) => parked.copy_from(&g),
                slot => *slot = Some(g),
            }
            self.filled[id.0] = true;
        }
    }

    /// Folds a gradient into the slot of `id`, shaped `rows × cols`, in
    /// place: `fold(slot, filled)` gets the slot and whether it held a
    /// gradient on entry. When it did not, the slot's contents are
    /// unspecified and `fold` must overwrite every element, which the
    /// block folds of [`Matrix`] do by copying their first block in (the
    /// rule of [`Grads::merge_ref`]). The slot counts as filled only once
    /// `fold` returns, so a fold that panics on a shape check leaves an
    /// empty slot empty.
    pub(crate) fn fold_into(
        &mut self,
        id: ParamId,
        rows: usize,
        cols: usize,
        fold: impl FnOnce(&mut Matrix, bool),
    ) {
        let filled = self.filled[id.0];
        let slot = self.grads[id.0].get_or_insert_with(Matrix::default);
        if filled {
            assert_eq!(slot.shape(), (rows, cols), "gradient shape mismatch");
        } else {
            slot.reset_unfilled(rows, cols);
        }
        fold(slot, filled);
        self.filled[id.0] = true;
    }

    /// Gradient of `id`, if any has been accumulated.
    pub fn get(&self, id: ParamId) -> Option<&Matrix> {
        if self.filled[id.0] {
            self.grads[id.0].as_ref()
        } else {
            None
        }
    }

    /// Merges another accumulator into this one (summing).
    #[cfg(any(test, feature = "reference"))]
    pub fn merge(&mut self, other: Grads) {
        assert_eq!(self.grads.len(), other.grads.len(), "grads size mismatch");
        for (i, theirs) in other.grads.into_iter().enumerate() {
            if !other.filled[i] {
                continue;
            }
            let t = theirs.expect("filled slot");
            if self.filled[i] {
                self.grads[i].as_mut().expect("filled slot").add_assign(&t);
            } else {
                match &mut self.grads[i] {
                    Some(parked) => parked.copy_from(&t),
                    slot => *slot = Some(t),
                }
                self.filled[i] = true;
            }
        }
    }

    /// Sums another accumulator into this one slot by slot: added into a
    /// filled slot, copied into an empty one. `other` is left untouched,
    /// so a reduction can fold the same shard set repeatedly.
    pub fn merge_ref(&mut self, other: &Grads) {
        assert_eq!(self.grads.len(), other.grads.len(), "grads size mismatch");
        for (i, g) in other.iter().map(|(id, g)| (id.0, g)) {
            if self.filled[i] {
                self.grads[i].as_mut().expect("filled slot").add_assign(g);
            } else {
                match &mut self.grads[i] {
                    Some(parked) => parked.copy_from(g),
                    slot => *slot = Some(g.clone()),
                }
                self.filled[i] = true;
            }
        }
    }

    /// Scales every gradient by `alpha` (e.g. 1/batch for averaging).
    pub fn scale(&mut self, alpha: f32) {
        for (i, g) in self.grads.iter_mut().enumerate() {
            if self.filled[i] {
                g.as_mut().expect("filled slot").scale_in_place(alpha);
            }
        }
    }

    /// Global L2 norm across all gradients.
    pub fn global_norm(&self) -> f32 {
        self.iter()
            .map(|(_, g)| g.data().iter().map(|v| v * v).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Clips the global norm to `max_norm` (no-op if already within).
    pub fn clip_global_norm(&mut self, max_norm: f32) {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            self.scale(max_norm / norm);
        }
    }

    /// Iterates over accumulated `(id, grad)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Matrix)> {
        self.grads.iter().enumerate().filter_map(|(i, g)| {
            if self.filled[i] {
                g.as_ref().map(|g| (ParamId(i), g))
            } else {
                None
            }
        })
    }
}

/// Destination for the gradient contributions a `backward_batch` pass
/// produces.
///
/// Every batched backward walks its row-stacked blocks in ascending order
/// and folds each block's parameter contributions into the one
/// accumulator: the per-parameter addition chains are *flat* sums in
/// block order, bit-identical to running the sequential per-sample
/// backward and accumulating into the same `Grads`. (A one-variant enum
/// rather than a plain `&mut Grads` only because the repository's
/// benchmark spells `GradSink::Fused`.)
#[derive(Debug)]
pub enum GradSink<'a> {
    /// All blocks fold into one shared accumulator (ascending order).
    Fused(&'a mut Grads),
}

impl GradSink<'_> {
    /// The accumulator every block's contributions fold into.
    #[inline]
    pub fn grads(&mut self) -> &mut Grads {
        match self {
            GradSink::Fused(g) => g,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_lookup() {
        let mut ps = ParamSet::new();
        let a = ps.alloc("w", Matrix::full(2, 2, 1.0));
        let b = ps.alloc("b", Matrix::zeros(1, 2));
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.name(a), "w");
        assert_eq!(ps.name(b), "b");
        assert_eq!(ps.scalar_count(), 6);
        ps.get_mut(b).set(0, 0, 5.0);
        assert_eq!(ps.get(b).get(0, 0), 5.0);
    }

    #[test]
    fn grads_accumulate_and_merge() {
        let mut ps = ParamSet::new();
        let a = ps.alloc("a", Matrix::zeros(1, 2));
        let b = ps.alloc("b", Matrix::zeros(1, 2));
        let mut g1 = Grads::new(&ps);
        g1.accumulate(a, Matrix::row_vector(vec![1.0, 2.0]));
        g1.accumulate(a, Matrix::row_vector(vec![1.0, 1.0]));
        let mut g2 = Grads::new(&ps);
        g2.accumulate(a, Matrix::row_vector(vec![1.0, 0.0]));
        g2.accumulate(b, Matrix::row_vector(vec![5.0, 5.0]));
        g1.merge(g2);
        assert_eq!(g1.get(a).unwrap().data(), &[3.0, 3.0]);
        assert_eq!(g1.get(b).unwrap().data(), &[5.0, 5.0]);
    }

    #[test]
    fn untouched_params_have_no_grad() {
        let mut ps = ParamSet::new();
        let a = ps.alloc("a", Matrix::zeros(1, 2));
        let b = ps.alloc("b", Matrix::zeros(1, 2));
        let mut g = Grads::new(&ps);
        g.accumulate(a, Matrix::row_vector(vec![1.0, 1.0]));
        assert!(g.get(b).is_none());
        assert_eq!(g.iter().count(), 1);
    }

    #[test]
    fn global_norm_and_clipping() {
        let mut ps = ParamSet::new();
        let a = ps.alloc("a", Matrix::zeros(1, 2));
        let mut g = Grads::new(&ps);
        g.accumulate(a, Matrix::row_vector(vec![3.0, 4.0]));
        assert!((g.global_norm() - 5.0).abs() < 1e-6);
        g.clip_global_norm(1.0);
        assert!((g.global_norm() - 1.0).abs() < 1e-6);
        // Already-small gradients are untouched.
        let before = g.get(a).unwrap().clone();
        g.clip_global_norm(10.0);
        assert_eq!(g.get(a).unwrap(), &before);
    }

    #[test]
    fn apply_grads_visits_only_touched_params() {
        let mut ps = ParamSet::new();
        let a = ps.alloc("a", Matrix::full(1, 2, 1.0));
        let _b = ps.alloc("b", Matrix::full(1, 2, 1.0));
        let mut g = Grads::new(&ps);
        g.accumulate(a, Matrix::row_vector(vec![0.5, 0.5]));
        let mut visits = 0;
        ps.apply_grads(&g, |p, gr| {
            visits += 1;
            p.add_scaled(gr, -1.0);
        });
        assert_eq!(visits, 1);
        assert_eq!(ps.get(a).data(), &[0.5, 0.5]);
    }
}
