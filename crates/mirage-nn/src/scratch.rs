//! Reusable buffer arena for allocation-free forward and backward passes.
//!
//! Every batched forward in this crate threads a [`Scratch`] through the
//! layer stack instead of allocating temporaries. The arena is a LIFO
//! free list of [`Matrix`] buffers:
//!
//! * [`Scratch::take`] pops a buffer and reshapes it in place
//!   ([`Matrix::reset`] reuses the existing allocation whenever its
//!   capacity suffices),
//! * [`Scratch::give`] pushes it back when the caller is done.
//!
//! # The reuse contract
//!
//! The steady-state decision loop is *shape-stationary*: every iteration
//! requests the same sequence of buffer shapes in the same order. Because
//! the free list is LIFO and call sites are deterministic, each `take`
//! after the first iteration pops a buffer whose capacity already fits its
//! shape — so **no call allocates after warm-up**. The first pass through
//! a new model (or a new input shape) grows buffers as needed; that is the
//! warm-up the allocation-regression test excludes.
//!
//! Callers must balance `take`/`give` (give back what you took, ideally in
//! reverse order). An unbalanced caller only costs re-warming — the arena
//! never aliases or corrupts data, since `take` transfers ownership.

use crate::tensor::Matrix;

/// LIFO free list of reusable [`Matrix`] buffers.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    free: Vec<Matrix>,
}

impl Scratch {
    /// Empty arena; buffers are created on first use and recycled after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pops a buffer and reshapes it to `rows × cols`, zero-filled. Only
    /// allocates when the arena is empty or the recycled buffer's capacity
    /// is too small (i.e. during warm-up).
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut m = self.free.pop().unwrap_or_else(|| Matrix::zeros(0, 0));
        m.reset(rows, cols);
        m
    }

    /// Returns a buffer to the arena for reuse.
    pub fn give(&mut self, m: Matrix) {
        self.free.push(m);
    }

    /// The work buffers of one batched forward: moved out of the cache's
    /// `slots` when the call records for a backward, else `N` buffers from
    /// the arena. Hand them back with [`Scratch::settle`].
    pub fn lend<const N: usize>(&mut self, slots: Option<[&mut Matrix; N]>) -> [Matrix; N] {
        match slots {
            Some(slots) => slots.map(std::mem::take),
            None => std::array::from_fn(|_| self.take(0, 0)),
        }
    }

    /// Returns what [`Scratch::lend`] handed out: into the cache's `slots`,
    /// where the backward reads them, or to the arena in reverse order.
    pub fn settle<const N: usize>(&mut self, slots: Option<[&mut Matrix; N]>, bufs: [Matrix; N]) {
        match slots {
            Some(slots) => slots.into_iter().zip(bufs).for_each(|(slot, m)| *slot = m),
            None => bufs.into_iter().rev().for_each(|m| self.give(m)),
        }
    }

    /// Number of parked buffers (diagnostic).
    pub fn parked(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_zero_fills_and_reuses_allocations() {
        let mut s = Scratch::new();
        let mut a = s.take(4, 4);
        a.set(0, 0, 7.0);
        let ptr = a.data().as_ptr();
        s.give(a);
        let b = s.take(2, 3);
        assert_eq!(b.shape(), (2, 3));
        assert!(b.data().iter().all(|&v| v == 0.0), "stale data must clear");
        assert_eq!(b.data().as_ptr(), ptr, "buffer must be recycled");
        assert_eq!(s.parked(), 0);
    }

    #[test]
    fn lifo_order_keeps_shapes_stationary() {
        let mut s = Scratch::new();
        // Warm-up pass: take two buffers of different sizes, give back in
        // reverse order.
        let big = s.take(16, 16);
        let small = s.take(2, 2);
        s.give(small);
        s.give(big);
        // Second pass requests the same shapes in the same order and must
        // get capacity-matching buffers back.
        let big2 = s.take(16, 16);
        let small2 = s.take(2, 2);
        assert!(big2.data().len() == 256 && small2.data().len() == 4);
    }
}
