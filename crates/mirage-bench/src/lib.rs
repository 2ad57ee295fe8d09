//! Experiment harness shared by the table/figure regeneration binaries.
//!
//! Every measured table and figure in the paper has a binary under
//! `src/bin/` (listed in this crate's README); this library holds the
//! common plumbing: trace preparation, the eight-method
//! training/evaluation pipeline, and the row printers. `run_all` runs
//! them all, Figures 8–10 from shared training passes. Performance is not
//! measured here but by `benchmark/` (see `benchmark/README.md`).
//!
//! Scale: full paper-length traces (21/20/5 months) are generated by
//! default; setting `MIRAGE_QUICK=1` shrinks spans and episode counts for
//! smoke runs.

pub mod harness;

pub use harness::*;
