//! Job-trace substrate for the Mirage reproduction.
//!
//! The paper trains and evaluates on production job traces from three TACC
//! GPU clusters (V100 / RTX / A100). Those traces are not public, so this
//! crate provides:
//!
//! * a [`JobRecord`] model mirroring the fields the paper collects
//!   (`JobID, JobName, UserID, SubmitTime, StartTime, EndTime, Timelimit,
//!   NumNodes`),
//! * [`ClusterProfile`]s for the three clusters with the published
//!   statistics (node counts, job volumes, size mix, short-job spike),
//! * a seeded synthetic workload generator ([`synth`]) calibrated against
//!   Table 1 and Figures 1–4 of the paper,
//! * the §3.2 cleaning pipeline ([`clean`]): over-sized-job filtering and
//!   sub-job merging,
//! * trace statistics ([`stats`]) used to regenerate Table 1 and
//!   Figures 1–4, and
//! * the 80:20 train/validation time split ([`split`]) used throughout §6.

pub mod clean;
pub mod cluster;
pub mod faults;
pub mod job;
pub mod parse;
pub mod seed;
pub mod split;
pub mod stats;
pub mod synth;
pub mod time;
pub mod traffic;

pub use clean::{clean_trace, CleanReport};
pub use cluster::ClusterProfile;
pub use faults::{fault_schedule, NodeFaultEvent};
pub use job::JobRecord;
pub use parse::{parse_sacct, to_sacct, ParseError};
pub use seed::{split_seed, splitmix64, SeedSplitter};
pub use split::{split_by_time, TraceSplit};
pub use synth::{SynthConfig, TraceGenerator};
pub use time::{DAY, HOUR, MINUTE, MONTH, WEEK};
pub use traffic::{GammaBurst, TrafficModel};
