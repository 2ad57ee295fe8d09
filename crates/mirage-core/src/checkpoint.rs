//! Crash-safe training checkpoints: full online-training state snapshots
//! on a configurable cadence, resumable bit for bit.
//!
//! A checkpoint captures **everything** the online loops thread through
//! an episode chunk — network parameters, Adam moments, the replay rings
//! (DQN) or pending REINFORCE batch (PG), the replay-sampling RNG
//! stream, the global ε clock (`agent.steps`) and the episode counter —
//! so `resume_from` continues the exact run the crash interrupted:
//! resume-at-episode-*k* is bit-identical to the uninterrupted run
//! (weights, replay contents and episode outcomes), pinned by
//! `tests/crash_resume.rs` in the same style as the lockstep pins.
//!
//! # What is *not* stored, and why that is sound
//!
//! Checkpoints are written only at **chunk boundaries** of the lockstep
//! [`BatchedCollector`](crate::trainloop::BatchedCollector). At a
//! boundary every per-lane exploration stream is dead: lanes are rebuilt
//! fresh at the top of each chunk from
//! `ExploreLane::seeded(dqn_episode_seed(cfg.seed, i), agent.steps)`
//! (and the PG analogue), i.e. they are a pure function of the config
//! seed, the episode ordinal and the saved ε clock. Persisting the
//! episode counter and `agent.steps` therefore persists the per-lane RNG
//! streams *by construction* — no mid-episode lane state exists to lose.
//!
//! # Format
//!
//! Envelope, field encoding, corruption contract and atomic write are
//! [`mirage_nn::serialize`]'s (one format section, there). This module
//! adds only the two layouts it alone knows, under the kind tags
//! [`KIND_DQN_TRAIN`] and [`KIND_PG_TRAIN`]; a torn, corrupted or
//! wrong-kind file is a typed [`CheckpointError`], never a
//! silently-wrong resume.

use std::path::{Path, PathBuf};

use mirage_nn::serialize::{seal, unseal, write_atomic, ByteReader, ByteWriter};
use mirage_nn::{CheckpointError, Matrix};
use mirage_rl::{
    DqnAgentState, EpisodeSample, Experience, PgAgentState, ReplayBuffer, StateMismatch,
};

use crate::episode::EpisodeResult;
use crate::reward::EpisodeOutcome;

/// Envelope kind tag of a DQN training-state checkpoint. `DQN2` names
/// the layout without target-network parameters or successor states; a
/// file of the earlier `DQNS` layout is refused as
/// [`CheckpointError::WrongKind`].
pub const KIND_DQN_TRAIN: &str = "DQN2";
/// Envelope kind tag of a PG training-state checkpoint.
pub const KIND_PG_TRAIN: &str = "PGST";

/// When and where the online loops snapshot their state.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Checkpoint file (atomically replaced on every save).
    pub path: PathBuf,
    /// Save once at least this many episodes completed since the last
    /// save, rounded up to the next lockstep chunk boundary (saves only
    /// happen between chunks). `0` disables periodic saves.
    pub every_episodes: usize,
    /// Deterministic stop hook for crash drills: return early right
    /// after the first checkpoint written at `episodes ≥ halt_after`
    /// (forcing a save at that boundary if the cadence missed it). The
    /// CI `crash_resume_smoke` uses this to "crash" a run at a known
    /// boundary without process gymnastics.
    pub halt_after: Option<usize>,
}

impl CheckpointConfig {
    /// Snapshot to `path` every `every_episodes` episodes, no halt hook.
    pub fn every(path: impl Into<PathBuf>, every_episodes: usize) -> Self {
        Self {
            path: path.into(),
            every_episodes,
            halt_after: None,
        }
    }
}

/// Why a resume was refused.
#[derive(Debug)]
pub enum ResumeError {
    /// The checkpoint file is unreadable, corrupt, truncated or of the
    /// wrong kind/version (the serializer layer's typed error).
    Checkpoint(CheckpointError),
    /// The checkpoint is internally valid but was written by a run with
    /// a different configuration; resuming it would silently diverge.
    ConfigMismatch {
        /// Which run parameter disagrees.
        field: &'static str,
        /// The value the checkpointed run used.
        saved: String,
        /// The value the resuming run is configured with.
        current: String,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Checkpoint(e) => write!(f, "cannot resume: {e}"),
            ResumeError::ConfigMismatch {
                field,
                saved,
                current,
            } => write!(
                f,
                "cannot resume: checkpoint was written with {field} = {saved}, \
                 this run has {field} = {current}"
            ),
        }
    }
}

impl std::error::Error for ResumeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResumeError::Checkpoint(e) => Some(e),
            ResumeError::ConfigMismatch { .. } => None,
        }
    }
}

impl From<CheckpointError> for ResumeError {
    fn from(e: CheckpointError) -> Self {
        ResumeError::Checkpoint(e)
    }
}

impl From<StateMismatch> for ResumeError {
    fn from(e: StateMismatch) -> Self {
        ResumeError::ConfigMismatch {
            field: "network architecture",
            saved: e.saved,
            current: e.current,
        }
    }
}

/// Full state of an interrupted
/// [`train_dqn_online`](crate::train::train_dqn_online) run at a chunk
/// boundary.
#[derive(Debug, Clone)]
pub struct DqnTrainCheckpoint {
    /// `TrainConfig::seed` of the run (validated on resume).
    pub cfg_seed: u64,
    /// Lockstep lane count of the run's collection windows (validated on
    /// resume: chunk boundaries move with it).
    pub lanes: u64,
    /// Training worker count. Training has one worker, so the loops
    /// always write 1 and a resume refuses anything else; the field stays
    /// so the `DQN2` layout does not move.
    pub workers: u64,
    /// Agent snapshot: weights, Adam moments, ε/train clocks (its
    /// `target_params` is neither written nor read).
    pub agent: DqnAgentState,
    /// Wait-class replay ring (capacity, write cursor, slots).
    pub replay_wait: (u64, u64, Vec<Experience>),
    /// Submit-class replay ring.
    pub replay_submit: (u64, u64, Vec<Experience>),
    /// The replay-sampling RNG stream (xoshiro256++ state words).
    pub rng: [u64; 4],
    /// Episode records completed so far (decision trajectories already
    /// drained into the replay, as in the live loop).
    pub episodes: Vec<EpisodeResult>,
}

/// Full state of an interrupted
/// [`train_pg_online`](crate::train::train_pg_online) run at a chunk
/// boundary.
#[derive(Debug, Clone)]
pub struct PgTrainCheckpoint {
    /// `TrainConfig::seed` of the run (validated on resume).
    pub cfg_seed: u64,
    /// Lockstep lane count of the run's collection windows (validated on
    /// resume).
    pub lanes: u64,
    /// Training worker count: always written as 1 and refused on resume
    /// otherwise; the field stays so the `PGST` layout does not move.
    pub workers: u64,
    /// Agent snapshot: weights, Adam moments, baseline, episode clock.
    pub agent: PgAgentState,
    /// Collected episodes not yet folded into a REINFORCE update (the
    /// chunk boundary can fall mid-batch).
    pub pending: Vec<EpisodeSample>,
    /// Episode records completed so far.
    pub episodes: Vec<EpisodeResult>,
}

// ---------------------------------------------------------------------
// Field layouts only this crate knows, over the shared codec.

fn write_experience(w: &mut ByteWriter, e: &Experience) {
    w.matrix(&e.state);
    w.u64(e.action as u64);
    w.f32(e.reward);
}

fn read_experience(r: &mut ByteReader) -> Result<Experience, CheckpointError> {
    Ok(Experience {
        state: r.matrix()?,
        action: r.u64()? as usize,
        reward: r.f32()?,
    })
}

fn write_ring(w: &mut ByteWriter, ring: &(u64, u64, Vec<Experience>)) {
    w.u64(ring.0);
    w.u64(ring.1);
    w.u64(ring.2.len() as u64);
    for e in &ring.2 {
        write_experience(w, e);
    }
}

fn read_ring(r: &mut ByteReader) -> Result<(u64, u64, Vec<Experience>), CheckpointError> {
    let capacity = r.u64()?;
    let write = r.u64()?;
    let n = r.len(20)?;
    let buf: Vec<Experience> = (0..n)
        .map(|_| read_experience(r))
        .collect::<Result<_, _>>()?;
    if capacity == 0 || buf.len() as u64 > capacity || write >= capacity {
        return Err(r.err(format!(
            "inconsistent replay ring: capacity {capacity}, write {write}, len {}",
            buf.len()
        )));
    }
    Ok((capacity, write, buf))
}

fn write_decisions(w: &mut ByteWriter, ds: &[(Matrix, usize)]) {
    w.u64(ds.len() as u64);
    for (m, a) in ds {
        w.matrix(m);
        w.u64(*a as u64);
    }
}

fn read_decisions(r: &mut ByteReader) -> Result<Vec<(Matrix, usize)>, CheckpointError> {
    let n = r.len(24)?;
    (0..n)
        .map(|_| Ok((r.matrix()?, r.u64()? as usize)))
        .collect()
}

fn write_episode_results(w: &mut ByteWriter, rs: &[EpisodeResult]) {
    w.u64(rs.len() as u64);
    for r in rs {
        w.i64(r.outcome.interruption);
        w.i64(r.outcome.overlap);
        w.i64(r.outcome.fault_interruption);
        w.u64(r.outcome.guard_fallbacks);
        w.i64(r.pred_submit);
        w.i64(r.pred_start);
        w.i64(r.pred_end);
        w.i64(r.succ_submit);
        w.i64(r.succ_start);
        write_decisions(w, &r.decisions);
        w.bool(r.submitted_by_policy);
    }
}

fn read_episode_results(r: &mut ByteReader) -> Result<Vec<EpisodeResult>, CheckpointError> {
    let n = r.len(65)?;
    (0..n)
        .map(|_| {
            let outcome = EpisodeOutcome {
                interruption: r.i64()?,
                overlap: r.i64()?,
                fault_interruption: r.i64()?,
                guard_fallbacks: r.u64()?,
            };
            Ok(EpisodeResult {
                outcome,
                pred_submit: r.i64()?,
                pred_start: r.i64()?,
                pred_end: r.i64()?,
                succ_submit: r.i64()?,
                succ_start: r.i64()?,
                decisions: read_decisions(r)?,
                submitted_by_policy: r.bool()?,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------
// DQN checkpoint encode/decode.

impl DqnTrainCheckpoint {
    /// Serializes into the sealed `MIRAGECKPT`/[`KIND_DQN_TRAIN`]
    /// envelope.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u64(self.cfg_seed);
        w.u64(self.lanes);
        w.u64(self.workers);
        w.u64(self.agent.steps);
        w.u64(self.agent.train_steps);
        w.u64(self.agent.opt_t);
        w.matrices(&self.agent.net_params);
        w.opt_matrices(&self.agent.opt_m);
        w.opt_matrices(&self.agent.opt_v);
        write_ring(&mut w, &self.replay_wait);
        write_ring(&mut w, &self.replay_submit);
        for s in self.rng {
            w.u64(s);
        }
        write_episode_results(&mut w, &self.episodes);
        seal(KIND_DQN_TRAIN, w.bytes())
    }

    /// Parses a sealed [`KIND_DQN_TRAIN`] envelope. Corruption anywhere
    /// — header, CRC, or payload structure — is a typed error.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let payload = unseal(KIND_DQN_TRAIN, bytes)?;
        let mut r = ByteReader::new(payload);
        let cfg_seed = r.u64()?;
        let lanes = r.u64()?;
        let workers = r.u64()?;
        let steps = r.u64()?;
        let train_steps = r.u64()?;
        let opt_t = r.u64()?;
        let agent = DqnAgentState {
            net_params: r.matrices()?,
            target_params: None,
            opt_t,
            opt_m: r.opt_matrices()?,
            opt_v: r.opt_matrices()?,
            steps,
            train_steps,
        };
        let replay_wait = read_ring(&mut r)?;
        let replay_submit = read_ring(&mut r)?;
        let rng = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        let episodes = read_episode_results(&mut r)?;
        r.finish()?;
        Ok(Self {
            cfg_seed,
            lanes,
            workers,
            agent,
            replay_wait,
            replay_submit,
            rng,
            episodes,
        })
    }

    /// Atomically writes the sealed checkpoint to `path`.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        write_atomic(path, &self.to_bytes())
    }

    /// Loads and validates a checkpoint from `path`.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// Rebuilds the two replay rings (consumes their snapshots).
    pub fn take_replay(&mut self) -> (ReplayBuffer, ReplayBuffer) {
        let wait = ReplayBuffer::from_raw_parts(
            self.replay_wait.0 as usize,
            self.replay_wait.1 as usize,
            std::mem::take(&mut self.replay_wait.2),
        );
        let submit = ReplayBuffer::from_raw_parts(
            self.replay_submit.0 as usize,
            self.replay_submit.1 as usize,
            std::mem::take(&mut self.replay_submit.2),
        );
        (wait, submit)
    }
}

// ---------------------------------------------------------------------
// PG checkpoint encode/decode.

impl PgTrainCheckpoint {
    /// Serializes into the sealed `MIRAGECKPT`/[`KIND_PG_TRAIN`]
    /// envelope.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u64(self.cfg_seed);
        w.u64(self.lanes);
        w.u64(self.workers);
        w.u64(self.agent.episodes);
        w.u64(self.agent.opt_t);
        w.matrices(&self.agent.net_params);
        w.opt_matrices(&self.agent.opt_m);
        w.opt_matrices(&self.agent.opt_v);
        w.f32(self.agent.baseline);
        w.bool(self.agent.baseline_initialized);
        w.u64(self.pending.len() as u64);
        for s in &self.pending {
            write_decisions(&mut w, &s.steps);
            w.f32(s.episode_return);
        }
        write_episode_results(&mut w, &self.episodes);
        seal(KIND_PG_TRAIN, w.bytes())
    }

    /// Parses a sealed [`KIND_PG_TRAIN`] envelope.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let payload = unseal(KIND_PG_TRAIN, bytes)?;
        let mut r = ByteReader::new(payload);
        let cfg_seed = r.u64()?;
        let lanes = r.u64()?;
        let workers = r.u64()?;
        let episodes_clock = r.u64()?;
        let opt_t = r.u64()?;
        let net_params = r.matrices()?;
        let opt_m = r.opt_matrices()?;
        let opt_v = r.opt_matrices()?;
        let baseline = r.f32()?;
        let baseline_initialized = r.bool()?;
        let n_pending = r.len(12)?;
        let pending: Vec<EpisodeSample> = (0..n_pending)
            .map(|_| {
                Ok(EpisodeSample {
                    steps: read_decisions(&mut r)?,
                    episode_return: r.f32()?,
                })
            })
            .collect::<Result<_, CheckpointError>>()?;
        let episodes = read_episode_results(&mut r)?;
        r.finish()?;
        Ok(Self {
            cfg_seed,
            lanes,
            workers,
            agent: PgAgentState {
                net_params,
                opt_t,
                opt_m,
                opt_v,
                baseline,
                baseline_initialized,
                episodes: episodes_clock,
            },
            pending,
            episodes,
        })
    }

    /// Atomically writes the sealed checkpoint to `path`.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        write_atomic(path, &self.to_bytes())
    }

    /// Loads and validates a checkpoint from `path`.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

/// Validates a saved run parameter against the resuming run's value.
pub(crate) fn check_match<T: PartialEq + std::fmt::Display>(
    field: &'static str,
    saved: T,
    current: T,
) -> Result<(), ResumeError> {
    if saved == current {
        Ok(())
    } else {
        Err(ResumeError::ConfigMismatch {
            field,
            saved: saved.to_string(),
            current: current.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_nn::serialize::{crc32, params_from_bytes, params_to_bytes, KIND_PARAMS};
    use mirage_nn::ParamSet;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    fn mat(seed: u64, rows: usize, cols: usize) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::xavier(rows, cols, &mut rng)
    }

    fn mats_eq(a: &[Matrix], b: &[Matrix]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.rows() == y.rows()
                    && x.cols() == y.cols()
                    && x.data()
                        .iter()
                        .zip(y.data())
                        .all(|(p, q)| p.to_bits() == q.to_bits())
            })
    }

    fn sample_dqn() -> DqnTrainCheckpoint {
        let exp = |s| Experience::terminal(mat(s, 2, 3), (s % 2) as usize, -0.5 * s as f32);
        DqnTrainCheckpoint {
            cfg_seed: 11,
            lanes: 2,
            workers: 3,
            agent: DqnAgentState {
                net_params: vec![mat(1, 4, 4), mat(2, 1, 4)],
                target_params: None,
                opt_t: 7,
                opt_m: vec![Some(mat(5, 4, 4)), None],
                opt_v: vec![None, Some(mat(6, 1, 4))],
                steps: 123,
                train_steps: 45,
            },
            replay_wait: (64, 3, (0..5).map(exp).collect()),
            replay_submit: (32, 0, (10..12).map(exp).collect()),
            rng: [1, 2, 3, 4],
            episodes: vec![EpisodeResult {
                outcome: EpisodeOutcome {
                    interruption: 300,
                    overlap: 0,
                    fault_interruption: 60,
                    guard_fallbacks: 2,
                },
                pred_submit: 0,
                pred_start: 10,
                pred_end: 110,
                succ_submit: 90,
                succ_start: 410,
                decisions: Vec::new(),
                submitted_by_policy: true,
            }],
        }
    }

    #[test]
    fn dqn_checkpoint_roundtrips_bitwise() {
        let ck = sample_dqn();
        let bytes = ck.to_bytes();
        let back = DqnTrainCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back.cfg_seed, ck.cfg_seed);
        assert_eq!(back.lanes, ck.lanes);
        assert_eq!(back.workers, ck.workers);
        assert_eq!(back.agent.steps, ck.agent.steps);
        assert_eq!(back.agent.train_steps, ck.agent.train_steps);
        assert_eq!(back.agent.opt_t, ck.agent.opt_t);
        assert!(mats_eq(&back.agent.net_params, &ck.agent.net_params));
        assert!(back.agent.target_params.is_none());
        assert_eq!(back.rng, ck.rng);
        assert_eq!(back.replay_wait.0, 64);
        assert_eq!(back.replay_wait.1, 3);
        assert_eq!(back.replay_wait.2.len(), 5);
        assert_eq!(back.replay_submit.2.len(), 2);
        assert_eq!(back.episodes.len(), 1);
        assert_eq!(back.episodes[0].outcome, ck.episodes[0].outcome);
        assert_eq!(back.episodes[0].succ_start, 410);
        assert!(back.episodes[0].submitted_by_policy);
    }

    fn sample_pg() -> PgTrainCheckpoint {
        PgTrainCheckpoint {
            cfg_seed: 5,
            lanes: 4,
            workers: 2,
            agent: PgAgentState {
                net_params: vec![mat(7, 3, 3)],
                opt_t: 2,
                opt_m: vec![Some(mat(8, 3, 3))],
                opt_v: vec![Some(mat(9, 3, 3))],
                baseline: -1.25,
                baseline_initialized: true,
                episodes: 6,
            },
            pending: vec![EpisodeSample {
                steps: vec![(mat(10, 2, 3), 0), (mat(11, 2, 3), 1)],
                episode_return: -3.5,
            }],
            episodes: Vec::new(),
        }
    }

    #[test]
    fn pg_checkpoint_roundtrips_bitwise() {
        let ck = sample_pg();
        let back = PgTrainCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(back.cfg_seed, 5);
        assert_eq!(back.workers, 2);
        assert_eq!(back.agent.episodes, 6);
        assert_eq!(back.agent.baseline, -1.25);
        assert!(back.agent.baseline_initialized);
        assert!(mats_eq(&back.agent.net_params, &ck.agent.net_params));
        assert_eq!(back.pending.len(), 1);
        assert_eq!(back.pending[0].steps.len(), 2);
        assert_eq!(back.pending[0].steps[1].1, 1);
        assert_eq!(back.pending[0].episode_return, -3.5);
    }

    #[test]
    fn kind_tags_are_not_interchangeable() {
        let ck = sample_dqn();
        let err = PgTrainCheckpoint::from_bytes(&ck.to_bytes()).unwrap_err();
        assert!(matches!(err, CheckpointError::WrongKind { .. }), "{err}");
    }

    #[test]
    fn corrupted_payload_is_a_typed_error() {
        let bytes = ck_bytes();
        // Flip one payload bit: the CRC must catch it.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            DqnTrainCheckpoint::from_bytes(&flipped),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
        // Truncation is caught before any payload parsing.
        assert!(DqnTrainCheckpoint::from_bytes(&bytes[..bytes.len() / 2]).is_err());
    }

    fn ck_bytes() -> Vec<u8> {
        sample_dqn().to_bytes()
    }

    #[test]
    fn trailing_garbage_inside_a_valid_envelope_is_rejected() {
        // Seal a payload with extra bytes appended *before* sealing, so
        // the CRC is valid but the structure over-runs: the reader's
        // finish() must flag it.
        let ck = sample_dqn();
        let sealed = ck.to_bytes();
        let payload = unseal(KIND_DQN_TRAIN, &sealed).unwrap();
        let mut longer = payload.to_vec();
        longer.extend_from_slice(&[0xAB; 7]);
        let resealed = seal(KIND_DQN_TRAIN, &longer);
        let err = DqnTrainCheckpoint::from_bytes(&resealed).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Parse { .. }),
            "expected Parse, got {err}"
        );
    }

    /// The `DQN2` / `PGST` bytes are a compatibility surface: runs resume
    /// from files written by earlier builds. Length and CRC-32 of the two
    /// fixtures' sealed bytes, never regenerated in a change that touches
    /// the code under them (same discipline as
    /// `mirage-sim/tests/golden.rs`). `PGST` was captured on the commit
    /// before the codec moved into `mirage_nn::serialize`. `DQN2` was
    /// derived from the `DQNS` writer before it lost the target network:
    /// it sealed this fixture as 879 bytes; dropping the target flag byte
    /// and each of the 7 experiences' two trailing bytes (the absent
    /// successor's flag and `done`) gives this payload byte for byte.
    #[test]
    fn training_state_bytes_are_frozen() {
        let dqn = sample_dqn().to_bytes();
        assert_eq!((dqn.len(), crc32(&dqn)), (864, 0x353b_90b6), "DQN2");
        let pg = sample_pg().to_bytes();
        assert_eq!((pg.len(), crc32(&pg)), (382, 0x59fa_a11c), "PGST");
    }

    /// Decodes `sealed` as `kind` and, when it decodes, encodes the value
    /// again: `Ok(same bytes?)`, or the decode error.
    fn reencodes(kind: &str, sealed: &[u8]) -> Result<bool, CheckpointError> {
        Ok(match kind {
            KIND_PARAMS => params_to_bytes(&params_from_bytes(sealed)?)? == sealed,
            KIND_DQN_TRAIN => DqnTrainCheckpoint::from_bytes(sealed)?.to_bytes() == sealed,
            _ => PgTrainCheckpoint::from_bytes(sealed)?.to_bytes() == sealed,
        })
    }

    /// One sealed fixture per payload kind, built once.
    fn sealed_fixtures() -> &'static [(&'static str, Vec<u8>)] {
        static SEALED: OnceLock<Vec<(&'static str, Vec<u8>)>> = OnceLock::new();
        SEALED.get_or_init(|| {
            let mut params = ParamSet::new();
            params.alloc("embed.w", mat(20, 3, 4));
            params.alloc("head.b", mat(21, 1, 2));
            vec![
                (KIND_PARAMS, params_to_bytes(&params).unwrap()),
                (KIND_DQN_TRAIN, sample_dqn().to_bytes()),
                (KIND_PG_TRAIN, sample_pg().to_bytes()),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Damage *under* a valid CRC reaches the reader: a payload that
        /// is cut, has a byte replaced, or has a count / shape / length
        /// field inflated, then re-sealed, is a `Parse` error or decodes
        /// to a value that encodes to exactly those bytes — for all three
        /// payload kinds, never a panic, never an allocation sized by the
        /// damaged field (that would abort this test).
        #[test]
        fn damaged_payloads_are_parse_errors_or_reencode(
            at in 0.0f64..1.0,
            byte in 0u8..=255,
            inflate_by in 0u32..64,
        ) {
            for (kind, sealed) in sealed_fixtures() {
                let payload = unseal(kind, sealed).unwrap();
                let pos = (payload.len() as f64 * at) as usize;
                let cut = payload[..pos].to_vec();
                let mut replaced = payload.to_vec();
                replaced[pos] = byte;
                let mut inflated = payload.to_vec();
                let field = pos.min(payload.len() - 8);
                inflated[field..field + 8].copy_from_slice(&(u64::MAX >> inflate_by).to_le_bytes());
                for (what, damaged) in [("cut", cut), ("replaced", replaced), ("inflated", inflated)] {
                    match reencodes(kind, &seal(kind, &damaged)) {
                        Err(CheckpointError::Parse { .. }) => {}
                        Err(e) => prop_assert!(false, "{kind} {what} at {pos}: {e}"),
                        Ok(same) => prop_assert!(same, "{kind} {what} at {pos} decoded to other bytes"),
                    }
                }
            }
        }
    }

    #[test]
    fn take_replay_rebuilds_rings() {
        let mut ck = sample_dqn();
        let (wait, submit) = ck.take_replay();
        assert_eq!(wait.raw_parts().0, 64);
        assert_eq!(wait.raw_parts().1, 3);
        assert_eq!(wait.len(), 5);
        assert_eq!(submit.len(), 2);
    }

    #[test]
    fn config_mismatch_is_descriptive() {
        let err = check_match("seed", 11u64, 12u64).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("seed"), "{msg}");
        assert!(msg.contains("11") && msg.contains("12"), "{msg}");
        assert!(check_match("lanes", 4u64, 4u64).is_ok());
    }
}
