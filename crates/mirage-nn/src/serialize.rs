//! The workspace's one codec: little-endian binary payloads in a
//! checksummed envelope, written crash-safely.
//!
//! # Checkpoint format
//!
//! Every checkpoint is a one-line ASCII envelope header followed by the
//! raw payload bytes:
//!
//! ```text
//! MIRAGECKPT <version> <kind> <payload-len> <crc32-hex>\n
//! <payload bytes>
//! ```
//!
//! * `version` — format version, currently `1`. Loaders reject newer
//!   versions with a typed error instead of misparsing them.
//! * `kind` — a four-character tag naming the payload layout (`NNPS` for
//!   a parameter set; `mirage-core` seals its training-state snapshots
//!   under `DQN2` / `PGST`). A changed layout takes a new tag, so a file
//!   of the old layout (such as `DQNS`, the DQN layout that still held a
//!   target network) is refused rather than misparsed. Loading a
//!   checkpoint under the wrong kind is a typed error, so a
//!   training-state file can never be silently misread as bare network
//!   weights.
//! * `payload-len` / `crc32-hex` — the payload's byte length and IEEE
//!   CRC-32, both validated on load. Truncation and bit corruption each
//!   map to their own [`CheckpointError`] variant; a corrupted checkpoint
//!   can never yield a silently-wrong [`ParamSet`].
//!
//! A payload is a sequence of fields written by [`ByteWriter`] and read
//! back in the same order by [`ByteReader`]; it carries no field names or
//! tags, the `kind` names the layout. Scalars are fixed-width
//! little-endian (`u64`, `i64`, the `f32` bit pattern; a `bool` is one
//! `0`/`1` byte). A string is its byte length (`u64`) and UTF-8 bytes, a
//! matrix is `rows`, `cols` (`u64` each) and `rows × cols` `f32`s, an
//! optional value is a `bool` and then the value if present, a sequence
//! is a `u64` count and then the elements. The reader checks every count
//! and shape against the bytes that remain *before* allocating for it,
//! and [`ByteReader::finish`] rejects a payload it did not consume
//! exactly — a damaged payload that got past the CRC is a
//! [`CheckpointError::Parse`], never a panic.
//!
//! An `NNPS` payload is a parameter count, then each parameter's name
//! and matrix in allocation order.
//!
//! # Recovery semantics
//!
//! [`save_params`] (and any writer built on [`write_atomic`]) never
//! modifies the destination file in place: the sealed bytes go to a
//! temporary file in the same directory, which is fsynced and then
//! renamed over the target. A crash mid-write leaves either the previous
//! checkpoint or the new one — never a torn file. Non-finite parameters
//! are rejected *before* anything touches the filesystem, so a diverged
//! run cannot clobber its last good checkpoint.

use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::param::ParamSet;
use crate::tensor::Matrix;

/// Leading magic token of every sealed checkpoint.
pub const CHECKPOINT_MAGIC: &str = "MIRAGECKPT";
/// Current envelope format version.
pub const CHECKPOINT_VERSION: u32 = 1;
/// Payload-kind tag for parameter-set (network weights) checkpoints.
pub const KIND_PARAMS: &str = "NNPS";

/// Typed checkpoint failure: every way a save or load can go wrong,
/// distinguishable by the caller. Corruption is always one of these —
/// never a panic, never a silently different payload.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure (open/read/write/fsync/rename).
    Io(std::io::Error),
    /// The file does not begin with a `MIRAGECKPT` envelope header.
    BadMagic,
    /// The envelope is from a newer (or unknown) format version.
    UnsupportedVersion(u32),
    /// The payload kind does not match what the loader expected.
    WrongKind {
        /// Kind tag the loader asked for.
        expected: &'static str,
        /// Kind tag found in the header.
        found: String,
    },
    /// The header is structurally malformed (missing or unparsable field).
    Header(String),
    /// The payload is shorter or longer than the header's declared length.
    Truncated {
        /// Byte length declared in the header.
        expected: usize,
        /// Byte length actually present.
        found: usize,
    },
    /// The payload bytes do not hash to the header's CRC-32.
    ChecksumMismatch {
        /// CRC-32 declared in the header.
        expected: u32,
        /// CRC-32 of the bytes actually present.
        found: u32,
    },
    /// The payload passed integrity checks but does not decode as its
    /// kind's layout (a field runs past the end, a count or shape exceeds
    /// the bytes that remain, bytes are left over).
    Parse {
        /// Byte offset inside the payload where decoding failed.
        pos: usize,
        /// What the reader expected.
        msg: String,
    },
    /// A parameter holds NaN/∞: the run diverged and is not saved.
    NonFinite(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            Self::BadMagic => write!(f, "not a mirage checkpoint (bad magic)"),
            Self::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint format version {v}")
            }
            Self::WrongKind { expected, found } => {
                write!(
                    f,
                    "wrong checkpoint kind: expected {expected}, found {found}"
                )
            }
            Self::Header(msg) => write!(f, "malformed checkpoint header: {msg}"),
            Self::Truncated { expected, found } => write!(
                f,
                "truncated checkpoint: header declares {expected} payload bytes, found {found}"
            ),
            Self::ChecksumMismatch { expected, found } => write!(
                f,
                "checkpoint checksum mismatch: header {expected:08x}, payload {found:08x}"
            ),
            Self::Parse { pos, msg } => {
                write!(f, "checkpoint parse error at byte {pos}: {msg}")
            }
            Self::NonFinite(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// IEEE CRC-32 slicing-by-8 tables, built at compile time. `[0]` is the
/// classic byte-at-a-time table; `[k][b]` is the CRC of byte `b` followed
/// by `k` zero bytes, so eight look-ups advance the state by eight bytes.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Advances the (pre-inverted) CRC state `c` over `bytes` one byte at a
/// time: the tail of [`crc32`], and the whole of its test oracle.
fn crc32_bytewise(mut c: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Advances the (pre-inverted) CRC state `c` over one eight-byte word:
/// eight table look-ups (slicing-by-8).
#[inline(always)]
fn crc32_word(c: u32, w: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][w[4] as usize]
        ^ t[2][w[5] as usize]
        ^ t[1][w[6] as usize]
        ^ t[0][w[7] as usize]
}

/// Advances the (pre-inverted) CRC state `c` over `bytes`, eight bytes
/// per step with a byte-wise tail.
fn crc32_slice8(mut c: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        c = crc32_word(c, w);
    }
    crc32_bytewise(c, words.remainder())
}

/// The reflected IEEE polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// `a · b` modulo the CRC polynomial, both in the reflected bit order of
/// the CRC register (`1 << 31` is `x⁰`); `a` must be nonzero.
const fn crc32_mul(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0;
    loop {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                return p;
            }
        }
        m >>= 1;
        b = if b & 1 != 0 {
            (b >> 1) ^ CRC32_POLY
        } else {
            b >> 1
        };
    }
}

/// `x^(2^k)` modulo the CRC polynomial for `k` in `0..32`.
const CRC32_X2N: [u32; 32] = {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x¹
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = crc32_mul(p, p);
        k += 1;
    }
    table
};

/// The CRC-32 of `a ‖ b` from `crc32(a)`, `crc32(b)` and `b.len()`:
/// `crc_a` times `x^(8·len_b)`, plus `crc_b` (zlib's `crc32_combine`).
fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    // x^(8·len_b) = ∏ x^(2^k) over the set bits k of 8·len_b.
    let mut shift = 1u32 << 31;
    let (mut n, mut k) = (len_b, 3);
    while n != 0 {
        if n & 1 != 0 {
            shift = crc32_mul(CRC32_X2N[k & 31], shift);
        }
        n >>= 1;
        k += 1;
    }
    crc32_mul(shift, crc_a) ^ crc_b
}

/// Independent slicing-by-8 chains [`crc32`] runs side by side: one chain
/// waits on its own table look-ups, four keep the load ports busy.
const CRC32_STREAMS: usize = 4;

/// IEEE CRC-32 of `bytes` (the checksum in every envelope header),
/// eight bytes per step (slicing-by-8) with a byte-wise tail. The input
/// splits into `CRC32_STREAMS` consecutive streams of whole words,
/// advanced word by word in lockstep and joined by `crc32_combine`; the
/// last stream also takes the tail, so an input shorter than
/// `8 · CRC32_STREAMS` bytes runs as one stream.
pub fn crc32(bytes: &[u8]) -> u32 {
    let part = bytes.len() / CRC32_STREAMS / 8 * 8;
    let (body, tail) = bytes.split_at(CRC32_STREAMS * part);
    let streams: [&[u8]; CRC32_STREAMS] = std::array::from_fn(|s| &body[s * part..(s + 1) * part]);
    let mut c = [0xFFFF_FFFFu32; CRC32_STREAMS];
    for at in (0..part).step_by(8) {
        for (c, stream) in c.iter_mut().zip(&streams) {
            *c = crc32_word(*c, &stream[at..at + 8]);
        }
    }
    let last = CRC32_STREAMS - 1;
    c[last] = crc32_slice8(c[last], tail);
    let mut crc = c[0] ^ 0xFFFF_FFFF;
    for (s, &cs) in c.iter().enumerate().skip(1) {
        let len = if s == last { part + tail.len() } else { part };
        crc = crc32_combine(crc, cs ^ 0xFFFF_FFFF, len);
    }
    crc
}

/// Wraps `payload` in the versioned, checksummed envelope under a
/// four-character `kind` tag. The inverse of [`unseal`].
pub fn seal(kind: &str, payload: &[u8]) -> Vec<u8> {
    debug_assert!(
        kind.len() == 4 && kind.is_ascii(),
        "checkpoint kind tags are four ASCII characters"
    );
    let mut out = format!(
        "{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION} {kind} {} {:08x}\n",
        payload.len(),
        crc32(payload)
    )
    .into_bytes();
    out.extend_from_slice(payload);
    out
}

/// Validates the envelope of `bytes` (magic, version, kind, length,
/// checksum) and returns the payload slice.
pub fn unseal<'a>(kind: &'static str, bytes: &'a [u8]) -> Result<&'a [u8], CheckpointError> {
    // The header always fits well within the first 128 bytes; bounding
    // the newline scan keeps garbage inputs from scanning megabytes.
    let nl = bytes
        .iter()
        .take(128)
        .position(|&b| b == b'\n')
        .ok_or(CheckpointError::BadMagic)?;
    let header = std::str::from_utf8(&bytes[..nl]).map_err(|_| CheckpointError::BadMagic)?;
    let mut fields = header.split(' ');
    if fields.next() != Some(CHECKPOINT_MAGIC) {
        return Err(CheckpointError::BadMagic);
    }
    let version: u32 = fields
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| CheckpointError::Header("unparsable version".into()))?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let found_kind = fields
        .next()
        .ok_or_else(|| CheckpointError::Header("missing kind tag".into()))?;
    if found_kind != kind {
        return Err(CheckpointError::WrongKind {
            expected: kind,
            found: found_kind.to_string(),
        });
    }
    let len: usize = fields
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| CheckpointError::Header("unparsable payload length".into()))?;
    let declared_crc = fields
        .next()
        .and_then(|v| u32::from_str_radix(v, 16).ok())
        .ok_or_else(|| CheckpointError::Header("unparsable checksum".into()))?;
    if fields.next().is_some() {
        return Err(CheckpointError::Header("trailing header fields".into()));
    }
    let payload = &bytes[nl + 1..];
    if payload.len() != len {
        return Err(CheckpointError::Truncated {
            expected: len,
            found: payload.len(),
        });
    }
    let found_crc = crc32(payload);
    if found_crc != declared_crc {
        return Err(CheckpointError::ChecksumMismatch {
            expected: declared_crc,
            found: found_crc,
        });
    }
    Ok(payload)
}

/// Atomically replaces `path` with `bytes`: write to a same-directory
/// temporary file, fsync it, then rename over the target (with a
/// best-effort directory fsync so the rename itself is durable). A crash
/// at any point leaves either the old file or the new one, never a torn
/// mix; on error the temporary file is cleaned up.
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> Result<(), CheckpointError> {
    let path = path.as_ref();
    let dir: PathBuf = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let name = path
        .file_name()
        .ok_or_else(|| CheckpointError::Header(format!("{} has no file name", path.display())))?;
    let tmp = dir.join(format!(
        ".{}.tmp.{}",
        name.to_string_lossy(),
        std::process::id()
    ));
    let write = (|| -> std::io::Result<()> {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if write.is_err() {
        std::fs::remove_file(&tmp).ok();
    } else if let Ok(d) = File::open(&dir) {
        d.sync_all().ok();
    }
    write.map_err(CheckpointError::Io)
}

/// Builds a payload field by field (layout: module docs).
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// The payload written so far (what [`seal`] wraps).
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// One `0`/`1` byte.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Eight little-endian bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Eight little-endian bytes, two's complement.
    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// The four little-endian bytes of the bit pattern (NaN payloads and
    /// `-0.0` survive).
    #[inline]
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Byte length, then the UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Rows, columns, then the elements row-major.
    pub fn matrix(&mut self, m: &Matrix) {
        self.u64(m.rows() as u64);
        self.u64(m.cols() as u64);
        for &v in m.data() {
            self.f32(v);
        }
    }

    /// Presence flag, then the matrix if there is one.
    pub fn opt_matrix(&mut self, m: Option<&Matrix>) {
        self.bool(m.is_some());
        if let Some(m) = m {
            self.matrix(m);
        }
    }

    /// Count, then each matrix.
    pub fn matrices(&mut self, ms: &[Matrix]) {
        self.u64(ms.len() as u64);
        for m in ms {
            self.matrix(m);
        }
    }

    /// Count, then each optional matrix.
    pub fn opt_matrices(&mut self, ms: &[Option<Matrix>]) {
        self.u64(ms.len() as u64);
        for m in ms {
            self.opt_matrix(m.as_ref());
        }
    }
}

/// Reads a payload back field by field. Every failure is a
/// [`CheckpointError::Parse`] carrying the byte offset; nothing is
/// allocated for a count or shape the remaining bytes cannot hold.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `bytes` (an [`unseal`]ed payload).
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// A parse error at the current offset, for layout-level checks the
    /// caller makes on values it has read.
    pub fn err(&self, msg: impl Into<String>) -> CheckpointError {
        CheckpointError::Parse {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.bytes.len() - self.pos < n {
            return Err(self.err("unexpected end of payload"));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// One byte that must be `0` or `1`.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.err(format!("invalid bool byte {b}"))),
        }
    }

    /// Eight little-endian bytes.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Eight little-endian bytes, two's complement.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, CheckpointError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// Four little-endian bytes as an `f32` bit pattern.
    #[inline]
    pub fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    /// An element count, sanity-bounded so a crafted length field errors
    /// out instead of attempting a huge allocation: `n` elements of at
    /// least `min_size` bytes each must fit in the remaining payload.
    pub fn len(&mut self, min_size: usize) -> Result<usize, CheckpointError> {
        let n = self.u64()?;
        let remaining = (self.bytes.len() - self.pos) as u64;
        if n.saturating_mul(min_size.max(1) as u64) > remaining {
            return Err(self.err(format!("length {n} exceeds remaining payload")));
        }
        Ok(n as usize)
    }

    /// A [`ByteWriter::str`] field.
    pub fn str(&mut self) -> Result<&'a str, CheckpointError> {
        let n = self.len(1)?;
        std::str::from_utf8(self.take(n)?).map_err(|_| self.err("string is not UTF-8"))
    }

    /// A [`ByteWriter::matrix`] field.
    pub fn matrix(&mut self) -> Result<Matrix, CheckpointError> {
        let rows = self.u64()? as usize;
        let cols = self.u64()? as usize;
        let len = rows
            .checked_mul(cols)
            .and_then(|n| n.checked_mul(4))
            .ok_or_else(|| self.err("matrix shape overflows"))?;
        // `take` refuses a shape the remaining bytes cannot hold before
        // the elements are collected.
        let data = self.take(len)?.chunks_exact(4);
        let data = data.map(|b| f32::from_le_bytes(b.try_into().expect("chunks of 4")));
        Ok(Matrix::from_vec(rows, cols, data.collect()))
    }

    /// A [`ByteWriter::opt_matrix`] field.
    pub fn opt_matrix(&mut self) -> Result<Option<Matrix>, CheckpointError> {
        Ok(if self.bool()? {
            Some(self.matrix()?)
        } else {
            None
        })
    }

    /// A [`ByteWriter::matrices`] field.
    pub fn matrices(&mut self) -> Result<Vec<Matrix>, CheckpointError> {
        let n = self.len(17)?; // rows + cols + ≥1 element
        (0..n).map(|_| self.matrix()).collect()
    }

    /// A [`ByteWriter::opt_matrices`] field.
    pub fn opt_matrices(&mut self) -> Result<Vec<Option<Matrix>>, CheckpointError> {
        let n = self.len(1)?;
        (0..n).map(|_| self.opt_matrix()).collect()
    }

    /// Ends the read: bytes left over mean the payload is not the layout
    /// the caller decoded.
    pub fn finish(self) -> Result<(), CheckpointError> {
        if self.pos != self.bytes.len() {
            return Err(self.err(format!(
                "{} trailing bytes after checkpoint payload",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Where `m` stops being finite, if it does: the message both directions
/// refuse such a parameter with.
fn non_finite(name: &str, m: &Matrix) -> Option<String> {
    let (j, v) = m.data().iter().enumerate().find(|(_, v)| !v.is_finite())?;
    Some(format!(
        "parameter {name:?} contains non-finite value {v} at index {j}"
    ))
}

/// Encodes a parameter set as sealed [`KIND_PARAMS`] bytes.
///
/// Fails if any parameter is non-finite: a diverged run is refused at
/// save time, while it is still debuggable, instead of replacing its last
/// good checkpoint with weights no resumed run could use.
pub fn params_to_bytes(ps: &ParamSet) -> Result<Vec<u8>, CheckpointError> {
    let mut w = ByteWriter::new();
    w.u64(ps.len() as u64);
    for (id, m) in ps.iter() {
        if let Some(msg) = non_finite(ps.name(id), m) {
            return Err(CheckpointError::NonFinite(format!(
                "{msg}; refusing to checkpoint a diverged run"
            )));
        }
        w.str(ps.name(id));
        w.matrix(m);
    }
    Ok(seal(KIND_PARAMS, w.bytes()))
}

/// Decodes [`params_to_bytes`] output. Corruption anywhere — header,
/// CRC or payload structure — is a typed error, and so is a non-finite
/// parameter, which the writer can not have produced.
pub fn params_from_bytes(bytes: &[u8]) -> Result<ParamSet, CheckpointError> {
    let mut r = ByteReader::new(unseal(KIND_PARAMS, bytes)?);
    let mut ps = ParamSet::new();
    for _ in 0..r.len(24)? {
        let name = r.str()?;
        let m = r.matrix()?;
        if let Some(msg) = non_finite(name, &m) {
            return Err(r.err(msg));
        }
        ps.alloc(name, m);
    }
    r.finish()?;
    Ok(ps)
}

/// Saves a parameter set to `path` as a sealed, atomically-replaced
/// checkpoint. Fails (without touching the file) if any parameter is
/// non-finite.
pub fn save_params(ps: &ParamSet, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    write_atomic(path, &params_to_bytes(ps)?)
}

/// Loads a parameter set from a checkpoint written by [`save_params`].
pub fn load_params(path: impl AsRef<Path>) -> Result<ParamSet, CheckpointError> {
    params_from_bytes(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Matrix;

    #[test]
    fn roundtrip_preserves_everything() {
        let mut ps = ParamSet::new();
        let a = ps.alloc(
            "layer.w",
            Matrix::from_vec(2, 2, vec![1.5, -2.0, 0.0, 3.25]),
        );
        let b = ps.alloc("layer.b", Matrix::row_vector(vec![0.5]));
        let dir = std::env::temp_dir().join("mirage_nn_ser_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("params.ckpt");
        save_params(&ps, &path).unwrap();
        let loaded = load_params(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.get(a), ps.get(a));
        assert_eq!(loaded.get(b), ps.get(b));
        assert_eq!(loaded.name(a), "layer.w");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(matches!(
            load_params("/nonexistent/mirage/params.ckpt"),
            Err(CheckpointError::Io(_))
        ));
    }

    #[test]
    fn in_memory_roundtrip_is_exact_for_awkward_values() {
        let mut ps = ParamSet::new();
        let name = "odd \"name\" with\\slashes,\nnewlines and ünïcode";
        let values = vec![f32::MIN_POSITIVE, 1e-45, -1.2345678e10, 0.1, -0.0, f32::MAX];
        let id = ps.alloc(name, Matrix::from_vec(2, 3, values));
        let empty = ps.alloc("", Matrix::zeros(0, 7));
        let loaded = params_from_bytes(&params_to_bytes(&ps).unwrap()).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.name(id), name);
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(loaded.get(id)), bits(ps.get(id)));
        assert_eq!(loaded.name(empty), "");
        assert_eq!((loaded.get(empty).rows(), loaded.get(empty).cols()), (0, 7));
    }

    #[test]
    fn empty_param_set_roundtrips() {
        let ps = ParamSet::new();
        let loaded = params_from_bytes(&params_to_bytes(&ps).unwrap()).unwrap();
        assert!(loaded.is_empty());
    }

    #[test]
    fn non_finite_parameters_are_rejected_at_save_time() {
        let mut ps = ParamSet::new();
        ps.alloc("w", Matrix::from_vec(1, 2, vec![1.0, f32::NAN]));
        let err = params_to_bytes(&ps).unwrap_err();
        assert!(matches!(err, CheckpointError::NonFinite(_)), "{err}");
        assert!(err.to_string().contains("non-finite"), "{err}");
        let dir = std::env::temp_dir().join("mirage_nn_ser_nan_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.ckpt");
        std::fs::remove_file(&path).ok();
        assert!(save_params(&ps, &path).is_err());
        assert!(!path.exists(), "failed save must not leave a file behind");
        let mut inf = ParamSet::new();
        inf.alloc("w", Matrix::from_vec(1, 1, vec![f32::INFINITY]));
        assert!(params_to_bytes(&inf).is_err());
    }

    /// A well-formed payload built by hand, for the damage cases below:
    /// one parameter `"x"`, 2 × 2.
    fn one_param_payload() -> ByteWriter {
        let mut w = ByteWriter::new();
        w.u64(1);
        w.str("x");
        w.matrix(&Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        w
    }

    #[test]
    fn malformed_payloads_are_parse_errors() {
        let good = one_param_payload();
        assert_eq!(
            params_from_bytes(&seal(KIND_PARAMS, good.bytes()))
                .unwrap()
                .len(),
            1
        );
        let parse_err = |payload: &[u8], what: &str| {
            let err = params_from_bytes(&seal(KIND_PARAMS, payload)).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Parse { .. }),
                "{what}: {err}"
            );
        };
        // The binary analogues of what the JSON parser was tested on: a
        // body that stops early, one that is not this layout at all, and
        // a matrix with fewer elements than its shape declares.
        parse_err(&good.bytes()[..good.bytes().len() - 1], "cut short");
        parse_err(b"", "empty");
        let mut short = ByteWriter::new();
        short.u64(1);
        short.str("x");
        short.u64(2);
        short.u64(2);
        short.f32(1.0);
        parse_err(short.bytes(), "2 x 2 with one element");
        // Counts and shapes the remaining bytes cannot hold are refused
        // before anything is allocated for them.
        for at in [0, 8, 17, 25] {
            let mut inflated = good.bytes().to_vec();
            inflated[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            parse_err(&inflated, "inflated count, length or shape");
        }
        let mut trailing = good.bytes().to_vec();
        trailing.push(0);
        parse_err(&trailing, "trailing byte");
        let mut bad_name = good.bytes().to_vec();
        bad_name[16] = 0xFF;
        parse_err(&bad_name, "name is not UTF-8");
        // A parameter the writer would have refused is refused here too.
        let mut nan = good.bytes().to_vec();
        let last = nan.len() - 4;
        nan[last..].copy_from_slice(&f32::NAN.to_le_bytes());
        parse_err(&nan, "non-finite element");
    }

    /// Both forms this loader used to accept — a JSON body inside the
    /// envelope, and a bare headerless `{…}` file — are malformed input
    /// now: typed errors, not a second decode path.
    #[test]
    fn malformed_json_is_rejected() {
        let json = b"{\"params\": [{\"name\": \"w\", \"rows\": 1, \"cols\": 2, \
                     \"data\": [0.25,-4.0]}]}";
        let err = params_from_bytes(&seal(KIND_PARAMS, json)).unwrap_err();
        assert!(matches!(err, CheckpointError::Parse { .. }), "{err}");
        let err = params_from_bytes(json).unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic), "{err}");
        let dir = std::env::temp_dir().join("mirage_nn_ser_retired_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.json");
        std::fs::write(&path, json).unwrap();
        assert!(matches!(load_params(&path), Err(CheckpointError::BadMagic)));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Four slicing-by-8 streams against the byte-at-a-time loop they
    /// replaced: every alignment of the eight-byte step and the tail,
    /// every length up to four streams of 64 words, every tail length
    /// after a four-stream split, and random lengths up to 64 KiB.
    #[test]
    fn crc32_matches_bytewise_oracle() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const MAX: usize = 64 * 1024 + 64;
        let mut rng = StdRng::seed_from_u64(0xC4C);
        let buf: Vec<u8> = (0..MAX).map(|_| rng.gen_range(0..=u8::MAX)).collect();
        let mut lens: Vec<usize> = (0..=CRC32_STREAMS * 8 * 64).collect();
        for part in [512, 1000, 4096, 16 * 1024 - 8] {
            lens.extend((0..8 * CRC32_STREAMS).map(|rest| CRC32_STREAMS * part + rest));
        }
        lens.extend((0..200).map(|_| rng.gen_range(0..=MAX)));
        lens.push(MAX);
        for len in lens {
            let at = rng.gen_range(0..=MAX - len);
            let bytes = &buf[at..at + len];
            let oracle = crc32_bytewise(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF;
            assert_eq!(crc32(bytes), oracle, "len {len} at {at}");
        }
    }

    #[test]
    fn seal_unseal_roundtrip_and_kind_check() {
        let sealed = seal("TEST", b"payload bytes");
        assert_eq!(unseal("TEST", &sealed).unwrap(), b"payload bytes");
        assert!(matches!(
            unseal("OTHR", &sealed),
            Err(CheckpointError::WrongKind { .. })
        ));
    }

    #[test]
    fn envelope_corruption_yields_typed_errors() {
        let sealed = seal(KIND_PARAMS, one_param_payload().bytes());
        // Truncated payload.
        assert!(matches!(
            unseal(KIND_PARAMS, &sealed[..sealed.len() - 3]),
            Err(CheckpointError::Truncated { .. })
        ));
        // Flipped payload bit.
        let mut flipped = sealed.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x10;
        assert!(matches!(
            unseal(KIND_PARAMS, &flipped),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
        // Garbage prefix.
        assert!(matches!(
            unseal(KIND_PARAMS, b"not a checkpoint\nat all"),
            Err(CheckpointError::BadMagic)
        ));
        // Future version.
        let future = seal(KIND_PARAMS, b"x").splice_version();
        assert!(matches!(
            unseal(KIND_PARAMS, &future),
            Err(CheckpointError::UnsupportedVersion(_))
        ));
    }

    trait SpliceVersion {
        fn splice_version(self) -> Vec<u8>;
    }

    impl SpliceVersion for Vec<u8> {
        /// Rewrites the header's version field to `9`.
        fn splice_version(mut self) -> Vec<u8> {
            let pos = CHECKPOINT_MAGIC.len() + 1;
            self[pos] = b'9';
            self
        }
    }

    #[test]
    fn write_atomic_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join("mirage_nn_ser_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("target.ckpt");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // No stray temp files left behind.
        let strays: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(strays.is_empty(), "temp files left behind: {strays:?}");
        std::fs::remove_file(path).ok();
    }
}
