//! Crash-safe tenant checkpointing and the deterministic kill-point
//! chaos harness.
//!
//! A long-running collector must survive a process crash without
//! discarding the window it has accumulated. This module persists the
//! per-tenant pipeline state — closed-bin matrix rows, distinct 5-tuple
//! sets, bin watermark, exporter sequence tracking, quarantine counters,
//! the fitted [`OnlineDetector`] model at
//! its exact floats, and the ingest cursor — as an **append-only log** of
//! versioned, checksummed generation records, hand-rolled (the workspace
//! is offline: no serde).
//!
//! ## Record format (version 2)
//!
//! ```text
//! [magic 8B][version u32][payload_len u64][fnv1a64(payload) u64][payload]
//! ```
//!
//! All integers little-endian fixed-width; every `f64` is its exact
//! [`f64::to_bits`] image, so a restored pipeline resumes *bit-identical*
//! to the uninterrupted run. Decoding is total: arbitrary byte soup and
//! bit-flipped records are rejected with a typed [`CheckpointError`],
//! never a panic, and never an unbounded allocation (every declared
//! length is validated against the bytes actually present).
//!
//! Each payload is one [`Generation`], written at one bin close:
//!
//! * its kind — a *base* record restarts the fold, a *delta* extends it;
//! * the scalar state ([`GenerationHead`]): generation number, replay
//!   cursor, next bin to close, watermark, window geometry, shard totals
//!   and resolver statistics, quarantine counters — plus every exporter's
//!   sequence state;
//! * every bin whose `bin_records` count changed since the previous
//!   generation: its bytes/packets/flows rows, its record count, and its
//!   cells' sorted distinct 5-tuples ([`BinState`]);
//! * the live verdicts issued since the previous generation;
//! * the detector ([`DetectorDelta`]): complete when it was fitted or
//!   refit, otherwise only the rows its refit window gained.
//!
//! A full [`PipelineState`] is the same record with every bin, every
//! verdict and the whole detector present ([`encode_state`]), so base and
//! delta share one codec.
//!
//! ## The log
//!
//! [`CheckpointStore`] keeps one file per tenant, `<tenant>.log`.
//! [`CheckpointStore::write`] replaces it atomically (temp file, fsync,
//! rename) with one base record; a tenant writes one at its first
//! generation after binding, restoring, or a failed write. Every later bin
//! close appends one delta and fsyncs it. A close therefore writes the
//! bins it touched — the bin just closed plus the one its closing frame
//! opened, each re-sent whole, together with any bin a late record
//! reached — and O(exporters) scalars, its verdicts and one window row:
//! a constant per close, not the window. Over a run the log holds about
//! one final snapshot plus the partial bins re-sent at each close; for a
//! paper-scale Abilene day (121 OD pairs) that is ~68 KB per close, and
//! 9.7 MB over 144 bins whose final snapshot is 8.4 MB.
//!
//! Recovery ([`CheckpointStore::load_newest`], [`fold_log`]) folds the
//! records in order into a [`PipelineState`] and stops at the first one
//! that is torn, fails its checksum, or does not follow on from the state
//! folded so far (a delta without a base, a skipped generation number, a
//! geometry change). Everything before it is the recovered generation, so
//! a torn or bit-flipped newest record falls back exactly one generation;
//! the rejected tail is reported in [`LoadOutcome::rejected`], and the
//! recovered tenant's first generation is a base record that replaces the
//! log — truncating the rejected tail with it.
//!
//! ## Chaos harness
//!
//! [`CrashSchedule`] injects deterministic failures at the pipeline's
//! crash-relevant boundaries ([`CrashPoint`]): simulated process kills
//! ([`CrashKind::Kill`], which the supervisor treats as death — no flush,
//! no restart) and worker panics ([`CrashKind::Panic`], which exercise
//! the restart/quarantine path). The e2e suite uses it to pin the
//! recovery theorem: killed at any crash point and recovered, the run
//! ends byte-identical to an uninterrupted one.

use odflow_flow::{
    BinState, ExporterSeqState, FlowKey, Protocol, QuarantineStats, ResolutionStats, ShardState,
};
use odflow_linalg::{Centering, EigenMethod, Matrix};
use odflow_net::IpAddr;
use odflow_subspace::{
    DegradedReason, Detection, DetectorState, EigenflowDecomposition, ModelState, OnlineDetector,
    StatisticKind, StreamVerdict, SubspaceConfig,
};
use std::fmt;
use std::io::Write as _;
use std::ops::Range;
use std::panic::panic_any;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Leading bytes of every checkpoint record.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"ODFCKPT\0";

/// Current checkpoint format version: the append-only generation log.
/// Version 1 (two alternating full-snapshot slot files) is rejected with
/// [`CheckpointError::BadVersion`].
pub const CHECKPOINT_VERSION: u32 = 2;

/// Bytes of header before the payload: magic + version + length + checksum.
pub const CHECKPOINT_HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Why a checkpoint record could not be decoded or persisted. Every
/// corruption mode maps to exactly one class; recovery treats all of them
/// as "the log ends before this record".
#[derive(Debug)]
pub enum CheckpointError {
    /// Fewer bytes than the structure declared — a torn or truncated file.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The record does not start with [`CHECKPOINT_MAGIC`].
    BadMagic,
    /// A version this build does not speak.
    BadVersion(u32),
    /// The payload checksum does not match — bit rot or a torn write.
    BadChecksum {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually present.
        got: u64,
    },
    /// Structurally well-formed bytes with semantically invalid content
    /// (bad enum tag, inconsistent shape, trailing garbage, a record that
    /// does not follow on from the log before it).
    Corrupt(String),
    /// Filesystem-level failure while reading or writing.
    Io(std::io::Error),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated { needed, have } => {
                write!(f, "truncated checkpoint: needed {needed} more bytes, have {have}")
            }
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::BadChecksum { expected, got } => {
                write!(
                    f,
                    "checkpoint checksum mismatch: header {expected:#018x}, payload {got:#018x}"
                )
            }
            CheckpointError::Corrupt(reason) => write!(f, "corrupt checkpoint: {reason}"),
            CheckpointError::Io(e) => write!(f, "checkpoint io: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// FNV-1a 64-bit — the checkpoint payload checksum. Not cryptographic;
/// it detects torn writes and bit rot, which is the threat model here.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Complete snapshot of one tenant pipeline at a consistent cut (taken
/// immediately after a bin close, when the current frame is fully
/// ingested). `frames_ingested` is the recovery cursor: replaying the
/// original frame stream from that index onward reproduces the
/// uninterrupted run bit for bit.
#[derive(Debug, Clone, Default)]
pub struct PipelineState {
    /// Monotonic checkpoint generation number.
    pub seq: u64,
    /// Frames consumed from the queue when this snapshot was taken — the
    /// replay cursor for recovery.
    pub frames_ingested: u64,
    /// Next bin the pipeline will close.
    pub next_close: u64,
    /// The export-timestamp watermark (trace-epoch seconds).
    pub watermark_secs: u64,
    /// The full shard accumulation state.
    pub shard: ShardState,
    /// Wire-path quarantine counters.
    pub quarantine: QuarantineStats,
    /// Per-exporter sequence tracking, ascending exporter id.
    pub exporters: Vec<(u8, ExporterSeqState)>,
    /// The fitted streaming detector, `None` before training completes.
    pub detector: Option<DetectorState>,
    /// Live verdicts issued so far.
    pub live_verdicts: Vec<StreamVerdict>,
}

/// The fixed-size scalar state every generation record carries in full.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GenerationHead {
    /// Generation number; a delta must follow its predecessor's by one.
    pub seq: u64,
    /// The replay cursor ([`PipelineState::frames_ingested`]).
    pub frames_ingested: u64,
    /// Next bin the pipeline will close.
    pub next_close: u64,
    /// The export-timestamp watermark (trace-epoch seconds).
    pub watermark_secs: u64,
    /// Bins in the window.
    pub num_bins: u64,
    /// OD cells per bin.
    pub num_od: u64,
    /// Records accepted into the window so far.
    pub records_accepted: u64,
    /// The shard's resolver statistics.
    pub resolution: ResolutionStats,
    /// Records dropped as outside the window.
    pub dropped_out_of_window: u64,
    /// Wire-path quarantine counters.
    pub quarantine: QuarantineStats,
}

impl GenerationHead {
    /// Overwrites the scalar state of `state` with this head's.
    fn apply_to(&self, state: &mut PipelineState) {
        state.seq = self.seq;
        state.frames_ingested = self.frames_ingested;
        state.next_close = self.next_close;
        state.watermark_secs = self.watermark_secs;
        state.quarantine = self.quarantine;
        state.shard.records_accepted = self.records_accepted;
        state.shard.resolution = self.resolution;
        state.shard.dropped_out_of_window = self.dropped_out_of_window;
    }

    /// The scalar state of a full snapshot.
    #[must_use]
    pub fn of(state: &PipelineState) -> GenerationHead {
        GenerationHead {
            seq: state.seq,
            frames_ingested: state.frames_ingested,
            next_close: state.next_close,
            watermark_secs: state.watermark_secs,
            num_bins: state.shard.bin_records.len() as u64,
            num_od: state.shard.num_od() as u64,
            records_accepted: state.shard.records_accepted,
            resolution: state.shard.resolution,
            dropped_out_of_window: state.shard.dropped_out_of_window,
            quarantine: state.quarantine,
        }
    }
}

/// How a generation record carries the online detector.
#[derive(Debug, Clone)]
pub enum DetectorDelta {
    /// No detector is fitted.
    Absent,
    /// The complete detector: it was fitted or refit since the previous
    /// generation (and always in a base record).
    Full(Box<DetectorState>),
    /// The model is unchanged; the refit window gained `rows` (oldest
    /// first, trimmed back to the window length after appending) and the
    /// stream position moved on.
    Rows {
        /// Rows appended to the refit window.
        rows: Vec<Vec<f64>>,
        /// Clean observations since the last refit.
        since_refit: usize,
        /// Bins consumed so far.
        next_bin: usize,
    },
}

/// One decoded generation record: what one bin close persisted.
#[derive(Debug, Clone)]
pub struct Generation {
    /// `true` for a base record, which restarts the fold: it lists every
    /// bin and verdict and carries the detector whole.
    pub base: bool,
    /// The scalar state.
    pub head: GenerationHead,
    /// Per-exporter sequence tracking, ascending exporter id.
    pub exporters: Vec<(u8, ExporterSeqState)>,
    /// `(bin, state)` for every bin whose record count changed since the
    /// previous generation.
    pub bins: Vec<(u64, BinState)>,
    /// Live verdicts issued since the previous generation.
    pub verdicts: Vec<StreamVerdict>,
    /// The detector change.
    pub detector: DetectorDelta,
}

impl Generation {
    /// Folds this record onto the state recovered so far. Every check runs
    /// before anything is written, so a rejected record leaves `state` at
    /// the previous generation.
    fn apply(self, state: &mut Option<PipelineState>) -> DecResult<()> {
        let Generation { base, head, exporters, bins, verdicts, detector } = self;
        let num_bins = usize::try_from(head.num_bins)
            .map_err(|_| corrupt(format!("{} bins overflow usize", head.num_bins)))?;
        let num_od = usize::try_from(head.num_od)
            .map_err(|_| corrupt(format!("{} OD cells overflow usize", head.num_od)))?;
        if base {
            if bins.len() != num_bins || bins.iter().zip(0u64..).any(|((b, _), i)| *b != i) {
                return Err(corrupt("a base record must list every bin in order".to_owned()));
            }
            let detector = match detector {
                DetectorDelta::Absent => None,
                DetectorDelta::Full(d) => Some(*d),
                DetectorDelta::Rows { .. } => {
                    return Err(corrupt("a base record must carry the whole detector".to_owned()))
                }
            };
            let shard = ShardState::from_bins(num_od, bins.into_iter().map(|(_, s)| s).collect())
                .map_err(|e| corrupt(format!("base bins: {e}")))?;
            let mut fresh = PipelineState {
                shard,
                exporters,
                detector,
                live_verdicts: verdicts,
                ..PipelineState::default()
            };
            head.apply_to(&mut fresh);
            *state = Some(fresh);
            return Ok(());
        }

        let Some(prior) = state.as_mut() else {
            return Err(corrupt("a delta record with no base before it".to_owned()));
        };
        if head.seq != prior.seq.wrapping_add(1) {
            return Err(corrupt(format!(
                "generation {} does not follow generation {}",
                head.seq, prior.seq
            )));
        }
        if prior.shard.bin_records.len() != num_bins || prior.shard.num_od() != num_od {
            return Err(corrupt(format!("window geometry changed to {num_bins}x{num_od}")));
        }
        if let Some((b, _)) = bins.iter().find(|(b, s)| *b >= head.num_bins || !s.has_width(num_od))
        {
            return Err(corrupt(format!("bin {b} does not fit the window")));
        }
        if matches!(detector, DetectorDelta::Rows { .. }) && prior.detector.is_none() {
            return Err(corrupt("detector rows with no detector to extend".to_owned()));
        }

        for (b, s) in bins {
            // Index and width were checked above, so this cannot fail.
            prior.shard.restore_bin(b as usize, s).map_err(|e| corrupt(e.to_string()))?;
        }
        head.apply_to(prior);
        prior.exporters = exporters;
        prior.live_verdicts.extend(verdicts);
        match detector {
            DetectorDelta::Absent => prior.detector = None,
            DetectorDelta::Full(d) => prior.detector = Some(*d),
            DetectorDelta::Rows { rows, since_refit, next_bin } => {
                if let Some(d) = prior.detector.as_mut() {
                    d.window.extend(rows);
                    let excess = d.window.len().saturating_sub(d.window_len);
                    d.window.drain(..excess);
                    d.since_refit = since_refit;
                    d.next_bin = next_bin;
                }
            }
        }
        Ok(())
    }
}

fn corrupt(reason: String) -> CheckpointError {
    CheckpointError::Corrupt(reason)
}

// ---------------------------------------------------------------------------
// Encoder / decoder primitives
// ---------------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Enc {
        Enc { buf: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    fn f64s(&mut self, vs: &[f64]) {
        self.usize(vs.len());
        for &v in vs {
            self.f64(v);
        }
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    at: usize,
}

type DecResult<T> = Result<T, CheckpointError>;

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, at: 0 }
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }
    fn take(&mut self, n: usize) -> DecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated { needed: n, have: self.remaining() });
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    fn u8(&mut self) -> DecResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> DecResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> DecResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> DecResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }
    fn f64(&mut self) -> DecResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn bool(&mut self) -> DecResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CheckpointError::Corrupt(format!("bool tag {t}"))),
        }
    }
    /// Reads a declared element count and validates that at least
    /// `count * min_elem_bytes` bytes are actually present — the
    /// allocation guard that keeps byte-soup decoding bounded.
    fn len(&mut self, min_elem_bytes: usize) -> DecResult<usize> {
        let n = self.u64()?;
        let n = usize::try_from(n)
            .map_err(|_| CheckpointError::Corrupt(format!("length {n} overflows usize")))?;
        let need = n
            .checked_mul(min_elem_bytes)
            .ok_or_else(|| CheckpointError::Corrupt(format!("length {n} overflows")))?;
        if self.remaining() < need {
            return Err(CheckpointError::Truncated { needed: need, have: self.remaining() });
        }
        Ok(n)
    }
    fn usize_val(&mut self) -> DecResult<usize> {
        let v = self.u64()?;
        usize::try_from(v)
            .map_err(|_| CheckpointError::Corrupt(format!("value {v} overflows usize")))
    }
    fn f64s(&mut self) -> DecResult<Vec<f64>> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }
}

// ---------------------------------------------------------------------------
// Component codecs
// ---------------------------------------------------------------------------

fn enc_flow_key(e: &mut Enc, k: &FlowKey) {
    e.u32(k.src_ip.0);
    e.u32(k.dst_ip.0);
    e.u16(k.src_port);
    e.u16(k.dst_port);
    e.u8(k.protocol.number());
}

fn dec_flow_key(d: &mut Dec<'_>) -> DecResult<FlowKey> {
    let src_ip = IpAddr(d.u32()?);
    let dst_ip = IpAddr(d.u32()?);
    let src_port = d.u16()?;
    let dst_port = d.u16()?;
    let protocol = Protocol::from_number(d.u8()?);
    Ok(FlowKey::new(src_ip, dst_ip, src_port, dst_port, protocol))
}

fn enc_quarantine(e: &mut Enc, q: &QuarantineStats) {
    for v in [
        q.frames_offered,
        q.frames_accepted,
        q.truncated_header,
        q.wrong_version,
        q.truncated_frame,
        q.oversized_frame,
        q.records_offered,
        q.records_accepted,
        q.implausible_records,
    ] {
        e.u64(v);
    }
}

fn dec_quarantine(d: &mut Dec<'_>) -> DecResult<QuarantineStats> {
    Ok(QuarantineStats {
        frames_offered: d.u64()?,
        frames_accepted: d.u64()?,
        truncated_header: d.u64()?,
        wrong_version: d.u64()?,
        truncated_frame: d.u64()?,
        oversized_frame: d.u64()?,
        records_offered: d.u64()?,
        records_accepted: d.u64()?,
        implausible_records: d.u64()?,
    })
}

fn enc_opt_u32(e: &mut Enc, v: Option<u32>) {
    match v {
        None => e.u8(0),
        Some(x) => {
            e.u8(1);
            e.u32(x);
        }
    }
}

fn dec_opt_u32(d: &mut Dec<'_>) -> DecResult<Option<u32>> {
    match d.u8()? {
        0 => Ok(None),
        1 => Ok(Some(d.u32()?)),
        t => Err(CheckpointError::Corrupt(format!("option tag {t}"))),
    }
}

fn enc_exporter(e: &mut Enc, s: &ExporterSeqState) {
    e.u64(s.frames);
    e.u64(s.records);
    e.u64(s.lost_flows);
    e.u64(s.out_of_order);
    e.u64(s.duplicate_frames);
    e.u16(s.sampling_lo);
    e.u16(s.sampling_hi);
    enc_opt_u32(e, s.next_seq);
    match s.last {
        None => e.u8(0),
        Some((seq, count)) => {
            e.u8(1);
            e.u32(seq);
            e.u16(count);
        }
    }
}

fn dec_exporter(d: &mut Dec<'_>) -> DecResult<ExporterSeqState> {
    let frames = d.u64()?;
    let records = d.u64()?;
    let lost_flows = d.u64()?;
    let out_of_order = d.u64()?;
    let duplicate_frames = d.u64()?;
    let sampling_lo = d.u16()?;
    let sampling_hi = d.u16()?;
    let next_seq = dec_opt_u32(d)?;
    let last = match d.u8()? {
        0 => None,
        1 => Some((d.u32()?, d.u16()?)),
        t => return Err(CheckpointError::Corrupt(format!("option tag {t}"))),
    };
    Ok(ExporterSeqState {
        frames,
        records,
        lost_flows,
        out_of_order,
        duplicate_frames,
        sampling_lo,
        sampling_hi,
        next_seq,
        last,
    })
}

fn enc_matrix(e: &mut Enc, m: &Matrix) {
    e.usize(m.nrows());
    e.usize(m.ncols());
    for &v in m.as_slice() {
        e.f64(v);
    }
}

fn dec_matrix(d: &mut Dec<'_>) -> DecResult<Matrix> {
    let rows = d.usize_val()?;
    let cols = d.usize_val()?;
    let cells = rows
        .checked_mul(cols)
        .ok_or_else(|| CheckpointError::Corrupt(format!("matrix {rows}x{cols} overflows")))?;
    let need = cells
        .checked_mul(8)
        .ok_or_else(|| CheckpointError::Corrupt(format!("matrix {rows}x{cols} overflows")))?;
    if d.remaining() < need {
        return Err(CheckpointError::Truncated { needed: need, have: d.remaining() });
    }
    let data: Vec<f64> = (0..cells).map(|_| d.f64()).collect::<DecResult<_>>()?;
    Matrix::from_vec(rows, cols, data)
        .map_err(|e| CheckpointError::Corrupt(format!("matrix shape: {e}")))
}

/// Eigen-method tags. Tag 1 named a retired dense solver; it is never
/// written and decodes as [`EigenMethod::DenseTridiagonal`], the one dense
/// solver, so logs written before the retirement stay recoverable (a
/// restored model's matrices are decoded verbatim, never refit).
fn enc_method(e: &mut Enc, m: EigenMethod) {
    match m {
        EigenMethod::Auto => e.u8(0),
        EigenMethod::DenseTridiagonal => e.u8(2),
        EigenMethod::RandomizedTruncated { oversample, power_iters, seed } => {
            e.u8(3);
            e.usize(oversample);
            e.usize(power_iters);
            e.u64(seed);
        }
    }
}

fn dec_method(d: &mut Dec<'_>) -> DecResult<EigenMethod> {
    match d.u8()? {
        0 => Ok(EigenMethod::Auto),
        1 | 2 => Ok(EigenMethod::DenseTridiagonal),
        3 => Ok(EigenMethod::RandomizedTruncated {
            oversample: d.usize_val()?,
            power_iters: d.usize_val()?,
            seed: d.u64()?,
        }),
        t => Err(CheckpointError::Corrupt(format!("eigen method tag {t}"))),
    }
}

fn enc_subspace_config(e: &mut Enc, c: SubspaceConfig) {
    e.usize(c.k);
    e.f64(c.alpha);
    enc_method(e, c.method);
}

fn dec_subspace_config(d: &mut Dec<'_>) -> DecResult<SubspaceConfig> {
    Ok(SubspaceConfig { k: d.usize_val()?, alpha: d.f64()?, method: dec_method(d)? })
}

fn enc_model(e: &mut Enc, m: &ModelState) {
    enc_matrix(e, &m.decomp.eigenflows);
    enc_matrix(e, &m.decomp.loadings);
    e.f64s(&m.decomp.singular_values);
    e.f64s(&m.decomp.centering.means);
    e.f64s(&m.decomp.centering.scales);
    e.usize(m.decomp.n);
    e.f64(m.decomp.total_energy);
    e.bool(m.decomp.truncated);
    enc_subspace_config(e, m.config);
    e.usize(m.p);
    e.f64(m.spe_threshold);
    e.f64(m.t2_threshold);
    e.bool(m.degenerate_residual);
}

fn dec_model(d: &mut Dec<'_>) -> DecResult<ModelState> {
    let eigenflows = dec_matrix(d)?;
    let loadings = dec_matrix(d)?;
    let singular_values = d.f64s()?;
    let means = d.f64s()?;
    let scales = d.f64s()?;
    let n = d.usize_val()?;
    let total_energy = d.f64()?;
    let truncated = d.bool()?;
    let config = dec_subspace_config(d)?;
    let p = d.usize_val()?;
    let spe_threshold = d.f64()?;
    let t2_threshold = d.f64()?;
    let degenerate_residual = d.bool()?;
    Ok(ModelState {
        decomp: EigenflowDecomposition {
            eigenflows,
            loadings,
            singular_values,
            centering: Centering { means, scales },
            n,
            total_energy,
            truncated,
        },
        config,
        p,
        spe_threshold,
        t2_threshold,
        degenerate_residual,
    })
}

fn enc_detector(e: &mut Enc, s: &DetectorState) {
    enc_subspace_config(e, s.config);
    enc_model(e, &s.model);
    e.usize(s.window.len());
    for row in &s.window {
        e.f64s(row);
    }
    e.usize(s.window_len);
    e.usize(s.refit_every);
    e.usize(s.since_refit);
    e.usize(s.next_bin);
}

fn dec_detector(d: &mut Dec<'_>) -> DecResult<DetectorState> {
    let config = dec_subspace_config(d)?;
    let model = dec_model(d)?;
    let rows = d.len(8)?;
    let window: Vec<Vec<f64>> = (0..rows).map(|_| d.f64s()).collect::<DecResult<_>>()?;
    Ok(DetectorState {
        config,
        model,
        window,
        window_len: d.usize_val()?,
        refit_every: d.usize_val()?,
        since_refit: d.usize_val()?,
        next_bin: d.usize_val()?,
    })
}

fn enc_verdict(e: &mut Enc, v: &StreamVerdict) {
    e.usize(v.bin);
    e.f64(v.spe);
    e.f64(v.t2);
    e.usize(v.detections.len());
    for det in &v.detections {
        e.usize(det.bin);
        e.u8(match det.kind {
            StatisticKind::Spe => 0,
            StatisticKind::T2 => 1,
        });
        e.f64(det.value);
        e.f64(det.threshold);
    }
    match &v.degraded {
        None => e.u8(0),
        Some(DegradedReason::MaskedBin) => e.u8(1),
        Some(DegradedReason::ImputedBin) => e.u8(2),
        Some(DegradedReason::WidenedThreshold { imputed_fraction }) => {
            e.u8(3);
            e.f64(*imputed_fraction);
        }
    }
}

fn dec_verdict(d: &mut Dec<'_>) -> DecResult<StreamVerdict> {
    let bin = d.usize_val()?;
    let spe = d.f64()?;
    let t2 = d.f64()?;
    let n = d.len(25)?; // 8 + 1 + 8 + 8 bytes per detection
    let mut detections = Vec::with_capacity(n);
    for _ in 0..n {
        let dbin = d.usize_val()?;
        let kind = match d.u8()? {
            0 => StatisticKind::Spe,
            1 => StatisticKind::T2,
            t => return Err(CheckpointError::Corrupt(format!("statistic tag {t}"))),
        };
        detections.push(Detection { bin: dbin, kind, value: d.f64()?, threshold: d.f64()? });
    }
    let degraded = match d.u8()? {
        0 => None,
        1 => Some(DegradedReason::MaskedBin),
        2 => Some(DegradedReason::ImputedBin),
        3 => Some(DegradedReason::WidenedThreshold { imputed_fraction: d.f64()? }),
        t => return Err(CheckpointError::Corrupt(format!("degraded tag {t}"))),
    };
    Ok(StreamVerdict { bin, spe, t2, detections, degraded })
}

// ---------------------------------------------------------------------------
// Generation records
// ---------------------------------------------------------------------------

/// One bin of a record, borrowed from a [`BinState`] or a full snapshot.
struct BinRef<'a> {
    records: u64,
    bytes: &'a [f64],
    packets: &'a [f64],
    flows: &'a [f64],
    distinct: &'a [Vec<FlowKey>],
}

impl<'a> From<&'a BinState> for BinRef<'a> {
    fn from(s: &'a BinState) -> Self {
        BinRef {
            records: s.records,
            bytes: &s.bytes,
            packets: &s.packets,
            flows: &s.flows,
            distinct: &s.distinct,
        }
    }
}

fn enc_head(e: &mut Enc, base: bool, h: &GenerationHead) {
    e.bool(base);
    for v in [h.seq, h.frames_ingested, h.next_close, h.watermark_secs, h.num_bins, h.num_od] {
        e.u64(v);
    }
    e.u64(h.records_accepted);
    let r = h.resolution;
    for v in [r.flows_total, r.flows_resolved, r.bytes_total, r.bytes_resolved, r.transit_skipped] {
        e.u64(v);
    }
    e.u64(h.dropped_out_of_window);
    enc_quarantine(e, &h.quarantine);
}

fn dec_head(d: &mut Dec<'_>) -> DecResult<(bool, GenerationHead)> {
    let base = d.bool()?;
    let head = GenerationHead {
        seq: d.u64()?,
        frames_ingested: d.u64()?,
        next_close: d.u64()?,
        watermark_secs: d.u64()?,
        num_bins: d.u64()?,
        num_od: d.u64()?,
        records_accepted: d.u64()?,
        resolution: ResolutionStats {
            flows_total: d.u64()?,
            flows_resolved: d.u64()?,
            bytes_total: d.u64()?,
            bytes_resolved: d.u64()?,
            transit_skipped: d.u64()?,
        },
        dropped_out_of_window: d.u64()?,
        quarantine: dec_quarantine(d)?,
    };
    Ok((base, head))
}

fn enc_bin(e: &mut Enc, bin: u64, b: &BinRef<'_>) {
    e.u64(bin);
    e.u64(b.records);
    e.f64s(b.bytes);
    e.f64s(b.packets);
    e.f64s(b.flows);
    e.usize(b.distinct.len());
    for keys in b.distinct {
        e.usize(keys.len());
        for k in keys {
            enc_flow_key(e, k);
        }
    }
}

fn dec_bin(d: &mut Dec<'_>) -> DecResult<(u64, BinState)> {
    let bin = d.u64()?;
    let records = d.u64()?;
    let bytes = d.f64s()?;
    let packets = d.f64s()?;
    let flows = d.f64s()?;
    let cells = d.len(8)?;
    let mut distinct = Vec::with_capacity(cells);
    for _ in 0..cells {
        let n = d.len(13)?; // 4 + 4 + 2 + 2 + 1 bytes per key
        let mut keys = Vec::with_capacity(n);
        for _ in 0..n {
            keys.push(dec_flow_key(d)?);
        }
        distinct.push(keys);
    }
    Ok((bin, BinState { records, bytes, packets, flows, distinct }))
}

/// The part of a record before the detector: head, exporters, bins and
/// verdicts.
fn enc_body(
    e: &mut Enc,
    base: bool,
    head: &GenerationHead,
    exporters: &[(u8, ExporterSeqState)],
    bins: &[(u64, BinRef<'_>)],
    verdicts: &[StreamVerdict],
) {
    enc_head(e, base, head);
    e.usize(exporters.len());
    for (id, s) in exporters {
        e.u8(*id);
        enc_exporter(e, s);
    }
    e.usize(bins.len());
    for (bin, b) in bins {
        enc_bin(e, *bin, b);
    }
    e.usize(verdicts.len());
    for v in verdicts {
        enc_verdict(e, v);
    }
}

/// Wraps a payload in the record header.
fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(CHECKPOINT_HEADER_LEN + payload.len());
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Serializes a full pipeline snapshot as one self-verifying base record:
/// every bin, every verdict, the whole detector.
#[must_use]
pub fn encode_state(state: &PipelineState) -> Vec<u8> {
    let s = &state.shard;
    let od = s.num_od();
    let bins: Vec<(u64, BinRef<'_>)> = (0..s.bin_records.len())
        .map(|b| {
            let cells = b * od..(b + 1) * od;
            let bin = BinRef {
                records: s.bin_records[b],
                bytes: s.bytes.get(cells.clone()).unwrap_or_default(),
                packets: s.packets.get(cells.clone()).unwrap_or_default(),
                flows: s.flows.get(cells.clone()).unwrap_or_default(),
                distinct: s.distinct.get(cells).unwrap_or_default(),
            };
            (b as u64, bin)
        })
        .collect();
    let mut e = Enc::new();
    enc_body(
        &mut e,
        true,
        &GenerationHead::of(state),
        &state.exporters,
        &bins,
        &state.live_verdicts,
    );
    match &state.detector {
        None => e.u8(0),
        Some(det) => {
            e.u8(1);
            enc_detector(&mut e, det);
        }
    }
    seal(&e.buf)
}

/// Serializes one generation record.
#[must_use]
pub fn encode_generation(g: &Generation) -> Vec<u8> {
    let bins: Vec<(u64, BinRef<'_>)> = g.bins.iter().map(|(b, s)| (*b, s.into())).collect();
    let mut e = Enc::new();
    enc_body(&mut e, g.base, &g.head, &g.exporters, &bins, &g.verdicts);
    match &g.detector {
        DetectorDelta::Absent => e.u8(0),
        DetectorDelta::Full(det) => {
            e.u8(1);
            enc_detector(&mut e, det);
        }
        DetectorDelta::Rows { rows, since_refit, next_bin } => {
            e.u8(2);
            e.usize(rows.len());
            for row in rows {
                e.f64s(row);
            }
            e.usize(*since_refit);
            e.usize(*next_bin);
        }
    }
    seal(&e.buf)
}

/// Decodes the generation record at the start of `bytes`, returning it and
/// the number of bytes it spans. Total over arbitrary input: rejects with
/// a typed [`CheckpointError`], never panics, and never allocates beyond
/// what the bytes present can justify.
///
/// # Errors
///
/// Every [`CheckpointError`] class except `Io`.
pub fn decode_generation(bytes: &[u8]) -> Result<(Generation, usize), CheckpointError> {
    let mut h = Dec::new(bytes);
    if h.take(8)? != CHECKPOINT_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = h.u32()?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let declared = h.u64()?;
    let expected_sum = h.u64()?;
    let declared = usize::try_from(declared)
        .map_err(|_| corrupt(format!("payload length {declared} overflows")))?;
    let payload = h.take(declared)?;
    let got_sum = fnv1a64(payload);
    if got_sum != expected_sum {
        return Err(CheckpointError::BadChecksum { expected: expected_sum, got: got_sum });
    }

    let mut d = Dec::new(payload);
    let (base, head) = dec_head(&mut d)?;
    let n_exporters = d.len(37)?; // id + fixed exporter body lower bound
    let mut exporters = Vec::with_capacity(n_exporters);
    for _ in 0..n_exporters {
        let id = d.u8()?;
        exporters.push((id, dec_exporter(&mut d)?));
    }
    let n_bins = d.len(8 * 6)?; // index, count, three row lengths, cell count
    let mut bins = Vec::with_capacity(n_bins);
    for _ in 0..n_bins {
        bins.push(dec_bin(&mut d)?);
    }
    let n_verdicts = d.len(8 + 8 + 8 + 8 + 1)?;
    let mut verdicts = Vec::with_capacity(n_verdicts);
    for _ in 0..n_verdicts {
        verdicts.push(dec_verdict(&mut d)?);
    }
    let detector = match d.u8()? {
        0 => DetectorDelta::Absent,
        1 => DetectorDelta::Full(Box::new(dec_detector(&mut d)?)),
        2 => {
            let n = d.len(8)?;
            let rows = (0..n).map(|_| d.f64s()).collect::<DecResult<_>>()?;
            DetectorDelta::Rows { rows, since_refit: d.usize_val()?, next_bin: d.usize_val()? }
        }
        t => return Err(corrupt(format!("detector tag {t}"))),
    };
    if d.remaining() != 0 {
        return Err(corrupt(format!("{} unconsumed payload bytes", d.remaining())));
    }
    let generation = Generation { base, head, exporters, bins, verdicts, detector };
    Ok((generation, CHECKPOINT_HEADER_LEN + declared))
}

/// Deserializes a single base record — the image [`encode_state`] writes —
/// into the full snapshot it carries.
///
/// # Errors
///
/// Every [`CheckpointError`] class except `Io`; trailing bytes and delta
/// records are [`CheckpointError::Corrupt`].
pub fn decode_state(bytes: &[u8]) -> Result<PipelineState, CheckpointError> {
    let (generation, used) = decode_generation(bytes)?;
    if used != bytes.len() {
        return Err(corrupt(format!("{} trailing bytes beyond the record", bytes.len() - used)));
    }
    if !generation.base {
        return Err(corrupt("a snapshot must be a base record".to_owned()));
    }
    let mut state = None;
    generation.apply(&mut state)?;
    state.ok_or_else(|| corrupt("base record produced no state".to_owned()))
}

/// The result of folding a generation log.
#[derive(Debug, Default)]
pub struct LogFold {
    /// The state after the last record folded, `None` when none was.
    pub state: Option<PipelineState>,
    /// Byte range of each record folded, in log order.
    pub spans: Vec<Range<usize>>,
    /// Why folding stopped before the end of the log, if it did: the
    /// first record that was torn, corrupt, or did not follow on.
    pub error: Option<CheckpointError>,
}

/// Folds a generation log, record by record, into the newest state it
/// describes; stops at the first record that fails to decode or apply.
/// Never panics.
#[must_use]
pub fn fold_log(bytes: &[u8]) -> LogFold {
    let mut out = LogFold::default();
    let mut at = 0;
    while at < bytes.len() {
        let step = decode_generation(&bytes[at..]).and_then(|(generation, used)| {
            generation.apply(&mut out.state)?;
            Ok(used)
        });
        match step {
            Ok(used) => {
                out.spans.push(at..at + used);
                at += used;
            }
            Err(e) => {
                out.error = Some(e);
                break;
            }
        }
    }
    out
}

/// What a tenant's newest durable generation covered, kept so the next
/// generation can carry only what changed since.
#[derive(Debug)]
pub(crate) struct LogMark {
    /// Per-bin record counts at that generation.
    bin_records: Vec<u64>,
    /// Live verdicts issued by then.
    verdicts: usize,
    /// The detector's `since_refit` count then, `None` when there was no
    /// detector or it has been (re)fitted by the tenant since.
    since_refit: Option<usize>,
}

impl LogMark {
    /// The mark a generation leaves behind.
    pub(crate) fn new(
        bin_records: &[u64],
        verdicts: usize,
        detector: Option<&OnlineDetector>,
    ) -> LogMark {
        LogMark {
            bin_records: bin_records.to_vec(),
            verdicts,
            since_refit: detector.map(OnlineDetector::since_refit),
        }
    }

    /// Records that the tenant fitted a new model: the next generation
    /// carries the detector whole.
    pub(crate) fn forget_detector(&mut self) {
        self.since_refit = None;
    }

    /// Bins whose record count differs from this mark's.
    pub(crate) fn changed_bins<'a>(&'a self, now: &'a [u64]) -> impl Iterator<Item = usize> + 'a {
        now.iter().zip(&self.bin_records).enumerate().filter(|(_, (a, b))| a != b).map(|(i, _)| i)
    }

    /// Verdicts issued since this mark.
    pub(crate) fn new_verdicts<'a>(&self, all: &'a [StreamVerdict]) -> &'a [StreamVerdict] {
        all.get(self.verdicts..).unwrap_or_default()
    }

    /// How the next generation carries `now`: as the rows its refit window
    /// gained, or whole when it was fitted or refit since this mark.
    ///
    /// The detector folds exactly its clean verdicts into the window, and
    /// `since_refit` counts those rows until a refit resets it, so the
    /// model is unchanged and the window gained exactly the last `gained`
    /// rows precisely when `since_refit` moved on by the clean verdicts
    /// among `new_verdicts`. Anything else — a refit, a push that failed
    /// after entering its row — sends the detector whole. O(rows gained),
    /// not O(window).
    pub(crate) fn detector_delta(
        &self,
        now: Option<&OnlineDetector>,
        new_verdicts: &[StreamVerdict],
    ) -> DetectorDelta {
        let Some(now) = now else {
            return DetectorDelta::Absent;
        };
        let gained =
            new_verdicts.iter().filter(|v| v.detections.is_empty() && v.degraded.is_none()).count();
        let window = now.window();
        match (self.since_refit, window.len().checked_sub(gained)) {
            (Some(then), Some(start)) if now.since_refit() == then + gained => {
                DetectorDelta::Rows {
                    rows: window[start..].to_vec(),
                    since_refit: now.since_refit(),
                    next_bin: now.bins_seen(),
                }
            }
            _ => DetectorDelta::Full(Box::new(now.export_state())),
        }
    }
}

// ---------------------------------------------------------------------------
// Generation store
// ---------------------------------------------------------------------------

/// One tenant's append-only generation log, `<tenant>.log`.
///
/// [`Self::write`] replaces the log atomically with a single base record
/// (temp file, fsync, rename), so at every instant the file holds a
/// complete log. A tenant then appends one fsynced delta per bin close.
/// [`Self::load_newest`] folds the log and returns the newest generation
/// before the first bad record.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    tenant: String,
}

/// Outcome of scanning a tenant's checkpoint log.
#[derive(Debug, Default)]
pub struct LoadOutcome {
    /// The newest valid generation, if any record folded.
    pub state: Option<PipelineState>,
    /// Read or decode failures: the record the fold stopped at (a missing
    /// log is not a failure). A non-empty list alongside `Some(state)`
    /// means recovery fell back past a torn or corrupt newest generation.
    pub rejected: Vec<(PathBuf, CheckpointError)>,
}

impl CheckpointStore {
    /// A store rooted at `dir` for the named tenant. Tenant names are
    /// sanitized into filenames (non-alphanumeric bytes become `_`).
    pub fn new(dir: impl Into<PathBuf>, tenant: &str) -> CheckpointStore {
        let safe: String = tenant
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '_' })
            .collect();
        CheckpointStore { dir: dir.into(), tenant: safe }
    }

    /// The tenant's generation log.
    #[must_use]
    pub fn log_path(&self) -> PathBuf {
        self.dir.join(format!("{}.log", self.tenant))
    }

    fn tmp_path(&self) -> PathBuf {
        self.log_path().with_extension("log.tmp")
    }

    /// Removes the log (and a stray temp file) — a fresh daemon bind
    /// clears stale generations so they can never leak into a later
    /// recovery.
    ///
    /// # Errors
    ///
    /// Filesystem errors other than not-found.
    pub fn reset(&self) -> Result<(), CheckpointError> {
        for p in [self.log_path(), self.tmp_path()] {
            match std::fs::remove_file(&p) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(CheckpointError::Io(e)),
            }
        }
        Ok(())
    }

    /// Replaces the log with one base record holding `state`: encode,
    /// write to a temp file, fsync, atomically rename over the log.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failure; the previous log is
    /// untouched in that case.
    pub fn write(&self, state: &PipelineState) -> Result<(), CheckpointError> {
        self.replace(&encode_state(state))
    }

    /// Atomically replaces the log with `record`.
    pub(crate) fn replace(&self, record: &[u8]) -> Result<(), CheckpointError> {
        std::fs::create_dir_all(&self.dir)?;
        let tmp = self.tmp_path();
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(record)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.log_path())?;
        Ok(())
    }

    /// Appends `record` to an existing log and fsyncs it. A missing log is
    /// an error: a delta without its base could never be folded.
    pub(crate) fn append(&self, record: &[u8]) -> Result<(), CheckpointError> {
        let mut f = std::fs::OpenOptions::new().append(true).open(self.log_path())?;
        f.write_all(record)?;
        f.sync_data()?;
        Ok(())
    }

    /// Appends the first half of `record` — the chaos harness's simulation
    /// of a crash midway through an append that still reached the disk.
    /// Recovery must reject the torn record and fall back one generation.
    pub(crate) fn append_torn(&self, record: &[u8]) -> Result<(), CheckpointError> {
        std::fs::create_dir_all(&self.dir)?;
        let mut f = std::fs::OpenOptions::new().append(true).create(true).open(self.log_path())?;
        f.write_all(&record[..record.len() / 2])?;
        f.sync_data()?;
        Ok(())
    }

    /// Folds the log and returns its newest valid generation along with
    /// the record the fold stopped at, if any. Never errors and never
    /// panics: a missing directory or a log whose first record is bad
    /// simply yields `state: None`.
    #[must_use]
    pub fn load_newest(&self) -> LoadOutcome {
        let path = self.log_path();
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return LoadOutcome::default(),
            Err(e) => {
                return LoadOutcome { state: None, rejected: vec![(path, CheckpointError::Io(e))] }
            }
        };
        let fold = fold_log(&bytes);
        LoadOutcome {
            state: fold.state,
            rejected: fold.error.map(|e| (path, e)).into_iter().collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic kill-point chaos harness
// ---------------------------------------------------------------------------

/// A crash-relevant boundary in the tenant pipeline. The `usize` is the
/// global bin index the pipeline is closing or checkpointing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// At the entry of `close_bin` for the given bin, before any state
    /// changes — the last checkpoint predates this bin entirely.
    BeforeBinClose(usize),
    /// After the bin closed but before its checkpoint was written — the
    /// durable state is one generation behind the in-memory state.
    BeforeCheckpoint(usize),
    /// A torn checkpoint: the first half of this generation's record is
    /// appended to the log, then the process dies — recovery must reject
    /// the torn record and fall back to the previous generation.
    TornCheckpoint(usize),
    /// Immediately after the checkpoint for this bin was durably written.
    AfterCheckpoint(usize),
    /// At the entry of the final flush, after all frames were consumed.
    BeforeFlush,
}

/// How the injected failure presents to the supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// Simulated process death: the worker stops on the spot, nothing is
    /// flushed, nothing restarts — the run ends and only
    /// [`Daemon::recover`](crate::Daemon::recover) can continue it.
    Kill,
    /// An ordinary worker panic: the supervisor's restart/quarantine
    /// policy applies.
    Panic,
}

/// One injection rule: fire `kind` at `point`, once or every time.
#[derive(Debug)]
struct CrashRule {
    point: CrashPoint,
    kind: CrashKind,
    repeat: bool,
    fired: AtomicBool,
}

/// Deterministic failure-injection schedule, shared (via `Arc`) between a
/// tenant's successive worker incarnations so one-shot rules stay
/// consumed across restarts.
#[derive(Debug, Default)]
pub struct CrashSchedule {
    rules: Vec<CrashRule>,
}

impl CrashSchedule {
    /// A schedule that fires each `(point, kind)` once, in any order — for
    /// runs that must survive more than one failure.
    #[must_use]
    pub fn one_shots(rules: &[(CrashPoint, CrashKind)]) -> Arc<CrashSchedule> {
        let rules = rules
            .iter()
            .map(|&(point, kind)| CrashRule {
                point,
                kind,
                repeat: false,
                fired: AtomicBool::new(false),
            })
            .collect();
        Arc::new(CrashSchedule { rules })
    }

    /// A schedule that kills the process at one crash point, once.
    #[must_use]
    pub fn kill_at(point: CrashPoint) -> Arc<CrashSchedule> {
        Self::one_shots(&[(point, CrashKind::Kill)])
    }

    /// A schedule that panics the worker at one crash point, once.
    #[must_use]
    pub fn panic_at(point: CrashPoint) -> Arc<CrashSchedule> {
        Self::one_shots(&[(point, CrashKind::Panic)])
    }

    /// A schedule that panics the worker *every* time it reaches the
    /// crash point — the quarantine-policy exerciser.
    #[must_use]
    pub fn panic_always_at(point: CrashPoint) -> Arc<CrashSchedule> {
        Arc::new(CrashSchedule {
            rules: vec![CrashRule {
                point,
                kind: CrashKind::Panic,
                repeat: true,
                fired: AtomicBool::new(false),
            }],
        })
    }

    /// Consumes a matching rule at this boundary, returning the failure
    /// kind to inject, or `None` to proceed normally.
    pub fn fire(&self, point: CrashPoint) -> Option<CrashKind> {
        for rule in &self.rules {
            if rule.point == point && (rule.repeat || !rule.fired.swap(true, Ordering::SeqCst)) {
                return Some(rule.kind);
            }
        }
        None
    }
}

/// The panic payload carried by an injected crash; the supervisor
/// downcasts for it to distinguish simulated process death from ordinary
/// worker panics.
#[derive(Debug, Clone, Copy)]
pub struct CrashPayload {
    /// Where the failure fired.
    pub point: CrashPoint,
    /// Kill (no restart) or panic (restartable).
    pub kind: CrashKind,
}

/// Raises an injected crash as a panic carrying [`CrashPayload`]. Only
/// the chaos harness unwinds through here; the supervision boundary in
/// the daemon catches it.
pub(crate) fn trigger_crash(point: CrashPoint, kind: CrashKind) -> ! {
    // lint:allow(no-panic-in-ingest) -- the deterministic chaos-injection point: this unwind is thrown on purpose and caught at the audited supervision boundary in daemon.rs
    panic_any(CrashPayload { point, kind })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        // CARGO_TARGET_TMPDIR exists only for integration tests; unit
        // tests park scratch dirs under the workspace target/ instead.
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp")
            .join(format!("ckpt_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(p: u16) -> FlowKey {
        FlowKey::new(
            IpAddr::from_octets(10, 0, 0, 1),
            IpAddr::from_octets(10, 16, 0, 2),
            p,
            80,
            Protocol::Tcp,
        )
    }

    fn sample_state(seq: u64) -> PipelineState {
        PipelineState {
            seq,
            frames_ingested: 1234,
            next_close: 7,
            watermark_secs: 2100,
            shard: ShardState {
                bytes: vec![1.5, 0.0, 2.25, 3.5],
                packets: vec![1.0, 0.0, 2.0, 3.0],
                flows: vec![1.0, 0.0, 1.0, 2.0],
                distinct: vec![
                    vec![key(1000)],
                    vec![],
                    vec![key(1001)],
                    vec![key(1002), key(1003)],
                ],
                bin_records: vec![2, 3],
                records_accepted: 5,
                resolution: ResolutionStats {
                    flows_total: 9,
                    flows_resolved: 5,
                    bytes_total: 900,
                    bytes_resolved: 500,
                    transit_skipped: 2,
                },
                dropped_out_of_window: 1,
            },
            quarantine: QuarantineStats {
                frames_offered: 40,
                frames_accepted: 39,
                wrong_version: 1,
                records_offered: 100,
                records_accepted: 99,
                implausible_records: 1,
                ..QuarantineStats::default()
            },
            exporters: vec![(
                3,
                ExporterSeqState {
                    frames: 40,
                    records: 99,
                    lost_flows: 30,
                    sampling_lo: 100,
                    sampling_hi: 100,
                    next_seq: Some(140),
                    last: Some((110, 30)),
                    ..ExporterSeqState::default()
                },
            )],
            detector: Some(DetectorState {
                config: SubspaceConfig::default(),
                model: ModelState {
                    decomp: EigenflowDecomposition {
                        eigenflows: Matrix::from_vec(3, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
                            .unwrap(),
                        loadings: Matrix::from_vec(2, 2, vec![0.7, 0.8, 0.9, 1.0]).unwrap(),
                        singular_values: vec![5.0, 1.0],
                        centering: Centering { means: vec![1.0, 2.0], scales: vec![1.0, 1.0] },
                        n: 3,
                        total_energy: 26.0,
                        truncated: false,
                    },
                    config: SubspaceConfig::default(),
                    p: 2,
                    spe_threshold: 0.5,
                    t2_threshold: 9.9,
                    degenerate_residual: false,
                },
                window: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
                window_len: 2,
                refit_every: 0,
                since_refit: 1,
                next_bin: 4,
            }),
            live_verdicts: vec![
                StreamVerdict {
                    bin: 0,
                    spe: 0.25,
                    t2: 1.5,
                    detections: vec![Detection {
                        bin: 0,
                        kind: StatisticKind::Spe,
                        value: 0.25,
                        threshold: 0.2,
                    }],
                    degraded: None,
                },
                StreamVerdict {
                    bin: 1,
                    spe: 0.0,
                    t2: 0.0,
                    detections: vec![],
                    degraded: Some(DegradedReason::MaskedBin),
                },
                StreamVerdict {
                    bin: 2,
                    spe: 0.125,
                    t2: 0.75,
                    detections: vec![],
                    degraded: Some(DegradedReason::WidenedThreshold { imputed_fraction: 0.25 }),
                },
            ],
        }
    }

    /// The delta that turns `sample_state(seq - 1)` into generation `seq`:
    /// bin 1 changed, one clean verdict, one window row.
    fn sample_delta(seq: u64) -> Generation {
        let head =
            GenerationHead { seq, records_accepted: 6, ..GenerationHead::of(&sample_state(0)) };
        Generation {
            base: false,
            head,
            exporters: sample_state(0).exporters,
            bins: vec![(
                1,
                BinState {
                    records: 4,
                    bytes: vec![2.5, 3.5],
                    packets: vec![2.0, 3.0],
                    flows: vec![2.0, 2.0],
                    distinct: vec![vec![key(1001), key(1004)], vec![key(1002), key(1003)]],
                },
            )],
            verdicts: vec![StreamVerdict {
                bin: 3,
                spe: 0.5,
                t2: 0.5,
                detections: vec![],
                degraded: None,
            }],
            detector: DetectorDelta::Rows {
                rows: vec![vec![5.0, 6.0]],
                since_refit: 2,
                next_bin: 5,
            },
        }
    }

    #[test]
    fn roundtrip_is_byte_stable() {
        let state = sample_state(5);
        let bytes = encode_state(&state);
        let decoded = decode_state(&bytes).unwrap();
        // Canonical codec: re-encoding the decoded state reproduces the
        // exact bytes, so round-trip identity holds for every component.
        assert_eq!(encode_state(&decoded), bytes);
        assert_eq!(decoded.seq, 5);
        assert_eq!(decoded.frames_ingested, 1234);
        assert_eq!(decoded.shard, state.shard);
        assert_eq!(decoded.quarantine, state.quarantine);
        assert_eq!(decoded.exporters, state.exporters);
        assert_eq!(decoded.live_verdicts.len(), 3);
    }

    #[test]
    fn legacy_dense_method_tag_decodes_as_tridiagonal() {
        // A v2 log written before the dense solvers were unified carries
        // tag 1 in its SubspaceConfig; it must still decode (onto the one
        // dense solver), and re-encoding writes tag 2.
        let mut bytes = 4u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&0.001f64.to_bits().to_le_bytes());
        bytes.push(1);
        let mut d = Dec::new(&bytes);
        let config = dec_subspace_config(&mut d).unwrap();
        assert_eq!(d.remaining(), 0);
        assert_eq!(config.k, 4);
        assert_eq!(config.alpha.to_bits(), 0.001f64.to_bits());
        assert_eq!(config.method, EigenMethod::DenseTridiagonal);
        let mut e = Enc::new();
        enc_subspace_config(&mut e, config);
        assert_eq!(e.buf[..bytes.len() - 1], bytes[..bytes.len() - 1]);
        assert_eq!(e.buf.last(), Some(&2));
    }

    #[test]
    fn empty_detector_roundtrip() {
        let mut state = sample_state(0);
        state.detector = None;
        state.live_verdicts.clear();
        let bytes = encode_state(&state);
        let decoded = decode_state(&bytes).unwrap();
        assert!(decoded.detector.is_none());
        assert_eq!(encode_state(&decoded), bytes);
    }

    #[test]
    fn delta_fold_patches_bins_verdicts_and_window() {
        let mut log = encode_state(&sample_state(0));
        let delta = encode_generation(&sample_delta(1));
        assert_eq!(decode_generation(&delta).unwrap().1, delta.len());
        log.extend_from_slice(&delta);
        let fold = fold_log(&log);
        assert!(fold.error.is_none());
        assert_eq!(fold.spans.len(), 2);

        // The same generation, built by hand as a full snapshot.
        let mut want = sample_state(1);
        want.shard.records_accepted = 6;
        want.shard.bytes[2..].copy_from_slice(&[2.5, 3.5]);
        want.shard.packets[2..].copy_from_slice(&[2.0, 3.0]);
        want.shard.flows[2..].copy_from_slice(&[2.0, 2.0]);
        want.shard.distinct[2] = vec![key(1001), key(1004)];
        want.shard.bin_records[1] = 4;
        want.live_verdicts.push(sample_delta(1).verdicts.remove(0));
        let det = want.detector.as_mut().unwrap();
        det.window = vec![vec![3.0, 4.0], vec![5.0, 6.0]]; // trimmed to window_len 2
        det.since_refit = 2;
        det.next_bin = 5;
        assert_eq!(encode_state(&fold.state.unwrap()), encode_state(&want));
    }

    #[test]
    fn fold_stops_at_records_that_do_not_follow_on() {
        let base = encode_state(&sample_state(0));
        // A delta with no base, one that skips a generation, and detector
        // rows with no detector are all rejected.
        let orphan = fold_log(&encode_generation(&sample_delta(1)));
        assert!(orphan.state.is_none());
        assert!(matches!(orphan.error, Some(CheckpointError::Corrupt(_))));

        let mut gap = base.clone();
        gap.extend_from_slice(&encode_generation(&sample_delta(2)));
        let fold = fold_log(&gap);
        assert_eq!(fold.state.unwrap().seq, 0, "a skipped generation is not folded");
        assert!(matches!(fold.error, Some(CheckpointError::Corrupt(_))));

        let mut bare = sample_state(0);
        bare.detector = None;
        let mut no_det = encode_state(&bare);
        no_det.extend_from_slice(&encode_generation(&sample_delta(1)));
        assert!(fold_log(&no_det).error.is_some());

        // A bin outside the window is rejected before anything is applied.
        let mut wide = sample_delta(1);
        wide.bins[0].0 = 2;
        let mut log = base.clone();
        log.extend_from_slice(&encode_generation(&wide));
        let fold = fold_log(&log);
        assert_eq!(encode_state(&fold.state.unwrap()), base);

        // A base record mid-log restarts the fold.
        let mut rebased = gap;
        rebased.extend_from_slice(&encode_state(&sample_state(9)));
        assert_eq!(fold_log(&rebased).spans.len(), 1, "the fold already stopped at the gap");
        let mut fresh = base;
        fresh.extend_from_slice(&encode_state(&sample_state(9)));
        assert_eq!(fold_log(&fresh).state.unwrap().seq, 9);
    }

    #[test]
    fn header_corruptions_classified() {
        let good = encode_state(&sample_state(1));
        assert!(matches!(decode_state(&[]), Err(CheckpointError::Truncated { .. })));
        assert!(matches!(decode_state(b"NOTCKPT\0rest"), Err(CheckpointError::BadMagic)));

        let mut wrong_version = good.clone();
        wrong_version[8] = 99;
        assert!(matches!(decode_state(&wrong_version), Err(CheckpointError::BadVersion(99))));

        // Truncation anywhere in the payload is caught by length/checksum.
        assert!(decode_state(&good[..good.len() - 3]).is_err());

        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(decode_state(&flipped), Err(CheckpointError::BadChecksum { .. })));

        let mut trailing = good;
        trailing.push(0);
        assert!(matches!(decode_state(&trailing), Err(CheckpointError::Corrupt(_))));
        assert!(matches!(
            decode_state(&encode_generation(&sample_delta(1))),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn byte_soup_never_panics_and_never_overallocates() {
        // A declared length of u64::MAX must be rejected by the
        // bytes-present guard, not attempted as an allocation.
        let mut evil = Vec::new();
        evil.extend_from_slice(&CHECKPOINT_MAGIC);
        evil.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        let payload = u64::MAX.to_le_bytes(); // one absurd length field
        evil.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        evil.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        evil.extend_from_slice(&payload);
        assert!(decode_state(&evil).is_err());

        // A checksummed base record declaring a huge window but listing
        // one narrow bin is rejected before any window-sized allocation.
        let mut huge = sample_state(0);
        huge.shard.bin_records.truncate(1);
        let mut g = decode_generation(&encode_state(&huge)).unwrap().0;
        g.head.num_od = u64::MAX / 2;
        g.head.num_bins = 1;
        assert!(decode_state(&encode_generation(&g)).is_err());

        // Deterministic byte soup of many lengths.
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for len in [0usize, 1, 7, 8, 20, 28, 64, 300] {
            let mut soup = Vec::with_capacity(len);
            for _ in 0..len {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                soup.push(x as u8);
            }
            assert!(decode_state(&soup).is_err(), "soup of len {len} must be rejected");
            assert!(fold_log(&soup).state.is_none());
        }
    }

    /// The store's claims (the name predates the log): the newest valid
    /// generation wins, a corrupt newest generation falls back to the
    /// previous one, a torn write is rejected, a later good write heals
    /// the store, and reset clears it.
    #[test]
    fn store_alternates_slots_and_falls_back_past_corruption() {
        let dir = tmp_dir("slots");
        let store = CheckpointStore::new(&dir, "abilene");
        assert!(store.load_newest().state.is_none(), "empty dir loads nothing");
        assert!(store.append(&encode_generation(&sample_delta(1))).is_err(), "no base to extend");

        store.write(&sample_state(0)).unwrap();
        store.append(&encode_generation(&sample_delta(1))).unwrap();
        let mut second = sample_delta(2);
        second.detector = DetectorDelta::Full(Box::new(sample_state(0).detector.unwrap()));
        store.append(&encode_generation(&second)).unwrap();
        assert_eq!(store.load_newest().state.unwrap().seq, 2);

        // Corrupt the newest generation: recovery must fall back to seq 1
        // and report the rejected record.
        let log = store.log_path();
        let mut bytes = std::fs::read(&log).unwrap();
        let newest = fold_log(&bytes).spans[2].clone();
        bytes[(newest.start + newest.end) / 2] ^= 0xFF;
        std::fs::write(&log, &bytes).unwrap();
        let out = store.load_newest();
        assert_eq!(out.state.unwrap().seq, 1, "falls back to previous generation");
        assert_eq!(out.rejected.len(), 1);
        assert!(matches!(out.rejected[0].1, CheckpointError::BadChecksum { .. }));

        // A torn append behind it changes nothing: the fold already stops
        // at the corrupt record, and still nothing panics.
        store.append_torn(&encode_generation(&sample_delta(3))).unwrap();
        let out = store.load_newest();
        assert_eq!(out.state.unwrap().seq, 1);
        assert_eq!(out.rejected.len(), 1);
        // A subsequent base write replaces the log and makes it healthy.
        store.write(&sample_state(4)).unwrap();
        let out = store.load_newest();
        assert_eq!(out.state.unwrap().seq, 4);
        assert!(out.rejected.is_empty());

        // A torn tail alone falls back exactly one generation.
        store.append_torn(&encode_generation(&sample_delta(5))).unwrap();
        let out = store.load_newest();
        assert_eq!(out.state.unwrap().seq, 4);
        assert!(matches!(out.rejected[0].1, CheckpointError::Truncated { .. }));

        // Reset clears every generation.
        store.reset().unwrap();
        assert!(store.load_newest().state.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_v1_slot_file_is_rejected_with_bad_version() {
        // A version-1 slot image: same header layout, version 1.
        let payload = b"a v1 full snapshot".to_vec();
        let mut v1 = Vec::new();
        v1.extend_from_slice(&CHECKPOINT_MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        v1.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        v1.extend_from_slice(&payload);
        assert!(matches!(decode_state(&v1), Err(CheckpointError::BadVersion(1))));

        let dir = tmp_dir("v1");
        let store = CheckpointStore::new(&dir, "abilene");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("abilene.a.ckpt"), &v1).unwrap();
        assert!(store.load_newest().state.is_none(), "slot files are not the log");
        std::fs::write(store.log_path(), &v1).unwrap();
        let out = store.load_newest();
        assert!(out.state.is_none());
        assert!(matches!(out.rejected[0].1, CheckpointError::BadVersion(1)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Folding each generation's detector delta onto the previous
    /// generation reproduces the live detector exactly — through clean,
    /// anomalous and refit bins — and only a refit sends it whole.
    #[test]
    fn detector_delta_folds_to_the_live_detector() {
        let row = |i: usize| -> Vec<f64> {
            (0..3).map(|j| 10.0 + ((i * 7 + j * 3) % 5) as f64 + j as f64).collect()
        };
        let train: Vec<f64> = (0..8).flat_map(row).collect();
        let config = SubspaceConfig { k: 1, ..SubspaceConfig::default() };
        let mut live =
            OnlineDetector::new(&Matrix::from_vec(8, 3, train).unwrap(), config, 3).unwrap();
        let mut state = sample_state(0);
        state.shard = ShardState::default();
        state.live_verdicts.clear();
        state.detector = Some(live.export_state());
        let mut mark = LogMark::new(&[], 0, Some(&live));
        let (mut rows_sent, mut full_sent) = (0, 0);
        for i in 0..12 {
            let mut x = row(i + 8);
            if i % 4 == 1 {
                x[0] *= 1e3; // anomalous: scored, kept out of the window
            }
            let verdict = live.push(&x).unwrap();
            let detector = mark.detector_delta(Some(&live), std::slice::from_ref(&verdict));
            match &detector {
                DetectorDelta::Rows { .. } => rows_sent += 1,
                DetectorDelta::Full(_) => full_sent += 1,
                DetectorDelta::Absent => panic!("a fitted detector is never absent"),
            }
            let delta = Generation {
                base: false,
                head: GenerationHead { seq: state.seq + 1, ..GenerationHead::of(&state) },
                exporters: state.exporters.clone(),
                bins: Vec::new(),
                verdicts: vec![verdict],
                detector,
            };
            let mut log = encode_state(&state);
            log.extend_from_slice(&encode_generation(&delta));
            state = fold_log(&log).state.unwrap();
            let mut want = state.clone();
            want.detector = Some(live.export_state());
            assert_eq!(encode_state(&state), encode_state(&want), "after push {i}");
            mark = LogMark::new(&[], 0, Some(&live));
        }
        assert!(rows_sent > 0 && full_sent > 0, "rows {rows_sent}, whole {full_sent}");
        assert!(matches!(mark.detector_delta(None, &[]), DetectorDelta::Absent));
        mark.forget_detector();
        assert!(matches!(mark.detector_delta(Some(&live), &[]), DetectorDelta::Full(_)));
        assert_eq!(mark.changed_bins(&[]).count(), 0);
        let counts = LogMark::new(&[2, 3], 0, None);
        assert_eq!(counts.changed_bins(&[2, 4]).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn crash_schedule_consumes_one_shot_rules() {
        let s = CrashSchedule::kill_at(CrashPoint::AfterCheckpoint(7));
        assert!(s.fire(CrashPoint::BeforeFlush).is_none());
        assert!(s.fire(CrashPoint::AfterCheckpoint(6)).is_none());
        assert_eq!(s.fire(CrashPoint::AfterCheckpoint(7)), Some(CrashKind::Kill));
        assert!(s.fire(CrashPoint::AfterCheckpoint(7)).is_none(), "one-shot rule consumed");

        let p = CrashSchedule::panic_always_at(CrashPoint::BeforeBinClose(3));
        assert_eq!(p.fire(CrashPoint::BeforeBinClose(3)), Some(CrashKind::Panic));
        assert_eq!(p.fire(CrashPoint::BeforeBinClose(3)), Some(CrashKind::Panic));

        let two = CrashSchedule::one_shots(&[
            (CrashPoint::BeforeBinClose(2), CrashKind::Panic),
            (CrashPoint::AfterCheckpoint(5), CrashKind::Kill),
        ]);
        assert_eq!(two.fire(CrashPoint::BeforeBinClose(2)), Some(CrashKind::Panic));
        assert!(two.fire(CrashPoint::BeforeBinClose(2)).is_none());
        assert_eq!(two.fire(CrashPoint::AfterCheckpoint(5)), Some(CrashKind::Kill));
    }

    #[test]
    fn error_display_is_informative() {
        let e = CheckpointError::Truncated { needed: 10, have: 3 };
        assert!(e.to_string().contains("needed 10"));
        assert!(CheckpointError::BadMagic.to_string().contains("magic"));
        assert!(CheckpointError::BadVersion(9).to_string().contains('9'));
        let c = CheckpointError::BadChecksum { expected: 1, got: 2 };
        assert!(c.to_string().contains("mismatch"));
        assert!(CheckpointError::Corrupt("tag".into()).to_string().contains("tag"));
    }
}
