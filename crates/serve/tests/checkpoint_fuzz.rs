//! Property tests for the checkpoint codec and the generation log:
//! decoding is total (arbitrary byte soup and bit-flipped valid records
//! never panic — they are rejected with the right error class), encoding
//! is a bijection on valid states and records (byte-level round-trip
//! identity for every component), and folding a log of a base record
//! plus deltas reproduces the state they describe — falling back to the
//! generation before any flipped or torn record.

use odflow_flow::{
    BinState, ExporterSeqState, FlowKey, Protocol, QuarantineStats, ResolutionStats, ShardState,
};
use odflow_linalg::{Centering, Matrix};
use odflow_net::IpAddr;
use odflow_serve::{
    decode_generation, decode_state, encode_generation, encode_state, fold_log, CheckpointError,
    DetectorDelta, Generation, GenerationHead, PipelineState, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};
use odflow_subspace::{
    DegradedReason, Detection, DetectorState, EigenflowDecomposition, ModelState, StatisticKind,
    StreamVerdict, SubspaceConfig,
};
use proptest::prelude::*;

fn arb_key() -> impl Strategy<Value = FlowKey> {
    (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>(), any::<u8>()).prop_map(
        |(s, d, sp, dp, pr)| FlowKey::new(IpAddr(s), IpAddr(d), sp, dp, Protocol::from_number(pr)),
    )
}

/// Cell values as raw bit patterns, so the round-trip property covers
/// NaNs, infinities, subnormals, and negative zero — the codec carries
/// `f64::to_bits` images, never arithmetic.
fn arb_f64_bits() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

fn arb_exporter() -> impl Strategy<Value = (u8, ExporterSeqState)> {
    (
        any::<u8>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u16>(),
        proptest::option::of(any::<u32>()),
        proptest::option::of((any::<u32>(), any::<u16>())),
    )
        .prop_map(|(id, frames, records, lost_flows, sampling, next_seq, last)| {
            (
                id,
                ExporterSeqState {
                    frames,
                    records,
                    lost_flows,
                    sampling_lo: sampling,
                    sampling_hi: sampling,
                    next_seq,
                    last,
                    ..ExporterSeqState::default()
                },
            )
        })
}

fn arb_verdict() -> impl Strategy<Value = StreamVerdict> {
    (
        0usize..1000,
        arb_f64_bits(),
        arb_f64_bits(),
        proptest::collection::vec((0usize..1000, any::<bool>(), arb_f64_bits()), 0..3),
        0u8..4,
        arb_f64_bits(),
    )
        .prop_map(|(bin, spe, t2, dets, deg, frac)| StreamVerdict {
            bin,
            spe,
            t2,
            detections: dets
                .into_iter()
                .map(|(dbin, is_t2, value)| Detection {
                    bin: dbin,
                    kind: if is_t2 { StatisticKind::T2 } else { StatisticKind::Spe },
                    value,
                    threshold: value,
                })
                .collect(),
            degraded: match deg {
                0 => None,
                1 => Some(DegradedReason::MaskedBin),
                2 => Some(DegradedReason::ImputedBin),
                _ => Some(DegradedReason::WidenedThreshold { imputed_fraction: frac }),
            },
        })
}

/// A full pipeline snapshot with a consistent shard shape (`bins x od`
/// cells), arbitrary float bit patterns, and an optional small detector.
fn arb_state() -> impl Strategy<Value = PipelineState> {
    (1usize..5, 1usize..5).prop_flat_map(|(bins, od)| {
        let cells = bins * od;
        (
            (
                any::<u64>(),
                any::<u64>(),
                0u64..1000,
                any::<u64>(),
                proptest::collection::vec(arb_f64_bits(), cells),
                proptest::collection::vec(arb_f64_bits(), cells),
                proptest::collection::vec(arb_f64_bits(), cells),
                proptest::collection::vec(proptest::collection::vec(arb_key(), 0..3), cells),
                proptest::collection::vec(any::<u64>(), bins),
            ),
            (
                any::<u64>(),
                proptest::collection::vec(any::<u64>(), 9),
                proptest::collection::vec(arb_exporter(), 0..4),
                proptest::collection::vec(arb_verdict(), 0..4),
                any::<bool>(),
                proptest::collection::vec(arb_f64_bits(), 16),
            ),
        )
            .prop_map(
                move |(
                    (
                        seq,
                        frames_ingested,
                        next_close,
                        watermark,
                        bytes,
                        packets,
                        flows,
                        distinct,
                        bin_records,
                    ),
                    (records_accepted, counts, exporters, live_verdicts, with_detector, det_floats),
                )| {
                    PipelineState {
                        seq,
                        frames_ingested,
                        next_close,
                        watermark_secs: watermark,
                        shard: ShardState {
                            bytes,
                            packets,
                            flows,
                            distinct,
                            bin_records,
                            records_accepted,
                            resolution: ResolutionStats {
                                flows_total: counts[0],
                                flows_resolved: counts[1],
                                bytes_total: counts[2],
                                bytes_resolved: counts[3],
                                transit_skipped: counts[4],
                            },
                            dropped_out_of_window: counts[5],
                        },
                        quarantine: QuarantineStats {
                            frames_offered: counts[6],
                            frames_accepted: counts[7],
                            records_offered: counts[8],
                            ..QuarantineStats::default()
                        },
                        exporters,
                        detector: with_detector.then(|| small_detector(&det_floats)),
                        live_verdicts,
                    }
                },
            )
    })
}

/// A structurally valid 2-flow/2-component detector built from 16
/// arbitrary float bit patterns — exercises the model/window codec
/// without needing a real fit.
fn small_detector(f: &[f64]) -> DetectorState {
    DetectorState {
        config: SubspaceConfig::default(),
        model: ModelState {
            decomp: EigenflowDecomposition {
                eigenflows: Matrix::from_vec(2, 2, f[0..4].to_vec()).unwrap(),
                loadings: Matrix::from_vec(2, 2, f[4..8].to_vec()).unwrap(),
                singular_values: f[8..10].to_vec(),
                centering: Centering { means: f[10..12].to_vec(), scales: f[12..14].to_vec() },
                n: 2,
                total_energy: f[14],
                truncated: false,
            },
            config: SubspaceConfig::default(),
            p: 2,
            spe_threshold: f[15],
            t2_threshold: f[0],
            degenerate_residual: false,
        },
        window: vec![f[1..3].to_vec(), f[3..5].to_vec()],
        window_len: 2,
        refit_every: 0,
        since_refit: 1,
        next_bin: 7,
    }
}

/// One bin's state, `od` cells wide.
fn arb_bin(od: usize) -> impl Strategy<Value = BinState> {
    (
        any::<u64>(),
        proptest::collection::vec(arb_f64_bits(), od),
        proptest::collection::vec(arb_f64_bits(), od),
        proptest::collection::vec(arb_f64_bits(), od),
        proptest::collection::vec(proptest::collection::vec(arb_key(), 0..3), od),
    )
        .prop_map(|(records, bytes, packets, flows, distinct)| BinState {
            records,
            bytes,
            packets,
            flows,
            distinct,
        })
}

/// The random parts of one delta record over a `bins x od` window; the
/// generation number follows from the log it is appended to.
#[derive(Debug, Clone)]
struct DeltaSpec {
    bins: Vec<(usize, BinState)>,
    counts: Vec<u64>,
    exporters: Vec<(u8, ExporterSeqState)>,
    verdicts: Vec<StreamVerdict>,
    detector: u8,
    det_floats: Vec<f64>,
    rows: Vec<Vec<f64>>,
}

fn arb_delta(bins: usize, od: usize) -> impl Strategy<Value = DeltaSpec> {
    (
        proptest::collection::vec((0..bins, arb_bin(od)), 0..3),
        proptest::collection::vec(any::<u64>(), 14),
        proptest::collection::vec(arb_exporter(), 0..3),
        proptest::collection::vec(arb_verdict(), 0..3),
        0u8..3,
        proptest::collection::vec(arb_f64_bits(), 16),
        proptest::collection::vec(proptest::collection::vec(arb_f64_bits(), 2), 0..3),
    )
        .prop_map(|(bins, counts, exporters, verdicts, detector, det_floats, rows)| {
            DeltaSpec { bins, counts, exporters, verdicts, detector, det_floats, rows }
        })
}

impl DeltaSpec {
    /// The delta record that follows `prior`.
    fn generation(&self, prior: &PipelineState) -> Generation {
        let c = &self.counts;
        let detector = match (self.detector, &prior.detector) {
            (0, _) => DetectorDelta::Absent,
            (1, _) | (_, None) => DetectorDelta::Full(Box::new(small_detector(&self.det_floats))),
            _ => DetectorDelta::Rows {
                rows: self.rows.clone(),
                since_refit: c[12] as usize,
                next_bin: c[13] as usize,
            },
        };
        Generation {
            base: false,
            head: GenerationHead {
                seq: prior.seq.wrapping_add(1),
                frames_ingested: c[0],
                next_close: c[1],
                watermark_secs: c[2],
                num_bins: prior.shard.bin_records.len() as u64,
                num_od: prior.shard.num_od() as u64,
                records_accepted: c[3],
                resolution: ResolutionStats {
                    flows_total: c[4],
                    flows_resolved: c[5],
                    bytes_total: c[6],
                    bytes_resolved: c[7],
                    transit_skipped: c[8],
                },
                dropped_out_of_window: c[9],
                quarantine: QuarantineStats {
                    frames_offered: c[10],
                    records_offered: c[11],
                    ..QuarantineStats::default()
                },
            },
            exporters: self.exporters.clone(),
            bins: self.bins.iter().map(|(b, s)| (*b as u64, s.clone())).collect(),
            verdicts: self.verdicts.clone(),
            detector,
        }
    }
}

/// The reference fold: applies a delta to a full snapshot field by field,
/// independently of the codec's own fold.
fn apply_by_hand(state: &mut PipelineState, g: &Generation) {
    let h = &g.head;
    state.seq = h.seq;
    state.frames_ingested = h.frames_ingested;
    state.next_close = h.next_close;
    state.watermark_secs = h.watermark_secs;
    state.quarantine = h.quarantine;
    state.exporters.clone_from(&g.exporters);
    let s = &mut state.shard;
    s.records_accepted = h.records_accepted;
    s.resolution = h.resolution;
    s.dropped_out_of_window = h.dropped_out_of_window;
    let od = h.num_od as usize;
    for (b, bin) in &g.bins {
        let at = *b as usize * od;
        s.bytes[at..at + od].copy_from_slice(&bin.bytes);
        s.packets[at..at + od].copy_from_slice(&bin.packets);
        s.flows[at..at + od].copy_from_slice(&bin.flows);
        s.distinct[at..at + od].clone_from_slice(&bin.distinct);
        s.bin_records[*b as usize] = bin.records;
    }
    state.live_verdicts.extend(g.verdicts.iter().cloned());
    match &g.detector {
        DetectorDelta::Absent => state.detector = None,
        DetectorDelta::Full(d) => state.detector = Some(d.as_ref().clone()),
        DetectorDelta::Rows { rows, since_refit, next_bin } => {
            let d = state.detector.as_mut().unwrap();
            for row in rows {
                d.window.push(row.clone());
                if d.window.len() > d.window_len {
                    d.window.remove(0);
                }
            }
            d.since_refit = *since_refit;
            d.next_bin = *next_bin;
        }
    }
}

/// A generation log — a base snapshot plus 1–3 deltas — with each record's
/// bytes and, per generation, the snapshot encoding the log must fold to.
#[derive(Debug, Clone)]
struct LogCase {
    records: Vec<Vec<u8>>,
    expected: Vec<Vec<u8>>,
}

impl LogCase {
    fn bytes(&self) -> Vec<u8> {
        self.records.concat()
    }

    /// The record holding byte `at` of the log.
    fn record_at(&self, at: usize) -> usize {
        let mut end = 0;
        self.records
            .iter()
            .position(|r| {
                end += r.len();
                at < end
            })
            .unwrap()
    }
}

fn arb_log() -> impl Strategy<Value = LogCase> {
    arb_state()
        .prop_flat_map(|base| {
            let (bins, od) = (base.shard.bin_records.len(), base.shard.num_od());
            (Just(base), proptest::collection::vec(arb_delta(bins, od), 1..4))
        })
        .prop_map(|(base, deltas)| {
            let mut records = vec![encode_state(&base)];
            let mut expected = vec![encode_state(&base)];
            let mut state = base;
            for spec in &deltas {
                let g = spec.generation(&state);
                records.push(encode_generation(&g));
                apply_by_hand(&mut state, &g);
                expected.push(encode_state(&state));
            }
            LogCase { records, expected }
        })
}

fn is_typed(err: &CheckpointError) -> bool {
    matches!(
        err,
        CheckpointError::Truncated { .. }
            | CheckpointError::BadMagic
            | CheckpointError::BadVersion(_)
            | CheckpointError::BadChecksum { .. }
            | CheckpointError::Corrupt(_)
    )
}

/// Structural (not semantic) equality of two snapshots, via the
/// canonical encoding — the codec is deterministic, so byte equality of
/// re-encodings is component-wise identity.
fn assert_same_bytes(a: &PipelineState, b: &PipelineState) {
    assert_eq!(encode_state(a), encode_state(b));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary byte soup never panics the decoder and never decodes:
    /// a random prefix can't fake an FNV-checksummed payload.
    #[test]
    fn byte_soup_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        prop_assert!(decode_state(&bytes).is_err());
    }

    /// Byte soup behind a valid header prefix exercises the payload
    /// decoder paths and still must reject (checksum first).
    #[test]
    fn byte_soup_with_magic_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut framed = CHECKPOINT_MAGIC.to_vec();
        framed.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        framed.extend_from_slice(&bytes);
        prop_assert!(decode_state(&framed).is_err());
    }

    /// Every single-bit flip of a valid checkpoint is rejected with a
    /// typed error — never a panic, never a silently-wrong decode.
    #[test]
    fn bit_flips_are_always_detected(
        state in arb_state(),
        flip in any::<proptest::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut bytes = encode_state(&state);
        let at = flip.index(bytes.len());
        bytes[at] ^= 1 << bit;
        let err = decode_state(&bytes).expect_err("flipped checkpoint must be rejected");
        prop_assert!(
            matches!(
                err,
                CheckpointError::Truncated { .. }
                    | CheckpointError::BadMagic
                    | CheckpointError::BadVersion(_)
                    | CheckpointError::BadChecksum { .. }
                    | CheckpointError::Corrupt(_)
            ),
            "unexpected error class: {err}"
        );
    }

    /// Truncation at any point is rejected (torn-write simulation).
    #[test]
    fn truncations_are_always_detected(
        state in arb_state(),
        cut in any::<proptest::sample::Index>(),
    ) {
        let bytes = encode_state(&state);
        let keep = cut.index(bytes.len());
        prop_assert!(decode_state(&bytes[..keep]).is_err());
    }

    /// encode → decode → encode is the identity on bytes, for every
    /// state component including non-finite float bit patterns.
    #[test]
    fn roundtrip_is_identity(state in arb_state()) {
        let bytes = encode_state(&state);
        let decoded = decode_state(&bytes).expect("canonical encoding must decode");
        assert_same_bytes(&state, &decoded);
        // And spot-check the integer components directly, not just via
        // bytes (float-bearing components can't use `==`: the strategies
        // generate NaN bit patterns on purpose).
        prop_assert_eq!(decoded.seq, state.seq);
        prop_assert_eq!(decoded.frames_ingested, state.frames_ingested);
        prop_assert_eq!(decoded.shard.bin_records, state.shard.bin_records);
        prop_assert_eq!(decoded.shard.distinct, state.shard.distinct);
        prop_assert_eq!(decoded.quarantine, state.quarantine);
        prop_assert_eq!(decoded.exporters, state.exporters);
        prop_assert_eq!(decoded.live_verdicts.len(), state.live_verdicts.len());
        prop_assert_eq!(decoded.detector.is_some(), state.detector.is_some());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Byte soup never panics the record decoder or the log fold, and
    /// never folds into a state.
    #[test]
    fn log_byte_soup_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        prop_assert!(decode_generation(&bytes).is_err());
        let fold = fold_log(&bytes);
        prop_assert!(fold.state.is_none());
        prop_assert!(fold.error.as_ref().is_none_or(is_typed));
    }

    /// encode → fold → encode is the identity: every record re-encodes to
    /// its own bytes, and the log folds to the snapshot the deltas
    /// describe, generation by generation.
    #[test]
    fn log_fold_is_the_identity(case in arb_log()) {
        for record in &case.records {
            let (g, used) = decode_generation(record).expect("a valid record decodes");
            prop_assert_eq!(used, record.len());
            prop_assert_eq!(&encode_generation(&g), record);
        }
        let log = case.bytes();
        let mut prefix = Vec::new();
        for (record, want) in case.records.iter().zip(&case.expected) {
            prefix.extend_from_slice(record);
            let fold = fold_log(&prefix);
            prop_assert!(fold.error.is_none(), "unexpected {:?}", fold.error);
            prop_assert_eq!(&encode_state(&fold.state.unwrap()), want);
        }
        prop_assert_eq!(fold_log(&log).spans.len(), case.records.len());
    }

    /// A single bit flip anywhere in the log is rejected with a typed
    /// error, and the fold falls back to the generation before the
    /// flipped record.
    #[test]
    fn log_bit_flips_fall_back_before_the_flipped_record(
        case in arb_log(),
        flip in any::<proptest::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut log = case.bytes();
        let at = flip.index(log.len());
        log[at] ^= 1 << bit;
        let k = case.record_at(at);
        let fold = fold_log(&log);
        prop_assert!(fold.error.as_ref().is_some_and(is_typed), "flip must be rejected");
        prop_assert_eq!(fold.spans.len(), k);
        let got = fold.state.map(|s| encode_state(&s));
        prop_assert_eq!(got.as_ref(), k.checked_sub(1).map(|g| &case.expected[g]));
    }

    /// Truncating the log at every prefix folds exactly the complete
    /// records before the cut; a cut inside a record is a typed error.
    #[test]
    fn log_truncation_at_every_prefix_folds_the_complete_records(case in arb_log()) {
        let log = case.bytes();
        let mut boundaries = vec![0usize];
        for r in &case.records {
            boundaries.push(boundaries.last().unwrap() + r.len());
        }
        for cut in 0..log.len() {
            let complete = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            let fold = fold_log(&log[..cut]);
            prop_assert_eq!(fold.spans.len(), complete);
            prop_assert_eq!(fold.error.is_some(), !boundaries.contains(&cut));
            prop_assert!(fold.error.as_ref().is_none_or(is_typed));
            let got = fold.state.map(|s| encode_state(&s));
            prop_assert_eq!(got.as_ref(), complete.checked_sub(1).map(|g| &case.expected[g]));
        }
    }
}
