//! Five-minute OD binning.
//!
//! "To avoid synchronization issues that could have arisen in the data
//! collection procedure, we aggregated these measurements into 5 minute
//! bins" (§2.1). [`OdBinner`] accumulates OD-resolved flow records into the
//! three traffic views — bytes, packets, and *distinct* IP-flow counts — per
//! `(5-minute bin, OD pair)` cell, and finalizes into a
//! [`TrafficMatrixSet`].
//!
//! ## Bin lifecycle: open, then sealed
//!
//! Every bin starts **open**: its cells accept records, and each cell keeps
//! the exact set of distinct 5-tuples behind its flow count (no sketch —
//! cell cardinalities at Abilene scale are modest after 1% sampling).
//! [`OdBinner::seal_bin`] closes a bin for good. Its flow counts are final,
//! its cells' sets are cleared and their allocations handed to a spare pool
//! that the next bin's cells reuse, and a later record for the bin fails
//! with [`FlowError::BinSealed`] rather than being silently miscounted.
//! Once every bin is sealed the pool is freed as well.
//!
//! The batch paths seal each bin as soon as it is rendered, so a shard
//! holds about one bin of distinct sets at a time instead of its whole
//! range. The collector daemon does not seal: its checkpoints persist each
//! bin's sets, so they stay alive until the window is finalized.

use crate::error::{FlowError, Result};
use crate::key::{FlowKey, FlowKeyHashState};
use crate::matrix::{TrafficMatrix, TrafficMatrixSet, TrafficType, BIN_SECS};
use crate::record::FlowRecord;
use odflow_linalg::Matrix;
use std::collections::HashSet;

/// The distinct 5-tuples of one `(bin, OD)` cell.
type FlowKeySet = HashSet<FlowKey, FlowKeyHashState>;

/// Accumulates resolved flow records into `(bin, OD)` cells.
///
/// The observation window `[start_secs, start_secs + num_bins * bin_secs)`
/// is fixed at construction; records outside it are rejected so silent
/// misalignment cannot corrupt a matrix.
#[derive(Debug)]
pub struct OdBinner {
    start_secs: u64,
    bin_secs: u64,
    num_bins: usize,
    num_od: usize,
    bytes: Vec<f64>,
    packets: Vec<f64>,
    flows: Vec<f64>,
    /// Distinct 5-tuples per cell; empty (and unallocated) once the cell's
    /// bin is sealed.
    distinct: Vec<FlowKeySet>,
    /// Per bin: `true` once sealed.
    sealed: Vec<bool>,
    /// Number of bins not yet sealed.
    open_bins: usize,
    /// Cleared sets of sealed bins, reused by the cells of open bins.
    spare: Vec<FlowKeySet>,
    hash_state: FlowKeyHashState,
    /// Records accepted per bin — the raw signal behind the
    /// [`DataQuality`](crate::DataQuality) outage/masking repair.
    bin_records: Vec<u64>,
    records_accepted: u64,
}

impl OdBinner {
    /// Creates a binner for a window of `num_bins` bins of `bin_secs`
    /// seconds (use [`BIN_SECS`] for the paper's 5 minutes) starting at
    /// `start_secs`, over `num_od` OD pairs.
    ///
    /// # Errors
    ///
    /// [`FlowError::InvalidBinWidth`] if `bin_secs == 0`, and
    /// [`FlowError::NoData`] if the window or OD space is empty.
    pub fn new(start_secs: u64, bin_secs: u64, num_bins: usize, num_od: usize) -> Result<Self> {
        Self::with_hash_state(start_secs, bin_secs, num_bins, num_od, FlowKeyHashState::new())
    }

    /// [`Self::new`] with explicit hash keys for the distinct sets. Only
    /// the sets' layout depends on them; counts and exports do not.
    pub(crate) fn with_hash_state(
        start_secs: u64,
        bin_secs: u64,
        num_bins: usize,
        num_od: usize,
        hash_state: FlowKeyHashState,
    ) -> Result<Self> {
        if bin_secs == 0 {
            return Err(FlowError::InvalidBinWidth { width_secs: 0 });
        }
        if num_bins == 0 || num_od == 0 {
            return Err(FlowError::NoData);
        }
        let cells = num_bins * num_od;
        Ok(OdBinner {
            start_secs,
            bin_secs,
            num_bins,
            num_od,
            bytes: vec![0.0; cells],
            packets: vec![0.0; cells],
            flows: vec![0.0; cells],
            distinct: vec![HashSet::with_hasher(hash_state); cells],
            sealed: vec![false; num_bins],
            open_bins: num_bins,
            spare: Vec::new(),
            hash_state,
            bin_records: vec![0; num_bins],
            records_accepted: 0,
        })
    }

    /// Convenience constructor with the paper's 5-minute bins.
    pub fn with_default_bins(start_secs: u64, num_bins: usize, num_od: usize) -> Result<Self> {
        Self::new(start_secs, BIN_SECS, num_bins, num_od)
    }

    /// The bin index covering timestamp `ts`.
    ///
    /// # Errors
    ///
    /// [`FlowError::TimestampOutOfRange`] outside the window.
    pub fn bin_for(&self, ts: u64) -> Result<usize> {
        let end = self.window_end();
        if ts < self.start_secs || ts >= end {
            return Err(FlowError::TimestampOutOfRange { ts, start: self.start_secs, end });
        }
        Ok(((ts - self.start_secs) / self.bin_secs) as usize)
    }

    fn window_end(&self) -> u64 {
        self.start_secs + self.num_bins as u64 * self.bin_secs
    }

    /// Adds one OD-resolved record to its `(bin, od)` cell.
    ///
    /// # Errors
    ///
    /// * [`FlowError::BadOdIndex`] for an OD index outside the matrix.
    /// * [`FlowError::TimestampOutOfRange`] for records outside the window.
    /// * [`FlowError::BinSealed`] for records of a sealed bin; no cell is
    ///   touched.
    pub fn push(&mut self, od_index: usize, record: &FlowRecord) -> Result<()> {
        if od_index >= self.num_od {
            return Err(FlowError::BadOdIndex { index: od_index, count: self.num_od });
        }
        let bin = self.bin_for(record.window_start)?;
        if self.sealed[bin] {
            return Err(FlowError::BinSealed { bin });
        }
        let cell = bin * self.num_od + od_index;
        self.bytes[cell] += record.bytes as f64;
        self.packets[cell] += record.packets as f64;
        let set = &mut self.distinct[cell];
        if set.capacity() == 0 {
            if let Some(spare) = self.spare.pop() {
                *set = spare;
            }
        }
        // An "IP flow" in a 5-minute bin is a distinct 5-tuple: the same
        // key exported in two 1-minute windows of one bin is one flow.
        if set.insert(record.key) {
            self.flows[cell] += 1.0;
        }
        self.bin_records[bin] += 1;
        self.records_accepted += 1;
        Ok(())
    }

    /// Number of records accepted so far.
    pub fn records_accepted(&self) -> u64 {
        self.records_accepted
    }

    /// Seals bin `bin`: its counts become final, its cells' distinct sets
    /// are cleared into the spare pool for later bins, and any further
    /// record for it fails with [`FlowError::BinSealed`]. Sealing the last
    /// open bin frees the pool. Sealing a sealed bin is a no-op.
    ///
    /// # Errors
    ///
    /// [`FlowError::TimestampOutOfRange`] (for the bin's start time) when
    /// `bin` is outside the window.
    pub fn seal_bin(&mut self, bin: usize) -> Result<()> {
        if bin >= self.num_bins {
            return Err(FlowError::TimestampOutOfRange {
                ts: self.start_secs.saturating_add((bin as u64).saturating_mul(self.bin_secs)),
                start: self.start_secs,
                end: self.window_end(),
            });
        }
        if self.sealed[bin] {
            return Ok(());
        }
        self.sealed[bin] = true;
        self.open_bins -= 1;
        // After the last open bin no cell can take a key again, so its
        // sets and the pool are freed instead of recycled.
        let recycle = self.open_bins > 0;
        for set in &mut self.distinct[bin * self.num_od..(bin + 1) * self.num_od] {
            let mut old = std::mem::replace(set, HashSet::with_hasher(self.hash_state));
            if recycle && old.capacity() > 0 {
                old.clear();
                self.spare.push(old);
            }
        }
        if !recycle {
            self.spare = Vec::new();
        }
        Ok(())
    }

    /// Records accepted into bin `bin` so far, or `None` outside the
    /// window.
    pub fn bin_record_count(&self, bin: usize) -> Option<u64> {
        self.bin_records.get(bin).copied()
    }

    /// The accumulated row of one bin for one traffic view, or `None`
    /// outside the window.
    ///
    /// This is the streaming tap: a long-running collector closes bins as
    /// its export watermark advances and feeds each closed row straight
    /// into an online detector, while the binner keeps accumulating later
    /// bins. Reading a row does not freeze it — the caller decides when a
    /// bin can no longer receive records.
    pub fn bin_row(&self, bin: usize, t: TrafficType) -> Option<&[f64]> {
        if bin >= self.num_bins {
            return None;
        }
        let cells = match t {
            TrafficType::Bytes => &self.bytes,
            TrafficType::Packets => &self.packets,
            TrafficType::Flows => &self.flows,
        };
        cells.get(bin * self.num_od..(bin + 1) * self.num_od)
    }

    /// Number of bins in this binner's window.
    pub fn num_bins(&self) -> usize {
        self.num_bins
    }

    /// Consumes the binner into its raw `(bytes, packets, flows,
    /// bin_records)` cell vectors (row-major `bin x od`; per-bin record
    /// counts), without the non-empty check of [`Self::finalize`] — the
    /// sharded merge concatenates shard rows and applies the emptiness
    /// check to the whole window instead.
    pub(crate) fn into_cells(self) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<u64>) {
        (self.bytes, self.packets, self.flows, self.bin_records)
    }

    /// Snapshots the accumulation state into a [`BinnerState`]. Distinct
    /// 5-tuple sets are emitted sorted, so the snapshot is canonical: two
    /// binners that accepted the same records produce identical state
    /// regardless of hash keys and hash-set iteration order. A sealed
    /// bin's sets are gone, so it exports empty ones.
    pub(crate) fn export_state(&self) -> BinnerState {
        let distinct = self
            .distinct
            .iter()
            .map(|set| {
                let mut keys: Vec<FlowKey> = set.iter().copied().collect();
                keys.sort_unstable();
                keys
            })
            .collect();
        BinnerState {
            bytes: self.bytes.clone(),
            packets: self.packets.clone(),
            flows: self.flows.clone(),
            distinct,
            bin_records: self.bin_records.clone(),
            records_accepted: self.records_accepted,
        }
    }

    /// Records accepted per bin, in bin order.
    pub(crate) fn bin_records(&self) -> &[u64] {
        &self.bin_records
    }

    /// Snapshots one bin's rows, record count, and sorted distinct sets —
    /// the per-bin slice of [`Self::export_state`], or `None` outside the
    /// window.
    pub(crate) fn export_bin(&self, bin: usize) -> Option<BinState> {
        if bin >= self.num_bins {
            return None;
        }
        let cells = bin * self.num_od..(bin + 1) * self.num_od;
        let distinct = self.distinct[cells.clone()]
            .iter()
            .map(|set| {
                let mut keys: Vec<FlowKey> = set.iter().copied().collect();
                keys.sort_unstable();
                keys
            })
            .collect();
        Some(BinState {
            records: self.bin_records[bin],
            bytes: self.bytes[cells.clone()].to_vec(),
            packets: self.packets[cells.clone()].to_vec(),
            flows: self.flows[cells].to_vec(),
            distinct,
        })
    }

    /// Replaces the accumulation state with a snapshot taken from a binner
    /// of identical geometry. The distinct sets are rebuilt by insertion —
    /// set membership is all [`Self::push`] ever consults, so restored
    /// accumulation is bit-identical to the original. Every bin is open
    /// afterwards.
    ///
    /// # Errors
    ///
    /// [`FlowError::Codec`] when the snapshot's shape does not match this
    /// binner's `(num_bins, num_od)` geometry.
    pub(crate) fn restore_state(&mut self, state: &BinnerState) -> Result<()> {
        let cells = self.num_bins * self.num_od;
        let shape_ok = state.bytes.len() == cells
            && state.packets.len() == cells
            && state.flows.len() == cells
            && state.distinct.len() == cells
            && state.bin_records.len() == self.num_bins;
        if !shape_ok {
            return Err(FlowError::Codec {
                reason: format!(
                    "binner snapshot shape mismatch: {} cells expected, got {}/{}/{}/{} and {} bins",
                    cells,
                    state.bytes.len(),
                    state.packets.len(),
                    state.flows.len(),
                    state.distinct.len(),
                    state.bin_records.len()
                ),
            });
        }
        self.bytes = state.bytes.clone();
        self.packets = state.packets.clone();
        self.flows = state.flows.clone();
        self.distinct = state
            .distinct
            .iter()
            .map(|keys| {
                let mut set = HashSet::with_capacity_and_hasher(keys.len(), self.hash_state);
                set.extend(keys.iter().copied());
                set
            })
            .collect();
        self.sealed.fill(false);
        self.open_bins = self.num_bins;
        self.spare.clear();
        self.bin_records = state.bin_records.clone();
        self.records_accepted = state.records_accepted;
        Ok(())
    }

    /// Finalizes into the three aligned traffic matrices.
    ///
    /// # Errors
    ///
    /// [`FlowError::NoData`] if no records were ever accepted.
    pub fn finalize(self) -> Result<TrafficMatrixSet> {
        if self.records_accepted == 0 {
            return Err(FlowError::NoData);
        }
        let start_secs = self.start_secs;
        let bin_secs = self.bin_secs;
        let (num_bins, num_od) = (self.num_bins, self.num_od);
        let build = |t: TrafficType, data: Vec<f64>| -> Result<TrafficMatrix> {
            Ok(TrafficMatrix {
                traffic_type: t,
                start_secs,
                bin_secs,
                data: Matrix::from_vec(num_bins, num_od, data)
                    .map_err(|e| FlowError::Codec { reason: format!("cell vector shape: {e}") })?,
            })
        };
        Ok(TrafficMatrixSet {
            bytes: build(TrafficType::Bytes, self.bytes)?,
            packets: build(TrafficType::Packets, self.packets)?,
            flows: build(TrafficType::Flows, self.flows)?,
        })
    }
}

/// Raw snapshot of an [`OdBinner`]'s accumulation state. Crate-internal:
/// callers see it flattened into [`crate::ShardState`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BinnerState {
    pub(crate) bytes: Vec<f64>,
    pub(crate) packets: Vec<f64>,
    pub(crate) flows: Vec<f64>,
    /// Distinct 5-tuples per cell, sorted ascending — the canonical order.
    pub(crate) distinct: Vec<Vec<FlowKey>>,
    pub(crate) bin_records: Vec<u64>,
    pub(crate) records_accepted: u64,
}

/// One bin's slice of the accumulation state: its `od`-long byte, packet
/// and flow rows, its record count, and each cell's distinct 5-tuples in
/// sorted (canonical) order. Produced by
/// [`BinShard::export_bin`](crate::BinShard::export_bin) and applied with
/// [`ShardState::restore_bin`](crate::ShardState::restore_bin) — the unit
/// an incremental checkpoint persists when a bin changes.
#[derive(Debug, Clone, PartialEq)]
pub struct BinState {
    /// Records accepted into the bin.
    pub records: u64,
    /// Byte sums, one per OD pair.
    pub bytes: Vec<f64>,
    /// Packet sums, one per OD pair.
    pub packets: Vec<f64>,
    /// Distinct-flow counts, one per OD pair.
    pub flows: Vec<f64>,
    /// Distinct 5-tuples per OD cell, each sorted ascending.
    pub distinct: Vec<Vec<FlowKey>>,
}

impl BinState {
    /// `true` when all four per-cell vectors are `od` long.
    #[must_use]
    pub fn has_width(&self, od: usize) -> bool {
        self.bytes.len() == od
            && self.packets.len() == od
            && self.flows.len() == od
            && self.distinct.len() == od
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::Protocol;
    use odflow_net::IpAddr;

    fn rec(ts: u64, src_port: u16, packets: u64, bytes: u64) -> FlowRecord {
        FlowRecord {
            key: FlowKey::new(
                IpAddr::from_octets(10, 0, 0, 1),
                IpAddr::from_octets(10, 16, 0, 1),
                src_port,
                80,
                Protocol::Tcp,
            ),
            router: 0,
            interface: 0,
            window_start: ts,
            packets,
            bytes,
        }
    }

    #[test]
    fn bins_accumulate_bytes_packets() {
        let mut b = OdBinner::new(0, 300, 2, 4).unwrap();
        b.push(1, &rec(0, 1000, 2, 100)).unwrap();
        b.push(1, &rec(60, 1001, 3, 200)).unwrap();
        b.push(1, &rec(301, 1002, 5, 400)).unwrap();
        let set = b.finalize().unwrap();
        assert_eq!(set.bytes.data[(0, 1)], 300.0);
        assert_eq!(set.packets.data[(0, 1)], 5.0);
        assert_eq!(set.bytes.data[(1, 1)], 400.0);
        assert_eq!(set.flows.data[(0, 1)], 2.0);
        assert_eq!(set.flows.data[(1, 1)], 1.0);
        assert_eq!(set.bytes.data[(0, 0)], 0.0);
    }

    #[test]
    fn same_key_in_one_bin_is_one_flow() {
        let mut b = OdBinner::new(0, 300, 1, 1).unwrap();
        // Same 5-tuple exported for three different minutes of one bin.
        b.push(0, &rec(0, 1000, 1, 10)).unwrap();
        b.push(0, &rec(60, 1000, 1, 10)).unwrap();
        b.push(0, &rec(120, 1000, 1, 10)).unwrap();
        let set = b.finalize().unwrap();
        assert_eq!(set.flows.data[(0, 0)], 1.0, "one distinct 5-tuple = one flow");
        assert_eq!(set.packets.data[(0, 0)], 3.0);
    }

    #[test]
    fn same_key_in_two_bins_counts_twice() {
        let mut b = OdBinner::new(0, 300, 2, 1).unwrap();
        b.push(0, &rec(10, 1000, 1, 10)).unwrap();
        b.push(0, &rec(310, 1000, 1, 10)).unwrap();
        let set = b.finalize().unwrap();
        assert_eq!(set.flows.data[(0, 0)], 1.0);
        assert_eq!(set.flows.data[(1, 0)], 1.0);
    }

    #[test]
    fn rejects_out_of_window_and_bad_od() {
        let mut b = OdBinner::new(1000, 300, 2, 2).unwrap();
        assert!(matches!(
            b.push(0, &rec(999, 1, 1, 1)),
            Err(FlowError::TimestampOutOfRange { .. })
        ));
        assert!(matches!(
            b.push(0, &rec(1600, 1, 1, 1)),
            Err(FlowError::TimestampOutOfRange { .. })
        ));
        assert!(matches!(b.push(5, &rec(1000, 1, 1, 1)), Err(FlowError::BadOdIndex { .. })));
    }

    #[test]
    fn empty_finalize_rejected() {
        let b = OdBinner::new(0, 300, 1, 1).unwrap();
        assert!(matches!(b.finalize(), Err(FlowError::NoData)));
    }

    #[test]
    fn invalid_construction_rejected() {
        assert!(OdBinner::new(0, 0, 1, 1).is_err());
        assert!(OdBinner::new(0, 300, 0, 1).is_err());
        assert!(OdBinner::new(0, 300, 1, 0).is_err());
    }

    #[test]
    fn state_roundtrip_resumes_bit_identically() {
        // Fill a binner halfway, snapshot, keep filling; restore the
        // snapshot into a fresh binner, replay the tail — both must
        // finalize to the same matrices (including distinct-flow dedup
        // across the snapshot boundary).
        let tail = [rec(60, 1000, 1, 10), rec(120, 1003, 2, 50), rec(301, 1000, 4, 70)];
        let mut live = OdBinner::new(0, 300, 2, 3).unwrap();
        live.push(1, &rec(0, 1000, 2, 100)).unwrap();
        live.push(2, &rec(30, 1001, 3, 200)).unwrap();
        let snap = live.export_state();
        assert_eq!(snap.records_accepted, 2);
        for r in &tail {
            live.push(1, r).unwrap();
        }

        let mut restored = OdBinner::new(0, 300, 2, 3).unwrap();
        restored.restore_state(&snap).unwrap();
        for r in &tail {
            restored.push(1, r).unwrap();
        }
        let (a, b) = (live.finalize().unwrap(), restored.finalize().unwrap());
        assert_eq!(a.bytes.data.as_slice(), b.bytes.data.as_slice());
        assert_eq!(a.packets.data.as_slice(), b.packets.data.as_slice());
        assert_eq!(a.flows.data.as_slice(), b.flows.data.as_slice());
    }

    #[test]
    fn state_restore_rejects_shape_mismatch() {
        let small = OdBinner::new(0, 300, 1, 2).unwrap().export_state();
        let mut big = OdBinner::new(0, 300, 2, 2).unwrap();
        assert!(matches!(big.restore_state(&small), Err(FlowError::Codec { .. })));
    }

    #[test]
    fn sealed_bin_rejects_records_and_keeps_counts() {
        let mut b = OdBinner::new(0, 300, 3, 2).unwrap();
        b.push(1, &rec(0, 1000, 2, 100)).unwrap();
        b.push(1, &rec(60, 1001, 3, 200)).unwrap();
        b.seal_bin(0).unwrap();
        b.seal_bin(0).unwrap(); // idempotent
        let rows = |b: &OdBinner| {
            [TrafficType::Bytes, TrafficType::Packets, TrafficType::Flows]
                .map(|t| b.bin_row(0, t).unwrap().to_vec())
        };
        let before = rows(&b);
        // A new key and an already-counted key: both rejected, nothing moves.
        for r in [rec(120, 1002, 1, 10), rec(0, 1000, 1, 10)] {
            assert_eq!(b.push(1, &r), Err(FlowError::BinSealed { bin: 0 }));
        }
        assert_eq!(rows(&b), before);
        assert_eq!(b.bin_record_count(0), Some(2));
        assert_eq!(b.records_accepted(), 2);
        // Later bins stay open; out-of-window bins cannot be sealed.
        b.push(1, &rec(300, 1000, 1, 10)).unwrap();
        assert!(matches!(b.seal_bin(3), Err(FlowError::TimestampOutOfRange { ts: 900, .. })));
        let set = b.finalize().unwrap();
        assert_eq!(set.flows.data[(0, 1)], 2.0);
        assert_eq!(set.bytes.data[(0, 1)], 300.0);
        assert_eq!(set.flows.data[(1, 1)], 1.0);
    }

    #[test]
    fn recycled_sets_start_empty() {
        // The cell's set from bin 0 is cleared into the pool and reused by
        // bin 1: the same key must count as a fresh flow there.
        let mut b = OdBinner::new(0, 300, 3, 1).unwrap();
        b.push(0, &rec(0, 1000, 1, 10)).unwrap();
        b.push(0, &rec(60, 1001, 1, 10)).unwrap();
        b.seal_bin(0).unwrap();
        assert_eq!(b.spare.len(), 1, "bin 0's set waits in the pool");
        b.push(0, &rec(300, 1000, 1, 10)).unwrap();
        assert!(b.spare.is_empty(), "bin 1 reused it");
        b.seal_bin(1).unwrap();
        b.seal_bin(2).unwrap();
        assert!(b.spare.is_empty() && b.distinct.iter().all(|s| s.capacity() == 0));
        let set = b.finalize().unwrap();
        assert_eq!(set.flows.data.as_slice(), &[2.0, 1.0, 0.0]);
    }

    /// A seeded stream over a deliberately small key space: every key
    /// recurs across the minute windows of its bin and across bins, and
    /// `Protocol::Other(6)` shares its packed tuple with `Protocol::Tcp`.
    fn repetitive_stream(seed: u64, bins: u64, od: usize) -> Vec<(usize, FlowRecord)> {
        use rand::Rng;
        use rand_chacha::rand_core::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..4000)
            .map(|_| {
                let protocol = match rng.gen_range(0..4u8) {
                    0 => Protocol::Tcp,
                    1 => Protocol::Other(6),
                    2 => Protocol::Udp,
                    _ => Protocol::Other(17),
                };
                let key = FlowKey::new(
                    IpAddr::from_octets(10, 0, 0, rng.gen_range(0..4u8)),
                    IpAddr::from_octets(10, 16, 0, rng.gen_range(0..4u8)),
                    rng.gen_range(1000..1004u16),
                    80,
                    protocol,
                );
                let ts = rng.gen_range(0..bins) * 300 + rng.gen_range(0..5u64) * 60;
                let record = FlowRecord {
                    key,
                    router: 0,
                    interface: 0,
                    window_start: ts,
                    packets: 1,
                    bytes: rng.gen_range(40..1500u64),
                };
                (rng.gen_range(0..od), record)
            })
            .collect()
    }

    #[test]
    fn distinct_counts_match_btreeset_reference() {
        use std::collections::BTreeSet;
        let (bins, od) = (6usize, 3usize);
        for seed in 0..8u64 {
            let stream = repetitive_stream(seed, bins as u64, od);
            let mut reference = BTreeSet::new();
            for (o, r) in &stream {
                reference.insert(((r.window_start / 300) as usize, *o, r.key));
            }
            let mut expected = vec![0.0; bins * od];
            for &(bin, o, _) in &reference {
                expected[bin * od + o] += 1.0;
            }
            let keys = [FlowKeyHashState::new(), FlowKeyHashState::with_keys(seed, !seed)];
            for hash_state in keys {
                let mut b = OdBinner::with_hash_state(0, 300, bins, od, hash_state).unwrap();
                for (o, r) in &stream {
                    b.push(*o, r).unwrap();
                }
                assert_eq!(b.finalize().unwrap().flows.data.as_slice(), expected.as_slice());
            }
            // Sealing each bin as the (bin-ordered) stream leaves it, so
            // recycled sets carry keys into later bins' cells, counts the
            // same.
            let mut ordered = stream.clone();
            ordered.sort_by_key(|(_, r)| r.window_start / 300);
            let mut b = OdBinner::new(0, 300, bins, od).unwrap();
            let mut open = 0;
            for (o, r) in &ordered {
                let bin = (r.window_start / 300) as usize;
                while open < bin {
                    b.seal_bin(open).unwrap();
                    open += 1;
                }
                b.push(*o, r).unwrap();
            }
            assert_eq!(b.finalize().unwrap().flows.data.as_slice(), expected.as_slice());
        }
    }

    #[test]
    fn hash_keys_do_not_reach_exported_state() {
        let stream = repetitive_stream(42, 4, 3);
        let fill = |seed: u64, fold: u64| {
            let hash_state = FlowKeyHashState::with_keys(seed, fold);
            let mut b = OdBinner::with_hash_state(0, 300, 4, 3, hash_state).unwrap();
            for (o, r) in &stream {
                b.push(*o, r).unwrap();
            }
            b
        };
        let (a, b) = (fill(1, 2), fill(0xDEAD_BEEF, 0x1234_5678_9ABC_DEF1));
        assert_eq!(a.export_state(), b.export_state());
        for bin in 0..4 {
            assert_eq!(a.export_bin(bin), b.export_bin(bin));
        }
        assert!(a.export_state().distinct.iter().any(|keys| keys.len() > 1));
    }

    #[test]
    fn finalized_set_is_aligned() {
        let mut b = OdBinner::with_default_bins(500, 3, 121).unwrap();
        b.push(7, &rec(600, 1, 1, 1)).unwrap();
        let set = b.finalize().unwrap();
        assert!(set.validate().is_ok());
        assert_eq!(set.num_bins(), 3);
        assert_eq!(set.num_od_pairs(), 121);
        assert_eq!(set.bytes.bin_secs, BIN_SECS);
    }
}
