//! Sample statistics and the open-loop send schedule.

use std::time::Duration;

/// Nearest-rank quantile of `sorted` (ascending) at `q` in `(0, 1]`: the
/// smallest sample with at least `q` of the samples at or below it.
/// Returns `NaN` for an empty slice.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match rank(sorted.len(), q) {
        Some(r) => sorted[r - 1],
        None => f64::NAN,
    }
}

/// One-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let r = (q * n as f64).ceil() as usize;
    Some(r.clamp(1, n))
}

/// Samples strictly above the nearest-rank quantile `q` of `n` samples.
#[must_use]
pub fn samples_beyond(n: usize, q: f64) -> usize {
    rank(n, q).map_or(0, |r| n - r)
}

/// The highest of `ladder` (ascending quantiles) that leaves at least
/// `min_beyond` samples above it among `n` samples, or `None` when even
/// the lowest does not.
#[must_use]
pub fn highest_quantile(n: usize, ladder: &[f64], min_beyond: usize) -> Option<f64> {
    ladder.iter().rev().copied().find(|&q| samples_beyond(n, q) >= min_beyond)
}

/// Sorts a copy of `values` ascending (NaN-free input assumed).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle two for an even count); `NaN`
/// when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Open-loop due times at a fixed record rate: frame `i` is due once the
/// records of frames `0..i` have gone out at `records_per_s`, so the
/// first frame is due at offset zero and a frame's own size delays only
/// the frames after it.
#[must_use]
pub fn due_offsets(records_per_frame: &[u32], records_per_s: f64) -> Vec<Duration> {
    let mut before = 0u64;
    records_per_frame
        .iter()
        .map(|&n| {
            let due = Duration::from_secs_f64(before as f64 / records_per_s);
            before += u64::from(n);
            due
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_cumulative_records() {
        let due = due_offsets(&[10, 30, 20, 40], 100.0);
        let secs: Vec<f64> = due.iter().map(Duration::as_secs_f64).collect();
        assert_eq!(secs, vec![0.0, 0.1, 0.4, 0.6]);
    }

    #[test]
    fn due_times_ignore_the_last_frame_size_and_scale_with_rate() {
        let slow = due_offsets(&[5, 5, 1000], 10.0);
        let fast = due_offsets(&[5, 5, 1000], 20.0);
        assert_eq!(slow[2], Duration::from_secs(1));
        assert_eq!(fast[2], Duration::from_millis(500));
        assert!(due_offsets(&[], 1.0).is_empty());
    }

    #[test]
    fn bin_close_tail_is_p95_with_ten_samples_beyond() {
        // One paced day closes 287 bins on the watermark.
        let q = highest_quantile(287, &[0.5, 0.9, 0.95, 0.99], 10).unwrap();
        assert_eq!(q, 0.95);
        assert!(samples_beyond(287, 0.95) >= 10);
        assert!(samples_beyond(287, 0.99) < 10);
        assert_eq!(highest_quantile(9, &[0.5, 0.95], 10), None);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v[..1], 0.99), 1.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(samples_beyond(100, 0.95), 5);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
