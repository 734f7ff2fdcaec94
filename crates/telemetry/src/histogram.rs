//! Latency histograms with percentile queries.
//!
//! The simulator's latency collector lives in the telemetry crate so
//! every layer shares one sample type.

use crate::state::{StateError, StateReader, StateWriter};

/// An online collector of latency samples with percentile queries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    samples: Vec<u64>,
    sorted: bool,
}

impl Histogram {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: u64) {
        self.samples.push(latency);
        self.sorted = false;
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean, or 0 with no samples.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64
    }

    /// The `p`-th percentile (0–100, nearest-rank), or 0 with no
    /// samples.
    pub fn percentile(&mut self, p: f64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        let rank = ((p / 100.0) * self.samples.len() as f64).ceil() as usize;
        self.samples[rank.clamp(1, self.samples.len()) - 1]
    }

    /// Buckets the samples into a histogram of the given bucket width:
    /// `(bucket_start, count)` pairs covering min..=max, empty buckets
    /// included.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width == 0`.
    #[must_use]
    pub fn histogram(&self, bucket_width: u64) -> Vec<(u64, usize)> {
        assert!(bucket_width > 0, "bucket width must be nonzero");
        if self.samples.is_empty() {
            return Vec::new();
        }
        let lo = self.min() / bucket_width * bucket_width;
        let hi = self.max();
        let buckets = ((hi - lo) / bucket_width + 1) as usize;
        let mut hist = vec![0usize; buckets];
        for &s in &self.samples {
            hist[((s - lo) / bucket_width) as usize] += 1;
        }
        hist.into_iter()
            .enumerate()
            .map(|(k, c)| (lo + k as u64 * bucket_width, c))
            .collect()
    }

    /// Minimum sample, or 0.
    #[must_use]
    pub fn min(&self) -> u64 {
        self.samples.iter().copied().min().unwrap_or(0)
    }

    /// Maximum sample, or 0.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    /// Appends the samples (in their current, possibly-sorted order)
    /// and the sorted flag to a checkpoint stream. Preserving sample
    /// order — not just the multiset — keeps a restored histogram's
    /// behavior identical under any future query sequence.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.u64_slice(&self.samples);
        w.bool(self.sorted);
    }

    /// Overwrites the collector from a checkpoint stream.
    ///
    /// # Errors
    ///
    /// Propagates reader errors (truncated stream, oversized length).
    pub fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.samples = r.u64_vec()?;
        self.sorted = r.bool()?;
        Ok(())
    }

    /// Condenses the distribution to the fixed summary a
    /// [`crate::TelemetrySnapshot`] carries.
    pub fn summary(&mut self) -> HistogramSummary {
        HistogramSummary {
            count: self.count() as u64,
            mean: self.mean(),
            min: self.min(),
            max: self.max(),
            p50: self.percentile(50.0),
            p95: self.percentile(95.0),
            p99: self.percentile(99.0),
        }
    }
}

/// The fixed latency summary embedded in snapshots: sample count, mean,
/// extrema, and the three percentiles the paper's tables quote.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    /// Number of samples folded in.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum sample.
    pub min: u64,
    /// Maximum sample.
    pub max: u64,
    /// Median (nearest-rank).
    pub p50: u64,
    /// 95th percentile (nearest-rank).
    pub p95: u64,
    /// 99th percentile (nearest-rank).
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_condenses_the_distribution() {
        let mut h = Histogram::new();
        for v in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 10);
        assert!((s.mean - 55.0).abs() < 1e-9);
        assert_eq!((s.min, s.max), (10, 100));
        assert_eq!((s.p50, s.p95, s.p99), (50, 100, 100));
    }

    #[test]
    fn empty_summary_is_zero() {
        assert_eq!(Histogram::new().summary(), HistogramSummary::default());
    }
}
