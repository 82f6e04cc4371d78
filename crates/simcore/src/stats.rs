//! Streaming statistics for metric collection.
//!
//! All accumulators are single-pass and allocation-light so they can run
//! inside the hot simulation loop: [`Welford`] for running mean/variance,
//! [`Histogram`] for fixed-width distributions, [`TimeSeries`] for
//! time-bucketed counts (the 10-minute throughput series of Figs. 10–11),
//! and [`quantile`] over sorted samples.

use crate::{SimDuration, SimTime};

/// Welford's online algorithm for running mean and variance.
///
/// Numerically stable single-pass accumulator.
///
/// # Example
///
/// ```
/// use mlora_simcore::stats::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 5.0);
/// assert_eq!(w.population_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by *n*), or 0 if empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by *n − 1*), or 0 with fewer than 2 samples.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean (σ/√n), or 0 if empty.
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The accumulator's raw state `(count, mean, m2, min, max)` — the
    /// checkpoint counterpart of [`Welford::from_raw_parts`].
    pub fn raw_parts(&self) -> (u64, f64, f64, f64, f64) {
        (self.count, self.mean, self.m2, self.min, self.max)
    }

    /// Rebuilds an accumulator from state captured by
    /// [`Welford::raw_parts`].
    pub fn from_raw_parts(count: u64, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        Welford {
            count,
            mean,
            m2,
            min,
            max,
        }
    }

    /// Merges another accumulator into this one (Chan's parallel update).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Fixed-width histogram over `[lo, hi)` with out-of-range clamping.
///
/// Samples below `lo` land in the first bin; samples at or above `hi` land
/// in the last bin. Used for distributions such as trip durations
/// (Fig. 7b).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    count: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins spanning `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "bad histogram range [{lo}, {hi})");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            count: 0,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        let idx = ((x - self.lo) / width).floor();
        let idx = (idx.max(0.0) as usize).min(self.bins.len() - 1);
        self.bins[idx] += 1;
        self.count += 1;
    }

    /// Bin counts, in order.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Iterator over `(bin_midpoint, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        self.bins
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.lo + width * (i as f64 + 0.5), c))
    }
}

/// Counts events into fixed-width time buckets.
///
/// Backs the "messages received per 10 minutes" series of Figs. 10–11.
///
/// Two allocation disciplines are available: [`TimeSeries::new`] sizes
/// the bucket vector to a known horizon (events past it land in the
/// last bucket), while [`TimeSeries::bounded`] pins peak memory to a
/// fixed capacity and adaptively doubles the bucket width whenever an
/// event lands past the current span — the right discipline for
/// open-ended or metro-scale runs where the horizon times the wanted
/// resolution would be unbounded.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    bucket: SimDuration,
    counts: Vec<u64>,
    /// Bounded mode: instead of clamping far-future events into the
    /// last bucket, fold the series in place (halving resolution) until
    /// they fit. The `counts` allocation never grows.
    bounded: bool,
}

impl TimeSeries {
    /// Creates a series with the given bucket width covering `[0, horizon)`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn new(bucket: SimDuration, horizon: SimDuration) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        let n = horizon.as_millis().div_ceil(bucket.as_millis()) as usize;
        TimeSeries {
            bucket,
            counts: vec![0; n.max(1)],
            bounded: false,
        }
    }

    /// Creates a memory-bounded series: at most `capacity` buckets are
    /// ever allocated, starting at `bucket` width. An event past the
    /// covered span folds the series in place — adjacent buckets merge
    /// and the width doubles — until the event fits, so arbitrarily
    /// long runs downsample instead of growing.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero or `capacity` is zero.
    pub fn bounded(bucket: SimDuration, capacity: usize) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        assert!(capacity > 0, "need at least one bucket");
        TimeSeries {
            bucket,
            counts: vec![0; capacity],
            bounded: true,
        }
    }

    /// Records one event at `time`; events beyond the horizon land in the
    /// last bucket (fixed series) or halve the resolution until they fit
    /// (bounded series).
    pub fn record(&mut self, time: SimTime) {
        self.record_n(time, 1);
    }

    /// Records `n` events at `time`.
    pub fn record_n(&mut self, time: SimTime, n: u64) {
        let mut idx = (time.as_millis() / self.bucket.as_millis()) as usize;
        if self.bounded {
            while idx >= self.counts.len() {
                if !self.fold() {
                    // The width can no longer double without overflowing
                    // the millisecond clock: degrade to the fixed-series
                    // discipline and clamp into the last bucket, rather
                    // than folding forever without making progress.
                    break;
                }
                idx = (time.as_millis() / self.bucket.as_millis()) as usize;
            }
        }
        let idx = idx.min(self.counts.len() - 1);
        self.counts[idx] += n;
    }

    /// Halves the resolution in place: bucket `i` becomes the sum of old
    /// buckets `2i` and `2i+1`, and the bucket width doubles. Totals are
    /// preserved exactly; the allocation is untouched. Returns `false`
    /// without touching anything when the doubled width would overflow
    /// `u64` milliseconds (`SimDuration` multiplication saturates, so a
    /// blind fold would stop halving indices and spin).
    fn fold(&mut self) -> bool {
        let width = self.bucket.as_millis();
        if width > u64::MAX / 2 {
            return false;
        }
        let n = self.counts.len();
        for i in 0..n / 2 {
            self.counts[i] = self.counts[2 * i] + self.counts[2 * i + 1];
        }
        if n % 2 == 1 {
            self.counts[n / 2] = self.counts[n - 1];
        }
        for c in &mut self.counts[n.div_ceil(2)..] {
            *c = 0;
        }
        self.bucket = SimDuration::from_millis(width * 2);
        true
    }

    /// Bucket width.
    pub fn bucket(&self) -> SimDuration {
        self.bucket
    }

    /// Per-bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// True when this series folds instead of clamping (built by
    /// [`TimeSeries::bounded`]).
    pub fn is_bounded(&self) -> bool {
        self.bounded
    }

    /// Rebuilds a series from its parts — the checkpoint counterpart of
    /// [`TimeSeries::bucket`], [`TimeSeries::counts`] and
    /// [`TimeSeries::is_bounded`].
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero or `counts` is empty.
    pub fn from_raw_parts(bucket: SimDuration, counts: Vec<u64>, bounded: bool) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        assert!(!counts.is_empty(), "need at least one bucket");
        TimeSeries {
            bucket,
            counts,
            bounded,
        }
    }

    /// Iterator over `(bucket_start, count)`.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, &c)| (SimTime::ZERO + self.bucket * i as u64, c))
    }
}

/// Linear-interpolated quantile of a **sorted** slice.
///
/// Returns `None` on an empty slice. `q` is clamped to `[0, 1]`.
///
/// # Example
///
/// ```
/// use mlora_simcore::stats::quantile;
///
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(quantile(&xs, 0.5), Some(2.5));
/// assert_eq!(quantile(&xs, 0.0), Some(1.0));
/// assert_eq!(quantile(&xs, 1.0), Some(4.0));
/// ```
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_known_values() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.population_variance() - 4.0).abs() < 1e-12);
        assert_eq!(w.min(), Some(2.0));
        assert_eq!(w.max(), Some(9.0));
    }

    #[test]
    fn welford_empty_is_safe() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.std_dev(), 0.0);
        assert_eq!(w.std_error(), 0.0);
        assert_eq!(w.min(), None);
        assert_eq!(w.max(), None);
    }

    #[test]
    fn welford_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.sample_variance() - whole.sample_variance()).abs() < 1e-9);
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        a.push(1.0);
        let b = Welford::new();
        let mut a2 = a;
        a2.merge(&b);
        assert_eq!(a2, a);
        let mut e = Welford::new();
        e.merge(&a);
        assert_eq!(e.mean(), 1.0);
    }

    #[test]
    fn histogram_bins_and_clamping() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.push(-1.0); // clamps to first
        h.push(0.5);
        h.push(5.0);
        h.push(9.99);
        h.push(100.0); // clamps to last
        assert_eq!(h.bins(), &[2, 0, 1, 0, 2]);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn histogram_midpoints() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        h.push(1.5);
        let mids: Vec<f64> = h.iter().map(|(m, _)| m).collect();
        assert_eq!(mids, vec![0.5, 1.5, 2.5, 3.5]);
    }

    #[test]
    fn timeseries_bucketing() {
        let mut ts = TimeSeries::new(SimDuration::from_mins(10), SimDuration::from_hours(1));
        ts.record(SimTime::from_secs(0));
        ts.record(SimTime::from_secs(599));
        ts.record(SimTime::from_secs(600));
        ts.record_n(SimTime::from_secs(3599), 3);
        ts.record(SimTime::from_secs(100_000)); // beyond horizon -> last
        assert_eq!(ts.counts(), &[2, 1, 0, 0, 0, 4]);
        assert_eq!(ts.total(), 7);
        let first = ts.iter().next().unwrap();
        assert_eq!(first.0, SimTime::ZERO);
    }

    #[test]
    fn bounded_timeseries_folds_instead_of_growing() {
        let mut ts = TimeSeries::bounded(SimDuration::from_mins(10), 8);
        // Fill the initial span: 8 buckets x 10 min = 80 min.
        for i in 0..8u64 {
            ts.record_n(SimTime::from_secs(i * 600), i + 1);
        }
        assert_eq!(ts.counts(), &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(ts.bucket(), SimDuration::from_mins(10));

        // One event just past the span folds once: 20-min buckets.
        ts.record(SimTime::from_secs(80 * 60));
        assert_eq!(ts.counts().len(), 8);
        assert_eq!(ts.bucket(), SimDuration::from_mins(20));
        assert_eq!(ts.counts(), &[3, 7, 11, 15, 1, 0, 0, 0]);
        assert_eq!(ts.total(), 37);

        // A far-future event folds repeatedly until it fits, never
        // growing the allocation. 8 buckets starting at 20 min cover
        // t < 160 min; reaching 1000 h (60000 min) needs the width up
        // at 10240 min (8 x 10240 = 81920 min of coverage).
        ts.record(SimTime::from_secs(1000 * 3600));
        assert_eq!(ts.counts().len(), 8);
        assert_eq!(ts.bucket(), SimDuration::from_mins(10240));
        assert_eq!(ts.total(), 38);
        // Everything recorded so far collapsed into the first bucket,
        // except the far-future event at 60000 / 10240 = bucket 5.
        assert_eq!(ts.counts()[0], 37);
        assert_eq!(ts.counts()[5], 1);
    }

    #[test]
    fn bounded_timeseries_odd_capacity_preserves_total() {
        let mut ts = TimeSeries::bounded(SimDuration::from_secs(1), 5);
        for i in 0..5u64 {
            ts.record_n(SimTime::from_secs(i), 10 + i);
        }
        assert_eq!(ts.total(), 60);
        ts.record(SimTime::from_secs(9)); // forces a fold with odd length
        assert_eq!(ts.counts().len(), 5);
        assert_eq!(ts.bucket(), SimDuration::from_secs(2));
        assert_eq!(ts.counts(), &[21, 25, 14, 0, 1]);
        assert_eq!(ts.total(), 61);
    }

    #[test]
    fn bounded_timeseries_sample_exactly_at_fold_threshold() {
        // 4 buckets x 10 s cover t < 40 s; a sample at exactly 40 s is
        // the first instant past the span and must trigger exactly one
        // fold, landing in bucket 40 / 20 = 2.
        let mut ts = TimeSeries::bounded(SimDuration::from_secs(10), 4);
        ts.record(SimTime::from_secs(39)); // last covered instant
        assert_eq!(ts.bucket(), SimDuration::from_secs(10));
        ts.record(SimTime::from_secs(40)); // exact threshold
        assert_eq!(ts.bucket(), SimDuration::from_secs(20));
        assert_eq!(ts.counts(), &[0, 1, 1, 0]);
        assert_eq!(ts.total(), 2);
    }

    #[test]
    fn bounded_timeseries_two_consecutive_folds() {
        // 4 buckets x 10 s; a sample at 80 s needs two folds (span 40 s
        // -> 80 s -> 160 s) and lands in bucket 80 / 40 = 2.
        let mut ts = TimeSeries::bounded(SimDuration::from_secs(10), 4);
        ts.record_n(SimTime::from_secs(5), 3);
        ts.record_n(SimTime::from_secs(35), 2);
        ts.record(SimTime::from_secs(80));
        assert_eq!(ts.bucket(), SimDuration::from_secs(40));
        assert_eq!(ts.counts(), &[5, 0, 1, 0]);
        assert_eq!(ts.total(), 6);
    }

    #[test]
    fn bounded_timeseries_terminates_at_clock_limit() {
        // A sample at the u64 millisecond clock limit: bucket doubling
        // saturates, so folding can stop making progress. The old loop
        // spun forever on a single-bucket series; now the series
        // degrades to clamping and the totals stay exact.
        let mut ts = TimeSeries::bounded(SimDuration::from_millis(1), 1);
        ts.record_n(SimTime::from_millis(3), 2);
        ts.record(SimTime::from_millis(u64::MAX));
        assert_eq!(ts.counts(), &[3]);
        assert_eq!(ts.total(), 3);

        // Multi-bucket series near the limit keep folding until the
        // sample fits and preserve every earlier count.
        let mut ts = TimeSeries::bounded(SimDuration::from_millis(1), 4);
        ts.record_n(SimTime::from_millis(0), 7);
        ts.record(SimTime::from_millis(u64::MAX));
        assert_eq!(ts.total(), 8);
        assert_eq!(ts.counts()[0], 7);
        assert!(ts.bucket().as_millis() > u64::MAX / 8);
    }

    #[test]
    fn timeseries_raw_parts_round_trip() {
        let mut ts = TimeSeries::bounded(SimDuration::from_secs(10), 4);
        ts.record_n(SimTime::from_secs(5), 3);
        ts.record(SimTime::from_secs(41));
        let rebuilt =
            TimeSeries::from_raw_parts(ts.bucket(), ts.counts().to_vec(), ts.is_bounded());
        assert_eq!(rebuilt, ts);
        // The rebuilt series keeps folding exactly like the original.
        let mut a = ts.clone();
        let mut b = rebuilt;
        a.record(SimTime::from_secs(500));
        b.record(SimTime::from_secs(500));
        assert_eq!(a, b);
    }

    #[test]
    fn quantile_values() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&xs, 0.5), Some(3.0));
        assert_eq!(quantile(&xs, 0.25), Some(2.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&xs, -1.0), Some(1.0)); // clamped
    }
}
