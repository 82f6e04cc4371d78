//! Order statistics, the percentile picker and the report digest.

use mlora_sim::SimReport;

/// Sorts a copy of `values` ascending. Timings are finite, so total
/// order is safe.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median of `values` (mean of the two middle values for an even
/// count), or `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `pct`-th percentile of `values` by linear interpolation between
/// closest ranks, or `0.0` for an empty slice.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = pct / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The tail percentiles the picker chooses among, ascending.
const TAIL_CANDIDATES: [f64; 4] = [90.0, 95.0, 99.0, 99.9];

/// The highest candidate percentile that still has at least ten of the
/// `n` samples beyond it, or `None` when the sample supports no tail
/// percentile at all (fewer than 100 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rev()
        .find(|pct| n as f64 * (1.0 - pct / 100.0) >= 10.0 - 1e-9)
}

/// The tail of `values` as `(percentile chosen, its value)`. A sample
/// too small for any tail percentile reports its median as `(50, p50)`,
/// so the figure never claims more than the sample supports.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let pct = tail_percentile(values.len()).unwrap_or(50.0);
    (pct, percentile(values, pct))
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them — the rule the acceptance check of this benchmark is written
/// in. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| {
        // Position of the i-th of four cut points among n values.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread. `0.0` below two values or for a zero median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// 64-bit FNV-1a, fed word by word: stable across platforms and
/// sensitive to the order of its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Every counter of `report` and the bit patterns of its float
    /// statistics, in declaration order.
    pub fn report(&mut self, r: &SimReport) {
        self.bytes(r.scheme.as_bytes());
        for x in [
            r.generated,
            r.delivered,
            r.duplicates,
            r.stranded,
            r.queue_drops,
            r.frames_sent,
            r.messages_sent,
            r.handover_frames,
            r.handover_messages,
            r.collisions,
            r.devices_seen,
            r.gateway_outages,
            r.buses_withdrawn,
            r.noise_bursts,
            r.generated_during_outage,
            r.delivered_of_outage_generated,
        ] {
            self.u64(x);
        }
        for x in [
            r.mean_delay_s(),
            r.delay_std_dev_s(),
            r.mean_hops(),
            r.max_hops(),
            r.total_energy_mj,
            r.total_active_s,
            r.outage_time_s,
            r.total_airtime_s,
        ] {
            self.f64(x);
        }
        for &c in r.throughput_series.counts() {
            self.u64(c);
        }
        for p in &r.profiles {
            self.bytes(p.name.as_bytes());
            for x in [
                p.generated,
                p.delivered,
                p.messages_sent,
                p.payload_bytes_sent,
            ] {
                self.u64(x);
            }
            self.f64(p.airtime_s);
            self.f64(p.mean_delay_s());
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn picker_takes_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn small_samples_report_their_median_as_the_tail() {
        let v: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&v), (50.0, 8.0));
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        assert_eq!(
            quartiles(&[10.0, 20.0, 40.0, 80.0, 160.0]),
            Some((15.0, 120.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), 1.0);
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let mut a = Digest::default();
        a.u64(1);
        a.u64(2);
        let mut b = Digest::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.value(), b.value());
        // Pinned: FNV-1a over "a" is a published test vector.
        let mut c = Digest::default();
        c.bytes(b"a");
        assert_eq!(c.value(), 0xaf63_dc4c_8601_ec8c);
        let mut d = Digest::default();
        d.f64(0.0);
        let mut e = Digest::default();
        e.f64(-0.0);
        assert_ne!(d.value(), e.value(), "float bit patterns, not values");
    }
}
