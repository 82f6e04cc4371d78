//! Seeded, fork-able randomness.
//!
//! A single `u64` master seed must reproduce an entire simulation run.
//! [`SimRng::fork`] derives independent child generators from the master
//! seed and a stream label, so subsystems (mobility, shadowing, workload)
//! draw from decoupled streams: adding draws in one subsystem does not
//! perturb another.
//!
//! A normal sample is split in two: [`SimRng::standard_normal_draw`]
//! takes the two uniform words off the stream and [`NormalDraw::value`]
//! runs the Box–Muller arithmetic on them. A caller that only needs to
//! know *roughly* where the sample lies — a threshold comparison that is
//! almost never close — reads [`NormalDraw::bounds`], two table lookups
//! and no libm, and evaluates only the samples whose interval straddles
//! the threshold. The stream advances identically either way.

//!
//! The generator is this module's own: xoshiro256++ seeded through
//! SplitMix64. Every golden fingerprint and every `.mlss` checkpoint
//! (which stores the four state words) is defined by the exact words
//! and arithmetic below.

use std::sync::OnceLock;

/// Deterministic random number generator for simulations.
///
/// # Example
///
/// ```
/// use mlora_simcore::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.gen_u64(), b.gen_u64());
///
/// // Forked streams are independent of draw order on the parent.
/// let mut fork1 = SimRng::new(42).fork(7);
/// let mut parent = SimRng::new(42);
/// let _ = parent.gen_u64();
/// let mut fork2 = parent.fork(7);
/// assert_eq!(fork1.gen_u64(), fork2.gen_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    /// The xoshiro256++ state.
    words: [u64; 4],
}

/// The SplitMix64 increment.
const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finaliser of `x` advanced by one step: decorrelates
/// seeds derived from small integers. Seeds the generator, derives its
/// forks, and mixes the runner's per-run seeds.
///
/// ```
/// // The first output of the reference SplitMix64 seeded with 0.
/// assert_eq!(mlora_simcore::splitmix64(0), 0xE220_A839_7B1D_CDAF);
/// ```
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(SPLITMIX_GAMMA);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generator state for `seed`: four successive outputs of a
/// SplitMix64 sequence started at `splitmix64(seed)`.
fn seed_words(seed: u64) -> [u64; 4] {
    let start = splitmix64(seed);
    std::array::from_fn(|k| splitmix64(start.wrapping_add(SPLITMIX_GAMMA.wrapping_mul(k as u64))))
}

impl SimRng {
    /// Creates a generator from a master seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            seed,
            words: seed_words(seed),
        }
    }

    /// The master seed this generator (or its ancestor) was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The generator's full state: the master seed and the four raw
    /// xoshiro256++ state words. Together with [`SimRng::from_state`]
    /// this makes the stream checkpointable: a rebuilt generator
    /// continues the draw sequence exactly where this one stands.
    pub fn state(&self) -> (u64, [u64; 4]) {
        (self.seed, self.words)
    }

    /// Rebuilds a generator from a state captured by [`SimRng::state`].
    pub fn from_state(seed: u64, words: [u64; 4]) -> Self {
        SimRng { seed, words }
    }

    /// Derives an independent child generator for `stream`.
    ///
    /// Forking depends only on the master seed and the stream label — not
    /// on how many values have been drawn — so subsystems stay decoupled.
    pub fn fork(&self, stream: u64) -> SimRng {
        let child_seed = splitmix64(self.seed ^ splitmix64(stream.wrapping_add(0xA5A5_5A5A)));
        SimRng::new(child_seed)
    }

    /// A uniformly random `u64`: one xoshiro256++ step.
    #[inline]
    pub fn gen_u64(&mut self) -> u64 {
        let s = &mut self.words;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn unit_f64(&mut self) -> f64 {
        (self.gen_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, span)` without modulo bias (Lemire's
    /// method).
    fn below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        loop {
            let m = (self.gen_u64() as u128) * (span as u128);
            if (m as u64) >= span.wrapping_neg() % span {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is not finite.
    pub fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "bad range [{lo}, {hi})"
        );
        let x = lo + self.unit_f64() * (hi - lo);
        // Rounding at the top of a wide range must stay inside [lo, hi).
        if x >= hi {
            hi.next_down()
        } else {
            x
        }
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "bad range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!(!p.is_nan(), "probability is NaN");
        self.unit_f64() < p.clamp(0.0, 1.0)
    }

    /// Draws the two uniforms of one standard-normal sample without
    /// evaluating it: the stream advances by exactly the two words
    /// [`SimRng::standard_normal`] consumes.
    #[inline]
    pub fn standard_normal_draw(&mut self) -> NormalDraw {
        // u1 in (0,1] avoids ln(0).
        let u1 = 1.0 - self.unit_f64();
        let u2 = self.unit_f64();
        NormalDraw { u1, u2 }
    }

    /// A sample from the standard normal distribution (Box–Muller).
    pub fn standard_normal(&mut self) -> f64 {
        self.standard_normal_draw().value()
    }

    /// A sample from `N(mean, std_dev²)`.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "negative std dev: {std_dev}");
        self.standard_normal_draw().scaled(mean, std_dev)
    }

    /// A sample from an exponential distribution with the given rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "non-positive rate: {rate}");
        let u = 1.0 - self.unit_f64();
        -u.ln() / rate
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

/// The two uniforms of one Box–Muller sample, drawn from the stream but
/// not yet evaluated (see the module docs).
///
/// # Example
///
/// ```
/// use mlora_simcore::SimRng;
///
/// let draw = SimRng::new(7).standard_normal_draw();
/// let (lo, hi) = draw.bounds();
/// assert!(lo <= draw.value() && draw.value() <= hi);
/// assert_eq!(draw.value(), SimRng::new(7).standard_normal());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalDraw {
    /// The radius uniform, a multiple of 2⁻⁵³ in `(0, 1]`.
    u1: f64,
    /// The angle uniform, a multiple of 2⁻⁵³ in `[0, 1)`.
    u2: f64,
}

impl NormalDraw {
    /// The standard-normal sample these uniforms produce.
    pub fn value(self) -> f64 {
        radius(self.u1) * cosine(self.u2)
    }

    /// `mean + std_dev * value()`: the `N(mean, std_dev²)` sample, in
    /// the operation order of [`SimRng::normal`].
    pub fn scaled(self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.value()
    }

    /// A conservative interval around [`NormalDraw::value`], from two
    /// table lookups and no libm call: `lo <= value() <= hi` always.
    #[inline]
    pub fn bounds(self) -> (f64, f64) {
        let (r_lo, r_hi) = radius_table()[radius_bin(self.u1)];
        let (c_lo, c_hi) = cosine_table()[cosine_bin(self.u2)];
        // The radius is never negative, the cosine has either sign.
        (
            (r_lo * c_lo).min(r_hi * c_lo),
            (r_lo * c_hi).max(r_hi * c_hi),
        )
    }
}

/// The Box–Muller radius of a uniform in `(0, 1]`. Zero at `u1 = 1`
/// (as `-0.0`: the square root of `-2.0 * 0.0`).
fn radius(u1: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt()
}

/// The Box–Muller cosine of a uniform in `[0, 1)`.
fn cosine(u2: f64) -> f64 {
    (std::f64::consts::TAU * u2).cos()
}

/// Biased exponent of 2⁻⁵³, the smallest radius uniform.
const RADIUS_MIN_EXPONENT: u64 = 1023 - 53;
/// Leading mantissa bits that index the radius table within an octave.
const RADIUS_MANTISSA_BITS: u32 = 5;
/// One bin per mantissa prefix of every octave of `[2⁻⁵³, 1)`, and a
/// last one that only `u1 = 1` falls in.
const RADIUS_BINS: usize = (53 << RADIUS_MANTISSA_BITS) + 1;
/// Equal bins over `[0, 1)`; a multiple of four, so the quarter turns
/// are bin edges and the cosine is monotone inside every bin.
const COSINE_BINS: usize = 512;
/// Every table endpoint is widened by this much. The libm calls that
/// produce the endpoints are the ones [`NormalDraw::value`] makes, and
/// are monotone to within a few units in the last place (≤ 2·10⁻¹⁵ at
/// these magnitudes); on the cosine it also covers the rounding of the
/// product in [`NormalDraw::bounds`], which is at most 10⁻¹⁵.
const TABLE_GUARD: f64 = 1e-12;

/// The radius bin of a uniform in `[2⁻⁵³, 1]`: its exponent and leading
/// mantissa bits.
fn radius_bin(u1: f64) -> usize {
    let prefix = u1.to_bits() >> (52 - RADIUS_MANTISSA_BITS);
    (prefix - (RADIUS_MIN_EXPONENT << RADIUS_MANTISSA_BITS)) as usize
}

/// The lower edge of radius bin `bin` (the upper edge of the one before).
fn radius_bin_edge(bin: usize) -> f64 {
    let prefix = bin as u64 + (RADIUS_MIN_EXPONENT << RADIUS_MANTISSA_BITS);
    f64::from_bits(prefix << (52 - RADIUS_MANTISSA_BITS))
}

/// The cosine bin of a uniform in `[0, 1)`.
fn cosine_bin(u2: f64) -> usize {
    (u2 * COSINE_BINS as f64) as usize
}

/// `(lo, hi)` of the radius over each bin, built once per process. The
/// radius falls as the uniform rises, so a bin's interval runs from its
/// upper edge's radius to its lower edge's.
fn radius_table() -> &'static [(f64, f64)] {
    static TABLE: OnceLock<Box<[(f64, f64)]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        (0..RADIUS_BINS)
            .map(|bin| {
                let upper = radius_bin_edge(bin + 1).min(1.0);
                (
                    (radius(upper) - TABLE_GUARD).max(0.0),
                    radius(radius_bin_edge(bin)) + TABLE_GUARD,
                )
            })
            .collect()
    })
}

/// `(lo, hi)` of the cosine over each bin, built once per process.
fn cosine_table() -> &'static [(f64, f64)] {
    static TABLE: OnceLock<Box<[(f64, f64)]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let edge = |bin: usize| cosine(bin as f64 / COSINE_BINS as f64);
        (0..COSINE_BINS)
            .map(|bin| {
                let (a, b) = (edge(bin), edge(bin + 1));
                (a.min(b) - TABLE_GUARD, a.max(b) + TABLE_GUARD)
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(1);
        for _ in 0..100 {
            assert_eq!(a.gen_u64(), b.gen_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.gen_u64() == b.gen_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_draw_independent() {
        let mut parent = SimRng::new(99);
        let mut f1 = parent.fork(3);
        for _ in 0..10 {
            let _ = parent.gen_u64();
        }
        let mut f2 = parent.fork(3);
        for _ in 0..20 {
            assert_eq!(f1.gen_u64(), f2.gen_u64());
        }
    }

    #[test]
    fn forks_of_different_streams_differ() {
        let parent = SimRng::new(99);
        let mut f1 = parent.fork(1);
        let mut f2 = parent.fork(2);
        assert_ne!(f1.gen_u64(), f2.gen_u64());
    }

    #[test]
    fn range_bounds_respected() {
        let mut rng = SimRng::new(5);
        for _ in 0..1000 {
            let x = rng.gen_range_f64(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
            let n = rng.gen_range_u64(10, 20);
            assert!((10..20).contains(&n));
        }
    }

    #[test]
    fn normal_moments_roughly_right() {
        let mut rng = SimRng::new(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn exponential_mean_roughly_right() {
        let mut rng = SimRng::new(8);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.exponential(0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn gen_bool_probability() {
        let mut rng = SimRng::new(9);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((hits as f64 / 10_000.0 - 0.3).abs() < 0.03);
        assert!(!rng.gen_bool(-0.5)); // clamped to 0
        assert!(rng.gen_bool(1.5)); // clamped to 1
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(10);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn draw_splits_the_sample_without_moving_the_stream() {
        let mut whole = SimRng::new(12);
        let mut split = SimRng::new(12);
        for _ in 0..1000 {
            let draw = split.standard_normal_draw();
            assert_eq!(draw.value().to_bits(), whole.standard_normal().to_bits());
            assert_eq!(split.state(), whole.state());
            let (lo, hi) = draw.bounds();
            assert!(lo <= draw.value() && draw.value() <= hi);
        }
        let draw = split.standard_normal_draw();
        assert_eq!(
            draw.scaled(-3.0, 7.8).to_bits(),
            whole.normal(-3.0, 7.8).to_bits()
        );
    }

    /// The edges of `[lo, hi)`, their neighbours inside it and a few
    /// interior points.
    fn probes(lo: f64, hi: f64) -> [f64; 7] {
        let last = hi.next_down();
        [
            lo,
            lo.next_up(),
            lo + (hi - lo) * 0.25,
            lo + (hi - lo) * 0.5,
            lo + (hi - lo) * 0.8125,
            last.next_down(),
            last,
        ]
    }

    #[test]
    fn radius_table_bounds_every_bin() {
        let table = radius_table();
        assert_eq!(table.len(), RADIUS_BINS);
        for (bin, &(lo, hi)) in table.iter().enumerate().take(RADIUS_BINS - 1) {
            assert!(0.0 <= lo && lo < hi);
            for u1 in probes(radius_bin_edge(bin), radius_bin_edge(bin + 1)) {
                assert_eq!(radius_bin(u1), bin, "u1 {u1:e}");
                let r = radius(u1);
                assert!(lo <= r && r <= hi, "bin {bin}: {r} outside [{lo}, {hi}]");
            }
        }
        // The largest radius uniform: radius zero, as the negative zero
        // the square root of `-2.0 * 0.0` is.
        assert_eq!(radius_bin(1.0), RADIUS_BINS - 1);
        assert!(radius(1.0) == 0.0 && radius(1.0).is_sign_negative());
        let (lo, hi) = table[RADIUS_BINS - 1];
        assert!(lo <= radius(1.0) && radius(1.0) <= hi && hi <= 2.0 * TABLE_GUARD);
        // The smallest: the radius's maximum, the first bin's lower edge.
        let smallest = (-53.0f64).exp2();
        assert_eq!(radius_bin(smallest), 0);
        assert_eq!(radius_bin_edge(0), smallest);
        assert!(radius(smallest) <= table[0].1 && table[0].1 < 8.6);
    }

    #[test]
    fn cosine_table_bounds_every_bin() {
        let table = cosine_table();
        assert_eq!(table.len(), COSINE_BINS);
        let edge = |bin: usize| bin as f64 / COSINE_BINS as f64;
        for (bin, &(lo, hi)) in table.iter().enumerate() {
            assert!(-1.0 - TABLE_GUARD <= lo && lo < hi && hi <= 1.0 + TABLE_GUARD);
            // Quarter turns are bin edges: no bin straddles a zero of
            // the cosine by more than the guard and a rounding of π/2.
            assert!(
                lo >= -2.0 * TABLE_GUARD || hi <= 2.0 * TABLE_GUARD,
                "bin {bin}"
            );
            for u2 in probes(edge(bin), edge(bin + 1)) {
                assert_eq!(cosine_bin(u2), bin, "u2 {u2:e}");
                let c = cosine(u2);
                assert!(lo <= c && c <= hi, "bin {bin}: {c} outside [{lo}, {hi}]");
            }
        }
        assert_eq!(cosine_bin(0.0), 0);
        assert_eq!(cosine(0.0), 1.0);
        let largest = 1.0 - (-53.0f64).exp2();
        assert_eq!(cosine_bin(largest), COSINE_BINS - 1);
    }

    /// The product interval holds at the corners of both tables at once:
    /// every radius bin against every cosine bin, edge uniforms.
    #[test]
    fn bounds_hold_at_every_pair_of_bin_edges() {
        let u2_step = 1.0 / COSINE_BINS as f64;
        for r_bin in 0..RADIUS_BINS {
            let u1_lo = radius_bin_edge(r_bin);
            let u1_hi = radius_bin_edge(r_bin + 1).next_down().min(1.0).max(u1_lo);
            for c_bin in 0..COSINE_BINS {
                let u2_lo = c_bin as f64 * u2_step;
                let u2_hi = (u2_lo + u2_step).next_down();
                for (u1, u2) in [
                    (u1_lo, u2_lo),
                    (u1_lo, u2_hi),
                    (u1_hi, u2_lo),
                    (u1_hi, u2_hi),
                ] {
                    let draw = NormalDraw { u1, u2 };
                    let (lo, hi) = draw.bounds();
                    let z = draw.value();
                    assert!(
                        lo <= z && z <= hi,
                        "({u1:e}, {u2:e}): {z} outside [{lo}, {hi}]"
                    );
                }
            }
        }
    }
}
