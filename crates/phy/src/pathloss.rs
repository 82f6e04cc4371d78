//! Log-distance path loss with log-normal shadowing.
//!
//! [`LogDistanceModel`] is the channel model and its exact arithmetic.
//! [`RssiModel`] binds it to a transmit power for a receiver that mostly
//! compares strengths against thresholds: it draws a frame's shadowing
//! words without evaluating them, bounds the resulting RSSI from three
//! table lookups ([`RssiModel::bounds_dbm`]) and evaluates the exact
//! value — the float [`LogDistanceModel::sample_rssi_dbm_attenuated`]
//! returns — only on request ([`RssiModel::rssi_dbm`], or through the
//! deferred [`Rssi`] it hands to whoever may want to read the value).

use std::cell::Cell;

use mlora_simcore::{NormalDraw, SimRng};

/// The log-distance path-loss model with optional log-normal shadowing:
///
/// ```text
/// PL(d) = PL(d₀) + 10·n·log₁₀(d/d₀) + X_σ,   X_σ ~ N(0, σ²)
/// ```
///
/// Defaults follow Petäjäjärvi et al. ("On the coverage of LPWANs", ITST
/// 2015), the model the paper cites for its sub-urban LoRa channel:
/// `PL(1 km) = 128.95 dB`, `n = 2.32`.
///
/// # Example
///
/// ```
/// use mlora_phy::LogDistanceModel;
///
/// let model = LogDistanceModel::paper_default();
/// let rssi_1km = model.mean_rssi_dbm(14.0, 1_000.0);
/// let rssi_2km = model.mean_rssi_dbm(14.0, 2_000.0);
/// assert!(rssi_1km > rssi_2km); // further is weaker
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogDistanceModel {
    /// Path loss at the reference distance, in dB.
    pub pl0_db: f64,
    /// Reference distance in metres.
    pub d0_m: f64,
    /// Path-loss exponent `n`.
    pub exponent: f64,
    /// Shadowing standard deviation σ in dB (0 disables shadowing).
    pub shadowing_sigma_db: f64,
}

impl LogDistanceModel {
    /// The sub-urban model of §VII.A.5: `PL(1 km) = 128.95 dB`, `n = 2.32`,
    /// `σ = 7.8 dB` (the fit reported by Petäjäjärvi et al.).
    pub const fn paper_default() -> Self {
        LogDistanceModel {
            pl0_db: 128.95,
            d0_m: 1_000.0,
            exponent: 2.32,
            shadowing_sigma_db: 7.8,
        }
    }

    /// Deterministic variant of [`LogDistanceModel::paper_default`] with
    /// shadowing disabled; useful for reproducible unit tests.
    pub const fn deterministic() -> Self {
        LogDistanceModel {
            shadowing_sigma_db: 0.0,
            ..LogDistanceModel::paper_default()
        }
    }

    /// Mean path loss at `distance_m` metres, in dB (no shadowing term).
    ///
    /// Distances below 1 m are clamped to 1 m to keep the logarithm sane.
    pub fn mean_path_loss_db(&self, distance_m: f64) -> f64 {
        let d = distance_m.max(1.0);
        self.pl0_db + 10.0 * self.exponent * (d / self.d0_m).log10()
    }

    /// Mean received signal strength for a transmit power, in dBm.
    pub fn mean_rssi_dbm(&self, tx_power_dbm: f64, distance_m: f64) -> f64 {
        tx_power_dbm - self.mean_path_loss_db(distance_m)
    }

    /// One shadowing term: a fresh `N(0, σ²)` draw, or exactly `0.0` when
    /// shadowing is disabled (so a disabled channel consumes no RNG).
    fn shadow_db(&self, rng: &mut SimRng) -> f64 {
        self.shadow_db_of(self.shadow_draw(rng))
    }

    /// The RNG words of one shadowing term, not yet evaluated: the two
    /// uniforms [`LogDistanceModel::sample_rssi_dbm`] would consume, or
    /// `None` (and an untouched stream) when shadowing is disabled.
    #[inline]
    pub fn shadow_draw(&self, rng: &mut SimRng) -> Option<NormalDraw> {
        (self.shadowing_sigma_db > 0.0).then(|| rng.standard_normal_draw())
    }

    /// The shadowing term a [`LogDistanceModel::shadow_draw`] evaluates
    /// to: the one [`LogDistanceModel::sample_rssi_dbm`] adds when it
    /// draws those words, bit for bit.
    pub fn shadow_db_of(&self, draw: Option<NormalDraw>) -> f64 {
        draw.map_or(0.0, |d| d.scaled(0.0, self.shadowing_sigma_db))
    }

    /// Recombine a precomputed mean RSSI with a shadowing term and an
    /// extra channel impairment, preserving the exact float-operation
    /// order of the fused sampling paths:
    /// `(mean + shadow) - extra_loss_db`.
    ///
    /// `compose_rssi_dbm(mean_rssi_dbm(p, d), shadow_db(rng), x)` is
    /// bit-identical to `sample_rssi_dbm_attenuated(p, d, x, rng)`.
    #[inline]
    fn compose_rssi_dbm(mean_rssi_dbm: f64, shadow_db: f64, extra_loss_db: f64) -> f64 {
        (mean_rssi_dbm + shadow_db) - extra_loss_db
    }

    /// Received signal strength with a fresh shadowing draw, in dBm.
    ///
    /// Each call draws an independent `N(0, σ²)` shadowing term from `rng`;
    /// with `σ = 0` this equals [`LogDistanceModel::mean_rssi_dbm`].
    pub fn sample_rssi_dbm(&self, tx_power_dbm: f64, distance_m: f64, rng: &mut SimRng) -> f64 {
        self.mean_rssi_dbm(tx_power_dbm, distance_m) + self.shadow_db(rng)
    }

    /// [`LogDistanceModel::sample_rssi_dbm`] with an additional channel
    /// impairment of `extra_loss_db` subtracted from the result — the
    /// hook regional noise bursts (a raised noise floor inside a disc)
    /// use to degrade reception at affected receivers.
    ///
    /// Draws exactly one shadowing sample from `rng` regardless of
    /// `extra_loss_db`, and with `extra_loss_db = 0.0` the result is
    /// bit-identical to [`LogDistanceModel::sample_rssi_dbm`], so an
    /// undisrupted channel is unchanged down to the RNG stream.
    ///
    /// # Example
    ///
    /// ```
    /// use mlora_phy::LogDistanceModel;
    /// use mlora_simcore::SimRng;
    ///
    /// let model = LogDistanceModel::paper_default();
    /// let clean = model.sample_rssi_dbm(14.0, 500.0, &mut SimRng::new(7));
    /// let noisy = model.sample_rssi_dbm_attenuated(14.0, 500.0, 12.0, &mut SimRng::new(7));
    /// assert_eq!(noisy, clean - 12.0);
    /// ```
    pub fn sample_rssi_dbm_attenuated(
        &self,
        tx_power_dbm: f64,
        distance_m: f64,
        extra_loss_db: f64,
        rng: &mut SimRng,
    ) -> f64 {
        self.sample_rssi_dbm(tx_power_dbm, distance_m, rng) - extra_loss_db
    }

    /// The distance at which mean RSSI falls to `sensitivity_dbm`, in
    /// metres — the nominal communication range.
    pub fn range_for_sensitivity_m(&self, tx_power_dbm: f64, sensitivity_dbm: f64) -> f64 {
        let budget_db = tx_power_dbm - sensitivity_dbm - self.pl0_db;
        self.d0_m * 10f64.powf(budget_db / (10.0 * self.exponent))
    }
}

impl Default for LogDistanceModel {
    fn default() -> Self {
        LogDistanceModel::paper_default()
    }
}

/// Leading mantissa bits that index [`RssiModel`]'s mean table within an
/// octave of distance.
const MEAN_MANTISSA_BITS: u32 = 5;
/// Octaves of distance the mean table covers, from 1 m (below which the
/// model clamps) to 2¹⁹ m ≈ 524 km; a longer link is evaluated exactly.
const MEAN_OCTAVES: usize = 19;
const MEAN_BINS: usize = MEAN_OCTAVES << MEAN_MANTISSA_BITS;
/// The largest Box–Muller radius a 53-bit uniform can produce,
/// `sqrt(2 · 53 · ln 2)`, rounded up.
const MAX_NORMAL_MAGNITUDE: f64 = 8.6;
/// Every [`RssiModel::bounds_dbm`] interval is widened by
/// `GUARD_ABS_DB + GUARD_REL · (magnitudes in play)` on each side. The
/// exact value is four float operations on table-bounded factors whose
/// endpoints come from the same libm calls, so it can leave the raw
/// interval only by rounding: a few units in the last place of the
/// magnitudes involved (≤ 10⁻¹³ dB at the ≤ 300 dB of any LoRa link).
/// The guard is four orders above that at every scale, and seven below
/// the width of the narrowest table bin.
const GUARD_ABS_DB: f64 = 1e-9;
const GUARD_REL: f64 = 1e-12;

/// The lower edge of mean-table bin `bin`, metres.
fn mean_bin_edge(bin: usize) -> f64 {
    let prefix = bin as u64 + (1023 << MEAN_MANTISSA_BITS);
    f64::from_bits(prefix << (52 - MEAN_MANTISSA_BITS))
}

/// A [`LogDistanceModel`] at a fixed transmit power, for a receiver that
/// decides before it computes (see the module docs).
///
/// # Example
///
/// ```
/// use mlora_phy::{LogDistanceModel, RssiModel};
/// use mlora_simcore::SimRng;
///
/// let path_loss = LogDistanceModel::paper_default();
/// let model = RssiModel::new(path_loss, 14.0);
/// let mut rng = SimRng::new(7);
/// let draw = path_loss.shadow_draw(&mut rng);
/// // No libm: an interval the exact value is guaranteed to lie in.
/// let (lo, hi) = model.bounds_dbm(500.0, draw, 0.0);
/// // On demand: the float the fused sampling returns for these words.
/// let exact = model.rssi_dbm(500.0, draw, 0.0);
/// assert!(lo <= exact && exact <= hi && hi - lo < 4.0);
/// assert_eq!(exact, path_loss.sample_rssi_dbm(14.0, 500.0, &mut SimRng::new(7)));
/// ```
#[derive(Debug, Clone)]
pub struct RssiModel {
    path_loss: LogDistanceModel,
    tx_power_dbm: f64,
    /// `(lo, hi)` of the mean RSSI over each distance bin (the bins are
    /// the exponent and leading mantissa bits of the distance).
    mean_bounds: Box<[(f64, f64)]>,
    /// The part of the guard band that does not depend on the call.
    guard_db: f64,
    /// Exact evaluations so far (see [`RssiModel::evaluations`]).
    evaluations: Cell<u64>,
}

impl RssiModel {
    /// Binds `path_loss` to `tx_power_dbm` and tabulates its mean: one
    /// `log10` per bin edge, about 6 µs.
    pub fn new(path_loss: LogDistanceModel, tx_power_dbm: f64) -> Self {
        let edges: Vec<f64> = (0..=MEAN_BINS)
            .map(|bin| path_loss.mean_rssi_dbm(tx_power_dbm, mean_bin_edge(bin)))
            .collect();
        let mean_bounds = edges
            .windows(2)
            .map(|e| (e[0].min(e[1]), e[0].max(e[1])))
            .collect();
        // The magnitudes the exact expression adds up: the link budget,
        // the loss at either end of the table and the largest shadowing
        // term.
        let slope_db = (edges[0] - edges[MEAN_BINS]).abs();
        let scale_db = tx_power_dbm.abs()
            + path_loss.pl0_db.abs()
            + edges[0].abs()
            + slope_db
            + path_loss.shadowing_sigma_db * MAX_NORMAL_MAGNITUDE;
        RssiModel {
            path_loss,
            tx_power_dbm,
            mean_bounds,
            guard_db: GUARD_ABS_DB + GUARD_REL * scale_db,
            evaluations: Cell::new(0),
        }
    }

    /// The path-loss model.
    pub fn path_loss(&self) -> &LogDistanceModel {
        &self.path_loss
    }

    /// `(lo, hi)` of the mean RSSI over the table bin holding
    /// `distance_m`, or `None` beyond the table.
    fn mean_bounds(&self, distance_m: f64) -> Option<(f64, f64)> {
        // The model's own clamp: a sub-metre link reads the first bin,
        // and no distance indexes below it.
        let prefix = distance_m.max(1.0).to_bits() >> (52 - MEAN_MANTISSA_BITS);
        let bin = prefix as usize - (1023 << MEAN_MANTISSA_BITS);
        self.mean_bounds.get(bin).copied()
    }

    /// A conservative interval around [`RssiModel::rssi_dbm`] of the same
    /// arguments, from three table lookups and no libm call. Comparing
    /// the interval against a threshold, when conclusive, agrees with
    /// comparing the exact float. Unbounded beyond the mean table.
    #[inline]
    pub fn bounds_dbm(
        &self,
        distance_m: f64,
        draw: Option<NormalDraw>,
        extra_loss_db: f64,
    ) -> (f64, f64) {
        let Some((mean_lo, mean_hi)) = self.mean_bounds(distance_m) else {
            return (f64::NEG_INFINITY, f64::INFINITY);
        };
        let (shadow_lo, shadow_hi) = draw.map_or((0.0, 0.0), |d| {
            let (lo, hi) = d.bounds();
            let sigma = self.path_loss.shadowing_sigma_db;
            (sigma * lo, sigma * hi)
        });
        let guard_db = self.guard_db + GUARD_REL * extra_loss_db.abs();
        (
            (mean_lo + shadow_lo) - extra_loss_db - guard_db,
            (mean_hi + shadow_hi) - extra_loss_db + guard_db,
        )
    }

    /// The exact RSSI of a link of `distance_m` whose shadowing words
    /// are `draw` (from [`LogDistanceModel::shadow_draw`]), less
    /// `extra_loss_db`: the float
    /// [`LogDistanceModel::sample_rssi_dbm_attenuated`] returns when it
    /// draws those words, operation for operation.
    ///
    /// Never inlined, on purpose. Its libm calls are speculatable, so
    /// once inlined into a caller that needs them rarely LLVM hoists them
    /// above the very test that makes them rare — it did: the reception
    /// loop evaluated every subject up front, then read one in fifty.
    /// The call costs a nanosecond on a function that takes fifty.
    #[inline(never)]
    pub fn rssi_dbm(&self, distance_m: f64, draw: Option<NormalDraw>, extra_loss_db: f64) -> f64 {
        self.evaluations.set(self.evaluations.get() + 1);
        LogDistanceModel::compose_rssi_dbm(
            self.path_loss.mean_rssi_dbm(self.tx_power_dbm, distance_m),
            self.path_loss.shadow_db_of(draw),
            extra_loss_db,
        )
    }

    /// How many times [`RssiModel::rssi_dbm`] has run on this model,
    /// directly or through an [`Rssi`]: the libm work the bounds did not
    /// spare. Telemetry — it never feeds back into a result.
    pub fn evaluations(&self) -> u64 {
        self.evaluations.get()
    }

    /// The same value as [`RssiModel::rssi_dbm`], evaluated when — and
    /// only if — someone reads it.
    pub fn deferred(
        &self,
        distance_m: f64,
        draw: Option<NormalDraw>,
        extra_loss_db: f64,
    ) -> Rssi<'_> {
        Rssi(RssiRepr::Deferred {
            model: self,
            distance_m,
            draw,
            extra_loss_db,
        })
    }
}

/// A received signal strength that may not have been computed yet.
///
/// A receiver decides whether a frame decodes from bounds alone almost
/// every time ([`RssiModel::bounds_dbm`]); the strength itself matters
/// only to a reader that maps it to a capacity or a link metric. Such a
/// reader calls [`Rssi::dbm`]; everyone else passes the value along or
/// drops it, and its logarithms are never taken. A plain number converts
/// with `Rssi::from(-92.0)`.
#[derive(Debug, Clone, Copy)]
pub struct Rssi<'a>(RssiRepr<'a>);

#[derive(Debug, Clone, Copy)]
enum RssiRepr<'a> {
    Known(f64),
    Deferred {
        model: &'a RssiModel,
        distance_m: f64,
        draw: Option<NormalDraw>,
        extra_loss_db: f64,
    },
}

impl Rssi<'_> {
    /// The strength in dBm, evaluating it now if nobody has.
    pub fn dbm(&self) -> f64 {
        match self.0 {
            RssiRepr::Known(dbm) => dbm,
            RssiRepr::Deferred {
                model,
                distance_m,
                draw,
                extra_loss_db,
            } => model.rssi_dbm(distance_m, draw, extra_loss_db),
        }
    }
}

impl From<f64> for Rssi<'_> {
    fn from(dbm: f64) -> Self {
        Rssi(RssiRepr::Known(dbm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_distance_loss() {
        let m = LogDistanceModel::deterministic();
        assert!((m.mean_path_loss_db(1_000.0) - 128.95).abs() < 1e-9);
    }

    #[test]
    fn loss_increases_with_distance() {
        let m = LogDistanceModel::deterministic();
        let mut last = 0.0;
        for d in [10.0, 100.0, 500.0, 1_000.0, 5_000.0, 15_000.0] {
            let pl = m.mean_path_loss_db(d);
            assert!(pl > last);
            last = pl;
        }
    }

    #[test]
    fn slope_is_10n_per_decade() {
        let m = LogDistanceModel::deterministic();
        let per_decade = m.mean_path_loss_db(10_000.0) - m.mean_path_loss_db(1_000.0);
        assert!((per_decade - 23.2).abs() < 1e-9);
    }

    #[test]
    fn tiny_distance_clamped() {
        let m = LogDistanceModel::deterministic();
        assert_eq!(m.mean_path_loss_db(0.0), m.mean_path_loss_db(1.0));
        assert_eq!(m.mean_path_loss_db(-5.0), m.mean_path_loss_db(1.0));
    }

    #[test]
    fn shadowing_statistics() {
        let m = LogDistanceModel::paper_default();
        let mut rng = SimRng::new(3);
        let n = 10_000;
        let mean_rssi = m.mean_rssi_dbm(14.0, 1_000.0);
        let samples: Vec<f64> = (0..n)
            .map(|_| m.sample_rssi_dbm(14.0, 1_000.0, &mut rng))
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - mean_rssi).abs() < 0.3, "mean {mean} vs {mean_rssi}");
        assert!((var.sqrt() - 7.8).abs() < 0.3, "sigma {}", var.sqrt());
    }

    #[test]
    fn deterministic_sampling_equals_mean() {
        let m = LogDistanceModel::deterministic();
        let mut rng = SimRng::new(4);
        assert_eq!(
            m.sample_rssi_dbm(14.0, 500.0, &mut rng),
            m.mean_rssi_dbm(14.0, 500.0)
        );
    }

    #[test]
    fn attenuated_sampling_shifts_by_exact_offset() {
        let m = LogDistanceModel::paper_default();
        // Same seed, same single draw: the only difference is the offset.
        let clean = m.sample_rssi_dbm(14.0, 700.0, &mut SimRng::new(21));
        let noisy = m.sample_rssi_dbm_attenuated(14.0, 700.0, 9.5, &mut SimRng::new(21));
        assert_eq!(noisy, clean - 9.5);
    }

    #[test]
    fn zero_attenuation_is_bit_identical() {
        let m = LogDistanceModel::paper_default();
        let clean = m.sample_rssi_dbm(14.0, 700.0, &mut SimRng::new(22));
        let noisy = m.sample_rssi_dbm_attenuated(14.0, 700.0, 0.0, &mut SimRng::new(22));
        assert_eq!(clean.to_bits(), noisy.to_bits());
    }

    #[test]
    fn composed_rssi_is_bit_identical_to_fused_sampling() {
        let m = LogDistanceModel::paper_default();
        let fused = m.sample_rssi_dbm_attenuated(14.0, 700.0, 9.5, &mut SimRng::new(23));
        let mut rng = SimRng::new(23);
        let mean = m.mean_rssi_dbm(14.0, 700.0);
        let composed = LogDistanceModel::compose_rssi_dbm(mean, m.shadow_db(&mut rng), 9.5);
        assert_eq!(fused.to_bits(), composed.to_bits());
        // A disabled channel draws nothing and composes to the exact mean.
        let d = LogDistanceModel::deterministic();
        assert_eq!(
            LogDistanceModel::compose_rssi_dbm(mean, d.shadow_db(&mut SimRng::new(1)), 0.0)
                .to_bits(),
            mean.to_bits()
        );
    }

    #[test]
    fn range_inverts_loss() {
        let m = LogDistanceModel::deterministic();
        // SF7 sensitivity -123 dBm at +14 dBm: link budget 137 dB.
        let range = m.range_for_sensitivity_m(14.0, -123.0);
        let rssi_at_range = m.mean_rssi_dbm(14.0, range);
        assert!((rssi_at_range - (-123.0)).abs() < 1e-6);
        // The paper's 1 km urban figure is the right order of magnitude.
        assert!(range > 1_000.0 && range < 3_000.0, "range {range}");
    }

    #[test]
    fn shadow_draw_splits_shadow_db() {
        let m = LogDistanceModel::paper_default();
        let (mut whole, mut split) = (SimRng::new(31), SimRng::new(31));
        for _ in 0..100 {
            let draw = m.shadow_draw(&mut split);
            assert_eq!(
                m.shadow_db_of(draw).to_bits(),
                m.shadow_db(&mut whole).to_bits()
            );
            assert_eq!(split.state(), whole.state());
        }
        // Disabled shadowing draws nothing and is exactly zero.
        let d = LogDistanceModel::deterministic();
        assert_eq!(d.shadow_draw(&mut split), None);
        assert_eq!(split.state(), whole.state());
        assert_eq!(d.shadow_db_of(None).to_bits(), 0.0f64.to_bits());
    }

    /// The models the table tests run over: the paper's, one nearly flat
    /// in distance with faint shadowing, and one with large magnitudes
    /// everywhere (which only a guard band that scales can survive).
    fn table_models() -> [(LogDistanceModel, f64); 3] {
        [
            (LogDistanceModel::paper_default(), 14.0),
            (
                LogDistanceModel {
                    pl0_db: 40.0,
                    d0_m: 1.0,
                    exponent: 0.001,
                    shadowing_sigma_db: 0.5,
                },
                -3.0,
            ),
            (
                LogDistanceModel {
                    pl0_db: -7.5e5,
                    d0_m: 3e-7,
                    exponent: 410.0,
                    shadowing_sigma_db: 9_000.0,
                },
                2.5e4,
            ),
        ]
    }

    #[test]
    fn mean_table_bounds_every_bin() {
        for (path_loss, tx) in table_models() {
            let model = RssiModel::new(path_loss, tx);
            assert_eq!(model.mean_bounds.len(), MEAN_BINS);
            for bin in 0..MEAN_BINS {
                let (lo, hi) = (mean_bin_edge(bin), mean_bin_edge(bin + 1));
                let last = hi.next_down();
                let stored = model.mean_bounds[bin];
                for d in [
                    lo,
                    lo.next_up(),
                    lo + (hi - lo) * 0.25,
                    lo + (hi - lo) * 0.5,
                    lo + (hi - lo) * 0.8125,
                    last.next_down(),
                    last,
                ] {
                    assert_eq!(model.mean_bounds(d), Some(stored), "distance {d}");
                    let mean = path_loss.mean_rssi_dbm(tx, d);
                    // The stored interval is raw; the guard band is what
                    // absorbs libm's last-place wobble inside a bin.
                    assert!(
                        stored.0 - model.guard_db <= mean && mean <= stored.1 + model.guard_db,
                        "bin {bin}, {d} m: {mean} outside {stored:?}"
                    );
                    let (b_lo, b_hi) = model.bounds_dbm(d, None, 0.0);
                    assert!(b_lo < mean && mean < b_hi);
                }
            }
        }
    }

    #[test]
    fn mean_table_named_cases() {
        let path_loss = LogDistanceModel::paper_default();
        let model = RssiModel::new(path_loss, 14.0);
        let first = model.mean_bounds[0];
        // Below a metre the model clamps: the first bin, whose upper
        // value is the mean at exactly 1 m.
        for d in [0.0, 0.3, 1.0f64.next_down(), -5.0, f64::NAN] {
            assert_eq!(model.mean_bounds(d), Some(first), "distance {d}");
            assert_eq!(model.rssi_dbm(d, None, 0.0), first.1);
        }
        assert_eq!(mean_bin_edge(0), 1.0);
        assert_eq!(model.mean_bounds(1.0), Some(first));
        assert_eq!(path_loss.mean_rssi_dbm(14.0, 1.0), first.1);
        // The last bin ends where the table does; one float further the
        // bounds give up and the caller evaluates exactly.
        let end = mean_bin_edge(MEAN_BINS);
        assert_eq!(end, (MEAN_OCTAVES as f64).exp2());
        assert_eq!(
            model.mean_bounds(end.next_down()),
            Some(model.mean_bounds[MEAN_BINS - 1])
        );
        for d in [end, end.next_up(), 1e9, f64::MAX, f64::INFINITY] {
            assert_eq!(model.mean_bounds(d), None, "distance {d}");
            assert_eq!(
                model.bounds_dbm(d, None, 3.0),
                (f64::NEG_INFINITY, f64::INFINITY)
            );
        }
        // About 600 logarithms and under 64 KiB with the two draw tables.
        assert_eq!(MEAN_BINS, 608);
    }

    #[test]
    fn bounds_always_contain_the_exact_value() {
        for (path_loss, tx) in table_models() {
            let model = RssiModel::new(path_loss, tx);
            let mut rng = SimRng::new(77);
            let mut widest: f64 = 0.0;
            for i in 0..200_000 {
                // Log-uniform over the whole table and a little beyond.
                let d = rng.gen_range_f64(-1.0, 20.0).exp2();
                let extra = match i % 4 {
                    0 => 0.0,
                    1 => rng.gen_range_f64(0.0, 40.0),
                    2 => 1e7,
                    _ => -12.5,
                };
                let draw = path_loss.shadow_draw(&mut rng);
                let (lo, hi) = model.bounds_dbm(d, draw, extra);
                let exact = model.rssi_dbm(d, draw, extra);
                assert!(
                    lo < exact && exact < hi,
                    "{d} m: {exact} outside [{lo}, {hi}]"
                );
                if hi.is_finite() {
                    widest = widest.max(hi - lo);
                }
            }
            assert_eq!(model.evaluations(), 200_000);
            // Never wider than a bin of each table allows: a third of a
            // dB of mean per 2.32 of exponent, a quarter of σ of shadow.
            let allowed = 0.14 * path_loss.exponent + 0.26 * path_loss.shadowing_sigma_db;
            assert!(widest < allowed, "{widest} > {allowed}");
        }
    }

    #[test]
    fn deferred_rssi_is_the_fused_sample() {
        let path_loss = LogDistanceModel::paper_default();
        let model = RssiModel::new(path_loss, 14.0);
        let mut rng = SimRng::new(5);
        let fused = path_loss.sample_rssi_dbm_attenuated(14.0, 640.0, 4.5, &mut SimRng::new(5));
        let deferred = model.deferred(640.0, path_loss.shadow_draw(&mut rng), 4.5);
        assert_eq!(model.evaluations(), 0, "nothing read yet");
        assert_eq!(deferred.dbm().to_bits(), fused.to_bits());
        assert_eq!(model.evaluations(), 1);
        // A plain number is a value already known.
        assert_eq!(Rssi::from(-92.0).dbm(), -92.0);
        assert_eq!(model.evaluations(), 1);
    }
}
