//! LoRa time-on-air and duty-cycle arithmetic.

use mlora_simcore::SimDuration;

use crate::PhyParams;

/// The LoRa PHY payload maximum, bytes. [`time_on_air`] rejects anything
/// larger; MAC layers must bundle within this budget.
pub const LORA_MAX_PAYLOAD_BYTES: usize = 255;

/// Computes the time-on-air of a LoRa frame (Semtech AN1200.13).
///
/// `payload_bytes` is the PHY payload length (MAC header + application
/// payload + MIC). The result is rounded to the nearest millisecond, the
/// resolution of [`SimDuration`].
///
/// # Example
///
/// ```
/// use mlora_phy::{time_on_air, PhyParams};
///
/// // A 20-byte reading bundled twelve times plus headers ≈ 250 B payload:
/// let toa = time_on_air(250, &PhyParams::paper_default());
/// // SF7/125 kHz pushes ~5.5 kbit/s; 250 B needs ~0.36 s on air.
/// assert!(toa.as_secs_f64() > 0.3 && toa.as_secs_f64() < 0.45);
/// ```
///
/// # Panics
///
/// Panics if `payload_bytes` exceeds [`LORA_MAX_PAYLOAD_BYTES`].
pub fn time_on_air(payload_bytes: usize, params: &PhyParams) -> SimDuration {
    assert!(
        payload_bytes <= LORA_MAX_PAYLOAD_BYTES,
        "LoRa payload is at most 255 bytes"
    );
    let sf = params.sf.value() as i64;
    let t_sym = params.symbol_time_s();
    let de = i64::from(params.low_data_rate_optimize());
    let ih = i64::from(!params.explicit_header);
    let crc = i64::from(params.crc);
    let cr = params.coding_rate.cr() as i64;

    let numerator = 8 * payload_bytes as i64 - 4 * sf + 28 + 16 * crc - 20 * ih;
    let denominator = 4 * (sf - 2 * de);
    let n_payload =
        8 + (((numerator as f64) / (denominator as f64)).ceil() as i64 * (cr + 4)).max(0);

    let t_preamble = (params.preamble_symbols as f64 + 4.25) * t_sym;
    let t_payload = n_payload as f64 * t_sym;
    SimDuration::from_secs_f64(t_preamble + t_payload)
}

/// Precomputed [`time_on_air`] for every payload length under one
/// [`PhyParams`].
///
/// The airtime formula costs a float division, a `ceil` and several
/// conversions; the engine's hot path pays it on every transmission
/// start. There are only [`LORA_MAX_PAYLOAD_BYTES`]` + 1` possible
/// inputs, so this table computes each entry once with the exact same
/// formula — lookups are bit-identical to calling [`time_on_air`] by
/// construction — and a lookup is one bounds-checked load.
///
/// # Example
///
/// ```
/// use mlora_phy::{time_on_air, AirtimeTable, PhyParams};
///
/// let params = PhyParams::paper_default();
/// let table = AirtimeTable::new(&params);
/// assert_eq!(table.lookup(250), time_on_air(250, &params));
/// ```
#[derive(Debug, Clone)]
pub struct AirtimeTable {
    table: [SimDuration; LORA_MAX_PAYLOAD_BYTES + 1],
}

impl AirtimeTable {
    /// Tabulates [`time_on_air`] for payloads `0..=255` under `params`.
    pub fn new(params: &PhyParams) -> Self {
        let mut table = [SimDuration::ZERO; LORA_MAX_PAYLOAD_BYTES + 1];
        for (bytes, slot) in table.iter_mut().enumerate() {
            *slot = time_on_air(bytes, params);
        }
        AirtimeTable { table }
    }

    /// The time-on-air of a `payload_bytes`-byte frame.
    ///
    /// # Panics
    ///
    /// Panics if `payload_bytes` exceeds [`LORA_MAX_PAYLOAD_BYTES`],
    /// like [`time_on_air`].
    #[inline]
    pub fn lookup(&self, payload_bytes: usize) -> SimDuration {
        assert!(
            payload_bytes <= LORA_MAX_PAYLOAD_BYTES,
            "LoRa payload is at most 255 bytes"
        );
        self.table[payload_bytes]
    }

    /// The worst-case airtime under these parameters (a full 255-byte
    /// payload) — what flight-retention windows are sized from.
    pub fn max(&self) -> SimDuration {
        self.table[LORA_MAX_PAYLOAD_BYTES]
    }
}

/// The mandatory silence after a transmission under a duty-cycle cap.
///
/// A `duty_cycle` of 0.01 (EU868 general channels) after an airtime `toa`
/// forbids transmitting for `toa × (1/duty_cycle − 1)`.
///
/// # Example
///
/// ```
/// use mlora_phy::duty_cycle_wait;
/// use mlora_simcore::SimDuration;
///
/// let toa = SimDuration::from_millis(400);
/// assert_eq!(duty_cycle_wait(toa, 0.01), SimDuration::from_millis(39_600));
/// ```
///
/// # Panics
///
/// Panics if `duty_cycle` is not in `(0, 1]`.
pub fn duty_cycle_wait(toa: SimDuration, duty_cycle: f64) -> SimDuration {
    assert!(
        duty_cycle > 0.0 && duty_cycle <= 1.0,
        "duty cycle must be in (0, 1], got {duty_cycle}"
    );
    toa.mul_f64(1.0 / duty_cycle - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bandwidth, CodingRate, SpreadingFactor};

    #[test]
    fn known_airtime_sf7_small_payload() {
        // Cross-checked with the Semtech LoRa calculator:
        // SF7, 125 kHz, CR 4/5, preamble 8, CRC on, explicit header, 20 B
        // payload -> 12.25 preamble + 43 payload symbols = 56.58 ms.
        let toa = time_on_air(20, &PhyParams::paper_default());
        let ms = toa.as_millis() as f64;
        assert!((ms - 56.6).abs() <= 1.0, "got {ms} ms");
    }

    #[test]
    fn known_airtime_sf12() {
        // SF12 is 2^5 slower per symbol; a 20 B payload lands near 1.2 s.
        let params = PhyParams {
            sf: SpreadingFactor::Sf12,
            ..PhyParams::paper_default()
        };
        let toa = time_on_air(20, &params);
        assert!(
            toa.as_secs_f64() > 1.0 && toa.as_secs_f64() < 1.5,
            "got {}",
            toa
        );
    }

    #[test]
    fn airtime_monotonic_in_payload() {
        let p = PhyParams::paper_default();
        let mut last = SimDuration::ZERO;
        for bytes in (0..=255).step_by(5) {
            let toa = time_on_air(bytes, &p);
            assert!(toa >= last, "airtime not monotonic at {bytes}");
            last = toa;
        }
    }

    #[test]
    fn airtime_monotonic_in_sf() {
        let mut last = SimDuration::ZERO;
        for sf in SpreadingFactor::ALL {
            let params = PhyParams {
                sf,
                ..PhyParams::paper_default()
            };
            let toa = time_on_air(50, &params);
            assert!(toa > last, "airtime not increasing at {sf}");
            last = toa;
        }
    }

    #[test]
    fn coding_rate_increases_airtime() {
        let base = PhyParams::paper_default();
        let robust = PhyParams {
            coding_rate: CodingRate::Cr4of8,
            ..base
        };
        assert!(time_on_air(100, &robust) > time_on_air(100, &base));
    }

    #[test]
    fn wider_bandwidth_reduces_airtime() {
        let base = PhyParams::paper_default();
        let wide = PhyParams {
            bandwidth: Bandwidth::Khz500,
            ..base
        };
        assert!(time_on_air(100, &wide) < time_on_air(100, &base));
    }

    #[test]
    #[should_panic(expected = "at most 255")]
    fn oversized_payload_rejected() {
        let _ = time_on_air(256, &PhyParams::paper_default());
    }

    #[test]
    fn table_matches_formula_for_every_payload() {
        let params = PhyParams::paper_default();
        let table = AirtimeTable::new(&params);
        for bytes in 0..=LORA_MAX_PAYLOAD_BYTES {
            assert_eq!(table.lookup(bytes), time_on_air(bytes, &params));
        }
        assert_eq!(table.max(), time_on_air(LORA_MAX_PAYLOAD_BYTES, &params));
    }

    #[test]
    #[should_panic(expected = "at most 255")]
    fn table_rejects_oversized_payload() {
        AirtimeTable::new(&PhyParams::paper_default()).lookup(256);
    }

    #[test]
    fn duty_cycle_one_percent() {
        let toa = SimDuration::from_millis(100);
        assert_eq!(duty_cycle_wait(toa, 0.01), SimDuration::from_millis(9_900));
        assert_eq!(duty_cycle_wait(toa, 1.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "duty cycle")]
    fn zero_duty_cycle_rejected() {
        let _ = duty_cycle_wait(SimDuration::from_millis(1), 0.0);
    }
}
