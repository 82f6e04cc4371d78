//! LoRa modulation parameters.

use std::fmt;

/// LoRa spreading factor (SF7–SF12).
///
/// Higher spreading factors trade data rate for range and sensitivity.
/// The paper fixes SF7 for all devices (§VII.A.5): adaptive data rate is
/// ineffective under mobility.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpreadingFactor {
    /// SF7 — fastest, shortest range.
    Sf7,
    /// SF8.
    Sf8,
    /// SF9.
    Sf9,
    /// SF10.
    Sf10,
    /// SF11.
    Sf11,
    /// SF12 — slowest, longest range.
    Sf12,
}

impl SpreadingFactor {
    /// All spreading factors in ascending order.
    pub const ALL: [SpreadingFactor; 6] = [
        SpreadingFactor::Sf7,
        SpreadingFactor::Sf8,
        SpreadingFactor::Sf9,
        SpreadingFactor::Sf10,
        SpreadingFactor::Sf11,
        SpreadingFactor::Sf12,
    ];

    /// The numeric spreading factor (7–12).
    pub const fn value(self) -> u32 {
        match self {
            SpreadingFactor::Sf7 => 7,
            SpreadingFactor::Sf8 => 8,
            SpreadingFactor::Sf9 => 9,
            SpreadingFactor::Sf10 => 10,
            SpreadingFactor::Sf11 => 11,
            SpreadingFactor::Sf12 => 12,
        }
    }

    /// Receiver sensitivity in dBm at 125 kHz bandwidth (SX1276 datasheet).
    pub const fn sensitivity_dbm(self) -> f64 {
        match self {
            SpreadingFactor::Sf7 => -123.0,
            SpreadingFactor::Sf8 => -126.0,
            SpreadingFactor::Sf9 => -129.0,
            SpreadingFactor::Sf10 => -132.0,
            SpreadingFactor::Sf11 => -134.5,
            SpreadingFactor::Sf12 => -137.0,
        }
    }
}

impl fmt::Display for SpreadingFactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SF{}", self.value())
    }
}

/// LoRa channel bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bandwidth {
    /// 125 kHz — the EU868 default.
    Khz125,
    /// 250 kHz.
    Khz250,
    /// 500 kHz.
    Khz500,
}

impl Bandwidth {
    /// Bandwidth in hertz.
    pub const fn hz(self) -> f64 {
        match self {
            Bandwidth::Khz125 => 125_000.0,
            Bandwidth::Khz250 => 250_000.0,
            Bandwidth::Khz500 => 500_000.0,
        }
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}kHz", (self.hz() / 1000.0) as u32)
    }
}

/// LoRa forward error correction coding rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodingRate {
    /// 4/5 — the LoRaWAN default.
    Cr4of5,
    /// 4/6.
    Cr4of6,
    /// 4/7.
    Cr4of7,
    /// 4/8.
    Cr4of8,
}

impl CodingRate {
    /// The `CR` term of the airtime formula (1 for 4/5 … 4 for 4/8).
    pub const fn cr(self) -> u32 {
        match self {
            CodingRate::Cr4of5 => 1,
            CodingRate::Cr4of6 => 2,
            CodingRate::Cr4of7 => 3,
            CodingRate::Cr4of8 => 4,
        }
    }
}

impl fmt::Display for CodingRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "4/{}", self.cr() + 4)
    }
}

/// Full physical-layer configuration of a transmission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhyParams {
    /// Spreading factor.
    pub sf: SpreadingFactor,
    /// Channel bandwidth.
    pub bandwidth: Bandwidth,
    /// Coding rate.
    pub coding_rate: CodingRate,
    /// Preamble length in symbols (LoRaWAN uses 8).
    pub preamble_symbols: u32,
    /// Whether the explicit PHY header is present (LoRaWAN uplinks: yes).
    pub explicit_header: bool,
    /// Whether the payload CRC is on (LoRaWAN uplinks: yes).
    pub crc: bool,
    /// Transmit power in dBm (EU868 ERP limit: +14 dBm).
    pub tx_power_dbm: f64,
}

impl PhyParams {
    /// The configuration used throughout the paper's evaluation:
    /// SF7, 125 kHz, CR 4/5, 8-symbol preamble, explicit header, CRC on,
    /// +14 dBm.
    pub const fn paper_default() -> Self {
        PhyParams {
            sf: SpreadingFactor::Sf7,
            bandwidth: Bandwidth::Khz125,
            coding_rate: CodingRate::Cr4of5,
            preamble_symbols: 8,
            explicit_header: true,
            crc: true,
            tx_power_dbm: 14.0,
        }
    }

    /// Duration of one LoRa symbol in seconds: `2^SF / BW`.
    pub fn symbol_time_s(&self) -> f64 {
        (1u64 << self.sf.value()) as f64 / self.bandwidth.hz()
    }

    /// Whether low-data-rate optimisation is mandated (SF11/SF12 at
    /// 125 kHz per the LoRaWAN regional parameters).
    pub fn low_data_rate_optimize(&self) -> bool {
        self.sf.value() >= 11 && matches!(self.bandwidth, Bandwidth::Khz125)
    }

    /// Receiver sensitivity for this configuration, in dBm.
    pub fn sensitivity_dbm(&self) -> f64 {
        // Bandwidth scaling: each doubling of BW costs ~3 dB of sensitivity.
        let bw_penalty = match self.bandwidth {
            Bandwidth::Khz125 => 0.0,
            Bandwidth::Khz250 => 3.0,
            Bandwidth::Khz500 => 6.0,
        };
        self.sf.sensitivity_dbm() + bw_penalty
    }
}

impl Default for PhyParams {
    fn default() -> Self {
        PhyParams::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sf_values_and_order() {
        assert_eq!(SpreadingFactor::Sf7.value(), 7);
        assert_eq!(SpreadingFactor::Sf12.value(), 12);
        assert!(SpreadingFactor::Sf7 < SpreadingFactor::Sf12);
        assert_eq!(SpreadingFactor::ALL.len(), 6);
    }

    #[test]
    fn sensitivity_monotonic_in_sf() {
        for w in SpreadingFactor::ALL.windows(2) {
            assert!(w[0].sensitivity_dbm() > w[1].sensitivity_dbm());
        }
    }

    #[test]
    fn symbol_time_sf7_125khz() {
        let p = PhyParams::paper_default();
        // 2^7 / 125000 = 1.024 ms
        assert!((p.symbol_time_s() - 0.001024).abs() < 1e-9);
    }

    #[test]
    fn ldro_only_high_sf_narrow_bw() {
        let mut p = PhyParams::paper_default();
        assert!(!p.low_data_rate_optimize());
        p.sf = SpreadingFactor::Sf11;
        assert!(p.low_data_rate_optimize());
        p.bandwidth = Bandwidth::Khz250;
        assert!(!p.low_data_rate_optimize());
    }

    #[test]
    fn display_formats() {
        assert_eq!(SpreadingFactor::Sf7.to_string(), "SF7");
        assert_eq!(Bandwidth::Khz125.to_string(), "125kHz");
        assert_eq!(CodingRate::Cr4of5.to_string(), "4/5");
    }

    #[test]
    fn bandwidth_sensitivity_penalty() {
        let mut p = PhyParams::paper_default();
        let base = p.sensitivity_dbm();
        p.bandwidth = Bandwidth::Khz500;
        assert_eq!(p.sensitivity_dbm(), base + 6.0);
    }
}
