//! A hidden instrumentation hook for the engine's hot path.
//!
//! The counting-allocator test (`crates/sim/tests/engine_alloc.rs`) and
//! the `engine_events` binary's reception rows need to drive the
//! flight-ring scan and a reception in isolation, without standing up
//! a full engine run. [`FlightScanProbe`] packages that path behind a
//! self-contained driver over the [`Channel`], calling the functions the
//! engine calls.
//!
//! It is `#[doc(hidden)]`: its shape tracks engine internals and carries
//! no stability promise.

// The module is doc(hidden) and its docs legitimately reference private
// engine internals; don't let rustdoc's public-link lint reject them.
#![allow(rustdoc::private_intra_doc_links)]

use mlora_geo::{Point, Reach};
use mlora_mac::UplinkFrame;
use mlora_phy::LogDistanceModel;
use mlora_simcore::{NodeId, SimDuration, SimRng, SimTime};

use super::channel::Channel;
use super::EngineStats;

/// Drives the channel's hot loop as a run does — launch (which trims
/// the flight ring's front), the time-overlap walk down the ring's
/// newest rows, the engine's near-overlap cut and a reception — with
/// steadily advancing time so the deferred slab sweep triggers and
/// slots recycle. After a warm-up round the whole cycle is
/// allocation-free, which `engine_alloc.rs` pins.
#[derive(Debug)]
pub struct FlightScanProbe {
    channel: Channel,
    now: SimTime,
    airtime: SimDuration,
    wave: usize,
    senders: u32,
    overlaps: Vec<(u64, Point)>,
    near: Vec<(u64, Point)>,
    /// `wave` frames in range of [`FlightScanProbe::RECEIVER`], for
    /// [`FlightScanProbe::receive_crowd`].
    crowd: Vec<(u64, Point)>,
    /// [`FlightScanProbe::RANGE_M`] as the receiver's reach.
    reach: Reach,
    /// What the channel counts as it works, as an engine's would.
    stats: EngineStats,
}

impl FlightScanProbe {
    /// Where the probe listens; receiver-side range 500 m (urban
    /// device-to-device).
    const RECEIVER: Point = Point::new(250.0, 0.0);
    const RANGE_M: f64 = 500.0;

    /// A probe launching `wave` concurrent flights per round.
    pub fn new(seed: u64, wave: usize) -> FlightScanProbe {
        // The subject 150 m from the receiver, the rest of the crowd on
        // a spiral of growing radius, all inside 450 m.
        let crowd = (0..wave)
            .map(|i| {
                let r = 150.0 + 300.0 * i as f64 / wave as f64;
                let phi = 2.4 * i as f64;
                let pos = Point::new(
                    Self::RECEIVER.x + r * phi.cos(),
                    Self::RECEIVER.y + r * phi.sin(),
                );
                (i as u64, pos)
            })
            .collect();
        FlightScanProbe {
            channel: Channel::new(
                SimRng::new(seed).fork(12),
                SimDuration::from_secs(2),
                SimDuration::from_millis(370),
                Vec::new(),
                LogDistanceModel::paper_default(),
                -123.0,
                14.0,
            ),
            now: SimTime::ZERO,
            airtime: SimDuration::from_millis(370),
            wave,
            senders: 0,
            overlaps: Vec::new(),
            near: Vec::new(),
            crowd,
            reach: Reach::new(Self::RANGE_M),
            stats: EngineStats::default(),
        }
    }

    /// One reception of the first of `wave` audible frames, all in
    /// range: `wave = 1` is the frame heard alone. Returns the outcome
    /// as two bits.
    pub fn receive_crowd(&mut self) -> u64 {
        let reception =
            self.channel
                .receive(&self.crowd, Self::RECEIVER, self.reach, 0, &mut self.stats);
        reception.rssi.is_some() as u64 | (reception.interfered as u64) << 1
    }

    /// Runs `rounds` launch/scan/receive cycles and folds the reception
    /// outcomes into a checksum (so the work cannot be optimised away).
    pub fn churn(&mut self, rounds: usize) -> u64 {
        let mut digest = 0u64;
        for _ in 0..rounds {
            let start = self.now;
            let end = start + self.airtime;
            let mut subject = None;
            for j in 0..self.wave {
                // Spread the wave over a ~1.5 km disc so some flights
                // survive the near cut and some do not.
                let k = (self.senders as usize + j) % 17;
                let pos = Point::new(100.0 * k as f64, 60.0 * (k as f64 - 8.0));
                let sender = NodeId::new(self.senders);
                let frame = UplinkFrame {
                    sender,
                    messages: Vec::new(),
                    rca_etx: 1.0,
                    queue_len: 0,
                };
                subject = Some(self.channel.launch(sender, frame, None, start, end, pos));
                self.senders = self.senders.wrapping_add(1);
            }
            // The last frame launched, looked up as a transmission end
            // looks its subject up.
            let subject_seq = subject
                .and_then(|key| self.channel.flights.get(key))
                .expect("a wave launches at least one flight")
                .seq;
            self.channel
                .overlaps_into(start, end, &mut self.overlaps, &mut self.stats);
            digest = digest.wrapping_add(self.overlaps.len() as u64);
            // The engine's near-overlap cut.
            let at = Self::RECEIVER;
            Channel::near_overlaps_into(&self.overlaps, at, Self::RANGE_M, &mut self.near);
            let reception =
                self.channel
                    .receive(&self.near, at, self.reach, subject_seq, &mut self.stats);
            digest = digest
                .wrapping_mul(31)
                .wrapping_add(reception.rssi.is_some() as u64)
                .wrapping_add((reception.interfered as u64) << 1);
            self.now += SimDuration::from_millis(400);
        }
        digest
    }
}
