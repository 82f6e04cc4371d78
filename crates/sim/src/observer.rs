//! Streaming observation of a running simulation.
//!
//! A [`SimObserver`] receives typed events as the engine executes —
//! message generation, frame transmissions, device-to-device forwards and
//! unique server deliveries — decoupling measurement from the engine the
//! way an events-publisher does in large traffic simulators. One run can
//! feed any number of analyses (the built-in [`EventCounter`],
//! [`SeriesObserver`] and [`TraceSink`], or anything user-defined) instead
//! of being re-run once per figure.
//!
//! The event types themselves live in [`events`] (re-exported here and
//! from the crate root), one struct per hook, each carrying its firing
//! instant in a public `time` field.
//!
//! Observers are strictly passive: the engine's event stream and final
//! [`SimReport`] are byte-identical with or without one attached.
//!
//! # Example
//!
//! ```
//! use mlora_sim::prelude::*;
//!
//! let config = Scenario::urban().smoke().scheme(Scheme::Robc).build()?;
//! let mut counter = EventCounter::default();
//! let report = config.run_with_observer(42, &mut counter)?;
//! assert_eq!(counter.deliveries, report.delivered);
//! # Ok::<(), mlora_sim::ConfigError>(())
//! ```

use std::io::Write;

use mlora_simcore::stats::TimeSeries;
use mlora_simcore::{SimDuration, SimTime};

use crate::SimReport;

pub use events::{
    BusWithdrawn, FrameTransmitted, GatewayOutageChanged, HandoverAccepted, MessageDelivered,
    MessageGenerated, NoiseBurstChanged,
};

pub mod events {
    //! The typed events a [`SimObserver`](super::SimObserver) receives.
    //!
    //! One struct per hook, all following the same conventions: plain
    //! `Copy` data (ids, times, counts — no references into engine
    //! state), public fields, and a leading `time` field holding the
    //! simulation instant the event fired at.

    use mlora_simcore::{MessageId, NodeId, SimDuration, SimTime};

    /// A device generated one application message.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct MessageGenerated {
        /// Simulation time of generation.
        pub time: SimTime,
        /// The generating device.
        pub device: NodeId,
        /// The new message's identifier.
        pub message: MessageId,
        /// Index of the traffic profile that generated it (0 under the
        /// paper's homogeneous default).
        pub profile: u8,
        /// Application payload size, bytes.
        pub payload_bytes: u16,
    }

    /// A device began transmitting one uplink or handover frame.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct FrameTransmitted {
        /// Simulation time at transmission start.
        pub time: SimTime,
        /// The transmitting device.
        pub sender: NodeId,
        /// Messages bundled into the frame.
        pub bundled: usize,
        /// PHY payload size of the frame, bytes (header, metadata and the
        /// actual bundled payload sizes — what the airtime was computed
        /// from).
        pub payload_bytes: usize,
        /// Time on air.
        pub airtime: SimDuration,
        /// `Some(device)` when this frame is a directed handover.
        pub handover_target: Option<NodeId>,
    }

    /// A handover frame was decoded and accepted by its target device.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct HandoverAccepted {
        /// Simulation time of acceptance (transmission end).
        pub time: SimTime,
        /// The device that handed its data over.
        pub donor: NodeId,
        /// The device now holding the data.
        pub acceptor: NodeId,
        /// Messages moved.
        pub messages: usize,
    }

    /// A message reached the network server for the first time.
    ///
    /// Exactly one such event fires per unique delivery — duplicates arriving
    /// later at other gateways are filtered, so counting these events always
    /// matches [`SimReport::delivered`](crate::SimReport::delivered).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct MessageDelivered {
        /// Simulation time of first arrival.
        pub time: SimTime,
        /// The delivered message.
        pub message: MessageId,
        /// The device that originally generated it.
        pub origin: NodeId,
        /// End-to-end delay from generation to first arrival.
        pub delay: SimDuration,
        /// Device-to-device transfers plus the final uplink (≥ 1).
        pub hops: u32,
    }

    /// A gateway went down or recovered.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct GatewayOutageChanged {
        /// Simulation time of the transition.
        pub time: SimTime,
        /// Index of the affected gateway.
        pub gateway: u32,
        /// `true` when the gateway just went down, `false` on recovery.
        pub down: bool,
    }

    /// A bus was withdrawn from service by a scripted disruption.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct BusWithdrawn {
        /// Simulation time of the withdrawal.
        pub time: SimTime,
        /// The withdrawn device.
        pub device: NodeId,
    }

    /// A regional noise burst began or ended.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct NoiseBurstChanged {
        /// Simulation time of the transition.
        pub time: SimTime,
        /// Index of the burst in the scenario's
        /// [`DisruptionPlan`](crate::DisruptionPlan).
        pub burst: u32,
        /// `true` when the burst just started, `false` when it ended.
        pub active: bool,
    }
}

/// Receives the engine's event stream.
///
/// All hooks default to no-ops, so implementors override only what they
/// need. Hooks take `&mut self`; the engine calls them synchronously in
/// event order.
pub trait SimObserver {
    /// A device generated one application message.
    fn on_message_generated(&mut self, _ev: &MessageGenerated) {}

    /// A device began transmitting a frame.
    fn on_frame_tx(&mut self, _ev: &FrameTransmitted) {}

    /// A handover was accepted by its target device.
    fn on_forward(&mut self, _ev: &HandoverAccepted) {}

    /// A message reached the server for the first time.
    fn on_delivery(&mut self, _ev: &MessageDelivered) {}

    /// A gateway went down or recovered.
    fn on_gateway_outage(&mut self, _ev: &GatewayOutageChanged) {}

    /// A bus was withdrawn from service by a scripted disruption.
    fn on_bus_withdrawn(&mut self, _ev: &BusWithdrawn) {}

    /// A regional noise burst began or ended.
    fn on_noise_burst(&mut self, _ev: &NoiseBurstChanged) {}

    /// The run finished; `report` is the final immutable result.
    fn on_run_end(&mut self, _report: &SimReport) {}
}

/// Observer that ignores everything (the default for [`crate::Engine::run`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl SimObserver for NullObserver {}

/// Fans one event stream out to two observers.
///
/// Pairs nest, so any number of observers can ride one run:
/// `(&mut a, (&mut b, &mut c))`.
impl<A: SimObserver + ?Sized, B: SimObserver + ?Sized> SimObserver for (&mut A, &mut B) {
    fn on_message_generated(&mut self, ev: &MessageGenerated) {
        self.0.on_message_generated(ev);
        self.1.on_message_generated(ev);
    }

    fn on_frame_tx(&mut self, ev: &FrameTransmitted) {
        self.0.on_frame_tx(ev);
        self.1.on_frame_tx(ev);
    }

    fn on_forward(&mut self, ev: &HandoverAccepted) {
        self.0.on_forward(ev);
        self.1.on_forward(ev);
    }

    fn on_delivery(&mut self, ev: &MessageDelivered) {
        self.0.on_delivery(ev);
        self.1.on_delivery(ev);
    }

    fn on_gateway_outage(&mut self, ev: &GatewayOutageChanged) {
        self.0.on_gateway_outage(ev);
        self.1.on_gateway_outage(ev);
    }

    fn on_bus_withdrawn(&mut self, ev: &BusWithdrawn) {
        self.0.on_bus_withdrawn(ev);
        self.1.on_bus_withdrawn(ev);
    }

    fn on_noise_burst(&mut self, ev: &NoiseBurstChanged) {
        self.0.on_noise_burst(ev);
        self.1.on_noise_burst(ev);
    }

    fn on_run_end(&mut self, report: &SimReport) {
        self.0.on_run_end(report);
        self.1.on_run_end(report);
    }
}

/// Counts every event kind — the cheapest cross-check of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounter {
    /// Messages generated.
    pub generated: u64,
    /// Frames transmitted (uplink and handover).
    pub frames: u64,
    /// Handover frames among [`EventCounter::frames`].
    pub handover_frames: u64,
    /// PHY payload bytes across all transmitted frames.
    pub payload_bytes: u64,
    /// Accepted handovers.
    pub forwards: u64,
    /// Unique server deliveries.
    pub deliveries: u64,
    /// Gateway outage windows begun (down transitions).
    pub gateway_outages: u64,
    /// Buses withdrawn by scripted disruptions.
    pub withdrawals: u64,
    /// Noise-burst windows begun.
    pub noise_bursts: u64,
}

impl SimObserver for EventCounter {
    fn on_message_generated(&mut self, _ev: &MessageGenerated) {
        self.generated += 1;
    }

    fn on_frame_tx(&mut self, ev: &FrameTransmitted) {
        self.frames += 1;
        self.payload_bytes += ev.payload_bytes as u64;
        if ev.handover_target.is_some() {
            self.handover_frames += 1;
        }
    }

    fn on_forward(&mut self, _ev: &HandoverAccepted) {
        self.forwards += 1;
    }

    fn on_delivery(&mut self, _ev: &MessageDelivered) {
        self.deliveries += 1;
    }

    fn on_gateway_outage(&mut self, ev: &GatewayOutageChanged) {
        if ev.down {
            self.gateway_outages += 1;
        }
    }

    fn on_bus_withdrawn(&mut self, _ev: &BusWithdrawn) {
        self.withdrawals += 1;
    }

    fn on_noise_burst(&mut self, ev: &NoiseBurstChanged) {
        if ev.active {
            self.noise_bursts += 1;
        }
    }
}

/// Per-bucket time series of generation, transmission and delivery
/// activity, captured in a single run.
///
/// This subsumes the old rerun-per-figure pattern: the Figs. 10–11
/// delivery series, an offered-load series and a channel-activity series
/// all come from the same simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesObserver {
    /// Messages generated per bucket.
    pub generated: TimeSeries,
    /// Frames transmitted per bucket.
    pub frames: TimeSeries,
    /// Messages moved by accepted handovers per bucket.
    pub forwarded: TimeSeries,
    /// Unique deliveries per bucket.
    pub delivered: TimeSeries,
}

impl SeriesObserver {
    /// Creates a series observer with `bucket`-wide bins over `[0, horizon)`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn new(bucket: SimDuration, horizon: SimDuration) -> Self {
        SeriesObserver {
            generated: TimeSeries::new(bucket, horizon),
            frames: TimeSeries::new(bucket, horizon),
            forwarded: TimeSeries::new(bucket, horizon),
            delivered: TimeSeries::new(bucket, horizon),
        }
    }

    /// Creates a memory-bounded series observer: each of the four series
    /// allocates exactly `capacity` buckets up front and never grows.
    /// When a run outlives the covered span, the series fold in place —
    /// adjacent buckets merge and the width doubles — so peak memory is
    /// independent of the horizon. The right constructor for
    /// metro-scale or open-ended runs; see
    /// [`TimeSeries::bounded`](mlora_simcore::stats::TimeSeries::bounded).
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero or `capacity` is zero.
    pub fn bounded(bucket: SimDuration, capacity: usize) -> Self {
        SeriesObserver {
            generated: TimeSeries::bounded(bucket, capacity),
            frames: TimeSeries::bounded(bucket, capacity),
            forwarded: TimeSeries::bounded(bucket, capacity),
            delivered: TimeSeries::bounded(bucket, capacity),
        }
    }
}

impl SimObserver for SeriesObserver {
    fn on_message_generated(&mut self, ev: &MessageGenerated) {
        self.generated.record(ev.time);
    }

    fn on_frame_tx(&mut self, ev: &FrameTransmitted) {
        self.frames.record(ev.time);
    }

    fn on_forward(&mut self, ev: &HandoverAccepted) {
        self.forwarded.record_n(ev.time, ev.messages as u64);
    }

    fn on_delivery(&mut self, ev: &MessageDelivered) {
        self.delivered.record(ev.time);
    }
}

/// Streams run progress to a writer as JSON Lines, incrementally.
///
/// One `"interval"` row is emitted each time simulation time crosses an
/// interval boundary, carrying the cumulative generated / frame /
/// forward / delivery counters up to that boundary; a closing `"final"`
/// row summarises the finished [`SimReport`]. Unlike buffering the
/// whole report in memory and serialising at the end, the output file
/// grows as the run progresses and partial results survive a crash —
/// the streaming counterpart to [`SeriesObserver::bounded`] for
/// metro-scale runs.
///
/// Write errors are remembered and surfaced by [`ReportWriter::finish`];
/// after the first error the writer stops writing.
#[derive(Debug)]
pub struct ReportWriter<W: Write> {
    out: W,
    interval: SimDuration,
    next_emit: SimTime,
    generated: u64,
    frames: u64,
    forwarded: u64,
    delivered: u64,
    rows: u64,
    error: Option<std::io::Error>,
}

impl<W: Write> ReportWriter<W> {
    /// A report writer over `out`, emitting a row every `interval` of
    /// simulation time.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(out: W, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "report interval must be positive");
        ReportWriter {
            out,
            interval,
            next_emit: SimTime::ZERO + interval,
            generated: 0,
            frames: 0,
            forwarded: 0,
            delivered: 0,
            rows: 0,
            error: None,
        }
    }

    /// Rows written so far (interval rows plus the final row).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Flushes and returns the writer, or the first write error.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }

    /// Emits interval rows for every boundary at or before `time`.
    fn catch_up(&mut self, time: SimTime) {
        while self.error.is_none() && time >= self.next_emit {
            let result = writeln!(
                self.out,
                "{{\"row\":\"interval\",\"time_s\":{:.3},\"generated\":{},\"frames\":{},\
                 \"forwarded\":{},\"delivered\":{}}}",
                self.next_emit.as_secs_f64(),
                self.generated,
                self.frames,
                self.forwarded,
                self.delivered
            );
            match result {
                Ok(()) => self.rows += 1,
                Err(e) => self.error = Some(e),
            }
            self.next_emit += self.interval;
        }
    }
}

impl<W: Write> SimObserver for ReportWriter<W> {
    fn on_message_generated(&mut self, ev: &MessageGenerated) {
        self.catch_up(ev.time);
        self.generated += 1;
    }

    fn on_frame_tx(&mut self, ev: &FrameTransmitted) {
        self.catch_up(ev.time);
        self.frames += 1;
    }

    fn on_forward(&mut self, ev: &HandoverAccepted) {
        self.catch_up(ev.time);
        self.forwarded += ev.messages as u64;
    }

    fn on_delivery(&mut self, ev: &MessageDelivered) {
        self.catch_up(ev.time);
        self.delivered += 1;
    }

    fn on_run_end(&mut self, report: &SimReport) {
        if self.error.is_some() {
            return;
        }
        let result = writeln!(
            self.out,
            "{{\"row\":\"final\",\"scheme\":\"{}\",\"generated\":{},\"delivered\":{},\
             \"delivery_ratio\":{:.6},\"mean_delay_s\":{:.3},\"frames_sent\":{},\
             \"handover_messages\":{},\"collisions\":{},\"total_energy_mj\":{:.3}}}",
            report.scheme,
            report.generated,
            report.delivered,
            report.delivery_ratio(),
            report.mean_delay_s(),
            report.frames_sent,
            report.handover_messages,
            report.collisions,
            report.total_energy_mj
        );
        match result {
            Ok(()) => self.rows += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

/// On-disk trace format for [`TraceSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// One comma-separated row per event, with a header line.
    Csv,
    /// One JSON object per line (JSON Lines).
    JsonLines,
}

/// Streams every event to a writer as CSV or JSON Lines.
///
/// Rows share one schema across event kinds; fields that do not apply to
/// a kind are left empty (CSV) or omitted (JSON). The `device` column's
/// id space depends on the `event` column: bus [`NodeId`](mlora_simcore::NodeId)s for traffic
/// and `withdrawn` rows, the *gateway index* for `gateway_down` /
/// `gateway_up` rows, and the *burst index* for `noise_start` /
/// `noise_end` rows — group by `(event, device)`, never by `device`
/// alone. Write errors are remembered and surfaced by
/// [`TraceSink::finish`]; after the first error the sink stops writing.
#[derive(Debug)]
pub struct TraceSink<W: Write> {
    out: W,
    format: TraceFormat,
    header_written: bool,
    events: u64,
    error: Option<std::io::Error>,
}

impl<W: Write> TraceSink<W> {
    /// A CSV trace sink over `out`.
    pub fn csv(out: W) -> Self {
        TraceSink::new(out, TraceFormat::Csv)
    }

    /// A trace sink over `out` in the given format.
    pub fn new(out: W, format: TraceFormat) -> Self {
        TraceSink {
            out,
            format,
            header_written: false,
            events: 0,
            error: None,
        }
    }

    /// Events written so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Flushes and returns the writer, or the first write error.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }

    /// Writes one row; `fields` are `(key, value)` pairs after the common
    /// `time_s` and `event` columns.
    fn row(&mut self, time: SimTime, event: &str, fields: &[(&str, String)]) {
        if self.error.is_some() {
            return;
        }
        let result = match self.format {
            TraceFormat::Csv => {
                let header = if self.header_written {
                    Ok(())
                } else {
                    self.header_written = true;
                    writeln!(
                        self.out,
                        "time_s,event,device,peer,message,count,bytes,delay_s,hops"
                    )
                };
                header.and_then(|()| {
                    let mut cols = ["", "", "", "", "", "", ""].map(String::from);
                    for (key, value) in fields {
                        let slot = match *key {
                            "device" => 0,
                            "peer" => 1,
                            "message" => 2,
                            "count" => 3,
                            "bytes" => 4,
                            "delay_s" => 5,
                            "hops" => 6,
                            _ => unreachable!("unknown trace field {key}"),
                        };
                        cols[slot] = value.clone();
                    }
                    writeln!(
                        self.out,
                        "{:.3},{event},{}",
                        time.as_secs_f64(),
                        cols.join(",")
                    )
                })
            }
            TraceFormat::JsonLines => {
                let mut line = format!(
                    "{{\"time_s\":{:.3},\"event\":\"{event}\"",
                    time.as_secs_f64()
                );
                for (key, value) in fields {
                    line.push_str(&format!(",\"{key}\":{value}"));
                }
                line.push('}');
                writeln!(self.out, "{line}")
            }
        };
        match result {
            Ok(()) => self.events += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

impl<W: Write> SimObserver for TraceSink<W> {
    fn on_message_generated(&mut self, ev: &MessageGenerated) {
        self.row(
            ev.time,
            "generated",
            &[
                ("device", ev.device.raw().to_string()),
                ("message", ev.message.raw().to_string()),
                ("bytes", ev.payload_bytes.to_string()),
            ],
        );
    }

    fn on_frame_tx(&mut self, ev: &FrameTransmitted) {
        let mut fields = vec![
            ("device", ev.sender.raw().to_string()),
            ("count", ev.bundled.to_string()),
            ("bytes", ev.payload_bytes.to_string()),
        ];
        if let Some(target) = ev.handover_target {
            fields.push(("peer", target.raw().to_string()));
        }
        self.row(ev.time, "frame_tx", &fields);
    }

    fn on_forward(&mut self, ev: &HandoverAccepted) {
        self.row(
            ev.time,
            "forward",
            &[
                ("device", ev.donor.raw().to_string()),
                ("peer", ev.acceptor.raw().to_string()),
                ("count", ev.messages.to_string()),
            ],
        );
    }

    fn on_delivery(&mut self, ev: &MessageDelivered) {
        self.row(
            ev.time,
            "delivery",
            &[
                ("device", ev.origin.raw().to_string()),
                ("message", ev.message.raw().to_string()),
                ("delay_s", format!("{:.3}", ev.delay.as_secs_f64())),
                ("hops", ev.hops.to_string()),
            ],
        );
    }

    fn on_gateway_outage(&mut self, ev: &GatewayOutageChanged) {
        let event = if ev.down {
            "gateway_down"
        } else {
            "gateway_up"
        };
        self.row(ev.time, event, &[("device", ev.gateway.to_string())]);
    }

    fn on_bus_withdrawn(&mut self, ev: &BusWithdrawn) {
        self.row(
            ev.time,
            "withdrawn",
            &[("device", ev.device.raw().to_string())],
        );
    }

    fn on_noise_burst(&mut self, ev: &NoiseBurstChanged) {
        let event = if ev.active {
            "noise_start"
        } else {
            "noise_end"
        };
        self.row(ev.time, event, &[("device", ev.burst.to_string())]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlora_simcore::{MessageId, NodeId};

    fn delivered(t: u64) -> MessageDelivered {
        MessageDelivered {
            time: SimTime::from_secs(t),
            message: MessageId::new(t),
            origin: NodeId::new(1),
            delay: SimDuration::from_secs(30),
            hops: 2,
        }
    }

    #[test]
    fn counter_counts() {
        let mut c = EventCounter::default();
        c.on_message_generated(&MessageGenerated {
            time: SimTime::ZERO,
            device: NodeId::new(0),
            message: MessageId::new(0),
            profile: 0,
            payload_bytes: 20,
        });
        c.on_frame_tx(&FrameTransmitted {
            time: SimTime::ZERO,
            sender: NodeId::new(0),
            bundled: 3,
            payload_bytes: 75,
            airtime: SimDuration::from_millis(300),
            handover_target: Some(NodeId::new(2)),
        });
        c.on_delivery(&delivered(5));
        assert_eq!(c.generated, 1);
        assert_eq!(c.frames, 1);
        assert_eq!(c.handover_frames, 1);
        assert_eq!(c.payload_bytes, 75);
        assert_eq!(c.deliveries, 1);
    }

    #[test]
    fn pair_observer_fans_out() {
        let mut a = EventCounter::default();
        let mut b = EventCounter::default();
        {
            let mut pair = (&mut a, &mut b);
            pair.on_delivery(&delivered(1));
        }
        assert_eq!(a.deliveries, 1);
        assert_eq!(b.deliveries, 1);
    }

    #[test]
    fn series_observer_buckets() {
        let mut s = SeriesObserver::new(SimDuration::from_mins(10), SimDuration::from_hours(1));
        s.on_delivery(&delivered(30));
        s.on_delivery(&delivered(700));
        assert_eq!(s.delivered.counts()[0], 1);
        assert_eq!(s.delivered.counts()[1], 1);
    }

    #[test]
    fn bounded_series_observer_pins_allocation() {
        let mut s = SeriesObserver::bounded(SimDuration::from_mins(10), 16);
        // 1000 hours of deliveries — far past the initial 160-minute
        // span — must never grow any series past its capacity.
        for h in 0..1000 {
            s.on_delivery(&delivered(h * 3600));
        }
        assert_eq!(s.delivered.counts().len(), 16);
        assert_eq!(s.generated.counts().len(), 16);
        assert_eq!(s.frames.counts().len(), 16);
        assert_eq!(s.forwarded.counts().len(), 16);
        assert_eq!(s.delivered.total(), 1000);
        assert!(s.delivered.bucket() > SimDuration::from_mins(10));
    }

    #[test]
    fn report_writer_streams_interval_and_final_rows() {
        let mut w = ReportWriter::new(Vec::new(), SimDuration::from_mins(10));
        w.on_message_generated(&MessageGenerated {
            time: SimTime::from_secs(30),
            device: NodeId::new(0),
            message: MessageId::new(0),
            profile: 0,
            payload_bytes: 20,
        });
        // Crossing two interval boundaries emits two cumulative rows.
        w.on_delivery(&delivered(1300));
        let report = crate::metrics::Collector::new(
            "TEST".to_string(),
            SimDuration::from_mins(10),
            SimDuration::from_hours(1),
            &crate::TrafficModel::default(),
        )
        .finish();
        w.on_run_end(&report);
        assert_eq!(w.rows(), 3);
        let out = String::from_utf8(w.finish().unwrap()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines[0],
            "{\"row\":\"interval\",\"time_s\":600.000,\"generated\":1,\"frames\":0,\
             \"forwarded\":0,\"delivered\":0}"
        );
        assert_eq!(
            lines[1],
            "{\"row\":\"interval\",\"time_s\":1200.000,\"generated\":1,\"frames\":0,\
             \"forwarded\":0,\"delivered\":0}"
        );
        assert!(
            lines[2].starts_with("{\"row\":\"final\",\"scheme\":\"TEST\""),
            "{out}"
        );
    }

    #[test]
    fn csv_trace_rows() {
        let mut sink = TraceSink::csv(Vec::new());
        sink.on_delivery(&delivered(10));
        assert_eq!(sink.events(), 1);
        let out = String::from_utf8(sink.finish().unwrap()).unwrap();
        let mut lines = out.lines();
        assert_eq!(
            lines.next(),
            Some("time_s,event,device,peer,message,count,bytes,delay_s,hops")
        );
        assert_eq!(lines.next(), Some("10.000,delivery,1,,10,,,30.000,2"));
    }

    #[test]
    fn counter_and_trace_cover_disruptions() {
        let mut c = EventCounter::default();
        let mut sink = TraceSink::csv(Vec::new());
        {
            let mut pair: (&mut EventCounter, &mut TraceSink<Vec<u8>>) = (&mut c, &mut sink);
            pair.on_gateway_outage(&GatewayOutageChanged {
                time: SimTime::from_secs(1),
                gateway: 4,
                down: true,
            });
            pair.on_gateway_outage(&GatewayOutageChanged {
                time: SimTime::from_secs(2),
                gateway: 4,
                down: false,
            });
            pair.on_bus_withdrawn(&BusWithdrawn {
                time: SimTime::from_secs(3),
                device: NodeId::new(7),
            });
            pair.on_noise_burst(&NoiseBurstChanged {
                time: SimTime::from_secs(4),
                burst: 0,
                active: true,
            });
        }
        assert_eq!(c.gateway_outages, 1);
        assert_eq!(c.withdrawals, 1);
        assert_eq!(c.noise_bursts, 1);
        let out = String::from_utf8(sink.finish().unwrap()).unwrap();
        assert!(out.contains("gateway_down"), "{out}");
        assert!(out.contains("gateway_up"), "{out}");
        assert!(out.contains("withdrawn"), "{out}");
        assert!(out.contains("noise_start"), "{out}");
    }

    #[test]
    fn json_trace_rows() {
        let mut sink = TraceSink::new(Vec::new(), TraceFormat::JsonLines);
        sink.on_forward(&HandoverAccepted {
            time: SimTime::from_secs(1),
            donor: NodeId::new(3),
            acceptor: NodeId::new(4),
            messages: 5,
        });
        let out = String::from_utf8(sink.finish().unwrap()).unwrap();
        assert_eq!(
            out.trim(),
            "{\"time_s\":1.000,\"event\":\"forward\",\"device\":3,\"peer\":4,\"count\":5}"
        );
    }
}
