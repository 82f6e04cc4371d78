//! Metric collection and the simulation report.

use mlora_simcore::stats::{TimeSeries, Welford};
use mlora_simcore::{DenseMap, MessageId, SimDuration, SimTime};

use crate::traffic::TrafficModel;

/// Per-traffic-profile slice of a run's results.
///
/// One entry per profile of the scenario's
/// [`TrafficModel`], in model order; a run under
/// the paper's homogeneous default carries none. All ratio/mean
/// accessors guard their zero-denominator cases explicitly (mirroring
/// [`SimReport::mean_delay_s`]) so empty profiles print cleanly.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// The profile's name, copied from the model.
    pub name: String,
    /// Messages this profile generated.
    pub generated: u64,
    /// Unique messages of this profile that reached the server.
    pub delivered: u64,
    /// Per-hop transmissions of this profile's messages
    /// (bundle-weighted, like [`SimReport::messages_sent`]).
    pub messages_sent: u64,
    /// Application payload bytes of this profile put on the air
    /// (bundle-weighted: relayed bytes count once per hop).
    pub payload_bytes_sent: u64,
    /// Share of frame airtime attributed to this profile, seconds.
    /// Frames carry mixed profiles, so each frame's airtime is split
    /// over its messages in proportion to payload bytes; header and
    /// metadata overhead stays unattributed, which is why the profile
    /// shares sum to *less than* [`SimReport::total_airtime_s`].
    pub airtime_s: f64,
    /// End-to-end delay statistics over this profile's deliveries
    /// (crate-visible so engine checkpoints can capture and restore it).
    pub(crate) delay: Welford,
}

impl ProfileReport {
    fn new(name: String) -> Self {
        ProfileReport {
            name,
            generated: 0,
            delivered: 0,
            messages_sent: 0,
            payload_bytes_sent: 0,
            airtime_s: 0.0,
            delay: Welford::new(),
        }
    }

    /// Delivery ratio of this profile's traffic, or `0.0` when the
    /// profile generated nothing.
    pub fn delivery_ratio(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.delivered as f64 / self.generated as f64
        }
    }

    /// Mean end-to-end delay over this profile's deliveries, seconds,
    /// or `0.0` when nothing was delivered.
    pub fn mean_delay_s(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.delay.mean()
        }
    }

    /// Standard error of this profile's mean delay, seconds.
    pub fn delay_std_error_s(&self) -> f64 {
        self.delay.std_error()
    }

    /// Mean payload bytes per transmitted message of this profile, or
    /// `0.0` when the profile never got a message onto the air.
    pub fn mean_payload_bytes(&self) -> f64 {
        if self.messages_sent == 0 {
            0.0
        } else {
            self.payload_bytes_sent as f64 / self.messages_sent as f64
        }
    }
}

/// Everything a run measures — the inputs to every figure in §VII.B.
///
/// * Fig. 8 — [`SimReport::mean_delay_s`] / [`SimReport::delay_std_error_s`]
/// * Fig. 9 — [`SimReport::delivered`]
/// * Figs. 10–11 — [`SimReport::throughput_series`]
/// * Fig. 12 — [`SimReport::mean_hops`]
/// * Fig. 13 — [`SimReport::mean_frames_per_node`]
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Label of the forwarding policy the run executed — the
    /// [`SimConfig::policy`](crate::SimConfig::policy)'s, a paper
    /// scheme's figure label or a custom policy's own — which is what
    /// the tables of [`crate::report`] and observers key rows by.
    pub scheme: String,
    /// Application messages generated.
    pub generated: u64,
    /// Unique messages that reached the network server.
    pub delivered: u64,
    /// Duplicate arrivals discarded by the server.
    pub duplicates: u64,
    /// Messages still undelivered when their holder left service.
    pub stranded: u64,
    /// Messages dropped by full queues.
    pub queue_drops: u64,
    /// End-to-end delay statistics over delivered messages, seconds
    /// (crate-visible so engine checkpoints can capture and restore it).
    pub(crate) delay: Welford,
    /// Hop-count statistics over delivered messages (crate-visible for
    /// checkpointing, like `delay`).
    pub(crate) hops: Welford,
    /// Unique messages received per series bucket (Figs. 10–11).
    pub throughput_series: TimeSeries,
    /// Frames transmitted, network-wide.
    pub frames_sent: u64,
    /// Application messages transmitted (bundle-weighted: a frame with
    /// 12 readings counts 12) — the Fig. 13 "messages sent" measure.
    pub messages_sent: u64,
    /// Device-to-device handover frames transmitted.
    pub handover_frames: u64,
    /// Messages moved by accepted handovers.
    pub handover_messages: u64,
    /// Frames lost to same-channel collisions (at any receiver that was
    /// otherwise in range).
    pub collisions: u64,
    /// Number of devices that saw service during the run.
    pub devices_seen: u64,
    /// Total radio energy across the fleet, millijoules.
    pub total_energy_mj: f64,
    /// Sum of all device active (in-service) time, seconds.
    pub total_active_s: f64,
    /// Gateway outage windows that began (up→down transitions).
    pub gateway_outages: u64,
    /// Buses withdrawn from service by scripted disruptions.
    pub buses_withdrawn: u64,
    /// Noise-burst windows that began.
    pub noise_bursts: u64,
    /// Total wall time with at least one gateway down, seconds.
    pub outage_time_s: f64,
    /// Messages generated while at least one gateway was down.
    pub generated_during_outage: u64,
    /// Messages generated while at least one gateway was down that were
    /// eventually delivered (at any time — the fate of disruption-era
    /// traffic, not an arrival-window count). Never exceeds
    /// [`SimReport::generated_during_outage`].
    pub delivered_of_outage_generated: u64,
    /// Total frame airtime across the fleet, seconds.
    pub total_airtime_s: f64,
    /// Per-profile breakdowns, one entry per profile of the scenario's
    /// [`TrafficModel`] in model order; empty under
    /// the paper's homogeneous default.
    pub profiles: Vec<ProfileReport>,
}

impl SimReport {
    /// Mean end-to-end delay over delivered messages, seconds, or `0.0`
    /// when nothing was delivered.
    ///
    /// The zero-delivery case is guarded explicitly (like
    /// [`SimReport::delivery_ratio`]) so empty-run reports print cleanly
    /// regardless of how the underlying accumulator treats emptiness.
    pub fn mean_delay_s(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.delay.mean()
        }
    }

    /// Standard error of the mean delay (the Fig. 8 error bars), seconds.
    pub fn delay_std_error_s(&self) -> f64 {
        self.delay.std_error()
    }

    /// Standard deviation of delivered-message delay, seconds.
    pub fn delay_std_dev_s(&self) -> f64 {
        self.delay.std_dev()
    }

    /// Mean hop count over delivered messages (Fig. 12), or `0.0` when
    /// nothing was delivered.
    pub fn mean_hops(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.hops.mean()
        }
    }

    /// Largest hop count observed.
    pub fn max_hops(&self) -> f64 {
        self.hops.max().unwrap_or(0.0)
    }

    /// Mean frames transmitted per participating device.
    pub fn mean_frames_per_node(&self) -> f64 {
        if self.devices_seen == 0 {
            0.0
        } else {
            self.frames_sent as f64 / self.devices_seen as f64
        }
    }

    /// Mean messages transmitted per participating device (Fig. 13) —
    /// bundle-weighted, so relayed messages count once per hop.
    pub fn mean_messages_sent_per_node(&self) -> f64 {
        if self.devices_seen == 0 {
            0.0
        } else {
            self.messages_sent as f64 / self.devices_seen as f64
        }
    }

    /// Delivery ratio: unique deliveries over generated messages.
    pub fn delivery_ratio(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.delivered as f64 / self.generated as f64
        }
    }

    /// Mean radio energy per device over the run, millijoules.
    pub fn mean_energy_per_node_mj(&self) -> f64 {
        if self.devices_seen == 0 {
            0.0
        } else {
            self.total_energy_mj / self.devices_seen as f64
        }
    }

    /// Delivery ratio of disruption-era traffic: of the messages
    /// generated while at least one gateway was down, the fraction that
    /// was eventually delivered (at any time). Always in `[0, 1]`;
    /// `0.0` when no message was generated during an outage.
    pub fn outage_delivery_ratio(&self) -> f64 {
        if self.generated_during_outage == 0 {
            0.0
        } else {
            self.delivered_of_outage_generated as f64 / self.generated_during_outage as f64
        }
    }

    /// Delivery ratio of the remaining (clear-sky) traffic — the
    /// undisrupted counterpart of [`SimReport::outage_delivery_ratio`],
    /// also in `[0, 1]`. Equals [`SimReport::delivery_ratio`] when no
    /// gateway ever went down.
    pub fn clear_delivery_ratio(&self) -> f64 {
        let generated = self.generated - self.generated_during_outage;
        if generated == 0 {
            0.0
        } else {
            (self.delivered - self.delivered_of_outage_generated) as f64 / generated as f64
        }
    }

    /// Fraction of the fleet's scheduled service lost to scripted
    /// withdrawals: withdrawn buses over devices seen.
    pub fn withdrawal_ratio(&self) -> f64 {
        if self.devices_seen == 0 {
            0.0
        } else {
            self.buses_withdrawn as f64 / self.devices_seen as f64
        }
    }

    /// The per-profile breakdown named `name`, if the scenario's traffic
    /// model defines it.
    pub fn profile(&self, name: &str) -> Option<&ProfileReport> {
        self.profiles.iter().find(|p| p.name == name)
    }
}

/// Accumulates metrics during a run; [`Collector::finish`] yields the
/// immutable [`SimReport`].
#[derive(Debug, Clone)]
pub(crate) struct Collector {
    /// All fields are crate-visible: engine checkpoints capture and
    /// restore the collector wholesale, mid-run state included.
    pub(crate) report: SimReport,
    /// First-arrival times, for dedup (message ids are sequential, so a
    /// dense map makes the per-delivery bookkeeping an array access).
    pub(crate) arrived: DenseMap<MessageId, SimTime>,
    /// Device-to-device transfer counts per message (hops − 1).
    pub(crate) transfers: DenseMap<MessageId, u32>,
    /// Gateways currently down (global outage depth).
    pub(crate) outage_depth: u32,
    /// When the current ≥1-gateway-down interval began.
    pub(crate) outage_since: SimTime,
    /// Messages generated while ≥1 gateway was down (empty — and never
    /// probed into — when the run has no outages).
    pub(crate) outage_generated: DenseMap<MessageId, ()>,
}

impl Collector {
    pub(crate) fn new(
        scheme: String,
        bucket: SimDuration,
        horizon: SimDuration,
        traffic: &TrafficModel,
    ) -> Self {
        Collector {
            report: SimReport {
                scheme,
                generated: 0,
                delivered: 0,
                duplicates: 0,
                stranded: 0,
                queue_drops: 0,
                delay: Welford::new(),
                hops: Welford::new(),
                throughput_series: TimeSeries::new(bucket, horizon),
                frames_sent: 0,
                messages_sent: 0,
                handover_frames: 0,
                handover_messages: 0,
                collisions: 0,
                devices_seen: 0,
                total_energy_mj: 0.0,
                total_active_s: 0.0,
                gateway_outages: 0,
                buses_withdrawn: 0,
                noise_bursts: 0,
                outage_time_s: 0.0,
                generated_during_outage: 0,
                delivered_of_outage_generated: 0,
                total_airtime_s: 0.0,
                profiles: traffic
                    .profiles
                    .iter()
                    .map(|p| ProfileReport::new(p.name.clone()))
                    .collect(),
            },
            arrived: DenseMap::new(),
            transfers: DenseMap::new(),
            outage_depth: 0,
            outage_since: SimTime::ZERO,
            outage_generated: DenseMap::new(),
        }
    }

    pub(crate) fn on_generated(&mut self, msg: &mlora_mac::AppMessage) {
        self.report.generated += 1;
        if let Some(acc) = self.report.profiles.get_mut(msg.profile as usize) {
            acc.generated += 1;
        }
        if self.outage_depth > 0 {
            self.report.generated_during_outage += 1;
            self.outage_generated.insert(msg.id, ());
        }
    }

    /// A gateway transitioned up→down.
    pub(crate) fn on_gateway_down(&mut self, now: SimTime) {
        self.report.gateway_outages += 1;
        if self.outage_depth == 0 {
            self.outage_since = now;
        }
        self.outage_depth += 1;
    }

    /// A gateway transitioned down→up.
    pub(crate) fn on_gateway_up(&mut self, now: SimTime) {
        debug_assert!(self.outage_depth > 0, "recovery without an outage");
        self.outage_depth -= 1;
        if self.outage_depth == 0 {
            self.report.outage_time_s += now.saturating_since(self.outage_since).as_secs_f64();
        }
    }

    pub(crate) fn on_bus_withdrawn(&mut self) {
        self.report.buses_withdrawn += 1;
    }

    pub(crate) fn on_noise_burst(&mut self) {
        self.report.noise_bursts += 1;
    }

    /// Closes any outage interval still open when the run reaches its
    /// horizon (an outage with no scheduled recovery runs to the end).
    pub(crate) fn on_horizon(&mut self, now: SimTime) {
        if self.outage_depth > 0 {
            self.report.outage_time_s += now.saturating_since(self.outage_since).as_secs_f64();
            self.outage_since = now;
        }
    }

    pub(crate) fn on_frame_sent(
        &mut self,
        is_handover: bool,
        frame: &mlora_mac::UplinkFrame,
        airtime: SimDuration,
    ) {
        self.report.frames_sent += 1;
        self.report.messages_sent += frame.len() as u64;
        self.report.total_airtime_s += airtime.as_secs_f64();
        if is_handover {
            self.report.handover_frames += 1;
        }
        // Per-profile attribution: split the frame's airtime over its
        // messages in proportion to payload bytes (overhead stays
        // unattributed). Skipped entirely — no float work, no iteration
        // — under the paper's homogeneous default.
        if !self.report.profiles.is_empty() && !frame.is_empty() {
            let frame_bytes = frame.payload_bytes() as f64;
            let airtime_s = airtime.as_secs_f64();
            for m in &frame.messages {
                if let Some(acc) = self.report.profiles.get_mut(m.profile as usize) {
                    acc.messages_sent += 1;
                    acc.payload_bytes_sent += u64::from(m.payload_bytes);
                    acc.airtime_s += airtime_s * (f64::from(m.payload_bytes) / frame_bytes);
                }
            }
        }
    }

    pub(crate) fn on_handover_accepted(&mut self, messages: &[mlora_mac::AppMessage]) {
        self.report.handover_messages += messages.len() as u64;
        for m in messages {
            match self.transfers.get_mut(m.id) {
                Some(count) => *count += 1,
                None => {
                    self.transfers.insert(m.id, 1);
                }
            }
        }
    }

    pub(crate) fn on_collision(&mut self) {
        self.report.collisions += 1;
    }

    pub(crate) fn on_queue_drop(&mut self, n: u64) {
        self.report.queue_drops += n;
    }

    /// Records server reception of a message; dedups by id.
    ///
    /// Returns `Some((delay, hops))` on a first (unique) arrival and
    /// `None` for duplicates, so the engine can surface exactly one
    /// delivery event per delivered message.
    pub(crate) fn on_delivered(
        &mut self,
        msg: &mlora_mac::AppMessage,
        now: SimTime,
    ) -> Option<(SimDuration, u32)> {
        if self.arrived.contains_key(msg.id) {
            self.report.duplicates += 1;
            return None;
        }
        self.arrived.insert(msg.id, now);
        self.report.delivered += 1;
        if self.outage_generated.contains_key(msg.id) {
            self.report.delivered_of_outage_generated += 1;
        }
        let delay = now.saturating_since(msg.created);
        if let Some(acc) = self.report.profiles.get_mut(msg.profile as usize) {
            acc.delivered += 1;
            acc.delay.push(delay.as_secs_f64());
        }
        self.report.delay.push(delay.as_secs_f64());
        let transfers = self.transfers.get(msg.id).copied().unwrap_or(0);
        self.report.hops.push(f64::from(transfers) + 1.0);
        self.report.throughput_series.record(now);
        Some((delay, transfers + 1))
    }

    pub(crate) fn on_stranded(&mut self, n: u64) {
        self.report.stranded += n;
    }

    pub(crate) fn on_device_retired(&mut self, energy_mj: f64, active: SimDuration) {
        self.report.devices_seen += 1;
        self.report.total_energy_mj += energy_mj;
        self.report.total_active_s += active.as_secs_f64();
    }

    pub(crate) fn was_delivered(&self, id: MessageId) -> bool {
        self.arrived.contains_key(id)
    }

    pub(crate) fn finish(self) -> SimReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlora_mac::AppMessage;
    use mlora_simcore::NodeId;

    fn msg(i: u64, created_s: u64) -> AppMessage {
        AppMessage::new(
            MessageId::new(i),
            NodeId::new(0),
            SimTime::from_secs(created_s),
        )
    }

    fn collector() -> Collector {
        Collector::new(
            "test".into(),
            SimDuration::from_mins(10),
            SimDuration::from_hours(1),
            &TrafficModel::default(),
        )
    }

    fn frame(messages: Vec<AppMessage>) -> mlora_mac::UplinkFrame {
        mlora_mac::UplinkFrame::new(NodeId::new(0), messages, 1.0, 0)
    }

    #[test]
    fn delivery_dedups_and_tracks_delay() {
        let mut c = collector();
        c.on_generated(&msg(1, 100));
        c.on_delivered(&msg(1, 100), SimTime::from_secs(160));
        c.on_delivered(&msg(1, 100), SimTime::from_secs(200)); // duplicate
        let r = c.finish();
        assert_eq!(r.delivered, 1);
        assert_eq!(r.duplicates, 1);
        assert_eq!(r.mean_delay_s(), 60.0);
        assert_eq!(r.delivery_ratio(), 1.0);
    }

    #[test]
    fn hops_count_transfers_plus_one() {
        let mut c = collector();
        let m = msg(5, 0);
        c.on_handover_accepted(&[m]);
        c.on_handover_accepted(&[m]);
        c.on_delivered(&m, SimTime::from_secs(10));
        let r = c.finish();
        assert_eq!(r.mean_hops(), 3.0);
        assert_eq!(r.handover_messages, 2);
    }

    #[test]
    fn direct_delivery_is_one_hop() {
        let mut c = collector();
        c.on_delivered(&msg(1, 0), SimTime::from_secs(1));
        assert_eq!(c.finish().mean_hops(), 1.0);
    }

    #[test]
    fn frames_per_node() {
        let mut c = collector();
        let toa = SimDuration::from_millis(100);
        c.on_frame_sent(false, &frame((0..3).map(|i| msg(i, 0)).collect()), toa);
        c.on_frame_sent(true, &frame((3..15).map(|i| msg(i, 0)).collect()), toa);
        c.on_frame_sent(false, &frame(vec![msg(15, 0)]), toa);
        c.on_device_retired(10.0, SimDuration::from_secs(60));
        c.on_device_retired(20.0, SimDuration::from_secs(60));
        let r = c.finish();
        assert_eq!(r.mean_frames_per_node(), 1.5);
        assert_eq!(r.mean_messages_sent_per_node(), 8.0);
        assert_eq!(r.handover_frames, 1);
        assert_eq!(r.mean_energy_per_node_mj(), 15.0);
        assert!((r.total_airtime_s - 0.3).abs() < 1e-12);
    }

    #[test]
    fn throughput_series_buckets_by_arrival() {
        let mut c = collector();
        c.on_delivered(&msg(1, 0), SimTime::from_secs(30));
        c.on_delivered(&msg(2, 0), SimTime::from_secs(700));
        let r = c.finish();
        assert_eq!(r.throughput_series.counts()[0], 1);
        assert_eq!(r.throughput_series.counts()[1], 1);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = collector().finish();
        assert_eq!(r.mean_delay_s(), 0.0);
        assert_eq!(r.mean_hops(), 0.0);
        assert_eq!(r.mean_frames_per_node(), 0.0);
        assert_eq!(r.delivery_ratio(), 0.0);
        assert_eq!(r.outage_delivery_ratio(), 0.0);
        assert_eq!(r.clear_delivery_ratio(), 0.0);
        assert_eq!(r.withdrawal_ratio(), 0.0);
    }

    #[test]
    fn outage_windows_split_generated_and_delivered() {
        let mut c = collector();
        // Clear generation + delivery.
        c.on_generated(&msg(1, 0));
        c.on_delivered(&msg(1, 0), SimTime::from_secs(10));
        // One gateway drops at t=100; messages born inside count as
        // disruption-era traffic wherever they are later delivered.
        c.on_gateway_down(SimTime::from_secs(100));
        c.on_generated(&msg(2, 100));
        // A second outage overlapping the first: depth 2, window extends.
        c.on_gateway_down(SimTime::from_secs(200));
        c.on_gateway_up(SimTime::from_secs(250));
        c.on_gateway_up(SimTime::from_secs(300));
        // Back in the clear: the outage-born message lands late, and a
        // clear-sky message generated now is never delivered.
        c.on_delivered(&msg(2, 100), SimTime::from_secs(400));
        c.on_generated(&msg(3, 400));
        c.on_horizon(SimTime::from_secs(1_000));
        let r = c.finish();
        assert_eq!(r.gateway_outages, 2);
        assert_eq!(r.generated, 3);
        assert_eq!(r.generated_during_outage, 1);
        assert_eq!(r.delivered_of_outage_generated, 1);
        // One contiguous 100→300 s window; depth never hit zero inside.
        assert_eq!(r.outage_time_s, 200.0);
        assert_eq!(r.outage_delivery_ratio(), 1.0);
        assert_eq!(r.clear_delivery_ratio(), 0.5);
    }

    #[test]
    fn per_profile_breakdowns_accumulate() {
        use crate::{ArrivalProcess, PayloadModel, TrafficProfile};

        let model = TrafficModel::mix([
            TrafficProfile::new(
                "a",
                ArrivalProcess::Periodic {
                    interval: SimDuration::from_mins(1),
                },
                PayloadModel::Fixed { bytes: 20 },
            ),
            TrafficProfile::new(
                "b",
                ArrivalProcess::Periodic {
                    interval: SimDuration::from_mins(1),
                },
                PayloadModel::Fixed { bytes: 60 },
            ),
        ]);
        let mut c = Collector::new(
            "test".into(),
            SimDuration::from_mins(10),
            SimDuration::from_hours(1),
            &model,
        );
        let ma = msg(1, 0).with_traffic(20, 0, mlora_mac::Priority::Normal);
        let mb = msg(2, 0).with_traffic(60, 1, mlora_mac::Priority::Normal);
        c.on_generated(&ma);
        c.on_generated(&mb);
        let toa = SimDuration::from_millis(95);
        c.on_frame_sent(false, &frame(vec![ma, mb]), toa);
        c.on_delivered(&ma, SimTime::from_secs(30));
        let r = c.finish();
        assert_eq!(r.profiles.len(), 2);
        let a = r.profile("a").expect("profile a");
        let b = r.profile("b").expect("profile b");
        assert_eq!((a.generated, a.delivered), (1, 1));
        assert_eq!((b.generated, b.delivered), (1, 0));
        assert_eq!(a.payload_bytes_sent, 20);
        assert_eq!(b.payload_bytes_sent, 60);
        assert_eq!(a.mean_delay_s(), 30.0);
        assert_eq!(a.delivery_ratio(), 1.0);
        assert_eq!(b.delivery_ratio(), 0.0);
        assert_eq!(a.mean_payload_bytes(), 20.0);
        // Airtime shares are proportional to payload bytes and never
        // exceed the frame total (overhead stays unattributed).
        assert!(b.airtime_s > a.airtime_s);
        assert!(a.airtime_s + b.airtime_s < r.total_airtime_s + 1e-12);
        assert!((b.airtime_s / a.airtime_s - 3.0).abs() < 1e-9);
        assert!(r.profile("missing").is_none());
    }

    #[test]
    fn empty_profile_report_guards_divisions() {
        // The zero-delivery / zero-send boundary: every accessor must
        // return a clean 0.0, never NaN (the mean_delay_s hazard class).
        let p = ProfileReport::new("idle".into());
        assert_eq!(p.delivery_ratio(), 0.0);
        assert_eq!(p.mean_delay_s(), 0.0);
        assert_eq!(p.delay_std_error_s(), 0.0);
        assert_eq!(p.mean_payload_bytes(), 0.0);

        // Generated-but-never-delivered: ratios defined, delay still 0.
        let mut p = ProfileReport::new("lossy".into());
        p.generated = 5;
        assert_eq!(p.delivery_ratio(), 0.0);
        assert_eq!(p.mean_delay_s(), 0.0);
        assert!(p.mean_delay_s().is_finite());
    }

    #[test]
    fn open_outage_closes_at_horizon() {
        let mut c = collector();
        c.on_gateway_down(SimTime::from_secs(3_000));
        c.on_bus_withdrawn();
        c.on_noise_burst();
        c.on_horizon(SimTime::from_secs(3_600));
        let r = c.finish();
        assert_eq!(r.outage_time_s, 600.0);
        assert_eq!(r.gateway_outages, 1);
        assert_eq!(r.buses_withdrawn, 1);
        assert_eq!(r.noise_bursts, 1);
    }
}
