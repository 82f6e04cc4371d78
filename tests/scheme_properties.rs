//! Property-based tests over the paper's core invariants, driven by
//! proptest through the public facade.

use mlora::core::{
    greedy_forward_rule, link_rca_etx, robc_transfer_amount, robc_weight, Beacon, ContactTracker,
    Ewma, ForwardDecision, Rgq, RoutingConfig, RoutingState, Scheme, RCA_ETX_CEILING,
};
use mlora::mac::{queue_based_window_fraction, AppMessage, DataQueue};
use mlora::phy::{duty_cycle_wait, time_on_air, CapacityModel, PhyParams};
use mlora::simcore::{MessageId, NodeId, SimTime};
use proptest::prelude::*;

proptest! {
    /// Eq. 4: the EWMA always lies within the running min/max envelope of
    /// its inputs.
    #[test]
    fn ewma_stays_in_input_envelope(
        alpha in 0.01f64..=1.0,
        xs in proptest::collection::vec(0.0f64..1e6, 1..64),
    ) {
        let mut e = Ewma::new(alpha);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &x in &xs {
            lo = lo.min(x);
            hi = hi.max(x);
            let v = e.push(x);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "ewma {v} left [{lo}, {hi}]");
        }
    }

    /// Eq. 5–6: the link metric is monotone non-increasing in RSSI and
    /// always positive and bounded.
    #[test]
    fn link_metric_monotone_bounded(
        rssi_a in -150.0f64..-40.0,
        rssi_b in -150.0f64..-40.0,
        bits in 8.0f64..4096.0,
    ) {
        let cap = CapacityModel::paper_default();
        let (lo, hi) = if rssi_a < rssi_b { (rssi_a, rssi_b) } else { (rssi_b, rssi_a) };
        let m_lo = link_rca_etx(lo, &cap, bits);
        let m_hi = link_rca_etx(hi, &cap, bits);
        prop_assert!(m_hi <= m_lo);
        prop_assert!(m_hi > 0.0 && m_lo <= RCA_ETX_CEILING);
    }

    /// Eq. 1 is irreflexive in a symmetric situation: two devices with
    /// identical metrics never forward to each other (no trivial loops).
    #[test]
    fn greedy_rule_no_symmetric_loop(metric in 0.0f64..1e6, link in 0.0f64..1e5) {
        prop_assert!(!greedy_forward_rule(metric, metric, link));
    }

    /// Eq. 10 is antisymmetric: ω_{x,y} = −ω_{y,x}.
    #[test]
    fn robc_weight_antisymmetric(
        qx in 0usize..500,
        qy in 0usize..500,
        phi_x in 1e-6f64..1.0,
        phi_y in 1e-6f64..1.0,
    ) {
        let w_xy = robc_weight(qx, phi_x, qy, phi_y);
        let w_yx = robc_weight(qy, phi_y, qx, phi_x);
        prop_assert!((w_xy + w_yx).abs() < 1e-6 * (1.0 + w_xy.abs()));
    }

    /// δ never exceeds the donor queue and moving δ kills the pressure:
    /// after the transfer the reverse direction does not want to move data
    /// back (the anti-ping-pong property §V.B.2 relies on).
    #[test]
    fn robc_transfer_settles(
        qx in 0usize..500,
        qy in 0usize..500,
        phi_x in 1e-3f64..1.0,
        phi_y in 1e-3f64..1.0,
    ) {
        let delta = robc_transfer_amount(qx, phi_x, qy, phi_y);
        prop_assert!(delta <= qx);
        if delta > 0 {
            let back = robc_transfer_amount(qy + delta, phi_y, qx - delta, phi_x);
            // The receiver may still be below equilibrium, but it must not
            // want to return more than it just accepted.
            prop_assert!(back <= delta, "ping-pong: {back} > {delta}");
        }
    }

    /// RGQ is always within its stability bounds for arbitrary metrics.
    #[test]
    fn rgq_bounded(rca in proptest::num::f64::ANY) {
        let rgq = Rgq::PAPER;
        let phi = rgq.phi(rca);
        prop_assert!(phi >= rgq.phi_min() && phi <= rgq.phi_max());
    }

    /// Eq. 11: the receive-window fraction is always in [0, 1] and
    /// monotone in queue length.
    #[test]
    fn window_fraction_bounded_monotone(
        phi in 1e-6f64..1.0,
        q1 in 0usize..256,
        q2 in 0usize..256,
        qmax in 1usize..256,
    ) {
        let g1 = queue_based_window_fraction(phi, 1.0, q1.min(qmax), qmax);
        let g2 = queue_based_window_fraction(phi, 1.0, q2.min(qmax), qmax);
        prop_assert!((0.0..=1.0).contains(&g1));
        if q1.min(qmax) <= q2.min(qmax) {
            prop_assert!(g1 <= g2);
        }
    }

    /// The RPST of Eq. 3 never decreases while a device stays out of
    /// contact (time only makes things worse), and is capped.
    #[test]
    fn rpst_monotone_while_disconnected(
        gap1 in 0u64..100_000,
        gap2 in 0u64..100_000,
        cap in 1.0f64..10_000.0,
    ) {
        let mut ct = ContactTracker::new();
        ct.record_success(SimTime::from_secs(100), cap);
        ct.record_failure(SimTime::from_secs(200));
        let (lo, hi) = if gap1 < gap2 { (gap1, gap2) } else { (gap2, gap1) };
        let r_lo = ct.rpst(SimTime::from_secs(200 + lo), 0.0, 2040.0);
        let r_hi = ct.rpst(SimTime::from_secs(200 + hi), 0.0, 2040.0);
        prop_assert!(r_lo <= r_hi);
        prop_assert!(r_hi <= RCA_ETX_CEILING);
    }

    /// LoRa airtime is monotone in payload and the duty-cycle wait scales
    /// with it.
    #[test]
    fn airtime_and_duty_monotone(a in 0usize..=255, b in 0usize..=255) {
        let phy = PhyParams::paper_default();
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let t_lo = time_on_air(lo, &phy);
        let t_hi = time_on_air(hi, &phy);
        prop_assert!(t_lo <= t_hi);
        prop_assert!(duty_cycle_wait(t_lo, 0.01) <= duty_cycle_wait(t_hi, 0.01));
    }

    /// The data queue never exceeds capacity, drops exactly the overflow,
    /// and preserves FIFO order of survivors.
    #[test]
    fn queue_capacity_and_fifo(cap in 1usize..64, n in 0u64..200) {
        let mut q = DataQueue::new(cap);
        for i in 0..n {
            q.push(AppMessage::new(MessageId::new(i), NodeId::new(0), SimTime::ZERO));
        }
        prop_assert!(q.len() <= cap);
        prop_assert_eq!(q.len() as u64 + q.dropped(), n);
        let ids: Vec<u64> = q.iter().map(|m| m.id.raw()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        prop_assert_eq!(ids, sorted, "FIFO order violated");
    }

    /// A ROBC device with an empty queue never volunteers to forward, for
    /// any beacon it might overhear.
    #[test]
    fn empty_queue_never_forwards(
        rca_y in 0.0f64..1e7,
        q_y in 0usize..500,
        rssi in -150.0f64..-40.0,
    ) {
        let mut state = RoutingState::new(RoutingConfig::paper_default(), Scheme::Robc.policy());
        let beacon = Beacon { sender: NodeId::new(1), rca_etx: rca_y, queue_len: q_y };
        let d = state.decide(SimTime::from_secs(1000), 0.0, 0, &beacon, rssi);
        prop_assert_eq!(d, ForwardDecision::Keep);
    }

    /// Forward decisions never move more than the frame bundle limit.
    #[test]
    fn forward_count_bounded(
        queue_len in 0usize..500,
        rca_y in 0.0f64..1e7,
        q_y in 0usize..500,
        rssi in -130.0f64..-40.0,
        scheme_robc in proptest::bool::ANY,
    ) {
        let scheme = if scheme_robc { Scheme::Robc } else { Scheme::RcaEtx };
        let mut state = RoutingState::new(RoutingConfig::paper_default(), scheme.policy());
        // A weak contact history makes the device eager to forward.
        state.on_sink_slot(SimTime::from_secs(180), Some(100.0), 0.0);
        state.on_sink_slot(SimTime::from_secs(360), None, 0.0);
        let beacon = Beacon { sender: NodeId::new(1), rca_etx: rca_y, queue_len: q_y };
        if let ForwardDecision::Forward { count, .. } =
            state.decide(SimTime::from_secs(4000), 0.0, queue_len, &beacon, rssi)
        {
            prop_assert!(count <= mlora::mac::MAX_BUNDLE);
            prop_assert!(count <= queue_len);
        }
    }
}
