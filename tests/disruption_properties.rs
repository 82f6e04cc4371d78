//! Property-based tests over the disruption-timeline subsystem: for
//! arbitrary generated plans, compilation pairs every window correctly
//! and a full engine run preserves the structural invariants the
//! mutation paths must maintain.

use mlora::geo::Point;
use mlora::sim::{
    BusWithdrawal, DisruptionEvent, DisruptionPlan, Engine, GatewayOutage, NoiseBurst, Scenario,
};
use mlora::simcore::{SimDuration, SimTime};
use proptest::prelude::*;

/// Gateways deployed by the scenario every property runs against (the
/// smoke preset's 3×3 grid).
const GATEWAYS: usize = 9;

/// Builds an arbitrary-but-valid plan from flat scalar draws. Outage
/// durations of zero are mapped to open-ended windows (run to horizon),
/// everything else to a positive window.
fn plan_from(
    outage_gws: &[usize],
    outage_starts: &[u64],
    outage_durs: &[u64],
    withdraw_ats: &[u64],
    withdraw_fracs: &[f64],
    burst_starts: &[u64],
    burst_durs: &[u64],
) -> DisruptionPlan {
    let outages = outage_gws
        .iter()
        .zip(outage_starts)
        .zip(outage_durs)
        .map(|((&gateway, &start), &dur)| GatewayOutage {
            gateway: gateway % GATEWAYS,
            start: SimTime::from_secs(start),
            duration: (dur > 0).then(|| SimDuration::from_secs(dur)),
        })
        .collect();
    let withdrawals = withdraw_ats
        .iter()
        .zip(withdraw_fracs)
        .map(|(&at, &fraction)| BusWithdrawal {
            at: SimTime::from_secs(at),
            fraction,
        })
        .collect();
    let noise_bursts = burst_starts
        .iter()
        .zip(burst_durs)
        .map(|(&start, &dur)| NoiseBurst {
            center: Point::new(5_000.0, 5_000.0),
            radius_m: 4_000.0,
            start: SimTime::from_secs(start),
            duration: (dur > 0).then(|| SimDuration::from_secs(dur)),
            extra_loss_db: 10.0,
        })
        .collect();
    DisruptionPlan {
        outages,
        withdrawals,
        noise_bursts,
    }
}

proptest! {
    /// Compilation pairs every window: a per-gateway walk of the
    /// compiled timeline sees every recovery preceded by a failure
    /// (depth never goes negative), every closed window produces its
    /// recovery inside the horizon, and open-ended windows produce
    /// none — they run to the horizon. Noise bursts pair identically,
    /// and the whole timeline is time-ordered.
    #[test]
    fn compiled_timelines_pair_and_order(
        outage_gws in proptest::collection::vec(0usize..32, 0..6),
        outage_starts in proptest::collection::vec(0u64..10_000, 6..7),
        outage_durs in proptest::collection::vec(0u64..8_000, 6..7),
        withdraw_ats in proptest::collection::vec(0u64..10_000, 0..3),
        withdraw_fracs in proptest::collection::vec(0.05f64..1.0, 3..4),
        burst_starts in proptest::collection::vec(0u64..10_000, 0..3),
        burst_durs in proptest::collection::vec(0u64..8_000, 3..4),
        horizon_s in 600u64..7_200,
    ) {
        let plan = plan_from(
            &outage_gws, &outage_starts, &outage_durs,
            &withdraw_ats, &withdraw_fracs,
            &burst_starts, &burst_durs,
        );
        let horizon = SimDuration::from_secs(horizon_s);
        let end_of_run = SimTime::ZERO + horizon;
        let events = plan.compile(horizon);

        // Time-ordered, and nothing at or past the horizon.
        for w in events.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "timeline out of order");
        }
        prop_assert!(events.iter().all(|&(t, _)| t < end_of_run));

        let mut gw_depth = [0i64; GATEWAYS];
        let mut burst_open = vec![0i64; plan.noise_bursts.len()];
        let mut downs = 0usize;
        let mut ups = 0usize;
        for &(_, ev) in &events {
            match ev {
                DisruptionEvent::GatewayDown { gateway } => {
                    gw_depth[gateway as usize] += 1;
                    downs += 1;
                }
                DisruptionEvent::GatewayUp { gateway } => {
                    gw_depth[gateway as usize] -= 1;
                    prop_assert!(
                        gw_depth[gateway as usize] >= 0,
                        "recovery before failure for gateway {gateway}"
                    );
                    ups += 1;
                }
                DisruptionEvent::NoiseStart { burst } => burst_open[burst as usize] += 1,
                DisruptionEvent::NoiseEnd { burst } => {
                    burst_open[burst as usize] -= 1;
                    prop_assert!(burst_open[burst as usize] >= 0, "burst ends before start");
                }
                DisruptionEvent::Withdraw { .. } => {}
            }
        }
        // Every outage the horizon admits produced a Down; its Up exists
        // exactly when the window closes before the horizon.
        let expected_downs = plan
            .outages
            .iter()
            .filter(|o| o.start < end_of_run)
            .count();
        let expected_ups = plan
            .outages
            .iter()
            .filter(|o| {
                o.start < end_of_run
                    && o.duration.is_some_and(|d| o.start + d < end_of_run)
            })
            .count();
        prop_assert_eq!(downs, expected_downs);
        prop_assert_eq!(ups, expected_ups);
        // Unmatched depth is exactly the set of windows running to the
        // horizon.
        let open: i64 = gw_depth.iter().sum();
        prop_assert_eq!(open as usize, expected_downs - expected_ups);
    }

    /// End-to-end structural invariants: after a full disrupted run,
    /// the incrementally mutated gateway grid equals a from-scratch
    /// rebuild over the gateways still up, delivery never exceeds
    /// generation, and the withdrawal count is bounded by the fleet.
    #[test]
    fn disrupted_runs_preserve_engine_invariants(
        seed in 0u64..1_000_000,
        outage_gws in proptest::collection::vec(0usize..32, 0..4),
        outage_starts in proptest::collection::vec(0u64..3_600, 4..5),
        outage_durs in proptest::collection::vec(0u64..3_000, 4..5),
        withdraw_ats in proptest::collection::vec(0u64..3_600, 0..3),
        withdraw_fracs in proptest::collection::vec(0.05f64..0.9, 3..4),
        burst_starts in proptest::collection::vec(0u64..3_600, 0..2),
        burst_durs in proptest::collection::vec(0u64..3_000, 2..3),
    ) {
        let plan = plan_from(
            &outage_gws, &outage_starts, &outage_durs,
            &withdraw_ats, &withdraw_fracs,
            &burst_starts, &burst_durs,
        );
        let config = Scenario::urban()
            .smoke()
            .duration(SimDuration::from_mins(45))
            .disruptions(plan)
            .build()
            .expect("generated plan is valid");
        // Every event has run once the engine stands at the horizon;
        // `finish` then only retires the fleet and closes the report.
        let mut engine = Engine::new(config, seed);
        engine.run_until(SimTime::MAX);
        let grid_matches_rebuild = engine.gateway_grid_matches_rebuild();
        let up = engine.gateways_up();
        let report = engine.finish();

        prop_assert!(report.delivered <= report.generated);
        prop_assert!(report.delivered_of_outage_generated <= report.generated_during_outage);
        prop_assert!(report.generated_during_outage <= report.generated);
        prop_assert!(report.outage_delivery_ratio() <= 1.0);
        prop_assert!(report.clear_delivery_ratio() <= 1.0);
        prop_assert!(report.buses_withdrawn <= report.devices_seen);
        prop_assert!(report.outage_time_s <= 45.0 * 60.0 + 1e-9);
        prop_assert!(
            grid_matches_rebuild,
            "gateway grid diverged from a from-scratch rebuild"
        );
        // Gateways with only closed outage windows inside the run are
        // back up; open-ended ones that started are down.
        prop_assert_eq!(up.len(), GATEWAYS);
    }
}
