//! Lazy-vs-eager flight pruning bit-equality: the deferred
//! growth-boundary sweep the channel runs on its own and an eager sweep
//! driven from outside — the run stepped in slices of at most one
//! simulated second, expired flights reclaimed after each — must
//! produce byte-identical reports over arbitrary traffic mixes and
//! disruption plans. The lazy sweep is safe because a stale flight
//! (`end + retention < now`) can never pass the time-overlap filter of
//! any frame still in the air — any divergence here means a stale flight
//! leaked into an interferer set (or slab slot reuse bled into an RNG
//! draw order).

use mlora::geo::Point;
use mlora::sim::probe;
use mlora::sim::{
    ArrivalProcess, BusWithdrawal, DisruptionPlan, Engine, GatewayOutage, NoiseBurst, PayloadModel,
    Scenario, TrafficModel, TrafficProfile,
};
use mlora::simcore::{SimDuration, SimTime};
use proptest::prelude::*;

/// Gateways deployed by the smoke preset's 3×3 grid. An `outage_gw`
/// draw of exactly `GATEWAYS` means "no outage".
const GATEWAYS: usize = 9;

proptest! {
    /// A lazily pruned run and an eagerly pruned run of the same
    /// scenario report identically, field for field — counters,
    /// float accumulators, per-profile rows and time series.
    #[test]
    fn lazy_and_eager_pruning_report_identically(
        seed in 0u64..1_000_000,
        interval_s in 30u64..600,
        jitter in 0.0f64..0.45,
        payload in 12usize..64,
        duration_min in 15u64..30,
        outage_gw in 0usize..GATEWAYS + 1,
        outage_start in 0u64..1_200,
        outage_dur in 0u64..1_000,
        withdraw_at in 0u64..1_200,
        withdraw_frac in 0.0f64..0.6,
        burst_start in 0u64..1_200,
        burst_dur in 0u64..900,
    ) {
        let interval = SimDuration::from_secs(interval_s);
        // Sub-threshold draws decode to "feature absent", so the mix
        // covers plain periodic traffic and disruption-free runs too.
        let arrivals = if jitter < 0.05 {
            ArrivalProcess::Periodic { interval }
        } else {
            ArrivalProcess::Jittered { interval, jitter }
        };
        let traffic = TrafficModel::mix([TrafficProfile::new(
            "prune-prop",
            arrivals,
            PayloadModel::Fixed { bytes: payload },
        )]);
        let plan = DisruptionPlan {
            outages: (outage_gw < GATEWAYS)
                .then(|| GatewayOutage {
                    gateway: outage_gw,
                    start: SimTime::from_secs(outage_start),
                    duration: (outage_dur > 0).then(|| SimDuration::from_secs(outage_dur)),
                })
                .into_iter()
                .collect(),
            withdrawals: (withdraw_frac >= 0.05)
                .then(|| BusWithdrawal {
                    at: SimTime::from_secs(withdraw_at),
                    fraction: withdraw_frac,
                })
                .into_iter()
                .collect(),
            noise_bursts: (burst_dur > 0)
                .then(|| NoiseBurst {
                    center: Point::new(5_000.0, 5_000.0),
                    radius_m: 4_000.0,
                    start: SimTime::from_secs(burst_start),
                    duration: Some(SimDuration::from_secs(burst_dur)),
                    extra_loss_db: 10.0,
                })
                .into_iter()
                .collect(),
        };
        let config = Scenario::urban()
            .smoke()
            .duration(SimDuration::from_mins(duration_min))
            .traffic(traffic)
            .disruptions(plan)
            .build()
            .expect("generated scenario is valid");

        let lazy = Engine::new(config.clone(), seed).run();
        let mut engine = Engine::new(config, seed);
        let slice = SimDuration::from_millis(100 + seed % 901);
        let horizon = SimTime::ZERO + SimDuration::from_mins(duration_min);
        let mut t = SimTime::ZERO;
        while t < horizon {
            t += slice;
            engine.run_until(t);
            probe::sweep_flights(&mut engine);
        }
        let eager = engine.finish();

        prop_assert_eq!(lazy, eager, "lazy and eager pruning diverged");
    }
}
