//! Shared configuration for the benchmark harness.
//!
//! The `repro` binary is the figure harness: it runs [`paper_config`]
//! (24 h, full fleet) to regenerate the figures at paper scale, and
//! [`bench_config`] (full area, 6-hour horizon) under `--quick` so a full
//! pass finishes in seconds. Both use the same code paths — only fleet
//! size and horizon differ. The `engine_events` binary times the engine
//! on [`engine_throughput_config`] and [`metro_throughput_config`]; the
//! repo benchmark (`benchmark/`) times the per-layer kernels.
//!
//! Sweeps are expressed as [`ExperimentPlan`]s and executed through the
//! parallel [`Runner`](mlora_sim::Runner); [`figure_sweep_plan`] is the
//! shared gateway-density sweep behind Figs. 8, 9, 12 and 13.

use mlora_core::Scheme;
use mlora_sim::{Environment, ExperimentPlan, MetroConfig, Scenario, SimConfig};
use mlora_simcore::SimDuration;

/// The seed every harness run uses, so printed numbers are reproducible.
pub const HARNESS_SEED: u64 = 2020;

/// The bench-scale configuration for a scheme/environment pair.
pub fn bench_config(scheme: Scheme, environment: Environment) -> SimConfig {
    Scenario::custom(environment)
        .scheme(scheme)
        .bench()
        .build()
        .expect("bench preset is valid")
}

/// The paper-scale configuration for a scheme/environment pair.
pub fn paper_config(scheme: Scheme, environment: Environment) -> SimConfig {
    Scenario::custom(environment)
        .scheme(scheme)
        .build()
        .expect("paper preset is valid")
}

/// The engine-throughput scenario behind the `engine_events` binary's
/// `200_buses` and `2000_buses` tiers: a `buses`-vehicle fleet on the
/// full 600 km² area with a *flat* activity profile (the whole fleet
/// stays in service, so event density is constant) over a 1-hour
/// horizon, running ROBC in the urban environment.
pub fn engine_throughput_config(buses: usize) -> SimConfig {
    let mut cfg = bench_config(Scheme::Robc, Environment::Urban);
    cfg.network.max_active_buses = buses;
    cfg.network.profile = mlora_mobility::DiurnalProfile::flat(1.0);
    cfg.network.horizon = SimDuration::from_hours(1);
    cfg.horizon = SimDuration::from_hours(1);
    cfg
}

/// The metro-scale engine-throughput scenario behind the
/// `engine_events` 20k/100k tiers: a radial-plus-ring metro world with
/// a flat activity profile and a 1-hour horizon, running ROBC in the
/// urban environment. Routes are single-leg and brisk (8–12 m/s, so a
/// line cycle stays well under the window at every tier) and the
/// staggered fleet reaches its full `buses`-wide steady state; the area
/// and line count scale with the square root of the fleet so bus
/// density — and therefore per-event neighbourhood cost — is constant
/// across tiers. The world is prebuilt once with [`HARNESS_SEED`], so
/// the engine skips seeded generation and every run is reproducible.
pub fn metro_throughput_config(buses: usize) -> SimConfig {
    let scale = (buses as f64 / 20_000.0).sqrt();
    let metro = MetroConfig {
        area_side_m: 20_000.0 * scale,
        num_radials: (48.0 * scale).round() as usize,
        num_rings: (24.0 * scale).round() as usize,
        min_speed_mps: 8.0,
        max_speed_mps: 12.0,
        peak_active_buses: buses,
        min_legs: 1,
        max_legs: 1,
        horizon: SimDuration::from_hours(1),
        profile: mlora_mobility::DiurnalProfile::flat(1.0),
        ..MetroConfig::default()
    };
    Scenario::custom(Environment::Urban)
        .scheme(Scheme::Robc)
        .bench()
        .metro(&metro, HARNESS_SEED)
        .build()
        .expect("metro bench preset is valid")
}

/// The shared gateway-density sweep behind Figs. 8, 9, 12 and 13 over
/// `base`: both environments × `gateway_counts` × every scheme. Callers
/// choose the seed policy — `.fixed_seeds([seed])` for the paper's
/// same-fleet-everywhere comparison, or `.seed(s).replicate(n)` for
/// multi-seed confidence intervals.
pub fn figure_sweep_plan(base: SimConfig, gateway_counts: &[usize]) -> ExperimentPlan {
    ExperimentPlan::new(base)
        .environments([Environment::Urban, Environment::Rural])
        .gateway_counts(gateway_counts.iter().copied())
        .schemes(Scheme::ALL)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlora_sim::Engine;
    use mlora_simcore::SimTime;

    /// `BENCH_engine.json`'s rows stay comparable only while the tiers
    /// run the workload they were recorded on: every field of its
    /// `200_buses` [`EngineStats`](mlora_sim::EngineStats), so no
    /// counter can be dropped or counted twice unseen.
    #[test]
    fn recorded_tiers_run_the_recorded_workload() {
        let mut engine = Engine::new(engine_throughput_config(200), HARNESS_SEED);
        engine.run_until(SimTime::MAX);
        let stats = engine.stats();
        assert_eq!(stats.events_processed, 16_585);
        // How much state the engine held: one row per departed bus,
        // and the deepest the event queue got.
        assert_eq!(stats.device_rows, 169);
        assert_eq!(stats.queue_depth_high_water, 294);
        assert_eq!(stats.receptions, 3_177);
        assert_eq!(stats.frames_heard, 3_185);
        assert_eq!(stats.rssi_evaluated, 633);
        // The neighbour queries' work: `candidates` is the model's,
        // the other two are the cell list's (docs/lab-notebook.md,
        // "PR 26").
        assert_eq!(stats.grid_entries, 16_721);
        assert_eq!(stats.positions_located, 3_123);
        assert_eq!(stats.candidates, 2_519);
        // The interferer scans' work: `overlaps` is the model's,
        // `flights_scanned` the flight ring's (docs/lab-notebook.md,
        // "PR 27").
        assert_eq!(stats.flights_scanned, 24_317);
        assert_eq!(stats.overlaps, 11_592);
        // The forwarding layer's work: `beacons_decoded` is the
        // model's, `policy_decisions` the beacons that passed the
        // receivers' offer bits and fetched a device row
        // (docs/lab-notebook.md, "PR 39").
        assert_eq!(stats.beacons_decoded, 2_305);
        assert_eq!(stats.policy_decisions, 1_529);
        // `build()` validates the metro tier's world.
        metro_throughput_config(20_000);
    }
}
