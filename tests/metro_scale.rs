//! Metro-scale golden fixtures: a 20 000-bus generated world, pinned
//! bit-for-bit and invariant to the runner's worker count.
//!
//! The world comes from the metro generator (radial + ring arterials,
//! staggered per-line fleets) rather than the paper's random-waypoint
//! substrate, so these fixtures additionally pin the generator: any
//! change to its RNG draw order or geometry changes the fleet and fails
//! the fingerprint.
//!
//! The simulation fixtures run at 20k-fleet scale and are compiled only
//! under the release profile (CI's `release-tests` job); the structural
//! and scenario-file round-trip checks are cheap and run everywhere.
//!
//! To regenerate after an *intentional* behaviour change, run
//!
//! ```text
//! cargo test --release --test metro_scale -- --ignored --nocapture
//! ```
//!
//! and paste the printed rows over `FIXTURES`.

use mlora::core::Scheme;
use mlora::mobility::DiurnalProfile;
#[cfg(not(debug_assertions))]
use mlora::sim::SimReport;
use mlora::sim::{MetroConfig, Scenario, SimConfig};
use mlora::simcore::SimDuration;

/// The seed every fixture run uses.
const GOLDEN_SEED: u64 = 4242;

/// Width of one fingerprint: 11 exact counters, 6 float bit patterns and
/// a bucket-weighted series checksum (same layout as
/// `tests/golden_determinism.rs`).
#[cfg(not(debug_assertions))]
const FP_LEN: usize = 18;

/// A compact metro: 20 km side so route cycles are short enough that the
/// staggered fleet fully materializes inside a 40-minute service window,
/// with the flat profile keeping event density constant.
fn metro_config() -> MetroConfig {
    MetroConfig {
        area_side_m: 20_000.0,
        num_radials: 48,
        num_rings: 24,
        peak_active_buses: 24_000,
        min_legs: 1,
        max_legs: 1,
        horizon: SimDuration::from_mins(40),
        profile: DiurnalProfile::flat(1.0),
        ..MetroConfig::default()
    }
}

fn metro_scenario(scheme: Scheme) -> SimConfig {
    Scenario::urban()
        .scheme(scheme)
        .metro(&metro_config(), GOLDEN_SEED)
        .build()
        .expect("metro scenario is valid")
}

/// A bit-exact digest of everything a [`SimReport`] contains.
#[cfg(not(debug_assertions))]
fn fingerprint(r: &SimReport) -> [u64; FP_LEN] {
    let series: u64 = r
        .throughput_series
        .counts()
        .iter()
        .enumerate()
        .map(|(i, &c)| c.wrapping_mul(i as u64 + 1))
        .fold(0, u64::wrapping_add);
    [
        r.generated,
        r.delivered,
        r.duplicates,
        r.stranded,
        r.queue_drops,
        r.frames_sent,
        r.messages_sent,
        r.handover_frames,
        r.handover_messages,
        r.collisions,
        r.devices_seen,
        r.mean_delay_s().to_bits(),
        r.delay_std_error_s().to_bits(),
        r.mean_hops().to_bits(),
        r.max_hops().to_bits(),
        r.total_energy_mj.to_bits(),
        r.total_active_s.to_bits(),
        series,
    ]
}

#[test]
fn metro_world_clears_twenty_thousand_buses() {
    let config = metro_scenario(Scheme::Robc);
    let world = config.world.as_ref().expect("metro attaches a world");
    assert!(
        world.trips().len() >= 20_000,
        "fleet too small: {} trips",
        world.trips().len()
    );
}

#[test]
fn metro_world_scenario_file_roundtrips_bit_identically() {
    let config = metro_scenario(Scheme::Robc);
    let mut bytes = Vec::new();
    config
        .to_writer(&mut bytes)
        .expect("metro config serializes");
    let reloaded = SimConfig::from_reader(bytes.as_slice()).expect("metro file loads");
    let mut rewritten = Vec::new();
    reloaded
        .to_writer(&mut rewritten)
        .expect("reloaded config serializes");
    assert_eq!(
        bytes, rewritten,
        "write -> read -> write must be byte-identical"
    );
    assert_eq!(
        reloaded.world.as_ref().map(|w| w.trips().len()),
        config.world.as_ref().map(|w| w.trips().len())
    );
}

/// The fixture schemes: the cheap no-forwarding baseline plus ROBC, the
/// paper's headline scheme.
#[cfg(not(debug_assertions))]
const SCHEMES: [Scheme; 2] = [Scheme::NoRouting, Scheme::Robc];

/// Recorded at 20k-fleet scale (seed 4242, 40-minute horizon).
#[cfg(not(debug_assertions))]
const FIXTURES: [[u64; FP_LEN]; 2] = [
    // NoRouting
    [
        115475,
        98255,
        0,
        17220,
        0,
        534962,
        853076,
        0,
        0,
        20637061,
        20685,
        4637574992908101156,
        4603075239237348054,
        4607182418800017408,
        4607182418800017408,
        4740333734611787318,
        4716340379392214564,
        303043,
    ],
    // Robc
    [
        115369,
        94332,
        21089,
        21037,
        0,
        886554,
        1184141,
        313256,
        257705,
        43115792,
        20685,
        4638689301604747260,
        4603439328014124190,
        4613060224546989205,
        4632092954238910464,
        4740413047789168312,
        4716340379392214564,
        288872,
    ],
];

/// Runs both fixture schemes through the parallel [`Runner`] at the
/// given worker count, returning the executed cells in plan order.
#[cfg(not(debug_assertions))]
fn run_cells(workers: usize) -> Vec<mlora::sim::CellResult> {
    use mlora::sim::{ExperimentPlan, Runner};

    let plan = ExperimentPlan::new(metro_scenario(Scheme::Robc))
        .schemes(SCHEMES)
        .fixed_seeds([GOLDEN_SEED]);
    Runner::new()
        .workers(workers)
        .run(&plan)
        .expect("metro plan runs")
}

#[cfg(not(debug_assertions))]
#[test]
fn metro_fingerprints_match_and_survive_worker_counts() {
    let single = run_cells(1);
    assert_eq!(single.len(), FIXTURES.len());
    for (cell, expected) in single.iter().zip(FIXTURES) {
        assert_eq!(
            fingerprint(cell.report.single()),
            expected,
            "{} fingerprint drifted",
            cell.report.single().scheme
        );
    }
    // The same plan across a thread pool must be bit-identical to the
    // sequential run — scheduling can never leak into results.
    let pooled = run_cells(3);
    assert_eq!(single, pooled);
}

/// Prints the fixture table; run with `--ignored --nocapture` to
/// regenerate `FIXTURES` after an intentional behaviour change.
#[cfg(not(debug_assertions))]
#[test]
#[ignore = "regeneration helper, not a check"]
fn print_metro_fingerprints() {
    for (cell, scheme) in run_cells(1).iter().zip(SCHEMES) {
        println!("// {scheme:?}");
        println!("{:?},", fingerprint(cell.report.single()));
    }
}
