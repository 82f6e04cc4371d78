//! Golden determinism fixtures.
//!
//! These fingerprints were recorded from the engine *before* the dense
//! hot-path refactor (slab storage, incremental grid, scratch buffers)
//! and pin the simulation down bit-for-bit: every counter is compared
//! exactly and every floating-point statistic is compared by its IEEE-754
//! bit pattern. Any change to RNG draw order, event ordering, or float
//! evaluation order fails these tests.
//!
//! To regenerate after an *intentional* behaviour change, run
//!
//! ```text
//! cargo test --test golden_determinism -- --ignored --nocapture
//! ```
//!
//! and paste the printed table over `FIXTURES`.

use mlora::core::Scheme;
use mlora::geo::Point;
use mlora::sim::{
    ArrivalProcess, DisruptionPlan, Environment, ExperimentPlan, PayloadModel, Runner, Scenario,
    SimConfig, SimReport, TrafficModel, TrafficProfile,
};
use mlora::simcore::SimDuration;

/// The seed every fixture run uses.
const GOLDEN_SEED: u64 = 4242;

/// Width of one fingerprint: 11 exact counters, 6 float bit patterns and
/// a bucket-weighted series checksum.
const FP_LEN: usize = 18;

/// The fixture scenarios: all four schemes × both environments.
fn scenarios() -> Vec<(Scheme, Environment)> {
    let mut out = Vec::new();
    for scheme in Scheme::WITH_CA_ETX {
        for env in [Environment::Urban, Environment::Rural] {
            out.push((scheme, env));
        }
    }
    out
}

/// A bit-exact digest of everything a [`SimReport`] contains.
fn fingerprint(r: &SimReport) -> [u64; FP_LEN] {
    // Position-weighted checksum so a permutation of bucket counts cannot
    // cancel out.
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

fn run(scheme: Scheme, env: Environment) -> SimReport {
    SimConfig::smoke_test(scheme, env)
        .run(GOLDEN_SEED)
        .expect("smoke config is valid")
}

/// Recorded on the pre-refactor engine (seed 4242, smoke scale).
const FIXTURES: [[u64; FP_LEN]; 8] = [
    // NoRouting / Urban
    [
        297,
        232,
        0,
        65,
        0,
        1625,
        4285,
        0,
        0,
        0,
        28,
        4642453487001557604,
        4625946806998997411,
        4607182418800017408,
        4607182418800017408,
        4701912839961370533,
        4677510462630633931,
        1626,
    ],
    // NoRouting / Rural
    [
        299,
        236,
        0,
        63,
        0,
        1633,
        4324,
        0,
        0,
        2,
        28,
        4642668370156137099,
        4626021376476001841,
        4607182418800017408,
        4607182418800017408,
        4701913996425123646,
        4677510462630633931,
        1661,
    ],
    // CaEtx / Urban
    [
        295,
        250,
        0,
        45,
        0,
        1548,
        4076,
        16,
        28,
        0,
        28,
        4643475978852268532,
        4626542757275065566,
        4607668807559773423,
        4611686018427387904,
        4701905349352004727,
        4677510462630633931,
        1748,
    ],
    // CaEtx / Rural
    [
        293,
        237,
        2,
        56,
        0,
        1460,
        3938,
        37,
        66,
        0,
        28,
        4643312304008738346,
        4626783881861341023,
        4607847507352582675,
        4613937818241073152,
        4701899064189635055,
        4677510462630633931,
        1656,
    ],
    // RcaEtx / Urban
    [
        296,
        250,
        0,
        46,
        0,
        1566,
        4139,
        18,
        35,
        0,
        28,
        4643641591058371973,
        4626668481929480468,
        4607812922747849281,
        4613937818241073152,
        4701907381391226778,
        4677510462630633931,
        1751,
    ],
    // RcaEtx / Rural
    [
        293,
        255,
        0,
        38,
        0,
        1470,
        3821,
        42,
        91,
        0,
        28,
        4644206739138192291,
        4627207192997398038,
        4608736602200835462,
        4613937818241073152,
        4701896823971630181,
        4677510462630633931,
        1800,
    ],
    // Robc / Urban
    [
        290,
        245,
        0,
        45,
        0,
        1604,
        4140,
        15,
        28,
        0,
        28,
        4643595152282724534,
        4626683479658253214,
        4607641969782402152,
        4616189618054758400,
        4701908811854995521,
        4677510462630633931,
        1714,
    ],
    // Robc / Rural
    [
        295,
        246,
        0,
        49,
        0,
        1622,
        4322,
        39,
        56,
        1,
        28,
        4643747482931489248,
        4627032426575528336,
        4608116091893496657,
        4616189618054758400,
        4701913621397169295,
        4677510462630633931,
        1713,
    ],
];

#[test]
fn engine_reproduces_golden_fixtures() {
    for ((scheme, env), want) in scenarios().into_iter().zip(FIXTURES) {
        let got = fingerprint(&run(scheme, env));
        assert_eq!(
            got, want,
            "fingerprint drift for {scheme:?}/{env:?} at seed {GOLDEN_SEED}"
        );
    }
}

/// An explicitly attached empty [`DisruptionPlan`] must reproduce the
/// recorded pre-subsystem fingerprints byte-for-byte: the disruption
/// machinery costs nothing — no events, no RNG draws — until a plan
/// actually schedules something.
#[test]
fn empty_disruption_plan_reproduces_golden_fixtures() {
    for ((scheme, env), want) in scenarios().into_iter().zip(FIXTURES) {
        let report = Scenario::custom(env)
            .scheme(scheme)
            .smoke()
            .disruptions(DisruptionPlan::default())
            .run(GOLDEN_SEED)
            .expect("smoke config with empty plan is valid");
        let got = fingerprint(&report);
        assert_eq!(
            got, want,
            "empty DisruptionPlan perturbed {scheme:?}/{env:?} at seed {GOLDEN_SEED}"
        );
        let r = report;
        assert_eq!(r.gateway_outages, 0);
        assert_eq!(r.buses_withdrawn, 0);
        assert_eq!(r.noise_bursts, 0);
        assert_eq!(r.outage_time_s.to_bits(), 0.0f64.to_bits());
    }
}

/// An explicitly attached empty [`TrafficModel`] must reproduce the
/// recorded pre-subsystem fingerprints byte-for-byte: the traffic
/// machinery costs nothing — no per-device streams, no extra draws —
/// until a profile is actually mixed in.
#[test]
fn empty_traffic_model_reproduces_golden_fixtures() {
    for ((scheme, env), want) in scenarios().into_iter().zip(FIXTURES) {
        let report = Scenario::custom(env)
            .scheme(scheme)
            .smoke()
            .traffic(TrafficModel::default())
            .run(GOLDEN_SEED)
            .expect("smoke config with empty traffic model is valid");
        let got = fingerprint(&report);
        assert_eq!(
            got, want,
            "empty TrafficModel perturbed {scheme:?}/{env:?} at seed {GOLDEN_SEED}"
        );
        assert!(report.profiles.is_empty());
        assert!(report.total_airtime_s > 0.0);
    }
}

/// The disrupted fixture scenario: smoke-scale urban ROBC with one
/// outage window, one fleet withdrawal and one regional noise burst.
fn disrupted_config() -> SimConfig {
    Scenario::urban()
        .scheme(Scheme::Robc)
        .smoke()
        .gateway_outage(4, SimDuration::from_mins(30), SimDuration::from_mins(30))
        .withdraw_buses(SimDuration::from_mins(45), 0.25)
        .noise_burst(
            Point::new(5_000.0, 5_000.0),
            3_000.0,
            SimDuration::from_mins(20),
            SimDuration::from_mins(40),
            12.0,
        )
        .build()
        .expect("disrupted smoke config is valid")
}

/// Width of a disrupted fingerprint: the base fingerprint plus the six
/// resilience counters.
const DFP_LEN: usize = FP_LEN + 6;

/// Fingerprint of a disrupted run: everything in [`fingerprint`] plus
/// the resilience counters (outage/withdrawal/noise counts exact,
/// disrupted time by bit pattern).
fn disrupted_fingerprint(r: &SimReport) -> [u64; DFP_LEN] {
    let mut out = [0u64; DFP_LEN];
    out[..FP_LEN].copy_from_slice(&fingerprint(r));
    out[FP_LEN] = r.gateway_outages;
    out[FP_LEN + 1] = r.buses_withdrawn;
    out[FP_LEN + 2] = r.noise_bursts;
    out[FP_LEN + 3] = r.outage_time_s.to_bits();
    out[FP_LEN + 4] = r.generated_during_outage;
    out[FP_LEN + 5] = r.delivered_of_outage_generated;
    out
}

/// Recorded on the engine that introduced the disruption subsystem
/// (seed 4242, smoke scale, urban ROBC, one outage + one withdrawal +
/// one noise burst).
const DISRUPTED_FIXTURE: [u64; DFP_LEN] = [
    267,
    195,
    0,
    72,
    0,
    1556,
    4498,
    13,
    38,
    0,
    28,
    4644446686175652332,
    4628748073743616730,
    4607505754157879903,
    4613937818241073152,
    4701260744004337874,
    4676854739459473671,
    1429,
    1,
    2,
    1,
    4655631299166339072,
    86,
    60,
];

#[test]
fn disrupted_run_matches_golden_fixture() {
    let report = disrupted_config()
        .run(GOLDEN_SEED)
        .expect("valid disrupted config");
    assert_eq!(
        disrupted_fingerprint(&report),
        DISRUPTED_FIXTURE,
        "fingerprint drift for the disrupted fixture at seed {GOLDEN_SEED}"
    );
    // The fixture genuinely exercises every disruption kind.
    assert_eq!(report.gateway_outages, 1);
    assert_eq!(report.noise_bursts, 1);
    assert!(report.buses_withdrawn > 0, "withdrawal selected no buses");
    assert_eq!(report.outage_time_s, 1_800.0);
    assert!(report.generated_during_outage > 0);
}

/// Disrupted runs must stay bit-identical across `Runner` worker
/// counts, exactly like undisrupted ones.
#[test]
fn disrupted_runs_deterministic_across_worker_counts() {
    let plan = ExperimentPlan::new(disrupted_config())
        .schemes([Scheme::Robc, Scheme::RcaEtx])
        .fixed_seeds([GOLDEN_SEED, GOLDEN_SEED + 1]);
    let serial = Runner::single_threaded().run(&plan).expect("valid plan");
    let parallel = Runner::new().workers(4).run(&plan).expect("valid plan");
    assert_eq!(serial, parallel);
    // And the runner reproduces a direct engine run of the same cell.
    let direct = disrupted_config().run(GOLDEN_SEED).unwrap();
    assert_eq!(
        *serial[0].report.runs()[0].1.throughput_series.counts(),
        *direct.throughput_series.counts()
    );
    assert_eq!(serial[0].report.runs()[0].1, direct);
}

/// Regeneration helper: prints the `DISRUPTED_FIXTURE` row for pasting.
#[test]
#[ignore = "generator: prints the disrupted fixture row"]
fn print_disrupted_fixture() {
    let report = disrupted_config().run(GOLDEN_SEED).unwrap();
    let row: Vec<String> = disrupted_fingerprint(&report)
        .iter()
        .map(|v| format!("{v}"))
        .collect();
    println!("const DISRUPTED_FIXTURE: [u64; DFP_LEN] = [");
    println!("    {},", row.join(", "));
    println!("];");
}

/// The mixed-traffic fixture scenario: smoke-scale urban ROBC with all
/// four non-trivial arrival processes in one weighted mix — jittered
/// telemetry, Poisson tracking with variable payloads, diurnal
/// passenger counts and bursty high-priority alerts.
fn traffic_config() -> SimConfig {
    Scenario::urban()
        .scheme(Scheme::Robc)
        .smoke()
        .profile(TrafficProfile::telemetry().weight(4.0))
        .profile(TrafficProfile::tracking().weight(2.0))
        .profile(TrafficProfile::passenger_counts().weight(1.0))
        .profile(TrafficProfile::alerts().weight(0.5))
        .build()
        .expect("mixed traffic smoke config is valid")
}

/// Number of profiles in the mixed-traffic fixture.
const TRAFFIC_PROFILES: usize = 4;

/// Width of a traffic fingerprint: the base fingerprint, the total
/// airtime bit pattern, and five entries per profile (generated and
/// delivered exact; delay mean, attributed airtime by bit pattern;
/// payload bytes exact).
const TFP_LEN: usize = FP_LEN + 1 + TRAFFIC_PROFILES * 5;

/// Fingerprint of a mixed-traffic run: everything in [`fingerprint`]
/// plus the per-profile breakdown.
fn traffic_fingerprint(r: &SimReport) -> [u64; TFP_LEN] {
    assert_eq!(r.profiles.len(), TRAFFIC_PROFILES);
    let mut out = [0u64; TFP_LEN];
    out[..FP_LEN].copy_from_slice(&fingerprint(r));
    out[FP_LEN] = r.total_airtime_s.to_bits();
    for (i, p) in r.profiles.iter().enumerate() {
        let base = FP_LEN + 1 + i * 5;
        out[base] = p.generated;
        out[base + 1] = p.delivered;
        out[base + 2] = p.mean_delay_s().to_bits();
        out[base + 3] = p.airtime_s.to_bits();
        out[base + 4] = p.payload_bytes_sent;
    }
    out
}

/// Recorded on the engine that introduced the traffic subsystem
/// (seed 4242, smoke scale, urban ROBC, telemetry + tracking +
/// passenger-counts + alerts mix).
const TRAFFIC_FIXTURE: [u64; TFP_LEN] = [
    324,
    273,
    0,
    51,
    0,
    1427,
    3980,
    7,
    9,
    0,
    28,
    4643416157246890518,
    4626228250559186074,
    4607330889117403243,
    4611686018427387904,
    4701897153843157375,
    4677510462630633931,
    1927,
    4640626008895382347,
    // telemetry
    206,
    177,
    4641953761544898612,
    4636336458377984093,
    51080,
    // tracking
    93,
    86,
    4645395291648644401,
    4631132839978073852,
    25013,
    // passenger-counts
    3,
    1,
    4590573143374275019,
    4605902010782881918,
    408,
    // alerts
    22,
    9,
    4639634626661784691,
    4614393410747266024,
    1640,
];

#[test]
fn mixed_traffic_run_matches_golden_fixture() {
    let report = traffic_config()
        .run(GOLDEN_SEED)
        .expect("valid traffic config");
    assert_eq!(
        traffic_fingerprint(&report),
        TRAFFIC_FIXTURE,
        "fingerprint drift for the mixed-traffic fixture at seed {GOLDEN_SEED}"
    );
    // The fixture genuinely exercises every profile and both payload
    // regimes.
    for p in &report.profiles {
        assert!(p.generated > 0, "profile {} generated nothing", p.name);
    }
    let tracking = report.profile("tracking").expect("tracking profile");
    assert!(tracking.delivered > 0);
    // Variable 12–32-byte fixes average away from any fixed size.
    assert!(tracking.mean_payload_bytes() > 12.0);
    assert!(tracking.mean_payload_bytes() < 32.0);
    // Attributed airtime never exceeds the fleet total.
    let attributed: f64 = report.profiles.iter().map(|p| p.airtime_s).sum();
    assert!(attributed > 0.0 && attributed < report.total_airtime_s);
}

/// Mixed-traffic runs must stay bit-identical across `Runner` worker
/// counts, exactly like homogeneous ones.
#[test]
fn mixed_traffic_runs_deterministic_across_worker_counts() {
    let plan = ExperimentPlan::new(traffic_config())
        .schemes([Scheme::Robc, Scheme::NoRouting])
        .traffics([
            traffic_config().traffic,
            TrafficModel::mix([TrafficProfile::new(
                "steady",
                ArrivalProcess::Periodic {
                    interval: SimDuration::from_mins(2),
                },
                PayloadModel::Fixed { bytes: 40 },
            )]),
        ])
        .fixed_seeds([GOLDEN_SEED, GOLDEN_SEED + 1]);
    let serial = Runner::single_threaded().run(&plan).expect("valid plan");
    let parallel = Runner::new().workers(4).run(&plan).expect("valid plan");
    assert_eq!(serial, parallel);
    // And the runner reproduces a direct engine run of the same cell.
    let direct = traffic_config().run(GOLDEN_SEED).unwrap();
    assert_eq!(serial[0].report.runs()[0].1, direct);
}

/// A multi-worker `Runner` over the mixed-traffic fixture's plan
/// returns the single-threaded runner's runs, seed by seed.
#[test]
fn mixed_traffic_plan_runs_the_same_on_four_workers() {
    let plan = ExperimentPlan::new(traffic_config())
        .schemes([Scheme::Robc, Scheme::NoRouting])
        .fixed_seeds([GOLDEN_SEED, GOLDEN_SEED + 1]);
    let parallel = Runner::new().workers(4).run(&plan).expect("valid plan");
    let serial = Runner::single_threaded().run(&plan).expect("valid plan");
    for (a, b) in parallel.iter().zip(&serial) {
        assert_eq!(a.report.runs(), b.report.runs());
    }
}

/// Regeneration helper: prints the `TRAFFIC_FIXTURE` row for pasting.
#[test]
#[ignore = "generator: prints the mixed-traffic fixture row"]
fn print_traffic_fixture() {
    let report = traffic_config().run(GOLDEN_SEED).unwrap();
    let row: Vec<String> = traffic_fingerprint(&report)
        .iter()
        .map(|v| format!("{v}"))
        .collect();
    println!("const TRAFFIC_FIXTURE: [u64; TFP_LEN] = [");
    println!("    {},", row.join(", "));
    println!("];");
}

/// Regeneration helper: prints the `FIXTURES` table for pasting.
#[test]
#[ignore = "generator: prints the fixture table"]
fn print_golden_fixtures() {
    println!("const FIXTURES: [[u64; FP_LEN]; 8] = [");
    for (scheme, env) in scenarios() {
        let fp = fingerprint(&run(scheme, env));
        let row: Vec<String> = fp.iter().map(|v| format!("{v}")).collect();
        println!("    // {scheme:?} / {env:?}");
        println!("    [{}],", row.join(", "));
    }
    println!("];");
}
