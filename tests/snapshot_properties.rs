//! Property-based tests over the engine snapshot subsystem: for
//! arbitrary scenarios (scheme × traffic × disruptions)
//! and an arbitrary snapshot instant, capturing mid-run state and
//! resuming it reproduces the uninterrupted run bit for bit; what-if
//! forks are deterministic, their control branch is exact, a branch
//! diverges only once its overlay's first event fires, and a checkpoint
//! of a branch resumes to that branch.
//!
//! The closing golden fixture replays the 20 000-bus metro world
//! through a mid-run snapshot at scale; like the metro fingerprints it
//! is compiled only under the release profile (CI's `release-tests`
//! job).

use mlora::core::Scheme;
use mlora::geo::Point;
use mlora::sim::{
    BusWithdrawal, DisruptionPlan, Engine, GatewayOutage, NoiseBurst, Runner, Scenario, SimConfig,
    Snapshot, TrafficModel, TrafficProfile,
};
use mlora::simcore::{SimDuration, SimTime};
use proptest::prelude::*;

/// The smoke preset's horizon, seconds.
const HORIZON_S: u64 = 2 * 3600;

/// The scheme under test, decoded from a flat draw.
fn scheme(idx: u32) -> Scheme {
    match idx % 4 {
        0 => Scheme::NoRouting,
        1 => Scheme::RcaEtx,
        2 => Scheme::CaEtx,
        _ => Scheme::Robc,
    }
}

/// A mixed-profile traffic model exercising per-device RNG cursors,
/// priorities and payload models.
fn traffic() -> TrafficModel {
    TrafficModel::mix([TrafficProfile::telemetry(), TrafficProfile::alerts()])
}

/// A disruption plan hitting all three mechanisms inside the smoke
/// horizon: outage depth, fleet withdrawal and regional noise.
fn disruptions() -> DisruptionPlan {
    DisruptionPlan {
        outages: vec![GatewayOutage {
            gateway: 0,
            start: SimTime::from_secs(600),
            duration: Some(SimDuration::from_secs(900)),
        }],
        withdrawals: vec![BusWithdrawal {
            at: SimTime::from_secs(1_800),
            fraction: 0.2,
        }],
        noise_bursts: vec![NoiseBurst {
            center: Point::new(5_000.0, 5_000.0),
            radius_m: 4_000.0,
            start: SimTime::from_secs(1_200),
            duration: Some(SimDuration::from_secs(600)),
            extra_loss_db: 10.0,
        }],
    }
}

/// The configuration a property case runs: smoke scale with the drawn
/// scheme, optionally with traffic and disruptions.
fn config(scheme_idx: u32, with_traffic: bool, with_disruptions: bool) -> SimConfig {
    let mut builder = Scenario::urban().smoke().scheme(scheme(scheme_idx));
    if with_traffic {
        builder = builder.traffic(traffic());
    }
    if with_disruptions {
        builder = builder.disruptions(disruptions());
    }
    builder.build().expect("property scenario is valid")
}

proptest! {
    /// The tentpole property: step in one to five slices, ending at
    /// arbitrary instants, and checkpoint at every slice boundary; each
    /// checkpoint restores and runs to the horizon bit-identically to
    /// the uninterrupted run, for every scheme, with traffic and
    /// disruptions active. Taking the snapshots must also leave the
    /// running engine unperturbed.
    #[test]
    fn resume_is_bit_identical_to_the_uninterrupted_run(
        scheme_idx in 0u32..4,
        seed in 0u64..1_000,
        snap_frac in 0.05f64..0.95,
        more_fracs in proptest::collection::vec(0.05f64..0.95, 0..5),
        with_traffic in proptest::bool::ANY,
        with_disruptions in proptest::bool::ANY,
    ) {
        let cfg = config(scheme_idx, with_traffic, with_disruptions);
        let baseline = Engine::new(cfg.clone(), seed).run();

        let mut cuts: Vec<SimTime> = std::iter::once(snap_frac)
            .chain(more_fracs)
            .map(|frac| SimTime::from_secs((HORIZON_S as f64 * frac) as u64))
            .collect();
        cuts.sort_unstable();
        let mut engine = Engine::new(cfg, seed);
        let snaps: Vec<Snapshot> = cuts
            .iter()
            .map(|&cut| {
                engine.run_until(cut);
                engine.snapshot().expect("snapshot mid-run")
            })
            .collect();

        // The snapshotted engine keeps running unperturbed...
        prop_assert_eq!(engine.finish(), baseline.clone());
        // ...and every resumed copy reproduces the identical report, even
        // after a serialization round trip through raw bytes.
        for (cut, snap) in cuts.iter().zip(&snaps) {
            let reloaded = Snapshot::from_bytes(snap.as_bytes().to_vec()).expect("reload");
            let resumed = Engine::resume(&reloaded).expect("resume").finish();
            prop_assert_eq!(resumed, baseline.clone(), "checkpoint at {}", cut);
        }
    }
}

proptest! {
    /// Fork semantics: the control branch (empty overlay) reproduces
    /// the uninterrupted run exactly, identical overlays produce
    /// identical branches, and [`Runner::fork`] matches driving
    /// [`Engine::resume_with_overlay`] by hand.
    #[test]
    fn fork_control_is_exact_and_branches_are_deterministic(
        scheme_idx in 0u32..4,
        seed in 0u64..1_000,
        snap_frac in 0.1f64..0.6,
        overlay_frac in 0.65f64..0.9,
        workers in 1usize..5,
    ) {
        let cfg = config(scheme_idx, true, true);
        let baseline = Engine::new(cfg.clone(), seed).run();

        let snap_t = SimTime::from_secs((HORIZON_S as f64 * snap_frac) as u64);
        let mut engine = Engine::new(cfg, seed);
        engine.run_until(snap_t);
        let snap = engine.snapshot().expect("snapshot mid-run");

        let overlay = gateway_1_down((HORIZON_S as f64 * overlay_frac) as u64, 600);
        let branches = Runner::new()
            .workers(workers)
            .fork(&snap, &[DisruptionPlan::default(), overlay.clone(), overlay.clone()])
            .expect("fork runs");
        prop_assert_eq!(branches.len(), 3);
        prop_assert_eq!(branches[0].clone(), baseline);
        prop_assert_eq!(branches[1].clone(), branches[2].clone());
        let by_hand = Engine::resume_with_overlay(&snap, overlay)
            .expect("resume with overlay")
            .finish();
        prop_assert_eq!(branches[1].clone(), by_hand);
    }
}

proptest! {
    /// A forked branch diverges only after its overlay's first event:
    /// probed at any instant up to the overlay start, the overlay
    /// branch has processed exactly the events the control branch has.
    #[test]
    fn fork_diverges_only_after_the_overlay_start(
        scheme_idx in 0u32..4,
        seed in 0u64..1_000,
        snap_frac in 0.1f64..0.4,
        probe_frac in 0.0f64..1.0,
    ) {
        let cfg = config(scheme_idx, true, false);
        let snap_t = SimTime::from_secs((HORIZON_S as f64 * snap_frac) as u64);
        let overlay_start_s = HORIZON_S * 3 / 4;
        let mut engine = Engine::new(cfg, seed);
        engine.run_until(snap_t);
        let snap = engine.snapshot().expect("snapshot mid-run");

        let overlay = DisruptionPlan {
            withdrawals: vec![BusWithdrawal {
                at: SimTime::from_secs(overlay_start_s),
                fraction: 0.3,
            }],
            ..DisruptionPlan::default()
        };
        let mut control = Engine::resume(&snap).expect("resume control");
        let mut branch =
            Engine::resume_with_overlay(&snap, overlay).expect("resume branch");

        // Any probe instant strictly before the overlay start must see
        // identical progress on both branches.
        let span = overlay_start_s - snap_t.as_millis() / 1000 - 1;
        let probe =
            SimTime::from_secs(snap_t.as_millis() / 1000 + (span as f64 * probe_frac) as u64);
        prop_assert_eq!(control.run_until(probe), branch.run_until(probe));
        // Past the overlay start the branches may diverge freely (the
        // withdrawal culls its buses' future events); both must still
        // run cleanly to completion.
        control.finish();
        branch.finish();
    }
}

/// An overlay taking gateway 1 down at `start_s` for `duration_s`.
fn gateway_1_down(start_s: u64, duration_s: u64) -> DisruptionPlan {
    DisruptionPlan {
        outages: vec![GatewayOutage {
            gateway: 1,
            start: SimTime::from_secs(start_s),
            duration: Some(SimDuration::from_secs(duration_s)),
        }],
        ..DisruptionPlan::default()
    }
}

/// Forks `cfg`'s run at `fork_s` under `overlay`, checkpoints the
/// branch at `checkpoint_s` and resumes the checkpoint. Returns the
/// report the branch runs out to and the resumed copy's, then the
/// checkpoint's bytes and those of the resumed copy captured again on
/// the spot: each pair must be equal.
fn checkpoint_a_branch(
    cfg: SimConfig,
    seed: u64,
    fork_s: u64,
    overlay: DisruptionPlan,
    checkpoint_s: u64,
) -> ([mlora::sim::SimReport; 2], [Vec<u8>; 2]) {
    let mut trunk = Engine::new(cfg, seed);
    trunk.run_until(SimTime::from_secs(fork_s));
    let fork_point = trunk.snapshot().expect("snapshot the trunk");
    let mut branch = Engine::resume_with_overlay(&fork_point, overlay).expect("fork");
    branch.run_until(SimTime::from_secs(checkpoint_s));
    let checkpoint = branch.snapshot().expect("snapshot the branch");
    let resumed = Engine::resume(&checkpoint).expect("resume the branch");
    let again = resumed.snapshot().expect("snapshot the resumed branch");
    (
        [branch.finish(), resumed.finish()],
        [checkpoint.as_bytes().to_vec(), again.as_bytes().to_vec()],
    )
}

/// The case the defect was found on: the base plan takes gateway 0
/// down over 3 000–4 000 s, a fork at 1 000 s adds gateway 1 down over
/// 2 000–3 500 s — between the snapshot and the base plan's events, so
/// the merged plan's compiled order interleaves the two — and the
/// branch is checkpointed at 2 500 s with three of the four queued. The
/// two windows overlap: some gateway is down from 2 000 s to 4 000 s.
#[test]
fn a_branch_checkpoint_resumes_to_the_branch() {
    let cfg = Scenario::urban()
        .smoke()
        .scheme(Scheme::RcaEtx)
        .disruptions(DisruptionPlan {
            outages: vec![GatewayOutage {
                gateway: 0,
                start: SimTime::from_secs(3_000),
                duration: Some(SimDuration::from_secs(1_000)),
            }],
            ..DisruptionPlan::default()
        })
        .build()
        .expect("scenario is valid");
    let ([branch, resumed], [checkpoint, again]) =
        checkpoint_a_branch(cfg, 7, 1_000, gateway_1_down(2_000, 1_500), 2_500);
    assert_eq!(branch.outage_time_s, 2_000.0);
    assert_eq!(resumed, branch);
    assert!(again == checkpoint, "re-captured bytes differ");
}

proptest! {
    /// The same over arbitrary scenarios: the overlay's outage starts
    /// and ends among the base plan's events (600 s to 1 800 s), after
    /// a fork taken before the first of them, and the branch is
    /// checkpointed anywhere past the overlay's first event.
    #[test]
    fn any_branch_checkpoint_resumes_to_the_branch(
        scheme_idx in 0u32..4,
        seed in 0u64..1_000,
        fork_s in 60u64..600,
        overlay_s in 601u64..1_800,
        overlay_len_s in 100u64..1_200,
        checkpoint_after_s in 1u64..1_500,
    ) {
        let ([branch, resumed], [checkpoint, again]) = checkpoint_a_branch(
            config(scheme_idx, true, true),
            seed,
            fork_s,
            gateway_1_down(overlay_s, overlay_len_s),
            overlay_s + checkpoint_after_s,
        );
        prop_assert_eq!(resumed, branch);
        prop_assert!(again == checkpoint, "re-captured bytes differ");
    }
}

/// Golden fixture: the 20 000-bus metro world (the `metro_scale`
/// fixture generator) snapshotted mid-run and resumed, bit-identical to
/// the uninterrupted run. Release builds only — the fleet is far too
/// large for the debug profile.
#[cfg(not(debug_assertions))]
#[test]
fn metro_scale_resume_is_bit_identical() {
    use mlora::mobility::{DiurnalProfile, MetroConfig};

    let metro = MetroConfig {
        area_side_m: 20_000.0,
        num_radials: 48,
        num_rings: 24,
        peak_active_buses: 24_000,
        min_legs: 1,
        max_legs: 1,
        horizon: SimDuration::from_mins(40),
        profile: DiurnalProfile::flat(1.0),
        ..MetroConfig::default()
    };
    let cfg = Scenario::urban()
        .scheme(Scheme::Robc)
        .metro(&metro, 4242)
        .build()
        .expect("metro scenario is valid");

    let baseline = Engine::new(cfg.clone(), 4242).run();
    let mut engine = Engine::new(cfg, 4242);
    engine.run_until(SimTime::from_secs(20 * 60));
    let snap = engine.snapshot().expect("snapshot mid-run");
    assert_eq!(engine.finish(), baseline, "snapshot must not perturb");
    let resumed = Snapshot::from_bytes(snap.as_bytes().to_vec()).expect("reload");
    assert_eq!(
        Engine::resume(&resumed).expect("resume").finish(),
        baseline,
        "metro-scale resume must be bit-identical"
    );
}

/// A checkpoint written by the last build that seeded the whole
/// timetable into the event queue (the smoke preset under ROBC with a
/// flat activity profile, seed 7, stepped to 1 800 s of its 131-trip,
/// two-hour day): its events section carries a `TripStart` and a
/// `TripEnd` record for every trip yet to depart. It resumes to the
/// same report as today's uninterrupted run — the undeparted trips'
/// records are dropped at load, and the timetable cursor starts each of
/// those trips exactly once.
#[test]
fn eager_seeding_era_snapshot_resumes_bit_identically() {
    let written = include_bytes!("fixtures/eager_seeding.mlss");
    let snap = Snapshot::from_bytes(written.to_vec()).expect("fixture loads");
    let cfg = snap.config().expect("fixture embeds its scenario");
    let baseline = Engine::new(cfg, snap.seed()).run();
    assert_eq!(baseline.devices_seen, 131);

    let resumed = Engine::resume(&snap).expect("fixture resumes");
    // Re-captured at the same instant, the file shrinks by the records
    // that were dropped.
    let recaptured = resumed.snapshot().expect("resumed engine snapshots");
    assert!(recaptured.as_bytes().len() < written.len());
    assert_eq!(resumed.finish(), baseline);
}

/// A checkpoint written by the last build that could run on a calendar
/// queue, and did (the smoke preset under RCA-ETX with a flat activity
/// profile on 2 shards, with the mixed traffic and the disruption plan
/// above, seed 11, stopped at 1 214.5 s: two frames in the air, a
/// gateway down, the noise burst on, the withdrawal still to come). Its
/// events section lists the pending events in ascending key order,
/// which is a heap layout like any other, and it resumes to the report
/// of today's uninterrupted run.
#[test]
fn calendar_queue_era_snapshot_resumes_bit_identically() {
    let written = include_bytes!("fixtures/calendar_written.mlss");
    let snap = Snapshot::from_bytes(written.to_vec()).expect("fixture loads");
    let cfg = snap.config().expect("fixture embeds its scenario");
    let baseline = Engine::new(cfg, snap.seed()).run();
    assert_eq!(baseline.devices_seen, 121);

    let resumed = Engine::resume(&snap).expect("fixture resumes");
    assert_eq!(resumed.finish(), baseline);
}
