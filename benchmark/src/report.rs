//! From repetitions to named metrics.

use mlora_sim::{SimConfig, SimReport};

use crate::kernels::Costs;
use crate::session::Rep;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, tail};
use crate::workloads::{Workload, WHATIF_BRANCHES};

/// The margin by which the engine lets a bus drift before its drift
/// sweep relocates the fleet's grid entries, metres, and the headroom
/// it sweeps early by. Private to the engine, so restated here: it only
/// sizes the *computed* relocation count behind `geo.est_share` and
/// `mobility.est_share`.
const GRID_DRIFT_MARGIN_M: f64 = 120.0 * 0.95;

/// One end-to-end metric over the untraced repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    /// A median over `n` samples (for `peak_rss_mib`, the one reading).
    pub value: f64,
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
}

fn measured(name: &'static str, value: f64, samples: &[f64]) -> Measured {
    let unit = END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map_or("", |m| m.unit);
    let (q1, q3) = quartiles(samples).unwrap_or((value, value));
    Measured {
        name,
        unit,
        value,
        n: samples.len(),
        q1,
        q3,
    }
}

fn pooled(reps: &[Rep], field: impl Fn(&Rep) -> &[f64]) -> Vec<f64> {
    reps.iter().flat_map(|r| field(r).iter().copied()).collect()
}

/// Each timed call of a repetition (`field` lists them in the order
/// they are made, the same in every repetition: the same index is the
/// same simulated work) at its median over the repetitions. Steadier
/// than taking the median repetition: a stall costs the calls it hits,
/// not the whole repetition it falls in.
fn call_medians(reps: &[Rep], field: impl Fn(&Rep) -> &[f64]) -> Vec<f64> {
    let calls = reps.iter().map(|r| field(r).len()).min().unwrap_or(0);
    (0..calls)
        .map(|i| median(&reps.iter().map(|r| field(r)[i]).collect::<Vec<_>>()))
        .collect()
}

/// Every end-to-end metric, in `BENCHMARK.json` order: `run_wall_s`
/// the sum of the run's [`call_medians`], the other durations the
/// median of theirs.
pub fn end_to_end(reps: &[Rep], peak_rss_mib: f64) -> Vec<Measured> {
    let events = reps.first().map_or(0, |r| r.events) as f64;
    let wall: f64 = call_medians(reps, |r| &r.run_parts_s).iter().sum();
    let walls: Vec<f64> = reps.iter().map(|r| r.run_wall_s).collect();
    let rates: Vec<f64> = walls.iter().map(|w| events / w).collect();
    let per_call = |name, field: fn(&Rep) -> &[f64]| {
        measured(
            name,
            median(&call_medians(reps, field)),
            &pooled(reps, field),
        )
    };
    let out = vec![
        measured("run_wall_s", wall, &walls),
        measured("events_per_sec", events / wall, &rates),
        per_call("setup_s", |r| &r.setup_s),
        per_call("checkpoint_ms", |r| &r.checkpoint_ms),
        per_call("resume_ms", |r| &r.resume_ms),
        measured("peak_rss_mib", peak_rss_mib, &[peak_rss_mib]),
    ];
    debug_assert!(out
        .iter()
        .map(|m| m.name)
        .eq(END_TO_END.iter().map(|m| m.name)));
    out
}

/// What the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    pub workload: Workload,
    pub cfg: &'a SimConfig,
    /// The untraced repetitions.
    pub reps: &'a [Rep],
    /// The one repetition run with tracing on.
    pub traced: &'a Rep,
    /// The report of the run span: the traced repetition's own, or the
    /// reference pass's where a repetition ends in none.
    pub report: &'a SimReport,
    pub costs: &'a Costs,
    pub spans: usize,
    pub attempted: u64,
    pub failed: u64,
    /// The host's speed over the untraced repetitions, as a share of
    /// nominal.
    pub host_speed: f64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer(x: &LayerInputs<'_>) -> Vec<(&'static str, &'static str, f64)> {
    let (r, k, t) = (x.report, x.costs, x.traced);
    let events = t.events as f64;
    let frames = r.frames_sent as f64;
    let handovers = r.handover_frames as f64;
    let stepping_ns = t.stepping_s * 1e9;

    // Computed, not counted: the drift sweep relocates (and positions)
    // every bus in service once per `margin / top speed`.
    let sweeps =
        x.workload.run_span().as_secs_f64() * x.cfg.network.max_speed_mps / GRID_DRIFT_MARGIN_M;
    let relocations = sweeps * x.workload.fleet() as f64;
    // Computed: every neighbour a range query returns is positioned.
    let positioned = frames * (1.0 + k.grid_within_hits) + relocations;

    let share = |ns: f64| ns / stepping_ns;
    let simcore = share(k.event_queue_cycle * events + (k.slab_cycle + k.rng_draw) * frames);
    let geo = share(k.grid_within * frames + k.grid_relocate * relocations);
    let mobility = share(k.position * positioned);
    let phy = share((k.sample_rssi + k.capture + k.airtime_lookup) * frames);
    let mac = share((k.mac_queue_cycle + k.duty_cycle + k.frame_build) * frames);
    let core =
        share(k.decide * handovers + k.sink_slot * (frames - handovers) + k.beacon_metric * frames);

    let (slice_pct, slice_tail) = tail(&t.slices_ms);
    let captures: Vec<f64> = pooled(x.reps, |r| &r.checkpoint_ms)
        .into_iter()
        .chain(t.checkpoint_ms.iter().copied())
        .collect();
    let (capture_pct, capture_tail) = tail(&captures);
    let file = |pick: fn(&(f64, f64, usize)) -> f64| {
        median(&t.scenario_file.iter().map(pick).collect::<Vec<_>>())
    };
    let untraced_wall = median(&x.reps.iter().map(|r| r.run_wall_s).collect::<Vec<_>>());

    let values = [
        ("engine.events", events),
        ("engine.us_per_event", t.stepping_s * 1e6 / events),
        ("engine.new_s", median(&t.engine_new_s)),
        ("engine.finish_ms", t.finish_ms),
        ("engine.slice_p50_ms", median(&t.slices_ms)),
        ("engine.slice_tail_ms", slice_tail),
        ("engine.slice_tail_pct", slice_pct),
        ("engine.slice_n", t.slices_ms.len() as f64),
        ("engine.frames", frames),
        (
            "engine.handover_share",
            ratio(r.handover_frames, r.frames_sent),
        ),
        (
            "engine.collisions_per_frame",
            ratio(r.collisions, r.frames_sent),
        ),
        ("engine.delivery_ratio", r.delivery_ratio()),
        ("engine.generated", r.generated as f64),
        ("engine.delivered", r.delivered as f64),
        (
            "engine.unattributed_share",
            1.0 - (simcore + geo + mobility + phy + mac + core),
        ),
        ("simcore.queue_cycle_ns", k.event_queue_cycle),
        ("simcore.slab_cycle_ns", k.slab_cycle),
        ("simcore.rng_draw_ns", k.rng_draw),
        ("simcore.est_share", simcore),
        ("geo.grid_within_ns", k.grid_within),
        ("geo.grid_within_hits", k.grid_within_hits),
        ("geo.grid_relocate_ns", k.grid_relocate),
        ("geo.est_share", geo),
        ("mobility.position_ns", k.position),
        ("mobility.worldgen_s", median(&t.worldgen_s)),
        ("mobility.est_share", mobility),
        ("phy.sample_rssi_ns", k.sample_rssi),
        ("phy.mean_rssi_ns", k.mean_rssi),
        ("phy.capture_ns", k.capture),
        ("phy.airtime_lookup_ns", k.airtime_lookup),
        ("phy.est_share", phy),
        ("mac.queue_cycle_ns", k.mac_queue_cycle),
        ("mac.duty_cycle_ns", k.duty_cycle),
        ("mac.frame_build_ns", k.frame_build),
        ("mac.est_share", mac),
        ("core.decide_ns", k.decide),
        ("core.sink_slot_ns", k.sink_slot),
        ("core.beacon_metric_ns", k.beacon_metric),
        (
            "core.forward_yield",
            ratio(r.handover_messages, r.handover_frames),
        ),
        ("core.est_share", core),
        ("scenario_io.write_s", file(|f| f.0)),
        ("scenario_io.read_s", file(|f| f.1)),
        ("scenario_io.file_mib", file(|f| f.2 as f64 / 1_048_576.0)),
        ("snapshot.capture_p50_ms", median(&captures)),
        ("snapshot.capture_tail_ms", capture_tail),
        ("snapshot.capture_tail_pct", capture_pct),
        ("snapshot.capture_n", captures.len() as f64),
        ("snapshot.mib", t.snapshot_bytes as f64 / 1_048_576.0),
        ("snapshot.decode_ms", median(&t.decode_ms)),
        ("snapshot.resume_p50_ms", median(&t.resume_ms)),
        ("runner.fork_s", median(&t.fork_s)),
        (
            "runner.fork_branches",
            (t.fork_s.len() * WHATIF_BRANCHES) as f64,
        ),
        (
            "trace.overhead_pct",
            (t.run_wall_s / untraced_wall - 1.0) * 100.0,
        ),
        ("trace.spans", x.spans as f64),
        ("harness.reps", x.reps.len() as f64),
        ("harness.failed_share", ratio(x.failed, x.attempted)),
        ("harness.host_speed", x.host_speed),
    ];
    debug_assert!(values
        .iter()
        .map(|v| v.0)
        .eq(PER_LAYER.iter().map(|m| m.name)));
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(m, (_, value))| (m.name, m.unit, value))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlora_sim::prelude::*;

    #[test]
    fn every_declared_per_layer_metric_gets_a_finite_value() {
        let cfg = Scenario::urban().smoke().build().expect("smoke preset");
        let report = cfg.run(1).expect("smoke run");
        let traced = Rep {
            run_wall_s: 1.0,
            stepping_s: 1.0,
            events: 1_000,
            slices_ms: vec![1.0; 120],
            ..Rep::default()
        };
        let untraced = Rep {
            run_wall_s: 1.0,
            ..Rep::default()
        };
        let out = per_layer(&LayerInputs {
            workload: Workload::UrbanRobc,
            cfg: &cfg,
            reps: std::slice::from_ref(&untraced),
            traced: &traced,
            report: &report,
            costs: &Costs::default(),
            spans: 7,
            attempted: 4,
            failed: 1,
            host_speed: 0.8,
        });
        assert!(out.iter().map(|m| m.0).eq(PER_LAYER.iter().map(|m| m.name)));
        assert!(out.iter().all(|m| m.2.is_finite()), "{out:?}");
        let value = |name: &str| out.iter().find(|m| m.0 == name).unwrap().2;
        assert_eq!(value("engine.slice_tail_pct"), 90.0);
        assert_eq!(value("harness.failed_share"), 0.25);
        assert_eq!(value("engine.unattributed_share"), 1.0);
        assert_eq!(value("engine.frames"), report.frames_sent as f64);
    }

    #[test]
    fn end_to_end_metrics_are_medians_in_declared_order() {
        let rep = |parts: [f64; 3], events: u64| Rep {
            run_parts_s: parts.to_vec(),
            run_wall_s: parts.iter().sum(),
            events,
            setup_s: vec![parts[0] / 10.0; 3],
            checkpoint_ms: parts.to_vec(),
            resume_ms: vec![2.0 * parts[0]; 3],
            ..Rep::default()
        };
        // No repetition is the median one throughout.
        let reps = [
            rep([1.0, 4.0, 3.0], 100),
            rep([2.0, 2.0, 6.0], 100),
            rep([4.0, 3.0, 1.0], 100),
        ];
        let out = end_to_end(&reps, 64.0);
        let names: Vec<_> = out.iter().map(|m| m.name).collect();
        let declared: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, declared);
        // Call by call: 2 + 3 + 3.
        assert_eq!((out[0].value, out[0].n), (8.0, 3));
        assert_eq!(out[1].value, 12.5);
        assert_eq!((out[2].value, out[2].n), (0.2, 9));
        assert_eq!((out[3].value, out[3].n), (3.0, 9));
        assert_eq!(out[4].value, 4.0);
        assert_eq!((out[5].value, out[5].n, out[5].unit), (64.0, 1, "MiB"));
    }
}
