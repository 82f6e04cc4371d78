//! The metrics this benchmark reports, by name. `BENCHMARK.json` at the
//! repository root states the same tables for the driver; a unit test
//! keeps the two equal.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Stated for the driver in `BENCHMARK.json`; nothing here judges a
    /// per-layer metric.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// What a user of the simulator sees, measured with tracing off; every
/// workload reports all six. Failed operations are reported through the
/// result's `attempted` / `failed` pair rather than as a seventh metric,
/// because they are zero on a correct tree.
///
/// The timing bounds sit at the contract's ceiling. At the host's
/// nominal speed (see `host`) two ten-seed sets of the same code spread
/// 1–5 % on `run_wall_s` and 2–11 % on the persistence metrics, whose
/// calls move memory and follow the probe least well; before that
/// scaling the host's swings alone spread them past 25 % on a busy day,
/// and the margin is kept for one. Memory repeats to within 3 %. See
/// the README's "Measured spread".
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("run_wall_s", "s", Lower, 0.25),
    e2e("events_per_sec", "1/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("checkpoint_ms", "ms", Lower, 0.25),
    e2e("resume_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.10),
];

/// Single layers, from the traced repetition, the kernels timed on the
/// workload's own inputs, and the simulated counts. No bounds: they
/// explain a movement in an end-to-end metric, they do not judge one.
pub const PER_LAYER: [PerLayer; 57] = [
    layer("engine.events", "count", Lower),
    layer("engine.us_per_event", "us", Lower),
    layer("engine.new_s", "s", Lower),
    layer("engine.finish_ms", "ms", Lower),
    layer("engine.slice_p50_ms", "ms", Lower),
    layer("engine.slice_tail_ms", "ms", Lower),
    layer("engine.slice_tail_pct", "%", Higher),
    layer("engine.slice_n", "count", Higher),
    layer("engine.frames", "count", Lower),
    layer("engine.handover_share", "ratio", Lower),
    layer("engine.collisions_per_frame", "ratio", Lower),
    layer("engine.delivery_ratio", "ratio", Higher),
    layer("engine.generated", "count", Higher),
    layer("engine.delivered", "count", Higher),
    layer("engine.unattributed_share", "ratio", Lower),
    layer("simcore.queue_cycle_ns", "ns", Lower),
    layer("simcore.slab_cycle_ns", "ns", Lower),
    layer("simcore.rng_draw_ns", "ns", Lower),
    layer("simcore.est_share", "ratio", Lower),
    layer("geo.grid_within_ns", "ns", Lower),
    layer("geo.grid_within_hits", "count", Lower),
    layer("geo.grid_relocate_ns", "ns", Lower),
    layer("geo.est_share", "ratio", Lower),
    layer("mobility.position_ns", "ns", Lower),
    layer("mobility.worldgen_s", "s", Lower),
    layer("mobility.est_share", "ratio", Lower),
    layer("phy.sample_rssi_ns", "ns", Lower),
    layer("phy.mean_rssi_ns", "ns", Lower),
    layer("phy.capture_ns", "ns", Lower),
    layer("phy.airtime_lookup_ns", "ns", Lower),
    layer("phy.est_share", "ratio", Lower),
    layer("mac.queue_cycle_ns", "ns", Lower),
    layer("mac.duty_cycle_ns", "ns", Lower),
    layer("mac.frame_build_ns", "ns", Lower),
    layer("mac.est_share", "ratio", Lower),
    layer("core.decide_ns", "ns", Lower),
    layer("core.sink_slot_ns", "ns", Lower),
    layer("core.beacon_metric_ns", "ns", Lower),
    layer("core.forward_yield", "ratio", Higher),
    layer("core.est_share", "ratio", Lower),
    layer("scenario_io.write_s", "s", Lower),
    layer("scenario_io.read_s", "s", Lower),
    layer("scenario_io.file_mib", "MiB", Lower),
    layer("snapshot.capture_p50_ms", "ms", Lower),
    layer("snapshot.capture_tail_ms", "ms", Lower),
    layer("snapshot.capture_tail_pct", "%", Higher),
    layer("snapshot.capture_n", "count", Higher),
    layer("snapshot.mib", "MiB", Lower),
    layer("snapshot.decode_ms", "ms", Lower),
    layer("snapshot.resume_p50_ms", "ms", Lower),
    layer("runner.fork_s", "s", Lower),
    layer("runner.fork_branches", "count", Higher),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.spans", "count", Lower),
    layer("harness.reps", "count", Higher),
    layer("harness.failed_share", "ratio", Lower),
    layer("harness.host_speed", "ratio", Higher),
];

/// The length of one measuring run the driver asks for, seconds.
pub const RUN_SECONDS: u64 = 28;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Workload;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_obey_the_contract_and_are_unique() {
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "{unit}");
        }
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` says exactly what this module says.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
        let field = |item: &Json, key: &str| item.get(key).and_then(Json::as_str).map(String::from);

        let workloads: Vec<_> = doc.get("workloads").unwrap().as_arr().to_vec();
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (item, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(item.as_obj().len(), 2);
            assert_eq!(field(item, "name").as_deref(), Some(w.name()));
            assert_eq!(field(item, "why").as_deref(), Some(w.why()));
        }

        let end_to_end = doc.get("end_to_end").unwrap().as_arr();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (item, m) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(item.as_obj().len(), 4);
            assert_eq!(field(item, "name").as_deref(), Some(m.name));
            assert_eq!(field(item, "unit").as_deref(), Some(m.unit));
            assert_eq!(field(item, "better").as_deref(), Some(m.better.as_str()));
            assert_eq!(item.get("bound").and_then(Json::as_f64), Some(m.bound));
        }

        let per_layer = doc.get("per_layer").unwrap().as_arr();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (item, m) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(item.as_obj().len(), 3);
            assert_eq!(field(item, "name").as_deref(), Some(m.name));
            assert_eq!(field(item, "unit").as_deref(), Some(m.unit));
            assert_eq!(field(item, "better").as_deref(), Some(m.better.as_str()));
        }
    }

    /// The numbers describe the build the repository ships only if this
    /// package compiles the way the root workspace does.
    #[test]
    fn release_profile_equals_the_root_manifests() {
        fn release_profile(manifest: &str) -> Vec<String> {
            let mut lines: Vec<String> = manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| l.split('#').next().unwrap_or("").trim().replace(' ', ""))
                .filter(|l| !l.is_empty())
                .collect();
            lines.sort();
            lines
        }
        let ours = release_profile(include_str!("../Cargo.toml"));
        let roots = release_profile(include_str!("../../Cargo.toml"));
        assert_eq!(ours, ["codegen-units=1", "lto=\"thin\""]);
        assert_eq!(ours, roots);
    }
}
