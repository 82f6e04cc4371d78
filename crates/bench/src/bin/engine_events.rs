//! Engine throughput measurement: events per second at fleet scale.
//!
//! Runs the `micro_engine` scenarios (200- and 2000-bus fleets on a flat
//! activity profile, see [`mlora_bench::engine_throughput_config`]) plus
//! a 20 000-bus metro-generator tier
//! ([`mlora_bench::metro_throughput_config`]) and prints one JSON object
//! per scenario with the processed-event count, wall-clock time,
//! events/sec, the channel's reception counters (receptions resolved,
//! frames heard, exact RSSI evaluations — the share of heard frames
//! whose logarithms were actually taken is read off these) and the
//! host's available parallelism. The repo-level `BENCH_engine.json` is
//! recorded with this binary; passing `full` adds the 100 000-bus metro
//! tier, which is measured out-of-gate (it runs for minutes).
//!
//! Usage:
//! `cargo run --release -p mlora-bench --bin engine_events [runs] [full]`

use std::time::Instant;

use mlora_bench::{engine_throughput_config, metro_throughput_config, HARNESS_SEED};
use mlora_sim::{Engine, EngineStats};
use mlora_simcore::SimTime;

/// Runs `engine` to the end and returns the whole run's statistics.
fn run(mut engine: Engine) -> EngineStats {
    engine.run_until(SimTime::MAX);
    let stats = engine.stats();
    engine.finish();
    stats
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let runs: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(3);
    let full = args.iter().any(|a| a == "full");

    let mut scenarios = vec![
        ("200_buses", engine_throughput_config(200)),
        ("2000_buses", engine_throughput_config(2000)),
        ("20000_buses_metro", metro_throughput_config(20_000)),
    ];
    if full {
        scenarios.push(("100000_buses_metro", metro_throughput_config(100_000)));
    }

    // Recorded on every row, so an artifact says what host it is from.
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);

    println!("[");
    for (i, (name, cfg)) in scenarios.iter().enumerate() {
        // One warm-up, then the timed runs; report the best (least-noise)
        // run, which is the standard wall-clock benching convention.
        let mut best_s = f64::INFINITY;
        let mut setup_s = f64::INFINITY;
        let mut stats = run(Engine::new(cfg.clone(), HARNESS_SEED));
        for _ in 0..runs {
            let start = Instant::now();
            let engine = Engine::new(cfg.clone(), HARNESS_SEED);
            setup_s = setup_s.min(start.elapsed().as_secs_f64());
            let start = Instant::now();
            stats = run(engine);
            best_s = best_s.min(start.elapsed().as_secs_f64());
        }
        let events = stats.events_processed;
        let eps = events as f64 / best_s;
        let comma = if i + 1 < scenarios.len() { "," } else { "" };
        println!(
            "  {{\"scenario\": \"{name}\", \"events\": {events}, \
             \"setup_wall_s\": {setup_s:.4}, \"best_wall_s\": {best_s:.4}, \
             \"events_per_sec\": {eps:.0}, \"receptions\": {}, \"frames_heard\": {}, \
             \"rssi_evaluated\": {}, \"host_threads\": {host_threads}}}{comma}",
            stats.receptions, stats.frames_heard, stats.rssi_evaluated
        );
    }
    println!("]");
}
