//! Engine throughput measurement: events per second at fleet scale.
//!
//! Runs the 200- and 2000-bus fleets on a flat activity profile (see
//! [`mlora_bench::engine_throughput_config`]) plus a 20 000-bus
//! metro-generator tier ([`mlora_bench::metro_throughput_config`]) and
//! prints one JSON object per scenario with the processed-event count,
//! wall-clock time, events/sec, the channel's reception counters
//! (receptions resolved, frames heard, exact RSSI evaluations — the share
//! of heard frames whose logarithms were actually taken is read off
//! these), the neighbour queries' counters (cell-list entries screened,
//! exact positions located, candidates in range), the interferer scans'
//! counters (flight-ring rows visited, time-overlapping frames found),
//! the forwarding layer's counters (beacons decoded at devices other
//! than the handover target, and the policy decisions among them that
//! passed the receivers' offer bits, one device-row fetch each) and the
//! host's available parallelism. Two kernel rows follow:
//! one `Channel::receive` of a frame heard alone and among five others,
//! in ns per reception. The repo-level `BENCH_engine.json` is recorded
//! with this binary; passing `full` adds the 100 000-bus metro tier,
//! which is measured out-of-gate (it runs for minutes).
//!
//! Usage:
//! `cargo run --release -p mlora-bench --bin engine_events [runs] [full]`

use std::hint::black_box;
use std::time::Instant;

use mlora_bench::{engine_throughput_config, metro_throughput_config, HARNESS_SEED};
use mlora_sim::probe::FlightScanProbe;
use mlora_sim::{Engine, EngineStats};
use mlora_simcore::SimTime;

const USAGE: &str = "usage: engine_events [runs] [full]";

/// Receptions per timed run of a reception kernel.
const RECEPTIONS: u32 = 1_000_000;

/// Runs `engine` to the end and returns the whole run's statistics.
fn run(mut engine: Engine) -> EngineStats {
    engine.run_until(SimTime::MAX);
    let stats = engine.stats();
    engine.finish();
    stats
}

/// `[runs] [full]` → `(runs, full)`. `runs` defaults to 3 and must be at
/// least 1: the best of no runs is no time at all.
fn parse_args(args: &[String]) -> Result<(usize, bool), String> {
    let full = args.last().is_some_and(|a| a == "full");
    let runs = match &args[..args.len() - usize::from(full)] {
        [] => 3,
        [runs] => match runs.parse() {
            Ok(n) if n > 0 => n,
            _ => return Err(format!("runs must be a positive integer, got {runs:?}")),
        },
        _ => return Err("too many arguments".into()),
    };
    Ok((runs, full))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (runs, full) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("engine_events: {e}\n{USAGE}");
        std::process::exit(2);
    });

    let mut scenarios = vec![
        ("200_buses", engine_throughput_config(200)),
        ("2000_buses", engine_throughput_config(2000)),
        ("20000_buses_metro", metro_throughput_config(20_000)),
    ];
    if full {
        scenarios.push(("100000_buses_metro", metro_throughput_config(100_000)));
    }
    // One `Channel::receive`, shadowing on: the subject alone in range
    // (most receptions at any fleet size), and with five interferers in
    // range (the metro tier's crowded tail). Their ns times EngineStats'
    // `receptions` is the reception layer's share of a run
    // (EXPERIMENTS.md, "Reception decides before it computes").
    let kernels = [("reception_alone", 1), ("reception_crowded", 6)];

    // Recorded on every row, so an artifact says what host it is from.
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let rows = scenarios.len() + kernels.len();
    let mut printed = 0;
    let mut emit = |row: String| {
        printed += 1;
        let comma = if printed < rows { "," } else { "" };
        println!("  {row}{comma}");
    };

    println!("[");
    for (name, cfg) in &scenarios {
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
        emit(format!(
            "{{\"scenario\": \"{name}\", \"events\": {events}, \
             \"setup_wall_s\": {setup_s:.4}, \"best_wall_s\": {best_s:.4}, \
             \"events_per_sec\": {eps:.0}, \"receptions\": {}, \"frames_heard\": {}, \
             \"rssi_evaluated\": {}, \"grid_entries\": {}, \"positions_located\": {}, \
             \"candidates\": {}, \"flights_scanned\": {}, \"overlaps\": {}, \
             \"beacons_decoded\": {}, \"policy_decisions\": {}, \
             \"host_threads\": {host_threads}}}",
            stats.receptions,
            stats.frames_heard,
            stats.rssi_evaluated,
            stats.grid_entries,
            stats.positions_located,
            stats.candidates,
            stats.flights_scanned,
            stats.overlaps,
            stats.beacons_decoded,
            stats.policy_decisions
        ));
    }
    for (name, audible) in kernels {
        // Same convention: one warm-up, best of `runs`.
        let mut probe = FlightScanProbe::new(HARNESS_SEED, audible);
        let mut ns_per_reception = || {
            let start = Instant::now();
            for _ in 0..RECEPTIONS {
                black_box(probe.receive_crowd());
            }
            start.elapsed().as_nanos() as f64 / f64::from(RECEPTIONS)
        };
        ns_per_reception();
        let best_ns = (0..runs)
            .map(|_| ns_per_reception())
            .fold(f64::INFINITY, f64::min);
        emit(format!(
            "{{\"kernel\": \"{name}\", \"audible\": {audible}, \
             \"ns_per_reception\": {best_ns:.1}, \"host_threads\": {host_threads}}}"
        ));
    }
    println!("]");
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    fn parse(args: &[&str]) -> Result<(usize, bool), String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn zero_runs_is_rejected() {
        // The best of no runs printed `inf`, which is not JSON.
        assert!(parse(&["0"]).is_err());
        assert!(parse(&["0", "full"]).is_err());
    }

    #[test]
    fn runs_and_full_parse() {
        assert_eq!(parse(&[]), Ok((3, false)));
        assert_eq!(parse(&["full"]), Ok((3, true)));
        assert_eq!(parse(&["2", "full"]), Ok((2, true)));
        assert_eq!(parse(&["5"]), Ok((5, false)));
    }
}
