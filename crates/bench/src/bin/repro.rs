//! `repro` — regenerates every table and figure of the paper's §VII.
//!
//! ```sh
//! repro [--quick] [--seed N] [--gateways 40,70,100] [--replicate N]
//!       [--jobs N] [FIGURE...]
//! ```
//!
//! `FIGURE` is any of `fig7 fig8 fig9 fig10 fig11 fig12 fig13 alpha
//! placement class` (default: all of them). `--quick` switches from the
//! paper-scale configuration (600 km², 24 h, ~2000 peak buses) to the
//! bench-scale one (6 h, ~800 peak buses) so a full pass finishes in
//! about a minute. `--replicate N` reruns every cell of the shared
//! Fig. 8/9/12/13 gateway sweep over `N` derived seeds and reports
//! mean ± 95 % CI instead of single-seed values (the remaining figures
//! always run their single fixed seed). `--jobs N` caps the worker
//! threads (default: all cores).

use std::collections::HashSet;

use mlora_core::Scheme;
use mlora_mobility::{active_bus_series, trip_duration_histogram, BusNetwork};
use mlora_sim::{
    report, DeviceClassChoice, Environment, ExperimentPlan, GatewayPlacement, Runner, SimConfig,
    SweepPoint,
};
use mlora_simcore::SimDuration;

struct Options {
    quick: bool,
    seed: u64,
    gateways: Vec<usize>,
    replicate: usize,
    jobs: Option<usize>,
    figures: HashSet<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        quick: false,
        seed: mlora_bench::HARNESS_SEED,
        gateways: mlora_sim::PAPER_GATEWAY_COUNTS.to_vec(),
        replicate: 1,
        jobs: None,
        figures: HashSet::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--seed" => {
                let v = args.next().expect("--seed needs a value");
                opts.seed = v.parse().expect("seed must be an integer");
            }
            "--gateways" => {
                let v = args.next().expect("--gateways needs a list");
                opts.gateways = v
                    .split(',')
                    .map(|s| s.trim().parse().expect("gateway counts must be integers"))
                    .collect();
            }
            "--replicate" => {
                let v = args.next().expect("--replicate needs a value");
                opts.replicate = v.parse().expect("replication count must be an integer");
            }
            "--jobs" => {
                let v = args.next().expect("--jobs needs a value");
                opts.jobs = Some(v.parse().expect("job count must be an integer"));
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--quick] [--seed N] [--gateways 40,70,100] \
                     [--replicate N] [--jobs N] [FIGURE...]"
                );
                println!("figures: fig7 fig8 fig9 fig10 fig11 fig12 fig13 alpha placement class");
                std::process::exit(0);
            }
            fig => {
                opts.figures.insert(fig.to_string());
            }
        }
    }
    opts
}

fn base_config(opts: &Options, scheme: Scheme, env: Environment) -> SimConfig {
    if opts.quick {
        mlora_bench::bench_config(scheme, env)
    } else {
        mlora_bench::paper_config(scheme, env)
    }
}

fn runner(opts: &Options) -> Runner {
    match opts.jobs {
        Some(n) => Runner::new().workers(n),
        None => Runner::new(),
    }
}

/// Applies the options' seed policy to a plan: one fixed seed by
/// default, `--replicate N` derived seeds otherwise.
fn seeded(plan: ExperimentPlan, opts: &Options) -> ExperimentPlan {
    if opts.replicate > 1 {
        plan.seed(opts.seed).replicate(opts.replicate)
    } else {
        plan.fixed_seeds([opts.seed])
    }
}

fn wants(opts: &Options, fig: &str) -> bool {
    opts.figures.is_empty() || opts.figures.contains(fig)
}

/// Runs a plan, exiting with the runner's error message (no backtrace)
/// when the requested sweep is invalid.
fn run_plan(runner: &Runner, plan: &ExperimentPlan) -> Vec<mlora_sim::CellResult> {
    runner.run(plan).unwrap_or_else(|err| {
        eprintln!("repro: {err}");
        std::process::exit(2);
    })
}

fn main() {
    let opts = parse_args();
    let scale = if opts.quick {
        "bench-scale (--quick)"
    } else {
        "paper-scale"
    };
    println!("== repro: {scale}, seed {} ==", opts.seed);

    if wants(&opts, "fig7") {
        fig7(&opts);
    }

    // Figs. 8, 9, 12 and 13 share one gateway-density sweep.
    if ["fig8", "fig9", "fig12", "fig13"]
        .iter()
        .any(|f| wants(&opts, f))
    {
        let base = base_config(&opts, Scheme::NoRouting, Environment::Urban);
        eprintln!(
            "[sweep] {} gateway counts x 2 environments x 3 schemes x {} seed(s) ...",
            opts.gateways.len(),
            opts.replicate
        );
        let plan = seeded(mlora_bench::figure_sweep_plan(base, &opts.gateways), &opts);
        let cells = run_plan(&runner(&opts), &plan);
        if opts.replicate > 1 {
            if wants(&opts, "fig8") {
                println!("\n== Fig. 8: average end-to-end delay ==");
                print!(
                    "{}",
                    report::replicated_table(&cells, "mean end-to-end delay (s)", |r| r
                        .mean_delay_s())
                );
            }
            if wants(&opts, "fig9") {
                println!("\n== Fig. 9: total network throughput ==");
                print!(
                    "{}",
                    report::replicated_table(&cells, "unique msgs received", |r| r.delivered
                        as f64)
                );
            }
            if wants(&opts, "fig12") {
                println!("\n== Fig. 12: average number of hops ==");
                print!(
                    "{}",
                    report::replicated_table(&cells, "mean hops", |r| r.mean_hops())
                );
            }
            if wants(&opts, "fig13") {
                println!("\n== Fig. 13: average messages sent per node ==");
                print!(
                    "{}",
                    report::replicated_table(&cells, "mean msgs sent per node", |r| r
                        .mean_messages_sent_per_node())
                );
            }
        } else {
            let points = SweepPoint::from_cells(&cells);
            if wants(&opts, "fig8") {
                println!("\n== Fig. 8: average end-to-end delay ==");
                print!("{}", report::fig8_delay_table(&points));
            }
            if wants(&opts, "fig9") {
                println!("\n== Fig. 9: total network throughput ==");
                print!("{}", report::fig9_throughput_table(&points));
            }
            if wants(&opts, "fig12") {
                println!("\n== Fig. 12: average number of hops ==");
                print!("{}", report::fig12_hops_table(&points));
            }
            if wants(&opts, "fig13") {
                println!("\n== Fig. 13: average messages sent per node ==");
                print!("{}", report::fig13_overhead_table(&points));
            }
        }
    }

    for (fig, env) in [("fig10", Environment::Urban), ("fig11", Environment::Rural)] {
        if !wants(&opts, fig) {
            continue;
        }
        let number = &fig[3..];
        let base = base_config(&opts, Scheme::NoRouting, env);
        let gws = *opts.gateways.last().expect("at least one gateway count");
        eprintln!("[{fig}] {env} time series at {gws} gateways ...");
        let plan = ExperimentPlan::new(base)
            .environments([env])
            .gateway_counts([gws])
            .schemes(Scheme::ALL)
            .fixed_seeds([opts.seed]);
        let cells = run_plan(&runner(&opts), &plan);
        let rows: Vec<mlora_sim::SimReport> = cells
            .into_iter()
            .map(|c| c.report.single().clone())
            .collect();
        println!("\n== Fig. {number}: throughput over time, {env} ({gws} gateways) ==");
        print!("{}", report::time_series_table(&rows, env));
    }

    if wants(&opts, "alpha") {
        let mut base = base_config(&opts, Scheme::RcaEtx, Environment::Urban);
        base.num_gateways = opts.gateways[opts.gateways.len() / 2];
        eprintln!("[alpha] EWMA sensitivity ...");
        let plan = ExperimentPlan::new(base.clone())
            .alphas([0.1, 0.3, 0.5, 0.7, 0.9])
            .fixed_seeds([opts.seed]);
        let cells = run_plan(&runner(&opts), &plan);
        println!(
            "\n== Ablation A: EWMA factor α (RCA-ETX, urban, {} gws) ==",
            base.num_gateways
        );
        println!(
            "{:>6} {:>12} {:>12} {:>8}",
            "alpha", "delay(s)", "delivered", "hops"
        );
        for cell in cells {
            let r = cell.report.single();
            println!(
                "{:>6.1} {:>12.1} {:>12} {:>8.2}",
                cell.key.alpha,
                r.mean_delay_s(),
                r.delivered,
                r.mean_hops()
            );
        }
    }

    if wants(&opts, "placement") {
        let mut base = base_config(&opts, Scheme::NoRouting, Environment::Urban);
        base.num_gateways = opts.gateways[opts.gateways.len() / 2];
        eprintln!("[placement] grid vs random ...");
        let run = runner(&opts);
        let grid = run_plan(
            &run,
            &ExperimentPlan::new(base.clone())
                .schemes(Scheme::ALL)
                .placements([GatewayPlacement::Grid])
                .fixed_seeds([opts.seed]),
        );
        let random = run_plan(
            &run,
            &ExperimentPlan::new(base.clone())
                .schemes(Scheme::ALL)
                .placements([GatewayPlacement::Random])
                .fixed_seeds((1..=3).map(|i| opts.seed.wrapping_add(i))),
        );
        println!(
            "\n== Ablation B: gateway placement (urban, {} gws) ==",
            base.num_gateways
        );
        println!(
            "{:>10} {:>10} {:>8} {:>12} {:>12}",
            "scheme", "placement", "layout", "delay(s)", "delivered"
        );
        for cell in grid.iter().chain(&random) {
            for (layout, r) in cell.report.runs() {
                println!(
                    "{:>10} {:>10} {:>8} {:>12.1} {:>12}",
                    r.scheme,
                    format!("{:?}", cell.key.placement),
                    layout,
                    r.mean_delay_s(),
                    r.delivered
                );
            }
        }
    }

    if wants(&opts, "class") {
        let mut base = base_config(&opts, Scheme::Robc, Environment::Urban);
        base.num_gateways = opts.gateways[opts.gateways.len() / 2];
        eprintln!("[class] Modified Class-C vs Queue-based Class-A ...");
        let plan = ExperimentPlan::new(base.clone())
            .device_classes([
                DeviceClassChoice::ModifiedClassC,
                DeviceClassChoice::QueueBasedClassA,
            ])
            .fixed_seeds([opts.seed]);
        let cells = run_plan(&runner(&opts), &plan);
        println!(
            "\n== Ablation C: device classes (ROBC, urban, {} gws) ==",
            base.num_gateways
        );
        println!(
            "{:>20} {:>12} {:>12} {:>16}",
            "class", "delay(s)", "delivered", "energy/node(J)"
        );
        for cell in cells {
            let r = cell.report.single();
            println!(
                "{:>20} {:>12.1} {:>12} {:>16.1}",
                format!("{:?}", cell.key.device_class),
                r.mean_delay_s(),
                r.delivered,
                r.mean_energy_per_node_mj() / 1000.0
            );
        }
    }

    eprintln!("done.");
}

/// Fig. 7: properties of the bus network itself.
fn fig7(opts: &Options) {
    let cfg = base_config(opts, Scheme::NoRouting, Environment::Urban);
    let mut net_cfg = cfg.network.clone();
    net_cfg.horizon = cfg.horizon;
    // The engine derives the mobility seed the same way (fork 11).
    let net_seed = mlora_simcore::SimRng::new(opts.seed).fork(11).seed();
    let net = BusNetwork::generate(&net_cfg, net_seed);

    println!("\n== Fig. 7a: number of active buses over the day ==");
    println!("{:>9} {:>8}", "t_start_s", "active");
    for (t, count) in active_bus_series(&net, SimDuration::from_mins(30)) {
        println!("{:>9} {:>8}", t.as_secs(), count);
    }

    println!("\n== Fig. 7b: distribution of bus active duration ==");
    println!("{:>12} {:>8}", "midpoint_min", "buses");
    let hist =
        trip_duration_histogram(&net, SimDuration::from_mins(30), SimDuration::from_hours(8));
    for (mid_s, count) in hist.iter() {
        println!("{:>12.0} {:>8}", mid_s / 60.0, count);
    }
}
