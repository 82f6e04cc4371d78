//! Quick qualitative check of the paper-scale result shapes: one row per
//! `(environment, gateway-density, scheme)` cell, run in parallel through
//! the experiment Runner.

use mlora_core::Scheme;
use mlora_sim::{Environment, ExperimentPlan, Runner};

fn main() {
    let t0 = std::time::Instant::now();
    let plan = ExperimentPlan::new(mlora_bench::paper_config(
        Scheme::NoRouting,
        Environment::Urban,
    ))
    .environments([Environment::Urban, Environment::Rural])
    .gateway_counts([40, 100])
    .schemes(Scheme::ALL)
    .fixed_seeds([mlora_bench::HARNESS_SEED]);
    let cells = Runner::new().run(&plan).expect("shape-check plan is valid");
    for cell in cells {
        let r = cell.report.single();
        println!(
            "{env:6} gws={gws:3} {s:8} delay={d:8.1}s thr={thr:6} hops={h:4.2} frames/node={f:6.1} msgs/node={m:7.1} gen={g} coll={c}",
            env = cell.key.environment, gws = cell.key.gateways,
            s = r.scheme, d = r.mean_delay_s(), thr = r.delivered,
            h = r.mean_hops(), f = r.mean_frames_per_node(), m = r.mean_messages_sent_per_node(), g = r.generated,
            c = r.collisions
        );
    }
    eprintln!("total: {:.1?}", t0.elapsed());
}
