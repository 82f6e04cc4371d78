//! Micro-benchmarks of the paper's core primitives: the metric maths the
//! hot path executes on every overheard frame.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mlora_core::{
    greedy_forward_rule, link_rca_etx, robc_transfer_amount, robc_weight, Beacon, Ewma,
    RoutingConfig, RoutingState, Scheme,
};
use mlora_phy::CapacityModel;
use mlora_simcore::{NodeId, SimTime};

fn bench(c: &mut Criterion) {
    let cap = CapacityModel::paper_default();

    c.bench_function("micro_core/ewma_push", |b| {
        let mut e = Ewma::new(0.5);
        b.iter(|| e.push(black_box(123.4)))
    });

    c.bench_function("micro_core/link_rca_etx", |b| {
        b.iter(|| link_rca_etx(black_box(-95.0), &cap, 2040.0))
    });

    c.bench_function("micro_core/greedy_rule", |b| {
        b.iter(|| greedy_forward_rule(black_box(100.0), black_box(40.0), black_box(2.0)))
    });

    c.bench_function("micro_core/robc_weight_and_delta", |b| {
        b.iter(|| {
            let w = robc_weight(black_box(30), 0.01, black_box(5), 0.05);
            let d = robc_transfer_amount(30, 0.01, 5, 0.05);
            (w, d)
        })
    });

    c.bench_function("micro_core/decide_robc", |b| {
        let mut state = RoutingState::new(RoutingConfig::paper_default(), Scheme::Robc.policy());
        state.on_sink_slot(SimTime::from_secs(180), Some(2000.0), 36.6);
        let beacon = Beacon {
            sender: NodeId::new(9),
            rca_etx: 42.0,
            queue_len: 3,
        };
        b.iter(|| state.decide(SimTime::from_secs(360), 36.6, black_box(20), &beacon, -92.0))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
