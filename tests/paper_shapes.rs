//! Coarse "shape" tests asserting the qualitative results of §VII at a
//! reduced scale — who wins and in which direction, not absolute numbers.
//!
//! These run at the bench scale (6 simulated hours, ~800-bus peak, full
//! 600 km² area) and are part of the plain test run: all four together
//! take about half a second in release mode and three to five in debug.

use mlora::core::Scheme;
use mlora::sim::{Environment, SimConfig};

fn bench_run(scheme: Scheme, env: Environment, gateways: usize) -> mlora::sim::SimReport {
    let mut cfg = SimConfig::bench_scale(scheme, env);
    cfg.num_gateways = gateways;
    cfg.run(2020).expect("valid config")
}

#[test]
fn robc_throughput_at_least_baseline_rural_sparse() {
    // Fig. 9 / Fig. 11: ROBC's queue-aware forwarding must not lose
    // throughput against plain LoRaWAN, and gains where coverage is thin.
    let base = bench_run(Scheme::NoRouting, Environment::Rural, 40);
    let robc = bench_run(Scheme::Robc, Environment::Rural, 40);
    assert!(
        robc.delivered as f64 >= 0.98 * base.delivered as f64,
        "ROBC {} far below baseline {}",
        robc.delivered,
        base.delivered
    );
}

#[test]
fn rca_etx_trades_throughput_when_sparse() {
    // Fig. 9: "RCA-ETX receives its performance gain by trading
    // throughput" — it must not beat the baseline where coverage is thin.
    let base = bench_run(Scheme::NoRouting, Environment::Urban, 40);
    let rca = bench_run(Scheme::RcaEtx, Environment::Urban, 40);
    assert!(
        (rca.delivered as f64) <= 1.05 * base.delivered as f64,
        "RCA-ETX unexpectedly beats baseline throughput: {} vs {}",
        rca.delivered,
        base.delivered
    );
}

#[test]
fn forwarding_raises_hop_count() {
    // Fig. 12: LoRaWAN is single-hop by construction; ROBC relays.
    let base = bench_run(Scheme::NoRouting, Environment::Rural, 40);
    let robc = bench_run(Scheme::Robc, Environment::Rural, 40);
    assert_eq!(base.mean_hops(), 1.0);
    assert!(
        robc.mean_hops() > 1.5,
        "ROBC hops {} too close to single-hop",
        robc.mean_hops()
    );
}

#[test]
fn density_crossover_forwarding_gain_shrinks() {
    // Fig. 8: the schemes' delay advantage is largest at low gateway
    // density and shrinks as coverage saturates.
    let gain = |gws| {
        let base = bench_run(Scheme::NoRouting, Environment::Rural, gws);
        let robc = bench_run(Scheme::Robc, Environment::Rural, gws);
        base.mean_delay_s() - robc.mean_delay_s()
    };
    let sparse_gain = gain(40);
    let dense_gain = gain(100);
    // At minimum, the sparse-network gain must not be *smaller* by a wide
    // margin — the crossover direction must match the paper.
    assert!(
        sparse_gain + 5.0 >= dense_gain,
        "delay gain grew with density: sparse {sparse_gain:.1}s vs dense {dense_gain:.1}s"
    );
}
