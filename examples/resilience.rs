//! Resilience study — how the forwarding schemes degrade when the
//! world stops cooperating.
//!
//! Sweeps gateway-outage density (none → a third of the deployment →
//! two thirds, the heaviest tier adding a fleet withdrawal and a
//! regional noise burst) across the forwarding schemes, using the
//! disruption axis of the experiment [`Runner`]. Opportunistic
//! forwarding exists precisely for intermittent connectivity, so the
//! interesting number is the delivery ratio *during* the outage
//! windows, where the baseline has nowhere to send.
//!
//! ```sh
//! cargo run --release --example resilience
//! ```

use mlora::geo::Point;
use mlora::sim::prelude::*;
use mlora::sim::report::resilience_table;
use mlora::simcore::{SimDuration, SimTime};

/// Outages covering `gateways` of the deployment, staggered through the
/// middle of the run: gateway `g` is down for one hour starting at
/// minute `40 + 10·g`.
fn staggered_outages(gateways: usize) -> Vec<GatewayOutage> {
    (0..gateways)
        .map(|g| GatewayOutage {
            gateway: g,
            start: SimTime::from_secs((40 + 10 * g as u64) * 60),
            duration: Some(SimDuration::from_hours(1)),
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A mid-size urban network: 225 km², four hours, nine gateways.
    let base = Scenario::urban()
        .scheme(Scheme::Robc)
        .area_side_m(15_000.0)
        .routes(30)
        .buses(150)
        .gateways(9)
        .duration_h(4)
        .build()?;

    // Disruption tiers of increasing severity. Tier 0 is the paper's
    // static world; the heaviest tier also withdraws a quarter of the
    // fleet and raises the noise floor over the city centre.
    let tiers = vec![
        DisruptionPlan::default(),
        DisruptionPlan {
            outages: staggered_outages(3),
            ..DisruptionPlan::default()
        },
        DisruptionPlan {
            outages: staggered_outages(6),
            withdrawals: vec![BusWithdrawal {
                at: SimTime::from_secs(90 * 60),
                fraction: 0.25,
            }],
            noise_bursts: vec![NoiseBurst {
                center: Point::new(7_500.0, 7_500.0),
                radius_m: 5_000.0,
                start: SimTime::from_secs(60 * 60),
                duration: Some(SimDuration::from_hours(1)),
                extra_loss_db: 12.0,
            }],
        },
    ];
    let tier_labels = ["none", "3 outages", "6 outages + withdrawal + noise"];

    let plan = ExperimentPlan::new(base)
        .schemes([Scheme::NoRouting, Scheme::RcaEtx, Scheme::Robc])
        .disruptions(tiers)
        .fixed_seeds([2020]);
    let cells = Runner::new().run(&plan)?;

    println!("Disruption tiers:");
    for (i, label) in tier_labels.iter().enumerate() {
        println!("  plan {i}: {label}");
    }
    println!();
    print!("{}", resilience_table(&cells));
    println!();

    // Headline: how much delivery the forwarding schemes rescue during
    // the heaviest tier's outage windows, relative to plain LoRaWAN.
    let outage_ratio = |scheme: Scheme| {
        cells
            .iter()
            .find(|c| c.report.single().scheme == scheme.label() && c.key.disruption == 2)
            .map(|c| c.report.single().outage_delivery_ratio())
            .unwrap_or(0.0)
    };
    let base_ratio = outage_ratio(Scheme::NoRouting);
    let robc_ratio = outage_ratio(Scheme::Robc);
    println!(
        "During the heaviest tier's outages: LoRaWAN delivers {:.1}% , ROBC {:.1}%",
        100.0 * base_ratio,
        100.0 * robc_ratio
    );
    println!("Opportunistic forwarding routes around failed gateways; the");
    println!("delivery gap during outage windows is the resilience dividend.");
    Ok(())
}
