//! A user-defined forwarding policy pitted against the paper's schemes.
//!
//! Implements a spray-and-wait-style DTN baseline on the open
//! [`ForwardingPolicy`] trait — no engine changes, no new enum variant —
//! and sweeps it against LoRaWAN and ROBC through the `schemes`
//! experiment axis.
//!
//! ```sh
//! cargo run --release --example custom_scheme
//! ```

use mlora::core::{Beacon, ForwardingPolicy, PolicyContext, PolicySpec, Rssi, RCA_ETX_CEILING};
use mlora::sim::prelude::*;
use mlora::sim::report;

/// A binary spray-and-wait relay with a contact-gated budget.
///
/// *Spray*: on hearing any not-worse-connected neighbour over a usable
/// link, hand over half the backlog (classic binary spray). *Wait*: each
/// handover spends one unit of a spray budget; once the budget is gone
/// the device holds its remaining copies until a gateway contact refills
/// it — so well-connected devices spray freely while disconnected ones
/// stop flooding after a few relays and wait for coverage.
///
/// The policy keeps private per-device state (the remaining budget) and
/// leans on the shared machinery every policy gets for free: the
/// RCA-ETX estimator, the link metric and the §V.B.2 anti-loop ledger.
#[derive(Debug, Clone)]
struct SprayAndWait {
    /// Handovers granted per gateway contact.
    budget: u32,
    /// Handovers left before the wait phase.
    sprays_left: u32,
}

impl SprayAndWait {
    fn new(budget: u32) -> Self {
        SprayAndWait {
            budget,
            sprays_left: budget,
        }
    }
}

impl ForwardingPolicy for SprayAndWait {
    fn label(&self) -> &str {
        "Spray+Wait"
    }

    fn clone_box(&self) -> Box<dyn ForwardingPolicy> {
        Box::new(self.clone())
    }

    fn forwards(&mut self, ctx: &PolicyContext<'_>, beacon: &Beacon, rssi: Rssi<'_>) -> bool {
        // Wait phase: the budget is spent, hold the remaining copies.
        if self.sprays_left == 0 {
            return false;
        }
        // Respect the anti-loop ledger and require a usable link. The
        // beacon's strength is a deferred value: the link metric is
        // what evaluates it, and only when the cheaper checks pass.
        if ctx.is_barred(beacon.sender) || ctx.link_rca_etx(rssi) >= RCA_ETX_CEILING {
            return false;
        }
        // Spray only towards carriers at least as well connected as we
        // currently look (real-time preview, so a grown disconnection
        // gap makes us eager).
        if beacon.rca_etx > ctx.rca_etx_now() {
            return false;
        }
        // The transfer below always moves ≥1 message (the queue is
        // non-empty here), so the offer genuinely spends budget.
        self.sprays_left -= 1;
        true
    }

    fn transfer_amount(&self, ctx: &PolicyContext<'_>, _beacon: &Beacon) -> usize {
        // Binary spray: hand over half the backlog, keep the rest.
        ctx.queue_len().div_ceil(2)
    }

    fn on_sink_slot(&mut self, _t: mlora::simcore::SimTime, capacity: Option<f64>, _wait_s: f64) {
        // A gateway contact refills the spray budget.
        if capacity.is_some() {
            self.sprays_left = self.budget;
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Smoke scale so the example finishes in seconds; drop `.smoke()`
    // for the paper's 600 km² / 24 h setting.
    let base = Scenario::urban().smoke().build()?;
    let plan = ExperimentPlan::new(base)
        .gateway_counts([6, 9])
        .schemes([
            Scheme::NoRouting.into(),
            Scheme::Robc.into(),
            PolicySpec::of(SprayAndWait::new(4)),
        ])
        .fixed_seeds([42]);
    let cells = Runner::new().run(&plan)?;

    println!("{}", report::scheme_table(&cells));
    println!("Spray+Wait is ~60 lines of user code: the ForwardingPolicy");
    println!("trait rides the exact engine path the built-in schemes use,");
    println!("and its label flows into every report table above.");

    // The custom policy must actually relay data in this world.
    let spray = cells
        .iter()
        .find(|c| c.report.single().scheme == "Spray+Wait")
        .expect("spray cell present");
    assert!(
        spray.report.single().handover_frames > 0,
        "Spray+Wait never handed over"
    );
    Ok(())
}
