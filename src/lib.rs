//! # mlora — contact-aware opportunistic forwarding for mobile LoRaWAN
//!
//! A full reproduction of *"Contact-Aware Opportunistic Data Forwarding
//! in Disconnected LoRaWAN Mobile Networks"* (Chen et al., ICDCS 2020):
//! the RCA-ETX routing metric, the ROBC backpressure scheme, the two new
//! device classes, and the complete simulation stack (mobility, PHY, MAC,
//! network engine) used to evaluate them.
//!
//! This facade crate re-exports each layer under a stable path:
//!
//! * [`core`] — RCA-ETX, ROBC, forwarding schemes (the paper's §IV–§V).
//! * [`sim`] — the integration simulator and experiment runners (§VII).
//! * [`mobility`] — the synthetic London bus network substrate and the
//!   metro-scale world generator.
//! * [`scenario_io`] — the streaming `.mlsc` binary scenario container.
//! * [`mac`] — LoRaWAN MAC: classes, duty cycle, queues, frames (§III, §VI).
//! * [`phy`] — LoRa airtime, path loss, capacity, collisions.
//! * [`geo`] / [`simcore`] — geometry and discrete-event foundations.
//!
//! # Quick start
//!
//! Build an urban ROBC scenario with the fluent builder and inspect the
//! headline metrics:
//!
//! ```
//! use mlora::core::Scheme;
//! use mlora::sim::Scenario;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let report = Scenario::urban()
//!     .smoke() // the small, fast test preset; drop for paper scale
//!     .scheme(Scheme::Robc)
//!     .run(42)?;
//! println!(
//!     "delivered {} of {} messages, mean delay {:.1}s, {:.1} hops",
//!     report.delivered,
//!     report.generated,
//!     report.mean_delay_s(),
//!     report.mean_hops()
//! );
//! # Ok(())
//! # }
//! ```
//!
//! # Sweeps
//!
//! Evaluation-style grids are declarative: an
//! [`ExperimentPlan`](sim::ExperimentPlan) names the axes, and a
//! [`Runner`](sim::Runner) fans the cells out across worker threads,
//! replicates each over seeds, and aggregates means and confidence
//! intervals:
//!
//! ```
//! use mlora::core::Scheme;
//! use mlora::sim::{ExperimentPlan, Runner, Scenario};
//! use mlora::simcore::SimDuration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let base = Scenario::urban()
//!     .smoke()
//!     .duration(SimDuration::from_mins(40))
//!     .build()?;
//! let plan = ExperimentPlan::new(base)
//!     .schemes([Scheme::NoRouting, Scheme::Robc])
//!     .gateway_counts([4, 9])
//!     .replicate(2);
//! for cell in Runner::new().run(&plan)? {
//!     let (lo, hi) = cell.report.ci95(|r| r.delivery_ratio());
//!     println!("{}/{} gws: delivery in [{lo:.2}, {hi:.2}]",
//!              cell.report.single().scheme, cell.key.gateways);
//! }
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for paper-scale scenarios and `crates/bench` for the
//! harness that regenerates every figure of the evaluation.

#![deny(missing_docs)]

pub use mlora_core as core;
pub use mlora_geo as geo;
pub use mlora_mac as mac;
pub use mlora_mobility as mobility;
pub use mlora_phy as phy;
pub use mlora_scenario_io as scenario_io;
pub use mlora_sim as sim;
pub use mlora_simcore as simcore;
