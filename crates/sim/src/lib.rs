//! The MLoRa-SS integration simulator.
//!
//! Ties every substrate together into the paper's evaluation pipeline
//! (§VII): the synthetic London bus network moves LoRa devices around a
//! 600 km² area; gateways sit on a uniform grid; devices generate a
//! 20-byte reading every 3 minutes, bundle up to 12 readings per frame,
//! respect the 1 % duty cycle, retransmit up to 8 times, and — depending
//! on the configured forwarding policy, one of the paper's
//! [`Scheme`](mlora_core::Scheme)s or a user's own — opportunistically
//! hand data to better-connected neighbours using RCA-ETX or ROBC.
//!
//! The public surface has three layers:
//!
//! * [`Scenario`] — a fluent builder producing validated [`SimConfig`]s
//!   (`Scenario::urban().gateways(80).scheme(Scheme::Robc).duration_h(24)`).
//! * [`SimObserver`] — streaming event hooks over a running simulation,
//!   with built-in counters, time-series and CSV/JSON trace sinks, so one
//!   run feeds any number of analyses.
//! * [`ExperimentPlan`] + [`Runner`] — declarative sweeps over
//!   environment/gateways/scheme/α/placement/class/disruptions/traffic,
//!   replicated over seeds and executed across worker threads into
//!   [`ReplicatedReport`]s with mean/CI accessors.
//!
//! The forwarding layer itself is open: a [`PolicySpec`] is how a
//! configuration names its policy, a bare `Scheme` converts into one,
//! and any [`ForwardingPolicy`] implementation wrapped by
//! [`PolicySpec::of`] goes wherever a scheme does —
//! [`ScenarioBuilder::scheme`], a [`schemes`](ExperimentPlan::schemes)
//! sweep axis — riding the exact engine path the paper's schemes use;
//! each run's [`SimReport::scheme`] carries the policy's label into
//! every table.
//!
//! Orthogonally, a [`DisruptionPlan`] scripts mid-run world events —
//! gateway outages, fleet withdrawals, regional noise bursts — as a
//! deterministic timeline the engine compiles and applies; an empty
//! plan is bit-identical to an undisrupted build.
//!
//! The demand side is equally pluggable: a [`TrafficModel`] mixes
//! [`TrafficProfile`]s (periodic/jittered/Poisson/diurnal/bursty
//! arrivals × payload-size distributions × priority classes) across the
//! fleet, payload sizes flow into real frame airtimes, and
//! [`SimReport::profiles`] breaks delivery/delay/airtime down per
//! profile; an empty model is the paper's homogeneous workload,
//! bit-identical to a build without the subsystem.
//!
//! # Quick start
//!
//! ```
//! use mlora_sim::prelude::*;
//!
//! let report = Scenario::urban()
//!     .smoke() // the small, fast test preset
//!     .scheme(Scheme::Robc)
//!     .run(42)
//!     .expect("valid scenario");
//! assert!(report.delivered > 0);
//! ```
//!
//! # A parallel multi-seed sweep
//!
//! ```
//! use mlora_sim::prelude::*;
//! use mlora_simcore::SimDuration;
//!
//! let base = Scenario::urban()
//!     .smoke()
//!     .duration(SimDuration::from_mins(40))
//!     .build()?;
//! let plan = ExperimentPlan::new(base)
//!     .schemes([Scheme::NoRouting, Scheme::Robc])
//!     .seed(2020)
//!     .replicate(2);
//! for cell in Runner::new().run(&plan)? {
//!     let (lo, hi) = cell.report.ci95(|r| r.delivery_ratio());
//!     let label = &cell.report.single().scheme;
//!     println!("{label}: delivery in [{lo:.2}, {hi:.2}]");
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![warn(unreachable_pub)]

mod config;
mod deployment;
pub mod disruption;
mod engine;
pub mod io;
mod metrics;
pub mod observer;
mod persist;
pub mod report;
mod runner;
mod scenario;
pub mod traffic;
#[cfg(test)]
mod world;

/// Test support shared with `tests/hostile_input.rs`: re-sealing an
/// edited container so its checksums hold. The allow keeps
/// `unreachable_pub` to this crate's own modules.
#[cfg(test)]
#[allow(unreachable_pub)]
#[path = "../tests/support/framing.rs"]
mod framing;

pub use config::{ConfigError, Environment, GatewayPlacement, SimConfig};
pub use deployment::place_gateways;
pub use disruption::{BusWithdrawal, DisruptionEvent, DisruptionPlan, GatewayOutage, NoiseBurst};
#[doc(hidden)]
pub use engine::probe;
pub use engine::{Engine, EngineStats, Snapshot, SnapshotError, SNAPSHOT_MAGIC};
pub use io::ScenarioFileError;
pub use metrics::{ProfileReport, SimReport};
pub use mlora_core::{ForwardingPolicy, PolicyContext, PolicySpec};
pub use mlora_mac::{DeviceClass, Priority};
pub use mlora_mobility::{BusNetwork, MetroConfig, MetroWorld};
pub use observer::{
    BusWithdrawn, EventCounter, FrameTransmitted, GatewayOutageChanged, HandoverAccepted,
    MessageDelivered, MessageGenerated, NoiseBurstChanged, NullObserver, ReportWriter,
    SeriesObserver, SimObserver, TraceFormat, TraceSink,
};
pub use runner::PAPER_GATEWAY_COUNTS;
pub use runner::{
    CellKey, CellResult, ExperimentPlan, PlanCell, ReplicatedReport, Runner, RunnerError,
};
pub use scenario::{Scenario, ScenarioBuilder};
pub use traffic::{ArrivalProcess, PayloadModel, TrafficModel, TrafficProfile};

pub mod prelude {
    //! The one-line import for working with the simulator.
    //!
    //! Re-exports the common surface — scenario building, schemes,
    //! observers and their event types, experiment plans, disruption
    //! scripting and traffic modelling — so examples and downstream
    //! code start with `use mlora_sim::prelude::*;` and reach for
    //! specific modules only for the long tail (snapshot internals,
    //! custom policies, raw substrate types).
    pub use crate::observer::events::{
        BusWithdrawn, FrameTransmitted, GatewayOutageChanged, HandoverAccepted, MessageDelivered,
        MessageGenerated, NoiseBurstChanged,
    };
    pub use crate::observer::{
        EventCounter, NullObserver, ReportWriter, SeriesObserver, SimObserver, TraceFormat,
        TraceSink,
    };
    pub use crate::{
        BusWithdrawal, ConfigError, DeviceClass, DisruptionPlan, Engine, Environment,
        ExperimentPlan, GatewayOutage, GatewayPlacement, MetroConfig, NoiseBurst, ReplicatedReport,
        Runner, Scenario, ScenarioBuilder, SimConfig, SimReport, Snapshot, TrafficModel,
        TrafficProfile,
    };
    pub use mlora_core::Scheme;
}
