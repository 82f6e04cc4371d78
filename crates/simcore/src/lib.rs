//! Deterministic discrete-event simulation core for the MLoRa stack.
//!
//! This crate provides the building blocks every other crate in the
//! workspace relies on:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-millisecond simulation time
//!   newtypes that cannot be confused with wall-clock time.
//! * [`EventQueue`] — a monotonic, FIFO-tie-broken priority queue of
//!   timestamped events; the heart of the discrete-event loop.
//! * [`SimRng`] — a seeded, fork-able random number generator so that a
//!   single `u64` seed reproduces an entire simulation run bit-for-bit;
//!   [`NormalDraw`] is a normal sample drawn but not yet evaluated.
//! * [`Slab`] / [`DenseMap`] — dense, index-addressed storage for hot
//!   per-entity state (generational arena and flat id-keyed map), so the
//!   inner event loop never hashes.
//! * [`stats`] — streaming statistics (Welford accumulator, histograms,
//!   time-bucketed series) used by the metric collectors.
//!
//! # Example
//!
//! ```
//! use mlora_simcore::{EventQueue, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Hello, World }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_secs(2), Ev::World);
//! q.schedule(SimTime::from_secs(1), Ev::Hello);
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(t, SimTime::from_secs(1));
//! assert_eq!(ev, Ev::Hello);
//! ```

#![deny(missing_docs)]
#![warn(unreachable_pub)]

mod event;
mod id;
mod rng;
mod slab;
pub mod stats;
mod time;

pub use event::EventQueue;
pub use id::{GatewayId, MessageId, NodeId};
pub use rng::{NormalDraw, SimRng};
pub use slab::{DenseKey, DenseMap, Slab, SlabKey};
pub use time::{SimDuration, SimTime};
