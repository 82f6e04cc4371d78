//! Planar geometry primitives for the MLoRa mobility substrate.
//!
//! Coordinates are metres in a local tangent plane — at London-bus scale
//! (≤ 25 km) the flat-earth error is negligible compared to the 0.5–1 km
//! radio ranges the simulation reasons about.
//!
//! * [`Point`] — a position in metres.
//! * [`BBox`] — an axis-aligned bounding box (the simulation area).
//! * [`Polyline`] — a bus route with O(log n) arc-length interpolation
//!   (O(1) amortised through a segment cursor for monotone queries).
//! * [`GridIndex`] — an incrementally maintained uniform spatial grid
//!   answering "who is within radius r of p?" queries into caller
//!   scratch, for sparse or unbounded sets (the gateways).
//! * [`CellList`] — a dense cell list over a bounded area, rebuilt
//!   wholesale and patched in O(1) in between, whose queries visit
//!   contiguous cell rows: the backbone of neighbour discovery.

#![deny(missing_docs)]
#![warn(unreachable_pub)]

mod bbox;
mod cells;
mod grid;
mod point;
mod polyline;

pub use bbox::BBox;
pub use cells::CellList;
pub use grid::GridIndex;
pub use point::Point;
pub use polyline::{Polyline, PolylineError};
