//! Streaming binary scenario IO: the `.mlsc` container format.
//!
//! Metro-scale worlds (100 000 buses, millions of trips) are too large
//! to regenerate per run or ship as text. This crate defines a
//! versioned, sectioned binary container — little-endian fixed-width
//! floats, LEB128 varints, per-block length prefixes and CRC32
//! checksums — together with a streaming [`ScenarioWriter`] /
//! [`ScenarioReader`] pair that never holds more than one compressed
//! block (~64 KiB) of IO state in memory beyond the decoded payload
//! itself.
//!
//! # Container layout
//!
//! ```text
//! file    := magic "MLSC" | version u16 LE | section* | end
//! section := id u8 (non-zero) | record-count varint | block* | len-0 block
//! block   := payload-len varint | crc32 u32 LE | payload bytes
//! end     := id 0
//! ```
//!
//! Records are packed back-to-back inside block payloads and never span
//! a block boundary; the writer cuts a block at the first record
//! boundary past 64 KiB, so reader memory is bounded by the largest
//! single record, not the file. A missing `end` marker or a short block
//! surfaces as [`ScenarioIoError::Truncated`]; a flipped bit surfaces as
//! [`ScenarioIoError::ChecksumMismatch`]. Unknown section ids are
//! skippable ([`ScenarioReader::skip_section`]), so the format is
//! forward-extensible.
//!
//! The checksum is CRC-32/IEEE (reflected polynomial `0xEDB88320`,
//! check value `0xCBF43926`) over the block payload. How it is computed
//! is an implementation detail — eight bytes per step over
//! compile-time tables, held equal to the byte-at-a-time definition by
//! a property test; the bytes are not: files written by any build read
//! back under every other, and a writer that already holds a section in
//! framed form may append it verbatim
//! ([`ScenarioWriter::write_framed_section`]) instead of encoding and
//! checksumming it again. Readers verify every block they load either
//! way.
//!
//! This crate is the container alone: it names the sections
//! ([`section`]) but encodes no record. Every record of every section —
//! network config, world header, routes and fleet as much as parameters,
//! gateways, traffic and disruptions — and of the `.mlss` snapshot below
//! is laid out once, in `mlora-sim`, as an impl of that crate's private
//! `Persist` trait over [`Enc`] and [`ScenarioReader`]
//! (`crates/sim/src/persist.rs`: one `put`/`get` pair per type, derived
//! from a single field list or tag table where a record is just its
//! fields, with the type's invariants checked in `get`). The layouts
//! live there rather than here because `Persist` is implemented for
//! types of `mlora-phy`, `mlora-mac` and `mlora-core` as well: were the
//! trait defined here, Rust's orphan rule (the trait or the type must be
//! local) would forbid those impls in `mlora-sim`, and this crate does
//! not depend on those crates.
//!
//! # Sibling formats: the `.mlss` engine snapshot
//!
//! The container layer is magic-parameterized
//! ([`ScenarioWriter::with_magic`] / [`ScenarioReader::with_magic`]), so
//! other formats can reuse the exact framing — version word, sectioning,
//! block checksums, truncation detection — under their own four-byte
//! magic. `mlora-sim` uses this for its `.mlss` engine snapshots (magic
//! `MLSS`): the same `section*`/`block*` grammar as above, with
//! snapshot-owned section ids (header, embedded `.mlsc` scenario blob,
//! event queue, devices, flights, RNG streams, delivery, collector).
//! The event-queue section holds live events only — the traffic,
//! transmission and disruption events pending at the captured instant
//! and the trip ends of buses on the road. The timetable is not in it:
//! a trip that has not departed has no record, and the reader derives
//! where the timetable stands from the captured instant. Files written
//! before that rule carry a start and an end record per undeparted
//! trip; the reader checks those against the timetable and drops them.
//! One consequence worth knowing when sizing records: a record never
//! spans blocks, but a single record may occupy a whole oversized block
//! (up to the 256 MiB cap) — that is how the snapshot embeds its
//! scenario as one opaque byte record, which its reader decodes in
//! place ([`ScenarioReader::byte_slice`]) rather than copying out.
//!
//! # Example
//!
//! A section of records, written and streamed back. The section id and
//! the record layout are the caller's; skipping a section needs neither.
//!
//! ```
//! use mlora_scenario_io::{ScenarioReader, ScenarioWriter};
//!
//! let mut bytes = Vec::new();
//! let mut w = ScenarioWriter::new(&mut bytes)?;
//! w.begin_section(42, 2)?;
//! for (name, speed) in [("radial", 9.5), ("ring", 7.25)] {
//!     w.enc().put_str(name);
//!     w.enc().put_f64(speed);
//!     w.end_record()?;
//! }
//! w.end_section()?;
//! w.finish()?;
//!
//! let mut r = ScenarioReader::new(&bytes[..])?;
//! assert_eq!(r.next_section()?, Some((42, 2)));
//! r.begin_record()?;
//! assert_eq!((r.string()?, r.f64()?), ("radial".to_string(), 9.5));
//! r.begin_record()?;
//! assert_eq!((r.string()?, r.f64()?), ("ring".to_string(), 7.25));
//! assert_eq!(r.next_section()?, None);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![warn(unreachable_pub)]

mod container;
mod tape;
mod wire;

pub use container::{
    ScenarioIoError, ScenarioReader, ScenarioWriter, FORMAT_VERSION, MAGIC, MAX_BLOCK_BYTES,
};
#[doc(hidden)]
pub use tape::{record_tape, TapeEntry, TapeKind};
pub use wire::Enc;

/// Section identifiers of the `.mlsc` container.
///
/// Id 0 terminates the file; ids 1–8 are the scenario's, every record
/// of them encoded by `mlora-sim`; higher ids are free for future
/// sections (readers skip unknown ids).
pub mod section {
    /// End-of-file marker.
    pub const END: u8 = 0;
    /// Mobility generator configuration.
    pub const NETWORK_CONFIG: u8 = 1;
    /// Prebuilt world header: area and horizon.
    pub const WORLD: u8 = 2;
    /// Route geometry records.
    pub const ROUTES: u8 = 3;
    /// Fleet (trip schedule) records.
    pub const FLEET: u8 = 4;
    /// Simulation parameters.
    pub const SIM_PARAMS: u8 = 5;
    /// Gateway deployment.
    pub const GATEWAYS: u8 = 6;
    /// Traffic model.
    pub const TRAFFIC: u8 = 7;
    /// Disruption plan.
    pub const DISRUPTIONS: u8 = 8;
}
