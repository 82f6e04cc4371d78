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
//! Section ids 1–4 (network config, world header, routes, fleet) are
//! encoded by this crate ([`write_world`], [`WorldAssembler`]); the
//! simulation-level sections (parameters, gateways, traffic,
//! disruptions) are layered on top by `mlora-sim`, which owns those
//! types. There — and in the `.mlss` snapshot below — every record's
//! layout is stated once, as an impl of that crate's private `Persist`
//! trait over [`Enc`] and [`ScenarioReader`] (`crates/sim/src/persist.rs`:
//! one `put`/`get` pair per type, derived from a single field list or
//! tag table where a record is just its fields, with the type's
//! invariants checked in `get`). The world sections encoded here sit
//! upstream of that trait and keep their hand-written codecs
//! (`world.rs`).
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
//! ```
//! use mlora_mobility::{BusNetwork, BusNetworkConfig};
//! use mlora_scenario_io::{read_world_sections, write_world, ScenarioReader, ScenarioWriter};
//!
//! let cfg = BusNetworkConfig {
//!     num_routes: 4,
//!     max_active_buses: 20,
//!     ..BusNetworkConfig::default()
//! };
//! let net = BusNetwork::generate(&cfg, 42);
//!
//! let mut bytes = Vec::new();
//! let mut w = ScenarioWriter::new(&mut bytes)?;
//! write_world(&mut w, &net)?;
//! w.finish()?;
//!
//! let loaded = read_world_sections(&mut ScenarioReader::new(&bytes[..])?)?.unwrap();
//! assert_eq!(net, loaded);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![warn(unreachable_pub)]

mod container;
mod wire;
mod world;

pub use container::{
    ScenarioIoError, ScenarioReader, ScenarioWriter, FORMAT_VERSION, MAGIC, MAX_BLOCK_BYTES,
};
pub use wire::Enc;
pub use world::{
    read_network_config, read_world_sections, write_network_config, write_world, WorldAssembler,
};

/// Section identifiers of the `.mlsc` container.
///
/// Id 0 terminates the file; ids 1–4 are encoded by this crate; ids 5–8
/// are reserved for the simulation layer; higher ids are free for
/// future sections (readers skip unknown ids).
pub mod section {
    /// End-of-file marker.
    pub const END: u8 = 0;
    /// Mobility generator configuration ([`crate::write_network_config`]).
    pub const NETWORK_CONFIG: u8 = 1;
    /// Prebuilt world header: area and horizon.
    pub const WORLD: u8 = 2;
    /// Route geometry records.
    pub const ROUTES: u8 = 3;
    /// Fleet (trip schedule) records.
    pub const FLEET: u8 = 4;
    /// Simulation parameters (encoded by `mlora-sim`).
    pub const SIM_PARAMS: u8 = 5;
    /// Gateway deployment (encoded by `mlora-sim`).
    pub const GATEWAYS: u8 = 6;
    /// Traffic model (encoded by `mlora-sim`).
    pub const TRAFFIC: u8 = 7;
    /// Disruption plan (encoded by `mlora-sim`).
    pub const DISRUPTIONS: u8 = 8;
}
