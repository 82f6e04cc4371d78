//! The block-framed container: header, sections, checksummed blocks,
//! and the streaming writer/reader pair.
//!
//! Reading never panics on file content: clippy holds this module, like
//! the record decoders of `mlora-sim` it feeds, to no indexing,
//! `unwrap`, `expect` or `panic!` outside its tests. (The writer's
//! `assert!`s guard the caller's section bookkeeping, not file bytes.)
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use std::io::{Read, Write};

use crate::tape::{TapeCursor, TapeKind};
use crate::wire::{crc32, get_varint, put_varint, Enc};

/// The four magic bytes every `.mlsc` file starts with.
pub const MAGIC: [u8; 4] = *b"MLSC";

/// Current container format version (little-endian `u16` after the
/// magic). Readers reject files with a newer major version.
pub const FORMAT_VERSION: u16 = 1;

/// Upper bound on one block's payload size; blocks claiming more are
/// treated as corruption rather than allocated.
pub const MAX_BLOCK_BYTES: usize = 256 * 1024 * 1024;

/// Target payload size at which the writer cuts a block. Records never
/// span blocks, so a block may exceed this by one record.
const BLOCK_TARGET: usize = 64 * 1024;

/// Error decoding (or, for IO failures, encoding) a scenario container.
#[derive(Debug)]
pub enum ScenarioIoError {
    /// An underlying IO operation failed.
    Io(std::io::Error),
    /// The file does not start with the expected magic bytes.
    BadMagic,
    /// The file's format version is newer than this reader supports.
    UnsupportedVersion(u16),
    /// The file ended mid-structure (a short block, or no end marker).
    Truncated,
    /// A block's payload does not match its stored CRC32.
    ChecksumMismatch,
    /// A structural invariant was violated; the message names it.
    Corrupt(&'static str),
    /// A required section is absent; the message names it.
    MissingSection(&'static str),
    /// The scenario uses a feature the format cannot carry; the message
    /// names it.
    Unsupported(&'static str),
}

impl std::fmt::Display for ScenarioIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioIoError::Io(e) => write!(f, "scenario io: {e}"),
            ScenarioIoError::BadMagic => write!(f, "not a scenario file (bad magic)"),
            ScenarioIoError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "scenario format version {v} is newer than supported ({FORMAT_VERSION})"
                )
            }
            ScenarioIoError::Truncated => write!(f, "scenario file is truncated"),
            ScenarioIoError::ChecksumMismatch => write!(f, "scenario block checksum mismatch"),
            ScenarioIoError::Corrupt(what) => write!(f, "corrupt scenario file: {what}"),
            ScenarioIoError::MissingSection(what) => {
                write!(f, "scenario file is missing its {what} section")
            }
            ScenarioIoError::Unsupported(what) => {
                write!(f, "scenario cannot be serialized: {what}")
            }
        }
    }
}

impl std::error::Error for ScenarioIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ScenarioIoError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ScenarioIoError::Truncated
        } else {
            ScenarioIoError::Io(e)
        }
    }
}

/// Streaming scenario writer.
///
/// Sections are written in order; within a section, codecs encode one
/// record at a time into [`ScenarioWriter::enc`] and seal it with
/// [`ScenarioWriter::end_record`]. The writer cuts a checksummed block
/// at the first record boundary past ~64 KiB, so peak buffered memory
/// is one block regardless of world size.
#[derive(Debug)]
pub struct ScenarioWriter<W: Write> {
    out: W,
    block: Enc,
    scratch: Vec<u8>,
    section_open: bool,
    records_promised: u64,
    records_written: u64,
}

impl<W: Write> ScenarioWriter<W> {
    /// Creates a writer over `out` and writes the container header.
    ///
    /// # Errors
    ///
    /// Propagates IO errors from `out`.
    pub fn new(out: W) -> std::io::Result<Self> {
        ScenarioWriter::with_magic(out, MAGIC)
    }

    /// Creates a writer whose header carries `magic` instead of
    /// [`MAGIC`] — for sibling formats (e.g. engine snapshots) that
    /// reuse the block framing under their own four-byte signature.
    ///
    /// # Errors
    ///
    /// Propagates IO errors from `out`.
    pub fn with_magic(mut out: W, magic: [u8; 4]) -> std::io::Result<Self> {
        out.write_all(&magic)?;
        out.write_all(&FORMAT_VERSION.to_le_bytes())?;
        Ok(ScenarioWriter {
            out,
            block: Enc::default(),
            scratch: Vec::new(),
            section_open: false,
            records_promised: 0,
            records_written: 0,
        })
    }

    /// Opens a section that will carry exactly `records` records.
    ///
    /// # Panics
    ///
    /// Panics if a section is already open or `id` is the end marker.
    ///
    /// # Errors
    ///
    /// Propagates IO errors from the sink.
    pub fn begin_section(&mut self, id: u8, records: u64) -> std::io::Result<()> {
        assert!(!self.section_open, "previous section still open");
        assert_ne!(id, crate::section::END, "section id 0 is the end marker");
        self.section_open = true;
        self.records_promised = records;
        self.records_written = 0;
        self.scratch.clear();
        self.scratch.push(id);
        put_varint(&mut self.scratch, records);
        self.out.write_all(&self.scratch)
    }

    /// The encoder for the record currently being written.
    pub fn enc(&mut self) -> &mut Enc {
        &mut self.block
    }

    /// Seals the current record, cutting a block if the target size is
    /// reached.
    ///
    /// # Panics
    ///
    /// Panics if no section is open.
    ///
    /// # Errors
    ///
    /// Propagates IO errors from the sink.
    pub fn end_record(&mut self) -> std::io::Result<()> {
        assert!(self.section_open, "record written outside a section");
        self.records_written += 1;
        if self.block.len() >= BLOCK_TARGET {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Closes the current section, flushing the final block and writing
    /// the zero-length terminator.
    ///
    /// # Panics
    ///
    /// Panics if no section is open or the record count does not match
    /// the promise made to [`ScenarioWriter::begin_section`].
    ///
    /// # Errors
    ///
    /// Propagates IO errors from the sink.
    pub fn end_section(&mut self) -> std::io::Result<()> {
        assert!(self.section_open, "no section open");
        assert_eq!(
            self.records_written, self.records_promised,
            "section wrote a different record count than promised"
        );
        self.flush_block()?;
        self.scratch.clear();
        put_varint(&mut self.scratch, 0);
        self.out.write_all(&self.scratch)?;
        self.section_open = false;
        Ok(())
    }

    /// Appends a section that is already framed — header, checksummed
    /// blocks and terminator, exactly the bytes this writer emitted for
    /// it between a [`ScenarioWriter::begin_section`] and the return of
    /// its [`ScenarioWriter::end_section`] — without encoding or
    /// checksumming it again. For a section whose content repeats
    /// verbatim across many containers.
    ///
    /// # Panics
    ///
    /// Panics if a section is open.
    ///
    /// # Errors
    ///
    /// Propagates IO errors from the sink.
    pub fn write_framed_section(&mut self, framed: &[u8]) -> std::io::Result<()> {
        assert!(!self.section_open, "framed section inside an open section");
        self.out.write_all(framed)
    }

    /// Writes the end marker, flushes, and returns the sink.
    ///
    /// # Panics
    ///
    /// Panics if a section is still open.
    ///
    /// # Errors
    ///
    /// Propagates IO errors from the sink.
    pub fn finish(mut self) -> std::io::Result<W> {
        assert!(!self.section_open, "finish with a section still open");
        self.out.write_all(&[crate::section::END])?;
        self.out.flush()?;
        Ok(self.out)
    }

    fn flush_block(&mut self) -> std::io::Result<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        let payload = self.block.as_slice();
        self.scratch.clear();
        put_varint(&mut self.scratch, payload.len() as u64);
        self.scratch
            .extend_from_slice(&crc32(payload).to_le_bytes());
        self.out.write_all(&self.scratch)?;
        self.out.write_all(payload)?;
        self.block.clear();
        Ok(())
    }
}

/// Streaming scenario reader.
///
/// Drive it with [`ScenarioReader::next_section`], then decode each
/// record by calling [`ScenarioReader::begin_record`] followed by the
/// typed getters. Only one block is resident at a time; a record that
/// runs past its block is reported as corruption.
#[derive(Debug)]
pub struct ScenarioReader<R: Read> {
    input: R,
    block: Vec<u8>,
    pos: usize,
    in_section: bool,
    records_left: u64,
    finished: bool,
    /// Set while a [`record_tape`](crate::record_tape) runs.
    tape: Option<TapeCursor>,
}

impl<R: Read> ScenarioReader<R> {
    /// Creates a reader over `input`, validating the container header.
    ///
    /// # Errors
    ///
    /// [`ScenarioIoError::BadMagic`] /
    /// [`ScenarioIoError::UnsupportedVersion`] on a foreign or
    /// newer-format file, [`ScenarioIoError::Truncated`] on a short one.
    pub fn new(input: R) -> Result<Self, ScenarioIoError> {
        ScenarioReader::with_magic(input, MAGIC)
    }

    /// Creates a reader expecting `expected_magic` instead of [`MAGIC`]
    /// — the counterpart of [`ScenarioWriter::with_magic`].
    ///
    /// # Errors
    ///
    /// As [`ScenarioReader::new`], with [`ScenarioIoError::BadMagic`]
    /// judged against `expected_magic`.
    pub fn with_magic(mut input: R, expected_magic: [u8; 4]) -> Result<Self, ScenarioIoError> {
        let mut magic = [0u8; 4];
        input.read_exact(&mut magic)?;
        if magic != expected_magic {
            return Err(ScenarioIoError::BadMagic);
        }
        let mut version = [0u8; 2];
        input.read_exact(&mut version)?;
        let version = u16::from_le_bytes(version);
        if version > FORMAT_VERSION {
            return Err(ScenarioIoError::UnsupportedVersion(version));
        }
        Ok(ScenarioReader {
            input,
            block: Vec::new(),
            pos: 0,
            in_section: false,
            records_left: 0,
            finished: false,
            tape: TapeCursor::if_recording(expected_magic),
        })
    }

    /// Advances to the next section header, returning its id and record
    /// count, or `None` at the end marker.
    ///
    /// The previous section must have been fully consumed (every record
    /// decoded, or [`ScenarioReader::skip_section`] called).
    ///
    /// # Errors
    ///
    /// Structural errors ([`ScenarioIoError::Corrupt`],
    /// [`ScenarioIoError::Truncated`]) and checksum failures.
    pub fn next_section(&mut self) -> Result<Option<(u8, u64)>, ScenarioIoError> {
        if self.finished {
            return Ok(None);
        }
        if self.in_section {
            if self.records_left > 0 {
                return Err(ScenarioIoError::Corrupt("section left mid-records"));
            }
            if self.pos != self.block.len() {
                return Err(ScenarioIoError::Corrupt("trailing bytes in block"));
            }
            // Consume the section's zero-length terminator.
            if self.load_block()? {
                return Err(ScenarioIoError::Corrupt("extra blocks after last record"));
            }
            self.in_section = false;
        }
        let id = self.read_byte()?;
        if id == crate::section::END {
            self.finished = true;
            return Ok(None);
        }
        let records = self.read_varint_stream()?;
        self.in_section = true;
        self.records_left = records;
        self.block.clear();
        self.pos = 0;
        if let Some(tape) = &mut self.tape {
            tape.section(id);
        }
        Ok(Some((id, records)))
    }

    /// Discards the rest of the current section (all remaining blocks),
    /// e.g. for unknown section ids.
    ///
    /// # Errors
    ///
    /// Structural and checksum errors while draining.
    pub fn skip_section(&mut self) -> Result<(), ScenarioIoError> {
        if !self.in_section {
            return Ok(());
        }
        while self.load_block()? {}
        self.in_section = false;
        self.records_left = 0;
        Ok(())
    }

    /// Positions the reader at the start of the next record.
    ///
    /// # Errors
    ///
    /// [`ScenarioIoError::Corrupt`] when the section promised fewer
    /// records, plus structural and checksum errors.
    pub fn begin_record(&mut self) -> Result<(), ScenarioIoError> {
        if !self.in_section {
            return Err(ScenarioIoError::Corrupt("record read outside a section"));
        }
        if self.records_left == 0 {
            return Err(ScenarioIoError::Corrupt("more records than promised"));
        }
        self.records_left -= 1;
        if self.pos == self.block.len() && !self.load_block()? {
            return Err(ScenarioIoError::Corrupt("section ended before its records"));
        }
        if let Some(tape) = &mut self.tape {
            tape.record();
        }
        Ok(())
    }

    /// Files what was decoded since `start` on the tape, if one is
    /// being recorded.
    fn note(&self, kind: TapeKind, start: usize) {
        if let Some(tape) = &self.tape {
            tape.note(kind, start..self.pos);
        }
    }

    /// Reads one byte of the current record.
    ///
    /// # Errors
    ///
    /// [`ScenarioIoError::Corrupt`] if the record runs past its block.
    pub fn u8(&mut self) -> Result<u8, ScenarioIoError> {
        let b = self.byte()?;
        self.note(TapeKind::U8, self.pos - 1);
        Ok(b)
    }

    /// Reads a LEB128 varint of the current record.
    ///
    /// # Errors
    ///
    /// [`ScenarioIoError::Corrupt`] on truncation or overlength.
    pub fn varint(&mut self) -> Result<u64, ScenarioIoError> {
        let start = self.pos;
        let v = self.unnoted_varint()?;
        self.note(TapeKind::Varint, start);
        Ok(v)
    }

    /// Reads a little-endian IEEE-754 `f64` of the current record.
    ///
    /// # Errors
    ///
    /// [`ScenarioIoError::Corrupt`] if the record runs past its block.
    pub fn f64(&mut self) -> Result<f64, ScenarioIoError> {
        let end = self.pos + 8;
        let bytes = self
            .block
            .get(self.pos..end)
            .and_then(|bytes| bytes.try_into().ok())
            .ok_or(ScenarioIoError::Corrupt("record crosses block boundary"))?;
        let start = std::mem::replace(&mut self.pos, end);
        self.note(TapeKind::F64, start);
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    /// Reads a boolean of the current record.
    ///
    /// # Errors
    ///
    /// [`ScenarioIoError::Corrupt`] on truncation or a byte other than
    /// 0/1.
    pub fn bool(&mut self) -> Result<bool, ScenarioIoError> {
        let b = self.byte()?;
        self.note(TapeKind::Bool, self.pos - 1);
        match b {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ScenarioIoError::Corrupt("bad boolean byte")),
        }
    }

    /// Reads a length-prefixed UTF-8 string of the current record.
    ///
    /// # Errors
    ///
    /// [`ScenarioIoError::Corrupt`] on truncation or invalid UTF-8.
    pub fn string(&mut self) -> Result<String, ScenarioIoError> {
        let bytes = self.counted_bytes("string length overflow")?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|_| ScenarioIoError::Corrupt("string is not UTF-8"))
    }

    /// Reads a length-prefixed opaque byte blob of the current record —
    /// the counterpart of [`Enc::put_bytes`](crate::Enc::put_bytes).
    ///
    /// # Errors
    ///
    /// [`ScenarioIoError::Corrupt`] on truncation.
    pub fn bytes(&mut self) -> Result<Vec<u8>, ScenarioIoError> {
        self.byte_slice().map(<[u8]>::to_vec)
    }

    /// [`ScenarioReader::bytes`] without the copy: the blob as a slice
    /// of the resident block, valid until the reader is next advanced.
    ///
    /// # Errors
    ///
    /// [`ScenarioIoError::Corrupt`] on truncation.
    pub fn byte_slice(&mut self) -> Result<&[u8], ScenarioIoError> {
        self.counted_bytes("blob length overflow")
    }

    /// A varint length and the bytes it counts, `overflow` naming a
    /// length past the address space.
    fn counted_bytes(&mut self, overflow: &'static str) -> Result<&[u8], ScenarioIoError> {
        let start = self.pos;
        let len = self.unnoted_varint()? as usize;
        self.note(TapeKind::Len, start);
        let end = self
            .pos
            .checked_add(len)
            .ok_or(ScenarioIoError::Corrupt(overflow))?;
        let bytes = self
            .block
            .get(self.pos..end)
            .ok_or(ScenarioIoError::Corrupt("record crosses block boundary"))?;
        self.pos = end;
        Ok(bytes)
    }

    /// One byte of the current record, not filed on the tape.
    fn byte(&mut self) -> Result<u8, ScenarioIoError> {
        let &b = self
            .block
            .get(self.pos)
            .ok_or(ScenarioIoError::Corrupt("record crosses block boundary"))?;
        self.pos += 1;
        Ok(b)
    }

    /// A varint of the current record, not filed on the tape.
    fn unnoted_varint(&mut self) -> Result<u64, ScenarioIoError> {
        get_varint(&self.block, &mut self.pos).ok_or(ScenarioIoError::Corrupt("bad varint"))
    }

    /// Loads the next block of the current section into memory.
    /// Returns `false` on the zero-length terminator.
    fn load_block(&mut self) -> Result<bool, ScenarioIoError> {
        let len = self.read_varint_stream()? as usize;
        if len == 0 {
            self.block.clear();
            self.pos = 0;
            return Ok(false);
        }
        if len > MAX_BLOCK_BYTES {
            return Err(ScenarioIoError::Corrupt("block length out of range"));
        }
        let mut crc = [0u8; 4];
        self.input.read_exact(&mut crc)?;
        if let Some(tape) = &mut self.tape {
            tape.block(self.block.len());
        }
        // Grow the buffer in bounded steps as payload actually arrives
        // rather than pre-allocating the claimed length: a file
        // truncated (or corrupted) in its length prefix must not commit
        // 256 MiB up front on the strength of a varint.
        self.block.clear();
        while self.block.len() < len {
            let start = self.block.len();
            let step = (len - start).min(BLOCK_TARGET);
            self.block.resize(start + step, 0);
            let (_, fresh) = self.block.split_at_mut(start);
            self.input.read_exact(fresh)?;
        }
        if crc32(&self.block) != u32::from_le_bytes(crc) {
            return Err(ScenarioIoError::ChecksumMismatch);
        }
        self.pos = 0;
        Ok(true)
    }

    fn read_byte(&mut self) -> Result<u8, ScenarioIoError> {
        let mut byte = [0u8; 1];
        self.input.read_exact(&mut byte)?;
        let [byte] = byte;
        Ok(byte)
    }

    /// Reads a varint directly from the underlying stream (framing
    /// metadata lives outside blocks).
    fn read_varint_stream(&mut self) -> Result<u64, ScenarioIoError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.read_byte()?;
            if shift >= 64 {
                return Err(ScenarioIoError::Corrupt("bad varint"));
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]
mod tests {
    use super::*;

    /// Writes a two-section container: `n` varint records and one
    /// string record.
    fn sample_file(n: u64) -> Vec<u8> {
        let mut w = ScenarioWriter::new(Vec::new()).unwrap();
        w.begin_section(10, n).unwrap();
        for i in 0..n {
            w.enc().put_varint(i * 3);
            w.enc().put_f64(i as f64 * 0.5);
            w.end_record().unwrap();
        }
        w.end_section().unwrap();
        w.begin_section(11, 1).unwrap();
        w.enc().put_str("metro");
        w.end_record().unwrap();
        w.end_section().unwrap();
        w.finish().unwrap()
    }

    #[test]
    fn roundtrip_two_sections() {
        let bytes = sample_file(10_000); // forces multiple blocks
        let mut r = ScenarioReader::new(&bytes[..]).unwrap();
        let (id, n) = r.next_section().unwrap().unwrap();
        assert_eq!((id, n), (10, 10_000));
        for i in 0..n {
            r.begin_record().unwrap();
            assert_eq!(r.varint().unwrap(), i * 3);
            assert_eq!(r.f64().unwrap().to_bits(), (i as f64 * 0.5).to_bits());
        }
        let (id, n) = r.next_section().unwrap().unwrap();
        assert_eq!((id, n), (11, 1));
        r.begin_record().unwrap();
        assert_eq!(r.string().unwrap(), "metro");
        assert!(r.next_section().unwrap().is_none());
    }

    #[test]
    fn unknown_sections_are_skippable() {
        let bytes = sample_file(5_000);
        let mut r = ScenarioReader::new(&bytes[..]).unwrap();
        while let Some((id, n)) = r.next_section().unwrap() {
            if id == 11 {
                r.begin_record().unwrap();
                assert_eq!(r.string().unwrap(), "metro");
                assert_eq!(n, 1);
            } else {
                r.skip_section().unwrap();
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample_file(100);
        // Cut anywhere strictly inside: either a read fails early or the
        // end marker is missing.
        for cut in [7, bytes.len() / 2, bytes.len() - 1] {
            let mut r = match ScenarioReader::new(&bytes[..cut]) {
                Ok(r) => r,
                Err(ScenarioIoError::Truncated) => continue,
                Err(e) => panic!("unexpected header error: {e}"),
            };
            let mut failed = false;
            'outer: loop {
                match r.next_section() {
                    Ok(Some((_, n))) => {
                        for _ in 0..n {
                            if r.begin_record().is_err() {
                                failed = true;
                                break 'outer;
                            }
                            while r.varint().is_ok() {}
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            assert!(failed, "cut at {cut} went unnoticed");
        }
    }

    #[test]
    fn bitflip_is_detected() {
        let mut bytes = sample_file(1_000);
        let mid = bytes.len() / 2; // deep inside a block payload
        bytes[mid] ^= 0x40;
        let mut r = ScenarioReader::new(&bytes[..]).unwrap();
        let mut saw_error = false;
        loop {
            match r.next_section() {
                Ok(Some(_)) => {
                    if let Err(e) = r.skip_section() {
                        assert!(matches!(
                            e,
                            ScenarioIoError::ChecksumMismatch
                                | ScenarioIoError::Corrupt(_)
                                | ScenarioIoError::Truncated
                        ));
                        saw_error = true;
                        break;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    saw_error = true;
                    break;
                }
            }
        }
        assert!(saw_error, "flipped bit went unnoticed");
    }

    /// Fully decodes a container produced by `sample_file`, mirroring
    /// the writer record-for-record (no loose draining that could mask a
    /// silent short read).
    fn drive(bytes: &[u8]) -> Result<(), ScenarioIoError> {
        let mut r = ScenarioReader::new(bytes)?;
        while let Some((id, n)) = r.next_section()? {
            for _ in 0..n {
                r.begin_record()?;
                match id {
                    10 => {
                        r.varint()?;
                        r.f64()?;
                    }
                    11 => {
                        r.string()?;
                    }
                    _ => return Err(ScenarioIoError::Corrupt("unexpected section")),
                }
            }
        }
        Ok(())
    }

    #[test]
    fn every_truncation_point_is_truncated_never_eof() {
        // Cut a single-block container at EVERY byte position. Each
        // proper prefix is missing at least the end marker, so a full
        // decode must fail — and because every structural read is an
        // exact fill against the stream, the failure must be the typed
        // `Truncated`, never a panic, a silent success, or a
        // misclassified corruption. This sweeps every frame boundary:
        // mid-magic, mid-version, after the section id, inside the
        // record-count varint, inside a block-length varint, inside the
        // CRC, inside the payload, at the section terminator, and before
        // the end marker.
        let bytes = sample_file(40);
        assert!(drive(&bytes).is_ok(), "untruncated file must decode");
        for cut in 0..bytes.len() {
            match drive(&bytes[..cut]) {
                Err(ScenarioIoError::Truncated) => {}
                Err(e) => panic!("cut at {cut}/{}: wrong error {e}", bytes.len()),
                Ok(()) => panic!("cut at {cut}/{} decoded successfully", bytes.len()),
            }
        }
    }

    #[test]
    fn multiblock_truncation_points_are_truncated() {
        // The multi-block shape (~10 000 records spill past the 64 KiB
        // block target) exercised at targeted boundaries: the full
        // header region (covers the multi-byte block-length varint and
        // the first block's CRC), a mid-payload cut, the first block
        // boundary region, and the file tail (final block, section
        // terminator, end marker).
        let bytes = sample_file(10_000);
        assert!(drive(&bytes).is_ok(), "untruncated file must decode");
        let len = bytes.len();
        let cuts = (0..32)
            .chain([33, 100, 5_000, 64 * 1024, 64 * 1024 + 21])
            .chain(len - 32..len);
        for cut in cuts {
            match drive(&bytes[..cut]) {
                Err(ScenarioIoError::Truncated) => {}
                Err(e) => panic!("cut at {cut}/{len}: wrong error {e}"),
                Ok(()) => panic!("cut at {cut}/{len} decoded successfully"),
            }
        }
    }

    /// A byte source that records the largest buffer a single `read`
    /// call was handed — the witness for allocation-trusting readers,
    /// which pass the whole claimed block length to one `read`.
    struct BufferSpy<'a> {
        data: &'a [u8],
        max_buf: usize,
    }

    impl Read for BufferSpy<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.max_buf = self.max_buf.max(buf.len());
            let n = buf.len().min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn truncated_length_prefix_does_not_preallocate() {
        // A file whose block-length varint claims a near-maximum payload
        // but ends a few bytes later must fail as truncated without
        // first committing the claimed allocation. The spy observes the
        // buffers handed to `read`: a reader that trusts the length
        // prefix presents one claimed-length buffer, a bounded reader
        // never exceeds its chunk size.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.push(10); // section id
        put_varint(&mut bytes, 1); // one record promised
        put_varint(&mut bytes, MAX_BLOCK_BYTES as u64); // huge block claim
        bytes.extend_from_slice(&[0u8; 4]); // CRC
        bytes.extend_from_slice(&[0u8; 100]); // a sliver of payload
        let mut spy = BufferSpy {
            data: &bytes,
            max_buf: 0,
        };
        let mut r = ScenarioReader::new(&mut spy).unwrap();
        r.next_section().unwrap();
        assert!(matches!(r.begin_record(), Err(ScenarioIoError::Truncated)));
        assert!(
            spy.max_buf <= 64 * 1024,
            "reader trusted the claimed length: a {} byte buffer was \
             presented to a single read call",
            spy.max_buf
        );
    }

    #[test]
    fn custom_magic_roundtrip_and_mismatch() {
        let mut w = ScenarioWriter::with_magic(Vec::new(), *b"MLSS").unwrap();
        w.begin_section(7, 1).unwrap();
        w.enc().put_varint(99);
        w.end_record().unwrap();
        w.end_section().unwrap();
        let bytes = w.finish().unwrap();
        assert_eq!(&bytes[..4], b"MLSS");
        // Matching magic decodes.
        let mut r = ScenarioReader::with_magic(&bytes[..], *b"MLSS").unwrap();
        assert_eq!(r.next_section().unwrap(), Some((7, 1)));
        r.begin_record().unwrap();
        assert_eq!(r.varint().unwrap(), 99);
        assert!(r.next_section().unwrap().is_none());
        // The default reader (expecting MLSC) refuses the file, and the
        // custom reader refuses a default file.
        assert!(matches!(
            ScenarioReader::new(&bytes[..]),
            Err(ScenarioIoError::BadMagic)
        ));
        assert!(matches!(
            ScenarioReader::with_magic(&sample_file(1)[..], *b"MLSS"),
            Err(ScenarioIoError::BadMagic)
        ));
    }

    #[test]
    fn byte_blob_roundtrips_arbitrary_data() {
        // Non-UTF-8 payloads (e.g. an embedded nested container) must
        // come back byte-identical, and an empty blob is legal.
        let blob: Vec<u8> = (0..=255u8).rev().collect();
        let mut w = ScenarioWriter::new(Vec::new()).unwrap();
        w.begin_section(3, 2).unwrap();
        w.enc().put_bytes(&blob);
        w.end_record().unwrap();
        w.enc().put_bytes(&[]);
        w.end_record().unwrap();
        w.end_section().unwrap();
        let bytes = w.finish().unwrap();
        let mut r = ScenarioReader::new(&bytes[..]).unwrap();
        assert_eq!(r.next_section().unwrap(), Some((3, 2)));
        r.begin_record().unwrap();
        assert_eq!(r.bytes().unwrap(), blob);
        r.begin_record().unwrap();
        assert_eq!(r.bytes().unwrap(), Vec::<u8>::new());
        // A blob whose claimed length overruns the record is corrupt,
        // not a crash.
        let mut w = ScenarioWriter::new(Vec::new()).unwrap();
        w.begin_section(3, 1).unwrap();
        w.enc().put_varint(1_000);
        w.enc().put_u8(7);
        w.end_record().unwrap();
        w.end_section().unwrap();
        let bytes = w.finish().unwrap();
        let mut r = ScenarioReader::new(&bytes[..]).unwrap();
        r.next_section().unwrap();
        r.begin_record().unwrap();
        assert!(matches!(r.bytes(), Err(ScenarioIoError::Corrupt(_))));
    }

    #[test]
    fn framed_section_is_appended_verbatim() {
        let whole = sample_file(10_000);
        // Section 11 framed on its own: a container of that one section,
        // less the file header and the end marker.
        let mut w = ScenarioWriter::new(Vec::new()).unwrap();
        w.begin_section(11, 1).unwrap();
        w.enc().put_str("metro");
        w.end_record().unwrap();
        w.end_section().unwrap();
        let alone = w.finish().unwrap();
        let framed = &alone[MAGIC.len() + 2..alone.len() - 1];

        let mut w = ScenarioWriter::new(Vec::new()).unwrap();
        w.begin_section(10, 10_000).unwrap();
        for i in 0..10_000u64 {
            w.enc().put_varint(i * 3);
            w.enc().put_f64(i as f64 * 0.5);
            w.end_record().unwrap();
        }
        w.end_section().unwrap();
        w.write_framed_section(framed).unwrap();
        assert_eq!(w.finish().unwrap(), whole);
        assert!(drive(&whole).is_ok());
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        assert!(matches!(
            ScenarioReader::new(&b"NOPE\x01\x00rest"[..]),
            Err(ScenarioIoError::BadMagic)
        ));
        let mut bytes = sample_file(1);
        bytes[4] = 0xFF;
        bytes[5] = 0xFF;
        assert!(matches!(
            ScenarioReader::new(&bytes[..]),
            Err(ScenarioIoError::UnsupportedVersion(0xFFFF))
        ));
    }

    /// The tape files each primitive under its section and record at
    /// its place in the section's concatenated block payloads, a nested
    /// reader's under its own magic, and nothing outside a recording.
    #[test]
    fn tape_locates_every_primitive() {
        use crate::{record_tape, TapeKind};
        let bytes = sample_file(10_000); // section 10 spans several blocks
        let (decoded, tape) = record_tape(|| drive(&bytes));
        assert!(decoded.is_ok());
        assert_eq!(tape.len(), 2 * 10_000 + 1);
        let payload: Vec<u8> = (0..10_000u64)
            .flat_map(|i| {
                let mut enc = Enc::default();
                enc.put_varint(i * 3);
                enc.put_f64(i as f64 * 0.5);
                enc.as_slice().to_vec()
            })
            .collect();
        let mut end = 0;
        for (i, pair) in tape[..20_000].chunks(2).enumerate() {
            let [varint, float] = pair else { panic!() };
            assert_eq!((varint.section, varint.record), (10, i as u64));
            assert_eq!((varint.kind, float.kind), (TapeKind::Varint, TapeKind::F64));
            assert_eq!((varint.at.start, varint.at.end), (end, float.at.start));
            let mut pos = varint.at.start;
            assert_eq!(get_varint(&payload, &mut pos), Some(i as u64 * 3));
            assert_eq!(float.at.len(), 8);
            end = float.at.end;
        }
        assert_eq!(end, payload.len());
        let last = &tape[20_000];
        assert_eq!((last.section, last.record), (11, 0));
        assert_eq!((last.kind, last.at.clone()), (TapeKind::Len, 0..1));
        assert!(tape.iter().all(|e| e.magic == MAGIC));

        // A blob holding a container of its own, decoded in place.
        let mut w = ScenarioWriter::with_magic(Vec::new(), *b"MLSS").unwrap();
        w.begin_section(2, 1).unwrap();
        w.enc().put_bool(true);
        w.enc().put_bytes(&sample_file(1));
        w.end_record().unwrap();
        w.end_section().unwrap();
        let outer = w.finish().unwrap();
        let ((), tape) = record_tape(|| {
            let mut r = ScenarioReader::with_magic(&outer[..], *b"MLSS").unwrap();
            r.next_section().unwrap();
            r.begin_record().unwrap();
            assert!(r.bool().unwrap());
            drive(r.byte_slice().unwrap()).unwrap();
        });
        let kinds: Vec<_> = tape.iter().map(|e| (&e.magic, e.section, e.kind)).collect();
        assert_eq!(
            kinds,
            [
                (b"MLSS", 2, TapeKind::Bool),
                (b"MLSS", 2, TapeKind::Len),
                (b"MLSC", 10, TapeKind::Varint),
                (b"MLSC", 10, TapeKind::F64),
                (b"MLSC", 11, TapeKind::Len),
            ]
        );
        assert_eq!(tape[1].at, 1..2, "the blob's length, after the flag");
        // Outside a recording nothing is kept.
        assert!(drive(&bytes).is_ok());
        assert!(record_tape(|| ()).1.is_empty());
    }

    #[test]
    fn writer_is_deterministic() {
        assert_eq!(sample_file(123), sample_file(123));
    }
}
