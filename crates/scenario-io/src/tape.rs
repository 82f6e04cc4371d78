//! The decode tape: where each primitive a [`ScenarioReader`] decodes
//! sits in its section, recorded while [`record_tape`] runs.
//!
//! Test support, hidden from the docs. A test that edits a file field by
//! field — the hostile-input sweep of `mlora-sim` — finds the fields
//! through the decoders that read them, instead of through a second
//! statement of every record layout. Outside [`record_tape`] a reader
//! records nothing: it asks once, when it is built, whether a recording
//! is active.
//!
//! [`ScenarioReader`]: crate::ScenarioReader

use std::cell::RefCell;
use std::ops::Range;

/// The wire kind of one decoded primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TapeKind {
    /// A raw byte.
    U8,
    /// A LEB128 varint.
    Varint,
    /// A little-endian IEEE-754 `f64`.
    F64,
    /// A boolean byte.
    Bool,
    /// The varint length of a string or a blob. The bytes it counts
    /// follow it and have no entry of their own.
    Len,
}

/// One decoded primitive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapeEntry {
    /// The magic of the container it was decoded from: a snapshot's
    /// embedded scenario is decoded by a reader of its own.
    pub magic: [u8; 4],
    /// The id of its section.
    pub section: u8,
    /// The index of its record within the section.
    pub record: u64,
    /// Its bytes within the section's payload: the section's block
    /// payloads, concatenated.
    pub at: Range<usize>,
    /// What was decoded there.
    pub kind: TapeKind,
}

thread_local! {
    static TAPE: RefCell<Option<Vec<TapeEntry>>> = const { RefCell::new(None) };
}

/// Runs `f` and returns, beside its value, every primitive that the
/// readers built on this thread during `f` decoded, in decode order.
#[doc(hidden)]
pub fn record_tape<T>(f: impl FnOnce() -> T) -> (T, Vec<TapeEntry>) {
    /// Puts back an enclosing recording, also when `f` unwinds.
    struct Restore(Option<Vec<TapeEntry>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            TAPE.with(|tape| *tape.borrow_mut() = self.0.take());
        }
    }
    let _outer = Restore(TAPE.with(|tape| tape.replace(Some(Vec::new()))));
    let value = f();
    let entries = TAPE.with(|tape| tape.take()).unwrap_or_default();
    (value, entries)
}

/// Where a recording reader stands: what its next entry is filed under.
#[derive(Debug)]
pub(crate) struct TapeCursor {
    magic: [u8; 4],
    section: u8,
    /// Records begun in the current section.
    records: u64,
    /// Payload bytes of the section's blocks before the resident one.
    base: usize,
}

impl TapeCursor {
    /// A cursor for a reader of `magic`, if a recording is active.
    pub(crate) fn if_recording(magic: [u8; 4]) -> Option<TapeCursor> {
        let recording = TAPE.with(|tape| tape.borrow().is_some());
        recording.then_some(TapeCursor {
            magic,
            section: 0,
            records: 0,
            base: 0,
        })
    }

    /// The reader entered section `id`.
    pub(crate) fn section(&mut self, id: u8) {
        self.section = id;
        self.records = 0;
        self.base = 0;
    }

    /// The reader began a record.
    pub(crate) fn record(&mut self) {
        self.records += 1;
    }

    /// The reader replaced a resident block of `len` bytes.
    pub(crate) fn block(&mut self, len: usize) {
        self.base += len;
    }

    /// The reader decoded a `kind` at `at` of the resident block.
    #[cold]
    #[inline(never)]
    pub(crate) fn note(&self, kind: TapeKind, at: Range<usize>) {
        let entry = TapeEntry {
            magic: self.magic,
            section: self.section,
            record: self.records.saturating_sub(1),
            at: self.base + at.start..self.base + at.end,
            kind,
        };
        TAPE.with(|tape| {
            if let Some(entries) = tape.borrow_mut().as_mut() {
                entries.push(entry);
            }
        });
    }
}
