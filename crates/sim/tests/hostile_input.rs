//! Hostile-input sweep over the two byte-level readers: `.mlss` engine
//! snapshots ([`Snapshot::from_bytes`] + [`Engine::resume`]) and `.mlsc`
//! scenario files ([`SimConfig::from_reader`]).
//!
//! Seeded from the three checked-in snapshots, one scenario file
//! written from a rich configuration and the checked-in small prebuilt
//! metro world (as a scenario file and as a snapshot), in four
//! families:
//!
//! * **truncation** — at every offset of the smallest snapshot and of
//!   both scenario files, on a stride of the other snapshots;
//! * **bit flips, not re-sealed** — the container's checksums and
//!   framing must catch these;
//! * **named re-sealed edits** — one section rewritten and framed again
//!   with valid checksums (`support/framing.rs`), so the value reaches
//!   the record codecs: counts that no data backs, ids that name
//!   nothing, relations between fields broken, and each value of a
//!   scenario file a constructor downstream would `assert!` on;
//! * **generic re-sealed edits** — every primitive of the first and the
//!   last record of every section of two snapshots, planted with each
//!   value of a fixed set for its kind ([`generic_values`]).
//!
//! Every case must end in a typed `Err`, or in an `Ok` that then runs to
//! its horizon; none may panic, and none may allocate more than an
//! honest load of the same fixture plus a bound that does not depend on
//! what the file *claims* ([`RESERVE_SLACK`] — the decoders reserve at
//! most 16 MiB ahead of the data — and a small multiple of the file's
//! length).
//!
//! The sweep does not state the record layouts: the decoders do. Each
//! fixture is loaded once under [`record_tape`], which files every
//! primitive the readers decode — section, record, byte range, kind —
//! and the tape must cover every payload byte once ([`Fixture::new`]).
//! Generic plants visit the tape's entries; a named plant names its
//! field by its place in its record (the header's second varint, a
//! device's ninth flag) or by the value it must hold (a device's queue
//! capacity is the scenario's), and where it can, checks what it finds
//! against the source ([`Fixture::field_holding`]).
//!
//! One `#[test]`, phases in sequence: the allocation counter is
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mlora_core::{Scheme, PACKET_BITS};
use mlora_scenario_io::{record_tape, section, ScenarioIoError, TapeEntry, TapeKind, MAGIC};
use mlora_sim::{
    DisruptionEvent, Engine, GatewayPlacement, Scenario, ScenarioFileError, SimConfig, Snapshot,
    SnapshotError, TrafficProfile, SNAPSHOT_MAGIC,
};
use mlora_simcore::{SimDuration, SimTime};

#[path = "support/framing.rs"]
mod framing;
use framing::{get_varint, sections, splice, varint, Section};

struct CountingAlloc;

static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// A single request no honest load comes near. It is refused — the
/// process aborts with "memory allocation of N bytes failed" — so that a
/// decoder trusting a forged count takes the test down, not the machine.
const LARGEST_REQUEST: usize = 1 << 30;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > LARGEST_REQUEST {
            return std::ptr::null_mut();
        }
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > LARGEST_REQUEST {
            return std::ptr::null_mut();
        }
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What a load may allocate beyond an honest load of its fixture, on
/// top of [`LENGTH_MULTIPLE`] × the file's length: before reading the
/// elements a count promises, the decoders reserve room for at most
/// 16 MiB of them, whatever the file promises.
const RESERVE_SLACK: u64 = 16 << 20;
const LENGTH_MULTIPLE: u64 = 8;

// Snapshot section ids (`engine/snapshot.rs`), in file order.
const SEC_HEADER: u8 = 1;
const SEC_CONFIG: u8 = 2;
const SEC_EVENTS: u8 = 3;
const SEC_DEVICES: u8 = 4;
const SEC_WITHDRAWN: u8 = 5;
const SEC_FLIGHT_SLOTS: u8 = 6;
const SEC_FLIGHT_FREE: u8 = 7;
const SEC_STREAMS: u8 = 8;
const SEC_DELIVERY: u8 = 9;
const SEC_COLLECTOR: u8 = 10;

/// An id far past any fixture's timetable, table or slab.
const NOWHERE: u64 = 1 << 30;
/// A count no file could back with data.
const HUGE: u64 = 1 << 60;

/// How one case ended.
enum Outcome {
    /// A typed error that names a defect of the bytes.
    Refused,
    /// Loaded, and then ran to its horizon.
    Ran,
}

/// A defect in the bytes has a name: the container's own errors, less
/// the two that mean something else (`Io` — the input is a slice — and
/// `Unsupported`, a writer-side refusal).
fn names_the_defect(e: &ScenarioIoError) -> bool {
    !matches!(e, ScenarioIoError::Io(_) | ScenarioIoError::Unsupported(_))
}

/// Loads a snapshot and, if it resumes, runs it out.
fn load_snapshot(bytes: &[u8]) -> Outcome {
    let loaded = Snapshot::from_bytes(bytes.to_vec()).and_then(|snap| Engine::resume(&snap));
    match loaded {
        Err(e) => {
            let typed = match &e {
                SnapshotError::Format(e) | SnapshotError::Scenario(ScenarioFileError::Io(e)) => {
                    names_the_defect(e)
                }
                SnapshotError::Scenario(ScenarioFileError::Config(_)) => true,
                _ => false,
            };
            assert!(typed, "not an error of the bytes: {e:?}");
            Outcome::Refused
        }
        Ok(engine) => {
            engine.finish();
            Outcome::Ran
        }
    }
}

/// Loads a scenario file and, if it validates, runs it.
fn load_scenario(bytes: &[u8]) -> Outcome {
    match SimConfig::from_reader(bytes) {
        Err(e) => {
            let typed = match &e {
                ScenarioFileError::Io(e) => names_the_defect(e),
                ScenarioFileError::Config(_) => true,
                ScenarioFileError::UnsupportedPolicy => false,
            };
            assert!(typed, "not an error of the bytes: {e:?}");
            Outcome::Refused
        }
        Ok(cfg) => {
            cfg.run(1).expect("from_reader validated it");
            Outcome::Ran
        }
    }
}

/// Runs the cases of one fixture and keeps the book on them.
struct Sweep {
    fixture: &'static str,
    load: fn(&[u8]) -> Outcome,
    /// Bytes an honest load of the pristine fixture allocates.
    honest: u64,
    cases: usize,
    ran: usize,
    failures: Vec<String>,
    started: Instant,
}

impl Sweep {
    fn new(fixture: &'static str, pristine: &[u8], load: fn(&[u8]) -> Outcome) -> Self {
        let started = Instant::now();
        let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
        assert!(
            matches!(load(pristine), Outcome::Ran),
            "{fixture}: the pristine fixture must load and run"
        );
        // The run is in the figure too: it only makes the bound looser
        // by a constant.
        let honest = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
        Sweep {
            fixture,
            load,
            honest,
            cases: 0,
            ran: 0,
            failures: Vec::new(),
            started,
        }
    }

    /// One case: no panic, bounded allocation; the outcome is returned
    /// for the family's own assertion.
    fn case(&mut self, name: &str, bytes: &[u8]) -> Option<Outcome> {
        // Named before it runs: an abort leaves the name behind
        // (`--nocapture`).
        println!("{}: {name}", self.fixture);
        self.run(name, bytes)
    }

    fn run(&mut self, name: &str, bytes: &[u8]) -> Option<Outcome> {
        self.cases += 1;
        let budget = self.honest + RESERVE_SLACK + LENGTH_MULTIPLE * bytes.len() as u64;
        let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(|| (self.load)(bytes)));
        let allocated = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
        match outcome {
            Err(panic) => {
                let message = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("<non-string panic>");
                self.failures
                    .push(format!("{}: {name}: PANIC: {message}", self.fixture));
                None
            }
            Ok(outcome) => {
                if allocated > budget {
                    self.failures.push(format!(
                        "{}: {name}: allocated {allocated} bytes, budget {budget}",
                        self.fixture
                    ));
                }
                if matches!(outcome, Outcome::Ran) {
                    self.ran += 1;
                }
                Some(outcome)
            }
        }
    }

    /// A case that must be refused.
    fn refused(&mut self, name: &str, bytes: &[u8]) {
        let outcome = self.case(name, bytes);
        self.must_refuse(name, outcome);
    }

    /// A case that must load and run to its horizon.
    fn runs(&mut self, name: &str, bytes: &[u8]) {
        if let Some(Outcome::Refused) = self.case(name, bytes) {
            self.failures
                .push(format!("{}: {name}: refused", self.fixture));
        }
    }

    fn must_refuse(&mut self, name: &str, outcome: Option<Outcome>) {
        if let Some(Outcome::Ran) = outcome {
            self.failures
                .push(format!("{}: {name}: loaded and ran", self.fixture));
        }
    }

    /// (a) Every prefix on the stride is refused: the end marker is the
    /// last byte, so no proper prefix is a container.
    fn truncations(&mut self, bytes: &[u8], stride: usize) {
        for cut in (0..bytes.len()).step_by(stride) {
            let name = format!("cut at {cut}");
            let outcome = self.run(&name, &bytes[..cut]);
            self.must_refuse(&name, outcome);
        }
    }

    /// (b) One flipped bit per visited byte, nothing re-sealed. A flip
    /// in the version word or a section header can leave a well-formed
    /// file (version 0 reads as version 1), so `Ran` is admissible;
    /// anything refused must name a container-level defect.
    fn bit_flips(&mut self, bytes: &[u8], stride: usize) {
        let mut hostile = bytes.to_vec();
        for at in (0..bytes.len()).step_by(stride) {
            let bit = 1 << (at % 8);
            hostile[at] ^= bit;
            self.run(&format!("bit {} of byte {at}", at % 8), &hostile);
            hostile[at] ^= bit;
        }
    }

    fn report(self, failures: &mut Vec<String>) {
        println!(
            "{}: {} cases, {} loaded and ran, {} failed, in {:.1} s",
            self.fixture,
            self.cases,
            self.ran,
            self.failures.len(),
            self.started.elapsed().as_secs_f64()
        );
        failures.extend(self.failures);
    }
}

/// A pristine fixture taken apart along its framing, with the tape of
/// its honest load: where each primitive the decoders read sits.
struct Fixture<'a> {
    name: &'static str,
    bytes: &'a [u8],
    magic: [u8; 4],
    sections: Vec<Section>,
    tape: Vec<TapeEntry>,
}

impl<'a> Fixture<'a> {
    /// A snapshot, its tape recorded by a resume.
    fn snapshot(name: &'static str, bytes: &'a [u8]) -> Self {
        let snap = Snapshot::from_bytes(bytes.to_vec()).expect("the fixture loads");
        let (resumed, tape) = record_tape(|| Engine::resume(&snap));
        resumed.expect("the fixture resumes");
        Fixture::new(name, bytes, SNAPSHOT_MAGIC, tape)
    }

    /// A scenario file, its tape recorded by its load.
    fn scenario(name: &'static str, bytes: &'a [u8]) -> Self {
        let (cfg, tape) = record_tape(|| SimConfig::from_reader(bytes));
        cfg.expect("the fixture loads");
        Fixture::new(name, bytes, MAGIC, tape)
    }

    /// Keeps the entries of the fixture's own container — a snapshot's
    /// embedded scenario is decoded by a reader of its own — and checks
    /// that they cover every payload byte of every section exactly once,
    /// a string's or a blob's bytes counted through its length: then
    /// planting each entry reaches each field the decoders read.
    fn new(name: &'static str, bytes: &'a [u8], magic: [u8; 4], tape: Vec<TapeEntry>) -> Self {
        let fixture = Fixture {
            name,
            bytes,
            magic,
            sections: sections(bytes),
            tape: tape.into_iter().filter(|e| e.magic == magic).collect(),
        };
        for s in &fixture.sections {
            let mut covered = vec![0u32; s.payload.len()];
            for e in fixture.tape.iter().filter(|e| e.section == s.id) {
                let counted = match e.kind {
                    TapeKind::Len => fixture.value(e) as usize,
                    _ => 0,
                };
                for times in &mut covered[e.at.start..e.at.end + counted] {
                    *times += 1;
                }
            }
            let once = covered.iter().position(|&times| times != 1);
            assert_eq!(once, None, "{name}: section {} off the tape", s.id);
        }
        fixture
    }

    fn section(&self, id: u8) -> &Section {
        let mut all = self.sections.iter();
        all.find(|s| s.id == id).expect("section present")
    }

    /// The entries of one record, in decode order.
    fn entries(&self, section: u8, record: u64) -> Vec<&TapeEntry> {
        let of = |e: &&TapeEntry| e.section == section && e.record == record;
        self.tape.iter().filter(of).collect()
    }

    /// Field `index` of a record, which must be a `kind`.
    fn field(&self, section: u8, record: u64, index: usize, kind: TapeKind) -> &TapeEntry {
        let entry = self.entries(section, record)[index];
        assert_eq!(
            entry.kind, kind,
            "{}: section {section} field {index}",
            self.name
        );
        entry
    }

    /// [`Fixture::field`], which must hold `pristine`: should the layout
    /// move the field, a plant aimed at it fails here rather than pass
    /// on another field's check.
    fn field_holding(
        &self,
        section: u8,
        record: u64,
        index: usize,
        kind: TapeKind,
        pristine: u64,
    ) -> &TapeEntry {
        let entry = self.field(section, record, index, kind);
        let at = format!("{}: section {section} field {index}", self.name);
        assert_eq!(self.value(entry), pristine, "{at}");
        entry
    }

    /// The fields of a record that are a `kind` holding `pristine`, in
    /// decode order: fields found by what they must hold.
    fn holding(&self, section: u8, record: u64, kind: TapeKind, pristine: u64) -> Vec<&TapeEntry> {
        let entries = self.entries(section, record).into_iter();
        entries
            .filter(|e| e.kind == kind && self.value(e) == pristine)
            .collect()
    }

    /// What the pristine bytes hold at `e`: a varint or a length, a
    /// byte, or an `f64`'s bits.
    fn value(&self, e: &TapeEntry) -> u64 {
        let payload = &self.section(e.section).payload;
        match e.kind {
            TapeKind::Varint | TapeKind::Len => get_varint(payload, &mut e.at.start.clone()),
            TapeKind::U8 | TapeKind::Bool => payload[e.at.start].into(),
            TapeKind::F64 => u64::from_le_bytes(payload[e.at.clone()].try_into().unwrap()),
        }
    }

    /// The fixture with section `id`'s payload bytes at each range
    /// replaced, re-sealed.
    fn planted(&self, id: u8, mut edits: Vec<(Range<usize>, Vec<u8>)>) -> Vec<u8> {
        edits.sort_unstable_by_key(|(at, _)| std::cmp::Reverse(at.start));
        splice(self.bytes, self.magic, id, |s| {
            for (at, with) in edits {
                s.payload.splice(at, with);
            }
        })
    }

    fn plant(&self, id: u8, at: Range<usize>, with: &[u8]) -> Vec<u8> {
        self.planted(id, vec![(at, with.to_vec())])
    }
}

fn f64_bytes(v: f64) -> [u8; 8] {
    v.to_bits().to_le_bytes()
}

/// `Some(..)` on the wire.
fn some(parts: &[u64]) -> Vec<u8> {
    let mut out = vec![1];
    for &p in parts {
        framing::put_varint(&mut out, p);
    }
    out
}

/// Varints to plant, each with its name.
fn varints(values: &[u64]) -> Vec<(String, Vec<u8>)> {
    values.iter().map(|&x| (x.to_string(), varint(x))).collect()
}

/// `f64`s to plant, each with its name.
fn f64s(values: &[f64]) -> Vec<(String, Vec<u8>)> {
    let named = |&x: &f64| (format!("{x:?}"), f64_bytes(x).to_vec());
    values.iter().map(named).collect()
}

/// The values a generic plant puts where the pristine bytes hold a
/// `kind` of value `v`, each with its name.
fn generic_values(kind: TapeKind, v: u64) -> Vec<(String, Vec<u8>)> {
    let mut counts = vec![0, 1, v.wrapping_sub(1), v.wrapping_add(1), 1 << 32, 1 << 63];
    counts.push(u64::MAX);
    match kind {
        TapeKind::Varint | TapeKind::Len => {
            if kind == TapeKind::Len {
                counts.push(HUGE);
            }
            counts.sort_unstable();
            counts.dedup();
            let overlong = ("eleven 0x80 bytes".to_string(), vec![0x80; 11]);
            varints(&counts).into_iter().chain([overlong]).collect()
        }
        TapeKind::F64 => f64s(&[
            f64::NAN,
            0.0,
            -0.0,
            -1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            1e308,
        ]),
        // Both legal values of a flag, then two bad bytes.
        TapeKind::U8 | TapeKind::Bool => [0u8, 1, 2, 255].map(|b| (b.to_string(), vec![b])).into(),
    }
}

/// (d) Every primitive of the first and the last record of every
/// section planted with each value of its kind's set that differs from
/// the pristine bytes.
fn generic_plants(sweep: &mut Sweep, fx: &Fixture) {
    for s in &fx.sections {
        for record in (0..s.count).filter(|&r| r == 0 || r + 1 == s.count) {
            for (field, e) in fx.entries(s.id, record).into_iter().enumerate() {
                for (name, with) in generic_values(e.kind, fx.value(e)) {
                    if with[..] == s.payload[e.at.clone()] {
                        continue;
                    }
                    sweep.case(
                        &format!("section {} record {record} field {field}: {name}", s.id),
                        &fx.plant(s.id, e.at.clone(), &with),
                    );
                }
            }
        }
    }
}

/// (c) The named re-sealed edits of one snapshot fixture: what the
/// generic set cannot state — section counts, values that relate one
/// field to another, and values inserted where the file has none.
fn snapshot_plants(sweep: &mut Sweep, fx: &Fixture) {
    use TapeKind::{Bool, Len, Varint, F64, U8};
    let bytes = fx.bytes;
    let snap = Snapshot::from_bytes(bytes.to_vec()).expect("pristine");
    let cfg = snap.config().expect("pristine");

    // Section headers promising 2^60 records, and one too few.
    for s in &fx.sections {
        if s.id == SEC_CONFIG {
            continue; // the scenario blob: exactly one record, checked
        }
        let inflated = splice(bytes, SNAPSHOT_MAGIC, s.id, |s| s.count = HUGE);
        sweep.refused(
            &format!("section {} promises 2^60 records", s.id),
            &inflated,
        );
        if s.count > 0 {
            let short = splice(bytes, SNAPSHOT_MAGIC, s.id, |s| s.count -= 1);
            sweep.refused(
                &format!("section {} promises one record too few", s.id),
                &short,
            );
        }
    }

    // Header: seed, shards, now, next_msg, events_processed, event_seq.
    // Old headers still read: builds that could split one run over
    // worker threads recorded how many (`calendar_written.mlss` says 2),
    // and the count never changed a result.
    fx.field_holding(SEC_HEADER, 0, 0, Varint, snap.seed());
    let shards = fx.field(SEC_HEADER, 0, 1, Varint).at.clone();
    let now_ms = snap.time().as_millis();
    fx.field_holding(SEC_HEADER, 0, 2, Varint, now_ms);
    for n in [0, 65] {
        let resealed = fx.plant(SEC_HEADER, shards.clone(), &varint(n));
        sweep.refused(&format!("header: {n} shards"), &resealed);
    }
    let reports = [1, 2, 64].map(|n| {
        let resealed = fx.plant(SEC_HEADER, shards.clone(), &varint(n));
        sweep.runs(&format!("header: {n} shards"), &resealed);
        let snap = Snapshot::from_bytes(resealed).expect("loads");
        Engine::resume(&snap).expect("resumes").finish()
    });
    if reports[0] != reports[1] || reports[0] != reports[2] {
        sweep.failures.push(format!(
            "{}: the header's shard count changed the report",
            sweep.fixture
        ));
    }

    // Events: time, seq, tag, operands. The first record's event is
    // rewritten into each kind, naming what is not there.
    let first = fx.entries(SEC_EVENTS, 0);
    let first_event = first[2].at.start..first[first.len() - 1].at.end;
    for (name, tag, operands) in [
        ("trip start", 0u8, &[NOWHERE][..]),
        ("trip end", 1, &[NOWHERE]),
        ("generate", 2, &[NOWHERE]),
        ("transmission start", 3, &[NOWHERE]),
        ("transmission end", 4, &[NOWHERE, 0]),
        ("disruption", 5, &[NOWHERE]),
        ("generate", 2, &[1 << 40]),
    ] {
        let mut with = vec![tag];
        for &o in operands {
            framing::put_varint(&mut with, o);
        }
        sweep.case(
            &format!("event: {name} of {}", operands[0]),
            &fx.plant(SEC_EVENTS, first_event.clone(), &with),
        );
    }

    // Devices. The first one's ninth flag is its pending handover's
    // (armed here at a device that never was), its twelfth and last its
    // traffic state's (given a profile past the mix).
    let device = fx.entries(SEC_DEVICES, 0);
    let flags: Vec<_> = device.iter().filter(|e| e.kind == Bool).collect();
    assert_eq!(flags.len(), 12, "{}: a device's flags", fx.name);
    let handover = flags[8].at.start..flags[9].at.start;
    sweep.refused(
        "device: handover armed at a device that never was",
        &fx.plant(SEC_DEVICES, handover, &some(&[NOWHERE, 3])),
    );
    let traffic = flags[11].at.start..device[device.len() - 1].at.end;
    sweep.refused(
        "device: traffic profile past the mix",
        &fx.plant(SEC_DEVICES, traffic, &some(&[NOWHERE, 1, 2, 3, 4, 5, 0])),
    );
    // A queued message's id, above the run's counter. A message is four
    // varints (id, origin, instant, size), then its profile byte.
    let queued = (0..fx.section(SEC_DEVICES).count).find_map(|record| {
        let entries = fx.entries(SEC_DEVICES, record);
        let profile = entries.iter().position(|e| e.kind == U8)?;
        Some(entries[profile - 4].at.clone())
    });
    let queued = queued.expect("a queued message");
    sweep.refused(
        "device: a queued message the run never issued",
        &fx.plant(SEC_DEVICES, queued, &varint(HUGE)),
    );

    // Withdrawals: node, instant. One record appended.
    let mut record = varint(NOWHERE);
    framing::put_varint(&mut record, 1_000);
    let withdrawn = splice(bytes, SNAPSHOT_MAGIC, SEC_WITHDRAWN, |s| {
        s.count += 1;
        s.payload.extend_from_slice(&record);
    });
    sweep.refused("withdrawal: node past the timetable", &withdrawn);

    // Flight slots: generation, a flag, then the flight — seq, sender,
    // target (a flag, and an id if set), start, end, … — found as
    // `[seq, sender, target, start, end]`.
    let slots = fx.section(SEC_FLIGHT_SLOTS);
    let flights: Vec<[Range<usize>; 5]> = (0..slots.count)
        .filter_map(|record| {
            let e = fx.entries(SEC_FLIGHT_SLOTS, record);
            (fx.value(e[1]) == 1).then(|| {
                let start = 5 + fx.value(e[4]) as usize;
                let at = |i: usize| e[i].at.clone();
                [
                    at(2),
                    at(3),
                    e[4].at.start..e[start].at.start,
                    at(start),
                    at(start + 1),
                ]
            })
        })
        .collect();
    let value = |at: &Range<usize>| get_varint(&slots.payload, &mut at.start.clone());
    let slot = |at: &Range<usize>, with: &[u8]| fx.plant(SEC_FLIGHT_SLOTS, at.clone(), with);
    if let Some([_, sender, target, start, end]) = flights.first() {
        sweep.refused(
            "flight: sender that never was",
            &slot(sender, &varint(NOWHERE)),
        );
        sweep.refused(
            "flight: target that never was",
            &slot(target, &some(&[NOWHERE])),
        );
        // The flight ring's premises (`Channel::restore`), one at a
        // time. A flight pinned in the air would pin the ring's front.
        let start = value(start);
        sweep.refused(
            "flight: ends before it starts",
            &slot(end, &varint(start - 1)),
        );
        sweep.refused(
            "flight: outlasts the longest airtime",
            &slot(end, &varint(start + (1 << 40))),
        );
        // The newest flight, moved past the capture instant or given
        // the counter's next number (the streams' sixth varint, after
        // the channel's RNG).
        let [seq, _, _, start, end] = flights
            .iter()
            .max_by_key(|f| value(&f[0]))
            .expect("one flight");
        let after = varint(now_ms + 1);
        sweep.refused(
            "flight: starts after the snapshot instant",
            &fx.planted(
                SEC_FLIGHT_SLOTS,
                vec![(start.clone(), after.clone()), (end.clone(), after)],
            ),
        );
        let next_flight_seq = fx.value(fx.field(SEC_STREAMS, 0, 5, Varint));
        sweep.refused(
            "flight: sequence number never issued",
            &slot(seq, &varint(next_flight_seq)),
        );
    }
    if let [a, b, ..] = &flights[..] {
        sweep.refused(
            "flight: two share a sequence number",
            &slot(&b[0], &varint(value(&a[0]))),
        );
    }
    // Two flights launched at different instants trade numbers.
    let apart = flights.iter().enumerate().find_map(|(i, a)| {
        let later = flights[i + 1..]
            .iter()
            .find(|b| value(&b[3]) != value(&a[3]))?;
        Some((a, later))
    });
    if let Some((a, b)) = apart {
        sweep.refused(
            "flight: start decreases along the sequence",
            &fx.planted(
                SEC_FLIGHT_SLOTS,
                vec![
                    (a[0].clone(), varint(value(&b[0]))),
                    (b[0].clone(), varint(value(&a[0]))),
                ],
            ),
        );
    }

    // Free list: one index appended.
    for (name, index) in [("past the slab", NOWHERE), ("past u32", 1 << 40)] {
        let free = splice(bytes, SNAPSHOT_MAGIC, SEC_FLIGHT_FREE, |s| {
            s.count += 1;
            s.payload.extend_from_slice(&varint(index));
        });
        sweep.refused(&format!("free list: index {name}"), &free);
    }
    if fx.section(SEC_FLIGHT_FREE).count > 0 {
        let twice = splice(bytes, SNAPSHOT_MAGIC, SEC_FLIGHT_FREE, |s| {
            s.count *= 2;
            s.payload.extend_from_within(..);
        });
        sweep.refused("free list: names its slots twice", &twice);
    }
    if !flights.is_empty() {
        // Some slot is occupied; naming every slot names it too.
        let free = splice(bytes, SNAPSHOT_MAGIC, SEC_FLIGHT_FREE, |s| {
            s.count = slots.count;
            s.payload = (0..slots.count).flat_map(varint).collect();
        });
        sweep.refused("free list: names an occupied slot", &free);
    }

    // Streams: after the channel's RNG and the flight counter, the
    // active noise bursts (a count, then the ids) hold one past the
    // table. Two more RNGs and the drift sweep's due instant follow.
    let streams = fx.entries(SEC_STREAMS, 0);
    let bursts = fx.value(streams[6]) as usize;
    assert_eq!(streams.len(), 18 + bursts, "{}: the streams", fx.name);
    let noise = streams[6].at.start..streams[7 + bursts].at.start;
    let mut one_burst = varint(1);
    framing::put_varint(&mut one_burst, NOWHERE);
    sweep.refused(
        "streams: active noise burst past the table",
        &fx.plant(SEC_STREAMS, noise, &one_burst),
    );

    // Delivery: the gateway count, then each one's outage depth. An
    // outage in progress, told as a consistent lie: the collector's
    // count of gateways down still holds, the timeline took another one
    // down. And told twice: the first queued event rewritten into the
    // recovery that is queued already, which then finds no outage open.
    let depths: Vec<_> = fx.entries(SEC_DELIVERY, 0)[1..].to_vec();
    if let Some(down) = depths.iter().position(|&e| fx.value(e) > 0) {
        let up = depths
            .iter()
            .position(|&e| fx.value(e) == 0)
            .expect("one up");
        let moved = fx.planted(
            SEC_DELIVERY,
            vec![
                (depths[down].at.clone(), varint(0)),
                (depths[up].at.clone(), varint(fx.value(depths[down]))),
            ],
        );
        sweep.refused("delivery: an outage moved to another gateway", &moved);
        let recovery = cfg
            .disruptions
            .compile(cfg.horizon)
            .iter()
            .position(|&(t, ev)| {
                let gateway = down as u32;
                t > snap.time() && ev == DisruptionEvent::GatewayUp { gateway }
            })
            .expect("the fixtures' outages end before the horizon");
        let mut twice = vec![5];
        framing::put_varint(&mut twice, recovery as u64);
        sweep.runs(
            "event: a recovery filed twice",
            &fx.plant(SEC_EVENTS, first_event, &twice),
        );
    }

    // Fields a decoder holds to the scenario, to a constant or to
    // another field, tags and counts, each planted with values it must
    // refuse: the generic plants reach two fixtures, with no verdict.
    // The first device's constants are found by what they must hold.
    let generated = fx.value(fx.field(SEC_COLLECTOR, 0, 1, Varint));
    let next_msg = fx.field_holding(SEC_HEADER, 0, 3, Varint, generated);
    let tag = fx.field(SEC_EVENTS, 0, 2, U8);
    let id = fx.field_holding(SEC_DEVICES, 0, 0, Varint, 0);
    let constant = |kind, pristine: u64| fx.holding(SEC_DEVICES, 0, kind, pristine)[0];
    let capacity = constant(Varint, cfg.queue_capacity as u64);
    // Then the count dropped and the count held.
    let held = device.iter().position(|&e| e == capacity);
    let held = device[held.expect("capacity") + 2];
    let duty = constant(F64, cfg.duty_cycle.to_bits());
    let alpha = constant(F64, cfg.alpha.to_bits());
    let attempts = constant(Varint, cfg.max_attempts.into());
    let frame_bits = fx.holding(SEC_DEVICES, 0, F64, PACKET_BITS.to_bits());
    let [rca_bits, ca_bits] = frame_bits[..] else {
        panic!("{}: a device's two frame sizes", fx.name);
    };
    // After the CA-ETX frame size: two `Welford`s (a count, four
    // `f64`s), the last contact (a flag, and an instant if set), then
    // the donor count.
    let ca_at = device.iter().position(|&e| e == ca_bits).expect("CA-ETX");
    let last_contact = fx.field(SEC_DEVICES, 0, ca_at + 11, Bool);
    let donors = device[ca_at + 12 + fx.value(last_contact) as usize];
    let due = streams[17 + bursts];
    let gateways = cfg.num_gateways as u64;
    let gateways = fx.field_holding(SEC_DELIVERY, 0, 0, Varint, gateways);
    let up = 1 - fx.value(depths[0]).min(1);
    let bucket = cfg.series_bucket.as_millis();
    let bucket = fx.field_holding(SEC_COLLECTOR, 0, 16, Varint, bucket);
    let [label, buckets] = [(0, Len), (18, Varint)].map(|(i, k)| fx.field(SEC_COLLECTOR, 0, i, k));
    let (zero, huge) = (varints(&[0]), varints(&[HUGE]));
    let odd = f64s(&[f64::NAN, 0.0, 1.5, -1.0]);
    let frame = f64s(&[f64::NAN, 0.0, -1.0, 2_000.0]);
    let mut pinned = vec![
        ("header: message counter", next_msg, zero.clone()),
        ("event: tag", tag, varints(&[9])),
        ("device: id", id, varints(&[NOWHERE, 1 << 40])),
        ("device: queue capacity", capacity, zero.clone()),
        ("device: queued messages", held, huge.clone()),
        ("device: duty cycle", duty, odd.clone()),
        ("device: EWMA alpha", alpha, odd),
        ("device: RCA-ETX frame size", rca_bits, frame.clone()),
        ("device: CA-ETX frame size", ca_bits, frame),
        ("device: max attempts", attempts, varints(&[0, 1 << 40])),
        ("device: donors", donors, huge.clone()),
        ("streams: active noise bursts", streams[6], huge.clone()),
        ("streams: drift sweep due at", due, huge.clone()),
        ("delivery: gateways", gateways, varints(&[0, HUGE])),
        ("delivery: first outage depth", depths[0], varints(&[up])),
        ("collector: scheme label length", label, huge.clone()),
        ("collector: series bucket", bucket, zero),
        ("collector: series buckets", buckets, varints(&[0, HUGE])),
    ];
    // The first occupied flight slot: its generation and, after the
    // flight's start, end and position, its frame's sender (the
    // flight's) and message count.
    let occupied = (0..slots.count).map(|record| fx.entries(SEC_FLIGHT_SLOTS, record));
    if let Some(e) = occupied.into_iter().find(|e| fx.value(e[1]) == 1) {
        let start = 5 + fx.value(e[4]) as usize;
        assert_eq!(fx.value(e[start + 4]), fx.value(e[3]), "{}", fx.name);
        pinned.push(("flight: generation", e[0], varints(&[1 << 40])));
        pinned.push(("flight: message count", e[start + 5], huge));
    }
    for (name, e, values) in pinned {
        for (value, with) in values {
            let planted = fx.plant(e.section, e.at.clone(), &with);
            sweep.refused(&format!("{name} {value}"), &planted);
        }
    }
}

/// The scenario the `.mlsc` leg is written from: every optional section
/// present, every arrival process and payload model in use.
fn rich_scenario() -> Vec<u8> {
    let cfg = Scenario::urban()
        .smoke()
        .scheme(Scheme::Robc)
        .gateways(12)
        .placement(GatewayPlacement::Random)
        .profile(TrafficProfile::telemetry())
        .profile(TrafficProfile::tracking())
        .profile(TrafficProfile::passenger_counts())
        .profile(TrafficProfile::alerts())
        .gateway_outage(2, SimDuration::from_mins(10), SimDuration::from_mins(20))
        .gateway_outage_to_horizon(3, SimDuration::from_mins(40))
        .withdraw_buses(SimDuration::from_mins(30), 0.2)
        .noise_burst(
            mlora_geo::Point::new(4_000.0, 4_000.0),
            2_000.0,
            SimDuration::from_mins(15),
            SimDuration::from_mins(30),
            9.0,
        )
        .build()
        .expect("valid scenario");
    let mut bytes = Vec::new();
    cfg.to_writer(&mut bytes).expect("serialize");
    bytes
}

/// (c) The re-sealed edits of the scenario file.
fn scenario_plants(sweep: &mut Sweep, fx: &Fixture) {
    use TapeKind::{Bool, Len, Varint, F64, U8};
    let bytes = fx.bytes;
    for s in &fx.sections {
        let inflated = splice(bytes, MAGIC, s.id, |s| s.count = HUGE);
        sweep.refused(
            &format!("section {} promises 2^60 records", s.id),
            &inflated,
        );
    }

    // NETWORK_CONFIG: area side, routes, waypoints per route, shortest
    // route, slowest and fastest speed, buses, fewest and most legs,
    // horizon, centre bias, 24 hourly levels. The area also sizes the
    // engine's neighbour cells, as a prebuilt world's header does
    // (`world_plants`); a vast one that the generator can still build
    // runs. Then each rule of `BusNetworkConfig::validate`, broken once.
    let net = |index: usize, kind: TapeKind| fx.field(section::NETWORK_CONFIG, 0, index, kind);
    let area = net(0, F64);
    let plant = |e: &TapeEntry, with: &[u8]| fx.plant(e.section, e.at.clone(), with);
    sweep.runs("network: a 10 000 km square", &plant(area, &f64_bytes(1e7)));
    let side = f64::from_bits(fx.value(area));
    for (name, at, with) in [
        ("area 0", area, f64_bytes(0.0).to_vec()),
        ("a 1e300 m square", area, f64_bytes(1e300).to_vec()),
        ("no routes", net(1, Varint), varint(0)),
        ("2^40 routes", net(1, Varint), varint(1 << 40)),
        ("2^40 waypoints per route", net(2, Varint), varint(1 << 40)),
        (
            "shortest route twice the area side",
            net(3, F64),
            f64_bytes(2.0 * side).to_vec(),
        ),
        (
            "shortest route -inf",
            net(3, F64),
            f64_bytes(f64::NEG_INFINITY).to_vec(),
        ),
        ("slowest speed 0", net(4, F64), f64_bytes(0.0).to_vec()),
        (
            "fastest speed below the slowest",
            net(5, F64),
            f64_bytes(0.5).to_vec(),
        ),
        ("no buses", net(6, Varint), varint(0)),
        ("2^40 buses", net(6, Varint), varint(1 << 40)),
        ("fewest legs 0", net(7, Varint), varint(0)),
        ("most legs below the fewest", net(8, Varint), varint(0)),
        (
            "most legs u32::MAX",
            net(8, Varint),
            varint(u32::MAX.into()),
        ),
        ("centre bias 2", net(10, F64), f64_bytes(2.0).to_vec()),
    ] {
        sweep.refused(&format!("network: {name}"), &plant(at, &with));
    }

    // SIM_PARAMS: environment, scheme, alpha, device class, generation
    // interval, queue capacity, duty cycle, max attempts, SF, bandwidth,
    // coding rate, preamble, two flags, tx power, path loss ×4,
    // capacity model ×3, horizon, series bucket.
    let par = |index: usize, kind: TapeKind| fx.field(section::SIM_PARAMS, 0, index, kind);
    for (name, index) in [
        ("environment", 0),
        ("scheme", 1),
        ("device class", 3),
        ("bandwidth", 9),
        ("coding rate", 10),
    ] {
        sweep.refused(
            &format!("params: unknown {name} tag"),
            &plant(par(index, U8), &[9]),
        );
    }
    sweep.refused("params: SF13", &plant(par(8, U8), &[13]));
    sweep.refused("params: SF6", &plant(par(8, U8), &[6]));
    sweep.refused("params: a boolean of 2", &plant(par(12, Bool), &[2]));
    let nan = f64_bytes(f64::NAN);
    sweep.refused("params: alpha NaN", &plant(par(2, F64), &nan));
    sweep.refused(
        "params: queue capacity 0",
        &plant(par(5, Varint), &varint(0)),
    );
    sweep.refused("params: duty cycle 0", &plant(par(6, F64), &f64_bytes(0.0)));
    sweep.refused("params: max attempts 0", &plant(par(7, Varint), &varint(0)));
    sweep.refused(
        "params: max attempts past u32",
        &plant(par(7, Varint), &varint(1 << 40)),
    );
    sweep.refused(
        "params: preamble past u32",
        &plant(par(11, Varint), &varint(1 << 40)),
    );
    sweep.refused(
        "params: capacity model floor above its ceiling",
        &plant(par(19, F64), &f64_bytes(1e9)),
    );

    // GATEWAYS: count, placement, range.
    let gw = |index: usize, kind: TapeKind| fx.field(section::GATEWAYS, 0, index, kind);
    sweep.refused("gateways: none", &plant(gw(0, Varint), &varint(0)));
    sweep.refused(
        "gateways: a billion",
        &plant(gw(0, Varint), &varint(1_000_000_000)),
    );
    sweep.refused("gateways: unknown placement tag", &plant(gw(1, U8), &[9]));
    sweep.refused("gateways: range NaN", &plant(gw(2, F64), &nan));

    // What the plants above aim at, as the scenario has it: should the
    // layout move one of these fields, the sweep fails here.
    let cfg = SimConfig::from_reader(bytes).expect("pristine");
    let n = &cfg.network;
    for (at, pristine) in [
        (net(0, F64), n.area_side_m.to_bits()),
        (net(1, Varint), n.num_routes as u64),
        (net(2, Varint), n.waypoints_per_route as u64),
        (net(3, F64), n.min_route_length_m.to_bits()),
        (net(4, F64), n.min_speed_mps.to_bits()),
        (net(5, F64), n.max_speed_mps.to_bits()),
        (net(6, Varint), n.max_active_buses as u64),
        (net(7, Varint), n.min_legs.into()),
        (net(8, Varint), n.max_legs.into()),
        (net(10, F64), n.center_bias.to_bits()),
        (par(2, F64), cfg.alpha.to_bits()),
        (par(5, Varint), cfg.queue_capacity as u64),
        (par(6, F64), cfg.duty_cycle.to_bits()),
        (par(7, Varint), cfg.max_attempts.into()),
        (par(11, Varint), cfg.phy.preamble_symbols.into()),
        (par(19, F64), cfg.capacity.gamma_min_dbm().to_bits()),
        (gw(0, Varint), cfg.num_gateways as u64),
        (gw(2, F64), cfg.gateway_range_m.to_bits()),
    ] {
        assert_eq!(fx.value(at), pristine, "{}: {at:?}", fx.name);
    }

    // TRAFFIC, first profile: name, arrival tag + operands, payload tag
    // + operands, priority, weight. `telemetry` is jittered (interval,
    // jitter) with a fixed payload.
    let tra = |index: usize, kind: TapeKind| fx.field(section::TRAFFIC, 0, index, kind);
    let arrivals = tra(1, U8);
    assert_eq!(fx.value(arrivals), 1, "telemetry is jittered");
    sweep.refused(
        "traffic: 2^60-byte profile name",
        &plant(tra(0, Len), &varint(HUGE)),
    );
    sweep.refused(
        "traffic: unknown arrival process tag",
        &plant(arrivals, &[9]),
    );
    sweep.refused(
        "traffic: unknown payload model tag",
        &plant(tra(4, U8), &[9]),
    );
    sweep.refused("traffic: unknown priority tag", &plant(tra(6, U8), &[3]));
    // A diurnal curve with a level of 2: tag 3, base interval, 24 levels.
    let mut diurnal = vec![3];
    framing::put_varint(&mut diurnal, 60_000);
    for _ in 0..24 {
        diurnal.extend_from_slice(&f64_bytes(2.0));
    }
    let jittered = arrivals.at.start..tra(3, F64).at.end; // tag, interval, jitter
    sweep.refused(
        "traffic: diurnal level outside [0, 1]",
        &fx.plant(section::TRAFFIC, jittered, &diurnal),
    );

    // DISRUPTIONS, first record: an outage (tag 0: gateway, start,
    // Option<duration>).
    let dis = |index: usize, kind: TapeKind| fx.field(section::DISRUPTIONS, 0, index, kind);
    sweep.refused("disruptions: unknown tag", &plant(dis(0, U8), &[9]));
    sweep.refused(
        "disruptions: outage of a gateway that is not there",
        &plant(dis(1, Varint), &varint(NOWHERE)),
    );
}

/// `tests/fixtures/metro_world.mlsc`: the smoke preset on a small
/// prebuilt metro world (6 km square, four radials, two rings, 30 buses,
/// one hour), world seed 5.
const METRO_WORLD: &[u8] = include_bytes!("../../../tests/fixtures/metro_world.mlsc");

/// The metro world's scenario as a snapshot taken half-way through its
/// run.
fn metro_snapshot() -> Vec<u8> {
    let cfg = SimConfig::from_reader(METRO_WORLD).expect("the fixture loads");
    let mut engine = Engine::new(cfg, 5);
    engine.run_until(SimTime::from_secs(1_800));
    engine.snapshot().expect("snapshot").as_bytes().to_vec()
}

/// (c) The re-sealed edits of a prebuilt world's own records: its
/// header, the first route and the first trip, and the order and
/// presence of its sections.
fn world_record_plants(sweep: &mut Sweep, fx: &Fixture) {
    use TapeKind::{Varint, F64};
    let bytes = fx.bytes;
    let plant = |e: &TapeEntry, with: &[u8]| fx.plant(e.section, e.at.clone(), with);
    for id in [section::WORLD, section::ROUTES, section::FLEET] {
        let inflated = splice(bytes, MAGIC, id, |s| s.count = HUGE);
        sweep.refused(&format!("section {id} promises 2^60 records"), &inflated);
    }

    // WORLD: min x, min y, max x, max y, horizon.
    let corner = |index: usize| fx.field(section::WORLD, 0, index, F64);
    let nan = f64_bytes(f64::NAN);
    sweep.refused("world: a NaN corner", &plant(corner(0), &nan));
    sweep.refused(
        "world: max x below min x",
        &plant(corner(2), &f64_bytes(-1.0)),
    );

    // ROUTES, first record: speed, point count, points.
    let route = fx.entries(section::ROUTES, 0);
    let speed = fx.field(section::ROUTES, 0, 0, F64);
    // The smallest positive speed: a trip along the route would take
    // infinitely long, which `Trip::new` asserts against.
    for (name, value) in [("0", 0.0), ("NaN", f64::NAN), ("5e-324", f64::from_bits(1))] {
        sweep.refused(
            &format!("route: speed {name}"),
            &plant(speed, &f64_bytes(value)),
        );
    }
    let points = fx.value(fx.field(section::ROUTES, 0, 1, Varint)) as usize;
    let first_x = fx.field(section::ROUTES, 0, 2, F64);
    sweep.refused("route: a NaN point", &plant(first_x, &nan));
    let first_point = first_x.at.start..route[3].at.end;
    let path = route[1].at.start..route[route.len() - 1].at.end;
    let routes = &fx.section(section::ROUTES).payload;
    let repeated = |n: usize| {
        let mut with = varint(n as u64);
        for _ in 0..n {
            with.extend_from_slice(&routes[first_point.clone()]);
        }
        with
    };
    let route = |with: &[u8]| fx.plant(section::ROUTES, path.clone(), with);
    sweep.refused("route: one point", &route(&repeated(1)));
    // `Route::new` asserts a positive length.
    sweep.refused(
        "route: every point the same, a path of length 0",
        &route(&repeated(points)),
    );
    let mut vast = varint(2);
    for x in [-1e308, 1e308] {
        vast.extend_from_slice(&f64_bytes(x));
        vast.extend_from_slice(&f64_bytes(0.0));
    }
    sweep.refused(
        "route: two finite points 2e308 apart, a path of infinite length",
        &route(&vast),
    );
    sweep.refused(
        "route: 2^60 points",
        &plant(fx.field(section::ROUTES, 0, 1, Varint), &varint(HUGE)),
    );

    // FLEET, first record: route, departure, legs, duration.
    let trip = |index: usize| fx.field(section::FLEET, 0, index, Varint);
    let schedule = fx.value(trip(3));
    sweep.refused(
        "trip: a route that is not there",
        &plant(trip(0), &varint(NOWHERE)),
    );
    sweep.refused(
        "trip: departs after the next one",
        &plant(trip(1), &varint(NOWHERE)),
    );
    sweep.refused("trip: 0 legs", &plant(trip(2), &varint(0)));
    sweep.refused("trip: legs past u32", &plant(trip(2), &varint(1 << 40)));
    sweep.refused(
        "trip: longer than its schedule",
        &plant(trip(3), &varint(schedule + 1)),
    );
    // A shorter one is a withdrawal.
    sweep.runs(
        "trip: withdrawn a second early",
        &plant(trip(3), &varint(schedule - 1_000)),
    );

    // The fleet names routes, so it must come after them.
    let mut reordered = fx.sections.clone();
    let at = |id: u8| reordered.iter().position(|s| s.id == id).expect("present");
    let (routes_at, fleet_at) = (at(section::ROUTES), at(section::FLEET));
    reordered.swap(routes_at, fleet_at);
    sweep.refused(
        "sections: fleet before routes",
        &framing::seal(MAGIC, &reordered),
    );
    let no_routes = splice(bytes, MAGIC, section::ROUTES, |s| {
        s.count = 0;
        s.payload.clear();
    });
    sweep.refused("sections: routes emptied", &no_routes);
}

/// (c) World headers claiming a vast area over the same routes, in the
/// scenario `fx`, then framed by `wrap` into the file under test. The
/// engine's neighbour cells are sized from that area, so each must be
/// refused or run within the allocation budget, never abort.
fn world_plants(sweep: &mut Sweep, fx: &Fixture, wrap: impl Fn(Vec<u8>) -> Vec<u8>) {
    // WORLD: min x, min y, max x, max y, horizon.
    let corner = |index: usize| fx.field(section::WORLD, 0, index, TapeKind::F64).at.clone();
    for (name, min, max) in [
        ("a 10 000 km square", 0.0, 1e7),
        ("a 1e300 m square", 0.0, 1e300),
        ("corners at ±1e308, an infinite width", -1e308, 1e308),
    ] {
        let corners = [(0, min), (1, min), (2, max), (3, max)];
        let edits = corners.map(|(i, v)| (corner(i), f64_bytes(v).to_vec()));
        sweep.case(
            &format!("world: {name}"),
            &wrap(fx.planted(section::WORLD, edits.into())),
        );
    }
}

/// A snapshot's embedded scenario file: the blob of its one config
/// record.
fn snapshot_scenario(bytes: &[u8]) -> Vec<u8> {
    let config = sections(bytes)
        .into_iter()
        .find(|s| s.id == SEC_CONFIG)
        .expect("config section");
    let mut pos = 0;
    let len = get_varint(&config.payload, &mut pos) as usize;
    config.payload[pos..pos + len].to_vec()
}

/// `bytes` with its embedded scenario file replaced by `scenario`.
fn with_scenario(bytes: &[u8], scenario: &[u8]) -> Vec<u8> {
    splice(bytes, SNAPSHOT_MAGIC, SEC_CONFIG, |s| {
        s.payload = varint(scenario.len() as u64);
        s.payload.extend_from_slice(scenario);
    })
}

#[test]
fn hostile_files_end_in_typed_errors() {
    let eager: &[u8] = include_bytes!("../../../tests/fixtures/eager_seeding.mlss");
    let calendar: &[u8] = include_bytes!("../../../tests/fixtures/calendar_written.mlss");
    let framed: &[u8] = include_bytes!("../../../tests/fixtures/framed_once.mlss");
    let scenario = rich_scenario();
    let metro_snapshot = metro_snapshot();
    let embedded = snapshot_scenario(&metro_snapshot);

    // The tapes first, each checked to cover its fixture.
    let framed = Fixture::snapshot("framed_once.mlss", framed);
    let eager = Fixture::snapshot("eager_seeding.mlss", eager);
    let calendar = Fixture::snapshot("calendar_written.mlss", calendar);
    let scenario = Fixture::scenario("rich.mlsc", &scenario);
    let metro = Fixture::scenario("metro.mlsc", METRO_WORLD);
    let metro_snapshot = Fixture::snapshot("metro.mlss", &metro_snapshot);
    let embedded = Fixture::scenario("metro.mlss's scenario", &embedded);

    // Keep the expected panics of a failing build off the terminal; the
    // failure list names them.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut failures = Vec::new();

    // The smallest snapshot takes every offset and the generic plants;
    // the others a stride coprime to the block and record sizes.
    for (fx, stride, generic) in [
        (&framed, 1, true),
        (&eager, 7, false),
        (&calendar, 11, false),
    ] {
        let mut sweep = Sweep::new(fx.name, fx.bytes, load_snapshot);
        sweep.truncations(fx.bytes, stride);
        sweep.bit_flips(fx.bytes, stride);
        snapshot_plants(&mut sweep, fx);
        if generic {
            generic_plants(&mut sweep, fx);
        }
        sweep.report(&mut failures);
    }

    let mut sweep = Sweep::new(scenario.name, scenario.bytes, load_scenario);
    sweep.truncations(scenario.bytes, 1);
    sweep.bit_flips(scenario.bytes, 1);
    scenario_plants(&mut sweep, &scenario);
    sweep.report(&mut failures);

    let mut sweep = Sweep::new(metro.name, metro.bytes, load_scenario);
    sweep.truncations(metro.bytes, 1);
    sweep.bit_flips(metro.bytes, 1);
    world_plants(&mut sweep, &metro, |edited| edited);
    world_record_plants(&mut sweep, &metro);
    sweep.report(&mut failures);

    let mut sweep = Sweep::new(metro_snapshot.name, metro_snapshot.bytes, load_snapshot);
    world_plants(&mut sweep, &embedded, |edited| {
        with_scenario(metro_snapshot.bytes, &edited)
    });
    generic_plants(&mut sweep, &metro_snapshot);
    sweep.report(&mut failures);

    std::panic::set_hook(hook);
    assert!(
        failures.is_empty(),
        "{} hostile cases failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
