//! Hostile-input sweep over the two byte-level readers: `.mlss` engine
//! snapshots ([`Snapshot::from_bytes`] + [`Engine::resume`]) and `.mlsc`
//! scenario files ([`SimConfig::from_reader`]).
//!
//! Seeded from the three checked-in snapshots, one scenario file
//! written from a rich configuration and the checked-in small prebuilt
//! metro world (as a scenario file and as a snapshot), in three
//! families:
//!
//! * **truncation** — at every offset of the smallest snapshot and of
//!   both scenario files, on a stride of the other snapshots;
//! * **bit flips, not re-sealed** — the container's checksums and
//!   framing must catch these;
//! * **re-sealed edits** — one section rewritten and framed again with
//!   valid checksums (`support/framing.rs`), so the value reaches the
//!   record codecs: inflated counts and lengths, ids that name nothing,
//!   unknown tags, and every value a constructor downstream would
//!   `assert!` on.
//!
//! Every case must end in a typed `Err`, or in an `Ok` that then runs to
//! its horizon; none may panic, and none may allocate more than an
//! honest load of the same fixture plus a bound that does not depend on
//! what the file *claims* ([`RESERVE_SLACK`] — the decoders reserve at
//! most 16 MiB ahead of the data — and a small multiple of the file's
//! length).
//!
//! The walkers below know the frozen version-1 record layouts field by
//! field; that is deliberate — they are the second, independent
//! statement of the format the codecs are checked against.
//!
//! One `#[test]`, phases in sequence: the allocation counter is
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use mlora_core::Scheme;
use mlora_scenario_io::{section, ScenarioIoError, MAGIC};
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
}

impl Sweep {
    fn new(fixture: &'static str, pristine: &[u8], load: fn(&[u8]) -> Outcome) -> Self {
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
            "{}: {} cases, {} loaded and ran, {} failed",
            self.fixture,
            self.cases,
            self.ran,
            self.failures.len()
        );
        failures.extend(self.failures);
    }
}

/// A cursor over one section's payload, for finding fields.
struct Walk<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Walk<'_> {
    /// Steps over a varint, returning where it sits.
    fn varint(&mut self) -> Range<usize> {
        let start = self.pos;
        get_varint(self.bytes, &mut self.pos);
        start..self.pos
    }

    fn varints(&mut self, n: usize) {
        for _ in 0..n {
            self.varint();
        }
    }

    fn value(&mut self) -> u64 {
        get_varint(self.bytes, &mut self.pos)
    }

    fn byte(&mut self) -> Range<usize> {
        self.pos += 1;
        self.pos - 1..self.pos
    }

    fn f64(&mut self) -> Range<usize> {
        self.pos += 8;
        self.pos - 8..self.pos
    }

    fn f64s(&mut self, n: usize) {
        self.pos += 8 * n;
    }

    /// Steps over a presence flag, returning where it sits and whether
    /// a value follows.
    fn flag(&mut self) -> (Range<usize>, bool) {
        let at = self.byte();
        (at.clone(), self.bytes[at.start] == 1)
    }

    /// Steps over `Option<T>`, `some` walking the `T`.
    fn option(&mut self, some: impl FnOnce(&mut Self)) -> Range<usize> {
        let start = self.pos;
        if self.flag().1 {
            some(self);
        }
        start..self.pos
    }

    fn string(&mut self) -> Range<usize> {
        let at = self.varint();
        let mut pos = at.start;
        self.pos += get_varint(self.bytes, &mut pos) as usize;
        at
    }

    /// One `AppMessage`: id, origin, created, payload size, profile,
    /// priority.
    fn message(&mut self) {
        self.varints(4);
        self.pos += 2;
    }

    /// A counted run of messages; returns where the count sits and its
    /// value.
    fn messages(&mut self) -> (Range<usize>, u64) {
        let start = self.pos;
        let n = self.value();
        let at = start..self.pos;
        for _ in 0..n {
            self.message();
        }
        (at, n)
    }

    /// Where the varint after `at` sits.
    fn varint_after(&self, at: &Range<usize>) -> Range<usize> {
        let mut pos = at.end;
        get_varint(self.bytes, &mut pos);
        at.end..pos
    }

    /// A `Welford`: count, mean, m2, min, max.
    fn welford(&mut self) {
        self.varint();
        self.f64s(4);
    }

    /// An RNG stream: seed and four state words.
    fn rng(&mut self) {
        self.varints(5);
    }
}

/// Where the fields of one device record sit that a constructor or the
/// event loop trusts.
struct DeviceFields {
    id: Range<usize>,
    capacity: Range<usize>,
    queue_len: Range<usize>,
    queued: u64,
    duty_cycle: Range<usize>,
    max_attempts: Range<usize>,
    alpha: Range<usize>,
    rca_bits: Range<usize>,
    ca_bits: Range<usize>,
    donors: Range<usize>,
    pending_handover: Range<usize>,
    traffic: Range<usize>,
}

/// Where the fields of one occupied flight slot sit.
struct FlightFields {
    generation: Range<usize>,
    seq: Range<usize>,
    sender: Range<usize>,
    target: Range<usize>,
    start: Range<usize>,
    end: Range<usize>,
    messages: Range<usize>,
}

/// Walks the devices section in the frozen AoS-era field order.
fn device_fields(section: &Section) -> Vec<DeviceFields> {
    let mut w = Walk {
        bytes: &section.payload,
        pos: 0,
    };
    (0..section.count)
        .map(|_| {
            let id = w.varint();
            w.byte(); // active
            w.varint(); // activated_at
            w.option(|w| w.varints(1)); // retired_at
            let capacity = w.varint();
            w.varint(); // dropped
            let (queue_len, queued) = w.messages();
            let duty_cycle = w.f64();
            w.varints(3); // next_allowed, total_airtime, tx_count
            let max_attempts = w.varint();
            w.varint(); // attempts
            w.option(|w| {
                w.varint();
                w.f64();
            }); // last_success
            w.byte(); // in_contact
            w.varints(2); // successes, failures
            let alpha = w.f64();
            w.option(|w| w.f64s(1)); // ewma value
            let rca_bits = w.f64();
            let ca_bits = w.f64();
            w.welford();
            w.welford();
            w.option(|w| w.varints(1)); // last_contact
            let donors_at = w.pos;
            let donors = w.value();
            let donors_range = donors_at..w.pos;
            w.varints(donors as usize);
            w.pos += 2; // transmitting, tx_scheduled
            let pending_handover = w.option(|w| w.varints(2));
            w.option(|w| w.varints(1)); // last_tx_end
            w.option(|w| w.varints(2)); // tx_window
            w.f64s(1); // gamma
            w.varints(3); // tx_time, rx_window_time, frames_sent
            w.f64s(2); // grid_pos
            let traffic = w.option(|w| {
                w.varint();
                w.rng();
                w.varint();
            });
            DeviceFields {
                id,
                capacity,
                queue_len,
                queued,
                duty_cycle,
                max_attempts,
                alpha,
                rca_bits,
                ca_bits,
                donors: donors_range,
                pending_handover,
                traffic,
            }
        })
        .collect()
}

/// `bytes` with `section`'s payload bytes at `at` replaced by `with`.
fn replaced(bytes: &[u8], magic: [u8; 4], section: u8, at: Range<usize>, with: &[u8]) -> Vec<u8> {
    splice(bytes, magic, section, |s| {
        s.payload.splice(at, with.iter().copied());
    })
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

/// (c) The re-sealed edits of one snapshot fixture.
fn snapshot_plants(sweep: &mut Sweep, bytes: &[u8]) {
    let all = sections(bytes);
    let of = |id: u8| all.iter().find(|s| s.id == id).expect("section present");
    let plant =
        |id: u8, at: Range<usize>, with: &[u8]| replaced(bytes, SNAPSHOT_MAGIC, id, at, with);

    // The walkers agree with the writer: re-sealing changes nothing.
    assert_eq!(
        framing::seal(SNAPSHOT_MAGIC, &all),
        bytes,
        "{}",
        sweep.fixture
    );

    // Section headers promising 2^60 records, and one too few.
    for s in &all {
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
    let mut w = Walk {
        bytes: &of(SEC_HEADER).payload,
        pos: 0,
    };
    w.varint();
    let shards = w.varint();
    let now = w.varint();
    let now_ms = get_varint(&of(SEC_HEADER).payload, &mut now.start.clone());
    let next_msg = w.varint();
    // The streams section: the channel RNG, then the flight counter.
    let mut streams = Walk {
        bytes: &of(SEC_STREAMS).payload,
        pos: 0,
    };
    streams.rng();
    let next_flight_seq = streams.value();
    sweep.refused(
        "header: zero shards",
        &plant(SEC_HEADER, shards.clone(), &varint(0)),
    );
    sweep.refused(
        "header: 65 shards",
        &plant(SEC_HEADER, shards.clone(), &varint(65)),
    );
    // Old headers still read: builds that could split one run over
    // worker threads recorded how many (`calendar_written.mlss` says 2),
    // and the count never changed a result.
    let reports = [1, 2, 64].map(|n| {
        let resealed = plant(SEC_HEADER, shards.clone(), &varint(n));
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
    sweep.case(
        "header: captured at 2^62 ms",
        &plant(SEC_HEADER, now, &varint(1 << 62)),
    );
    sweep.refused(
        "header: message counter wound back to 0",
        &plant(SEC_HEADER, next_msg, &varint(0)),
    );

    // Events: time, seq, tag, operands. The first record is rewritten.
    let events = of(SEC_EVENTS);
    let mut w = Walk {
        bytes: &events.payload,
        pos: 0,
    };
    w.varints(2);
    let tag = w.byte();
    let first_tag = events.payload[tag.start];
    w.varints(if first_tag == 4 { 2 } else { 1 });
    let first_event = tag.start..w.pos;
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
            &plant(SEC_EVENTS, first_event.clone(), &with),
        );
    }
    sweep.refused("event: unknown tag", &plant(SEC_EVENTS, tag, &[9]));

    // Devices.
    let devices = device_fields(of(SEC_DEVICES));
    let first = &devices[0];
    let dev = |at: &Range<usize>, with: &[u8]| plant(SEC_DEVICES, at.clone(), with);
    sweep.refused(
        "device: id of an undeparted trip",
        &dev(&first.id, &varint(NOWHERE)),
    );
    sweep.refused("device: id past u32", &dev(&first.id, &varint(1 << 40)));
    sweep.refused(
        "device: queue capacity 0",
        &dev(&first.capacity, &varint(0)),
    );
    let fullest = devices.iter().max_by_key(|d| d.queued).expect("devices");
    assert!(
        fullest.queued >= 2,
        "{}: no device holds two messages",
        sweep.fixture
    );
    sweep.refused(
        "device: more messages than capacity",
        &dev(&fullest.capacity, &varint(fullest.queued - 1)),
    );
    let first_id = Walk {
        bytes: &of(SEC_DEVICES).payload,
        pos: 0,
    }
    .varint_after(&fullest.queue_len);
    sweep.refused(
        "device: a queued message the run never issued",
        &dev(&first_id, &varint(HUGE)),
    );
    sweep.refused(
        "device: 2^60 queued messages",
        &dev(&first.queue_len, &varint(HUGE)),
    );
    for (name, value) in [("NaN", f64::NAN), ("0", 0.0), ("1.5", 1.5), ("-1", -1.0)] {
        sweep.refused(
            &format!("device: duty cycle {name}"),
            &dev(&first.duty_cycle, &f64_bytes(value)),
        );
        sweep.refused(
            &format!("device: EWMA alpha {name}"),
            &dev(&first.alpha, &f64_bytes(value)),
        );
    }
    // The estimators' frame size is a constant, not the scenario's: a
    // plausible 2 000 would resume silently under another model.
    for (name, value) in [
        ("NaN", f64::NAN),
        ("0", 0.0),
        ("-1", -1.0),
        ("2000", 2_000.0),
    ] {
        sweep.refused(
            &format!("device: RCA-ETX frame size {name}"),
            &dev(&first.rca_bits, &f64_bytes(value)),
        );
        sweep.refused(
            &format!("device: CA-ETX frame size {name}"),
            &dev(&first.ca_bits, &f64_bytes(value)),
        );
    }
    sweep.refused(
        "device: max attempts 0",
        &dev(&first.max_attempts, &varint(0)),
    );
    sweep.refused(
        "device: max attempts past u32",
        &dev(&first.max_attempts, &varint(1 << 40)),
    );
    sweep.refused("device: 2^60 donors", &dev(&first.donors, &varint(HUGE)));
    sweep.case(
        "device: handover armed at a device that never was",
        &dev(&first.pending_handover, &some(&[NOWHERE, 3])),
    );
    sweep.case(
        "device: traffic profile past the mix",
        &dev(&first.traffic, &some(&[NOWHERE, 1, 2, 3, 4, 5, 0])),
    );

    // Withdrawals: node, instant. One record appended.
    let mut record = varint(NOWHERE);
    framing::put_varint(&mut record, 1_000);
    let withdrawn = splice(bytes, SNAPSHOT_MAGIC, SEC_WITHDRAWN, |s| {
        s.count += 1;
        s.payload.extend_from_slice(&record);
    });
    sweep.refused("withdrawal: node past the timetable", &withdrawn);

    // Flight slots: generation, then Option<flight>: seq, sender,
    // Option<target>, start, end, pos, frame sender, messages, metric,
    // queue length.
    let slots = of(SEC_FLIGHT_SLOTS);
    let mut w = Walk {
        bytes: &slots.payload,
        pos: 0,
    };
    let mut flights = Vec::new();
    for _ in 0..slots.count {
        let generation = w.varint();
        if !w.flag().1 {
            continue;
        }
        let seq = w.varint();
        let sender = w.varint();
        let target = w.option(|w| w.varints(1));
        let start = w.varint();
        let end = w.varint();
        w.f64s(2);
        w.varint(); // frame sender
        let (messages, _) = w.messages();
        w.f64s(1);
        w.varint();
        flights.push(FlightFields {
            generation,
            seq,
            sender,
            target,
            start,
            end,
            messages,
        });
    }
    let slot_count = slots.count;
    let value = |at: &Range<usize>| get_varint(&slots.payload, &mut at.start.clone());
    // Several fields of the slots section rewritten at once.
    let slot_edits = |mut edits: Vec<(&Range<usize>, Vec<u8>)>| {
        edits.sort_unstable_by_key(|(at, _)| std::cmp::Reverse(at.start));
        splice(bytes, SNAPSHOT_MAGIC, SEC_FLIGHT_SLOTS, |s| {
            for (at, with) in edits {
                s.payload.splice(at.clone(), with);
            }
        })
    };
    let slot = |at: &Range<usize>, with: &[u8]| slot_edits(vec![(at, with.to_vec())]);
    if let Some(first) = flights.first() {
        sweep.refused(
            "flight: generation past u32",
            &slot(&first.generation, &varint(1 << 40)),
        );
        sweep.case(
            "flight: sender that never was",
            &slot(&first.sender, &varint(NOWHERE)),
        );
        sweep.case(
            "flight: target that never was",
            &slot(&first.target, &some(&[NOWHERE])),
        );
        sweep.refused(
            "flight: 2^60 messages",
            &slot(&first.messages, &varint(HUGE)),
        );
        // The flight ring's premises (`Channel::restore`), one at a
        // time. A flight pinned in the air would pin the ring's front.
        let start = value(&first.start);
        sweep.refused(
            "flight: ends before it starts",
            &slot(&first.end, &varint(start - 1)),
        );
        sweep.refused(
            "flight: outlasts the longest airtime",
            &slot(&first.end, &varint(start + (1 << 40))),
        );
        // The newest flight, moved past the capture instant or given
        // the counter's next number.
        let newest = flights
            .iter()
            .max_by_key(|f| value(&f.seq))
            .expect("one flight");
        let after = varint(now_ms + 1);
        sweep.refused(
            "flight: starts after the snapshot instant",
            &slot_edits(vec![(&newest.start, after.clone()), (&newest.end, after)]),
        );
        sweep.refused(
            "flight: sequence number never issued",
            &slot(&newest.seq, &varint(next_flight_seq)),
        );
    }
    if let [a, b, ..] = &flights[..] {
        sweep.refused(
            "flight: two share a sequence number",
            &slot(&b.seq, &varint(value(&a.seq))),
        );
    }
    // Two flights launched at different instants trade numbers.
    let apart = flights.iter().enumerate().find_map(|(i, a)| {
        let later = flights[i + 1..]
            .iter()
            .find(|b| value(&b.start) != value(&a.start))?;
        Some((a, later))
    });
    if let Some((a, b)) = apart {
        sweep.refused(
            "flight: start decreases along the sequence",
            &slot_edits(vec![
                (&a.seq, varint(value(&b.seq))),
                (&b.seq, varint(value(&a.seq))),
            ]),
        );
    }
    let any_occupied = !flights.is_empty();

    // Free list: one index appended.
    for (name, index) in [("past the slab", NOWHERE), ("past u32", 1 << 40)] {
        let free = splice(bytes, SNAPSHOT_MAGIC, SEC_FLIGHT_FREE, |s| {
            s.count += 1;
            s.payload.extend_from_slice(&varint(index));
        });
        sweep.refused(&format!("free list: index {name}"), &free);
    }
    if of(SEC_FLIGHT_FREE).count > 0 {
        let twice = splice(bytes, SNAPSHOT_MAGIC, SEC_FLIGHT_FREE, |s| {
            s.count *= 2;
            s.payload.extend_from_within(..);
        });
        sweep.refused("free list: names its slots twice", &twice);
    }
    if any_occupied {
        // Some slot is occupied; naming every slot names it too.
        let free = splice(bytes, SNAPSHOT_MAGIC, SEC_FLIGHT_FREE, |s| {
            s.count = slot_count;
            s.payload = (0..slot_count).flat_map(varint).collect();
        });
        sweep.refused("free list: names an occupied slot", &free);
    }

    // Streams: channel rng, next flight seq, active noise, two more
    // streams, drift sweep instant.
    let mut w = Walk {
        bytes: &of(SEC_STREAMS).payload,
        pos: 0,
    };
    w.rng();
    w.varint();
    let noise_at = w.pos;
    let n_noise = w.value();
    let noise_count = noise_at..w.pos;
    w.varints(n_noise as usize);
    let noise = noise_at..w.pos;
    let mut one_burst = varint(1);
    framing::put_varint(&mut one_burst, NOWHERE);
    sweep.case(
        "streams: active noise burst past the table",
        &plant(SEC_STREAMS, noise, &one_burst),
    );
    sweep.refused(
        "streams: 2^60 active noise bursts",
        &plant(SEC_STREAMS, noise_count, &varint(HUGE)),
    );
    w.rng();
    w.rng();
    let sweep_due = w.varint();
    sweep.refused(
        "streams: drift sweep due past one period",
        &plant(SEC_STREAMS, sweep_due, &varint(HUGE)),
    );

    // Delivery: per-gateway outage depths.
    let mut w = Walk {
        bytes: &of(SEC_DELIVERY).payload,
        pos: 0,
    };
    let gateways = w.varint();
    let first_depth = w.varint();
    let flipped = u64::from(of(SEC_DELIVERY).payload[first_depth.start] == 0);
    sweep.refused(
        "delivery: one gateway's outage the collector never counted",
        &plant(SEC_DELIVERY, first_depth.clone(), &varint(flipped)),
    );
    // An outage in progress, told as a consistent lie: the collector's
    // count of gateways down still holds, the timeline took another one
    // down. And told twice: the first queued event rewritten into the
    // recovery that is queued already, which then finds no outage open.
    let snap = Snapshot::from_bytes(bytes.to_vec()).expect("pristine");
    let cfg = snap.config().expect("pristine");
    let depths = &of(SEC_DELIVERY).payload[first_depth.start..];
    if let Some(down) = depths.iter().position(|&depth| depth > 0) {
        let up = depths.iter().position(|&depth| depth == 0).expect("one up");
        let moved = splice(bytes, SNAPSHOT_MAGIC, SEC_DELIVERY, |s| {
            s.payload[first_depth.start..].swap(down, up);
        });
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
            &plant(SEC_EVENTS, first_event, &twice),
        );
    }
    sweep.refused(
        "delivery: 2^60 gateways",
        &plant(SEC_DELIVERY, gateways.clone(), &varint(HUGE)),
    );
    sweep.refused(
        "delivery: no gateways",
        &plant(SEC_DELIVERY, gateways, &varint(0)),
    );

    // Collector: the report — scheme, five counters, two Welfords, the
    // series (bucket, bounded, counts) …
    let collector = of(SEC_COLLECTOR);
    let mut w = Walk {
        bytes: &collector.payload,
        pos: 0,
    };
    let scheme = w.string();
    w.varints(5);
    w.welford();
    w.welford();
    let bucket = w.varint();
    w.byte();
    let counts_at = w.pos;
    let n_counts = w.value();
    let counts_count = counts_at..w.pos;
    w.varints(n_counts as usize);
    let counts = counts_at..w.pos;
    let col = |at: Range<usize>, with: &[u8]| plant(SEC_COLLECTOR, at, with);
    sweep.refused(
        "collector: 2^60-byte scheme label",
        &col(scheme, &varint(HUGE)),
    );
    sweep.refused(
        "collector: zero-width series bucket",
        &col(bucket, &varint(0)),
    );
    sweep.refused(
        "collector: series without buckets",
        &col(counts, &varint(0)),
    );
    sweep.refused(
        "collector: 2^60 series buckets",
        &col(counts_count, &varint(HUGE)),
    );
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
fn scenario_plants(sweep: &mut Sweep, bytes: &[u8]) {
    let all = sections(bytes);
    let of = |id: u8| all.iter().find(|s| s.id == id).expect("section present");
    let plant = |id: u8, at: Range<usize>, with: &[u8]| replaced(bytes, MAGIC, id, at, with);
    assert_eq!(framing::seal(MAGIC, &all), bytes, "{}", sweep.fixture);

    for s in &all {
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
    let mut w = Walk {
        bytes: &of(section::NETWORK_CONFIG).payload,
        pos: 0,
    };
    let area = w.f64();
    let routes = w.varint();
    let waypoints = w.varint();
    let shortest = w.f64();
    let slowest = w.f64();
    let fastest = w.f64();
    let buses = w.varint();
    let fewest_legs = w.varint();
    let most_legs = w.varint();
    w.varint();
    let bias = w.f64();
    let net = |at: &Range<usize>, with: &[u8]| plant(section::NETWORK_CONFIG, at.clone(), with);
    sweep.runs("network: a 10 000 km square", &net(&area, &f64_bytes(1e7)));
    let side = f64::from_le_bytes(
        of(section::NETWORK_CONFIG).payload[area.clone()]
            .try_into()
            .expect("eight bytes"),
    );
    for (name, at, with) in [
        ("area 0", &area, f64_bytes(0.0).to_vec()),
        ("a 1e300 m square", &area, f64_bytes(1e300).to_vec()),
        ("no routes", &routes, varint(0)),
        ("2^40 routes", &routes, varint(1 << 40)),
        ("2^40 waypoints per route", &waypoints, varint(1 << 40)),
        (
            "shortest route twice the area side",
            &shortest,
            f64_bytes(2.0 * side).to_vec(),
        ),
        (
            "shortest route -inf",
            &shortest,
            f64_bytes(f64::NEG_INFINITY).to_vec(),
        ),
        ("slowest speed 0", &slowest, f64_bytes(0.0).to_vec()),
        (
            "fastest speed below the slowest",
            &fastest,
            f64_bytes(0.5).to_vec(),
        ),
        ("no buses", &buses, varint(0)),
        ("2^40 buses", &buses, varint(1 << 40)),
        ("fewest legs 0", &fewest_legs, varint(0)),
        ("most legs below the fewest", &most_legs, varint(0)),
        ("most legs u32::MAX", &most_legs, varint(u32::MAX.into())),
        ("centre bias 2", &bias, f64_bytes(2.0).to_vec()),
    ] {
        sweep.refused(&format!("network: {name}"), &net(at, &with));
    }

    // SIM_PARAMS: environment, scheme, alpha, device class, generation
    // interval, queue capacity, duty cycle, max attempts, SF, bandwidth,
    // coding rate, preamble, two flags, tx power, path loss ×4,
    // capacity model ×3, horizon, series bucket.
    let mut w = Walk {
        bytes: &of(section::SIM_PARAMS).payload,
        pos: 0,
    };
    let environment = w.byte();
    let scheme = w.byte();
    let alpha = w.f64();
    let device_class = w.byte();
    w.varint();
    let queue_capacity = w.varint();
    let duty_cycle = w.f64();
    let max_attempts = w.varint();
    let sf = w.byte();
    let bandwidth = w.byte();
    let coding_rate = w.byte();
    let preamble = w.varint();
    let explicit_header = w.byte();
    w.byte();
    w.f64s(5);
    let gamma_min = w.f64();
    let par = |at: &Range<usize>, with: &[u8]| plant(section::SIM_PARAMS, at.clone(), with);
    for (name, at) in [
        ("environment", &environment),
        ("scheme", &scheme),
        ("device class", &device_class),
        ("bandwidth", &bandwidth),
        ("coding rate", &coding_rate),
    ] {
        sweep.refused(&format!("params: unknown {name} tag"), &par(at, &[9]));
    }
    sweep.refused("params: SF13", &par(&sf, &[13]));
    sweep.refused("params: SF6", &par(&sf, &[6]));
    sweep.refused("params: a boolean of 2", &par(&explicit_header, &[2]));
    sweep.refused("params: alpha NaN", &par(&alpha, &f64_bytes(f64::NAN)));
    sweep.refused(
        "params: queue capacity 0",
        &par(&queue_capacity, &varint(0)),
    );
    sweep.refused("params: duty cycle 0", &par(&duty_cycle, &f64_bytes(0.0)));
    sweep.refused("params: max attempts 0", &par(&max_attempts, &varint(0)));
    sweep.refused(
        "params: max attempts past u32",
        &par(&max_attempts, &varint(1 << 40)),
    );
    sweep.refused(
        "params: preamble past u32",
        &par(&preamble, &varint(1 << 40)),
    );
    sweep.refused(
        "params: capacity model floor above its ceiling",
        &par(&gamma_min, &f64_bytes(1e9)),
    );

    // GATEWAYS: count, placement, range.
    let mut w = Walk {
        bytes: &of(section::GATEWAYS).payload,
        pos: 0,
    };
    let count = w.varint();
    let placement = w.byte();
    let range = w.f64();
    sweep.refused(
        "gateways: none",
        &plant(section::GATEWAYS, count.clone(), &varint(0)),
    );
    sweep.refused(
        "gateways: a billion",
        &plant(section::GATEWAYS, count, &varint(1_000_000_000)),
    );
    sweep.refused(
        "gateways: unknown placement tag",
        &plant(section::GATEWAYS, placement, &[9]),
    );
    sweep.refused(
        "gateways: range NaN",
        &plant(section::GATEWAYS, range, &f64_bytes(f64::NAN)),
    );

    // TRAFFIC, first profile: name, arrival tag + operands, payload tag
    // + operands, priority, weight. `telemetry` is jittered (interval,
    // jitter) with a fixed payload.
    let mut w = Walk {
        bytes: &of(section::TRAFFIC).payload,
        pos: 0,
    };
    let name = w.string();
    let arrivals = w.byte();
    assert_eq!(
        of(section::TRAFFIC).payload[arrivals.start],
        1,
        "telemetry is jittered"
    );
    w.varint();
    w.f64();
    let payload = w.byte();
    w.varint();
    let priority = w.byte();
    let tra = |at: Range<usize>, with: &[u8]| plant(section::TRAFFIC, at, with);
    sweep.refused("traffic: 2^60-byte profile name", &tra(name, &varint(HUGE)));
    sweep.refused(
        "traffic: unknown arrival process tag",
        &tra(arrivals.clone(), &[9]),
    );
    sweep.refused("traffic: unknown payload model tag", &tra(payload, &[9]));
    sweep.refused("traffic: unknown priority tag", &tra(priority, &[3]));
    // A diurnal curve with a level of 2: tag 3, base interval, 24 levels.
    let mut diurnal = vec![3];
    framing::put_varint(&mut diurnal, 60_000);
    for _ in 0..24 {
        diurnal.extend_from_slice(&f64_bytes(2.0));
    }
    let jittered = arrivals.start..arrivals.start + 1 + 3 + 8; // tag, 60 000 ms, jitter
    sweep.refused(
        "traffic: diurnal level outside [0, 1]",
        &tra(jittered, &diurnal),
    );

    // DISRUPTIONS, first record: an outage (tag 0: gateway, start,
    // Option<duration>).
    let mut w = Walk {
        bytes: &of(section::DISRUPTIONS).payload,
        pos: 0,
    };
    let tag = w.byte();
    let gateway = w.varint();
    let dis = |at: Range<usize>, with: &[u8]| plant(section::DISRUPTIONS, at, with);
    sweep.refused("disruptions: unknown tag", &dis(tag, &[9]));
    sweep.refused(
        "disruptions: outage of a gateway that is not there",
        &dis(gateway, &varint(NOWHERE)),
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
fn world_record_plants(sweep: &mut Sweep, bytes: &[u8]) {
    let all = sections(bytes);
    let of = |id: u8| all.iter().find(|s| s.id == id).expect("section present");
    let plant = |id: u8, at: Range<usize>, with: &[u8]| replaced(bytes, MAGIC, id, at, with);
    assert_eq!(framing::seal(MAGIC, &all), bytes, "{}", sweep.fixture);

    for id in [section::WORLD, section::ROUTES, section::FLEET] {
        let inflated = splice(bytes, MAGIC, id, |s| s.count = HUGE);
        sweep.refused(&format!("section {id} promises 2^60 records"), &inflated);
    }

    // WORLD: min x, min y, max x, max y, horizon.
    let mut w = Walk {
        bytes: &of(section::WORLD).payload,
        pos: 0,
    };
    let min_x = w.f64();
    w.f64();
    let max_x = w.f64();
    let header = |at: Range<usize>, with: f64| plant(section::WORLD, at, &f64_bytes(with));
    sweep.refused("world: a NaN corner", &header(min_x, f64::NAN));
    sweep.refused("world: max x below min x", &header(max_x, -1.0));

    // ROUTES, first record: speed, point count, points.
    let routes = &of(section::ROUTES).payload;
    let mut w = Walk {
        bytes: routes,
        pos: 0,
    };
    let speed = w.f64();
    let count = w.varint();
    let points = get_varint(routes, &mut count.start.clone()) as usize;
    let first_point = w.pos..w.pos + 16;
    w.f64s(2 * points);
    let path = count.start..w.pos;
    let route = |at: Range<usize>, with: &[u8]| plant(section::ROUTES, at, with);
    // The smallest positive speed: a trip along the route would take
    // infinitely long, which `Trip::new` asserts against.
    for (name, value) in [("0", 0.0), ("NaN", f64::NAN), ("5e-324", f64::from_bits(1))] {
        sweep.refused(
            &format!("route: speed {name}"),
            &route(speed.clone(), &f64_bytes(value)),
        );
    }
    let first_x = first_point.start..first_point.start + 8;
    sweep.refused("route: a NaN point", &route(first_x, &f64_bytes(f64::NAN)));
    let repeated = |n: usize| {
        let mut with = varint(n as u64);
        for _ in 0..n {
            with.extend_from_slice(&routes[first_point.clone()]);
        }
        with
    };
    sweep.refused("route: one point", &route(path.clone(), &repeated(1)));
    // `Route::new` asserts a positive length.
    sweep.refused(
        "route: every point the same, a path of length 0",
        &route(path.clone(), &repeated(points)),
    );
    let mut vast = varint(2);
    for x in [-1e308, 1e308] {
        vast.extend_from_slice(&f64_bytes(x));
        vast.extend_from_slice(&f64_bytes(0.0));
    }
    sweep.refused(
        "route: two finite points 2e308 apart, a path of infinite length",
        &route(path, &vast),
    );
    sweep.refused("route: 2^60 points", &route(count, &varint(HUGE)));

    // FLEET, first record: route, departure, legs, duration.
    let fleet = &of(section::FLEET).payload;
    let mut w = Walk {
        bytes: fleet,
        pos: 0,
    };
    let trip_route = w.varint();
    let depart = w.varint();
    let legs = w.varint();
    let duration = w.varint();
    let schedule = get_varint(fleet, &mut duration.start.clone());
    let trip = |at: Range<usize>, with: &[u8]| plant(section::FLEET, at, with);
    sweep.refused(
        "trip: a route that is not there",
        &trip(trip_route, &varint(NOWHERE)),
    );
    sweep.refused(
        "trip: departs after the next one",
        &trip(depart, &varint(NOWHERE)),
    );
    sweep.refused("trip: 0 legs", &trip(legs.clone(), &varint(0)));
    sweep.refused("trip: legs past u32", &trip(legs, &varint(1 << 40)));
    sweep.refused(
        "trip: longer than its schedule",
        &trip(duration.clone(), &varint(schedule + 1)),
    );
    // A shorter one is a withdrawal.
    sweep.runs(
        "trip: withdrawn a second early",
        &trip(duration, &varint(schedule - 1_000)),
    );

    // The fleet names routes, so it must come after them.
    let mut reordered = all.clone();
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

/// (c) World headers claiming a vast area over the same routes, in
/// `scenario`, then framed by `wrap` into the file under test. The
/// engine's neighbour cells are sized from that area, so each must be
/// refused or run within the allocation budget, never abort.
fn world_plants(sweep: &mut Sweep, scenario: &[u8], wrap: impl Fn(Vec<u8>) -> Vec<u8>) {
    let world = sections(scenario)
        .into_iter()
        .find(|s| s.id == section::WORLD)
        .expect("a prebuilt world");
    // WORLD: min x, min y, max x, max y, horizon.
    let mut w = Walk {
        bytes: &world.payload,
        pos: 0,
    };
    let (min_x, min_y) = (w.f64(), w.f64());
    let (max_x, max_y) = (w.f64(), w.f64());
    for (name, min, max) in [
        ("a 10 000 km square", 0.0, 1e7),
        ("a 1e300 m square", 0.0, 1e300),
        ("corners at ±1e308, an infinite width", -1e308, 1e308),
    ] {
        let mut payload = world.payload.clone();
        for (at, v) in [(&min_x, min), (&min_y, min), (&max_x, max), (&max_y, max)] {
            payload.splice(at.clone(), f64_bytes(v));
        }
        let edited = splice(scenario, MAGIC, section::WORLD, |s| s.payload = payload);
        sweep.case(&format!("world: {name}"), &wrap(edited));
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

    // Keep the expected panics of a failing build off the terminal; the
    // failure list names them.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut failures = Vec::new();

    // The smallest snapshot takes every offset; the others a stride
    // coprime to the block and record sizes.
    let mut sweep = Sweep::new("framed_once.mlss", framed, load_snapshot);
    sweep.truncations(framed, 1);
    sweep.bit_flips(framed, 1);
    snapshot_plants(&mut sweep, framed);
    sweep.report(&mut failures);

    let mut sweep = Sweep::new("eager_seeding.mlss", eager, load_snapshot);
    sweep.truncations(eager, 7);
    sweep.bit_flips(eager, 7);
    snapshot_plants(&mut sweep, eager);
    sweep.report(&mut failures);

    let mut sweep = Sweep::new("calendar_written.mlss", calendar, load_snapshot);
    sweep.truncations(calendar, 11);
    sweep.bit_flips(calendar, 11);
    snapshot_plants(&mut sweep, calendar);
    sweep.report(&mut failures);

    let mut sweep = Sweep::new("rich.mlsc", &scenario, load_scenario);
    sweep.truncations(&scenario, 1);
    sweep.bit_flips(&scenario, 1);
    scenario_plants(&mut sweep, &scenario);
    sweep.report(&mut failures);

    let metro = METRO_WORLD;
    let mut sweep = Sweep::new("metro.mlsc", metro, load_scenario);
    sweep.truncations(metro, 1);
    sweep.bit_flips(metro, 1);
    world_plants(&mut sweep, metro, |edited| edited);
    world_record_plants(&mut sweep, metro);
    sweep.report(&mut failures);

    let metro_snapshot = metro_snapshot();

    let mut sweep = Sweep::new("metro.mlss", &metro_snapshot, load_snapshot);
    let embedded = snapshot_scenario(&metro_snapshot);
    world_plants(&mut sweep, &embedded, |edited| {
        with_scenario(&metro_snapshot, &edited)
    });
    sweep.report(&mut failures);

    std::panic::set_hook(hook);
    assert!(
        failures.is_empty(),
        "{} hostile cases failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
