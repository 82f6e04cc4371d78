//! One repetition of a workload: a fresh set-up → run → persistence
//! cycle, every call into the simulator timed from outside (each
//! duration at the host's nominal speed, see [`crate::host`]), and the
//! output checks that decide whether the repetition counts as correct.

use std::time::Duration;

use mlora_sim::prelude::*;
use mlora_simcore::{SimDuration, SimTime};

use crate::stats::Digest;
use crate::trace::Tracer;
use crate::workloads::{whatif_overlays, Workload, WHATIF_BRANCHES, WHATIF_FORK_MINUTES};

/// Set-ups per repetition (the last engine is the one that runs). Set-up
/// of the paper network takes milliseconds, so one sample per
/// repetition would leave `setup_s` to the noise.
const SETUP_SAMPLES: usize = 3;
/// Resumes of the last checkpoint per repetition.
const RESUME_SAMPLES: usize = 3;

/// Operations attempted and failed. An operation is a repetition, a
/// checkpoint → resume round trip or a fork.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure, for the log.
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one operation; `outcome` says why it failed, if it did.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.failures.push(format!("{what}: {why}"));
        }
    }

    pub fn absorb(&mut self, other: &Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures.iter().cloned());
    }
}

/// Everything one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Config build + `Engine::new`, one value per set-up.
    pub setup_s: Vec<f64>,
    pub engine_new_s: Vec<f64>,
    pub worldgen_s: Vec<f64>,
    /// Scenario-file round trip `(write_s, read_s, bytes)`, where the
    /// workload makes one.
    pub scenario_file: Vec<(f64, f64, usize)>,
    /// Every timed call that counts as the run, in seconds: the slices
    /// and `finish`, and for `whatif_rural`, whose whole session is the
    /// run, the checkpoints, resumes and forks too. The same index is
    /// the same simulated work in every repetition.
    pub run_parts_s: Vec<f64>,
    /// Their sum.
    pub run_wall_s: f64,
    /// Host time inside `run_until` / `finish` alone (equal to
    /// `run_wall_s` except for `whatif_rural`).
    pub stepping_s: f64,
    /// Sum of `run_until` returns.
    pub events: u64,
    /// One value per `run_until` call.
    pub slices_ms: Vec<f64>,
    pub finish_ms: f64,
    /// `snapshot()` + copy of `as_bytes()`, one value per checkpoint.
    pub checkpoint_ms: Vec<f64>,
    /// Size of the last checkpoint.
    pub snapshot_bytes: usize,
    pub decode_ms: Vec<f64>,
    /// `from_bytes` + `resume`, one value per round trip.
    pub resume_ms: Vec<f64>,
    /// One value per `Runner::fork` call.
    pub fork_s: Vec<f64>,
    /// The finished run's report, when the workload reaches its horizon.
    pub report: Option<SimReport>,
    /// Digest of everything simulated: event count, report(s), or the
    /// final checkpoint's bytes where there is no report.
    pub digest: u64,
    pub ops: Ops,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The consistency every finished report must show.
pub fn report_invariants(r: &SimReport) -> Result<(), String> {
    let checks = [
        (
            r.delivered + r.stranded + r.queue_drops >= r.generated,
            "delivered + stranded + queue_drops < generated",
        ),
        (r.delivered <= r.generated, "delivered > generated"),
        (
            r.handover_frames <= r.frames_sent,
            "handover_frames > frames_sent",
        ),
        (
            r.delivered_of_outage_generated <= r.generated_during_outage,
            "delivered_of_outage_generated > generated_during_outage",
        ),
    ];
    match checks.iter().find(|(ok, _)| !ok) {
        None => Ok(()),
        Some((_, what)) => Err(what.to_string()),
    }
}

/// Drives an engine forward, keeping the time spent and events seen.
struct Run<'t> {
    tracer: &'t mut Tracer,
    /// Simulated milliseconds one `run_until` call advances.
    slice_ms: u64,
    at: SimTime,
    wall: Duration,
    events: u64,
    slices_ms: Vec<f64>,
}

impl<'t> Run<'t> {
    fn new(tracer: &'t mut Tracer, slice: SimDuration) -> Self {
        Run {
            tracer,
            slice_ms: slice.as_millis(),
            at: SimTime::ZERO,
            wall: Duration::ZERO,
            events: 0,
            slices_ms: Vec::new(),
        }
    }

    /// Steps `engine` to `to`, one slice per `run_until` call; the
    /// same slice is the same work in every repetition.
    fn advance(&mut self, engine: &mut Engine, to: SimTime) {
        while self.at < to {
            let boundary = (self.at.as_millis() / self.slice_ms + 1) * self.slice_ms;
            let next = to.min(SimTime::from_millis(boundary));
            let (n, took) = self
                .tracer
                .timed_ops("run.slice", |_| engine.run_until(next), |&n| n);
            self.events += n;
            self.wall += took;
            self.slices_ms.push(ms(took));
            self.at = next;
        }
    }
}

/// Sets the workload up [`SETUP_SAMPLES`] times and returns the last
/// engine. A set-up's time is the sum of its timed calls.
fn set_up(w: Workload, seed: u64, tracer: &mut Tracer, rep: &mut Rep) -> Result<Engine, String> {
    let mut last = None;
    for _ in 0..SETUP_SAMPLES {
        drop(last.take());
        let built = w.config(seed, tracer)?;
        let (engine, new) = tracer.timed("setup.engine_new", |_| Engine::new(built.cfg, seed));
        let mut setup = built.worldgen + new;
        if let Some(f) = built.file {
            setup += f.write + f.read;
            rep.scenario_file
                .push((f.write.as_secs_f64(), f.read.as_secs_f64(), f.bytes));
        }
        rep.setup_s.push(setup.as_secs_f64());
        rep.engine_new_s.push(new.as_secs_f64());
        rep.worldgen_s.push(built.worldgen.as_secs_f64());
        last = Some(engine);
    }
    last.ok_or_else(|| "no set-up sample".to_string())
}

/// A checkpoint's bytes and the engine instant they capture.
type Checkpoint = (Vec<u8>, SimTime);

/// `snapshot()` plus the copy of its bytes a caller keeping the
/// checkpoint would make.
fn checkpoint(engine: &Engine, tracer: &mut Tracer, rep: &mut Rep) -> Result<Checkpoint, String> {
    let (bytes, took) = tracer.timed_ops(
        "persist.snapshot",
        |_| engine.snapshot().map(|s| s.as_bytes().to_vec()),
        |bytes| bytes.as_ref().map_or(0, |b| b.len() as u64),
    );
    let bytes = bytes.map_err(|e| format!("snapshot: {e}"))?;
    rep.checkpoint_ms.push(ms(took));
    rep.snapshot_bytes = bytes.len();
    Ok((bytes, engine.now()))
}

/// Decodes `bytes` and resumes an engine from them, up to the point
/// where it could take its first `run_until`; then drops it. One
/// operation.
fn resume_round_trip((bytes, at): &Checkpoint, tracer: &mut Tracer, rep: &mut Rep) {
    // `from_bytes` takes the buffer by value; the copy is the caller's,
    // not the decoder's, so it stays outside the timer.
    let copy = bytes.to_vec();
    let (snap, decode) = tracer.timed("persist.decode", |_| Snapshot::from_bytes(copy));
    let outcome = snap
        .map_err(|e| format!("from_bytes: {e}"))
        .and_then(|snap| {
            let (engine, resume) = tracer.timed("persist.resume", |_| Engine::resume(&snap));
            let engine = engine.map_err(|e| format!("resume: {e}"))?;
            rep.decode_ms.push(ms(decode));
            rep.resume_ms.push(ms(decode + resume));
            let resumed_at = engine.now();
            drop(engine);
            if resumed_at == *at {
                Ok(())
            } else {
                Err(format!("captured at {at:?}, resumed at {resumed_at:?}"))
            }
        });
    rep.ops.record("checkpoint->resume", outcome);
}

/// `urban_robc`, `urban_lorawan`, `metro_20k`: run the span, taking a
/// checkpoint at ¼, ½ and ¾ of it; then resume the last checkpoint.
/// Checkpoints and resumes are timed on their own and stay out of
/// `run_wall_s`.
fn straight(w: Workload, seed: u64, tracer: &mut Tracer) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let mut engine = set_up(w, seed, tracer, &mut rep)?;
    let span = w.run_span();
    let mut run = Run::new(tracer, w.slice());
    let mut last = (Vec::new(), SimTime::ZERO);
    for quarter in 1..=3 {
        run.advance(
            &mut engine,
            SimTime::from_millis(span.as_millis() * quarter / 4),
        );
        last = checkpoint(&engine, run.tracer, &mut rep)?;
    }
    run.advance(&mut engine, SimTime::ZERO + span);

    let mut digest = Digest::default();
    digest.u64(run.events);
    if w.reaches_horizon() {
        let (report, took) = run.tracer.timed("run.finish", |_| engine.finish());
        run.wall += took;
        rep.finish_ms = ms(took);
        digest.report(&report);
        rep.report = Some(report);
    } else {
        // No report to compare: the complete final state stands in.
        let state = engine.snapshot().map_err(|e| format!("snapshot: {e}"))?;
        digest.bytes(state.as_bytes());
    }
    rep.stepping_s = run.wall.as_secs_f64();
    rep.events = run.events;
    rep.slices_ms = run.slices_ms;
    rep.run_parts_s = rep
        .slices_ms
        .iter()
        .chain([&rep.finish_ms])
        .map(|ms| ms / 1e3)
        .collect();
    rep.run_wall_s = rep.run_parts_s.iter().sum();
    rep.digest = digest.value();

    for _ in 0..RESUME_SAMPLES {
        resume_round_trip(&last, tracer, &mut rep);
    }
    Ok(rep)
}

/// `whatif_rural`: step the trunk a simulated minute at a time with a
/// checkpoint after every minute; at the fork minutes decode the
/// checkpoint, resume it once, and fork it into four branches run to
/// the horizon on the calling thread. The whole session is the run.
fn whatif(w: Workload, seed: u64, tracer: &mut Tracer) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let mut engine = set_up(w, seed, tracer, &mut rep)?;
    let minutes = w.run_span().as_millis() / 60_000;
    let runner = Runner::single_threaded();
    let mut forks = Vec::new();

    let mut run = Run::new(tracer, w.slice());
    for minute in 1..=minutes {
        let at = SimTime::ZERO + SimDuration::from_mins(minute);
        run.advance(&mut engine, at);
        let taken = checkpoint(&engine, run.tracer, &mut rep)?;
        if !WHATIF_FORK_MINUTES.contains(&minute) {
            continue;
        }
        resume_round_trip(&taken, run.tracer, &mut rep);
        let overlays = whatif_overlays(seed, at);
        let (branches, took) = run.tracer.timed_ops(
            "fork.branch",
            |_| Snapshot::from_bytes(taken.0).and_then(|snap| runner.fork(&snap, &overlays)),
            |_| WHATIF_BRANCHES as u64,
        );
        rep.fork_s.push(took.as_secs_f64());
        forks.push((minute, branches.map_err(|e| e.to_string())));
    }
    let (report, took) = run.tracer.timed("run.finish", |_| engine.finish());
    rep.stepping_s = (run.wall + took).as_secs_f64();
    rep.finish_ms = ms(took);
    rep.events = run.events;
    rep.slices_ms = run.slices_ms;
    rep.run_parts_s = rep
        .slices_ms
        .iter()
        .chain([&rep.finish_ms])
        .chain(&rep.checkpoint_ms)
        .chain(&rep.resume_ms)
        .map(|ms| ms / 1e3)
        .chain(rep.fork_s.iter().copied())
        .collect();
    rep.run_wall_s = rep.run_parts_s.iter().sum();

    let mut digest = Digest::default();
    digest.u64(rep.events);
    digest.report(&report);
    for (minute, branches) in forks {
        let outcome = branches.and_then(|branches| {
            branches.iter().for_each(|b| digest.report(b));
            branches.iter().try_for_each(report_invariants)?;
            // An empty overlay must reproduce the uninterrupted run
            // bit for bit.
            if branches.first() == Some(&report) {
                Ok(())
            } else {
                Err("control branch differs from the trunk's final report".to_string())
            }
        });
        rep.ops.record(&format!("fork at minute {minute}"), outcome);
    }
    rep.digest = digest.value();
    rep.report = Some(report);
    Ok(rep)
}

/// One repetition of `w`. `Err` means the simulator refused a call the
/// repetition cannot go on without.
pub fn repetition(w: Workload, seed: u64, tracer: &mut Tracer) -> Result<Rep, String> {
    tracer.group("rep", |tracer| match w {
        Workload::WhatifRural => whatif(w, seed, tracer),
        _ => straight(w, seed, tracer),
    })
}

/// Whether a finished repetition simulated what it should have: a
/// consistent report, and exactly what the first repetition did
/// (`first` is its digest).
pub fn judge(rep: &Rep, first: u64) -> Result<(), String> {
    if let Some(report) = &rep.report {
        report_invariants(report)?;
    }
    if rep.digest == first {
        Ok(())
    } else {
        Err(format!(
            "digest {:016x} differs from the first repetition's {first:016x}",
            rep.digest
        ))
    }
}

/// The untimed pass before the repetitions: two simulated minutes of
/// the same configuration with one checkpoint and resume, so that the
/// allocator and caches are in their steady state. For `metro_20k` it
/// is the whole run span on the cut-horizon reference configuration,
/// and returns the report the repetitions themselves cannot produce.
pub fn warm_up(w: Workload, seed: u64) -> Result<Option<SimReport>, String> {
    let mut tracer = Tracer::new(false);
    let (cfg, until) = if w.reaches_horizon() {
        let cfg = w.config(seed, &mut tracer)?.cfg;
        (cfg, SimTime::ZERO + SimDuration::from_mins(2))
    } else {
        (w.reference_config(seed)?, SimTime::ZERO + w.run_span())
    };
    let mut engine = Engine::new(cfg, seed);
    engine.run_until(until);
    let snap = engine.snapshot().map_err(|e| format!("snapshot: {e}"))?;
    drop(Engine::resume(&snap).map_err(|e| format!("resume: {e}"))?);
    Ok((!w.reaches_horizon()).then(|| engine.finish()))
}
