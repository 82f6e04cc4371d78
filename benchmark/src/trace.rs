//! Spans around the harness's own calls into the simulator.
//!
//! Every call the harness makes into the program goes through
//! [`Tracer::timed`], which always returns the call's duration at the
//! host's nominal speed (see [`crate::host`]; the end-to-end metrics
//! are built from these) and, only when tracing is on, also keeps a
//! span in memory. Spans are written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::host;
use crate::stats::median;

/// One recorded call: times are nanoseconds since the tracer's epoch,
/// as the clock read them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Repetition the call belongs to (the spans of one repetition
    /// share it).
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Operations the call performed (events, bytes, kernel ops …).
    pub ops: u64,
    /// Mean of the two host-speed probes around the call; zero for a
    /// span that only groups others.
    pub probe_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    rep: u32,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<usize>,
    /// Every host-speed probe taken, seconds; kept tracing or not.
    probes: Vec<f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
            probes: Vec::new(),
        }
    }

    /// Tags the spans that follow with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Runs `f` under a span when tracing is on; returns its result,
    /// its duration as the clock read it, and the span's index.
    fn span<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
        ops: impl FnOnce(&T) -> u64,
    ) -> (T, Duration, Option<usize>) {
        let slot = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                parent: self.open.last().copied(),
                rep: self.rep,
                start_ns: 0,
                end_ns: 0,
                ops: 0,
                probe_ns: 0,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let start = Instant::now();
        let out = f(self);
        let took = start.elapsed();
        if let Some(i) = slot {
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            self.spans[i].start_ns = start_ns;
            self.spans[i].end_ns = start_ns + took.as_nanos() as u64;
            self.spans[i].ops = ops(&out);
            self.open.pop();
        }
        (out, took, slot)
    }

    /// Runs `f`, which makes timed calls of its own, under a span that
    /// groups them. Nothing is timed for the caller: probes taken
    /// inside would count against it.
    pub fn group<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span(name, f, |_| 0).0
    }

    /// Runs `f` between two host-speed probes, returning its result and
    /// its duration at the host's nominal speed; records a span around
    /// it when tracing is on. `ops` maps the result to the span's
    /// operation count. `f` makes no timed calls of its own.
    pub fn timed_ops<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
        ops: impl FnOnce(&T) -> u64,
    ) -> (T, Duration) {
        let before = host::probe();
        let (out, took, slot) = self.span(name, f, ops);
        let after = host::probe();
        self.probes
            .extend([before.as_secs_f64(), after.as_secs_f64()]);
        if let Some(i) = slot {
            self.spans[i].probe_ns = ((before + after) / 2).as_nanos() as u64;
        }
        (out, host::at_nominal_speed(took, before, after))
    }

    /// [`Tracer::timed_ops`] for a call with no operation count.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        self.timed_ops(name, f, |_| 0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The host's speed over the calls timed so far, as a share of its
    /// nominal speed: nominal probe time over the median probe.
    pub fn host_speed(&self) -> f64 {
        host::NOMINAL.as_secs_f64() / median(&self.probes)
    }

    /// Writes one JSON object per span to `path`, creating its
    /// directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"rep\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"ops\":{},\
                 \"probe_ns\":{}}}",
                s.rep, s.name, s.start_ns, s.end_ns, self_ns[i], s.ops, s.probe_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per span: its duration minus the part of that interval its
/// direct children cover. Children of one parent never overlap here
/// (the harness is single-threaded), so coverage is their clipped sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let start = s.start_ns.max(spans[p].start_ns);
            let end = s.end_ns.min(spans[p].end_ns);
            covered[p] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            parent,
            rep: 0,
            start_ns,
            end_ns,
            ops: 0,
            probe_ns: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 50, 70),
            span(Some(1), 15, 25),
            // A child reaching past its parent only counts the overlap.
            span(Some(0), 90, 130),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 20, 10, 40]);
    }

    #[test]
    fn spans_nest_and_carry_their_repetition() {
        let mut t = Tracer::new(true);
        t.set_rep(3);
        t.group("outer", |t| {
            let (n, _) = t.timed_ops("inner", |_| 7u64, |&n| n);
            assert_eq!(n, 7);
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert_eq!((spans[1].rep, spans[1].ops), (3, 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        // Only the timed call is probed.
        assert!(spans[0].probe_ns == 0 && spans[1].probe_ns > 0);
    }

    #[test]
    fn a_disabled_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(false);
        let (x, took) = t.timed("call", |_| std::hint::black_box(5));
        assert_eq!(x, 5);
        assert!(took.as_nanos() > 0);
        assert!(t.spans().is_empty());
        assert!(t.host_speed() > 0.0);
    }
}
