//! Timestamped event queues with deterministic FIFO tie-breaking.
//!
//! Two interchangeable implementations share one contract — events pop
//! in packed `(time, sequence)` order, so runs are bit-identical under
//! either:
//!
//! * [`EventQueue`] — a binary min-heap: `O(log n)` per operation,
//!   branch-predictable, the long-standing default.
//! * [`CalendarQueue`] — a calendar queue (time wheel): amortized `O(1)`
//!   schedule/pop when the bucket width tracks the mean event spacing.
//!
//! [`AnyEventQueue`] dispatches between them at runtime from a
//! [`QueueKind`], and both export their pending events in a common
//! checkpoint shape so snapshots taken under one kind resume under the
//! other.
//!
//! # Reserved sequence numbers
//!
//! A caller that knows a block of events in advance — a timetable of
//! departures, say — need not hold them in the queue. It takes their
//! sequence numbers with [`AnyEventQueue::reserve_seqs`], keeps the
//! events in whatever presorted form it already has, and merges that
//! source with the queue by comparing its next `(time, seq)` against
//! [`AnyEventQueue::peek_key`]. Follow-ups that belong to the block
//! enter the queue under their reserved number through
//! [`AnyEventQueue::schedule_reserved`]. The merged pop order is exactly
//! what scheduling the whole block up front would have produced, while
//! the queue holds only events that are live.

use serde::{Deserialize, Serialize};

use crate::SimTime;

/// A priority queue of timestamped events.
///
/// Events pop in non-decreasing time order. Events scheduled for the same
/// instant pop in insertion order (FIFO), which keeps simulation runs
/// deterministic regardless of heap internals.
///
/// Internally this is a hand-rolled binary min-heap over a flat `Vec`
/// whose priority is a single packed `(time, sequence)` `u128`: one
/// integer comparison per sift step instead of a two-field lexicographic
/// compare, and pops reuse the buffer's capacity, so a queue at its
/// steady-state size allocates nothing.
///
/// # Example
///
/// ```
/// use mlora_simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(5), "late");
/// q.schedule(SimTime::from_secs(1), "early");
/// q.schedule(SimTime::from_secs(1), "early-second");
///
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "early-second");
/// assert_eq!(q.pop().unwrap().1, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Min-heap of `(packed priority, event)`; `heap[0]` is the earliest.
    heap: Vec<(u128, E)>,
    seq: u64,
}

/// Packs `(time, seq)` into one ordered priority word: the millisecond
/// timestamp in the high 64 bits, the insertion sequence in the low 64,
/// so `u128` ordering is exactly lexicographic `(time, seq)` ordering.
fn pack(time: SimTime, seq: u64) -> u128 {
    (u128::from(time.as_millis()) << 64) | u128::from(seq)
}

fn unpack_time(key: u128) -> SimTime {
    SimTime::from_millis((key >> 64) as u64)
}

fn unpack(key: u128) -> (SimTime, u64) {
    (unpack_time(key), key as u64)
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            seq: 0,
        }
    }

    /// Creates an empty queue with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(capacity),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.reserve_seqs(1);
        self.schedule_reserved(time, seq, event);
    }

    /// Takes the next `n` insertion sequence numbers without scheduling
    /// anything and returns the first (see the module docs).
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let first = self.seq;
        self.seq += n;
        first
    }

    /// Schedules `event` at `time` under a sequence number obtained
    /// from [`EventQueue::reserve_seqs`]; the insertion counter does not
    /// move. Each reserved number must be used at most once.
    pub fn schedule_reserved(&mut self, time: SimTime, seq: u64, event: E) {
        debug_assert!(seq < self.seq, "sequence number {seq} was never reserved");
        self.heap.push((pack(time, seq), event));
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let last = self.heap.len().checked_sub(1)?;
        self.heap.swap(0, last);
        let (key, event) = self.heap.pop().expect("len checked above");
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        Some((unpack_time(key), event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|&(key, _)| unpack_time(key))
    }

    /// The `(time, sequence)` key of the earliest pending event, if any.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.first().map(|&(key, _)| unpack(key))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all pending events, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// The queue's raw state: the backing heap (packed `(time, seq)`
    /// priority words paired with events, in heap layout order) and the
    /// next insertion sequence number. Checkpoint counterpart of
    /// [`EventQueue::from_raw_parts`].
    pub fn raw_parts(&self) -> (&[(u128, E)], u64) {
        (&self.heap, self.seq)
    }

    /// Rebuilds a queue from state captured by [`EventQueue::raw_parts`].
    ///
    /// `heap` must be a valid binary min-heap over the packed priority
    /// words (any slice returned by [`EventQueue::raw_parts`] is); the
    /// layout is restored verbatim so subsequent pops replay in exactly
    /// the original order.
    pub fn from_raw_parts(heap: Vec<(u128, E)>, seq: u64) -> Self {
        debug_assert!((1..heap.len()).all(|i| heap[(i - 1) / 2].0 <= heap[i].0));
        EventQueue { heap, seq }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].0 <= self.heap[i].0 {
                break;
            }
            self.heap.swap(parent, i);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let smaller = if right < n && self.heap[right].0 < self.heap[left].0 {
                right
            } else {
                left
            };
            if self.heap[i].0 <= self.heap[smaller].0 {
                break;
            }
            self.heap.swap(i, smaller);
            i = smaller;
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// Which [`AnyEventQueue`] implementation a simulation runs on.
///
/// A host-execution knob, not scenario content: both kinds pop the same
/// packed `(time, seq)` sequence, so any choice produces bit-identical
/// results and scenario/snapshot files neither carry nor require it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum QueueKind {
    /// The binary min-heap [`EventQueue`]: `O(log n)` per operation.
    #[default]
    BinaryHeap,
    /// The [`CalendarQueue`] time wheel: amortized `O(1)` per operation
    /// once the bucket width has adapted to the mean event spacing.
    Calendar,
}

impl QueueKind {
    /// Every selectable kind, in declaration order (for CLI help text
    /// and exhaustive sweeps).
    pub const ALL: [QueueKind; 2] = [QueueKind::BinaryHeap, QueueKind::Calendar];

    /// The canonical CLI/config spelling (`"heap"` / `"calendar"`).
    pub fn as_str(self) -> &'static str {
        match self {
            QueueKind::BinaryHeap => "heap",
            QueueKind::Calendar => "calendar",
        }
    }
}

impl std::fmt::Display for QueueKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error parsing a [`QueueKind`] from a string (see its [`FromStr`]
/// impl for the accepted spellings).
///
/// [`FromStr`]: std::str::FromStr
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQueueKindError {
    input: String,
}

impl std::fmt::Display for ParseQueueKindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown queue kind `{}` (expected `heap` or `calendar`)",
            self.input
        )
    }
}

impl std::error::Error for ParseQueueKindError {}

impl std::str::FromStr for QueueKind {
    type Err = ParseQueueKindError;

    /// Accepts `heap` / `binary-heap` / `binary_heap` and `calendar`
    /// (case-insensitive).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "heap" | "binary-heap" | "binary_heap" | "binaryheap" => Ok(QueueKind::BinaryHeap),
            "calendar" => Ok(QueueKind::Calendar),
            _ => Err(ParseQueueKindError {
                input: s.to_string(),
            }),
        }
    }
}

/// The bucket-day of a packed key under a given bucket width
/// (`1 << shift` milliseconds).
fn day_of(key: u128, shift: u32) -> u64 {
    ((key >> 64) as u64) >> shift
}

/// A calendar queue (time wheel) with the same ordering contract as
/// [`EventQueue`].
///
/// Time is divided into fixed-width *days* of `1 << day_shift`
/// milliseconds; day `d` files its events under bucket `d mod n` (with
/// `n` a power of two). Each bucket is kept sorted by packed key in
/// descending order, so the earliest pending event of the day under the
/// cursor is a `Vec::pop` from the bucket's tail. Popping advances the
/// cursor day by day; after one full empty rotation it jumps straight
/// to the globally earliest bucket head, so sparse stretches cost one
/// wheel scan instead of one step per empty day.
///
/// The wheel doubles whenever occupancy exceeds one event per bucket,
/// re-tuning its bucket width as it redistributes: once enough pops have
/// been observed, the width snaps to the *median observed pop-to-pop
/// gap* (a fixed-size log₂ histogram updated with pure arithmetic on
/// every pop — the median tracks the typical event spacing without
/// being dragged by the rare day-scale gap the mean is hostage to);
/// until then it falls back to the mean spacing of the pending events.
/// [`CalendarQueue::with_fixed_day_width_ms`] is the escape hatch that
/// pins the width and never re-tunes. Width only ever changes inside a
/// redistribution, so the `(time, seq)` pop order is identical under
/// any width — tuned, untuned or fixed — which
/// `tests/queue_properties.rs` pins by proptest. The wheel never
/// shrinks: buckets keep their capacity, so a queue at its steady-state
/// size allocates nothing — the property `calendar_queue_alloc` pins
/// with a counting allocator.
///
/// # Example
///
/// ```
/// use mlora_simcore::{CalendarQueue, SimTime};
///
/// let mut q = CalendarQueue::new();
/// q.schedule(SimTime::from_secs(5), "late");
/// q.schedule(SimTime::from_secs(1), "early");
/// q.schedule(SimTime::from_secs(1), "early-second");
///
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "early-second");
/// assert_eq!(q.pop().unwrap().1, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct CalendarQueue<E> {
    /// `buckets[d mod n]` holds day `d`'s events, sorted by packed key
    /// in *descending* order (earliest at the tail).
    buckets: Vec<Vec<(u128, E)>>,
    /// Bucket width is `1 << day_shift` milliseconds.
    day_shift: u32,
    /// `Some(shift)` pins the bucket width to `1 << shift` ms forever
    /// (the [`CalendarQueue::with_fixed_day_width_ms`] escape hatch);
    /// `None` lets [`CalendarQueue::grow`] re-tune.
    fixed_shift: Option<u32>,
    /// Log₂ histogram of observed pop-to-pop gaps: `gap_hist[b]` counts
    /// gaps with `b` significant bits (`b == 0` is a same-millisecond
    /// pop). Tuning state only — never checkpointed; a restored queue
    /// re-learns its spacing, which cannot change pop order.
    gap_hist: [u32; GAP_BUCKETS],
    /// Total samples in `gap_hist` (saturating).
    gap_samples: u32,
    /// Timestamp (ms) of the most recent pop, for gap measurement.
    last_pop_ms: Option<u64>,
    /// The day holding `head` (meaningless while the queue is empty).
    day: u64,
    /// Cached earliest pending key, so `peek_time` is `O(1)`.
    head: Option<u128>,
    len: usize,
    seq: u64,
}

/// Log₂ gap-histogram buckets: gaps of up to `2^(GAP_BUCKETS-2)` ms
/// (≈ 17 years) resolve exactly; anything longer lands in the last
/// bucket.
const GAP_BUCKETS: usize = 40;

/// How many pop-to-pop gaps must be observed before the auto-tuner
/// trusts the histogram median over the pending-span mean.
const GAP_MIN_SAMPLES: u32 = 64;

impl<E> CalendarQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: Vec::new(),
            day_shift: 0,
            fixed_shift: None,
            gap_hist: [0; GAP_BUCKETS],
            gap_samples: 0,
            last_pop_ms: None,
            day: 0,
            head: None,
            len: 0,
            seq: 0,
        }
    }

    /// Creates an empty queue whose bucket width is pinned to
    /// `width_ms` milliseconds, rounded up to a power of two — the
    /// escape hatch from day-width auto-tuning. The wheel still doubles
    /// under load, but redistributions keep this width forever.
    pub fn with_fixed_day_width_ms(width_ms: u64) -> Self {
        let shift = width_ms.max(1).next_power_of_two().trailing_zeros();
        let mut q = CalendarQueue::new();
        q.day_shift = shift;
        q.fixed_shift = Some(shift);
        q
    }

    /// Creates an empty queue wheel-sized for about `capacity` pending
    /// events.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = CalendarQueue::new();
        q.buckets
            .resize_with(capacity.next_power_of_two().max(16), Vec::new);
        q
    }

    /// Schedules `event` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.reserve_seqs(1);
        self.schedule_reserved(time, seq, event);
    }

    /// Takes the next `n` insertion sequence numbers without scheduling
    /// anything and returns the first (see the module docs).
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let first = self.seq;
        self.seq += n;
        first
    }

    /// Schedules `event` at `time` under a sequence number obtained
    /// from [`CalendarQueue::reserve_seqs`]; the insertion counter does
    /// not move. Each reserved number must be used at most once.
    pub fn schedule_reserved(&mut self, time: SimTime, seq: u64, event: E) {
        debug_assert!(seq < self.seq, "sequence number {seq} was never reserved");
        if self.len == self.buckets.len() {
            self.grow();
        }
        self.insert_key(pack(time, seq), event);
    }

    /// Files an already-packed key without growing; the caller ensures
    /// `len < buckets.len()`.
    fn insert_key(&mut self, key: u128, event: E) {
        let d = day_of(key, self.day_shift);
        let mask = (self.buckets.len() - 1) as u64;
        let bucket = &mut self.buckets[(d & mask) as usize];
        let at = bucket.partition_point(|&(k, _)| k > key);
        bucket.insert(at, (key, event));
        self.len += 1;
        if self.head.is_none_or(|h| key < h) {
            self.head = Some(key);
            self.day = d;
        }
    }

    /// Doubles the wheel and re-tunes the bucket width, redistributing
    /// every pending event. Width selection, in priority order: a
    /// pinned [`CalendarQueue::with_fixed_day_width_ms`] width; the
    /// median of the observed pop-to-pop gap histogram (once
    /// [`GAP_MIN_SAMPLES`] gaps have been seen); else the mean spacing
    /// of the pending events — the cold-start rule.
    fn grow(&mut self) {
        let mut all: Vec<(u128, E)> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            all.append(bucket);
        }
        self.day_shift = if let Some(shift) = self.fixed_shift {
            shift
        } else if let Some(shift) = self.tuned_shift() {
            shift
        } else {
            let (mut lo, mut hi) = (u64::MAX, 0u64);
            for &(key, _) in &all {
                let t = (key >> 64) as u64;
                lo = lo.min(t);
                hi = hi.max(t);
            }
            let width = if all.is_empty() {
                1
            } else {
                ((hi - lo) / all.len() as u64).max(1).next_power_of_two()
            };
            width.trailing_zeros()
        };
        let target = (self.buckets.len() * 2).max(16);
        self.buckets.resize_with(target, Vec::new);
        self.len = 0;
        self.head = None;
        for (key, event) in all {
            self.insert_key(key, event);
        }
    }

    /// The auto-tuned day shift: the histogram bucket holding the
    /// median observed pop-to-pop gap (so the typical day spans about
    /// one inter-event interval), or `None` until enough gaps have been
    /// observed to trust it.
    fn tuned_shift(&self) -> Option<u32> {
        if self.gap_samples < GAP_MIN_SAMPLES {
            return None;
        }
        let half = self.gap_samples.div_ceil(2);
        let mut seen = 0u32;
        for (b, &count) in self.gap_hist.iter().enumerate() {
            seen = seen.saturating_add(count);
            if seen >= half {
                // Bucket `b` holds gaps of `b` significant bits, i.e.
                // `2^(b-1) <= gap < 2^b`; its floor is the widest
                // power-of-two day not exceeding the median gap.
                return Some(b.saturating_sub(1) as u32);
            }
        }
        None
    }

    /// Folds one observed pop timestamp into the gap histogram. Pure
    /// arithmetic on fixed-size state: no allocation on any pop.
    fn observe_pop(&mut self, t_ms: u64) {
        if let Some(prev) = self.last_pop_ms {
            let gap = t_ms.saturating_sub(prev);
            let bits = (u64::BITS - gap.leading_zeros()) as usize;
            self.gap_hist[bits.min(GAP_BUCKETS - 1)] =
                self.gap_hist[bits.min(GAP_BUCKETS - 1)].saturating_add(1);
            self.gap_samples = self.gap_samples.saturating_add(1);
        }
        self.last_pop_ms = Some(t_ms);
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let head = self.head?;
        let mask = (self.buckets.len() - 1) as u64;
        let (key, event) = self.buckets[(self.day & mask) as usize]
            .pop()
            .expect("head bucket is non-empty");
        debug_assert_eq!(key, head);
        self.observe_pop((key >> 64) as u64);
        self.len -= 1;
        if self.len == 0 {
            self.head = None;
        } else {
            // The next head is at or after the popped day: walk the
            // wheel forward, and after one full empty rotation jump to
            // the globally earliest bucket tail.
            let mut d = self.day;
            let mut scanned = 0;
            self.head = loop {
                if let Some(&(k, _)) = self.buckets[(d & mask) as usize].last() {
                    if day_of(k, self.day_shift) == d {
                        self.day = d;
                        break Some(k);
                    }
                }
                d += 1;
                scanned += 1;
                if scanned >= self.buckets.len() {
                    let k = self
                        .buckets
                        .iter()
                        .filter_map(|b| b.last())
                        .map(|&(k, _)| k)
                        .min()
                        .expect("len > 0");
                    self.day = day_of(k, self.day_shift);
                    break Some(k);
                }
            };
        }
        Some((unpack_time(key), event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head.map(unpack_time)
    }

    /// The `(time, sequence)` key of the earliest pending event, if any.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.head.map(unpack)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all pending events, keeping the allocated capacity (and
    /// the learned gap histogram; the pop clock restarts so the gap
    /// across the clear is not counted).
    pub fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.len = 0;
        self.head = None;
        self.last_pop_ms = None;
    }

    /// The queue's checkpoint state: every pending `(packed key, event)`
    /// in ascending key order, plus the next insertion sequence number.
    /// Counterpart of [`CalendarQueue::from_events`]; ascending order is
    /// also a valid [`EventQueue`] heap layout, so either kind can
    /// rebuild from it.
    pub fn checkpoint_events(&self) -> (Vec<(u128, E)>, u64)
    where
        E: Clone,
    {
        let mut out: Vec<(u128, E)> = self.buckets.iter().flatten().cloned().collect();
        out.sort_unstable_by_key(|&(key, _)| key);
        (out, self.seq)
    }

    /// Rebuilds a queue from checkpointed `(packed key, event)` records
    /// (any order) and the next insertion sequence number.
    pub fn from_events(events: Vec<(u128, E)>, seq: u64) -> Self {
        let mut q = CalendarQueue::with_capacity(events.len());
        for (key, event) in events {
            q.insert_key(key, event);
        }
        q.seq = seq;
        q
    }
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

/// Runtime dispatch between the two [`QueueKind`]s.
///
/// Both kinds pop the identical packed `(time, seq)` sequence, so which
/// one a simulation runs on is a pure host-performance choice; the
/// two-variant match per operation is a predicted branch and costs
/// nothing measurable next to the queue work itself.
// One queue exists per engine, so the size gap the calendar's inline
// gap histogram opens between the variants is irrelevant — boxing it
// would buy nothing and cost an indirection on every pop.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum AnyEventQueue<E> {
    /// Binary min-heap ([`EventQueue`]).
    Heap(EventQueue<E>),
    /// Calendar queue / time wheel ([`CalendarQueue`]).
    Calendar(CalendarQueue<E>),
}

impl<E> AnyEventQueue<E> {
    /// Creates an empty queue of the given kind.
    pub fn new(kind: QueueKind) -> Self {
        match kind {
            QueueKind::BinaryHeap => AnyEventQueue::Heap(EventQueue::new()),
            QueueKind::Calendar => AnyEventQueue::Calendar(CalendarQueue::new()),
        }
    }

    /// Creates an empty queue of the given kind with room for
    /// `capacity` events.
    pub fn with_capacity(kind: QueueKind, capacity: usize) -> Self {
        match kind {
            QueueKind::BinaryHeap => AnyEventQueue::Heap(EventQueue::with_capacity(capacity)),
            QueueKind::Calendar => AnyEventQueue::Calendar(CalendarQueue::with_capacity(capacity)),
        }
    }

    /// Which implementation this queue runs on.
    pub fn kind(&self) -> QueueKind {
        match self {
            AnyEventQueue::Heap(_) => QueueKind::BinaryHeap,
            AnyEventQueue::Calendar(_) => QueueKind::Calendar,
        }
    }

    /// Schedules `event` to fire at `time`.
    #[inline]
    pub fn schedule(&mut self, time: SimTime, event: E) {
        match self {
            AnyEventQueue::Heap(q) => q.schedule(time, event),
            AnyEventQueue::Calendar(q) => q.schedule(time, event),
        }
    }

    /// Takes the next `n` insertion sequence numbers without scheduling
    /// anything and returns the first (see the module docs).
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        match self {
            AnyEventQueue::Heap(q) => q.reserve_seqs(n),
            AnyEventQueue::Calendar(q) => q.reserve_seqs(n),
        }
    }

    /// Schedules `event` at `time` under a sequence number obtained
    /// from [`AnyEventQueue::reserve_seqs`]; the insertion counter does
    /// not move. Each reserved number must be used at most once.
    #[inline]
    pub fn schedule_reserved(&mut self, time: SimTime, seq: u64, event: E) {
        match self {
            AnyEventQueue::Heap(q) => q.schedule_reserved(time, seq, event),
            AnyEventQueue::Calendar(q) => q.schedule_reserved(time, seq, event),
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match self {
            AnyEventQueue::Heap(q) => q.pop(),
            AnyEventQueue::Calendar(q) => q.pop(),
        }
    }

    /// The `(time, sequence)` key of the earliest pending event, if any.
    #[inline]
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        match self {
            AnyEventQueue::Heap(q) => q.peek_key(),
            AnyEventQueue::Calendar(q) => q.peek_key(),
        }
    }

    /// The timestamp of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        match self {
            AnyEventQueue::Heap(q) => q.peek_time(),
            AnyEventQueue::Calendar(q) => q.peek_time(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match self {
            AnyEventQueue::Heap(q) => q.len(),
            AnyEventQueue::Calendar(q) => q.len(),
        }
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all pending events, keeping the allocated capacity.
    pub fn clear(&mut self) {
        match self {
            AnyEventQueue::Heap(q) => q.clear(),
            AnyEventQueue::Calendar(q) => q.clear(),
        }
    }

    /// The queue's checkpoint state: every pending `(packed key, event)`
    /// record plus the next insertion sequence number, in an order any
    /// kind can rebuild from (heap layout order for the heap — also what
    /// historical snapshots hold — ascending key order for the
    /// calendar; both are valid heap layouts). Counterpart of
    /// [`AnyEventQueue::from_events`].
    pub fn checkpoint_events(&self) -> (Vec<(u128, E)>, u64)
    where
        E: Clone,
    {
        match self {
            AnyEventQueue::Heap(q) => {
                let (heap, seq) = q.raw_parts();
                (heap.to_vec(), seq)
            }
            AnyEventQueue::Calendar(q) => q.checkpoint_events(),
        }
    }

    /// Rebuilds a queue of the given kind from checkpointed records.
    ///
    /// `events` must come from [`AnyEventQueue::checkpoint_events`] (of
    /// either kind) with record order preserved: restoring a heap from
    /// heap-layout records reproduces the original layout verbatim, so
    /// pops replay exactly as the snapshotted run's would have.
    pub fn from_events(kind: QueueKind, events: Vec<(u128, E)>, seq: u64) -> Self {
        match kind {
            QueueKind::BinaryHeap => AnyEventQueue::Heap(EventQueue::from_raw_parts(events, seq)),
            QueueKind::Calendar => AnyEventQueue::Calendar(CalendarQueue::from_events(events, seq)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[9u64, 3, 7, 1, 5] {
            q.schedule(SimTime::from_secs(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_secs(1), i);
        }
        let out: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_secs(2), ());
        q.schedule(SimTime::from_secs(1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "a");
        q.schedule(SimTime::from_secs(20), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        q.schedule(SimTime::from_secs(15), "c");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn steady_state_pops_keep_capacity() {
        let mut q = EventQueue::with_capacity(8);
        for round in 0..50u64 {
            for i in 0..8 {
                q.schedule(SimTime::from_secs(round * 10 + i), i);
            }
            for _ in 0..8 {
                q.pop().unwrap();
            }
        }
        assert!(q.is_empty());
        assert!(q.heap.capacity() >= 8, "capacity must be retained");
    }

    #[test]
    fn calendar_pops_in_time_order_with_fifo_ties() {
        let mut q = CalendarQueue::new();
        for &t in &[9u64, 3, 7, 1, 5, 3, 3] {
            q.schedule(SimTime::from_secs(t), t);
        }
        let out: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(out, vec![1, 3, 3, 3, 5, 7, 9]);
    }

    #[test]
    fn calendar_handles_sparse_and_past_inserts() {
        let mut q = CalendarQueue::new();
        // A sparse far-future event forces the full-rotation jump...
        q.schedule(SimTime::from_secs(100_000), "far");
        q.schedule(SimTime::from_secs(1), "near");
        assert_eq!(q.pop().unwrap().1, "near");
        // ...and scheduling earlier than the cursor pulls it back.
        q.schedule(SimTime::from_secs(2), "earlier");
        assert_eq!(q.pop().unwrap().1, "earlier");
        assert_eq!(q.pop().unwrap().1, "far");
        assert!(q.pop().is_none());
    }

    #[test]
    fn calendar_matches_heap_under_random_interleavings() {
        use crate::SimRng;
        let mut rng = SimRng::new(2020);
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::new();
        for step in 0..5_000u64 {
            if rng.gen_range_u64(0, 3) < 2 {
                let t = rng.gen_range_u64(0, 10_000);
                heap.schedule(SimTime::from_millis(t), step);
                cal.schedule(SimTime::from_millis(t), step);
            } else {
                assert_eq!(heap.pop(), cal.pop());
            }
            assert_eq!(heap.peek_time(), cal.peek_time());
            assert_eq!(heap.len(), cal.len());
        }
        while let Some(want) = heap.pop() {
            assert_eq!(cal.pop(), Some(want));
        }
        assert!(cal.pop().is_none());
    }

    #[test]
    fn checkpoint_restores_into_either_kind() {
        use crate::SimRng;
        let mut rng = SimRng::new(7);
        let mut q = AnyEventQueue::new(QueueKind::Calendar);
        for i in 0..500u64 {
            q.schedule(SimTime::from_millis(rng.gen_range_u64(0, 2_000)), i);
        }
        for _ in 0..200 {
            q.pop().unwrap();
        }
        let (events, seq) = q.checkpoint_events();
        let mut heap = AnyEventQueue::from_events(QueueKind::BinaryHeap, events.clone(), seq);
        let mut cal = AnyEventQueue::from_events(QueueKind::Calendar, events, seq);
        // New schedules continue the sequence identically on both sides.
        heap.schedule(SimTime::from_millis(500), 9_999);
        cal.schedule(SimTime::from_millis(500), 9_999);
        while let Some(want) = q.pop() {
            // The original keeps popping what both restored queues pop,
            // except the freshly scheduled event they share.
            let got_heap = heap.pop().unwrap();
            let got_cal = cal.pop().unwrap();
            assert_eq!(got_heap, got_cal);
            if got_heap.1 != 9_999 {
                assert_eq!(got_heap, want);
            } else {
                let next_heap = heap.pop().unwrap();
                assert_eq!(next_heap, cal.pop().unwrap());
                assert_eq!(next_heap, want);
            }
        }
    }

    #[test]
    fn reserved_sequence_numbers_keep_their_place_in_the_order() {
        for kind in QueueKind::ALL {
            let mut q = AnyEventQueue::new(kind);
            q.schedule(SimTime::from_secs(1), "first");
            assert_eq!(q.reserve_seqs(2), 1);
            q.schedule(SimTime::from_secs(1), "fourth");
            // Filed late, under the numbers taken before "fourth".
            q.schedule_reserved(SimTime::from_secs(1), 2, "third");
            q.schedule_reserved(SimTime::from_secs(1), 1, "second");
            assert_eq!(q.peek_key(), Some((SimTime::from_secs(1), 0)));
            let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, ["first", "second", "third", "fourth"], "{kind}");
            assert_eq!(q.peek_key(), None);
            // The counter stands where the reservations left it.
            assert_eq!(q.checkpoint_events().1, 4);
        }
    }

    #[test]
    fn calendar_auto_tunes_day_width_from_observed_gaps() {
        let mut q = CalendarQueue::new();
        // A steady 8 ms cadence, popped as it drains so every gap is
        // observed: enough samples to cross the tuner's threshold.
        for i in 0..200u64 {
            q.schedule(SimTime::from_millis(i * 8), i);
        }
        for _ in 0..200 {
            q.pop().unwrap();
        }
        assert!(q.gap_samples >= GAP_MIN_SAMPLES);
        // Median gap is 8 ms (4 significant bits) → 8 ms days.
        assert_eq!(q.tuned_shift(), Some(3));
        // The next redistribution adopts the tuned width.
        let fill = q.buckets.len() + 1;
        for i in 0..fill as u64 {
            q.schedule(SimTime::from_millis(10_000 + i * 8), i);
        }
        assert_eq!(q.day_shift, 3);
        // Pop order stays the packed-key order under the tuned width.
        let mut last = None;
        while let Some((t, _)) = q.pop() {
            assert!(last.is_none_or(|l| t >= l));
            last = Some(t);
        }
    }

    #[test]
    fn fixed_day_width_never_retunes() {
        // 100 ms rounds up to 128 ms days, pinned across regrowth.
        let mut q: CalendarQueue<u64> = CalendarQueue::with_fixed_day_width_ms(100);
        assert_eq!(q.day_shift, 7);
        for i in 0..500u64 {
            q.schedule(SimTime::from_millis(i * 3), i);
        }
        for _ in 0..500 {
            q.pop().unwrap();
        }
        // Plenty of 3 ms gaps observed, but the pinned width holds
        // through another grow.
        let fill = q.buckets.len() + 1;
        for i in 0..fill as u64 {
            q.schedule(SimTime::from_millis(i), i);
        }
        assert_eq!(q.day_shift, 7);
        assert_eq!(q.fixed_shift, Some(7));
    }

    #[test]
    fn queue_kind_parses_and_displays() {
        use std::str::FromStr;
        assert_eq!(QueueKind::from_str("heap"), Ok(QueueKind::BinaryHeap));
        assert_eq!(
            QueueKind::from_str("Binary-Heap"),
            Ok(QueueKind::BinaryHeap)
        );
        assert_eq!(QueueKind::from_str("calendar"), Ok(QueueKind::Calendar));
        assert!(QueueKind::from_str("wheelbarrow").is_err());
        assert_eq!(QueueKind::BinaryHeap.to_string(), "heap");
        assert_eq!(QueueKind::Calendar.to_string(), "calendar");
        assert_eq!(QueueKind::default(), QueueKind::BinaryHeap);
    }

    #[test]
    fn randomized_order_matches_sorted_reference() {
        use crate::SimRng;
        let mut rng = SimRng::new(99);
        let mut q = EventQueue::new();
        let mut want: Vec<(u64, u64)> = Vec::new();
        for i in 0..1000 {
            let t = rng.gen_range_u64(0, 500);
            q.schedule(SimTime::from_millis(t), i);
            want.push((t, i));
        }
        // Stable sort by time preserves insertion order on ties — exactly
        // the queue's contract.
        want.sort_by_key(|&(t, _)| t);
        let got: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_millis(), e))).collect();
        assert_eq!(got, want);
    }
}
