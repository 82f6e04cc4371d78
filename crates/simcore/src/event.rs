//! A timestamped event queue with deterministic FIFO tie-breaking.
//!
//! [`EventQueue`] is a binary min-heap whose events pop in packed
//! `(time, sequence)` order: `O(log n)` per operation and
//! branch-predictable. It is the only queue the simulator runs on: queue
//! time is a few percent of an event's cost, so no other structure can
//! move a run (EXPERIMENTS.md, "Removed: calendar queue").
//!
//! # Reserved sequence numbers
//!
//! A caller that knows a block of events in advance — a timetable of
//! departures, say — need not hold them in the queue. It takes their
//! sequence numbers with [`EventQueue::reserve_seqs`], keeps the
//! events in whatever presorted form it already has, and merges that
//! source with the queue by comparing its next `(time, seq)` against
//! [`EventQueue::peek_key`]. Follow-ups that belong to the block
//! enter the queue under their reserved number through
//! [`EventQueue::schedule_reserved`]. The merged pop order is exactly
//! what scheduling the whole block up front would have produced, while
//! the queue holds only events that are live.

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

    /// Rebuilds a queue from state captured by [`EventQueue::raw_parts`],
    /// or returns `None` when `heap` is not a binary min-heap over the
    /// packed priority words, or holds a sequence number at or past the
    /// counter `seq` — the records usually come from a file, and a queue
    /// built on anything else would pop out of order or issue a number
    /// twice.
    ///
    /// A valid layout (any slice returned by [`EventQueue::raw_parts`],
    /// or any ascending run of keys) is restored verbatim, so subsequent
    /// pops replay in exactly the original order.
    pub fn from_raw_parts(heap: Vec<(u128, E)>, seq: u64) -> Option<Self> {
        let heap_order = (1..heap.len()).all(|i| heap[(i - 1) / 2].0 <= heap[i].0);
        let issued = heap.iter().all(|&(key, _)| (key as u64) < seq);
        (heap_order && issued).then_some(EventQueue { heap, seq })
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
    fn reserved_sequence_numbers_keep_their_place_in_the_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "first");
        assert_eq!(q.reserve_seqs(2), 1);
        q.schedule(SimTime::from_secs(1), "fourth");
        // Filed late, under the numbers taken before "fourth".
        q.schedule_reserved(SimTime::from_secs(1), 2, "third");
        q.schedule_reserved(SimTime::from_secs(1), 1, "second");
        assert_eq!(q.peek_key(), Some((SimTime::from_secs(1), 0)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["first", "second", "third", "fourth"]);
        assert_eq!(q.peek_key(), None);
        // The counter stands where the reservations left it.
        assert_eq!(q.raw_parts().1, 4);
    }

    #[test]
    fn raw_parts_rebuild_the_queue_and_refuse_a_non_heap() {
        let mut q = EventQueue::new();
        for (i, &t) in [9u64, 3, 7, 1, 5, 3].iter().enumerate() {
            q.schedule(SimTime::from_secs(t), i);
        }
        q.pop().unwrap();
        let (heap, seq) = q.raw_parts();
        let mut rebuilt = EventQueue::from_raw_parts(heap.to_vec(), seq).expect("a heap layout");
        // A child ahead of its parent is no heap.
        let mut broken = heap.to_vec();
        broken.reverse();
        assert!(EventQueue::from_raw_parts(broken, seq).is_none());
        // A counter at or below a queued number would issue it again.
        let newest = heap.iter().map(|&(key, _)| key as u64).max().unwrap();
        assert!(EventQueue::from_raw_parts(heap.to_vec(), newest).is_none());
        assert!(EventQueue::from_raw_parts(heap.to_vec(), newest + 1).is_some());
        // New schedules continue the sequence identically on both sides.
        q.schedule(SimTime::from_secs(3), 99);
        rebuilt.schedule(SimTime::from_secs(3), 99);
        while let Some(want) = q.pop() {
            assert_eq!(rebuilt.pop(), Some(want));
        }
        assert!(rebuilt.is_empty());
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
