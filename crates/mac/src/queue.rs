//! Per-device priority-aware application data queue.

use std::collections::VecDeque;

use crate::{AppMessage, Priority};

/// The application buffer of a device (§VII.A.4).
///
/// Messages stay queued until the device learns they were delivered (a
/// gateway acknowledgement) or hands them to a neighbour. The queue
/// orders by [`Priority`] — higher classes ahead of lower ones, FIFO
/// within a class — which degenerates to plain FIFO (and costs nothing
/// extra) when every message shares one class, as in the paper's
/// homogeneous workload. The queue is bounded; when full, the **oldest
/// message of the lowest class present** is dropped (freshest-data
/// retention, and urgent traffic is never evicted by background
/// readings) and counted.
///
/// # Example
///
/// ```
/// use mlora_mac::{AppMessage, DataQueue};
/// use mlora_simcore::{MessageId, NodeId, SimTime};
///
/// let mut q = DataQueue::new(2);
/// for i in 0..2 {
///     assert_eq!(q.push(AppMessage::new(MessageId::new(i), NodeId::new(0), SimTime::ZERO)), 0);
/// }
/// // Full: the third push drops the oldest message.
/// assert_eq!(q.push(AppMessage::new(MessageId::new(2), NodeId::new(0), SimTime::ZERO)), 1);
/// assert_eq!(q.len(), 2);
/// assert_eq!(q.dropped(), 1);
/// assert_eq!(q.peek_front(2)[0].id, MessageId::new(1)); // msg-0 was dropped
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DataQueue {
    buf: VecDeque<AppMessage>,
    capacity: usize,
    dropped: u64,
}

impl DataQueue {
    /// Creates a queue holding at most `capacity` messages. Storage
    /// grows with the messages held, not with `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        DataQueue {
            buf: VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Enqueues a message behind every message of its class or higher;
    /// drops (and counts) the oldest lowest-class message if full.
    /// Returns how many messages the push dropped: 0 or 1.
    ///
    /// When all messages share one priority this is exactly the old
    /// FIFO: the back-scan terminates immediately and overflow drops the
    /// head of the queue.
    pub fn push(&mut self, msg: AppMessage) -> u64 {
        let mut dropped = 0;
        if self.buf.len() == self.capacity {
            dropped = self.drop_one_for(msg.priority);
            if self.buf.len() == self.capacity {
                // The newcomer itself is the lowest class in a full
                // queue of strictly higher classes: it is the drop.
                self.dropped += 1;
                return 1;
            }
        }
        // The buffer is ordered by descending priority (stable within a
        // class), so the insertion point is found scanning from the back
        // — zero iterations in the single-class case.
        let mut at = self.buf.len();
        while at > 0 && self.buf[at - 1].priority < msg.priority {
            at -= 1;
        }
        if at == self.buf.len() {
            self.buf.push_back(msg);
        } else {
            self.buf.insert(at, msg);
        }
        dropped
    }

    /// Evicts the oldest message of the lowest class present, provided
    /// that class is no higher than `incoming` (so a low-priority
    /// arrival never evicts queued urgent traffic). Returns how many it
    /// evicted: 0 or 1.
    fn drop_one_for(&mut self, incoming: Priority) -> u64 {
        let Some(lowest) = self.buf.back().map(|m| m.priority) else {
            return 0;
        };
        if lowest > incoming {
            return 0;
        }
        // Descending order means the lowest class is the contiguous tail
        // region; its oldest member is the first element from the front
        // whose priority has dropped to `lowest`. In the uniform-class
        // case the head qualifies immediately, so overflow eviction is a
        // front removal — exactly the legacy FIFO drop.
        let at = self
            .buf
            .iter()
            .position(|m| m.priority == lowest)
            .expect("lowest priority was read from the buffer");
        self.buf.remove(at);
        self.dropped += 1;
        1
    }

    /// Accepts a whole handover bundle: enqueues every message in order
    /// (each by the class-aware [`DataQueue::push`] rule) and returns
    /// how many messages the transfer overflowed — the queue-side hook
    /// forwarding policies move data through.
    ///
    /// # Example
    ///
    /// ```
    /// use mlora_mac::{AppMessage, DataQueue};
    /// use mlora_simcore::{MessageId, NodeId, SimTime};
    ///
    /// let mut q = DataQueue::new(2);
    /// let bundle: Vec<AppMessage> = (0..3)
    ///     .map(|i| AppMessage::new(MessageId::new(i), NodeId::new(1), SimTime::ZERO))
    ///     .collect();
    /// assert_eq!(q.push_bundle(&bundle), 1); // one message overflowed
    /// assert_eq!(q.len(), 2);
    /// ```
    pub fn push_bundle(&mut self, messages: &[AppMessage]) -> u64 {
        messages.iter().map(|msg| self.push(*msg)).sum()
    }

    /// The frontmost `n` messages without removing them (fewer if the
    /// queue is shorter).
    pub fn peek_front(&self, n: usize) -> Vec<AppMessage> {
        self.buf.iter().take(n).copied().collect()
    }

    /// The longest front prefix of at most `n` messages whose payloads
    /// fit `byte_budget` bytes — the bundle-selection primitive for
    /// byte-true frames. Any message whose payload fits the whole budget
    /// on its own is guaranteed inclusion when it reaches the front.
    pub fn peek_front_within(&self, n: usize, byte_budget: usize) -> Vec<AppMessage> {
        let mut out = Vec::new();
        let mut bytes = 0usize;
        for msg in self.buf.iter().take(n) {
            let next = bytes + msg.payload_bytes as usize;
            if next > byte_budget {
                break;
            }
            bytes = next;
            out.push(*msg);
        }
        out
    }

    /// Removes the specific `messages` (by identity) wherever they sit in
    /// the queue; returns how many were found and removed.
    ///
    /// Used when an acknowledgement confirms delivery of an earlier
    /// bundle: new messages may have arrived since, so removal cannot
    /// assume the bundle is still at the front.
    pub fn remove(&mut self, messages: &[AppMessage]) -> usize {
        let before = self.buf.len();
        self.buf.retain(|m| !messages.iter().any(|d| d.id == m.id));
        before - self.buf.len()
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Messages dropped so far due to overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates over queued messages, front (next to transmit) first.
    pub fn iter(&self) -> impl Iterator<Item = &AppMessage> {
        self.buf.iter()
    }

    /// Rebuilds a queue from checkpoint parts: `messages` front-first in
    /// the exact stored order, plus the historical overflow count. The
    /// counterpart of
    /// [`DataQueue::iter`]/[`DataQueue::capacity`]/[`DataQueue::dropped`].
    ///
    /// Returns `None` unless the queue
    /// [`is_well_formed`](DataQueue::is_well_formed).
    pub fn from_parts(
        capacity: usize,
        dropped: u64,
        messages: impl IntoIterator<Item = AppMessage>,
    ) -> Option<Self> {
        let mut buf = VecDeque::new();
        buf.extend(messages);
        let queue = DataQueue {
            buf,
            capacity,
            dropped,
        };
        queue.is_well_formed().then_some(queue)
    }

    /// True if this is a queue [`DataQueue::push`] can build: the
    /// capacity is positive, the messages fit in it, and they run in
    /// descending priority.
    pub fn is_well_formed(&self) -> bool {
        let buf = &self.buf;
        self.capacity > 0
            && buf.len() <= self.capacity
            && buf.iter().is_sorted_by(|a, b| a.priority >= b.priority)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlora_simcore::{MessageId, NodeId, SimTime};

    fn msg(i: u64) -> AppMessage {
        AppMessage::new(MessageId::new(i), NodeId::new(0), SimTime::ZERO)
    }

    fn prio(i: u64, p: Priority) -> AppMessage {
        msg(i).with_traffic(20, 0, p)
    }

    #[test]
    fn fifo_order() {
        let mut q = DataQueue::new(10);
        for i in 0..5 {
            q.push(msg(i));
        }
        let front = q.peek_front(3);
        assert_eq!(
            front.iter().map(|m| m.id.raw()).collect::<Vec<_>>(),
            [0, 1, 2]
        );
    }

    #[test]
    fn overflow_drops_oldest() {
        let mut q = DataQueue::new(3);
        let dropped: Vec<u64> = (0..5).map(|i| q.push(msg(i))).collect();
        assert_eq!(dropped, [0, 0, 0, 1, 1]);
        assert_eq!(q.dropped(), 2);
        let ids: Vec<u64> = q.iter().map(|m| m.id.raw()).collect();
        assert_eq!(ids, [2, 3, 4]);
    }

    #[test]
    fn priority_jumps_the_queue_fifo_within_class() {
        let mut q = DataQueue::new(10);
        q.push(prio(0, Priority::Normal));
        q.push(prio(1, Priority::Low));
        q.push(prio(2, Priority::High));
        q.push(prio(3, Priority::Normal));
        q.push(prio(4, Priority::High));
        let ids: Vec<u64> = q.iter().map(|m| m.id.raw()).collect();
        assert_eq!(ids, [2, 4, 0, 3, 1]);
    }

    #[test]
    fn overflow_evicts_lowest_class_never_urgent() {
        let mut q = DataQueue::new(3);
        q.push(prio(0, Priority::High));
        q.push(prio(1, Priority::Low));
        q.push(prio(2, Priority::Low));
        // A Normal arrival evicts the *oldest Low*, not the head.
        assert_eq!(q.push(prio(3, Priority::Normal)), 1);
        let ids: Vec<u64> = q.iter().map(|m| m.id.raw()).collect();
        assert_eq!(ids, [0, 3, 2]);
        assert_eq!(q.dropped(), 1);
        // A Low arrival into a full queue of higher classes drops itself.
        q.push(prio(4, Priority::High));
        assert_eq!(q.len(), 3);
        assert_eq!(q.push(prio(5, Priority::Low)), 1);
        let ids: Vec<u64> = q.iter().map(|m| m.id.raw()).collect();
        assert_eq!(ids, [0, 4, 3]);
        assert_eq!(q.dropped(), 3);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = DataQueue::new(10);
        q.push(msg(1));
        let peeked = q.peek_front(5);
        assert_eq!(peeked.len(), 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_front_within_respects_byte_budget() {
        let mut q = DataQueue::new(10);
        q.push(prio(0, Priority::Normal).with_traffic(100, 0, Priority::Normal));
        q.push(prio(1, Priority::Normal).with_traffic(100, 0, Priority::Normal));
        q.push(prio(2, Priority::Normal).with_traffic(100, 0, Priority::Normal));
        let bundle = q.peek_front_within(12, 240);
        assert_eq!(bundle.len(), 2);
        // Message-count cap still applies.
        assert_eq!(q.peek_front_within(1, 240).len(), 1);
        // Uniform 20-byte messages reproduce the legacy prefix exactly.
        let mut q = DataQueue::new(20);
        for i in 0..15 {
            q.push(msg(i));
        }
        assert_eq!(q.peek_front_within(12, 240), q.peek_front(12));
    }

    #[test]
    fn push_bundle_counts_only_new_drops() {
        let mut q = DataQueue::new(3);
        // Pre-existing overflow must not leak into the bundle's count.
        for i in 0..4 {
            q.push(msg(i));
        }
        assert_eq!(q.dropped(), 1);
        let bundle: Vec<AppMessage> = (10..14).map(msg).collect();
        assert_eq!(q.push_bundle(&bundle), 4);
        assert_eq!(q.dropped(), 5);
        // Order and class rules match element-wise push exactly.
        let ids: Vec<u64> = q.iter().map(|m| m.id.raw()).collect();
        assert_eq!(ids, [11, 12, 13]);
        // An empty bundle is a no-op.
        assert_eq!(q.push_bundle(&[]), 0);
    }

    #[test]
    fn remove_by_identity_anywhere() {
        let mut q = DataQueue::new(10);
        for i in 0..6 {
            q.push(msg(i));
        }
        let removed = q.remove(&[msg(1), msg(4), msg(99)]);
        assert_eq!(removed, 2);
        let ids: Vec<u64> = q.iter().map(|m| m.id.raw()).collect();
        assert_eq!(ids, [0, 2, 3, 5]);
    }

    #[test]
    fn from_parts_refuses_what_push_never_builds() {
        let mut q = DataQueue::new(3);
        q.push(prio(0, Priority::Low));
        q.push(prio(1, Priority::High));
        let parts = || q.iter().copied().collect::<Vec<_>>();
        assert_eq!(DataQueue::from_parts(3, 0, parts()), Some(q.clone()));
        // Low ahead of High: no sequence of pushes leaves that order.
        let mut swapped = parts();
        swapped.reverse();
        assert_eq!(DataQueue::from_parts(3, 0, swapped), None);
        assert_eq!(DataQueue::from_parts(1, 0, parts()), None);
        assert_eq!(DataQueue::from_parts(0, 0, Vec::new()), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = DataQueue::new(0);
    }
}
