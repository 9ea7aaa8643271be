//! The future-event list, ordered by time and a caller-supplied key.
//!
//! [`KeyedQueue`] orders events by `(time, key)` and breaks remaining ties by insertion
//! sequence. With the unit key `()` that is plain schedule order, which is what the
//! [`Simulator`](crate::Simulator) uses. A parallel engine that merges events produced
//! concurrently by several workers cannot reproduce one global insertion order, so it
//! supplies unique keys instead — identical event sets then pop identically no matter
//! who pushed them first.

use crate::event::EventId;
use crate::time::SimTime;
use std::collections::{BinaryHeap, HashSet};

/// One pending entry; ordered so the `BinaryHeap` max-heap pops the smallest
/// `(time, key, id)` first.
#[derive(Debug)]
struct KeyedEntry<K, E> {
    time: SimTime,
    key: K,
    id: EventId,
    payload: E,
}

impl<K: Ord, E> PartialEq for KeyedEntry<K, E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key && self.id == other.id
    }
}

impl<K: Ord, E> Eq for KeyedEntry<K, E> {}

impl<K: Ord, E> PartialOrd for KeyedEntry<K, E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord, E> Ord for KeyedEntry<K, E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest tuple on top. The id
        // is a final tiebreaker only so the order is total; callers that need
        // schedule-independent determinism must make `(time, key)` unique.
        (&other.time, &other.key, &other.id.0).cmp(&(&self.time, &self.key, &self.id.0))
    }
}

/// A priority queue of timestamped events ordered by `(time, key)` with lazy cancellation.
///
/// * Events pop in ascending `(time, key)` order regardless of push order; equal
///   `(time, key)` pairs pop in push order.
/// * [`KeyedQueue::cancel`] marks an event dead in O(1); dead entries are skipped when
///   they reach the top of the heap.
#[derive(Debug)]
pub struct KeyedQueue<K, E> {
    heap: BinaryHeap<KeyedEntry<K, E>>,
    cancelled: HashSet<u64>,
    next_seq: u64,
    live: usize,
}

impl<K: Ord, E> Default for KeyedQueue<K, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, E> KeyedQueue<K, E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        KeyedQueue { heap: BinaryHeap::new(), cancelled: HashSet::new(), next_seq: 0, live: 0 }
    }

    /// Create an empty queue with room for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        KeyedQueue {
            heap: BinaryHeap::with_capacity(cap),
            cancelled: HashSet::new(),
            next_seq: 0,
            live: 0,
        }
    }

    /// Number of live (not cancelled, not yet popped) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedule `payload` at absolute time `at` with tie-breaking key `key`.
    pub fn push(&mut self, at: SimTime, key: K, payload: E) -> EventId {
        let id = EventId(self.next_seq);
        self.next_seq += 1;
        self.heap.push(KeyedEntry { time: at, key, id, payload });
        self.live += 1;
        id
    }

    /// Cancel a previously scheduled event. Returns `true` if it was still pending.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.0 >= self.next_seq {
            return false;
        }
        if self.cancelled.insert(id.0) && self.live > 0 {
            self.live -= 1;
            return true;
        }
        false
    }

    /// Timestamp of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skim_cancelled();
        self.heap.peek().map(|e| e.time)
    }

    /// Pop the next live event in `(time, key)` order.
    pub fn pop(&mut self) -> Option<(SimTime, K, E)> {
        self.pop_due(SimTime::MAX)
    }

    /// Pop the next live event if it is due by `limit` (its time is at most `limit`);
    /// otherwise leave the queue as it is. One skim of cancelled entries serves both
    /// the check and the pop.
    pub fn pop_due(&mut self, limit: SimTime) -> Option<(SimTime, K, E)> {
        self.skim_cancelled();
        if self.heap.peek()?.time > limit {
            return None;
        }
        let ev = self.heap.pop().expect("peeked entry must pop");
        self.live = self.live.saturating_sub(1);
        Some((ev.time, ev.key, ev.payload))
    }

    /// True when the entry at the top of the heap sorts strictly before `(at, key)`.
    /// The top may be a cancelled entry not yet skimmed, so `true` only says that some
    /// entry might have to pop first; `false` says that none does. No hashing.
    pub fn head_precedes(&self, at: SimTime, key: &K) -> bool {
        self.heap.peek().is_some_and(|top| (top.time, &top.key) < (at, key))
    }

    /// Drop any cancelled entries sitting at the top of the heap.
    fn skim_cancelled(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.cancelled.contains(&top.id.0) {
                let dead = self.heap.pop().expect("peeked entry must pop");
                self.cancelled.remove(&dead.id.0);
            } else {
                break;
            }
        }
    }

    /// Remove all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.cancelled.clear();
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_key_order() {
        let mut q = KeyedQueue::new();
        let t = SimTime::from_secs(1);
        q.push(t, 3u32, "c");
        q.push(SimTime::from_secs(2), 0u32, "d");
        q.push(t, 1, "a");
        q.push(t, 2, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn order_is_independent_of_push_order() {
        let t = SimTime::from_secs(5);
        let keys = [(0u64, 7u64), (1, 0), (0, 2), (2, 9), (1, 5)];
        let mut fwd = KeyedQueue::new();
        for &k in &keys {
            fwd.push(t, k, k);
        }
        let mut rev = KeyedQueue::new();
        for &k in keys.iter().rev() {
            rev.push(t, k, k);
        }
        let a: Vec<_> = std::iter::from_fn(|| fwd.pop()).map(|(_, k, _)| k).collect();
        let b: Vec<_> = std::iter::from_fn(|| rev.pop()).map(|(_, k, _)| k).collect();
        assert_eq!(a, b);
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        assert_eq!(a, sorted);
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q = KeyedQueue::new();
        let _a = q.push(SimTime::from_secs(1), 0u8, "a");
        let b = q.push(SimTime::from_secs(2), 0, "b");
        let _c = q.push(SimTime::from_secs(3), 0, "c");
        assert!(q.cancel(b));
        assert!(!q.cancel(EventId(999)), "unknown ids are not cancellable");
        assert_eq!(q.len(), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, vec!["a", "c"]);
        assert!(q.is_empty());
    }

    #[test]
    fn unit_key_ties_pop_in_schedule_order() {
        let mut q = KeyedQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.push(t, (), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = KeyedQueue::new();
        let a = q.push(SimTime::from_secs(1), (), ());
        q.push(SimTime::from_secs(2), (), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = KeyedQueue::new();
        q.push(SimTime::from_secs(1), (), ());
        q.clear();
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn pop_due_stops_at_the_limit_and_skips_cancelled_entries() {
        let mut q = KeyedQueue::new();
        let a = q.push(SimTime::from_secs(1), 0u8, "a");
        q.push(SimTime::from_secs(2), 0, "b");
        q.push(SimTime::from_secs(3), 0, "c");
        q.cancel(a);
        assert!(q.pop_due(SimTime::from_nanos(1_999_999_999)).is_none(), "b is not due yet");
        assert_eq!(q.len(), 2, "a refused pop leaves every live event queued");
        assert_eq!(q.pop_due(SimTime::from_secs(2)).map(|(_, _, p)| p), Some("b"));
        assert!(q.pop_due(SimTime::from_secs(2)).is_none());
        assert_eq!(q.pop_due(SimTime::MAX).map(|(_, _, p)| p), Some("c"));
        assert!(q.pop_due(SimTime::MAX).is_none());
    }

    #[test]
    fn head_precedes_compares_time_then_key() {
        let mut q = KeyedQueue::new();
        let t = SimTime::from_secs(1);
        assert!(!q.head_precedes(t, &5u32), "an empty queue precedes nothing");
        q.push(t, 5u32, ());
        assert!(q.head_precedes(t, &6));
        assert!(!q.head_precedes(t, &5), "equal keys do not precede");
        assert!(!q.head_precedes(t, &4));
        assert!(q.head_precedes(SimTime::from_secs(2), &0));
    }

    #[test]
    fn peek_time_sees_next_live_event() {
        let mut q = KeyedQueue::new();
        let a = q.push(SimTime::from_secs(1), 0u8, ());
        q.push(SimTime::from_secs(2), 0, ());
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        q.clear();
        assert!(q.pop().is_none());
    }
}
