//! Bounded per-class FIFO queues with overflow accounting.

use std::collections::VecDeque;

use crate::policy::OverflowPolicy;

/// Outcome of offering one item to a [`ClassQueues`].
#[derive(Debug, PartialEq, Eq)]
pub enum Admission<T> {
    /// The item was enqueued.
    Admitted,
    /// The queue was full and the policy turned the newcomer away.
    Rejected(T),
    /// The newcomer was enqueued and the oldest entry displaced; the
    /// displaced item is returned so the caller can account for it.
    Shed(T),
}

struct Entry<T> {
    item: T,
    enqueued_at: f64,
}

/// A set of FIFO queues, one per class, with optional capacity bounds
/// and high-water-mark tracking.
///
/// Time is an abstract `f64` supplied by the caller (virtual hours in
/// the simulator, milliseconds in the engine); the queues only ever
/// compare and subtract it.
pub struct ClassQueues<T> {
    queues: Vec<VecDeque<Entry<T>>>,
    peak_depth: Vec<usize>,
}

impl<T> ClassQueues<T> {
    pub fn new(classes: usize) -> Self {
        assert!(classes > 0, "at least one class");
        Self {
            queues: (0..classes).map(|_| VecDeque::new()).collect(),
            peak_depth: vec![0; classes],
        }
    }

    pub fn classes(&self) -> usize {
        self.queues.len()
    }

    /// Offer one item to `class` at time `now`. `capacity` of `None`
    /// means unbounded.
    pub fn offer(
        &mut self,
        class: usize,
        item: T,
        now: f64,
        capacity: Option<usize>,
        overflow: OverflowPolicy,
    ) -> Admission<T> {
        let queue = &mut self.queues[class];
        let full = capacity.is_some_and(|cap| queue.len() >= cap);
        let outcome = if !full {
            queue.push_back(Entry {
                item,
                enqueued_at: now,
            });
            Admission::Admitted
        } else {
            match overflow {
                OverflowPolicy::Reject => Admission::Rejected(item),
                OverflowPolicy::ShedOldest => {
                    // Capacity zero: nothing can be held, the newcomer
                    // itself is the shed entry.
                    match queue.pop_front() {
                        Some(oldest) => {
                            queue.push_back(Entry {
                                item,
                                enqueued_at: now,
                            });
                            Admission::Shed(oldest.item)
                        }
                        None => Admission::Shed(item),
                    }
                }
            }
        };
        self.peak_depth[class] = self.peak_depth[class].max(self.queues[class].len());
        outcome
    }

    /// Remove and return the head of `class` plus the time it was
    /// enqueued.
    pub fn pop_front(&mut self, class: usize) -> Option<(T, f64)> {
        self.queues[class]
            .pop_front()
            .map(|e| (e.item, e.enqueued_at))
    }

    /// Puts a once-admitted `item` back into `class` at time `now`,
    /// ahead of every entry with a larger `key`, so a queue kept in
    /// `key` order stays in it. The capacity bound does not apply: the
    /// item was counted when it was first offered.
    pub fn requeue<K: Ord>(&mut self, class: usize, item: T, now: f64, key: impl Fn(&T) -> K) {
        let queue = &mut self.queues[class];
        let at = queue.partition_point(|e| key(&e.item) < key(&item));
        queue.insert(
            at,
            Entry {
                item,
                enqueued_at: now,
            },
        );
        self.peak_depth[class] = self.peak_depth[class].max(queue.len());
    }

    /// How long the head-of-line entry of `class` has waited by `now`,
    /// if the queue is non-empty.
    pub fn head_wait(&self, class: usize, now: f64) -> Option<f64> {
        self.queues[class].front().map(|e| now - e.enqueued_at)
    }

    pub fn depth(&self, class: usize) -> usize {
        self.queues[class].len()
    }

    /// High-water mark of `class`'s depth since construction.
    pub fn peak_depth(&self, class: usize) -> usize {
        self.peak_depth[class]
    }

    pub fn total(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_admits_everything() {
        let mut q = ClassQueues::new(2);
        for i in 0..1000 {
            assert_eq!(
                q.offer(i % 2, i, i as f64, None, OverflowPolicy::Reject),
                Admission::Admitted
            );
        }
        assert_eq!(q.total(), 1000);
        assert_eq!(q.peak_depth(0), 500);
    }

    #[test]
    fn bounded_rejects_overflow_and_keeps_fifo_order() {
        let mut q = ClassQueues::new(1);
        assert_eq!(
            q.offer(0, "a", 0.0, Some(2), OverflowPolicy::Reject),
            Admission::Admitted
        );
        assert_eq!(
            q.offer(0, "b", 1.0, Some(2), OverflowPolicy::Reject),
            Admission::Admitted
        );
        assert_eq!(
            q.offer(0, "c", 2.0, Some(2), OverflowPolicy::Reject),
            Admission::Rejected("c")
        );
        assert_eq!(q.pop_front(0), Some(("a", 0.0)));
        assert_eq!(q.pop_front(0), Some(("b", 1.0)));
        assert_eq!(q.pop_front(0), None);
        assert_eq!(q.peak_depth(0), 2);
    }

    #[test]
    fn shed_oldest_displaces_the_head() {
        let mut q = ClassQueues::new(1);
        q.offer(0, "a", 0.0, Some(2), OverflowPolicy::ShedOldest);
        q.offer(0, "b", 1.0, Some(2), OverflowPolicy::ShedOldest);
        assert_eq!(
            q.offer(0, "c", 2.0, Some(2), OverflowPolicy::ShedOldest),
            Admission::Shed("a")
        );
        assert_eq!(q.depth(0), 2);
        assert_eq!(q.pop_front(0), Some(("b", 1.0)));
        assert_eq!(q.pop_front(0), Some(("c", 2.0)));
    }

    #[test]
    fn shed_with_zero_capacity_sheds_the_newcomer() {
        let mut q = ClassQueues::new(1);
        assert_eq!(
            q.offer(0, "a", 0.0, Some(0), OverflowPolicy::ShedOldest),
            Admission::Shed("a")
        );
        assert!(q.is_empty());
    }

    #[test]
    fn requeue_restores_key_order_past_the_bound() {
        let mut q = ClassQueues::new(1);
        q.offer(0, 1, 0.0, Some(2), OverflowPolicy::Reject);
        q.offer(0, 4, 1.0, Some(2), OverflowPolicy::Reject);
        q.requeue(0, 3, 5.0, |&k| k);
        q.requeue(0, 0, 6.0, |&k| k);
        assert_eq!(q.depth(0), 4, "a requeue ignores the capacity");
        assert_eq!(q.peak_depth(0), 4);
        assert_eq!(q.pop_front(0), Some((0, 6.0)));
        assert_eq!(q.pop_front(0), Some((1, 0.0)));
        assert_eq!(q.pop_front(0), Some((3, 5.0)));
        assert_eq!(q.pop_front(0), Some((4, 1.0)));
    }

    #[test]
    fn head_wait_measures_from_enqueue() {
        let mut q = ClassQueues::new(1);
        q.offer(0, "a", 5.0, None, OverflowPolicy::Reject);
        assert_eq!(q.head_wait(0, 8.0), Some(3.0));
        assert_eq!(q.head_wait(0, 5.0), Some(0.0));
    }
}
