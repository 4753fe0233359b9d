//! The one scheduler the simulated hub, the live hub and the batch
//! engine all drive: bounded per-class FIFO queues behind per-class
//! token buckets, drained by strict priority or aged fair share.

use std::collections::VecDeque;

use crate::fair::FairShare;
use crate::limiter::TokenBucket;
use crate::policy::{AdmissionPolicy, OverflowPolicy};

/// How the scheduler picks the class to serve next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Lowest class index first (interactive beginner jobs ahead of
    /// advanced batch jobs), FIFO within a class.
    StrictPriority,
    /// Weighted fair share with an anti-starvation aging bonus, from
    /// [`AdmissionPolicy::weights`] and [`AdmissionPolicy::aging_rate`].
    FairShare,
}

/// Outcome of [`Scheduler::offer`].
#[derive(Debug, PartialEq, Eq)]
pub enum Admission<T> {
    /// The item was enqueued.
    Admitted,
    /// The class's token bucket was empty; the item never reached the
    /// queue.
    RateLimited(T),
    /// The queue was full and the policy turned the newcomer away.
    Rejected(T),
    /// The newcomer was enqueued and the oldest entry displaced; the
    /// displaced item is returned so the caller can account for it.
    Shed(T),
}

/// One class's admission and dispatch accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassStats {
    /// Items offered.
    pub offered: usize,
    /// Items enqueued, including ones later shed.
    pub admitted: usize,
    /// Items turned away, rate-limited or queue-full.
    pub rejected: usize,
    /// Admitted items displaced by newer arrivals.
    pub shed: usize,
    /// High-water mark of the queue depth.
    pub peak_depth: usize,
    /// Longest wait of any item handed out by [`Scheduler::next`].
    pub max_wait: f64,
}

/// Admission and dispatch for a set of classes, as a pure state machine.
///
/// [`offer`](Self::offer) applies the class's token bucket and then its
/// bounded queue; [`next`](Self::next) picks a class by the [`Dispatch`]
/// rule and hands out its head. The scheduler owns no threads and reads
/// no clock: every call takes `now` on whatever clock the caller keeps —
/// virtual hours in the simulator, wall seconds in the live hub, a
/// constant zero for a batch that arrives as one burst — and only
/// compares and subtracts it, so the same calls always make the same
/// decisions.
pub struct Scheduler<T> {
    capacity: Option<usize>,
    overflow: OverflowPolicy,
    dispatch: Dispatch,
    buckets: Vec<Option<TokenBucket>>,
    fair: FairShare,
    /// Per class, each waiting item with the time it was enqueued.
    queues: Vec<VecDeque<(T, f64)>>,
    stats: Vec<ClassStats>,
}

impl<T> Scheduler<T> {
    /// A scheduler over `policy.classes()` empty classes with full token
    /// buckets.
    #[must_use]
    pub fn new(policy: AdmissionPolicy, dispatch: Dispatch) -> Self {
        let classes = policy.classes();
        Self {
            capacity: policy.queue_capacity,
            overflow: policy.overflow,
            dispatch,
            buckets: policy
                .rate_limits
                .iter()
                .map(|limit| limit.map(TokenBucket::new))
                .collect(),
            fair: FairShare::new(policy.weights, policy.aging_rate),
            queues: (0..classes).map(|_| VecDeque::new()).collect(),
            stats: vec![ClassStats::default(); classes],
        }
    }

    /// Offers `item` to `class` at time `now`: the class's token bucket
    /// first, then its bounded queue.
    pub fn offer(&mut self, class: usize, item: T, now: f64) -> Admission<T> {
        let within_rate = self.buckets[class]
            .as_mut()
            .is_none_or(|bucket| bucket.try_acquire(now));
        let queue = &mut self.queues[class];
        let full = self.capacity.is_some_and(|cap| queue.len() >= cap);
        let admission = match (within_rate, full, self.overflow) {
            (false, _, _) => Admission::RateLimited(item),
            (true, true, OverflowPolicy::Reject) => Admission::Rejected(item),
            (true, true, OverflowPolicy::ShedOldest) => match queue.pop_front() {
                Some((oldest, _)) => {
                    queue.push_back((item, now));
                    Admission::Shed(oldest)
                }
                // Capacity zero holds nothing: the newcomer itself is shed.
                None => Admission::Shed(item),
            },
            (true, false, _) => {
                queue.push_back((item, now));
                Admission::Admitted
            }
        };
        let stats = &mut self.stats[class];
        stats.offered += 1;
        stats.peak_depth = stats.peak_depth.max(queue.len());
        match admission {
            Admission::Admitted => stats.admitted += 1,
            Admission::RateLimited(_) | Admission::Rejected(_) => stats.rejected += 1,
            Admission::Shed(_) => {
                stats.admitted += 1;
                stats.shed += 1;
            }
        }
        admission
    }

    /// Picks a class at time `now` and removes its head: the class, the
    /// item and the time it was enqueued. `None` when every queue is
    /// empty.
    pub fn next(&mut self, now: f64) -> Option<(usize, T, f64)> {
        let head_waits = self
            .queues
            .iter()
            .enumerate()
            .filter_map(|(class, queue)| Some((class, now - queue.front()?.1)));
        let class = match self.dispatch {
            Dispatch::StrictPriority => head_waits.map(|(class, _)| class).next(),
            Dispatch::FairShare => self.fair.pick(head_waits),
        }?;
        let (item, enqueued_at) = self.queues[class].pop_front()?;
        let stats = &mut self.stats[class];
        stats.max_wait = stats.max_wait.max(now - enqueued_at);
        Some((class, item, enqueued_at))
    }

    /// Accounts `service` time units of work against `class`'s fair
    /// share.
    pub fn charge(&mut self, class: usize, service: f64) {
        self.fair.charge(class, service);
    }

    /// Puts a once-admitted `item` back into `class` at time `now`, ahead
    /// of every entry with a larger `key`, so a queue kept in `key` order
    /// stays in it. Neither the token bucket nor the capacity bound
    /// applies: the item was counted when it was first offered.
    pub fn requeue<K: Ord>(&mut self, class: usize, item: T, now: f64, key: impl Fn(&T) -> K) {
        let queue = &mut self.queues[class];
        let at = queue.partition_point(|(queued, _)| key(queued) < key(&item));
        queue.insert(at, (item, now));
        let stats = &mut self.stats[class];
        stats.peak_depth = stats.peak_depth.max(queue.len());
    }

    /// Takes the first item in `class` that `matches` out of its queue
    /// without serving it (a cancelled job), freeing its place. Its
    /// admission stays counted; `None` when no waiting item matches.
    pub fn withdraw(&mut self, class: usize, matches: impl Fn(&T) -> bool) -> Option<T> {
        let queue = &mut self.queues[class];
        let at = queue.iter().position(|(item, _)| matches(item))?;
        queue.remove(at).map(|(item, _)| item)
    }

    /// Items waiting in `class`.
    #[must_use]
    pub fn depth(&self, class: usize) -> usize {
        self.queues[class].len()
    }

    /// `class`'s accounting so far.
    #[must_use]
    pub fn stats(&self, class: usize) -> ClassStats {
        self.stats[class]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RateLimit;

    fn bounded<T>(capacity: usize) -> Scheduler<T> {
        Scheduler::new(
            AdmissionPolicy::bounded(1, capacity),
            Dispatch::StrictPriority,
        )
    }

    fn shedding<T>(capacity: usize) -> Scheduler<T> {
        Scheduler::new(
            AdmissionPolicy::bounded(1, capacity).with_shed_oldest(),
            Dispatch::StrictPriority,
        )
    }

    #[test]
    fn unbounded_admits_everything() {
        let mut s = Scheduler::new(AdmissionPolicy::unbounded(2), Dispatch::FairShare);
        for i in 0..1000 {
            assert_eq!(s.offer(i % 2, i, i as f64), Admission::Admitted);
        }
        assert_eq!(s.depth(0) + s.depth(1), 1000);
        assert_eq!(s.stats(0).peak_depth, 500);
    }

    #[test]
    fn bounded_rejects_overflow_and_keeps_fifo_order() {
        let mut s = bounded(2);
        assert_eq!(s.offer(0, "a", 0.0), Admission::Admitted);
        assert_eq!(s.offer(0, "b", 1.0), Admission::Admitted);
        assert_eq!(s.offer(0, "c", 2.0), Admission::Rejected("c"));
        assert_eq!(s.next(3.0), Some((0, "a", 0.0)));
        assert_eq!(s.next(3.0), Some((0, "b", 1.0)));
        assert_eq!(s.next(3.0), None);
        assert_eq!(s.stats(0).peak_depth, 2);
    }

    #[test]
    fn shed_oldest_displaces_the_head() {
        let mut s = shedding(2);
        s.offer(0, "a", 0.0);
        s.offer(0, "b", 1.0);
        assert_eq!(s.offer(0, "c", 2.0), Admission::Shed("a"));
        assert_eq!(s.depth(0), 2);
        assert_eq!(s.next(3.0), Some((0, "b", 1.0)));
        assert_eq!(s.next(3.0), Some((0, "c", 2.0)));
    }

    #[test]
    fn shed_with_zero_capacity_sheds_the_newcomer() {
        let mut s = shedding(0);
        assert_eq!(s.offer(0, "a", 0.0), Admission::Shed("a"));
        assert_eq!(s.depth(0), 0);
    }

    #[test]
    fn requeue_restores_key_order_past_the_bound() {
        let mut s = bounded(2);
        s.offer(0, 1, 0.0);
        s.offer(0, 4, 1.0);
        s.requeue(0, 3, 5.0, |&k| k);
        s.requeue(0, 0, 6.0, |&k| k);
        assert_eq!(s.depth(0), 4, "a requeue ignores the capacity");
        assert_eq!(s.stats(0).peak_depth, 4);
        assert_eq!(s.next(7.0), Some((0, 0, 6.0)));
        assert_eq!(s.next(7.0), Some((0, 1, 0.0)));
        assert_eq!(s.next(7.0), Some((0, 3, 5.0)));
        assert_eq!(s.next(7.0), Some((0, 4, 1.0)));
    }

    #[test]
    fn withdraw_frees_a_place_in_the_bound() {
        let mut s = bounded(2);
        s.offer(0, "a", 0.0);
        s.offer(0, "b", 1.0);
        assert_eq!(s.withdraw(0, |&item| item == "a"), Some("a"));
        assert_eq!(s.withdraw(0, |&item| item == "a"), None);
        assert_eq!(s.offer(0, "c", 2.0), Admission::Admitted);
        assert_eq!(s.next(3.0), Some((0, "b", 1.0)));
        assert_eq!(s.next(3.0), Some((0, "c", 2.0)));
        assert_eq!(s.stats(0).admitted, 3, "a withdrawn item stays admitted");
    }

    #[test]
    fn head_wait_measures_from_enqueue() {
        let mut s = bounded(2);
        s.offer(0, "a", 5.0);
        assert_eq!(s.next(8.0), Some((0, "a", 5.0)));
        assert_eq!(s.stats(0).max_wait, 3.0);
        s.offer(0, "b", 9.0);
        s.next(9.0);
        assert_eq!(s.stats(0).max_wait, 3.0, "the longest wait is kept");
    }

    #[test]
    fn rate_limit_comes_before_the_queue_bound() {
        let policy = AdmissionPolicy::bounded(1, 1).with_rate_limit(
            0,
            RateLimit {
                rate: 1.0,
                burst: 2.0,
            },
        );
        let mut s = Scheduler::new(policy, Dispatch::FairShare);
        assert_eq!(s.offer(0, "a", 0.0), Admission::Admitted);
        assert_eq!(s.offer(0, "b", 0.0), Admission::Rejected("b"));
        assert_eq!(s.offer(0, "c", 0.0), Admission::RateLimited("c"));
        let stats = s.stats(0);
        assert_eq!(
            (stats.offered, stats.admitted, stats.rejected),
            (3, 1, 2),
            "a rate-limited offer counts as rejected"
        );
    }

    #[test]
    fn strict_priority_serves_the_lowest_class_first() {
        let mut s = Scheduler::new(AdmissionPolicy::unbounded(2), Dispatch::StrictPriority);
        s.charge(0, 100.0); // usage does not move strict priority
        s.offer(1, "late", 0.0);
        s.offer(0, "early", 1.0);
        assert_eq!(s.next(4.0), Some((0, "early", 1.0)));
        assert_eq!(s.next(5.0), Some((1, "late", 0.0)));
        assert_eq!(s.next(6.0), None);
        assert_eq!(s.stats(1).max_wait, 5.0);
    }
}
