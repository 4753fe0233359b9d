//! Weighted fair-share picking with anti-starvation aging, the
//! [`Scheduler`](crate::Scheduler)'s
//! [`Dispatch::FairShare`](crate::Dispatch::FairShare) rule, plus a
//! deterministic weighted interleave for burst submissions.

/// Weighted fair-share scheduler state.
///
/// Each class accrues *normalized usage* — service time divided by its
/// weight — and the picker serves the eligible class with the lowest
/// score, where
///
/// ```text
/// score(c) = served(c) / weight(c) − aging_rate · head_wait(c)
/// ```
///
/// The first term is classic weighted fair sharing: a class that has
/// consumed more than its share scores high and yields. The second is
/// the anti-starvation aging bonus: the longer a class's head-of-line
/// entry has waited, the lower its score, without bound — so *every*
/// queued entry is eventually served no matter how heavily the other
/// classes press (the starvation property test in `tests/properties.rs`
/// pins this down). Ties break toward the lowest class index, which
/// keeps the whole scheduler deterministic.
#[derive(Debug, Clone)]
pub(crate) struct FairShare {
    weights: Vec<f64>,
    aging_rate: f64,
    served: Vec<f64>,
}

impl FairShare {
    pub(crate) fn new(weights: Vec<f64>, aging_rate: f64) -> Self {
        assert!(!weights.is_empty(), "at least one class");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "weights must be finite and positive"
        );
        assert!(
            aging_rate.is_finite() && aging_rate >= 0.0,
            "aging rate must be finite and non-negative"
        );
        let served = vec![0.0; weights.len()];
        Self {
            weights,
            aging_rate,
            served,
        }
    }

    /// Chooses which class to serve next from `(class, head wait)` for
    /// each non-empty class, in class order. Returns `None` when there
    /// are none.
    pub(crate) fn pick(&self, head_waits: impl IntoIterator<Item = (usize, f64)>) -> Option<usize> {
        let mut best: Option<(f64, usize)> = None;
        for (class, wait) in head_waits {
            let score = self.served[class] / self.weights[class] - self.aging_rate * wait;
            // Strict `<` keeps ties on the lowest class index.
            if best.is_none_or(|(s, _)| score < s) {
                best = Some((score, class));
            }
        }
        best.map(|(_, class)| class)
    }

    /// Account `service` time units of work against `class`.
    pub(crate) fn charge(&mut self, class: usize, service: f64) {
        self.served[class] += service;
    }
}

/// Deterministically interleave per-class FIFO lists by weight using
/// smooth weighted round-robin: at each step every non-exhausted class
/// gains its weight in credit, the highest-credit class (ties to the
/// lowest index) emits its next item and pays back the total weight in
/// play.
///
/// This is the burst-submission counterpart of fair-share dispatch: when
/// an entire batch arrives at once there are no waits to age on, but the
/// emitted order still honors the weights — e.g. weights `[2, 1]` over
/// classes `A`/`B` yield `A A B A A B …` — while preserving FIFO order
/// within each class.
pub fn interleave_by_weight<T>(lists: Vec<Vec<T>>, weights: &[f64]) -> Vec<T> {
    assert_eq!(lists.len(), weights.len(), "one weight per class");
    assert!(
        weights.iter().all(|w| w.is_finite() && *w > 0.0),
        "weights must be finite and positive"
    );
    let mut queues: Vec<std::collections::VecDeque<T>> =
        lists.into_iter().map(Into::into).collect();
    let mut credit = vec![0.0; queues.len()];
    let total: usize = queues.iter().map(|q| q.len()).sum();
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        let active: f64 = queues
            .iter()
            .zip(weights)
            .filter(|(q, _)| !q.is_empty())
            .map(|(_, w)| *w)
            .sum();
        let mut best: Option<(f64, usize)> = None;
        for (class, queue) in queues.iter().enumerate() {
            if queue.is_empty() {
                continue;
            }
            credit[class] += weights[class];
            // Strict `>` keeps ties on the lowest class index.
            if best.is_none_or(|(c, _)| credit[class] > c) {
                best = Some((credit[class], class));
            }
        }
        let (_, class) = best.expect("non-empty classes remain");
        credit[class] -= active;
        out.push(
            queues[class]
                .pop_front()
                .expect("picked class is non-empty"),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdmissionPolicy, Dispatch, Scheduler};

    #[test]
    fn under_equal_usage_lowest_class_wins_ties() {
        let fair = FairShare::new(vec![1.0, 1.0, 1.0], 0.0);
        assert_eq!(fair.pick([(0, 1.0), (1, 1.0), (2, 1.0)]), Some(0));
    }

    #[test]
    fn heavier_usage_yields_to_lighter_classes() {
        let mut fair = FairShare::new(vec![1.0, 1.0], 0.0);
        fair.charge(0, 10.0);
        assert_eq!(fair.pick([(0, 1.0), (1, 1.0)]), Some(1));
    }

    #[test]
    fn weights_scale_usage() {
        let mut fair = FairShare::new(vec![4.0, 1.0], 0.0);
        fair.charge(0, 3.0); // usage 0.75
        fair.charge(1, 1.0); // usage 1.0
        assert_eq!(
            fair.pick([(0, 1.0), (1, 1.0)]),
            Some(0),
            "weight 4 class is still under its share"
        );
    }

    #[test]
    fn aging_eventually_overrides_usage() {
        let mut fair = FairShare::new(vec![1.0, 1.0], 0.5);
        // Class 1 is 30 units over its share, but its head entry has
        // waited 100 units vs class 0's 1: 30 − 0.5·100 = −20 beats
        // 0 − 0.5·1 = −0.5.
        fair.charge(1, 30.0);
        assert_eq!(
            fair.pick([(0, 1.0), (1, 100.0)]),
            Some(1),
            "a long wait outweighs excess usage"
        );
    }

    #[test]
    fn pick_skips_empty_classes() {
        let mut s = Scheduler::new(AdmissionPolicy::unbounded(3), Dispatch::FairShare);
        s.offer(2, 7usize, 0.0);
        assert_eq!(s.next(1.0), Some((2, 7, 0.0)));
        assert_eq!(s.next(1.0), None);
    }

    #[test]
    fn interleave_two_to_one() {
        let lists = vec![vec!["a1", "a2", "a3", "a4"], vec!["b1", "b2"]];
        let out = interleave_by_weight(lists, &[2.0, 1.0]);
        // Smooth WRR spreads the lighter class evenly: 2:1 in every
        // window of three, not a burst of a's followed by all the b's.
        assert_eq!(out, vec!["a1", "b1", "a2", "a3", "b2", "a4"]);
    }

    #[test]
    fn interleave_preserves_fifo_within_class() {
        let lists = vec![vec![0, 1, 2, 3], vec![10, 11, 12, 13]];
        let out = interleave_by_weight(lists, &[1.0, 3.0]);
        let a: Vec<_> = out.iter().copied().filter(|x| *x < 10).collect();
        let b: Vec<_> = out.iter().copied().filter(|x| *x >= 10).collect();
        assert_eq!(a, vec![0, 1, 2, 3]);
        assert_eq!(b, vec![10, 11, 12, 13]);
    }

    #[test]
    fn interleave_drains_exhausted_classes() {
        let lists = vec![vec![1], vec![10, 11, 12]];
        let out = interleave_by_weight(lists, &[5.0, 1.0]);
        assert_eq!(out, vec![1, 10, 11, 12]);
    }
}
