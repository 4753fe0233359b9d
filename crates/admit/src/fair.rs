//! Weighted fair-share picking with anti-starvation aging, the
//! [`Scheduler`](crate::Scheduler)'s
//! [`Dispatch::FairShare`](crate::Dispatch::FairShare) rule.

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
}
