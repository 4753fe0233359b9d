//! Admission policy: the knob bundle a [`Scheduler`](crate::Scheduler)
//! is built from.

use serde::{Deserialize, Serialize};

/// What to do when a bounded class queue is full and another job
/// arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverflowPolicy {
    /// Turn the newcomer away; the queue keeps its oldest work.
    Reject,
    /// Admit the newcomer and displace the oldest queued entry. Favors
    /// freshness (the displaced job has already waited longest and is
    /// the most likely to miss any deadline).
    ShedOldest,
}

/// Token-bucket parameters for one class: a sustained `rate` (tokens
/// per time unit) with a `burst` ceiling.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateLimit {
    pub rate: f64,
    pub burst: f64,
}

/// Everything an admission-controlled scheduler needs to know, bundled.
///
/// The defaults are inert: unbounded queues, no rate limits, equal
/// weights and no aging — byte-identical behaviour to a plain FIFO
/// per-class scheduler. Builders layer restrictions on top.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionPolicy {
    /// Per-class queue capacity; `None` means unbounded.
    pub queue_capacity: Option<usize>,
    /// What happens when a bounded queue overflows.
    pub overflow: OverflowPolicy,
    /// Optional per-class token-bucket limits (indexed by class).
    pub rate_limits: Vec<Option<RateLimit>>,
    /// Fair-share weights per class; larger weight = larger share of
    /// service time.
    pub weights: Vec<f64>,
    /// Anti-starvation aging: priority credit granted per time unit a
    /// class's head-of-line entry has waited. Zero disables aging.
    pub aging_rate: f64,
}

impl AdmissionPolicy {
    /// An inert policy over `classes` classes: everything admitted,
    /// equal weights, no aging.
    pub fn unbounded(classes: usize) -> Self {
        assert!(classes > 0, "at least one class");
        Self {
            queue_capacity: None,
            overflow: OverflowPolicy::Reject,
            rate_limits: vec![None; classes],
            weights: vec![1.0; classes],
            aging_rate: 0.0,
        }
    }

    /// Bounded queues of `capacity` entries per class, rejecting
    /// overflow.
    pub fn bounded(classes: usize, capacity: usize) -> Self {
        Self {
            queue_capacity: Some(capacity),
            ..Self::unbounded(classes)
        }
    }

    /// Number of classes this policy covers.
    pub fn classes(&self) -> usize {
        self.weights.len()
    }

    /// Switch overflow handling to shed-oldest.
    pub fn with_shed_oldest(mut self) -> Self {
        self.overflow = OverflowPolicy::ShedOldest;
        self
    }

    /// Replace the fair-share weights. Each weight must be finite and
    /// positive.
    pub fn with_weights(mut self, weights: Vec<f64>) -> Self {
        assert_eq!(weights.len(), self.classes(), "one weight per class");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "weights must be finite and positive"
        );
        self.weights = weights;
        self
    }

    /// Rate-limit one class with a token bucket.
    pub fn with_rate_limit(mut self, class: usize, limit: RateLimit) -> Self {
        self.rate_limits[class] = Some(limit);
        self
    }

    /// Enable anti-starvation aging at `rate` credit per waiting time
    /// unit.
    pub fn with_aging(mut self, rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "aging rate must be finite and non-negative"
        );
        self.aging_rate = rate;
        self
    }
}
