//! Token-bucket rate limiting on an abstract clock.

use crate::policy::RateLimit;

/// A token bucket: `rate` tokens accrue per time unit up to `burst`;
/// each admission spends one token. The clock is whatever the caller
/// supplies — virtual hours in the simulator, wall seconds in the live
/// hub — which keeps the limiter deterministic.
#[derive(Debug, Clone)]
pub(crate) struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: f64,
}

impl TokenBucket {
    /// A full bucket at time zero.
    pub(crate) fn new(limit: RateLimit) -> Self {
        assert!(
            limit.rate.is_finite() && limit.rate > 0.0,
            "rate must be finite and positive"
        );
        assert!(
            limit.burst.is_finite() && limit.burst >= 1.0,
            "burst must allow at least one token"
        );
        Self {
            rate: limit.rate,
            burst: limit.burst,
            tokens: limit.burst,
            last: 0.0,
        }
    }

    fn refill(&mut self, now: f64) {
        if now > self.last {
            self.tokens = (self.tokens + (now - self.last) * self.rate).min(self.burst);
            self.last = now;
        }
    }

    /// Try to spend one token at time `now`. Returns whether the
    /// admission is within the rate limit.
    pub(crate) fn try_acquire(&mut self, now: f64) -> bool {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_throttle() {
        let mut b = TokenBucket::new(RateLimit {
            rate: 1.0,
            burst: 3.0,
        });
        assert!(b.try_acquire(0.0));
        assert!(b.try_acquire(0.0));
        assert!(b.try_acquire(0.0));
        assert!(!b.try_acquire(0.0), "burst exhausted");
        assert!(b.try_acquire(1.0), "one token refilled after one unit");
        assert!(!b.try_acquire(1.0));
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut b = TokenBucket::new(RateLimit {
            rate: 10.0,
            burst: 2.0,
        });
        assert!(b.try_acquire(0.0));
        assert!(b.try_acquire(0.0));
        assert!(b.try_acquire(100.0));
        assert!(b.try_acquire(100.0));
        assert!(
            !b.try_acquire(100.0),
            "idle bucket refills to burst, not beyond"
        );
    }

    #[test]
    fn time_going_backwards_does_not_mint_tokens() {
        let mut b = TokenBucket::new(RateLimit {
            rate: 1.0,
            burst: 1.0,
        });
        assert!(b.try_acquire(5.0));
        assert!(!b.try_acquire(4.0), "stale timestamp must not refill");
    }
}
