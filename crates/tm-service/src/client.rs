//! Client-side retry policy: exponential backoff with deterministic
//! seeded jitter, honoring server `Retry-After` hints.
//!
//! The `tm-query` binary retries transport failures and the retryable
//! HTTP statuses (429, 503, 504) through a [`Backoff`]; the jitter comes
//! from the workspace's seedable `rand` shim, so a fixed seed produces a
//! fixed schedule — which is what the backoff-schedule tests and the CI
//! chaos smoke pin.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// First-retry delay (doubles each attempt).
pub const DEFAULT_BACKOFF_BASE_MS: u64 = 100;

/// Ceiling on the exponential part of the delay.
pub const DEFAULT_BACKOFF_CAP_MS: u64 = 5_000;

/// `true` for HTTP statuses a client should retry: 429 (shed by
/// admission control), 503 (draining, cancellation, injected fault),
/// 504 (batch deadline expired). Everything else — including 422, the
/// non-retryable state-limit abort — is final.
pub fn is_retryable_status(status: u16) -> bool {
    matches!(status, 429 | 503 | 504)
}

/// Exponential backoff with seeded jitter.
///
/// Attempt `i` (0-based) sleeps `min(base << i, cap) + jitter` where
/// `jitter` is uniform in `[0, delay/2]`, floored by any server
/// `Retry-After` (seconds). Deterministic for a fixed seed.
#[derive(Clone, Debug)]
pub struct Backoff {
    base_ms: u64,
    cap_ms: u64,
    rng: StdRng,
}

impl Backoff {
    /// A schedule with the default base/cap and `seed` for the jitter.
    pub fn new(seed: u64) -> Self {
        Backoff::with_bounds(seed, DEFAULT_BACKOFF_BASE_MS, DEFAULT_BACKOFF_CAP_MS)
    }

    /// A schedule with explicit base and cap (milliseconds).
    pub fn with_bounds(seed: u64, base_ms: u64, cap_ms: u64) -> Self {
        Backoff {
            base_ms,
            cap_ms,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The delay before retry number `attempt` (0-based), in
    /// milliseconds. `retry_after_secs` is the server's `Retry-After`
    /// hint, which floors the computed delay.
    pub fn delay_ms(&mut self, attempt: u32, retry_after_secs: Option<u64>) -> u64 {
        let exp = self
            .base_ms
            .saturating_mul(1u64.checked_shl(attempt.min(32)).unwrap_or(u64::MAX))
            .min(self.cap_ms);
        let jitter = if exp == 0 {
            0
        } else {
            // Drawn in u64 end to end: a detour through usize would
            // truncate the span on 32-bit targets and bias the jitter.
            self.rng.gen_range_u64(0..exp / 2 + 1)
        };
        exp.saturating_add(jitter)
            .max(retry_after_secs.unwrap_or(0).saturating_mul(1_000))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedule_is_deterministic_for_a_seed() {
        let mut a = Backoff::new(7);
        let mut b = Backoff::new(7);
        let first: Vec<u64> = (0..6).map(|i| a.delay_ms(i, None)).collect();
        let second: Vec<u64> = (0..6).map(|i| b.delay_ms(i, None)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn delays_double_up_to_the_cap_with_bounded_jitter() {
        let mut backoff = Backoff::with_bounds(1, 100, 1_000);
        for attempt in 0..12 {
            let exp = (100u64 << attempt.min(10)).min(1_000);
            let delay = backoff.delay_ms(attempt, None);
            assert!(delay >= exp, "attempt {attempt}: {delay} < {exp}");
            assert!(delay <= exp + exp / 2, "attempt {attempt}: {delay} too jittered");
        }
    }

    #[test]
    fn retry_after_floors_the_delay() {
        let mut backoff = Backoff::with_bounds(3, 100, 1_000);
        let delay = backoff.delay_ms(0, Some(10));
        assert!(delay >= 10_000);
        // Without the hint the same attempt stays near the base.
        let mut fresh = Backoff::with_bounds(3, 100, 1_000);
        assert!(fresh.delay_ms(0, None) <= 150);
    }

    #[test]
    fn huge_attempt_numbers_do_not_overflow() {
        let mut backoff = Backoff::new(0);
        let delay = backoff.delay_ms(u32::MAX, None);
        assert!(delay <= DEFAULT_BACKOFF_CAP_MS + DEFAULT_BACKOFF_CAP_MS / 2);
    }

    #[test]
    fn jitter_is_drawn_in_u64_even_for_huge_delays() {
        // A cap whose jitter span exceeds u32::MAX: the old
        // usize-detour draw would truncate this on 32-bit targets.
        let cap = u64::MAX / 4;
        let mut backoff = Backoff::with_bounds(5, cap, cap);
        let mut saw_wide_jitter = false;
        for attempt in 0..32 {
            let delay = backoff.delay_ms(attempt, None);
            assert!(delay >= cap && delay <= cap + cap / 2);
            if delay - cap > u64::from(u32::MAX) {
                saw_wide_jitter = true;
            }
        }
        assert!(saw_wide_jitter, "jitter never exceeded 32 bits");
    }

    #[test]
    fn retryable_statuses_are_exactly_the_overload_codes() {
        assert!(is_retryable_status(429));
        assert!(is_retryable_status(503));
        assert!(is_retryable_status(504));
        assert!(!is_retryable_status(200));
        assert!(!is_retryable_status(400));
        assert!(!is_retryable_status(422));
    }
}
