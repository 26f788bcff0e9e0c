//! Jittered exponential retry for transient I/O failures.
//!
//! Snapshot persistence and CLI output writes hit the filesystem, where
//! `ErrorKind::Interrupted`-style failures are transient by definition and
//! a bounded retry is the correct response. [`retry_with_backoff`] runs an
//! operation up to a capped number of attempts with exponentially growing,
//! jittered delays, and refuses to start an attempt past a wall-clock
//! deadline — so a persistently broken disk fails fast instead of hanging
//! a publish.
//!
//! Jitter is seeded (splitmix64), so tests exercising the retry path are
//! deterministic.

use std::io;
use std::time::{Duration, Instant};

/// Bounds for [`retry_with_backoff`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum number of attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// Delay before the first retry; doubles each subsequent retry.
    pub base_delay: Duration,
    /// Upper bound on any single delay.
    pub max_delay: Duration,
    /// Wall-clock budget: no new attempt starts after this much time.
    pub deadline: Duration,
    /// Seed for the jitter stream, so retry timing is reproducible.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(200),
            deadline: Duration::from_secs(2),
            jitter_seed: 0x5EED_CAFE_F00D_D00D,
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The delay before retry number `retry` (1-based): exponential growth
/// from `base_delay` capped at `max_delay`, then jittered into
/// `[exp/2, exp)` so colliding writers decorrelate.
fn backoff_delay(policy: &RetryPolicy, retry: u32, rng: &mut u64) -> Duration {
    let exp = policy
        .base_delay
        .saturating_mul(1u32 << (retry - 1).min(16))
        .min(policy.max_delay);
    let frac = (splitmix64(rng) >> 11) as f64 / (1u64 << 53) as f64;
    exp / 2 + Duration::from_secs_f64(exp.as_secs_f64() / 2.0 * frac)
}

/// Whether an I/O error is worth retrying: interruptions, timeouts, and
/// would-block conditions clear on their own; everything else does not.
pub fn is_transient_io(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Runs `op` until it succeeds, fails permanently, or the policy's
/// attempt/deadline budget runs out.
///
/// `op` receives the 0-based attempt number. `retryable` classifies an
/// error; a non-retryable error is returned immediately. When the budget
/// is exhausted, the last error is returned.
///
/// # Errors
/// The first non-retryable error, or the final error once attempts or the
/// deadline are exhausted.
pub fn retry_with_backoff<T, E>(
    policy: &RetryPolicy,
    retryable: impl Fn(&E) -> bool,
    mut op: impl FnMut(u32) -> Result<T, E>,
) -> Result<T, E> {
    let started = Instant::now();
    let mut rng = policy.jitter_seed;
    let max_attempts = policy.max_attempts.max(1);
    let mut attempt = 0;
    loop {
        match op(attempt) {
            Ok(value) => return Ok(value),
            Err(err) => {
                attempt += 1;
                if attempt >= max_attempts || !retryable(&err) {
                    return Err(err);
                }
                let delay = backoff_delay(policy, attempt, &mut rng);
                if started.elapsed() + delay >= policy.deadline {
                    return Err(err);
                }
                std::thread::sleep(delay);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_micros(50),
            max_delay: Duration::from_micros(400),
            deadline: Duration::from_secs(1),
            jitter_seed: 42,
        }
    }

    #[test]
    fn succeeds_first_try_without_sleeping() {
        let result: Result<u32, io::Error> =
            retry_with_backoff(&fast_policy(), is_transient_io, |_| Ok(7));
        assert_eq!(result.unwrap(), 7);
    }

    #[test]
    fn retries_transient_errors_until_success() {
        let mut calls = 0;
        let result = retry_with_backoff(&fast_policy(), is_transient_io, |attempt| {
            calls += 1;
            if attempt < 2 {
                Err(io::Error::new(io::ErrorKind::Interrupted, "flaky"))
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(result.unwrap(), 2);
        assert_eq!(calls, 3);
    }

    #[test]
    fn permanent_errors_fail_immediately() {
        let mut calls = 0;
        let result: Result<(), io::Error> =
            retry_with_backoff(&fast_policy(), is_transient_io, |_| {
                calls += 1;
                Err(io::Error::new(io::ErrorKind::PermissionDenied, "nope"))
            });
        assert_eq!(result.unwrap_err().kind(), io::ErrorKind::PermissionDenied);
        assert_eq!(calls, 1);
    }

    #[test]
    fn attempt_budget_is_respected() {
        let mut calls = 0;
        let result: Result<(), io::Error> =
            retry_with_backoff(&fast_policy(), is_transient_io, |_| {
                calls += 1;
                Err(io::Error::new(io::ErrorKind::Interrupted, "always"))
            });
        assert_eq!(result.unwrap_err().kind(), io::ErrorKind::Interrupted);
        assert_eq!(calls, 4);
    }

    #[test]
    fn deadline_stops_retrying_early() {
        let policy = RetryPolicy {
            max_attempts: 100,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_millis(50),
            deadline: Duration::from_millis(1),
            jitter_seed: 1,
        };
        let mut calls = 0;
        let result: Result<(), io::Error> = retry_with_backoff(&policy, is_transient_io, |_| {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::Interrupted, "slow"))
        });
        assert!(result.is_err());
        assert_eq!(calls, 1, "no retry fits inside a 1ms deadline");
    }

    #[test]
    fn delays_grow_exponentially_and_cap() {
        let policy = RetryPolicy {
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(35),
            ..RetryPolicy::default()
        };
        let mut rng = policy.jitter_seed;
        let d1 = backoff_delay(&policy, 1, &mut rng);
        let d3 = backoff_delay(&policy, 3, &mut rng);
        // Jitter keeps each delay in [exp/2, exp).
        assert!(d1 >= Duration::from_millis(5) && d1 < Duration::from_millis(10));
        assert!(d3 >= Duration::from_micros(17_500) && d3 < Duration::from_millis(35));
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let policy = fast_policy();
        let (mut a, mut b) = (policy.jitter_seed, policy.jitter_seed);
        for retry in 1..5 {
            assert_eq!(
                backoff_delay(&policy, retry, &mut a),
                backoff_delay(&policy, retry, &mut b)
            );
        }
    }
}
