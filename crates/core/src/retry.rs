//! The configurable retry policy for service calls (§IV-B).
//!
//! The paper's runtime treats every compiler invocation as fallible: calls
//! may crash, hang, or be answered by a service that has since died. Rather
//! than hard-coding "try twice", recovery behaviour is captured in a
//! [`RetryPolicy`] value carried by every [`crate::service::Link`] and
//! applied in one place, [`crate::service::Link::call_with_policy`], and by
//! [`crate::env::CompilerEnv`]'s recovery ladder:
//!
//! * **attempts** — how many times a logical call may be issued in total;
//! * **backoff** — exponential delay between attempts, with *deterministic*
//!   jitter derived from a seed (reproducible runs stay reproducible);
//! * **budget** — an optional wall-clock cap across all attempts;
//! * **teardown deadline** — a short bound for best-effort cleanup calls
//!   (ending a session on a possibly-dead service must not stall an episode).

use std::time::Duration;

/// SplitMix64: a tiny, high-quality 64-bit mixer. Used for deterministic
/// backoff jitter and by the [`crate::chaos`] fault sampler, so recovery
/// schedules and injected fault sequences are pure functions of their seeds.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform `f64` in `[0, 1)` from 64 random bits.
#[must_use]
pub(crate) fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// How a client recovers from service failures: attempt count, exponential
/// backoff with deterministic jitter, and an overall wall-clock budget.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per logical call, including the first (min 1).
    pub max_attempts: u32,
    /// Delay before the first retry; doubles each further retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff delay.
    pub max_backoff: Duration,
    /// Fraction of the backoff randomized (±), in `[0, 1]`. Jitter is
    /// deterministic in `(seed, attempt)`.
    pub jitter: f64,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
    /// Optional wall-clock cap across all attempts of one logical call.
    /// When exceeded, the in-flight attempt becomes the last.
    pub budget: Option<Duration>,
    /// Deadline for best-effort teardown calls (e.g. `EndSession` against a
    /// service that may already be dead). Expiry is not a failure and is not
    /// counted as a timeout.
    pub teardown_deadline: Duration,
}

impl Default for RetryPolicy {
    /// Three attempts (the seed runtime's two retries), 10 ms base backoff
    /// doubling to at most 2 s, ±25% jitter, 250 ms teardown deadline.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(2),
            jitter: 0.25,
            seed: 0x5EED,
            budget: None,
            teardown_deadline: Duration::from_millis(250),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, no backoff).
    #[must_use]
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Sets the total attempt count (min 1).
    #[must_use]
    pub fn with_max_attempts(mut self, attempts: u32) -> RetryPolicy {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Sets the exponential backoff range.
    #[must_use]
    pub fn with_backoff(mut self, base: Duration, max: Duration) -> RetryPolicy {
        self.base_backoff = base;
        self.max_backoff = max.max(base);
        self
    }

    /// Sets the jitter fraction and its seed.
    #[must_use]
    pub fn with_jitter(mut self, jitter: f64, seed: u64) -> RetryPolicy {
        self.jitter = jitter.clamp(0.0, 1.0);
        self.seed = seed;
        self
    }

    /// Sets the overall wall-clock budget across attempts.
    #[must_use]
    pub fn with_budget(mut self, budget: Duration) -> RetryPolicy {
        self.budget = Some(budget);
        self
    }

    /// Sets the best-effort teardown deadline.
    #[must_use]
    pub fn with_teardown_deadline(mut self, deadline: Duration) -> RetryPolicy {
        self.teardown_deadline = deadline;
        self
    }

    /// Records one retry decision as a `Retried`-status trace span under
    /// the caller's current context: which request kind, which attempt,
    /// what failed, and how long recovery backs off before re-issuing.
    /// Shared by every link so each retry looks the same in a trace.
    pub fn record_retry(&self, kind: &str, attempt: u32, error: &str) {
        cg_telemetry::global().trace.emit_status(
            format!("rpc:retry:{kind}"),
            format!(
                "attempt {attempt}: {error}; backoff {:?}",
                self.backoff_for(attempt)
            ),
            Duration::ZERO,
            cg_telemetry::SpanStatus::Retried,
        );
    }

    /// The delay to sleep before retry number `attempt` (1-based: the delay
    /// after the first failed attempt is `backoff_for(1)`). Exponential in
    /// the attempt number, capped at `max_backoff`, with deterministic
    /// jitter: the same `(seed, attempt)` always yields the same delay.
    #[must_use]
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        if attempt == 0 || self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = attempt.saturating_sub(1).min(32);
        let raw = self.base_backoff.saturating_mul(1u32 << exp.min(31));
        let capped = raw.min(self.max_backoff);
        if self.jitter <= 0.0 {
            return capped;
        }
        // factor in [1 - jitter, 1 + jitter], deterministic in (seed, attempt).
        let r = unit_f64(splitmix64(
            self.seed ^ u64::from(attempt).wrapping_mul(0x9E37),
        ));
        let factor = 1.0 + self.jitter * (2.0 * r - 1.0);
        capped.mul_f64(factor.max(0.0)).min(self.max_backoff)
    }

    /// Like [`RetryPolicy::backoff_for`], but honoring a server-supplied
    /// floor (e.g. the `retry_after_ms` of a typed
    /// [`crate::CgError::Overloaded`] refusal): the client never retries
    /// earlier than the server asked, even when the jittered exponential
    /// delay — or the `max_backoff` cap — would round below it.
    #[must_use]
    pub fn backoff_with_floor(&self, attempt: u32, floor: Duration) -> Duration {
        self.backoff_for(attempt).max(floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy::default()
            .with_backoff(Duration::from_millis(10), Duration::from_millis(100))
            .with_jitter(0.0, 0);
        assert_eq!(p.backoff_for(1), Duration::from_millis(10));
        assert_eq!(p.backoff_for(2), Duration::from_millis(20));
        assert_eq!(p.backoff_for(3), Duration::from_millis(40));
        assert_eq!(
            p.backoff_for(10),
            Duration::from_millis(100),
            "capped at max"
        );
        assert_eq!(p.backoff_for(0), Duration::ZERO);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::default()
            .with_backoff(Duration::from_millis(100), Duration::from_secs(10))
            .with_jitter(0.5, 42);
        let a = p.backoff_for(1);
        let b = p.backoff_for(1);
        assert_eq!(a, b, "same (seed, attempt) must give the same delay");
        assert!(a >= Duration::from_millis(50) && a <= Duration::from_millis(150));
        let q = RetryPolicy::default()
            .with_backoff(Duration::from_millis(100), Duration::from_secs(10))
            .with_jitter(0.5, 43);
        // Different seeds almost surely differ (fixed seeds: this is exact).
        assert_ne!(a, q.backoff_for(1));
    }

    #[test]
    fn server_retry_after_is_a_backoff_floor() {
        // Full jitter so the raw delay can land well below its nominal
        // value: 10ms base with ±100% jitter can round down to ~0.
        let p = RetryPolicy::default()
            .with_backoff(Duration::from_millis(10), Duration::from_millis(80))
            .with_jitter(1.0, 0xF100D);
        let floor = Duration::from_millis(150);
        for attempt in 1..=12 {
            let d = p.backoff_with_floor(attempt, floor);
            assert!(
                d >= floor,
                "attempt {attempt}: {d:?} retried earlier than the server asked ({floor:?})"
            );
        }
        // The floor dominates even the max_backoff cap …
        assert_eq!(p.backoff_with_floor(10, floor), floor);
        // … and a floor below the computed backoff changes nothing.
        let q = RetryPolicy::default()
            .with_backoff(Duration::from_millis(100), Duration::from_secs(2))
            .with_jitter(0.0, 0);
        assert_eq!(
            q.backoff_with_floor(3, Duration::from_millis(1)),
            q.backoff_for(3),
            "a tiny floor must not inflate the normal schedule"
        );
    }

    #[test]
    fn none_never_retries() {
        assert_eq!(RetryPolicy::none().max_attempts, 1);
        assert_eq!(RetryPolicy::default().with_max_attempts(0).max_attempts, 1);
    }

    #[test]
    fn splitmix_is_a_pure_mixer() {
        assert_eq!(splitmix64(7), splitmix64(7));
        assert_ne!(splitmix64(7), splitmix64(8));
        let u = unit_f64(splitmix64(123));
        assert!((0.0..1.0).contains(&u));
    }
}
