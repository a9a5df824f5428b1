//! Per-(benchmark, action) circuit breaker: quarantine pairs that
//! repeatedly kill compiler services.
//!
//! Recovery (restart + replay) makes individual faults survivable, but a
//! *deterministically* pathological `(benchmark, action)` pair kills the
//! service on every attempt — each episode that touches it burns a full
//! retry budget rediscovering the same crash. The breaker is the standard
//! three-state machine, keyed per pair:
//!
//! - **Closed** (normal): calls pass through; service-kill faults are
//!   counted. After `threshold` consecutive faults the circuit **opens**.
//! - **Open**: calls fail fast with [`crate::CgError::CircuitOpen`]
//!   without touching the service. After `cooldown` the next call is
//!   allowed through as a **half-open** probe.
//! - **Half-open**: exactly one probe is in flight. Success closes the
//!   circuit; another fault re-opens it and restarts the cooldown.
//!
//! The breaker observes *service kills* (panics, hangs, budget kills), not
//! legitimate `Err` results from the compiler — a compile failure is an
//! answer, not a fault.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Default number of consecutive faults that opens a circuit.
pub const DEFAULT_BREAKER_THRESHOLD: u32 = 3;

/// Default cooldown before an open circuit allows a half-open probe.
pub const DEFAULT_BREAKER_COOLDOWN: Duration = Duration::from_secs(30);

/// Observable state of one circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls pass through; faults are being counted.
    Closed,
    /// Calls fail fast until the cooldown elapses.
    Open,
    /// One probe call is allowed through.
    HalfOpen,
}

#[derive(Debug)]
enum Circuit {
    Closed { faults: u32 },
    Open { since: Instant },
    HalfOpen,
}

/// Decision returned by [`CircuitBreaker::admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Proceed normally.
    Allow,
    /// Proceed, but this call is the half-open probe: report its outcome.
    Probe,
    /// Fail fast; retry after roughly the contained duration.
    Reject { retry_in: Duration },
}

#[derive(Default)]
struct BreakerInner {
    circuits: HashMap<(String, usize), Circuit>,
    trips: u64,
    fast_fails: u64,
    half_opens: u64,
}

/// A set of per-(benchmark, action) circuits sharing one configuration.
/// Cheaply cloneable; clones share state.
#[derive(Clone)]
pub struct CircuitBreaker {
    inner: Arc<Mutex<BreakerInner>>,
    threshold: u32,
    cooldown: Duration,
}

impl std::fmt::Debug for CircuitBreaker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("CircuitBreaker")
            .field("threshold", &self.threshold)
            .field("cooldown", &self.cooldown)
            .field("circuits", &inner.circuits.len())
            .field("trips", &inner.trips)
            .finish()
    }
}

impl Default for CircuitBreaker {
    fn default() -> CircuitBreaker {
        CircuitBreaker::new(DEFAULT_BREAKER_THRESHOLD, DEFAULT_BREAKER_COOLDOWN)
    }
}

impl CircuitBreaker {
    /// Creates a breaker that opens after `threshold` consecutive faults
    /// and allows a half-open probe after `cooldown`.
    #[must_use]
    pub fn new(threshold: u32, cooldown: Duration) -> CircuitBreaker {
        CircuitBreaker {
            inner: Arc::new(Mutex::new(BreakerInner::default())),
            threshold: threshold.max(1),
            cooldown,
        }
    }

    /// Asks whether a call for `(benchmark, action)` may proceed,
    /// transitioning Open→HalfOpen when the cooldown has elapsed.
    pub fn admit(&self, benchmark: &str, action: usize) -> Admission {
        let mut inner = self.inner.lock();
        let key = (benchmark.to_string(), action);
        match inner.circuits.get(&key) {
            None | Some(Circuit::Closed { .. }) => Admission::Allow,
            Some(Circuit::Open { since }) => {
                let elapsed = since.elapsed();
                if elapsed >= self.cooldown {
                    inner.circuits.insert(key, Circuit::HalfOpen);
                    inner.half_opens += 1;
                    cg_telemetry::global().breaker_half_opens.inc();
                    Admission::Probe
                } else {
                    inner.fast_fails += 1;
                    cg_telemetry::global().breaker_fast_fails.inc();
                    Admission::Reject {
                        retry_in: self.cooldown - elapsed,
                    }
                }
            }
            // Another probe is already in flight; don't pile on.
            Some(Circuit::HalfOpen) => {
                inner.fast_fails += 1;
                cg_telemetry::global().breaker_fast_fails.inc();
                Admission::Reject {
                    retry_in: self.cooldown,
                }
            }
        }
    }

    /// Records a service-kill fault attributed to `(benchmark, action)`.
    /// Returns the resulting state.
    pub fn record_fault(&self, benchmark: &str, action: usize) -> BreakerState {
        let mut inner = self.inner.lock();
        let key = (benchmark.to_string(), action);
        let circuit = inner
            .circuits
            .entry(key)
            .or_insert(Circuit::Closed { faults: 0 });
        let opened = match circuit {
            Circuit::Closed { faults } => {
                *faults += 1;
                *faults >= self.threshold
            }
            // A faulting probe re-opens immediately.
            Circuit::HalfOpen => true,
            Circuit::Open { .. } => false,
        };
        if opened {
            *circuit = Circuit::Open {
                since: Instant::now(),
            };
            inner.trips += 1;
            cg_telemetry::global().breaker_trips.inc();
            cg_telemetry::global().trace.emit_status(
                "breaker:open",
                format!("{benchmark} action {action}"),
                std::time::Duration::ZERO,
                cg_telemetry::SpanStatus::CircuitOpen,
            );
        }
        match inner.circuits[&(benchmark.to_string(), action)] {
            Circuit::Closed { .. } => BreakerState::Closed,
            Circuit::Open { .. } => BreakerState::Open,
            Circuit::HalfOpen => BreakerState::HalfOpen,
        }
    }

    /// Records a successful call for `(benchmark, action)`. A half-open
    /// probe succeeding closes the circuit; in the closed state the
    /// consecutive-fault counter resets.
    pub fn record_success(&self, benchmark: &str, action: usize) {
        let mut inner = self.inner.lock();
        let key = (benchmark.to_string(), action);
        match inner.circuits.get_mut(&key) {
            Some(c @ Circuit::HalfOpen) => {
                *c = Circuit::Closed { faults: 0 };
                cg_telemetry::global().trace.emit(
                    "breaker:close",
                    format!("{benchmark} action {action}"),
                    std::time::Duration::ZERO,
                );
            }
            Some(Circuit::Closed { faults }) => *faults = 0,
            // Success while Open can only be a stale in-flight call; the
            // cooldown still applies.
            Some(Circuit::Open { .. }) | None => {}
        }
    }

    /// The current state of one circuit (Closed when never seen). Does not
    /// perform the Open→HalfOpen transition; use [`admit`] for that.
    ///
    /// [`admit`]: CircuitBreaker::admit
    #[must_use]
    pub fn state(&self, benchmark: &str, action: usize) -> BreakerState {
        let inner = self.inner.lock();
        match inner.circuits.get(&(benchmark.to_string(), action)) {
            None | Some(Circuit::Closed { .. }) => BreakerState::Closed,
            Some(Circuit::Open { .. }) => BreakerState::Open,
            Some(Circuit::HalfOpen) => BreakerState::HalfOpen,
        }
    }

    /// The (benchmark, action) pairs whose circuits are currently open —
    /// the quarantine list (used by harnesses to drive half-open probes
    /// and by operators to see what is being fast-failed).
    #[must_use]
    pub fn open_circuits(&self) -> Vec<(String, usize)> {
        let inner = self.inner.lock();
        inner
            .circuits
            .iter()
            .filter(|(_, c)| matches!(c, Circuit::Open { .. }))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Total circuit-open transitions.
    #[must_use]
    pub fn trips(&self) -> u64 {
        self.inner.lock().trips
    }

    /// Total fast-failed (rejected) calls.
    #[must_use]
    pub fn fast_fails(&self) -> u64 {
        self.inner.lock().fast_fails
    }

    /// Total Open→HalfOpen transitions.
    #[must_use]
    pub fn half_opens(&self) -> u64 {
        self.inner.lock().half_opens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: &str = "benchmark://cbench-v1/qsort";

    #[test]
    fn closed_until_threshold_consecutive_faults() {
        let br = CircuitBreaker::new(3, Duration::from_secs(60));
        assert_eq!(br.record_fault(B, 5), BreakerState::Closed);
        assert_eq!(br.record_fault(B, 5), BreakerState::Closed);
        assert_eq!(br.admit(B, 5), Admission::Allow);
        assert_eq!(br.record_fault(B, 5), BreakerState::Open);
        assert_eq!(br.trips(), 1);
        assert_eq!(br.open_circuits(), vec![(B.to_string(), 5)]);
        assert!(matches!(br.admit(B, 5), Admission::Reject { .. }));
        assert_eq!(br.fast_fails(), 1);
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let br = CircuitBreaker::new(2, Duration::from_secs(60));
        br.record_fault(B, 1);
        br.record_success(B, 1);
        assert_eq!(
            br.record_fault(B, 1),
            BreakerState::Closed,
            "count was reset"
        );
        assert_eq!(br.record_fault(B, 1), BreakerState::Open);
    }

    #[test]
    fn circuits_are_independent_per_pair() {
        let br = CircuitBreaker::new(1, Duration::from_secs(60));
        br.record_fault(B, 1);
        assert_eq!(br.state(B, 1), BreakerState::Open);
        assert_eq!(br.admit(B, 2), Admission::Allow);
        assert_eq!(br.admit("benchmark://other", 1), Admission::Allow);
    }

    #[test]
    fn open_to_half_open_to_closed() {
        let br = CircuitBreaker::new(1, Duration::from_millis(20));
        br.record_fault(B, 7);
        assert!(matches!(br.admit(B, 7), Admission::Reject { .. }));
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(br.admit(B, 7), Admission::Probe, "cooldown elapsed: probe");
        assert_eq!(br.state(B, 7), BreakerState::HalfOpen);
        assert_eq!(br.half_opens(), 1);
        // A second caller during the probe is rejected.
        assert!(matches!(br.admit(B, 7), Admission::Reject { .. }));
        br.record_success(B, 7);
        assert_eq!(br.state(B, 7), BreakerState::Closed);
        assert_eq!(br.admit(B, 7), Admission::Allow);
    }

    #[test]
    fn failed_probe_reopens() {
        let br = CircuitBreaker::new(1, Duration::from_millis(10));
        br.record_fault(B, 3);
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(br.admit(B, 3), Admission::Probe);
        assert_eq!(
            br.record_fault(B, 3),
            BreakerState::Open,
            "probe faulted: reopen"
        );
        assert_eq!(br.trips(), 2);
        assert!(matches!(br.admit(B, 3), Admission::Reject { .. }));
    }

    #[test]
    fn reject_reports_remaining_cooldown() {
        let br = CircuitBreaker::new(1, Duration::from_secs(60));
        br.record_fault(B, 0);
        match br.admit(B, 0) {
            Admission::Reject { retry_in } => {
                assert!(retry_in <= Duration::from_secs(60));
                assert!(retry_in > Duration::from_secs(50));
            }
            other => panic!("expected Reject, got {other:?}"),
        }
    }
}
