//! The crate-wide error type.

use std::fmt;

/// Errors surfaced by environments and the service runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum CgError {
    /// A benchmark URI failed to resolve.
    Dataset(String),
    /// The named environment, space or action does not exist.
    Unknown(String),
    /// The backend session reported an error (compile failure, invalid
    /// action, trap).
    Session(String),
    /// The compiler service crashed, hung past its timeout, or disconnected.
    ServiceFailure(String),
    /// The backend session was destroyed mid-episode (e.g. a compiler panic
    /// took it down) while the service itself survived. Recoverable by
    /// replaying the episode's action history on a fresh session.
    SessionLost(String),
    /// Action-replay session restoration reached a state whose reward metric
    /// diverges from the pre-fault value: the compiler is nondeterministic
    /// (or a fault corrupted state), so the episode cannot be transparently
    /// recovered and must be reset.
    ReplayDivergence {
        /// The benchmark being replayed.
        benchmark: String,
        /// The metric recorded before the fault.
        expected: f64,
        /// The metric the replayed session produced.
        actual: f64,
        /// Path of the self-contained JSON reproducer dumped for this
        /// divergence (benchmark, action history, both metrics), when the
        /// dump succeeded.
        repro: Option<String>,
    },
    /// The session exceeded its in-service resource budget (wall-clock
    /// deadline or state-size cap) and was destroyed by the service worker.
    /// The service itself survived; the episode is recoverable by
    /// checkpoint restore / replay like [`CgError::SessionLost`].
    BudgetExceeded(crate::budget::BudgetViolation),
    /// The service's front door refused the request under overload
    /// (admission control, a per-tenant quota, or queue-pressure shedding)
    /// with a typed in-band answer instead of hanging or dying. The session
    /// (if any) is untouched; clients should retry no earlier than
    /// `retry_after_ms` — [`crate::retry::RetryPolicy`] treats it as a
    /// backoff floor.
    Overloaded {
        /// Server-advised minimum delay before retrying, in milliseconds.
        retry_after_ms: u64,
        /// Which rung of the admission ladder refused (for diagnostics).
        reason: String,
    },
    /// Validation found a mismatch (reproducibility or semantics bug).
    Validation(String),
    /// The environment is not in a state where the operation is legal
    /// (e.g. `step` before `reset`).
    Usage(String),
}

impl fmt::Display for CgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CgError::Dataset(m) => write!(f, "dataset error: {m}"),
            CgError::Unknown(m) => write!(f, "unknown name: {m}"),
            CgError::Session(m) => write!(f, "session error: {m}"),
            CgError::ServiceFailure(m) => write!(f, "compiler service failure: {m}"),
            CgError::SessionLost(m) => write!(f, "session lost: {m}"),
            CgError::ReplayDivergence {
                benchmark,
                expected,
                actual,
                repro,
            } => {
                write!(
                    f,
                    "replay divergence on {benchmark}: expected metric {expected}, \
                     replayed session produced {actual} (nondeterministic compiler \
                     or corrupted state)"
                )?;
                match repro {
                    Some(path) => write!(f, "; reproducer written to {path}"),
                    None => Ok(()),
                }
            }
            CgError::BudgetExceeded(v) => write!(f, "resource budget exceeded: {v}"),
            CgError::Overloaded {
                retry_after_ms,
                reason,
            } => write!(
                f,
                "service overloaded: {reason}; retry no earlier than {retry_after_ms}ms"
            ),
            CgError::Validation(m) => write!(f, "validation failed: {m}"),
            CgError::Usage(m) => write!(f, "usage error: {m}"),
        }
    }
}

impl std::error::Error for CgError {}

impl From<cg_datasets::DatasetError> for CgError {
    fn from(e: cg_datasets::DatasetError) -> CgError {
        CgError::Dataset(e.to_string())
    }
}
