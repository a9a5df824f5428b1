//! In-service resource budgets: the first rung of the recovery ladder.
//!
//! PR 2's recovery path treats a runaway pass as a *client-side* problem:
//! the call hangs until the client deadline fires, the service is
//! restarted, and the episode is replayed. A budget moves containment into
//! the service worker itself: pass application runs under a per-request
//! wall-clock deadline and a state-size cap, so a pathological pass is
//! killed *inside* the service and answered with a typed
//! [`BudgetViolation`] — an ordinary in-band reply, orders of magnitude
//! cheaper than a timeout-restart-replay cycle. The interpreter-fuel cap
//! bounds runtime observations the same way.
//!
//! Budgets are carried by [`ResourceBudget`], configured per service via
//! `Link::set_resource_budget` / `Request::Configure`, and survive service
//! restarts (the link re-applies its copy to every service state it
//! builds).

use std::time::Duration;

/// Resource limits enforced inside the service while it runs session code.
/// Every limit is optional; the default budget enforces nothing (zero
/// overhead on the happy path — the service spawns its one runner thread on
/// the first session call under a wall-clock limit, and replaces it only
/// after a wall-clock kill).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResourceBudget {
    /// Wall-clock deadline, in microseconds, for every session-scoped
    /// request ([`crate::service::Classes::session_scoped`]): `StartSession`,
    /// `RestoreSession` and `Resume` (`init` and `restore`), `Step`
    /// (actions and observations), `Fork` and `ExportState`. Use
    /// [`ResourceBudget::wall`] / [`ResourceBudget::with_wall`] for
    /// `Duration`-typed access. When exceeded, the service abandons the
    /// call with its session and answers a typed [`BudgetKind::Wall`]
    /// violation instead of hanging.
    pub wall_us: Option<u64>,
    /// Absolute cap on the session's state size (for LLVM sessions, the IR
    /// instruction count), checked after every applied action.
    pub max_state_size: Option<u64>,
    /// Relative growth cap: the state may not exceed `initial × factor`,
    /// where `initial` is the size recorded when the session started.
    pub max_growth: Option<f64>,
    /// Fuel cap (dynamic instructions) for interpreter-backed runtime
    /// observations, forwarded to the session via
    /// `CompilationSession::apply_budget`.
    pub interp_fuel: Option<u64>,
}

impl ResourceBudget {
    /// Sets the wall-clock deadline on every session-scoped request.
    #[must_use]
    pub fn with_wall(mut self, wall: Duration) -> ResourceBudget {
        self.wall_us = Some(wall.as_micros().min(u128::from(u64::MAX)) as u64);
        self
    }

    /// The wall-clock deadline on session-scoped requests, if set.
    #[must_use]
    pub fn wall(&self) -> Option<Duration> {
        self.wall_us.map(Duration::from_micros)
    }

    /// Sets the absolute state-size cap.
    #[must_use]
    pub fn with_max_state_size(mut self, cap: u64) -> ResourceBudget {
        self.max_state_size = Some(cap);
        self
    }

    /// Sets the relative growth cap (`state ≤ initial × factor`).
    #[must_use]
    pub fn with_max_growth(mut self, factor: f64) -> ResourceBudget {
        self.max_growth = Some(factor.max(1.0));
        self
    }

    /// The effective absolute size limit for a session that started at
    /// `initial` size: the tighter of the absolute cap and the growth cap.
    #[must_use]
    pub fn size_limit(&self, initial: Option<u64>) -> Option<u64> {
        let growth = match (self.max_growth, initial) {
            (Some(f), Some(init)) => Some((init as f64 * f).ceil() as u64),
            _ => None,
        };
        match (self.max_state_size, growth) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// Which budget a request exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// The wall-clock deadline on a session-scoped request.
    Wall,
    /// The state-size cap (absolute or growth-derived).
    Growth,
}

impl std::fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetKind::Wall => write!(f, "wall-clock"),
            BudgetKind::Growth => write!(f, "state-growth"),
        }
    }
}

/// A typed in-band budget violation: the session that exceeded its budget
/// was destroyed by the service worker (a "budget kill"), the service
/// itself kept serving, and this reply came back instead of a hang.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetViolation {
    /// Which limit was exceeded.
    pub kind: BudgetKind,
    /// The configured limit (microseconds for [`BudgetKind::Wall`],
    /// state-size units for [`BudgetKind::Growth`]).
    pub limit: u64,
    /// The observed value at the kill point (for wall-clock kills this is
    /// the limit itself — the runner was abandoned at the deadline).
    pub observed: u64,
    /// Human-readable context (which action, which benchmark).
    pub detail: String,
}

impl std::fmt::Display for BudgetViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} budget exceeded: limit {}, observed {} ({})",
            self.kind, self.limit, self.observed, self.detail
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited() {
        let d = ResourceBudget::default();
        assert_eq!((d.wall(), d.size_limit(Some(100))), (None, None));
        assert_eq!(d.interp_fuel, None);
        let b = ResourceBudget::default().with_wall(Duration::from_millis(250));
        assert_eq!(b.wall(), Some(Duration::from_millis(250)));
    }

    #[test]
    fn size_limit_takes_the_tighter_cap() {
        let b = ResourceBudget::default()
            .with_max_state_size(500)
            .with_max_growth(2.0);
        assert_eq!(b.size_limit(Some(100)), Some(200), "growth cap is tighter");
        assert_eq!(
            b.size_limit(Some(400)),
            Some(500),
            "absolute cap is tighter"
        );
        assert_eq!(
            b.size_limit(None),
            Some(500),
            "no initial size: absolute only"
        );
        let g = ResourceBudget::default().with_max_growth(3.0);
        assert_eq!(g.size_limit(None), None, "growth cap needs an initial size");
    }
}
