//! The cap on runners a wall deadline abandoned. Their count is
//! process-wide, and so is its gauge, so this test has a binary of its own.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cg_core::service::{InlineLink, Link, Request, Response, MAX_ABANDONED_RUNNERS};
use cg_core::session::{ActionOutcome, CompilationSession};
use cg_core::space::{ActionSpaceInfo, Observation, ObservationSpaceInfo, RewardSpaceInfo};
use cg_core::{BudgetKind, CgError, ResourceBudget};

/// How long action [`HANG`] takes: far past the wall budget below.
const HANG_FOR: Duration = Duration::from_secs(1);
/// Never returns.
const WEDGE: usize = 0;
/// Returns after [`HANG_FOR`].
const HANG: usize = 1;
/// Returns at once.
const NOOP: usize = 2;

struct Stuck;

impl CompilationSession for Stuck {
    fn action_spaces(&self) -> Vec<ActionSpaceInfo> {
        vec![ActionSpaceInfo {
            name: "stuck".into(),
            actions: vec!["wedge".into(), "hang".into(), "noop".into()],
        }]
    }
    fn observation_spaces(&self) -> Vec<ObservationSpaceInfo> {
        vec![]
    }
    fn reward_spaces(&self) -> Vec<RewardSpaceInfo> {
        vec![]
    }
    fn init(&mut self, _b: &str, _s: usize) -> Result<(), String> {
        Ok(())
    }
    fn apply_action(&mut self, action: usize) -> Result<ActionOutcome, String> {
        match action {
            WEDGE => loop {
                std::thread::park();
            },
            HANG => std::thread::sleep(HANG_FOR),
            _ => {}
        }
        Ok(ActionOutcome {
            end_of_episode: false,
            action_space_changed: false,
            changed: false,
        })
    }
    fn observe(&mut self, s: &str) -> Result<Observation, String> {
        Err(format!("no observation space {s}"))
    }
    fn fork(&self) -> Box<dyn CompilationSession> {
        Box::new(Stuck)
    }
}

/// Wedges one runner per session up to the cap, the last only hung: the
/// next wall-budgeted step is refused in band and spawns nothing, until the
/// hung runner's thread exits and takes the count below the cap again.
/// Spawns `MAX_ABANDONED_RUNNERS + 1` runner threads in all.
#[test]
fn abandoned_runners_are_capped() {
    const WALL: Duration = Duration::from_millis(50);
    let live = || cg_telemetry::global().runner_abandoned_live.get();
    let cap = MAX_ABANDONED_RUNNERS as i64;
    let link = InlineLink::new(Arc::new(|| Box::new(Stuck)));
    link.set_resource_budget(ResourceBudget::default().with_step_wall(WALL))
        .unwrap();
    // Every session starts up front, on the first runner.
    let sessions: Vec<u64> = (0..=MAX_ABANDONED_RUNNERS)
        .map(|_| {
            match link.call(Request::StartSession {
                benchmark: "b".into(),
                action_space: 0,
            }) {
                Ok(Response::SessionStarted { session_id }) => session_id,
                other => panic!("{other:?}"),
            }
        })
        .collect();
    let step = |session_id, action| {
        link.call(Request::Step {
            session_id,
            actions: vec![action],
            observation_spaces: vec![],
        })
    };

    for (i, &session_id) in sessions[..MAX_ABANDONED_RUNNERS].iter().enumerate() {
        let action = if i + 1 == MAX_ABANDONED_RUNNERS {
            HANG
        } else {
            WEDGE
        };
        match step(session_id, action) {
            Err(CgError::BudgetExceeded(v)) => assert_eq!(v.kind, BudgetKind::Wall),
            other => panic!("step {i}: expected a wall kill, got {other:?}"),
        }
    }
    assert_eq!(live(), cap);

    let last = sessions[MAX_ABANDONED_RUNNERS];
    match step(last, WEDGE) {
        Err(CgError::Overloaded { reason, .. }) => {
            assert!(reason.contains(&cap.to_string()), "{reason}");
        }
        other => panic!("expected a refusal at the cap, got {other:?}"),
    }
    assert_eq!(live(), cap, "the refusal abandoned nothing");

    let deadline = Instant::now() + HANG_FOR + Duration::from_secs(10);
    while live() >= cap {
        assert!(Instant::now() < deadline, "the hung runner never exited");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(live(), cap - 1);
    // The refused session was left as it was, and steps now.
    assert!(matches!(step(last, NOOP), Ok(Response::Stepped { .. })));
}
