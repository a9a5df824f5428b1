//! Integration tests for the telemetry layer: metrics recorded end-to-end
//! through the env → service → backend stack.
//!
//! The telemetry registry is a process-wide global shared by every test in
//! this binary (cargo runs them concurrently), so assertions here are
//! monotonic — "the counter grew by at least N" — never exact totals.

use std::sync::Arc;
use std::time::Duration;

use cg_core::service::{InlineLink, Link, Request, Response, SessionFactory};
use cg_core::session::{ActionOutcome, CompilationSession};
use cg_core::space::{
    ActionSpaceInfo, Observation, ObservationKind, ObservationSpaceInfo, RewardSpaceInfo,
};
use cg_core::{BudgetKind, CgError, CompilerEnv, ResourceBudget};

#[test]
fn llvm_steps_populate_request_and_pass_telemetry() {
    let tel = cg_telemetry::global();
    let steps_before = tel.requests.get("Step").count();
    let episodes_before = tel.episode.episodes.get();
    let env_steps_before = tel.episode.steps.get();

    let mut env = cg_core::make("llvm-v0").unwrap();
    env.set_benchmark("benchmark://cbench-v1/crc32");
    env.reset().unwrap();
    for name in ["mem2reg", "instcombine", "gvn", "dce"] {
        let idx = env.action_space().index_of(name).unwrap();
        env.step(idx).unwrap();
    }

    // Per-request latency histogram populated (reset + 4 steps ≥ 5 Steps).
    assert!(tel.requests.get("Step").count() >= steps_before + 5);
    // Episode stats recorded.
    assert!(tel.episode.episodes.get() > episodes_before);
    assert!(tel.episode.steps.get() >= env_steps_before + 4);
    assert!(tel.episode.step_wall.count() >= 4);

    // Per-pass profiling accrued for each applied pass.
    for name in ["mem2reg", "instcombine", "gvn", "dce"] {
        let snap = tel.passes.get(name).snapshot();
        assert!(snap.calls >= 1, "no pass-table entry for {name}");
    }
    // mem2reg on crc32 removes allocas: it must be recorded as changing the
    // module and shrinking it.
    let m2r = tel.passes.get("mem2reg").snapshot();
    assert!(m2r.changed >= 1);
    assert!(m2r.inst_delta < 0);

    // Observation latency recorded for the default (Autophase) space.
    assert!(tel.observations.get("Autophase").count() >= 1);

    // The trace ring holds step / observation / pass spans.
    let events = tel.trace.events();
    for prefix in ["step", "observation:Autophase", "pass:mem2reg", "reset"] {
        assert!(
            events
                .iter()
                .any(|e| e.span == prefix || e.span.starts_with(prefix)),
            "no `{prefix}` span in trace"
        );
    }
    // And exports as one JSON object per line.
    let jsonl = tel.trace.export_jsonl();
    let first = jsonl.lines().next().unwrap();
    serde_json::from_str::<cg_telemetry::SpanRecord>(first).unwrap();

    // The snapshot sees the same data.
    let snap = tel.snapshot();
    assert!(snap.requests["Step"].count >= 5);
    assert!(snap.requests["Step"].max_micros >= snap.requests["Step"].p50_micros);
    assert!(snap.passes.contains_key("mem2reg"));
}

/// A session that panics when asked to apply action 1.
struct PanickySession;

impl CompilationSession for PanickySession {
    fn action_spaces(&self) -> Vec<ActionSpaceInfo> {
        vec![ActionSpaceInfo {
            name: "panicky".into(),
            actions: vec!["ok".into(), "boom".into()],
        }]
    }
    fn observation_spaces(&self) -> Vec<ObservationSpaceInfo> {
        vec![ObservationSpaceInfo {
            name: "Zero".into(),
            kind: ObservationKind::Scalar,
            deterministic: true,
            platform_dependent: false,
        }]
    }
    fn reward_spaces(&self) -> Vec<RewardSpaceInfo> {
        vec![RewardSpaceInfo {
            name: "Zero".into(),
            metric: "Zero".into(),
            sign: 1.0,
            baseline: None,
            deterministic: true,
        }]
    }
    fn init(&mut self, _benchmark: &str, _action_space: usize) -> Result<(), String> {
        Ok(())
    }
    fn apply_action(&mut self, action: usize) -> Result<ActionOutcome, String> {
        if action == 1 {
            panic!("simulated compiler crash");
        }
        Ok(ActionOutcome {
            end_of_episode: false,
            action_space_changed: false,
            changed: false,
        })
    }
    fn observe(&mut self, _space: &str) -> Result<Observation, String> {
        Ok(Observation::Scalar(0.0))
    }
    fn fork(&self) -> Box<dyn CompilationSession> {
        Box::new(PanickySession)
    }
}

#[test]
fn panicking_session_is_counted_and_traced() {
    let tel = cg_telemetry::global();
    let panics_before = tel.panics.get();
    let errors_before = tel.request_errors.get("Step").get();

    let factory: SessionFactory = Arc::new(|| Box::new(PanickySession));
    let mut env = CompilerEnv::with_factory(
        "panicky-v0",
        factory,
        "benchmark://none",
        "Zero",
        "Zero",
        Duration::from_secs(5),
    )
    .unwrap();
    env.reset().unwrap();
    env.step(0).unwrap();
    // The session panics on action 1 *every* time, so replay-based recovery
    // retries (restart → replay `[0]` → re-apply 1) until the policy is
    // exhausted, then surfaces the typed session-loss error.
    let recoveries_before = tel.recoveries.get();
    let err = env.step(1).unwrap_err();
    assert!(
        matches!(err, CgError::SessionLost(_)),
        "deterministic panic surfaces: {err:?}"
    );
    assert!(
        tel.recoveries.get() > recoveries_before,
        "recovery replays not counted"
    );

    // The panic was counted and traced, and the error response tallied.
    assert!(
        tel.panics.get() > panics_before,
        "panic counter did not grow"
    );
    assert!(tel.request_errors.get("Step").get() > errors_before);
    assert!(tel.trace.events().iter().any(|e| e.span == "service:panic"));

    // The service survived: a fresh episode works after the panic.
    env.reset().unwrap();
    env.step(0).unwrap();
}

/// A session that hangs in `init` is killed in band by the wall budget:
/// `reset` answers a typed wall violation, counted as a budget kill, and
/// the service neither restarts nor stops answering.
#[test]
fn hung_init_is_a_counted_budget_kill() {
    struct HangOnInit;
    impl CompilationSession for HangOnInit {
        fn action_spaces(&self) -> Vec<ActionSpaceInfo> {
            vec![ActionSpaceInfo {
                name: "hang".into(),
                actions: vec!["a".into()],
            }]
        }
        fn observation_spaces(&self) -> Vec<ObservationSpaceInfo> {
            vec![ObservationSpaceInfo {
                name: "Zero".into(),
                kind: ObservationKind::Scalar,
                deterministic: true,
                platform_dependent: false,
            }]
        }
        fn reward_spaces(&self) -> Vec<RewardSpaceInfo> {
            vec![RewardSpaceInfo {
                name: "Zero".into(),
                metric: "Zero".into(),
                sign: 1.0,
                baseline: None,
                deterministic: true,
            }]
        }
        fn init(&mut self, _b: &str, _s: usize) -> Result<(), String> {
            std::thread::sleep(Duration::from_secs(3600));
            Ok(())
        }
        fn apply_action(&mut self, _a: usize) -> Result<ActionOutcome, String> {
            unreachable!()
        }
        fn observe(&mut self, _s: &str) -> Result<Observation, String> {
            Ok(Observation::Scalar(0.0))
        }
        fn fork(&self) -> Box<dyn CompilationSession> {
            Box::new(HangOnInit)
        }
    }

    let tel = cg_telemetry::global();
    let kills_before = tel.budget_kills.get();

    let factory: SessionFactory = Arc::new(|| Box::new(HangOnInit));
    let link = InlineLink::new(factory);
    link.set_resource_budget(ResourceBudget::default().with_wall(Duration::from_millis(100)))
        .unwrap();
    let mut env = CompilerEnv::with_link(
        "hang-v0",
        Box::new(link.clone()),
        "benchmark://none",
        "Zero",
        "Zero",
    )
    .unwrap();
    let started = std::time::Instant::now();
    match env.reset().unwrap_err() {
        CgError::BudgetExceeded(v) => assert_eq!(v.kind, BudgetKind::Wall),
        other => panic!("expected a wall budget kill, got {other:?}"),
    }
    assert!(started.elapsed() < Duration::from_secs(5), "not in band");
    assert!(
        tel.budget_kills.get() > kills_before,
        "budget kill not counted"
    );
    assert_eq!(env.service_restarts(), 0, "a budget kill restarts nothing");
    assert!(matches!(link.call(Request::Ping), Ok(Response::Pong)));
    assert!(tel
        .trace
        .events()
        .iter()
        .any(|e| e.span == "service:budget-kill"));
}
