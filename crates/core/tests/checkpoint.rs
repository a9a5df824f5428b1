//! Integration tests for session checkpointing and in-service budgets: the
//! O(K) recovery rung of the ladder (restore the latest snapshot, replay
//! only the suffix) and the in-band budget kill (typed error, no restart).

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cg_core::chaos::{FaultKind, FaultPlan};
use cg_core::checkpoint::DEFAULT_CHECKPOINT_INTERVAL;
use cg_core::envs::gcc::GccSession;
use cg_core::envs::looptool::LoopToolSession;
use cg_core::envs::{create_session, session_factory};
use cg_core::service::SessionFactory;
use cg_core::session::{ActionOutcome, CompilationSession, SessionSnapshot};
use cg_core::space::{
    ActionSpaceInfo, Observation, ObservationKind, ObservationSpaceInfo, RewardSpaceInfo,
};
use cg_core::{CgError, CheckpointStore, CompilerEnv, ResourceBudget, RetryPolicy};
use cg_gcc::GccSpec;
use common::{Via, ALL};

use proptest::prelude::*;

/// A deterministic session whose state is a step counter, instrumented to
/// count every apply attempt across all instances (so a test can prove how
/// many actions recovery actually replayed) and to panic exactly once, at
/// a scripted global apply ordinal.
struct CountingSession {
    steps: u64,
    attempts: Arc<AtomicU64>,
    panic_at: u64,
}

impl CompilationSession for CountingSession {
    fn action_spaces(&self) -> Vec<ActionSpaceInfo> {
        vec![ActionSpaceInfo {
            name: "count".into(),
            actions: vec!["bump".into(); 8],
        }]
    }
    fn observation_spaces(&self) -> Vec<ObservationSpaceInfo> {
        vec![ObservationSpaceInfo {
            name: "steps".into(),
            kind: ObservationKind::Scalar,
            deterministic: true,
            platform_dependent: false,
        }]
    }
    fn reward_spaces(&self) -> Vec<RewardSpaceInfo> {
        vec![RewardSpaceInfo {
            name: "steps".into(),
            metric: "steps".into(),
            sign: 1.0,
            baseline: None,
            deterministic: true,
        }]
    }
    fn init(&mut self, _b: &str, _s: usize) -> Result<(), String> {
        Ok(())
    }
    fn apply_action(&mut self, _a: usize) -> Result<ActionOutcome, String> {
        let ordinal = self.attempts.fetch_add(1, Ordering::SeqCst) + 1;
        if ordinal == self.panic_at {
            panic!("chaos: scripted fault at apply ordinal {ordinal}");
        }
        self.steps += 1;
        Ok(ActionOutcome {
            end_of_episode: false,
            action_space_changed: false,
            changed: true,
        })
    }
    fn observe(&mut self, _s: &str) -> Result<Observation, String> {
        Ok(Observation::Scalar(self.steps as f64))
    }
    fn fork(&self) -> Box<dyn CompilationSession> {
        Box::new(CountingSession {
            steps: self.steps,
            attempts: Arc::clone(&self.attempts),
            panic_at: self.panic_at,
        })
    }
    fn snapshot(&self) -> Option<SessionSnapshot> {
        let bytes = self.steps.to_le_bytes().to_vec();
        Some(SessionSnapshot::from_bytes(bytes))
    }
    fn restore(&mut self, snapshot: &SessionSnapshot) -> Result<(), String> {
        let bytes: [u8; 8] = snapshot.to_bytes().try_into().map_err(|_| "bad snapshot")?;
        self.steps = u64::from_le_bytes(bytes);
        Ok(())
    }
}

fn counting_factory(panic_at: u64) -> (SessionFactory, Arc<AtomicU64>) {
    let attempts = Arc::new(AtomicU64::new(0));
    let attempts2 = Arc::clone(&attempts);
    let factory: SessionFactory = Arc::new(move || {
        Box::new(CountingSession {
            steps: 0,
            attempts: Arc::clone(&attempts2),
            panic_at,
        })
    });
    (factory, attempts)
}

/// A `count-v0` environment over `via` whose service checkpoints every
/// `interval` actions, and the ring it checkpoints into.
fn count_env(via: Via, factory: SessionFactory, interval: u64) -> (CompilerEnv, CheckpointStore) {
    let (link, store) = common::link(via, factory, interval, Duration::from_secs(10));
    let mut env =
        CompilerEnv::with_link("count-v0", link, "benchmark://count", "steps", "steps").unwrap();
    env.set_retry_policy(
        RetryPolicy::default().with_backoff(Duration::from_millis(1), Duration::from_millis(5)),
    );
    (env, store)
}

/// The acceptance scenario: a 200-step episode whose 196th apply (episode
/// step index 195) panics the session away. With the default checkpoint
/// interval K = 10 the service has a depth-190 snapshot, so recovery must
/// replay exactly the 5-action suffix — not the 195-action history — over
/// every link, each from its own ring.
#[test]
fn fault_at_step_195_of_200_replays_at_most_k_actions() {
    for via in ALL {
        fault_at_step_195_of_200_over(via);
    }
}

fn fault_at_step_195_of_200_over(via: Via) {
    const STEPS: u64 = 200;
    const FAULT_AT: u64 = 196; // apply ordinal (1-based): episode step 195
    let (factory, attempts) = counting_factory(FAULT_AT);
    let (mut env, store) = count_env(via, factory, DEFAULT_CHECKPOINT_INTERVAL);
    env.reset().unwrap();
    for s in 0..STEPS {
        let step = env.step((s % 8) as usize).unwrap();
        assert_eq!(step.observation, Observation::Scalar((s + 1) as f64));
    }
    // Restored state is byte-identical: the counter arrived at exactly 200.
    assert_eq!(
        env.observe("steps").unwrap(),
        Observation::Scalar(STEPS as f64)
    );
    assert!(
        env.service_restarts() >= 1,
        "{via:?}: panic recovery restarts the service"
    );
    assert_eq!(store.restores(), 1, "{via:?}: recovery used a checkpoint");
    // Apply-attempt accounting: 195 pre-fault successes + 1 panic + the
    // replayed suffix + 1 retried action + 4 remaining actions. The suffix
    // is everything between; prove it was ≤ K (and exactly 5 for K = 10).
    let total = attempts.load(Ordering::SeqCst);
    let replayed = total - (195 + 1 + 1 + 4);
    assert!(
        replayed <= 10,
        "{via:?}: recovery replayed {replayed} actions, more than K=10"
    );
    assert_eq!(
        replayed, 5,
        "{via:?}: depth-190 checkpoint implies a 5-action suffix"
    );
}

/// Every environment resumes from its own checkpoint: a panic at apply 15
/// of a 20-step episode, with K = 10, restores the depth-10 snapshot and
/// replays the 5-action suffix (as `fault_at_step_195_of_200` counts), over
/// every link. loop_tool-v0's noisy `Flops` reward recovers without a
/// replay divergence.
#[test]
fn every_environment_resumes_from_a_checkpoint() {
    for (env_id, benchmark, observation, reward) in common::ENVS {
        for via in ALL {
            let (factory, stats) = FaultPlan::seeded(1)
                .schedule(15, FaultKind::Panic)
                .wrap(session_factory(env_id).unwrap());
            let (link, store) = common::link(via, factory, 10, Duration::from_secs(60));
            let mut env =
                CompilerEnv::with_link(env_id, link, benchmark, observation, reward).unwrap();
            env.set_retry_policy(
                RetryPolicy::default()
                    .with_backoff(Duration::from_millis(1), Duration::from_millis(5)),
            );
            env.reset().unwrap();
            let n = env.action_space().actions.len();
            for s in 0..20 {
                if let Err(e) = env.step(s * 7 % n) {
                    panic!("{env_id} over {via:?}: step {s} failed: {e}");
                }
            }
            assert_eq!(stats.panics(), 1, "{env_id} over {via:?}");
            assert_eq!(store.restores(), 1, "{env_id} over {via:?}: restores");
            // 15 clean applies + the panic + the 5-action suffix + the
            // retried action + 4 remaining.
            assert_eq!(stats.applies(), 26, "{env_id} over {via:?}: applies");
        }
    }
}

/// Without checkpoint support (`snapshot` returns `None`) the same fault
/// is still recovered — by full replay.
#[test]
fn fault_recovery_without_checkpoints_replays_everything() {
    struct NoCkpt(CountingSession);
    impl CompilationSession for NoCkpt {
        fn action_spaces(&self) -> Vec<ActionSpaceInfo> {
            self.0.action_spaces()
        }
        fn observation_spaces(&self) -> Vec<ObservationSpaceInfo> {
            self.0.observation_spaces()
        }
        fn reward_spaces(&self) -> Vec<RewardSpaceInfo> {
            self.0.reward_spaces()
        }
        fn init(&mut self, b: &str, s: usize) -> Result<(), String> {
            self.0.init(b, s)
        }
        fn apply_action(&mut self, a: usize) -> Result<ActionOutcome, String> {
            self.0.apply_action(a)
        }
        fn observe(&mut self, s: &str) -> Result<Observation, String> {
            self.0.observe(s)
        }
        fn fork(&self) -> Box<dyn CompilationSession> {
            unimplemented!("not forked in this test")
        }
    }
    const FAULT_AT: u64 = 26; // episode step 25 of 30
    let attempts = Arc::new(AtomicU64::new(0));
    let attempts2 = Arc::clone(&attempts);
    let factory: SessionFactory = Arc::new(move || {
        Box::new(NoCkpt(CountingSession {
            steps: 0,
            attempts: Arc::clone(&attempts2),
            panic_at: FAULT_AT,
        }))
    });
    let (mut env, store) = count_env(Via::Inline, factory, DEFAULT_CHECKPOINT_INTERVAL);
    common::contain_hangs(Via::Inline, &mut env, Duration::from_secs(10));
    env.reset().unwrap();
    for s in 0..30 {
        env.step((s % 8) as usize).unwrap();
    }
    assert_eq!(env.observe("steps").unwrap(), Observation::Scalar(30.0));
    assert_eq!(store.restores(), 0, "nothing to restore from");
    // 25 pre-fault + 1 panic + 25 full replay + 1 retry + 4 remaining.
    assert_eq!(attempts.load(Ordering::SeqCst), 56);
}

/// Rung 1 end to end: a hang contained by the step wall budget surfaces as
/// a typed `BudgetExceeded` within ~2× the budget — no client timeout, no
/// service restart — when recovery cannot outrun a deterministic hang.
#[test]
fn budget_violation_is_typed_and_prompt_without_restart() {
    const WALL: Duration = Duration::from_millis(100);
    // Every apply hangs far past the wall budget, which replaces the
    // environment's 60 s one: only the in-service budget can answer quickly.
    let (factory, _stats) = FaultPlan::seeded(21)
        .with_hang_prob(1.0)
        .with_hang_duration(Duration::from_secs(5))
        .wrap(session_factory("llvm-v0").unwrap());
    let mut env = CompilerEnv::with_factory(
        "llvm-v0",
        factory,
        "benchmark://cbench-v1/crc32",
        "Autophase",
        "IrInstructionCount",
        Duration::from_secs(60),
    )
    .unwrap();
    env.set_retry_policy(
        RetryPolicy::default()
            .with_max_attempts(2)
            .with_backoff(Duration::from_millis(1), Duration::from_millis(5)),
    );
    env.set_resource_budget(ResourceBudget::default().with_step_wall(WALL))
        .unwrap();
    env.reset().unwrap();
    let started = Instant::now();
    let err = env.step(0).unwrap_err();
    let elapsed = started.elapsed();
    assert!(
        matches!(err, CgError::BudgetExceeded(_)),
        "expected a typed budget violation, got {err:?}"
    );
    // Two attempts, each killed at the wall: comfortably under 2× budget
    // per attempt (the 2s margin absorbs scheduler noise in CI).
    assert!(
        elapsed < 2 * WALL * 2 + Duration::from_secs(2),
        "budget kill took {elapsed:?}, not in-band"
    );
    assert_eq!(
        env.service_restarts(),
        0,
        "budget kills must not restart the service"
    );
}

/// A budget-killed step on a *recoverable* episode is absorbed: the session
/// is rebuilt from a checkpoint and the episode continues, still without a
/// service restart.
#[test]
fn budget_kill_recovers_via_checkpoint_without_restart() {
    // One scheduled hang at apply ordinal 25 (episode step 24); every other
    // apply is clean, so the retry succeeds.
    let (factory, stats) = FaultPlan::seeded(22)
        .schedule(24, FaultKind::Hang)
        .with_hang_duration(Duration::from_secs(5))
        .wrap(session_factory("llvm-v0").unwrap());
    let (mut env, store) = llvm_env_with_ring(factory, DEFAULT_CHECKPOINT_INTERVAL);
    env.set_resource_budget(ResourceBudget::default().with_step_wall(Duration::from_millis(250)))
        .unwrap();
    env.reset().unwrap();
    let pool = ["instcombine", "dce", "gvn", "sroa"];
    for s in 0..30u64 {
        let name = pool[(s % 4) as usize];
        let a = env.action_space().index_of(name).unwrap();
        env.step(a).unwrap();
    }
    assert_eq!(stats.hangs(), 1, "the scheduled hang fired");
    assert_eq!(env.service_restarts(), 0, "contained in-band: no restart");
    assert!(
        store.restores() >= 1,
        "recovery should have used the depth-20 checkpoint"
    );
    // The killed session was abandoned to its runner thread, where it
    // finished the action on a module that shared functions with the
    // depth-20 snapshot. Nothing reached the snapshot: the episode ends
    // where an undisturbed one does.
    let mut straight = llvm_env_on(session_factory("llvm-v0").unwrap());
    straight.reset().unwrap();
    for s in 0..30u64 {
        let a = straight.action_space().index_of(pool[(s % 4) as usize]);
        straight.step(a.unwrap()).unwrap();
    }
    assert_eq!(env.observe("Ir").unwrap(), straight.observe("Ir").unwrap());
    assert_eq!(
        env.episode_reward().to_bits(),
        straight.episode_reward().to_bits()
    );
}

fn llvm_env_on(factory: SessionFactory) -> CompilerEnv {
    llvm_env_with_ring(factory, DEFAULT_CHECKPOINT_INTERVAL).0
}

/// An in-process llvm-v0 environment whose service checkpoints every
/// `interval` actions, and the ring it checkpoints into.
fn llvm_env_with_ring(factory: SessionFactory, interval: u64) -> (CompilerEnv, CheckpointStore) {
    let (link, store) = common::link(Via::Inline, factory, interval, Duration::from_secs(60));
    let mut env = CompilerEnv::with_link(
        "llvm-v0",
        link,
        "benchmark://cbench-v1/crc32",
        "Autophase",
        "IrInstructionCount",
    )
    .unwrap();
    common::contain_hangs(Via::Inline, &mut env, Duration::from_secs(60));
    env.set_retry_policy(
        RetryPolicy::default().with_backoff(Duration::from_millis(1), Duration::from_millis(5)),
    );
    (env, store)
}

/// A compiler panic on the action right after a K-boundary: the worker
/// dies one apply after taking a structural snapshot. The snapshot is a
/// handle to immutable state, so it outlives the worker that took it,
/// still encodes to exactly the IR of that depth, and recovery resumes
/// from it with nothing to replay but the failed action.
#[test]
fn panic_right_after_a_snapshot_restores_from_it_intact() {
    const K: usize = 5;
    let pool = ["sroa", "instcombine", "gvn", "simplifycfg", "dce", "licm"];
    let mut straight = llvm_env_on(session_factory("llvm-v0").unwrap());
    straight.reset().unwrap();
    let actions: Vec<usize> = (0..12)
        .map(|s| straight.action_space().index_of(pool[s % 6]).unwrap())
        .collect();
    let mut ir_at_k = None;
    for (s, &a) in actions.iter().enumerate() {
        straight.step(a).unwrap();
        if s + 1 == K {
            ir_at_k = Some(straight.observe("Ir").unwrap());
        }
    }

    let (factory, stats) = FaultPlan::seeded(23)
        .schedule(K as u64, FaultKind::Panic)
        .wrap(session_factory("llvm-v0").unwrap());
    let (mut env, store) = llvm_env_with_ring(factory, K as u64);
    env.reset().unwrap();
    for &a in &actions {
        env.step(a).unwrap();
    }
    assert_eq!(stats.panics(), 1, "the scheduled panic fired");
    assert_eq!(store.restores(), 1, "recovery used the depth-{K} snapshot");
    let parked = store
        .latest_matching("benchmark://cbench-v1/crc32", 0, &actions[..K + 1])
        .expect("the snapshot outlived the worker that took it");
    assert_eq!(parked.depth(), K);
    assert!(
        parked.state.is_live(),
        "the ring holds the handle, not text"
    );
    assert_eq!(
        Observation::Text(String::from_utf8(parked.state.to_bytes().to_vec()).unwrap()),
        ir_at_k.unwrap(),
        "the snapshot is intact"
    );
    assert_eq!(env.observe("Ir").unwrap(), straight.observe("Ir").unwrap());
    assert_eq!(
        env.episode_reward().to_bits(),
        straight.episode_reward().to_bits()
    );
}

/// gcc-v0 restores a choice vector only through `set_choices`, which
/// checks its length.
#[test]
fn gcc_restore_goes_through_set_choices() {
    let mut s = GccSession::new(GccSpec::v11_2());
    s.init("benchmark://chstone-v0/sha", 0).unwrap();
    s.set_choices(&s.option_space().choices_for_level(2))
        .unwrap();
    let snap = s.snapshot().unwrap();
    let mut fresh = GccSession::new(GccSpec::v11_2());
    assert!(fresh.restore(&snap).is_err(), "not initialized");
    fresh.init("benchmark://chstone-v0/sha", 0).unwrap();
    fresh.restore(&snap).unwrap();
    assert_eq!(fresh.choices(), s.choices());
    let short = SessionSnapshot::from_bytes(b"[0,1]".to_vec());
    assert!(fresh.restore(&short).unwrap_err().contains("expected"));
}

/// loop_tool-v0 restores only a nest of the initialised problem size whose
/// cursor is inside its loops.
#[test]
fn loop_tool_restore_rejects_a_foreign_nest() {
    let mut s = LoopToolSession::new();
    s.init("benchmark://loop_tool-v0/1024", 1).unwrap();
    s.apply_action(4).unwrap(); // split
    let snap = s.snapshot().unwrap();
    let mut other = LoopToolSession::new();
    other.init("benchmark://loop_tool-v0/2048", 1).unwrap();
    assert!(other.restore(&snap).unwrap_err().contains("problem size"));
    other.init("benchmark://loop_tool-v0/1024", 1).unwrap();
    other.restore(&snap).unwrap();
    assert_eq!(other.nest(), s.nest());
    let mut nest = s.nest().unwrap().clone();
    nest.cursor = nest.loops.len();
    let bytes = serde_json::to_vec(&(&nest, 0u64)).unwrap();
    let outside = SessionSnapshot::from_bytes(bytes);
    assert!(other.restore(&outside).unwrap_err().contains("cursor"));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The checkpoint contract, for every environment: `snapshot` →
    /// `to_bytes` → `from_bytes` → `restore` into a *fresh* session
    /// re-encodes byte-identically and behaves identically, for arbitrary
    /// action prefixes.
    #[test]
    fn snapshot_bytes_round_trip_byte_identical(
        actions in proptest::collection::vec(0usize..4096, 0..6),
        probe in 0usize..4096,
    ) {
        for (env_id, benchmark, _, reward) in common::ENVS {
            let fresh = || {
                let mut s = create_session(env_id).unwrap();
                s.init(benchmark, 0).unwrap();
                s
            };
            let mut s = fresh();
            let n = s.action_spaces()[0].actions.len();
            for &a in &actions {
                let _ = s.apply_action(a % n);
            }
            let snap = s.snapshot().expect("every environment supports checkpoints");
            let bytes = snap.to_bytes().to_vec();

            let mut restored = fresh();
            restored.restore(&SessionSnapshot::from_bytes(bytes.clone())).unwrap();
            let resnap = restored.snapshot().unwrap();
            prop_assert_eq!(
                &bytes[..],
                resnap.to_bytes(),
                "{}: re-encoding must be byte-identical",
                env_id
            );
            prop_assert_eq!(s.state_size(), restored.state_size());

            // Behaviorally identical: one more arbitrary action lands both
            // sessions on the same metric.
            let _ = s.apply_action(probe % n);
            let _ = restored.apply_action(probe % n);
            prop_assert_eq!(s.observe(reward).unwrap(), restored.observe(reward).unwrap());
        }
    }
}
