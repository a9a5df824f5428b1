//! Integration tests for mid-episode fault recovery: a service that panics
//! or hangs partway through an episode is restarted and the episode restored
//! by action replay, transparently to the caller; replay divergence and
//! unrecoverable failures surface as typed errors.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cg_core::chaos::{FaultKind, FaultPlan};
use cg_core::envs::session_factory;
use cg_core::service::SessionFactory;
use cg_core::session::{ActionOutcome, CompilationSession};
use cg_core::space::{
    ActionSpaceInfo, Observation, ObservationKind, ObservationSpaceInfo, RewardSpaceInfo,
};
use cg_core::{CgError, CompilerEnv, RetryPolicy};

const BENCH: &str = "benchmark://cbench-v1/crc32";

/// A 10-action episode; the 5th action (apply index 4) is the fault point.
const RECIPE: [&str; 10] = [
    "sroa",
    "mem2reg",
    "instcombine",
    "gvn",
    "dse",
    "load-elim",
    "adce",
    "simplifycfg-aggressive",
    "dce",
    "instcombine",
];

fn llvm_env(factory: SessionFactory, timeout: Duration) -> CompilerEnv {
    CompilerEnv::with_factory(
        "llvm-v0",
        factory,
        BENCH,
        "Autophase",
        "IrInstructionCount",
        timeout,
    )
    .unwrap()
}

/// Runs the recipe fault-free: (cumulative reward, final Autophase vector).
fn reference_run() -> (f64, Observation) {
    let mut env = llvm_env(session_factory("llvm-v0").unwrap(), Duration::from_secs(30));
    env.reset().unwrap();
    for name in RECIPE {
        let a = env.action_space().index_of(name).unwrap();
        env.step(a).unwrap();
    }
    let obs = env.observe("Autophase").unwrap();
    (env.episode_reward(), obs)
}

#[test]
fn panic_at_step_5_of_10_is_recovered_transparently() {
    let (ref_reward, ref_obs) = reference_run();
    let tel = cg_telemetry::global();
    let (factory, stats) = FaultPlan::seeded(11)
        .schedule(4, FaultKind::Panic)
        .wrap(session_factory("llvm-v0").unwrap());
    let mut env = llvm_env(factory, Duration::from_secs(30));
    env.reset().unwrap();
    let recoveries_before = tel.recoveries.get();
    for name in RECIPE {
        let a = env.action_space().index_of(name).unwrap();
        // Every step returns Ok — including the one whose first attempt
        // panicked the session away.
        env.step(a).unwrap();
    }
    assert_eq!(stats.panics(), 1, "exactly the scheduled panic fired");
    assert!(
        env.service_restarts() >= 1,
        "recovery restarted the service"
    );
    assert!(
        tel.recoveries.get() > recoveries_before,
        "replay recovery not recorded"
    );
    assert!(
        tel.trace.events().iter().any(|e| e.span == "env:replay"),
        "no env:replay trace"
    );
    assert!(
        (env.episode_reward() - ref_reward).abs() < 1e-9,
        "episode reward diverged after recovery: {} vs {ref_reward}",
        env.episode_reward()
    );
    assert_eq!(
        env.observe("Autophase").unwrap(),
        ref_obs,
        "state diverged after recovery"
    );
}

#[test]
fn hang_at_step_5_of_10_is_recovered_transparently() {
    let (ref_reward, ref_obs) = reference_run();
    let (factory, stats) = FaultPlan::seeded(12)
        .schedule(4, FaultKind::Hang)
        .with_hang_duration(Duration::from_secs(3))
        .wrap(session_factory("llvm-v0").unwrap());
    let mut env = llvm_env(factory, Duration::from_millis(500));
    env.reset().unwrap();
    for name in RECIPE {
        let a = env.action_space().index_of(name).unwrap();
        env.step(a).unwrap();
    }
    assert_eq!(stats.hangs(), 1, "exactly the scheduled hang fired");
    assert!(
        env.service_restarts() >= 1,
        "the wedged service was restarted"
    );
    assert!((env.episode_reward() - ref_reward).abs() < 1e-9);
    assert_eq!(env.observe("Autophase").unwrap(), ref_obs);
}

/// With structural snapshots a checkpoint after *every* action is cheap.
/// A hang then loses nothing: the wedged worker is abandoned — still
/// holding a module that shares functions with the depth-4 snapshot — the
/// episode resumes from that snapshot, and only the failed action re-runs.
#[test]
fn hang_with_per_action_snapshots_resumes_from_the_previous_step() {
    let (ref_reward, ref_obs) = reference_run();
    let (factory, stats) = FaultPlan::seeded(13)
        .schedule(4, FaultKind::Hang)
        .with_hang_duration(Duration::from_secs(3))
        .wrap(session_factory("llvm-v0").unwrap());
    let mut env = llvm_env(factory, Duration::from_millis(500));
    env.set_checkpoint_interval(1);
    env.reset().unwrap();
    let mut actions = Vec::new();
    for name in RECIPE {
        let a = env.action_space().index_of(name).unwrap();
        env.step(a).unwrap();
        actions.push(a);
    }
    assert_eq!(stats.hangs(), 1, "exactly the scheduled hang fired");
    assert!(env.service_restarts() >= 1);
    let store = env.checkpoint_store();
    assert_eq!(store.restores(), 1, "resumed from a snapshot, not a replay");
    assert!(store.checkpoints_taken() >= RECIPE.len() as u64);
    let at_fault = store.latest_matching(BENCH, 0, &actions[..4]).unwrap();
    assert_eq!(at_fault.depth(), 4);
    assert!(at_fault.state.is_live());
    assert!((env.episode_reward() - ref_reward).abs() < 1e-9);
    assert_eq!(env.observe("Autophase").unwrap(), ref_obs);
}

/// A deterministic session whose metric depends on which factory invocation
/// built it: metric = construction_index * `gen_scale` + applies. With
/// `gen_scale > 0` it models a nondeterministic compiler (every restart
/// produces different numbers); with `gen_scale == 0` it is fully
/// deterministic across restarts.
struct GenSession {
    gen: u64,
    gen_scale: u64,
    steps: u64,
}

impl CompilationSession for GenSession {
    fn action_spaces(&self) -> Vec<ActionSpaceInfo> {
        vec![ActionSpaceInfo {
            name: "gen".into(),
            actions: vec!["a".into(); 4],
        }]
    }
    fn observation_spaces(&self) -> Vec<ObservationSpaceInfo> {
        vec![ObservationSpaceInfo {
            name: "Metric".into(),
            kind: ObservationKind::Scalar,
            deterministic: self.gen_scale == 0,
            platform_dependent: false,
        }]
    }
    fn reward_spaces(&self) -> Vec<RewardSpaceInfo> {
        vec![RewardSpaceInfo {
            name: "Metric".into(),
            metric: "Metric".into(),
            sign: 1.0,
            baseline: None,
            deterministic: self.gen_scale == 0,
        }]
    }
    fn init(&mut self, _b: &str, _s: usize) -> Result<(), String> {
        Ok(())
    }
    fn apply_action(&mut self, _a: usize) -> Result<ActionOutcome, String> {
        self.steps += 1;
        Ok(ActionOutcome {
            end_of_episode: false,
            action_space_changed: false,
            changed: true,
        })
    }
    fn observe(&mut self, _s: &str) -> Result<Observation, String> {
        Ok(Observation::Scalar(
            (self.gen * self.gen_scale + self.steps) as f64,
        ))
    }
    fn fork(&self) -> Box<dyn CompilationSession> {
        Box::new(GenSession {
            gen: self.gen,
            gen_scale: self.gen_scale,
            steps: self.steps,
        })
    }
}

fn gen_factory(gen_scale: u64) -> SessionFactory {
    let built = Arc::new(AtomicU64::new(0));
    Arc::new(move || {
        let gen = built.fetch_add(1, Ordering::Relaxed);
        Box::new(GenSession {
            gen,
            gen_scale,
            steps: 0,
        })
    })
}

fn gen_env(factory: SessionFactory) -> CompilerEnv {
    CompilerEnv::with_factory(
        "gen-v0",
        factory,
        "benchmark://none",
        "Metric",
        "Metric",
        Duration::from_secs(5),
    )
    .unwrap()
}

#[test]
fn nondeterministic_replay_surfaces_typed_divergence() {
    let tel = cg_telemetry::global();
    // Every restart shifts the metric by 1000, so a replayed episode can
    // never match the pre-fault value.
    let (factory, _) = FaultPlan::seeded(5)
        .schedule(2, FaultKind::Panic)
        .wrap(gen_factory(1000));
    let mut env = gen_env(factory);
    env.set_retry_policy(
        RetryPolicy::default().with_backoff(Duration::from_millis(1), Duration::from_millis(5)),
    );
    env.reset().unwrap();
    env.step(0).unwrap(); // apply 0
    env.step(1).unwrap(); // apply 1
    let divergences_before = tel.replay_divergences.get();
    let err = env.step(2).unwrap_err(); // apply 2 panics; replay diverges
    let CgError::ReplayDivergence { repro, .. } = &err else {
        panic!("divergent replay must be typed, got {err:?}");
    };
    // The error carries a self-contained reproducer on disk.
    let path = repro
        .as_deref()
        .expect("divergence should dump a reproducer");
    let dump = cg_difftest::DivergenceRepro::load(std::path::Path::new(path)).unwrap();
    // The committed history that diverged on replay (the panicked action
    // itself was never committed).
    assert_eq!(dump.actions, vec![0, 1]);
    assert_eq!(dump.metric_space, "Metric");
    assert!(
        err.to_string().contains(path),
        "error message should point at the reproducer"
    );
    let _ = std::fs::remove_file(path);
    assert!(
        tel.replay_divergences.get() > divergences_before,
        "divergence not counted"
    );
    assert!(
        tel.trace
            .events()
            .iter()
            .any(|e| e.span == "env:replay-divergence"),
        "no env:replay-divergence trace"
    );
    // The episode is unusable but the environment is not: reset() starts
    // over cleanly.
    env.reset().unwrap();
    env.step(0).unwrap();
}

#[test]
fn unrecovered_failure_leaves_no_stale_session() {
    // Every apply panics, forever: recovery replays succeed (empty history)
    // but the retried step always dies, so the failure ultimately surfaces.
    let (factory, _) = FaultPlan::seeded(6)
        .with_panic_prob(1.0)
        .wrap(gen_factory(0));
    let mut env = gen_env(factory);
    env.set_retry_policy(
        RetryPolicy::default()
            .with_max_attempts(2)
            .with_backoff(Duration::from_millis(1), Duration::from_millis(5)),
    );
    env.reset().unwrap();
    let err = env.step(0).unwrap_err();
    assert!(matches!(err, CgError::SessionLost(_)), "got {err:?}");
    // The dead worker's session id must not be retained: the next call is a
    // clean usage error, not a request addressed to a ghost session.
    let err2 = env.step(0).unwrap_err();
    assert!(
        matches!(err2, CgError::Usage(_)),
        "stale session retained: {err2:?}"
    );
    // And reset() re-establishes a working episode (init is fault-free).
    env.reset().unwrap();
}
