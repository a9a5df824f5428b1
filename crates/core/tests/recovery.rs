//! Integration tests for mid-episode fault recovery: a service that panics
//! or hangs partway through an episode is restarted and the episode restored
//! by action replay, transparently to the caller — over every link, and
//! for every fork sharing it; replay divergence and unrecoverable failures
//! surface as typed errors.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cg_core::chaos::{FaultKind, FaultPlan};
use cg_core::checkpoint::DEFAULT_CHECKPOINT_INTERVAL;
use cg_core::envs::session_factory;
use cg_core::service::{InlineLink, Link, Request, Response, SessionFactory};
use cg_core::session::{ActionOutcome, CompilationSession};
use cg_core::space::{
    ActionSpaceInfo, Observation, ObservationKind, ObservationSpaceInfo, RewardSpaceInfo,
};
use cg_core::{Broker, BrokerConfig, CgError, CompilerEnv, ResourceBudget, RetryPolicy};
use common::{Via, ALL};

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

/// An llvm-v0 environment over `via`, its service running `factory`.
fn llvm_env_via(via: Via, factory: SessionFactory, timeout: Duration) -> CompilerEnv {
    let (link, _) = common::link(via, factory, DEFAULT_CHECKPOINT_INTERVAL, timeout);
    CompilerEnv::with_link("llvm-v0", link, BENCH, "Autophase", "IrInstructionCount").unwrap()
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
    for via in ALL {
        panic_at_step_5_of_10_over(via);
    }
}

fn panic_at_step_5_of_10_over(via: Via) {
    let (ref_reward, ref_obs) = reference_run();
    let tel = cg_telemetry::global();
    let (factory, stats) = FaultPlan::seeded(11)
        .schedule(4, FaultKind::Panic)
        .wrap(session_factory("llvm-v0").unwrap());
    let mut env = llvm_env_via(via, factory, Duration::from_secs(30));
    env.reset().unwrap();
    let recoveries_before = tel.recoveries.get();
    for name in RECIPE {
        let a = env.action_space().index_of(name).unwrap();
        // Every step returns Ok — including the one whose first attempt
        // panicked the session away.
        env.step(a).unwrap();
    }
    assert_eq!(
        stats.panics(),
        1,
        "{via:?}: exactly the scheduled panic fired"
    );
    assert!(
        env.service_restarts() >= 1,
        "{via:?}: recovery restarted the service"
    );
    assert!(
        tel.recoveries.get() > recoveries_before,
        "{via:?}: replay recovery not recorded"
    );
    assert!(
        tel.trace.events().iter().any(|e| e.span == "env:replay"),
        "no env:replay trace"
    );
    assert!(
        (env.episode_reward() - ref_reward).abs() < 1e-9,
        "{via:?}: episode reward diverged after recovery: {} vs {ref_reward}",
        env.episode_reward()
    );
    assert_eq!(
        env.observe("Autophase").unwrap(),
        ref_obs,
        "{via:?}: state diverged after recovery"
    );
}

#[test]
fn hang_at_step_5_of_10_is_recovered_transparently() {
    for via in ALL {
        hang_at_step_5_of_10_over(via, FaultKind::Hang);
    }
}

/// A wedged compiler never answers again. A step wall budget on every link
/// kills the step in band, under the socket deadline, and the episode is
/// replayed onto a fresh session of the same service.
#[test]
fn wedge_at_step_5_of_10_is_killed_in_band() {
    for via in ALL {
        hang_at_step_5_of_10_over(via, FaultKind::Wedge);
    }
}

/// `kind` is [`FaultKind::Hang`] or [`FaultKind::Wedge`].
fn hang_at_step_5_of_10_over(via: Via, kind: FaultKind) {
    const TIMEOUT: Duration = Duration::from_millis(500);
    let (ref_reward, ref_obs) = reference_run();
    let (factory, stats) = FaultPlan::seeded(12)
        .schedule(4, kind)
        .with_hang_duration(Duration::from_secs(3))
        .wrap(session_factory("llvm-v0").unwrap());
    let wedge = kind == FaultKind::Wedge;
    // A wedge is left to the wall budget alone, so the socket deadline stays
    // well above it.
    let deadline = if wedge { TIMEOUT * 4 } else { TIMEOUT };
    let mut env = llvm_env_via(via, factory, deadline);
    if wedge {
        // `Configure` reaches every broker worker, so this holds over TCP
        // whichever worker the replay lands on.
        env.set_resource_budget(ResourceBudget::default().with_step_wall(TIMEOUT))
            .unwrap();
    } else {
        common::contain_hangs(via, &mut env, TIMEOUT);
    }
    let kills_before = cg_telemetry::global().budget_kills.get();
    env.reset().unwrap();
    for name in RECIPE {
        let a = env.action_space().index_of(name).unwrap();
        env.step(a).unwrap();
    }
    if wedge {
        assert_eq!(
            stats.wedges(),
            1,
            "{via:?}: exactly the scheduled wedge fired"
        );
    } else {
        assert_eq!(
            stats.hangs(),
            1,
            "{via:?}: exactly the scheduled hang fired"
        );
    }
    if via == Via::Inline || wedge {
        // Killed in band by the wall budget: the session is lost, the
        // service is not.
        assert!(cg_telemetry::global().budget_kills.get() > kills_before);
        assert_eq!(env.service_restarts(), 0, "{via:?}: no restart");
    } else {
        assert!(
            env.service_restarts() >= 1,
            "{via:?}: the wedged service was restarted"
        );
    }
    assert!((env.episode_reward() - ref_reward).abs() < 1e-9, "{via:?}");
    assert_eq!(env.observe("Autophase").unwrap(), ref_obs, "{via:?}");
}

/// The worker the first recovery restarted onto hangs too, on the first
/// replayed action. That is this env's own restart, not a sibling's: the
/// next attempt must restart again rather than resume into the wedged
/// worker until the attempts run out. Inline, both hangs are budget kills
/// and the second attempt replays again without any restart.
#[test]
fn hang_on_replay_is_recovered_by_a_second_restart() {
    for via in ALL {
        hang_on_replay_over(via);
    }
}

fn hang_on_replay_over(via: Via) {
    const TIMEOUT: Duration = Duration::from_millis(500);
    let (ref_reward, ref_obs) = reference_run();
    // Apply 4 is step 5; apply 5 is the first action its replay re-runs.
    let (factory, stats) = FaultPlan::seeded(14)
        .schedule(4, FaultKind::Hang)
        .schedule(5, FaultKind::Hang)
        .with_hang_duration(Duration::from_secs(3))
        .wrap(session_factory("llvm-v0").unwrap());
    let mut env = match via {
        Via::Inline => llvm_env_via(via, factory, TIMEOUT),
        // A reconnect cannot unwedge a broker worker: the broker needs a
        // third, idle one for the second recovery to land on.
        Via::Tcp => {
            let broker = Broker::new(
                factory,
                BrokerConfig {
                    workers: 3,
                    ..BrokerConfig::default()
                },
            );
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            std::thread::spawn(move || broker.serve(listener));
            CompilerEnv::connect_tcp(
                "llvm-v0",
                &addr,
                BENCH,
                "Autophase",
                "IrInstructionCount",
                TIMEOUT,
            )
            .unwrap()
        }
    };
    common::contain_hangs(via, &mut env, TIMEOUT);
    env.set_retry_policy(
        RetryPolicy::default()
            .with_max_attempts(3)
            .with_backoff(Duration::from_millis(1), Duration::from_millis(5)),
    );
    let kills_before = cg_telemetry::global().budget_kills.get();
    env.reset().unwrap();
    for name in RECIPE {
        let a = env.action_space().index_of(name).unwrap();
        env.step(a).unwrap();
    }
    assert_eq!(stats.hangs(), 2, "{via:?}: both scheduled hangs fired");
    if via == Via::Inline {
        assert!(cg_telemetry::global().budget_kills.get() >= kills_before + 2);
        assert_eq!(env.service_restarts(), 0, "{via:?}: no restart");
    } else {
        assert!(
            env.service_restarts() >= 2,
            "{via:?}: each wedged service was restarted"
        );
    }
    assert!((env.episode_reward() - ref_reward).abs() < 1e-9, "{via:?}");
    assert_eq!(env.observe("Autophase").unwrap(), ref_obs, "{via:?}");
}

/// With structural snapshots a checkpoint after *every* action is cheap.
/// A hang then loses nothing: the wall budget abandons the hung runner —
/// still holding a module that shares functions with the depth-4 snapshot
/// — the episode resumes from that snapshot, and only the failed action
/// re-runs.
#[test]
fn hang_with_per_action_snapshots_resumes_from_the_previous_step() {
    let (ref_reward, ref_obs) = reference_run();
    let (factory, stats) = FaultPlan::seeded(13)
        .schedule(4, FaultKind::Hang)
        .with_hang_duration(Duration::from_secs(3))
        .wrap(session_factory("llvm-v0").unwrap());
    let (link, store) = common::link(Via::Inline, factory, 1, Duration::from_millis(500));
    let mut env =
        CompilerEnv::with_link("llvm-v0", link, BENCH, "Autophase", "IrInstructionCount").unwrap();
    common::contain_hangs(Via::Inline, &mut env, Duration::from_millis(500));
    let kills_before = cg_telemetry::global().budget_kills.get();
    env.reset().unwrap();
    let mut actions = Vec::new();
    for name in RECIPE {
        let a = env.action_space().index_of(name).unwrap();
        env.step(a).unwrap();
        actions.push(a);
    }
    assert_eq!(stats.hangs(), 1, "exactly the scheduled hang fired");
    assert!(cg_telemetry::global().budget_kills.get() > kills_before);
    assert_eq!(env.service_restarts(), 0, "killed in band: no restart");
    assert_eq!(store.restores(), 1, "resumed from a snapshot, not a replay");
    assert!(store.checkpoints_taken() >= RECIPE.len() as u64);
    let at_fault = store.latest_matching(BENCH, 0, &actions[..4]).unwrap();
    assert_eq!(at_fault.depth(), 4);
    assert!(at_fault.state.is_live());
    assert!((env.episode_reward() - ref_reward).abs() < 1e-9);
    assert_eq!(env.observe("Autophase").unwrap(), ref_obs);
}

/// A session whose metric depends on which factory invocation built it:
/// metric = construction_index * `gen_scale` + applies. It always declares
/// its spaces deterministic. With `gen_scale > 0` it models a compiler
/// whose claim is false (every restart produces different numbers), which
/// is what the replay check exists to catch; a reward space declared
/// non-deterministic is exempt from that check. With `gen_scale == 0` it is
/// fully deterministic across restarts.
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
            deterministic: true,
            platform_dependent: false,
        }]
    }
    fn reward_spaces(&self) -> Vec<RewardSpaceInfo> {
        vec![RewardSpaceInfo {
            name: "Metric".into(),
            metric: "Metric".into(),
            sign: 1.0,
            baseline: None,
            deterministic: true,
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

/// `Request::GetSpaces` asks a probe session for its spaces outside the
/// dispatcher's containment, so a session whose `action_spaces()` panics
/// unwinds out of the dispatcher itself. Inline, that is the caller's own
/// thread: the link catches it and answers a service failure, and after a
/// restart the fresh service state numbers its sessions from a range the
/// old one never used.
#[test]
fn inline_panic_outside_a_session_call_is_a_service_failure() {
    struct SpacesPanic(GenSession);
    impl CompilationSession for SpacesPanic {
        fn action_spaces(&self) -> Vec<ActionSpaceInfo> {
            panic!("chaos: space description panicked")
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
    let factory: SessionFactory = Arc::new(|| {
        Box::new(SpacesPanic(GenSession {
            gen: 0,
            gen_scale: 0,
            steps: 0,
        }))
    });
    let link = InlineLink::new(factory);
    let start = || match link.call(Request::StartSession {
        benchmark: "benchmark://none".into(),
        action_space: 0,
    }) {
        Ok(Response::SessionStarted { session_id }) => session_id,
        other => panic!("{other:?}"),
    };
    let step = |session_id| {
        link.call(Request::Step {
            session_id,
            actions: vec![0],
            observation_spaces: vec!["Metric".into()],
        })
    };
    let panics_before = cg_telemetry::global().panics.get();
    let stale = start();
    let err = link
        .call(Request::GetSpaces)
        .expect_err("the space description panicked");
    // Still here: the panic stopped at the link, not at this thread.
    assert!(matches!(err, CgError::ServiceFailure(_)), "{err:?}");
    assert!(cg_telemetry::global().panics.get() > panics_before);

    link.restart();
    assert_eq!(link.restarts(), 1);
    let fresh = start();
    assert_eq!(fresh >> 32, 1, "generation 1 numbers from 1 << 32");
    assert_eq!(stale >> 32, 0);
    let e = step(stale).unwrap_err();
    assert!(matches!(e, CgError::SessionLost(_)), "{e:?}");
    match step(fresh).unwrap() {
        Response::Stepped { observations, .. } => {
            assert_eq!(observations, vec![Observation::Scalar(1.0)]);
        }
        other => panic!("{other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Forks share their parent's link: a restart through one replaces the
// service (or the connection) under all of them.
// ---------------------------------------------------------------------------

fn act(env: &CompilerEnv, name: &str) -> usize {
    env.action_space().index_of(name).unwrap()
}

/// What a test compares an episode by: action history, Autophase
/// observation, cumulative reward.
fn outcome(env: &mut CompilerEnv) -> (Vec<usize>, Observation, f64) {
    let obs = env.observe("Autophase").unwrap();
    (env.actions().to_vec(), obs, env.episode_reward())
}

/// The fault-free in-process [`outcome`] of `recipe`.
fn fault_free(recipe: &[&str]) -> (Vec<usize>, Observation, f64) {
    let mut env = llvm_env(session_factory("llvm-v0").unwrap(), Duration::from_secs(30));
    env.reset().unwrap();
    for name in recipe {
        let a = act(&env, name);
        env.step(a).unwrap();
    }
    outcome(&mut env)
}

/// In process a fork shares its parent's service state, with and without a
/// wall budget (under one, every session call runs on the state's runner).
fn in_process_env(factory: SessionFactory, walled: bool) -> CompilerEnv {
    let mut env = llvm_env_via(Via::Inline, factory, Duration::from_secs(30));
    if walled {
        common::contain_hangs(Via::Inline, &mut env, Duration::from_secs(30));
    }
    env
}

/// In process, the parent's panic restarts the service the child's
/// session lived on too. The child's next step recovers by replay — it is
/// not answered "no session" by a service that never held it — and does
/// not restart the service a second time.
#[test]
fn fork_survives_its_parents_recovery_in_process() {
    for walled in [true, false] {
        fork_survives_its_parents_recovery_over(walled);
    }
}

fn fork_survives_its_parents_recovery_over(walled: bool) {
    let via = format!("walled={walled}");
    let (factory, stats) = FaultPlan::seeded(31)
        .schedule(2, FaultKind::Panic)
        .wrap(session_factory("llvm-v0").unwrap());
    let mut parent = in_process_env(factory, walled);
    parent.reset().unwrap();
    for name in ["sroa", "mem2reg"] {
        parent.step(act(&parent, name)).unwrap();
    }
    let mut child = parent.fork().unwrap();
    parent.step(act(&parent, "gvn")).unwrap(); // apply 2 panics
    assert_eq!(stats.panics(), 1, "{via}: the scheduled panic fired");
    child.step(act(&child, "dce")).unwrap();
    assert_eq!(
        child.service_restarts(),
        1,
        "{via}: one restart, shared by both"
    );
    assert_eq!(
        outcome(&mut parent),
        fault_free(&["sroa", "mem2reg", "gvn"]),
        "{via}"
    );
    assert_eq!(
        outcome(&mut child),
        fault_free(&["sroa", "mem2reg", "dce"]),
        "{via}"
    );
}

/// Over TCP a fork shares its parent's connection, and the broker ends a
/// connection's sessions when it closes. The child's hang makes its
/// recovery re-open the shared socket, which ends the parent's session
/// too: the parent's next step recovers by replay on the new connection
/// without re-opening it again, which would end the child's new session.
#[test]
fn fork_survives_its_siblings_reconnect_over_tcp() {
    const HANG: Duration = Duration::from_millis(800);
    let (factory, stats) = FaultPlan::seeded(32)
        .schedule(2, FaultKind::Hang)
        .with_hang_duration(HANG)
        .wrap(session_factory("llvm-v0").unwrap());
    let broker = Broker::new(factory, BrokerConfig::default());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = {
        let broker = broker.clone();
        std::thread::spawn(move || broker.serve(listener))
    };
    let mut parent = CompilerEnv::connect_tcp(
        "llvm-v0",
        &addr,
        BENCH,
        "Autophase",
        "IrInstructionCount",
        Duration::from_millis(300),
    )
    .unwrap();
    parent.reset().unwrap();
    for name in ["sroa", "mem2reg"] {
        parent.step(act(&parent, name)).unwrap();
    }
    let mut child = parent.fork().unwrap();
    child.step(act(&child, "gvn")).unwrap(); // apply 2 hangs: reconnect
    assert_eq!(stats.hangs(), 1, "the scheduled hang fired");
    // Let the wedged worker go, so it has ended the old connection's
    // sessions by the time the parent calls again.
    std::thread::sleep(HANG);
    parent.step(act(&parent, "dce")).unwrap();
    child.step(act(&child, "instcombine")).unwrap();
    assert_eq!(
        parent.service_restarts(),
        1,
        "one reconnect, shared by both"
    );
    // Each env's live session is counted once: answering the parent's
    // stale id as lost released nothing twice.
    assert_eq!(broker.live_sessions(), 2);
    assert_eq!(
        outcome(&mut parent),
        fault_free(&["sroa", "mem2reg", "dce"])
    );
    assert_eq!(
        outcome(&mut child),
        fault_free(&["sroa", "mem2reg", "gvn", "instcombine"])
    );
    parent.close();
    child.close();
    assert_eq!(broker.live_sessions(), 0);
    broker.drain(Duration::from_secs(1));
    server.join().unwrap().unwrap();
}

/// Session ids are never reused across worker generations: a fork taken
/// before a restart must not address a session the restarted worker has
/// created since — here the parent's next fork, which would silently take
/// the stale child's action while its own history stays unchanged.
#[test]
fn stale_fork_id_never_steps_another_session() {
    for walled in [true, false] {
        stale_fork_id_never_steps_another_session_over(walled);
    }
}

fn stale_fork_id_never_steps_another_session_over(walled: bool) {
    let via = format!("walled={walled}");
    let (factory, stats) = FaultPlan::seeded(33)
        .schedule(3, FaultKind::Panic)
        .wrap(session_factory("llvm-v0").unwrap());
    let mut parent = in_process_env(factory, walled);
    parent.reset().unwrap();
    for name in ["sroa", "mem2reg", "gvn"] {
        parent.step(act(&parent, name)).unwrap();
    }
    let mut stale = parent.fork().unwrap();
    parent.step(act(&parent, "instcombine")).unwrap(); // apply 3 panics
    assert_eq!(stats.panics(), 1, "{via}: the scheduled panic fired");
    let mut fresh = parent.fork().unwrap();
    stale.step(act(&stale, "dce")).unwrap();
    let recovered = ["sroa", "mem2reg", "gvn", "instcombine"];
    assert_eq!(outcome(&mut fresh), fault_free(&recovered), "{via}");
    assert_eq!(outcome(&mut parent), fault_free(&recovered), "{via}");
    assert_eq!(
        outcome(&mut stale),
        fault_free(&["sroa", "mem2reg", "gvn", "dce"]),
        "{via}"
    );
}

/// The action [`ThreadRecorder`] hangs on, past any wall budget below.
const HANG: usize = 3;

/// A session that records the thread every action but [`HANG`] is applied
/// on.
struct ThreadRecorder {
    threads: Arc<std::sync::Mutex<Vec<std::thread::ThreadId>>>,
}

impl CompilationSession for ThreadRecorder {
    fn action_spaces(&self) -> Vec<ActionSpaceInfo> {
        vec![ActionSpaceInfo {
            name: "threads".into(),
            actions: vec!["a".into(); 4],
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
    fn apply_action(&mut self, a: usize) -> Result<ActionOutcome, String> {
        if a == HANG {
            std::thread::sleep(Duration::from_millis(1500));
        } else {
            self.threads
                .lock()
                .unwrap()
                .push(std::thread::current().id());
        }
        Ok(ActionOutcome {
            end_of_episode: false,
            action_space_changed: false,
            changed: true,
        })
    }
    fn observe(&mut self, s: &str) -> Result<Observation, String> {
        Err(format!("no observation space {s}"))
    }
    fn fork(&self) -> Box<dyn CompilationSession> {
        Box::new(ThreadRecorder {
            threads: Arc::clone(&self.threads),
        })
    }
}

/// Starts a session over `link`, steps it `n` times with action 0, and
/// returns the session and the threads the steps ran on.
fn step_and_record(
    link: &dyn Link,
    threads: &std::sync::Mutex<Vec<std::thread::ThreadId>>,
    n: usize,
) -> (u64, std::collections::HashSet<std::thread::ThreadId>) {
    let session_id = match link.call(Request::StartSession {
        benchmark: "b".into(),
        action_space: 0,
    }) {
        Ok(Response::SessionStarted { session_id }) => session_id,
        other => panic!("{other:?}"),
    };
    threads.lock().unwrap().clear();
    for _ in 0..n {
        link.call(Request::Step {
            session_id,
            actions: vec![0],
            observation_spaces: vec![],
        })
        .unwrap();
    }
    let ran_on = threads.lock().unwrap().drain(..).collect();
    (session_id, ran_on)
}

/// Steps under a wall budget run on one persistent runner, on every link,
/// and never on the caller's thread; a wall kill abandons that runner and
/// the next steps get exactly one fresh one. Without a budget an inline
/// step runs on the caller's thread.
#[test]
fn budgeted_steps_share_one_runner_until_a_wall_kill_replaces_it() {
    let caller = std::thread::current().id();
    let threads = Arc::new(std::sync::Mutex::new(Vec::new()));
    let factory: SessionFactory = {
        let threads = Arc::clone(&threads);
        Arc::new(move || {
            Box::new(ThreadRecorder {
                threads: Arc::clone(&threads),
            })
        })
    };
    for via in ALL {
        let (link, _) = common::link(
            via,
            Arc::clone(&factory),
            DEFAULT_CHECKPOINT_INTERVAL,
            Duration::from_secs(10),
        );
        link.set_resource_budget(
            ResourceBudget::default().with_step_wall(Duration::from_millis(300)),
        )
        .unwrap();
        let (session_id, first) = step_and_record(&*link, &threads, 20);
        assert_eq!(
            first.len(),
            1,
            "{via:?}: 20 budgeted steps ran on {first:?}"
        );
        assert!(
            !first.contains(&caller),
            "{via:?}: ran on the caller's thread"
        );

        match link.call(Request::Step {
            session_id,
            actions: vec![HANG],
            observation_spaces: vec![],
        }) {
            Err(CgError::BudgetExceeded(v)) => assert_eq!(v.kind, cg_core::BudgetKind::Wall),
            other => panic!("{via:?}: expected a wall kill, got {other:?}"),
        }
        let (_, second) = step_and_record(&*link, &threads, 20);
        assert_eq!(
            second.len(),
            1,
            "{via:?}: 20 steps after the kill ran on {second:?}"
        );
        assert!(
            first.is_disjoint(&second),
            "{via:?}: the abandoned runner was reused"
        );
        assert!(
            !second.contains(&caller),
            "{via:?}: ran on the caller's thread"
        );
    }

    let inline = InlineLink::new(factory);
    let (_, unbudgeted) = step_and_record(&inline, &threads, 20);
    assert_eq!(unbudgeted, [caller].into_iter().collect());
}

/// How long a [`HangsIn`] session hangs: far past the wall budget below.
const HANG_FOR: Duration = Duration::from_secs(3);

/// A session that hangs in `init`, `fork` or `snapshot` when its benchmark
/// names that call, and otherwise counts its applies.
struct HangsIn {
    benchmark: String,
    steps: u64,
}

impl HangsIn {
    fn hang_in(&self, call: &str) {
        if self.benchmark == call {
            std::thread::sleep(HANG_FOR);
        }
    }
}

impl CompilationSession for HangsIn {
    fn action_spaces(&self) -> Vec<ActionSpaceInfo> {
        vec![ActionSpaceInfo {
            name: "hangs".into(),
            actions: vec!["a".into()],
        }]
    }
    fn observation_spaces(&self) -> Vec<ObservationSpaceInfo> {
        vec![]
    }
    fn reward_spaces(&self) -> Vec<RewardSpaceInfo> {
        vec![]
    }
    fn init(&mut self, benchmark: &str, _s: usize) -> Result<(), String> {
        self.benchmark = benchmark.to_string();
        self.hang_in("init");
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
        Ok(Observation::Scalar(self.steps as f64))
    }
    fn fork(&self) -> Box<dyn CompilationSession> {
        self.hang_in("fork");
        Box::new(HangsIn {
            benchmark: self.benchmark.clone(),
            steps: self.steps,
        })
    }
    fn snapshot(&self) -> Option<cg_core::session::SessionSnapshot> {
        self.hang_in("snapshot");
        None
    }
}

/// Every session-scoped request runs under the wall budget, on every link:
/// a session that hangs in `init`, in `fork` or in `snapshot` is answered
/// with a typed wall violation within a few walls, and the link goes on
/// serving. Each call runs on a helper thread, so a call that is not
/// contained fails this test instead of hanging it.
#[test]
fn every_session_scoped_request_is_contained() {
    const WALL: Duration = Duration::from_millis(200);
    let factory: SessionFactory = Arc::new(|| {
        Box::new(HangsIn {
            benchmark: String::new(),
            steps: 0,
        })
    });
    for via in ALL {
        let (link, _) = common::link(
            via,
            Arc::clone(&factory),
            DEFAULT_CHECKPOINT_INTERVAL,
            Duration::from_secs(30),
        );
        link.set_resource_budget(ResourceBudget::default().with_step_wall(WALL))
            .unwrap();
        let link: Arc<dyn Link> = Arc::from(link);
        let call = |req: Request| {
            let kind = req.kind();
            let (tx, rx) = std::sync::mpsc::channel();
            let link = Arc::clone(&link);
            std::thread::spawn(move || tx.send(link.call(req)));
            rx.recv_timeout(WALL * 5)
                .unwrap_or_else(|_| panic!("{via:?}: {kind} not answered within 5 walls"))
        };
        let start = |benchmark: &str| match call(Request::StartSession {
            benchmark: benchmark.into(),
            action_space: 0,
        }) {
            Ok(Response::SessionStarted { session_id }) => session_id,
            other => panic!("{via:?}: start on {benchmark}: {other:?}"),
        };
        let wall_killed = |what: &str, reply: Result<Response, CgError>| match reply {
            Err(CgError::BudgetExceeded(v)) => {
                assert_eq!(v.kind, cg_core::BudgetKind::Wall, "{via:?}: {what}");
            }
            other => panic!("{via:?}: {what} was not wall-killed: {other:?}"),
        };

        let hung_init = Request::StartSession {
            benchmark: "init".into(),
            action_space: 0,
        };
        wall_killed("init", call(hung_init));
        let session_id = start("fork");
        wall_killed("fork", call(Request::Fork { session_id }));
        let session_id = start("snapshot");
        wall_killed("snapshot", call(Request::ExportState { session_id }));

        assert!(matches!(call(Request::Ping), Ok(Response::Pong)), "{via:?}");
        let session_id = start("fresh");
        match call(Request::Step {
            session_id,
            actions: vec![0],
            observation_spaces: vec!["steps".into()],
        }) {
            Ok(Response::Stepped { observations, .. }) => {
                assert_eq!(observations, vec![Observation::Scalar(1.0)], "{via:?}");
            }
            other => panic!("{via:?}: a fresh session did not step: {other:?}"),
        }
    }
}
