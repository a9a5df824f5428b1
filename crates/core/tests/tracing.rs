//! Integration tests for structured tracing: span-context propagation
//! across the RPC boundary (every link, down to the per-pass spans of a
//! real llvm-v0 episode), and span trees that stay connected through the
//! recovery ladder (reconnect or budget kill, checkpoint restore, suffix
//! replay).
//!
//! The telemetry registry is a process-wide global shared by every test in
//! this binary, so each test uses a unique benchmark URI and makes its
//! assertions against the episode flight recorder (which routes spans by
//! trace binding), never against the shared ring as a whole.

mod common;

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use cg_core::chaos::{FaultKind, FaultPlan};
use cg_core::service::SessionFactory;
use cg_core::session::{ActionOutcome, CompilationSession};
use cg_core::space::{
    ActionSpaceInfo, Observation, ObservationKind, ObservationSpaceInfo, RewardSpaceInfo,
};
use cg_core::{Broker, BrokerConfig, CheckpointStore, CompilerEnv};
use cg_telemetry::{EpisodeRecord, SpanStatus};
use common::Via;

/// A deterministic, serializable session: the reward metric is the number
/// of applied actions, so replay-based recovery always reconverges.
struct RecSession {
    steps: usize,
}

impl CompilationSession for RecSession {
    fn action_spaces(&self) -> Vec<ActionSpaceInfo> {
        vec![ActionSpaceInfo {
            name: "rec".into(),
            actions: vec!["a".into(); 8],
        }]
    }
    fn observation_spaces(&self) -> Vec<ObservationSpaceInfo> {
        vec![ObservationSpaceInfo {
            name: "Count".into(),
            kind: ObservationKind::Scalar,
            deterministic: true,
            platform_dependent: false,
        }]
    }
    fn reward_spaces(&self) -> Vec<RewardSpaceInfo> {
        vec![RewardSpaceInfo {
            name: "Count".into(),
            metric: "Count".into(),
            sign: 1.0,
            baseline: None,
            deterministic: true,
        }]
    }
    fn init(&mut self, _benchmark: &str, _action_space: usize) -> Result<(), String> {
        Ok(())
    }
    fn apply_action(&mut self, _action: usize) -> Result<ActionOutcome, String> {
        self.steps += 1;
        Ok(ActionOutcome {
            end_of_episode: false,
            action_space_changed: false,
            changed: true,
        })
    }
    fn observe(&mut self, _space: &str) -> Result<Observation, String> {
        Ok(Observation::Scalar(self.steps as f64))
    }
    fn fork(&self) -> Box<dyn CompilationSession> {
        Box::new(RecSession { steps: self.steps })
    }
    fn save_state(&self) -> Option<Vec<u8>> {
        Some((self.steps as u64).to_le_bytes().to_vec())
    }
    fn load_state(&mut self, state: &[u8]) -> Result<(), String> {
        let bytes: [u8; 8] = state.try_into().map_err(|_| "bad snapshot".to_string())?;
        self.steps = u64::from_le_bytes(bytes) as usize;
        Ok(())
    }
    fn state_size(&self) -> Option<u64> {
        Some(self.steps as u64)
    }
}

fn rec_factory() -> SessionFactory {
    Arc::new(|| Box::new(RecSession { steps: 0 }))
}

/// Every span routed to the episode must hang off another span in the same
/// episode (or be a trace root), and every trace must have exactly one root:
/// that is what "one connected span tree per step" means.
fn assert_connected(ep: &EpisodeRecord) {
    let ids: HashSet<u64> = ep.spans.iter().map(|s| s.span_id).collect();
    let mut roots: HashMap<u64, u64> = HashMap::new();
    for s in &ep.spans {
        match s.parent_id {
            Some(p) => assert!(
                ids.contains(&p),
                "span {} `{}` has dangling parent {p} in episode {}",
                s.span_id,
                s.span,
                ep.episode_id
            ),
            None => *roots.entry(s.trace_id).or_insert(0) += 1,
        }
    }
    for (trace, n) in roots {
        assert_eq!(n, 1, "trace {trace} has {n} roots; expected exactly one");
    }
}

fn episode_for(benchmark: &str) -> EpisodeRecord {
    let recorder = cg_telemetry::global().trace.recorder();
    let id = recorder
        .summaries()
        .into_iter()
        .filter(|s| s.benchmark == benchmark)
        .map(|s| s.episode_id)
        .next_back()
        .expect("episode recorded");
    recorder.episode(id).expect("episode retained")
}

/// Serves a broker over `factory` that checkpoints every 2 actions, on a
/// loopback port, from a thread that lives as long as the test binary.
fn serve_broker(factory: SessionFactory) -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let config = BrokerConfig {
        checkpoints: CheckpointStore::default().with_interval(2),
        ..BrokerConfig::default()
    };
    std::thread::spawn(move || Broker::new(factory, config).serve(listener));
    addr
}

fn spans_named<'a>(
    ep: &'a EpisodeRecord,
    name: &'a str,
) -> impl Iterator<Item = &'a cg_telemetry::SpanRecord> {
    ep.spans.iter().filter(move |s| s.span == name)
}

#[test]
fn tcp_reconnect_recovery_yields_one_connected_span_tree_per_step() {
    // The hung call's socket deadline expires and the transport reconnects.
    hang_recovery_yields_one_connected_span_tree_per_step(
        Via::Tcp,
        &["tcp:reconnect", "env:checkpoint-restore", "env:replay"],
    );
}

#[test]
fn inline_budget_kill_recovery_yields_one_connected_span_tree_per_step() {
    // The step wall budget kills the hung step in band: nothing restarts.
    hang_recovery_yields_one_connected_span_tree_per_step(
        Via::Inline,
        &["env:checkpoint-restore", "env:replay"],
    );
}

/// The 6th apply (global index 5) hangs past the link's deadline. Inside
/// that one step the hung call is abandoned, the episode restores
/// checkpoint depth 4 from a ring that outlives the fault, replays the
/// 1-action suffix and retries. Every span of it, `rungs` included, lands
/// in the step's one connected tree.
fn hang_recovery_yields_one_connected_span_tree_per_step(via: Via, rungs: &[&str]) {
    const DEADLINE: Duration = Duration::from_millis(300);
    let plan = FaultPlan::seeded(11)
        .schedule(5, FaultKind::Hang)
        .with_hang_duration(Duration::from_secs(2));
    let (factory, _stats) = plan.wrap(rec_factory());
    let (link, _) = common::link(via, factory, 2, DEADLINE);
    let bench = &format!("benchmark://tracing-v0/hang-{via:?}");
    let mut env = CompilerEnv::with_link("hang-trace-v0", link, bench, "Count", "Count").unwrap();
    common::contain_hangs(via, &mut env, DEADLINE);
    env.reset().unwrap();
    for _ in 0..6 {
        env.step(0).unwrap();
    }
    let restarted = env.service_restarts() >= 1;
    assert_eq!(
        restarted,
        via == Via::Tcp,
        "{via:?}: only the transport restarts on a hang"
    );
    env.close();

    let ep = episode_for(bench);
    assert_connected(&ep);
    // The recovery rungs are present, carry `recovered` status, and sit in
    // the faulted step's trace (not in fresh, disconnected traces).
    let step_traces: HashSet<u64> = spans_named(&ep, "env:step").map(|s| s.trace_id).collect();
    for name in rungs {
        let span = spans_named(&ep, name)
            .next()
            .unwrap_or_else(|| panic!("no `{name}` span in episode {}", ep.episode_id));
        assert_eq!(
            span.status,
            SpanStatus::Recovered,
            "`{name}` not marked recovered"
        );
        assert!(
            step_traces.contains(&span.trace_id),
            "`{name}` is not part of a step's span tree"
        );
    }
    // A step that succeeded only because its link was replaced is marked
    // on its root span.
    assert_eq!(
        spans_named(&ep, "env:step").any(|s| s.status == SpanStatus::Recovered),
        restarted,
        "{via:?}: env:step roots marked recovered"
    );
    // Context crossed the link: the dispatch span parents under the
    // client's rpc span within the same trace.
    let rpc_ids: HashSet<u64> = ep
        .spans
        .iter()
        .filter(|s| s.span == "rpc:Step")
        .map(|s| s.span_id)
        .collect();
    assert!(
        spans_named(&ep, "service:Step").any(|s| s.parent_id.is_some_and(|p| rpc_ids.contains(&p))),
        "{via:?}: no service:Step span parented under a client rpc:Step span"
    );
}

/// Real passes over the broker: each `pass:<name>` span the llvm-v0 action
/// space opens runs on the broker's worker, inside the dispatch of the step
/// that applied it, so it parents under that step's `service:Step` span.
#[test]
fn tcp_llvm_pass_spans_parent_under_service_step() {
    let factory = cg_core::envs::session_factory("llvm-v0").unwrap();
    let (link, _) = common::link(Via::Tcp, factory, 2, Duration::from_secs(30));
    let bench = "benchmark://cbench-v1/qsort";
    let mut env = CompilerEnv::with_link(
        "llvm-v0",
        link,
        bench,
        "IrInstructionCount",
        "IrInstructionCount",
    )
    .unwrap();
    env.reset().unwrap();
    for action in [0, 1, 2, 3] {
        env.step(action).unwrap();
    }
    env.close();

    let ep = episode_for(bench);
    assert_connected(&ep);
    let service_steps: HashSet<u64> = spans_named(&ep, "service:Step")
        .map(|s| s.span_id)
        .collect();
    let passes: Vec<_> = ep
        .spans
        .iter()
        .filter(|s| s.span.starts_with("pass:"))
        .collect();
    assert_eq!(passes.len(), 4, "one pass span per applied action");
    for span in passes {
        assert!(
            span.parent_id.is_some_and(|p| service_steps.contains(&p)),
            "`{}` is not parented under a service:Step span",
            span.span
        );
    }
}

/// The state half of the test above: what the recovery ladder restores over
/// the broker is the episode itself, not just a connected trace. One
/// scheduled panic and one scheduled hang later, the remote episode holds
/// the same action history, observation and cumulative reward as a
/// fault-free in-process run of the same actions.
#[test]
fn tcp_episode_through_a_hang_and_a_panic_matches_the_fault_free_run() {
    const ACTIONS: [usize; 10] = [0, 1, 2, 3, 4, 5, 6, 7, 0, 1];
    let drive = |env: &mut CompilerEnv| {
        env.reset().unwrap();
        let mut last = None;
        for action in ACTIONS {
            last = Some(env.step(action).unwrap().observation);
        }
        (env.actions().to_vec(), last, env.episode_reward())
    };

    let mut reference = CompilerEnv::with_factory(
        "state-ref-v0",
        rec_factory(),
        "benchmark://tracing-v0/state-reference",
        "Count",
        "Count",
        Duration::from_secs(5),
    )
    .unwrap();
    let expected = drive(&mut reference);
    reference.close();

    let plan = FaultPlan::seeded(23)
        .schedule(3, FaultKind::Panic)
        .schedule(8, FaultKind::Hang)
        .with_hang_duration(Duration::from_secs(2));
    let (factory, stats) = plan.wrap(rec_factory());
    let addr = serve_broker(factory);
    let mut env = CompilerEnv::connect_tcp(
        "state-tcp-v0",
        &addr,
        "benchmark://tracing-v0/state-faulted",
        "Count",
        "Count",
        Duration::from_millis(300),
    )
    .unwrap();
    let got = drive(&mut env);
    env.close();

    assert_eq!(stats.panics(), 1, "the scheduled panic must have fired");
    assert_eq!(stats.hangs(), 1, "the scheduled hang must have fired");
    assert_eq!(got, expected);
}

#[test]
fn checkpoint_restore_recovery_spans_stay_connected_in_process() {
    for via in [Via::InProcess, Via::Inline] {
        checkpoint_restore_recovery_spans_stay_connected_over(via);
    }
}

fn checkpoint_restore_recovery_spans_stay_connected_over(via: Via) {
    let plan = FaultPlan::seeded(7).schedule(7, FaultKind::Panic);
    let (factory, _stats) = plan.wrap(rec_factory());
    let bench = &format!("benchmark://tracing-v0/checkpoint-restore-{via:?}");
    let (link, _) = common::link(via, factory, 2, Duration::from_secs(5));
    let mut env = CompilerEnv::with_link("cp-trace-v0", link, bench, "Count", "Count").unwrap();
    env.reset().unwrap();
    // The 8th apply (global index 7) panics: the session is destroyed, the
    // service restarts, checkpoint depth 6 restores, the 1-action suffix
    // replays, and the step retries.
    for _ in 0..8 {
        env.step(1).unwrap();
    }
    env.close();

    let ep = episode_for(bench);
    assert_connected(&ep);
    for name in ["env:checkpoint-restore", "env:replay"] {
        let span = spans_named(&ep, name)
            .next()
            .unwrap_or_else(|| panic!("no `{name}` span in episode {}", ep.episode_id));
        assert_eq!(
            span.status,
            SpanStatus::Recovered,
            "{via:?}: `{name}` not marked recovered"
        );
    }
    assert!(
        spans_named(&ep, "env:step").any(|s| s.status == SpanStatus::Recovered),
        "{via:?}: no env:step root carries the recovered status"
    );
    // Context reached the service, across the channel or on this thread:
    // service dispatch spans parent under the client's rpc spans.
    let rpc_ids: HashSet<u64> = ep
        .spans
        .iter()
        .filter(|s| s.span.starts_with("rpc:"))
        .map(|s| s.span_id)
        .collect();
    assert!(
        spans_named(&ep, "service:Step").any(|s| s.parent_id.is_some_and(|p| rpc_ids.contains(&p))),
        "{via:?}: no service:Step span parented under a client rpc span"
    );
    // One trace per step: 8 steps → 8 distinct step traces, each also
    // carrying its own `step` summary event.
    let step_traces: HashSet<u64> = spans_named(&ep, "env:step").map(|s| s.trace_id).collect();
    assert_eq!(step_traces.len(), 8, "{via:?}: expected one trace per step");
}
