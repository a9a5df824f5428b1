//! The traced run: per-layer metrics. Nothing in the crates under test is
//! instrumented; every span is recorded by the harness around a call into
//! a public function (see [`crate::span`]). The spans are written to
//! `out/trace-<workload>.jsonl` when the run ends.

pub mod ladder;
pub mod probes;

use std::collections::BTreeMap;

use cg_core::service::{Request, Response, ServiceClient, TcpTransport};

use self::ladder::{
    drive_env, drive_leaf, drive_pipelined, drive_requests, drive_session, drive_wire, mean_us,
    Rung, TraceScript, CALL_TIMEOUT, LOCAL, REMOTE,
};
use crate::catalog::{self, PER_LAYER};
use crate::gen::{self, Episode};
use crate::host::{Fingerprint, Pinned};
use crate::result::{Layer, RunResult, SpanTotal};
use crate::run::{RunCfg, Verify};
use crate::span::{self, Recorder};
use crate::stats::{Better, Rounds};
use crate::workloads::{obs_sweep, replay_store, rl_loop, search_pool, tcp_fleet};

/// Which entry point a workload's clients call, i.e. the top of its ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Top {
    /// `CompilerEnv::step_lazy` on the in-process service.
    Local,
    /// `CompilerEnv::step_lazy` over `connect_tcp` to a broker.
    Tcp,
}

/// Untraced passes over the script at the top rung, one before and one
/// after each episode's traced work; the faster is the reference the traced
/// pass and the layer sum are compared with.
const UNTRACED_PASSES: usize = 2;

/// Request/response pairs kept for the wire rung.
const WIRE_SAMPLE: usize = 2000;

/// The first third of a workload's first-round input, rounded up.
fn third<T>(items: Vec<T>) -> Vec<T> {
    let n = items.len().div_ceil(3);
    items.into_iter().take(n).collect()
}

/// The script the traced run of `workload` drives: about a third of the
/// workload's first-round input (all of it for `replay-store`, whose
/// rounds are short), with the observation spaces and the batching the
/// workload uses.
fn trace_script(workload: &str, cfg: &RunCfg) -> Result<(TraceScript, Top), String> {
    Ok(match workload {
        "rl-loop" => (
            TraceScript {
                episodes: third(rl_loop::input(cfg)),
                extra: Vec::new(),
                batch: 1,
            },
            Top::Local,
        ),
        "obs-sweep" => (
            TraceScript {
                episodes: third(obs_sweep::input(cfg)),
                extra: obs_sweep::SPACES.to_vec(),
                batch: 1,
            },
            Top::Local,
        ),
        "tcp-fleet" => {
            let [a, b] = tcp_fleet::input(cfg);
            let mut episodes = third(a);
            episodes.extend(third(b));
            (
                TraceScript {
                    episodes,
                    extra: tcp_fleet::SPACES.to_vec(),
                    batch: 1,
                },
                Top::Tcp,
            )
        }
        "search-pool" => (
            TraceScript {
                episodes: third(search_pool::input(cfg))
                    .into_iter()
                    .flatten()
                    .collect(),
                extra: Vec::new(),
                // Pool workers step to the next snapshot boundary in one
                // round trip: 4 actions per call.
                batch: cg_core::evalcache::DEFAULT_SNAPSHOT_INTERVAL,
            },
            Top::Local,
        ),
        "replay-store" => (
            TraceScript {
                episodes: replay_store::input(cfg).logged,
                extra: Vec::new(),
                batch: 1,
            },
            Top::Local,
        ),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

fn as_text<E: std::fmt::Display>(r: Result<Response, E>) -> Result<Response, String> {
    match r {
        Ok(Response::Overloaded { reason, .. }) => Err(format!("refused: {reason}")),
        Ok(Response::Error(e) | Response::Fatal(e)) => Err(e),
        Ok(resp) => Ok(resp),
        Err(e) => Err(e.to_string()),
    }
}

/// Everything the ladder measured, rung by rung.
#[derive(Default)]
struct Ladder {
    /// `CompilerEnv::step_lazy`, in-process service.
    env: Rung,
    /// `ServiceClient::call`.
    service: Rung,
    /// `CompilationSession::apply_action` + `observe`.
    session: Rung,
    /// Pass, observations and reward called directly.
    leaf: Rung,
    /// `Broker::call`.
    broker: Rung,
    /// `TcpTransport::call` against `Broker::serve`.
    tcp: Rung,
    /// `TcpTransport::call_pipelined`, window 8.
    tcp_pipelined: Rung,
    /// `CompilerEnv::step_lazy` over `connect_tcp`.
    env_tcp: Rung,
    /// Untraced passes of `env`, before and after each episode's traced work.
    untraced_env: [Rung; UNTRACED_PASSES],
    /// Untraced passes of `env_tcp`, likewise.
    untraced_env_tcp: [Rung; UNTRACED_PASSES],
    /// Unrecorded warm-up calls; only their failures count.
    warm_up: Rung,
    checkpoints: ladder::SessionExtras,
    leaf_totals: ladder::LeafTotals,
    /// (request, response) pairs captured at the broker rung.
    pairs: Vec<(Request, Response)>,
    /// Broker queue waits during the `env_tcp` rung: count, microseconds.
    queue_wait: (u64, u64),
    /// Requests the broker refused or shed during the whole ladder.
    refused: u64,
}

impl Ladder {
    fn rungs(&self) -> [(&'static str, &Rung); 8] {
        [
            ("env", &self.env),
            ("service client", &self.service),
            ("session", &self.session),
            ("leaf", &self.leaf),
            ("broker", &self.broker),
            ("tcp transport", &self.tcp),
            ("tcp pipelined", &self.tcp_pipelined),
            ("env over tcp", &self.env_tcp),
        ]
    }

    fn failures(&self) -> u64 {
        self.rungs()
            .iter()
            .map(|(_, r)| *r)
            .chain(&self.untraced_env)
            .chain(&self.untraced_env_tcp)
            .chain([&self.warm_up])
            .map(|r| r.failed)
            .sum()
    }
}

/// Drives the script through every rung. Every rung is driven one episode
/// at a time, round-robin, so that a slow phase of the host lands on all
/// rungs of an episode alike instead of on whichever rung it happened to
/// overlap. The untraced reference brackets each episode's traced work:
/// once before, once after.
fn drive_ladder(script: &TraceScript, rec: &mut Recorder) -> Result<Ladder, String> {
    let tel = cg_telemetry::global();
    let mut l = Ladder {
        pairs: Vec::with_capacity(WIRE_SAMPLE),
        ..Ladder::default()
    };
    let mut unrecorded = Recorder::with_capacity(4096);
    let all = 0..script.episodes.len();

    let mut env = crate::workloads::make_llvm_env()?;
    let client = ServiceClient::spawn(cg_core::envs::session_factory("llvm-v0")?, CALL_TIMEOUT);
    let mut call_client = |req: Request| as_text(client.call(req));
    let server = tcp_fleet::Server::start()?;
    let broker = server.broker.clone();
    let mut call_broker = |req: Request| as_text(Ok::<_, String>(broker.call("perfbench", req)));
    let transport = TcpTransport::connect(&server.addr, CALL_TIMEOUT).map_err(|e| e.to_string())?;
    let mut call_tcp = |req: Request| as_text(transport.call(req));
    let mut pipelined =
        |reqs: &[Request]| transport.call_pipelined(reqs).map_err(|e| e.to_string());
    let mut env_tcp = server.connect()?;

    // Warm-up, unrecorded: the whole script through the local environment
    // fills the benchmark cache; each remote rung sees the first episode
    // once, so that connection set-up and codec negotiation stay out of
    // the means.
    drive_env(&mut env, script, all.clone(), None, LOCAL, &mut l.warm_up);
    for call in [
        &mut call_client as &mut ladder::Call<'_>,
        &mut call_broker,
        &mut call_tcp,
    ] {
        drive_requests(
            call,
            script,
            0..1,
            &mut unrecorded,
            "warm-up",
            None,
            &mut l.warm_up,
        );
    }
    drive_env(&mut env_tcp, script, 0..1, None, REMOTE, &mut l.warm_up);

    let space = cg_llvm::action_space::ActionSpace::new();
    let checkpoints = cg_core::checkpoint::CheckpointStore::default();
    // The observation functions the script does not ask for run on about
    // 200 of its steps.
    let steps_per_episode = script
        .episodes
        .first()
        .map_or(1, |e| e.actions.len().div_ceil(script.batch));
    let stride = (steps_per_episode * script.episodes.len() / 200).max(1);
    let refusals = |b: &cg_telemetry::BrokerSnapshot| b.refused + b.quota_refusals + b.shed;
    let refused_before = refusals(&tel.broker.snapshot());
    for e in all {
        let one = e..e + 1;
        let [before, after] = &mut l.untraced_env;
        let [tcp_before, tcp_after] = &mut l.untraced_env_tcp;
        drive_env(&mut env, script, one.clone(), None, LOCAL, before);
        drive_env(&mut env_tcp, script, one.clone(), None, REMOTE, tcp_before);

        drive_env(&mut env, script, one.clone(), Some(rec), LOCAL, &mut l.env);
        drive_requests(
            &mut call_client,
            script,
            one.clone(),
            rec,
            "core.service.call",
            None,
            &mut l.service,
        );
        drive_session(
            script,
            one.clone(),
            rec,
            &checkpoints,
            &mut l.session,
            &mut l.checkpoints,
        )?;
        drive_leaf(
            &space,
            script,
            one.clone(),
            rec,
            stride,
            &mut l.leaf,
            &mut l.leaf_totals,
        )?;
        drive_requests(
            &mut call_broker,
            script,
            one.clone(),
            rec,
            "core.broker.call",
            Some(&mut l.pairs),
            &mut l.broker,
        );
        drive_requests(
            &mut call_tcp,
            script,
            one.clone(),
            rec,
            "core.tcp.call",
            None,
            &mut l.tcp,
        );
        drive_pipelined(
            &mut call_tcp,
            &mut pipelined,
            script,
            one.clone(),
            rec,
            "core.tcp.call_pipelined",
            &mut l.tcp_pipelined,
        );
        let wait = tel.broker.queue_wait.snapshot();
        drive_env(
            &mut env_tcp,
            script,
            one.clone(),
            Some(rec),
            REMOTE,
            &mut l.env_tcp,
        );
        let waited = tel.broker.queue_wait.snapshot();
        l.queue_wait.0 += waited.count - wait.count;
        l.queue_wait.1 += waited.sum_micros - wait.sum_micros;

        drive_env(&mut env, script, one.clone(), None, LOCAL, after);
        drive_env(&mut env_tcp, script, one, None, REMOTE, tcp_after);
    }
    l.refused = refusals(&tel.broker.snapshot()) - refused_before;
    Ok(l)
}

/// Per-layer metrics of the ladder, the budget and the shares.
fn ladder_metrics(
    script: &TraceScript,
    top: Top,
    l: &Ladder,
    wire: &ladder::WireTotals,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let per_action = |r: &Rung| r.us_per_action();
    let (leaf, ck) = (&l.leaf_totals, &l.checkpoints);
    let leaf_step = per_action(&l.leaf);
    let checkpoint = ck.checkpoint_ns as f64 / 1e3 / l.session.actions.max(1) as f64;
    // The wire costs are per call; the ladder is per action.
    let wire_per_action = (mean_us(wire.encode_request)
        + mean_us(wire.decode_request)
        + mean_us(wire.encode_response)
        + mean_us(wire.decode_response))
        / script.batch as f64;
    // Self time: this entry point minus the next one down, never negative.
    let below = |upper: &Rung, lower: f64| (per_action(upper) - lower).max(0.0);
    let session_self = below(&l.session, leaf_step);
    // The service worker and the broker's workers take the checkpoints.
    let service_self = below(&l.service, per_action(&l.session) + checkpoint);
    let env_self = below(&l.env, per_action(&l.service));
    let broker_self = below(&l.broker, per_action(&l.session) + checkpoint);
    let tcp_self = below(&l.tcp, per_action(&l.broker) + wire_per_action);
    let env_tcp_self = below(&l.env_tcp, per_action(&l.tcp));

    m.insert("datasets.build_us", mean_us(leaf.build));
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    m.insert("ir.am.hit_ratio", ratio(leaf.am_hits, leaf.am_misses));
    m.insert(
        "ir.am.fresh_hit_ratio",
        ratio(leaf.fresh_hits, leaf.fresh_misses),
    );
    m.insert("ir.am.noop_skips", leaf.noop_skips as f64);
    m.insert("llvm.pass.self_us", mean_us(leaf.pass_warm));
    m.insert("llvm.pass.cold_us", mean_us(leaf.pass_cold));
    m.insert(
        "llvm.pass.changed_ratio",
        leaf.changed as f64 / leaf.pass_warm.1.max(1) as f64,
    );
    m.insert("llvm.observation.ir_us", mean_us(leaf.ir));
    m.insert("llvm.observation.instcount_us", mean_us(leaf.instcount));
    m.insert(
        "llvm.observation.instcount_incr_us",
        mean_us(leaf.instcount_incr),
    );
    m.insert("llvm.observation.autophase_us", mean_us(leaf.autophase));
    m.insert(
        "llvm.observation.autophase_incr_us",
        mean_us(leaf.autophase_incr),
    );
    m.insert("llvm.observation.inst2vec_us", mean_us(leaf.inst2vec));
    m.insert("llvm.observation.programl_us", mean_us(leaf.programl));
    m.insert("llvm.reward.us", mean_us(leaf.reward));
    m.insert("core.session.self_us", session_self);
    let taken = ck.checkpoints.max(1) as f64;
    m.insert(
        "core.checkpoint.save_us",
        ck.checkpoint_ns as f64 / 1e3 / taken,
    );
    m.insert("core.checkpoint.bytes", ck.checkpoint_bytes as f64 / taken);
    m.insert("core.checkpoint.taken", ck.checkpoints as f64);
    m.insert("core.service.self_us", service_self);
    m.insert("core.env.self_us", env_self);
    m.insert("core.env.reset_us", l.env.reset_us());
    m.insert("core.wire.encode_request_us", mean_us(wire.encode_request));
    m.insert("core.wire.decode_request_us", mean_us(wire.decode_request));
    m.insert(
        "core.wire.encode_response_us",
        mean_us(wire.encode_response),
    );
    m.insert(
        "core.wire.decode_response_us",
        mean_us(wire.decode_response),
    );
    m.insert(
        "core.wire.bytes_per_step",
        wire.bytes as f64 / l.pairs.len().max(1) as f64,
    );
    m.insert("core.broker.self_us", broker_self);
    m.insert(
        "core.broker.queue_wait_us",
        l.queue_wait.1 as f64 / l.queue_wait.0.max(1) as f64,
    );
    m.insert("core.broker.refused", l.refused as f64);
    m.insert("core.tcp.self_us", tcp_self);
    m.insert(
        "core.tcp.pipelined_us_per_step",
        l.tcp_pipelined.step_ns as f64 / 1e3 / l.tcp_pipelined.calls.max(1) as f64,
    );
    m.insert("core.env.tcp_self_us", env_tcp_self);

    // Budget: do the layers on this workload's path add up to its step?
    let below_service = checkpoint + session_self + leaf_step;
    let (untraced, traced, layer_sum, serving) = match top {
        Top::Local => (
            &l.untraced_env,
            &l.env,
            env_self + service_self + below_service,
            0.0,
        ),
        Top::Tcp => {
            let serving = tcp_self + wire_per_action + broker_self;
            (
                &l.untraced_env_tcp,
                &l.env_tcp,
                env_tcp_self + serving + below_service,
                serving,
            )
        }
    };
    let reference = Rounds::of(untraced.iter().map(per_action).collect(), Better::Lower);
    let step = reference.best;
    // What the script asks for is timed inside `leaf.step`; everything
    // else in these totals ran off the step's books.
    let asked = script.spaces();
    let on_path = |space: &str, total: (u64, u64)| -> f64 {
        if asked.iter().any(|s| s == space) {
            total.0 as f64 / 1e3 / l.leaf.actions.max(1) as f64
        } else {
            0.0
        }
    };
    let observations = on_path("Ir", leaf.ir)
        + on_path("InstCount", leaf.instcount_incr)
        + on_path("Autophase", leaf.autophase_incr)
        + on_path("Inst2vec", leaf.inst2vec)
        + on_path("Programl", leaf.programl);
    let passes = leaf.pass_warm.0 as f64 / 1e3 / l.leaf.actions.max(1) as f64;
    m.insert("share.compiler_pct", 100.0 * passes / step);
    m.insert("share.observation_pct", 100.0 * observations / step);
    m.insert("share.serving_pct", 100.0 * serving / step);
    m.insert("harness.untraced_step_us", step);
    m.insert(
        "harness.trace_overhead_pct",
        100.0 * (per_action(traced) - step) / step,
    );
    m.insert(
        "harness.budget_residual_pct",
        100.0 * (layer_sum - step).abs() / step,
    );
    m.insert("harness.round_spread_pct", reference.spread_pct());
}

/// The episodes the store probe logs: the script itself on `replay-store`;
/// elsewhere its first 24 episodes (4 in a `--smoke` run) cut to 25 steps,
/// so that the probe stays a probe.
fn store_probe_episodes(workload: &str, cfg: &RunCfg, script: &TraceScript) -> Vec<Episode> {
    if workload == "replay-store" {
        return script.episodes.clone();
    }
    script
        .episodes
        .iter()
        .take(if cfg.smoke { 4 } else { 24 })
        .map(|e| Episode {
            benchmark: e.benchmark.clone(),
            actions: e.actions[..e.actions.len().min(gen::REPLAY_EPISODE_LEN)].to_vec(),
        })
        .collect()
}

/// The generations the pool probe evaluates: a third of the stream on
/// `search-pool`; elsewhere the script's first 64 episodes as two
/// generations (nothing repeats, which is what the ratios then say).
fn pool_probe_stream(workload: &str, cfg: &RunCfg, script: &TraceScript) -> Vec<Vec<Episode>> {
    if workload == "search-pool" {
        return third(search_pool::input(cfg));
    }
    probes::as_generations(&script.episodes[..script.episodes.len().min(64)])
}

/// Runs the traced run of one workload.
///
/// # Errors
/// Set-up failures (environment, sockets, store directory).
pub fn run(workload: &'static str, cfg: &RunCfg) -> Result<RunResult, String> {
    cfg.settle();
    let mut host = Fingerprint::start();
    let (script, top) = trace_script(workload, cfg)?;
    // One client drives the ladder; on the workloads that are one client
    // end to end it stays on one CPU, as there.
    let one_cpu = top == Top::Local && workload != "search-pool";
    let pin = || one_cpu.then(Pinned::to_one_cpu).flatten();
    let pinned = pin();
    let pinned_cpu = pinned.as_ref().map_or(-1, |p| p.cpu as i64);
    let mut rec = Recorder::with_capacity(40 * script.actions() + 100_000);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    let ladder = drive_ladder(&script, &mut rec)?;
    let wire = drive_wire(&ladder.pairs, &mut rec);
    ladder_metrics(&script, top, &ladder, &wire, &mut m);
    let (programl_us, programl_bytes) = ladder::programl_roundtrip(&script, &mut rec)?;
    m.insert("core.wire.programl_roundtrip_us", programl_us);
    m.insert("core.wire.programl_bytes", programl_bytes);
    let floor_calls = ladder.env.calls.min(4000) as usize;
    m.insert(
        "core.floor_step_us",
        ladder::floor_step_us(floor_calls, &mut rec)?,
    );
    probes::telemetry(&mut m);
    probes::parser_printer(&script, &mut rec, &mut m)?;
    // The pool needs both CPUs.
    drop(pinned);
    let stream = pool_probe_stream(workload, cfg, &script);
    let pool_failed = probes::pool_and_cache(&stream, &mut rec, &mut m)?;
    let pinned = pin();
    let scratch = cfg.scratch("trace-store");
    let logged = store_probe_episodes(workload, cfg, &script);
    let store_failed = probes::store_and_replay(&logged, &scratch, cfg.seed, &mut rec, &mut m)?;
    let _ = std::fs::remove_dir_all(&scratch);
    drop(pinned);

    // Verification: every rung arrived at the same final metrics, and no
    // traced call failed or was refused.
    let mut v = Verify::default();
    let bits = |r: &Rung| r.finals.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let reference = bits(&ladder.env);
    for (name, rung) in &ladder.rungs()[1..] {
        v.check(bits(rung) == reference, || {
            format!(
                "the {name} rung ended its episodes on other instruction counts than the env rung"
            )
        });
    }
    v.note(format!(
        "8 rungs ended all {} episodes on the same instruction counts",
        reference.len()
    ));
    let call_failures = ladder.failures() + wire.failed + pool_failed + store_failed;
    v.check(call_failures == 0, || {
        format!("{call_failures} traced calls failed")
    });
    v.check(ladder.refused == 0, || {
        format!("the broker refused {} requests", ladder.refused)
    });

    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let trace_path = cfg.out_dir.join(format!("trace-{workload}.jsonl"));
    span::write_jsonl(&trace_path, rec.spans())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    v.note(format!(
        "{} spans written to {}",
        rec.spans().len(),
        trace_path.display()
    ));

    let mut per_layer = BTreeMap::new();
    for def in &PER_LAYER {
        let value = *m
            .get(def.name)
            .ok_or_else(|| format!("per-layer metric `{}` was not measured", def.name))?;
        per_layer.insert(
            def.name.to_string(),
            Layer {
                value: if value.is_finite() { value } else { 0.0 },
                unit: def.unit.to_string(),
            },
        );
    }
    host.finish();
    // Every span is one attempted call; the failed ones are in
    // `call_failures`, beside the verification mismatches.
    let attempted = (rec.spans().len() as u64 + v.attempted).max(1);
    let failed = v.failed + call_failures;
    Ok(RunResult {
        schema: catalog::SCHEMA.to_string(),
        comparable: !cfg.smoke,
        workload: workload.to_string(),
        seed: cfg.seed,
        seconds: cfg.seconds,
        traced: true,
        host,
        pinned_cpu,
        rounds: UNTRACED_PASSES as u64,
        setup_repeats: 1,
        input_digest: format!("{:016x}", gen::script_digest(&script.episodes)),
        counts: BTreeMap::from([
            ("episodes".to_string(), script.episodes.len() as u64),
            ("actions".to_string(), script.actions() as u64),
            ("spans".to_string(), rec.spans().len() as u64),
        ]),
        attempted,
        failed,
        failed_share: failed as f64 / attempted as f64,
        correct: failed == 0,
        verify: v.notes,
        end_to_end: BTreeMap::new(),
        per_layer,
        spans: span::totals_by_name(rec.spans())
            .into_iter()
            .map(|t| SpanTotal {
                name: t.name.to_string(),
                calls: t.calls,
                total_us: t.total_ns as f64 / 1e3,
                self_us: t.self_ns as f64 / 1e3,
            })
            .collect(),
    })
}
