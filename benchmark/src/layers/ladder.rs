//! The ladder: the same action script driven through successively deeper
//! public entry points — environment, transport or client, broker, session,
//! pass / observation / reward — with one harness span around every call.
//! A layer's self time is the mean at its entry point minus the mean at the
//! next entry point down, on the identical script.

use std::ops::Range;
use std::time::{Duration, Instant};

use cg_core::checkpoint::{Checkpoint, CheckpointStore};
use cg_core::service::{Request, Response};
use cg_core::{CompilerEnv, Observation};
use cg_ir::AnalysisManager;
use cg_llvm::action_space::ActionSpace;
use cg_llvm::observation::{self, IncrementalFeatures};
use cg_llvm::reward;

use crate::gen::Episode;
use crate::span::Recorder;

/// The reward metric every script's environment is configured with.
pub const METRIC: &str = "IrInstructionCount";

/// The script a traced run drives through every rung.
#[derive(Debug, Clone)]
pub struct TraceScript {
    /// Episodes, in order.
    pub episodes: Vec<Episode>,
    /// Observation spaces requested with every step; empty means the
    /// environment's default (`Autophase`).
    pub extra: Vec<&'static str>,
    /// Actions per step call (4 for `search-pool`, whose workers step to
    /// the next snapshot boundary in one round trip; 1 elsewhere).
    pub batch: usize,
}

impl TraceScript {
    /// Total actions.
    pub fn actions(&self) -> usize {
        self.episodes.iter().map(|e| e.actions.len()).sum()
    }

    /// The observation spaces a `Step` request carries for this script:
    /// what `CompilerEnv::step_lazy` asks the service for.
    pub fn spaces(&self) -> Vec<String> {
        let mut spaces: Vec<String> = if self.extra.is_empty() {
            vec!["Autophase".to_string()]
        } else {
            self.extra.iter().map(|s| s.to_string()).collect()
        };
        spaces.push(METRIC.to_string());
        spaces
    }
}

/// What one rung measured.
#[derive(Debug, Default, Clone)]
pub struct Rung {
    /// Total time inside step calls, in nanoseconds.
    pub step_ns: u64,
    /// Step calls made.
    pub calls: u64,
    /// Actions applied.
    pub actions: u64,
    /// Total time inside resets / session starts, in nanoseconds.
    pub reset_ns: u64,
    /// Episodes started.
    pub episodes: u64,
    /// Calls that returned an error.
    pub failed: u64,
    /// The reward metric after each episode's last action: every rung must
    /// arrive at the same values.
    pub finals: Vec<f64>,
}

impl Rung {
    /// Mean step time per action, in microseconds.
    pub fn us_per_action(&self) -> f64 {
        self.step_ns as f64 / 1e3 / self.actions.max(1) as f64
    }

    /// Mean reset time, in microseconds.
    pub fn reset_us(&self) -> f64 {
        self.reset_ns as f64 / 1e3 / self.episodes.max(1) as f64
    }
}

/// Span names of an environment rung.
#[derive(Debug, Clone, Copy)]
pub struct EnvNames {
    /// Around `CompilerEnv::reset`.
    pub reset: &'static str,
    /// Around `CompilerEnv::step_lazy`.
    pub step: &'static str,
}

/// Span names of the in-process environment rung.
pub const LOCAL: EnvNames = EnvNames {
    reset: "core.env.reset",
    step: "core.env.step_lazy",
};

/// Span names of the environment-over-TCP rung.
pub const REMOTE: EnvNames = EnvNames {
    reset: "core.env.tcp.reset",
    step: "core.env.tcp.step_lazy",
};

/// Drives the script through `CompilerEnv::reset` / `step_lazy`. With a
/// recorder every call becomes a span; without one the calls are timed the
/// way the end-to-end run times them, which is the untraced reference.
pub fn drive_env(
    env: &mut CompilerEnv,
    script: &TraceScript,
    range: Range<usize>,
    mut rec: Option<&mut Recorder>,
    names: EnvNames,
    rung: &mut Rung,
) {
    for e in range {
        let episode = &script.episodes[e];
        env.set_benchmark(&episode.benchmark);
        rung.episodes += 1;
        let started = Instant::now();
        let span = rec
            .as_deref_mut()
            .map(|r| r.begin(names.reset, None, e as u32));
        let reset = env.reset();
        rung.reset_ns += match (rec.as_deref_mut(), span) {
            (Some(r), Some(id)) => r.end(id),
            _ => started.elapsed().as_nanos() as u64,
        };
        if reset.is_err() {
            rung.failed += 1;
            rung.finals.push(f64::NAN);
            continue;
        }
        let mut ok = true;
        for actions in episode.actions.chunks(script.batch) {
            rung.calls += 1;
            let started = Instant::now();
            let span = rec
                .as_deref_mut()
                .map(|r| r.begin(names.step, None, e as u32));
            let step = env.step_lazy(actions, &script.extra);
            rung.step_ns += match (rec.as_deref_mut(), span) {
                (Some(r), Some(id)) => r.end(id),
                _ => started.elapsed().as_nanos() as u64,
            };
            match step {
                Ok(out) => {
                    std::hint::black_box(&out);
                    rung.actions += actions.len() as u64;
                }
                Err(_) => {
                    rung.failed += 1;
                    ok = false;
                    break;
                }
            }
        }
        rung.finals
            .push(if ok { env.last_metric() } else { f64::NAN });
    }
}

fn last_scalar(resp: &Response) -> Option<f64> {
    match resp {
        Response::Stepped { observations, .. } => {
            observations.last().and_then(Observation::as_scalar)
        }
        _ => None,
    }
}

/// One request through a service client, a TCP transport or a broker.
pub type Call<'a> = dyn FnMut(Request) -> Result<Response, String> + 'a;

/// A window of requests through `TcpTransport::call_pipelined`.
pub type PipelinedCall<'a> = dyn FnMut(&[Request]) -> Result<Vec<Response>, String> + 'a;

/// Drives the script as raw `Request`s through `call` — a service client, a
/// TCP transport or a broker — one span per `Step`. `capture` keeps up to
/// its capacity of (request, response) pairs for the wire rung.
pub fn drive_requests(
    call: &mut Call<'_>,
    script: &TraceScript,
    range: Range<usize>,
    rec: &mut Recorder,
    name: &'static str,
    mut capture: Option<&mut Vec<(Request, Response)>>,
    rung: &mut Rung,
) {
    let spaces = script.spaces();
    for e in range {
        let episode = &script.episodes[e];
        rung.episodes += 1;
        let started = Instant::now();
        let session_id = match call(Request::StartSession {
            benchmark: episode.benchmark.clone(),
            action_space: 0,
        }) {
            Ok(Response::SessionStarted { session_id }) => session_id,
            _ => {
                rung.failed += 1;
                rung.finals.push(f64::NAN);
                continue;
            }
        };
        rung.reset_ns += started.elapsed().as_nanos() as u64;
        let mut last = f64::NAN;
        for actions in episode.actions.chunks(script.batch) {
            let req = Request::Step {
                session_id,
                actions: actions.to_vec(),
                observation_spaces: spaces.clone(),
            };
            let kept = capture
                .as_deref()
                .is_some_and(|c| c.len() < c.capacity())
                .then(|| req.clone());
            rung.calls += 1;
            let span = rec.begin(name, None, e as u32);
            let resp = call(req);
            rung.step_ns += rec.end(span);
            match resp.as_ref().ok().and_then(last_scalar) {
                Some(metric) => {
                    last = metric;
                    rung.actions += actions.len() as u64;
                }
                None => {
                    rung.failed += 1;
                    last = f64::NAN;
                    break;
                }
            }
            if let (Some(c), Some(req), Ok(resp)) = (capture.as_deref_mut(), kept, resp) {
                c.push((req, resp));
            }
        }
        rung.finals.push(last);
        let _ = call(Request::EndSession { session_id });
    }
}

/// Window of [`drive_pipelined`].
pub const PIPELINE_WINDOW: usize = 8;

/// Like [`drive_requests`], but issues each episode's steps through
/// `pipelined` in windows of [`PIPELINE_WINDOW`], one span per window.
pub fn drive_pipelined(
    call: &mut Call<'_>,
    pipelined: &mut PipelinedCall<'_>,
    script: &TraceScript,
    range: Range<usize>,
    rec: &mut Recorder,
    name: &'static str,
    rung: &mut Rung,
) {
    let spaces = script.spaces();
    for e in range {
        let episode = &script.episodes[e];
        rung.episodes += 1;
        let session_id = match call(Request::StartSession {
            benchmark: episode.benchmark.clone(),
            action_space: 0,
        }) {
            Ok(Response::SessionStarted { session_id }) => session_id,
            _ => {
                rung.failed += 1;
                rung.finals.push(f64::NAN);
                continue;
            }
        };
        let steps: Vec<Request> = episode
            .actions
            .chunks(script.batch)
            .map(|actions| Request::Step {
                session_id,
                actions: actions.to_vec(),
                observation_spaces: spaces.clone(),
            })
            .collect();
        let mut last = f64::NAN;
        for window in steps.chunks(PIPELINE_WINDOW) {
            rung.calls += window.len() as u64;
            let span = rec.begin(name, None, e as u32);
            let replies = pipelined(window);
            rung.step_ns += rec.end(span);
            match replies {
                Ok(replies) if replies.iter().all(|r| last_scalar(r).is_some()) => {
                    last = replies.last().and_then(last_scalar).unwrap_or(f64::NAN);
                    rung.actions += window
                        .iter()
                        .map(|r| match r {
                            Request::Step { actions, .. } => actions.len() as u64,
                            _ => 0,
                        })
                        .sum::<u64>();
                }
                _ => {
                    rung.failed += 1;
                    last = f64::NAN;
                    break;
                }
            }
        }
        rung.finals.push(last);
        let _ = call(Request::EndSession { session_id });
    }
}

/// What the session rung measured beside its [`Rung`].
#[derive(Debug, Default)]
pub struct SessionExtras {
    /// Total time in `save_state` + `CheckpointStore::put`, nanoseconds.
    pub checkpoint_ns: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Bytes of serialized state, summed.
    pub checkpoint_bytes: u64,
}

/// Drives the script through a bare `CompilationSession`: `apply_action`
/// and `observe`, no service. Each step is a `core.session.step` span with
/// one child per call. Every K = 10 actions the session is checkpointed
/// the way the service worker does it (`save_state`, `CheckpointStore::put`)
/// in a span of its own, outside the step.
pub fn drive_session(
    script: &TraceScript,
    range: Range<usize>,
    rec: &mut Recorder,
    store: &CheckpointStore,
    rung: &mut Rung,
    extras: &mut SessionExtras,
) -> Result<(), String> {
    let spaces = script.spaces();
    for e in range {
        let episode = &script.episodes[e];
        let ep = e as u32;
        rung.episodes += 1;
        let mut session = cg_core::envs::create_session("llvm-v0")?;
        let span = rec.begin("core.session.init", None, ep);
        let init = session.init(&episode.benchmark, 0);
        rung.reset_ns += rec.end(span);
        if init.is_err() {
            rung.failed += 1;
            rung.finals.push(f64::NAN);
            continue;
        }
        let mut last = f64::NAN;
        let mut depth = 0u64;
        let mut checkpointed = 0u64;
        for actions in episode.actions.chunks(script.batch) {
            rung.calls += 1;
            let step = rec.begin("core.session.step", None, ep);
            let mut ok = true;
            for &a in actions {
                let child = rec.begin("core.session.apply_action", Some(step), ep);
                ok &= session.apply_action(a).is_ok();
                rec.end(child);
            }
            for space in &spaces {
                let child = rec.begin("core.session.observe", Some(step), ep);
                let obs = session.observe(space);
                rec.end(child);
                match obs {
                    Ok(o) => {
                        if let Some(x) = o.as_scalar() {
                            last = x;
                        }
                        std::hint::black_box(&o);
                    }
                    Err(_) => ok = false,
                }
            }
            rung.step_ns += rec.end(step);
            if !ok {
                rung.failed += 1;
                last = f64::NAN;
                break;
            }
            rung.actions += actions.len() as u64;
            depth += actions.len() as u64;
            let interval = store.interval().max(1);
            if depth / interval > checkpointed / interval {
                let span = rec.begin("core.checkpoint.save", None, ep);
                if let Some(state) = session.save_state() {
                    extras.checkpoint_bytes += state.len() as u64;
                    extras.checkpoints += 1;
                    store.put(Checkpoint {
                        benchmark: episode.benchmark.clone(),
                        action_space: 0,
                        actions: episode.actions[..depth as usize].to_vec(),
                        state,
                    });
                }
                extras.checkpoint_ns += rec.end(span);
                checkpointed = depth;
            }
        }
        rung.finals.push(last);
    }
    Ok(())
}

/// Per-call totals of the leaf rung, in nanoseconds, with call counts.
#[derive(Debug, Default)]
pub struct LeafTotals {
    /// `cg_datasets::benchmark`.
    pub build: (u64, u64),
    /// `ActionSpace::apply_with` on a persistent `AnalysisManager`.
    pub pass_warm: (u64, u64),
    /// `ActionSpace::apply_tracked`: a fresh manager per call.
    pub pass_cold: (u64, u64),
    /// Passes that reported a change.
    pub changed: u64,
    /// Full-recompute observation functions, by space.
    pub ir: (u64, u64),
    /// `observation::inst_count`.
    pub instcount: (u64, u64),
    /// `IncrementalFeatures::inst_count` after `invalidate`.
    pub instcount_incr: (u64, u64),
    /// `observation::autophase`.
    pub autophase: (u64, u64),
    /// `IncrementalFeatures::autophase` after `invalidate`.
    pub autophase_incr: (u64, u64),
    /// `observation::inst2vec`.
    pub inst2vec: (u64, u64),
    /// `observation::programl`.
    pub programl: (u64, u64),
    /// `reward::ir_instruction_count`.
    pub reward: (u64, u64),
    /// Analysis-cache hits, misses and no-op skips of the warm passes.
    pub am_hits: u64,
    /// See `am_hits`.
    pub am_misses: u64,
    /// See `am_hits`.
    pub noop_skips: u64,
    /// Analysis-cache hits and misses of the cold sweep: what one pass
    /// re-requests within a single application, with nothing carried over.
    pub fresh_hits: u64,
    /// See `fresh_hits`.
    pub fresh_misses: u64,
}

/// Mean of a `(total_ns, calls)` pair in microseconds.
pub fn mean_us(total: (u64, u64)) -> f64 {
    total.0 as f64 / 1e3 / total.1.max(1) as f64
}

fn timed<T>(
    rec: &mut Recorder,
    name: &'static str,
    parent: Option<u32>,
    ep: u32,
    total: &mut (u64, u64),
    f: impl FnOnce() -> T,
) -> T {
    let span = rec.begin(name, parent, ep);
    let out = f();
    total.0 += rec.end(span);
    total.1 += 1;
    out
}

/// The observation spaces as `LlvmSession::observe` serves them.
const SESSION_OBSERVATIONS: [&str; 5] = ["Ir", "InstCount", "Autophase", "Inst2vec", "Programl"];

/// Not spaces: the full recomputes the session's incremental `InstCount`
/// and `Autophase` replace.
const FULL_RECOMPUTES: [&str; 2] = ["InstCount (full)", "Autophase (full)"];

/// Computes one observation the way the session does (or one of the
/// [`FULL_RECOMPUTES`]) as a span under `parent`.
fn observe(
    space: &str,
    m: &cg_ir::Module,
    features: &mut IncrementalFeatures,
    rec: &mut Recorder,
    parent: Option<u32>,
    ep: u32,
    t: &mut LeafTotals,
) {
    use std::hint::black_box;
    match space {
        "Ir" => {
            black_box(timed(
                rec,
                "llvm.observation.ir",
                parent,
                ep,
                &mut t.ir,
                || observation::ir_text(m),
            ));
        }
        "InstCount" => {
            let total = &mut t.instcount_incr;
            black_box(timed(
                rec,
                "llvm.observation.instcount_incr",
                parent,
                ep,
                total,
                || features.inst_count(m),
            ));
        }
        "Autophase" => {
            let total = &mut t.autophase_incr;
            black_box(timed(
                rec,
                "llvm.observation.autophase_incr",
                parent,
                ep,
                total,
                || features.autophase(m),
            ));
        }
        "Inst2vec" => {
            black_box(timed(
                rec,
                "llvm.observation.inst2vec",
                parent,
                ep,
                &mut t.inst2vec,
                || observation::inst2vec(m),
            ));
        }
        "Programl" => {
            black_box(timed(
                rec,
                "llvm.observation.programl",
                parent,
                ep,
                &mut t.programl,
                || observation::programl(m),
            ));
        }
        "InstCount (full)" => {
            black_box(timed(
                rec,
                "llvm.observation.instcount",
                parent,
                ep,
                &mut t.instcount,
                || observation::inst_count(m),
            ));
        }
        "Autophase (full)" => {
            black_box(timed(
                rec,
                "llvm.observation.autophase",
                parent,
                ep,
                &mut t.autophase,
                || observation::autophase(m),
            ));
        }
        other => unreachable!("`{other}` is not an llvm-v0 observation the ladder asks for"),
    }
}

/// The deepest rung: the functions a session calls, called directly on a
/// module the harness owns. Each step is a `leaf.step` span whose children
/// are the pass application and exactly the observations the script asks
/// for (the incremental variants for `InstCount` and `Autophase`, as in the
/// session), so that its total is what the session rung is compared with.
/// Outside the step span, every `stride`-th step also runs all the other
/// observation functions, so that each has a measured cost on every
/// workload. A second sweep applies the same actions with a fresh
/// `AnalysisManager` per call (`apply_tracked`) for the cold-pass cost.
/// `stride` counts steps within an episode.
pub fn drive_leaf(
    space: &ActionSpace,
    script: &TraceScript,
    range: Range<usize>,
    rec: &mut Recorder,
    stride: usize,
    rung: &mut Rung,
    t: &mut LeafTotals,
) -> Result<(), String> {
    let spaces = script.spaces();
    let before = cg_ir::am::cache_stats();
    for e in range.clone() {
        let episode = &script.episodes[e];
        let ep = e as u32;
        rung.episodes += 1;
        let mut m = timed(rec, "datasets.build", None, ep, &mut t.build, || {
            cg_datasets::benchmark(&episode.benchmark)
        })
        .map_err(|e| e.to_string())?;
        let mut am = AnalysisManager::new();
        let mut features = IncrementalFeatures::new();
        let mut last = f64::NAN;
        for (step_index, actions) in episode.actions.chunks(script.batch).enumerate() {
            rung.calls += 1;
            let step = rec.begin("leaf.step", None, ep);
            for &a in actions {
                let effect = timed(
                    rec,
                    "llvm.pass.apply_with",
                    Some(step),
                    ep,
                    &mut t.pass_warm,
                    || space.apply_with(&mut m, a, &mut am),
                );
                t.changed += u64::from(effect.changed);
                features.invalidate(&effect.touched);
            }
            for s in &spaces {
                if s == METRIC {
                    last = timed(rec, "llvm.reward", Some(step), ep, &mut t.reward, || {
                        reward::ir_instruction_count(&m)
                    }) as f64;
                } else {
                    observe(s, &m, &mut features, rec, Some(step), ep, t);
                }
            }
            rung.step_ns += rec.end(step);
            rung.actions += actions.len() as u64;

            if step_index.is_multiple_of(stride.max(1)) {
                // Off the step's books: the observation functions the
                // script does not ask for, and the two full recomputes.
                for s in SESSION_OBSERVATIONS.iter().chain(&FULL_RECOMPUTES) {
                    if !spaces.iter().any(|asked| asked == s) {
                        observe(s, &m, &mut features, rec, None, ep, t);
                    }
                }
            }
        }
        rung.finals.push(last);
    }
    let after = cg_ir::am::cache_stats();
    t.am_hits += after.hits - before.hits;
    t.am_misses += after.misses - before.misses;
    t.noop_skips += after.noop_skips - before.noop_skips;

    // Cold sweep: the same actions, a fresh analysis manager per call.
    let before = after;
    for e in range {
        let episode = &script.episodes[e];
        let mut m = cg_datasets::benchmark(&episode.benchmark).map_err(|e| e.to_string())?;
        for &a in &episode.actions {
            timed(
                rec,
                "llvm.pass.apply_tracked",
                None,
                e as u32,
                &mut t.pass_cold,
                || space.apply_tracked(&mut m, a),
            );
        }
    }
    let after = cg_ir::am::cache_stats();
    t.fresh_hits += after.hits - before.hits;
    t.fresh_misses += after.misses - before.misses;
    Ok(())
}

/// Wire costs per step, from captured (request, response) pairs.
#[derive(Debug, Default)]
pub struct WireTotals {
    /// `encode_request_frame`.
    pub encode_request: (u64, u64),
    /// `decode_frame` + `decode_request_body`.
    pub decode_request: (u64, u64),
    /// `encode_response_frame`.
    pub encode_response: (u64, u64),
    /// `decode_frame` + `decode_response_body`.
    pub decode_response: (u64, u64),
    /// Request plus response frame bytes, summed.
    pub bytes: u64,
    /// Frames that did not decode back.
    pub failed: u64,
}

/// Encodes and decodes each captured pair the way client and server do.
pub fn drive_wire(pairs: &[(Request, Response)], rec: &mut Recorder) -> WireTotals {
    use cg_core::wire::{self, Frame};
    let mut t = WireTotals::default();
    let (mut req_buf, mut resp_buf) = (Vec::new(), Vec::new());
    for (i, (req, resp)) in pairs.iter().enumerate() {
        let corr = i as u64 + 1;
        timed(
            rec,
            "core.wire.encode_request",
            None,
            0,
            &mut t.encode_request,
            || {
                wire::encode_request_frame(&mut req_buf, corr, req, None, None);
            },
        );
        let ok = timed(
            rec,
            "core.wire.decode_request",
            None,
            0,
            &mut t.decode_request,
            || match wire::decode_frame(&req_buf) {
                Ok(Frame::Request { corr, body }) => wire::decode_request_body(corr, body).is_ok(),
                _ => false,
            },
        );
        t.failed += u64::from(!ok);
        timed(
            rec,
            "core.wire.encode_response",
            None,
            0,
            &mut t.encode_response,
            || {
                wire::encode_response_frame(&mut resp_buf, corr, resp);
            },
        );
        let ok = timed(
            rec,
            "core.wire.decode_response",
            None,
            0,
            &mut t.decode_response,
            || match wire::decode_frame(&resp_buf) {
                Ok(Frame::Response { body, .. }) => wire::decode_response_body(body).is_ok(),
                _ => false,
            },
        );
        t.failed += u64::from(!ok);
        t.bytes += (req_buf.len() + resp_buf.len()) as u64;
    }
    t
}

/// Round trip of a reply that carries a `Programl` graph — the large-frame
/// path no workload stresses end to end. Returns (mean µs, mean bytes).
pub fn programl_roundtrip(script: &TraceScript, rec: &mut Recorder) -> Result<(f64, f64), String> {
    use cg_core::wire::{self, Frame};
    let mut seen = std::collections::BTreeSet::new();
    let mut total = (0u64, 0u64);
    let mut bytes = 0u64;
    let mut buf = Vec::new();
    for episode in &script.episodes {
        if !seen.insert(&episode.benchmark) || seen.len() > 16 {
            continue;
        }
        let m = cg_datasets::benchmark(&episode.benchmark).map_err(|e| e.to_string())?;
        let resp = Response::Stepped {
            end_of_episode: false,
            changed: true,
            observations: vec![Observation::Graph(observation::programl(&m))],
        };
        let ok = timed(
            rec,
            "core.wire.programl_roundtrip",
            None,
            0,
            &mut total,
            || {
                wire::encode_response_frame(&mut buf, 1, &resp);
                match wire::decode_frame(&buf) {
                    Ok(Frame::Response { body, .. }) => wire::decode_response_body(body).is_ok(),
                    _ => false,
                }
            },
        );
        if !ok {
            return Err("a Programl reply did not survive the wire round trip".to_string());
        }
        bytes += buf.len() as u64;
    }
    Ok((mean_us(total), bytes as f64 / total.1.max(1) as f64))
}

/// The floor of an environment step: the same number of `step_lazy` calls
/// on `loop_tool-v0` moving its cursor up and down, whose session does
/// next to nothing. Returns the mean step in microseconds.
pub fn floor_step_us(calls: usize, rec: &mut Recorder) -> Result<f64, String> {
    let mut env = cg_core::make("loop_tool-v0").map_err(|e| e.to_string())?;
    let up = env
        .action_space()
        .index_of("up")
        .ok_or("loop_tool-v0 has no `up`")?;
    let down = env
        .action_space()
        .index_of("down")
        .ok_or("loop_tool-v0 has no `down`")?;
    env.reset().map_err(|e| e.to_string())?;
    let mut total = (0u64, 0u64);
    for i in 0..calls.max(1) {
        let action = if i % 2 == 0 { down } else { up };
        timed(rec, "core.floor.step_lazy", None, 0, &mut total, || {
            env.step_lazy(&[action], &[])
        })
        .map_err(|e| e.to_string())?;
    }
    Ok(mean_us(total))
}

/// Default timeout for the clients the ladder builds.
pub const CALL_TIMEOUT: Duration = Duration::from_secs(60);
