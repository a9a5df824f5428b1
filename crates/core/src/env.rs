//! The user-facing Gym-style environment.
//!
//! # Fault tolerance contract
//!
//! An episode survives its compiler service (§IV-B): the environment records
//! `(benchmark, action space, action history)` and, when a call fails
//! because the service died, hung past its deadline, or the session was
//! destroyed by a panic, it restarts the service, starts a fresh session,
//! and **replays the action history** to restore byte-identical state before
//! retrying the failed call — so user code observes an `Ok` step, not the
//! crash. Replay is checked for consistency: if the restored reward metric
//! diverges from the pre-fault value, the typed
//! [`CgError::ReplayDivergence`] is surfaced (with a trace event and a
//! self-contained JSON reproducer) instead of silently continuing on corrupt
//! state. A non-deterministic (noisy) reward space skips the check.
//! Recovery effort is governed by the client's [`RetryPolicy`].
//!
//! # Recovery ladder
//!
//! Faults are handled at the cheapest rung that contains them:
//!
//! 1. **in-band budget error** — a pass exceeding its
//!    [`crate::budget::ResourceBudget`] is killed inside the service and
//!    answered as a typed error (no hang, no restart);
//! 2. **checkpoint restore + suffix replay** — recovery sends
//!    [`Request::Resume`]: the service restores the deepest matching
//!    snapshot from its own checkpoint ring and the environment replays
//!    only the ≤K-action suffix (O(K) instead of O(episode));
//! 3. **full replay** — when no checkpoint matches (the service starts the
//!    session fresh) or the restored state diverges, the whole action
//!    history is replayed;
//! 4. **hard failure** — replay divergence or retry exhaustion surfaces as
//!    a typed error.
//!
//! The ladder is written once, against [`Link`], and runs unchanged over
//! its two implementations:
//!
//! * [`InlineLink`] — the compiler runs in process. [`make`] and
//!   [`CompilerEnv::with_factory`] build it. It contains panics, backend
//!   errors and budget kills, and a hung compiler under a wall budget,
//!   which `with_factory` always sets;
//! * [`TcpTransport`] — a broker on another machine, with a socket
//!   deadline and reconnects. [`CompilerEnv::connect_tcp`] builds it.
//!
//! [`CompilerEnv::with_link`] takes any of them.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use cg_telemetry::SpanStatus;

use crate::budget::ResourceBudget;
use crate::envs::session_factory;
use crate::error::CgError;
use crate::retry::RetryPolicy;
use crate::service::{InlineLink, Link, Request, Response, TcpTransport};
use crate::session::SessionSnapshot;
use crate::space::{ActionSpaceInfo, Observation, ObservationSpaceInfo, RewardSpaceInfo};
use crate::state::EnvState;

/// The result of one `step()`.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// The observation after the action(s), in the configured observation
    /// space.
    pub observation: Observation,
    /// The reward for the action(s), in the configured reward space.
    pub reward: f64,
    /// Whether the episode reached a terminal state.
    pub done: bool,
    /// Whether the action changed the compiler state at all.
    pub changed: bool,
}

/// A portable snapshot of a live episode: the captured compiler state
/// plus the client-side bookkeeping (metrics, reward, action history)
/// needed to resume rewards seamlessly. Produced by
/// [`CompilerEnv::episode_snapshot`], consumed by
/// [`CompilerEnv::restore_snapshot`] — possibly in a *different*
/// environment over the same backend, which is how the evaluation cache
/// hands shared action prefixes to pool workers without replaying them.
#[derive(Debug, Clone)]
pub struct EpisodeSnapshot {
    /// Benchmark URI the episode runs on.
    pub benchmark: String,
    /// Index into the advertised action spaces.
    pub action_space_index: usize,
    /// Actions applied so far (the prefix this snapshot captures).
    pub actions: Vec<usize>,
    /// Backend state (`CompilationSession::snapshot`): over the in-process
    /// transport a handle to shared immutable state, over TCP its bytes.
    pub state: SessionSnapshot,
    /// Reward metric after the last action.
    pub prev_metric: f64,
    /// Reward metric at episode start.
    pub init_metric: f64,
    /// Baseline metric for scaled reward spaces, if any.
    pub baseline_metric: Option<f64>,
    /// Cumulative episode reward.
    pub episode_reward: f64,
}

/// A compiler optimization environment: the Gym interaction loop (Figure 1)
/// over a [`crate::session::CompilationSession`] living behind the service
/// RPC boundary (Figure 2).
#[derive(Debug)]
pub struct CompilerEnv {
    env_id: String,
    /// The service (or connection) this environment drives; forks share it.
    link: Box<dyn Link>,
    session: Option<u64>,
    /// `link.restarts()` when the current session was established, or when
    /// this env last restarted the link itself. A link that has restarted
    /// since, under another handle, has already lost the session, so
    /// recovery replays without restarting it again.
    session_generation: u64,
    benchmark: String,
    action_space_index: usize,
    action_spaces: Vec<ActionSpaceInfo>,
    observation_spaces: Vec<ObservationSpaceInfo>,
    reward_spaces: Vec<RewardSpaceInfo>,
    observation_space: String,
    reward_space: String,
    prev_metric: f64,
    init_metric: f64,
    baseline_metric: Option<f64>,
    episode_reward: f64,
    actions: Vec<usize>,
    /// The flight-recorder episode this env's steps bind their traces to.
    episode_id: Option<u64>,
    /// Whether this env opened `episode_id` (and must end it on close).
    /// Forks borrow the parent's episode without owning it.
    owns_episode: bool,
    /// Whether this env feeds the global transition sink (when one is
    /// installed). Replay environments disable this: they write through to
    /// their own store directly, and double-logging would count every
    /// served transition twice.
    log_transitions: bool,
    /// Hash of the current state as assigned by the transition sink at the
    /// last reset/step, threaded through as the next step's `from_state`.
    /// `None` when no sink was active at the last reset.
    sink_state: Option<u64>,
}

/// A factory for a whole URI scheme of environment ids (`replay://…`),
/// registered with [`register_env_scheme`] and consulted by [`make`].
pub type SchemeFactory = Arc<dyn Fn(&str) -> Result<CompilerEnv, CgError> + Send + Sync>;

fn scheme_registry() -> &'static parking_lot::RwLock<HashMap<String, SchemeFactory>> {
    static REGISTRY: OnceLock<parking_lot::RwLock<HashMap<String, SchemeFactory>>> =
        OnceLock::new();
    REGISTRY.get_or_init(|| parking_lot::RwLock::new(HashMap::new()))
}

/// Registers a factory for every environment id of the form
/// `<scheme>://…`. [`make`] dispatches such ids to the factory with the
/// full id, so crates layered *above* cg-core (like the transition store's
/// replay environment) can plug whole environment families into the
/// ordinary `make` entry point without a dependency cycle. Re-registering
/// a scheme replaces the previous factory.
pub fn register_env_scheme(scheme: &str, factory: SchemeFactory) {
    scheme_registry()
        .write()
        .insert(scheme.to_string(), factory);
}

/// Instantiates a registered environment:
///
/// * `"llvm-v0"` — LLVM phase ordering (Autophase observation,
///   `IrInstructionCount` reward by default)
/// * `"llvm-autophase-ic-v0"` — the preset used by the paper's RL
///   experiments (Autophase observation, `-Oz`-scaled size reward)
/// * `"gcc-v0"` (optionally `"gcc-v0/docker:gcc:11.2.0"` etc.) — GCC flag
///   tuning
/// * `"loop_tool-v0"` — CUDA loop-nest tuning
///
/// The compiler runs inline, on the calling thread, over an
/// [`InlineLink`]: no service thread and no hand-off per request. Panics,
/// backend errors and budget kills are contained as on every link; a hung
/// compiler only under a wall budget
/// ([`CompilerEnv::set_resource_budget`]).
///
/// # Errors
/// [`CgError::Unknown`] for unregistered ids.
pub fn make(env_id: &str) -> Result<CompilerEnv, CgError> {
    if let Some((scheme, _)) = env_id.split_once("://") {
        let factory = scheme_registry().read().get(scheme).cloned();
        return match factory {
            Some(f) => f(env_id),
            None => Err(CgError::Unknown(format!("environment `{env_id}`"))),
        };
    }
    let (backend, benchmark, obs, rew): (String, &str, &str, &str) = match env_id {
        "llvm-v0" => (
            "llvm-v0".into(),
            "benchmark://cbench-v1/qsort",
            "Autophase",
            "IrInstructionCount",
        ),
        "llvm-ic-v0" => (
            "llvm-v0".into(),
            "benchmark://cbench-v1/qsort",
            "Ir",
            "IrInstructionCount",
        ),
        "llvm-autophase-ic-v0" => (
            "llvm-v0".into(),
            "benchmark://cbench-v1/qsort",
            "Autophase",
            "IrInstructionCountOz",
        ),
        s if s == "gcc-v0" || s.starts_with("gcc-v0/") => (
            s.into(),
            "benchmark://chstone-v0/adpcm",
            "InstructionCounts",
            "ObjSize",
        ),
        "loop_tool-v0" => (
            "loop_tool-v0".into(),
            "benchmark://loop_tool-v0/1048576",
            "ActionState",
            "Flops",
        ),
        other => return Err(CgError::Unknown(format!("environment `{other}`"))),
    };
    let factory = session_factory(&backend).map_err(CgError::Unknown)?;
    let link = Box::new(InlineLink::new(factory));
    CompilerEnv::with_link(env_id, link, benchmark, obs, rew)
}

/// Like [`make`], but with an explicit recovery policy instead of the
/// default one.
///
/// # Errors
/// See [`make`].
pub fn make_with_policy(env_id: &str, policy: RetryPolicy) -> Result<CompilerEnv, CgError> {
    let mut env = make(env_id)?;
    env.set_retry_policy(policy);
    Ok(env)
}

impl CompilerEnv {
    /// Builds an environment around an arbitrary session factory, served
    /// in process by an [`InlineLink`] whose every session-scoped request —
    /// start, step, fork, export — runs under a wall budget of `timeout`
    /// and is answered [`CgError::BudgetExceeded`] in band if it overruns.
    /// This is the extension point for custom backends and for
    /// fault-injection harnesses (see [`crate::chaos`]) that need a
    /// deliberately misbehaving session. A later
    /// [`CompilerEnv::set_resource_budget`] replaces the wall.
    ///
    /// # Errors
    /// Fails when the backend cannot describe its spaces.
    pub fn with_factory(
        env_id: &str,
        factory: crate::service::SessionFactory,
        benchmark: &str,
        observation_space: &str,
        reward_space: &str,
        timeout: Duration,
    ) -> Result<CompilerEnv, CgError> {
        let budget = ResourceBudget::default().with_wall(timeout);
        let link = Box::new(InlineLink::with_budget(factory, budget));
        Self::with_link(env_id, link, benchmark, observation_space, reward_space)
    }

    /// Builds an environment over a remote compiler service reached by TCP
    /// ("running the compiler service on a remote machine"). The same
    /// recovery ladder applies: I/O failures reconnect and replay, and the
    /// broker's checkpoint ring outlives the connection, so recovery after
    /// a connection loss replays only the suffix. To bill a tenant, build
    /// the [`TcpTransport`] yourself, `set_tenant` on it, and pass it to
    /// [`CompilerEnv::with_link`].
    ///
    /// # Errors
    /// Connection failures, or a remote that cannot describe its spaces.
    pub fn connect_tcp(
        env_id: &str,
        addr: &str,
        benchmark: &str,
        observation_space: &str,
        reward_space: &str,
        timeout: Duration,
    ) -> Result<CompilerEnv, CgError> {
        let link = Box::new(TcpTransport::connect(addr, timeout)?);
        Self::with_link(env_id, link, benchmark, observation_space, reward_space)
    }

    /// Builds an environment over an already-established [`Link`] — an
    /// [`InlineLink`] whose checkpoint store was set, say, or a
    /// [`TcpTransport`] named for a tenant.
    ///
    /// # Errors
    /// Fails when the backend cannot describe its spaces.
    pub fn with_link(
        env_id: &str,
        link: Box<dyn Link>,
        benchmark: &str,
        observation_space: &str,
        reward_space: &str,
    ) -> Result<CompilerEnv, CgError> {
        let (action_spaces, observation_spaces, reward_spaces) =
            match link.call(Request::GetSpaces)? {
                Response::Spaces {
                    action_spaces,
                    observation_spaces,
                    reward_spaces,
                } => (action_spaces, observation_spaces, reward_spaces),
                r => {
                    return Err(CgError::ServiceFailure(format!(
                        "bad GetSpaces reply: {r:?}"
                    )))
                }
            };
        Ok(CompilerEnv {
            env_id: env_id.to_string(),
            link,
            session: None,
            session_generation: 0,
            benchmark: benchmark.to_string(),
            action_space_index: 0,
            action_spaces,
            observation_spaces,
            reward_spaces,
            observation_space: observation_space.to_string(),
            reward_space: reward_space.to_string(),
            prev_metric: 0.0,
            init_metric: 0.0,
            baseline_metric: None,
            episode_reward: 0.0,
            actions: Vec::new(),
            episode_id: None,
            owns_episode: false,
            log_transitions: true,
            sink_state: None,
        })
    }

    /// Enables or disables feeding the global transition sink from this
    /// environment (default: enabled). The replay environment turns it off
    /// to avoid double-logging transitions it already writes through.
    pub fn set_transition_logging(&mut self, on: bool) {
        self.log_transitions = on;
        if !on {
            self.sink_state = None;
        }
    }

    /// The active transition sink for this env, if logging is on, a sink is
    /// installed, and the backend can serve the `Ir` text the sink records.
    fn active_sink(&self) -> Option<Arc<dyn crate::sink::TransitionSink>> {
        if !self.log_transitions {
            return None;
        }
        let sink = crate::sink::transition_sink()?;
        self.observation_spaces
            .iter()
            .any(|o| o.name == "Ir")
            .then_some(sink)
    }

    /// The environment id this was made as.
    pub fn env_id(&self) -> &str {
        &self.env_id
    }

    /// Replaces the recovery policy (attempts, backoff, budget) governing
    /// transparent fault recovery.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.link.set_policy(policy);
    }

    /// Sets the in-service [`ResourceBudget`] (rung 1 of the recovery
    /// ladder): runaway session calls are killed inside the service and
    /// answered with a typed [`CgError::BudgetExceeded`] instead of
    /// hanging. The budget survives service restarts.
    ///
    /// # Errors
    /// Service failure delivering the new budget to the live worker (the
    /// budget is still recorded and re-applied on the next restart).
    pub fn set_resource_budget(&mut self, budget: ResourceBudget) -> Result<(), CgError> {
        self.link.set_resource_budget(budget)
    }

    /// The in-service resource budget currently configured.
    pub fn resource_budget(&self) -> ResourceBudget {
        self.link.resource_budget()
    }

    /// The active action space.
    pub fn action_space(&self) -> &ActionSpaceInfo {
        &self.action_spaces[self.action_space_index]
    }

    /// All action spaces the backend advertises.
    pub fn action_spaces(&self) -> &[ActionSpaceInfo] {
        &self.action_spaces
    }

    /// The advertised observation spaces.
    pub fn observation_spaces(&self) -> &[ObservationSpaceInfo] {
        &self.observation_spaces
    }

    /// The advertised reward spaces.
    pub fn reward_spaces(&self) -> &[RewardSpaceInfo] {
        &self.reward_spaces
    }

    /// Sets the benchmark for subsequent episodes.
    pub fn set_benchmark(&mut self, uri: &str) {
        self.benchmark = uri.to_string();
    }

    /// The current benchmark URI.
    pub fn benchmark(&self) -> &str {
        &self.benchmark
    }

    /// Selects the observation space returned by `step`.
    pub fn set_observation_space(&mut self, name: &str) {
        self.observation_space = name.to_string();
    }

    /// Selects the reward space.
    pub fn set_reward_space(&mut self, name: &str) {
        self.reward_space = name.to_string();
    }

    /// Cumulative reward of the episode so far.
    pub fn episode_reward(&self) -> f64 {
        self.episode_reward
    }

    /// The reward metric observed after the most recent action (or at
    /// reset): the raw value episode rewards are deltas of.
    pub fn last_metric(&self) -> f64 {
        self.prev_metric
    }

    /// Actions taken this episode.
    pub fn actions(&self) -> &[usize] {
        &self.actions
    }

    fn reward_info(&self) -> Result<RewardSpaceInfo, CgError> {
        self.reward_spaces
            .iter()
            .find(|r| r.name == self.reward_space)
            .cloned()
            .ok_or_else(|| CgError::Unknown(format!("reward space `{}`", self.reward_space)))
    }

    /// Starts a new episode, returning the initial observation.
    ///
    /// Recovers transparently from a dead or hung service by restarting it
    /// (bounded retries), per the runtime's fault-tolerance contract.
    ///
    /// # Errors
    /// Dataset errors, unknown spaces, or service failure after retries.
    pub fn reset(&mut self) -> Result<Observation, CgError> {
        let tel = cg_telemetry::global();
        let timer = cg_telemetry::Timer::start();
        // One flight-recorder episode per reset: close the previous one and
        // open a fresh timeline every trace this episode produces binds to.
        if let Some(ep) = self.episode_id.take() {
            if self.owns_episode {
                tel.trace.end_episode(ep);
            }
        }
        let episode = tel.trace.begin_episode(&self.env_id, &self.benchmark);
        self.episode_id = Some(episode);
        self.owns_episode = true;
        let mut span = tel.trace.root_span("env:reset");
        span.set_detail(format!("{} {}", self.env_id, self.benchmark));
        tel.trace.bind_episode(span.context().trace_id, episode);
        if let Some(sid) = self.session.take() {
            // Best effort: the old session may be gone if the service died.
            // A short teardown deadline keeps a hung service from stalling
            // the new episode (and its expiry is not a telemetry timeout).
            let _ = self
                .link
                .call_teardown(Request::EndSession { session_id: sid });
        }
        let reward_info = self.reward_info()?;
        let mut spaces = vec![self.observation_space.clone(), reward_info.metric.clone()];
        if let Some(b) = &reward_info.baseline {
            spaces.push(b.clone());
        }
        // When a transition sink is installed, piggyback the IR text onto
        // the same round trip so the sink can hash and log the initial
        // state without an extra service call.
        let sink = self.active_sink();
        if sink.is_some() {
            spaces.push("Ir".to_string());
        }
        let req = Request::StartSession {
            benchmark: self.benchmark.clone(),
            action_space: self.action_space_index,
        };
        let restarts_before = self.link.restarts();
        let sid = match self.link.call_with_policy(req)? {
            Response::SessionStarted { session_id } => session_id,
            r => {
                return Err(CgError::ServiceFailure(format!(
                    "bad StartSession reply: {r:?}"
                )))
            }
        };
        let recovered = self.link.restarts() - restarts_before;
        if recovered > 0 {
            // The service died or hung and was transparently replaced.
            // The link's restart() already bumped the restart counter;
            // record that an episode recovered, with its benchmark.
            tel.trace.emit_status(
                "env:transparent-restart",
                format!("{} after {} restart(s)", self.benchmark, recovered),
                Duration::ZERO,
                SpanStatus::Recovered,
            );
            span.set_status(SpanStatus::Recovered);
        }
        self.session = Some(sid);
        self.session_generation = self.link.restarts();
        let resp = self.link.call(Request::Step {
            session_id: sid,
            actions: vec![],
            observation_spaces: spaces,
        })?;
        let Response::Stepped { observations, .. } = resp else {
            return Err(CgError::ServiceFailure("bad Step reply".into()));
        };
        let mut it = observations.into_iter();
        let obs = it
            .next()
            .ok_or(CgError::ServiceFailure("missing observation".into()))?;
        let metric = it
            .next()
            .and_then(|o| o.as_scalar())
            .ok_or(CgError::ServiceFailure("missing metric".into()))?;
        self.prev_metric = metric;
        self.init_metric = metric;
        self.baseline_metric = if reward_info.baseline.is_some() {
            it.next().and_then(|o| o.as_scalar())
        } else {
            None
        };
        self.sink_state = match (&sink, it.next()) {
            (Some(s), Some(o)) => o.as_text().map(|ir| s.record_reset(&self.benchmark, ir)),
            _ => None,
        };
        self.episode_reward = 0.0;
        self.actions.clear();
        tel.episode.episodes.inc();
        let dur = timer.observe(&tel.episode.reset_wall);
        tel.trace
            .emit("reset", format!("{} {}", self.env_id, self.benchmark), dur);
        Ok(obs)
    }

    /// Whether an error means the episode's backing session is gone (dead
    /// or hung service, a panic-destroyed session, or a budget-killed
    /// session) and transparent recovery should be attempted. Backend
    /// errors ([`CgError::Session`]) are legitimate results and are never
    /// retried.
    fn recoverable(e: &CgError) -> bool {
        matches!(
            e,
            CgError::ServiceFailure(_) | CgError::SessionLost(_) | CgError::BudgetExceeded(_)
        )
    }

    /// Whether recovering from `e` requires replacing the service worker.
    /// A budget kill is an in-band answer from a *healthy* worker — only
    /// the session died, so recovery skips the restart rung.
    fn needs_restart(e: &CgError) -> bool {
        !matches!(e, CgError::BudgetExceeded(_))
    }

    /// Issues one request, absorbing typed overload refusals in place. An
    /// [`CgError::Overloaded`] answer means a healthy front door pushed
    /// back — the session is untouched — so the right response is to wait
    /// at least the server-advised `retry_after_ms` (the policy's jittered
    /// backoff never rounds below it) and re-issue the identical request.
    /// Replay and restart are never involved: overload is not a fault.
    ///
    /// The request is built afresh only for a retry, so the first attempt
    /// sends what `build` made without a copy.
    fn call_patient(&self, sid: u64, build: &impl Fn(u64) -> Request) -> Result<Response, CgError> {
        let policy = self.link.policy().clone();
        let attempts = policy.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            let req = build(sid);
            let kind = req.kind();
            match self.link.call(req) {
                Err(CgError::Overloaded {
                    retry_after_ms,
                    reason,
                }) if attempt + 1 < attempts => {
                    attempt += 1;
                    policy.record_retry(kind, attempt, &reason);
                    std::thread::sleep(
                        policy.backoff_with_floor(attempt, Duration::from_millis(retry_after_ms)),
                    );
                }
                other => return other,
            }
        }
    }

    /// Issues a session-scoped request, transparently recovering the episode
    /// on service failure: the service is restarted (unless the fault was an
    /// in-band budget kill, or the link was already restarted under this
    /// session), a fresh session is established from the latest matching
    /// checkpoint (or from scratch), the unreplayed action suffix is
    /// replayed (with a consistency check), and the failed call is retried
    /// — up to the policy's attempt count and budget.
    fn call_recovering(&mut self, build: impl Fn(u64) -> Request) -> Result<Response, CgError> {
        let sid = self
            .session
            .ok_or_else(|| CgError::Usage("no active episode; call reset()".into()))?;
        let mut last = match self.call_patient(sid, &build) {
            Err(e) if Self::recoverable(&e) => e,
            other => return other,
        };
        // The session id now points into a dead, wedged, or budget-killed
        // worker session: drop it immediately so nothing can address the
        // ghost session.
        self.session = None;
        let policy = self.link.policy().clone();
        let start = std::time::Instant::now();
        for attempt in 1..policy.max_attempts.max(1) {
            if policy.budget.is_some_and(|b| start.elapsed() >= b) {
                break;
            }
            std::thread::sleep(policy.backoff_for(attempt));
            // A link restarted since this session began — by a fork sharing
            // it — has already lost the session: replay
            // is enough, and restarting again would take the sibling's
            // fresh session down with it.
            let restart =
                Self::needs_restart(&last) && self.link.restarts() == self.session_generation;
            match self.replay_episode(restart) {
                Ok(new_sid) => match self.call_patient(new_sid, &build) {
                    Err(e) if Self::recoverable(&e) => {
                        self.session = None;
                        last = e;
                    }
                    other => return other,
                },
                // A divergent replay is a correctness finding, not a
                // transient fault: surface it instead of retrying.
                Err(e @ CgError::ReplayDivergence { .. }) => return Err(e),
                Err(e) if Self::recoverable(&e) => last = e,
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    /// Restores the episode after a fault, climbing down the recovery
    /// ladder: restarts the service (when the fault requires it), asks it
    /// to [`Request::Resume`] the episode — it restores the deepest
    /// matching checkpoint from its own ring, or starts the session fresh —
    /// and replays only the unreplayed action suffix, falling back to a
    /// full-history replay when the restored state diverges. Checks that
    /// the restored reward metric matches the pre-fault `prev_metric`,
    /// when the reward space is deterministic.
    fn replay_episode(&mut self, restart: bool) -> Result<u64, CgError> {
        let tel = cg_telemetry::global();
        let timer = cg_telemetry::Timer::start();
        if restart {
            self.link.restart();
            // This env's own restart: a later attempt whose replay fails
            // must restart again, not mistake it for a sibling's.
            self.session_generation = self.link.restarts();
        }
        let reward_info = self.reward_info()?;
        let mut resume = true;
        loop {
            let req = if resume {
                Request::Resume {
                    benchmark: self.benchmark.clone(),
                    action_space: self.action_space_index,
                    actions: self.actions.clone(),
                }
            } else {
                Request::StartSession {
                    benchmark: self.benchmark.clone(),
                    action_space: self.action_space_index,
                }
            };
            let (sid, replay_from) = match self.link.call(req)? {
                Response::Resumed { session_id, depth } => {
                    (session_id, depth.min(self.actions.len()))
                }
                Response::SessionStarted { session_id } => (session_id, 0),
                r => {
                    return Err(CgError::ServiceFailure(format!(
                        "bad session reply during replay: {r:?}"
                    )))
                }
            };
            let resp = self.link.call(Request::Step {
                session_id: sid,
                actions: self.actions[replay_from..].to_vec(),
                observation_spaces: vec![reward_info.metric.clone()],
            })?;
            let Response::Stepped {
                mut observations, ..
            } = resp
            else {
                return Err(CgError::ServiceFailure(
                    "bad Step reply during replay".into(),
                ));
            };
            let metric =
                observations
                    .pop()
                    .and_then(|o| o.as_scalar())
                    .ok_or(CgError::ServiceFailure(
                        "missing metric during replay".into(),
                    ))?;
            let tolerance = 1e-6 * self.prev_metric.abs().max(1.0);
            if !reward_info.deterministic || (metric - self.prev_metric).abs() <= tolerance {
                self.session = Some(sid);
                self.session_generation = self.link.restarts();
                if replay_from > 0 {
                    tel.checkpoint_restores.inc();
                    tel.trace.emit_status(
                        "env:checkpoint-restore",
                        format!(
                            "{}: restored checkpoint at depth {replay_from}, replayed \
                             {}-action suffix of {}",
                            self.benchmark,
                            self.actions.len() - replay_from,
                            self.actions.len()
                        ),
                        timer.elapsed(),
                        SpanStatus::Recovered,
                    );
                }
                tel.recoveries.inc();
                tel.trace.emit_status(
                    "env:replay",
                    format!(
                        "{}: {} action(s) replayed to metric {metric}",
                        self.benchmark,
                        self.actions.len() - replay_from
                    ),
                    timer.elapsed(),
                    SpanStatus::Recovered,
                );
                return Ok(sid);
            }
            // The restored metric diverges from the pre-fault value. If a
            // checkpoint was involved it may itself be the culprit (stale
            // or corrupt snapshot): drop down one rung and replay the whole
            // history before declaring a divergence.
            let _ = self
                .link
                .call_teardown(Request::EndSession { session_id: sid });
            if replay_from > 0 {
                tel.trace.emit_status(
                    "env:checkpoint-divergence",
                    format!(
                        "{}: checkpoint at depth {replay_from} replayed to {metric}, expected \
                         {}; falling back to full replay",
                        self.benchmark, self.prev_metric
                    ),
                    timer.elapsed(),
                    SpanStatus::Retried,
                );
                resume = false;
                continue;
            }
            tel.replay_divergences.inc();
            tel.trace.emit_status(
                "env:replay-divergence",
                format!(
                    "{}: expected metric {} but replay produced {metric}",
                    self.benchmark, self.prev_metric
                ),
                timer.elapsed(),
                SpanStatus::Error,
            );
            let repro = self.dump_divergence_repro(&reward_info.metric, metric);
            return Err(CgError::ReplayDivergence {
                benchmark: self.benchmark.clone(),
                expected: self.prev_metric,
                actual: metric,
                repro,
            });
        }
    }

    /// Writes a self-contained JSON reproducer for a replay divergence
    /// (benchmark, full action history, expected/actual metric) so the
    /// nondeterminism can be re-judged offline, in the same format family
    /// as the fuzzer's miscompilation reproducers. Returns the written
    /// path, or `None` when the dump itself fails (the divergence error is
    /// surfaced either way).
    fn dump_divergence_repro(&self, metric_space: &str, actual: f64) -> Option<String> {
        cg_difftest::DivergenceRepro {
            version: cg_difftest::repro::REPRO_VERSION,
            env: self.env_id.clone(),
            benchmark: self.benchmark.clone(),
            action_space: self.action_space_index,
            actions: self.actions.clone(),
            metric_space: metric_space.to_string(),
            expected: self.prev_metric,
            actual,
        }
        .save(&cg_difftest::repro::default_divergence_dir())
        .ok()
        .map(|p| p.display().to_string())
    }

    /// Applies one action (see [`CompilerEnv::step_batched`] for several).
    ///
    /// Recovers transparently from a mid-episode service fault by replaying
    /// the episode's action history on a fresh service (see the module-level
    /// fault tolerance contract).
    ///
    /// # Errors
    /// [`CgError::Usage`] before `reset`; session or service failures.
    pub fn step(&mut self, action: usize) -> Result<StepResult, CgError> {
        self.step_batched(&[action])
    }

    /// Applies a batch of actions in a single service round trip (§III-B5),
    /// returning the final observation and the summed reward.
    ///
    /// # Errors
    /// See [`CompilerEnv::step`].
    pub fn step_batched(&mut self, actions: &[usize]) -> Result<StepResult, CgError> {
        let (results, step) = self.step_lazy(actions, &[])?;
        debug_assert!(results.is_empty());
        Ok(step)
    }

    /// The lazy-observation step (§III-B5): applies `actions`, then computes
    /// exactly the named `extra_observations` plus the reward metric.
    /// Returns the extra observations in request order.
    ///
    /// # Errors
    /// See [`CompilerEnv::step`].
    pub fn step_lazy(
        &mut self,
        actions: &[usize],
        extra_observations: &[&str],
    ) -> Result<(Vec<Observation>, StepResult), CgError> {
        let tel = cg_telemetry::global();
        // The root of this step's span tree: every rpc attempt, retry,
        // reconnect, restore, replay, and per-pass span this step causes —
        // on either side of the RPC boundary — parents under it, and the
        // whole trace binds to the episode's flight-recorder timeline.
        let mut span = tel.trace.root_span("env:step");
        if let Some(ep) = self.episode_id {
            tel.trace.bind_episode(span.context().trace_id, ep);
        }
        span.attr("benchmark", self.benchmark.clone());
        span.attr("actions", format!("{actions:?}"));
        let restarts_before = self.link.restarts();
        let result = self.step_lazy_inner(actions, extra_observations);
        match &result {
            Ok(_) => {
                if self.link.restarts() > restarts_before {
                    // The step succeeded, but only after the recovery
                    // ladder replaced the service under it.
                    span.set_status(SpanStatus::Recovered);
                }
            }
            Err(CgError::BudgetExceeded(v)) => {
                span.set_status(SpanStatus::BudgetExceeded);
                span.set_detail(v.to_string());
            }
            Err(e) => {
                span.set_status(SpanStatus::Error);
                span.set_detail(e.to_string());
            }
        }
        result
    }

    fn step_lazy_inner(
        &mut self,
        actions: &[usize],
        extra_observations: &[&str],
    ) -> Result<(Vec<Observation>, StepResult), CgError> {
        let tel = cg_telemetry::global();
        let timer = cg_telemetry::Timer::start();
        let reward_info = self.reward_info()?;
        let mut spaces: Vec<String> = extra_observations.iter().map(|s| s.to_string()).collect();
        let want_default_obs = extra_observations.is_empty();
        if want_default_obs {
            spaces.push(self.observation_space.clone());
        }
        spaces.push(reward_info.metric.clone());
        // Piggyback the IR text for the transition sink in the same RPC.
        let sink = self.active_sink();
        if sink.is_some() {
            spaces.push("Ir".to_string());
        }
        let resp = self.call_recovering(|sid| Request::Step {
            session_id: sid,
            actions: actions.to_vec(),
            observation_spaces: spaces.clone(),
        })?;
        let Response::Stepped {
            end_of_episode,
            changed,
            mut observations,
        } = resp
        else {
            return Err(CgError::ServiceFailure("bad Step reply".into()));
        };
        let ir_obs = if sink.is_some() {
            observations.pop()
        } else {
            None
        };
        let metric = observations
            .pop()
            .and_then(|o| o.as_scalar())
            .ok_or(CgError::ServiceFailure("missing reward metric".into()))?;
        let observation = if want_default_obs {
            observations
                .pop()
                .ok_or(CgError::ServiceFailure("missing observation".into()))?
        } else {
            Observation::Scalar(metric)
        };
        let mut reward = reward_info.sign * (self.prev_metric - metric);
        if reward_info.baseline.is_some() {
            let scale = (self.init_metric - self.baseline_metric.unwrap_or(0.0)).abs();
            reward /= scale.max(1e-9);
        }
        self.prev_metric = metric;
        self.episode_reward += reward;
        self.actions.extend_from_slice(actions);
        if let Some(sink) = &sink {
            if let Some(ir) = ir_obs.as_ref().and_then(|o| o.as_text()) {
                self.sink_state = Some(match self.sink_state {
                    Some(from) => {
                        let names = &self.action_space().actions;
                        let history: Vec<String> = self
                            .actions
                            .iter()
                            .map(|&a| names.get(a).cloned().unwrap_or_default())
                            .collect();
                        sink.record_step(&self.benchmark, &history, from, ir, reward)
                    }
                    // Resumed from a restored snapshot: the pre-step state
                    // is unknown, so only register this state and start
                    // logging edges from the next step.
                    None => sink.record_state(ir),
                });
            }
        }
        tel.episode.steps.inc();
        tel.episode.actions_total.add(actions.len() as u64);
        if changed {
            tel.episode.actions_changed.add(actions.len() as u64);
        }
        tel.episode.reward_sum.add(reward);
        let dur = timer.observe(&tel.episode.step_wall);
        tel.slo.record(dur);
        tel.trace.emit(
            "step",
            format!("{} actions={actions:?} reward={reward:.6}", self.env_id),
            dur,
        );
        Ok((
            observations,
            StepResult {
                observation,
                reward,
                done: end_of_episode,
                changed,
            },
        ))
    }

    /// Computes a single observation on demand, without taking an action.
    ///
    /// # Errors
    /// See [`CompilerEnv::step`].
    pub fn observe(&mut self, space: &str) -> Result<Observation, CgError> {
        let space_owned = space.to_string();
        let resp = self.call_recovering(|sid| Request::Step {
            session_id: sid,
            actions: vec![],
            observation_spaces: vec![space_owned.clone()],
        })?;
        match resp {
            Response::Stepped {
                mut observations, ..
            } => observations
                .pop()
                .ok_or(CgError::ServiceFailure("missing observation".into())),
            r => Err(CgError::ServiceFailure(format!("bad reply: {r:?}"))),
        }
    }

    /// Creates an independent deep copy of this environment (§III-B6): the
    /// backend session is forked in place, so common action prefixes are
    /// never re-evaluated. The copy shares the service but not the state.
    ///
    /// # Errors
    /// See [`CompilerEnv::step`].
    pub fn fork(&mut self) -> Result<CompilerEnv, CgError> {
        let tel = cg_telemetry::global();
        let timer = cg_telemetry::Timer::start();
        let mut span = tel.trace.root_span("env:fork");
        span.set_detail(format!("{} {}", self.env_id, self.benchmark));
        if let Some(ep) = self.episode_id {
            tel.trace.bind_episode(span.context().trace_id, ep);
        }
        let forked = match self.call_recovering(|sid| Request::Fork { session_id: sid })? {
            Response::Forked { session_id } => session_id,
            r => return Err(CgError::ServiceFailure(format!("bad Fork reply: {r:?}"))),
        };
        let dur = timer.observe(&tel.episode.fork_wall);
        tel.trace
            .emit("fork", format!("{} {}", self.env_id, self.benchmark), dur);
        Ok(CompilerEnv {
            env_id: self.env_id.clone(),
            link: self.link.clone_link(),
            session: Some(forked),
            session_generation: self.session_generation,
            benchmark: self.benchmark.clone(),
            action_space_index: self.action_space_index,
            action_spaces: self.action_spaces.clone(),
            observation_spaces: self.observation_spaces.clone(),
            reward_spaces: self.reward_spaces.clone(),
            observation_space: self.observation_space.clone(),
            reward_space: self.reward_space.clone(),
            prev_metric: self.prev_metric,
            init_metric: self.init_metric,
            baseline_metric: self.baseline_metric,
            episode_reward: self.episode_reward,
            actions: self.actions.clone(),
            // Forks share the quarantine: a pair that kills services is
            // pathological for every episode that touches it.
            // The fork's steps keep binding to the parent's episode until
            // its own reset() opens a timeline of its own — borrowed, not
            // owned, so the fork's close never ends the parent's timeline.
            episode_id: self.episode_id,
            owns_episode: false,
            log_transitions: self.log_transitions,
            // The fork's pre-step state hash is the parent's: the backend
            // session was forked in place, so the next step's edge starts
            // from the same state.
            sink_state: self.sink_state,
        })
    }

    /// Captures the live episode as a portable [`EpisodeSnapshot`]:
    /// serialized backend state plus the client-side reward bookkeeping.
    /// Unlike [`CompilerEnv::fork`] the result is plain data — it can be
    /// cached, sent across threads, and restored into any environment that
    /// shares the backend.
    ///
    /// # Errors
    /// [`CgError::Usage`] before `reset`; service failures; backends
    /// without state serialization.
    pub fn episode_snapshot(&mut self) -> Result<EpisodeSnapshot, CgError> {
        let resp = self.call_recovering(|sid| Request::ExportState { session_id: sid })?;
        let Response::State { state } = resp else {
            return Err(CgError::ServiceFailure(format!(
                "bad ExportState reply: {resp:?}"
            )));
        };
        let state = state
            .ok_or_else(|| CgError::ServiceFailure("session has no exportable state".into()))?;
        Ok(EpisodeSnapshot {
            benchmark: self.benchmark.clone(),
            action_space_index: self.action_space_index,
            actions: self.actions.clone(),
            state,
            prev_metric: self.prev_metric,
            init_metric: self.init_metric,
            baseline_metric: self.baseline_metric,
            episode_reward: self.episode_reward,
        })
    }

    /// Replaces the current episode (if any) with the one captured in
    /// `snap`: the backend session is rebuilt via `RestoreSession` and the
    /// client-side metrics are adopted, so subsequent `step` rewards
    /// continue exactly where the snapshot left off.
    ///
    /// # Errors
    /// Service failures; a backend that rejects the serialized state.
    pub fn restore_snapshot(&mut self, snap: &EpisodeSnapshot) -> Result<(), CgError> {
        if let Some(sid) = self.session.take() {
            let _ = self
                .link
                .call_teardown(Request::EndSession { session_id: sid });
        }
        let resp = self.link.call_with_policy(Request::RestoreSession {
            benchmark: snap.benchmark.clone(),
            action_space: snap.action_space_index,
            actions: snap.actions.clone(),
            state: snap.state.clone(),
        })?;
        let Response::SessionStarted { session_id } = resp else {
            return Err(CgError::ServiceFailure(format!(
                "bad RestoreSession reply: {resp:?}"
            )));
        };
        self.session = Some(session_id);
        self.session_generation = self.link.restarts();
        self.benchmark = snap.benchmark.clone();
        self.action_space_index = snap.action_space_index;
        self.actions = snap.actions.clone();
        self.prev_metric = snap.prev_metric;
        self.init_metric = snap.init_metric;
        self.baseline_metric = snap.baseline_metric;
        self.episode_reward = snap.episode_reward;
        // The restored state's sink hash is unknown until the next step's
        // piggybacked IR arrives.
        self.sink_state = None;
        Ok(())
    }

    /// Serializes the episode state (§III-B2): benchmark, action names,
    /// cumulative reward.
    pub fn state(&self) -> EnvState {
        let names = self.action_space();
        EnvState {
            env: self.env_id.clone(),
            benchmark: self.benchmark.clone(),
            actions: self
                .actions
                .iter()
                .map(|&a| names.actions[a].clone())
                .collect(),
            reward: self.episode_reward,
            reward_space: self.reward_space.clone(),
        }
    }

    /// Ends the episode and releases the backend session.
    pub fn close(&mut self) {
        if let Some(ep) = self.episode_id.take() {
            if self.owns_episode {
                cg_telemetry::global().trace.end_episode(ep);
            }
        }
        if let Some(sid) = self.session.take() {
            // Best effort with a short teardown deadline: a wedged service
            // must not stall the caller (or Drop) for the full call timeout.
            let _ = self
                .link
                .call_teardown(Request::EndSession { session_id: sid });
        }
    }

    /// Number of service restarts this environment has triggered (fault
    /// tolerance observability).
    pub fn service_restarts(&self) -> u64 {
        self.link.restarts()
    }
}

impl Drop for CompilerEnv {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering::SeqCst};

    #[test]
    fn make_llvm_and_reduce_size() {
        let mut env = make("llvm-v0").unwrap();
        env.set_benchmark("benchmark://cbench-v1/crc32");
        let obs = env.reset().unwrap();
        assert_eq!(obs.as_int_vector().unwrap().len(), 56); // Autophase
        let idx = env.action_space().index_of("mem2reg").unwrap();
        let step = env.step(idx).unwrap();
        assert!(step.reward > 0.0);
        assert!(step.changed);
        assert!(!step.done);
        assert_eq!(env.actions(), &[idx]);
    }

    #[test]
    fn batched_step_sums_reward_in_one_roundtrip() {
        let mut env = make("llvm-v0").unwrap();
        env.set_benchmark("benchmark://cbench-v1/sha");
        env.reset().unwrap();
        let a = env.action_space().index_of("mem2reg").unwrap();
        let b = env.action_space().index_of("instcombine").unwrap();
        let c = env.action_space().index_of("dce").unwrap();
        let batched = env.step_batched(&[a, b, c]).unwrap();
        // Compare against sequential on a fresh episode.
        let mut env2 = make("llvm-v0").unwrap();
        env2.set_benchmark("benchmark://cbench-v1/sha");
        env2.reset().unwrap();
        let mut total = 0.0;
        for x in [a, b, c] {
            total += env2.step(x).unwrap().reward;
        }
        assert!((batched.reward - total).abs() < 1e-9);
    }

    #[test]
    fn lazy_observations_by_name() {
        let mut env = make("llvm-v0").unwrap();
        env.set_benchmark("benchmark://cbench-v1/crc32");
        env.reset().unwrap();
        let a = env.action_space().index_of("sroa").unwrap();
        let (obs, step) = env.step_lazy(&[a], &["Ir", "InstCount"]).unwrap();
        assert_eq!(obs.len(), 2);
        assert!(obs[0].as_text().is_some());
        assert_eq!(obs[1].as_int_vector().unwrap().len(), 70);
        let _ = step;
    }

    #[test]
    fn scaled_reward_space_is_fraction_of_oz_gain() {
        let mut env = make("llvm-autophase-ic-v0").unwrap();
        env.set_benchmark("benchmark://cbench-v1/qsort");
        env.reset().unwrap();
        // Apply the whole Oz-ish recipe manually; cumulative scaled reward
        // should approach ~1.0 (the Oz gain).
        for name in [
            "sroa",
            "mem2reg",
            "instcombine",
            "gvn",
            "dse",
            "load-elim",
            "adce",
            "simplifycfg-aggressive",
        ] {
            let idx = env.action_space().index_of(name).unwrap();
            env.step(idx).unwrap();
        }
        let total = env.episode_reward();
        assert!(total > 0.5 && total < 1.5, "scaled reward was {total}");
    }

    #[test]
    fn fork_shares_prefix_without_reevaluation() {
        let mut env = make("llvm-v0").unwrap();
        env.set_benchmark("benchmark://cbench-v1/bitcount");
        env.reset().unwrap();
        let m2r = env.action_space().index_of("mem2reg").unwrap();
        env.step(m2r).unwrap();
        let mut forked = env.fork().unwrap();
        // Diverge.
        let dce = env.action_space().index_of("dce").unwrap();
        let gvn = env.action_space().index_of("gvn").unwrap();
        let r1 = env.step(dce).unwrap().reward;
        let r2 = forked.step(gvn).unwrap().reward;
        let _ = (r1, r2);
        assert_ne!(
            env.observe("IrInstructionCount").unwrap(),
            Observation::Scalar(-1.0)
        );
        // Both continue to work independently.
        assert_eq!(env.actions().len(), 2);
        assert_eq!(forked.actions().len(), 2);
    }

    #[test]
    fn gcc_env_round_trip() {
        let mut env = make("gcc-v0").unwrap();
        env.reset().unwrap();
        // Set -O to -Os via the flat action named like "set[-O]=5".
        let idx = env.action_space().index_of("set[-O]=5").unwrap();
        let step = env.step(idx).unwrap();
        assert!(
            step.reward > 0.0,
            "-Os shrinks vs unoptimized: {}",
            step.reward
        );
    }

    #[test]
    fn looptool_env_round_trip() {
        let mut env = make("loop_tool-v0").unwrap();
        env.reset().unwrap();
        let t = env.action_space().index_of("toggle_thread").unwrap();
        let step = env.step(t).unwrap();
        assert!(step.reward > 0.0, "threading raises FLOPs: {}", step.reward);
    }

    #[test]
    fn unknown_env_is_rejected() {
        assert!(matches!(make("nope-v9"), Err(CgError::Unknown(_))));
    }

    #[test]
    fn step_before_reset_is_usage_error() {
        let mut env = make("llvm-v0").unwrap();
        assert!(matches!(env.step(0), Err(CgError::Usage(_))));
    }

    /// `make` runs the compiler on the caller's thread, so it must fit in
    /// the default 2 MiB stack of a plain `std::thread::spawn` thread: every
    /// action on the largest cBench program, then every observation
    /// representation and the interpreter-backed `Runtime` reward.
    #[test]
    fn make_runs_on_a_default_stack_thread() {
        let largest = cg_datasets::CBENCH
            .iter()
            .map(|name| format!("benchmark://cbench-v1/{name}"))
            .max_by_key(|uri| cg_datasets::benchmark(uri).unwrap().inst_count())
            .unwrap();
        std::thread::spawn(move || {
            let mut env = make("llvm-v0").unwrap();
            env.set_benchmark(&largest);
            env.set_reward_space("Runtime");
            env.reset().unwrap();
            let actions: Vec<usize> = (0..env.action_space().len()).collect();
            assert_eq!(actions.len(), 124);
            env.step_batched(&actions).unwrap();
            for space in ["Ir", "InstCount", "Autophase", "Inst2vec", "Programl"] {
                env.observe(space).unwrap();
            }
            assert!(env.last_metric() > 0.0, "Runtime was measured");
        })
        .join()
        .expect("the episode fits a default thread stack");
    }

    /// A link that refuses the next `refusals` action-applying `Step`s with
    /// a typed overload and forwards everything else to an inline service,
    /// counting the sessions it is asked to start or resume.
    #[derive(Debug)]
    struct Refusing {
        inner: InlineLink,
        refusals: Arc<AtomicU32>,
        sessions: Arc<AtomicU32>,
    }

    impl Link for Refusing {
        fn call(&self, req: Request) -> Result<Response, CgError> {
            match &req {
                Request::Step { actions, .. }
                    if !actions.is_empty()
                        && (self.refusals)
                            .fetch_update(SeqCst, SeqCst, |n| n.checked_sub(1))
                            .is_ok() =>
                {
                    return Err(CgError::Overloaded {
                        retry_after_ms: 1,
                        reason: "busy".into(),
                    });
                }
                Request::StartSession { .. } | Request::Resume { .. } => {
                    self.sessions.fetch_add(1, SeqCst);
                }
                _ => {}
            }
            self.inner.call(req)
        }
        fn call_teardown(&self, req: Request) -> Result<Response, CgError> {
            self.inner.call_teardown(req)
        }
        fn restart(&self) {
            self.inner.restart();
        }
        fn restarts(&self) -> u64 {
            self.inner.restarts()
        }
        fn policy(&self) -> &RetryPolicy {
            self.inner.policy()
        }
        fn set_policy(&mut self, policy: RetryPolicy) {
            self.inner.set_policy(policy);
        }
        fn resource_budget(&self) -> ResourceBudget {
            self.inner.resource_budget()
        }
        fn set_resource_budget(&self, budget: ResourceBudget) -> Result<(), CgError> {
            self.inner.set_resource_budget(budget)
        }
        fn clone_link(&self) -> Box<dyn Link> {
            unimplemented!("the test never forks")
        }
    }

    #[test]
    fn overload_is_retried_in_place_without_restart_or_replay() {
        let refusals = Arc::new(AtomicU32::new(0));
        let sessions = Arc::new(AtomicU32::new(0));
        let link = Refusing {
            inner: InlineLink::new(session_factory("llvm-v0").unwrap()),
            refusals: Arc::clone(&refusals),
            sessions: Arc::clone(&sessions),
        };
        let mut env = CompilerEnv::with_link(
            "llvm-v0",
            Box::new(link),
            "benchmark://cbench-v1/crc32",
            "Autophase",
            "IrInstructionCount",
        )
        .unwrap();
        env.reset().unwrap();
        let a = env.action_space().index_of("mem2reg").unwrap();

        refusals.store(1, SeqCst);
        assert!(env.step(a).unwrap().reward > 0.0, "the retry stepped");
        assert_eq!(refusals.load(SeqCst), 0, "the first Step was refused");
        assert_eq!(env.actions(), &[a]);
        let no_restart_no_replay = (0, 1);
        assert_eq!(
            (env.service_restarts(), sessions.load(SeqCst)),
            no_restart_no_replay
        );

        refusals.store(RetryPolicy::default().max_attempts, SeqCst);
        assert!(matches!(env.step(a), Err(CgError::Overloaded { .. })));
        assert_eq!(refusals.load(SeqCst), 0, "every attempt was refused");
        assert_eq!(env.actions(), &[a], "a refused step applies nothing");
        assert_eq!(
            (env.service_restarts(), sessions.load(SeqCst)),
            no_restart_no_replay
        );
    }
}
