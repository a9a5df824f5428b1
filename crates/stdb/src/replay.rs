//! The replay environment: `make("replay://llvm-v0?dir=...")` answers
//! resets, steps, and observations from a [`TransitionStore`] at zero
//! compiler cost, falling back to the live compiler *gracefully* when the
//! store cannot answer.
//!
//! # Fall-through semantics
//!
//! A missing benchmark, a missing `(state, action)` edge, a missing or
//! feature-less observation — none of these is an error. The session
//! counts the miss (`cg_stdb_replay_misses_total`), emits a `stdb:miss`
//! trace span, spins up a live session of the inner environment, replays
//! the episode's action history onto it, and keeps serving from the
//! compiler for the rest of the episode — writing every live transition
//! back through the store so the *next* episode over this trajectory is a
//! hit. Served requests count as hits; requests answered by the live
//! compiler (including everything after a fall-through) count as misses,
//! so the hit rate honestly reflects how much compiler time the store
//! saved.
//!
//! # URI form
//!
//! `replay://<inner-env>?dir=<store-dir>[&benchmark=..][&obs=..][&reward=..]`
//!
//! The inner environment must be an LLVM backend (the store's features are
//! LLVM-derived). The replay environment itself never feeds the global
//! transition sink (it would re-log what it just read); it writes through
//! its own store handle on the live path instead.

use std::path::PathBuf;
use std::sync::Arc;

use cg_core::service::{InlineLink, SessionFactory};
use cg_core::session::{ActionOutcome, CompilationSession, SessionSnapshot};
use cg_core::space::{ActionSpaceInfo, Observation, ObservationSpaceInfo, RewardSpaceInfo};
use cg_core::{CgError, CompilerEnv};

use crate::store::{StoreConfig, TransitionStore};

/// Registers the `replay://` scheme with the core's environment registry,
/// so `cg_core::make("replay://...")` resolves to [`make_replay`]. Safe to
/// call more than once.
pub fn install() {
    cg_core::register_env_scheme("replay", Arc::new(|uri: &str| make_replay(uri)));
}

struct ReplayUri {
    inner: String,
    dir: PathBuf,
    benchmark: String,
    observation_space: String,
    reward_space: String,
}

fn parse_replay_uri(uri: &str) -> Result<ReplayUri, String> {
    let rest = uri
        .strip_prefix("replay://")
        .ok_or("replay URI must start with replay://")?;
    let (inner, query) = rest
        .split_once('?')
        .ok_or("replay URI needs a query: replay://<env>?dir=<store>")?;
    if !inner.starts_with("llvm") {
        return Err(format!(
            "replay:// supports LLVM backends (the store's features are \
             LLVM-derived), got `{inner}`"
        ));
    }
    let mut dir = None;
    let mut benchmark = "benchmark://cbench-v1/qsort".to_string();
    let mut observation_space = "Autophase".to_string();
    let mut reward_space = "IrInstructionCount".to_string();
    for pair in query.split('&') {
        let Some((k, v)) = pair.split_once('=') else {
            continue;
        };
        match k {
            "dir" => dir = Some(PathBuf::from(v)),
            "benchmark" => benchmark = v.to_string(),
            "obs" => observation_space = v.to_string(),
            "reward" => reward_space = v.to_string(),
            other => return Err(format!("unknown replay query key `{other}`")),
        }
    }
    Ok(ReplayUri {
        inner: inner.to_string(),
        dir: dir.ok_or("replay URI needs dir=<store directory>")?,
        benchmark,
        observation_space,
        reward_space,
    })
}

/// Builds a replay environment from a `replay://` URI (see the module
/// docs for the form). The store is opened through the shared registry,
/// so a sink writing to the same directory shares the writer.
///
/// # Errors
/// Bad URIs, unknown inner environments, store I/O failures.
pub fn make_replay(uri: &str) -> Result<CompilerEnv, CgError> {
    let parsed = parse_replay_uri(uri).map_err(CgError::Unknown)?;
    let store = TransitionStore::open_shared(&parsed.dir, StoreConfig::default())
        .map_err(|e| CgError::ServiceFailure(format!("opening transition store: {e}")))?;
    let live_factory = cg_core::envs::session_factory(&parsed.inner).map_err(CgError::Unknown)?;
    // Spaces are static per backend: capture them once from a template
    // session and hand clones to every replay session.
    let template = live_factory();
    let action_infos = template.action_spaces();
    let obs_infos = template.observation_spaces();
    let reward_infos = template.reward_spaces();
    drop(template);

    let factory: SessionFactory = {
        let store = Arc::clone(&store);
        Arc::new(move || {
            Box::new(ReplaySession {
                store: Arc::clone(&store),
                live_factory: Arc::clone(&live_factory),
                action_infos: action_infos.clone(),
                obs_infos: obs_infos.clone(),
                reward_infos: reward_infos.clone(),
                benchmark: String::new(),
                action_space: 0,
                actions: Vec::new(),
                state: 0,
                live: None,
            })
        })
    };
    // Served inline, on the caller's thread, like every `make` env.
    let mut env = CompilerEnv::with_link(
        uri,
        Box::new(InlineLink::new(factory)),
        &parsed.benchmark,
        &parsed.observation_space,
        &parsed.reward_space,
    )?;
    // Never re-log what we just read out of the store.
    env.set_transition_logging(false);
    Ok(env)
}

/// A [`CompilationSession`] served from the transition store, degrading
/// to a live inner session on miss.
pub struct ReplaySession {
    store: Arc<TransitionStore>,
    live_factory: SessionFactory,
    action_infos: Vec<ActionSpaceInfo>,
    obs_infos: Vec<ObservationSpaceInfo>,
    reward_infos: Vec<RewardSpaceInfo>,
    benchmark: String,
    action_space: usize,
    actions: Vec<usize>,
    state: u64,
    live: Option<Box<dyn CompilationSession>>,
}

impl ReplaySession {
    fn hit(&self) {
        cg_telemetry::global().stdb.replay_hits.inc();
    }

    fn miss(&self) {
        cg_telemetry::global().stdb.replay_misses.inc();
    }

    /// Counts the miss that *triggers* fall-through and emits the
    /// `stdb:miss` span; later live-served requests only count.
    fn miss_span(&self, what: &str) {
        self.miss();
        let tel = cg_telemetry::global();
        let mut span = tel.trace.root_span("stdb:miss");
        span.set_detail(format!(
            "{} state={:016x} {what}",
            self.benchmark, self.state
        ));
    }

    fn action_name(&self, action: usize) -> Result<String, String> {
        self.action_infos
            .get(self.action_space)
            .and_then(|s| s.actions.get(action))
            .cloned()
            .ok_or_else(|| format!("action {action} out of range"))
    }

    /// Spins up the live inner session and replays the episode's history
    /// onto it, writing each recovered transition back through the store.
    fn go_live(&mut self) -> Result<(), String> {
        if self.live.is_some() {
            return Ok(());
        }
        let mut live = (self.live_factory)();
        live.init(&self.benchmark, self.action_space)?;
        let mut state = match live.observe("Ir") {
            Ok(obs) => obs
                .as_text()
                .map(|ir| self.store.log_reset(&self.benchmark, ir)),
            Err(_) => None,
        };
        let mut names = Vec::with_capacity(self.actions.len());
        for &a in &self.actions.clone() {
            let name = self.action_name(a)?;
            live.apply_action(a)?;
            names.push(name);
            state = match (state, live.observe("Ir")) {
                (Some(from), Ok(obs)) => obs
                    .as_text()
                    .map(|ir| self.store.log_step(&self.benchmark, &names, from, ir, 0.0)),
                _ => None,
            };
        }
        if let Some(s) = state {
            self.state = s;
        }
        self.live = Some(live);
        Ok(())
    }

    fn live_apply(&mut self, action: usize) -> Result<ActionOutcome, String> {
        let live = self.live.as_mut().expect("live session exists");
        let outcome = live.apply_action(action)?;
        self.actions.push(action);
        // Write-through: the next episode over this trajectory is a hit.
        if let Ok(obs) = live.observe("Ir") {
            if let Some(ir) = obs.as_text() {
                let mut names = Vec::with_capacity(self.actions.len());
                for &a in &self.actions {
                    names.push(
                        self.action_infos
                            .get(self.action_space)
                            .and_then(|s| s.actions.get(a))
                            .cloned()
                            .unwrap_or_default(),
                    );
                }
                self.state = self
                    .store
                    .log_step(&self.benchmark, &names, self.state, ir, 0.0);
            }
        }
        Ok(outcome)
    }
}

impl CompilationSession for ReplaySession {
    fn action_spaces(&self) -> Vec<ActionSpaceInfo> {
        self.action_infos.clone()
    }

    fn observation_spaces(&self) -> Vec<ObservationSpaceInfo> {
        self.obs_infos.clone()
    }

    fn reward_spaces(&self) -> Vec<RewardSpaceInfo> {
        self.reward_infos.clone()
    }

    fn init(&mut self, benchmark: &str, action_space: usize) -> Result<(), String> {
        if action_space >= self.action_infos.len() {
            return Err(format!("action space {action_space} out of range"));
        }
        self.benchmark = benchmark.to_string();
        self.action_space = action_space;
        self.actions.clear();
        self.live = None;
        match self.store.initial_state(benchmark) {
            Some(state) => {
                self.state = state;
                self.hit();
                Ok(())
            }
            None => {
                self.miss_span("init");
                self.go_live()
            }
        }
    }

    fn apply_action(&mut self, action: usize) -> Result<ActionOutcome, String> {
        if self.live.is_some() {
            self.miss();
            return self.live_apply(action);
        }
        let name = self.action_name(action)?;
        match self.store.transition(self.state, &name) {
            Some((to, _reward)) => {
                self.hit();
                let changed = to != self.state;
                self.state = to;
                self.actions.push(action);
                Ok(ActionOutcome {
                    end_of_episode: false,
                    action_space_changed: false,
                    changed,
                })
            }
            None => {
                self.miss_span(&format!("step {name}"));
                self.go_live()?;
                self.live_apply(action)
            }
        }
    }

    fn observe(&mut self, space: &str) -> Result<Observation, String> {
        if self.live.is_some() {
            self.miss();
        }
        if let Some(live) = self.live.as_mut() {
            return live.observe(space);
        }
        // Serve from the store when the requested representation is
        // present *with features* (a parse-failed row keeps the IR text
        // but has no derived vectors — those fall through).
        if let Some(row) = self.store.observation(self.state) {
            let served = match space {
                "Ir" if !row.ir_text.is_empty() => Some(Observation::Text(row.ir_text)),
                "Autophase" if !row.autophase.is_empty() => {
                    Some(Observation::IntVector(row.autophase))
                }
                "InstCount" if !row.inst_count.is_empty() => {
                    Some(Observation::IntVector(row.inst_count))
                }
                "IrInstructionCount" if row.ir_instruction_count > 0.0 => {
                    Some(Observation::Scalar(row.ir_instruction_count))
                }
                _ => None,
            };
            if let Some(obs) = served {
                self.hit();
                return Ok(obs);
            }
        }
        self.miss_span(&format!("observe {space}"));
        self.go_live()?;
        self.live
            .as_mut()
            .expect("go_live installed a session")
            .observe(space)
    }

    fn fork(&self) -> Box<dyn CompilationSession> {
        Box::new(ReplaySession {
            store: Arc::clone(&self.store),
            live_factory: Arc::clone(&self.live_factory),
            action_infos: self.action_infos.clone(),
            obs_infos: self.obs_infos.clone(),
            reward_infos: self.reward_infos.clone(),
            benchmark: self.benchmark.clone(),
            action_space: self.action_space,
            actions: self.actions.clone(),
            state: self.state,
            live: self.live.as_ref().map(|l| l.fork()),
        })
    }

    fn snapshot(&self) -> Option<SessionSnapshot> {
        if self.live.is_some() {
            // A session that went live opts out of checkpointing, so it is
            // replayed in full: replaying history is cheaper than
            // snapshotting a store cursor that may no longer resolve.
            return None;
        }
        let mut out = Vec::with_capacity(13 + self.actions.len() * 4);
        out.push(1u8);
        out.extend_from_slice(&self.state.to_le_bytes());
        out.extend_from_slice(&(self.actions.len() as u32).to_le_bytes());
        for &a in &self.actions {
            out.extend_from_slice(&(a as u32).to_le_bytes());
        }
        Some(SessionSnapshot::from_bytes(out))
    }

    fn restore(&mut self, snapshot: &SessionSnapshot) -> Result<(), String> {
        let state = snapshot.to_bytes();
        if state.len() < 13 || state[0] != 1 {
            return Err("bad replay snapshot".into());
        }
        let cursor = u64::from_le_bytes(state[1..9].try_into().unwrap());
        let n = u32::from_le_bytes(state[9..13].try_into().unwrap()) as usize;
        if state.len() != 13 + n * 4 {
            return Err("truncated replay snapshot".into());
        }
        self.actions = state[13..]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()) as usize)
            .collect();
        self.state = cursor;
        self.live = None;
        Ok(())
    }

    fn state_size(&self) -> Option<u64> {
        match &self.live {
            Some(live) => live.state_size(),
            None => self
                .store
                .observation(self.state)
                .map(|row| row.ir_instruction_count.max(0.0) as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uri_parsing_accepts_good_and_rejects_bad() {
        let u = parse_replay_uri("replay://llvm-v0?dir=/tmp/s&obs=Ir").unwrap();
        assert_eq!(u.inner, "llvm-v0");
        assert_eq!(u.dir, PathBuf::from("/tmp/s"));
        assert_eq!(u.observation_space, "Ir");
        assert_eq!(u.reward_space, "IrInstructionCount");

        assert!(parse_replay_uri("replay://llvm-v0").is_err());
        assert!(parse_replay_uri("replay://gcc-v0?dir=/tmp/s").is_err());
        assert!(parse_replay_uri("replay://llvm-v0?dirs=/tmp/s").is_err());
    }
}
