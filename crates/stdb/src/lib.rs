//! # cg-stdb: the state transition database (§III-F, Figure 4)
//!
//! One durable store of environment trajectories: a [`TransitionStore`]
//! indexing a checksummed write-ahead log ([`log`]). The paper's three
//! tables are views of that index: `Steps` counts every [`StepRow`] logged,
//! `Observations` holds one [`ObservationRow`] per unique state, and
//! `StateTransitions` is the deduplicated `(state, action) → (state',
//! reward)` edge set ([`TransitionStore::edges`]). A [`StoreSink`] populates
//! the log from every environment step in the process. The paper releases a
//! 50+ GB instance with >1M states for offline learning; [`generate`] builds
//! instances of any size on demand, and §VII-F's cost model (Figure 8)
//! trains from them.
//!
//! Session checkpoints are a fourth record kind in the same log:
//! [`TransitionStore::checkpoint_store`] hands out a checkpoint ring seeded
//! from the checkpoints found at open, whose sink appends every new one, so
//! episodes can resume across *process* crashes, not just service-worker
//! crashes, under the log's one recovery ladder.

pub mod log;
pub mod replay;
pub mod store;

pub use log::{FsyncPolicy, RecoveryReport, ScrubReport, WalConfig};
pub use replay::{install, make_replay};
pub use store::{
    compact_dir, scrub_dir, Backpressure, CompactReport, StoreConfig, StoreSink, StoreStats,
    TransitionStore, WalRecord,
};

use serde::{Deserialize, Serialize};

/// One row of the `Steps` table: an action sequence on a benchmark and the
/// state (hash) it produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepRow {
    /// Benchmark URI.
    pub benchmark: String,
    /// The action-name sequence applied.
    pub actions: Vec<String>,
    /// Hash of the state before the last action.
    pub from_state: u64,
    /// Hash of the state after the last action.
    pub state: u64,
    /// Reward of the last action.
    pub reward: f64,
}

/// One row of the `Observations` table: representations of a unique state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObservationRow {
    /// The state hash (primary key).
    pub state: u64,
    /// Autophase features.
    pub autophase: Vec<i64>,
    /// InstCount features.
    pub inst_count: Vec<i64>,
    /// IR instruction count (the cost-model target).
    pub ir_instruction_count: f64,
    /// The serialized IR of the state (the paper's Observations table keeps
    /// multiple representations per state; the text lets consumers derive
    /// graph representations offline).
    pub ir_text: String,
}

/// The action index step `step` of seeded episode `episode` takes out of
/// `n`: the one deterministic schedule [`generate`], `cg chaos` and the
/// replay-vs-live comparisons share, so the same `(seed, episode, steps)`
/// walks the same trajectory everywhere.
#[must_use]
pub fn seeded_action(seed: u64, episode: u64, step: u64, n: usize) -> usize {
    let mix = cg_core::retry::splitmix64(seed ^ (episode * 1_000 + step).wrapping_mul(0x9E37));
    (mix % n as u64) as usize
}

/// Populates `store` with `episodes` seeded llvm-v0 episodes of up to
/// `steps` actions each, rotating through `benchmarks` one episode at a
/// time (the process that produced the paper's released instance, at
/// configurable scale), then flushes it.
///
/// The environment logs straight into `store`, never through the
/// process-global transition sink, so concurrent generators into different
/// stores cannot cross-feed.
///
/// # Errors
/// Propagates environment failures.
pub fn generate(
    store: &TransitionStore,
    benchmarks: &[impl AsRef<str>],
    episodes: u64,
    steps: u64,
    seed: u64,
) -> Result<(), cg_core::CgError> {
    let mut env = cg_core::make("llvm-v0")?;
    env.set_transition_logging(false);
    for ep in 0..episodes {
        let benchmark = benchmarks[(ep % benchmarks.len() as u64) as usize].as_ref();
        env.set_benchmark(benchmark);
        env.reset()?;
        let names = env.action_space().actions.clone();
        let mut state = store.log_reset(benchmark, env.observe("Ir")?.as_text().unwrap_or(""));
        let mut history = Vec::new();
        for s in 0..steps {
            let a = seeded_action(seed, ep, s, names.len());
            let (ir, step) = env.step_lazy(&[a], &["Ir"])?;
            history.push(names[a].clone());
            let ir = ir[0].as_text().unwrap_or("");
            state = store.log_step(benchmark, &history, state, ir, step.reward);
            if step.done {
                break;
            }
        }
    }
    store.flush();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cg-stdb-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn generate_and_post_process() {
        let dir = tmpdir("generate");
        let store = TransitionStore::open(&dir, StoreConfig::default()).unwrap();
        generate(&store, &["benchmark://cbench-v1/crc32"], 2, 5, 7).unwrap();
        let observations = store.observations();
        assert!(observations.len() >= 2, "states: {}", observations.len());
        let edges = store.edges();
        assert!(!edges.is_empty());
        // Transitions are deduplicated on (state, action).
        let keys: HashSet<(u64, &str)> =
            edges.iter().map(|(f, a, _, _)| (*f, a.as_str())).collect();
        assert_eq!(keys.len(), edges.len());
        // Every transition's endpoints have observations.
        for (from, _, to, _) in &edges {
            assert!(store.observation(*from).is_some());
            assert!(store.observation(*to).is_some());
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_round_trip() {
        // Every record is JSON in a log frame: reopening decodes the same tables.
        let dir = tmpdir("json");
        let (steps, edges, observations) = {
            let store = TransitionStore::open(&dir, StoreConfig::default()).unwrap();
            generate(&store, &["benchmark://cbench-v1/sha"], 1, 3, 1).unwrap();
            (store.stats().steps, store.edges(), store.observations())
        };
        assert!(steps > 0);
        let back = TransitionStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(back.stats().decode_failures, 0);
        assert_eq!(back.stats().steps, steps);
        assert_eq!(back.edges(), edges);
        assert_eq!(back.observations(), observations);
        drop(back);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
