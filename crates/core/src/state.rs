//! Environment state serialization and replay validation (§III-B2/B3).
//!
//! A serialized state is `(environment, benchmark, action names, reward)`.
//! Replaying the actions must reproduce the same final state and reward —
//! if it does not, the underlying compiler has a reproducibility bug (this
//! is exactly how the paper caught LLVM's `-gvn-sink`; see the
//! `validation_catches_gvn_sink_nondeterminism` test in
//! `tests/end_to_end.rs`).

use serde::{Deserialize, Serialize};

use crate::env::{make, CompilerEnv};
use crate::error::CgError;

/// A serialized episode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnvState {
    /// Environment id (e.g. `llvm-v0`).
    pub env: String,
    /// Benchmark URI.
    pub benchmark: String,
    /// Action names, in application order.
    pub actions: Vec<String>,
    /// Cumulative reward achieved.
    pub reward: f64,
    /// The reward space the reward was measured in.
    pub reward_space: String,
}

impl EnvState {
    /// Serializes to JSON (the on-disk/leaderboard format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("EnvState is always serializable")
    }

    /// Parses from JSON.
    ///
    /// # Errors
    /// Returns a [`CgError::Validation`] describing the parse failure.
    pub fn from_json(s: &str) -> Result<EnvState, CgError> {
        serde_json::from_str(s).map_err(|e| CgError::Validation(format!("bad state json: {e}")))
    }

    /// Replays this state in a fresh environment, returning the environment
    /// at the final state.
    ///
    /// # Errors
    /// Unknown environment/action names, or any session failure.
    pub fn replay(&self) -> Result<CompilerEnv, CgError> {
        let mut env = make(&self.env)?;
        env.set_benchmark(&self.benchmark);
        env.set_reward_space(&self.reward_space);
        env.reset()?;
        for name in &self.actions {
            let idx = env
                .action_space()
                .index_of(name)
                .ok_or_else(|| CgError::Unknown(format!("action `{name}`")))?;
            env.step(idx)?;
        }
        Ok(env)
    }

    /// Validates reproducibility: replays the actions **twice** and checks
    /// that (a) both replays agree with each other and (b) with the recorded
    /// reward (for deterministic reward spaces). Disagreement between
    /// replays indicts the compiler itself — a nondeterministic pass.
    ///
    /// # Errors
    /// [`CgError::Validation`] with a description of the mismatch.
    pub fn validate(&self) -> Result<(), CgError> {
        let mut a = self.replay()?;
        let mut b = self.replay()?;
        let deterministic = a
            .reward_spaces()
            .iter()
            .find(|r| r.name == self.reward_space)
            .map(|r| r.deterministic)
            .unwrap_or(false);
        // Compare final textual state where available (LLVM exposes "Ir");
        // otherwise compare the final reward metric.
        let fingerprint = |env: &mut CompilerEnv| -> Result<String, CgError> {
            match env.observe("Ir") {
                Ok(o) => Ok(format!(
                    "{:016x}",
                    cg_ir::fnv1a(o.as_text().unwrap_or("").as_bytes())
                )),
                Err(_) => Ok(format!("{:.6}", env.episode_reward())),
            }
        };
        let fa = fingerprint(&mut a)?;
        let fb = fingerprint(&mut b)?;
        if fa != fb {
            return Err(CgError::Validation(format!(
                "replaying the same actions twice produced different states \
                 ({fa} vs {fb}): the compiler is nondeterministic"
            )));
        }
        if deterministic {
            let delta = (a.episode_reward() - self.reward).abs();
            if delta > 1e-6 * self.reward.abs().max(1.0) {
                return Err(CgError::Validation(format!(
                    "recorded reward {} but replay achieved {}",
                    self.reward,
                    a.episode_reward()
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let s = EnvState {
            env: "llvm-v0".into(),
            benchmark: "benchmark://cbench-v1/crc32".into(),
            actions: vec!["mem2reg".into(), "dce".into()],
            reward: 12.0,
            reward_space: "IrInstructionCount".into(),
        };
        let j = s.to_json();
        assert_eq!(EnvState::from_json(&j).unwrap(), s);
        assert!(EnvState::from_json("{broken").is_err());
    }

    #[test]
    fn record_then_validate() {
        let mut env = make("llvm-v0").unwrap();
        env.set_benchmark("benchmark://cbench-v1/crc32");
        env.reset().unwrap();
        for name in ["mem2reg", "instcombine", "dce"] {
            let idx = env.action_space().index_of(name).unwrap();
            env.step(idx).unwrap();
        }
        let state = env.state();
        assert_eq!(state.actions.len(), 3);
        state
            .validate()
            .expect("deterministic passes must validate");
    }

    #[test]
    fn validate_rejects_tampered_reward() {
        let mut env = make("llvm-v0").unwrap();
        env.set_benchmark("benchmark://cbench-v1/crc32");
        env.reset().unwrap();
        let idx = env.action_space().index_of("mem2reg").unwrap();
        env.step(idx).unwrap();
        let mut state = env.state();
        state.reward += 1000.0; // a dishonest leaderboard entry
        let err = state.validate().unwrap_err();
        assert!(matches!(err, CgError::Validation(_)));
    }
}
