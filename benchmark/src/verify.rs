//! Output verification: a deliberately naive reference that shares nothing
//! with the fast paths (no service, no persistent analysis manager, no
//! no-op memo, no incremental observations, no caches), and the
//! interpreter oracle, which shares nothing with the passes.
//!
//! Nothing is compared against a committed golden file: a later change to
//! a pass must not be blocked by a file it may not edit.

use cg_core::validation::validate_semantics;
use cg_core::{CompilerEnv, Observation};
use cg_ir::Module;
use cg_llvm::action_space::ActionSpace;
use cg_llvm::{observation, reward};

use crate::gen::{Episode, Rng};
use crate::run::Verify;

/// Episodes verified against the naive reference per workload.
pub const SAMPLE: usize = 24;

/// What the naive reference computed for one episode.
pub struct Naive {
    /// The benchmark as the dataset builds it.
    pub original: Module,
    /// The module after one `apply_tracked` per action.
    pub optimized: Module,
    /// Printed final module.
    pub ir: String,
    /// Instructions removed: what the summed `IrInstructionCount` reward
    /// must equal.
    pub reward: f64,
}

/// Rebuilds an episode's final state from scratch: dataset → one
/// `ActionSpace::apply_tracked` per action (a fresh `AnalysisManager` each,
/// so no cached analysis and no memo) → printed IR.
///
/// # Errors
/// The dataset's message for an unknown benchmark.
pub fn naive_episode(space: &ActionSpace, episode: &Episode) -> Result<Naive, String> {
    let original = cg_datasets::benchmark(&episode.benchmark).map_err(|e| e.to_string())?;
    let mut optimized = original.clone();
    for &action in &episode.actions {
        space.apply_tracked(&mut optimized, action);
    }
    let before = reward::ir_instruction_count(&original) as f64;
    let after = reward::ir_instruction_count(&optimized) as f64;
    Ok(Naive {
        ir: observation::ir_text(&optimized),
        reward: before - after,
        original,
        optimized,
    })
}

/// A seeded sample of `k` distinct indices below `n` (all of them when
/// `n <= k`), ascending.
pub fn sample_indices(seed: u64, salt: &str, n: usize, k: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, salt);
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < k.min(n) {
        picked.insert(rng.below(n));
    }
    picked.into_iter().collect()
}

/// Runs one episode through an environment's fast path, one action per
/// step, and returns its final `Ir` observation, the summed reward and the
/// extra observations of the last step.
///
/// # Errors
/// Any environment error, as text.
pub fn fast_episode(
    env: &mut CompilerEnv,
    episode: &Episode,
    extra: &[&str],
) -> Result<(String, f64, Vec<Observation>), String> {
    env.set_benchmark(&episode.benchmark);
    env.reset().map_err(|e| e.to_string())?;
    let mut total = 0.0;
    let mut last = Vec::new();
    for &action in &episode.actions {
        let (obs, step) = env.step_lazy(&[action], extra).map_err(|e| e.to_string())?;
        total += step.reward;
        last = obs;
    }
    let ir = env.observe("Ir").map_err(|e| e.to_string())?;
    let ir = ir
        .as_text()
        .ok_or("Ir observation is not text")?
        .to_string();
    Ok((ir, total, last))
}

/// Checks one episode's fast-path outcome against the naive reference and
/// the interpreter oracle.
pub fn check_against_naive(
    verify: &mut Verify,
    what: &str,
    naive: &Naive,
    fast_ir: &str,
    fast_reward: f64,
) {
    verify.check(naive.ir == fast_ir, || {
        format!("{what}: final IR differs from the naive reference")
    });
    verify.check(naive.reward.to_bits() == fast_reward.to_bits(), || {
        format!(
            "{what}: summed reward {fast_reward} but {} instructions were removed",
            naive.reward
        )
    });
    // The oracle executes both modules; it knows nothing about the passes.
    // Programs without a runnable `main` (llvm-stress-v0) are reported as
    // not runnable, which is not a failure.
    let verdict = validate_semantics(&naive.original, &naive.optimized);
    verify.check(verdict.is_ok(), || {
        format!(
            "{what}: interpreter oracle: {}",
            verdict.as_ref().unwrap_err()
        )
    });
}

/// What [`check_sample`] samples from.
pub struct Script<'a> {
    /// Names the script in verification notes.
    pub label: &'a str,
    /// The episodes the timed rounds ran.
    pub episodes: &'a [Episode],
    /// Observation spaces requested with every step.
    pub extra: &'a [&'a str],
    /// The timed rounds' summed reward per episode, which the
    /// verification run must reproduce bit for bit.
    pub recorded: &'a [f64],
}

/// Fast path versus naive reference for a seeded sample of a script's
/// episodes, through `env`.
pub fn check_sample(
    verify: &mut Verify,
    env: &mut CompilerEnv,
    space: &ActionSpace,
    seed: u64,
    script: &Script<'_>,
) {
    let Script {
        label,
        episodes,
        extra,
        recorded,
    } = *script;
    let picks = sample_indices(seed, label, episodes.len(), SAMPLE);
    for &i in &picks {
        let episode = &episodes[i];
        let what = format!("{label} episode {i} ({})", episode.benchmark);
        let fast = fast_episode(env, episode, extra);
        let naive = naive_episode(space, episode);
        match (fast, naive) {
            (Ok((ir, total, _)), Ok(naive)) => {
                check_against_naive(verify, &what, &naive, &ir, total);
                if let Some(timed) = recorded.get(i) {
                    verify.check(timed.to_bits() == total.to_bits(), || {
                        format!("{what}: timed rounds summed reward {timed}, verification {total}")
                    });
                }
            }
            (Err(e), _) | (_, Err(e)) => verify.check(false, || format!("{what}: {e}")),
        }
    }
    verify.note(format!(
        "{label}: {} episodes: final IR byte-equal to the naive reference, summed reward equal \
         to the instruction-count delta and to the timed rounds, interpreter oracle clean",
        picks.len()
    ));
}
