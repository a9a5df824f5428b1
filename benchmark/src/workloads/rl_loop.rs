//! `rl-loop`: the paper's RL loop. One thread, in-process `llvm-v0`,
//! Autophase observation and `IrInstructionCount` reward, 100-step
//! episodes of uniform random actions, all 23 `cbench-v1` programs
//! round-robin on a warm benchmark cache.

use std::collections::BTreeMap;

use cg_llvm::action_space::ActionSpace;

use super::{drive, make_llvm_env, step_count};
use crate::gen::{self, scaled, Episode};
use crate::result::RunResult;
use crate::run::{Harness, RoundRec, RunCfg, Verify};
use crate::verify;

/// Round-robin passes over the 23 programs per round at the nominal run
/// length (x 2300 steps each; about 0.5 s).
const PASSES: usize = 6;

/// Timed rounds.
const ROUNDS: usize = 24;

/// The generated input.
pub fn input(cfg: &RunCfg) -> Vec<Episode> {
    gen::rl_loop(cfg.seed, scaled(PASSES, cfg.scale()))
}

/// Runs the workload.
///
/// # Errors
/// Set-up failures.
pub fn run(cfg: &RunCfg) -> Result<RunResult, String> {
    let script = input(cfg);
    let mut h = Harness::new("rl-loop", cfg, true);
    let mut env = h.setup(cg_core::envs::llvm::clear_benchmark_cache, || {
        let mut env = make_llvm_env()?;
        // Warm-up: two passes; the first materialises all 23 programs.
        let mut rec = RoundRec::default();
        drive(
            &mut env,
            &script[..(2 * gen::CBENCH.len()).min(script.len())],
            &[],
            false,
            &mut rec,
        );
        rec.warmed_up()?;
        Ok(env)
    })?;
    for _ in 0..cfg.rounds(ROUNDS) {
        let rec = RoundRec::with_capacity(step_count(&script), script.len());
        h.round(rec, |rec| drive(&mut env, &script, &[], true, rec));
    }
    h.rounds_done();

    let mut v = Verify::default();
    h.check_rounds_agree(&mut v);
    let recorded = h.last_checks().to_vec();
    verify::check_sample(
        &mut v,
        &mut env,
        &ActionSpace::new(),
        cfg.seed,
        &verify::Script {
            label: "rl-loop",
            episodes: &script,
            extra: &[],
            recorded: &recorded,
        },
    );
    let counts = BTreeMap::from([
        ("episodes".to_string(), script.len() as u64),
        ("steps".to_string(), step_count(&script) as u64),
    ]);
    Ok(h.finish(v, counts, gen::script_digest(&script)))
}
