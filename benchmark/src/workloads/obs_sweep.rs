//! `obs-sweep`: the opposite regime for the same layers. One thread,
//! in-process, 10-step episodes; every step requests all five observation
//! spaces; every episode runs on a program that is not in the benchmark
//! cache (the cache is emptied, untimed, before each round), so `reset` is
//! cold, the analysis manager never warms up, and the printer and the
//! observations do most of the work.

use std::collections::BTreeMap;

use cg_core::envs::llvm::clear_benchmark_cache;
use cg_core::Observation;
use cg_llvm::action_space::ActionSpace;
use cg_llvm::observation;

use super::{drive, make_llvm_env, step_count};
use crate::gen::{self, scaled, Episode};
use crate::result::RunResult;
use crate::run::{Harness, RoundRec, RunCfg, Verify};
use crate::verify;

/// Episodes (= distinct programs) per round at the nominal run length
/// (x 10 steps; about 1.5 s). Rounds are longer here than elsewhere so that
/// `step_p99_us` rests on the 20 slowest of 2000 steps: on the 10 slowest
/// of 1000 it moved by a quarter from one seed's actions to the next's.
const EPISODES: usize = 200;

/// Timed rounds.
const ROUNDS: usize = 8;

/// All five `llvm-v0` observation spaces, in the order they are requested.
pub const SPACES: [&str; 5] = ["Ir", "InstCount", "Autophase", "Inst2vec", "Programl"];

/// The generated input.
pub fn input(cfg: &RunCfg) -> Vec<Episode> {
    gen::obs_sweep(cfg.seed, scaled(EPISODES, cfg.scale()))
}

/// Runs the workload.
///
/// # Errors
/// Set-up failures.
pub fn run(cfg: &RunCfg) -> Result<RunResult, String> {
    let script = input(cfg);
    // Warm-up on a quarter of the script — the same programs whatever the
    // seed, or `setup_s` would depend on which programs the shuffle put
    // first. The cache is emptied again before the first round.
    let mut warm_up = script.clone();
    warm_up.sort_by(|a, b| a.benchmark.cmp(&b.benchmark));
    warm_up.truncate(script.len().div_ceil(4));
    let mut h = Harness::new("obs-sweep", cfg, true);
    let mut env = h.setup(clear_benchmark_cache, || {
        let mut env = make_llvm_env()?;
        let mut rec = RoundRec::default();
        drive(&mut env, &warm_up, &SPACES, false, &mut rec);
        rec.warmed_up()?;
        Ok(env)
    })?;
    for _ in 0..cfg.rounds(ROUNDS) {
        clear_benchmark_cache();
        let rec = RoundRec::with_capacity(step_count(&script), script.len());
        h.round(rec, |rec| drive(&mut env, &script, &SPACES, true, rec));
    }
    h.rounds_done();

    let mut v = Verify::default();
    h.check_rounds_agree(&mut v);
    let recorded = h.last_checks().to_vec();
    let space = ActionSpace::new();
    verify::check_sample(
        &mut v,
        &mut env,
        &space,
        cfg.seed,
        &verify::Script {
            label: "obs-sweep",
            episodes: &script,
            extra: &SPACES,
            recorded: &recorded,
        },
    );
    check_observations(&mut v, &mut env, &space, cfg.seed, &script);
    let counts = BTreeMap::from([
        ("episodes".to_string(), script.len() as u64),
        ("steps".to_string(), step_count(&script) as u64),
    ]);
    Ok(h.finish(v, counts, gen::script_digest(&script)))
}

/// The five observations of the last step, as the service returned them,
/// against a full recompute on the naive reference's module: this is the
/// workload whose answers are observations, so they are checked too (the
/// session serves `InstCount` and `Autophase` from its incremental cache).
fn check_observations(
    v: &mut Verify,
    env: &mut cg_core::CompilerEnv,
    space: &ActionSpace,
    seed: u64,
    script: &[Episode],
) {
    let picks = verify::sample_indices(seed, "obs-sweep-observations", script.len(), 8);
    for &i in &picks {
        let episode = &script[i];
        let what = format!("obs-sweep episode {i} ({})", episode.benchmark);
        let (fast, naive) = match (
            verify::fast_episode(env, episode, &SPACES),
            verify::naive_episode(space, episode),
        ) {
            (Ok((_, _, last)), Ok(naive)) => (last, naive),
            (Err(e), _) | (_, Err(e)) => {
                v.check(false, || format!("{what}: {e}"));
                continue;
            }
        };
        let m = &naive.optimized;
        let expected = [
            Observation::Text(naive.ir.clone()),
            Observation::IntVector(observation::inst_count(m)),
            Observation::IntVector(observation::autophase(m)),
            Observation::FloatVector(observation::inst2vec(m)),
            Observation::Graph(observation::programl(m)),
        ];
        for ((name, got), want) in SPACES.iter().zip(&fast).zip(&expected) {
            v.check(got == want, || {
                format!("{what}: {name} differs from a full recompute")
            });
        }
        v.check(fast.len() == expected.len(), || {
            format!("{what}: {} observations", fast.len())
        });
    }
    v.note(format!(
        "obs-sweep: {} episodes: all five observations of the last step equal a full recompute \
         on the naive module",
        picks.len()
    ));
}
