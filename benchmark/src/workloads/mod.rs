//! The five workloads. Each module generates its input from the seed, sets
//! up, runs the timed rounds through [`crate::run::Harness`] and verifies.

pub mod obs_sweep;
pub mod replay_store;
pub mod rl_loop;
pub mod search_pool;
pub mod tcp_fleet;

use std::time::Instant;

use cg_core::CompilerEnv;

use crate::gen::{Episode, NUM_ACTIONS};
use crate::run::RoundRec;

/// Builds the in-process `llvm-v0` environment every local workload uses
/// and checks that the scripts index into the action space they assume.
///
/// # Errors
/// Environment construction errors, or an action space of another size.
pub fn make_llvm_env() -> Result<CompilerEnv, String> {
    let env = cg_core::make("llvm-v0").map_err(|e| e.to_string())?;
    check_action_space(&env)?;
    Ok(env)
}

/// Requires the 124-action space the generators draw from.
///
/// # Errors
/// A message when the size differs.
pub fn check_action_space(env: &CompilerEnv) -> Result<(), String> {
    let n = env.action_space().len();
    if n != NUM_ACTIONS {
        return Err(format!(
            "llvm-v0 has {n} actions, the generators assume {NUM_ACTIONS}"
        ));
    }
    Ok(())
}

/// Drives `episodes` through `env`, one action per step: the closed loop
/// of one client. With `timed`, every reset, step and whole episode is
/// timed into `rec`; an episode whose reset or step fails is abandoned and
/// counted.
pub fn drive(
    env: &mut CompilerEnv,
    episodes: &[Episode],
    extra: &[&str],
    timed: bool,
    rec: &mut RoundRec,
) {
    for episode in episodes {
        let started = Instant::now();
        env.set_benchmark(&episode.benchmark);
        rec.attempted += 1;
        let reset = env.reset();
        if timed {
            rec.reset_ns.push(started.elapsed().as_nanos() as u64);
        }
        if reset.is_err() {
            rec.failed += 1;
            rec.checks.push(f64::NAN);
            continue;
        }
        let mut total = 0.0;
        for &action in &episode.actions {
            rec.attempted += 1;
            let step_started = Instant::now();
            let step = env.step_lazy(&[action], extra);
            if timed {
                rec.step_ns.push(step_started.elapsed().as_nanos() as u64);
            }
            match step {
                Ok((observations, step)) => {
                    std::hint::black_box(&observations);
                    total += step.reward;
                    rec.steps += 1;
                }
                Err(_) => {
                    rec.failed += 1;
                    total = f64::NAN;
                    break;
                }
            }
        }
        if timed {
            rec.batch_ns.push(started.elapsed().as_nanos() as u64);
        }
        rec.checks.push(total);
    }
}

/// Total steps of a script.
pub fn step_count(episodes: &[Episode]) -> usize {
    episodes.iter().map(|e| e.actions.len()).sum()
}
