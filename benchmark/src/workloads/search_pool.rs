//! `search-pool`: a seeded, score-independent GA-shaped stream through an
//! [`EnvPool`] with 2 workers and an eval cache that is emptied before
//! each round. Every generation mixes exact repeats, children that share a
//! prefix with a parent, and fresh suffixes, so the cache is read (exact
//! and prefix hits) and written (inserts, snapshot deposits every 4
//! actions) at the same time, and a gain for one side that costs the other
//! shows.
//!
//! The pool has no per-step call to time. `step_*` are the wall time of one
//! `evaluate_batch` divided by the actions requested in it, and
//! `reset_p50_us` comes from a side environment that resets on the
//! workload's programs between batches, while the pool is idle.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use cg_core::{ActionSeq, CompilerEnv, EnvFactory, EnvPool, EvalCache, Outcome};
use cg_llvm::action_space::ActionSpace;

use super::make_llvm_env;
use crate::gen::{self, scaled, Episode};
use crate::host::Pinned;
use crate::result::RunResult;
use crate::run::{Harness, RoundRec, RunCfg, Verify};
use crate::verify;

/// Generations per round at the nominal run length (x 32 sequences x 24
/// actions; about 1.2 s). Rounds are longer here than elsewhere because the
/// cache starts every round empty, and the first generation, which can hit
/// nothing, should stay a small part of it.
const GENERATIONS: usize = 60;

/// Timed rounds.
const ROUNDS: usize = 10;

/// Pool worker threads.
pub const POOL_WORKERS: usize = 2;

/// Outcomes re-evaluated with the cache disabled.
const RECHECKED: usize = 50;

/// The environment factory pool workers use.
pub fn env_factory() -> EnvFactory {
    Arc::new(|_| cg_core::make("llvm-v0"))
}

/// A generation as the pool takes it.
pub fn jobs_of(generation: &[Episode]) -> Vec<ActionSeq> {
    generation
        .iter()
        .map(|e| ActionSeq {
            benchmark: e.benchmark.clone(),
            actions: e.actions.clone(),
        })
        .collect()
}

struct State {
    pool: EnvPool,
    /// Keeps this thread — which only hands batches to the pool and waits
    /// — and the side environment's service thread on one CPU, so that the
    /// reset probe is a same-CPU hand-off. The pool's workers were spawned
    /// before and keep both CPUs.
    _pin: Option<Pinned>,
    /// Resets between batches; see the module docs.
    side: CompilerEnv,
    /// Outcomes of the round in progress, generation by generation.
    outcomes: Vec<Outcome>,
}

fn drive(state: &mut State, stream: Vec<Vec<ActionSeq>>, timed: bool, rec: &mut RoundRec) {
    state.outcomes.clear();
    for jobs in stream {
        let requested: usize = jobs.iter().map(|j| j.actions.len()).sum();
        rec.attempted += jobs.len() as u64;
        let started = Instant::now();
        let outcomes = state.pool.evaluate_batch(jobs);
        let wall = started.elapsed().as_nanos() as u64;
        if timed {
            rec.batch_ns.push(wall);
            rec.step_ns.push(wall / requested.max(1) as u64);
        }
        for o in &outcomes {
            if o.error.is_some() {
                rec.failed += 1;
            }
            rec.checks.push(o.score);
        }
        rec.steps += requested as u64;
        state.outcomes.extend(outcomes);

        for program in gen::POOL_PROGRAMS {
            state.side.set_benchmark(&gen::cbench(program));
            rec.attempted += 1;
            let started = Instant::now();
            let reset = state.side.reset();
            if timed {
                rec.reset_ns.push(started.elapsed().as_nanos() as u64);
            }
            if reset.is_err() {
                rec.failed += 1;
            }
        }
    }
}

/// The generated input.
pub fn input(cfg: &RunCfg) -> Vec<Vec<Episode>> {
    gen::search_pool(cfg.seed, scaled(GENERATIONS, cfg.scale()))
}

/// Runs the workload.
///
/// # Errors
/// Set-up failures.
pub fn run(cfg: &RunCfg) -> Result<RunResult, String> {
    let stream = input(cfg);
    let as_jobs = || stream.iter().map(|g| jobs_of(g)).collect::<Vec<_>>();
    let mut h = Harness::new("search-pool", cfg, false);
    let mut state = h.setup(cg_core::envs::llvm::clear_benchmark_cache, || {
        let pool = EnvPool::with_cache(POOL_WORKERS, env_factory(), Arc::new(EvalCache::default()));
        let pin = Pinned::to_one_cpu();
        let mut state = State {
            pool,
            side: make_llvm_env()?,
            _pin: pin,
            outcomes: Vec::new(),
        };
        // Warm-up: the first six generations build both workers'
        // environments and touch the exact, prefix and miss paths.
        let mut rec = RoundRec::default();
        let warm: Vec<_> = as_jobs().into_iter().take(6).collect();
        drive(&mut state, warm, false, &mut rec);
        rec.warmed_up()?;
        Ok(state)
    })?;
    let jobs_per_round: usize = stream.iter().map(Vec::len).sum();
    for _ in 0..cfg.rounds(ROUNDS) {
        state.pool.cache().clear();
        let jobs = as_jobs();
        let rec = RoundRec::with_capacity(stream.len(), jobs_per_round);
        h.round(rec, |rec| drive(&mut state, jobs, true, rec));
    }
    h.rounds_done();

    let mut v = Verify::default();
    h.check_rounds_agree(&mut v);
    let flat: Vec<Episode> = stream.iter().flatten().cloned().collect();
    recheck_uncached(&mut v, cfg.seed, &flat, &state.outcomes);
    let recorded = h.last_checks().to_vec();
    verify::check_sample(
        &mut v,
        &mut state.side,
        &ActionSpace::new(),
        cfg.seed,
        &verify::Script {
            label: "search-pool",
            episodes: &flat,
            extra: &[],
            recorded: &recorded,
        },
    );
    let shares = gen::stream_shares(&stream);
    v.note(format!(
        "search-pool stream: {:.1}% exact repeats, {:.1}% prefix children, {:.1}% novel \
         (generation 0 excluded)",
        100.0 * shares.repeat,
        100.0 * shares.prefix,
        100.0 * shares.novel
    ));
    let counts = BTreeMap::from([
        ("generations".to_string(), stream.len() as u64),
        ("sequences".to_string(), jobs_per_round as u64),
        (
            "steps".to_string(),
            flat.iter().map(|e| e.actions.len()).sum::<usize>() as u64,
        ),
    ]);
    Ok(h.finish(v, counts, gen::script_digest(&flat)))
}

/// Re-evaluates a seeded sample of the last round's outcomes, cache hits
/// and prefix restores among them, one at a time on a pool whose cache
/// remembers nothing, and requires score and metric to be bit-identical.
fn recheck_uncached(v: &mut Verify, seed: u64, flat: &[Episode], outcomes: &[Outcome]) {
    if outcomes.len() != flat.len() {
        v.check(false, || {
            format!("{} outcomes for {} sequences", outcomes.len(), flat.len())
        });
        return;
    }
    // Generation 0 has no hits; sample from the rest when there is one.
    let skip = if flat.len() > gen::POOL_POPULATION {
        gen::POOL_POPULATION
    } else {
        0
    };
    let picks = verify::sample_indices(seed, "search-pool-recheck", flat.len() - skip, RECHECKED);
    let serial = EnvPool::with_cache(1, env_factory(), Arc::new(EvalCache::disabled()));
    let mut cached = 0;
    for &i in &picks {
        let i = i + skip;
        let fresh = serial.evaluate_batch(jobs_of(&flat[i..=i]));
        let (got, want) = (&outcomes[i], &fresh[0]);
        cached += usize::from(got.cached);
        v.check(
            want.error.is_none()
                && got.score.to_bits() == want.score.to_bits()
                && got.metric.to_bits() == want.metric.to_bits(),
            || {
                format!(
                    "search-pool sequence {i}: pool answered score {} metric {}, a fresh \
                     uncached evaluation {} / {} ({:?})",
                    got.score, got.metric, want.score, want.metric, want.error
                )
            },
        );
    }
    v.note(format!(
        "search-pool: {} outcomes ({cached} exact cache hits) bit-identical to serial evaluation \
         under EvalCache::disabled()",
        picks.len()
    ));
}
