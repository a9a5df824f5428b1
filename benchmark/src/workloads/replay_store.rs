//! `replay-store`: the only disk user. Per round, in a fresh directory:
//! a **write phase** runs live episodes with the `cg_stdb::StoreSink`
//! installed and flushes; a **read phase** replays the same episodes three
//! times through `replay://llvm-v0?dir=…`, every fifth episode leaving the
//! logged trajectory after step 15 and falling through to the live
//! compiler. `steps_per_s` covers both phases; `step_*`, `reset_*` and
//! `batch_*` come from the read phase.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cg_core::CompilerEnv;
use cg_llvm::action_space::ActionSpace;
use cg_stdb::{StoreConfig, StoreSink, TransitionStore};

use super::{check_action_space, drive, make_llvm_env, step_count};
use crate::gen::{self, scaled, ReplayInput};
use crate::result::RunResult;
use crate::run::{Harness, RoundRec, RunCfg, Verify};
use crate::verify;

/// Logged episodes per round at the nominal run length (x 25 steps live,
/// then x 3 read passes; about 0.55 s).
const EPISODES: usize = 50;

/// Timed rounds.
const ROUNDS: usize = 20;

/// A store in a fresh directory with the sink installed and a replay
/// environment over it. Dropping it uninstalls the sink, stops the writer
/// and removes the directory.
pub struct OpenStore {
    /// The replay environment (`replay://llvm-v0?dir=…`).
    pub replay: CompilerEnv,
    /// The store both the sink and the replay environment use.
    pub store: Arc<TransitionStore>,
    dir: PathBuf,
}

impl OpenStore {
    /// Opens a store in a new subdirectory of `parent`. Never the same
    /// directory twice in a process: `open_shared` would hand back the
    /// previous store for as long as a winding-down replay service still
    /// holds it.
    ///
    /// # Errors
    /// I/O and environment errors.
    pub fn create(parent: &Path) -> Result<OpenStore, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = &parent.join(format!("store-{}", NEXT.fetch_add(1, Ordering::Relaxed)));
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let store = TransitionStore::open_shared(dir, StoreConfig::default())
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        cg_core::install_transition_sink(Arc::new(StoreSink(Arc::clone(&store))));
        cg_stdb::install();
        let replay = cg_core::make(&format!("replay://llvm-v0?dir={}", dir.display()))
            .map_err(|e| e.to_string())?;
        check_action_space(&replay)?;
        Ok(OpenStore {
            replay,
            store,
            dir: dir.to_path_buf(),
        })
    }
}

impl Drop for OpenStore {
    fn drop(&mut self) {
        cg_core::clear_transition_sink();
        self.replay.close();
        // The replay service winds down asynchronously and holds the store
        // until it has; flush so that nothing is left to write when the
        // directory goes.
        self.store.flush();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One round: write phase, flush, read phase.
pub fn drive_round(
    live: &mut CompilerEnv,
    open: &mut OpenStore,
    input: &ReplayInput,
    timed: bool,
    rec: &mut RoundRec,
) {
    // Write phase: live steps, logged through the sink. Counted in
    // `steps`, not in the step and reset percentiles.
    drive(live, &input.logged, &[], false, rec);
    open.store.flush();
    // Read phase: the sink stays installed, but a replay environment never
    // feeds it (it writes its misses through its own store handle).
    for pass in &input.reads {
        drive(&mut open.replay, pass, &[], timed, rec);
    }
}

/// The generated input.
pub fn input(cfg: &RunCfg) -> ReplayInput {
    gen::replay_store(cfg.seed, scaled(EPISODES, cfg.scale()))
}

/// Steps of one round, both phases.
pub fn steps_per_round(input: &ReplayInput) -> usize {
    step_count(&input.logged) + input.reads.iter().map(|p| step_count(p)).sum::<usize>()
}

/// Runs the workload.
///
/// # Errors
/// Set-up failures.
pub fn run(cfg: &RunCfg) -> Result<RunResult, String> {
    let input = input(cfg);
    let dir = cfg.scratch("replay-store");
    let warm_up = ReplayInput {
        logged: input.logged[..16.min(input.logged.len())].to_vec(),
        reads: input
            .reads
            .iter()
            .map(|p| p[..16.min(p.len())].to_vec())
            .collect(),
    };
    let mut h = Harness::new("replay-store", cfg, true);
    let mut live = h.setup(cg_core::envs::llvm::clear_benchmark_cache, || {
        let mut live = make_llvm_env()?;
        // Warm-up: a miniature round, store open and removal included.
        let mut open = OpenStore::create(&dir)?;
        let mut rec = RoundRec::default();
        drive_round(&mut live, &mut open, &warm_up, false, &mut rec);
        rec.warmed_up()?;
        Ok(live)
    })?;

    let episodes = input.logged.len();
    let mut dropped = 0;
    let mut last_store = None;
    for _ in 0..cfg.rounds(ROUNDS) {
        drop(last_store.take());
        let mut open = OpenStore::create(&dir)?;
        let rec = RoundRec::with_capacity(steps_per_round(&input), 4 * episodes);
        h.round(rec, |rec| {
            drive_round(&mut live, &mut open, &input, true, rec)
        });
        dropped += open.store.dropped_records();
        last_store = Some(open);
    }
    h.rounds_done();

    let mut v = Verify::default();
    h.check_rounds_agree(&mut v);
    v.check(dropped == 0, || {
        format!("the store dropped {dropped} records")
    });
    let recorded = h.last_checks().to_vec();
    // Replayed rewards against the logged ones, bit for bit: every episode
    // of every read pass that stays on the logged trajectory.
    let (logged, reads) = recorded.split_at(episodes.min(recorded.len()));
    let mut compared = 0;
    for (p, pass) in reads.chunks(episodes).enumerate() {
        for (i, (replayed, live)) in pass.iter().zip(logged).enumerate() {
            if input.reads[p][i] == input.logged[i] {
                compared += 1;
                v.check(replayed.to_bits() == live.to_bits(), || {
                    format!("read pass {p} episode {i}: replayed reward {replayed}, logged {live}")
                });
            }
        }
    }
    v.note(format!(
        "replay-store: {compared} replayed episode rewards bit-identical to the logged ones"
    ));
    // The store of the last round is still open: sample replayed episodes,
    // diverging ones included, against the naive reference.
    let mut open = last_store.take().expect("at least one round");
    let space = ActionSpace::new();
    verify::check_sample(
        &mut v,
        &mut open.replay,
        &space,
        cfg.seed,
        &verify::Script {
            label: "replay-store last read pass",
            episodes: &input.reads[gen::REPLAY_READ_PASSES - 1],
            extra: &[],
            recorded: &reads[(gen::REPLAY_READ_PASSES - 1) * episodes..],
        },
    );
    drop(open);
    let _ = std::fs::remove_dir_all(&dir);

    let counts = BTreeMap::from([
        ("episodes_logged".to_string(), episodes as u64),
        (
            "episodes_read".to_string(),
            (gen::REPLAY_READ_PASSES * episodes) as u64,
        ),
        ("steps".to_string(), steps_per_round(&input) as u64),
    ]);
    let digest = gen::script_digest(input.logged.iter().chain(input.reads.iter().flatten()));
    Ok(h.finish(v, counts, digest))
}
