//! The replay environment against the live one: a store populated from a
//! live episode must replay the same seed to a bit-identical episode
//! (rewards, observations, done flags), and anything the store cannot
//! answer must fall through to the live compiler gracefully — an honest
//! miss, never an error.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

use cg_core::Observation;
use cg_stdb::{StoreConfig, StoreSink, TransitionStore};

/// The global transition sink is process state; serialize the tests that
/// install one.
fn sink_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cg-replay-env-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One deterministic action schedule shared by the live and replay arms.
fn actions(seed: u64, n: usize, steps: usize) -> Vec<usize> {
    use cg_core::retry::splitmix64;
    (0..steps)
        .map(|s| (splitmix64(seed ^ (s as u64).wrapping_mul(0x9E37)) % n as u64) as usize)
        .collect()
}

struct EpisodeTrace {
    rewards: Vec<f64>,
    done: Vec<bool>,
    observations: Vec<Observation>,
    episode_reward: f64,
}

fn run(env: &mut cg_core::CompilerEnv, schedule: &[usize]) -> EpisodeTrace {
    env.reset().expect("reset");
    let mut trace = EpisodeTrace {
        rewards: Vec::new(),
        done: Vec::new(),
        observations: Vec::new(),
        episode_reward: 0.0,
    };
    for &a in schedule {
        let step = env.step(a).expect("step");
        trace.rewards.push(step.reward);
        trace.done.push(step.done);
        trace.observations.push(step.observation);
        if step.done {
            break;
        }
    }
    trace.episode_reward = env.episode_reward();
    trace
}

/// Same store, same seed ⇒ the replay environment reproduces the live
/// episode bit for bit: every step reward, every Autophase observation,
/// every done flag, and the episode total.
#[test]
fn replay_reproduces_live_episode_exactly() {
    let _guard = sink_lock().lock().unwrap();
    cg_stdb::install();
    let dir = fresh_dir("determinism");
    let benchmark = "benchmark://cbench-v1/qsort";

    // Live arm, with every transition flowing into the store.
    let store = TransitionStore::open_shared(&dir, StoreConfig::default()).expect("open store");
    cg_core::install_transition_sink(Arc::new(StoreSink(Arc::clone(&store))));
    let mut live = cg_core::make("llvm-v0").expect("live env");
    live.set_benchmark(benchmark);
    let schedule = actions(41, live.action_space().len(), 10);
    let live_trace = run(&mut live, &schedule);
    drop(live);
    store.flush();
    cg_core::clear_transition_sink();
    drop(store);

    // Replay arm over the same trajectory.
    let uri = format!("replay://llvm-v0?dir={}", dir.display());
    let mut replay = cg_core::make(&uri).expect("replay env");
    replay.set_benchmark(benchmark);
    let replay_trace = run(&mut replay, &schedule);
    drop(replay);

    assert_eq!(
        live_trace.rewards, replay_trace.rewards,
        "step rewards diverged"
    );
    assert_eq!(live_trace.done, replay_trace.done, "done flags diverged");
    assert_eq!(
        live_trace.observations, replay_trace.observations,
        "observations diverged"
    );
    assert!(
        (live_trace.episode_reward - replay_trace.episode_reward).abs() == 0.0,
        "episode reward diverged: live {} vs replay {}",
        live_trace.episode_reward,
        replay_trace.episode_reward
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store that has never seen the benchmark or the trajectory still
/// serves complete episodes: every miss falls through to the live
/// compiler, and the fall-through episode matches a purely live one.
#[test]
fn unseen_trajectories_fall_through_to_live() {
    let _guard = sink_lock().lock().unwrap();
    cg_stdb::install();
    cg_core::clear_transition_sink();
    let dir = fresh_dir("fallthrough");

    // Seed the store with one qsort trajectory only.
    let store = TransitionStore::open_shared(&dir, StoreConfig::default()).expect("open store");
    cg_core::install_transition_sink(Arc::new(StoreSink(Arc::clone(&store))));
    let mut live = cg_core::make("llvm-v0").expect("live env");
    live.set_benchmark("benchmark://cbench-v1/qsort");
    let seen = actions(41, live.action_space().len(), 6);
    run(&mut live, &seen);
    store.flush();
    cg_core::clear_transition_sink();

    // Reference episodes from a live environment, no sink.
    let unseen = actions(97, live.action_space().len(), 6);
    live.set_benchmark("benchmark://cbench-v1/sha");
    let live_other_bench = run(&mut live, &seen);
    live.set_benchmark("benchmark://cbench-v1/qsort");
    let live_other_actions = run(&mut live, &unseen);
    drop(live);
    drop(store);

    let uri = format!("replay://llvm-v0?dir={}", dir.display());
    let mut replay = cg_core::make(&uri).expect("replay env");

    // Unseen benchmark: init itself is a miss; the whole episode is live.
    replay.set_benchmark("benchmark://cbench-v1/sha");
    let via_fallthrough_bench = run(&mut replay, &seen);
    assert_eq!(
        live_other_bench.rewards, via_fallthrough_bench.rewards,
        "fall-through episode must match a live one"
    );

    // Seen benchmark, unseen actions: falls through mid-episode.
    replay.set_benchmark("benchmark://cbench-v1/qsort");
    let via_fallthrough_actions = run(&mut replay, &unseen);
    assert_eq!(
        live_other_actions.rewards, via_fallthrough_actions.rewards,
        "mid-episode fall-through must match a live episode"
    );
    drop(replay);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The disk path under seeded faults, checked by counts. Live episodes
/// complete while the sink's WAL takes torn writes and `ENOSPC`; crash
/// damage (a flipped byte, a cut tail) surfaces when the store is reopened
/// and scrubbed under injected read faults; `scrub --repair` leaves a store
/// that verifies clean; and `replay://` over it completes a logged episode
/// and an unseen one.
#[test]
fn disk_faults_are_absorbed_detected_and_repaired() {
    use cg_core::chaos::IoFaultPlan;
    use cg_stdb::{scrub_dir, WalConfig};
    use std::io::{Read as _, Seek as _, SeekFrom, Write as _};

    let _guard = sink_lock().lock().unwrap();
    cg_stdb::install();
    let dir = fresh_dir("io-faults");
    let benchmarks = [
        "benchmark://cbench-v1/qsort",
        "benchmark://cbench-v1/crc32",
        "benchmark://cbench-v1/sha",
    ];

    // Ingest under write faults: a torn write is rolled back and retried,
    // an ENOSPC drops its record, and neither reaches the episode.
    let writes = IoFaultPlan::seeded(15)
        .with_torn_write_prob(0.08)
        .with_enospc_prob(0.05)
        .with_max_faults(6)
        .injector();
    let write_stats = writes.stats();
    let store = TransitionStore::open_with_faults(&dir, StoreConfig::default(), Some(writes))
        .expect("open store");
    let store = Arc::new(store);
    cg_core::install_transition_sink(Arc::new(StoreSink(Arc::clone(&store))));
    let mut live = cg_core::make("llvm-v0").expect("live env");
    let n = live.action_space().len();
    for (ep, benchmark) in (0..6).zip(benchmarks.iter().cycle()) {
        live.set_benchmark(benchmark);
        run(&mut live, &actions(ep, n, 8));
    }
    drop(live);
    store.flush();
    cg_core::clear_transition_sink();
    let dropped = store.dropped_records();
    drop(store);
    let (torn, enospc) = (write_stats.torn_writes(), write_stats.enospcs());
    assert!(
        torn > 0 && enospc > 0,
        "torn writes {torn}, ENOSPCs {enospc}"
    );
    assert!(dropped >= enospc, "{dropped} drops for {enospc} ENOSPCs");

    // Crash damage: flip a byte mid-way through the first segment and cut
    // the last segment's tail.
    let segments = cg_stdb::log::list_segments(&dir).expect("segments");
    let (first, last) = (&segments[0].1, &segments[segments.len() - 1].1);
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(first)
        .unwrap();
    let offset = 8 + (f.metadata().unwrap().len() - 8) / 2;
    let mut byte = [0u8];
    f.seek(SeekFrom::Start(offset)).unwrap();
    f.read_exact(&mut byte).unwrap();
    f.seek(SeekFrom::Start(offset)).unwrap();
    f.write_all(&[byte[0] ^ 0x40]).unwrap();
    drop(f);
    let f = std::fs::OpenOptions::new().write(true).open(last).unwrap();
    f.set_len(f.metadata().unwrap().len() - 7).unwrap();
    drop(f);

    // Reopen and repair under transient read faults: a re-read heals
    // those, while the real damage is reported.
    let reads = IoFaultPlan::seeded(15 ^ 0xB17E)
        .with_short_read_prob(0.25)
        .with_bit_flip_prob(0.25)
        .with_max_faults(4)
        .injector();
    let read_stats = reads.stats();
    let reopened =
        TransitionStore::open_with_faults(&dir, StoreConfig::default(), Some(reads.clone()))
            .expect("reopen");
    let recovery = reopened.recovery().clone();
    drop(reopened);
    let wal = WalConfig::default();
    let scrub = scrub_dir(&dir, &wal, true, Some(&reads)).expect("scrub --repair");
    let healed = recovery.transient_read_faults + scrub.transient_read_faults;
    assert!(read_stats.injected() > 0, "no read fault fired");
    assert!(healed > 0, "no injected read fault was healed by a re-read");
    assert_eq!(recovery.torn_tails, 1, "the cut tail: {recovery:?}");
    assert!(
        recovery.quarantined + scrub.records_corrupt > 0,
        "the flipped byte went unnoticed: {recovery:?} {scrub:?}"
    );
    let verify = scrub_dir(&dir, &wal, false, None).expect("scrub");
    assert!(verify.is_clean(), "still dirty after repair: {verify:?}");

    // Replay over the repaired store: a logged trajectory, then an unseen
    // one whose every step falls through to the live compiler.
    let uri = format!("replay://llvm-v0?dir={}", dir.display());
    let mut replay = cg_core::make(&uri).expect("replay env");
    replay.set_benchmark(benchmarks[0]);
    run(&mut replay, &actions(0, n, 8));
    run(&mut replay, &actions(0xD00D, n, 8));
    drop(replay);
    let _ = std::fs::remove_dir_all(&dir);
}
