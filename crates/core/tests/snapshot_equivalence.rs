//! Structural snapshots must be observationally invisible.
//!
//! Random action sequences run on five cbench programs twice: once
//! uninterrupted, and once with `snapshot`/`restore`, `fork`, the byte
//! round trip (`to_bytes` → `from_bytes` → `restore`) and hops to another
//! thread interleaved at random points — while the session a snapshot was
//! taken from keeps mutating its own module. At every step the interrupted
//! run must show byte-identical printed IR and identical values in all
//! five observation spaces and the reward metric; at the environment level,
//! on all three environments, the per-step rewards must match bit for bit.
//! The programs run on
//! parallel threads, so the copy-on-write sharing (with the benchmark
//! cache, between snapshots, between a fork and its parent) is exercised
//! across threads throughout.
//!
//! A snapshot is a plain copy-on-write clone of the live module, so the
//! sharing checked here comes from passes writing only what they change.
//! That invariant — a function's stamp moves exactly when it changes, and
//! an unchanged function stays shared — is checked after every single
//! application in `crates/llvm/tests/analysis_cache_soundness.rs`.

mod common;

use std::sync::Barrier;
use std::time::Duration;

use cg_core::envs::llvm::LlvmSession;
use cg_core::envs::session_factory;
use cg_core::session::{CompilationSession, SessionSnapshot};
use cg_core::space::Observation;
use cg_core::{CompilerEnv, EpisodeSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PROGRAMS: [&str; 5] = [
    "benchmark://cbench-v1/crc32",
    "benchmark://cbench-v1/qsort",
    "benchmark://cbench-v1/sha",
    "benchmark://cbench-v1/bitcount",
    "benchmark://cbench-v1/dijkstra",
];

/// The five observation spaces and the reward metric.
const SPACES: [&str; 6] = [
    "Ir",
    "InstCount",
    "Autophase",
    "Inst2vec",
    "Programl",
    "IrInstructionCount",
];

const NUM_ACTIONS: usize = 124;

fn fresh(benchmark: &str) -> Box<dyn CompilationSession> {
    let mut s = Box::new(LlvmSession::new());
    s.init(benchmark, 0).unwrap();
    s
}

fn observe_all(s: &mut dyn CompilationSession) -> Vec<Observation> {
    SPACES.iter().map(|sp| s.observe(sp).unwrap()).collect()
}

fn ir_bytes(obs: &[Observation]) -> &[u8] {
    match &obs[0] {
        Observation::Text(t) => t.as_bytes(),
        other => panic!("Ir is not text: {other:?}"),
    }
}

/// The uninterrupted run: observations after 0, 1, …, n actions.
fn reference(benchmark: &str, actions: &[usize]) -> Vec<Vec<Observation>> {
    let mut s = fresh(benchmark);
    let mut out = vec![observe_all(s.as_mut())];
    for &a in actions {
        s.apply_action(a).unwrap();
        out.push(observe_all(s.as_mut()));
    }
    out
}

fn check(s: &mut dyn CompilationSession, want: &[Observation], what: &str) {
    let got = observe_all(s);
    for (space, (g, w)) in SPACES.iter().zip(got.iter().zip(want)) {
        assert_eq!(g, w, "{what}: {space} diverged from the uninterrupted run");
    }
}

/// Takes a snapshot, checks it is structural and that its portable bytes
/// are the printed IR of the state it captured.
fn snapshot_of(s: &mut dyn CompilationSession, want: &[Observation]) -> SessionSnapshot {
    let snap = s.snapshot().expect("llvm sessions snapshot");
    assert!(snap.is_live(), "llvm snapshots are structural");
    assert_eq!(snap.to_bytes(), ir_bytes(want), "snapshot encoding");
    snap
}

/// Drives `actions` with snapshot machinery interleaved, comparing against
/// `want` after every action.
fn interrupted_run(benchmark: &str, actions: &[usize], want: &[Vec<Observation>], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let junk = |rng: &mut StdRng| rng.gen_range(0..NUM_ACTIONS);
    let mut s = fresh(benchmark);
    check(s.as_mut(), &want[0], "after init");
    let mut depth = 0;
    while depth < actions.len() {
        let what = format!("{benchmark} seed {seed} depth {depth}");
        match rng.gen_range(0..7) {
            // Snapshot, wander off, come back on the same session.
            0 => {
                let snap = snapshot_of(s.as_mut(), &want[depth]);
                s.apply_action(junk(&mut rng)).unwrap();
                s.apply_action(junk(&mut rng)).unwrap();
                s.restore(&snap).unwrap();
                check(
                    s.as_mut(),
                    &want[depth],
                    &format!("{what} restore in place"),
                );
            }
            // Fork; the parent wanders off, the episode continues on the fork.
            1 => {
                let child = s.fork();
                s.apply_action(junk(&mut rng)).unwrap();
                s = child;
                check(s.as_mut(), &want[depth], &format!("{what} fork"));
            }
            // Structural restore into a fresh session while the donor —
            // still sharing every untouched function — keeps mutating.
            2 => {
                let snap = snapshot_of(s.as_mut(), &want[depth]);
                let mut next = fresh(benchmark);
                next.restore(&snap).unwrap();
                s.apply_action(junk(&mut rng)).unwrap();
                s = next;
                check(s.as_mut(), &want[depth], &format!("{what} structural"));
                assert_eq!(
                    snap.to_bytes(),
                    ir_bytes(&want[depth]),
                    "{what}: donor wrote through"
                );
            }
            // The byte path: what a wire or a disk would carry.
            3 => {
                let snap = snapshot_of(s.as_mut(), &want[depth]);
                let bytes = SessionSnapshot::from_bytes(snap.to_bytes().to_vec());
                assert!(!bytes.is_live());
                assert_eq!(bytes, snap, "byte-wise equality across kinds");
                let mut next = fresh(benchmark);
                next.restore(&bytes).unwrap();
                s = next;
                check(s.as_mut(), &want[depth], &format!("{what} byte path"));
                let again = s.snapshot().unwrap();
                assert_eq!(again.to_bytes(), snap.to_bytes(), "{what}: re-encoding");
            }
            // Hop to another thread: it restores and runs the next few
            // actions while this thread mutates the donor at the same time.
            4 => {
                let snap = snapshot_of(s.as_mut(), &want[depth]);
                let hop = rng.gen_range(1..4).min(actions.len() - depth);
                let junk_actions: Vec<usize> = (0..4).map(|_| junk(&mut rng)).collect();
                let start = Barrier::new(2);
                let moved = std::thread::scope(|scope| {
                    let worker = scope.spawn(|| {
                        let mut next = fresh(benchmark);
                        next.restore(&snap).unwrap();
                        start.wait();
                        for i in 0..hop {
                            next.apply_action(actions[depth + i]).unwrap();
                            check(
                                next.as_mut(),
                                &want[depth + i + 1],
                                &format!("{what} on the other thread, +{}", i + 1),
                            );
                        }
                        next
                    });
                    start.wait();
                    for &a in &junk_actions {
                        s.apply_action(a).unwrap();
                    }
                    worker.join().expect("worker thread")
                });
                assert_eq!(
                    snap.to_bytes(),
                    ir_bytes(&want[depth]),
                    "{what}: snapshot changed"
                );
                s = moved;
                depth += hop;
                continue;
            }
            // No interruption.
            _ => {}
        }
        s.apply_action(actions[depth]).unwrap();
        depth += 1;
        check(
            s.as_mut(),
            &want[depth],
            &format!("{benchmark} seed {seed} after {depth}"),
        );
    }
}

#[test]
fn interleaved_snapshots_match_the_uninterrupted_run() {
    std::thread::scope(|scope| {
        for (p, benchmark) in PROGRAMS.iter().enumerate() {
            scope.spawn(move || {
                for case in 0..3u64 {
                    let seed = 0x5EED + 16 * p as u64 + case;
                    let mut rng = StdRng::seed_from_u64(seed);
                    let len = rng.gen_range(10..16);
                    let actions: Vec<usize> =
                        (0..len).map(|_| rng.gen_range(0..NUM_ACTIONS)).collect();
                    let want = reference(benchmark, &actions);
                    interrupted_run(benchmark, &actions, &want, seed);
                }
            });
        }
    });
}

/// Consecutive snapshots of one episode share what the actions between
/// them left alone: always the globals (no pass here rewrites them), and
/// every function no pass changed — passes scan without writing.
#[test]
fn consecutive_snapshots_share_globals_and_untouched_functions() {
    let mut s = LlvmSession::new();
    s.init(PROGRAMS[1], 0).unwrap();
    let index = |name: &str| {
        s.action_spaces()[0]
            .actions
            .iter()
            .position(|a| a == name)
            .expect("known pass")
    };
    let (mem2reg, dce, die) = (index("mem2reg"), index("dce"), index("die"));
    let module = |s: &mut LlvmSession| s.snapshot().unwrap().live::<cg_ir::Module>().unwrap();
    s.apply_action(mem2reg).unwrap();
    s.apply_action(dce).unwrap();
    let first = module(&mut s);

    // One more dead-instruction sweep finds nothing, but it sweeps.
    assert!(!s.apply_action(die).unwrap().changed);
    let second = module(&mut s);
    assert!(second.shares_globals_with(&first));
    for &fid in first.func_ids() {
        assert!(
            second.shares_func_with(&first, fid),
            "{} did not change but is no longer shared",
            first.func(fid).name
        );
    }

    // Function-local passes that rewrite some functions and not others:
    // the next snapshot shares exactly the ones that did not change.
    let mut partial = 0;
    for action in 0..NUM_ACTIONS {
        let mut s = LlvmSession::new();
        s.init(PROGRAMS[1], 0).unwrap();
        s.restore(&SessionSnapshot::from_live(std::sync::Arc::clone(&second)))
            .unwrap();
        s.apply_action(action).unwrap();
        let third = module(&mut s);
        assert!(third.shares_globals_with(&first) || third.globals() != first.globals());
        let mut rewritten = 0;
        for &fid in second.func_ids() {
            if !third.func_exists(fid) || third.func(fid) != second.func(fid) {
                rewritten += 1;
            } else {
                assert!(
                    third.shares_func_with(&second, fid),
                    "action {action} left {} alone but un-shared it",
                    second.func(fid).name
                );
            }
        }
        partial += usize::from(rewritten > 0 && rewritten < second.num_functions());
    }
    assert!(partial > 0, "no pass rewrote only some of the functions");
    assert_eq!(first, second, "snapshots never change once taken");

    // And the cached benchmark's globals are the ones every episode shares.
    let pristine = cg_core::envs::llvm::cached_benchmark(PROGRAMS[1]).unwrap();
    assert!(second.shares_globals_with(&pristine));
}

/// The environment-level episodes, `(env, benchmark, observation,
/// reward)`: four llvm-v0 programs, then gcc-v0's and loop_tool-v0's.
fn episodes() -> Vec<(&'static str, &'static str, &'static str, &'static str)> {
    let (env, _, observation, reward) = common::ENVS[0];
    PROGRAMS[..4]
        .iter()
        .map(|&benchmark| (env, benchmark, observation, reward))
        .chain(common::ENVS[1..].iter().copied())
        .collect()
}

fn env_on(env: &str, benchmark: &str, observation: &str, reward: &str) -> CompilerEnv {
    CompilerEnv::with_factory(
        env,
        session_factory(env).unwrap(),
        benchmark,
        observation,
        reward,
        Duration::from_secs(30),
    )
    .unwrap()
}

/// The same property one layer up, where rewards live, on every
/// environment: `fork`, `episode_snapshot` → `restore_snapshot` into an
/// environment with its own service, and the byte form of the same
/// snapshot, against the per-step rewards and observations of an
/// uninterrupted episode. Only llvm-v0's in-process snapshots are live
/// handles; the other two capture bytes.
#[test]
fn environment_rewards_survive_snapshot_restore_and_fork() {
    for (p, (id, benchmark, observation, reward)) in episodes().into_iter().enumerate() {
        let make = || env_on(id, benchmark, observation, reward);
        let mut rng = StdRng::seed_from_u64(0xE7 + p as u64);
        let mut straight = make();
        straight.reset().unwrap();
        let n = straight.action_space().actions.len();
        let actions: Vec<usize> = (0..12).map(|_| rng.gen_range(0..n)).collect();
        let want: Vec<(u64, Observation)> = actions
            .iter()
            .map(|&a| {
                let st = straight.step(a).unwrap();
                (st.reward.to_bits(), st.observation)
            })
            .collect();
        let want_state = straight.episode_snapshot().unwrap().state;

        let mut env = make();
        let mut other = make();
        env.reset().unwrap();
        for (depth, &a) in actions.iter().enumerate() {
            match rng.gen_range(0..4) {
                0 => {
                    let child = env.fork().unwrap();
                    env.step(rng.gen_range(0..n)).unwrap();
                    env = child;
                }
                1 => {
                    let snap = env.episode_snapshot().unwrap();
                    assert_eq!(
                        snap.state.is_live(),
                        id == "llvm-v0",
                        "{id}: in-process snapshots are handles for llvm-v0 only"
                    );
                    other.restore_snapshot(&snap).unwrap();
                    env.step(rng.gen_range(0..n)).unwrap();
                    std::mem::swap(&mut env, &mut other);
                }
                2 => {
                    let snap = env.episode_snapshot().unwrap();
                    let portable = EpisodeSnapshot {
                        state: SessionSnapshot::from_bytes(snap.state.to_bytes().to_vec()),
                        ..snap
                    };
                    other.restore_snapshot(&portable).unwrap();
                    std::mem::swap(&mut env, &mut other);
                }
                _ => {}
            }
            let st = env.step(a).unwrap();
            assert_eq!(
                (st.reward.to_bits(), &st.observation),
                (want[depth].0, &want[depth].1),
                "{id} {benchmark}: step {depth} diverged"
            );
        }
        assert_eq!(
            env.episode_snapshot().unwrap().state,
            want_state,
            "{id} {benchmark}: final state"
        );
        assert_eq!(
            env.episode_reward().to_bits(),
            straight.episode_reward().to_bits()
        );
    }
}
