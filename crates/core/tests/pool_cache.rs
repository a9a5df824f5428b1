//! Cache-correctness suite: the evaluation cache must be observationally
//! invisible. 200 random `(benchmark, action-sequence)` pairs are evaluated
//! through the pool (exercising exact hits and prefix-snapshot restores)
//! and serially on a fresh environment; scores and metrics must match
//! bit-for-bit. A second sweep checks that restoring a mid-episode
//! snapshot reproduces the byte-identical IR text of an uninterrupted run
//! — the same differential-oracle discipline `cg difftest` applies to
//! pass pipelines, aimed at the cache. A third kills the compiler on the
//! action right after a prefix snapshot was deposited and checks the
//! snapshot still serves.

use std::sync::Arc;
use std::time::Duration;

use cg_core::chaos::{FaultKind, FaultPlan};
use cg_core::envs::session_factory;
use cg_core::space::Observation;
use cg_core::{ActionSeq, CompilerEnv, EnvPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BENCHMARKS: &[&str] = &[
    "benchmark://cbench-v1/crc32",
    "benchmark://cbench-v1/qsort",
    "benchmark://cbench-v1/sha",
    "benchmark://cbench-v1/bitcount",
];

fn llvm_env() -> CompilerEnv {
    CompilerEnv::with_factory(
        "llvm-v0",
        session_factory("llvm-v0").unwrap(),
        BENCHMARKS[0],
        "Autophase",
        "IrInstructionCount",
        Duration::from_secs(30),
    )
    .unwrap()
}

fn llvm_factory() -> cg_core::EnvFactory {
    Arc::new(|_widx| {
        CompilerEnv::with_factory(
            "llvm-v0",
            session_factory("llvm-v0").unwrap(),
            BENCHMARKS[0],
            "Autophase",
            "IrInstructionCount",
            Duration::from_secs(30),
        )
    })
}

fn random_pairs(seed: u64, n: usize, num_actions: usize) -> Vec<ActionSeq> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let benchmark = BENCHMARKS[rng.gen_range(0..BENCHMARKS.len())].to_string();
            let len = rng.gen_range(1..8);
            let actions = (0..len).map(|_| rng.gen_range(0..num_actions)).collect();
            ActionSeq { benchmark, actions }
        })
        .collect()
}

#[test]
fn two_hundred_random_pairs_cached_equals_fresh() {
    let mut reference = llvm_env();
    let num_actions = reference.action_space().len();
    let pairs = random_pairs(0xCAC4E, 200, num_actions);

    let pool = EnvPool::new(2, llvm_factory());
    // First sweep: mostly cold (duplicates and shared prefixes hit early).
    let first = pool.evaluate_batch(pairs.clone());
    // Second sweep: answered from the exact cache.
    let second = pool.evaluate_batch(pairs.clone());

    for (i, pair) in pairs.iter().enumerate() {
        reference.set_benchmark(&pair.benchmark);
        reference.reset().unwrap();
        reference.step_batched(&pair.actions).unwrap();
        let fresh_score = reference.episode_reward();
        let fresh_metric = reference.last_metric();
        for (label, out) in [("first", &first[i]), ("second", &second[i])] {
            assert!(
                out.error.is_none(),
                "{label} sweep pair {i} failed: {:?}",
                out.error
            );
            assert_eq!(
                out.score.to_bits(),
                fresh_score.to_bits(),
                "{label} sweep pair {i} ({:?}): cached score {} != fresh {}",
                pair,
                out.score,
                fresh_score
            );
            assert_eq!(
                out.metric.to_bits(),
                fresh_metric.to_bits(),
                "{label} sweep pair {i} ({:?}): cached metric {} != fresh {}",
                pair,
                out.metric,
                fresh_metric
            );
        }
        assert!(
            second[i].cached,
            "pair {i} missed the exact cache on the second sweep"
        );
    }
}

#[test]
fn snapshot_restore_reproduces_byte_identical_ir() {
    let mut rng = StdRng::seed_from_u64(0x1D);
    let mut straight = llvm_env();
    let mut donor = llvm_env();
    let mut restored = llvm_env();
    let num_actions = straight.action_space().len();
    for case in 0..20 {
        let benchmark = BENCHMARKS[rng.gen_range(0..BENCHMARKS.len())];
        let len = rng.gen_range(5..10);
        let cut = rng.gen_range(2..len - 1);
        let actions: Vec<usize> = (0..len).map(|_| rng.gen_range(0..num_actions)).collect();

        // Uninterrupted run.
        straight.set_benchmark(benchmark);
        straight.reset().unwrap();
        straight.step_batched(&actions).unwrap();
        let want_ir = straight.observe("Ir").unwrap();
        let want_reward = straight.episode_reward();

        // Snapshot at `cut`, restore into a different environment, finish.
        donor.set_benchmark(benchmark);
        donor.reset().unwrap();
        donor.step_batched(&actions[..cut]).unwrap();
        let snap = donor.episode_snapshot().unwrap();
        restored.restore_snapshot(&snap).unwrap();
        restored.step_batched(&actions[cut..]).unwrap();
        let got_ir = restored.observe("Ir").unwrap();

        match (&want_ir, &got_ir) {
            (Observation::Text(want), Observation::Text(got)) => {
                assert_eq!(want, got, "case {case}: restored IR text diverged");
            }
            other => panic!("case {case}: Ir observation is not text: {other:?}"),
        }
        assert_eq!(
            restored.episode_reward().to_bits(),
            want_reward.to_bits(),
            "case {case}: restored episode reward diverged"
        );
    }
}

/// The compiler panics on the action right after a worker deposited a
/// prefix snapshot. The snapshot is a handle to immutable state shared
/// with the module that died mid-pass; it must come out of the trie
/// intact and seed the next sequence on that prefix exactly.
#[test]
fn panic_right_after_a_prefix_snapshot_leaves_it_intact() {
    let benchmark = BENCHMARKS[1];
    let mut reference = llvm_env();
    let names = [
        "mem2reg",
        "instcombine",
        "gvn",
        "simplifycfg",
        "sroa",
        "dce",
    ];
    let prefix: Vec<usize> = names[..4]
        .iter()
        .map(|n| reference.action_space().index_of(n).unwrap())
        .collect();
    let tail_a = reference.action_space().index_of(names[4]).unwrap();
    let tail_b = reference.action_space().index_of(names[5]).unwrap();
    let seq = |tail: usize| ActionSeq {
        benchmark: benchmark.to_string(),
        actions: prefix.iter().copied().chain([tail, tail]).collect(),
    };

    reference.set_benchmark(benchmark);
    reference.reset().unwrap();
    reference.step_batched(&prefix).unwrap();
    let Observation::Text(prefix_ir) = reference.observe("Ir").unwrap() else {
        panic!("Ir is text");
    };
    reference.step_batched(&[tail_b, tail_b]).unwrap();
    let (want_score, want_metric) = (reference.episode_reward(), reference.last_metric());

    // Apply ordinal 4 — the first action after the depth-4 deposit — dies.
    let (sessions, stats) = FaultPlan::seeded(5)
        .schedule(4, FaultKind::Panic)
        .wrap(session_factory("llvm-v0").unwrap());
    let factory: cg_core::EnvFactory = Arc::new(move |_widx| {
        CompilerEnv::with_factory(
            "llvm-v0",
            Arc::clone(&sessions),
            BENCHMARKS[0],
            "Autophase",
            "IrInstructionCount",
            Duration::from_secs(30),
        )
    });
    let pool = EnvPool::new(1, factory);
    let _ = pool.evaluate_batch(vec![seq(tail_a)]);
    assert_eq!(stats.panics(), 1, "the scheduled panic fired");

    let (depth, snap) = pool
        .cache()
        .longest_prefix(benchmark, &seq(tail_b).actions)
        .expect("the depth-4 snapshot is in the trie");
    assert_eq!(depth, 4);
    assert!(snap.state.is_live(), "trie nodes hold handles, not text");
    assert_eq!(snap.state.to_bytes(), prefix_ir.as_bytes());

    let out = pool.evaluate_batch(vec![seq(tail_b)]);
    assert!(out[0].error.is_none(), "{:?}", out[0].error);
    assert_eq!(out[0].score.to_bits(), want_score.to_bits());
    assert_eq!(out[0].metric.to_bits(), want_metric.to_bits());
}
