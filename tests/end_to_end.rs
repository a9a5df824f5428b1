//! Cross-crate integration tests: the full environment loop, pipelines,
//! semantics validation, autotuning, RL training, the state-transition
//! database, and the fault-tolerance/reproducibility machinery.

use cg_core::wrappers::Env as _;

#[test]
fn full_episode_with_validation_on_every_cbench_program() {
    // A five-pass episode on every cBench program: rewards must be
    // non-negative in sum (these passes never grow code), the module must
    // stay semantically correct, and the recorded state must validate.
    let mut env = cg_core::make("llvm-v0").unwrap();
    for name in cg_datasets::CBENCH.iter().take(8) {
        let uri = format!("benchmark://cbench-v1/{name}");
        env.set_benchmark(&uri);
        env.reset().unwrap();
        let reference = cg_datasets::benchmark(&uri).unwrap();
        for pass in ["mem2reg", "instcombine", "gvn", "dce", "simplifycfg"] {
            let idx = env.action_space().index_of(pass).unwrap();
            env.step(idx).unwrap();
        }
        assert!(env.episode_reward() > 0.0, "{name}: no gain");
        // Differential semantics validation.
        let ir = env.observe("Ir").unwrap();
        let optimized = cg_ir::parser::parse_module(ir.as_text().unwrap()).unwrap();
        let verdict = cg_core::validation::validate_semantics(&reference, &optimized).unwrap();
        assert!(
            matches!(verdict, cg_core::validation::SemanticsVerdict::Ok { runs } if runs >= 1),
            "{name}: {verdict:?}"
        );
    }
}

#[test]
fn validation_catches_gvn_sink_nondeterminism() {
    // The paper's reproducibility story (§III-B3): LLVM's -gvn-sink ordered
    // blocks by pointer address; CompilerGym's state validation caught it
    // and the pass was quarantined. Our gvn-sink reproduces the bug; the
    // module-hash replay check must be able to see it.
    use cg_llvm::pass::Pass as _;
    let pass = cg_llvm::passes::gvn::GvnSink;
    let base = cg_datasets::benchmark("benchmark://cbench-v1/ghostscript").unwrap();
    let mut hashes = std::collections::HashSet::new();
    let mut ballast: Vec<Vec<u8>> = Vec::new();
    for i in 0..40 {
        // Perturb the allocator between runs, as unrelated work would in a
        // long-lived process.
        ballast.push(vec![0u8; 64 + 37 * i]);
        let mut m = base.clone();
        pass.run(&mut m);
        cg_ir::verify::verify_module(&m).unwrap();
        hashes.insert(cg_ir::module_hash(&m));
    }
    assert!(
        hashes.len() > 1,
        "gvn-sink should be nondeterministic across heap states; \
         if this fails the quarantined-pass reproduction lost its bug"
    );
    // And the action space correctly refuses to expose it.
    assert_eq!(
        cg_llvm::action_space::ActionSpace::new().index_of("gvn-sink"),
        None
    );
}

#[test]
fn deterministic_passes_replay_identically() {
    // The converse: every action-space pass IS deterministic under heap
    // perturbation (the property gvn-sink violates).
    let base = cg_datasets::benchmark("benchmark://cbench-v1/qsort").unwrap();
    let space = cg_llvm::action_space::ActionSpace::new();
    let mut ballast: Vec<Vec<u8>> = Vec::new();
    for name in [
        "mem2reg",
        "gvn",
        "early-cse",
        "sccp",
        "inline-100",
        "loop-unroll-4",
    ] {
        let idx = space.index_of(name).unwrap();
        let mut hashes = std::collections::HashSet::new();
        for i in 0..5 {
            ballast.push(vec![0u8; 128 + 91 * i]);
            let mut m = base.clone();
            space.apply(&mut m, idx);
            hashes.insert(cg_ir::module_hash(&m));
        }
        assert_eq!(hashes.len(), 1, "{name} is nondeterministic!");
    }
}

#[test]
fn oz_beats_random_and_autotuning_beats_oz() {
    // The economic premise of Table IV: -Oz is a strong baseline, and
    // search with a budget finds orderings that beat it.
    let uri = "benchmark://cbench-v1/bitcount";
    let mut env = cg_core::make("llvm-v0").unwrap();
    env.set_benchmark(uri);
    env.reset().unwrap();
    let init = env
        .observe("IrInstructionCount")
        .unwrap()
        .as_scalar()
        .unwrap();
    let oz = env
        .observe("IrInstructionCountOz")
        .unwrap()
        .as_scalar()
        .unwrap();
    assert!(oz < init);
    let cands: Vec<usize> = cg_llvm::action_space::autophase_subset()
        .iter()
        .map(|n| env.action_space().index_of(n).unwrap())
        .collect();
    let (_, reward) = cg_autotune::greedy_search(&mut env, &cands, 16).unwrap();
    let achieved = init - reward;
    assert!(
        achieved <= oz * 1.02,
        "greedy should approach or beat -Oz: {achieved} vs {oz}"
    );
}

#[test]
fn rl_training_loop_runs_and_produces_policy() {
    use cg_core::wrappers::{ActionSubset, ConcatActionHistogram, CycleOverBenchmarks, TimeLimit};
    use cg_rl::{Algo, TrainConfig};
    let benches = vec![
        "benchmark://csmith-v0/1".to_string(),
        "benchmark://csmith-v0/2".to_string(),
    ];
    let env = cg_core::make("llvm-autophase-ic-v0").unwrap();
    let subset: Vec<usize> = cg_llvm::action_space::autophase_subset()
        .iter()
        .map(|n| env.action_space().index_of(n).unwrap())
        .collect();
    let stack = CycleOverBenchmarks::new(ActionSubset::new(env, subset), benches);
    let mut stack = TimeLimit::new(ConcatActionHistogram::new(stack), 15);
    let feat = cg_llvm::observation::AUTOPHASE_DIM + 42;
    for algo in [Algo::Ppo, Algo::A2c, Algo::Apex, Algo::Impala] {
        let cfg = TrainConfig {
            episodes: 4,
            steps: 15,
            ..TrainConfig::default()
        };
        let (policy, curve) = algo.train(&mut stack, feat, &cfg).unwrap();
        assert_eq!(curve.len(), 4, "{}", algo.name());
        // The policy must produce valid actions.
        let obs = stack.reset().unwrap();
        let f = cg_rl::featurize(&obs);
        assert!(policy.act_greedy(&f) < 42);
    }
}

#[test]
fn gcc_and_looptool_envs_integrate_with_search() {
    // GCC: 30 compilations of hill climbing never end worse than start.
    let mut p =
        cg_autotune::GccChoicesProblem::new(cg_gcc::GccSpec::v5(), "benchmark://chstone-v0/gsm")
            .unwrap();
    let mut rng = cg_autotune::rng(3);
    let res = cg_autotune::hill_climb(&mut p, 30, &mut rng);
    assert!(res.score.is_finite());
    // loop_tool: threading then growing the inner loop monotonically helps.
    let mut env = cg_core::make("loop_tool-v0").unwrap();
    env.set_benchmark("benchmark://loop_tool-v0/1048576");
    env.reset().unwrap();
    let t = env.action_space().index_of("toggle_thread").unwrap();
    assert!(env.step(t).unwrap().reward > 0.0);
}

#[test]
fn state_transition_database_feeds_cost_model() {
    let dir = std::env::temp_dir().join(format!("cg-e2e-stdb-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || cg_stdb::TransitionStore::open(&dir, cg_stdb::StoreConfig::default()).unwrap();
    let (edges, observations) = {
        let store = open();
        let benchmarks = ["benchmark://cbench-v1/crc32", "benchmark://cbench-v1/sha"];
        cg_stdb::generate(&store, &benchmarks, 2, 6, 9).unwrap();
        (store.edges(), store.observations())
    };
    assert!(observations.len() >= 4, "states: {}", observations.len());
    assert!(!edges.is_empty());
    // The tables survive a reopen of the log unchanged.
    let store = open();
    assert_eq!(store.edges(), edges);
    assert_eq!(store.observations(), observations);
    // Every edge's endpoints have observations.
    for (from, _, to, _) in &edges {
        assert!(store.observation(*from).is_some() && store.observation(*to).is_some());
    }
    // Observations carry the regression target.
    assert!(observations.iter().all(|o| o.ir_instruction_count > 0.0));
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn service_survives_many_sessions_and_forks() {
    let mut env = cg_core::make("llvm-v0").unwrap();
    env.set_benchmark("benchmark://cbench-v1/crc32");
    for _ in 0..5 {
        env.reset().unwrap();
        let m2r = env.action_space().index_of("mem2reg").unwrap();
        env.step(m2r).unwrap();
        let mut forks: Vec<_> = (0..4).map(|_| env.fork().unwrap()).collect();
        for f in &mut forks {
            let dce = f.action_space().index_of("dce").unwrap();
            f.step(dce).unwrap();
        }
    }
    assert_eq!(env.service_restarts(), 0, "no restarts under normal load");
}

#[test]
fn parser_printer_roundtrip_across_datasets() {
    for uri in [
        "benchmark://cbench-v1/susan",
        "benchmark://chstone-v0/aes",
        "benchmark://csmith-v0/7",
        "benchmark://llvm-stress-v0/3",
        "benchmark://github-v0/42",
    ] {
        let m = cg_datasets::benchmark(uri).unwrap();
        let text = cg_ir::printer::print_module(&m);
        let back = cg_ir::parser::parse_module(&text).unwrap();
        assert_eq!(
            text,
            cg_ir::printer::print_module(&back),
            "{uri}: print->parse->print not a fixpoint"
        );
        cg_ir::verify::verify_module(&back).unwrap();
    }
}
