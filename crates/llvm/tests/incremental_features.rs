//! The incremental-observation contract: a feature cache driven by the
//! `Touched` sets the pass runner derives from moved stamps must agree
//! exactly with a from-scratch module scan, for any pipeline. This is the
//! soundness condition that lets `InstCount`/`Autophase` skip clean
//! functions after each action.

use proptest::prelude::*;

use cg_llvm::action_space::ActionSpace;
use cg_llvm::observation::{autophase, inst_count, IncrementalFeatures};

fn generate(seed: u64) -> cg_ir::Module {
    let name = cg_datasets::synth::FUZZ_PROFILES[(seed % 5) as usize];
    let profile = cg_datasets::synth::Profile::named(name).unwrap();
    cg_datasets::synth::generate(&profile, seed, "incr-feat")
}

/// Drives a pipeline through `apply_tracked`, checking the incremental
/// vectors against the monolithic oracle after every single action.
fn check_pipeline(mut m: cg_ir::Module, actions: &[usize]) {
    let space = ActionSpace::new();
    let mut feat = IncrementalFeatures::new();
    assert_eq!(feat.inst_count(&m), inst_count(&m));
    assert_eq!(feat.autophase(&m), autophase(&m));
    for (step, &a) in actions.iter().enumerate() {
        let effect = space.apply_tracked(&mut m, a);
        feat.invalidate(&effect.touched);
        assert_eq!(
            feat.inst_count(&m),
            inst_count(&m),
            "InstCount diverged at step {step} (action `{}`, effect {:?})",
            space.pass(a).name(),
            effect
        );
        assert_eq!(
            feat.autophase(&m),
            autophase(&m),
            "Autophase diverged at step {step} (action `{}`, effect {:?})",
            space.pass(a).name(),
            effect
        );
    }
}

/// A fixed deep pipeline over a real benchmark, covering function-local,
/// CFG and interprocedural passes (`All` only when the function set or the
/// globals change).
#[test]
fn incremental_matches_full_on_cbench() {
    let space = ActionSpace::new();
    let names = [
        "mem2reg",
        "instcombine",
        "gvn",
        "simplifycfg",
        "inline-225",
        "sccp",
        "dce",
        "licm",
        "loop-unroll-4",
        "globaldce",
        "adce",
        "merge-blocks",
    ];
    let actions: Vec<usize> = names
        .iter()
        .map(|n| space.index_of(n).expect("known action"))
        .collect();
    for bench in ["cbench-v1/crc32", "cbench-v1/qsort"] {
        check_pipeline(cg_datasets::benchmark(bench).unwrap(), &actions);
    }
}

/// The cache survives `clear` mid-episode (what a session does on
/// `restore`) without drifting.
#[test]
fn clear_resets_to_cold_state() {
    let space = ActionSpace::new();
    let mut m = cg_datasets::benchmark("cbench-v1/crc32").unwrap();
    let mut feat = IncrementalFeatures::new();
    feat.inst_count(&m);
    space.apply(&mut m, space.index_of("mem2reg").unwrap());
    // Deliberately skip invalidation, then clear: the stale entries must go.
    feat.clear();
    assert_eq!(feat.cached_functions(), 0);
    assert_eq!(feat.inst_count(&m), inst_count(&m));
    assert_eq!(feat.autophase(&m), autophase(&m));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random module, random pipeline: incremental == full after every step.
    #[test]
    fn incremental_matches_full_on_random_pipelines(
        seed in 0u64..100_000,
        actions in proptest::collection::vec(0usize..124, 1..12),
    ) {
        check_pipeline(generate(seed), &actions);
    }
}
