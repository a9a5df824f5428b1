//! The per-function observation table's contract: served from entries keyed
//! by `(FuncId, Stamp)`, every one of the five observations must equal its
//! reference function (a from-scratch computation) after any pass, for any
//! pipeline, with nothing telling the table what a pass changed. This is
//! the soundness condition that lets a session re-derive only the
//! functions an action changed.

use proptest::prelude::*;

use cg_ir::{Module, Op};
use cg_llvm::action_space::ActionSpace;
use cg_llvm::observation::{
    autophase, inst2vec, inst_count, ir_text, programl, IncrementalFeatures,
};

fn generate(seed: u64) -> Module {
    let name = cg_datasets::synth::FUZZ_PROFILES[(seed % 5) as usize];
    let profile = cg_datasets::synth::Profile::named(name).unwrap();
    cg_datasets::synth::generate(&profile, seed, "incr-feat")
}

/// All five observations from the table equal their references.
fn check_all(feat: &mut IncrementalFeatures, m: &Module, what: &str) {
    assert_eq!(feat.ir_text(m), ir_text(m), "Ir diverged {what}");
    assert_eq!(
        feat.inst_count(m),
        inst_count(m),
        "InstCount diverged {what}"
    );
    assert_eq!(feat.autophase(m), autophase(m), "Autophase diverged {what}");
    assert_eq!(feat.inst2vec(m), inst2vec(m), "Inst2vec diverged {what}");
    assert_eq!(feat.programl(m), programl(m), "Programl diverged {what}");
}

/// Drives a pipeline through `apply_tracked`, checking every cached
/// observation against its reference after every single action.
fn check_pipeline(mut m: Module, actions: &[usize]) {
    let space = ActionSpace::new();
    let mut feat = IncrementalFeatures::new();
    check_all(&mut feat, &m, "before the first action");
    for (step, &a) in actions.iter().enumerate() {
        let effect = space.apply_tracked(&mut m, a);
        let what = format!(
            "at step {step} (action `{}`, effect {effect:?})",
            space.pass(a).name()
        );
        check_all(&mut feat, &m, &what);
    }
}

/// A fixed deep pipeline over a real benchmark, covering function-local,
/// CFG and interprocedural passes (function deletion and global rewrites
/// included).
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

/// Nothing tells the table about a pass: the stamps do. `clear` empties
/// every column, and the cold table serves the same observations.
#[test]
fn clear_resets_to_cold_state() {
    let space = ActionSpace::new();
    let mut m = cg_datasets::benchmark("cbench-v1/crc32").unwrap();
    let mut feat = IncrementalFeatures::new();
    assert_eq!(feat.cached_functions(), [0; 5]);
    check_all(&mut feat, &m, "cold");
    let n = m.num_functions();
    assert_eq!(feat.cached_functions(), [n; 5]);
    space.apply(&mut m, space.index_of("mem2reg").unwrap());
    check_all(&mut feat, &m, "after an unannounced pass");
    feat.clear();
    assert_eq!(feat.cached_functions(), [0; 5]);
    check_all(&mut feat, &m, "after clear");
}

/// A function's text prints its callees' and the globals' names, which
/// live outside it: renaming a callee moves only the callee's stamp, and
/// the caller's cached text must not survive it.
#[test]
fn renaming_a_callee_reprints_its_callers() {
    let m0 = cg_datasets::benchmark("cbench-v1/qsort").unwrap();
    let callee = m0
        .func_ids()
        .iter()
        .flat_map(|&f| m0.func(f).blocks())
        .flat_map(|b| &b.insts)
        .find_map(|i| match &i.op {
            Op::Call { callee, .. } => Some(*callee),
            _ => None,
        })
        .expect("qsort makes calls");
    let old = m0.func(callee).name.clone();
    let mut feat = IncrementalFeatures::new();
    check_all(&mut feat, &m0, "before the rename");
    let mut m = m0.clone();
    m.func_mut(callee).name = format!("{old}_renamed");
    assert!(ir_text(&m).contains(&format!("@{old}_renamed(")));
    check_all(&mut feat, &m, "after renaming a callee");
    check_all(&mut feat, &m0, "back on the original");
}

/// Dead functions' entries go when an observation is served, and a clone
/// shares the entries it was cloned with.
#[test]
fn entries_follow_the_live_functions_and_clones_share_them() {
    let space = ActionSpace::new();
    let mut m = cg_datasets::benchmark("cbench-v1/qsort").unwrap();
    let mut feat = IncrementalFeatures::new();
    check_all(&mut feat, &m, "cold");
    let fork = feat.clone();
    assert_eq!(fork.cached_functions(), feat.cached_functions());
    for pass in ["inline-225", "globaldce"] {
        space.apply(&mut m, space.index_of(pass).unwrap());
    }
    assert!(
        m.num_functions() < m.func_bound() as usize,
        "a function died"
    );
    check_all(&mut feat, &m, "after inlining and globaldce");
    assert_eq!(feat.cached_functions(), [m.num_functions(); 5]);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random module, random pipeline: table == reference after every step.
    #[test]
    fn incremental_matches_full_on_random_pipelines(
        seed in 0u64..100_000,
        actions in proptest::collection::vec(0usize..124, 1..12),
    ) {
        check_pipeline(generate(seed), &actions);
    }
}
