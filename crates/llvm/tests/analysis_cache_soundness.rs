//! Analysis-cache soundness: after every pass application against a shared
//! [`cg_ir::AnalysisManager`], each analysis still cached for a function
//! must be structurally equal to a from-scratch recompute on the current
//! IR. This is the property that makes the whole invalidation design safe
//! to trust: a pass that over-claims `preserved()` (keeping a dominator
//! tree across a CFG edit), or an edit that escapes its function's stamp,
//! produces a divergent cached analysis — and this test fails with the
//! function and analysis named.
//!
//! Every application is also checked against the stamp invariant that the
//! cache, the no-op memo, incremental features and snapshot sharing all
//! rest on, by comparing with a clone taken just before it: a function's
//! stamp moved if and only if its content differs, every unchanged function
//! is still shared with the clone, and the derived `PassEffect` names
//! exactly what changed.

use proptest::prelude::*;

use cg_ir::{AnalysisManager, Module};
use cg_llvm::action_space::ActionSpace;
use cg_llvm::pass::Touched;

fn generate(seed: u64) -> Module {
    // Rotate through the fuzz profiles so the cache sees loop nests, φ
    // webs, aliasing memory and call graphs, not just one program shape.
    let name = cg_datasets::synth::FUZZ_PROFILES[(seed % 5) as usize];
    let profile = cg_datasets::synth::Profile::named(name).unwrap();
    cg_datasets::synth::generate(&profile, seed, "am-soundness")
}

/// Applies action `a` and checks the stamp invariant against the module as
/// it was just before. `what` names the case in failure messages.
fn apply_checked(
    space: &ActionSpace,
    m: &mut Module,
    a: usize,
    am: &mut AnalysisManager,
    what: &str,
) {
    let before = m.clone();
    let effect = space.apply_with(m, a, am);
    let what = format!("{what} (`{}`)", space.pass(a).name());
    let mut changed = Vec::new();
    for &fid in before.func_ids() {
        if !m.func_exists(fid) {
            changed.push(fid);
            continue;
        }
        let (old, new) = (before.func(fid), m.func(fid));
        let differs = old != new;
        assert_eq!(
            old.stamp() != new.stamp(),
            differs,
            "{what}: fn {} {}",
            old.name,
            if differs {
                "changed but kept its stamp"
            } else {
                "is unchanged but its stamp moved"
            }
        );
        if differs {
            changed.push(fid);
        } else {
            assert!(
                m.shares_func_with(&before, fid),
                "{what}: fn {} is unchanged but no longer shared",
                old.name
            );
        }
    }
    assert_eq!(effect.changed, *m != before, "{what}: effect.changed");
    let want = if before.func_ids() != m.func_ids() || before.globals() != m.globals() {
        Touched::All
    } else if changed.is_empty() {
        Touched::None
    } else {
        Touched::Funcs(changed)
    };
    assert_eq!(effect.touched, want, "{what}: effect.touched");
}

fn check_sequence(seed: u64, actions: &[usize]) {
    let space = ActionSpace::new();
    let mut m = generate(seed);
    let mut am = AnalysisManager::new();
    for (step, &a) in actions.iter().enumerate() {
        let what = format!("seed {seed}, step {step}");
        apply_checked(&space, &mut m, a, &mut am, &what);
        let bad = am.audit(&m);
        assert!(
            bad.is_empty(),
            "cache unsound after {what} (`{}`): {}",
            space.pass(a).name(),
            bad.join("; ")
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random module, random 1–16 pass sequence: the cache must stay
    /// consistent with fresh recomputes after every single step.
    #[test]
    fn cached_analyses_equal_fresh_recomputes(
        seed in 0u64..50_000,
        actions in proptest::collection::vec(0usize..124, 1..16),
    ) {
        check_sequence(seed, &actions);
    }
}

/// One deterministic long walk through analysis-heavy passes (the ones
/// declaring `Preserved::Cfg` plus CFG restructurers), so the revalidate
/// and invalidate paths are both exercised even if the sampled cases above
/// land elsewhere.
#[test]
fn deterministic_analysis_heavy_walk() {
    let space = ActionSpace::new();
    let names = [
        "mem2reg",
        "gvn",
        "early-cse",
        "sink",
        "simplifycfg",
        "licm",
        "loop-unroll-4",
        "sccp",
        "instcombine",
        "dce",
        "jump-threading",
        "gvn",
        "adce",
        "simplifycfg-aggressive",
        "function-attrs",
        "inline-100",
        "globaldce",
        "dce",
    ];
    let actions: Vec<usize> = names
        .iter()
        .map(|n| space.index_of(n).expect("registry name"))
        .collect();
    for seed in [1u64, 7, 42] {
        check_sequence(seed, &actions);
    }
}

/// All 124 actions in registry order on each of the 23 cBench programs,
/// through one manager per program: every application moves exactly the
/// stamps of the functions it changed and keeps the rest shared.
#[test]
fn every_action_on_every_cbench_program_moves_exactly_the_changed_stamps() {
    std::thread::scope(|scope| {
        for half in cg_datasets::CBENCH.chunks(12) {
            scope.spawn(move || {
                let space = ActionSpace::new();
                for name in half {
                    let mut m = cg_datasets::benchmark(&format!("cbench-v1/{name}")).unwrap();
                    let mut am = AnalysisManager::new();
                    for a in 0..space.len() {
                        apply_checked(&space, &mut m, a, &mut am, name);
                    }
                }
            });
        }
    });
}

/// The no-op pass memo must be invisible in the produced IR: a repeated
/// sequence applied through a live manager (which skips memoized no-ops
/// wholesale) prints byte-identically to the always-recompute run, and the
/// skips actually fire.
#[test]
fn noop_memo_skips_preserve_printed_ir() {
    let space = ActionSpace::new();
    let index = |names: &[&str]| -> Vec<usize> {
        names.iter().map(|n| space.index_of(n).unwrap()).collect()
    };
    let converging: Vec<usize> = index(&["mem2reg", "gvn", "sccp", "dce", "simplifycfg", "adce"])
        .into_iter()
        .cycle()
        .take(24)
        .collect();
    // A 2-instruction callee too big for `inline-0` until `function-attrs`
    // marks it `hint(always)` — an edit of a public field that must start a
    // new content generation, or the memo skips the second inliner run.
    let hint_flip = cg_ir::parser::parse_module(
        "module \"hint-flip\"\n\
         define i64 @f1(i64 %0) {\nbb0:\n  %1 = add i64 %0, 1\n  ret %1\n}\n\
         define i64 @main() {\nbb0:\n  %0 = call i64 @f1(41)\n  ret %0\n}\n",
    )
    .unwrap();
    let cases = [
        (generate(3), converging),
        (
            hint_flip.clone(),
            index(&["inline-0", "function-attrs", "inline-0"]),
        ),
        (
            hint_flip,
            index(&["always-inline", "function-attrs", "always-inline"]),
        ),
    ];
    for (i, (m0, seq)) in cases.into_iter().enumerate() {
        let mut cached = m0.clone();
        let mut am = AnalysisManager::new();
        let skips = cg_ir::am::cache_stats().noop_skips;
        for &a in &seq {
            space.apply_with(&mut cached, a, &mut am);
        }
        if i == 0 {
            assert!(
                cg_ir::am::cache_stats().noop_skips > skips,
                "repeating a converged sequence never hit the memo"
            );
        }

        let mut plain = m0.clone();
        let mut off = AnalysisManager::disabled();
        for &a in &seq {
            space.apply_with(&mut plain, a, &mut off);
        }
        assert_eq!(
            cg_llvm::observation::ir_text(&cached),
            cg_llvm::observation::ir_text(&plain),
            "case {i}: memoized skips changed the produced IR"
        );
    }
}
