//! Fixed optimization pipelines: the `-O3` and `-Oz` orderings that serve
//! as reward baselines (§V-A: rewards "can optionally be scaled against the
//! gains achieved by the compiler's default phase orderings, -Oz for size
//! reduction and -O3 for runtime").

use cg_ir::Module;

use crate::pass::find_pass;

/// The `-O3` pipeline, in order: aggressive, runtime-focused.
const O3: &[&str] = &[
    "function-attrs",
    "always-inline",
    "inline-250",
    "sroa",
    "mem2reg",
    "early-cse-memssa",
    "instcombine",
    "reassociate",
    "simplifycfg",
    "ipsccp",
    "sccp",
    "jump-threading",
    "loop-simplify",
    "licm",
    "indvars",
    "loop-unroll-full-256",
    "loop-unroll-4",
    "strength-reduce",
    "gvn-pre",
    "dse",
    "load-elim",
    "instcombine",
    "adce",
    "loop-deletion",
    "simplifycfg-aggressive",
    "globaldce",
];

/// The `-Oz` pipeline, in order: size-focused.
const OZ: &[&str] = &[
    "function-attrs",
    "always-inline",
    "inline-25",
    "sroa",
    "mem2reg",
    "instcombine",
    "early-cse-memssa",
    "ipsccp",
    "sccp",
    "gvn",
    "reassociate",
    "instcombine",
    "dse",
    "load-elim",
    "adce",
    "phi-simplify",
    "loop-deletion",
    "jump-threading",
    "simplifycfg-aggressive",
    "mergefunc",
    "deadargelim",
    "globalopt",
    "globaldce",
    "instcombine",
    "adce",
    "simplifycfg-aggressive",
];

/// Runs a pipeline over a module. Unknown pass names panic (the pipelines
/// only reference registry passes, checked by tests).
///
/// One [`cg_ir::AnalysisManager`] persists across the whole sequence, so a
/// pass whose predecessor left a function (or its CFG shape) unchanged
/// reuses the cached dominator tree and loop forest instead of recomputing.
fn run_pipeline(module: &mut Module, names: &[&str]) -> bool {
    let mut am = cg_ir::AnalysisManager::new();
    let mut changed = false;
    for name in names {
        let pass = find_pass(name).unwrap_or_else(|| panic!("unknown pass `{name}`"));
        changed |= crate::pass::run_pass_with(pass.as_ref(), module, &mut am).changed;
    }
    changed
}

/// Runs the `-Oz` size pipeline (the baseline for size rewards).
pub fn run_oz(module: &mut Module) -> bool {
    run_pipeline(module, OZ)
}

/// Runs the `-O3` pipeline (the baseline for runtime rewards).
pub fn run_o3(module: &mut Module) -> bool {
    run_pipeline(module, O3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_ir::interp::{run_main, ExecLimits};
    use cg_ir::verify::verify_module;

    #[test]
    fn all_pipeline_pass_names_resolve() {
        for (level, names) in [("O3", O3), ("Oz", OZ)] {
            for name in names {
                assert!(
                    find_pass(name).is_some(),
                    "{level} references unknown `{name}`"
                );
            }
        }
    }

    #[test]
    fn oz_shrinks_cbench() {
        // The size pipeline must actually reduce instruction counts on real
        // benchmarks (it is the denominator of every size-reward experiment).
        let mut total_before = 0usize;
        let mut total_after = 0usize;
        for name in ["crc32", "qsort", "sha", "bitcount", "gsm"] {
            let mut m = cg_datasets::benchmark(&format!("cbench-v1/{name}")).unwrap();
            let before = m.inst_count();
            run_oz(&mut m);
            verify_module(&m).unwrap();
            let after = m.inst_count();
            assert!(after <= before, "{name}: Oz grew the module");
            total_before += before;
            total_after += after;
        }
        assert!(
            (total_after as f64) < 0.9 * total_before as f64,
            "Oz only achieved {total_before} -> {total_after}"
        );
    }

    #[test]
    fn o3_reduces_cycles_on_cbench() {
        let mut m = cg_datasets::benchmark("cbench-v1/sha").unwrap();
        let before = run_main(&m, &ExecLimits::default()).unwrap();
        run_o3(&mut m);
        verify_module(&m).unwrap();
        let after = run_main(&m, &ExecLimits::default()).unwrap();
        assert_eq!(before.ret, after.ret, "O3 broke sha");
        assert!(
            after.cycles < before.cycles,
            "O3 did not speed up sha: {} -> {}",
            before.cycles,
            after.cycles
        );
    }

    #[test]
    fn pipelines_preserve_semantics_across_cbench() {
        let limits = ExecLimits::default();
        for name in cg_datasets::CBENCH {
            let m = cg_datasets::benchmark(&format!("cbench-v1/{name}")).unwrap();
            let reference = run_main(&m, &limits).unwrap();
            for (level, names) in [("O3", O3), ("Oz", OZ)] {
                let mut opt = m.clone();
                run_pipeline(&mut opt, names);
                verify_module(&opt).unwrap_or_else(|e| panic!("{name} under {level}: {e}"));
                let out = run_main(&opt, &limits)
                    .unwrap_or_else(|e| panic!("{name} under {level} trapped: {e}"));
                assert_eq!(out.ret, reference.ret, "{name} under {level}");
            }
        }
    }
}
