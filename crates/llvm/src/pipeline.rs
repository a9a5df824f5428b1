//! Fixed optimization pipelines: the `-O0`/`-O1`/`-O2`/`-O3`/`-Oz`
//! orderings that serve as reward baselines (§V-A: rewards "can optionally
//! be scaled against the gains achieved by the compiler's default phase
//! orderings, -Oz for size reduction and -O3 for runtime").

use cg_ir::Module;

use crate::pass::find_pass;

/// Pass sequences by optimization level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptLevel {
    /// No optimization.
    O0,
    /// Light cleanup.
    O1,
    /// Standard optimization.
    O2,
    /// Aggressive, runtime-focused optimization.
    O3,
    /// Size-focused optimization.
    Oz,
}

impl OptLevel {
    /// The pass names of this level's pipeline, in order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        match self {
            OptLevel::O0 => vec![],
            OptLevel::O1 => vec![
                "mem2reg",
                "instcombine",
                "simplifycfg",
                "early-cse",
                "sccp",
                "dce",
                "simplifycfg",
            ],
            OptLevel::O2 => vec![
                "function-attrs",
                "always-inline",
                "inline-100",
                "sroa",
                "mem2reg",
                "early-cse-memssa",
                "instcombine",
                "simplifycfg",
                "sccp",
                "jump-threading",
                "loop-simplify",
                "licm",
                "gvn",
                "dse",
                "load-elim",
                "instcombine",
                "adce",
                "simplifycfg-aggressive",
            ],
            OptLevel::O3 => vec![
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
            ],
            OptLevel::Oz => vec![
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
            ],
        }
    }
}

/// Runs a sequence of named passes over a module. Unknown names panic (the
/// pipelines only reference registry passes, checked by tests).
///
/// One [`cg_ir::AnalysisManager`] persists across the whole sequence, so a
/// pass whose predecessor left a function (or its CFG shape) unchanged
/// reuses the cached dominator tree and loop forest instead of recomputing.
pub fn run_passes(module: &mut Module, names: &[&str]) -> bool {
    let mut am = cg_ir::AnalysisManager::new();
    run_passes_with(module, names, &mut am)
}

/// Like [`run_passes`], but against a caller-supplied analysis manager.
///
/// Callers that run several pipelines over the same module (searchers,
/// benchmark harnesses) can keep one manager alive across calls; passing
/// [`cg_ir::AnalysisManager::disabled`] instead measures the
/// always-recompute cost (the `--no-analysis-cache` mode of `cg stats`).
pub fn run_passes_with(
    module: &mut Module,
    names: &[&str],
    am: &mut cg_ir::AnalysisManager,
) -> bool {
    let mut changed = false;
    for name in names {
        let pass = find_pass(name).unwrap_or_else(|| panic!("unknown pass `{name}`"));
        changed |= crate::pass::run_pass_with(pass.as_ref(), module, am).changed;
    }
    changed
}

/// Runs a sequence of named passes, failing fast instead of panicking.
///
/// Used by reproducer replay (`cg-difftest`), where pipelines come from
/// checked-in JSON files rather than compile-time constants: an unknown pass
/// name (e.g. after a registry rename) must surface as an error the
/// regression runner can report, not a panic.
pub fn try_run_passes(module: &mut Module, names: &[String]) -> Result<bool, String> {
    let mut am = cg_ir::AnalysisManager::new();
    let mut changed = false;
    for name in names {
        let pass = find_pass(name).ok_or_else(|| format!("unknown pass `{name}`"))?;
        changed |= crate::pass::run_pass_with(pass.as_ref(), module, &mut am).changed;
    }
    Ok(changed)
}

/// Runs the pipeline for `level` over a module.
pub fn run_level(module: &mut Module, level: OptLevel) -> bool {
    run_passes(module, &level.pass_names())
}

/// Runs the `-Oz` size pipeline (the baseline for size rewards).
pub fn run_oz(module: &mut Module) -> bool {
    run_level(module, OptLevel::Oz)
}

/// Runs the `-O3` pipeline (the baseline for runtime rewards).
pub fn run_o3(module: &mut Module) -> bool {
    run_level(module, OptLevel::O3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_ir::interp::{run_main, ExecLimits};
    use cg_ir::verify::verify_module;

    #[test]
    fn all_pipeline_pass_names_resolve() {
        for level in [
            OptLevel::O0,
            OptLevel::O1,
            OptLevel::O2,
            OptLevel::O3,
            OptLevel::Oz,
        ] {
            for name in level.pass_names() {
                assert!(
                    find_pass(name).is_some(),
                    "{level:?} references unknown `{name}`"
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
            for level in [OptLevel::O1, OptLevel::O2, OptLevel::Oz] {
                let mut opt = m.clone();
                run_level(&mut opt, level);
                verify_module(&opt).unwrap_or_else(|e| panic!("{name} under {level:?}: {e}"));
                let out = run_main(&opt, &limits)
                    .unwrap_or_else(|e| panic!("{name} under {level:?} trapped: {e}"));
                assert_eq!(out.ret, reference.ret, "{name} under {level:?}");
            }
        }
    }
}
