//! The discrete action space of the LLVM phase-ordering environment.
//!
//! 124 actions, one per registry pass (mirroring the paper's 124 passes
//! "extracted automatically from LLVM"). The quarantined nondeterministic
//! [`crate::passes::gvn::GvnSink`] is deliberately **not** part of the
//! space, matching the paper's removal of `-gvn-sink` after state
//! validation exposed it.

use crate::pass::{registry, run_pass_with, PassEffect, PassRef};
use cg_ir::AnalysisManager;

/// The discrete action space: an indexed list of passes.
#[derive(Debug, Clone)]
pub struct ActionSpace {
    passes: Vec<PassRef>,
}

impl Default for ActionSpace {
    fn default() -> ActionSpace {
        ActionSpace::new()
    }
}

impl ActionSpace {
    /// Builds the full 124-action space.
    pub fn new() -> ActionSpace {
        ActionSpace { passes: registry() }
    }

    /// Number of actions.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// True if the space is empty (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// The pass behind action index `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn pass(&self, i: usize) -> &PassRef {
        &self.passes[i]
    }

    /// Action names, in index order.
    pub fn names(&self) -> Vec<String> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// The index of a named action.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.passes.iter().position(|p| p.name() == name)
    }

    /// Applies action `i` to the module, returning whether it changed.
    ///
    /// Every application accrues into the global per-pass profile
    /// (invocations, cumulative wall time, instruction-count delta) and
    /// emits a `pass:<name>` trace event, so `cg stats` can attribute
    /// optimization time to individual passes.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn apply(&self, module: &mut cg_ir::Module, i: usize) -> bool {
        self.apply_tracked(module, i).changed
    }

    /// Like [`ActionSpace::apply`], but additionally reports which functions
    /// the pass touched, derived from the stamps that moved (the
    /// invalidation signal for incremental observations). Same telemetry
    /// side effects as `apply`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn apply_tracked(&self, module: &mut cg_ir::Module, i: usize) -> PassEffect {
        self.apply_with(module, i, &mut AnalysisManager::new())
    }

    /// Like [`ActionSpace::apply_tracked`], but runs against a caller-owned
    /// [`AnalysisManager`]. A session that keeps one manager across actions
    /// lets each pass reuse CFG/dominator/loop analyses computed by its
    /// predecessors, and skips a pass already known to be a no-op on this
    /// content ([`run_pass_with`] does both).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn apply_with(
        &self,
        module: &mut cg_ir::Module,
        i: usize,
        am: &mut AnalysisManager,
    ) -> PassEffect {
        let pass = &self.passes[i];
        let before = module.inst_count() as i64;
        // A real span (not a flat emit): when the application runs under a
        // service dispatch span, the per-pass timing lands in the step's
        // span tree, attributable across the RPC boundary.
        let mut span = cg_telemetry::global()
            .trace
            .span(format!("pass:{}", pass.name()));
        let timer = cg_telemetry::Timer::start();
        let effect = run_pass_with(pass.as_ref(), module, am);
        let dur = timer.elapsed();
        let delta = module.inst_count() as i64 - before;
        span.set_detail(format!("delta={delta}"));
        span.attr("changed", effect.changed.to_string());
        span.finish();
        let tel = cg_telemetry::global();
        tel.passes
            .get(&pass.name())
            .record(dur, effect.changed, delta);
        effect
    }
}

/// The 42-action subset used to replicate the Autophase environment in the
/// paper's RL experiments (§VII-G: "42 actions (out of 124 total)").
pub fn autophase_subset() -> &'static [&'static str] {
    &[
        "dce",
        "adce",
        "die",
        "constfold",
        "instcombine",
        "instsimplify",
        "reassociate",
        "early-cse",
        "early-cse-memssa",
        "sink",
        "phi-simplify",
        "strength-reduce",
        "simplifycfg",
        "simplifycfg-aggressive",
        "remove-unreachable",
        "merge-blocks",
        "fold-branches",
        "lowerswitch",
        "jump-threading",
        "break-crit-edges",
        "mergereturn",
        "mem2reg",
        "sroa",
        "dse",
        "globalopt",
        "load-elim",
        "gvn",
        "gvn-pre",
        "newgvn",
        "sccp",
        "ipsccp",
        "loop-simplify",
        "licm",
        "loop-deletion",
        "indvars",
        "loop-unroll-4",
        "loop-unroll-full-64",
        "loop-peel-1",
        "inline-100",
        "always-inline",
        "deadargelim",
        "globaldce",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_has_124_actions() {
        let space = ActionSpace::new();
        assert_eq!(space.len(), 124);
        assert!(!space.is_empty());
    }

    #[test]
    fn gvn_sink_is_quarantined() {
        let space = ActionSpace::new();
        assert_eq!(space.index_of("gvn-sink"), None);
    }

    #[test]
    fn autophase_subset_is_42_valid_actions() {
        let space = ActionSpace::new();
        let subset = autophase_subset();
        assert_eq!(subset.len(), 42);
        for name in subset {
            assert!(space.index_of(name).is_some(), "missing action {name}");
        }
    }

    #[test]
    fn apply_by_index() {
        let space = ActionSpace::new();
        let mut m = cg_datasets::benchmark("cbench-v1/qsort").unwrap();
        let idx = space.index_of("mem2reg").unwrap();
        space.apply(&mut m, idx);
        cg_ir::verify::verify_module(&m).unwrap();
    }
}
