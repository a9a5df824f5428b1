//! The [`Pass`] abstraction and the pass registry.

use cg_ir::{AnalysisManager, FuncId, Module};
use std::fmt;
use std::sync::Arc;

/// Which functions a pass invocation may have modified.
///
/// This is the contract behind incremental observations: per-function
/// feature vectors (`InstCount`, `Autophase`) stay valid for every function
/// *not* named here. A pass that cannot bound its effect must report
/// [`Touched::All`]; over-approximation is always sound, under-approximation
/// is a correctness bug (caught by the debug-assert cross-check against full
/// recomputation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Touched {
    /// No function was modified (the pass was a no-op).
    None,
    /// Exactly these functions may have been modified. Function-local
    /// passes report the precise set.
    Funcs(Vec<FuncId>),
    /// Anything may have changed, including the set of functions itself
    /// (inlining, function deletion, global rewrites).
    All,
}

impl Touched {
    /// Whether `id` may have been modified.
    pub fn contains(&self, id: FuncId) -> bool {
        match self {
            Touched::None => false,
            Touched::Funcs(ids) => ids.contains(&id),
            Touched::All => true,
        }
    }

    /// Merges another effect into this one (set union, saturating at `All`).
    pub fn merge(&mut self, other: Touched) {
        match (&mut *self, other) {
            (Touched::All, _) | (_, Touched::None) => {}
            (_, Touched::All) => *self = Touched::All,
            (Touched::None, o) => *self = o,
            (Touched::Funcs(a), Touched::Funcs(b)) => {
                for id in b {
                    if !a.contains(&id) {
                        a.push(id);
                    }
                }
            }
        }
    }
}

/// The result of one tracked pass invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassEffect {
    /// Whether the module was changed at all.
    pub changed: bool,
    /// Which functions may have been modified.
    pub touched: Touched,
}

impl PassEffect {
    /// An invocation that changed nothing.
    pub fn unchanged() -> PassEffect {
        PassEffect {
            changed: false,
            touched: Touched::None,
        }
    }

    /// The conservative effect: if `changed`, anything may differ.
    pub fn whole_module(changed: bool) -> PassEffect {
        PassEffect {
            changed,
            touched: if changed { Touched::All } else { Touched::None },
        }
    }

    /// A function-local effect touching exactly `funcs` (empty → unchanged).
    pub fn funcs(funcs: Vec<FuncId>) -> PassEffect {
        if funcs.is_empty() {
            PassEffect::unchanged()
        } else {
            PassEffect {
                changed: true,
                touched: Touched::Funcs(funcs),
            }
        }
    }
}

/// Which cached analyses a pass leaves valid for the functions it *did*
/// modify. (Functions a pass reports untouched always keep their analyses.)
///
/// Over-claiming preservation is a soundness bug — the analysis-cache
/// soundness property test compares every cached analysis against a fresh
/// recompute after each pass, so a wrong declaration fails loudly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Preserved {
    /// Nothing: all cached analyses for touched functions are dropped.
    /// Always sound; the default.
    #[default]
    None,
    /// CFG shape: the pass rewrites instructions but never terminators,
    /// layout order or the block set, so `Cfg`, dominators, frontiers and
    /// the loop forest stay valid; value-level analyses (liveness, def-use)
    /// are dropped.
    Cfg,
    /// Everything: the pass changes no IR structure analyses depend on
    /// (e.g. it only flips function attributes).
    All,
}

/// An optimization pass: a named module transformation.
///
/// Passes must be deterministic (the state-validation machinery replays
/// action sequences and compares module hashes) — the deliberately broken
/// [`crate::passes::gvn::GvnSink`] is the one exception, mirroring the
/// `-gvn-sink` nondeterminism bug the paper found in LLVM.
///
/// Implement exactly one of `run` or `run_with` (the other is defaulted in
/// terms of it). Function-local passes implement `run_with` to report the
/// precise set of modified functions and to fetch CFG/dominator/loop
/// analyses from the shared [`AnalysisManager`] instead of recomputing
/// them; module-restructuring passes (inlining, global rewrites) implement
/// `run` and inherit the conservative [`Touched::All`]-when-changed effect.
pub trait Pass: Send + Sync {
    /// The pass name as it appears in the action space (kebab-case, possibly
    /// with a parameter suffix, e.g. `inline-250`).
    fn name(&self) -> String;

    /// Runs the pass. Returns `true` if the module was changed.
    fn run(&self, module: &mut Module) -> bool {
        self.run_with(module, &mut AnalysisManager::new()).changed
    }

    /// Runs the pass against a shared analysis cache. The pass may consume
    /// cached analyses; it must not reconcile the cache afterwards — the
    /// runner does that from the returned effect and [`Pass::preserved`]
    /// (see [`run_pass_with`]).
    fn run_with(&self, module: &mut Module, am: &mut AnalysisManager) -> PassEffect {
        let _ = am;
        PassEffect::whole_module(self.run(module))
    }

    /// Which analyses survive this pass for the functions it modified.
    fn preserved(&self) -> Preserved {
        Preserved::None
    }

    /// A one-line description for `--help`-style listings.
    fn description(&self) -> String {
        String::new()
    }
}

/// Runs `pass` against `am`, then reconciles the cache with the reported
/// effect: analyses of untouched functions are revalidated (their stamps
/// moved during scanning, their content did not), touched functions keep
/// whatever [`Pass::preserved`] declares, and module-restructuring effects
/// ([`Touched::All`]) flush the cache entirely.
pub fn run_pass_with(pass: &dyn Pass, m: &mut Module, am: &mut AnalysisManager) -> PassEffect {
    let name = pass.name();
    // No-op memo: if this pass already ran on byte-identical content and
    // changed nothing, skip the whole application (scan included).
    if am.known_noop(&name, m) {
        return PassEffect::unchanged();
    }
    let effect = pass.run_with(m, am);
    reconcile_analyses(m, am, &effect, pass.preserved());
    if !effect.changed {
        am.note_noop(&name, m);
    }
    effect
}

/// The cache-reconciliation half of [`run_pass_with`].
fn reconcile_analyses(
    m: &Module,
    am: &mut AnalysisManager,
    effect: &PassEffect,
    preserved: Preserved,
) {
    match &effect.touched {
        Touched::None => {
            for &fid in m.func_ids() {
                am.revalidate(fid, m.func(fid));
            }
        }
        Touched::Funcs(touched) => {
            for &fid in m.func_ids() {
                if touched.contains(&fid) {
                    match preserved {
                        Preserved::None => am.invalidate(fid),
                        Preserved::Cfg => am.preserve_cfg(fid, m.func(fid)),
                        Preserved::All => am.revalidate(fid, m.func(fid)),
                    }
                } else {
                    am.revalidate(fid, m.func(fid));
                }
            }
        }
        Touched::All => match preserved {
            Preserved::All => {
                for &fid in m.func_ids() {
                    am.revalidate(fid, m.func(fid));
                }
            }
            _ => am.invalidate_all(),
        },
    }
}

impl fmt::Debug for dyn Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pass({})", self.name())
    }
}

/// A shared, clonable handle to a pass.
pub type PassRef = Arc<dyn Pass>;

/// Builds the full pass registry: every distinct pass object, including
/// parameterized variants. See [`crate::action_space`] for the 124-entry
/// action space assembled from this registry.
pub fn registry() -> Vec<PassRef> {
    use crate::passes::*;
    let mut v: Vec<PassRef> = vec![
        // Scalar cleanups (12).
        Arc::new(scalar::Dce),
        Arc::new(scalar::Adce),
        Arc::new(scalar::Die),
        Arc::new(scalar::ConstFold),
        Arc::new(scalar::InstCombine::full()),
        Arc::new(scalar::InstCombine::simplify_only()),
        Arc::new(scalar::Reassociate),
        Arc::new(scalar::EarlyCse),
        Arc::new(scalar::EarlyCseMemssa),
        Arc::new(scalar::Sink),
        Arc::new(scalar::PhiSimplify),
        Arc::new(scalar::StrengthReduce),
        // CFG (9).
        Arc::new(cfg::SimplifyCfg::default()),
        Arc::new(cfg::SimplifyCfg::aggressive()),
        Arc::new(cfg::RemoveUnreachable),
        Arc::new(cfg::MergeBlocks),
        Arc::new(cfg::FoldBranches),
        Arc::new(cfg::LowerSwitch),
        Arc::new(cfg::JumpThreading),
        Arc::new(cfg::BreakCritEdges),
        Arc::new(cfg::MergeReturn),
        // Memory (4 + 8 SROA granularities below).
        Arc::new(memory::Mem2Reg),
        Arc::new(memory::Dse),
        Arc::new(memory::GlobalOpt),
        Arc::new(memory::LoadElim),
    ];
    for max in [4u32, 6, 8, 12, 16, 24, 32, 64] {
        v.push(Arc::new(memory::Sroa::with_max_slots(max)));
    }

    // Value numbering (3).
    v.push(Arc::new(gvn::Gvn::default()));
    v.push(Arc::new(gvn::Gvn::with_loads()));
    v.push(Arc::new(gvn::NewGvnAlias));

    // Constant propagation (2).
    v.push(Arc::new(sccp::Sccp));
    v.push(Arc::new(sccp::IpSccp));

    // Loops (4 + 16 partial-unroll + 16 full-unroll + 16 peel).
    v.push(Arc::new(loops::LoopSimplify));
    v.push(Arc::new(loops::Licm));
    v.push(Arc::new(loops::LoopDeletion));
    v.push(Arc::new(loops::IndVarSimplify));
    for factor in [2u32, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 32] {
        v.push(Arc::new(loops::LoopUnroll::partial(factor)));
    }
    for cap in [
        8u64, 12, 16, 24, 32, 48, 64, 80, 96, 128, 160, 192, 256, 384, 512, 1024,
    ] {
        v.push(Arc::new(loops::LoopUnroll::full(cap)));
    }
    for k in 1u32..=16 {
        v.push(Arc::new(loops::LoopPeel::new(k)));
    }

    // Interprocedural (5 + 29 inline thresholds).
    v.push(Arc::new(ipo::AlwaysInline));
    v.push(Arc::new(ipo::FunctionAttrs));
    v.push(Arc::new(ipo::DeadArgElim));
    v.push(Arc::new(ipo::GlobalDce));
    v.push(Arc::new(ipo::MergeFunc));
    for threshold in [
        0u32, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 60, 70, 80, 90, 100, 120, 140, 160, 180, 200,
        225, 250, 275, 300, 400, 500, 750, 1000,
    ] {
        v.push(Arc::new(ipo::Inline::with_threshold(threshold)));
    }

    v
}

/// Looks up a pass by name in the registry.
pub fn find_pass(name: &str) -> Option<PassRef> {
    registry().into_iter().find(|p| p.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_124_passes() {
        // The paper's LLVM environment exposes 124 actions; our registry is
        // sized to match (see action_space.rs for the mapping).
        assert_eq!(registry().len(), 124);
    }

    #[test]
    fn registry_names_are_unique() {
        let names: Vec<String> = registry().iter().map(|p| p.name()).collect();
        let mut deduped = names.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(names.len(), deduped.len(), "duplicate pass names");
    }

    #[test]
    fn find_pass_by_name() {
        assert!(find_pass("dce").is_some());
        assert!(find_pass("inline-250").is_some());
        assert!(find_pass("no-such-pass").is_none());
    }

    #[test]
    fn every_pass_preserves_validity_on_cbench() {
        // The fundamental pass contract: run on a real benchmark, the module
        // must still verify.
        let base = cg_datasets::benchmark("cbench-v1/qsort").unwrap();
        for pass in registry() {
            let mut m = base.clone();
            pass.run(&mut m);
            cg_ir::verify::verify_module(&m)
                .unwrap_or_else(|e| panic!("{} broke the module: {e}", pass.name()));
        }
    }

    #[test]
    fn every_pass_preserves_semantics_on_cbench() {
        use cg_ir::interp::{run_main, ExecLimits};
        let base = cg_datasets::benchmark("cbench-v1/bitcount").unwrap();
        let limits = ExecLimits::default();
        let reference = run_main(&base, &limits).unwrap();
        for pass in registry() {
            let mut m = base.clone();
            pass.run(&mut m);
            let out = run_main(&m, &limits)
                .unwrap_or_else(|e| panic!("{} made the program trap: {e}", pass.name()));
            assert_eq!(out.ret, reference.ret, "{} changed the result", pass.name());
            assert_eq!(
                out.globals_hash,
                reference.globals_hash,
                "{} changed observable memory",
                pass.name()
            );
        }
    }
}
