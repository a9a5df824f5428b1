//! The [`Pass`] abstraction and the pass registry.
//!
//! A pass edits the module and returns nothing. What it changed is read
//! off the stamps by [`run_pass_with`]: every edit of a function moves that
//! function's [`cg_ir::Stamp`] and nothing else does, and the module's own
//! stamp moves when the function set or the globals change. So a pass
//! borrows mutably only a function it is about to edit — through
//! [`cg_ir::FuncEdit`] (see [`crate::util::for_each_function`]) or
//! [`Module::func_mut`] — and a function it only looked at stays
//! untouched: shared with every snapshot, its analyses cached, its
//! features clean.

use cg_ir::{AnalysisManager, FuncId, Module};
use std::fmt;
use std::sync::Arc;

/// Which functions a pass invocation modified. [`run_pass_with`] derives
/// it from the stamps that moved, so it is exact. Per-function caches do
/// not need it: they check the stamps themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Touched {
    /// No function was modified (the pass was a no-op).
    None,
    /// Exactly these functions were modified.
    Funcs(Vec<FuncId>),
    /// The function set or the globals changed (function deletion, global
    /// rewrites), so anything may differ.
    All,
}

/// The result of one tracked pass invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassEffect {
    /// Whether the module was changed at all.
    pub changed: bool,
    /// Which functions were modified.
    pub touched: Touched,
}

/// Which cached analyses a pass leaves valid for the functions it *did*
/// modify. (Functions a pass did not edit always keep their analyses.)
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
/// [`Pass::run_with`] is the one required method. It may fetch CFG,
/// dominator and loop analyses from the shared [`AnalysisManager`], and it
/// must write to a function only to change it (see the module docs).
pub trait Pass: Send + Sync {
    /// The pass name as it appears in the action space (kebab-case, possibly
    /// with a parameter suffix, e.g. `inline-250`).
    fn name(&self) -> String;

    /// Runs the pass against a shared analysis cache. The pass must not
    /// reconcile the cache afterwards — [`run_pass_with`] does that from
    /// the stamps that moved and [`Pass::preserved`].
    fn run_with(&self, module: &mut Module, am: &mut AnalysisManager);

    /// Runs the pass with a fresh analysis cache. Returns `true` if the
    /// module was changed.
    fn run(&self, module: &mut Module) -> bool {
        run_pass_with(self, module, &mut AnalysisManager::new()).changed
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

/// Runs `pass` against `am` and derives its effect from the stamps: the
/// functions whose stamp moved (or that are gone) were touched, and a moved
/// module stamp means the function set or the globals changed
/// ([`Touched::All`]). Each touched function keeps whatever analyses
/// [`Pass::preserved`] declares; every other function keeps all of them.
pub fn run_pass_with<P: Pass + ?Sized>(
    pass: &P,
    m: &mut Module,
    am: &mut AnalysisManager,
) -> PassEffect {
    run_named(pass, &pass.name(), m, am)
}

/// [`run_pass_with`] for a caller that already holds `pass.name()`.
pub(crate) fn run_named<P: Pass + ?Sized>(
    pass: &P,
    name: &str,
    m: &mut Module,
    am: &mut AnalysisManager,
) -> PassEffect {
    // No-op memo: if this pass already ran on byte-identical content and
    // changed nothing, skip the whole application (scan included).
    if am.known_noop(name, m) {
        return PassEffect {
            changed: false,
            touched: Touched::None,
        };
    }
    let module_stamp = m.stamp();
    let before: Vec<_> = m
        .func_ids()
        .iter()
        .map(|&f| (f, m.func(f).stamp()))
        .collect();
    pass.run_with(m, am);
    let touched: Vec<FuncId> = before
        .into_iter()
        .filter(|&(fid, stamp)| !m.func_exists(fid) || m.func(fid).stamp() != stamp)
        .map(|(fid, _)| fid)
        .collect();
    for &fid in &touched {
        if !m.func_exists(fid) {
            am.invalidate(fid);
            continue;
        }
        match pass.preserved() {
            Preserved::None => am.invalidate(fid),
            Preserved::Cfg => am.preserve_cfg(fid, m.func(fid)),
            Preserved::All => am.revalidate(fid, m.func(fid)),
        }
    }
    if m.stamp() != module_stamp {
        PassEffect {
            changed: true,
            touched: Touched::All,
        }
    } else if touched.is_empty() {
        am.note_noop(name, m);
        PassEffect {
            changed: false,
            touched: Touched::None,
        }
    } else {
        PassEffect {
            changed: true,
            touched: Touched::Funcs(touched),
        }
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

/// The registry with each pass's name, built once per process.
pub(crate) fn named_registry() -> &'static [(String, PassRef)] {
    static NAMED: std::sync::OnceLock<Vec<(String, PassRef)>> = std::sync::OnceLock::new();
    NAMED.get_or_init(|| registry().into_iter().map(|p| (p.name(), p)).collect())
}

/// Looks up a pass by name in the registry.
pub fn find_pass(name: &str) -> Option<PassRef> {
    named_registry()
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, p)| Arc::clone(p))
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
