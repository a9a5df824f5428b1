//! The per-function analysis cache.
//!
//! [`AnalysisManager`] caches [`Cfg`], [`DomTree`], dominance frontiers, the
//! loop forest, [`Liveness`] and [`DefUse`] per function, keyed by
//! [`FuncId`] and validated by the owning function's modification [`Stamp`]:
//! a cached entry is served only while its recorded stamp still equals the
//! function's current one. A stamp moves exactly when its function changes,
//! so a function no pass edited keeps everything cached for it, and an
//! edited one loses everything — unless the pass runner, told what the pass
//! preserves, keeps part of it:
//!
//! * [`AnalysisManager::revalidate`] — re-adopt the current stamp without
//!   dropping anything. Sound for a pass that changes nothing analyses
//!   depend on (it only flips function attributes).
//! * [`AnalysisManager::preserve_cfg`] — keep the CFG-shape analyses (cfg,
//!   dominators, frontiers, loops) but drop the value-level ones (liveness,
//!   def-use). Sound for passes that rewrite instructions without touching
//!   terminators or layout.
//!
//! The same stamps name module contents for the no-op pass memo
//! ([`AnalysisManager::known_noop`]): an unchanged (function id, stamp)
//! fingerprint proves every function is byte-identical.
//!
//! Results are returned as [`Arc`]s so callers can hold an analysis across
//! subsequent mutations of the function (the cache entry is invalidated,
//! the Arc keeps the data alive).
//!
//! Hit/miss/invalidation totals accrue into process-wide counters
//! ([`cache_stats`]) surfaced by `cg stats`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::analysis::{find_loops, Cfg, DefUse, DomTree, Liveness, Loop};
use crate::module::{BlockId, FuncId, Function, Stamp};

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static INVALIDATIONS: AtomicU64 = AtomicU64::new(0);
static NOOP_SKIPS: AtomicU64 = AtomicU64::new(0);

/// Process-wide analysis cache totals (all managers combined).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests served from a valid cached entry.
    pub hits: u64,
    /// Requests that had to compute the analysis.
    pub misses: u64,
    /// Cached analyses discarded because their function's stamp moved.
    pub invalidations: u64,
    /// Whole pass applications skipped by the no-op memo (the pass already
    /// ran on byte-identical content and changed nothing).
    pub noop_skips: u64,
}

impl CacheStats {
    /// Hit rate in [0, 1]; 0 when there were no requests.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Reads the process-wide cache counters.
pub fn cache_stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        invalidations: INVALIDATIONS.load(Ordering::Relaxed),
        noop_skips: NOOP_SKIPS.load(Ordering::Relaxed),
    }
}

/// Resets the process-wide cache counters (benchmarks and tests).
pub fn reset_cache_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    INVALIDATIONS.store(0, Ordering::Relaxed);
    NOOP_SKIPS.store(0, Ordering::Relaxed);
}

/// Cached analyses for one function, valid while `stamp` matches.
#[derive(Debug, Default, Clone)]
struct FuncEntry {
    stamp: Option<Stamp>,
    cfg: Option<Arc<Cfg>>,
    dom: Option<Arc<DomTree>>,
    frontiers: Option<Arc<Vec<Vec<BlockId>>>>,
    loops: Option<Arc<Vec<Loop>>>,
    liveness: Option<Arc<Liveness>>,
    defuse: Option<Arc<DefUse>>,
}

impl FuncEntry {
    fn cached_count(&self) -> u64 {
        self.cfg.is_some() as u64
            + self.dom.is_some() as u64
            + self.frontiers.is_some() as u64
            + self.loops.is_some() as u64
            + self.liveness.is_some() as u64
            + self.defuse.is_some() as u64
    }

    fn clear(&mut self) {
        INVALIDATIONS.fetch_add(self.cached_count(), Ordering::Relaxed);
        *self = FuncEntry::default();
    }
}

/// The per-function analysis cache; see the module docs.
#[derive(Debug, Default, Clone)]
pub struct AnalysisManager {
    entries: HashMap<u32, FuncEntry>,
    enabled: bool,
    /// Content generation for the no-op pass memo: bumped whenever the
    /// module's stamp fingerprint stops matching `gen_key`. Two moments
    /// with the same generation hold byte-identical functions.
    gen: u64,
    /// The (function id, stamp) fingerprint at which `gen` was established.
    gen_key: Vec<(u32, Stamp)>,
    /// Pass name → last content generation on which it reported no change.
    noop: HashMap<String, u64>,
}

impl AnalysisManager {
    /// A new, enabled manager.
    pub fn new() -> AnalysisManager {
        AnalysisManager {
            enabled: true,
            ..AnalysisManager::default()
        }
    }

    /// A manager that never caches and never memoizes: every request
    /// recomputes. The control arm for tests and benchmarks.
    pub fn disabled() -> AnalysisManager {
        AnalysisManager::default()
    }

    /// True if this manager caches at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The entry for `fid`, cleared first if its stamp is stale.
    fn entry(&mut self, fid: FuncId, f: &Function) -> &mut FuncEntry {
        let e = self.entries.entry(fid.0).or_default();
        if e.stamp != Some(f.stamp()) {
            e.clear();
            e.stamp = Some(f.stamp());
        }
        e
    }

    /// The CFG of `f` (cached).
    pub fn cfg(&mut self, fid: FuncId, f: &Function) -> Arc<Cfg> {
        if !self.enabled {
            MISSES.fetch_add(1, Ordering::Relaxed);
            return Arc::new(Cfg::compute(f));
        }
        let e = self.entry(fid, f);
        if let Some(cfg) = &e.cfg {
            HITS.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(cfg);
        }
        MISSES.fetch_add(1, Ordering::Relaxed);
        let cfg = Arc::new(Cfg::compute(f));
        e.cfg = Some(Arc::clone(&cfg));
        cfg
    }

    /// The dominator tree of `f` (cached; computes the CFG on demand).
    pub fn dom(&mut self, fid: FuncId, f: &Function) -> Arc<DomTree> {
        if !self.enabled {
            MISSES.fetch_add(1, Ordering::Relaxed);
            let cfg = self.cfg(fid, f);
            return Arc::new(DomTree::compute(f, &cfg));
        }
        if let Some(dom) = &self.entry(fid, f).dom {
            HITS.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(dom);
        }
        MISSES.fetch_add(1, Ordering::Relaxed);
        let cfg = self.cfg(fid, f);
        let dom = Arc::new(DomTree::compute(f, &cfg));
        self.entry(fid, f).dom = Some(Arc::clone(&dom));
        dom
    }

    /// The dominance frontiers of `f` (cached), dense by `BlockId.0`.
    pub fn frontiers(&mut self, fid: FuncId, f: &Function) -> Arc<Vec<Vec<BlockId>>> {
        if !self.enabled {
            MISSES.fetch_add(1, Ordering::Relaxed);
            let cfg = self.cfg(fid, f);
            let dom = DomTree::compute(f, &cfg);
            return Arc::new(dom.dominance_frontiers(&cfg));
        }
        if let Some(df) = &self.entry(fid, f).frontiers {
            HITS.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(df);
        }
        MISSES.fetch_add(1, Ordering::Relaxed);
        let cfg = self.cfg(fid, f);
        let dom = self.dom(fid, f);
        let df = Arc::new(dom.dominance_frontiers(&cfg));
        self.entry(fid, f).frontiers = Some(Arc::clone(&df));
        df
    }

    /// The natural-loop forest of `f` (cached), in decreasing-depth order.
    pub fn loops(&mut self, fid: FuncId, f: &Function) -> Arc<Vec<Loop>> {
        if !self.enabled {
            MISSES.fetch_add(1, Ordering::Relaxed);
            let cfg = self.cfg(fid, f);
            let dom = DomTree::compute(f, &cfg);
            return Arc::new(find_loops(f, &cfg, &dom));
        }
        if let Some(loops) = &self.entry(fid, f).loops {
            HITS.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(loops);
        }
        MISSES.fetch_add(1, Ordering::Relaxed);
        let cfg = self.cfg(fid, f);
        let dom = self.dom(fid, f);
        let loops = Arc::new(find_loops(f, &cfg, &dom));
        self.entry(fid, f).loops = Some(Arc::clone(&loops));
        loops
    }

    /// The liveness of `f` (cached).
    pub fn liveness(&mut self, fid: FuncId, f: &Function) -> Arc<Liveness> {
        if !self.enabled {
            MISSES.fetch_add(1, Ordering::Relaxed);
            let cfg = self.cfg(fid, f);
            return Arc::new(Liveness::compute(f, &cfg));
        }
        if let Some(live) = &self.entry(fid, f).liveness {
            HITS.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(live);
        }
        MISSES.fetch_add(1, Ordering::Relaxed);
        let cfg = self.cfg(fid, f);
        let live = Arc::new(Liveness::compute(f, &cfg));
        self.entry(fid, f).liveness = Some(Arc::clone(&live));
        live
    }

    /// The def-use maps of `f` (cached).
    pub fn defuse(&mut self, fid: FuncId, f: &Function) -> Arc<DefUse> {
        if !self.enabled {
            MISSES.fetch_add(1, Ordering::Relaxed);
            return Arc::new(DefUse::compute(f));
        }
        let e = self.entry(fid, f);
        if let Some(du) = &e.defuse {
            HITS.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(du);
        }
        MISSES.fetch_add(1, Ordering::Relaxed);
        let du = Arc::new(DefUse::compute(f));
        e.defuse = Some(Arc::clone(&du));
        du
    }

    /// Drops everything cached for `fid`.
    pub fn invalidate(&mut self, fid: FuncId) {
        if let Some(e) = self.entries.get_mut(&fid.0) {
            e.clear();
        }
        self.entries.remove(&fid.0);
    }

    /// Re-adopts the function's current stamp without dropping cached
    /// analyses. Only sound when nothing the analyses read has changed since
    /// they were computed (a pass that preserves everything, like one that
    /// only flips function attributes).
    pub fn revalidate(&mut self, fid: FuncId, f: &Function) {
        if let Some(e) = self.entries.get_mut(&fid.0) {
            if e.stamp.is_some() {
                e.stamp = Some(f.stamp());
            }
        }
    }

    /// Keeps the CFG-shape analyses (cfg, dominators, frontiers, loops) and
    /// re-adopts the current stamp, but drops the value-level ones
    /// (liveness, def-use). Only sound when terminators, layout and the
    /// block set are known unchanged.
    pub fn preserve_cfg(&mut self, fid: FuncId, f: &Function) {
        if let Some(e) = self.entries.get_mut(&fid.0) {
            if e.stamp.is_some() {
                INVALIDATIONS.fetch_add(
                    e.liveness.is_some() as u64 + e.defuse.is_some() as u64,
                    Ordering::Relaxed,
                );
                e.liveness = None;
                e.defuse = None;
                e.stamp = Some(f.stamp());
            }
        }
    }

    /// Number of functions with at least one cached analysis.
    pub fn cached_functions(&self) -> usize {
        self.entries
            .values()
            .filter(|e| e.cached_count() > 0)
            .count()
    }

    fn key_matches(&self, m: &crate::Module) -> bool {
        let ids = m.func_ids();
        ids.len() == self.gen_key.len()
            && ids
                .iter()
                .zip(&self.gen_key)
                .all(|(&fid, &(raw, stamp))| fid.0 == raw && m.func(fid).stamp() == stamp)
    }

    fn refresh_key(&mut self, m: &crate::Module) {
        self.gen_key.clear();
        self.gen_key
            .extend(m.func_ids().iter().map(|&fid| (fid.0, m.func(fid).stamp())));
    }

    /// The module's current content generation. Stamps are allocated from a
    /// global monotonic counter and advance exactly when a function changes,
    /// so an unchanged (function id, stamp) fingerprint proves every
    /// function is byte-identical to when the generation was established;
    /// any mismatch starts a new generation. The globals are left out:
    /// `globalopt` is the only pass that reads them and the only one that
    /// writes them, and a run that writes them is not a no-op.
    fn content_gen(&mut self, m: &crate::Module) -> u64 {
        if !self.key_matches(m) {
            self.gen += 1;
            self.refresh_key(m);
        }
        self.gen
    }

    /// True if `pass` is already known to be a no-op on the module's current
    /// content — it ran on byte-identical IR before and reported no change,
    /// so (passes being deterministic) re-running it must change nothing.
    /// Counts into [`CacheStats::noop_skips`] when it fires.
    pub fn known_noop(&mut self, pass: &str, m: &crate::Module) -> bool {
        if !self.enabled {
            return false;
        }
        let gen = self.content_gen(m);
        if self.noop.get(pass) == Some(&gen) {
            NOOP_SKIPS.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Records that `pass` just ran on the current content and changed
    /// nothing (no stamp moved, so the content generation is the one the
    /// pass started from).
    pub fn note_noop(&mut self, pass: &str, m: &crate::Module) {
        if !self.enabled {
            return;
        }
        let gen = self.content_gen(m);
        self.noop.insert(pass.to_string(), gen);
    }

    /// Compares every cached, stamp-current analysis against a from-scratch
    /// recompute on `m`, returning one description per mismatch (empty =
    /// the cache is sound). Entries for functions no longer in `m`, or
    /// whose stamp is stale, are skipped — they will be recomputed on next
    /// request and cannot serve wrong data.
    ///
    /// This is the oracle behind the analysis-cache soundness property
    /// test: a pass that over-claims `preserved()`, or an edit that escapes
    /// its function's stamp, surfaces here.
    pub fn audit(&self, m: &crate::Module) -> Vec<String> {
        let mut bad = Vec::new();
        for (&raw, e) in &self.entries {
            let fid = FuncId(raw);
            if !m.func_ids().contains(&fid) {
                continue;
            }
            let f = m.func(fid);
            if e.stamp != Some(f.stamp()) {
                continue;
            }
            let fresh_cfg = Cfg::compute(f);
            if let Some(cfg) = &e.cfg {
                if **cfg != fresh_cfg {
                    bad.push(format!("fn {}: cached Cfg diverged", f.name));
                }
            }
            let fresh_dom = DomTree::compute(f, &fresh_cfg);
            if let Some(dom) = &e.dom {
                if **dom != fresh_dom {
                    bad.push(format!("fn {}: cached DomTree diverged", f.name));
                }
            }
            if let Some(df) = &e.frontiers {
                if **df != fresh_dom.dominance_frontiers(&fresh_cfg) {
                    bad.push(format!("fn {}: cached frontiers diverged", f.name));
                }
            }
            if let Some(loops) = &e.loops {
                if **loops != find_loops(f, &fresh_cfg, &fresh_dom) {
                    bad.push(format!("fn {}: cached loop forest diverged", f.name));
                }
            }
            if let Some(live) = &e.liveness {
                if **live != Liveness::compute(f, &fresh_cfg) {
                    bad.push(format!("fn {}: cached Liveness diverged", f.name));
                }
            }
            if let Some(du) = &e.defuse {
                if **du != DefUse::compute(f) {
                    bad.push(format!("fn {}: cached DefUse diverged", f.name));
                }
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::inst::BinOp;
    use crate::types::{Operand, Type};
    use crate::Module;

    fn small_module() -> (Module, FuncId) {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("f", &[Type::I64], Type::I64);
        let p = fb.param(0);
        let s = fb.bin(BinOp::Add, p, Operand::const_int(1));
        fb.ret(Some(s));
        let fid = fb.finish();
        (mb.finish(), fid)
    }

    #[test]
    fn second_request_hits() {
        let (m, fid) = small_module();
        let mut am = AnalysisManager::new();
        assert_eq!(am.cached_functions(), 0);
        // By identity and by this manager's own entries, not by the
        // process-wide counters, which tests running concurrently in this
        // binary also move.
        let c1 = am.cfg(fid, m.func(fid));
        assert_eq!(am.cached_functions(), 1);
        let c2 = am.cfg(fid, m.func(fid));
        assert!(Arc::ptr_eq(&c1, &c2));
        assert_eq!(am.cached_functions(), 1);
    }

    #[test]
    fn mutation_invalidates() {
        let (mut m, fid) = small_module();
        let mut am = AnalysisManager::new();
        let c1 = am.cfg(fid, m.func(fid));
        // Any structural mutation advances the stamp...
        let e = m.func(fid).entry();
        let _ = m.func_mut(fid).block_mut(e);
        // ...so the next request recomputes.
        let c2 = am.cfg(fid, m.func(fid));
        assert!(!Arc::ptr_eq(&c1, &c2));
        assert_eq!(*c1, *c2, "content identical after a no-op mutation");
    }

    #[test]
    fn revalidate_recovers_no_op_sweeps() {
        let (mut m, fid) = small_module();
        let mut am = AnalysisManager::new();
        let c1 = am.cfg(fid, m.func(fid));
        // An edit analyses do not read (what a pass preserving everything
        // does): the stamp moves, the runner re-adopts it.
        m.func_mut(fid).inline_hint = crate::InlineHint::Always;
        am.revalidate(fid, m.func(fid));
        let c2 = am.cfg(fid, m.func(fid));
        assert!(Arc::ptr_eq(&c1, &c2), "revalidation kept the entry live");
    }

    #[test]
    fn preserve_cfg_keeps_shape_drops_values() {
        let (mut m, fid) = small_module();
        let mut am = AnalysisManager::new();
        let c1 = am.cfg(fid, m.func(fid));
        let l1 = am.liveness(fid, m.func(fid));
        let e = m.func(fid).entry();
        let _ = m.func_mut(fid).block_mut(e);
        am.preserve_cfg(fid, m.func(fid));
        let c2 = am.cfg(fid, m.func(fid));
        assert!(Arc::ptr_eq(&c1, &c2));
        // By identity, not by the process-wide miss counter, which tests
        // running concurrently in this binary also move.
        let l2 = am.liveness(fid, m.func(fid));
        assert!(!Arc::ptr_eq(&l1, &l2), "liveness was dropped");
    }

    #[test]
    fn disabled_manager_always_recomputes() {
        let (m, fid) = small_module();
        let mut am = AnalysisManager::disabled();
        let c1 = am.cfg(fid, m.func(fid));
        let c2 = am.cfg(fid, m.func(fid));
        assert!(!Arc::ptr_eq(&c1, &c2));
        assert_eq!(am.cached_functions(), 0);
    }

    #[test]
    fn every_analysis_is_cached_and_equal_to_fresh() {
        let (m, fid) = small_module();
        let f = m.func(fid);
        let mut am = AnalysisManager::new();
        let cfg = am.cfg(fid, f);
        assert_eq!(*cfg, Cfg::compute(f));
        let dom = am.dom(fid, f);
        assert_eq!(*dom, DomTree::compute(f, &cfg));
        let df = am.frontiers(fid, f);
        assert_eq!(*df, dom.dominance_frontiers(&cfg));
        let loops = am.loops(fid, f);
        assert_eq!(*loops, find_loops(f, &cfg, &dom));
        let live = am.liveness(fid, f);
        assert_eq!(*live, Liveness::compute(f, &cfg));
        let du = am.defuse(fid, f);
        assert_eq!(*du, DefUse::compute(f));
        assert_eq!(am.cached_functions(), 1);
    }

    #[test]
    fn noop_memo_tracks_content_generations() {
        let (mut m, fid) = small_module();
        let mut am = AnalysisManager::new();

        // Nothing recorded yet: unknown.
        assert!(!am.known_noop("dce", &m));
        am.note_noop("dce", &m);
        assert!(am.known_noop("dce", &m), "same content, same pass: skip");
        assert!(
            !am.known_noop("gvn", &m),
            "other passes are not vouched for"
        );
        am.note_noop("gvn", &m);
        assert!(am.known_noop("dce", &m), "memos accumulate per generation");

        // An edit moves a stamp, which starts a new generation and disowns
        // every memo — a write to a public field included.
        m.func_mut(fid).inline_hint = crate::InlineHint::Always;
        assert!(!am.known_noop("dce", &m));
        assert!(!am.known_noop("gvn", &m));

        // Disabled managers never memoize.
        let mut off = AnalysisManager::disabled();
        off.note_noop("dce", &m);
        assert!(!off.known_noop("dce", &m));
    }
}
