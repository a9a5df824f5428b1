//! Test-case reduction utilities.
//!
//! When differential testing finds a miscompilation, the raw failing program
//! is typically hundreds of lines of generated IR. This module provides the
//! program-side half of automatic shrinking: a set of *candidate reductions*
//! (drop a function, fold a branch, delete an instruction) and a greedy
//! fixpoint driver, [`reduce_module`], that applies every candidate which
//! keeps a caller-supplied predicate (usually "still verifies and still
//! miscompiles") true.
//!
//! Every candidate is applied to a scratch clone and committed only if the
//! predicate holds, so the driver never leaves the module in a state the
//! predicate rejects. Reduction preserves *validity*, not semantics: dropped
//! values are replaced by zero constants, so the reduced program computes
//! something different from the original — all that matters is that the
//! divergence between reference and optimized execution survives.

use crate::analysis::Cfg;
use crate::inst::{Op, Terminator};
use crate::module::{BlockId, FuncId, Module, ValueId};
use crate::types::{Constant, Operand, Type};

/// Statistics from one [`reduce_module`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReduceStats {
    /// Candidate reductions tried.
    pub attempts: u64,
    /// Candidates accepted (predicate stayed true).
    pub accepted: u64,
    /// Fixpoint rounds executed.
    pub rounds: u64,
}

/// A zero-ish operand of the given type, used to replace the results of
/// deleted instructions. Pointer values fall back to the first global (if
/// any); returns `None` when no replacement operand exists.
fn default_operand(m: &Module, ty: Type) -> Option<Operand> {
    match ty {
        Type::I1 => Some(Operand::Const(Constant::Bool(false))),
        Type::I64 => Some(Operand::const_int(0)),
        Type::F64 => Some(Operand::const_float(0.0)),
        Type::Ptr => {
            if m.globals().is_empty() {
                None
            } else {
                Some(Operand::Global(crate::module::GlobalId(0)))
            }
        }
        Type::Void => None,
    }
}

/// Removes φ-incomings that no longer correspond to a CFG predecessor, for
/// every block of `f`. Needed after any terminator rewrite.
fn prune_phi_incomings(f: &mut crate::module::Function) {
    let cfg = Cfg::compute(f);
    for bid in f.block_ids_vec() {
        let preds: Vec<BlockId> = cfg.preds(bid).to_vec();
        let block = f.block_mut(bid);
        for inst in &mut block.insts {
            if let Op::Phi(incs) = &mut inst.op {
                incs.retain(|(p, _)| preds.contains(p));
            }
        }
    }
}

/// Deletes every block unreachable from the entry, fixing up φ-incomings in
/// the survivors. Safe to call on any function.
fn prune_unreachable_blocks(f: &mut crate::module::Function) {
    let dead = crate::analysis::unreachable_blocks(f);
    if dead.is_empty() {
        return;
    }
    for bid in &dead {
        // Cut branches out of the doomed region so `remove_block`'s
        // contract (no remaining references) holds between deletions.
        f.block_mut(*bid).term = Terminator::Unreachable;
        f.block_mut(*bid).insts.clear();
    }
    for bid in dead {
        f.remove_block(bid);
    }
    prune_phi_incomings(f);
}

/// Replaces every use of `v` in `f` with a default operand of type `ty`.
/// Returns `false` (leaving `f` untouched) when no default operand exists.
fn replace_uses_with_default(
    m: &Module,
    f: &mut crate::module::Function,
    v: ValueId,
    ty: Type,
) -> bool {
    match default_operand(m, ty) {
        Some(op) => {
            f.replace_all_uses(v, op);
            true
        }
        None => false,
    }
}

/// The candidate reductions, coarse to fine. Each returns `true` if it
/// produced a structurally different module (which the driver then tests).
mod candidates {
    use super::*;

    /// Drops function `fid` entirely, replacing every call to it (in any
    /// other function) with the callee's zero value.
    pub(super) fn drop_function(m: &mut Module, fid: FuncId) -> bool {
        // `main` is the differential entry point; never drop it.
        if m.func(fid).name == "main" {
            return false;
        }
        let ret_ty = m.func(fid).ret_ty;
        if ret_ty != Type::Void && default_operand(m, ret_ty).is_none() {
            return false;
        }
        for other in m.func_ids_vec() {
            if other == fid {
                continue;
            }
            let mut f = m.take_func(other);
            for bid in f.block_ids_vec() {
                let block = f.block_mut(bid);
                let mut dead_dests: Vec<(ValueId, Type)> = Vec::new();
                block.insts.retain(|inst| {
                    if let Op::Call { callee, .. } = &inst.op {
                        if *callee == fid {
                            if let Some(d) = inst.dest {
                                dead_dests.push((d, inst.ty));
                            }
                            return false;
                        }
                    }
                    true
                });
                for (d, ty) in dead_dests {
                    replace_uses_with_default(m, &mut f, d, ty);
                }
            }
            m.put_func(other, f);
        }
        m.remove_function(fid);
        true
    }

    /// Rewrites a conditional terminator of `bid` into an unconditional
    /// branch to successor `which`, then prunes newly unreachable blocks.
    pub(super) fn fold_terminator(m: &mut Module, fid: FuncId, bid: BlockId, which: usize) -> bool {
        let f = m.func_mut(fid);
        if !f.block_exists(bid) {
            return false;
        }
        let succs = f.block(bid).term.successors();
        if succs.len() < 2 || which >= succs.len() {
            return false;
        }
        f.block_mut(bid).term = Terminator::Br {
            target: succs[which],
        };
        prune_phi_incomings(f);
        prune_unreachable_blocks(f);
        true
    }

    /// Removes an empty forwarding block — no instructions, unconditional
    /// `br` — by retargeting every predecessor's terminator straight at its
    /// successor and rehoming the successor's φ-incomings from `bid` to each
    /// predecessor. Generated IR (and branch folding) leaves long `br`-only
    /// chains that the other candidates cannot touch.
    pub(super) fn thread_empty_block(m: &mut Module, fid: FuncId, bid: BlockId) -> bool {
        let f = m.func_mut(fid);
        if !f.block_exists(bid) || bid == f.entry() || !f.block(bid).insts.is_empty() {
            return false;
        }
        let Terminator::Br { target } = f.block(bid).term else {
            return false;
        };
        if target == bid {
            return false;
        }
        let cfg = Cfg::compute(f);
        let mut preds: Vec<BlockId> = cfg.preds(bid).to_vec();
        preds.sort_by_key(|b| b.0);
        preds.dedup();
        if preds.is_empty() {
            return false; // already unreachable; pruning handles it
        }
        // Rehoming a φ-incoming from `bid` onto a predecessor that already
        // has its own edge into `target` would leave two incomings for one
        // predecessor — skip those.
        for inst in &f.block(target).insts {
            if let Op::Phi(incs) = &inst.op {
                if incs.iter().any(|(p, _)| preds.contains(p)) {
                    return false;
                }
            }
        }
        for p in &preds {
            f.block_mut(*p).term.replace_successor(bid, target);
        }
        // The value that flowed into `target` from `bid` now flows in from
        // each former predecessor of `bid`. (Any such value strictly
        // dominates `bid`, hence dominates every predecessor's exit.)
        for inst in &mut f.block_mut(target).insts {
            if let Op::Phi(incs) = &mut inst.op {
                if let Some(pos) = incs.iter().position(|(p, _)| *p == bid) {
                    let (_, v) = incs.remove(pos);
                    for p in &preds {
                        incs.push((*p, v));
                    }
                }
            }
        }
        prune_unreachable_blocks(f);
        true
    }

    /// Deletes instruction `idx` of block `bid`, replacing its result (if
    /// any) with a zero constant.
    pub(super) fn drop_inst(m: &mut Module, fid: FuncId, bid: BlockId, idx: usize) -> bool {
        let mut f = m.take_func(fid);
        let ok = (|| {
            if !f.block_exists(bid) || idx >= f.block(bid).insts.len() {
                return false;
            }
            let (dest, ty) = {
                let inst = &f.block(bid).insts[idx];
                (inst.dest, inst.ty)
            };
            if let Some(d) = dest {
                if !replace_uses_with_default(m, &mut f, d, ty) {
                    return false;
                }
            }
            f.block_mut(bid).insts.remove(idx);
            true
        })();
        m.put_func(fid, f);
        ok
    }
}

/// Greedily shrinks `m` while `still_failing` holds.
///
/// The predicate receives candidate modules and must return `true` iff the
/// property being reduced (e.g. "this module still miscompiles under the
/// given pipeline") is preserved. Candidates that break the predicate are
/// rolled back. Runs rounds of function-dropping, branch-folding and
/// instruction-deletion until a full round accepts nothing or `max_attempts`
/// is exhausted.
pub fn reduce_module<F>(m: &mut Module, mut still_failing: F, max_attempts: u64) -> ReduceStats
where
    F: FnMut(&Module) -> bool,
{
    let mut stats = ReduceStats::default();
    loop {
        stats.rounds += 1;
        let mut accepted_this_round = false;

        // Coarse: drop whole functions (highest payoff first — later
        // functions tend to be callees of earlier ones, so iterate in
        // reverse definition order).
        for fid in m.func_ids_vec().into_iter().rev() {
            if stats.attempts >= max_attempts {
                return stats;
            }
            let mut candidate = m.clone();
            if !candidates::drop_function(&mut candidate, fid) {
                continue;
            }
            stats.attempts += 1;
            if still_failing(&candidate) {
                *m = candidate;
                stats.accepted += 1;
                accepted_this_round = true;
            }
        }

        // Medium: fold two-way branches and switches down to one arm.
        for fid in m.func_ids_vec() {
            for bid in m.func(fid).block_ids_vec() {
                if !m.func(fid).block_exists(bid) {
                    continue; // pruned by an earlier accepted fold
                }
                let n_succs = m.func(fid).block(bid).term.successors().len();
                for which in 0..n_succs.min(2) {
                    if stats.attempts >= max_attempts {
                        return stats;
                    }
                    if !m.func(fid).block_exists(bid)
                        || m.func(fid).block(bid).term.successors().len() < 2
                    {
                        break;
                    }
                    let mut candidate = m.clone();
                    if !candidates::fold_terminator(&mut candidate, fid, bid, which) {
                        continue;
                    }
                    stats.attempts += 1;
                    if still_failing(&candidate) {
                        *m = candidate;
                        stats.accepted += 1;
                        accepted_this_round = true;
                        break;
                    }
                }
            }
        }

        // Medium: thread away empty `br`-only forwarding blocks (the bulk
        // of leftover lines once branches have been folded).
        for fid in m.func_ids_vec() {
            for bid in m.func(fid).block_ids_vec() {
                if stats.attempts >= max_attempts {
                    return stats;
                }
                if !m.func(fid).block_exists(bid) {
                    continue;
                }
                let mut candidate = m.clone();
                if !candidates::thread_empty_block(&mut candidate, fid, bid) {
                    continue;
                }
                stats.attempts += 1;
                if still_failing(&candidate) {
                    *m = candidate;
                    stats.accepted += 1;
                    accepted_this_round = true;
                }
            }
        }

        // Fine: delete individual instructions (back to front, so indices
        // of untried instructions stay valid as deletions land).
        for fid in m.func_ids_vec() {
            for bid in m.func(fid).block_ids_vec() {
                if !m.func(fid).block_exists(bid) {
                    continue;
                }
                let mut idx = m.func(fid).block(bid).insts.len();
                while idx > 0 {
                    idx -= 1;
                    if stats.attempts >= max_attempts {
                        return stats;
                    }
                    let mut candidate = m.clone();
                    if !candidates::drop_inst(&mut candidate, fid, bid, idx) {
                        continue;
                    }
                    stats.attempts += 1;
                    if still_failing(&candidate) {
                        *m = candidate;
                        stats.accepted += 1;
                        accepted_this_round = true;
                    }
                }
            }
        }

        if !accepted_this_round || stats.attempts >= max_attempts {
            return stats;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::inst::{BinOp, Pred};
    use crate::verify::verify_module;

    /// entry → (then, else) → join, plus a helper function called twice.
    fn sample() -> Module {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("helper", &[Type::I64], Type::I64);
        let p = fb.param(0);
        let x = fb.bin(BinOp::Mul, p, Operand::const_int(3));
        fb.ret(Some(x));
        let helper = fb.finish();
        let mut fb = mb.begin_function("main", &[], Type::I64);
        let a = fb
            .call(helper, Type::I64, vec![Operand::const_int(5)])
            .unwrap();
        let c = fb.icmp(Pred::Lt, a, Operand::const_int(10));
        let t = fb.new_block();
        let e = fb.new_block();
        let j = fb.new_block();
        fb.cond_br(c, t, e);
        fb.switch_to(t);
        let tv = fb.bin(BinOp::Add, a, Operand::const_int(1));
        fb.br(j);
        fb.switch_to(e);
        let ev = fb.call(helper, Type::I64, vec![a]).unwrap();
        fb.br(j);
        fb.switch_to(j);
        let phi = fb.phi(Type::I64, vec![(t, tv), (e, ev)]);
        fb.ret(Some(phi));
        fb.finish();
        mb.finish()
    }

    #[test]
    fn reduce_to_always_true_predicate_shrinks_hard() {
        let mut m = sample();
        let before = m.inst_count();
        let stats = reduce_module(&mut m, |c| verify_module(c).is_ok(), 10_000);
        assert!(stats.accepted > 0);
        assert!(m.inst_count() < before, "{} -> {}", before, m.inst_count());
        verify_module(&m).unwrap();
        // main survives; the helper should be gone.
        assert!(m.find_func("main").is_some());
        assert!(m.find_func("helper").is_none());
    }

    #[test]
    fn reduce_respects_predicate() {
        let mut m = sample();
        // Predicate: module must keep at least one call instruction.
        let has_call = |c: &Module| {
            verify_module(c).is_ok()
                && c.func_ids().iter().any(|fid| {
                    c.func(*fid)
                        .blocks()
                        .any(|b| b.insts.iter().any(|i| matches!(i.op, Op::Call { .. })))
                })
        };
        reduce_module(&mut m, has_call, 10_000);
        assert!(has_call(&m));
    }

    #[test]
    fn fold_terminator_cleans_phis_and_unreachable() {
        let mut m = sample();
        let fid = m.find_func("main").unwrap();
        let entry = m.func(fid).entry();
        assert!(candidates::fold_terminator(&mut m, fid, entry, 0));
        verify_module(&m).unwrap();
        // One arm and its phi incoming must be gone.
        let f = m.func(fid);
        let phis: Vec<usize> = f
            .blocks()
            .flat_map(|b| b.insts.iter())
            .filter_map(|i| match &i.op {
                Op::Phi(incs) => Some(incs.len()),
                _ => None,
            })
            .collect();
        assert!(phis.iter().all(|n| *n == 1), "phi incomings {phis:?}");
    }

    #[test]
    fn thread_empty_block_rehomes_phis() {
        // entry -> fwd -> join, entry -> other -> join; fwd is empty.
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("main", &[Type::I64], Type::I64);
        let p = fb.param(0);
        let c = fb.icmp(Pred::Lt, p, Operand::const_int(0));
        let fwd = fb.new_block();
        let other = fb.new_block();
        let join = fb.new_block();
        fb.cond_br(c, fwd, other);
        fb.switch_to(fwd);
        fb.br(join);
        fb.switch_to(other);
        let ov = fb.bin(BinOp::Add, p, Operand::const_int(1));
        fb.br(join);
        fb.switch_to(join);
        let phi = fb.phi(Type::I64, vec![(fwd, p), (other, ov)]);
        fb.ret(Some(phi));
        fb.finish();
        let mut m = mb.finish();
        let fid = m.find_func("main").unwrap();
        assert!(candidates::thread_empty_block(&mut m, fid, fwd));
        verify_module(&m).unwrap();
        let f = m.func(fid);
        assert_eq!(f.num_blocks(), 3, "fwd threaded away");
        // The phi incoming formerly labelled `fwd` must now come from entry.
        let incs: Vec<(BlockId, Operand)> = f
            .blocks()
            .flat_map(|b| b.insts.iter())
            .filter_map(|i| match &i.op {
                Op::Phi(incs) => Some(incs.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(incs.len(), 2);
        assert!(incs.iter().any(|(b, v)| *b == f.entry() && *v == p));
    }

    #[test]
    fn prune_unreachable_blocks_removes_dead_region() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("main", &[], Type::I64);
        let dead = fb.new_block();
        let dead2 = fb.new_block();
        fb.ret(Some(Operand::const_int(1)));
        fb.switch_to(dead);
        fb.br(dead2);
        fb.switch_to(dead2);
        fb.br(dead);
        fb.finish();
        let mut m = mb.finish();
        let fid = m.find_func("main").unwrap();
        let f = m.func_mut(fid);
        assert_eq!(f.num_blocks(), 3);
        prune_unreachable_blocks(f);
        assert_eq!(f.num_blocks(), 1);
        verify_module(&m).unwrap();
    }
}
