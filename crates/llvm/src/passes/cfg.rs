//! Control-flow passes: branch folding, unreachable-code removal, block
//! merging, empty-block elimination, switch lowering and jump threading.

use std::collections::HashSet;

use cg_ir::analysis::{unreachable_blocks, Cfg};
use cg_ir::{
    AnalysisManager, BlockId, Constant, FuncEdit, Function, Module, Op, Operand, Terminator,
};

use crate::pass::Pass;
use crate::util::for_each_function;

/// Drops the φ incoming entries for `pred` in every φ of `block`.
fn remove_phi_incoming(f: &mut Function, block: BlockId, pred: BlockId) {
    for inst in &mut f.block_mut(block).insts {
        if let Op::Phi(incs) = &mut inst.op {
            incs.retain(|(b, _)| *b != pred);
        }
    }
}

/// Renames the φ incoming block `old` to `new` in every φ of `block`.
fn rename_phi_pred(f: &mut Function, block: BlockId, old: BlockId, new: BlockId) {
    for inst in &mut f.block_mut(block).insts {
        if let Op::Phi(incs) = &mut inst.op {
            for (b, _) in incs.iter_mut() {
                if *b == old {
                    *b = new;
                }
            }
        }
    }
}

/// Removes blocks unreachable from the entry (and their φ references).
#[derive(Debug, Default)]
pub struct RemoveUnreachable;

impl RemoveUnreachable {
    /// Shared implementation, used by [`SimplifyCfg`] as a sub-step.
    pub(crate) fn run_on(f: &mut FuncEdit<'_>) -> bool {
        let dead = unreachable_blocks(f);
        if dead.is_empty() {
            return false;
        }
        let dead_set: HashSet<BlockId> = dead.iter().copied().collect();
        for bid in f.block_ids_vec() {
            if dead_set.contains(&bid) {
                continue;
            }
            for inst in &mut f.block_mut(bid).insts {
                if let Op::Phi(incs) = &mut inst.op {
                    incs.retain(|(b, _)| !dead_set.contains(b));
                }
            }
        }
        for b in dead {
            f.remove_block(b);
        }
        true
    }
}

impl Pass for RemoveUnreachable {
    fn name(&self) -> String {
        "remove-unreachable".into()
    }

    fn description(&self) -> String {
        "delete blocks unreachable from the entry".into()
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        for_each_function(m, am, |f, _| {
            RemoveUnreachable::run_on(f);
        });
    }
}

/// Folds branches with constant conditions (`condbr true` → `br`,
/// constant switches, and two-way branches with identical targets).
#[derive(Debug, Default)]
pub struct FoldBranches;

impl FoldBranches {
    pub(crate) fn run_on(f: &mut FuncEdit<'_>) -> bool {
        let mut changed = false;
        for bid in f.block_ids_vec() {
            let term = f.block(bid).term.clone();
            let (new_term, lost_edges): (Terminator, Vec<BlockId>) = match term {
                Terminator::CondBr {
                    cond,
                    on_true,
                    on_false,
                } => {
                    if let Some(Constant::Bool(b)) = cond.as_const() {
                        let (taken, lost) = if b {
                            (on_true, on_false)
                        } else {
                            (on_false, on_true)
                        };
                        let lost_edges = if lost != taken { vec![lost] } else { vec![] };
                        (Terminator::Br { target: taken }, lost_edges)
                    } else if on_true == on_false {
                        (Terminator::Br { target: on_true }, vec![])
                    } else {
                        continue;
                    }
                }
                Terminator::Switch {
                    value,
                    cases,
                    default,
                } => {
                    if let Some(Constant::Int(v)) = value.as_const() {
                        let taken = cases
                            .iter()
                            .find(|(c, _)| *c == v)
                            .map(|(_, b)| *b)
                            .unwrap_or(default);
                        let mut lost: Vec<BlockId> = cases
                            .iter()
                            .map(|(_, b)| *b)
                            .chain(std::iter::once(default))
                            .filter(|b| *b != taken)
                            .collect();
                        lost.sort();
                        lost.dedup();
                        (Terminator::Br { target: taken }, lost)
                    } else if cases.is_empty() {
                        (Terminator::Br { target: default }, vec![])
                    } else {
                        continue;
                    }
                }
                _ => continue,
            };
            f.block_mut(bid).term = new_term;
            for lost in lost_edges {
                remove_phi_incoming(f, lost, bid);
            }
            changed = true;
        }
        changed
    }
}

impl Pass for FoldBranches {
    fn name(&self) -> String {
        "fold-branches".into()
    }

    fn description(&self) -> String {
        "fold constant conditional branches and switches".into()
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        for_each_function(m, am, |f, _| {
            FoldBranches::run_on(f);
        });
    }
}

/// Merges a block into its unique predecessor when that predecessor branches
/// only to it.
#[derive(Debug, Default)]
pub struct MergeBlocks;

impl MergeBlocks {
    pub(crate) fn run_on(f: &mut FuncEdit<'_>) -> bool {
        let mut changed = false;
        loop {
            let cfg = Cfg::compute(f);
            let mut merged = false;
            for b in f.block_ids_vec() {
                if b == f.entry() {
                    continue;
                }
                let preds = cfg.preds(b);
                if preds.len() != 1 {
                    continue;
                }
                let a = preds[0];
                if a == b {
                    continue;
                }
                if !matches!(f.block(a).term, Terminator::Br { target } if target == b) {
                    continue;
                }
                // Resolve φ-nodes of b: single predecessor, so each φ is its
                // incoming value from a.
                let phi_n = f.block(b).phi_count();
                for i in 0..phi_n {
                    let inst = f.block(b).insts[i].clone();
                    let (Some(d), Op::Phi(incs)) = (inst.dest, &inst.op) else {
                        unreachable!()
                    };
                    let v = incs
                        .iter()
                        .find(|(p, _)| *p == a)
                        .map(|(_, v)| *v)
                        .expect("phi must cover the unique predecessor");
                    f.replace_all_uses(d, v);
                }
                // Move the remaining instructions and terminator.
                let moved: Vec<_> = f.block_mut(b).insts.drain(phi_n..).collect();
                let term = f.block(b).term.clone();
                f.block_mut(a).insts.extend(moved);
                f.block_mut(a).term = term;
                // b's successors' φs now come from a.
                for s in f.block(a).term.successors() {
                    rename_phi_pred(f, s, b, a);
                }
                f.remove_block(b);
                merged = true;
                changed = true;
                break; // CFG changed; recompute
            }
            if !merged {
                break;
            }
        }
        changed
    }
}

impl Pass for MergeBlocks {
    fn name(&self) -> String {
        "merge-blocks".into()
    }

    fn description(&self) -> String {
        "merge single-successor/single-predecessor block pairs".into()
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        for_each_function(m, am, |f, _| {
            MergeBlocks::run_on(f);
        });
    }
}

/// Removes empty forwarding blocks (containing only `br target`), and in the
/// `aggressive` configuration also composes branch folding, unreachable
/// elimination and block merging to a fixpoint (LLVM's `-simplifycfg`).
#[derive(Debug, Default)]
pub struct SimplifyCfg {
    aggressive: bool,
}

impl SimplifyCfg {
    /// The aggressive variant (adds empty-block forwarding).
    pub fn aggressive() -> SimplifyCfg {
        SimplifyCfg { aggressive: true }
    }

    /// Removes blocks that contain only `br T` by retargeting their
    /// predecessors straight to `T`.
    fn forward_empty_blocks(f: &mut FuncEdit<'_>) -> bool {
        let mut changed = false;
        loop {
            let cfg = Cfg::compute(f);
            let mut forwarded = false;
            for e in f.block_ids_vec() {
                if e == f.entry() {
                    continue;
                }
                if !f.block(e).insts.is_empty() {
                    continue;
                }
                let Terminator::Br { target } = f.block(e).term else {
                    continue;
                };
                if target == e {
                    continue;
                }
                let preds: Vec<BlockId> = cfg.preds(e).to_vec();
                if preds.is_empty() {
                    continue; // unreachable; handled elsewhere
                }
                // φ safety: the target's φs must be extendable — each pred P
                // of E will become a direct pred of target. If target has φs
                // and P already branches to target, incomings would conflict;
                // skip in that case.
                let target_has_phis = f.block(target).phi_count() > 0;
                if target_has_phis {
                    let target_preds: HashSet<BlockId> =
                        cfg.preds(target).iter().copied().collect();
                    if preds.iter().any(|p| target_preds.contains(p)) {
                        continue;
                    }
                }
                // Rewrite φs of target: the value flowing from E now flows
                // from each pred of E.
                let phi_n = f.block(target).phi_count();
                for i in 0..phi_n {
                    let Op::Phi(incs) = &mut f.block_mut(target).insts[i].op else {
                        unreachable!()
                    };
                    if let Some(pos) = incs.iter().position(|(b, _)| *b == e) {
                        let (_, v) = incs.remove(pos);
                        for p in &preds {
                            incs.push((*p, v));
                        }
                    }
                }
                for p in preds {
                    f.block_mut(p).term.replace_successor(e, target);
                }
                f.remove_block(e);
                forwarded = true;
                changed = true;
                break;
            }
            if !forwarded {
                break;
            }
        }
        changed
    }
}

impl Pass for SimplifyCfg {
    fn name(&self) -> String {
        if self.aggressive {
            "simplifycfg-aggressive".into()
        } else {
            "simplifycfg".into()
        }
    }

    fn description(&self) -> String {
        "canonicalize the CFG: fold branches, drop unreachable code, merge blocks".into()
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        let aggressive = self.aggressive;
        for_each_function(m, am, |f, _| loop {
            let mut round = FoldBranches::run_on(f);
            round |= RemoveUnreachable::run_on(f);
            round |= MergeBlocks::run_on(f);
            if aggressive {
                round |= SimplifyCfg::forward_empty_blocks(f);
            }
            if !round {
                break;
            }
        });
    }
}

/// Lowers `switch` terminators into chains of equality tests and two-way
/// branches (LLVM's `-lowerswitch`). Grows code but simplifies the CFG
/// vocabulary for later passes.
#[derive(Debug, Default)]
pub struct LowerSwitch;

impl Pass for LowerSwitch {
    fn name(&self) -> String {
        "lowerswitch".into()
    }

    fn description(&self) -> String {
        "lower switches to conditional branch chains".into()
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        for_each_function(m, am, |f, _| {
            for bid in f.block_ids_vec() {
                let Terminator::Switch {
                    value,
                    cases,
                    default,
                } = f.block(bid).term.clone()
                else {
                    continue;
                };
                if cases.is_empty() {
                    f.block_mut(bid).term = Terminator::Br { target: default };
                    continue;
                }
                // Build the test chain: each link tests one case value.
                // Record the new (chain block → target) edges so the targets'
                // φ incomings can be rewritten afterwards.
                let mut edges: Vec<(BlockId, BlockId)> = Vec::new();
                let mut cur = bid;
                for (i, (case_v, case_b)) in cases.iter().enumerate() {
                    let cmp = f.fresh_value();
                    let last = i + 1 == cases.len();
                    let next = if last { default } else { f.add_block() };
                    f.block_mut(cur).insts.push(cg_ir::Inst::new(
                        cmp,
                        cg_ir::Type::I1,
                        Op::Icmp(cg_ir::Pred::Eq, value, Operand::const_int(*case_v)),
                    ));
                    f.block_mut(cur).term = Terminator::CondBr {
                        cond: Operand::Value(cmp),
                        on_true: *case_b,
                        on_false: next,
                    };
                    edges.push((cur, *case_b));
                    if last {
                        edges.push((cur, default));
                    }
                    cur = next;
                }
                // Rewrite φs: the value that used to flow from `bid` now
                // flows from every chain block with an edge to the target.
                let mut targets: Vec<BlockId> = edges.iter().map(|(_, t)| *t).collect();
                targets.sort();
                targets.dedup();
                for t in targets {
                    let phi_n = f.block(t).phi_count();
                    for i in 0..phi_n {
                        let Op::Phi(incs) = &mut f.block_mut(t).insts[i].op else {
                            unreachable!()
                        };
                        let Some(pos) = incs.iter().position(|(b, _)| *b == bid) else {
                            continue;
                        };
                        let (_, v) = incs.remove(pos);
                        let mut froms: Vec<BlockId> = edges
                            .iter()
                            .filter(|(_, to)| *to == t)
                            .map(|(from, _)| *from)
                            .collect();
                        froms.sort();
                        froms.dedup();
                        for from in froms {
                            incs.push((from, v));
                        }
                    }
                }
            }
        });
    }
}

/// Splits critical edges (edges from a multi-successor block to a
/// multi-predecessor block) by inserting forwarding blocks.
#[derive(Debug, Default)]
pub struct BreakCritEdges;

impl Pass for BreakCritEdges {
    fn name(&self) -> String {
        "break-crit-edges".into()
    }

    fn description(&self) -> String {
        "split critical CFG edges".into()
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        for_each_function(m, am, |f, _| loop {
            let cfg = Cfg::compute(f);
            let mut split: Option<(BlockId, BlockId)> = None;
            'search: for a in f.block_ids_vec() {
                let succs = f.block(a).term.successors();
                if succs.len() < 2 {
                    continue;
                }
                for b in succs {
                    if cfg.preds(b).len() >= 2 {
                        split = Some((a, b));
                        break 'search;
                    }
                }
            }
            let Some((a, b)) = split else { break };
            let mid = f.add_block();
            f.block_mut(mid).term = Terminator::Br { target: b };
            f.block_mut(a).term.replace_successor(b, mid);
            rename_phi_pred(f, b, a, mid);
            f.move_block_after(mid, a);
        });
    }
}

/// Canonicalizes functions to a single return block, merging return values
/// through a φ (LLVM's `-mergereturn`).
#[derive(Debug, Default)]
pub struct MergeReturn;

impl Pass for MergeReturn {
    fn name(&self) -> String {
        "mergereturn".into()
    }

    fn description(&self) -> String {
        "merge multiple returns into one exit block".into()
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        for_each_function(m, am, |f, _| {
            let rets: Vec<BlockId> = f
                .block_ids_vec()
                .into_iter()
                .filter(|b| matches!(f.block(*b).term, Terminator::Ret { .. }))
                .collect();
            if rets.len() < 2 {
                return;
            }
            let unified = f.add_block();
            let mut incomings: Vec<(BlockId, Operand)> = Vec::new();
            let mut is_void = false;
            for b in &rets {
                let Terminator::Ret { value } = f.block(*b).term.clone() else {
                    unreachable!()
                };
                match value {
                    Some(v) => incomings.push((*b, v)),
                    None => is_void = true,
                }
                f.block_mut(*b).term = Terminator::Br { target: unified };
            }
            if is_void {
                f.block_mut(unified).term = Terminator::Ret { value: None };
            } else {
                let ty = f.ret_ty;
                let phi = f.fresh_value();
                f.block_mut(unified)
                    .insts
                    .push(cg_ir::Inst::new(phi, ty, Op::Phi(incomings)));
                f.block_mut(unified).term = Terminator::Ret {
                    value: Some(Operand::Value(phi)),
                };
            }
        });
    }
}

/// Jump threading (restricted): when a block consists of nothing but a φ
/// and a conditional branch on it, predecessors contributing constant
/// conditions jump straight to their destination.
#[derive(Debug, Default)]
pub struct JumpThreading;

impl Pass for JumpThreading {
    fn name(&self) -> String {
        "jump-threading".into()
    }

    fn description(&self) -> String {
        "thread constant branch conditions through phi blocks".into()
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        for_each_function(m, am, |f, _| {
            loop {
                let mut threaded = false;
                for b in f.block_ids_vec() {
                    if b == f.entry() {
                        continue;
                    }
                    let block = f.block(b);
                    if block.insts.len() != 1 {
                        continue;
                    }
                    let (Some(phi_d), Op::Phi(incs)) = (block.insts[0].dest, &block.insts[0].op)
                    else {
                        continue;
                    };
                    let Terminator::CondBr {
                        cond,
                        on_true,
                        on_false,
                    } = block.term
                    else {
                        continue;
                    };
                    if cond.as_value() != Some(phi_d) {
                        continue;
                    }
                    if on_true == b || on_false == b {
                        continue;
                    }
                    // Targets must have no φs (their pred sets will change).
                    if f.block(on_true).phi_count() > 0 || f.block(on_false).phi_count() > 0 {
                        continue;
                    }
                    // Find one predecessor with a constant incoming.
                    let found = incs.iter().find_map(|(p, v)| match v.as_const() {
                        Some(Constant::Bool(c)) => Some((*p, c)),
                        _ => None,
                    });
                    let Some((pred, c)) = found else { continue };
                    let dest = if c { on_true } else { on_false };
                    f.block_mut(pred).term.replace_successor(b, dest);
                    remove_phi_incoming(f, b, pred);
                    threaded = true;
                    break;
                }
                if !threaded {
                    break;
                }
                // Threading may strand b without predecessors.
                RemoveUnreachable::run_on(f);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_ir::builder::ModuleBuilder;
    use cg_ir::verify::verify_module;
    use cg_ir::{BinOp, Pred, Type};

    #[test]
    fn fold_constant_condbr_and_cleanup() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("f", &[Type::I64], Type::I64);
        let p = fb.param(0);
        let t = fb.new_block();
        let e = fb.new_block();
        fb.cond_br(Operand::const_bool(true), t, e);
        fb.switch_to(t);
        fb.ret(Some(p));
        fb.switch_to(e);
        fb.ret(Some(Operand::const_int(0)));
        fb.finish();
        let mut m = mb.finish();
        assert!(SimplifyCfg::default().run(&mut m));
        verify_module(&m).unwrap();
        let f = m.func(m.find_func("f").unwrap());
        assert_eq!(f.num_blocks(), 1, "dead arm removed and blocks merged");
    }

    #[test]
    fn merge_straightline_chain() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("f", &[Type::I64], Type::I64);
        let p = fb.param(0);
        let b1 = fb.new_block();
        let b2 = fb.new_block();
        fb.br(b1);
        fb.switch_to(b1);
        let x = fb.bin(BinOp::Add, p, Operand::const_int(1));
        fb.br(b2);
        fb.switch_to(b2);
        fb.ret(Some(x));
        fb.finish();
        let mut m = mb.finish();
        assert!(MergeBlocks.run(&mut m));
        verify_module(&m).unwrap();
        assert_eq!(m.func(m.find_func("f").unwrap()).num_blocks(), 1);
    }

    #[test]
    fn merge_resolves_phis() {
        // A -> B where B has a φ with a single incoming.
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("f", &[Type::I64], Type::I64);
        let p = fb.param(0);
        let a = fb.current_block();
        let b = fb.new_block();
        fb.br(b);
        fb.switch_to(b);
        let phi = fb.phi(Type::I64, vec![(a, p)]);
        fb.ret(Some(phi));
        fb.finish();
        let mut m = mb.finish();
        assert!(MergeBlocks.run(&mut m));
        verify_module(&m).unwrap();
        let f = m.func(m.find_func("f").unwrap());
        assert_eq!(f.num_blocks(), 1);
        assert_eq!(f.inst_count(), 1); // just `ret %0`
    }

    #[test]
    fn lower_switch_preserves_behaviour() {
        use cg_ir::interp::{run_main, ExecLimits};
        let m = cg_datasets::benchmark("chstone-v0/mips").unwrap();
        let reference = run_main(&m, &ExecLimits::default()).unwrap();
        let mut lowered = m.clone();
        assert!(LowerSwitch.run(&mut lowered));
        verify_module(&lowered).unwrap();
        let out = run_main(&lowered, &ExecLimits::default()).unwrap();
        assert_eq!(out.ret, reference.ret);
        // No switches remain.
        for fid in lowered.func_ids_vec() {
            for b in lowered.func(fid).blocks() {
                assert!(!matches!(b.term, Terminator::Switch { .. }));
            }
        }
    }

    #[test]
    fn jump_threading_threads_constant_phi() {
        // entry -> mid(phi=true from entry) -> condbr phi, t, e
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("f", &[Type::I64], Type::I64);
        let p = fb.param(0);
        let entry = fb.current_block();
        let mid = fb.new_block();
        let t = fb.new_block();
        let e = fb.new_block();
        fb.br(mid);
        fb.switch_to(mid);
        let phi = fb.phi(Type::I1, vec![(entry, Operand::const_bool(true))]);
        fb.cond_br(phi, t, e);
        fb.switch_to(t);
        fb.ret(Some(p));
        fb.switch_to(e);
        fb.ret(Some(Operand::const_int(0)));
        fb.finish();
        let mut m = mb.finish();
        assert!(JumpThreading.run(&mut m));
        verify_module(&m).unwrap();
        let f = m.func(m.find_func("f").unwrap());
        // entry now branches straight to t; mid and e are unreachable and
        // removed by the embedded cleanup.
        assert!(f.num_blocks() <= 2);
    }

    #[test]
    fn empty_block_forwarding() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("f", &[Type::I64], Type::I64);
        let p = fb.param(0);
        let hop = fb.new_block();
        let end = fb.new_block();
        let c = fb.icmp(Pred::Lt, p, Operand::const_int(0));
        fb.cond_br(c, hop, end);
        fb.switch_to(hop);
        fb.br(end);
        fb.switch_to(end);
        fb.ret(Some(p));
        fb.finish();
        let mut m = mb.finish();
        assert!(SimplifyCfg::aggressive().run(&mut m));
        verify_module(&m).unwrap();
        // hop removed; condbr both-targets-equal then folds; single block.
        assert_eq!(m.func(m.find_func("f").unwrap()).num_blocks(), 1);
    }
}
