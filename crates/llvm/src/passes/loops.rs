//! Loop passes: canonicalization (preheader insertion), loop-invariant code
//! motion, counted-loop unrolling (full and partial), loop deletion and
//! induction-variable simplification.

use std::collections::{HashMap, HashSet};

use cg_ir::analysis::{Cfg, Loop};
use cg_ir::{
    AnalysisManager, BinOp, Block, BlockId, Function, Inst, Module, Op, Operand, Pred, Terminator,
    Type, ValueId,
};

use crate::pass::Pass;
use crate::util::for_each_function;

/// Values defined outside the loop (or constants/globals) are invariant.
fn defs_in_loop(f: &Function, l: &Loop) -> HashSet<ValueId> {
    let mut defs = HashSet::new();
    for &b in &l.blocks {
        for inst in &f.block(b).insts {
            if let Some(d) = inst.dest {
                defs.insert(d);
            }
        }
    }
    defs
}

/// Whether an instruction or the terminator of `b` reads `v`.
fn reads(b: &Block, v: ValueId) -> bool {
    let mut found = false;
    for inst in &b.insts {
        inst.op
            .for_each_operand(|o| found |= o.as_value() == Some(v));
    }
    b.term
        .for_each_operand(|o| found |= o.as_value() == Some(v));
    found
}

/// The unique predecessor of the loop header from outside the loop, if it
/// exists and branches only to the header (a *dedicated preheader*).
fn preheader(f: &Function, cfg: &Cfg, l: &Loop) -> Option<BlockId> {
    let outside: Vec<BlockId> = cfg
        .preds(l.header)
        .iter()
        .copied()
        .filter(|p| !l.contains(*p))
        .collect();
    match outside.as_slice() {
        [p] => {
            let succs = f.block(*p).term.successors();
            (succs.len() == 1 && succs[0] == l.header).then_some(*p)
        }
        _ => None,
    }
}

/// Loop canonicalization: gives every natural loop a dedicated preheader
/// block, enabling [`Licm`] and the unrollers.
#[derive(Debug, Default)]
pub struct LoopSimplify;

impl Pass for LoopSimplify {
    fn name(&self) -> String {
        "loop-simplify".into()
    }

    fn description(&self) -> String {
        "insert dedicated loop preheaders".into()
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        for_each_function(m, am, |f, am| {
            loop {
                let cfg = am.cfg(f.id(), f);
                let loops = am.loops(f.id(), f);
                let mut did = false;
                for l in loops.iter() {
                    if preheader(f, &cfg, l).is_some() {
                        continue;
                    }
                    let outside: Vec<BlockId> = cfg
                        .preds(l.header)
                        .iter()
                        .copied()
                        .filter(|p| !l.contains(*p))
                        .collect();
                    if outside.is_empty() {
                        continue; // unreachable loop
                    }
                    // Create the preheader and split φ incomings.
                    let pre = f.add_block();
                    let phi_n = f.block(l.header).phi_count();
                    for i in 0..phi_n {
                        // Collect the incomings from outside preds.
                        let (ty, outside_incs): (Type, Vec<(BlockId, Operand)>) = {
                            let inst = &f.block(l.header).insts[i];
                            let Op::Phi(incs) = &inst.op else {
                                unreachable!()
                            };
                            (
                                inst.ty,
                                incs.iter()
                                    .filter(|(b, _)| outside.contains(b))
                                    .cloned()
                                    .collect(),
                            )
                        };
                        // A single incoming value (or several that agree)
                        // needs no merge φ.
                        let unified: Operand =
                            if outside_incs.iter().all(|(_, v)| *v == outside_incs[0].1) {
                                outside_incs[0].1
                            } else {
                                // Build a φ in the preheader merging the values.
                                let v = f.fresh_value();
                                let at = f.block(pre).phi_count();
                                f.block_mut(pre)
                                    .insts
                                    .insert(at, Inst::new(v, ty, Op::Phi(outside_incs.clone())));
                                Operand::Value(v)
                            };
                        let Op::Phi(incs) = &mut f.block_mut(l.header).insts[i].op else {
                            unreachable!()
                        };
                        incs.retain(|(b, _)| !outside.contains(b));
                        incs.push((pre, unified));
                    }
                    f.block_mut(pre).term = Terminator::Br { target: l.header };
                    for p in &outside {
                        f.block_mut(*p).term.replace_successor(l.header, pre);
                    }
                    f.move_block_after(pre, outside[0]);
                    did = true;
                    break; // CFG changed; recompute loops
                }
                if !did {
                    break;
                }
            }
        });
    }
}

/// Loop-invariant code motion: hoists pure, non-trapping instructions whose
/// operands are loop-invariant into the preheader. Loads are hoisted only
/// from global bases and only out of store-free, call-free loops.
#[derive(Debug, Default)]
pub struct Licm;

impl Pass for Licm {
    fn name(&self) -> String {
        "licm".into()
    }

    fn description(&self) -> String {
        "hoist loop-invariant computation to the preheader".into()
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        for_each_function(m, am, |f, am| {
            let cfg = am.cfg(f.id(), f);
            let loops = am.loops(f.id(), f);
            for l in loops.iter() {
                let Some(pre) = preheader(f, &cfg, l) else {
                    continue;
                };
                let loop_writes = l.blocks.iter().any(|b| {
                    f.block(*b)
                        .insts
                        .iter()
                        .any(|i| i.op.writes_memory() || matches!(i.op, Op::Call { .. }))
                });
                loop {
                    let defs = defs_in_loop(f, l);
                    let mut hoisted = false;
                    for &b in &l.blocks {
                        let n = f.block(b).insts.len();
                        for ii in 0..n {
                            let inst = &f.block(b).insts[ii];
                            if inst.dest.is_none()
                                || inst.op.has_side_effects()
                                || matches!(inst.op, Op::Phi(_) | Op::Alloca { .. })
                            {
                                continue;
                            }
                            if inst.op.reads_memory() {
                                // Loads: only from direct global pointers out
                                // of write-free loops (cannot trap, cannot be
                                // clobbered).
                                let Op::Load { ptr } = &inst.op else { continue };
                                if loop_writes || !matches!(ptr, Operand::Global(_)) {
                                    continue;
                                }
                            }
                            let mut invariant = true;
                            inst.op.for_each_operand(|o| {
                                if let Some(v) = o.as_value() {
                                    if defs.contains(&v) {
                                        invariant = false;
                                    }
                                }
                            });
                            if !invariant {
                                continue;
                            }
                            let inst = f.block_mut(b).insts.remove(ii);
                            f.block_mut(pre).insts.push(inst);
                            hoisted = true;
                            break;
                        }
                        if hoisted {
                            break;
                        }
                    }
                    if !hoisted {
                        break;
                    }
                }
            }
        });
    }
}

/// A recognized counted loop of the canonical two-block shape:
///
/// ```text
/// preheader:  ...                     br header
/// header:     i = φ [pre: init] [body: i_next]   (+ other φs)
///             c = icmp lt i, N
///             condbr c, body, exit
/// body:       ...  i_next = add i, step ...      br header
/// ```
#[derive(Debug)]
struct CountedLoop {
    header: BlockId,
    body: BlockId,
    exit: BlockId,
    pre: BlockId,
    /// The induction φ and its parameters.
    phi_i: ValueId,
    init: i64,
    step: i64,
    limit: i64,
    trip: u64,
}

fn recognize_counted(f: &Function, cfg: &Cfg, l: &Loop) -> Option<CountedLoop> {
    if l.blocks.len() != 2 || l.latches.len() != 1 {
        return None;
    }
    let header = l.header;
    let body = l.latches[0];
    if !l.contains(body) || body == header {
        return None;
    }
    let pre = preheader(f, cfg, l)?;
    // Header: φs then exactly one icmp used by the condbr.
    let hblock = f.block(header);
    let phi_n = hblock.phi_count();
    if hblock.insts.len() != phi_n + 1 {
        return None;
    }
    let cmp = &hblock.insts[phi_n];
    let Op::Icmp(Pred::Lt, Operand::Value(iv), Operand::Const(limit)) = &cmp.op else {
        return None;
    };
    let limit = match limit {
        cg_ir::Constant::Int(n) => *n,
        _ => return None,
    };
    let Terminator::CondBr {
        cond,
        on_true,
        on_false,
    } = &hblock.term
    else {
        return None;
    };
    if cond.as_value() != cmp.dest || *on_true != body || l.contains(*on_false) {
        return None;
    }
    // The compare must feed ONLY the branch: if the body (or exit code)
    // reads it, cloned iterations would see a stale condition (peel/unroll
    // materialize the body without re-evaluating the header compare).
    {
        let cmp_dest = cmp.dest;
        let mut escaped = false;
        for bid in f.block_ids_vec() {
            for inst in &f.block(bid).insts {
                inst.op.for_each_operand(|o| {
                    if o.as_value() == cmp_dest {
                        escaped = true;
                    }
                });
            }
        }
        if escaped {
            return None;
        }
    }
    let exit = *on_false;
    // Body: straight-line, ends with br header.
    if !matches!(f.block(body).term, Terminator::Br { target } if target == header) {
        return None;
    }
    if f.block(body).phi_count() != 0 {
        return None;
    }
    // The induction φ.
    let mut found: Option<(ValueId, i64, ValueId)> = None;
    for inst in &hblock.insts[..phi_n] {
        let (Some(d), Op::Phi(incs)) = (inst.dest, &inst.op) else {
            continue;
        };
        if d != *iv {
            continue;
        }
        if incs.len() != 2 {
            return None;
        }
        let init = incs
            .iter()
            .find(|(b, _)| *b == pre)
            .and_then(|(_, v)| v.as_const_int())?;
        let next = incs
            .iter()
            .find(|(b, _)| *b == body)
            .and_then(|(_, v)| v.as_value())?;
        found = Some((d, init, next));
    }
    let (phi_i, init, i_next) = found?;
    // i_next must be `add phi_i, const step` in the body.
    let mut step: Option<i64> = None;
    for inst in &f.block(body).insts {
        if inst.dest == Some(i_next) {
            if let Op::Bin(BinOp::Add, a, b) = &inst.op {
                if a.as_value() == Some(phi_i) {
                    step = b.as_const_int();
                } else if b.as_value() == Some(phi_i) {
                    step = a.as_const_int();
                }
            }
        }
    }
    let step = step?;
    if step <= 0 {
        return None;
    }
    let trip = if init >= limit {
        0
    } else {
        ((limit - init) as u64).div_ceil(step as u64)
    };
    // All other header φs must have exactly (pre, _) and (body, _) incomings.
    for inst in &hblock.insts[..phi_n] {
        let Op::Phi(incs) = &inst.op else { continue };
        if incs.len() != 2
            || !incs.iter().any(|(b, _)| *b == pre)
            || !incs.iter().any(|(b, _)| *b == body)
        {
            return None;
        }
    }
    Some(CountedLoop {
        header,
        body,
        exit,
        pre,
        phi_i,
        init,
        step,
        limit,
        trip,
    })
}

/// Clones `insts` appending to `dst`, remapping operands through `map` and
/// recording fresh destinations back into `map`.
fn clone_insts_into(
    f: &mut Function,
    src: BlockId,
    dst: BlockId,
    skip_phis: bool,
    map: &mut HashMap<ValueId, Operand>,
) {
    let insts: Vec<Inst> = f.block(src).insts.clone();
    for inst in insts {
        if skip_phis && matches!(inst.op, Op::Phi(_)) {
            continue;
        }
        let mut op = inst.op.clone();
        op.for_each_operand_mut(|o| {
            if let Some(v) = o.as_value() {
                if let Some(rep) = map.get(&v) {
                    *o = *rep;
                }
            }
        });
        let new_dest = inst.dest.map(|d| {
            let nd = f.fresh_value();
            map.insert(d, Operand::Value(nd));
            nd
        });
        f.block_mut(dst).insts.push(Inst {
            dest: new_dest,
            ty: inst.ty,
            op,
        });
    }
}

/// Loop unrolling for recognized counted loops. `full(cap)` completely
/// unrolls loops whose total cloned size stays under `cap` instructions;
/// `partial(k)` replicates the body `k` times when the trip count is a known
/// multiple of `k`.
#[derive(Debug)]
pub struct LoopUnroll {
    factor: Option<u32>,
    cap: u64,
}

impl LoopUnroll {
    /// Fully unrolls loops whose cloned size is below `cap` instructions.
    pub fn full(cap: u64) -> LoopUnroll {
        LoopUnroll { factor: None, cap }
    }

    /// Unrolls by a fixed factor (trip count must divide evenly).
    pub fn partial(factor: u32) -> LoopUnroll {
        LoopUnroll {
            factor: Some(factor),
            cap: 4096,
        }
    }

    fn unroll_full(f: &mut Function, cl: &CountedLoop) {
        // Current value of each header φ, iteration by iteration.
        let phis: Vec<(ValueId, Operand, Operand)> = f
            .block(cl.header)
            .insts
            .iter()
            .take_while(|i| matches!(i.op, Op::Phi(_)))
            .map(|inst| {
                let Op::Phi(incs) = &inst.op else {
                    unreachable!()
                };
                let init = incs.iter().find(|(b, _)| *b == cl.pre).unwrap().1;
                let fed = incs.iter().find(|(b, _)| *b == cl.body).unwrap().1;
                (inst.dest.unwrap(), init, fed)
            })
            .collect();
        let mut cur: HashMap<ValueId, Operand> =
            phis.iter().map(|(d, init, _)| (*d, *init)).collect();
        // New home for the straight-line code: the header, emptied.
        f.block_mut(cl.header).insts.clear();
        for _k in 0..cl.trip {
            let mut map = cur.clone();
            // Clone the body (the header held only φs and the exit compare).
            clone_insts_into(f, cl.body, cl.header, false, &mut map);
            // Advance φ values through the latch incomings.
            let mut next = HashMap::new();
            for (d, _, fed) in &phis {
                let v = match fed.as_value() {
                    Some(x) => *map.get(&x).unwrap_or(&Operand::Value(x)),
                    None => *fed,
                };
                next.insert(*d, v);
            }
            cur = next;
        }
        // Final φ values replace all remaining (outside) uses.
        for (d, _, _) in &phis {
            let fin = cur[d];
            f.replace_all_uses(*d, fin);
        }
        f.block_mut(cl.header).term = Terminator::Br { target: cl.exit };
        // Exit φs that named the header keep naming it (still the pred).
        f.remove_block(cl.body);
    }

    fn unroll_partial(f: &mut Function, cl: &CountedLoop, factor: u32) {
        let phis: Vec<(ValueId, Operand)> = f
            .block(cl.header)
            .insts
            .iter()
            .take_while(|i| matches!(i.op, Op::Phi(_)))
            .map(|inst| {
                let Op::Phi(incs) = &inst.op else {
                    unreachable!()
                };
                let fed = incs.iter().find(|(b, _)| *b == cl.body).unwrap().1;
                (inst.dest.unwrap(), fed)
            })
            .collect();
        // Copy 1 is the existing body; copies 2..=factor append clones.
        let mut cur: HashMap<ValueId, Operand> = HashMap::new();
        for (d, fed) in &phis {
            cur.insert(*d, *fed);
        }
        let original_len = f.block(cl.body).insts.len();
        for _k in 1..factor {
            let mut map = cur.clone();
            // Clone only the original instructions (they're a prefix).
            let originals: Vec<Inst> = f.block(cl.body).insts[..original_len].to_vec();
            for inst in originals {
                let mut op = inst.op.clone();
                op.for_each_operand_mut(|o| {
                    if let Some(v) = o.as_value() {
                        if let Some(rep) = map.get(&v) {
                            *o = *rep;
                        }
                    }
                });
                let new_dest = inst.dest.map(|d| {
                    let nd = f.fresh_value();
                    map.insert(d, Operand::Value(nd));
                    nd
                });
                f.block_mut(cl.body).insts.push(Inst {
                    dest: new_dest,
                    ty: inst.ty,
                    op,
                });
            }
            let mut next = HashMap::new();
            for (d, fed) in &phis {
                let v = match fed.as_value() {
                    Some(x) => *map.get(&x).unwrap_or(&Operand::Value(x)),
                    None => *fed,
                };
                next.insert(*d, v);
            }
            cur = next;
        }
        // Update the latch incomings of the header φs.
        let phi_n = f.block(cl.header).phi_count();
        for i in 0..phi_n {
            let d = f.block(cl.header).insts[i].dest.unwrap();
            let new_fed = cur[&d];
            let Op::Phi(incs) = &mut f.block_mut(cl.header).insts[i].op else {
                unreachable!()
            };
            for (b, v) in incs.iter_mut() {
                if *b == cl.body {
                    *v = new_fed;
                }
            }
        }
    }
}

impl Pass for LoopUnroll {
    fn name(&self) -> String {
        match self.factor {
            Some(k) => format!("loop-unroll-{k}"),
            None => format!("loop-unroll-full-{}", self.cap),
        }
    }

    fn description(&self) -> String {
        "unroll counted loops (trading size for cycles)".into()
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        for_each_function(m, am, |f, am| loop {
            let cfg = am.cfg(f.id(), f);
            let loops = am.loops(f.id(), f);
            let mut did = false;
            for l in loops.iter() {
                let Some(cl) = recognize_counted(f, &cfg, l) else {
                    continue;
                };
                match self.factor {
                    None => {
                        let body_size = (f.block(cl.body).insts.len() + 1) as u64;
                        if cl.trip * body_size > self.cap {
                            continue;
                        }
                        LoopUnroll::unroll_full(f, &cl);
                    }
                    Some(k) => {
                        if k < 2 || cl.trip == 0 || cl.trip % k as u64 != 0 || cl.trip == k as u64 {
                            continue;
                        }
                        let body_size = (f.block(cl.body).insts.len() + 1) as u64;
                        if body_size * k as u64 > self.cap {
                            continue;
                        }
                        // The compare limit stays valid because the trip
                        // divides evenly; each latch pass advances k
                        // steps.
                        LoopUnroll::unroll_partial(f, &cl, k);
                    }
                }
                did = true;
                break;
            }
            if !did {
                break;
            }
        });
    }
}

/// Loop peeling: clones the first `k` iterations of a recognized counted
/// loop into the preheader, so early iterations (often special-cased by
/// branches inside the body) run straight-line.
#[derive(Debug)]
pub struct LoopPeel {
    k: u32,
}

impl LoopPeel {
    /// Peels `k` leading iterations.
    pub fn new(k: u32) -> LoopPeel {
        LoopPeel { k }
    }
}

impl Pass for LoopPeel {
    fn name(&self) -> String {
        format!("loop-peel-{}", self.k)
    }

    fn description(&self) -> String {
        "clone leading loop iterations into the preheader".into()
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        let k = self.k as u64;
        for_each_function(m, am, |f, am| {
            let cfg = am.cfg(f.id(), f);
            let loops = am.loops(f.id(), f);
            for l in loops.iter() {
                let Some(cl) = recognize_counted(f, &cfg, l) else {
                    continue;
                };
                if cl.trip < k || k == 0 {
                    continue;
                }
                // φ states: (dest, preheader incoming, latch incoming).
                let phis: Vec<(ValueId, Operand, Operand)> = f
                    .block(cl.header)
                    .insts
                    .iter()
                    .take_while(|i| matches!(i.op, Op::Phi(_)))
                    .map(|inst| {
                        let Op::Phi(incs) = &inst.op else {
                            unreachable!()
                        };
                        let init = incs.iter().find(|(b, _)| *b == cl.pre).unwrap().1;
                        let fed = incs.iter().find(|(b, _)| *b == cl.body).unwrap().1;
                        (inst.dest.unwrap(), init, fed)
                    })
                    .collect();
                let mut cur: HashMap<ValueId, Operand> =
                    phis.iter().map(|(d, init, _)| (*d, *init)).collect();
                for _ in 0..k {
                    let mut map = cur.clone();
                    clone_insts_into(f, cl.body, cl.pre, false, &mut map);
                    let mut next = HashMap::new();
                    for (d, _, fed) in &phis {
                        let v = match fed.as_value() {
                            Some(x) => *map.get(&x).unwrap_or(&Operand::Value(x)),
                            None => *fed,
                        };
                        next.insert(*d, v);
                    }
                    cur = next;
                }
                // The header φs now start from the peeled state.
                let phi_n = f.block(cl.header).phi_count();
                for i in 0..phi_n {
                    let d = f.block(cl.header).insts[i].dest.unwrap();
                    let new_init = cur[&d];
                    let Op::Phi(incs) = &mut f.block_mut(cl.header).insts[i].op else {
                        unreachable!()
                    };
                    for (b, v) in incs.iter_mut() {
                        if *b == cl.pre {
                            *v = new_init;
                        }
                    }
                }
                break; // analyses stale; one peel per function per run
            }
        });
    }
}

/// Deletes loops with no observable effects: no stores or calls inside, and
/// no values defined in the loop used outside it. (Like LLVM, termination is
/// assumed for side-effect-free loops.)
#[derive(Debug, Default)]
pub struct LoopDeletion;

impl Pass for LoopDeletion {
    fn name(&self) -> String {
        "loop-deletion".into()
    }

    fn description(&self) -> String {
        "delete effect-free loops whose values are unused outside".into()
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        for_each_function(m, am, |f, am| {
            loop {
                let cfg = am.cfg(f.id(), f);
                let loops = am.loops(f.id(), f);
                let mut did = false;
                for l in loops.iter() {
                    let Some(pre) = preheader(f, &cfg, l) else {
                        continue;
                    };
                    if l.exits.len() != 1 {
                        continue;
                    }
                    let exit = l.exits[0];
                    // Effect-free?
                    let effectful = l
                        .blocks
                        .iter()
                        .any(|b| f.block(*b).insts.iter().any(|i| i.op.has_side_effects()));
                    if effectful {
                        continue;
                    }
                    // No inside-defined value used outside?
                    let defs = defs_in_loop(f, l);
                    let mut escaped = false;
                    for b in f.block_ids_vec() {
                        if l.contains(b) {
                            continue;
                        }
                        for inst in &f.block(b).insts {
                            inst.op.for_each_operand(|o| {
                                if let Some(v) = o.as_value() {
                                    if defs.contains(&v) {
                                        escaped = true;
                                    }
                                }
                            });
                        }
                        f.block(b).term.for_each_operand(|o| {
                            if let Some(v) = o.as_value() {
                                if defs.contains(&v) {
                                    escaped = true;
                                }
                            }
                        });
                    }
                    if escaped {
                        continue;
                    }
                    // Exit φ incomings from loop blocks must be invariant
                    // (they are: no escaped defs), with the exiting block as
                    // their pred; rename that pred to the preheader — unless
                    // the preheader already reaches the exit.
                    let exiting: Vec<BlockId> = cfg
                        .preds(exit)
                        .iter()
                        .copied()
                        .filter(|p| l.contains(*p))
                        .collect();
                    if exiting.len() != 1 {
                        continue;
                    }
                    if cfg.preds(exit).contains(&pre) {
                        continue;
                    }
                    for inst in &mut f.block_mut(exit).insts {
                        if let Op::Phi(incs) = &mut inst.op {
                            for (b, _) in incs.iter_mut() {
                                if *b == exiting[0] {
                                    *b = pre;
                                }
                            }
                        }
                    }
                    f.block_mut(pre).term = Terminator::Br { target: exit };
                    for &b in &l.blocks {
                        f.remove_block(b);
                    }
                    did = true;
                    break;
                }
                if !did {
                    break;
                }
            }
        });
    }
}

/// Induction-variable simplification: replaces uses of the canonical
/// induction variable *after* a counted loop with its final value.
#[derive(Debug, Default)]
pub struct IndVarSimplify;

impl Pass for IndVarSimplify {
    fn name(&self) -> String {
        "indvars".into()
    }

    fn description(&self) -> String {
        "replace post-loop uses of induction variables with final values".into()
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        for_each_function(m, am, |f, am| {
            let cfg = am.cfg(f.id(), f);
            let loops = am.loops(f.id(), f);
            for l in loops.iter() {
                let Some(cl) = recognize_counted(f, &cfg, l) else {
                    continue;
                };
                let fin = cl.init.wrapping_add((cl.trip as i64).wrapping_mul(cl.step));
                let _ = cl.limit;
                // Replace uses of φ_i in blocks outside the loop.
                for b in f.block_ids_vec() {
                    if l.contains(b) || !reads(f.block(b), cl.phi_i) {
                        continue;
                    }
                    let block = f.block_mut(b);
                    for inst in &mut block.insts {
                        inst.op.for_each_operand_mut(|o| {
                            if o.as_value() == Some(cl.phi_i) {
                                *o = Operand::const_int(fin);
                            }
                        });
                    }
                    block.term.for_each_operand_mut(|o| {
                        if o.as_value() == Some(cl.phi_i) {
                            *o = Operand::const_int(fin);
                        }
                    });
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_ir::analysis::{find_loops, DomTree};
    use cg_ir::builder::ModuleBuilder;
    use cg_ir::interp::{run_main, ExecLimits};
    use cg_ir::verify::verify_module;

    /// for i in 0..10 { acc += i*3 } ; return acc  (with preheader)
    fn counted(trip: i64) -> Module {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("main", &[], Type::I64);
        let entry = fb.current_block();
        let header = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64, vec![(entry, Operand::const_int(0))]);
        let acc = fb.phi(Type::I64, vec![(entry, Operand::const_int(0))]);
        let c = fb.icmp(Pred::Lt, i, Operand::const_int(trip));
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let t = fb.bin(BinOp::Mul, i, Operand::const_int(3));
        let acc2 = fb.bin(BinOp::Add, acc, t);
        let i2 = fb.bin(BinOp::Add, i, Operand::const_int(1));
        fb.add_phi_incoming(i, body, i2);
        fb.add_phi_incoming(acc, body, acc2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(acc));
        fb.finish();
        mb.finish()
    }

    #[test]
    fn full_unroll_preserves_result() {
        let mut m = counted(10);
        let before = run_main(&m, &ExecLimits::default()).unwrap();
        assert!(LoopUnroll::full(256).run(&mut m));
        verify_module(&m).unwrap();
        let after = run_main(&m, &ExecLimits::default()).unwrap();
        assert_eq!(before.ret, after.ret);
        // All branches gone except the final one; no loop remains.
        let f = m.func(m.find_func("main").unwrap());
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        assert!(find_loops(f, &cfg, &dom).is_empty());
        // Fewer dynamic instructions, more static ones.
        assert!(after.dyn_insts < before.dyn_insts);
    }

    #[test]
    fn full_unroll_respects_cap() {
        let mut m = counted(1000);
        assert!(
            !LoopUnroll::full(64).run(&mut m),
            "1000 iterations over cap"
        );
    }

    #[test]
    fn partial_unroll_preserves_result_and_keeps_loop() {
        let mut m = counted(12);
        let before = run_main(&m, &ExecLimits::default()).unwrap();
        assert!(LoopUnroll::partial(4).run(&mut m));
        verify_module(&m).unwrap();
        let after = run_main(&m, &ExecLimits::default()).unwrap();
        assert_eq!(before.ret, after.ret);
        let f = m.func(m.find_func("main").unwrap());
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        assert_eq!(
            find_loops(f, &cfg, &dom).len(),
            1,
            "loop survives partial unroll"
        );
        assert!(
            after.dyn_insts < before.dyn_insts,
            "fewer compare/branch executions"
        );
    }

    #[test]
    fn partial_unroll_requires_divisible_trip() {
        let mut m = counted(10);
        assert!(!LoopUnroll::partial(4).run(&mut m), "10 % 4 != 0");
        assert!(LoopUnroll::partial(2).run(&mut m));
    }

    #[test]
    fn licm_hoists_invariant_mul() {
        // acc += (n*n) each iteration; n*n is invariant.
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("main", &[], Type::I64);
        let entry = fb.current_block();
        let pre = fb.new_block();
        let header = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        let n = fb.bin(BinOp::Add, Operand::const_int(5), Operand::const_int(2));
        fb.br(pre);
        fb.switch_to(pre);
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64, vec![(pre, Operand::const_int(0))]);
        let acc = fb.phi(Type::I64, vec![(pre, Operand::const_int(0))]);
        let c = fb.icmp(Pred::Lt, i, Operand::const_int(8));
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let inv = fb.bin(BinOp::Mul, n, n); // invariant!
        let acc2 = fb.bin(BinOp::Add, acc, inv);
        let i2 = fb.bin(BinOp::Add, i, Operand::const_int(1));
        fb.add_phi_incoming(i, body, i2);
        fb.add_phi_incoming(acc, body, acc2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(acc));
        fb.finish();
        let _ = entry;
        let mut m = mb.finish();
        let before = run_main(&m, &ExecLimits::default()).unwrap();
        assert!(Licm.run(&mut m));
        verify_module(&m).unwrap();
        let after = run_main(&m, &ExecLimits::default()).unwrap();
        assert_eq!(before.ret, after.ret);
        assert!(
            after.dyn_insts < before.dyn_insts,
            "mul moved out of the loop"
        );
        // The body no longer contains a multiply.
        let f = m.func(m.find_func("main").unwrap());
        assert!(!f
            .block(body)
            .insts
            .iter()
            .any(|i| matches!(i.op, Op::Bin(BinOp::Mul, _, _))));
    }

    #[test]
    fn loop_simplify_creates_preheader() {
        // Header with two outside predecessors (no preheader).
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("main", &[], Type::I64);
        let a = fb.current_block();
        let b = fb.new_block();
        let header = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        let c0 = fb.icmp(Pred::Lt, Operand::const_int(1), Operand::const_int(2));
        fb.cond_br(c0, b, header);
        fb.switch_to(b);
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(
            Type::I64,
            vec![(a, Operand::const_int(0)), (b, Operand::const_int(1))],
        );
        let c = fb.icmp(Pred::Lt, i, Operand::const_int(5));
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let i2 = fb.bin(BinOp::Add, i, Operand::const_int(1));
        fb.add_phi_incoming(i, body, i2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(i));
        fb.finish();
        let mut m = mb.finish();
        let before = run_main(&m, &ExecLimits::default()).unwrap();
        assert!(LoopSimplify.run(&mut m));
        verify_module(&m).unwrap();
        let after = run_main(&m, &ExecLimits::default()).unwrap();
        assert_eq!(before.ret, after.ret);
        let f = m.func(m.find_func("main").unwrap());
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        let loops = find_loops(f, &cfg, &dom);
        assert!(preheader(f, &cfg, &loops[0]).is_some());
        assert!(!LoopSimplify.run(&mut m), "idempotent");
    }

    #[test]
    fn loop_deletion_removes_dead_loop() {
        // A loop that computes an accumulator nobody reads.
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("main", &[], Type::I64);
        let entry = fb.current_block();
        let header = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64, vec![(entry, Operand::const_int(0))]);
        let acc = fb.phi(Type::I64, vec![(entry, Operand::const_int(0))]);
        let c = fb.icmp(Pred::Lt, i, Operand::const_int(100));
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let acc2 = fb.bin(BinOp::Add, acc, i);
        let i2 = fb.bin(BinOp::Add, i, Operand::const_int(1));
        fb.add_phi_incoming(i, body, i2);
        fb.add_phi_incoming(acc, body, acc2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(Operand::const_int(7)));
        fb.finish();
        let mut m = mb.finish();
        assert!(LoopDeletion.run(&mut m));
        verify_module(&m).unwrap();
        let out = run_main(&m, &ExecLimits::default()).unwrap();
        assert_eq!(out.ret.unwrap().as_int(), Some(7));
        let f = m.func(m.find_func("main").unwrap());
        assert_eq!(f.num_blocks(), 2); // entry + exit
    }

    #[test]
    fn indvars_computes_exit_value() {
        // `counted`'s loop returns `acc`, not `i` — build a module that
        // returns `i` after the loop so indvars can rewrite the exit value.
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("main", &[], Type::I64);
        let entry = fb.current_block();
        let header = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64, vec![(entry, Operand::const_int(0))]);
        let c = fb.icmp(Pred::Lt, i, Operand::const_int(10));
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let i2 = fb.bin(BinOp::Add, i, Operand::const_int(1));
        fb.add_phi_incoming(i, body, i2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(i));
        fb.finish();
        let mut m = mb.finish();
        let before = run_main(&m, &ExecLimits::default()).unwrap();
        assert_eq!(before.ret.unwrap().as_int(), Some(10));
        assert!(IndVarSimplify.run(&mut m));
        verify_module(&m).unwrap();
        let f = m.func(m.find_func("main").unwrap());
        match &f.block(exit).term {
            Terminator::Ret { value: Some(v) } => assert_eq!(v.as_const_int(), Some(10)),
            t => panic!("unexpected {t:?}"),
        }
    }

    #[test]
    fn unroll_on_cbench_is_sound() {
        let mut m = cg_datasets::benchmark("cbench-v1/sha").unwrap();
        let before = run_main(&m, &ExecLimits::default()).unwrap();
        LoopUnroll::full(256).run(&mut m);
        verify_module(&m).unwrap();
        let after = run_main(&m, &ExecLimits::default()).unwrap();
        assert_eq!(before.ret, after.ret);
    }
}
