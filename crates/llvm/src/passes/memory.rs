//! Memory passes: alloca promotion (`mem2reg`), scalar replacement of
//! aggregates (`sroa`), dead-store elimination, redundant-load elimination
//! and global optimization.

use std::collections::{HashMap, HashSet};

use cg_ir::{
    AnalysisManager, BlockId, Constant, FuncEdit, Inst, Module, Op, Operand, Type, ValueId,
};

use crate::pass::Pass;
use crate::util::{for_each_function, remove_insts};

fn zero_of(ty: Type) -> Option<Constant> {
    match ty {
        Type::I1 => Some(Constant::Bool(false)),
        Type::I64 => Some(Constant::Int(0)),
        Type::F64 => Some(Constant::Float(0.0)),
        _ => None,
    }
}

/// Promotes single-cell allocas whose address never escapes into SSA values,
/// inserting φ-nodes at iterated dominance frontiers (the classic SSA
/// construction). This is the enabling pass of the whole pipeline: synthetic
/// and user programs hold locals in memory, and until they are promoted the
/// scalar passes can see nothing.
#[derive(Debug, Default)]
pub struct Mem2Reg;

impl Mem2Reg {
    fn promote(f: &mut FuncEdit<'_>, am: &mut AnalysisManager) {
        // 1. Find promotable allocas: single-slot, used only as the direct
        //    pointer of loads and stores (not stored *as a value*, no gep,
        //    no call, no escape), with a consistent access type.
        #[derive(Clone)]
        struct Cand {
            alloca: ValueId,
            ty: Type,
            def_blocks: HashSet<BlockId>,
        }
        let mut direct: HashMap<ValueId, Cand> = HashMap::new();
        let mut banned: HashSet<ValueId> = HashSet::new();
        for bid in f.block_ids_vec() {
            for inst in &f.block(bid).insts {
                if let (Some(d), Op::Alloca { slots: 1 }) = (inst.dest, &inst.op) {
                    direct.insert(
                        d,
                        Cand {
                            alloca: d,
                            ty: Type::Void,
                            def_blocks: HashSet::new(),
                        },
                    );
                }
            }
        }
        if direct.is_empty() {
            return;
        }
        for bid in f.block_ids_vec() {
            for inst in &f.block(bid).insts {
                match &inst.op {
                    Op::Load { ptr } => {
                        if let Some(v) = ptr.as_value() {
                            if let Some(c) = direct.get_mut(&v) {
                                if c.ty == Type::Void {
                                    c.ty = inst.ty;
                                } else if c.ty != inst.ty {
                                    banned.insert(v);
                                }
                            }
                        }
                    }
                    Op::Store { ptr, value } => {
                        if let Some(v) = ptr.as_value() {
                            if direct.contains_key(&v) {
                                direct.get_mut(&v).unwrap().def_blocks.insert(bid);
                            }
                        }
                        // Storing the alloca's *address* escapes it.
                        if let Some(v) = value.as_value() {
                            if direct.contains_key(&v) {
                                banned.insert(v);
                            }
                        }
                    }
                    other => {
                        other.for_each_operand(|o| {
                            if let Some(v) = o.as_value() {
                                if direct.contains_key(&v) {
                                    banned.insert(v);
                                }
                            }
                        });
                    }
                }
            }
            f.block(bid).term.for_each_operand(|o| {
                if let Some(v) = o.as_value() {
                    if direct.contains_key(&v) {
                        banned.insert(v);
                    }
                }
            });
        }
        // Determine store types: a store of a value with a type other than
        // the load type bans promotion. (Type of stored operand: constants
        // know theirs; values need the type table.)
        let types = crate::util::value_types(f);
        for bid in f.block_ids_vec() {
            for inst in &f.block(bid).insts {
                if let Op::Store { ptr, value } = &inst.op {
                    if let Some(v) = ptr.as_value() {
                        if let Some(c) = direct.get_mut(&v) {
                            let vt = match value {
                                Operand::Const(k) => Some(k.ty()),
                                Operand::Value(x) => types.get(x).copied(),
                                Operand::Global(_) => Some(Type::Ptr),
                                Operand::Func(_) => None,
                            };
                            match (c.ty, vt) {
                                (_, None) => {
                                    banned.insert(v);
                                }
                                (Type::Void, Some(t)) => c.ty = t,
                                (have, Some(t)) if have != t => {
                                    banned.insert(v);
                                }
                                _ => {}
                            }
                        }
                    }
                }
            }
        }
        let mut cands: Vec<Cand> = direct
            .into_iter()
            .filter(|(v, c)| {
                !banned.contains(v)
                    && zero_of(if c.ty == Type::Void { Type::I64 } else { c.ty }).is_some()
            })
            .map(|(_, mut c)| {
                if c.ty == Type::Void {
                    // Never loaded: stores are dead; promote as i64.
                    c.ty = Type::I64;
                }
                c
            })
            .collect();
        // Deterministic processing order: fresh value ids and φ insertion
        // order must not depend on hash-map iteration (state validation
        // replays actions and compares module hashes).
        cands.sort_by_key(|c| c.alloca);
        if cands.is_empty() {
            return;
        }

        let dom = am.dom(f.id(), f);
        let df = am.frontiers(f.id(), f);

        // 2. Insert φ placeholders at iterated dominance frontiers.
        // phi_site[(block, cand_idx)] = φ value id
        let mut phi_site: HashMap<(BlockId, usize), ValueId> = HashMap::new();
        for (ci, cand) in cands.iter().enumerate() {
            let mut work: Vec<BlockId> = cand
                .def_blocks
                .iter()
                .copied()
                .filter(|b| dom.is_reachable(*b))
                .collect();
            work.sort();
            let mut placed: HashSet<BlockId> = HashSet::new();
            while let Some(b) = work.pop() {
                for &frontier in &df[b.0 as usize] {
                    if placed.insert(frontier) {
                        let v = f.fresh_value();
                        phi_site.insert((frontier, ci), v);
                        let at = f.block(frontier).phi_count();
                        f.block_mut(frontier)
                            .insts
                            .insert(at, Inst::new(v, cand.ty, Op::Phi(Vec::new())));
                        work.push(frontier);
                    }
                }
            }
        }

        // 3. Rename: DFS over the dominator tree carrying the current value
        //    of each candidate.
        let alloca_index: HashMap<ValueId, usize> = cands
            .iter()
            .enumerate()
            .map(|(i, c)| (c.alloca, i))
            .collect();
        let mut children: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
        for &b in dom.rpo() {
            if let Some(p) = dom.idom(b) {
                children.entry(p).or_default().push(b);
            }
        }
        let mut current: Vec<Vec<Operand>> = cands
            .iter()
            .map(|c| vec![Operand::Const(zero_of(c.ty).expect("checked"))])
            .collect();
        let mut load_subs: HashMap<ValueId, Operand> = HashMap::new();
        let mut dead_insts: HashSet<ValueId> = HashSet::new(); // allocas + loads
        let mut dead_stores: HashSet<(BlockId, usize)> = HashSet::new();
        // φ incomings to append after the walk: (block, φ value, pred, operand)
        let mut phi_incomings: Vec<(BlockId, ValueId, BlockId, Operand)> = Vec::new();

        enum Ev {
            Enter(BlockId),
            Exit(Vec<usize>), // candidate stacks to pop
        }
        let mut stack = vec![Ev::Enter(f.entry())];
        while let Some(ev) = stack.pop() {
            match ev {
                Ev::Enter(b) => {
                    let mut pushed: Vec<usize> = Vec::new();
                    // φ placeholders define new current values on entry.
                    for (ci, _) in cands.iter().enumerate() {
                        if let Some(&phi_v) = phi_site.get(&(b, ci)) {
                            current[ci].push(Operand::Value(phi_v));
                            pushed.push(ci);
                        }
                    }
                    for (ii, inst) in f.block(b).insts.iter().enumerate() {
                        match &inst.op {
                            Op::Alloca { .. } => {
                                if let Some(d) = inst.dest {
                                    if alloca_index.contains_key(&d) {
                                        dead_insts.insert(d);
                                    }
                                }
                            }
                            Op::Load { ptr } => {
                                if let Some(a) = ptr.as_value() {
                                    if let Some(&ci) = alloca_index.get(&a) {
                                        let cur = *current[ci].last().unwrap();
                                        load_subs.insert(inst.dest.unwrap(), cur);
                                        dead_insts.insert(inst.dest.unwrap());
                                    }
                                }
                            }
                            Op::Store { ptr, value } => {
                                if let Some(a) = ptr.as_value() {
                                    if let Some(&ci) = alloca_index.get(&a) {
                                        current[ci].push(*value);
                                        pushed.push(ci);
                                        dead_stores.insert((b, ii));
                                    }
                                }
                            }
                            _ => {}
                        }
                    }
                    // Feed successors' φ placeholders.
                    let mut succs = f.block(b).term.successors().to_vec();
                    succs.sort();
                    succs.dedup();
                    for s in succs {
                        for (ci, _) in cands.iter().enumerate() {
                            if let Some(&phi_v) = phi_site.get(&(s, ci)) {
                                let cur = *current[ci].last().unwrap();
                                phi_incomings.push((s, phi_v, b, cur));
                            }
                        }
                    }
                    stack.push(Ev::Exit(pushed));
                    for c in children.get(&b).cloned().unwrap_or_default() {
                        stack.push(Ev::Enter(c));
                    }
                }
                Ev::Exit(pushed) => {
                    for ci in pushed {
                        current[ci].pop();
                    }
                }
            }
        }

        // 4. Apply: fill φ incomings, rewrite load uses (resolving chains of
        //    load→load substitutions), delete allocas/loads/stores.
        for (b, phi_v, pred, mut val) in phi_incomings {
            // A load that was itself promoted may appear as an incoming.
            let mut guard = 0;
            while let Some(next) = val.as_value().and_then(|v| load_subs.get(&v)) {
                val = *next;
                guard += 1;
                assert!(guard < 10_000, "substitution cycle");
            }
            for inst in &mut f.block_mut(b).insts {
                if inst.dest == Some(phi_v) {
                    if let Op::Phi(incs) = &mut inst.op {
                        incs.push((pred, val));
                    }
                }
            }
        }
        // Resolve chains in load_subs, then apply (in sorted order so any
        // downstream behaviour is reproducible).
        let mut keys: Vec<ValueId> = load_subs.keys().copied().collect();
        keys.sort();
        let resolved: HashMap<ValueId, Operand> = keys
            .into_iter()
            .map(|k| {
                let mut v = load_subs[&k];
                let mut guard = 0;
                while let Some(next) = v.as_value().and_then(|x| load_subs.get(&x)) {
                    v = *next;
                    guard += 1;
                    assert!(guard < 10_000, "substitution cycle");
                }
                (k, v)
            })
            .collect();
        for bid in f.block_ids_vec() {
            let block = f.block_mut(bid);
            for inst in &mut block.insts {
                inst.op.for_each_operand_mut(|o| {
                    if let Some(v) = o.as_value() {
                        if let Some(rep) = resolved.get(&v) {
                            *o = *rep;
                        }
                    }
                });
            }
            block.term.for_each_operand_mut(|o| {
                if let Some(v) = o.as_value() {
                    if let Some(rep) = resolved.get(&v) {
                        *o = *rep;
                    }
                }
            });
        }
        for bid in f.block_ids_vec() {
            let dead_store_idx: HashSet<usize> = dead_stores
                .iter()
                .filter(|(b, _)| *b == bid)
                .map(|(_, i)| *i)
                .collect();
            let block = f.block_mut(bid);
            let mut i = 0;
            block.insts.retain(|inst| {
                let keep = !dead_store_idx.contains(&i)
                    && inst.dest.map(|d| !dead_insts.contains(&d)).unwrap_or(true);
                i += 1;
                keep
            });
        }
    }
}

impl Pass for Mem2Reg {
    fn name(&self) -> String {
        "mem2reg".into()
    }

    fn description(&self) -> String {
        "promote non-escaping single-cell allocas to SSA values".into()
    }

    fn preserved(&self) -> crate::pass::Preserved {
        crate::pass::Preserved::Cfg
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        for_each_function(m, am, Mem2Reg::promote);
    }
}

/// Scalar replacement of aggregates: splits multi-cell allocas whose only
/// uses are constant-offset geps (feeding direct loads/stores) into
/// independent single-cell allocas, unlocking [`Mem2Reg`]. `max_slots`
/// bounds the aggregate size considered (LLVM's `-sroa-max-elements`).
#[derive(Debug)]
pub struct Sroa {
    max_slots: u32,
}

impl Default for Sroa {
    fn default() -> Sroa {
        Sroa { max_slots: 64 }
    }
}

impl Sroa {
    /// SROA considering aggregates up to `max_slots` cells.
    pub fn with_max_slots(max_slots: u32) -> Sroa {
        Sroa { max_slots }
    }
}

impl Pass for Sroa {
    fn name(&self) -> String {
        if self.max_slots == 64 {
            "sroa".into()
        } else {
            format!("sroa-{}", self.max_slots)
        }
    }

    fn description(&self) -> String {
        "split constant-indexed aggregate allocas into scalars".into()
    }

    fn preserved(&self) -> crate::pass::Preserved {
        crate::pass::Preserved::Cfg
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        let max_slots = self.max_slots;
        for_each_function(m, am, |f, _| {
            // alloca -> slots, plus the geps that index it.
            let mut aggs: HashMap<ValueId, u32> = HashMap::new();
            let mut banned: HashSet<ValueId> = HashSet::new();
            let mut geps: HashMap<ValueId, (ValueId, i64)> = HashMap::new(); // gep -> (alloca, off)
            for bid in f.block_ids_vec() {
                for inst in &f.block(bid).insts {
                    if let (Some(d), Op::Alloca { slots }) = (inst.dest, &inst.op) {
                        if *slots > 1 && *slots <= max_slots {
                            aggs.insert(d, *slots);
                        }
                    }
                }
            }
            if aggs.is_empty() {
                return;
            }
            for bid in f.block_ids_vec() {
                for inst in &f.block(bid).insts {
                    match &inst.op {
                        Op::Gep { base, offset } => {
                            if let Some(a) = base.as_value() {
                                if let Some(&slots) = aggs.get(&a) {
                                    match offset.as_const_int() {
                                        Some(off) if off >= 0 && (off as u32) < slots => {
                                            geps.insert(inst.dest.unwrap(), (a, off));
                                        }
                                        _ => {
                                            banned.insert(a);
                                        }
                                    }
                                }
                            }
                        }
                        Op::Load { ptr } | Op::Store { ptr, .. } => {
                            // Direct load/store of the aggregate base is cell
                            // 0; allowed.
                            if let Some(a) = ptr.as_value() {
                                if aggs.contains_key(&a) {
                                    // treat as gep 0; handled in rewrite via
                                    // identity map below — simplest to ban to
                                    // keep the rewrite uniform.
                                    banned.insert(a);
                                }
                            }
                            if let Op::Store { value, .. } = &inst.op {
                                if let Some(v) = value.as_value() {
                                    if aggs.contains_key(&v) {
                                        banned.insert(v);
                                    }
                                }
                            }
                        }
                        other => {
                            other.for_each_operand(|o| {
                                if let Some(v) = o.as_value() {
                                    if aggs.contains_key(&v) {
                                        banned.insert(v);
                                    }
                                }
                            });
                        }
                    }
                }
            }
            // Also ban aggregates whose geps escape beyond load/store.
            for bid in f.block_ids_vec() {
                for inst in &f.block(bid).insts {
                    let check = |o: &Operand, banned: &mut HashSet<ValueId>| {
                        if let Some(v) = o.as_value() {
                            if let Some((a, _)) = geps.get(&v) {
                                banned.insert(*a);
                            }
                        }
                    };
                    match &inst.op {
                        Op::Load { .. } => {}
                        Op::Store { ptr: _, value } => check(value, &mut banned),
                        Op::Gep { base, offset } => {
                            check(base, &mut banned);
                            check(offset, &mut banned);
                        }
                        other => other.for_each_operand(|o| check(o, &mut banned)),
                    }
                }
            }
            let targets: Vec<(ValueId, u32)> = aggs
                .iter()
                .filter(|(v, _)| !banned.contains(v))
                .map(|(v, s)| (*v, *s))
                .collect();
            if targets.is_empty() {
                return;
            }
            // Rewrite: for each target aggregate, replace its alloca with
            // per-cell allocas (inserted at the same point), then point each
            // gep at the right scalar.
            for (agg, slots) in targets {
                // Create scalar allocas right after the aggregate's alloca.
                let mut scalars: Vec<ValueId> = Vec::with_capacity(slots as usize);
                'outer: for bid in f.block_ids_vec() {
                    let n = f.block(bid).insts.len();
                    for ii in 0..n {
                        if f.block(bid).insts[ii].dest == Some(agg) {
                            for s in 0..slots {
                                let v = f.fresh_value();
                                scalars.push(v);
                                f.block_mut(bid).insts.insert(
                                    ii + 1 + s as usize,
                                    Inst::new(v, Type::Ptr, Op::Alloca { slots: 1 }),
                                );
                            }
                            // Remove the aggregate alloca itself.
                            f.block_mut(bid).insts.remove(ii);
                            break 'outer;
                        }
                    }
                }
                // Redirect geps.
                let relevant: Vec<(ValueId, i64)> = geps
                    .iter()
                    .filter(|(_, (a, _))| *a == agg)
                    .map(|(g, (_, off))| (*g, *off))
                    .collect();
                for (g, off) in relevant {
                    f.replace_all_uses(g, Operand::Value(scalars[off as usize]));
                    for bid in f.block_ids_vec() {
                        f.block_mut(bid).insts.retain(|i| i.dest != Some(g));
                    }
                }
            }
        });
    }
}

/// Block-local dead-store elimination: a store is dead if the same address
/// operand is stored again later in the block with no intervening load or
/// call.
#[derive(Debug, Default)]
pub struct Dse;

impl Pass for Dse {
    fn name(&self) -> String {
        "dse".into()
    }

    fn description(&self) -> String {
        "remove stores overwritten before any possible read".into()
    }

    fn preserved(&self) -> crate::pass::Preserved {
        crate::pass::Preserved::Cfg
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        for_each_function(m, am, |f, _| {
            for bid in f.block_ids_vec() {
                let block = f.block(bid);
                let mut dead: HashSet<usize> = HashSet::new();
                // pending[ptr operand] = index of the most recent store.
                let mut pending: HashMap<Operand, usize> = HashMap::new();
                for (i, inst) in block.insts.iter().enumerate() {
                    match &inst.op {
                        Op::Store { ptr, .. } => {
                            if let Some(&prev) = pending.get(ptr) {
                                dead.insert(prev);
                            }
                            pending.insert(*ptr, i);
                        }
                        Op::Load { .. } | Op::Call { .. } => {
                            pending.clear();
                        }
                        _ => {}
                    }
                }
                if !dead.is_empty() {
                    let mut i = 0;
                    f.block_mut(bid).insts.retain(|_| {
                        let keep = !dead.contains(&i);
                        i += 1;
                        keep
                    });
                }
            }
        });
    }
}

/// Block-local redundant-load elimination: a load from `p` directly after a
/// store of `v` to `p` (or an earlier load from `p`) with no intervening
/// write or call yields `v`.
#[derive(Debug, Default)]
pub struct LoadElim;

impl Pass for LoadElim {
    fn name(&self) -> String {
        "load-elim".into()
    }

    fn description(&self) -> String {
        "forward stored values to subsequent loads within a block".into()
    }

    fn preserved(&self) -> crate::pass::Preserved {
        crate::pass::Preserved::Cfg
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        for_each_function(m, am, |f, _| {
            let mut subs: Vec<(ValueId, Operand)> = Vec::new();
            for bid in f.block_ids_vec() {
                let mut known: HashMap<Operand, Operand> = HashMap::new();
                for inst in &f.block(bid).insts {
                    match &inst.op {
                        Op::Store { ptr, value } => {
                            // A store to one address invalidates knowledge of
                            // all others (conservative aliasing), then
                            // records its own.
                            known.clear();
                            known.insert(*ptr, *value);
                        }
                        Op::Load { ptr } => {
                            if let Some(v) = known.get(ptr) {
                                subs.push((inst.dest.unwrap(), *v));
                            } else {
                                known.insert(*ptr, Operand::Value(inst.dest.unwrap()));
                            }
                        }
                        Op::Call { .. } => known.clear(),
                        _ => {}
                    }
                }
            }
            if subs.is_empty() {
                return;
            }
            // Resolve substitution chains: a forwarded load may itself be
            // the stored value backing a later forwarding (d3 -> d2 -> d1);
            // replacing in discovery order would resurrect deleted values.
            let map: HashMap<ValueId, Operand> = subs.iter().cloned().collect();
            let resolve = |mut o: Operand| {
                let mut guard = 0;
                while let Some(next) = o.as_value().and_then(|v| map.get(&v)) {
                    o = *next;
                    guard += 1;
                    debug_assert!(guard < 100_000, "substitution cycle");
                }
                o
            };
            let dead: HashSet<ValueId> = subs.iter().map(|(d, _)| *d).collect();
            for (d, v) in subs {
                f.replace_all_uses(d, resolve(v));
            }
            remove_insts(f, |i| i.dest.is_some_and(|d| dead.contains(&d)));
        });
    }
}

/// Global optimization: marks never-stored globals as constant and folds
/// loads of constant globals at statically known offsets.
#[derive(Debug, Default)]
pub struct GlobalOpt;

impl Pass for GlobalOpt {
    fn name(&self) -> String {
        "globalopt".into()
    }

    fn description(&self) -> String {
        "constant-promote globals and fold constant-offset loads".into()
    }

    fn preserved(&self) -> crate::pass::Preserved {
        crate::pass::Preserved::Cfg
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        // 1. A global never stored through (directly or via gep) is constant.
        let mut stored: HashSet<u32> = HashSet::new();
        // Track geps of globals: gep value -> global index (per function).
        for fid in m.func_ids_vec() {
            let f = m.func(fid);
            let mut gep_of: HashMap<ValueId, u32> = HashMap::new();
            for bid in f.block_ids_vec() {
                for inst in &f.block(bid).insts {
                    if let (Some(d), Op::Gep { base, .. }) = (inst.dest, &inst.op) {
                        match base {
                            Operand::Global(g) => {
                                gep_of.insert(d, g.0);
                            }
                            Operand::Value(v) => {
                                if let Some(&g) = gep_of.get(v) {
                                    gep_of.insert(d, g);
                                }
                            }
                            _ => {}
                        }
                    }
                }
            }
            for bid in f.block_ids_vec() {
                for inst in &f.block(bid).insts {
                    if let Op::Store { ptr, .. } = &inst.op {
                        match ptr {
                            Operand::Global(g) => {
                                stored.insert(g.0);
                            }
                            Operand::Value(v) => {
                                match gep_of.get(v) {
                                    Some(g) => {
                                        stored.insert(*g);
                                    }
                                    None => {
                                        // Unknown pointer: conservatively all
                                        // globals may be stored.
                                        for gi in 0..m.globals().len() as u32 {
                                            stored.insert(gi);
                                        }
                                    }
                                }
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
        // Decide on the shared view first: `globals_mut` copies every
        // initialiser when a snapshot still shares them, so it is taken
        // only when a global really changes.
        let promote: Vec<usize> = (0..m.globals().len())
            .filter(|&gi| !stored.contains(&(gi as u32)) && !m.globals()[gi].constant)
            .collect();
        if !promote.is_empty() {
            let globals = m.globals_mut();
            for gi in promote {
                globals[gi].constant = true;
            }
        }
        // 2. Fold loads of constant globals at constant offsets.
        let globals: Vec<(bool, Vec<i64>, u32)> = m
            .globals()
            .iter()
            .map(|g| (g.constant, g.init.clone(), g.slots))
            .collect();
        for_each_function(m, am, |f, _| {
            // gep value -> (global, const offset)
            let mut gep_const: HashMap<ValueId, (u32, i64)> = HashMap::new();
            for bid in f.block_ids_vec() {
                for inst in &f.block(bid).insts {
                    if let (Some(d), Op::Gep { base, offset }) = (inst.dest, &inst.op) {
                        if let (Operand::Global(g), Some(off)) = (base, offset.as_const_int()) {
                            gep_const.insert(d, (g.0, off));
                        }
                    }
                }
            }
            let mut subs: Vec<(ValueId, Constant)> = Vec::new();
            for bid in f.block_ids_vec() {
                for inst in &f.block(bid).insts {
                    let Op::Load { ptr } = &inst.op else { continue };
                    let target = match ptr {
                        Operand::Global(g) => Some((g.0, 0i64)),
                        Operand::Value(v) => gep_const.get(v).copied(),
                        _ => None,
                    };
                    let Some((gi, off)) = target else { continue };
                    let (constant, init, slots) = &globals[gi as usize];
                    if !*constant || off < 0 || off as u32 >= *slots {
                        continue;
                    }
                    if inst.ty != Type::I64 {
                        continue; // cells are stored as i64 bit patterns
                    }
                    let cell = init.get(off as usize).copied().unwrap_or(0);
                    subs.push((inst.dest.unwrap(), Constant::Int(cell)));
                }
            }
            if subs.is_empty() {
                return;
            }
            let dead: HashSet<ValueId> = subs.iter().map(|(d, _)| *d).collect();
            for (d, c) in subs {
                f.replace_all_uses(d, Operand::Const(c));
            }
            remove_insts(f, |i| i.dest.is_some_and(|d| dead.contains(&d)));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_ir::builder::ModuleBuilder;
    use cg_ir::interp::{run_main, ExecLimits};
    use cg_ir::verify::verify_module;
    use cg_ir::{BinOp, Pred};

    /// A function that round-trips a computation through an alloca across a
    /// branch — the canonical mem2reg scenario needing a φ.
    fn alloca_diamond() -> Module {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("main", &[], Type::I64);
        let slot = fb.alloca(1);
        fb.store(slot, Operand::const_int(10));
        let c = fb.icmp(Pred::Lt, Operand::const_int(3), Operand::const_int(5));
        let t = fb.new_block();
        let e = fb.new_block();
        let j = fb.new_block();
        fb.cond_br(c, t, e);
        fb.switch_to(t);
        fb.store(slot, Operand::const_int(20));
        fb.br(j);
        fb.switch_to(e);
        fb.store(slot, Operand::const_int(30));
        fb.br(j);
        fb.switch_to(j);
        let v = fb.load(Type::I64, slot);
        fb.ret(Some(v));
        fb.finish();
        mb.finish()
    }

    #[test]
    fn mem2reg_inserts_phi_and_preserves_result() {
        let mut m = alloca_diamond();
        let before = run_main(&m, &ExecLimits::default()).unwrap();
        assert!(Mem2Reg.run(&mut m));
        verify_module(&m).unwrap();
        let after = run_main(&m, &ExecLimits::default()).unwrap();
        assert_eq!(before.ret, after.ret);
        // No memory operations remain.
        for fid in m.func_ids_vec() {
            for b in m.func(fid).blocks() {
                for inst in &b.insts {
                    assert!(
                        !matches!(
                            inst.op,
                            Op::Alloca { .. } | Op::Load { .. } | Op::Store { .. }
                        ),
                        "memory op survived: {:?}",
                        inst.op
                    );
                }
            }
        }
        // And a φ was created at the join.
        let has_phi = m
            .func_ids_vec()
            .iter()
            .flat_map(|fid| m.func(*fid).blocks().collect::<Vec<_>>())
            .any(|b| b.insts.iter().any(|i| matches!(i.op, Op::Phi(_))));
        assert!(has_phi);
    }

    #[test]
    fn mem2reg_uninitialized_load_reads_zero() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("main", &[], Type::I64);
        let slot = fb.alloca(1);
        let v = fb.load(Type::I64, slot); // alloca memory is zeroed
        fb.ret(Some(v));
        fb.finish();
        let mut m = mb.finish();
        let before = run_main(&m, &ExecLimits::default()).unwrap();
        assert!(Mem2Reg.run(&mut m));
        verify_module(&m).unwrap();
        let after = run_main(&m, &ExecLimits::default()).unwrap();
        assert_eq!(before.ret, after.ret);
    }

    #[test]
    fn mem2reg_skips_escaping_alloca() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("take", &[Type::Ptr], Type::I64);
        let p = fb.param(0);
        let v = fb.load(Type::I64, p);
        fb.ret(Some(v));
        let take = fb.finish();
        let mut fb = mb.begin_function("main", &[], Type::I64);
        let slot = fb.alloca(1);
        fb.store(slot, Operand::const_int(5));
        let r = fb.call(take, Type::I64, vec![slot]).unwrap();
        fb.ret(Some(r));
        fb.finish();
        let mut m = mb.finish();
        assert!(!Mem2Reg.run(&mut m), "escaping alloca must not be promoted");
    }

    #[test]
    fn sroa_then_mem2reg_scalarizes_aggregate() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("main", &[], Type::I64);
        let agg = fb.alloca(4);
        let p0 = fb.gep(agg, Operand::const_int(0));
        let p3 = fb.gep(agg, Operand::const_int(3));
        fb.store(p0, Operand::const_int(11));
        fb.store(p3, Operand::const_int(31));
        let a = fb.load(Type::I64, p0);
        let b = fb.load(Type::I64, p3);
        let s = fb.bin(BinOp::Add, a, b);
        fb.ret(Some(s));
        fb.finish();
        let mut m = mb.finish();
        let before = run_main(&m, &ExecLimits::default()).unwrap();
        assert!(Sroa::default().run(&mut m));
        verify_module(&m).unwrap();
        assert!(Mem2Reg.run(&mut m));
        verify_module(&m).unwrap();
        let after = run_main(&m, &ExecLimits::default()).unwrap();
        assert_eq!(before.ret, after.ret);
        assert_eq!(after.ret.unwrap().as_int(), Some(42));
    }

    #[test]
    fn dse_removes_overwritten_store() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_global("g", 1, vec![0]);
        let mut fb = mb.begin_function("main", &[], Type::I64);
        let p = Operand::Global(g);
        fb.store(p, Operand::const_int(1)); // dead
        fb.store(p, Operand::const_int(2));
        let v = fb.load(Type::I64, p);
        fb.ret(Some(v));
        fb.finish();
        let mut m = mb.finish();
        let before = m.inst_count();
        assert!(Dse.run(&mut m));
        verify_module(&m).unwrap();
        assert_eq!(m.inst_count(), before - 1);
        assert_eq!(
            run_main(&m, &ExecLimits::default())
                .unwrap()
                .ret
                .unwrap()
                .as_int(),
            Some(2)
        );
    }

    #[test]
    fn dse_respects_intervening_load() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_global("g", 1, vec![0]);
        let mut fb = mb.begin_function("main", &[], Type::I64);
        let p = Operand::Global(g);
        fb.store(p, Operand::const_int(1));
        let v = fb.load(Type::I64, p); // reads the first store
        fb.store(p, Operand::const_int(2));
        fb.ret(Some(v));
        fb.finish();
        let mut m = mb.finish();
        assert!(!Dse.run(&mut m));
    }

    #[test]
    fn load_elim_forwards_store() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_global("g", 1, vec![0]);
        let mut fb = mb.begin_function("main", &[], Type::I64);
        let p = Operand::Global(g);
        fb.store(p, Operand::const_int(7));
        let v = fb.load(Type::I64, p); // → 7
        fb.ret(Some(v));
        fb.finish();
        let mut m = mb.finish();
        assert!(LoadElim.run(&mut m));
        verify_module(&m).unwrap();
        assert_eq!(
            run_main(&m, &ExecLimits::default())
                .unwrap()
                .ret
                .unwrap()
                .as_int(),
            Some(7)
        );
        // Only the store and ret remain.
        assert_eq!(m.inst_count(), 2);
    }

    #[test]
    fn globalopt_folds_constant_table_load() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_global("tab", 4, vec![10, 20, 30, 40]); // never stored
        let mut fb = mb.begin_function("main", &[], Type::I64);
        let p = fb.gep(Operand::Global(g), Operand::const_int(2));
        let v = fb.load(Type::I64, p);
        fb.ret(Some(v));
        fb.finish();
        let mut m = mb.finish();
        assert!(GlobalOpt.run(&mut m));
        verify_module(&m).unwrap();
        assert!(m.globals()[0].constant, "never-stored global becomes const");
        assert_eq!(
            run_main(&m, &ExecLimits::default())
                .unwrap()
                .ret
                .unwrap()
                .as_int(),
            Some(30)
        );
    }

    #[test]
    fn globalopt_keeps_stored_globals_mutable() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_global("s", 1, vec![0]);
        let mut fb = mb.begin_function("main", &[], Type::I64);
        fb.store(Operand::Global(g), Operand::const_int(1));
        let v = fb.load(Type::I64, Operand::Global(g));
        fb.ret(Some(v));
        fb.finish();
        let mut m = mb.finish();
        GlobalOpt.run(&mut m);
        assert!(!m.globals()[0].constant);
    }
}
