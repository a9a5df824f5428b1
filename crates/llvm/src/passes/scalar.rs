//! Scalar optimization passes: dead-code elimination, constant folding,
//! algebraic simplification, reassociation, common-subexpression
//! elimination, sinking, φ simplification and strength reduction.

use std::collections::{HashMap, HashSet};

use cg_ir::{
    AnalysisManager, BinOp, BlockId, Constant, FuncEdit, Module, Op, Operand, Pred, Type, ValueId,
};

use crate::pass::Pass;
use crate::util::{apply_substitutions, fold_op, for_each_function, remove_insts, use_counts};

/// Dead code elimination: iteratively removes pure instructions whose
/// results are unused.
#[derive(Debug, Default)]
pub struct Dce;

impl Pass for Dce {
    fn name(&self) -> String {
        "dce".into()
    }

    fn description(&self) -> String {
        "remove pure instructions with unused results".into()
    }

    fn preserved(&self) -> crate::pass::Preserved {
        crate::pass::Preserved::Cfg
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        for_each_function(m, am, |f, _| while die(f) {});
    }
}

/// Dead instruction elimination: one non-iterative sweep of [`Dce`]
/// (LLVM's `-die` to `-dce`'s fixpoint).
#[derive(Debug, Default)]
pub struct Die;

impl Pass for Die {
    fn name(&self) -> String {
        "die".into()
    }

    fn description(&self) -> String {
        "single-sweep dead instruction elimination".into()
    }

    fn preserved(&self) -> crate::pass::Preserved {
        crate::pass::Preserved::Cfg
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        for_each_function(m, am, |f, _| {
            die(f);
        });
    }
}

/// One dead-instruction sweep: removes pure instructions whose results are
/// unused. Returns whether it removed any.
fn die(f: &mut FuncEdit<'_>) -> bool {
    let uses = use_counts(f);
    remove_insts(f, |inst| {
        inst.dest
            .is_some_and(|d| inst.is_removable_if_unused() && uses[d.0 as usize] == 0)
    })
}

/// Aggressive DCE: assumes everything dead until proven live, so it also
/// removes dead φ-cycles that use-count-based DCE cannot see.
#[derive(Debug, Default)]
pub struct Adce;

impl Pass for Adce {
    fn name(&self) -> String {
        "adce".into()
    }

    fn description(&self) -> String {
        "aggressive DCE that removes dead phi cycles".into()
    }

    fn preserved(&self) -> crate::pass::Preserved {
        crate::pass::Preserved::Cfg
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        for_each_function(m, am, |f, _| {
            // Roots: operands of side-effecting instructions and terminators.
            let mut live: HashSet<ValueId> = HashSet::new();
            let mut work: Vec<ValueId> = Vec::new();
            let mut def_ops: HashMap<ValueId, Vec<ValueId>> = HashMap::new();
            for bid in f.block_ids_vec() {
                let b = f.block(bid);
                for inst in &b.insts {
                    if let Some(d) = inst.dest {
                        let mut deps = Vec::new();
                        inst.op.for_each_operand(|o| {
                            if let Some(v) = o.as_value() {
                                deps.push(v);
                            }
                        });
                        def_ops.insert(d, deps);
                    }
                    if inst.op.has_side_effects() {
                        inst.op.for_each_operand(|o| {
                            if let Some(v) = o.as_value() {
                                work.push(v);
                            }
                        });
                    }
                }
                b.term.for_each_operand(|o| {
                    if let Some(v) = o.as_value() {
                        work.push(v);
                    }
                });
            }
            while let Some(v) = work.pop() {
                if live.insert(v) {
                    if let Some(deps) = def_ops.get(&v) {
                        work.extend(deps.iter().copied());
                    }
                }
            }
            remove_insts(f, |inst| {
                inst.dest
                    .is_some_and(|d| inst.is_removable_if_unused() && !live.contains(&d))
            });
        });
    }
}

/// Constant folding: evaluates instructions whose operands are all
/// constants, using the interpreter's own arithmetic.
#[derive(Debug, Default)]
pub struct ConstFold;

impl Pass for ConstFold {
    fn name(&self) -> String {
        "constfold".into()
    }

    fn description(&self) -> String {
        "fold instructions with all-constant operands".into()
    }

    fn preserved(&self) -> crate::pass::Preserved {
        crate::pass::Preserved::Cfg
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        for_each_function(m, am, |f, _| loop {
            let mut subs: Vec<(ValueId, Operand)> = Vec::new();
            for b in f.blocks() {
                for inst in &b.insts {
                    if let (Some(d), Some(c)) = (inst.dest, fold_op(&inst.op)) {
                        subs.push((d, Operand::Const(c)));
                    }
                }
            }
            if !apply_substitutions(f, subs) {
                break;
            }
        });
    }
}

/// Algebraic instruction combining.
///
/// The `full` variant applies rewrites that may change instruction kinds
/// (e.g. `0 - x` → `neg x`); `simplify_only` (LLVM's `-instsimplify`) only
/// replaces instructions with existing values or constants.
#[derive(Debug)]
pub struct InstCombine {
    rewrite: bool,
}

impl InstCombine {
    /// The full combiner.
    pub fn full() -> InstCombine {
        InstCombine { rewrite: true }
    }

    /// Simplification only: never creates new instructions.
    pub fn simplify_only() -> InstCombine {
        InstCombine { rewrite: false }
    }

    /// Returns `Some(replacement)` when `op` simplifies to an existing
    /// operand or constant.
    fn simplify(op: &Op) -> Option<Operand> {
        use BinOp::*;
        let int = |i: i64| Operand::const_int(i);
        match op {
            Op::Bin(b, x, y) => {
                let xc = x.as_const_int();
                let yc = y.as_const_int();
                match b {
                    Add => {
                        if yc == Some(0) {
                            return Some(*x);
                        }
                        if xc == Some(0) {
                            return Some(*y);
                        }
                    }
                    Sub => {
                        if yc == Some(0) {
                            return Some(*x);
                        }
                        if x == y {
                            return Some(int(0));
                        }
                    }
                    Mul => {
                        if yc == Some(1) {
                            return Some(*x);
                        }
                        if xc == Some(1) {
                            return Some(*y);
                        }
                        if yc == Some(0) || xc == Some(0) {
                            return Some(int(0));
                        }
                    }
                    Div if yc == Some(1) => {
                        return Some(*x);
                    }
                    Rem if yc == Some(1) => {
                        return Some(int(0));
                    }
                    And => {
                        if x == y {
                            return Some(*x);
                        }
                        if yc == Some(0) || xc == Some(0) {
                            return Some(int(0));
                        }
                        if yc == Some(-1) {
                            return Some(*x);
                        }
                        if xc == Some(-1) {
                            return Some(*y);
                        }
                    }
                    Or => {
                        if x == y {
                            return Some(*x);
                        }
                        if yc == Some(0) {
                            return Some(*x);
                        }
                        if xc == Some(0) {
                            return Some(*y);
                        }
                        if yc == Some(-1) || xc == Some(-1) {
                            return Some(int(-1));
                        }
                    }
                    Xor => {
                        if x == y {
                            return Some(int(0));
                        }
                        if yc == Some(0) {
                            return Some(*x);
                        }
                        if xc == Some(0) {
                            return Some(*y);
                        }
                    }
                    Shl | AShr | LShr => {
                        if yc == Some(0) {
                            return Some(*x);
                        }
                        if xc == Some(0) {
                            return Some(int(0));
                        }
                    }
                    FMul => {
                        if y.as_const() == Some(Constant::Float(1.0)) {
                            return Some(*x);
                        }
                        if x.as_const() == Some(Constant::Float(1.0)) {
                            return Some(*y);
                        }
                    }
                    FDiv if y.as_const() == Some(Constant::Float(1.0)) => {
                        return Some(*x);
                    }
                    _ => {}
                }
                None
            }
            Op::Icmp(p, x, y) => {
                if x == y {
                    return Some(Operand::const_bool(matches!(
                        p,
                        Pred::Eq | Pred::Le | Pred::Ge
                    )));
                }
                None
            }
            Op::Select {
                cond,
                on_true,
                on_false,
            } => {
                if on_true == on_false {
                    return Some(*on_true);
                }
                if let Some(Constant::Bool(b)) = cond.as_const() {
                    return Some(if b { *on_true } else { *on_false });
                }
                None
            }
            Op::Gep { base, offset } => {
                if offset.as_const_int() == Some(0) {
                    return Some(*base);
                }
                None
            }
            _ => None,
        }
    }
}

impl Pass for InstCombine {
    fn name(&self) -> String {
        if self.rewrite {
            "instcombine".into()
        } else {
            "instsimplify".into()
        }
    }

    fn description(&self) -> String {
        "algebraic simplification of instructions".into()
    }

    fn preserved(&self) -> crate::pass::Preserved {
        crate::pass::Preserved::Cfg
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        let rewrite = self.rewrite;
        for_each_function(m, am, |f, _| {
            loop {
                // Phase 1: simplifications (replace with existing operand).
                let mut subs: Vec<(ValueId, Operand)> = Vec::new();
                // Map value -> defining op for not(not x) / neg(neg x).
                let mut defs: HashMap<ValueId, Op> = HashMap::new();
                for bid in f.block_ids_vec() {
                    for inst in &f.block(bid).insts {
                        if let Some(d) = inst.dest {
                            defs.insert(d, inst.op.clone());
                        }
                    }
                }
                for bid in f.block_ids_vec() {
                    for inst in &f.block(bid).insts {
                        let Some(d) = inst.dest else { continue };
                        if let Some(rep) = Self::simplify(&inst.op) {
                            subs.push((d, rep));
                            continue;
                        }
                        // Double inversion: not(not x) → x, neg(neg x) → x,
                        // fneg(fneg x) → x.
                        let inner = |o: &Operand| o.as_value().and_then(|v| defs.get(&v));
                        match &inst.op {
                            Op::Not(v) => {
                                if let Some(Op::Not(orig)) = inner(v) {
                                    subs.push((d, *orig));
                                }
                            }
                            Op::Neg(v) => {
                                if let Some(Op::Neg(orig)) = inner(v) {
                                    subs.push((d, *orig));
                                }
                            }
                            Op::FNeg(v) => {
                                if let Some(Op::FNeg(orig)) = inner(v) {
                                    subs.push((d, *orig));
                                }
                            }
                            Op::Cast(cg_ir::CastKind::IntToBool, v) => {
                                if let Some(Op::Cast(cg_ir::CastKind::BoolToInt, orig)) = inner(v) {
                                    subs.push((d, *orig));
                                }
                            }
                            _ => {}
                        }
                    }
                }
                let mut round = apply_substitutions(f, subs);
                // Phase 2: rewrites that change the op in place.
                if rewrite {
                    for bid in f.block_ids_vec() {
                        for i in 0..f.block(bid).insts.len() {
                            let inst = &f.block(bid).insts[i];
                            let new_op = match &inst.op {
                                // 0 - x → neg x
                                Op::Bin(BinOp::Sub, x, y) if x.as_const_int() == Some(0) => {
                                    Some(Op::Neg(*y))
                                }
                                // x ^ -1 → not x
                                Op::Bin(BinOp::Xor, x, y) if y.as_const_int() == Some(-1) => {
                                    Some(Op::Not(*x))
                                }
                                // canonicalize constant to the right for
                                // commutative ops
                                Op::Bin(b, x, y)
                                    if b.is_commutative() && x.is_const() && !y.is_const() =>
                                {
                                    Some(Op::Bin(*b, *y, *x))
                                }
                                // icmp const, x → swapped
                                Op::Icmp(p, x, y) if x.is_const() && !y.is_const() => {
                                    Some(Op::Icmp(p.swapped(), *y, *x))
                                }
                                _ => None,
                            };
                            if let Some(op) = new_op {
                                if inst.op != op {
                                    f.block_mut(bid).insts[i].op = op;
                                    round = true;
                                }
                            }
                        }
                    }
                }
                if !round {
                    break;
                }
            }
        });
    }
}

/// Reassociation: folds constant chains of commutative operations,
/// `(x ⊕ c1) ⊕ c2` → `x ⊕ (c1 ⊕ c2)`.
#[derive(Debug, Default)]
pub struct Reassociate;

impl Pass for Reassociate {
    fn name(&self) -> String {
        "reassociate".into()
    }

    fn description(&self) -> String {
        "fold constant chains of commutative operations".into()
    }

    fn preserved(&self) -> crate::pass::Preserved {
        crate::pass::Preserved::Cfg
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        for_each_function(m, am, |f, _| loop {
            let mut defs: HashMap<ValueId, Op> = HashMap::new();
            for bid in f.block_ids_vec() {
                for inst in &f.block(bid).insts {
                    if let Some(d) = inst.dest {
                        defs.insert(d, inst.op.clone());
                    }
                }
            }
            let mut round = false;
            for bid in f.block_ids_vec() {
                for i in 0..f.block(bid).insts.len() {
                    let Op::Bin(b, x, y) = &f.block(bid).insts[i].op else {
                        continue;
                    };
                    if !b.is_commutative() || b.ty() != Type::I64 {
                        continue;
                    }
                    let Some(c2) = y.as_const_int() else { continue };
                    let Some(xv) = x.as_value() else { continue };
                    let Some(Op::Bin(b_in, x_in, y_in)) = defs.get(&xv) else {
                        continue;
                    };
                    if b_in != b {
                        continue;
                    }
                    let Some(c1) = y_in.as_const_int() else {
                        continue;
                    };
                    let folded = match b {
                        BinOp::Add => c1.wrapping_add(c2),
                        BinOp::Mul => c1.wrapping_mul(c2),
                        BinOp::And => c1 & c2,
                        BinOp::Or => c1 | c2,
                        BinOp::Xor => c1 ^ c2,
                        _ => continue,
                    };
                    let op = Op::Bin(*b, *x_in, Operand::const_int(folded));
                    if f.block(bid).insts[i].op != op {
                        f.block_mut(bid).insts[i].op = op;
                        round = true;
                    }
                }
            }
            if !round {
                break;
            }
        });
    }
}

/// Dominator-scoped common subexpression elimination of pure operations
/// (LLVM's `-early-cse`).
#[derive(Debug, Default)]
pub struct EarlyCse;

impl Pass for EarlyCse {
    fn name(&self) -> String {
        "early-cse".into()
    }

    fn description(&self) -> String {
        "dominator-scoped CSE of pure expressions".into()
    }

    fn preserved(&self) -> crate::pass::Preserved {
        crate::pass::Preserved::Cfg
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        for_each_function(m, am, |f, am| {
            let dom = am.dom(f.id(), f);
            // Dominator-tree preorder walk with a scoped table.
            let mut children: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
            for &b in dom.rpo() {
                if let Some(p) = dom.idom(b) {
                    children.entry(p).or_default().push(b);
                }
            }
            let mut table: HashMap<Op, ValueId> = HashMap::new();
            let mut subs: Vec<(ValueId, ValueId)> = Vec::new();
            // Iterative DFS carrying the set of keys each block added, so we
            // can unwind the scope on exit.
            enum Ev {
                Enter(BlockId),
                Exit(Vec<Op>),
            }
            let mut stack = vec![Ev::Enter(f.entry())];
            while let Some(ev) = stack.pop() {
                match ev {
                    Ev::Enter(b) => {
                        let mut added = Vec::new();
                        for inst in &f.block(b).insts {
                            let Some(d) = inst.dest else { continue };
                            if inst.op.has_side_effects()
                                || inst.op.reads_memory()
                                || matches!(inst.op, Op::Phi(_) | Op::Alloca { .. })
                            {
                                continue;
                            }
                            // Canonicalize commutative operand order so
                            // `a+b` and `b+a` share a key.
                            let mut key = inst.op.clone();
                            if let Op::Bin(bop, x, y) = &key {
                                if bop.is_commutative() {
                                    let (x, y) = (*x, *y);
                                    let swap = format!("{x:?}") > format!("{y:?}");
                                    if swap {
                                        key = Op::Bin(*bop, y, x);
                                    }
                                }
                            }
                            match table.get(&key) {
                                Some(prev) => subs.push((d, *prev)),
                                None => {
                                    table.insert(key.clone(), d);
                                    added.push(key);
                                }
                            }
                        }
                        stack.push(Ev::Exit(added));
                        for c in children.get(&b).cloned().unwrap_or_default() {
                            stack.push(Ev::Enter(c));
                        }
                    }
                    Ev::Exit(added) => {
                        for k in added {
                            table.remove(&k);
                        }
                    }
                }
            }
            if subs.is_empty() {
                return;
            }
            let dead: HashSet<ValueId> = subs.iter().map(|(d, _)| *d).collect();
            for (d, rep) in subs {
                f.replace_all_uses(d, Operand::Value(rep));
            }
            remove_insts(f, |i| i.dest.is_some_and(|v| dead.contains(&v)));
        });
    }
}

/// [`EarlyCse`] extended with block-local load forwarding — the analogue of
/// LLVM's `-early-cse-memssa`.
#[derive(Debug, Default)]
pub struct EarlyCseMemssa;

impl Pass for EarlyCseMemssa {
    fn name(&self) -> String {
        "early-cse-memssa".into()
    }

    fn description(&self) -> String {
        "CSE of pure expressions plus store-to-load forwarding".into()
    }

    fn preserved(&self) -> crate::pass::Preserved {
        crate::pass::Preserved::Cfg
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        EarlyCse.run_with(m, am);
        crate::passes::memory::LoadElim.run_with(m, am);
    }
}

/// Instruction sinking: moves pure, non-memory instructions with a single
/// use into the use's block when that block is dominated by the definition.
#[derive(Debug, Default)]
pub struct Sink;

impl Pass for Sink {
    fn name(&self) -> String {
        "sink".into()
    }

    fn description(&self) -> String {
        "sink single-use pure instructions toward their use".into()
    }

    fn preserved(&self) -> crate::pass::Preserved {
        crate::pass::Preserved::Cfg
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        for_each_function(m, am, |f, am| {
            let dom = am.dom(f.id(), f);
            let uses = use_counts(f);
            // Find, for each single-use value, the block and inst index of
            // its use (excluding φ uses and terminator uses).
            let mut use_site: HashMap<ValueId, (BlockId, usize)> = HashMap::new();
            for bid in f.block_ids_vec() {
                for (i, inst) in f.block(bid).insts.iter().enumerate() {
                    if matches!(inst.op, Op::Phi(_)) {
                        continue;
                    }
                    inst.op.for_each_operand(|o| {
                        if let Some(v) = o.as_value() {
                            use_site.insert(v, (bid, i));
                        }
                    });
                }
            }
            for bid in f.block_ids_vec() {
                let mut i = 0;
                while i < f.block(bid).insts.len() {
                    let inst = &f.block(bid).insts[i];
                    let sinkable = inst.dest.is_some()
                        && !inst.op.has_side_effects()
                        && !inst.op.reads_memory()
                        && !matches!(inst.op, Op::Phi(_) | Op::Alloca { .. });
                    if sinkable {
                        let d = inst.dest.unwrap();
                        if uses[d.0 as usize] == 1 {
                            if let Some(&(ub, _)) = use_site.get(&d) {
                                if ub != bid && dom.is_reachable(ub) && dom.dominates(bid, ub) {
                                    let inst = f.block_mut(bid).insts.remove(i);
                                    let at = f.block(ub).phi_count();
                                    f.block_mut(ub).insts.insert(at, inst);
                                    // Conservative: one sink per pass per
                                    // block position; indices in use_site
                                    // are now stale for ub, so re-run next
                                    // pass invocation for chained sinks.
                                    continue;
                                }
                            }
                        }
                    }
                    i += 1;
                }
            }
        });
    }
}

/// φ simplification: replaces φ-nodes whose incomings are all the same
/// value (or the φ itself plus one other value).
#[derive(Debug, Default)]
pub struct PhiSimplify;

impl Pass for PhiSimplify {
    fn name(&self) -> String {
        "phi-simplify".into()
    }

    fn description(&self) -> String {
        "remove trivial phi nodes".into()
    }

    fn preserved(&self) -> crate::pass::Preserved {
        crate::pass::Preserved::Cfg
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        for_each_function(m, am, |f, _| loop {
            let mut subs: Vec<(ValueId, Operand)> = Vec::new();
            for b in f.blocks() {
                for inst in &b.insts {
                    let (Some(d), Op::Phi(incs)) = (inst.dest, &inst.op) else {
                        continue;
                    };
                    let mut unique: Option<Operand> = None;
                    let mut trivial = true;
                    for (_, v) in incs {
                        if v.as_value() == Some(d) {
                            continue; // self-reference
                        }
                        match unique {
                            None => unique = Some(*v),
                            Some(u) if u == *v => {}
                            Some(_) => {
                                trivial = false;
                                break;
                            }
                        }
                    }
                    if trivial {
                        if let Some(u) = unique {
                            subs.push((d, u));
                        }
                    }
                }
            }
            if !apply_substitutions(f, subs) {
                break;
            }
        });
    }
}

/// Strength reduction: multiplications by powers of two become shifts.
/// Wins cycles (mul costs 3, shl costs 1) at equal size — the kind of
/// rewrite that separates the runtime target from the size target.
#[derive(Debug, Default)]
pub struct StrengthReduce;

impl Pass for StrengthReduce {
    fn name(&self) -> String {
        "strength-reduce".into()
    }

    fn description(&self) -> String {
        "rewrite multiplications by powers of two into shifts".into()
    }

    fn preserved(&self) -> crate::pass::Preserved {
        crate::pass::Preserved::Cfg
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        for_each_function(m, am, |f, _| {
            for bid in f.block_ids_vec() {
                for i in 0..f.block(bid).insts.len() {
                    if let Some(op) = StrengthReduce::shift_for(&f.block(bid).insts[i].op) {
                        f.block_mut(bid).insts[i].op = op;
                    }
                }
            }
        });
    }
}

impl StrengthReduce {
    /// The shift replacing `op`, if it multiplies by a power of two above 1.
    fn shift_for(op: &Op) -> Option<Op> {
        let Op::Bin(BinOp::Mul, x, y) = op else {
            return None;
        };
        let (val, konst) = match (x.as_const_int(), y.as_const_int()) {
            (_, Some(c)) => (*x, c),
            (Some(c), None) => (*y, c),
            (None, None) => return None,
        };
        (konst > 1 && (konst as u64).is_power_of_two()).then(|| {
            let k = (konst as u64).trailing_zeros() as i64;
            Op::Bin(BinOp::Shl, val, Operand::const_int(k))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_ir::builder::ModuleBuilder;
    use cg_ir::verify::verify_module;

    fn build_with(f: impl FnOnce(&mut cg_ir::builder::FunctionBuilder<'_>)) -> Module {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("f", &[Type::I64, Type::I64], Type::I64);
        f(&mut fb);
        fb.finish();
        mb.finish()
    }

    #[test]
    fn dce_removes_unused_chain() {
        let mut m = build_with(|fb| {
            let p = fb.param(0);
            let a = fb.bin(BinOp::Add, p, Operand::const_int(1)); // dead chain
            let _b = fb.bin(BinOp::Mul, a, Operand::const_int(2)); // dead
            fb.ret(Some(p));
        });
        assert!(Dce.run(&mut m));
        verify_module(&m).unwrap();
        assert_eq!(m.inst_count(), 1); // just the ret
        assert!(!Dce.run(&mut m), "second run is a no-op");
    }

    #[test]
    fn die_is_single_sweep() {
        let mut m = build_with(|fb| {
            let p = fb.param(0);
            let a = fb.bin(BinOp::Add, p, Operand::const_int(1));
            let _b = fb.bin(BinOp::Mul, a, Operand::const_int(2));
            fb.ret(Some(p));
        });
        assert!(Die.run(&mut m));
        // One sweep removes only the end of the chain (b), leaving a.
        assert_eq!(m.inst_count(), 2);
        assert!(Die.run(&mut m));
        assert_eq!(m.inst_count(), 1);
    }

    #[test]
    fn constfold_folds_chains() {
        let mut m = build_with(|fb| {
            let a = fb.bin(BinOp::Add, Operand::const_int(2), Operand::const_int(3));
            let b = fb.bin(BinOp::Mul, a, Operand::const_int(4));
            fb.ret(Some(b));
        });
        assert!(ConstFold.run(&mut m));
        verify_module(&m).unwrap();
        assert_eq!(m.inst_count(), 1);
        let f = m.func(m.find_func("f").unwrap());
        match &f.block(f.entry()).term {
            cg_ir::Terminator::Ret { value: Some(v) } => {
                assert_eq!(v.as_const_int(), Some(20));
            }
            t => panic!("unexpected {t:?}"),
        }
    }

    #[test]
    fn constfold_leaves_trapping_div() {
        let mut m = build_with(|fb| {
            let d = fb.bin(BinOp::Div, Operand::const_int(1), Operand::const_int(0));
            fb.ret(Some(d));
        });
        assert!(!ConstFold.run(&mut m));
        assert_eq!(m.inst_count(), 2);
    }

    #[test]
    fn instcombine_identities() {
        let mut m = build_with(|fb| {
            let p = fb.param(0);
            let a = fb.bin(BinOp::Add, p, Operand::const_int(0)); // → p
            let b = fb.bin(BinOp::Mul, a, Operand::const_int(1)); // → p
            let c = fb.bin(BinOp::Xor, b, b); // → 0
            let d = fb.bin(BinOp::Or, c, p); // → 0|p → p
            fb.ret(Some(d));
        });
        assert!(InstCombine::full().run(&mut m));
        verify_module(&m).unwrap();
        assert_eq!(m.inst_count(), 1);
    }

    #[test]
    fn instcombine_rewrites_sub_zero_to_neg() {
        let mut m = build_with(|fb| {
            let p = fb.param(0);
            let a = fb.bin(BinOp::Sub, Operand::const_int(0), p);
            fb.ret(Some(a));
        });
        assert!(InstCombine::full().run(&mut m));
        let f = m.func(m.find_func("f").unwrap());
        assert!(matches!(f.block(f.entry()).insts[0].op, Op::Neg(_)));
        // simplify_only must NOT do this rewrite.
        let mut m2 = build_with(|fb| {
            let p = fb.param(0);
            let a = fb.bin(BinOp::Sub, Operand::const_int(0), p);
            fb.ret(Some(a));
        });
        assert!(!InstCombine::simplify_only().run(&mut m2));
    }

    #[test]
    fn reassociate_folds_constant_chain() {
        let mut m = build_with(|fb| {
            let p = fb.param(0);
            let a = fb.bin(BinOp::Add, p, Operand::const_int(3));
            let b = fb.bin(BinOp::Add, a, Operand::const_int(4));
            fb.ret(Some(b));
        });
        assert!(Reassociate.run(&mut m));
        verify_module(&m).unwrap();
        // b is now p + 7; a becomes dead (removed by dce, not here).
        let f = m.func(m.find_func("f").unwrap());
        let last = f.block(f.entry()).insts.last().unwrap();
        assert_eq!(
            last.op,
            Op::Bin(BinOp::Add, fb_param0(), Operand::const_int(7))
        );
    }

    fn fb_param0() -> Operand {
        Operand::Value(ValueId(0))
    }

    #[test]
    fn early_cse_removes_duplicates_across_blocks() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("f", &[Type::I64], Type::I64);
        let p = fb.param(0);
        let a = fb.bin(BinOp::Mul, p, p);
        let next = fb.new_block();
        fb.br(next);
        fb.switch_to(next);
        let b = fb.bin(BinOp::Mul, p, p); // same expression, dominated
        let c = fb.bin(BinOp::Add, a, b);
        fb.ret(Some(c));
        fb.finish();
        let mut m = mb.finish();
        assert!(EarlyCse.run(&mut m));
        verify_module(&m).unwrap();
        assert_eq!(m.inst_count(), 4); // mul, add, br, ret
    }

    #[test]
    fn early_cse_commutative_canonicalization() {
        let mut m = build_with(|fb| {
            let p = fb.param(0);
            let q = fb.param(1);
            let a = fb.bin(BinOp::Add, p, q);
            let b = fb.bin(BinOp::Add, q, p); // same value, swapped
            let c = fb.bin(BinOp::Xor, a, b);
            fb.ret(Some(c));
        });
        assert!(EarlyCse.run(&mut m));
        verify_module(&m).unwrap();
        assert_eq!(m.inst_count(), 3);
    }

    #[test]
    fn phi_simplify_removes_trivial_phi() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("f", &[Type::I64], Type::I64);
        let p = fb.param(0);
        let l = fb.new_block();
        let r = fb.new_block();
        let join = fb.new_block();
        let c = fb.icmp(Pred::Lt, p, Operand::const_int(0));
        fb.cond_br(c, l, r);
        fb.switch_to(l);
        fb.br(join);
        fb.switch_to(r);
        fb.br(join);
        fb.switch_to(join);
        let phi = fb.phi(Type::I64, vec![(l, p), (r, p)]); // trivial
        fb.ret(Some(phi));
        fb.finish();
        let mut m = mb.finish();
        assert!(PhiSimplify.run(&mut m));
        verify_module(&m).unwrap();
        assert_eq!(m.inst_count(), 5); // icmp + condbr + 2 br + ret
    }

    #[test]
    fn strength_reduce_mul_to_shift() {
        let mut m = build_with(|fb| {
            let p = fb.param(0);
            let a = fb.bin(BinOp::Mul, p, Operand::const_int(8));
            fb.ret(Some(a));
        });
        assert!(StrengthReduce.run(&mut m));
        let f = m.func(m.find_func("f").unwrap());
        assert_eq!(
            f.block(f.entry()).insts[0].op,
            Op::Bin(
                BinOp::Shl,
                Operand::Value(ValueId(0)),
                Operand::const_int(3)
            )
        );
        // Not a power of two: untouched.
        let mut m2 = build_with(|fb| {
            let p = fb.param(0);
            let a = fb.bin(BinOp::Mul, p, Operand::const_int(6));
            fb.ret(Some(a));
        });
        assert!(!StrengthReduce.run(&mut m2));
    }

    #[test]
    fn adce_removes_dead_phi_cycle() {
        // A loop whose accumulator is never used after the loop: Dce can't
        // remove it (the phi uses keep counts nonzero), Adce can.
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("f", &[Type::I64], Type::I64);
        let n = fb.param(0);
        let entry = fb.current_block();
        let header = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64, vec![(entry, Operand::const_int(0))]);
        let dead_acc = fb.phi(Type::I64, vec![(entry, Operand::const_int(0))]);
        let c = fb.icmp(Pred::Lt, i, n);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let dead_next = fb.bin(BinOp::Add, dead_acc, i);
        let i2 = fb.bin(BinOp::Add, i, Operand::const_int(1));
        fb.add_phi_incoming(i, body, i2);
        fb.add_phi_incoming(dead_acc, body, dead_next);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(i));
        fb.finish();
        let mut m = mb.finish();
        let before = m.inst_count();
        assert!(!Dce.run(&mut m), "Dce cannot remove the phi cycle");
        assert!(Adce.run(&mut m));
        verify_module(&m).unwrap();
        assert!(m.inst_count() < before);
    }
}
