//! The IR verifier: structural, SSA and type invariants.
//!
//! Every optimization pass must leave modules in a state that passes
//! [`verify_module`]; the environment validates this after each action when
//! strict mode is enabled, which is how reproducibility/correctness bugs in
//! "compiler" passes are detected and reported.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::analysis::{Cfg, DomTree};
use crate::inst::{Op, Terminator};
use crate::module::{BlockId, Function, Module, ValueId};
use crate::types::{Operand, Type};

/// A verification failure, with enough context to locate the fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Name of the offending function (empty for module-level errors).
    pub function: String,
    /// Block containing the fault, if applicable.
    pub block: Option<BlockId>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verification failed")?;
        if !self.function.is_empty() {
            write!(f, " in @{}", self.function)?;
        }
        if let Some(b) = self.block {
            write!(f, " ({b})")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a whole module.
///
/// # Errors
/// Returns the first [`VerifyError`] found: dangling block/function/global
/// references, φ/predecessor mismatches, SSA violations (double definition or
/// use not dominated by definition), or type errors.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    for &fid in m.func_ids() {
        verify_function(m, m.func(fid))?;
    }
    Ok(())
}

/// Verifies one function of a module.
///
/// # Errors
/// See [`verify_module`].
fn verify_function(m: &Module, f: &Function) -> Result<(), VerifyError> {
    let err = |block: Option<BlockId>, message: String| VerifyError {
        function: f.name.clone(),
        block,
        message,
    };

    if f.num_blocks() == 0 {
        return Err(err(None, "function has no blocks".into()));
    }

    // Collect value types; check single definition.
    let mut types: HashMap<ValueId, Type> = HashMap::new();
    let mut def_site: HashMap<ValueId, (BlockId, usize)> = HashMap::new();
    for (v, t) in &f.params {
        if types.insert(*v, *t).is_some() {
            return Err(err(None, format!("duplicate parameter value {v}")));
        }
    }
    for &bid in f.block_ids() {
        let b = f.block(bid);
        let mut seen_non_phi = false;
        for (i, inst) in b.insts.iter().enumerate() {
            if matches!(inst.op, Op::Phi(_)) {
                if seen_non_phi {
                    return Err(err(Some(bid), "phi after non-phi instruction".into()));
                }
            } else {
                seen_non_phi = true;
            }
            if let Some(d) = inst.dest {
                if inst.ty == Type::Void {
                    return Err(err(Some(bid), format!("value {d} has void type")));
                }
                if types.insert(d, inst.ty).is_some() {
                    return Err(err(Some(bid), format!("value {d} defined more than once")));
                }
                def_site.insert(d, (bid, i));
            } else if inst.ty != Type::Void {
                return Err(err(
                    Some(bid),
                    "instruction without destination must be void".into(),
                ));
            } else if !matches!(inst.op, Op::Store { .. } | Op::Call { .. }) {
                return Err(err(
                    Some(bid),
                    format!("op `{}` must produce a value", inst.op.mnemonic()),
                ));
            }
        }
        // Terminator target existence.
        for s in b.term.successors() {
            if !f.block_exists(s) {
                return Err(err(Some(bid), format!("branch to deleted block {s}")));
            }
        }
    }

    let cfg = Cfg::compute(f);
    let dom = DomTree::compute(f, &cfg);
    let entry = f.entry();

    if !cfg.preds(entry).is_empty() {
        return Err(err(Some(entry), "entry block has predecessors".into()));
    }

    // Operand typing helper.
    let operand_ty = |o: &Operand| -> Result<Type, String> {
        match o {
            Operand::Value(v) => types
                .get(v)
                .copied()
                .ok_or_else(|| format!("use of undefined value {v}")),
            Operand::Const(c) => Ok(c.ty()),
            Operand::Global(g) => {
                if (g.0 as usize) < m.globals().len() {
                    Ok(Type::Ptr)
                } else {
                    Err(format!("reference to missing global #{}", g.0))
                }
            }
            Operand::Func(_) => Err("bare function references are not allowed as operands".into()),
        }
    };

    for &bid in f.block_ids() {
        let b = f.block(bid);
        let preds: HashSet<BlockId> = cfg.preds(bid).iter().copied().collect();
        for inst in &b.insts {
            let check = |o: &Operand, want: Type| -> Result<(), String> {
                let got = operand_ty(o)?;
                if got != want {
                    return Err(format!(
                        "operand type mismatch in `{}`: expected {want}, got {got}",
                        inst.op.mnemonic()
                    ));
                }
                Ok(())
            };
            let r: Result<(), String> = (|| {
                match &inst.op {
                    Op::Bin(bop, x, y) => {
                        let want = bop.ty();
                        if inst.ty != want {
                            return Err(format!("`{bop}` must produce {want}"));
                        }
                        check(x, want)?;
                        check(y, want)?;
                    }
                    Op::Icmp(_, x, y) => {
                        if inst.ty != Type::I1 {
                            return Err("icmp must produce i1".into());
                        }
                        check(x, Type::I64)?;
                        check(y, Type::I64)?;
                    }
                    Op::Fcmp(_, x, y) => {
                        if inst.ty != Type::I1 {
                            return Err("fcmp must produce i1".into());
                        }
                        check(x, Type::F64)?;
                        check(y, Type::F64)?;
                    }
                    Op::Select {
                        cond,
                        on_true,
                        on_false,
                    } => {
                        check(cond, Type::I1)?;
                        check(on_true, inst.ty)?;
                        check(on_false, inst.ty)?;
                    }
                    Op::Alloca { slots } => {
                        if inst.ty != Type::Ptr {
                            return Err("alloca must produce ptr".into());
                        }
                        if *slots == 0 {
                            return Err("alloca of zero slots".into());
                        }
                    }
                    Op::Load { ptr } => {
                        check(ptr, Type::Ptr)?;
                        if inst.ty == Type::Void {
                            return Err("load of void".into());
                        }
                    }
                    Op::Store { ptr, value } => {
                        check(ptr, Type::Ptr)?;
                        let _ = operand_ty(value)?;
                    }
                    Op::Gep { base, offset } => {
                        if inst.ty != Type::Ptr {
                            return Err("gep must produce ptr".into());
                        }
                        check(base, Type::Ptr)?;
                        check(offset, Type::I64)?;
                    }
                    Op::Call { callee, args } => {
                        if !m.func_exists(*callee) {
                            return Err("call to deleted function".into());
                        }
                        let target = m.func(*callee);
                        if target.params.len() != args.len() {
                            return Err(format!(
                                "call to @{} with {} args, expected {}",
                                target.name,
                                args.len(),
                                target.params.len()
                            ));
                        }
                        for (a, (_, want)) in args.iter().zip(&target.params) {
                            check(a, *want)?;
                        }
                        if inst.ty != target.ret_ty {
                            return Err(format!(
                                "call result type {} does not match @{} return type {}",
                                inst.ty, target.name, target.ret_ty
                            ));
                        }
                    }
                    Op::Phi(incomings) => {
                        if bid == entry {
                            return Err("phi in entry block".into());
                        }
                        let mut seen: HashSet<BlockId> = HashSet::new();
                        for (p, v) in incomings {
                            if !seen.insert(*p) {
                                return Err(format!("phi has duplicate incoming block {p}"));
                            }
                            if !preds.contains(p) {
                                return Err(format!("phi incoming from non-predecessor {p}"));
                            }
                            check(v, inst.ty)?;
                        }
                        if dom.is_reachable(bid) {
                            for p in &preds {
                                if !seen.contains(p) {
                                    return Err(format!(
                                        "phi missing incoming for predecessor {p}"
                                    ));
                                }
                            }
                        }
                    }
                    Op::Cast(kind, v) => {
                        let (src, dst) = kind.signature();
                        check(v, src)?;
                        if inst.ty != dst {
                            return Err(format!("cast {kind} must produce {dst}"));
                        }
                    }
                    Op::Not(v) => {
                        if inst.ty != Type::I64 && inst.ty != Type::I1 {
                            return Err("not must produce i64 or i1".into());
                        }
                        check(v, inst.ty)?;
                    }
                    Op::Neg(v) => {
                        if inst.ty != Type::I64 {
                            return Err("neg must produce i64".into());
                        }
                        check(v, Type::I64)?;
                    }
                    Op::FNeg(v) => {
                        if inst.ty != Type::F64 {
                            return Err("fneg must produce f64".into());
                        }
                        check(v, Type::F64)?;
                    }
                }
                Ok(())
            })();
            if let Err(msg) = r {
                return Err(err(Some(bid), msg));
            }
        }
        // Terminator typing.
        let r: Result<(), String> = (|| {
            match &b.term {
                Terminator::CondBr { cond, .. } => {
                    let got = operand_ty(cond)?;
                    if got != Type::I1 {
                        return Err(format!("condbr condition must be i1, got {got}"));
                    }
                }
                Terminator::Switch { value, cases, .. } => {
                    let got = operand_ty(value)?;
                    if got != Type::I64 {
                        return Err(format!("switch scrutinee must be i64, got {got}"));
                    }
                    let mut seen = HashSet::new();
                    for (v, _) in cases {
                        if !seen.insert(*v) {
                            return Err(format!("switch has duplicate case {v}"));
                        }
                    }
                }
                Terminator::Ret { value } => match (value, f.ret_ty) {
                    (None, Type::Void) => {}
                    (None, t) => return Err(format!("ret void in function returning {t}")),
                    (Some(_), Type::Void) => return Err("ret with value in void function".into()),
                    (Some(v), t) => {
                        let got = operand_ty(v)?;
                        if got != t {
                            return Err(format!("ret type mismatch: expected {t}, got {got}"));
                        }
                    }
                },
                _ => {}
            }
            Ok(())
        })();
        if let Err(msg) = r {
            return Err(err(Some(bid), msg));
        }
    }

    // SSA dominance: every use must be dominated by its definition.
    // Checked only in reachable blocks (unreachable code may be malformed in
    // this respect; passes delete it rather than fix it, as LLVM does).
    for &bid in dom.rpo() {
        let b = f.block(bid);
        let check_use =
            |v: ValueId, at: usize, is_phi_from: Option<BlockId>| -> Result<(), String> {
                if !types.contains_key(&v) {
                    return Err(format!("use of undefined value {v}"));
                }
                match def_site.get(&v) {
                    None => Ok(()), // parameter: dominates everything
                    Some(&(db, di)) => {
                        let ok = match is_phi_from {
                            // φ use: treated as a use at the end of the incoming
                            // predecessor block. Edges from unreachable
                            // predecessors can never execute, so (like LLVM) no
                            // dominance is required along them.
                            Some(pred) => {
                                if !dom.is_reachable(pred) || db == pred {
                                    true
                                } else {
                                    dom.dominates(db, pred)
                                }
                            }
                            None => {
                                if db == bid {
                                    di < at
                                } else {
                                    dom.dominates(db, bid)
                                }
                            }
                        };
                        if ok {
                            Ok(())
                        } else {
                            Err(format!("use of {v} not dominated by its definition"))
                        }
                    }
                }
            };
        for (i, inst) in b.insts.iter().enumerate() {
            let mut bad: Option<String> = None;
            if let Op::Phi(incs) = &inst.op {
                for (p, o) in incs {
                    if let Some(v) = o.as_value() {
                        if let Err(msg) = check_use(v, i, Some(*p)) {
                            bad = Some(msg);
                        }
                    }
                }
            } else {
                inst.op.for_each_operand(|o| {
                    if let Some(v) = o.as_value() {
                        if bad.is_none() {
                            if let Err(msg) = check_use(v, i, None) {
                                bad = Some(msg);
                            }
                        }
                    }
                });
            }
            if let Some(msg) = bad {
                return Err(err(Some(bid), msg));
            }
        }
        let mut bad: Option<String> = None;
        b.term.for_each_operand(|o| {
            if let Some(v) = o.as_value() {
                if bad.is_none() {
                    if let Err(msg) = check_use(v, usize::MAX, None) {
                        bad = Some(msg);
                    }
                }
            }
        });
        if let Some(msg) = bad {
            return Err(err(Some(bid), msg));
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::inst::{BinOp, Inst, Pred};
    use crate::types::Operand;

    #[test]
    fn rejects_type_mismatch() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("f", &[Type::F64], Type::I64);
        let p = fb.param(0);
        // add i64 with an f64 operand: type error.
        let x = fb.bin(BinOp::Add, p, Operand::const_int(1));
        fb.ret(Some(x));
        fb.finish();
        let m = mb.finish();
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("mismatch"), "{e}");
    }

    #[test]
    fn rejects_use_before_def() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("f", &[], Type::I64);
        fb.ret(Some(Operand::Value(crate::ValueId(99))));
        fb.finish();
        let m = mb.finish();
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("undefined"), "{e}");
    }

    #[test]
    fn rejects_non_dominating_def() {
        // entry -> (a, b) -> join; join uses a value defined only in a.
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("f", &[Type::I64], Type::I64);
        let p = fb.param(0);
        let a = fb.new_block();
        let b = fb.new_block();
        let join = fb.new_block();
        let c = fb.icmp(Pred::Lt, p, Operand::const_int(0));
        fb.cond_br(c, a, b);
        fb.switch_to(a);
        let v = fb.bin(BinOp::Add, p, Operand::const_int(1));
        fb.br(join);
        fb.switch_to(b);
        fb.br(join);
        fb.switch_to(join);
        fb.ret(Some(v)); // not dominated!
        fb.finish();
        let m = mb.finish();
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("not dominated"), "{e}");
    }

    #[test]
    fn rejects_phi_missing_incoming() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("f", &[Type::I64], Type::I64);
        let p = fb.param(0);
        let a = fb.new_block();
        let b = fb.new_block();
        let join = fb.new_block();
        let c = fb.icmp(Pred::Lt, p, Operand::const_int(0));
        fb.cond_br(c, a, b);
        fb.switch_to(a);
        fb.br(join);
        fb.switch_to(b);
        fb.br(join);
        fb.switch_to(join);
        let phi = fb.phi(Type::I64, vec![(a, Operand::const_int(1))]); // missing b
        fb.ret(Some(phi));
        fb.finish();
        let m = mb.finish();
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("missing incoming"), "{e}");
    }

    #[test]
    fn rejects_double_definition() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("f", &[], Type::I64);
        let x = fb.bin(BinOp::Add, Operand::const_int(1), Operand::const_int(2));
        fb.ret(Some(x));
        fb.finish();
        let mut m = mb.finish();
        // Manually duplicate the defining instruction.
        let fid = m.find_func("f").unwrap();
        let entry = m.func(fid).entry();
        let inst = m.func(fid).block(entry).insts[0].clone();
        m.func_mut(fid).block_mut(entry).insts.push(Inst {
            dest: inst.dest,
            ty: inst.ty,
            op: inst.op,
        });
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("more than once"), "{e}");
    }

    #[test]
    fn rejects_bad_call_arity() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("callee", &[Type::I64], Type::I64);
        let p = fb.param(0);
        fb.ret(Some(p));
        let callee = fb.finish();
        let mut fb = mb.begin_function("caller", &[], Type::I64);
        let r = fb.call(callee, Type::I64, vec![]).unwrap(); // 0 args, wants 1
        fb.ret(Some(r));
        fb.finish();
        let e = verify_module(&mb.finish()).unwrap_err();
        assert!(e.message.contains("args"), "{e}");
    }
}
