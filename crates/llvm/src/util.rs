//! Shared analysis helpers for the pass library.

use std::collections::HashMap;

use cg_ir::interp::{eval_bin, eval_cast, eval_fcmp, eval_icmp, Value};
use cg_ir::{
    AnalysisManager, Constant, FuncEdit, Function, Inst, Module, Op, Operand, Type, ValueId,
};

/// Runs a function-local transform over every function. The body reads the
/// function through its [`FuncEdit`] and writes only what it changes: the
/// first write un-shares the function and moves its stamp, which is how
/// the pass runner learns the function changed. Analyses come from the
/// shared cache (`am.dom(f.id(), f)` and friends); a session-owned manager
/// turns those into hits whenever the preceding passes left the function
/// (or its CFG shape) alone.
pub fn for_each_function(
    m: &mut Module,
    am: &mut AnalysisManager,
    mut body: impl FnMut(&mut FuncEdit<'_>, &mut AnalysisManager),
) {
    for fid in m.func_ids_vec() {
        body(&mut m.edit_func(fid), am);
    }
}

/// Deletes every instruction `dead` selects, writing only the blocks that
/// hold one. Returns whether any did.
pub fn remove_insts(f: &mut FuncEdit<'_>, dead: impl Fn(&Inst) -> bool) -> bool {
    let mut removed = false;
    for bid in f.block_ids_vec() {
        if f.block(bid).insts.iter().any(&dead) {
            f.block_mut(bid).insts.retain(|inst| !dead(inst));
            removed = true;
        }
    }
    removed
}

/// Dense per-value use counts (indexed by `ValueId.0`), counting uses in
/// instructions and terminators.
pub fn use_counts(f: &Function) -> Vec<u32> {
    let mut counts = vec![0u32; f.value_bound() as usize];
    for id in f.block_ids_vec() {
        let b = f.block(id);
        for inst in &b.insts {
            inst.op.for_each_operand(|o| {
                if let Some(v) = o.as_value() {
                    counts[v.0 as usize] += 1;
                }
            });
        }
        b.term.for_each_operand(|o| {
            if let Some(v) = o.as_value() {
                counts[v.0 as usize] += 1;
            }
        });
    }
    counts
}

/// Map from value id to the type of the value (parameters + definitions).
pub fn value_types(f: &Function) -> HashMap<ValueId, Type> {
    let mut types = HashMap::new();
    for (v, t) in &f.params {
        types.insert(*v, *t);
    }
    for id in f.block_ids_vec() {
        for inst in &f.block(id).insts {
            if let Some(d) = inst.dest {
                types.insert(d, inst.ty);
            }
        }
    }
    types
}

fn const_to_value(c: Constant) -> Value {
    match c {
        Constant::Bool(b) => Value::Bool(b),
        Constant::Int(i) => Value::Int(i),
        Constant::Float(f) => Value::Float(f),
    }
}

fn value_to_const(v: Value) -> Option<Constant> {
    match v {
        Value::Bool(b) => Some(Constant::Bool(b)),
        Value::Int(i) => Some(Constant::Int(i)),
        Value::Float(f) => Some(Constant::Float(f)),
        Value::Ptr(_) => None,
    }
}

/// Attempts to evaluate an operation whose operands are all constants,
/// using the *interpreter's own* evaluators so folding can never diverge
/// from execution semantics. Trapping operations (div by zero) fold to
/// `None` and are left in place.
pub fn fold_op(op: &Op) -> Option<Constant> {
    let c = |o: &Operand| o.as_const();
    match op {
        Op::Bin(b, x, y) => {
            let (x, y) = (c(x)?, c(y)?);
            let v = eval_bin(*b, const_to_value(x), const_to_value(y)).ok()?;
            value_to_const(v)
        }
        Op::Icmp(p, x, y) => {
            let (x, y) = (c(x)?, c(y)?);
            let (Constant::Int(a), Constant::Int(b)) = (x, y) else {
                return None;
            };
            Some(Constant::Bool(eval_icmp(*p, a, b)))
        }
        Op::Fcmp(p, x, y) => {
            let (x, y) = (c(x)?, c(y)?);
            let (Constant::Float(a), Constant::Float(b)) = (x, y) else {
                return None;
            };
            Some(Constant::Bool(eval_fcmp(*p, a, b)))
        }
        Op::Select {
            cond,
            on_true,
            on_false,
        } => {
            let Constant::Bool(b) = c(cond)? else {
                return None;
            };
            if b {
                c(on_true)
            } else {
                c(on_false)
            }
        }
        Op::Cast(kind, v) => {
            let v = c(v)?;
            let out = eval_cast(*kind, const_to_value(v)).ok()?;
            value_to_const(out)
        }
        Op::Not(v) => match c(v)? {
            Constant::Int(i) => Some(Constant::Int(!i)),
            Constant::Bool(b) => Some(Constant::Bool(!b)),
            _ => None,
        },
        Op::Neg(v) => match c(v)? {
            Constant::Int(i) => Some(Constant::Int(i.wrapping_neg())),
            _ => None,
        },
        Op::FNeg(v) => match c(v)? {
            Constant::Float(f) => Some(Constant::Float(-f)),
            _ => None,
        },
        _ => None,
    }
}

/// Applies a batch of value substitutions to a function, resolving chains
/// (`d2 → d1, d1 → x` must rewrite uses of `d2` to `x`, not to the deleted
/// `d1`), then deletes the substituted pure definitions.
///
/// Every simplification pass that batches replacements must go through this
/// helper; applying substitutions in discovery order resurrects deleted
/// values whenever one replacement's target is another's key.
///
/// Contract: callers may only substitute values whose defining instruction
/// is safe to delete — proven-redundant pure computations, or trapping ops
/// proven non-trapping (e.g. a constant-folded division, which evaluated
/// without trapping by construction). The definitions of all non-cyclic
/// keys are removed. Returns whether anything was; when every key is
/// cyclic the function is not written at all.
pub fn apply_substitutions(f: &mut FuncEdit<'_>, subs: Vec<(ValueId, Operand)>) -> bool {
    let map: HashMap<ValueId, Operand> = subs.iter().cloned().collect();
    // Resolve each key's final replacement; keys whose chains form a cycle
    // (e.g. two mutually-trivial φs in a degenerate loop) are dropped — they
    // keep their definitions, which is always sound.
    let mut resolved: HashMap<ValueId, Operand> = HashMap::new();
    #[allow(clippy::mutable_key_type)]
    let mut cyclic: std::collections::HashSet<ValueId> = std::collections::HashSet::new();
    for &k in map.keys() {
        let mut seen = vec![k];
        let mut o = map[&k];
        loop {
            match o.as_value() {
                Some(v) if seen.contains(&v) => {
                    cyclic.extend(seen.iter().copied());
                    break;
                }
                Some(v) if map.contains_key(&v) => {
                    seen.push(v);
                    o = map[&v];
                }
                _ => {
                    resolved.insert(k, o);
                    break;
                }
            }
        }
    }
    let dead: std::collections::HashSet<ValueId> = resolved
        .keys()
        .copied()
        .filter(|k| !cyclic.contains(k))
        .collect();
    resolved.retain(|k, _| dead.contains(k));
    if resolved.is_empty() {
        return false;
    }
    // One sweep over the function rewrites every use (per-substitution
    // `replace_all_uses` would be quadratic on large modules).
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
        block.insts.retain(|i| match i.dest {
            Some(d) => !dead.contains(&d),
            None => true,
        });
    }
    true
}

/// Counts the number of call sites of each function in the module, as a
/// dense table indexed by `FuncId.0`.
pub fn call_counts(m: &Module) -> Vec<u32> {
    let mut counts = vec![0u32; m.func_bound() as usize];
    for fid in m.func_ids_vec() {
        for b in m.func(fid).blocks() {
            for inst in &b.insts {
                if let Op::Call { callee, .. } = &inst.op {
                    counts[callee.0 as usize] += 1;
                }
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_ir::BinOp;

    #[test]
    fn fold_arithmetic() {
        let op = Op::Bin(BinOp::Add, Operand::const_int(2), Operand::const_int(3));
        assert_eq!(fold_op(&op), Some(Constant::Int(5)));
        let trap = Op::Bin(BinOp::Div, Operand::const_int(1), Operand::const_int(0));
        assert_eq!(fold_op(&trap), None);
    }

    #[test]
    fn fold_select_and_cast() {
        let op = Op::Select {
            cond: Operand::const_bool(true),
            on_true: Operand::const_int(7),
            on_false: Operand::const_int(9),
        };
        assert_eq!(fold_op(&op), Some(Constant::Int(7)));
        let cast = Op::Cast(cg_ir::CastKind::IntToFloat, Operand::const_int(2));
        assert_eq!(fold_op(&cast), Some(Constant::Float(2.0)));
    }

    #[test]
    fn fold_partial_constants_returns_none() {
        let op = Op::Bin(
            BinOp::Add,
            Operand::Value(ValueId(0)),
            Operand::const_int(3),
        );
        assert_eq!(fold_op(&op), None);
    }
}
