//! Sparse conditional constant propagation, intraprocedural and
//! interprocedural.

use std::collections::{HashMap, HashSet, VecDeque};

use cg_ir::{
    AnalysisManager, BlockId, Constant, FuncEdit, FuncId, Function, Module, Op, Operand,
    Terminator, ValueId,
};

use crate::pass::Pass;
use crate::util::{apply_substitutions, fold_op, for_each_function, use_counts};

/// The SCCP lattice.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Lattice {
    /// Not yet known (top).
    Unknown,
    /// Proven constant.
    Const(Constant),
    /// Not a constant (bottom).
    Over,
}

impl Lattice {
    fn meet(self, other: Lattice) -> Lattice {
        match (self, other) {
            (Lattice::Unknown, x) | (x, Lattice::Unknown) => x,
            (Lattice::Const(a), Lattice::Const(b)) if a == b => Lattice::Const(a),
            _ => Lattice::Over,
        }
    }
}

/// Runs the SCCP dataflow on one function. `arg_consts` optionally supplies
/// known-constant parameter values (used by the interprocedural variant).
/// Returns the per-value lattice and the set of executable blocks.
fn sccp_solve(
    f: &Function,
    arg_consts: &HashMap<ValueId, Lattice>,
) -> (HashMap<ValueId, Lattice>, HashSet<BlockId>) {
    let mut values: HashMap<ValueId, Lattice> = HashMap::new();
    for (v, _) in &f.params {
        values.insert(*v, arg_consts.get(v).copied().unwrap_or(Lattice::Over));
    }
    let mut executable: HashSet<BlockId> = HashSet::new();
    let mut block_queue: VecDeque<BlockId> = VecDeque::new();
    let mut revisit = true;
    block_queue.push_back(f.entry());

    let op_lattice = |values: &HashMap<ValueId, Lattice>, o: &Operand| -> Lattice {
        match o {
            Operand::Const(c) => Lattice::Const(*c),
            Operand::Value(v) => values.get(v).copied().unwrap_or(Lattice::Unknown),
            _ => Lattice::Over,
        }
    };

    // Iterate to a fixpoint: evaluate executable blocks, expanding the
    // executable set through branch conditions that are known constants.
    while revisit {
        revisit = false;
        while let Some(b) = block_queue.pop_front() {
            if !executable.insert(b) {
                continue;
            }
            revisit = true;
        }
        for b in f.block_ids_vec() {
            if !executable.contains(&b) {
                continue;
            }
            let block = f.block(b);
            for inst in &block.insts {
                let Some(d) = inst.dest else { continue };
                let old = values.get(&d).copied().unwrap_or(Lattice::Unknown);
                let new = match &inst.op {
                    Op::Phi(incs) => {
                        let mut acc = Lattice::Unknown;
                        for (p, v) in incs {
                            if executable.contains(p) {
                                acc = acc.meet(op_lattice(&values, v));
                            }
                        }
                        acc
                    }
                    op if op.reads_memory()
                        || op.has_side_effects()
                        || matches!(op, Op::Alloca { .. } | Op::Call { .. }) =>
                    {
                        Lattice::Over
                    }
                    op => {
                        // Substitute known constants into a copy and fold.
                        let mut k = op.clone();
                        let mut all_known = true;
                        let mut any_over = false;
                        k.for_each_operand_mut(|o| match op_lattice(&values, o) {
                            Lattice::Const(c) => *o = Operand::Const(c),
                            Lattice::Over => {
                                any_over = true;
                                all_known = false;
                            }
                            Lattice::Unknown => all_known = false,
                        });
                        if all_known {
                            match fold_op(&k) {
                                Some(c) => Lattice::Const(c),
                                None => Lattice::Over, // traps at runtime
                            }
                        } else if any_over {
                            Lattice::Over
                        } else {
                            Lattice::Unknown
                        }
                    }
                };
                let met = old.meet(new);
                // Monotonic update only (meet can only lower).
                if met != old {
                    values.insert(d, met);
                    revisit = true;
                }
            }
            // Mark successor edges executable.
            match &block.term {
                Terminator::Br { target } if !executable.contains(target) => {
                    block_queue.push_back(*target);
                }
                Terminator::CondBr {
                    cond,
                    on_true,
                    on_false,
                } => match op_lattice(&values, cond) {
                    Lattice::Const(Constant::Bool(true)) => {
                        if !executable.contains(on_true) {
                            block_queue.push_back(*on_true);
                        }
                    }
                    Lattice::Const(Constant::Bool(false)) => {
                        if !executable.contains(on_false) {
                            block_queue.push_back(*on_false);
                        }
                    }
                    Lattice::Unknown => {}
                    _ => {
                        for t in [on_true, on_false] {
                            if !executable.contains(t) {
                                block_queue.push_back(*t);
                            }
                        }
                    }
                },
                Terminator::Switch {
                    value,
                    cases,
                    default,
                } => match op_lattice(&values, value) {
                    Lattice::Const(Constant::Int(v)) => {
                        let t = cases
                            .iter()
                            .find(|(c, _)| *c == v)
                            .map(|(_, b)| *b)
                            .unwrap_or(*default);
                        if !executable.contains(&t) {
                            block_queue.push_back(t);
                        }
                    }
                    Lattice::Unknown => {}
                    _ => {
                        for (_, t) in cases {
                            if !executable.contains(t) {
                                block_queue.push_back(*t);
                            }
                        }
                        if !executable.contains(default) {
                            block_queue.push_back(*default);
                        }
                    }
                },
                _ => {}
            }
        }
    }
    (values, executable)
}

/// Applies a solved SCCP result to the function: proven constants replace
/// their instructions, and branches into non-executable blocks are folded.
fn sccp_apply(
    f: &mut FuncEdit<'_>,
    values: &HashMap<ValueId, Lattice>,
    executable: &HashSet<BlockId>,
) {
    // Replace constant values.
    let consts: Vec<(ValueId, Operand)> = values
        .iter()
        .filter_map(|(v, l)| match l {
            Lattice::Const(c) if !f.params.iter().any(|(p, _)| p == v) => {
                Some((*v, Operand::Const(*c)))
            }
            _ => None,
        })
        .collect();
    apply_substitutions(f, consts);
    // Fold branches leading into unexecutable blocks.
    for bid in f.block_ids_vec() {
        if !executable.contains(&bid) {
            continue;
        }
        let term = f.block(bid).term.clone();
        if let Terminator::CondBr {
            cond: _,
            on_true,
            on_false,
        } = term
        {
            let t_dead = !executable.contains(&on_true);
            let e_dead = !executable.contains(&on_false);
            if t_dead != e_dead {
                let taken = if t_dead { on_false } else { on_true };
                let lost = if t_dead { on_true } else { on_false };
                f.block_mut(bid).term = Terminator::Br { target: taken };
                // Remove φ incomings in the lost block.
                for inst in &mut f.block_mut(lost).insts {
                    if let Op::Phi(incs) = &mut inst.op {
                        incs.retain(|(b, _)| *b != bid);
                    }
                }
            }
        }
    }
}

/// Intraprocedural sparse conditional constant propagation.
#[derive(Debug, Default)]
pub struct Sccp;

impl Pass for Sccp {
    fn name(&self) -> String {
        "sccp".into()
    }

    fn description(&self) -> String {
        "sparse conditional constant propagation".into()
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        for_each_function(m, am, |f, _| {
            let (values, executable) = sccp_solve(f, &HashMap::new());
            sccp_apply(f, &values, &executable);
        });
    }
}

/// Interprocedural SCCP: parameters that receive the same constant at every
/// call site propagate into the callee.
#[derive(Debug, Default)]
pub struct IpSccp;

impl Pass for IpSccp {
    fn name(&self) -> String {
        "ipsccp".into()
    }

    fn description(&self) -> String {
        "interprocedural constant propagation into parameters".into()
    }

    fn run_with(&self, m: &mut Module, _am: &mut AnalysisManager) {
        // Gather, per function parameter, the meet of all actual arguments.
        let mut param_lattice: HashMap<FuncId, Vec<Lattice>> = HashMap::new();
        let mut called: HashSet<FuncId> = HashSet::new();
        for fid in m.func_ids_vec() {
            for b in m.func(fid).blocks() {
                for inst in &b.insts {
                    if let Op::Call { callee, args } = &inst.op {
                        called.insert(*callee);
                        let entry = param_lattice
                            .entry(*callee)
                            .or_insert_with(|| vec![Lattice::Unknown; args.len()]);
                        for (slot, a) in entry.iter_mut().zip(args) {
                            let l = match a {
                                Operand::Const(c) => Lattice::Const(*c),
                                _ => Lattice::Over,
                            };
                            *slot = slot.meet(l);
                        }
                    }
                }
            }
        }
        for fid in m.func_ids_vec() {
            // Entry points (uncalled functions, e.g. main) have unknown
            // external parameters — treat as Over.
            let seeds: HashMap<ValueId, Lattice> = match param_lattice.get(&fid) {
                Some(ls) if called.contains(&fid) => m
                    .func(fid)
                    .params
                    .iter()
                    .zip(ls)
                    .map(|((v, _), l)| (*v, *l))
                    .collect(),
                _ => HashMap::new(),
            };
            let mut f = m.edit_func(fid);
            let (values, executable) = sccp_solve(&f, &seeds);
            sccp_apply(&mut f, &values, &executable);
            // Materialize proven-constant parameters inside the callee.
            let uses = use_counts(&f);
            for (v, l) in &seeds {
                if let Lattice::Const(c) = l {
                    if uses[v.0 as usize] > 0 {
                        f.replace_all_uses(*v, Operand::Const(*c));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_ir::builder::ModuleBuilder;
    use cg_ir::verify::verify_module;
    use cg_ir::{BinOp, Pred, Type};

    #[test]
    fn sccp_proves_branch_dead() {
        // x = 3; if (x < 10) ret 1 else ret huge-computation
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("f", &[Type::I64], Type::I64);
        let x = fb.bin(BinOp::Add, Operand::const_int(1), Operand::const_int(2));
        let c = fb.icmp(Pred::Lt, x, Operand::const_int(10));
        let t = fb.new_block();
        let e = fb.new_block();
        fb.cond_br(c, t, e);
        fb.switch_to(t);
        fb.ret(Some(Operand::const_int(1)));
        fb.switch_to(e);
        let p = fb.param(0);
        let big = fb.bin(BinOp::Mul, p, p);
        fb.ret(Some(big));
        fb.finish();
        let mut m = mb.finish();
        assert!(Sccp.run(&mut m));
        verify_module(&m).unwrap();
        // The false branch is proven dead: terminator folded to br t.
        let f = m.func(m.find_func("f").unwrap());
        assert!(matches!(f.block(f.entry()).term, Terminator::Br { .. }));
    }

    #[test]
    fn sccp_propagates_through_phi() {
        // Both arms assign the same constant: φ is constant.
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("f", &[Type::I64], Type::I64);
        let p = fb.param(0);
        let c = fb.icmp(Pred::Lt, p, Operand::const_int(0));
        let t = fb.new_block();
        let e = fb.new_block();
        let j = fb.new_block();
        fb.cond_br(c, t, e);
        fb.switch_to(t);
        fb.br(j);
        fb.switch_to(e);
        fb.br(j);
        fb.switch_to(j);
        let phi = fb.phi(
            Type::I64,
            vec![(t, Operand::const_int(7)), (e, Operand::const_int(7))],
        );
        let r = fb.bin(BinOp::Add, phi, Operand::const_int(1));
        fb.ret(Some(r));
        fb.finish();
        let mut m = mb.finish();
        assert!(Sccp.run(&mut m));
        verify_module(&m).unwrap();
        let f = m.func(m.find_func("f").unwrap());
        // φ and add both folded; the join returns 8 directly.
        let join_term = &f
            .blocks()
            .find(|b| matches!(b.term, Terminator::Ret { .. }))
            .unwrap()
            .term;
        match join_term {
            Terminator::Ret { value: Some(v) } => assert_eq!(v.as_const_int(), Some(8)),
            t => panic!("unexpected {t:?}"),
        }
    }

    #[test]
    fn ipsccp_propagates_constant_arguments() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("helper", &[Type::I64], Type::I64);
        let p = fb.param(0);
        let r = fb.bin(BinOp::Mul, p, Operand::const_int(2));
        fb.ret(Some(r));
        let helper = fb.finish();
        let mut fb = mb.begin_function("main", &[], Type::I64);
        let a = fb
            .call(helper, Type::I64, vec![Operand::const_int(21)])
            .unwrap();
        fb.ret(Some(a));
        fb.finish();
        let mut m = mb.finish();
        assert!(IpSccp.run(&mut m));
        verify_module(&m).unwrap();
        // helper's body is now `ret 42`.
        let f = m.func(m.find_func("helper").unwrap());
        match &f.block(f.entry()).term {
            Terminator::Ret { value: Some(v) } => assert_eq!(v.as_const_int(), Some(42)),
            t => panic!("unexpected {t:?}"),
        }
    }

    #[test]
    fn sccp_keeps_loop_variant_values() {
        use cg_ir::interp::{run_main, ExecLimits};
        let mut m = cg_datasets::benchmark("cbench-v1/crc32").unwrap();
        let reference = run_main(&m, &ExecLimits::default()).unwrap();
        Sccp.run(&mut m);
        verify_module(&m).unwrap();
        let after = run_main(&m, &ExecLimits::default()).unwrap();
        assert_eq!(reference.ret, after.ret);
    }
}
