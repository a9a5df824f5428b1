//! Ergonomic construction of IR modules.
//!
//! [`ModuleBuilder`] owns a module under construction; [`FunctionBuilder`]
//! appends instructions to a current block and hands out [`Operand`]s for the
//! results, so generators can compose programs without touching value ids.

use crate::inst::{BinOp, CastKind, Inst, Op, Pred, Terminator};
use crate::module::{BlockId, FuncId, Function, Global, GlobalId, InlineHint, Module};
use crate::types::{Operand, Type};

/// Builds a [`Module`] incrementally.
#[derive(Debug)]
pub struct ModuleBuilder {
    module: Module,
}

impl ModuleBuilder {
    /// Creates a builder for an empty module.
    pub fn new(name: impl Into<String>) -> ModuleBuilder {
        ModuleBuilder {
            module: Module::new(name),
        }
    }

    /// Declares a global variable.
    pub fn add_global(&mut self, name: impl Into<String>, slots: u32, init: Vec<i64>) -> GlobalId {
        self.module.add_global(Global {
            name: name.into(),
            slots,
            init,
            constant: false,
        })
    }

    /// Declares a read-only global variable.
    pub fn add_const_global(
        &mut self,
        name: impl Into<String>,
        slots: u32,
        init: Vec<i64>,
    ) -> GlobalId {
        self.module.add_global(Global {
            name: name.into(),
            slots,
            init,
            constant: true,
        })
    }

    /// Begins a new function; the returned [`FunctionBuilder`] borrows this
    /// builder and must be [`FunctionBuilder::finish`]ed before beginning the
    /// next function. The entry block is created and selected.
    pub fn begin_function(
        &mut self,
        name: impl Into<String>,
        param_tys: &[Type],
        ret_ty: Type,
    ) -> FunctionBuilder<'_> {
        let mut f = Function::new(name, param_tys, ret_ty);
        let entry = f.add_block();
        FunctionBuilder {
            mb: self,
            func: Some(f),
            current: entry,
        }
    }

    /// Reserves a function id for a (mutually recursive) function defined
    /// later via [`ModuleBuilder::begin_function`]; the ids are assigned in
    /// call order, so `declare` then `begin_function` pairs line up as long
    /// as they happen in the same order. Most callers won't need this —
    /// `find` after construction also works.
    pub fn next_func_id(&self) -> FuncId {
        FuncId(self.module.func_bound())
    }

    /// Finalizes and returns the module.
    pub fn finish(self) -> Module {
        self.module
    }

    /// Read access to the module under construction.
    pub fn module(&self) -> &Module {
        &self.module
    }
}

/// Builds a single [`Function`] block-by-block.
#[derive(Debug)]
pub struct FunctionBuilder<'a> {
    mb: &'a mut ModuleBuilder,
    func: Option<Function>,
    current: BlockId,
}

impl<'a> FunctionBuilder<'a> {
    fn f(&mut self) -> &mut Function {
        self.func.as_mut().expect("function already finished")
    }

    /// The `i`-th parameter as an operand.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn param(&self, i: usize) -> Operand {
        let f = self.func.as_ref().expect("function already finished");
        Operand::Value(f.params[i].0)
    }

    /// Marks the function with an inline hint.
    pub fn set_inline_hint(&mut self, hint: InlineHint) {
        self.f().inline_hint = hint;
    }

    /// Creates a new (unterminated) block and returns its id without
    /// switching to it.
    pub fn new_block(&mut self) -> BlockId {
        self.f().add_block()
    }

    /// Selects the block that subsequent instructions are appended to.
    pub fn switch_to(&mut self, block: BlockId) {
        assert!(self.f().block_exists(block));
        self.current = block;
    }

    /// The currently selected block.
    pub fn current_block(&self) -> BlockId {
        self.current
    }

    fn push_valued(&mut self, ty: Type, op: Op) -> Operand {
        let dest = self.f().fresh_value();
        let cur = self.current;
        self.f().block_mut(cur).insts.push(Inst::new(dest, ty, op));
        Operand::Value(dest)
    }

    /// Appends a binary operation.
    pub fn bin(&mut self, op: BinOp, lhs: Operand, rhs: Operand) -> Operand {
        self.push_valued(op.ty(), Op::Bin(op, lhs, rhs))
    }

    /// Appends an integer comparison.
    pub fn icmp(&mut self, pred: Pred, lhs: Operand, rhs: Operand) -> Operand {
        self.push_valued(Type::I1, Op::Icmp(pred, lhs, rhs))
    }

    /// Appends a float comparison.
    pub fn fcmp(&mut self, pred: Pred, lhs: Operand, rhs: Operand) -> Operand {
        self.push_valued(Type::I1, Op::Fcmp(pred, lhs, rhs))
    }

    /// Appends a select.
    pub fn select(
        &mut self,
        ty: Type,
        cond: Operand,
        on_true: Operand,
        on_false: Operand,
    ) -> Operand {
        self.push_valued(
            ty,
            Op::Select {
                cond,
                on_true,
                on_false,
            },
        )
    }

    /// Appends a stack allocation of `slots` cells.
    pub fn alloca(&mut self, slots: u32) -> Operand {
        self.push_valued(Type::Ptr, Op::Alloca { slots })
    }

    /// Appends a typed load.
    pub fn load(&mut self, ty: Type, ptr: Operand) -> Operand {
        self.push_valued(ty, Op::Load { ptr })
    }

    /// Appends a store.
    pub fn store(&mut self, ptr: Operand, value: Operand) {
        let cur = self.current;
        self.f()
            .block_mut(cur)
            .insts
            .push(Inst::new_void(Op::Store { ptr, value }));
    }

    /// Appends pointer arithmetic (`base + offset` cells).
    pub fn gep(&mut self, base: Operand, offset: Operand) -> Operand {
        self.push_valued(Type::Ptr, Op::Gep { base, offset })
    }

    /// Appends a call returning `ret_ty` (use [`Type::Void`] for procedures).
    pub fn call(&mut self, callee: FuncId, ret_ty: Type, args: Vec<Operand>) -> Option<Operand> {
        if ret_ty == Type::Void {
            let cur = self.current;
            self.f()
                .block_mut(cur)
                .insts
                .push(Inst::new_void(Op::Call { callee, args }));
            None
        } else {
            Some(self.push_valued(ret_ty, Op::Call { callee, args }))
        }
    }

    /// Appends a φ-node. φ-nodes must precede all non-φ instructions in a
    /// block; the builder inserts them at the φ prefix.
    pub fn phi(&mut self, ty: Type, incomings: Vec<(BlockId, Operand)>) -> Operand {
        let dest = self.f().fresh_value();
        let cur = self.current;
        let block = self.f().block_mut(cur);
        let at = block.phi_count();
        block
            .insts
            .insert(at, Inst::new(dest, ty, Op::Phi(incomings)));
        Operand::Value(dest)
    }

    /// Appends a cast.
    pub fn cast(&mut self, kind: CastKind, value: Operand) -> Operand {
        self.push_valued(kind.signature().1, Op::Cast(kind, value))
    }

    /// Appends a bitwise/logical not. The operand type must be `i64` or `i1`;
    /// the result type follows the operand (assumed `i64` unless `i1` is
    /// evident from a constant).
    pub fn not(&mut self, value: Operand, ty: Type) -> Operand {
        self.push_valued(ty, Op::Not(value))
    }

    /// Appends an integer negation.
    pub fn neg(&mut self, value: Operand) -> Operand {
        self.push_valued(Type::I64, Op::Neg(value))
    }

    /// Appends a float negation.
    pub fn fneg(&mut self, value: Operand) -> Operand {
        self.push_valued(Type::F64, Op::FNeg(value))
    }

    /// Terminates the current block with an unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        let cur = self.current;
        self.f().block_mut(cur).term = Terminator::Br { target };
    }

    /// Terminates the current block with a conditional branch.
    pub fn cond_br(&mut self, cond: Operand, on_true: BlockId, on_false: BlockId) {
        let cur = self.current;
        self.f().block_mut(cur).term = Terminator::CondBr {
            cond,
            on_true,
            on_false,
        };
    }

    /// Terminates the current block with a switch.
    pub fn switch(&mut self, value: Operand, cases: Vec<(i64, BlockId)>, default: BlockId) {
        let cur = self.current;
        self.f().block_mut(cur).term = Terminator::Switch {
            value,
            cases,
            default,
        };
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, value: Option<Operand>) {
        let cur = self.current;
        self.f().block_mut(cur).term = Terminator::Ret { value };
    }

    /// Terminates the current block as unreachable.
    pub fn unreachable(&mut self) {
        let cur = self.current;
        self.f().block_mut(cur).term = Terminator::Unreachable;
    }

    /// Adds an incoming edge to an existing φ-node (identified by its result
    /// operand) — used when building loops where the latch value is only
    /// known after the φ is created.
    pub fn add_phi_incoming(&mut self, phi: Operand, from: BlockId, value: Operand) {
        let phi_id = phi.as_value().expect("phi operand must be a value");
        let f = self.f();
        for bid in f.block_ids_vec() {
            let block = f.block_mut(bid);
            for inst in &mut block.insts {
                if inst.dest == Some(phi_id) {
                    if let Op::Phi(incomings) = &mut inst.op {
                        incomings.push((from, value));
                        return;
                    }
                }
            }
        }
        panic!("phi value {phi_id:?} not found");
    }

    /// Finishes the function, adds it to the module and returns its id.
    pub fn finish(mut self) -> FuncId {
        let f = self.func.take().expect("function already finished");
        self.mb.module.add_function(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_module;

    #[test]
    fn build_straightline() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("f", &[Type::I64, Type::I64], Type::I64);
        let a = fb.param(0);
        let b = fb.param(1);
        let s = fb.bin(BinOp::Add, a, b);
        let t = fb.bin(BinOp::Mul, s, Operand::const_int(2));
        fb.ret(Some(t));
        fb.finish();
        let m = mb.finish();
        verify_module(&m).unwrap();
        assert_eq!(m.inst_count(), 3);
    }

    #[test]
    fn build_loop_with_phi() {
        // sum = 0; for i in 0..n { sum += i }
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("sum_to_n", &[Type::I64], Type::I64);
        let n = fb.param(0);
        let entry = fb.current_block();
        let header = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.br(header);

        fb.switch_to(header);
        let i = fb.phi(Type::I64, vec![(entry, Operand::const_int(0))]);
        let sum = fb.phi(Type::I64, vec![(entry, Operand::const_int(0))]);
        let cond = fb.icmp(Pred::Lt, i, n);
        fb.cond_br(cond, body, exit);

        fb.switch_to(body);
        let sum2 = fb.bin(BinOp::Add, sum, i);
        let i2 = fb.bin(BinOp::Add, i, Operand::const_int(1));
        fb.add_phi_incoming(i, body, i2);
        fb.add_phi_incoming(sum, body, sum2);
        fb.br(header);

        fb.switch_to(exit);
        fb.ret(Some(sum));
        fb.finish();

        let m = mb.finish();
        verify_module(&m).unwrap();

        // And it computes the right thing.
        let out = crate::interp::run_function(
            &m,
            m.find_func("sum_to_n").unwrap(),
            &[crate::interp::Value::Int(10)],
            &crate::interp::ExecLimits::default(),
        )
        .unwrap();
        assert_eq!(out.ret, Some(crate::interp::Value::Int(45)));
    }

    #[test]
    fn void_call() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("helper", &[], Type::Void);
        fb.ret(None);
        let helper = fb.finish();
        let mut fb = mb.begin_function("main", &[], Type::I64);
        let r = fb.call(helper, Type::Void, vec![]);
        assert!(r.is_none());
        fb.ret(Some(Operand::const_int(0)));
        fb.finish();
        verify_module(&mb.finish()).unwrap();
    }
}
