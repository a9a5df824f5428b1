//! A fuel-limited reference interpreter for the IR.
//!
//! The interpreter serves three roles in the reproduction, mirroring how the
//! paper uses program execution:
//!
//! 1. **Runtime reward**: the weighted dynamic cycle count of an execution is
//!    the deterministic core of the LLVM environment's `Runtime` reward (the
//!    environment layers measurement noise on top, as real wall time is
//!    nondeterministic).
//! 2. **Semantics validation**: differential testing compares the
//!    [`ExecOutcome`] of a benchmark before and after optimization
//!    (§III-B4 of the paper).
//! 3. **Sanitizing**: traps (division by zero, out-of-bounds access,
//!    executing `unreachable`) are surfaced as [`ExecError`]s, standing in
//!    for LLVM's UBSan/ASan integration.

use std::fmt;

use crate::inst::{BinOp, CastKind, Op, Pred, Terminator};
use crate::module::{BlockId, FuncId, Module, ValueId};
use crate::types::{Constant, Type};

/// A runtime value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Pointer (cell index into the linear memory; 0 is the null page).
    Ptr(u32),
}

impl Value {
    fn to_bits(self) -> i64 {
        match self {
            Value::Bool(b) => b as i64,
            Value::Int(i) => i,
            Value::Float(f) => f.to_bits() as i64,
            Value::Ptr(p) => p as i64,
        }
    }

    fn from_bits(bits: i64, ty: Type) -> Value {
        match ty {
            Type::I1 => Value::Bool(bits != 0),
            Type::I64 => Value::Int(bits),
            Type::F64 => Value::Float(f64::from_bits(bits as u64)),
            Type::Ptr => Value::Ptr(bits as u32),
            Type::Void => Value::Int(0),
        }
    }

    /// The integer content, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }
}

/// A trap or resource-limit violation during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Integer division or remainder by zero (or `i64::MIN / -1`).
    DivByZero,
    /// Memory access outside the allocated region or through null.
    OutOfBounds,
    /// The dynamic instruction budget was exhausted (probable infinite loop).
    FuelExhausted,
    /// Call depth exceeded the limit.
    StackOverflow,
    /// Stack allocation exhausted linear memory.
    OutOfMemory,
    /// An `unreachable` terminator was executed.
    UnreachableExecuted,
    /// Internal evaluation error (malformed IR that escaped the verifier).
    Malformed(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::DivByZero => write!(f, "integer division by zero"),
            ExecError::OutOfBounds => write!(f, "memory access out of bounds"),
            ExecError::FuelExhausted => write!(f, "instruction budget exhausted"),
            ExecError::StackOverflow => write!(f, "call depth limit exceeded"),
            ExecError::OutOfMemory => write!(f, "stack allocation exhausted memory"),
            ExecError::UnreachableExecuted => write!(f, "executed unreachable code"),
            ExecError::Malformed(m) => write!(f, "malformed IR: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Resource limits for an execution.
#[derive(Debug, Clone, Copy)]
pub struct ExecLimits {
    /// Maximum dynamic instructions before [`ExecError::FuelExhausted`].
    pub max_insts: u64,
    /// Maximum call depth. Kept conservative because the interpreter
    /// recurses natively and debug-build frames are large.
    pub max_call_depth: u32,
    /// Linear memory size in 8-byte cells (globals + stack).
    pub memory_slots: u32,
}

impl Default for ExecLimits {
    fn default() -> ExecLimits {
        ExecLimits {
            max_insts: 20_000_000,
            max_call_depth: 64,
            memory_slots: 1 << 20,
        }
    }
}

/// The result of a successful execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// The value returned by the entry function.
    pub ret: Option<Value>,
    /// Dynamic instruction count.
    pub dyn_insts: u64,
    /// Weighted cycle estimate (the deterministic core of the runtime
    /// reward; see `cycle_cost`).
    pub cycles: u64,
    /// FNV-1a hash of the final global memory region. Together with `ret`
    /// this is the observable behaviour compared by differential testing.
    pub globals_hash: u64,
}

/// The simulated cycle cost of one executed operation. The weights are
/// loosely calibrated to a modern out-of-order core and are what makes
/// "runtime" a *different* optimization target from "code size": e.g.
/// replacing a multiply with shifts wins cycles but may lose size.
fn cycle_cost(op: &Op) -> u64 {
    match op {
        Op::Bin(b, _, _) => match b {
            BinOp::Mul => 3,
            BinOp::Div | BinOp::Rem => 20,
            BinOp::FAdd | BinOp::FSub => 3,
            BinOp::FMul => 4,
            BinOp::FDiv => 15,
            _ => 1,
        },
        Op::Icmp(..) | Op::Fcmp(..) | Op::Select { .. } => 1,
        Op::Alloca { .. } => 1,
        Op::Load { .. } => 4,
        Op::Store { .. } => 4,
        Op::Gep { .. } => 1,
        Op::Call { .. } => 10,
        Op::Phi(_) => 0,
        Op::Cast(..) | Op::Not(_) | Op::Neg(_) | Op::FNeg(_) => 1,
    }
}

/// Runs `fid` in `module` with the given arguments.
///
/// # Errors
/// Returns an [`ExecError`] on any trap or resource exhaustion.
pub fn run_function(
    module: &Module,
    fid: FuncId,
    args: &[Value],
    limits: &ExecLimits,
) -> Result<ExecOutcome, ExecError> {
    let mut machine = Machine::new(module, limits)?;
    let ret = machine.call(fid, args, 0)?;
    Ok(ExecOutcome {
        ret,
        dyn_insts: machine.dyn_insts,
        cycles: machine.cycles,
        globals_hash: machine.globals_hash(),
    })
}

/// Runs the module's `main` function with no arguments — the convention used
/// by runnable benchmarks (their inputs are baked into globals).
///
/// # Errors
/// Returns [`ExecError::Malformed`] if there is no nullary `main`, or any
/// execution trap.
pub fn run_main(module: &Module, limits: &ExecLimits) -> Result<ExecOutcome, ExecError> {
    let fid = module
        .find_func("main")
        .ok_or_else(|| ExecError::Malformed("no main function".into()))?;
    if !module.func(fid).params.is_empty() {
        return Err(ExecError::Malformed("main must take no parameters".into()));
    }
    run_function(module, fid, &[], limits)
}

struct Machine<'a> {
    module: &'a Module,
    memory: Vec<i64>,
    globals_end: u32,
    sp: u32,
    dyn_insts: u64,
    cycles: u64,
    limits: ExecLimits,
    global_base: Vec<u32>,
}

impl<'a> Machine<'a> {
    fn new(module: &'a Module, limits: &ExecLimits) -> Result<Machine<'a>, ExecError> {
        // Cell 0 is the null page: never readable or writable.
        let mut base = 1u32;
        let mut global_base = Vec::with_capacity(module.globals().len());
        for g in module.globals() {
            global_base.push(base);
            base = base.checked_add(g.slots).ok_or(ExecError::OutOfMemory)?;
        }
        if base > limits.memory_slots {
            return Err(ExecError::OutOfMemory);
        }
        let mut memory = vec![0i64; limits.memory_slots as usize];
        for (g, &b) in module.globals().iter().zip(&global_base) {
            for (i, v) in g.init.iter().take(g.slots as usize).enumerate() {
                memory[b as usize + i] = *v;
            }
        }
        Ok(Machine {
            module,
            memory,
            globals_end: base,
            sp: base,
            dyn_insts: 0,
            cycles: 0,
            limits: *limits,
            global_base,
        })
    }

    fn globals_hash(&self) -> u64 {
        let mut bytes = Vec::with_capacity((self.globals_end as usize - 1) * 8);
        for cell in &self.memory[1..self.globals_end as usize] {
            bytes.extend_from_slice(&cell.to_le_bytes());
        }
        crate::fnv1a(&bytes)
    }

    fn check_addr(&self, addr: u32) -> Result<usize, ExecError> {
        if addr == 0 || addr as usize >= self.memory.len() {
            return Err(ExecError::OutOfBounds);
        }
        Ok(addr as usize)
    }

    fn call(
        &mut self,
        fid: FuncId,
        args: &[Value],
        depth: u32,
    ) -> Result<Option<Value>, ExecError> {
        if depth > self.limits.max_call_depth {
            return Err(ExecError::StackOverflow);
        }
        if !self.module.func_exists(fid) {
            return Err(ExecError::Malformed("call to deleted function".into()));
        }
        let f = self.module.func(fid);
        if args.len() != f.params.len() {
            return Err(ExecError::Malformed(format!(
                "arity mismatch calling @{}",
                f.name
            )));
        }
        let saved_sp = self.sp;
        let mut regs: Vec<Option<Value>> = vec![None; f.value_bound() as usize];
        for ((v, _), a) in f.params.iter().zip(args) {
            regs[v.0 as usize] = Some(*a);
        }

        fn read_operand(
            global_base: &[u32],
            regs: &[Option<Value>],
            o: &crate::types::Operand,
        ) -> Result<Value, ExecError> {
            match o {
                crate::types::Operand::Value(v) => regs[v.0 as usize]
                    .ok_or_else(|| ExecError::Malformed(format!("read of unset value {v}"))),
                crate::types::Operand::Const(c) => Ok(match c {
                    Constant::Bool(b) => Value::Bool(*b),
                    Constant::Int(i) => Value::Int(*i),
                    Constant::Float(f) => Value::Float(*f),
                }),
                crate::types::Operand::Global(g) => Ok(Value::Ptr(global_base[g.0 as usize])),
                crate::types::Operand::Func(_) => {
                    Err(ExecError::Malformed("function operand evaluated".into()))
                }
            }
        }
        macro_rules! read {
            ($regs:expr, $o:expr) => {
                read_operand(&self.global_base, $regs, $o)
            };
        }

        let mut current = f.entry();
        let mut previous: Option<BlockId> = None;
        loop {
            let block = f.block(current);
            // φ-nodes evaluate simultaneously against the previous block.
            let phi_n = block.phi_count();
            if phi_n > 0 {
                let prev = previous.ok_or_else(|| {
                    ExecError::Malformed("phi executed with no predecessor".into())
                })?;
                let mut staged: Vec<(ValueId, Value)> = Vec::with_capacity(phi_n);
                for inst in &block.insts[..phi_n] {
                    let Op::Phi(incs) = &inst.op else {
                        unreachable!()
                    };
                    let (_, o) = incs
                        .iter()
                        .find(|(b, _)| *b == prev)
                        .ok_or_else(|| ExecError::Malformed("phi missing incoming".into()))?;
                    staged.push((inst.dest.unwrap(), read!(&regs, o)?));
                }
                for (d, v) in staged {
                    regs[d.0 as usize] = Some(v);
                }
                self.dyn_insts += phi_n as u64;
            }
            for inst in &block.insts[phi_n..] {
                self.dyn_insts += 1;
                self.cycles += cycle_cost(&inst.op);
                if self.dyn_insts > self.limits.max_insts {
                    return Err(ExecError::FuelExhausted);
                }
                let result: Option<Value> = match &inst.op {
                    Op::Bin(bop, x, y) => {
                        let a = read!(&regs, x)?;
                        let b = read!(&regs, y)?;
                        Some(eval_bin(*bop, a, b)?)
                    }
                    Op::Icmp(p, x, y) => {
                        let a = read!(&regs, x)?.to_bits();
                        let b = read!(&regs, y)?.to_bits();
                        Some(Value::Bool(eval_icmp(*p, a, b)))
                    }
                    Op::Fcmp(p, x, y) => {
                        let Value::Float(a) = read!(&regs, x)? else {
                            return Err(ExecError::Malformed("fcmp on non-float".into()));
                        };
                        let Value::Float(b) = read!(&regs, y)? else {
                            return Err(ExecError::Malformed("fcmp on non-float".into()));
                        };
                        Some(Value::Bool(eval_fcmp(*p, a, b)))
                    }
                    Op::Select {
                        cond,
                        on_true,
                        on_false,
                    } => {
                        let Value::Bool(c) = read!(&regs, cond)? else {
                            return Err(ExecError::Malformed("select on non-bool".into()));
                        };
                        Some(if c {
                            read!(&regs, on_true)?
                        } else {
                            read!(&regs, on_false)?
                        })
                    }
                    Op::Alloca { slots } => {
                        let addr = self.sp;
                        let new_sp = self.sp.checked_add(*slots).ok_or(ExecError::OutOfMemory)?;
                        if new_sp > self.limits.memory_slots {
                            return Err(ExecError::OutOfMemory);
                        }
                        // Zero the frame (fresh allocas read as zero, keeping
                        // execution deterministic across optimization).
                        for cell in &mut self.memory[addr as usize..new_sp as usize] {
                            *cell = 0;
                        }
                        self.sp = new_sp;
                        Some(Value::Ptr(addr))
                    }
                    Op::Load { ptr } => {
                        let Value::Ptr(a) = read!(&regs, ptr)? else {
                            return Err(ExecError::Malformed("load from non-pointer".into()));
                        };
                        let idx = self.check_addr(a)?;
                        Some(Value::from_bits(self.memory[idx], inst.ty))
                    }
                    Op::Store { ptr, value } => {
                        let Value::Ptr(a) = read!(&regs, ptr)? else {
                            return Err(ExecError::Malformed("store to non-pointer".into()));
                        };
                        let v = read!(&regs, value)?;
                        let idx = self.check_addr(a)?;
                        self.memory[idx] = v.to_bits();
                        None
                    }
                    Op::Gep { base, offset } => {
                        let Value::Ptr(b) = read!(&regs, base)? else {
                            return Err(ExecError::Malformed("gep on non-pointer".into()));
                        };
                        let Value::Int(o) = read!(&regs, offset)? else {
                            return Err(ExecError::Malformed("gep offset non-int".into()));
                        };
                        Some(Value::Ptr((b as i64).wrapping_add(o) as u32))
                    }
                    Op::Call {
                        callee,
                        args: call_args,
                    } => {
                        let mut vals = Vec::with_capacity(call_args.len());
                        for a in call_args {
                            vals.push(read!(&regs, a)?);
                        }
                        self.call(*callee, &vals, depth + 1)?
                    }
                    Op::Phi(_) => {
                        return Err(ExecError::Malformed("phi after non-phi".into()));
                    }
                    Op::Cast(kind, v) => {
                        let x = read!(&regs, v)?;
                        Some(eval_cast(*kind, x)?)
                    }
                    Op::Not(v) => match read!(&regs, v)? {
                        Value::Int(i) => Some(Value::Int(!i)),
                        Value::Bool(b) => Some(Value::Bool(!b)),
                        _ => return Err(ExecError::Malformed("not on bad type".into())),
                    },
                    Op::Neg(v) => {
                        let Value::Int(i) = read!(&regs, v)? else {
                            return Err(ExecError::Malformed("neg on non-int".into()));
                        };
                        Some(Value::Int(i.wrapping_neg()))
                    }
                    Op::FNeg(v) => {
                        let Value::Float(x) = read!(&regs, v)? else {
                            return Err(ExecError::Malformed("fneg on non-float".into()));
                        };
                        Some(Value::Float(-x))
                    }
                };
                if let Some(d) = inst.dest {
                    regs[d.0 as usize] = result;
                }
            }
            // Terminator.
            self.dyn_insts += 1;
            self.cycles += 1;
            if self.dyn_insts > self.limits.max_insts {
                return Err(ExecError::FuelExhausted);
            }
            match &block.term {
                Terminator::Br { target } => {
                    previous = Some(current);
                    current = *target;
                }
                Terminator::CondBr {
                    cond,
                    on_true,
                    on_false,
                } => {
                    let Value::Bool(c) = read!(&regs, cond)? else {
                        return Err(ExecError::Malformed("condbr on non-bool".into()));
                    };
                    previous = Some(current);
                    current = if c { *on_true } else { *on_false };
                }
                Terminator::Switch {
                    value,
                    cases,
                    default,
                } => {
                    let Value::Int(v) = read!(&regs, value)? else {
                        return Err(ExecError::Malformed("switch on non-int".into()));
                    };
                    previous = Some(current);
                    current = cases
                        .iter()
                        .find(|(c, _)| *c == v)
                        .map(|(_, b)| *b)
                        .unwrap_or(*default);
                }
                Terminator::Ret { value } => {
                    let r = match value {
                        Some(o) => Some(read!(&regs, o)?),
                        None => None,
                    };
                    self.sp = saved_sp;
                    return Ok(r);
                }
                Terminator::Unreachable => return Err(ExecError::UnreachableExecuted),
            }
        }
    }
}

/// Evaluates a binary operation on constant values (shared by the interpreter
/// and the constant-folding pass so they can never disagree).
pub fn eval_bin(op: BinOp, a: Value, b: Value) -> Result<Value, ExecError> {
    match op {
        BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv => {
            let (Value::Float(x), Value::Float(y)) = (a, b) else {
                return Err(ExecError::Malformed("float op on non-float".into()));
            };
            let r = match op {
                BinOp::FAdd => x + y,
                BinOp::FSub => x - y,
                BinOp::FMul => x * y,
                BinOp::FDiv => x / y,
                _ => unreachable!(),
            };
            Ok(Value::Float(r))
        }
        _ => {
            let (Value::Int(x), Value::Int(y)) = (a, b) else {
                return Err(ExecError::Malformed("int op on non-int".into()));
            };
            let r = match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::Div => {
                    if y == 0 || (x == i64::MIN && y == -1) {
                        return Err(ExecError::DivByZero);
                    }
                    x / y
                }
                BinOp::Rem => {
                    if y == 0 || (x == i64::MIN && y == -1) {
                        return Err(ExecError::DivByZero);
                    }
                    x % y
                }
                BinOp::And => x & y,
                BinOp::Or => x | y,
                BinOp::Xor => x ^ y,
                BinOp::Shl => x.wrapping_shl(y as u32 & 63),
                BinOp::AShr => x.wrapping_shr(y as u32 & 63),
                BinOp::LShr => ((x as u64).wrapping_shr(y as u32 & 63)) as i64,
                _ => unreachable!(),
            };
            Ok(Value::Int(r))
        }
    }
}

/// Evaluates an integer comparison (on raw bit values, so pointers compare
/// by address and booleans by 0/1 — matching hardware semantics).
pub fn eval_icmp(p: Pred, a: i64, b: i64) -> bool {
    match p {
        Pred::Eq => a == b,
        Pred::Ne => a != b,
        Pred::Lt => a < b,
        Pred::Le => a <= b,
        Pred::Gt => a > b,
        Pred::Ge => a >= b,
    }
}

/// Evaluates an ordered float comparison (NaN compares false, except `Ne`).
pub fn eval_fcmp(p: Pred, a: f64, b: f64) -> bool {
    match p {
        Pred::Eq => a == b,
        Pred::Ne => a != b,
        Pred::Lt => a < b,
        Pred::Le => a <= b,
        Pred::Gt => a > b,
        Pred::Ge => a >= b,
    }
}

/// Evaluates a cast (shared with constant folding).
pub fn eval_cast(kind: CastKind, v: Value) -> Result<Value, ExecError> {
    Ok(match (kind, v) {
        (CastKind::IntToFloat, Value::Int(i)) => Value::Float(i as f64),
        (CastKind::FloatToInt, Value::Float(f)) => Value::Int(f as i64),
        (CastKind::BoolToInt, Value::Bool(b)) => Value::Int(b as i64),
        (CastKind::IntToBool, Value::Int(i)) => Value::Bool(i != 0),
        (CastKind::IntToPtr, Value::Int(i)) => Value::Ptr(i as u32),
        (CastKind::PtrToInt, Value::Ptr(p)) => Value::Int(p as i64),
        _ => return Err(ExecError::Malformed("cast on wrong value type".into())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::Operand;

    #[test]
    fn arithmetic_and_memory() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_global("g", 2, vec![7, 0]);
        let mut fb = mb.begin_function("main", &[], Type::I64);
        let p = Operand::Global(g);
        let v = fb.load(Type::I64, p);
        let v2 = fb.bin(BinOp::Mul, v, Operand::const_int(6));
        let slot1 = fb.gep(p, Operand::const_int(1));
        fb.store(slot1, v2);
        fb.ret(Some(v2));
        fb.finish();
        let m = mb.finish();
        crate::verify::verify_module(&m).unwrap();
        let out = run_main(&m, &ExecLimits::default()).unwrap();
        assert_eq!(out.ret, Some(Value::Int(42)));
        assert!(out.dyn_insts >= 5);
        assert!(out.cycles > out.dyn_insts); // loads/stores cost more than 1
    }

    #[test]
    fn div_by_zero_traps() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("main", &[], Type::I64);
        let d = fb.bin(BinOp::Div, Operand::const_int(1), Operand::const_int(0));
        fb.ret(Some(d));
        fb.finish();
        let m = mb.finish();
        assert_eq!(
            run_main(&m, &ExecLimits::default()),
            Err(ExecError::DivByZero)
        );
    }

    #[test]
    fn infinite_loop_exhausts_fuel() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("main", &[], Type::I64);
        let b = fb.current_block();
        let l = fb.new_block();
        fb.br(l);
        fb.switch_to(l);
        fb.br(l);
        let _ = b;
        fb.finish();
        let m = mb.finish();
        let limits = ExecLimits {
            max_insts: 1000,
            ..ExecLimits::default()
        };
        assert_eq!(run_main(&m, &limits), Err(ExecError::FuelExhausted));
    }

    #[test]
    fn recursion_depth_limit() {
        let mut mb = ModuleBuilder::new("t");
        // fn f() -> i64 { f() }  (via pre-reserved id)
        let self_id = mb.next_func_id();
        let mut fb = mb.begin_function("main", &[], Type::I64);
        let r = fb.call(self_id, Type::I64, vec![]).unwrap();
        fb.ret(Some(r));
        fb.finish();
        let m = mb.finish();
        assert_eq!(
            run_main(&m, &ExecLimits::default()),
            Err(ExecError::StackOverflow)
        );
    }

    #[test]
    fn null_deref_traps() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("main", &[], Type::I64);
        let null = fb.cast(CastKind::IntToPtr, Operand::const_int(0));
        let v = fb.load(Type::I64, null);
        fb.ret(Some(v));
        fb.finish();
        let m = mb.finish();
        assert_eq!(
            run_main(&m, &ExecLimits::default()),
            Err(ExecError::OutOfBounds)
        );
    }

    #[test]
    fn globals_hash_reflects_writes() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_global("g", 1, vec![0]);
        let mut fb = mb.begin_function("main", &[Type::I64], Type::I64);
        let p = fb.param(0);
        fb.store(Operand::Global(g), p);
        fb.ret(Some(p));
        fb.finish();
        let m = mb.finish();
        let fid = m.find_func("main").unwrap();
        let a = run_function(&m, fid, &[Value::Int(1)], &ExecLimits::default()).unwrap();
        let b = run_function(&m, fid, &[Value::Int(2)], &ExecLimits::default()).unwrap();
        assert_ne!(a.globals_hash, b.globals_hash);
    }

    #[test]
    fn shift_semantics_mask_amount() {
        assert_eq!(
            eval_bin(BinOp::Shl, Value::Int(1), Value::Int(64)).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            eval_bin(BinOp::LShr, Value::Int(-1), Value::Int(1)).unwrap(),
            Value::Int(i64::MAX)
        );
    }

    #[test]
    fn fcmp_nan_semantics() {
        assert!(!eval_fcmp(Pred::Eq, f64::NAN, f64::NAN));
        assert!(eval_fcmp(Pred::Ne, f64::NAN, 1.0));
        assert!(!eval_fcmp(Pred::Lt, f64::NAN, 1.0));
    }
}
