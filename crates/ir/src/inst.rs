//! Instructions, opcodes and terminators.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::module::{BlockId, FuncId, ValueId};
use crate::smallvec::SmallVec;
use crate::types::{Operand, Type};

/// Binary arithmetic and bitwise opcodes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum BinOp {
    /// Integer addition (wrapping).
    Add,
    /// Integer subtraction (wrapping).
    Sub,
    /// Integer multiplication (wrapping).
    Mul,
    /// Signed integer division. Traps on division by zero or overflow.
    Div,
    /// Signed integer remainder. Traps on division by zero.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left (shift amount masked to 0..64).
    Shl,
    /// Arithmetic shift right (shift amount masked to 0..64).
    AShr,
    /// Logical shift right (shift amount masked to 0..64).
    LShr,
    /// Float addition.
    FAdd,
    /// Float subtraction.
    FSub,
    /// Float multiplication.
    FMul,
    /// Float division.
    FDiv,
}

impl BinOp {
    /// The result (and operand) type of the operation.
    pub fn ty(&self) -> Type {
        match self {
            BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv => Type::F64,
            _ => Type::I64,
        }
    }

    /// True for commutative operations (used by reassociation and value
    /// numbering to canonicalize operand order).
    pub fn is_commutative(&self) -> bool {
        matches!(
            self,
            BinOp::Add
                | BinOp::Mul
                | BinOp::And
                | BinOp::Or
                | BinOp::Xor
                | BinOp::FAdd
                | BinOp::FMul
        )
    }

    /// True for operations that can trap at runtime (integer div/rem).
    pub fn can_trap(&self) -> bool {
        matches!(self, BinOp::Div | BinOp::Rem)
    }

    /// The textual mnemonic.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::AShr => "ashr",
            BinOp::LShr => "lshr",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
        }
    }

    /// All binary opcodes, in mnemonic-stable order.
    pub fn all() -> &'static [BinOp] {
        &[
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::AShr,
            BinOp::LShr,
            BinOp::FAdd,
            BinOp::FSub,
            BinOp::FMul,
            BinOp::FDiv,
        ]
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Comparison predicates, shared by `icmp` and `fcmp`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Pred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than (signed / ordered).
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl Pred {
    /// The predicate with operands swapped (`a < b` ⇔ `b > a`).
    pub fn swapped(&self) -> Pred {
        match self {
            Pred::Eq => Pred::Eq,
            Pred::Ne => Pred::Ne,
            Pred::Lt => Pred::Gt,
            Pred::Le => Pred::Ge,
            Pred::Gt => Pred::Lt,
            Pred::Ge => Pred::Le,
        }
    }

    /// The logically negated predicate (`!(a < b)` ⇔ `a >= b`).
    pub fn negated(&self) -> Pred {
        match self {
            Pred::Eq => Pred::Ne,
            Pred::Ne => Pred::Eq,
            Pred::Lt => Pred::Ge,
            Pred::Le => Pred::Gt,
            Pred::Gt => Pred::Le,
            Pred::Ge => Pred::Lt,
        }
    }

    /// The textual mnemonic.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Pred::Eq => "eq",
            Pred::Ne => "ne",
            Pred::Lt => "lt",
            Pred::Le => "le",
            Pred::Gt => "gt",
            Pred::Ge => "ge",
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Cast opcodes between primitive types.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum CastKind {
    /// Signed integer to float (`i64` → `f64`).
    IntToFloat,
    /// Float to signed integer, truncating toward zero (`f64` → `i64`).
    FloatToInt,
    /// Boolean zero-extension (`i1` → `i64`).
    BoolToInt,
    /// Integer to boolean (`i64` → `i1`, nonzero test).
    IntToBool,
    /// Integer to pointer reinterpretation.
    IntToPtr,
    /// Pointer to integer reinterpretation.
    PtrToInt,
}

impl CastKind {
    /// The (source, destination) types of the cast.
    pub fn signature(&self) -> (Type, Type) {
        match self {
            CastKind::IntToFloat => (Type::I64, Type::F64),
            CastKind::FloatToInt => (Type::F64, Type::I64),
            CastKind::BoolToInt => (Type::I1, Type::I64),
            CastKind::IntToBool => (Type::I64, Type::I1),
            CastKind::IntToPtr => (Type::I64, Type::Ptr),
            CastKind::PtrToInt => (Type::Ptr, Type::I64),
        }
    }

    /// The textual mnemonic.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            CastKind::IntToFloat => "i2f",
            CastKind::FloatToInt => "f2i",
            CastKind::BoolToInt => "b2i",
            CastKind::IntToBool => "i2b",
            CastKind::IntToPtr => "i2p",
            CastKind::PtrToInt => "p2i",
        }
    }
}

impl fmt::Display for CastKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// The operation performed by an [`Inst`].
///
/// `Op` is `Eq + Hash` (floats compare by bit pattern via [`crate::Constant`]), so
/// value-numbering passes can use operations directly as table keys.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Op {
    /// Binary arithmetic/bitwise operation.
    Bin(BinOp, Operand, Operand),
    /// Integer comparison producing an `i1`.
    Icmp(Pred, Operand, Operand),
    /// Float comparison producing an `i1` (ordered; NaN compares false
    /// except under `Ne`).
    Fcmp(Pred, Operand, Operand),
    /// Conditional select: `cond ? on_true : on_false`.
    Select {
        /// The `i1` condition.
        cond: Operand,
        /// Value when the condition is true.
        on_true: Operand,
        /// Value when the condition is false.
        on_false: Operand,
    },
    /// Stack allocation of `slots` 8-byte cells; yields a pointer.
    Alloca {
        /// Number of 8-byte cells to reserve.
        slots: u32,
    },
    /// Load one cell from a pointer.
    Load {
        /// Address to load from.
        ptr: Operand,
    },
    /// Store one cell to a pointer. Produces no value.
    Store {
        /// Address to store to.
        ptr: Operand,
        /// Value to store.
        value: Operand,
    },
    /// Pointer arithmetic: `base + offset` cells; yields a pointer.
    Gep {
        /// Base pointer.
        base: Operand,
        /// Cell offset (i64).
        offset: Operand,
    },
    /// Direct function call.
    Call {
        /// The called function.
        callee: FuncId,
        /// Argument operands.
        args: Vec<Operand>,
    },
    /// SSA φ-node: selects a value based on the incoming CFG edge.
    Phi(Vec<(BlockId, Operand)>),
    /// Type cast.
    Cast(CastKind, Operand),
    /// Bitwise not (integers) / logical not (`i1`).
    Not(Operand),
    /// Integer negation.
    Neg(Operand),
    /// Float negation.
    FNeg(Operand),
}

impl Op {
    /// Visits every operand of this operation.
    pub fn for_each_operand(&self, mut f: impl FnMut(&Operand)) {
        match self {
            Op::Bin(_, a, b)
            | Op::Icmp(_, a, b)
            | Op::Fcmp(_, a, b)
            | Op::Gep { base: a, offset: b } => {
                f(a);
                f(b);
            }
            Op::Select {
                cond,
                on_true,
                on_false,
            } => {
                f(cond);
                f(on_true);
                f(on_false);
            }
            Op::Alloca { .. } => {}
            Op::Load { ptr } => f(ptr),
            Op::Store { ptr, value } => {
                f(ptr);
                f(value);
            }
            Op::Call { args, .. } => {
                for a in args {
                    f(a);
                }
            }
            Op::Phi(incomings) => {
                for (_, v) in incomings {
                    f(v);
                }
            }
            Op::Cast(_, a) | Op::Not(a) | Op::Neg(a) | Op::FNeg(a) => f(a),
        }
    }

    /// Visits every operand of this operation mutably.
    pub fn for_each_operand_mut(&mut self, mut f: impl FnMut(&mut Operand)) {
        match self {
            Op::Bin(_, a, b)
            | Op::Icmp(_, a, b)
            | Op::Fcmp(_, a, b)
            | Op::Gep { base: a, offset: b } => {
                f(a);
                f(b);
            }
            Op::Select {
                cond,
                on_true,
                on_false,
            } => {
                f(cond);
                f(on_true);
                f(on_false);
            }
            Op::Alloca { .. } => {}
            Op::Load { ptr } => f(ptr),
            Op::Store { ptr, value } => {
                f(ptr);
                f(value);
            }
            Op::Call { args, .. } => {
                for a in args {
                    f(a);
                }
            }
            Op::Phi(incomings) => {
                for (_, v) in incomings {
                    f(v);
                }
            }
            Op::Cast(_, a) | Op::Not(a) | Op::Neg(a) | Op::FNeg(a) => f(a),
        }
    }

    /// True if the op reads or writes memory, calls a function, or can trap —
    /// i.e. it must not be removed even if its result is unused, and must not
    /// be reordered across other effectful ops.
    pub fn has_side_effects(&self) -> bool {
        matches!(self, Op::Store { .. } | Op::Call { .. })
            || matches!(self, Op::Bin(op, _, _) if op.can_trap())
    }

    /// True if the op reads memory (loads are pure but not speculatable past
    /// stores).
    pub fn reads_memory(&self) -> bool {
        matches!(self, Op::Load { .. } | Op::Call { .. })
    }

    /// True if the op writes memory.
    pub fn writes_memory(&self) -> bool {
        matches!(self, Op::Store { .. } | Op::Call { .. })
    }

    /// A coarse opcode index used by feature extractors (70-way).
    pub fn opcode_index(&self) -> usize {
        match self {
            Op::Bin(b, _, _) => *b as usize,       // 0..15
            Op::Icmp(p, _, _) => 15 + *p as usize, // 15..21
            Op::Fcmp(p, _, _) => 21 + *p as usize, // 21..27
            Op::Select { .. } => 27,
            Op::Alloca { .. } => 28,
            Op::Load { .. } => 29,
            Op::Store { .. } => 30,
            Op::Gep { .. } => 31,
            Op::Call { .. } => 32,
            Op::Phi(_) => 33,
            Op::Cast(k, _) => 34 + *k as usize, // 34..40
            Op::Not(_) => 40,
            Op::Neg(_) => 41,
            Op::FNeg(_) => 42,
        }
    }

    /// The mnemonic for this op (used by the printer and opcode histograms).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Bin(b, _, _) => b.mnemonic(),
            Op::Icmp(..) => "icmp",
            Op::Fcmp(..) => "fcmp",
            Op::Select { .. } => "select",
            Op::Alloca { .. } => "alloca",
            Op::Load { .. } => "load",
            Op::Store { .. } => "store",
            Op::Gep { .. } => "gep",
            Op::Call { .. } => "call",
            Op::Phi(_) => "phi",
            Op::Cast(..) => "cast",
            Op::Not(_) => "not",
            Op::Neg(_) => "neg",
            Op::FNeg(_) => "fneg",
        }
    }
}

/// A single IR instruction: an optional destination SSA value, its type,
/// and the operation.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Inst {
    /// Destination value, or `None` for `store` and void calls.
    pub dest: Option<ValueId>,
    /// The type of the destination ([`Type::Void`] when `dest` is `None`).
    pub ty: Type,
    /// The operation.
    pub op: Op,
}

impl Inst {
    /// Creates an instruction with a destination value.
    pub fn new(dest: ValueId, ty: Type, op: Op) -> Inst {
        Inst {
            dest: Some(dest),
            ty,
            op,
        }
    }

    /// Creates a void instruction (store / void call).
    pub fn new_void(op: Op) -> Inst {
        Inst {
            dest: None,
            ty: Type::Void,
            op,
        }
    }

    /// True if removing this instruction cannot change program behaviour
    /// (pure, no trap, result unused is the caller's concern).
    pub fn is_removable_if_unused(&self) -> bool {
        !self.op.has_side_effects()
    }
}

/// A basic block terminator.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum Terminator {
    /// Unconditional branch.
    Br {
        /// Branch target.
        target: BlockId,
    },
    /// Two-way conditional branch on an `i1`.
    CondBr {
        /// The `i1` condition operand.
        cond: Operand,
        /// Target when true.
        on_true: BlockId,
        /// Target when false.
        on_false: BlockId,
    },
    /// Multi-way switch on an `i64`.
    Switch {
        /// The scrutinee operand.
        value: Operand,
        /// `(case value, target)` pairs.
        cases: Vec<(i64, BlockId)>,
        /// Target when no case matches.
        default: BlockId,
    },
    /// Function return.
    Ret {
        /// Returned value; `None` in a `void` function.
        value: Option<Operand>,
    },
    /// Marks unreachable control flow; executing it is a trap.
    Unreachable,
}

impl Terminator {
    /// Successor block ids, in order (may contain duplicates for switches).
    ///
    /// Returns a [`SmallVec`] with two inline slots: every terminator but
    /// `Switch` fits without allocating, which matters because CFG
    /// construction and RPO walks call this per block visited.
    pub fn successors(&self) -> SmallVec<BlockId, 2> {
        let mut v = SmallVec::new();
        match self {
            Terminator::Br { target } => v.push(*target),
            Terminator::CondBr {
                on_true, on_false, ..
            } => {
                v.push(*on_true);
                v.push(*on_false);
            }
            Terminator::Switch { cases, default, .. } => {
                for (_, b) in cases {
                    v.push(*b);
                }
                v.push(*default);
            }
            Terminator::Ret { .. } | Terminator::Unreachable => {}
        }
        v
    }

    /// Replaces every successor equal to `from` with `to`.
    pub fn replace_successor(&mut self, from: BlockId, to: BlockId) {
        match self {
            Terminator::Br { target } => {
                if *target == from {
                    *target = to;
                }
            }
            Terminator::CondBr {
                on_true, on_false, ..
            } => {
                if *on_true == from {
                    *on_true = to;
                }
                if *on_false == from {
                    *on_false = to;
                }
            }
            Terminator::Switch { cases, default, .. } => {
                for (_, b) in cases.iter_mut() {
                    if *b == from {
                        *b = to;
                    }
                }
                if *default == from {
                    *default = to;
                }
            }
            Terminator::Ret { .. } | Terminator::Unreachable => {}
        }
    }

    /// Visits the value operands of the terminator (condition / scrutinee /
    /// return value).
    pub fn for_each_operand(&self, mut f: impl FnMut(&Operand)) {
        match self {
            Terminator::CondBr { cond, .. } => f(cond),
            Terminator::Switch { value, .. } => f(value),
            Terminator::Ret { value: Some(v) } => f(v),
            _ => {}
        }
    }

    /// Visits the value operands of the terminator mutably.
    pub fn for_each_operand_mut(&mut self, mut f: impl FnMut(&mut Operand)) {
        match self {
            Terminator::CondBr { cond, .. } => f(cond),
            Terminator::Switch { value, .. } => f(value),
            Terminator::Ret { value: Some(v) } => f(v),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pred_involutions() {
        for p in [Pred::Eq, Pred::Ne, Pred::Lt, Pred::Le, Pred::Gt, Pred::Ge] {
            assert_eq!(p.swapped().swapped(), p);
            assert_eq!(p.negated().negated(), p);
        }
    }

    #[test]
    fn binop_properties() {
        assert!(BinOp::Add.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
        assert!(BinOp::Div.can_trap());
        assert!(!BinOp::FDiv.can_trap()); // float div yields inf/nan, no trap
        assert_eq!(BinOp::FMul.ty(), crate::Type::F64);
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::CondBr {
            cond: Operand::const_bool(true),
            on_true: BlockId(1),
            on_false: BlockId(2),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
        let mut t = t;
        t.replace_successor(BlockId(2), BlockId(3));
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(3)]);
    }

    #[test]
    fn opcode_indices_are_distinct() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        let x = Operand::const_int(0);
        let mut ops: Vec<Op> = Vec::new();
        for b in BinOp::all() {
            ops.push(Op::Bin(*b, x, x));
        }
        for p in [Pred::Eq, Pred::Ne, Pred::Lt, Pred::Le, Pred::Gt, Pred::Ge] {
            ops.push(Op::Icmp(p, x, x));
            ops.push(Op::Fcmp(p, x, x));
        }
        ops.push(Op::Select {
            cond: x,
            on_true: x,
            on_false: x,
        });
        ops.push(Op::Alloca { slots: 1 });
        ops.push(Op::Load { ptr: x });
        ops.push(Op::Store { ptr: x, value: x });
        ops.push(Op::Gep { base: x, offset: x });
        ops.push(Op::Call {
            callee: FuncId(0),
            args: vec![],
        });
        ops.push(Op::Phi(vec![]));
        for k in [
            CastKind::IntToFloat,
            CastKind::FloatToInt,
            CastKind::BoolToInt,
            CastKind::IntToBool,
            CastKind::IntToPtr,
            CastKind::PtrToInt,
        ] {
            ops.push(Op::Cast(k, x));
        }
        ops.push(Op::Not(x));
        ops.push(Op::Neg(x));
        ops.push(Op::FNeg(x));
        for op in &ops {
            assert!(seen.insert(op.opcode_index()), "duplicate index for {op:?}");
        }
        assert!(seen.iter().all(|&i| i < 43));
    }
}
