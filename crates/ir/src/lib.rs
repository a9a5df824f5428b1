//! # cg-ir: the intermediate representation substrate
//!
//! A typed, SSA-form intermediate representation modelled on LLVM-IR, built
//! from scratch for `compiler-gym-rs`. It is the common substrate shared by
//! the simulated LLVM optimizer (`cg-llvm`), the simulated GCC backend
//! (`cg-gcc`) and the benchmark program generators (`cg-datasets`).
//!
//! The crate provides:
//!
//! * IR data structures: [`Module`], [`Function`], [`Block`], [`Inst`]
//! * a [`builder`] for constructing valid IR programmatically
//! * a [`verify`]-er that checks CFG and SSA invariants (including dominance)
//! * a textual format with a [`printer`] and a round-tripping [`parser`]
//! * a fuel-limited [`interp`]-reter used for runtime rewards and
//!   differential testing of optimizations
//! * CFG [`analysis`]: predecessors/successors, reverse postorder,
//!   dominator trees, dominance frontiers, natural loops, liveness, def-use
//! * an [`am::AnalysisManager`] caching per-function analyses, invalidated
//!   by function modification stamps (see [`Stamp`])
//!
//! # Example
//!
//! ```
//! use cg_ir::builder::ModuleBuilder;
//! use cg_ir::{Type, Operand, BinOp};
//!
//! let mut mb = ModuleBuilder::new("example");
//! let mut fb = mb.begin_function("add1", &[Type::I64], Type::I64);
//! let p = fb.param(0);
//! let sum = fb.bin(BinOp::Add, p, Operand::const_int(1));
//! fb.ret(Some(sum));
//! fb.finish();
//! let module = mb.finish();
//! assert!(cg_ir::verify::verify_module(&module).is_ok());
//! ```

pub mod am;
pub mod analysis;
pub mod builder;
pub mod interp;
pub mod parser;
pub mod printer;
pub mod reduce;
pub mod smallvec;
pub mod verify;

mod inst;
mod module;
mod types;

pub use am::AnalysisManager;
pub use inst::{BinOp, CastKind, Inst, Op, Pred, Terminator};
pub use module::{
    Block, BlockId, FuncEdit, FuncId, Function, Global, GlobalId, InlineHint, Module, Stamp,
    ValueId,
};
pub use smallvec::SmallVec;
pub use types::{Constant, Operand, Type};

/// A stable 64-bit hash of a module's canonical textual form.
///
/// Two modules hash equal iff their printed IR is identical. This is the
/// mechanism behind state validation: replaying a serialized action sequence
/// must reproduce the same module hash, or the underlying "compiler" has a
/// reproducibility bug (see the `gvn-sink` story in the paper, §III-B3).
pub fn module_hash(module: &Module) -> u64 {
    fnv1a(printer::print_module(module).as_bytes())
}

/// FNV-1a hash over a byte slice. Deterministic across runs and platforms.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_values() {
        // FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
