//! Textual IR emission.
//!
//! The format round-trips through [`crate::parser`]: for any verified module
//! `m`, `parse(print(m))` prints identically. Example:
//!
//! ```text
//! module "benchmark://cbench-v1/crc32"
//! global @table 256 const [0, 1996959894, ...]
//! define i64 @crc(ptr %0, i64 %1) {
//! bb0:
//!   %2 = add i64 %1, 1
//!   condbr %3, bb1, bb2
//! ...
//! }
//! ```

use std::fmt::Write as _;

use crate::inst::{Inst, Op, Terminator};
use crate::module::{Function, Module};
use crate::types::Operand;

/// Prints a whole module to its canonical textual form.
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    print_module_into(&mut out, m);
    out
}

/// Prints a whole module into a caller-supplied buffer, clearing it first.
/// Reusing one buffer across prints avoids re-growing a fresh `String` for
/// every print.
pub fn print_module_into(out: &mut String, m: &Module) {
    out.clear();
    print_header(out, m);
    for &fid in m.func_ids() {
        print_function(out, m, m.func(fid));
    }
}

/// Prints the module line and the globals into `out`: everything
/// [`print_module`] emits before the first function.
pub fn print_header(out: &mut String, m: &Module) {
    let _ = writeln!(out, "module \"{}\"", m.name);
    for g in m.globals() {
        let _ = write!(out, "global @{} {}", g.name, g.slots);
        if g.constant {
            out.push_str(" const");
        }
        out.push_str(" [");
        for (i, v) in g.init.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{v}");
        }
        out.push_str("]\n");
    }
}

/// Prints one function (including its `define` header) into `out`.
pub fn print_function(out: &mut String, m: &Module, f: &Function) {
    let _ = write!(out, "define {} @{}(", f.ret_ty, f.name);
    for (i, (v, t)) in f.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{t} {v}");
    }
    out.push(')');
    match f.inline_hint {
        crate::module::InlineHint::None => {}
        crate::module::InlineHint::Always => out.push_str(" hint(always)"),
        crate::module::InlineHint::Never => out.push_str(" hint(never)"),
    }
    out.push_str(" {\n");
    for block in f.blocks() {
        let _ = writeln!(out, "{}:", block.id);
        for inst in &block.insts {
            out.push_str("  ");
            print_inst(out, m, inst);
            out.push('\n');
        }
        out.push_str("  ");
        print_terminator(out, &block.term);
        out.push('\n');
    }
    out.push_str("}\n");
}

fn operand(out: &mut String, m: &Module, o: &Operand) {
    match o {
        Operand::Value(v) => {
            let _ = write!(out, "{v}");
        }
        Operand::Const(c) => {
            let _ = write!(out, "{c}");
        }
        Operand::Global(g) => {
            let _ = write!(out, "@{}", m.global(*g).name);
        }
        Operand::Func(f) => {
            let _ = write!(out, "&{}", m.func(*f).name);
        }
    }
}

/// Prints a single instruction (no trailing newline) into `out`.
pub fn print_inst(out: &mut String, m: &Module, inst: &Inst) {
    if let Some(d) = inst.dest {
        let _ = write!(out, "{d} = ");
    }
    match &inst.op {
        Op::Bin(b, x, y) => {
            let _ = write!(out, "{b} {} ", inst.ty);
            operand(out, m, x);
            out.push_str(", ");
            operand(out, m, y);
        }
        Op::Icmp(p, x, y) => {
            let _ = write!(out, "icmp {p} ");
            operand(out, m, x);
            out.push_str(", ");
            operand(out, m, y);
        }
        Op::Fcmp(p, x, y) => {
            let _ = write!(out, "fcmp {p} ");
            operand(out, m, x);
            out.push_str(", ");
            operand(out, m, y);
        }
        Op::Select {
            cond,
            on_true,
            on_false,
        } => {
            let _ = write!(out, "select {} ", inst.ty);
            operand(out, m, cond);
            out.push_str(", ");
            operand(out, m, on_true);
            out.push_str(", ");
            operand(out, m, on_false);
        }
        Op::Alloca { slots } => {
            let _ = write!(out, "alloca {slots}");
        }
        Op::Load { ptr } => {
            let _ = write!(out, "load {} ", inst.ty);
            operand(out, m, ptr);
        }
        Op::Store { ptr, value } => {
            out.push_str("store ");
            operand(out, m, ptr);
            out.push_str(", ");
            operand(out, m, value);
        }
        Op::Gep { base, offset } => {
            out.push_str("gep ");
            operand(out, m, base);
            out.push_str(", ");
            operand(out, m, offset);
        }
        Op::Call { callee, args } => {
            let _ = write!(out, "call {} @{}(", inst.ty, m.func(*callee).name);
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                operand(out, m, a);
            }
            out.push(')');
        }
        Op::Phi(incomings) => {
            let _ = write!(out, "phi {}", inst.ty);
            for (b, v) in incomings {
                let _ = write!(out, " [{b} ");
                operand(out, m, v);
                out.push(']');
            }
        }
        Op::Cast(k, v) => {
            let _ = write!(out, "cast {k} ");
            operand(out, m, v);
        }
        Op::Not(v) => {
            let _ = write!(out, "not {} ", inst.ty);
            operand(out, m, v);
        }
        Op::Neg(v) => {
            out.push_str("neg ");
            operand(out, m, v);
        }
        Op::FNeg(v) => {
            out.push_str("fneg ");
            operand(out, m, v);
        }
    }
}

/// Prints a terminator (no trailing newline) into `out`.
pub fn print_terminator(out: &mut String, t: &Terminator) {
    match t {
        Terminator::Br { target } => {
            let _ = write!(out, "br {target}");
        }
        Terminator::CondBr {
            cond,
            on_true,
            on_false,
        } => {
            out.push_str("condbr ");
            // Conditions never reference globals/functions, so a module is
            // not needed; print values and constants directly.
            match cond {
                Operand::Value(v) => {
                    let _ = write!(out, "{v}");
                }
                Operand::Const(c) => {
                    let _ = write!(out, "{c}");
                }
                _ => out.push_str("<bad>"),
            }
            let _ = write!(out, ", {on_true}, {on_false}");
        }
        Terminator::Switch {
            value,
            cases,
            default,
        } => {
            out.push_str("switch ");
            match value {
                Operand::Value(v) => {
                    let _ = write!(out, "{v}");
                }
                Operand::Const(c) => {
                    let _ = write!(out, "{c}");
                }
                _ => out.push_str("<bad>"),
            }
            let _ = write!(out, ", default {default}");
            for (v, b) in cases {
                let _ = write!(out, " [{v}: {b}]");
            }
        }
        Terminator::Ret { value } => match value {
            Some(Operand::Value(v)) => {
                let _ = write!(out, "ret {v}");
            }
            Some(Operand::Const(c)) => {
                let _ = write!(out, "ret {c}");
            }
            Some(_) => out.push_str("ret <bad>"),
            None => out.push_str("ret void"),
        },
        Terminator::Unreachable => out.push_str("unreachable"),
    }
}

/// Convenience: prints one instruction to a fresh string.
pub fn inst_to_string(m: &Module, inst: &Inst) -> String {
    let mut s = String::new();
    print_inst(&mut s, m, inst);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::inst::{BinOp, Pred};
    use crate::Type;

    #[test]
    fn print_simple_function() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.begin_function("f", &[Type::I64], Type::I64);
        let p = fb.param(0);
        let x = fb.bin(BinOp::Add, p, Operand::const_int(1));
        let c = fb.icmp(Pred::Lt, x, Operand::const_int(100));
        let exit = fb.new_block();
        let other = fb.new_block();
        fb.cond_br(c, exit, other);
        fb.switch_to(exit);
        fb.ret(Some(x));
        fb.switch_to(other);
        fb.ret(Some(p));
        fb.finish();
        let m = mb.finish();
        let text = print_module(&m);
        assert!(text.contains("define i64 @f(i64 %0)"));
        assert!(text.contains("%1 = add i64 %0, 1"));
        assert!(text.contains("%2 = icmp lt %1, 100"));
        assert!(text.contains("condbr %2, bb1, bb2"));
        assert!(text.contains("ret %1"));
    }

    #[test]
    fn float_constants_roundtrip_via_bits() {
        let c = crate::Constant::Float(0.1 + 0.2);
        let s = c.to_string();
        assert!(s.starts_with("f0x"));
    }
}
