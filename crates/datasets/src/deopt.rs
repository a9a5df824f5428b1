//! The de-optimizer: lowers tidy SSA into `-O0`-style code.
//!
//! CompilerGym's benchmarks are produced by *unoptimized* frontends: every
//! local lives in a stack slot, every use reloads it, φ-nodes do not exist.
//! That headroom is what the whole experimental apparatus measures — `-Oz`
//! reduction factors, autotuner gains over `-Oz`, RL rewards. Our kernel
//! builders emit clean SSA, so dataset construction finishes by running this
//! reg2mem-style lowering: each scalar (`i1`/`i64`/`f64`) value is demoted to
//! an alloca, φ-nodes become stores in predecessors, and every use reloads.
//! `mem2reg` exactly inverts it, just as in a real compiler.

use std::collections::HashMap;

use cg_ir::{BlockId, Function, Inst, Module, Op, Operand, Type, ValueId};

/// Demotes scalar SSA values in every function of `m` to stack slots.
pub fn deoptimize(m: &mut Module) {
    for fid in m.func_ids_vec() {
        deoptimize_function(m.func_mut(fid));
    }
}

/// Demotes scalar SSA values of one function to stack slots.
fn deoptimize_function(f: &mut Function) {
    // Types of every value (params + defs).
    let mut types: HashMap<ValueId, Type> = HashMap::new();
    for (v, t) in &f.params {
        types.insert(*v, *t);
    }
    for &bid in f.block_ids() {
        for inst in &f.block(bid).insts {
            if let Some(d) = inst.dest {
                types.insert(d, inst.ty);
            }
        }
    }
    let demotable = |v: ValueId, types: &HashMap<ValueId, Type>| {
        matches!(types.get(&v), Some(Type::I1 | Type::I64 | Type::F64))
    };

    // One alloca slot per demotable value, all in the entry block.
    let mut slots: HashMap<ValueId, ValueId> = HashMap::new();
    let mut entry_prelude: Vec<Inst> = Vec::new();
    let values: Vec<ValueId> = types.keys().copied().collect();
    let mut sorted = values;
    sorted.sort();
    for v in sorted {
        if demotable(v, &types) {
            let slot = f.fresh_value();
            slots.insert(v, slot);
            entry_prelude.push(Inst::new(slot, Type::Ptr, Op::Alloca { slots: 1 }));
        }
    }
    if slots.is_empty() {
        return;
    }
    // Spill parameters immediately.
    for (p, _) in f.params.clone() {
        if let Some(&slot) = slots.get(&p) {
            entry_prelude.push(Inst::new_void(Op::Store {
                ptr: Operand::Value(slot),
                value: Operand::Value(p),
            }));
        }
    }

    for bid in f.block_ids_vec() {
        let mut out: Vec<Inst> = Vec::new();
        let insts = std::mem::take(&mut f.block_mut(bid).insts);
        // φ handling: each φ becomes a load from its slot here, with stores
        // appended to predecessors later.
        let mut phi_stores: Vec<(BlockId, ValueId, Operand)> = Vec::new(); // (pred, slot, value)
        let mut next_value = f.value_bound();
        let mut fresh = || {
            let v = ValueId(next_value);
            next_value += 1;
            v
        };
        // Keep surviving (non-demoted) φs at the very front: φ-nodes must
        // form a block prefix, and demoted φs become ordinary loads.
        let surviving_phis: Vec<Inst> = insts
            .iter()
            .filter(|i| {
                matches!(i.op, Op::Phi(_))
                    && i.dest.map(|d| !slots.contains_key(&d)).unwrap_or(true)
            })
            .cloned()
            .collect();
        out.extend(surviving_phis);
        for mut inst in insts {
            if let (Some(d), Op::Phi(incs)) = (inst.dest, &inst.op) {
                if let Some(&slot) = slots.get(&d) {
                    for (pred, val) in incs {
                        phi_stores.push((*pred, slot, *val));
                    }
                    // The φ itself becomes a load at the top of the block.
                    out.push(Inst::new(
                        d,
                        inst.ty,
                        Op::Load {
                            ptr: Operand::Value(slot),
                        },
                    ));
                    continue;
                }
                continue; // already emitted in the φ prefix
            }
            // Reload each demoted operand just before use.
            inst.op.for_each_operand_mut(|o| {
                if let Some(v) = o.as_value() {
                    if let Some(&slot) = slots.get(&v) {
                        let l = fresh();
                        out.push(Inst::new(
                            l,
                            types[&v],
                            Op::Load {
                                ptr: Operand::Value(slot),
                            },
                        ));
                        *o = Operand::Value(l);
                    }
                }
            });
            let dest = inst.dest;
            let ty = inst.ty;
            out.push(inst);
            // Spill the result right after the def.
            if let Some(d) = dest {
                if let Some(&slot) = slots.get(&d) {
                    let _ = ty;
                    out.push(Inst::new_void(Op::Store {
                        ptr: Operand::Value(slot),
                        value: Operand::Value(d),
                    }));
                }
            }
        }
        // Terminator operands reload too.
        let mut term = f.block(bid).term.clone();
        term.for_each_operand_mut(|o| {
            if let Some(v) = o.as_value() {
                if let Some(&slot) = slots.get(&v) {
                    let l = fresh();
                    out.push(Inst::new(
                        l,
                        types[&v],
                        Op::Load {
                            ptr: Operand::Value(slot),
                        },
                    ));
                    *o = Operand::Value(l);
                }
            }
        });
        f.block_mut(bid).insts = out;
        f.block_mut(bid).term = term;
        f.reserve_values(next_value);

        // Append the φ stores to predecessors (before their terminators).
        for (pred, slot, val) in phi_stores {
            let mut value = val;
            if let Some(v) = val.as_value() {
                if let Some(&vslot) = slots.get(&v) {
                    let l = f.fresh_value();
                    f.block_mut(pred).insts.push(Inst::new(
                        l,
                        types[&v],
                        Op::Load {
                            ptr: Operand::Value(vslot),
                        },
                    ));
                    value = Operand::Value(l);
                }
            }
            f.block_mut(pred).insts.push(Inst::new_void(Op::Store {
                ptr: Operand::Value(slot),
                value,
            }));
        }
    }

    // Install the entry prelude (allocas + parameter spills) at the top.
    let entry = f.entry();
    let mut new_entry = entry_prelude;
    new_entry.append(&mut f.block_mut(entry).insts);
    f.block_mut(entry).insts = new_entry;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use cg_ir::interp::{run_main, ExecLimits};
    use cg_ir::verify::verify_module;

    fn sample() -> Module {
        kernels::single("t", |mb| kernels::emit_crc32(mb, "k", 128))
    }

    #[test]
    fn deoptimized_module_verifies_and_runs_identically() {
        let m = sample();
        let reference = run_main(&m, &ExecLimits::default()).unwrap();
        let mut d = m.clone();
        deoptimize(&mut d);
        verify_module(&d).unwrap();
        let out = run_main(&d, &ExecLimits::default()).unwrap();
        assert_eq!(out.ret, reference.ret);
        assert_eq!(out.globals_hash, reference.globals_hash);
    }

    #[test]
    fn deoptimization_adds_substantial_memory_traffic() {
        let m = sample();
        let mut d = m.clone();
        deoptimize(&mut d);
        assert!(
            d.inst_count() as f64 > 2.5 * m.inst_count() as f64,
            "{} -> {}",
            m.inst_count(),
            d.inst_count()
        );
        // No φ of scalar type survives.
        for &fid in d.func_ids() {
            for b in d.func(fid).blocks() {
                for inst in &b.insts {
                    if let Op::Phi(_) = inst.op {
                        assert_eq!(inst.ty, Type::Ptr, "scalar phi survived");
                    }
                }
            }
        }
    }

    #[test]
    fn deopt_is_deterministic() {
        let mut a = sample();
        let mut b = sample();
        deoptimize(&mut a);
        deoptimize(&mut b);
        assert_eq!(cg_ir::module_hash(&a), cg_ir::module_hash(&b));
    }
}
