//! Global value numbering — and the deliberately nondeterministic
//! `gvn-sink`, reproducing the LLVM reproducibility bug the paper's state
//! validation caught (§III-B3).

use std::collections::HashMap;

use cg_ir::{AnalysisManager, BlockId, Module, Op, Operand, ValueId};

use crate::pass::Pass;
use crate::util::{apply_substitutions, for_each_function};

/// Dominator-based global value numbering. A pure expression computed in a
/// dominating block replaces any later recomputation. The `with_loads`
/// variant (`gvn-pre` in the action space) additionally numbers loads within
/// a block, invalidated at stores/calls.
#[derive(Debug, Default)]
pub struct Gvn {
    with_loads: bool,
}

impl Gvn {
    /// GVN that also numbers loads block-locally.
    pub fn with_loads() -> Gvn {
        Gvn { with_loads: true }
    }
}

impl Pass for Gvn {
    fn name(&self) -> String {
        if self.with_loads {
            "gvn-pre".into()
        } else {
            "gvn".into()
        }
    }

    fn description(&self) -> String {
        "dominator-based global value numbering".into()
    }

    fn preserved(&self) -> crate::pass::Preserved {
        crate::pass::Preserved::Cfg
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        let with_loads = self.with_loads;
        for_each_function(m, am, |f, am| {
            let dom = am.dom(f.id(), f);
            let mut children: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
            for &b in dom.rpo() {
                if let Some(p) = dom.idom(b) {
                    children.entry(p).or_default().push(b);
                }
            }
            // Leader table: canonicalized op -> value. Scoped by dom-tree
            // depth. Substitutions are resolved through the table as we go
            // (a GVN'd value may appear as an operand of a later key).
            let mut table: HashMap<Op, ValueId> = HashMap::new();
            let mut subs: HashMap<ValueId, ValueId> = HashMap::new();

            fn resolve(subs: &HashMap<ValueId, ValueId>, mut v: ValueId) -> ValueId {
                let mut guard = 0;
                while let Some(&next) = subs.get(&v) {
                    v = next;
                    guard += 1;
                    debug_assert!(guard < 100_000);
                }
                v
            }

            fn canon(subs: &HashMap<ValueId, ValueId>, op: &Op) -> Op {
                let mut k = op.clone();
                k.for_each_operand_mut(|o| {
                    if let Some(v) = o.as_value() {
                        *o = Operand::Value(resolve(subs, v));
                    }
                });
                if let Op::Bin(b, x, y) = &k {
                    if b.is_commutative() {
                        let (x, y) = (*x, *y);
                        if format!("{x:?}") > format!("{y:?}") {
                            k = Op::Bin(*b, y, x);
                        }
                    }
                }
                k
            }

            enum Ev {
                Enter(BlockId),
                Exit(Vec<Op>),
            }
            let mut stack = vec![Ev::Enter(f.entry())];
            while let Some(ev) = stack.pop() {
                match ev {
                    Ev::Enter(b) => {
                        let mut added = Vec::new();
                        // Block-local load table (cleared per block).
                        let mut loads: HashMap<Operand, ValueId> = HashMap::new();
                        for inst in &f.block(b).insts {
                            // Clobber check FIRST: stores and void calls have
                            // no dest, so an early dest-guard would skip them
                            // and leave stale entries in the load table —
                            // forwarding a pre-store value past the store.
                            if inst.op.writes_memory() {
                                loads.clear();
                            }
                            let Some(d) = inst.dest else { continue };
                            match &inst.op {
                                Op::Load { ptr } if with_loads => {
                                    let p = match ptr.as_value() {
                                        Some(v) => Operand::Value(resolve(&subs, v)),
                                        None => *ptr,
                                    };
                                    if let Some(&prev) = loads.get(&p) {
                                        subs.insert(d, prev);
                                    } else {
                                        loads.insert(p, d);
                                    }
                                }
                                op if !op.has_side_effects()
                                    && !op.reads_memory()
                                    && !matches!(op, Op::Phi(_) | Op::Alloca { .. }) =>
                                {
                                    let key = canon(&subs, op);
                                    match table.get(&key) {
                                        Some(&prev) => {
                                            subs.insert(d, prev);
                                        }
                                        None => {
                                            table.insert(key.clone(), d);
                                            added.push(key);
                                        }
                                    }
                                }
                                _ => {}
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
            let final_subs: Vec<(ValueId, Operand)> = subs
                .keys()
                .map(|&k| (k, Operand::Value(resolve(&subs, k))))
                .collect();
            apply_substitutions(f, final_subs);
        });
    }
}

/// `newgvn`: an alias of [`Gvn`] under LLVM's newer pass name (the paper's
/// 124-action space contains both `-gvn` and `-newgvn`).
#[derive(Debug, Default)]
pub struct NewGvnAlias;

impl Pass for NewGvnAlias {
    fn name(&self) -> String {
        "newgvn".into()
    }

    fn description(&self) -> String {
        "value numbering (alias of gvn under the newer pass name)".into()
    }

    fn preserved(&self) -> crate::pass::Preserved {
        crate::pass::Preserved::Cfg
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        Gvn::default().run_with(m, am);
    }
}

/// The quarantined, deliberately **nondeterministic** sinking pass.
///
/// LLVM's `-gvn-sink` sorted a vector of basic-block pointers by address,
/// making its output depend on allocator behaviour; CompilerGym's state
/// validation detected this and the pass was removed from the action space.
/// We reproduce the bug faithfully: candidate sink sites are ordered by the
/// *heap address* of per-block scratch allocations, so repeated runs on the
/// same input can disagree. It is excluded from
/// [`crate::action_space::ActionSpace`] and exists so the validation
/// machinery has a real bug to catch (see the `validation` tests in
/// `cg-core`).
#[derive(Debug, Default)]
pub struct GvnSink;

impl Pass for GvnSink {
    fn name(&self) -> String {
        "gvn-sink".into()
    }

    fn description(&self) -> String {
        "UNSOUND: nondeterministic sinking (reproduces LLVM's -gvn-sink bug)".into()
    }

    fn run_with(&self, m: &mut Module, am: &mut AnalysisManager) {
        for_each_function(m, am, |f, _| {
            // Candidate blocks: at least two stack allocations whose order
            // can be exchanged (alloca order is semantically free — only the
            // addresses shift). Like LLVM, the pass keeps per-candidate
            // scratch state behind pointers; unlike a correct pass, it
            // *orders candidates by those pointer values*. The scratch state
            // outlives the call (LLVM's equivalent was analysis state cached
            // across pass-manager invocations), so allocation addresses
            // differ between runs even within one process.
            let mut cands: Vec<(BlockId, &'static u64)> = f
                .block_ids_vec()
                .into_iter()
                .filter(|b| {
                    f.block(*b)
                        .insts
                        .iter()
                        .filter(|i| matches!(i.op, Op::Alloca { .. }))
                        .count()
                        > 1
                })
                .map(|b| (b, &*Box::leak(Box::new(b.0 as u64))))
                .collect();
            // THE BUG: order candidates by the heap address of their scratch
            // state — allocator-dependent and thus nondeterministic across
            // runs, exactly like sorting BasicBlock* by pointer value.
            cands.sort_by_key(|(_, scratch)| {
                let addr = (*scratch) as *const u64 as usize;
                // Mix the address so nearby allocations still reorder.
                addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7
            });
            // "Sink": in the chosen block, move the first alloca to the end
            // of the alloca group — a semantically sound reordering that is
            // textually visible, so module hashes diverge between runs when
            // the candidate order differs.
            if let Some((b, scratch)) = cands.first() {
                let allocas: Vec<usize> = f
                    .block(*b)
                    .insts
                    .iter()
                    .enumerate()
                    .filter(|(_, i)| matches!(i.op, Op::Alloca { .. }))
                    .map(|(i, _)| i)
                    .collect();
                // Pick the destination slot from the pointer value too.
                let addr = (*scratch) as *const u64 as usize;
                let j = 1 + (addr.wrapping_mul(0x94D0_49BB_1331_11EB) >> 9) % (allocas.len() - 1);
                let (from, to) = (allocas[0], allocas[j]);
                // Legality: the moved alloca's value must not be used before
                // its new position.
                let def = f.block(*b).insts[from].dest;
                let mut used_between = false;
                if let Some(d) = def {
                    for inst in &f.block(*b).insts[from + 1..=to] {
                        inst.op.for_each_operand(|o| {
                            if o.as_value() == Some(d) {
                                used_between = true;
                            }
                        });
                    }
                }
                if !used_between && from < to {
                    let inst = f.block_mut(*b).insts.remove(from);
                    f.block_mut(*b).insts.insert(to, inst);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_ir::builder::ModuleBuilder;
    use cg_ir::verify::verify_module;
    use cg_ir::BinOp;
    use cg_ir::{Pred, Type};

    #[test]
    fn gvn_unifies_across_dominating_blocks() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("f", &[Type::I64], Type::I64);
        let p = fb.param(0);
        let a = fb.bin(BinOp::Mul, p, p);
        let t = fb.new_block();
        let e = fb.new_block();
        let c = fb.icmp(Pred::Lt, p, Operand::const_int(0));
        fb.cond_br(c, t, e);
        fb.switch_to(t);
        let b1 = fb.bin(BinOp::Mul, p, p); // redundant with a
        fb.ret(Some(b1));
        fb.switch_to(e);
        let b2 = fb.bin(BinOp::Mul, p, p); // redundant with a
        fb.ret(Some(b2));
        fb.finish();
        let mut m = mb.finish();
        let _ = a;
        assert!(Gvn::default().run(&mut m));
        verify_module(&m).unwrap();
        assert_eq!(m.inst_count(), 5); // mul, icmp, condbr, ret, ret
    }

    #[test]
    fn gvn_does_not_unify_siblings() {
        // Expressions in sibling branches do not dominate one another.
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("f", &[Type::I64], Type::I64);
        let p = fb.param(0);
        let t = fb.new_block();
        let e = fb.new_block();
        let j = fb.new_block();
        let c = fb.icmp(Pred::Lt, p, Operand::const_int(0));
        fb.cond_br(c, t, e);
        fb.switch_to(t);
        let a = fb.bin(BinOp::Mul, p, p);
        fb.br(j);
        fb.switch_to(e);
        let b = fb.bin(BinOp::Mul, p, p);
        fb.br(j);
        fb.switch_to(j);
        let phi = fb.phi(Type::I64, vec![(t, a), (e, b)]);
        fb.ret(Some(phi));
        fb.finish();
        let mut m = mb.finish();
        assert!(!Gvn::default().run(&mut m));
    }

    #[test]
    fn gvn_pre_numbers_loads() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_global("g", 1, vec![5]);
        let mut fb = mb.begin_function("f", &[], Type::I64);
        let p = Operand::Global(g);
        let a = fb.load(Type::I64, p);
        let b = fb.load(Type::I64, p); // redundant
        let s = fb.bin(BinOp::Add, a, b);
        fb.ret(Some(s));
        fb.finish();
        let mut m = mb.finish();
        assert!(!Gvn::default().run(&mut m), "plain gvn ignores loads");
        assert!(Gvn::with_loads().run(&mut m));
        verify_module(&m).unwrap();
        assert_eq!(m.inst_count(), 3);
    }

    #[test]
    fn gvn_pre_does_not_forward_loads_across_stores() {
        // Found by cg fuzz (difftest-corpus/repro-000208-*): stores have no
        // dest, so a dest-guard placed before the clobber check skipped them
        // and the second load was "redundant" with the first despite the
        // intervening overwrite.
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_global("g", 1, vec![5]);
        let mut fb = mb.begin_function("f", &[], Type::I64);
        let p = Operand::Global(g);
        let a = fb.load(Type::I64, p);
        fb.store(p, Operand::const_int(9));
        let b = fb.load(Type::I64, p); // NOT redundant: must observe the 9
        let s = fb.bin(BinOp::Add, a, b);
        fb.ret(Some(s));
        fb.finish();
        let mut m = mb.finish();
        assert!(
            !Gvn::with_loads().run(&mut m),
            "no load may be forwarded here"
        );
        verify_module(&m).unwrap();
        assert_eq!(m.inst_count(), 5);
    }

    #[test]
    fn gvn_sink_is_semantically_sound_but_reorders() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("f", &[Type::I64, Type::I64], Type::I64);
        let p = fb.param(0);
        let q = fb.param(1);
        let a = fb.bin(BinOp::Mul, p, q);
        let b = fb.bin(BinOp::Add, p, q);
        let c = fb.bin(BinOp::Xor, p, q);
        let _ = (a, b);
        fb.ret(Some(c));
        fb.finish();
        let mut m = mb.finish();
        GvnSink.run(&mut m);
        verify_module(&m).unwrap();
    }
}
