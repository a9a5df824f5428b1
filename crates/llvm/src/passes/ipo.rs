//! Interprocedural passes: inlining, dead-argument elimination, global DCE
//! and function merging.

use std::collections::{HashMap, HashSet};

use cg_ir::{
    AnalysisManager, BlockId, FuncId, Function, InlineHint, Inst, Module, Op, Operand, Terminator,
    ValueId,
};

use crate::pass::{Pass, Preserved};
use crate::util::call_counts;

/// One call site: function, block, instruction index.
#[derive(Debug, Clone, Copy)]
struct CallSite {
    caller: FuncId,
    block: BlockId,
    index: usize,
    callee: FuncId,
}

fn find_call_sites(m: &Module) -> Vec<CallSite> {
    let mut sites = Vec::new();
    for caller in m.func_ids_vec() {
        let f = m.func(caller);
        for bid in f.block_ids_vec() {
            for (index, inst) in f.block(bid).insts.iter().enumerate() {
                if let Op::Call { callee, .. } = &inst.op {
                    sites.push(CallSite {
                        caller,
                        block: bid,
                        index,
                        callee: *callee,
                    });
                }
            }
        }
    }
    sites
}

/// Whether `f` calls a function `callee` selects.
fn calls(f: &Function, callee: impl Fn(FuncId) -> bool) -> bool {
    f.blocks().any(|b| {
        b.insts
            .iter()
            .any(|i| matches!(&i.op, Op::Call { callee: c, .. } if callee(*c)))
    })
}

/// Inlines `site` (the call at `site.block[site.index]` in `site.caller`).
/// The callee must not be the caller itself.
fn inline_site(m: &mut Module, site: CallSite) {
    assert_ne!(site.caller, site.callee, "cannot inline recursion");
    let callee = m.func(site.callee).clone();
    let caller = m.func_mut(site.caller);

    // Remove the call instruction, remembering its pieces.
    let call_inst = caller.block_mut(site.block).insts.remove(site.index);
    let Op::Call { args, .. } = call_inst.op else {
        panic!("site does not hold a call")
    };
    let call_dest = call_inst.dest;

    // Split the block: everything after the call (plus the terminator) moves
    // to a continuation block.
    let cont = caller.add_block();
    let moved: Vec<Inst> = caller
        .block_mut(site.block)
        .insts
        .drain(site.index..)
        .collect();
    let term = caller.block(site.block).term.clone();
    caller.block_mut(cont).insts = moved;
    caller.block_mut(cont).term = term;
    // Successors' φs that named the original block now name the
    // continuation (the terminator moved there).
    let succs = caller.block(cont).term.successors();
    for s in succs {
        for inst in &mut caller.block_mut(s).insts {
            if let Op::Phi(incs) = &mut inst.op {
                for (b, _) in incs.iter_mut() {
                    if *b == site.block {
                        *b = cont;
                    }
                }
            }
        }
    }

    // Clone the callee body.
    let mut bmap: HashMap<BlockId, BlockId> = HashMap::new();
    for b in callee.block_ids_vec() {
        bmap.insert(b, caller.add_block());
    }
    let mut vmap: HashMap<ValueId, Operand> = HashMap::new();
    for ((p, _), a) in callee.params.iter().zip(&args) {
        vmap.insert(*p, *a);
    }
    let mut returns: Vec<(BlockId, Option<Operand>)> = Vec::new();
    for b in callee.block_ids_vec() {
        // First allocate fresh destinations (φs may reference forward).
        for inst in &callee.block(b).insts {
            if let Some(d) = inst.dest {
                let nd = caller.fresh_value();
                vmap.insert(d, Operand::Value(nd));
            }
        }
    }
    for b in callee.block_ids_vec() {
        let nb = bmap[&b];
        for inst in &callee.block(b).insts {
            let mut op = inst.op.clone();
            op.for_each_operand_mut(|o| {
                if let Some(v) = o.as_value() {
                    if let Some(rep) = vmap.get(&v) {
                        *o = *rep;
                    }
                }
            });
            if let Op::Phi(incs) = &mut op {
                for (pb, _) in incs.iter_mut() {
                    *pb = bmap[pb];
                }
            }
            let dest = inst.dest.map(|d| vmap[&d].as_value().expect("fresh value"));
            caller.block_mut(nb).insts.push(Inst {
                dest,
                ty: inst.ty,
                op,
            });
        }
        let mut term = callee.block(b).term.clone();
        term.for_each_operand_mut(|o| {
            if let Some(v) = o.as_value() {
                if let Some(rep) = vmap.get(&v) {
                    *o = *rep;
                }
            }
        });
        match term {
            Terminator::Ret { value } => {
                returns.push((nb, value));
                caller.block_mut(nb).term = Terminator::Br { target: cont };
            }
            Terminator::Br { target } => {
                caller.block_mut(nb).term = Terminator::Br {
                    target: bmap[&target],
                };
            }
            Terminator::CondBr {
                cond,
                on_true,
                on_false,
            } => {
                caller.block_mut(nb).term = Terminator::CondBr {
                    cond,
                    on_true: bmap[&on_true],
                    on_false: bmap[&on_false],
                };
            }
            Terminator::Switch {
                value,
                cases,
                default,
            } => {
                caller.block_mut(nb).term = Terminator::Switch {
                    value,
                    cases: cases.into_iter().map(|(v, b)| (v, bmap[&b])).collect(),
                    default: bmap[&default],
                };
            }
            Terminator::Unreachable => {
                caller.block_mut(nb).term = Terminator::Unreachable;
            }
        }
    }
    // Jump from the call block into the cloned entry.
    let clone_entry = bmap[&callee.entry()];
    caller.block_mut(site.block).term = Terminator::Br {
        target: clone_entry,
    };

    // Wire the return value.
    if let Some(d) = call_dest {
        let value: Operand = match returns.as_slice() {
            [] => {
                // No returning path (infinite loop / unreachable): the
                // continuation is unreachable; give the dest a dummy.
                Operand::const_int(0)
            }
            [(_, Some(v))] => *v,
            many => {
                let phi_v = caller.fresh_value();
                let incs: Vec<(BlockId, Operand)> = many
                    .iter()
                    .map(|(b, v)| (*b, v.expect("non-void return")))
                    .collect();
                caller
                    .block_mut(cont)
                    .insts
                    .insert(0, Inst::new(phi_v, call_inst.ty, Op::Phi(incs)));
                Operand::Value(phi_v)
            }
        };
        caller.replace_all_uses(d, value);
    }
}

/// Function inlining with a size threshold: call sites whose callee has at
/// most `threshold` instructions are inlined (`hint(never)` is respected,
/// `hint(always)` bypasses the threshold).
#[derive(Debug)]
pub struct Inline {
    threshold: u32,
}

impl Inline {
    /// Creates an inliner with the given callee-size threshold.
    pub fn with_threshold(threshold: u32) -> Inline {
        Inline { threshold }
    }
}

impl Pass for Inline {
    fn name(&self) -> String {
        format!("inline-{}", self.threshold)
    }

    fn description(&self) -> String {
        "inline call sites below a callee-size threshold".into()
    }

    fn run_with(&self, m: &mut Module, _am: &mut AnalysisManager) {
        for _round in 0..4 {
            let sites = find_call_sites(m);
            let mut did = false;
            for site in sites {
                if site.caller == site.callee {
                    continue;
                }
                let callee = m.func(site.callee);
                let size = callee.inst_count() as u32;
                let ok = match callee.inline_hint {
                    InlineHint::Never => false,
                    InlineHint::Always => true,
                    InlineHint::None => size <= self.threshold,
                };
                if !ok {
                    continue;
                }
                inline_site(m, site);
                did = true;
                break; // indices are stale; rescan
            }
            if !did {
                break;
            }
        }
    }
}

/// Inlines only `hint(always)` callees, regardless of size.
#[derive(Debug, Default)]
pub struct AlwaysInline;

impl Pass for AlwaysInline {
    fn name(&self) -> String {
        "always-inline".into()
    }

    fn description(&self) -> String {
        "inline hint(always) call sites".into()
    }

    fn run_with(&self, m: &mut Module, _am: &mut AnalysisManager) {
        for _round in 0..8 {
            let sites = find_call_sites(m);
            let site = sites.into_iter().find(|s| {
                s.caller != s.callee && m.func(s.callee).inline_hint == InlineHint::Always
            });
            match site {
                Some(s) => inline_site(m, s),
                None => break,
            }
        }
    }
}

/// Infers inlining attributes: tiny functions (at most 4 instructions) with
/// no explicit hint become `hint(always)`, feeding [`AlwaysInline`].
#[derive(Debug, Default)]
pub struct FunctionAttrs;

impl Pass for FunctionAttrs {
    fn name(&self) -> String {
        "function-attrs".into()
    }

    fn description(&self) -> String {
        "mark tiny functions hint(always)".into()
    }

    fn preserved(&self) -> Preserved {
        Preserved::Cfg
    }

    fn run_with(&self, m: &mut Module, _am: &mut AnalysisManager) {
        for fid in m.func_ids_vec() {
            let f = m.func(fid);
            if f.inline_hint == InlineHint::None && f.inst_count() <= 4 && f.name != "main" {
                m.func_mut(fid).inline_hint = InlineHint::Always;
            }
        }
    }
}

/// Dead-argument elimination: removes parameters never read by the callee,
/// dropping the corresponding argument at every call site.
#[derive(Debug, Default)]
pub struct DeadArgElim;

impl Pass for DeadArgElim {
    fn name(&self) -> String {
        "deadargelim".into()
    }

    fn description(&self) -> String {
        "drop parameters the callee never reads".into()
    }

    fn run_with(&self, m: &mut Module, _am: &mut AnalysisManager) {
        // Entry points keep their signatures (nothing calls them, but their
        // ABI is externally visible; also `main` is invoked by the runner).
        let counts = call_counts(m);
        for fid in m.func_ids_vec() {
            if counts[fid.0 as usize] == 0 {
                continue;
            }
            let f = m.func(fid);
            let used = crate::util::use_counts(f);
            let dead: Vec<usize> = f
                .params
                .iter()
                .enumerate()
                .filter(|(_, (v, _))| used.get(v.0 as usize).copied().unwrap_or(0) == 0)
                .map(|(i, _)| i)
                .collect();
            if dead.is_empty() {
                continue;
            }
            let dead_set: HashSet<usize> = dead.iter().copied().collect();
            {
                let f = m.func_mut(fid);
                let mut i = 0;
                f.params.retain(|_| {
                    let keep = !dead_set.contains(&i);
                    i += 1;
                    keep
                });
            }
            // Fix every call site.
            for caller in m.func_ids_vec() {
                if !calls(m.func(caller), |c| c == fid) {
                    continue;
                }
                let cf = m.func_mut(caller);
                for bid in cf.block_ids_vec() {
                    for inst in &mut cf.block_mut(bid).insts {
                        if let Op::Call { callee, args } = &mut inst.op {
                            if *callee == fid {
                                let mut i = 0;
                                args.retain(|_| {
                                    let keep = !dead_set.contains(&i);
                                    i += 1;
                                    keep
                                });
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Global DCE: removes functions that are never called and are not the
/// `main` entry point.
#[derive(Debug, Default)]
pub struct GlobalDce;

impl Pass for GlobalDce {
    fn name(&self) -> String {
        "globaldce".into()
    }

    fn description(&self) -> String {
        "remove never-called functions".into()
    }

    fn run_with(&self, m: &mut Module, _am: &mut AnalysisManager) {
        loop {
            let counts = call_counts(m);
            let dead: Vec<FuncId> = m
                .func_ids_vec()
                .into_iter()
                .filter(|fid| counts[fid.0 as usize] == 0 && m.func(*fid).name != "main")
                .collect();
            if dead.is_empty() {
                break;
            }
            for fid in dead {
                m.remove_function(fid);
            }
        }
    }
}

/// Function merging: redirects calls from functions with byte-identical
/// bodies (same signature, same printed body) to a single representative,
/// then lets [`GlobalDce`] collect the duplicates.
#[derive(Debug, Default)]
pub struct MergeFunc;

impl Pass for MergeFunc {
    fn name(&self) -> String {
        "mergefunc".into()
    }

    fn description(&self) -> String {
        "deduplicate identical function bodies".into()
    }

    fn run_with(&self, m: &mut Module, _am: &mut AnalysisManager) {
        // Key: printed function with the name line stripped. Functions whose
        // bodies call themselves are skipped (their body text embeds their
        // own name).
        fn body_key(m: &Module, f: &Function) -> Option<String> {
            for b in f.blocks() {
                for inst in &b.insts {
                    if let Op::Call { callee, .. } = &inst.op {
                        if m.func(*callee).name == f.name {
                            return None;
                        }
                    }
                }
            }
            let mut s = String::new();
            cg_ir::printer::print_function(&mut s, m, f);
            // Strip the `define … @name(…)` header's name.
            Some(s.replacen(&format!("@{}", f.name), "@", 1))
        }
        let mut canon: HashMap<String, FuncId> = HashMap::new();
        let mut redirect: HashMap<FuncId, FuncId> = HashMap::new();
        for fid in m.func_ids_vec() {
            let f = m.func(fid);
            let Some(key) = body_key(m, f) else { continue };
            match canon.get(&key) {
                Some(&rep) => {
                    redirect.insert(fid, rep);
                }
                None => {
                    canon.insert(key, fid);
                }
            }
        }
        for caller in m.func_ids_vec() {
            if !calls(m.func(caller), |c| redirect.contains_key(&c)) {
                continue;
            }
            let cf = m.func_mut(caller);
            for bid in cf.block_ids_vec() {
                for inst in &mut cf.block_mut(bid).insts {
                    if let Op::Call { callee, .. } = &mut inst.op {
                        if let Some(rep) = redirect.get(callee) {
                            *callee = *rep;
                        }
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
    use cg_ir::interp::{run_main, ExecLimits};
    use cg_ir::verify::verify_module;
    use cg_ir::Type;
    use cg_ir::{BinOp, Pred};

    fn caller_callee(hint: InlineHint) -> Module {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("square_plus", &[Type::I64, Type::I64], Type::I64);
        fb.set_inline_hint(hint);
        let x = fb.param(0);
        let y = fb.param(1);
        let c = fb.icmp(Pred::Lt, x, Operand::const_int(0));
        let t = fb.new_block();
        let e = fb.new_block();
        fb.cond_br(c, t, e);
        fb.switch_to(t);
        let nx = fb.neg(x);
        let s1 = fb.bin(BinOp::Mul, nx, nx);
        let r1 = fb.bin(BinOp::Add, s1, y);
        fb.ret(Some(r1));
        fb.switch_to(e);
        let s2 = fb.bin(BinOp::Mul, x, x);
        let r2 = fb.bin(BinOp::Add, s2, y);
        fb.ret(Some(r2));
        let callee = fb.finish();
        let mut fb = mb.begin_function("main", &[], Type::I64);
        let a = fb
            .call(
                callee,
                Type::I64,
                vec![Operand::const_int(-5), Operand::const_int(2)],
            )
            .unwrap();
        let b = fb
            .call(
                callee,
                Type::I64,
                vec![Operand::const_int(3), Operand::const_int(1)],
            )
            .unwrap();
        let s = fb.bin(BinOp::Add, a, b);
        fb.ret(Some(s));
        fb.finish();
        mb.finish()
    }

    #[test]
    fn inline_multi_return_callee() {
        let mut m = caller_callee(InlineHint::None);
        let before = run_main(&m, &ExecLimits::default()).unwrap();
        assert_eq!(before.ret.unwrap().as_int(), Some(27 + 10));
        assert!(Inline::with_threshold(100).run(&mut m));
        verify_module(&m).unwrap();
        let after = run_main(&m, &ExecLimits::default()).unwrap();
        assert_eq!(after.ret, before.ret);
        // No calls remain in main.
        let main = m.func(m.find_func("main").unwrap());
        let has_call = main
            .blocks()
            .any(|b| b.insts.iter().any(|i| matches!(i.op, Op::Call { .. })));
        assert!(!has_call);
        // The return-value φ exists (multi-return callee).
        let has_phi = main
            .blocks()
            .any(|b| b.insts.iter().any(|i| matches!(i.op, Op::Phi(_))));
        assert!(has_phi);
    }

    #[test]
    fn inline_respects_threshold_and_hints() {
        let mut m = caller_callee(InlineHint::None);
        assert!(
            !Inline::with_threshold(2).run(&mut m),
            "callee above threshold"
        );
        let mut m = caller_callee(InlineHint::Never);
        assert!(!Inline::with_threshold(1000).run(&mut m), "hint(never)");
        let mut m = caller_callee(InlineHint::Always);
        assert!(
            Inline::with_threshold(0).run(&mut m),
            "hint(always) bypasses"
        );
        let mut m2 = caller_callee(InlineHint::Always);
        assert!(AlwaysInline.run(&mut m2));
    }

    #[test]
    fn inline_mid_block_call_preserves_following_code() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("twice", &[Type::I64], Type::I64);
        let p = fb.param(0);
        let r = fb.bin(BinOp::Mul, p, Operand::const_int(2));
        fb.ret(Some(r));
        let callee = fb.finish();
        let mut fb = mb.begin_function("main", &[], Type::I64);
        let pre = fb.bin(BinOp::Add, Operand::const_int(1), Operand::const_int(2));
        let mid = fb.call(callee, Type::I64, vec![pre]).unwrap();
        let post = fb.bin(BinOp::Add, mid, Operand::const_int(10));
        fb.ret(Some(post));
        fb.finish();
        let mut m = mb.finish();
        let before = run_main(&m, &ExecLimits::default()).unwrap();
        assert!(Inline::with_threshold(10).run(&mut m));
        verify_module(&m).unwrap();
        let after = run_main(&m, &ExecLimits::default()).unwrap();
        assert_eq!(after.ret, before.ret);
        assert_eq!(after.ret.unwrap().as_int(), Some(16));
    }

    #[test]
    fn deadargelim_drops_unused_params() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("f", &[Type::I64, Type::I64, Type::I64], Type::I64);
        let b = fb.param(1); // params 0 and 2 unused
        fb.ret(Some(b));
        let callee = fb.finish();
        let mut fb = mb.begin_function("main", &[], Type::I64);
        let r = fb
            .call(
                callee,
                Type::I64,
                vec![
                    Operand::const_int(1),
                    Operand::const_int(2),
                    Operand::const_int(3),
                ],
            )
            .unwrap();
        fb.ret(Some(r));
        fb.finish();
        let mut m = mb.finish();
        let before = run_main(&m, &ExecLimits::default()).unwrap();
        assert!(DeadArgElim.run(&mut m));
        verify_module(&m).unwrap();
        assert_eq!(m.func(callee).params.len(), 1);
        let after = run_main(&m, &ExecLimits::default()).unwrap();
        assert_eq!(after.ret, before.ret);
    }

    #[test]
    fn globaldce_removes_uncalled_functions() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("unused", &[], Type::I64);
        fb.ret(Some(Operand::const_int(1)));
        fb.finish();
        let mut fb = mb.begin_function("main", &[], Type::I64);
        fb.ret(Some(Operand::const_int(0)));
        fb.finish();
        let mut m = mb.finish();
        assert!(GlobalDce.run(&mut m));
        verify_module(&m).unwrap();
        assert_eq!(m.num_functions(), 1);
        assert!(m.find_func("main").is_some());
    }

    #[test]
    fn mergefunc_plus_globaldce_deduplicates() {
        let mut mb = ModuleBuilder::new("t");
        let mut ids = Vec::new();
        for name in ["f1", "f2"] {
            let mut fb = mb.begin_function(name, &[Type::I64], Type::I64);
            let p = fb.param(0);
            let r = fb.bin(BinOp::Mul, p, p);
            fb.ret(Some(r));
            ids.push(fb.finish());
        }
        let mut fb = mb.begin_function("main", &[], Type::I64);
        let a = fb
            .call(ids[0], Type::I64, vec![Operand::const_int(3)])
            .unwrap();
        let b = fb
            .call(ids[1], Type::I64, vec![Operand::const_int(4)])
            .unwrap();
        let s = fb.bin(BinOp::Add, a, b);
        fb.ret(Some(s));
        fb.finish();
        let mut m = mb.finish();
        let before = run_main(&m, &ExecLimits::default()).unwrap();
        assert!(MergeFunc.run(&mut m));
        assert!(GlobalDce.run(&mut m));
        verify_module(&m).unwrap();
        assert_eq!(m.num_functions(), 2); // one representative + main
        let after = run_main(&m, &ExecLimits::default()).unwrap();
        assert_eq!(after.ret, before.ret);
        assert_eq!(after.ret.unwrap().as_int(), Some(25));
    }
}
