//! The parametric synthetic program generator.
//!
//! Every dataset family that the paper sources from real-world corpora
//! (AnghaBench, GitHub, Linux, POJ-104, …) or from generators (Csmith,
//! llvm-stress) is reproduced here as a *style profile* fed to one common
//! structured generator. A profile controls program shape — function counts,
//! loop/branch/switch density, float and memory traffic, call structure —
//! so that different families genuinely stress different optimizations,
//! while every (family, index) pair deterministically names one program.
//!
//! Programs from `runnable` profiles are guaranteed to terminate without
//! traps: loop trip counts are compile-time constants, array indices are
//! masked to power-of-two bounds, and integer divisors are clamped to
//! `1..=255`. This is what lets the environment validate semantics by differential
//! execution, as the paper does for cBench and Csmith.

use cg_ir::builder::{FunctionBuilder, ModuleBuilder};
use cg_ir::{BinOp, CastKind, FuncId, GlobalId, InlineHint, Module, Operand, Pred, Type};

use crate::rng::SplitMix64;

/// Style profile controlling the shape of generated programs.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Number of helper functions (min, max).
    pub functions: (u32, u32),
    /// Statements per function body (min, max).
    pub stmts: (u32, u32),
    /// Probability a statement is a counted loop.
    pub loop_prob: f64,
    /// Probability a loop body contains another loop (up to depth 2).
    pub nested_loop_prob: f64,
    /// Probability a statement is an if-diamond.
    pub if_prob: f64,
    /// Probability a statement is a switch.
    pub switch_prob: f64,
    /// Probability a statement is a memory access.
    pub mem_prob: f64,
    /// Probability a statement is a call to an earlier helper.
    pub call_prob: f64,
    /// Fraction of arithmetic done in floating point.
    pub float_ratio: f64,
    /// Number of global arrays (min, max).
    pub global_arrays: (u32, u32),
    /// log2 of global array sizes (min, max).
    pub array_size_pow2: (u32, u32),
    /// Maximum loop trip count.
    pub max_trip: i64,
    /// Whether generated programs are guaranteed trap-free and terminating.
    pub runnable: bool,
    /// Extra weight on casts and odd operations (llvm-stress style).
    pub weirdness: f64,
}

impl Profile {
    /// A balanced default resembling general-purpose C code.
    pub fn balanced() -> Profile {
        Profile {
            functions: (2, 6),
            stmts: (8, 28),
            loop_prob: 0.16,
            nested_loop_prob: 0.25,
            if_prob: 0.14,
            switch_prob: 0.04,
            mem_prob: 0.18,
            call_prob: 0.10,
            float_ratio: 0.15,
            global_arrays: (1, 4),
            array_size_pow2: (4, 8),
            max_trip: 24,
            runnable: true,
            weirdness: 0.05,
        }
    }

    /// Deep counted-loop nests with long bodies: stresses the loop
    /// pipeline (licm, unroll, peel, indvars) and fuel accounting.
    fn deep_loops() -> Profile {
        Profile {
            functions: (1, 3),
            stmts: (14, 30),
            loop_prob: 0.45,
            nested_loop_prob: 0.80,
            if_prob: 0.08,
            switch_prob: 0.02,
            mem_prob: 0.12,
            call_prob: 0.04,
            float_ratio: 0.08,
            global_arrays: (1, 3),
            array_size_pow2: (4, 7),
            max_trip: 12,
            runnable: true,
            weirdness: 0.03,
        }
    }

    /// Branch- and switch-heavy control flow producing dense φ webs at join
    /// points: stresses simplifycfg, jump-threading, gvn and sccp.
    pub fn phi_web() -> Profile {
        Profile {
            functions: (2, 4),
            stmts: (16, 36),
            loop_prob: 0.10,
            nested_loop_prob: 0.20,
            if_prob: 0.38,
            switch_prob: 0.14,
            mem_prob: 0.08,
            call_prob: 0.05,
            float_ratio: 0.06,
            global_arrays: (1, 2),
            array_size_pow2: (4, 6),
            max_trip: 16,
            runnable: true,
            weirdness: 0.04,
        }
    }

    /// Heavy memory traffic through a couple of small shared arrays, so
    /// loads and stores alias constantly: stresses gvn load-elimination,
    /// dse, memcpyopt and sroa against may-alias reasoning.
    pub fn aliasing() -> Profile {
        Profile {
            functions: (1, 4),
            stmts: (14, 32),
            loop_prob: 0.18,
            nested_loop_prob: 0.30,
            if_prob: 0.10,
            switch_prob: 0.03,
            mem_prob: 0.48,
            call_prob: 0.06,
            float_ratio: 0.04,
            global_arrays: (1, 2),
            array_size_pow2: (3, 4),
            max_trip: 16,
            runnable: true,
            weirdness: 0.03,
        }
    }

    /// Many small helpers calling each other densely: stresses the inliner
    /// thresholds, deadargelim, globaldce and ipsccp.
    fn call_web() -> Profile {
        Profile {
            functions: (6, 12),
            stmts: (6, 16),
            loop_prob: 0.10,
            nested_loop_prob: 0.20,
            if_prob: 0.12,
            switch_prob: 0.04,
            mem_prob: 0.12,
            call_prob: 0.40,
            float_ratio: 0.06,
            global_arrays: (1, 3),
            array_size_pow2: (4, 6),
            max_trip: 12,
            runnable: true,
            weirdness: 0.04,
        }
    }

    /// Looks up a fuzz profile by registry name (see [`FUZZ_PROFILES`]).
    pub fn named(name: &str) -> Option<Profile> {
        match name {
            "balanced" => Some(Profile::balanced()),
            "deep-loops" => Some(Profile::deep_loops()),
            "phi-web" => Some(Profile::phi_web()),
            "aliasing" => Some(Profile::aliasing()),
            "call-web" => Some(Profile::call_web()),
            _ => None,
        }
    }
}

/// Registry of named profiles sampled by the differential fuzzer. Reproducer
/// files record one of these names so a failure regenerates byte-identically
/// from `(profile, seed)` alone.
pub const FUZZ_PROFILES: &[&str] = &["balanced", "deep-loops", "phi-web", "aliasing", "call-web"];

/// Generates a module for `profile` from `seed`, named `name`.
///
/// The module always defines a nullary `main` returning an `i64` checksum;
/// for runnable profiles `main` is guaranteed to terminate without traps.
pub fn generate(profile: &Profile, seed: u64, name: &str) -> Module {
    let mut rng = SplitMix64::new(seed);
    let mut mb = ModuleBuilder::new(name);

    // Globals.
    let n_globals = rng.range_i64(
        profile.global_arrays.0 as i64,
        profile.global_arrays.1 as i64,
    ) as u32;
    let mut globals: Vec<(GlobalId, u32)> = Vec::new();
    for gi in 0..n_globals.max(1) {
        let pow = rng.range_i64(
            profile.array_size_pow2.0 as i64,
            profile.array_size_pow2.1 as i64,
        ) as u32;
        let slots = 1u32 << pow;
        let init: Vec<i64> = (0..slots).map(|_| rng.range_i64(-1000, 1000)).collect();
        let id = mb.add_global(format!("g{gi}"), slots, init);
        globals.push((id, slots - 1));
    }

    let mut gen = Gen {
        prof: profile,
        rng,
        globals,
        funcs: Vec::new(),
        costs: Vec::new(),
        cur_cost: 0,
    };

    // Helper functions.
    let n_funcs = gen
        .rng
        .range_i64(profile.functions.0 as i64, profile.functions.1 as i64) as u32;
    for fi in 0..n_funcs {
        let arity = gen.rng.range_i64(1, 3) as usize;
        gen.cur_cost = 0;
        let fid = gen.emit_function(&mut mb, &format!("f{fi}"), arity);
        let cost = gen.cur_cost;
        gen.funcs.push((fid, arity));
        gen.costs.push(cost.max(1));
    }

    // main: call every helper with deterministic arguments and mix results.
    let mut fb = mb.begin_function("main", &[], Type::I64);
    let mut acc = Operand::const_int(0x9e37);
    let funcs = gen.funcs.clone();
    for (fid, arity) in funcs {
        let args: Vec<Operand> = (0..arity)
            .map(|_| Operand::const_int(gen.rng.range_i64(-64, 64)))
            .collect();
        let r = fb.call(fid, Type::I64, args).expect("helpers return i64");
        acc = fb.bin(BinOp::Xor, acc, r);
        let rotated = fb.bin(BinOp::Shl, acc, Operand::const_int(3));
        acc = fb.bin(BinOp::Add, acc, rotated);
    }
    fb.ret(Some(acc));
    fb.finish();

    mb.finish()
}

struct Gen<'p> {
    prof: &'p Profile,
    rng: SplitMix64,
    globals: Vec<(GlobalId, u32)>,
    funcs: Vec<(FuncId, usize)>,
    /// Estimated dynamic cost of each helper, parallel to `funcs`. Used to
    /// keep generated programs within the interpreter's fuel budget: a call
    /// inside nested loops multiplies its callee's cost by every enclosing
    /// trip count, so the generator refuses calls that would blow the cap.
    costs: Vec<u64>,
    cur_cost: u64,
}

/// Cap on a single function's estimated dynamic instruction count.
const COST_CAP: u64 = 150_000;

/// Values available for use at the current program point.
#[derive(Clone)]
struct Scope {
    ints: Vec<Operand>,
    floats: Vec<Operand>,
}

impl<'p> Gen<'p> {
    fn emit_function(&mut self, mb: &mut ModuleBuilder, name: &str, arity: usize) -> FuncId {
        let params = vec![Type::I64; arity];
        let mut fb = mb.begin_function(name, &params, Type::I64);
        if self.rng.chance(0.2) {
            fb.set_inline_hint(if self.rng.chance(0.5) {
                InlineHint::Always
            } else {
                InlineHint::Never
            });
        }
        let mut scope = Scope {
            ints: (0..arity).map(|i| fb.param(i)).collect(),
            floats: vec![Operand::const_float(1.5), Operand::const_float(0.25)],
        };
        scope
            .ints
            .push(Operand::const_int(self.rng.range_i64(1, 100)));
        let budget =
            self.rng
                .range_i64(self.prof.stmts.0 as i64, self.prof.stmts.1 as i64) as u32;
        self.emit_stmts(&mut fb, &mut scope, budget, 0, 1);
        // Combine a handful of live values into the return.
        let mut r = *self.rng.pick(&scope.ints);
        for _ in 0..2 {
            let other = *self.rng.pick(&scope.ints);
            r = fb.bin(BinOp::Xor, r, other);
        }
        if !scope.floats.is_empty() && self.rng.chance(self.prof.float_ratio) {
            let fsum = *self.rng.pick(&scope.floats);
            let fi = fb.cast(CastKind::FloatToInt, fsum);
            r = fb.bin(BinOp::Add, r, fi);
        }
        fb.ret(Some(r));
        fb.finish()
    }

    /// Emits `budget` statements into the current block of `fb`, extending
    /// `scope` with newly defined values. `depth` bounds structural nesting.
    fn emit_stmts(
        &mut self,
        fb: &mut FunctionBuilder<'_>,
        scope: &mut Scope,
        budget: u32,
        depth: u32,
        mult: u64,
    ) {
        let mut remaining = budget;
        while remaining > 0 {
            remaining -= 1;
            self.cur_cost = self.cur_cost.saturating_add(2 * mult);
            let roll = self.rng.f64();
            let p = self.prof;
            if depth < 2 && roll < p.loop_prob {
                let inner = remaining.min(6 + self.rng.below(6) as u32);
                remaining = remaining.saturating_sub(inner);
                self.emit_loop(fb, scope, inner, depth, mult);
            } else if depth < 3 && roll < p.loop_prob + p.if_prob {
                let inner = remaining.min(3 + self.rng.below(4) as u32);
                remaining = remaining.saturating_sub(inner);
                self.emit_if(fb, scope, inner, depth, mult);
            } else if depth < 3 && roll < p.loop_prob + p.if_prob + p.switch_prob {
                self.emit_switch(fb, scope);
            } else if roll < p.loop_prob + p.if_prob + p.switch_prob + p.mem_prob {
                self.emit_memory(fb, scope);
            } else if !self.funcs.is_empty()
                && roll < p.loop_prob + p.if_prob + p.switch_prob + p.mem_prob + p.call_prob
            {
                self.emit_call(fb, scope, mult);
            } else {
                self.emit_arith(fb, scope);
            }
        }
    }

    fn emit_arith(&mut self, fb: &mut FunctionBuilder<'_>, scope: &mut Scope) {
        if self.rng.chance(self.prof.float_ratio) {
            let op = *self
                .rng
                .pick(&[BinOp::FAdd, BinOp::FSub, BinOp::FMul, BinOp::FDiv]);
            let a = *self.rng.pick(&scope.floats);
            let b = *self.rng.pick(&scope.floats);
            let v = fb.bin(op, a, b);
            scope.floats.push(v);
            if self.rng.chance(0.3) {
                let i = fb.cast(CastKind::FloatToInt, v);
                // Clamp casted floats to a small range so they stay usable
                // as shift amounts and indices.
                let m = fb.bin(BinOp::And, i, Operand::const_int(0xffff));
                scope.ints.push(m);
            }
            return;
        }
        if self.rng.chance(self.prof.weirdness) {
            // Odd ops: casts round-trips, not/neg chains, bool arithmetic.
            let a = *self.rng.pick(&scope.ints);
            let v = match self.rng.below(4) {
                0 => {
                    let f = fb.cast(CastKind::IntToFloat, a);
                    scope.floats.push(f);
                    fb.cast(CastKind::FloatToInt, f)
                }
                1 => fb.not(a, Type::I64),
                2 => fb.neg(a),
                _ => {
                    let b = *self.rng.pick(&scope.ints);
                    let c = fb.icmp(Pred::Le, a, b);
                    fb.cast(CastKind::BoolToInt, c)
                }
            };
            scope.ints.push(v);
            return;
        }
        let choices = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::AShr,
            BinOp::LShr,
            BinOp::Div,
            BinOp::Rem,
        ];
        let op = *self.rng.pick(&choices);
        let a = *self.rng.pick(&scope.ints);
        let b = *self.rng.pick(&scope.ints);
        let v = match op {
            BinOp::Div | BinOp::Rem => {
                // Clamp divisor into 1..=255: trap-free and overflow-free.
                let masked = fb.bin(BinOp::And, b, Operand::const_int(0xff));
                let nonzero = fb.bin(BinOp::Or, masked, Operand::const_int(1));
                fb.bin(op, a, nonzero)
            }
            BinOp::Shl | BinOp::AShr | BinOp::LShr => {
                let amt = Operand::const_int(self.rng.range_i64(1, 13));
                fb.bin(op, a, amt)
            }
            _ => fb.bin(op, a, b),
        };
        scope.ints.push(v);
        // Occasionally produce a comparison + select idiom (min/max/abs).
        if self.rng.chance(0.15) {
            let x = *self.rng.pick(&scope.ints);
            let y = *self.rng.pick(&scope.ints);
            let c = fb.icmp(
                *self
                    .rng
                    .pick(&[Pred::Lt, Pred::Le, Pred::Gt, Pred::Ge, Pred::Eq, Pred::Ne]),
                x,
                y,
            );
            let s = fb.select(Type::I64, c, x, y);
            scope.ints.push(s);
        }
    }

    fn emit_memory(&mut self, fb: &mut FunctionBuilder<'_>, scope: &mut Scope) {
        let (gid, mask) = *self.rng.pick(&self.globals);
        let base = Operand::Global(gid);
        let idx_raw = *self.rng.pick(&scope.ints);
        let idx = fb.bin(BinOp::And, idx_raw, Operand::const_int(mask as i64));
        let ptr = fb.gep(base, idx);
        if self.rng.chance(0.55) {
            let v = fb.load(Type::I64, ptr);
            scope.ints.push(v);
        } else {
            let v = *self.rng.pick(&scope.ints);
            fb.store(ptr, v);
        }
    }

    fn emit_call(&mut self, fb: &mut FunctionBuilder<'_>, scope: &mut Scope, mult: u64) {
        // Only call helpers whose estimated cost keeps this function under
        // the cap, given the enclosing loop multiplier.
        let headroom = COST_CAP.saturating_sub(self.cur_cost);
        let affordable: Vec<(FuncId, usize, u64)> = self
            .funcs
            .iter()
            .zip(&self.costs)
            .filter(|(_, c)| (**c).saturating_mul(mult) <= headroom)
            .map(|((f, a), c)| (*f, *a, *c))
            .collect();
        if affordable.is_empty() {
            self.emit_arith(fb, scope);
            return;
        }
        let (fid, arity, cost) = *self.rng.pick(&affordable);
        self.cur_cost = self.cur_cost.saturating_add(cost.saturating_mul(mult));
        let args: Vec<Operand> = (0..arity).map(|_| *self.rng.pick(&scope.ints)).collect();
        let r = fb.call(fid, Type::I64, args).expect("helpers return i64");
        scope.ints.push(r);
    }

    fn emit_if(
        &mut self,
        fb: &mut FunctionBuilder<'_>,
        scope: &mut Scope,
        budget: u32,
        depth: u32,
        mult: u64,
    ) {
        let a = *self.rng.pick(&scope.ints);
        let b = *self.rng.pick(&scope.ints);
        let pred = *self
            .rng
            .pick(&[Pred::Lt, Pred::Le, Pred::Gt, Pred::Ge, Pred::Eq, Pred::Ne]);
        let cond = fb.icmp(pred, a, b);
        let then_b = fb.new_block();
        let else_b = fb.new_block();
        let join = fb.new_block();
        fb.cond_br(cond, then_b, else_b);

        // Then arm.
        fb.switch_to(then_b);
        let mut then_scope = scope.clone();
        self.emit_stmts(fb, &mut then_scope, budget / 2, depth + 1, mult);
        let tv = *self.rng.pick(&then_scope.ints);
        let then_end = fb.current_block();
        fb.br(join);

        // Else arm.
        fb.switch_to(else_b);
        let mut else_scope = scope.clone();
        self.emit_stmts(fb, &mut else_scope, budget - budget / 2, depth + 1, mult);
        let ev = *self.rng.pick(&else_scope.ints);
        let else_end = fb.current_block();
        fb.br(join);

        fb.switch_to(join);
        let merged = fb.phi(Type::I64, vec![(then_end, tv), (else_end, ev)]);
        scope.ints.push(merged);
    }

    fn emit_loop(
        &mut self,
        fb: &mut FunctionBuilder<'_>,
        scope: &mut Scope,
        budget: u32,
        depth: u32,
        mult: u64,
    ) {
        let trip = self.rng.range_i64(2, self.prof.max_trip.max(2));
        let inner_mult = mult.saturating_mul(trip as u64);
        let preheader = fb.current_block();
        let header = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.br(header);

        fb.switch_to(header);
        let i = fb.phi(Type::I64, vec![(preheader, Operand::const_int(0))]);
        let init = *self.rng.pick(&scope.ints);
        let acc = fb.phi(Type::I64, vec![(preheader, init)]);
        let cond = fb.icmp(Pred::Lt, i, Operand::const_int(trip));
        fb.cond_br(cond, body, exit);

        fb.switch_to(body);
        let mut body_scope = scope.clone();
        body_scope.ints.push(i);
        body_scope.ints.push(acc);
        let nested = depth < 1 && self.rng.chance(self.prof.nested_loop_prob);
        let body_budget = if nested { budget / 2 } else { budget };
        self.emit_stmts(fb, &mut body_scope, body_budget, depth + 1, inner_mult);
        if nested {
            self.emit_loop(
                fb,
                &mut body_scope,
                budget - budget / 2,
                depth + 1,
                inner_mult,
            );
        }
        // Accumulate and advance.
        let mixed = *self.rng.pick(&body_scope.ints);
        let op = *self.rng.pick(&[BinOp::Add, BinOp::Xor, BinOp::Sub]);
        let acc_next = fb.bin(op, acc, mixed);
        let i_next = fb.bin(BinOp::Add, i, Operand::const_int(1));
        let latch = fb.current_block();
        fb.add_phi_incoming(i, latch, i_next);
        fb.add_phi_incoming(acc, latch, acc_next);
        fb.br(header);

        fb.switch_to(exit);
        scope.ints.push(acc);
    }

    fn emit_switch(&mut self, fb: &mut FunctionBuilder<'_>, scope: &mut Scope) {
        let v = *self.rng.pick(&scope.ints);
        let n_cases = self.rng.range_i64(2, 4);
        let scrut = fb.bin(BinOp::And, v, Operand::const_int(7));
        let join = fb.new_block();
        let default = fb.new_block();
        let mut cases = Vec::new();
        let mut arms = Vec::new();
        for c in 0..n_cases {
            let b = fb.new_block();
            cases.push((c, b));
            arms.push(b);
        }
        fb.switch(scrut, cases, default);
        let mut incomings = Vec::new();
        for (c, b) in arms.iter().enumerate() {
            fb.switch_to(*b);
            let a = *self.rng.pick(&scope.ints);
            let x = fb.bin(BinOp::Add, a, Operand::const_int((c as i64 + 1) * 17));
            fb.br(join);
            incomings.push((*b, x));
        }
        fb.switch_to(default);
        let d = *self.rng.pick(&scope.ints);
        fb.br(join);
        incomings.push((default, d));
        fb.switch_to(join);
        let merged = fb.phi(Type::I64, incomings);
        scope.ints.push(merged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_ir::interp::{run_main, ExecLimits};
    use cg_ir::verify::verify_module;

    #[test]
    fn generated_programs_verify() {
        let p = Profile::balanced();
        for seed in 0..40 {
            let m = generate(&p, seed, "t");
            verify_module(&m).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn generated_programs_are_deterministic() {
        let p = Profile::balanced();
        let a = generate(&p, 7, "t");
        let b = generate(&p, 7, "t");
        assert_eq!(cg_ir::module_hash(&a), cg_ir::module_hash(&b));
        let c = generate(&p, 8, "t");
        assert_ne!(cg_ir::module_hash(&a), cg_ir::module_hash(&c));
    }

    #[test]
    fn runnable_programs_run_trap_free() {
        let p = Profile::balanced();
        for seed in 0..25 {
            let m = generate(&p, seed, "t");
            let out = run_main(&m, &ExecLimits::default())
                .unwrap_or_else(|e| panic!("seed {seed} trapped: {e}"));
            assert!(out.dyn_insts > 0);
        }
    }

    #[test]
    fn runnable_programs_have_varied_outputs() {
        // Guards against the generator collapsing to trivial constant
        // programs: across seeds the checksums should vary.
        let p = Profile::balanced();
        let outs: std::collections::HashSet<i64> = (0..20)
            .map(|seed| {
                let m = generate(&p, seed, "t");
                run_main(&m, &ExecLimits::default())
                    .unwrap()
                    .ret
                    .unwrap()
                    .as_int()
                    .unwrap()
            })
            .collect();
        assert!(outs.len() > 15, "only {} distinct outputs", outs.len());
    }
}
