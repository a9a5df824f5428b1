//! The five observation spaces of the LLVM environment (Table III):
//! LLVM-IR text, InstCount (70-D), Autophase (56-D), inst2vec (200-D
//! embeddings) and ProGraML (typed program graphs).

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock, RwLock};

use cg_ir::printer::{print_module, print_module_into};
use cg_ir::{BinOp, BlockId, FuncId, Module, Op, Operand, Terminator, Type};

use crate::pass::Touched;

/// Dimensionality of the [`inst_count`] feature vector.
pub const INST_COUNT_DIM: usize = 70;
/// Dimensionality of the [`autophase`] feature vector.
pub const AUTOPHASE_DIM: usize = 56;
/// Dimensionality of the [`inst2vec`] embedding.
pub const INST2VEC_DIM: usize = 200;

/// The textual IR observation.
pub fn ir_text(m: &Module) -> String {
    print_module(m)
}

/// The textual IR observation, printed into a reusable buffer (cleared
/// first). Sessions that observe `Ir` or checkpoint every step reuse one
/// buffer instead of growing a fresh `String` each time.
pub fn ir_text_into(out: &mut String, m: &Module) {
    print_module_into(out, m);
}

/// The InstCount observation: 70 integer counters — one per opcode, plus
/// terminator kinds and module-level totals.
pub fn inst_count(m: &Module) -> Vec<i64> {
    let mut v = vec![0i64; INST_COUNT_DIM];
    let mut max_block = 0i64;
    let mut max_func = 0i64;
    let mut edges = 0i64;
    let mut multi_pred = 0i64;
    for &fid in m.func_ids() {
        let f = m.func(fid);
        max_func = max_func.max(f.inst_count() as i64);
        v[61] += f.params.len() as i64;
        let mut preds: HashMap<BlockId, i64> = HashMap::new();
        for b in f.blocks() {
            max_block = max_block.max(b.insts.len() as i64);
            v[49] += 1; // blocks
            for inst in &b.insts {
                v[inst.op.opcode_index()] += 1; // 0..43
                v[48] += 1;
                match inst.ty {
                    Type::I1 => v[52] += 1,
                    Type::I64 => v[53] += 1,
                    Type::F64 => v[54] += 1,
                    Type::Ptr => v[55] += 1,
                    Type::Void => {}
                }
                inst.op.for_each_operand(|o| match o {
                    Operand::Const(_) => v[56] += 1,
                    Operand::Value(_) => v[57] += 1,
                    Operand::Global(_) => v[58] += 1,
                    Operand::Func(_) => {}
                });
                if let Op::Phi(incs) = &inst.op {
                    v[59] += incs.len() as i64;
                }
                if let Op::Call { args, .. } = &inst.op {
                    v[60] += args.len() as i64;
                }
            }
            v[48] += 1; // terminator counts toward total
            match &b.term {
                Terminator::Br { .. } => v[43] += 1,
                Terminator::CondBr { .. } => v[44] += 1,
                Terminator::Switch { cases, .. } => {
                    v[45] += 1;
                    v[64] += cases.len() as i64;
                }
                Terminator::Ret { .. } => v[46] += 1,
                Terminator::Unreachable => v[47] += 1,
            }
            for s in b.term.successors() {
                edges += 1;
                *preds.entry(s).or_default() += 1;
            }
            if b.insts.len() <= 1 {
                v[69] += 1;
            }
        }
        multi_pred += preds.values().filter(|c| **c > 1).count() as i64;
        v[50] += 1; // functions
    }
    v[51] = m.globals().len() as i64;
    v[62] = max_block;
    v[63] = edges;
    v[65] = m.globals().iter().map(|g| g.slots as i64).sum();
    v[66] = m.globals().iter().filter(|g| g.constant).count() as i64;
    v[67] = max_func;
    v[68] = multi_pred;
    v
}

/// One function's contribution to [`inst_count`]. Additive indices hold the
/// function's own counts; index 62 holds the function's largest block, 67 its
/// instruction count (both MAX-combined across functions); the module-global
/// indices 51/65/66 are left zero and filled in by [`combine_inst_count`].
pub fn inst_count_func(m: &Module, fid: FuncId) -> Vec<i64> {
    let mut v = vec![0i64; INST_COUNT_DIM];
    let f = m.func(fid);
    v[67] = f.inst_count() as i64;
    v[61] += f.params.len() as i64;
    let mut preds: HashMap<BlockId, i64> = HashMap::new();
    for b in f.blocks() {
        v[62] = v[62].max(b.insts.len() as i64);
        v[49] += 1; // blocks
        for inst in &b.insts {
            v[inst.op.opcode_index()] += 1; // 0..43
            v[48] += 1;
            match inst.ty {
                Type::I1 => v[52] += 1,
                Type::I64 => v[53] += 1,
                Type::F64 => v[54] += 1,
                Type::Ptr => v[55] += 1,
                Type::Void => {}
            }
            inst.op.for_each_operand(|o| match o {
                Operand::Const(_) => v[56] += 1,
                Operand::Value(_) => v[57] += 1,
                Operand::Global(_) => v[58] += 1,
                Operand::Func(_) => {}
            });
            if let Op::Phi(incs) = &inst.op {
                v[59] += incs.len() as i64;
            }
            if let Op::Call { args, .. } = &inst.op {
                v[60] += args.len() as i64;
            }
        }
        v[48] += 1; // terminator counts toward total
        match &b.term {
            Terminator::Br { .. } => v[43] += 1,
            Terminator::CondBr { .. } => v[44] += 1,
            Terminator::Switch { cases, .. } => {
                v[45] += 1;
                v[64] += cases.len() as i64;
            }
            Terminator::Ret { .. } => v[46] += 1,
            Terminator::Unreachable => v[47] += 1,
        }
        for s in b.term.successors() {
            v[63] += 1;
            *preds.entry(s).or_default() += 1;
        }
        if b.insts.len() <= 1 {
            v[69] += 1;
        }
    }
    v[68] += preds.values().filter(|c| **c > 1).count() as i64;
    v[50] += 1; // functions
    v
}

/// Combines per-function [`inst_count_func`] vectors into the module vector:
/// indices 62 and 67 take the max across functions, 51/65/66 are recomputed
/// from the module's globals, everything else sums.
pub fn combine_inst_count<'a>(funcs: impl Iterator<Item = &'a Vec<i64>>, m: &Module) -> Vec<i64> {
    let mut v = vec![0i64; INST_COUNT_DIM];
    for fv in funcs {
        for (i, (slot, x)) in v.iter_mut().zip(fv.iter()).enumerate() {
            match i {
                62 | 67 => *slot = (*slot).max(*x),
                _ => *slot += x,
            }
        }
    }
    v[51] = m.globals().len() as i64;
    v[65] = m.globals().iter().map(|g| g.slots as i64).sum();
    v[66] = m.globals().iter().filter(|g| g.constant).count() as i64;
    v
}

/// The Autophase observation: 56 structural program features in the style of
/// Haj-Ali et al. — block-shape histograms, opcode groups, φ statistics, and
/// constant occurrences.
pub fn autophase(m: &Module) -> Vec<i64> {
    let mut v = vec![0i64; AUTOPHASE_DIM];
    for &fid in m.func_ids() {
        let f = m.func(fid);
        v[2] += 1; // functions
                   // Per-block pred counts.
        let mut preds: HashMap<BlockId, i64> = HashMap::new();
        let mut succs: HashMap<BlockId, i64> = HashMap::new();
        for b in f.blocks() {
            let ss = b.term.successors();
            succs.insert(b.id, ss.len() as i64);
            for s in ss {
                *preds.entry(s).or_default() += 1;
            }
        }
        for b in f.blocks() {
            v[0] += 1; // basic blocks
            let np = preds.get(&b.id).copied().unwrap_or(0);
            let ns = succs.get(&b.id).copied().unwrap_or(0);
            v[3] += ns; // edges
                        // Critical edges: multi-succ source to multi-pred target.
            if ns > 1 {
                for s in b.term.successors() {
                    if preds.get(&s).copied().unwrap_or(0) > 1 {
                        v[4] += 1;
                    }
                }
            }
            match np {
                1 => v[5] += 1,
                2 => v[6] += 1,
                x if x > 2 => v[7] += 1,
                _ => {}
            }
            match ns {
                1 => v[8] += 1,
                2 => v[9] += 1,
                x if x > 2 => v[10] += 1,
                _ => {}
            }
            if np == 1 && ns == 1 {
                v[11] += 1;
            }
            if np == 1 && ns == 2 {
                v[12] += 1;
            }
            if np == 2 && ns == 1 {
                v[13] += 1;
            }
            if np == 2 && ns == 2 {
                v[14] += 1;
            }
            let n = b.insts.len();
            if n >= 50 {
                v[15] += 1;
            } else if n >= 15 {
                v[16] += 1;
            } else {
                v[17] += 1;
            }
            match &b.term {
                Terminator::Br { .. } => v[18] += 1,
                Terminator::CondBr { .. } => v[19] += 1,
                Terminator::Switch { .. } => v[20] += 1,
                Terminator::Ret { .. } => v[21] += 1,
                Terminator::Unreachable => v[22] += 1,
            }
            let phis = b.phi_count() as i64;
            v[23] += phis;
            if phis == 0 {
                v[25] += 1;
            } else if phis <= 3 {
                v[26] += 1;
            } else {
                v[27] += 1;
            }
            for inst in &b.insts {
                v[1] += 1; // instructions
                match &inst.op {
                    Op::Phi(incs) => {
                        v[24] += incs.len() as i64;
                        if incs.len() > 4 {
                            v[28] += 1;
                        }
                    }
                    Op::Bin(op, x, y) => {
                        v[29] += 1;
                        if x.is_const() || y.is_const() {
                            v[30] += 1;
                        }
                        match op {
                            BinOp::Add => v[31] += 1,
                            BinOp::Sub => v[32] += 1,
                            BinOp::Mul => v[33] += 1,
                            BinOp::Div | BinOp::Rem => v[34] += 1,
                            BinOp::And => v[35] += 1,
                            BinOp::Or => v[36] += 1,
                            BinOp::Xor => v[37] += 1,
                            BinOp::Shl => v[38] += 1,
                            BinOp::AShr | BinOp::LShr => v[39] += 1,
                            BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv => v[40] += 1,
                        }
                    }
                    Op::Icmp(..) => v[41] += 1,
                    Op::Fcmp(..) => v[42] += 1,
                    Op::Select { .. } => v[43] += 1,
                    Op::Load { .. } => v[44] += 1,
                    Op::Store { .. } => v[45] += 1,
                    Op::Gep { .. } => v[46] += 1,
                    Op::Alloca { .. } => v[47] += 1,
                    Op::Call { args, .. } => {
                        v[48] += 1;
                        v[49] += args.iter().filter(|a| a.is_const()).count() as i64;
                    }
                    Op::Cast(..) => v[50] += 1,
                    Op::Not(_) | Op::Neg(_) | Op::FNeg(_) => v[51] += 1,
                }
                inst.op.for_each_operand(|o| {
                    if let Some(c) = o.as_const_int() {
                        v[52] += 1;
                        if c == 0 {
                            v[53] += 1;
                        }
                        if c == 1 {
                            v[54] += 1;
                        }
                    }
                });
                if matches!(inst.op, Op::Load { .. } | Op::Store { .. }) {
                    v[55] += 1;
                }
            }
        }
    }
    v
}

/// One function's contribution to [`autophase`]. Every Autophase feature is
/// per-function additive, so the module vector is the element-wise sum of
/// these across live functions.
pub fn autophase_func(m: &Module, fid: FuncId) -> Vec<i64> {
    let mut v = vec![0i64; AUTOPHASE_DIM];
    let f = m.func(fid);
    v[2] += 1; // functions
               // Per-block pred counts.
    let mut preds: HashMap<BlockId, i64> = HashMap::new();
    let mut succs: HashMap<BlockId, i64> = HashMap::new();
    for b in f.blocks() {
        let ss = b.term.successors();
        succs.insert(b.id, ss.len() as i64);
        for s in ss {
            *preds.entry(s).or_default() += 1;
        }
    }
    for b in f.blocks() {
        v[0] += 1; // basic blocks
        let np = preds.get(&b.id).copied().unwrap_or(0);
        let ns = succs.get(&b.id).copied().unwrap_or(0);
        v[3] += ns; // edges
                    // Critical edges: multi-succ source to multi-pred target.
        if ns > 1 {
            for s in b.term.successors() {
                if preds.get(&s).copied().unwrap_or(0) > 1 {
                    v[4] += 1;
                }
            }
        }
        match np {
            1 => v[5] += 1,
            2 => v[6] += 1,
            x if x > 2 => v[7] += 1,
            _ => {}
        }
        match ns {
            1 => v[8] += 1,
            2 => v[9] += 1,
            x if x > 2 => v[10] += 1,
            _ => {}
        }
        if np == 1 && ns == 1 {
            v[11] += 1;
        }
        if np == 1 && ns == 2 {
            v[12] += 1;
        }
        if np == 2 && ns == 1 {
            v[13] += 1;
        }
        if np == 2 && ns == 2 {
            v[14] += 1;
        }
        let n = b.insts.len();
        if n >= 50 {
            v[15] += 1;
        } else if n >= 15 {
            v[16] += 1;
        } else {
            v[17] += 1;
        }
        match &b.term {
            Terminator::Br { .. } => v[18] += 1,
            Terminator::CondBr { .. } => v[19] += 1,
            Terminator::Switch { .. } => v[20] += 1,
            Terminator::Ret { .. } => v[21] += 1,
            Terminator::Unreachable => v[22] += 1,
        }
        let phis = b.phi_count() as i64;
        v[23] += phis;
        if phis == 0 {
            v[25] += 1;
        } else if phis <= 3 {
            v[26] += 1;
        } else {
            v[27] += 1;
        }
        for inst in &b.insts {
            v[1] += 1; // instructions
            match &inst.op {
                Op::Phi(incs) => {
                    v[24] += incs.len() as i64;
                    if incs.len() > 4 {
                        v[28] += 1;
                    }
                }
                Op::Bin(op, x, y) => {
                    v[29] += 1;
                    if x.is_const() || y.is_const() {
                        v[30] += 1;
                    }
                    match op {
                        BinOp::Add => v[31] += 1,
                        BinOp::Sub => v[32] += 1,
                        BinOp::Mul => v[33] += 1,
                        BinOp::Div | BinOp::Rem => v[34] += 1,
                        BinOp::And => v[35] += 1,
                        BinOp::Or => v[36] += 1,
                        BinOp::Xor => v[37] += 1,
                        BinOp::Shl => v[38] += 1,
                        BinOp::AShr | BinOp::LShr => v[39] += 1,
                        BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv => v[40] += 1,
                    }
                }
                Op::Icmp(..) => v[41] += 1,
                Op::Fcmp(..) => v[42] += 1,
                Op::Select { .. } => v[43] += 1,
                Op::Load { .. } => v[44] += 1,
                Op::Store { .. } => v[45] += 1,
                Op::Gep { .. } => v[46] += 1,
                Op::Alloca { .. } => v[47] += 1,
                Op::Call { args, .. } => {
                    v[48] += 1;
                    v[49] += args.iter().filter(|a| a.is_const()).count() as i64;
                }
                Op::Cast(..) => v[50] += 1,
                Op::Not(_) | Op::Neg(_) | Op::FNeg(_) => v[51] += 1,
            }
            inst.op.for_each_operand(|o| {
                if let Some(c) = o.as_const_int() {
                    v[52] += 1;
                    if c == 0 {
                        v[53] += 1;
                    }
                    if c == 1 {
                        v[54] += 1;
                    }
                }
            });
            if matches!(inst.op, Op::Load { .. } | Op::Store { .. }) {
                v[55] += 1;
            }
        }
    }
    v
}

/// Per-function feature cache backing the incremental InstCount/Autophase
/// observations. The pass driver reports which functions each pass
/// touched ([`Touched`]); only those functions are re-scanned on the next
/// observation, so an action that rewrites one small function does not pay
/// to re-featurize the whole module. Consistency with the monolithic
/// [`inst_count`]/[`autophase`] scans is enforced by debug-assert
/// cross-checks at the observation site and a proptest over random
/// pipelines.
#[derive(Debug, Default, Clone)]
pub struct IncrementalFeatures {
    inst_count: HashMap<u32, Vec<i64>>,
    autophase: HashMap<u32, Vec<i64>>,
}

impl IncrementalFeatures {
    /// An empty cache: the first observation scans every function.
    pub fn new() -> IncrementalFeatures {
        IncrementalFeatures::default()
    }

    /// Drops everything. Call on reset or whenever the module is replaced
    /// wholesale (e.g. `restore`).
    pub fn clear(&mut self) {
        self.inst_count.clear();
        self.autophase.clear();
    }

    /// Invalidates the functions a pass touched.
    pub fn invalidate(&mut self, touched: &Touched) {
        match touched {
            Touched::None => {}
            Touched::All => self.clear(),
            Touched::Funcs(ids) => {
                for id in ids {
                    self.inst_count.remove(&id.0);
                    self.autophase.remove(&id.0);
                }
            }
        }
    }

    /// Number of functions with a cached feature vector (for tests/stats).
    pub fn cached_functions(&self) -> usize {
        self.inst_count.len().max(self.autophase.len())
    }

    /// The InstCount observation, recomputing only dirty functions.
    pub fn inst_count(&mut self, m: &Module) -> Vec<i64> {
        let live = m.func_ids();
        prune(&mut self.inst_count, live);
        for fid in live {
            self.inst_count
                .entry(fid.0)
                .or_insert_with(|| inst_count_func(m, *fid));
        }
        combine_inst_count(live.iter().map(|f| &self.inst_count[&f.0]), m)
    }

    /// The Autophase observation, recomputing only dirty functions. Every
    /// Autophase feature is additive, so combining is an element-wise sum.
    pub fn autophase(&mut self, m: &Module) -> Vec<i64> {
        let live = m.func_ids();
        prune(&mut self.autophase, live);
        let mut v = vec![0i64; AUTOPHASE_DIM];
        for fid in live {
            let fv = self
                .autophase
                .entry(fid.0)
                .or_insert_with(|| autophase_func(m, *fid));
            for (slot, x) in v.iter_mut().zip(fv.iter()) {
                *slot += x;
            }
        }
        v
    }
}

/// Drops cache entries for functions no longer in the module (FuncIds are
/// never reused, so a dead id can simply be forgotten).
fn prune(cache: &mut HashMap<u32, Vec<i64>>, live: &[FuncId]) {
    if cache.len() > live.len() {
        let live_set: HashSet<u32> = live.iter().map(|f| f.0).collect();
        cache.retain(|id, _| live_set.contains(id));
    }
}

/// The inst2vec observation: a 200-D float embedding per module, the mean of
/// deterministic pseudo-embeddings looked up per instruction. Deliberately
/// the second most expensive observation (each instruction expands to a full
/// 200-D vector, as in the real embedding lookup), matching its cost
/// position in Table III.
pub fn inst2vec(m: &Module) -> Vec<f32> {
    let mut acc = vec![0f64; INST2VEC_DIM];
    let mut count = 0u64;
    for &fid in m.func_ids() {
        let f = m.func(fid);
        for b in f.blocks() {
            for inst in &b.insts {
                // The embedding key mirrors inst2vec's statement
                // canonicalization: opcode, result type, operand kinds.
                let mut key = cg_ir::fnv1a(inst.op.mnemonic().as_bytes());
                key ^= (inst.ty as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut arity = 0u64;
                inst.op.for_each_operand(|o| {
                    arity = arity.wrapping_mul(31).wrapping_add(match o {
                        Operand::Value(_) => 1,
                        Operand::Const(_) => 2,
                        Operand::Global(_) => 3,
                        Operand::Func(_) => 4,
                    });
                });
                key ^= arity.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                let embedding = inst2vec_embedding(key);
                for (slot, val) in acc.iter_mut().zip(embedding.iter()) {
                    *slot += val;
                }
                count += 1;
            }
        }
    }
    if count > 0 {
        for slot in acc.iter_mut() {
            *slot /= count as f64;
        }
    }
    acc.into_iter().map(|x| x as f32).collect()
}

/// Expands one canonicalized-statement key into its 200-D embedding,
/// memoized process-wide: the statement vocabulary is small, so after warmup
/// each instruction costs one hash lookup instead of 200 mix rounds. The
/// expansion is deterministic, so caching cannot change the observation.
fn inst2vec_embedding(key: u64) -> Arc<[f64; INST2VEC_DIM]> {
    static MEMO: OnceLock<RwLock<HashMap<u64, Arc<[f64; INST2VEC_DIM]>>>> = OnceLock::new();
    let memo = MEMO.get_or_init(|| RwLock::new(HashMap::new()));
    if let Some(e) = memo.read().unwrap().get(&key) {
        return Arc::clone(e);
    }
    let mut v = [0f64; INST2VEC_DIM];
    let mut z = key;
    for slot in v.iter_mut() {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        *slot = (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    }
    let embedding = Arc::new(v);
    let mut w = memo.write().unwrap();
    // Bound the table against adversarial key floods; the real vocabulary is
    // a few thousand entries at most.
    if w.len() < 1 << 16 {
        w.insert(key, Arc::clone(&embedding));
    }
    embedding
}

/// Node kinds in a ProGraML-style program graph.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum NodeKind {
    /// An instruction node (one per instruction and terminator).
    Instruction,
    /// A variable node (one per SSA value).
    Variable,
    /// A constant node (one per distinct constant).
    Constant,
    /// A function entry node.
    Function,
}

/// Edge kinds (flows) in a ProGraML-style program graph.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum EdgeKind {
    /// Control flow between instructions.
    Control,
    /// Data flow between values and instructions.
    Data,
    /// Call edges between call sites and function entries.
    Call,
}

/// One node of a [`ProgramGraph`].
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct GraphNode {
    /// The node's kind.
    pub kind: NodeKind,
    /// A short text label (opcode mnemonic, value id, constant text).
    pub label: String,
    /// The opcode index for instruction nodes (0 otherwise); the GGNN cost
    /// model embeds nodes by this index.
    pub opcode: u32,
}

/// A typed directed multigraph over a module: the ProGraML representation
/// (instruction + variable + constant nodes; control, data and call edges).
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct ProgramGraph {
    /// Graph nodes.
    pub nodes: Vec<GraphNode>,
    /// `(source, target, kind)` edges.
    pub edges: Vec<(u32, u32, EdgeKind)>,
}

impl ProgramGraph {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }
}

/// Builds the ProGraML-style graph of a module. The most expensive
/// observation (graph construction allocates per instruction, value and
/// edge), matching its position in Table III.
pub fn programl(m: &Module) -> ProgramGraph {
    let mut g = ProgramGraph::default();
    let mut const_nodes: HashMap<String, u32> = HashMap::new();
    // function id -> entry instruction node (for call edges); filled first
    // pass with function nodes.
    let mut fn_nodes: HashMap<u32, u32> = HashMap::new();
    for &fid in m.func_ids() {
        let idx = g.nodes.len() as u32;
        g.nodes.push(GraphNode {
            kind: NodeKind::Function,
            label: m.func(fid).name.clone(),
            opcode: 0,
        });
        fn_nodes.insert(fid.0, idx);
    }
    for &fid in m.func_ids() {
        let f = m.func(fid);
        let mut value_nodes: HashMap<u32, u32> = HashMap::new();
        let mut node_of_value = |g: &mut ProgramGraph, v: cg_ir::ValueId| -> u32 {
            *value_nodes.entry(v.0).or_insert_with(|| {
                let idx = g.nodes.len() as u32;
                g.nodes.push(GraphNode {
                    kind: NodeKind::Variable,
                    label: format!("%{}", v.0),
                    opcode: 0,
                });
                idx
            })
        };
        // Block-first instruction nodes, recording per-block first/last for
        // control edges.
        let mut block_first: HashMap<BlockId, u32> = HashMap::new();
        let mut block_last: HashMap<BlockId, u32> = HashMap::new();
        for b in f.blocks() {
            let mut prev: Option<u32> = None;
            for inst in b.insts.iter() {
                let idx = g.nodes.len() as u32;
                g.nodes.push(GraphNode {
                    kind: NodeKind::Instruction,
                    label: inst.op.mnemonic().to_string(),
                    opcode: inst.op.opcode_index() as u32 + 1,
                });
                if let Some(p) = prev {
                    g.edges.push((p, idx, EdgeKind::Control));
                }
                block_first.entry(b.id).or_insert(idx);
                prev = Some(idx);
                // Data edges.
                inst.op.for_each_operand(|o| match o {
                    Operand::Value(v) => {
                        let vn = node_of_value(&mut g, *v);
                        g.edges.push((vn, idx, EdgeKind::Data));
                    }
                    Operand::Const(c) => {
                        let key = c.to_string();
                        let cn = *const_nodes.entry(key.clone()).or_insert_with(|| {
                            let ci = g.nodes.len() as u32;
                            g.nodes.push(GraphNode {
                                kind: NodeKind::Constant,
                                label: key,
                                opcode: 0,
                            });
                            ci
                        });
                        g.edges.push((cn, idx, EdgeKind::Data));
                    }
                    _ => {}
                });
                if let Some(d) = inst.dest {
                    let vn = node_of_value(&mut g, d);
                    g.edges.push((idx, vn, EdgeKind::Data));
                }
                if let Op::Call { callee, .. } = &inst.op {
                    if let Some(&fe) = fn_nodes.get(&callee.0) {
                        g.edges.push((idx, fe, EdgeKind::Call));
                    }
                }
            }
            // Terminator node.
            let tidx = g.nodes.len() as u32;
            g.nodes.push(GraphNode {
                kind: NodeKind::Instruction,
                label: match &b.term {
                    Terminator::Br { .. } => "br",
                    Terminator::CondBr { .. } => "condbr",
                    Terminator::Switch { .. } => "switch",
                    Terminator::Ret { .. } => "ret",
                    Terminator::Unreachable => "unreachable",
                }
                .to_string(),
                opcode: 44
                    + match &b.term {
                        Terminator::Br { .. } => 0,
                        Terminator::CondBr { .. } => 1,
                        Terminator::Switch { .. } => 2,
                        Terminator::Ret { .. } => 3,
                        Terminator::Unreachable => 4,
                    },
            });
            if let Some(p) = prev {
                g.edges.push((p, tidx, EdgeKind::Control));
            }
            block_first.entry(b.id).or_insert(tidx);
            block_last.insert(b.id, tidx);
            b.term.for_each_operand(|o| {
                if let Operand::Value(v) = o {
                    let vn = node_of_value(&mut g, *v);
                    g.edges.push((vn, tidx, EdgeKind::Data));
                }
            });
        }
        // Cross-block control edges.
        for b in f.blocks() {
            let from = block_last[&b.id];
            for s in b.term.successors() {
                if let Some(&to) = block_first.get(&s) {
                    g.edges.push((from, to, EdgeKind::Control));
                }
            }
        }
        // Function entry edge.
        if let Some(&fe) = fn_nodes.get(&fid.0) {
            if let Some(&first) = f.block_ids().first().and_then(|e| block_first.get(e)) {
                g.edges.push((fe, first, EdgeKind::Call));
            }
        }
    }
    g
}

/// The observation spaces of the LLVM environment, by name.
pub const SPACE_NAMES: &[&str] = &["Ir", "InstCount", "Autophase", "Inst2vec", "Programl"];

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Module {
        cg_datasets::benchmark("cbench-v1/crc32").unwrap()
    }

    #[test]
    fn dimensions_are_stable() {
        let m = sample();
        assert_eq!(inst_count(&m).len(), INST_COUNT_DIM);
        assert_eq!(autophase(&m).len(), AUTOPHASE_DIM);
        assert_eq!(inst2vec(&m).len(), INST2VEC_DIM);
    }

    #[test]
    fn inst_count_totals_match_module() {
        let m = sample();
        let v = inst_count(&m);
        assert_eq!(v[48], m.inst_count() as i64);
        assert_eq!(v[50], m.num_functions() as i64);
        assert_eq!(v[51], m.globals().len() as i64);
    }

    #[test]
    fn autophase_counts_blocks_and_insts() {
        let m = sample();
        let v = autophase(&m);
        let blocks: usize = m.func_ids().iter().map(|f| m.func(*f).num_blocks()).sum();
        assert_eq!(v[0], blocks as i64);
        assert!(v[44] > 0, "crc32 loads from its table");
        assert!(v[1] > 0);
    }

    #[test]
    fn features_distinguish_programs() {
        let a = autophase(&sample());
        let b = autophase(&cg_datasets::benchmark("cbench-v1/qsort").unwrap());
        assert_ne!(a, b);
    }

    #[test]
    fn features_change_under_optimization() {
        let mut m = sample();
        let before = autophase(&m);
        crate::pipeline::run_oz(&mut m);
        assert_ne!(before, autophase(&m));
    }

    #[test]
    fn inst2vec_is_deterministic() {
        let m = sample();
        assert_eq!(inst2vec(&m), inst2vec(&m));
    }

    #[test]
    fn programl_graph_shape() {
        let m = sample();
        let g = programl(&m);
        // At least one node per instruction plus variables and constants.
        assert!(g.node_count() > m.inst_count());
        assert!(g.edge_count() > g.node_count());
        let has_kind = |k: EdgeKind| g.edges.iter().any(|(_, _, e)| *e == k);
        assert!(has_kind(EdgeKind::Control));
        assert!(has_kind(EdgeKind::Data));
        assert!(has_kind(EdgeKind::Call));
        // Edge endpoints are valid.
        for (s, t, _) in &g.edges {
            assert!((*s as usize) < g.node_count());
            assert!((*t as usize) < g.node_count());
        }
    }
}
