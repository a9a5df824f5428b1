//! The five observation spaces of the LLVM environment (Table III):
//! LLVM-IR text, InstCount (70-D), Autophase (56-D), inst2vec (200-D
//! embeddings) and ProGraML (typed program graphs).
//!
//! Every space is assembled from per-function parts: a function's printed
//! text, its InstCount and Autophase vectors, its exact inst2vec sum and
//! its ProGraML fragment. The free functions ([`ir_text`], [`inst_count`],
//! …) compute every part afresh and are the reference; a session serves
//! the same assembly from [`IncrementalFeatures`], which keeps each
//! function's parts for as long as the function does not change.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

use cg_ir::printer::{print_function, print_header, print_module};
use cg_ir::{
    BinOp, BlockId, Constant, FuncId, Function, Inst, Module, Op, Operand, Stamp, Terminator, Type,
    ValueId,
};

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

/// The InstCount observation: 70 integer counters — one per opcode, plus
/// terminator kinds and module-level totals.
pub fn inst_count(m: &Module) -> Vec<i64> {
    let mut v = [0i64; INST_COUNT_DIM];
    for &fid in m.func_ids() {
        add_inst_count(&mut v, m.func(fid));
    }
    set_global_counts(&mut v, m);
    v.to_vec()
}

/// One function's contribution to [`inst_count`]. Additive indices hold the
/// function's own counts; index 62 holds the function's largest block, 67 its
/// instruction count (both MAX-combined across functions); the module-global
/// indices 51/65/66 are left zero and filled in by [`combine_inst_count`].
fn inst_count_func(m: &Module, fid: FuncId) -> Vec<i64> {
    let mut v = [0i64; INST_COUNT_DIM];
    add_inst_count(&mut v, m.func(fid));
    v.to_vec()
}

/// Adds one function's counts into `v`: indices 62 and 67 take the max,
/// the others sum.
fn add_inst_count(v: &mut [i64; INST_COUNT_DIM], f: &Function) {
    v[67] = v[67].max(f.inst_count() as i64);
    v[61] += f.params.len() as i64;
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
        v[63] += b.term.successors().len() as i64;
        if b.insts.len() <= 1 {
            v[69] += 1;
        }
    }
    v[68] += pred_counts(f).iter().filter(|&&c| c > 1).count() as i64;
    v[50] += 1; // functions
}

/// Combines per-function [`inst_count_func`] vectors into the module vector:
/// indices 62 and 67 take the max across functions, 51/65/66 are recomputed
/// from the module's globals, everything else sums.
fn combine_inst_count<'a>(funcs: impl Iterator<Item = &'a Vec<i64>>, m: &Module) -> Vec<i64> {
    let mut v = vec![0i64; INST_COUNT_DIM];
    for fv in funcs {
        for (i, (slot, x)) in v.iter_mut().zip(fv.iter()).enumerate() {
            match i {
                62 | 67 => *slot = (*slot).max(*x),
                _ => *slot += x,
            }
        }
    }
    set_global_counts(&mut v, m);
    v
}

fn set_global_counts(v: &mut [i64], m: &Module) {
    v[51] = m.globals().len() as i64;
    v[65] = m.globals().iter().map(|g| g.slots as i64).sum();
    v[66] = m.globals().iter().filter(|g| g.constant).count() as i64;
}

/// The Autophase observation: 56 structural program features in the style of
/// Haj-Ali et al. — block-shape histograms, opcode groups, φ statistics, and
/// constant occurrences. Every feature is per-function additive, so this is
/// the element-wise sum of the live functions' vectors.
pub fn autophase(m: &Module) -> Vec<i64> {
    let mut v = [0i64; AUTOPHASE_DIM];
    for &fid in m.func_ids() {
        add_autophase(&mut v, m.func(fid));
    }
    v.to_vec()
}

/// One function's contribution to [`autophase`].
fn autophase_func(m: &Module, fid: FuncId) -> Vec<i64> {
    let mut v = [0i64; AUTOPHASE_DIM];
    add_autophase(&mut v, m.func(fid));
    v.to_vec()
}

/// Adds one function's features into `v`.
fn add_autophase(v: &mut [i64; AUTOPHASE_DIM], f: &Function) {
    v[2] += 1; // functions
    let preds = pred_counts(f);
    let np_of = |b: BlockId| preds.get(b.0 as usize).copied().unwrap_or(0);
    for b in f.blocks() {
        v[0] += 1; // basic blocks
        let succs = b.term.successors();
        let np = np_of(b.id);
        let ns = succs.len() as i64;
        v[3] += ns; // edges
                    // Critical edges: multi-succ source to multi-pred target.
        if ns > 1 {
            for &s in succs.iter() {
                if np_of(s) > 1 {
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

/// The number of CFG edges into each block of `f`, indexed by `BlockId.0`.
fn pred_counts(f: &Function) -> Vec<i64> {
    let mut preds = vec![0i64; f.block_bound() as usize];
    for b in f.blocks() {
        for s in b.term.successors() {
            let i = s.0 as usize;
            if i >= preds.len() {
                preds.resize(i + 1, 0);
            }
            preds[i] += 1;
        }
    }
    preds
}

/// The inst2vec observation: a 200-D float embedding per module, the mean of
/// deterministic pseudo-embeddings looked up per instruction. Every
/// embedding value is `j·2⁻⁵³` for an integer `j`, so the module's sum is
/// the exact integer sum of per-function partial sums — the same whatever
/// the order — divided once by the instruction count. Built from scratch on
/// every call, this reference is deliberately expensive (each distinct
/// statement of each function expands to a full 200-D vector, as in the
/// real embedding lookup), matching its cost position in Table III;
/// [`IncrementalFeatures::inst2vec`] keeps the partial sums.
pub fn inst2vec(m: &Module) -> Vec<f32> {
    let parts: Vec<Inst2vecPartial> = m.func_ids().iter().map(|&f| inst2vec_func(m, f)).collect();
    combine_inst2vec(parts.iter())
}

/// One function's contribution to [`inst2vec`]: per dimension, the sum of
/// its instructions' embedding values in units of 2⁻⁵³, and how many
/// instructions it has.
#[derive(Debug, Clone, PartialEq)]
struct Inst2vecPartial {
    sum: Box<[i128; INST2VEC_DIM]>,
    count: u64,
}

fn inst2vec_func(m: &Module, fid: FuncId) -> Inst2vecPartial {
    // Each distinct statement is expanded once, times how often it occurs.
    let mut keys: Vec<u64> = m
        .func(fid)
        .blocks()
        .flat_map(|b| b.insts.iter().map(inst2vec_key))
        .collect();
    keys.sort_unstable();
    let mut sum = Box::new([0i128; INST2VEC_DIM]);
    for run in keys.chunk_by(|a, b| a == b) {
        let n = run.len() as i128;
        for (slot, &j) in sum.iter_mut().zip(inst2vec_embedding(run[0]).iter()) {
            *slot += n * j as i128;
        }
    }
    Inst2vecPartial {
        sum,
        count: keys.len() as u64,
    }
}

fn combine_inst2vec<'a>(parts: impl Iterator<Item = &'a Inst2vecPartial>) -> Vec<f32> {
    let mut sum = [0i128; INST2VEC_DIM];
    let mut count = 0u64;
    for p in parts {
        for (slot, x) in sum.iter_mut().zip(p.sum.iter()) {
            *slot += x;
        }
        count += p.count;
    }
    let scale = (1u64 << 53) as f64 * count.max(1) as f64;
    sum.iter().map(|&s| (s as f64 / scale) as f32).collect()
}

/// The embedding key of one instruction. It mirrors inst2vec's statement
/// canonicalization: opcode, result type, operand kinds.
fn inst2vec_key(inst: &Inst) -> u64 {
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
    key ^ arity.wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// Expands one canonicalized-statement key into its 200-D embedding, as the
/// integers `j` of the values `j·2⁻⁵³` (in `[-2⁵², 2⁵²)`), memoized
/// process-wide: the statement vocabulary is small, so after warmup a
/// statement costs one hash lookup instead of 200 mix rounds. The expansion
/// is deterministic, so caching cannot change the observation.
fn inst2vec_embedding(key: u64) -> Arc<[i64; INST2VEC_DIM]> {
    static MEMO: OnceLock<RwLock<HashMap<u64, Arc<[i64; INST2VEC_DIM]>>>> = OnceLock::new();
    let memo = MEMO.get_or_init(|| RwLock::new(HashMap::new()));
    if let Some(e) = memo.read().unwrap().get(&key) {
        return Arc::clone(e);
    }
    let mut v = [0i64; INST2VEC_DIM];
    let mut z = key;
    for slot in v.iter_mut() {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        *slot = (x >> 11) as i64 - (1 << 52);
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

/// Everything computed from one function, valid while the function's stamp
/// is `stamp`: one column per observation space, each filled on first use.
#[derive(Debug, Default)]
struct FuncEntry {
    stamp: Stamp,
    text: OnceLock<String>,
    inst_count: OnceLock<Vec<i64>>,
    autophase: OnceLock<Vec<i64>>,
    inst2vec: OnceLock<Inst2vecPartial>,
    programl: OnceLock<ProgramlFragment>,
}

/// The per-function table behind a session's observations: for each
/// function, its printed text, InstCount and Autophase vectors, exact
/// inst2vec sum and ProGraML fragment, keyed by `(FuncId, Stamp)`. A stamp
/// moves exactly when its function changes, so an entry is served while
/// its stamp matches and replaced when it does not: an observation after a
/// step re-derives only the functions the step changed, and nothing needs
/// to tell the table what changed — not a pass, a reset or a restore.
///
/// Columns are filled only by the observation methods, which also drop the
/// entries of functions no longer in the module. Cloning shares every entry
/// (they are `Arc`s, and an entry describes one immutable function state),
/// so a forked session starts warm. The one input outside a function is the
/// names its text prints for callees and globals: the table records them,
/// and a change drops every entry. Each observation equals the reference
/// function of its space ([`ir_text`], [`inst_count`], …), which debug
/// builds of the session cross-check and the `incremental_features` tests
/// check after every pass.
#[derive(Debug, Default, Clone)]
pub struct IncrementalFeatures {
    /// Indexed by `FuncId`; `None` for dead ids.
    entries: Vec<Option<Arc<FuncEntry>>>,
    /// The module, function and global names the cached texts were printed
    /// under (see [`for_each_name`]).
    names: Vec<u8>,
    /// [`print_header`]'s output, at the module stamp it was printed at.
    header: Option<(Stamp, Arc<str>)>,
}

impl IncrementalFeatures {
    /// An empty table: the first observation computes every function.
    pub fn new() -> IncrementalFeatures {
        IncrementalFeatures::default()
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        *self = IncrementalFeatures::default();
    }

    #[doc(hidden)]
    pub fn invalidate(&mut self, _: &Touched) {
        // pinned by benchmark/src/layers/ladder.rs; item 1a deletes
    }

    /// How many functions have each column filled, in [`SPACE_NAMES`] order
    /// (for tests and stats).
    pub fn cached_functions(&self) -> [usize; 5] {
        let mut n = [0; 5];
        for e in self.entries.iter().flatten() {
            let filled = [
                e.text.get().is_some(),
                e.inst_count.get().is_some(),
                e.autophase.get().is_some(),
                e.inst2vec.get().is_some(),
                e.programl.get().is_some(),
            ];
            for (n, filled) in n.iter_mut().zip(filled) {
                *n += usize::from(filled);
            }
        }
        n
    }

    /// Makes the entry of every live function current — replacing those
    /// whose stamp moved — and drops the entries of dead ids.
    fn refresh(&mut self, m: &Module) {
        self.entries.resize(m.func_bound() as usize, None);
        for (i, slot) in self.entries.iter_mut().enumerate() {
            let fid = FuncId(i as u32);
            if !m.func_exists(fid) {
                *slot = None;
                continue;
            }
            let stamp = m.func(fid).stamp();
            if slot.as_ref().map(|e| e.stamp) != Some(stamp) {
                *slot = Some(Arc::new(FuncEntry {
                    stamp,
                    ..FuncEntry::default()
                }));
            }
        }
    }

    /// The entry of a live function; [`IncrementalFeatures::refresh`] first.
    fn entry(&self, fid: FuncId) -> &FuncEntry {
        self.entries[fid.0 as usize]
            .as_deref()
            .expect("refreshed for this module")
    }

    /// The `Ir` observation: the header, then each function's text, each
    /// printed only if not cached.
    pub fn ir_text(&mut self, m: &Module) -> String {
        let mut rest = &self.names[..];
        let mut same = true;
        for_each_name(m, |b| match rest.strip_prefix(b) {
            Some(r) if same => rest = r,
            _ => same = false,
        });
        if !same || !rest.is_empty() {
            self.clear();
            for_each_name(m, |b| self.names.extend_from_slice(b));
        }
        self.refresh(m);
        let header = self.header.take().filter(|h| h.0 == m.stamp());
        // Exact when everything is cached; what is not is printed in place.
        let cached = header.as_ref().map_or(0, |h| h.1.len())
            + (m.func_ids().iter())
                .filter_map(|&f| self.entry(f).text.get().map(String::len))
                .sum::<usize>();
        let mut out = String::with_capacity(cached);
        self.header = Some(match header {
            Some(h) => {
                out.push_str(&h.1);
                h
            }
            None => {
                print_header(&mut out, m);
                (m.stamp(), out.as_str().into())
            }
        });
        for &fid in m.func_ids() {
            let text = &self.entry(fid).text;
            match text.get() {
                Some(t) => out.push_str(t),
                None => {
                    let start = out.len();
                    print_function(&mut out, m, m.func(fid));
                    let _ = text.set(out[start..].to_owned());
                }
            }
        }
        out
    }

    /// The InstCount observation.
    pub fn inst_count(&mut self, m: &Module) -> Vec<i64> {
        self.refresh(m);
        let parts = m.func_ids().iter().map(|&fid| {
            self.entry(fid)
                .inst_count
                .get_or_init(|| inst_count_func(m, fid))
        });
        combine_inst_count(parts, m)
    }

    /// The Autophase observation.
    pub fn autophase(&mut self, m: &Module) -> Vec<i64> {
        self.refresh(m);
        let mut v = vec![0i64; AUTOPHASE_DIM];
        for &fid in m.func_ids() {
            let fv = self
                .entry(fid)
                .autophase
                .get_or_init(|| autophase_func(m, fid));
            for (slot, x) in v.iter_mut().zip(fv) {
                *slot += x;
            }
        }
        v
    }

    /// The Inst2vec observation.
    pub fn inst2vec(&mut self, m: &Module) -> Vec<f32> {
        self.refresh(m);
        combine_inst2vec(m.func_ids().iter().map(|&fid| {
            self.entry(fid)
                .inst2vec
                .get_or_init(|| inst2vec_func(m, fid))
        }))
    }

    /// The Programl observation.
    pub fn programl(&mut self, m: &Module) -> ProgramGraph {
        self.refresh(m);
        let frags: Vec<&ProgramlFragment> = m
            .func_ids()
            .iter()
            .map(|&fid| {
                self.entry(fid)
                    .programl
                    .get_or_init(|| programl_fragment(m, fid))
            })
            .collect();
        stitch(m.func_ids(), &frags)
    }
}

/// Calls `f` with each name a function's printed text may depend on besides
/// its own — every function's id and name (callees) and every global's name
/// — plus the module's (with the function count), each length-prefixed.
fn for_each_name(m: &Module, mut f: impl FnMut(&[u8])) {
    let mut put = |id: u32, s: &str| {
        f(&id.to_le_bytes());
        f(&(s.len() as u32).to_le_bytes());
        f(s.as_bytes());
    };
    put(m.func_ids().len() as u32, &m.name);
    for &fid in m.func_ids() {
        put(fid.0, &m.func(fid).name);
    }
    for g in m.globals() {
        put(0, &g.name);
    }
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
    /// A short text label (opcode mnemonic, value id, constant text,
    /// function name). Labels are shared, not owned: nodes of one mnemonic,
    /// or of one value id, point at one allocation, and cloning a node
    /// never allocates.
    pub label: Arc<str>,
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

/// Builds the ProGraML-style graph of a module: the function nodes, then
/// each function's fragment (its own finished nodes and edges, with
/// constants and callees left to the stitch) in turn, stitched. The most
/// expensive observation (graph construction visits every instruction,
/// operand and CFG edge), matching its position in Table III;
/// [`IncrementalFeatures::programl`] keeps the fragments and only
/// stitches, which copies nodes without allocating: node labels are
/// shared `Arc<str>`s.
pub fn programl(m: &Module) -> ProgramGraph {
    let frags: Vec<ProgramlFragment> = m
        .func_ids()
        .iter()
        .map(|&f| programl_fragment(m, f))
        .collect();
    stitch(m.func_ids(), &frags.iter().collect::<Vec<_>>())
}

/// How many `%N` labels [`value_label`] keeps process-wide. Like the
/// inst2vec memo's bound, it caps what a flood of value ids can pin; real
/// functions stay far below it.
const VALUE_LABELS: usize = 1 << 16;

/// The shared label of an instruction or terminator node, by its graph
/// opcode, filled from `mnemonic` the first time the process sees the
/// opcode. A graph opcode names exactly one mnemonic, and opcodes of one
/// mnemonic (`icmp`'s predicates, say) share its label.
fn mnemonic_label(opcode: u32, mnemonic: &'static str) -> Arc<str> {
    static TABLE: [OnceLock<Arc<str>>; 49] = [const { OnceLock::new() }; 49];
    let label = TABLE[opcode as usize].get_or_init(|| {
        (TABLE.iter().filter_map(OnceLock::get))
            .find(|l| ***l == *mnemonic)
            .map_or_else(|| mnemonic.into(), Arc::clone)
    });
    debug_assert_eq!(&**label, mnemonic, "graph opcode {opcode}");
    Arc::clone(label)
}

/// The label `%v` of a variable node: shared process-wide for the first
/// [`VALUE_LABELS`] ids, made for the caller past them. The table is
/// allocated 256 slots at a time, as ids are first seen.
fn value_label(v: u32) -> Arc<str> {
    type Chunk = [OnceLock<Arc<str>>; 256];
    static TABLE: [OnceLock<Box<Chunk>>; VALUE_LABELS / 256] =
        [const { OnceLock::new() }; VALUE_LABELS / 256];
    let fresh = || format!("%{v}").into();
    let (chunk, slot) = (v as usize / 256, v as usize % 256);
    match TABLE.get(chunk) {
        Some(chunk) => {
            let chunk = chunk.get_or_init(|| Box::new([const { OnceLock::new() }; 256]));
            Arc::clone(chunk[slot].get_or_init(fresh))
        }
        None => fresh(),
    }
}

/// An edge endpoint in a [`ProgramlFragment`].
#[derive(Clone, Copy, Debug)]
enum End {
    /// One of the fragment's own nodes, by index.
    Node(u32),
    /// A function's node; the stitch drops the edge if it is not live.
    Func(FuncId),
}

/// One function's part of [`programl`]: its function node, its finished
/// instruction, variable and constant nodes in the order the graph numbers
/// them, and its edges in graph order, with no reference to anything
/// outside the function but by [`End::Func`] and the constants listed in
/// `consts`.
#[derive(Clone, Debug)]
struct ProgramlFragment {
    func: GraphNode,
    nodes: Vec<GraphNode>,
    /// Each constant node's index in `nodes` (ascending) and its constant:
    /// the function's first use of it. The stitch keeps only the module's
    /// first node per constant and points later uses at it.
    consts: Vec<(u32, Constant)>,
    edges: Vec<(End, End, EdgeKind)>,
}

/// Marks a value or block with no node yet.
const NO_NODE: u32 = u32::MAX;

impl ProgramlFragment {
    fn push(&mut self, kind: NodeKind, label: Arc<str>, opcode: u32) -> u32 {
        self.nodes.push(GraphNode {
            kind,
            label,
            opcode,
        });
        self.nodes.len() as u32 - 1
    }

    fn edge(&mut self, from: u32, to: u32, kind: EdgeKind) {
        self.edges.push((End::Node(from), End::Node(to), kind));
    }

    /// The node of value `v`, made at its first occurrence.
    fn value(&mut self, nodes: &mut Vec<u32>, v: ValueId) -> u32 {
        let i = v.0 as usize;
        if i >= nodes.len() {
            nodes.resize(i + 1, NO_NODE);
        }
        if nodes[i] == NO_NODE {
            nodes[i] = self.push(NodeKind::Variable, value_label(v.0), 0);
        }
        nodes[i]
    }

    /// The node of constant `c`, made at its first use.
    fn constant(&mut self, consts: &mut HashMap<Constant, u32>, c: Constant) -> u32 {
        *consts.entry(c).or_insert_with(|| {
            let i = self.push(NodeKind::Constant, c.to_string().into(), 0);
            self.consts.push((i, c));
            i
        })
    }
}

fn programl_fragment(m: &Module, fid: FuncId) -> ProgramlFragment {
    let f = m.func(fid);
    let mut fr = ProgramlFragment {
        func: GraphNode {
            kind: NodeKind::Function,
            label: f.name.as_str().into(),
            opcode: 0,
        },
        nodes: Vec::new(),
        consts: Vec::new(),
        edges: Vec::new(),
    };
    let mut values = vec![NO_NODE; f.value_bound() as usize];
    let mut consts: HashMap<Constant, u32> = HashMap::new();
    // Each block's first and last node, for control edges.
    let mut first = vec![NO_NODE; f.block_bound() as usize];
    let mut last = vec![NO_NODE; f.block_bound() as usize];
    for b in f.blocks() {
        let mut prev: Option<u32> = None;
        for inst in &b.insts {
            let opcode = inst.op.opcode_index() as u32 + 1;
            let label = mnemonic_label(opcode, inst.op.mnemonic());
            let idx = fr.push(NodeKind::Instruction, label, opcode);
            if let Some(p) = prev {
                fr.edge(p, idx, EdgeKind::Control);
            }
            if first[b.id.0 as usize] == NO_NODE {
                first[b.id.0 as usize] = idx;
            }
            prev = Some(idx);
            // Data edges.
            inst.op.for_each_operand(|o| match o {
                Operand::Value(v) => {
                    let vn = fr.value(&mut values, *v);
                    fr.edge(vn, idx, EdgeKind::Data);
                }
                Operand::Const(c) => {
                    let cn = fr.constant(&mut consts, *c);
                    fr.edge(cn, idx, EdgeKind::Data);
                }
                _ => {}
            });
            if let Some(d) = inst.dest {
                let vn = fr.value(&mut values, d);
                fr.edge(idx, vn, EdgeKind::Data);
            }
            if let Op::Call { callee, .. } = &inst.op {
                fr.edges
                    .push((End::Node(idx), End::Func(*callee), EdgeKind::Call));
            }
        }
        // Terminator node.
        let (label, k) = match &b.term {
            Terminator::Br { .. } => ("br", 0),
            Terminator::CondBr { .. } => ("condbr", 1),
            Terminator::Switch { .. } => ("switch", 2),
            Terminator::Ret { .. } => ("ret", 3),
            Terminator::Unreachable => ("unreachable", 4),
        };
        let tidx = fr.push(NodeKind::Instruction, mnemonic_label(44 + k, label), 44 + k);
        if let Some(p) = prev {
            fr.edge(p, tidx, EdgeKind::Control);
        }
        if first[b.id.0 as usize] == NO_NODE {
            first[b.id.0 as usize] = tidx;
        }
        last[b.id.0 as usize] = tidx;
        b.term.for_each_operand(|o| {
            if let Operand::Value(v) = o {
                let vn = fr.value(&mut values, *v);
                fr.edge(vn, tidx, EdgeKind::Data);
            }
        });
    }
    // Cross-block control edges.
    let node_of =
        |blocks: &[u32], b: BlockId| blocks.get(b.0 as usize).copied().filter(|&n| n != NO_NODE);
    for b in f.blocks() {
        let from = last[b.id.0 as usize];
        for s in b.term.successors() {
            if let Some(to) = node_of(&first, s) {
                fr.edge(from, to, EdgeKind::Control);
            }
        }
    }
    // Function entry edge.
    if let Some(to) = f.block_ids().first().and_then(|&e| node_of(&first, e)) {
        fr.edges
            .push((End::Func(fid), End::Node(to), EdgeKind::Call));
    }
    fr
}

/// Lays out the function nodes of `live` (one fragment each, in order),
/// then each fragment's nodes: constants shared module-wide at their first
/// use, function endpoints resolved to the function's node, and edges to
/// functions no longer in the module dropped. Every node is a clone of a
/// fragment's, so the stitch allocates only the graph's buffers and its
/// own bookkeeping.
fn stitch(live: &[FuncId], frags: &[&ProgramlFragment]) -> ProgramGraph {
    debug_assert_eq!(live.len(), frags.len());
    let nodes = frags.iter().map(|f| 1 + f.nodes.len()).sum();
    let edges = frags.iter().map(|f| f.edges.len()).sum();
    let mut g = ProgramGraph {
        nodes: Vec::with_capacity(nodes),
        edges: Vec::with_capacity(edges),
    };
    g.nodes.extend(frags.iter().map(|fr| fr.func.clone()));
    let mut consts: HashMap<Constant, u32> =
        HashMap::with_capacity(frags.iter().map(|f| f.consts.len()).sum());
    // Graph index of each fragment node.
    let mut at: Vec<u32> =
        Vec::with_capacity(frags.iter().map(|f| f.nodes.len()).max().unwrap_or(0));
    // Appends a run of fragment nodes as they are.
    let copy = |g: &mut ProgramGraph, at: &mut Vec<u32>, run: &[GraphNode]| {
        let base = g.nodes.len() as u32;
        at.extend(base..base + run.len() as u32);
        g.nodes.extend_from_slice(run);
    };
    for fr in frags {
        at.clear();
        let mut from = 0;
        for &(i, c) in &fr.consts {
            let i = i as usize;
            copy(&mut g, &mut at, &fr.nodes[from..i]);
            let idx = g.nodes.len() as u32;
            let shared = *consts.entry(c).or_insert(idx);
            if shared == idx {
                g.nodes.push(fr.nodes[i].clone());
            }
            at.push(shared);
            from = i + 1;
        }
        copy(&mut g, &mut at, &fr.nodes[from..]);
        let resolve = |end: End| match end {
            End::Node(i) => Some(at[i as usize]),
            End::Func(f) => live.binary_search(&f).ok().map(|p| p as u32),
        };
        g.edges.extend(
            fr.edges
                .iter()
                .filter_map(|&(a, b, kind)| Some((resolve(a)?, resolve(b)?, kind))),
        );
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
