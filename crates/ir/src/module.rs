//! Modules, functions, blocks and the value/block/function id spaces.
//!
//! Storage layout: blocks and functions live in **dense arenas** (`Vec<T>`
//! with no holes) indexed through a *slot map* (`id → dense index`, with
//! `u32::MAX` marking a dead id). Ids are allocated from a monotonically
//! increasing watermark and never recycled, so `BlockId`/`FuncId` stay
//! stable across deletion exactly as they did under the historical
//! `Vec<Option<T>>` representation — but iteration walks contiguous memory
//! and removal is `swap_remove` instead of leaving a hole.
//!
//! Every edit of a [`Function`] advances its [`Stamp`], a globally unique
//! modification counter, and nothing else does: a stamp moves exactly when
//! the function changes. Analyses cached by [`crate::am::AnalysisManager`]
//! record the stamp they were computed at and are discarded when it no
//! longer matches, and the pass runner derives which functions a pass
//! changed from the stamps that moved. The module has a stamp of its own,
//! which moves when the function set or the globals change.
//!
//! Ownership is **copy-on-write**: a [`Module`] holds each function behind
//! its own `Arc` and all globals behind one, so [`Module::clone`] is
//! O(functions) reference-count bumps and the clone shares every function
//! and every global with the original until one side mutates it. The only
//! ways to a `&mut Function` or `&mut Vec<Global>` ([`Module::func_mut`],
//! [`Module::take_func`], a write through a [`FuncEdit`],
//! [`Module::globals_mut`]) un-share first and move the stamp, so a clone —
//! a session snapshot, a fork, a cached benchmark — can never be changed
//! from under its holder, and no edit escapes a stamp, not even a write to
//! a public field. The rule for passes follows: read through
//! [`Module::func`] / [`Module::globals`] or a [`FuncEdit`], and write only
//! what really changes.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::inst::{Inst, Op, Terminator};
use crate::types::Type;

/// Identifies an SSA value within a function (parameter or instruction
/// result). Printed as `%n`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct ValueId(pub u32);

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Identifies a basic block within a function. Printed as `bbN`. Stable
/// across block insertion and deletion (ids are never recycled).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Identifies a function within a module. Stable across function deletion.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct FuncId(pub u32);

/// Identifies a global variable within a module.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct GlobalId(pub u32);

/// Sentinel in the slot map for a dead (removed or taken) id.
const DEAD: u32 = u32::MAX;

static STAMP_COUNTER: AtomicU64 = AtomicU64::new(1);

/// A globally unique modification stamp. Two equal stamps guarantee the
/// function (or, for [`Module::stamp`], the function set and globals) has
/// not been mutated in between; every mutation draws a fresh value from a
/// process-wide counter, so stale analysis entries can never collide with a
/// recomputed function state (no ABA).
///
/// Stamps are transient bookkeeping: cloning copies the stamp (same content
/// ⇒ same analyses apply), while deserialization draws a fresh one (nothing
/// cached can exist for it yet). Stamps never influence printed IR, hashing,
/// or equality.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Stamp(u64);

impl Stamp {
    fn next() -> Stamp {
        Stamp(STAMP_COUNTER.fetch_add(1, Ordering::Relaxed))
    }
}

impl Default for Stamp {
    fn default() -> Stamp {
        Stamp::next()
    }
}

impl Serialize for Stamp {
    fn to_value(&self) -> serde::value::Value {
        // The numeric value is meaningless outside this process; serialize a
        // placeholder so the wire format stays stable.
        serde::value::Value::UInt(0)
    }
}

impl Deserialize for Stamp {
    fn from_value(_: &serde::value::Value) -> Result<Stamp, serde::DeError> {
        // A fresh stamp is always sound: no cache can hold an entry for it.
        Ok(Stamp::next())
    }
}

/// A basic block: a straight-line sequence of instructions ended by a
/// [`Terminator`]. Instructions are stored densely (`Vec<Inst>`), which is
/// the per-block instruction arena: passes index and splice it in place.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Block {
    /// This block's id.
    pub id: BlockId,
    /// The non-terminator instructions, in order. φ-nodes must be a prefix.
    pub insts: Vec<Inst>,
    /// The terminator.
    pub term: Terminator,
}

impl Block {
    /// The number of φ-nodes at the head of the block.
    pub fn phi_count(&self) -> usize {
        self.insts
            .iter()
            .take_while(|i| matches!(i.op, Op::Phi(_)))
            .count()
    }
}

/// A global variable: `slots` 8-byte cells of module memory with an optional
/// initializer.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Global {
    /// Symbol name.
    pub name: String,
    /// Size in 8-byte cells.
    pub slots: u32,
    /// Initial cell values (zero-padded to `slots`).
    pub init: Vec<i64>,
    /// True if the program never writes this global (enables optimizations).
    pub constant: bool,
}

/// A function: parameters, return type and a CFG of basic blocks.
///
/// Blocks are stored in a dense arena (`blocks`) addressed through the
/// `slot` map, so [`BlockId`]s remain stable when passes delete blocks
/// while iteration touches only live, contiguous memory; `layout` holds
/// the current textual/emission order with the entry block first.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Function {
    /// Symbol name.
    pub name: String,
    /// Parameter values and types. Parameters occupy the first value ids.
    pub params: Vec<(ValueId, Type)>,
    /// Return type ([`Type::Void`] for procedures).
    pub ret_ty: Type,
    /// Inline-cost hint: functions marked `always_inline` are prioritized by
    /// the inliner; `no_inline` are skipped.
    pub inline_hint: InlineHint,
    blocks: Vec<Block>,
    slot: Vec<u32>,
    layout: Vec<BlockId>,
    next_value: u32,
    stamp: Stamp,
}

/// Structural equality. The dense-arena order is history-dependent
/// (removal is `swap_remove`), so equality compares layout order, per-block
/// content, signatures and the id/value watermarks — everything observable
/// through the public API — and ignores internal storage order and stamps.
impl PartialEq for Function {
    fn eq(&self, other: &Function) -> bool {
        if std::ptr::eq(self, other) {
            return true;
        }
        self.name == other.name
            && self.params == other.params
            && self.ret_ty == other.ret_ty
            && self.inline_hint == other.inline_hint
            && self.next_value == other.next_value
            && self.slot.len() == other.slot.len()
            && self.layout == other.layout
            && self.layout.iter().all(|&b| self.block(b) == other.block(b))
    }
}

/// Inlining hints attached to functions.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum InlineHint {
    /// No preference; the inliner uses its cost model.
    #[default]
    None,
    /// Always profitable to inline.
    Always,
    /// Never inline.
    Never,
}

impl Function {
    /// Creates an empty function with the given signature. Parameters are
    /// assigned value ids `0..param_tys.len()`. The function initially has no
    /// blocks; create the entry with [`Function::add_block`].
    pub fn new(name: impl Into<String>, param_tys: &[Type], ret_ty: Type) -> Function {
        let params = param_tys
            .iter()
            .enumerate()
            .map(|(i, t)| (ValueId(i as u32), *t))
            .collect::<Vec<_>>();
        Function {
            name: name.into(),
            next_value: params.len() as u32,
            params,
            ret_ty,
            inline_hint: InlineHint::None,
            blocks: Vec::new(),
            slot: Vec::new(),
            layout: Vec::new(),
            stamp: Stamp::next(),
        }
    }

    /// The current modification stamp. Advances on every structural
    /// mutation; see [`Stamp`].
    pub fn stamp(&self) -> Stamp {
        self.stamp
    }

    /// Allocates a fresh SSA value id.
    pub fn fresh_value(&mut self) -> ValueId {
        let v = ValueId(self.next_value);
        self.next_value += 1;
        self.stamp = Stamp::next();
        v
    }

    /// The upper bound on value ids (all ids are `< value_bound()`).
    pub fn value_bound(&self) -> u32 {
        self.next_value
    }

    /// Raises the value id watermark (used by the parser).
    pub fn reserve_values(&mut self, bound: u32) {
        if bound > self.next_value {
            self.next_value = bound;
            self.stamp = Stamp::next();
        }
    }

    /// Adds a new empty block (terminated by `Unreachable`) and returns its id.
    pub fn add_block(&mut self) -> BlockId {
        let id = BlockId(self.slot.len() as u32);
        self.slot.push(self.blocks.len() as u32);
        self.blocks.push(Block {
            id,
            insts: Vec::new(),
            term: Terminator::Unreachable,
        });
        self.layout.push(id);
        self.stamp = Stamp::next();
        id
    }

    /// Adds a block with a specific id, raising the id watermark as needed
    /// (used by the parser, whose block labels carry explicit ids). The
    /// block is appended to the layout order.
    ///
    /// # Panics
    /// Panics if a live block already occupies the id.
    pub fn add_block_with_id(&mut self, id: BlockId) {
        let idx = id.0 as usize;
        if idx >= self.slot.len() {
            self.slot.resize(idx + 1, DEAD);
        }
        assert!(self.slot[idx] == DEAD, "block {id} already exists");
        self.slot[idx] = self.blocks.len() as u32;
        self.blocks.push(Block {
            id,
            insts: Vec::new(),
            term: Terminator::Unreachable,
        });
        self.layout.push(id);
        self.stamp = Stamp::next();
    }

    /// Removes a block from the function. Panics if it is the entry block.
    ///
    /// The caller is responsible for first rewriting all references to the
    /// block (branches and φ incomings).
    pub fn remove_block(&mut self, id: BlockId) {
        assert_ne!(
            Some(id),
            self.layout.first().copied(),
            "cannot remove the entry block"
        );
        let dense = self.slot[id.0 as usize];
        if dense != DEAD {
            self.blocks.swap_remove(dense as usize);
            if let Some(moved) = self.blocks.get(dense as usize) {
                self.slot[moved.id.0 as usize] = dense;
            }
            self.slot[id.0 as usize] = DEAD;
        }
        self.layout.retain(|b| *b != id);
        self.stamp = Stamp::next();
    }

    /// The entry block id.
    ///
    /// # Panics
    /// Panics if the function has no blocks.
    pub fn entry(&self) -> BlockId {
        self.layout[0]
    }

    /// True if the block id refers to a live block.
    pub fn block_exists(&self, id: BlockId) -> bool {
        self.slot
            .get(id.0 as usize)
            .map(|&d| d != DEAD)
            .unwrap_or(false)
    }

    /// Borrows a block.
    ///
    /// # Panics
    /// Panics if the block has been removed.
    pub fn block(&self, id: BlockId) -> &Block {
        let dense = self.slot[id.0 as usize];
        assert!(dense != DEAD, "block was removed");
        &self.blocks[dense as usize]
    }

    /// Mutably borrows a block. Counts as a mutation: the function's
    /// [`Stamp`] advances even if the caller changes nothing, so take it
    /// only to change the block.
    ///
    /// # Panics
    /// Panics if the block has been removed.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        let dense = self.slot[id.0 as usize];
        assert!(dense != DEAD, "block was removed");
        self.stamp = Stamp::next();
        &mut self.blocks[dense as usize]
    }

    /// Block ids in layout order (entry first). Borrows the internal layout
    /// — zero allocation. Take [`Function::block_ids_vec`] when mutating
    /// blocks while iterating.
    pub fn block_ids(&self) -> &[BlockId] {
        &self.layout
    }

    /// An owned copy of [`Function::block_ids`], for loops that mutate the
    /// function while walking its blocks.
    pub fn block_ids_vec(&self) -> Vec<BlockId> {
        self.layout.clone()
    }

    /// The id watermark: all block ids are `< block_bound()`. Useful for
    /// dense side tables indexed by `BlockId.0`.
    pub fn block_bound(&self) -> u32 {
        self.slot.len() as u32
    }

    /// Number of live blocks.
    pub fn num_blocks(&self) -> usize {
        self.layout.len()
    }

    /// Iterates over live blocks in layout order.
    pub fn blocks(&self) -> impl Iterator<Item = &Block> + '_ {
        self.layout.iter().map(move |id| self.block(*id))
    }

    /// Moves `id` to immediately after `after` in layout order.
    pub fn move_block_after(&mut self, id: BlockId, after: BlockId) {
        self.layout.retain(|b| *b != id);
        let pos = self
            .layout
            .iter()
            .position(|b| *b == after)
            .expect("anchor block not in layout");
        self.layout.insert(pos + 1, id);
        self.stamp = Stamp::next();
    }

    /// Total instruction count including terminators (the `IrInstructionCount`
    /// metric of the LLVM environment).
    pub fn inst_count(&self) -> usize {
        // Dense sweep: every arena entry is live, order is irrelevant.
        self.blocks.iter().map(|b| b.insts.len() + 1).sum()
    }

    /// Rewrites every use of value `from` into the operand `to` across all
    /// instructions and terminators.
    pub fn replace_all_uses(&mut self, from: ValueId, to: crate::Operand) {
        for block in &mut self.blocks {
            for inst in &mut block.insts {
                inst.op.for_each_operand_mut(|o| {
                    if o.as_value() == Some(from) {
                        *o = to;
                    }
                });
            }
            block.term.for_each_operand_mut(|o| {
                if o.as_value() == Some(from) {
                    *o = to;
                }
            });
        }
        self.stamp = Stamp::next();
    }
}

/// A compilation unit: functions plus global variables.
///
/// Functions use the same dense-arena + slot-map scheme as blocks within a
/// function; `order` caches the live ids sorted ascending, which equals
/// definition order because ids are allocated monotonically.
///
/// Cloning is shallow (see the module docs): the clone keeps every
/// function's [`Stamp`], so analyses cached for the original stay valid for
/// the clone and for whichever side is not mutated.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Module {
    /// Module name (usually the benchmark URI path).
    pub name: String,
    functions: Vec<Arc<Function>>,
    /// Dense index → id (functions, unlike blocks, don't carry their id).
    ids: Vec<FuncId>,
    slot: Vec<u32>,
    order: Vec<FuncId>,
    globals: Arc<Vec<Global>>,
    stamp: Stamp,
}

/// Structural equality over live functions in definition order, globals and
/// the id watermark; internal dense order and stamps are ignored.
impl PartialEq for Module {
    fn eq(&self, other: &Module) -> bool {
        self.name == other.name
            && (Arc::ptr_eq(&self.globals, &other.globals) || self.globals == other.globals)
            && self.slot.len() == other.slot.len()
            && self.order == other.order
            // `Function::eq` short-circuits on identity, which is what two
            // handles to one shared function compare as.
            && self.order.iter().all(|&id| self.func(id) == other.func(id))
    }
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Module {
        Module {
            name: name.into(),
            functions: Vec::new(),
            ids: Vec::new(),
            slot: Vec::new(),
            order: Vec::new(),
            globals: Arc::default(),
            stamp: Stamp::next(),
        }
    }

    /// The module's stamp: it advances whenever the function set or the
    /// globals change, and not on an edit inside a function (each function
    /// has its own [`Function::stamp`]).
    pub fn stamp(&self) -> Stamp {
        self.stamp
    }

    /// Adds a function, returning its id. The function gets a fresh
    /// [`Stamp`], as [`Module::put_func`] gives one: it may be a detached
    /// clone whose public fields were edited, which must not share a stamp
    /// with the function it was cloned from.
    pub fn add_function(&mut self, mut f: Function) -> FuncId {
        f.stamp = Stamp::next();
        let id = FuncId(self.slot.len() as u32);
        self.slot.push(self.functions.len() as u32);
        self.functions.push(Arc::new(f));
        self.ids.push(id);
        self.order.push(id);
        self.stamp = Stamp::next();
        id
    }

    /// Unlinks `id` from the dense arena, fixing up the displaced entry's
    /// slot, and returns the function's handle. Shared by removal and take.
    fn detach_func(&mut self, id: FuncId) -> Arc<Function> {
        let dense = self.slot[id.0 as usize];
        assert!(dense != DEAD, "function was removed");
        let f = self.functions.swap_remove(dense as usize);
        self.ids.swap_remove(dense as usize);
        if let Some(&moved) = self.ids.get(dense as usize) {
            self.slot[moved.0 as usize] = dense;
        }
        self.slot[id.0 as usize] = DEAD;
        self.order.retain(|o| *o != id);
        self.stamp = Stamp::next();
        f
    }

    /// Removes a function. The caller must have rewritten all calls to it.
    pub fn remove_function(&mut self, id: FuncId) {
        let _ = self.detach_func(id);
    }

    /// True if the function id refers to a live function.
    pub fn func_exists(&self, id: FuncId) -> bool {
        self.slot
            .get(id.0 as usize)
            .map(|&d| d != DEAD)
            .unwrap_or(false)
    }

    /// Borrows a function.
    ///
    /// # Panics
    /// Panics if the function has been removed.
    pub fn func(&self, id: FuncId) -> &Function {
        let dense = self.slot[id.0 as usize];
        assert!(dense != DEAD, "function was removed");
        &self.functions[dense as usize]
    }

    /// Mutably borrows a function, first copying it if a clone of this
    /// module still shares it, and advances its [`Stamp`]: the borrow counts
    /// as an edit whether or not the caller changes anything. Take it only
    /// to change the function; to look first and write only if needed, use
    /// [`Module::edit_func`].
    ///
    /// # Panics
    /// Panics if the function has been removed.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        let dense = self.slot[id.0 as usize];
        assert!(dense != DEAD, "function was removed");
        write(&mut self.functions[dense as usize])
    }

    /// Opens function `id` for a pass that may or may not edit it; see
    /// [`FuncEdit`].
    ///
    /// # Panics
    /// Panics if the function has been removed.
    pub fn edit_func(&mut self, id: FuncId) -> FuncEdit<'_> {
        let dense = self.slot[id.0 as usize];
        assert!(dense != DEAD, "function was removed");
        FuncEdit {
            id,
            f: &mut self.functions[dense as usize],
        }
    }

    /// True if `self` and `other` hold the *same* function object under
    /// `id` — neither has written to it since one was cloned from the
    /// other.
    pub fn shares_func_with(&self, other: &Module, id: FuncId) -> bool {
        match (self.slot.get(id.0 as usize), other.slot.get(id.0 as usize)) {
            (Some(&a), Some(&b)) if a != DEAD && b != DEAD => {
                Arc::ptr_eq(&self.functions[a as usize], &other.functions[b as usize])
            }
            _ => false,
        }
    }

    /// True if `self` and `other` hold the same globals object.
    pub fn shares_globals_with(&self, other: &Module) -> bool {
        Arc::ptr_eq(&self.globals, &other.globals)
    }

    /// Live function ids in definition order. Borrows the internal order —
    /// zero allocation. Take [`Module::func_ids_vec`] when mutating the
    /// module while iterating.
    pub fn func_ids(&self) -> &[FuncId] {
        &self.order
    }

    /// An owned copy of [`Module::func_ids`], for loops that mutate the
    /// module while walking its functions.
    pub fn func_ids_vec(&self) -> Vec<FuncId> {
        self.order.clone()
    }

    /// The id watermark: all function ids are `< func_bound()`.
    pub fn func_bound(&self) -> u32 {
        self.slot.len() as u32
    }

    /// Finds a function by name.
    pub fn find_func(&self, name: &str) -> Option<FuncId> {
        self.order
            .iter()
            .copied()
            .find(|id| self.func(*id).name == name)
    }

    /// Takes a function out of the module, leaving its id dead until
    /// [`Module::put_func`] restores it (used by the inliner to mutate one
    /// function while reading another). While taken, the function is absent
    /// from [`Module::func_ids`] and iteration. A function still shared
    /// with a clone of this module is copied out; the clone keeps the
    /// original. Taking and putting back move both the function's stamp and
    /// the module's.
    pub fn take_func(&mut self, id: FuncId) -> Function {
        let mut f = Arc::unwrap_or_clone(self.detach_func(id));
        f.stamp = Stamp::next();
        f
    }

    /// Puts a function back into its arena slot.
    ///
    /// # Panics
    /// Panics if the id is live.
    pub fn put_func(&mut self, id: FuncId, mut f: Function) {
        assert!(self.slot[id.0 as usize] == DEAD);
        f.stamp = Stamp::next();
        self.slot[id.0 as usize] = self.functions.len() as u32;
        self.functions.push(Arc::new(f));
        self.ids.push(id);
        // Ids are allocated monotonically, so ascending id order *is*
        // definition order; reinsert at the sorted position.
        let pos = self.order.partition_point(|&o| o < id);
        self.order.insert(pos, id);
        self.stamp = Stamp::next();
    }

    /// Adds a global, returning its id.
    pub fn add_global(&mut self, g: Global) -> GlobalId {
        let id = GlobalId(self.globals.len() as u32);
        self.globals_mut().push(g);
        id
    }

    /// Borrows a global.
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.0 as usize]
    }

    /// All globals in definition order.
    pub fn globals(&self) -> &[Global] {
        &self.globals
    }

    /// Mutably borrows the globals, first copying them if a clone of this
    /// module still shares them, and advances the module's [`Stamp`]. Take
    /// it only to mutate (see [`Module::func_mut`]): the initialisers are
    /// often most of a module.
    pub fn globals_mut(&mut self) -> &mut Vec<Global> {
        self.stamp = Stamp::next();
        Arc::make_mut(&mut self.globals)
    }

    /// Total instruction count across all functions (the `IrInstructionCount`
    /// metric / "code size" reward of the LLVM environment).
    pub fn inst_count(&self) -> usize {
        // Dense sweep over live functions; order is irrelevant for a sum.
        self.functions.iter().map(|f| f.inst_count()).sum()
    }

    /// Number of live functions.
    pub fn num_functions(&self) -> usize {
        self.order.len()
    }
}

/// The one way to write to a module's function: un-share it, then move its
/// stamp.
fn write(f: &mut Arc<Function>) -> &mut Function {
    let f = Arc::make_mut(f);
    f.stamp = Stamp::next();
    f
}

/// One function of a module, opened by [`Module::edit_func`] for a pass
/// that may or may not change it. Reads (`Deref`) go to the module's copy,
/// which a snapshot may share; the first write (`DerefMut`: any `&mut self`
/// method, or passing it where a `&mut Function` is expected) is a
/// [`Module::func_mut`], un-sharing the function and moving its stamp. A
/// function the pass only looks at therefore keeps both — which is what
/// lets the pass runner read a pass's effect off the stamps.
pub struct FuncEdit<'m> {
    id: FuncId,
    f: &'m mut Arc<Function>,
}

impl FuncEdit<'_> {
    /// The function's id.
    pub fn id(&self) -> FuncId {
        self.id
    }
}

impl Deref for FuncEdit<'_> {
    type Target = Function;

    fn deref(&self) -> &Function {
        self.f
    }
}

impl DerefMut for FuncEdit<'_> {
    fn deref_mut(&mut self) -> &mut Function {
        write(self.f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Operand;

    fn tiny_function() -> Function {
        let mut f = Function::new("f", &[Type::I64], Type::I64);
        let entry = f.add_block();
        f.block_mut(entry).term = Terminator::Ret {
            value: Some(Operand::Value(ValueId(0))),
        };
        f
    }

    #[test]
    fn block_arena_ids_are_stable() {
        let mut f = tiny_function();
        let b1 = f.add_block();
        let b2 = f.add_block();
        f.remove_block(b1);
        assert!(!f.block_exists(b1));
        assert!(f.block_exists(b2));
        assert_eq!(f.block(b2).id, b2);
        let b3 = f.add_block();
        assert_ne!(b3, b1); // removed slots are not recycled
    }

    #[test]
    #[should_panic(expected = "cannot remove the entry block")]
    fn removing_entry_panics() {
        let mut f = tiny_function();
        let entry = f.entry();
        f.remove_block(entry);
    }

    #[test]
    fn inst_count_counts_terminators() {
        let f = tiny_function();
        assert_eq!(f.inst_count(), 1);
        let mut m = Module::new("m");
        m.add_function(f);
        assert_eq!(m.inst_count(), 1);
    }

    #[test]
    fn replace_all_uses() {
        let mut f = tiny_function();
        f.replace_all_uses(ValueId(0), Operand::const_int(42));
        let entry = f.entry();
        match &f.block(entry).term {
            Terminator::Ret { value: Some(v) } => assert_eq!(v.as_const_int(), Some(42)),
            t => panic!("unexpected terminator {t:?}"),
        }
    }

    #[test]
    fn function_arena() {
        let mut m = Module::new("m");
        let f1 = m.add_function(tiny_function());
        let f2 = m.add_function(Function::new("g", &[], Type::Void));
        m.remove_function(f1);
        assert!(!m.func_exists(f1));
        assert_eq!(m.func_ids(), &[f2]);
        assert_eq!(m.find_func("g"), Some(f2));
        assert_eq!(m.find_func("f"), None);
    }

    #[test]
    fn stamps_advance_on_mutation() {
        let mut f = tiny_function();
        let s0 = f.stamp();
        let _ = f.block_ids();
        let _ = f.block(f.entry());
        assert_eq!(f.stamp(), s0, "reads must not advance the stamp");
        let e = f.entry();
        let _ = f.block_mut(e);
        let s1 = f.stamp();
        assert_ne!(s1, s0);
        f.add_block();
        assert_ne!(f.stamp(), s1);
    }

    #[test]
    fn clone_preserves_stamp_and_equality() {
        let f = tiny_function();
        let g = f.clone();
        assert_eq!(f.stamp(), g.stamp());
        assert_eq!(f, g);
    }

    #[test]
    fn equality_ignores_dense_storage_order() {
        // Build two functions whose layouts match but whose dense arenas
        // were perturbed differently by removals.
        let build = |extra_first: bool| {
            let mut f = tiny_function();
            let a = f.add_block();
            let b = f.add_block();
            let c = f.add_block();
            if extra_first {
                f.remove_block(a); // swap_remove moves c into a's dense slot
                f.remove_block(b);
            } else {
                f.remove_block(b);
                f.remove_block(a);
            }
            assert!(f.block_exists(c));
            f
        };
        assert_eq!(build(true), build(false));
    }

    #[test]
    fn take_and_put_func_round_trips() {
        let mut m = Module::new("m");
        let f1 = m.add_function(tiny_function());
        let f2 = m.add_function(Function::new("g", &[], Type::Void));
        let taken = m.take_func(f1);
        assert_eq!(m.func_ids(), &[f2]);
        assert!(!m.func_exists(f1));
        m.put_func(f1, taken);
        assert_eq!(m.func_ids(), &[f1, f2], "definition order restored");
        assert_eq!(m.func(f1).name, "f");
    }

    /// Two functions and one global; `f` returns its parameter.
    fn two_function_module() -> (Module, FuncId, FuncId) {
        let mut m = Module::new("m");
        let f = m.add_function(tiny_function());
        let mut g = Function::new("g", &[Type::I64], Type::I64);
        let e = g.add_block();
        g.block_mut(e).term = Terminator::Ret {
            value: Some(Operand::const_int(1)),
        };
        let g = m.add_function(g);
        m.add_global(Global {
            name: "table".into(),
            slots: 2,
            init: vec![3, 4],
            constant: false,
        });
        (m, f, g)
    }

    /// A function-local "pass": rewrites one function through `func_mut`.
    fn rewrite_return(m: &mut Module, fid: FuncId, to: i64) {
        let f = m.func_mut(fid);
        let e = f.entry();
        f.block_mut(e).term = Terminator::Ret {
            value: Some(Operand::const_int(to)),
        };
    }

    #[test]
    fn clone_shares_until_written_and_writes_never_reach_the_clone() {
        let (mut m, f, g) = two_function_module();
        let snap = m.clone();
        let before = crate::printer::print_module(&snap);
        assert!(snap.shares_func_with(&m, f) && snap.shares_func_with(&m, g));
        assert!(snap.shares_globals_with(&m));
        assert_eq!(snap, m);

        // A function-local pass: only the function it writes is copied.
        rewrite_return(&mut m, f, 42);
        assert!(!snap.shares_func_with(&m, f));
        assert!(
            snap.shares_func_with(&m, g),
            "untouched function stays shared"
        );
        assert!(snap.shares_globals_with(&m), "globals stay shared");
        assert_eq!(crate::printer::print_module(&snap), before);
        assert_ne!(crate::printer::print_module(&m), before);
        assert_ne!(snap, m);

        // Globals copy on their first write, and only then.
        m.globals_mut()[0].init[0] = 9;
        assert!(!snap.shares_globals_with(&m));
        assert_eq!(snap.global(GlobalId(0)).init, vec![3, 4]);
        assert_eq!(crate::printer::print_module(&snap), before);

        // The clone can be written too, without reaching the original.
        let mut snap = snap;
        let after = crate::printer::print_module(&m);
        rewrite_return(&mut snap, g, 7);
        assert_eq!(crate::printer::print_module(&m), after);
    }

    #[test]
    fn reads_through_an_edit_keep_sharing_and_the_first_write_moves_the_stamp() {
        let (mut m, f, g) = two_function_module();
        let snap = m.clone();
        let s0 = snap.func(f).stamp();
        {
            let edit = m.edit_func(f);
            assert_eq!(edit.id(), f);
            assert_eq!(edit.num_blocks(), 1);
        }
        assert!(snap.shares_func_with(&m, f), "a read does not copy");
        assert!(!snap.shares_func_with(&m, FuncId(9)), "unknown id");
        assert_eq!(m.func(f).stamp(), s0);

        // Any write — even to a public field — un-shares and moves the
        // stamp; the clone keeps both.
        m.edit_func(f).inline_hint = InlineHint::Always;
        assert!(!snap.shares_func_with(&m, f));
        assert_ne!(m.func(f).stamp(), s0);
        assert_eq!(snap.func(f).stamp(), s0, "the clone's stamp never moves");
        let s1 = m.func(f).stamp();
        let _ = m.func_mut(g);
        assert_eq!(m.func(f).stamp(), s1, "other functions keep theirs");
        assert_ne!(m.func(g).stamp(), snap.func(g).stamp());
    }

    #[test]
    fn the_module_stamp_moves_with_the_function_set_and_the_globals() {
        let (mut m, f, _) = two_function_module();
        let s0 = m.stamp();
        rewrite_return(&mut m, f, 5);
        assert_eq!(m.stamp(), s0, "a function edit is the function's");
        let _ = m.globals_mut();
        let s1 = m.stamp();
        assert_ne!(s1, s0);
        m.remove_function(f);
        let s2 = m.stamp();
        assert_ne!(s2, s1);
        m.add_function(tiny_function());
        assert_ne!(m.stamp(), s2);
        assert_eq!(m.clone().stamp(), m.stamp());
    }

    #[test]
    fn an_added_function_gets_a_fresh_stamp() {
        let (m, f, _) = two_function_module();
        // A detached clone, renamed through a public field: no stamp moved.
        let mut copy = m.func(f).clone();
        copy.name = "renamed".into();
        assert_eq!(copy.stamp(), m.func(f).stamp());
        // Added to a module at the same id, it must not alias the original.
        let mut other = Module::new("m");
        let id = other.add_function(copy);
        assert_eq!(id, f);
        assert_ne!(other.func(id).stamp(), m.func(f).stamp());
    }

    #[test]
    fn take_and_put_on_a_shared_function_leaves_the_clone_intact() {
        let (mut m, f, g) = two_function_module();
        let snap = m.clone();
        let mut taken = m.take_func(f);
        assert_ne!(taken.stamp(), snap.func(f).stamp());
        let e = taken.entry();
        taken.block_mut(e).term = Terminator::Unreachable;
        m.put_func(f, taken);
        assert_eq!(m.func_ids(), &[f, g]);
        assert!(matches!(
            snap.func(f).block(e).term,
            Terminator::Ret { value: Some(_) }
        ));
        assert!(matches!(m.func(f).block(e).term, Terminator::Unreachable));
        assert!(snap.shares_func_with(&m, g));
    }

    #[test]
    fn serde_round_trip_preserves_structure() {
        let mut m = Module::new("m");
        m.add_function(tiny_function());
        let v = serde::Serialize::to_value(&m);
        let back: Module = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(m, back);
    }
}
