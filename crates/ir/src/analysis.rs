//! Control-flow analyses: predecessor/successor maps, reverse postorder,
//! dominator trees (Cooper–Harvey–Kennedy), dominance frontiers and natural
//! loops.
//!
//! All side tables are dense vectors indexed by `BlockId.0`, sized by
//! [`Function::block_bound`]; slots for deleted blocks are simply unused.

use std::collections::HashSet;

use crate::module::{BlockId, Function};

/// Predecessor/successor maps for a function's CFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    preds: Vec<Vec<BlockId>>,
    succs: Vec<Vec<BlockId>>,
}

impl Cfg {
    /// Computes the CFG of `f`.
    pub fn compute(f: &Function) -> Cfg {
        let n = f.block_bound() as usize;
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for &id in f.block_ids() {
            let mut seen = HashSet::new();
            for s in f.block(id).term.successors() {
                succs[id.0 as usize].push(s);
                // A block is recorded as a predecessor once per *edge kind*,
                // matching φ semantics (one incoming entry per pred block).
                if seen.insert(s) {
                    preds[s.0 as usize].push(id);
                }
            }
        }
        Cfg { preds, succs }
    }

    /// Predecessor blocks of `b` (unique).
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[b.0 as usize]
    }

    /// Successor blocks of `b` (in terminator order; may repeat for switches).
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succs[b.0 as usize]
    }
}

/// Blocks reachable from the entry, in reverse postorder (entry first).
pub fn reverse_postorder(f: &Function) -> Vec<BlockId> {
    let n = f.block_bound() as usize;
    let mut visited = vec![false; n];
    let mut post = Vec::with_capacity(f.num_blocks());
    // Iterative DFS with an explicit stack to avoid recursion depth limits on
    // pathological CFGs (e.g. generated switch ladders).
    let entry = f.entry();
    let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
    visited[entry.0 as usize] = true;
    while let Some((b, i)) = stack.pop() {
        let succs = f.block(b).term.successors();
        if i < succs.len() {
            stack.push((b, i + 1));
            let s = succs[i];
            if !visited[s.0 as usize] {
                visited[s.0 as usize] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(b);
        }
    }
    post.reverse();
    post
}

/// Blocks *not* reachable from the entry.
pub fn unreachable_blocks(f: &Function) -> Vec<BlockId> {
    let reach: HashSet<BlockId> = reverse_postorder(f).into_iter().collect();
    f.block_ids()
        .iter()
        .copied()
        .filter(|b| !reach.contains(b))
        .collect()
}

/// Dominator tree (plus dominance frontiers) of a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomTree {
    /// Immediate dominator per block; `idom[entry] == entry`. `None` for
    /// unreachable or deleted blocks.
    idom: Vec<Option<BlockId>>,
    rpo: Vec<BlockId>,
    entry: BlockId,
}

impl DomTree {
    /// Computes the dominator tree of `f` using the Cooper–Harvey–Kennedy
    /// iterative algorithm over reverse postorder.
    pub fn compute(f: &Function, cfg: &Cfg) -> DomTree {
        let n = f.block_bound() as usize;
        let rpo = reverse_postorder(f);
        let mut rpo_index = vec![usize::MAX; n];
        for (i, b) in rpo.iter().enumerate() {
            rpo_index[b.0 as usize] = i;
        }
        let entry = f.entry();
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[entry.0 as usize] = Some(entry);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in cfg.preds(b) {
                    if idom[p.0 as usize].is_none() {
                        continue; // unreachable or not yet processed
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_index, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.0 as usize] != Some(ni) {
                        idom[b.0 as usize] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        DomTree { idom, rpo, entry }
    }

    /// The immediate dominator of `b` (`None` for the entry and unreachable
    /// blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        if b == self.entry {
            return None;
        }
        self.idom[b.0 as usize]
    }

    /// True if `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom(cur) {
                Some(next) => cur = next,
                None => return false,
            }
        }
    }

    /// True if `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.idom[b.0 as usize].is_some()
    }

    /// The blocks in reverse postorder (entry first).
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Dominance frontier of every block, as a dense table indexed by
    /// `BlockId.0`.
    pub fn dominance_frontiers(&self, cfg: &Cfg) -> Vec<Vec<BlockId>> {
        let n = self.idom.len();
        let mut df: Vec<HashSet<BlockId>> = vec![HashSet::new(); n];
        for &b in &self.rpo {
            let preds = cfg.preds(b);
            if preds.len() >= 2 {
                for &p in preds {
                    if !self.is_reachable(p) {
                        continue;
                    }
                    let mut runner = p;
                    let stop = self.idom[b.0 as usize].expect("reachable");
                    while runner != stop {
                        df[runner.0 as usize].insert(b);
                        match self.idom(runner) {
                            Some(next) => runner = next,
                            None => break,
                        }
                    }
                }
            }
        }
        df.into_iter()
            .map(|s| {
                let mut v: Vec<BlockId> = s.into_iter().collect();
                v.sort();
                v
            })
            .collect()
    }
}

fn intersect(
    idom: &[Option<BlockId>],
    rpo_index: &[usize],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while rpo_index[a.0 as usize] > rpo_index[b.0 as usize] {
            a = idom[a.0 as usize].expect("processed");
        }
        while rpo_index[b.0 as usize] > rpo_index[a.0 as usize] {
            b = idom[b.0 as usize].expect("processed");
        }
    }
    a
}

/// A natural loop: a header plus the set of blocks that reach a latch without
/// leaving the header's dominance region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Loop {
    /// The loop header (dominates every block in the loop).
    pub header: BlockId,
    /// All blocks in the loop, including the header.
    pub blocks: Vec<BlockId>,
    /// Blocks with a back edge to the header.
    pub latches: Vec<BlockId>,
    /// Blocks outside the loop that are targets of edges leaving the loop.
    pub exits: Vec<BlockId>,
    /// Nesting depth (1 = outermost).
    pub depth: usize,
}

impl Loop {
    /// True if the block belongs to this loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(&b)
    }
}

/// Finds all natural loops of `f`. Loops sharing a header are merged (as in
/// LLVM's LoopInfo). Returned in order of decreasing depth, so transforming
/// inner loops first is the natural iteration order.
pub fn find_loops(f: &Function, cfg: &Cfg, dom: &DomTree) -> Vec<Loop> {
    // Collect back edges: u -> h where h dominates u.
    let mut loops: Vec<Loop> = Vec::new();
    for &u in dom.rpo() {
        for &h in cfg.succs(u) {
            if dom.is_reachable(h) && dom.dominates(h, u) {
                // Natural loop of back edge u->h.
                if let Some(l) = loops.iter_mut().find(|l| l.header == h) {
                    if !l.latches.contains(&u) {
                        l.latches.push(u);
                    }
                    grow_loop(f, cfg, h, u, &mut l.blocks);
                } else {
                    let mut blocks = vec![h];
                    grow_loop(f, cfg, h, u, &mut blocks);
                    loops.push(Loop {
                        header: h,
                        blocks,
                        latches: vec![u],
                        exits: Vec::new(),
                        depth: 0,
                    });
                }
            }
        }
    }
    // Exits and depths.
    for i in 0..loops.len() {
        let mut exits = Vec::new();
        for &b in &loops[i].blocks {
            for &s in cfg.succs(b) {
                if !loops[i].blocks.contains(&s) && !exits.contains(&s) {
                    exits.push(s);
                }
            }
        }
        loops[i].exits = exits;
        let header = loops[i].header;
        let depth = loops.iter().filter(|l| l.blocks.contains(&header)).count();
        loops[i].depth = depth;
    }
    loops.sort_by(|a, b| b.depth.cmp(&a.depth).then(a.header.cmp(&b.header)));
    loops
}

fn grow_loop(f: &Function, cfg: &Cfg, header: BlockId, latch: BlockId, blocks: &mut Vec<BlockId>) {
    let _ = f;
    let mut stack = vec![latch];
    while let Some(b) = stack.pop() {
        if blocks.contains(&b) {
            continue;
        }
        blocks.push(b);
        for &p in cfg.preds(b) {
            if p != header && !blocks.contains(&p) {
                stack.push(p);
            }
        }
        if !blocks.contains(&header) {
            blocks.push(header);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::inst::{BinOp, Pred};
    use crate::types::{Operand, Type};

    /// Builds the classic diamond: entry -> (l, r) -> join.
    fn diamond() -> (crate::Module, crate::FuncId) {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("f", &[Type::I64], Type::I64);
        let p = fb.param(0);
        let entry = fb.current_block();
        let l = fb.new_block();
        let r = fb.new_block();
        let join = fb.new_block();
        let c = fb.icmp(Pred::Lt, p, Operand::const_int(0));
        fb.cond_br(c, l, r);
        fb.switch_to(l);
        let a = fb.bin(BinOp::Add, p, Operand::const_int(1));
        fb.br(join);
        fb.switch_to(r);
        let b = fb.bin(BinOp::Sub, p, Operand::const_int(1));
        fb.br(join);
        fb.switch_to(join);
        let phi = fb.phi(Type::I64, vec![(l, a), (r, b)]);
        fb.ret(Some(phi));
        let _ = entry;
        let fid = fb.finish();
        (mb.finish(), fid)
    }

    #[test]
    fn diamond_dominators() {
        let (m, fid) = diamond();
        let f = m.func(fid);
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        let ids = f.block_ids();
        let (entry, l, r, join) = (ids[0], ids[1], ids[2], ids[3]);
        assert_eq!(dom.idom(l), Some(entry));
        assert_eq!(dom.idom(r), Some(entry));
        assert_eq!(dom.idom(join), Some(entry));
        assert!(dom.dominates(entry, join));
        assert!(!dom.dominates(l, join));
        assert!(dom.dominates(join, join));
        let df = dom.dominance_frontiers(&cfg);
        assert_eq!(df[l.0 as usize], vec![join]);
        assert_eq!(df[r.0 as usize], vec![join]);
        assert!(df[entry.0 as usize].is_empty());
    }

    fn looped() -> (crate::Module, crate::FuncId) {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.begin_function("f", &[Type::I64], Type::I64);
        let n = fb.param(0);
        let entry = fb.current_block();
        let header = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64, vec![(entry, Operand::const_int(0))]);
        let c = fb.icmp(Pred::Lt, i, n);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let i2 = fb.bin(BinOp::Add, i, Operand::const_int(1));
        fb.add_phi_incoming(i, body, i2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(i));
        let fid = fb.finish();
        (mb.finish(), fid)
    }

    #[test]
    fn natural_loop_detection() {
        let (m, fid) = looped();
        let f = m.func(fid);
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        let loops = find_loops(f, &cfg, &dom);
        assert_eq!(loops.len(), 1);
        let ids = f.block_ids();
        let (header, body, exit) = (ids[1], ids[2], ids[3]);
        assert_eq!(loops[0].header, header);
        assert!(loops[0].contains(body));
        assert!(!loops[0].contains(exit));
        assert_eq!(loops[0].latches, vec![body]);
        assert_eq!(loops[0].exits, vec![exit]);
        assert_eq!(loops[0].depth, 1);
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let (m, fid) = diamond();
        let f = m.func(fid);
        let rpo = reverse_postorder(f);
        assert_eq!(rpo[0], f.entry());
        assert_eq!(rpo.len(), 4);
        assert!(unreachable_blocks(f).is_empty());
    }
}
