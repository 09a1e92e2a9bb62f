//! Dominator and post-dominator trees from one Cooper–Harvey–Kennedy
//! solve.
//!
//! "A Simple, Fast Dominance Algorithm" (SPE 2001): iterate `idom` over
//! the reverse post-order until fixpoint, intersecting paths in the tree
//! built so far. The private `cooper_harvey_kennedy` runs that loop on
//! any graph given as a reverse post-order and a predecessor accessor:
//! [`DomTree`] runs it on the CFG from the entry, [`PostDomTree`] on the
//! reversed CFG from a virtual exit that every `ret` block flows into. On
//! top of the dominator tree we answer `dominates` queries in O(1) with
//! an Euler interval numbering and provide dominator-tree children (used
//! by the e-SSA renaming walk of the paper's live-range splitting); the
//! post-dominator tree gives control dependence.

use crate::cfg::Cfg;
use crate::function::Function;
use crate::ids::{BlockId, Value};
use crate::inst::InstKind;

/// A node the root does not reach: it has no immediate dominator and no
/// reverse post-order index.
const UNREACHED: u32 = u32::MAX;

/// Cooper–Harvey–Kennedy over a graph of `n` nodes: `rpo` lists the
/// nodes the root reaches in reverse post-order, root first, and
/// `preds(b)` the predecessors of node `b`. Returns, per node, its
/// immediate dominator (the root's is itself) and its index in `rpo`,
/// both [`UNREACHED`] for the nodes the root does not reach.
fn cooper_harvey_kennedy<I>(n: usize, rpo: &[u32], preds: impl Fn(u32) -> I) -> (Vec<u32>, Vec<u32>)
where
    I: Iterator<Item = u32>,
{
    let mut rpo_index = vec![UNREACHED; n];
    for (i, &b) in rpo.iter().enumerate() {
        rpo_index[b as usize] = i as u32;
    }
    let mut idom = vec![UNREACHED; n];
    idom[rpo[0] as usize] = rpo[0];

    let intersect = |idom: &[u32], mut a: u32, mut b: u32| -> u32 {
        while a != b {
            while rpo_index[a as usize] > rpo_index[b as usize] {
                a = idom[a as usize];
            }
            while rpo_index[b as usize] > rpo_index[a as usize] {
                b = idom[b as usize];
            }
        }
        a
    };

    let mut changed = true;
    while changed {
        changed = false;
        for &b in &rpo[1..] {
            let mut new_idom = UNREACHED;
            // Predecessors not yet processed (or not reached) are skipped.
            for p in preds(b).filter(|&p| idom[p as usize] != UNREACHED) {
                new_idom = match new_idom {
                    UNREACHED => p,
                    cur => intersect(&idom, cur, p),
                };
            }
            if new_idom != UNREACHED && idom[b as usize] != new_idom {
                idom[b as usize] = new_idom;
                changed = true;
            }
        }
    }
    (idom, rpo_index)
}

/// Dominator tree of a function.
#[derive(Clone, Debug)]
pub struct DomTree {
    /// Immediate dominator per block; `idom[entry] == entry`; unreachable
    /// blocks map to [`UNREACHED`].
    idom: Vec<u32>,
    /// Dominator-tree children per block.
    children: Vec<Vec<BlockId>>,
    /// Euler interval per block: `in_num[b] ..= out_num[b]`.
    in_num: Vec<u32>,
    out_num: Vec<u32>,
    /// Reverse post-order index per block (entry = 0), [`UNREACHED`] for
    /// unreachable blocks.
    rpo_index: Vec<u32>,
}

impl DomTree {
    /// Computes the dominator tree of `func` given its `cfg`.
    pub fn compute(func: &Function, cfg: &Cfg) -> Self {
        let n = func.num_blocks();
        let rpo: Vec<u32> = cfg.postorder().iter().rev().map(|b| b.index() as u32).collect();
        let preds =
            |b: u32| cfg.preds(BlockId::from_index(b as usize)).iter().map(|p| p.index() as u32);
        let (idom, rpo_index) = cooper_harvey_kennedy(n, &rpo, preds);

        // Children lists.
        let entry = func.entry();
        let mut children = vec![Vec::new(); n];
        for b in func.block_ids() {
            let d = idom[b.index()];
            if b != entry && d != UNREACHED {
                children[d as usize].push(b);
            }
        }

        // Euler numbering (iterative DFS over the dominator tree).
        let mut in_num = vec![0u32; n];
        let mut out_num = vec![0u32; n];
        let mut counter = 0u32;
        let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
        in_num[entry.index()] = counter;
        counter += 1;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            if *next < children[b.index()].len() {
                let c = children[b.index()][*next];
                *next += 1;
                in_num[c.index()] = counter;
                counter += 1;
                stack.push((c, 0));
            } else {
                out_num[b.index()] = counter;
                counter += 1;
                stack.pop();
            }
        }

        Self { idom, children, in_num, out_num, rpo_index }
    }

    /// Immediate dominator of `b` (`None` for the entry and unreachable
    /// blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        let d = self.idom[b.index()];
        (d != UNREACHED && d as usize != b.index()).then(|| BlockId::from_index(d as usize))
    }

    /// Whether `a` dominates `b` (reflexive).
    ///
    /// Unreachable blocks dominate nothing and are dominated by nothing.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.idom[a.index()] == UNREACHED || self.idom[b.index()] == UNREACHED {
            return false;
        }
        self.in_num[a.index()] <= self.in_num[b.index()]
            && self.out_num[b.index()] <= self.out_num[a.index()]
    }

    /// Whether `a` strictly dominates `b`.
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// Dominator-tree children of `b`.
    pub fn children(&self, b: BlockId) -> &[BlockId] {
        &self.children[b.index()]
    }

    /// Reverse post-order index of `b` (entry = 0), `None` if unreachable.
    pub fn rpo_index(&self, b: BlockId) -> Option<u32> {
        let i = self.rpo_index[b.index()];
        (i != UNREACHED).then_some(i)
    }

    /// Whether the definition of value `def` dominates the program point
    /// just *before* instruction `user` in block `user_block`.
    ///
    /// `positions` must come from [`Function::positions`]. φ uses must be
    /// checked at the incoming edge by the caller (pass the predecessor's
    /// terminator as `user`).
    pub fn def_dominates_use(
        &self,
        func: &Function,
        positions: &[u32],
        def: Value,
        user: Value,
    ) -> bool {
        let db = match func.inst(def).block {
            Some(b) => b,
            None => return false,
        };
        let ub = match func.inst(user).block {
            Some(b) => b,
            None => return false,
        };
        if db != ub {
            return self.dominates(db, ub);
        }
        positions[def.index()] < positions[user.index()]
    }
}

/// Post-dominator tree, computed on the reversed CFG with a virtual exit
/// node joining every `ret` block.
///
/// Used for control dependence (Ferrante et al.'s PDG, which the paper's
/// applicability study builds): a block `b` is control-dependent on a
/// branch block `a` iff `b` post-dominates some successor of `a` but does
/// not strictly post-dominate `a` — equivalently, `a` is in the
/// post-dominance frontier of `b`.
#[derive(Clone, Debug)]
pub struct PostDomTree {
    /// Immediate post-dominator per block, plus the virtual exit (the
    /// last entry, its own root). [`UNREACHED`] for blocks that cannot
    /// reach any exit (infinite loops).
    ipdom: Vec<u32>,
}

impl PostDomTree {
    /// Computes post-dominators for `func` with its `cfg`.
    pub fn compute(func: &Function, cfg: &Cfg) -> Self {
        let n = func.num_blocks();
        let exit = n as u32; // the virtual exit
        let is_ret = |b: BlockId| {
            func.terminator(b).is_some_and(|t| matches!(func.inst(t).kind, InstKind::Ret(_)))
        };
        let rets: Vec<BlockId> = func.block_ids().filter(|&b| is_ret(b)).collect();

        // Reverse post-order of the reversed CFG from the virtual exit,
        // whose successors are the `ret` blocks.
        let reversed_succs = |b: u32| {
            if b == exit {
                rets.iter()
            } else {
                cfg.preds(BlockId::from_index(b as usize)).iter()
            }
        };
        let mut rpo = Vec::with_capacity(n + 1);
        let mut visited = vec![false; n + 1];
        visited[n] = true;
        let mut frames = vec![(exit, reversed_succs(exit))];
        while let Some((b, succs)) = frames.last_mut() {
            if let Some(s) = succs.next() {
                if !std::mem::replace(&mut visited[s.index()], true) {
                    let s = s.index() as u32;
                    frames.push((s, reversed_succs(s)));
                }
            } else {
                rpo.push(*b);
                frames.pop();
            }
        }
        rpo.reverse();

        // Predecessors in the reversed graph are the CFG successors, plus
        // the virtual exit for `ret` blocks.
        let preds = |b: u32| {
            let b = BlockId::from_index(b as usize);
            let succs = cfg.succs(b).iter().map(|s| s.index() as u32);
            succs.chain(is_ret(b).then_some(exit))
        };
        let (ipdom, _) = cooper_harvey_kennedy(n + 1, &rpo, preds);
        PostDomTree { ipdom }
    }

    /// Whether `b` reaches an exit (and so has a place in the tree).
    fn reaches_exit(&self, b: BlockId) -> bool {
        self.ipdom[b.index()] != UNREACHED
    }

    /// Immediate post-dominator (`None` when it is the virtual exit or the
    /// block never reaches an exit).
    pub fn ipdom(&self, b: BlockId) -> Option<BlockId> {
        let d = self.ipdom[b.index()] as usize;
        (d < self.ipdom.len() - 1).then(|| BlockId::from_index(d))
    }

    /// Whether `a` post-dominates `b` (reflexive).
    pub fn post_dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.reaches_exit(b) || !self.reaches_exit(a) {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.ipdom(cur) {
                Some(next) => cur = next,
                None => return false,
            }
        }
    }

    /// Ferrante-style control dependence: for every block, the branch
    /// blocks it is control-dependent on.
    pub fn control_dependence(&self, func: &Function, cfg: &Cfg) -> Vec<Vec<BlockId>> {
        let n = func.num_blocks();
        let mut deps: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for a in func.block_ids() {
            let succs = cfg.succs(a);
            if succs.len() < 2 {
                continue;
            }
            for &s in succs {
                // Walk the post-dominator tree from s up to (but not
                // including) ipdom(a): every block on the way is
                // control-dependent on a.
                let stop = self.ipdom(a);
                let mut cur = Some(s);
                while let Some(b) = cur {
                    if Some(b) == stop || !self.reaches_exit(b) {
                        break;
                    }
                    if b == a {
                        // Loops: a depends on itself; record and stop.
                        if !deps[b.index()].contains(&a) {
                            deps[b.index()].push(a);
                        }
                        break;
                    }
                    if !deps[b.index()].contains(&a) {
                        deps[b.index()].push(a);
                    }
                    cur = self.ipdom(b);
                }
            }
        }
        deps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::Pred;
    use crate::types::Type;

    /// entry → {then, else} → join → exit(ret)
    fn diamond() -> (Function, [BlockId; 4]) {
        let mut f = Function::new("d", vec![("x", Type::Int)], None);
        let mut b = FunctionBuilder::new(&mut f);
        let entry = b.current_block();
        let t = b.create_block();
        let e = b.create_block();
        let join = b.create_block();
        let x = b.param(0);
        let z = b.iconst(0);
        let c = b.cmp(Pred::Lt, x, z);
        b.br(c, t, e);
        b.switch_to(t);
        b.jump(join);
        b.switch_to(e);
        b.jump(join);
        b.switch_to(join);
        b.ret(None);
        b.finish();
        (f, [entry, t, e, join])
    }

    fn diamond_with_loop() -> (Function, Vec<BlockId>) {
        // entry → header; header → {body, exit}; body → {l, r}; l,r → latch;
        // latch → header
        let mut f = Function::new("g", vec![("n", Type::Int)], None);
        let mut b = FunctionBuilder::new(&mut f);
        let entry = b.current_block();
        let header = b.create_block();
        let body = b.create_block();
        let l = b.create_block();
        let r = b.create_block();
        let latch = b.create_block();
        let exit = b.create_block();
        let n = b.param(0);
        let z = b.iconst(0);
        b.jump(header);
        b.switch_to(header);
        let c = b.cmp(Pred::Lt, z, n);
        b.br(c, body, exit);
        b.switch_to(body);
        let c2 = b.cmp(Pred::Lt, n, z);
        b.br(c2, l, r);
        b.switch_to(l);
        b.jump(latch);
        b.switch_to(r);
        b.jump(latch);
        b.switch_to(latch);
        b.jump(header);
        b.switch_to(exit);
        b.ret(None);
        b.finish();
        (f, vec![entry, header, body, l, r, latch, exit])
    }

    #[test]
    fn idoms_of_nested_diamond() {
        let (f, bs) = diamond_with_loop();
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        let [entry, header, body, l, r, latch, exit] = bs[..] else { unreachable!() };
        assert_eq!(dt.idom(entry), None);
        assert_eq!(dt.idom(header), Some(entry));
        assert_eq!(dt.idom(body), Some(header));
        assert_eq!(dt.idom(l), Some(body));
        assert_eq!(dt.idom(r), Some(body));
        assert_eq!(dt.idom(latch), Some(body));
        assert_eq!(dt.idom(exit), Some(header));
    }

    #[test]
    fn dominates_is_reflexive_and_transitive() {
        let (f, bs) = diamond_with_loop();
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        for &b in &bs {
            assert!(dt.dominates(b, b));
            assert!(!dt.strictly_dominates(b, b));
        }
        let [entry, header, body, l, _, latch, exit] = bs[..] else { unreachable!() };
        assert!(dt.dominates(entry, exit));
        assert!(dt.dominates(header, latch));
        assert!(dt.strictly_dominates(body, l));
        assert!(!dt.dominates(l, latch), "l does not dominate the join");
        assert!(!dt.dominates(exit, header));
    }

    #[test]
    fn def_use_dominance_within_block() {
        let mut f = Function::new("t", Vec::<(&str, Type)>::new(), None);
        let mut b = FunctionBuilder::new(&mut f);
        let x = b.opaque(Type::Int);
        let y = b.copy(x);
        b.ret(None);
        b.finish();
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        let pos = f.positions();
        assert!(dt.def_dominates_use(&f, &pos, x, y));
        assert!(!dt.def_dominates_use(&f, &pos, y, x));
    }

    #[test]
    fn unreachable_blocks_do_not_dominate() {
        let mut f = Function::new("t", Vec::<(&str, Type)>::new(), None);
        let mut b = FunctionBuilder::new(&mut f);
        let dead = b.create_block();
        b.ret(None);
        b.switch_to(dead);
        b.ret(None);
        b.finish();
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        assert!(!dt.dominates(dead, f.entry()));
        assert!(!dt.dominates(f.entry(), dead));
        assert!(!dt.dominates(dead, dead));
    }

    #[test]
    fn join_postdominates_the_branch() {
        let (f, [entry, t, e, join]) = diamond();
        let cfg = Cfg::compute(&f);
        let pdt = PostDomTree::compute(&f, &cfg);
        assert!(pdt.post_dominates(join, entry));
        assert!(pdt.post_dominates(join, t));
        assert!(!pdt.post_dominates(t, entry), "only one arm does not post-dominate");
        assert_eq!(pdt.ipdom(t), Some(join));
        assert_eq!(pdt.ipdom(e), Some(join));
        assert_eq!(pdt.ipdom(entry), Some(join));
    }

    #[test]
    fn branch_arms_are_control_dependent_on_the_branch() {
        let (f, [entry, t, e, join]) = diamond();
        let cfg = Cfg::compute(&f);
        let pdt = PostDomTree::compute(&f, &cfg);
        let cd = pdt.control_dependence(&f, &cfg);
        assert_eq!(cd[t.index()], vec![entry]);
        assert_eq!(cd[e.index()], vec![entry]);
        assert!(cd[join.index()].is_empty(), "the join is executed unconditionally");
        assert!(cd[entry.index()].is_empty());
    }

    #[test]
    fn loop_body_is_control_dependent_on_the_header() {
        // entry → header; header → {body, exit}; body → header
        let mut f = Function::new("l", vec![("n", Type::Int)], None);
        let mut b = FunctionBuilder::new(&mut f);
        let header = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        let n = b.param(0);
        let z = b.iconst(0);
        b.jump(header);
        b.switch_to(header);
        let c = b.cmp(Pred::Lt, z, n);
        b.br(c, body, exit);
        b.switch_to(body);
        b.jump(header);
        b.switch_to(exit);
        b.ret(None);
        b.finish();
        let cfg = Cfg::compute(&f);
        let pdt = PostDomTree::compute(&f, &cfg);
        let cd = pdt.control_dependence(&f, &cfg);
        assert_eq!(cd[body.index()], vec![header]);
        // The header controls its own re-execution (loop).
        assert_eq!(cd[header.index()], vec![header]);
        assert!(pdt.post_dominates(exit, header));
    }

    #[test]
    fn infinite_loop_blocks_have_no_postdominator() {
        let mut f = Function::new("w", Vec::<(&str, Type)>::new(), None);
        let mut b = FunctionBuilder::new(&mut f);
        let spin = b.create_block();
        b.jump(spin);
        b.switch_to(spin);
        b.jump(spin);
        b.finish();
        let cfg = Cfg::compute(&f);
        let pdt = PostDomTree::compute(&f, &cfg);
        assert_eq!(pdt.ipdom(spin), None);
        assert!(!pdt.post_dominates(spin, f.entry()));
    }
}
