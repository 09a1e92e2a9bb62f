//! Natural-loop detection.
//!
//! Classic dominator-based loop analysis: a *back edge* is an edge
//! `n → h` whose target dominates its source; the natural loop of `h`
//! is `h` plus every block that reaches some back-edge source `n`
//! without passing through `h`. Loops sharing a header are merged (as
//! in LLVM's `LoopInfo`); distinct headers nest by body inclusion.
//!
//! Consumers in this workspace: loop-invariant code motion
//! (`sraa-opt::licm`) hoists loads to preheaders, and the loop-shaped
//! workload generators assert their CFGs have the intended nesting.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::function::Function;
use crate::ids::BlockId;

/// One natural loop.
#[derive(Clone, Debug)]
pub struct Loop {
    /// The loop header (target of the back edges).
    pub header: BlockId,
    /// Sources of the back edges (`latch → header`).
    pub latches: Vec<BlockId>,
    /// Every block in the loop, header included, unordered.
    pub body: Vec<BlockId>,
    /// Index of the innermost enclosing loop, if any.
    pub parent: Option<usize>,
}

impl Loop {
    /// Whether `b` belongs to the loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.body.contains(&b)
    }

    /// The unique out-of-loop predecessor of the header, if the loop has
    /// one (the *preheader*, where hoisted code lands). `None` when the
    /// header has several external predecessors or is the function entry.
    pub fn preheader(&self, cfg: &Cfg) -> Option<BlockId> {
        let mut outside = cfg.preds(self.header).iter().copied().filter(|p| !self.contains(*p));
        let candidate = outside.next()?;
        if outside.next().is_some() {
            return None;
        }
        // The preheader must branch only into the loop, so an inserted
        // instruction cannot execute on an unrelated path.
        (cfg.succs(candidate) == [self.header]).then_some(candidate)
    }
}

/// The loop forest of one function.
#[derive(Clone, Debug, Default)]
pub struct LoopForest {
    loops: Vec<Loop>,
    /// innermost[b] = index of the innermost loop containing block `b`.
    innermost: Vec<Option<usize>>,
}

impl LoopForest {
    /// Computes the natural loops of `func`.
    pub fn compute(func: &Function, cfg: &Cfg, dom: &DomTree) -> LoopForest {
        // Collect back edges, grouped by header in RPO order so outer
        // loops (earlier headers) come first.
        let mut by_header: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
        for &b in &cfg.reverse_postorder() {
            for succ in func.successors(b) {
                if dom.dominates(succ, b) {
                    match by_header.iter_mut().find(|(h, _)| *h == succ) {
                        Some((_, latches)) => latches.push(b),
                        None => by_header.push((succ, vec![b])),
                    }
                }
            }
        }

        let mut loops: Vec<Loop> = Vec::new();
        for (header, latches) in by_header {
            // Walk CFG predecessors backwards from the latches, stopping
            // at the header.
            let mut body = vec![header];
            let mut stack: Vec<BlockId> = latches.clone();
            while let Some(b) = stack.pop() {
                if body.contains(&b) {
                    continue;
                }
                body.push(b);
                stack.extend(cfg.preds(b).iter().copied());
            }
            loops.push(Loop { header, latches, body, parent: None });
        }

        // Nesting: the parent of L is the smallest other loop strictly
        // containing L's header.
        for i in 0..loops.len() {
            let mut best: Option<usize> = None;
            for j in 0..loops.len() {
                if i == j || !loops[j].contains(loops[i].header) {
                    continue;
                }
                if loops[j].header == loops[i].header {
                    continue;
                }
                if best.is_none_or(|b| loops[j].body.len() < loops[b].body.len()) {
                    best = Some(j);
                }
            }
            loops[i].parent = best;
        }

        // innermost[b]: smallest loop containing b.
        let mut innermost = vec![None; func.num_blocks()];
        for (slot, entry) in innermost.iter_mut().enumerate() {
            let b = BlockId::from_index(slot);
            let mut best: Option<usize> = None;
            for (idx, l) in loops.iter().enumerate() {
                if l.contains(b) && best.is_none_or(|x: usize| l.body.len() < loops[x].body.len()) {
                    best = Some(idx);
                }
            }
            *entry = best;
        }

        LoopForest { loops, innermost }
    }

    /// All loops, outermost headers first.
    pub fn loops(&self) -> &[Loop] {
        &self.loops
    }

    /// The innermost loop containing `b`, if any.
    pub fn innermost(&self, b: BlockId) -> Option<&Loop> {
        self.innermost.get(b.index()).copied().flatten().map(|i| &self.loops[i])
    }

    /// Loop nesting depth of `b` (0 = not in any loop).
    pub fn depth(&self, b: BlockId) -> usize {
        let mut d = 0;
        let mut cur = self.innermost.get(b.index()).copied().flatten();
        while let Some(i) = cur {
            d += 1;
            cur = self.loops[i].parent;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, Pred};
    use crate::module::Module;
    use crate::types::Type;

    /// Builds a one-function module with `build` and returns the loop
    /// forest of that function. Blocks are numbered in creation order.
    fn forest(params: usize, build: impl FnOnce(&mut FunctionBuilder)) -> (LoopForest, Cfg) {
        let mut m = Module::new();
        let fid = m.declare_function("f", vec![("n", Type::Int); params], Some(Type::Int));
        let mut b = FunctionBuilder::new(m.function_mut(fid));
        build(&mut b);
        b.finish();
        let f = m.function(fid);
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        let lf = LoopForest::compute(f, &cfg, &dom);
        (lf, cfg)
    }

    /// `bb0 → bb1 ⇄ bb2`, `bb1 → bb3`: one loop counting `i` up to `n`.
    fn single_loop(b: &mut FunctionBuilder) {
        let entry = b.current_block();
        let (header, latch, exit) = (b.create_block(), b.create_block(), b.create_block());
        let n = b.param(0);
        let c0 = b.iconst(0);
        let c1 = b.iconst(1);
        b.jump(header);
        b.switch_to(header);
        let i = b.phi(Type::Int);
        let cmp = b.cmp(Pred::Lt, i, n);
        b.br(cmp, latch, exit);
        b.switch_to(latch);
        let i2 = b.binary(BinOp::Add, i, c1);
        b.jump(header);
        b.switch_to(exit);
        b.ret(Some(i));
        b.set_phi_incomings(i, vec![(entry, c0), (latch, i2)]);
    }

    #[test]
    fn detects_a_single_loop() {
        let (lf, cfg) = forest(1, single_loop);
        assert_eq!(lf.loops().len(), 1);
        let l = &lf.loops()[0];
        assert_eq!(l.header, BlockId::from_index(1));
        assert_eq!(l.latches, vec![BlockId::from_index(2)]);
        assert_eq!(l.body.len(), 2, "header + latch");
        assert_eq!(l.parent, None);
        assert_eq!(l.preheader(&cfg), Some(BlockId::from_index(0)));
        assert_eq!(lf.depth(BlockId::from_index(1)), 1);
        assert_eq!(lf.depth(BlockId::from_index(0)), 0);
        assert_eq!(lf.depth(BlockId::from_index(3)), 0);
    }

    /// An `i` loop (header bb1, latch bb4) around a `j` loop (header bb2,
    /// latch bb3); bb5 returns.
    fn nested(b: &mut FunctionBuilder) {
        let entry = b.current_block();
        let (outer, inner, inner_latch, outer_latch, exit) = (
            b.create_block(),
            b.create_block(),
            b.create_block(),
            b.create_block(),
            b.create_block(),
        );
        let n = b.param(0);
        let c0 = b.iconst(0);
        let c1 = b.iconst(1);
        b.jump(outer);
        b.switch_to(outer);
        let i = b.phi(Type::Int);
        let ci = b.cmp(Pred::Lt, i, n);
        b.br(ci, inner, exit);
        b.switch_to(inner);
        let j = b.phi(Type::Int);
        let cj = b.cmp(Pred::Lt, j, n);
        b.br(cj, inner_latch, outer_latch);
        b.switch_to(inner_latch);
        let j2 = b.binary(BinOp::Add, j, c1);
        b.jump(inner);
        b.switch_to(outer_latch);
        let i2 = b.binary(BinOp::Add, i, c1);
        b.jump(outer);
        b.switch_to(exit);
        b.ret(Some(i));
        b.set_phi_incomings(i, vec![(entry, c0), (outer_latch, i2)]);
        b.set_phi_incomings(j, vec![(outer, c0), (inner_latch, j2)]);
    }

    #[test]
    fn nested_loops_have_parents_and_depths() {
        let (lf, _) = forest(1, nested);
        assert_eq!(lf.loops().len(), 2);
        let outer = lf.loops().iter().position(|l| l.header.index() == 1).unwrap();
        let inner = lf.loops().iter().position(|l| l.header.index() == 2).unwrap();
        assert_eq!(lf.loops()[inner].parent, Some(outer));
        assert_eq!(lf.loops()[outer].parent, None);
        assert!(lf.loops()[outer].contains(BlockId::from_index(3)), "inner body is in outer");
        assert_eq!(lf.depth(BlockId::from_index(3)), 2);
        assert_eq!(lf.depth(BlockId::from_index(4)), 1);
        let b2 = BlockId::from_index(2);
        assert_eq!(lf.innermost(b2).unwrap().header, b2);
    }

    #[test]
    fn straight_line_code_has_no_loops() {
        let (lf, _) = forest(0, |b| {
            let c = b.iconst(7);
            b.ret(Some(c));
        });
        assert!(lf.loops().is_empty());
        assert_eq!(lf.depth(BlockId::from_index(0)), 0);
    }

    #[test]
    fn shared_header_loops_are_merged() {
        // Two back edges into one header: one loop with two latches.
        let (lf, _) = forest(1, |b| {
            let entry = b.current_block();
            let (header, latch1, latch2, exit) =
                (b.create_block(), b.create_block(), b.create_block(), b.create_block());
            let n = b.param(0);
            let c0 = b.iconst(0);
            let c1 = b.iconst(1);
            b.jump(header);
            b.switch_to(header);
            let i = b.phi(Type::Int);
            let cmp = b.cmp(Pred::Lt, i, n);
            b.br(cmp, latch1, exit);
            b.switch_to(latch1);
            let i2 = b.binary(BinOp::Add, i, c1);
            let even = b.binary(BinOp::Rem, i2, c1);
            let ce = b.cmp(Pred::Eq, even, c0);
            b.br(ce, header, latch2);
            b.switch_to(latch2);
            let i3 = b.binary(BinOp::Add, i, c1);
            b.jump(header);
            b.switch_to(exit);
            b.ret(Some(i));
            b.set_phi_incomings(i, vec![(entry, c0), (latch1, i2), (latch2, i3)]);
        });
        assert_eq!(lf.loops().len(), 1);
        assert_eq!(lf.loops()[0].latches.len(), 2);
    }
}
