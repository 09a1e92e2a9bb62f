//! The (direct) call graph and its SCC condensation.
//!
//! Our IR only has direct calls ([`InstKind::Call`] names a [`FuncId`]),
//! so the call graph is exact: node = function, edge = "some instruction
//! of `f` calls `g`". The interprocedural summary layer of `sraa-core`
//! consumes the [`Condensation`]: summaries are propagated *bottom-up*
//! (callees before callers), with a fixpoint iteration inside every
//! recursive component. Indirect calls, when they arrive, will widen this
//! into a may-call graph — see ROADMAP.
//!
//! Everything here is deterministic: edges are recorded in instruction
//! order and deduplicated keeping first occurrence order sorted by id, and
//! the condensation uses [`scc::tarjan`], whose output order (a reverse
//! topological order of the component DAG — exactly callees-first) depends
//! only on the module.

use crate::ids::FuncId;
use crate::inst::InstKind;
use crate::module::Module;
use crate::scc;

/// The direct call graph of a [`Module`].
#[derive(Clone, Debug)]
pub struct CallGraph {
    /// `callees[f]` — sorted, deduplicated callees of `f`.
    callees: Vec<Vec<FuncId>>,
    /// `callers[f]` — sorted, deduplicated callers of `f`.
    callers: Vec<Vec<FuncId>>,
}

impl CallGraph {
    /// Builds the call graph by one scan over every function body.
    pub fn build(module: &Module) -> Self {
        let n = module.num_functions();
        let mut callees: Vec<Vec<FuncId>> = vec![Vec::new(); n];
        let mut callers: Vec<Vec<FuncId>> = vec![Vec::new(); n];
        for (fid, f) in module.functions() {
            for b in f.block_ids() {
                for (_, data) in f.block_insts(b) {
                    if let InstKind::Call { callee, .. } = &data.kind {
                        callees[fid.index()].push(*callee);
                    }
                }
            }
        }
        for (f, cs) in callees.iter_mut().enumerate() {
            cs.sort_unstable();
            cs.dedup();
            for &g in cs.iter() {
                callers[g.index()].push(FuncId::from_index(f));
            }
        }
        // `callers` is filled in ascending caller order already.
        Self { callees, callers }
    }

    /// Number of functions (nodes).
    pub fn num_functions(&self) -> usize {
        self.callees.len()
    }

    /// The functions `f` calls directly, ascending, deduplicated.
    pub fn callees(&self, f: FuncId) -> &[FuncId] {
        &self.callees[f.index()]
    }

    /// The functions that call `f` directly, ascending, deduplicated.
    pub fn callers(&self, f: FuncId) -> &[FuncId] {
        &self.callers[f.index()]
    }

    /// Total number of call edges (after deduplication).
    pub fn num_edges(&self) -> usize {
        self.callees.iter().map(Vec::len).sum()
    }

    /// Condenses the graph into its strongly connected components with
    /// [`scc::tarjan`]. Components are emitted callees-first (reverse
    /// topological order of the component DAG), which is exactly the
    /// bottom-up order summary propagation wants.
    pub fn condense(&self) -> Condensation {
        let n = self.num_functions();
        let callees = |f: u32| self.callees[f as usize].iter().map(|g| g.index() as u32);
        let sccs = scc::tarjan(n, callees, |_| true);
        let mut members: Vec<FuncId> =
            sccs.members.iter().map(|&f| FuncId::from_index(f as usize)).collect();
        let mut comp_of = vec![0u32; n];
        let mut recursive = Vec::with_capacity(sccs.offsets.len() - 1);
        for (k, w) in sccs.offsets.windows(2).enumerate() {
            let comp = &mut members[w[0] as usize..w[1] as usize];
            comp.sort_unstable();
            for f in comp.iter() {
                comp_of[f.index()] = k as u32;
            }
            recursive.push(
                comp.len() > 1 || comp.iter().any(|&f| self.callees(f).binary_search(&f).is_ok()),
            );
        }

        // Cross-component call edges, per caller component, sorted and
        // deduplicated. Tarjan emits callees first, so every recorded edge
        // points at a strictly smaller component index.
        let mut callee_comps: Vec<Vec<u32>> = vec![Vec::new(); recursive.len()];
        for (f, cs) in self.callees.iter().enumerate() {
            let cf = comp_of[f];
            for &g in cs {
                let cg = comp_of[g.index()];
                if cg != cf {
                    debug_assert!(cg < cf, "condensation order must be callees-first");
                    callee_comps[cf as usize].push(cg);
                }
            }
        }
        for cs in &mut callee_comps {
            cs.sort_unstable();
            cs.dedup();
        }

        Condensation { offsets: sccs.offsets, members, comp_of, recursive, callee_comps }
    }
}

/// The SCC condensation of a [`CallGraph`], in bottom-up order.
#[derive(Clone, Debug)]
pub struct Condensation {
    /// Component `i` is `members[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// Members of every component in callees-first component order,
    /// ascending by [`FuncId`] within a component.
    members: Vec<FuncId>,
    /// `comp_of[f]` — the component index of `f`.
    comp_of: Vec<u32>,
    /// Whether the component contains a cycle (multi-member, or a
    /// self-calling function).
    recursive: Vec<bool>,
    /// `callee_comps[i]` — components that members of `i` call into,
    /// excluding `i` itself; ascending, deduplicated. Every entry is
    /// strictly smaller than `i` (callees-first emission order).
    callee_comps: Vec<Vec<u32>>,
}

impl Condensation {
    /// Number of components.
    pub fn len(&self) -> usize {
        self.recursive.len()
    }

    /// Whether the module had no functions at all.
    pub fn is_empty(&self) -> bool {
        self.recursive.is_empty()
    }

    /// Component `i`'s members, ascending by id.
    pub fn members(&self, i: usize) -> &[FuncId] {
        &self.members[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The component index of function `f`.
    pub fn component_of(&self, f: FuncId) -> usize {
        self.comp_of[f.index()] as usize
    }

    /// Whether component `i` contains a call cycle.
    pub fn is_recursive(&self, i: usize) -> bool {
        self.recursive[i]
    }

    /// Number of recursive components.
    pub fn num_recursive(&self) -> usize {
        self.recursive.iter().filter(|&&r| r).count()
    }

    /// Components in bottom-up (callees-before-callers) order.
    pub fn bottom_up(&self) -> impl Iterator<Item = (usize, &[FuncId])> {
        (0..self.len()).map(|i| (i, self.members(i)))
    }

    /// The components that members of `i` call into (excluding `i`
    /// itself), ascending and deduplicated. Every entry is strictly
    /// smaller than `i`.
    pub fn callee_components(&self, i: usize) -> &[u32] {
        &self.callee_comps[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Function;
    use crate::types::Type;

    /// Builds a module whose call structure is given by `edges` over
    /// `n` trivial functions.
    fn call_module(n: usize, edges: &[(usize, usize)]) -> Module {
        let mut m = Module::new();
        for i in 0..n {
            m.declare_function(format!("f{i}"), vec![], Some(Type::Int));
        }
        for i in 0..n {
            let fid = FuncId::from_index(i);
            let callees: Vec<usize> =
                edges.iter().filter(|(a, _)| *a == i).map(|(_, b)| *b).collect();
            let f: &mut Function = m.function_mut(fid);
            let entry = f.entry();
            for c in callees {
                f.append_inst(
                    entry,
                    InstKind::Call { callee: FuncId::from_index(c), args: vec![] },
                    Some(Type::Int),
                );
            }
            let zero = f.add_const(0);
            f.append_inst(entry, InstKind::Ret(Some(zero)), None);
        }
        m
    }

    #[test]
    fn edges_are_deduplicated_and_sorted() {
        let m = call_module(3, &[(0, 2), (0, 1), (0, 2), (1, 2)]);
        let cg = CallGraph::build(&m);
        assert_eq!(cg.callees(FuncId::from_index(0)).len(), 2);
        assert_eq!(cg.callers(FuncId::from_index(2)).len(), 2);
        assert_eq!(cg.num_edges(), 3);
        assert_eq!(cg.num_functions(), 3);
    }

    #[test]
    fn chain_condenses_bottom_up() {
        // 0 -> 1 -> 2: bottom-up order must visit 2 before 1 before 0.
        let m = call_module(3, &[(0, 1), (1, 2)]);
        let cond = CallGraph::build(&m).condense();
        assert_eq!(cond.len(), 3);
        assert!(!cond.is_empty());
        let order: Vec<usize> = cond.bottom_up().map(|(_, c)| c[0].index()).collect();
        assert_eq!(order, vec![2, 1, 0]);
        assert_eq!(cond.num_recursive(), 0);
    }

    #[test]
    fn self_loop_is_recursive() {
        let m = call_module(2, &[(0, 0), (0, 1)]);
        let cond = CallGraph::build(&m).condense();
        let c0 = cond.component_of(FuncId::from_index(0));
        assert!(cond.is_recursive(c0));
        let c1 = cond.component_of(FuncId::from_index(1));
        assert!(!cond.is_recursive(c1));
        // Leaf first.
        assert!(c1 < c0);
    }

    #[test]
    fn mutual_recursion_is_one_component() {
        // 0 <-> 1, both call 2.
        let m = call_module(3, &[(0, 1), (1, 0), (0, 2), (1, 2)]);
        let cond = CallGraph::build(&m).condense();
        assert_eq!(cond.len(), 2);
        let c = cond.component_of(FuncId::from_index(0));
        assert_eq!(c, cond.component_of(FuncId::from_index(1)));
        assert!(cond.is_recursive(c));
        assert_eq!(cond.members(c).len(), 2);
        // The shared leaf comes first in bottom-up order.
        assert_eq!(cond.component_of(FuncId::from_index(2)), 0);
    }

    /// Every cross-component call edge points to an earlier component,
    /// on every shape: chains, diamonds, disconnected leaves, cycles and
    /// duplicated call sites. This is what lets summary computation walk
    /// the components in `condense()` order and find every callee solved.
    #[test]
    fn callees_always_precede_callers() {
        // The fourth shape has a diamond over the cycle {3,4}.
        let shapes: [(usize, &[(usize, usize)]); 5] = [
            (3, &[(0, 1), (1, 2)]),
            (4, &[(0, 1), (0, 2), (1, 3), (2, 3)]),
            (4, &[(3, 0)]),
            (5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 3)]),
            (4, &[(3, 2), (3, 0), (3, 1), (3, 2), (3, 0)]),
        ];
        for (n, edges) in shapes {
            let cg = CallGraph::build(&call_module(n, edges));
            let cond = cg.condense();
            let mut seen = vec![0usize; n];
            for (c, members) in cond.bottom_up() {
                for &f in members {
                    assert_eq!(cond.component_of(f), c);
                    seen[f.index()] += 1;
                    for &g in cg.callees(f) {
                        let d = cond.component_of(g);
                        assert!(d <= c, "{edges:?}: f{} calls later f{}", f.index(), g.index());
                        if d != c {
                            assert!(cond.callee_components(c).contains(&(d as u32)));
                        }
                    }
                }
                assert!(cond.callee_components(c).iter().all(|&d| (d as usize) < c));
            }
            assert!(seen.iter().all(|&k| k == 1), "{edges:?}: every function in one component");
            assert_eq!(cond.num_recursive(), usize::from(n == 5), "{edges:?}");
        }
    }

    #[test]
    fn empty_module_condenses_to_nothing() {
        let cond = CallGraph::build(&Module::new()).condense();
        assert!(cond.is_empty());
        assert_eq!(cond.len(), 0);
    }

    #[test]
    fn callee_components_are_sorted_and_deduplicated() {
        // f3 calls into f0, f1, f2 (several call sites each).
        let m = call_module(4, &[(3, 2), (3, 0), (3, 1), (3, 2), (3, 0)]);
        let cond = CallGraph::build(&m).condense();
        let c3 = cond.component_of(FuncId::from_index(3));
        let cs = cond.callee_components(c3);
        assert_eq!(cs.len(), 3);
        assert!(cs.windows(2).all(|w| w[0] < w[1]));
    }
}
