//! SCC-condensation constraint solver — the paper's §6 future work.
//!
//! The paper closes with: *"Currently, our research prototype can handle
//! large programs, but its runtime is not practical … We believe that
//! better algorithms can improve this scenario substantially. The design
//! of such algorithms is a problem that we leave open."* This module is
//! our answer to that open problem. It computes exactly the same greatest
//! fixpoint as the paper's worklist ([`crate::solver`]; differential- and
//! property-tested in `tests/` and below) with three structural
//! improvements:
//!
//! 1. **Topological scheduling.** The constraint dependency graph is
//!    condensed into strongly connected components (iterative Tarjan, so
//!    deep chains cannot overflow the stack) and solved dependencies-
//!    first. Acyclic regions — the vast majority of real systems, see the
//!    Figure 11 corpus — are then solved with *exactly one* evaluation
//!    per constraint, where a FIFO worklist may revisit.
//! 2. **Union-cycle short-circuit.** Starting from ⊤, a cyclic component
//!    whose internal edges are all `Union`/`Copy` can never descend:
//!    every member reads another member, `{x} ∪ ⊤ = ⊤`, and the greatest
//!    fixpoint of the component is ⊤ (the paper's freeze rule then demotes
//!    it to ∅). Descent enters cycles only through a φ (`Inter`), whose
//!    identity-of-∩ treatment of ⊤ lets a grounded external source break
//!    the cycle. The fast solver classifies each component once and skips
//!    the iteration entirely for union-only cycles.
//! 3. **One lattice store.** Both strategies evaluate constraints through
//!    the same [`DenseStore`](crate::lattice::DenseStore) arena, with a
//!    symbolic ⊤. This solver contributes *scheduling only*: it is the
//!    one production fixpoint, [`solve`](crate::solve), and returns the
//!    same [`Solution`] type as the worklist reference,
//!    [`solve_worklist`](crate::solve_worklist).
//!
//! The `scalability` binary prints the effect (evaluations and wall clock
//! per strategy), and `tests/work_counters.rs` pins the evaluation counts.

use crate::constraints::Constraint;
use crate::lattice::{ComponentCtx, LatticeStore};
use crate::solver::{Solution, SolveStats};

/// Solves the constraint system over `num_vars` variables by SCC
/// condensation over `store`. Produces the same fixpoint as the worklist
/// in the same [`Solution`] representation; `stats.pops` counts the
/// constraint evaluations spent (exactly one per constraint on acyclic
/// systems). Reached through [`solve`](crate::solve).
pub(crate) fn solve_fast_impl<S: LatticeStore>(
    constraints: &[Constraint],
    num_vars: usize,
    mut store: S,
) -> Solution {
    let mut stats =
        SolveStats { constraints: constraints.len(), variables: num_vars, ..Default::default() };

    // defining[v] = the constraint that defines v (at most one; constraint
    // generation emits one constraint per defined variable).
    const NO_DEF: u32 = u32::MAX;
    let mut defining: Vec<u32> = vec![NO_DEF; num_vars];
    for (ci, c) in constraints.iter().enumerate() {
        debug_assert!(
            defining[c.defined().index()] == NO_DEF,
            "variable {} defined by two constraints",
            c.defined()
        );
        defining[c.defined().index()] = ci as u32;
    }

    // Topological peel of the acyclic bulk. `final_[v]` means LT(v) can
    // no longer change: its defining constraint was evaluated, or it has
    // no defining constraint at all (it stays ⊤ until the freeze). Each
    // sweep walks the still-pending constraints in index order —
    // constraint generation emits definitions before most uses, so the
    // first sweep resolves nearly everything, in the cache-friendly
    // order the constraints are laid out in. Constraints inside cycles —
    // and everything downstream of a cycle — never become ready and fall
    // through to the condensation below; the sweep cap bounds the
    // quadratic worst case of an adversarially reverse-sorted system
    // (Tarjan handles whatever is left, it is merely slower).
    let mut final_: Vec<bool> = defining.iter().map(|&d| d == NO_DEF).collect();
    const SWEEP_CAP: usize = 8;
    let mut pending: Vec<u32> = Vec::new();
    let eval = |ci: u32, stats: &mut SolveStats, store: &mut S, final_: &mut Vec<bool>| {
        stats.pops += 1;
        stats.sccs += 1; // each peeled constraint is its own component
        let c = &constraints[ci as usize];
        store.update(c);
        final_[c.defined().index()] = true;
    };
    for (ci, c) in constraints.iter().enumerate() {
        if c.reads().iter().all(|r| final_[r.index()]) {
            eval(ci as u32, &mut stats, &mut store, &mut final_);
        } else {
            pending.push(ci as u32);
        }
    }
    for _ in 1..SWEEP_CAP {
        if pending.is_empty() {
            break;
        }
        let before = pending.len();
        let mut next = Vec::with_capacity(pending.len());
        for &ci in &pending {
            if constraints[ci as usize].reads().iter().all(|r| final_[r.index()]) {
                eval(ci, &mut stats, &mut store, &mut final_);
            } else {
                next.push(ci);
            }
        }
        pending = next;
        if pending.len() == before {
            break; // no progress: everything left is cyclic or downstream
        }
    }
    if pending.is_empty() {
        return store.freeze(stats);
    }

    // Residual dependency edges (constraint → constraints it reads),
    // restricted to the unresolved nodes: finalised reads impose no
    // ordering.
    let mut active = vec![false; constraints.len()];
    for &ci in &pending {
        active[ci as usize] = true;
    }
    let deps = {
        let mut offsets = vec![0u32; constraints.len() + 1];
        let mut edges = Vec::new();
        for &ci in &pending {
            edges.extend(
                constraints[ci as usize]
                    .reads()
                    .iter()
                    .filter(|r| !final_[r.index()])
                    .map(|r| defining[r.index()])
                    .filter(|&d| d != NO_DEF),
            );
            offsets[ci as usize + 1] = edges.len() as u32;
        }
        // `pending` is sorted, so a prefix-max pass turns the sparse row
        // ends into cumulative offsets for the inactive rows too.
        for i in 0..constraints.len() {
            offsets[i + 1] = offsets[i + 1].max(offsets[i]);
        }
        Csr { offsets, edges }
    };

    let sccs = tarjan_sccs(&deps, |ci| active[ci as usize]);
    stats.sccs += sccs.len();

    // Tarjan emits components dependencies-first, so by the time a
    // component is processed every external read is final.
    for k in 0..sccs.len() {
        let comp = sccs.row(k as u32);
        let cyclic = comp.len() > 1 || deps.row(comp[0]).contains(&comp[0]);
        if !cyclic {
            // Acyclic (downstream of a cycle): one evaluation suffices;
            // dependents sit in later components and read the stored
            // result directly, so the change flag is irrelevant here.
            stats.pops += 1;
            store.update(&constraints[comp[0] as usize]);
            continue;
        }
        stats.cyclic_sccs += 1;

        if comp.iter().all(|&ci| {
            matches!(constraints[ci as usize], Constraint::Union { .. } | Constraint::Copy { .. })
        }) {
            // Union-only cycle: stays ⊤ (see module docs). Nothing to do —
            // the defined variables are already ⊤ and will be frozen.
            stats.union_cycles += 1;
            continue;
        }

        let cx = ComponentCtx::build(constraints, comp, &defining);
        store.solve_component(&cx, &mut stats);
    }

    store.freeze(stats)
}

/// Compressed sparse rows: `edges[offsets[i]..offsets[i+1]]` are node
/// `i`'s out-edges.
struct Csr {
    offsets: Vec<u32>,
    edges: Vec<u32>,
}

impl Csr {
    fn row(&self, i: u32) -> &[u32] {
        &self.edges[self.offsets[i as usize] as usize..self.offsets[i as usize + 1] as usize]
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// Iterative Tarjan over the constraint dependency graph (`deps.row(c)`
/// lists the constraints `c` reads from), restricted to the nodes where
/// `active` holds — the Kahn peel in [`solve_fast_impl`] resolves the
/// acyclic bulk first, so only the residual needs condensing. Components
/// are emitted dependencies-first — the processing order
/// [`solve_fast_impl`] relies on — into one flat CSR (row `k` = component
/// `k`'s members): singleton components dominate real systems, so one
/// `Vec` per component would be the allocator's hottest path. Iterative so that
/// chain-shaped systems (tens of thousands of constraints deep) cannot
/// overflow the call stack.
fn tarjan_sccs(deps: &Csr, active: impl Fn(u32) -> bool) -> Csr {
    const UNVISITED: u32 = u32::MAX;
    let n = deps.len();
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut sccs = Csr { offsets: vec![0], edges: Vec::new() };

    // Explicit DFS frames: (node, next edge position to explore).
    let mut frames: Vec<(u32, usize)> = Vec::new();

    for root in 0..n as u32 {
        if !active(root) || index[root as usize] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (v, ref mut ei)) = frames.last_mut() {
            if let Some(&w) = deps.row(v).get(*ei) {
                *ei += 1;
                if index[w as usize] == UNVISITED {
                    index[w as usize] = next_index;
                    lowlink[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    frames.push((w, 0));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        sccs.edges.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.offsets.push(sccs.edges.len() as u32);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::Constraint as C;
    use crate::solver::{solve, solve_worklist};
    use crate::var_index::VarId;

    fn v(i: u32) -> VarId {
        VarId::new(i)
    }

    fn vs(ids: &[u32]) -> Vec<VarId> {
        ids.iter().copied().map(VarId::new).collect()
    }

    /// Asserts both solvers agree on every variable's `LT` set.
    fn assert_agrees(cs: &[C], num_vars: usize) {
        let base = solve_worklist(cs, num_vars);
        let fast = solve(cs, num_vars);
        for x in 0..num_vars {
            let x = VarId::from_index(x);
            assert_eq!(base.lt_set(x), fast.lt_set(x), "solvers disagree on LT({x}) over {cs:?}");
            assert_eq!(base.was_top(x), fast.was_top(x), "frozen sets differ on {x}");
        }
        assert_eq!(base.stats.frozen_tops, fast.stats.frozen_tops);
    }

    fn example_3_4() -> Vec<C> {
        vec![
            C::Init { x: v(0) },
            C::Union { x: v(1), elems: vs(&[0]), sources: vs(&[0]) },
            C::Inter { x: v(2), sources: vs(&[1, 3]) },
            C::Union { x: v(3), elems: vs(&[2]), sources: vs(&[2]) },
            C::Init { x: v(4) },
            C::Union { x: v(5), elems: vs(&[4]), sources: vs(&[2]) },
            C::Union { x: v(7), elems: vs(&[9]), sources: vs(&[9, 1]) },
            C::Copy { x: v(8), source: v(1) },
            C::Union { x: v(10), elems: vec![], sources: vs(&[8, 4]) },
            C::Copy { x: v(9), source: v(4) },
            C::Inter { x: v(6), sources: vs(&[3, 9, 4]) },
        ]
    }

    #[test]
    fn agrees_on_papers_example() {
        assert_agrees(&example_3_4(), 11);
    }

    #[test]
    fn papers_fixpoint_reproduced_natively() {
        let sol = solve(&example_3_4(), 11);
        assert_eq!(sol.lt_set(v(3)), &[0, 2], "LT(x3) = {{x0, x2}}");
        assert_eq!(sol.lt_set(v(7)), &[0, 9], "LT(x1t) = {{x0, x4t}}");
        assert!(sol.less_than(v(0), v(1)) && !sol.less_than(v(1), v(0)));
    }

    #[test]
    fn agrees_on_chain() {
        let n = 64u32;
        let mut cs = vec![C::Init { x: v(0) }];
        for i in 1..n {
            cs.push(C::Union { x: v(i), elems: vs(&[i - 1]), sources: vs(&[i - 1]) });
        }
        assert_agrees(&cs, n as usize);
        // Acyclic: exactly one eval per constraint.
        let fast = solve(&cs, n as usize);
        assert_eq!(fast.stats.pops, n as u64);
        assert_eq!(fast.stats.cyclic_sccs, 0);
    }

    #[test]
    fn agrees_on_phi_loop() {
        // i = φ(c, i2); i2 = i + 1 — the canonical induction cycle.
        let cs = vec![
            C::Init { x: v(0) },
            C::Inter { x: v(1), sources: vs(&[0, 2]) },
            C::Union { x: v(2), elems: vs(&[1]), sources: vs(&[1]) },
        ];
        assert_agrees(&cs, 3);
        let fast = solve(&cs, 3);
        assert_eq!(fast.stats.cyclic_sccs, 1);
        assert_eq!(fast.stats.union_cycles, 0);
    }

    #[test]
    fn union_cycle_short_circuits_to_frozen_empty() {
        let cs = vec![
            C::Union { x: v(0), elems: vs(&[1]), sources: vs(&[1]) },
            C::Union { x: v(1), elems: vs(&[0]), sources: vs(&[0]) },
        ];
        assert_agrees(&cs, 2);
        let fast = solve(&cs, 2);
        assert_eq!(fast.stats.union_cycles, 1);
        assert_eq!(fast.stats.frozen_tops, 2);
        assert_eq!(fast.stats.pops, 0, "no iteration spent on the cycle");
    }

    #[test]
    fn union_cycle_with_external_ground_still_stays_top() {
        // x2/x3 form a union cycle fed by a grounded x1 — ⊤ still wins:
        // each eval unions a member that is ⊤.
        let cs = vec![
            C::Init { x: v(0) },
            C::Union { x: v(1), elems: vs(&[0]), sources: vs(&[0]) },
            C::Union { x: v(2), elems: vec![], sources: vs(&[1, 3]) },
            C::Union { x: v(3), elems: vec![], sources: vs(&[2]) },
        ];
        assert_agrees(&cs, 4);
    }

    #[test]
    fn self_loop_union_is_cyclic() {
        // x0 = {1} ∪ LT(x0): a self-loop, degenerate union cycle.
        let cs = vec![C::Union { x: v(0), elems: vs(&[1]), sources: vs(&[0]) }];
        assert_agrees(&cs, 2);
        let fast = solve(&cs, 2);
        assert_eq!(fast.stats.union_cycles, 1);
    }

    #[test]
    fn nested_loops_and_diamonds() {
        // Two interlocking φ-cycles sharing a grounded entry.
        let cs = vec![
            C::Init { x: v(0) },
            C::Inter { x: v(1), sources: vs(&[0, 2, 4]) },
            C::Union { x: v(2), elems: vs(&[1]), sources: vs(&[1]) },
            C::Inter { x: v(3), sources: vs(&[1, 4]) },
            C::Union { x: v(4), elems: vs(&[3]), sources: vs(&[3]) },
            C::Union { x: v(5), elems: vec![], sources: vs(&[2, 4]) },
        ];
        assert_agrees(&cs, 6);
    }

    #[test]
    fn intersection_of_disjoint_sets_is_empty() {
        let cs = vec![
            C::Init { x: v(0) },
            C::Init { x: v(1) },
            C::Union { x: v(2), elems: vs(&[0]), sources: vs(&[0]) },
            C::Union { x: v(3), elems: vs(&[1]), sources: vs(&[1]) },
            C::Inter { x: v(4), sources: vs(&[2, 3]) },
        ];
        let fast = solve(&cs, 5);
        assert_eq!(fast.lt_set(v(4)), &[] as &[u32]);
        assert_agrees(&cs, 5);
    }

    fn csr(rows: Vec<Vec<u32>>) -> Csr {
        let mut offsets = vec![0u32];
        let mut edges = Vec::new();
        for row in rows {
            edges.extend(row);
            offsets.push(edges.len() as u32);
        }
        Csr { offsets, edges }
    }

    fn scc_rows(sccs: &Csr) -> Vec<Vec<u32>> {
        (0..sccs.len()).map(|k| sccs.row(k as u32).to_vec()).collect()
    }

    #[test]
    fn tarjan_orders_dependencies_first() {
        // 0 → (nothing); 1 reads 0; 2 reads 1. deps edges point at
        // dependencies, so emission must be [0], [1], [2].
        let deps = csr(vec![vec![], vec![0], vec![1]]);
        let sccs = scc_rows(&tarjan_sccs(&deps, |_| true));
        assert_eq!(sccs, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn tarjan_groups_cycles() {
        // 1 ⇄ 2 cycle, 3 reads the cycle, 0 independent.
        let deps = csr(vec![vec![], vec![2], vec![1], vec![1]]);
        let sccs = scc_rows(&tarjan_sccs(&deps, |_| true));
        let cycle = sccs.iter().find(|c| c.len() == 2).expect("cycle component");
        let mut cycle = cycle.clone();
        cycle.sort_unstable();
        assert_eq!(cycle, vec![1, 2]);
        // The 2-cycle must be emitted before node 3 which depends on it.
        let cycle_pos = sccs.iter().position(|c| c.len() == 2).unwrap();
        let three_pos = sccs.iter().position(|c| c == &vec![3]).unwrap();
        assert!(cycle_pos < three_pos);
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let n = 200_000u32;
        let mut cs = vec![C::Init { x: v(0) }];
        for i in 1..n {
            // Copies, so the closure stays small while the graph is deep.
            cs.push(C::Copy { x: v(i), source: v(i - 1) });
        }
        let fast = solve(&cs, n as usize);
        assert_eq!(fast.lt_set(v(n - 1)), &[] as &[u32]);
        assert_eq!(fast.stats.pops, n as u64);
    }

    #[test]
    fn empty_system() {
        let sol = solve(&[], 0);
        assert_eq!(sol.stats.pops, 0);
        assert_eq!(sol.size_histogram(), Vec::<(usize, usize)>::new());
    }

    mod properties {
        use super::*;
        use crate::test_systems::{grounded_systems, systems};
        use proptest::prelude::*;

        proptest! {
            /// The SCC solver computes the same greatest fixpoint as the
            /// paper's worklist solver on arbitrary constraint systems.
            #[test]
            fn fast_solver_agrees_with_baseline((cs, n) in systems()) {
                let base = solve_worklist(&cs, n);
                let fast = solve(&cs, n);
                for x in 0..n {
                    let x = VarId::from_index(x);
                    prop_assert_eq!(base.lt_set(x), fast.lt_set(x), "LT({})", x);
                }
                prop_assert_eq!(base.stats.frozen_tops, fast.stats.frozen_tops);
            }

            /// Fully-grounded random systems (every variable defined)
            /// also agree, so the schedules are checked on cycles that no
            /// undefined variable breaks.
            #[test]
            fn fast_solver_agrees_on_grounded_systems((cs, n) in grounded_systems()) {
                let base = solve_worklist(&cs, n);
                let fast = solve(&cs, n);
                for x in 0..n {
                    let x = VarId::from_index(x);
                    prop_assert_eq!(base.lt_set(x), fast.lt_set(x), "LT({})", x);
                }
            }

            /// On *acyclic* systems the fast solver evaluates every
            /// constraint exactly once — the baseline can never beat
            /// that. (On cyclic systems the bound is empirical, not a
            /// theorem: a lucky FIFO order can occasionally stabilise a
            /// cycle in fewer pops than the local SCC iteration spends;
            /// `tests/solvers.rs` checks the whole evaluation corpus.)
            #[test]
            fn acyclic_systems_take_one_eval_per_constraint(
                (cs, n) in systems()
            ) {
                // Make the system acyclic: constraint for x may only
                // read variables strictly below x.
                let acyclic: Vec<C> = cs
                    .into_iter()
                    .map(|c| {
                        let x = c.defined();
                        let clamp = |s: VarId| VarId::from_index(s.index() % x.index().max(1));
                        match c {
                            C::Init { .. } | C::Copy { .. } if x.index() == 0 => C::Init { x },
                            C::Init { x } => C::Init { x },
                            C::Copy { x, source } => C::Copy { x, source: clamp(source) },
                            C::Union { x, elems, sources } if x.index() > 0 => C::Union {
                                x,
                                elems,
                                sources: sources.into_iter().map(clamp).collect(),
                            },
                            C::Inter { x, sources } if x.index() > 0 => C::Inter {
                                x,
                                sources: sources.into_iter().map(clamp).collect(),
                            },
                            other => C::Init { x: other.defined() },
                        }
                    })
                    .collect();
                let base = solve_worklist(&acyclic, n);
                let fast = solve(&acyclic, n);
                prop_assert_eq!(fast.stats.pops, acyclic.len() as u64);
                prop_assert!(fast.stats.pops <= base.stats.pops);
                for x in 0..n {
                    let x = VarId::from_index(x);
                    prop_assert_eq!(base.lt_set(x), fast.lt_set(x));
                }
            }
        }
    }
}
