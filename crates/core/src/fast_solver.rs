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
//! 1. **Topological scheduling.** After a topological peel of the
//!    acyclic bulk, the residual constraint dependency graph is condensed
//!    into strongly connected components by the workspace's one Tarjan,
//!    [`sraa_ir::scc::tarjan`] (iterative, so deep chains cannot overflow
//!    the stack; components come back in one flat CSR, since singletons
//!    dominate), and solved dependencies-first. Acyclic regions — the vast majority of real systems, see the
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
//! 3. **One lattice store, one component evaluator.** Both strategies
//!    evaluate constraints through the same
//!    [`DenseStore`](crate::lattice::DenseStore) sorted-slice arena, with
//!    a symbolic ⊤, and every remaining cyclic component is solved by
//!    [`iterate_component`] (a member-local FIFO worklist). Real cyclic
//!    components are tiny — three constraints at most on every corpus
//!    the figures and the benchmark draw from — so no wider
//!    representation pays for itself. This solver contributes
//!    *scheduling only*: it is the one production fixpoint,
//!    [`solve`](crate::solve), and returns the same [`Solution`] type as
//!    the worklist reference, [`solve_worklist`](crate::solve_worklist).
//!
//! The `scalability` binary prints the effect (evaluations and wall clock
//! per strategy), and `tests/work_counters.rs` pins the evaluation counts.

use crate::constraints::Constraint;
use crate::lattice::{iterate_component, ComponentCtx, LatticeStore};
use crate::solver::{Solution, SolveStats};
use sraa_ir::scc::tarjan;

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
    let deps = |ci: u32| &edges[offsets[ci as usize] as usize..offsets[ci as usize + 1] as usize];

    let sccs = tarjan(constraints.len(), |ci| deps(ci).iter().copied(), |ci| active[ci as usize]);
    let components = sccs.iter();
    stats.sccs += components.len();

    // Tarjan emits components dependencies-first, so by the time a
    // component is processed every external read is final.
    for comp in components {
        let cyclic = comp.len() > 1 || deps(comp[0]).contains(&comp[0]);
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
        iterate_component(&mut store, &cx, &mut stats);
    }

    store.freeze(stats)
}

#[cfg(test)]
mod tests {
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
