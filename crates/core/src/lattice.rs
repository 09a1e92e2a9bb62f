//! Lattice storage — the `LatticeStore` seam both fixpoint solvers
//! propagate through, and its one production implementation,
//! [`DenseStore`].
//!
//! The solvers in [`crate::solver`] and [`crate::fast_solver`] decide
//! *scheduling* only (FIFO worklist vs SCC topological order, with
//! [`iterate_component`] the one evaluator of a cyclic component).
//! Everything about how `LT` sets are *represented* lives here, behind
//! one small contract: a store holds the current set of every variable,
//! re-evaluates one constraint at a time (`LatticeStore::update`) and
//! reports whether the defined variable's set actually changed
//! (`ChangeResult`), so a solver re-enqueues successors only on observed
//! change.
//!
//! `DenseStore` is a flat CSR-style arena: all explicit sets live in one
//! contiguous `Vec<u32>` addressed by per-variable `(offset, len)`.
//! Because the lattice only descends (`new ⊆ old`, paper Theorem 3.7), a
//! re-evaluation can almost always shrink a set *in place*; fresh arena
//! space is appended only on a variable's first explicit write, and the
//! dead words shrinks leave behind are dropped when [`LatticeStore::freeze`]
//! copies the live windows out. The `Union`/`Inter` evaluations run over
//! the sorted-set kernels of `crate::setops` (two-pointer intersection,
//! run-copying merge union). ⊤ stays symbolic (an offset sentinel).
//!
//! The trait stays a seam so the test-only reference store
//! (`crate::lt_set::RefStore`, the paper's set algebra over one
//! `Arc<[u32]>` per variable) plugs into the same solvers: the property
//! tests below hold `DenseStore` to the reference's sets, frozen ⊤s and
//! exact `pops` schedule.

use crate::constraints::Constraint;
use crate::setops::{intersect_in_place, union_merge};
use crate::solver::{Solution, SolveStats};
use std::collections::VecDeque;

/// Outcome of re-evaluating one constraint: did the defined variable's
/// set change? Solvers re-enqueue dependents only on `Changed`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ChangeResult {
    /// The set shrank (or left ⊤): successors must be revisited.
    Changed,
    /// The fixpoint for this constraint is locally stable.
    Unchanged,
}

impl ChangeResult {
    /// `true` for [`ChangeResult::Changed`].
    #[inline]
    pub(crate) fn changed(self) -> bool {
        matches!(self, ChangeResult::Changed)
    }
}

/// Storage of the per-variable `LT` sets during a solve. Implementations
/// own the representation; solvers own the schedule.
pub(crate) trait LatticeStore {
    /// Re-evaluates `c`'s right-hand side over the current sets and
    /// stores the result for `c.defined()`, reporting whether it changed.
    fn update(&mut self, c: &Constraint) -> ChangeResult;

    /// Final step: demote residual ⊤ to ∅ (the paper's freeze) and
    /// package the [`Solution`].
    fn freeze(self, stats: SolveStats) -> Solution
    where
        Self: Sized;
}

/// One cyclic component of the constraint dependency graph, with its
/// member-local dependents in CSR form. Built once per component by the
/// SCC solver and iterated by [`iterate_component`].
pub(crate) struct ComponentCtx<'a> {
    /// The full constraint system.
    pub constraints: &'a [Constraint],
    /// Member constraint indices, in Tarjan emission order.
    pub comp: &'a [u32],
    dep_offsets: Vec<u32>,
    dep_edges: Vec<u32>,
}

impl<'a> ComponentCtx<'a> {
    /// Builds the member-local dependents CSR: for the member at local
    /// index `l`, `dependents(l)` lists the local indices of members that
    /// read the variable `l` defines, in member-traversal order (the same
    /// order a per-member `Vec` push would produce, so the propagation
    /// schedule is reproducible).
    pub(crate) fn build(constraints: &'a [Constraint], comp: &'a [u32], defining: &[u32]) -> Self {
        let k = comp.len();
        let mut order: Vec<(u32, u32)> =
            comp.iter().enumerate().map(|(l, &ci)| (ci, l as u32)).collect();
        order.sort_unstable();
        let local_of = |ci: u32| -> Option<u32> {
            order.binary_search_by_key(&ci, |&(c, _)| c).ok().map(|p| order[p].1)
        };

        let mut dep_offsets = vec![0u32; k + 1];
        for &ci in comp {
            for r in constraints[ci as usize].reads() {
                let d = defining[r.index()];
                if d != u32::MAX {
                    if let Some(ld) = local_of(d) {
                        dep_offsets[ld as usize + 1] += 1;
                    }
                }
            }
        }
        for i in 0..k {
            dep_offsets[i + 1] += dep_offsets[i];
        }
        let mut cursor: Vec<u32> = dep_offsets[..k].to_vec();
        let mut dep_edges = vec![0u32; dep_offsets[k] as usize];
        for (l, &ci) in comp.iter().enumerate() {
            for r in constraints[ci as usize].reads() {
                let d = defining[r.index()];
                if d != u32::MAX {
                    if let Some(ld) = local_of(d) {
                        dep_edges[cursor[ld as usize] as usize] = l as u32;
                        cursor[ld as usize] += 1;
                    }
                }
            }
        }
        Self { constraints, comp, dep_offsets, dep_edges }
    }

    /// Local indices of the members reading the variable member `l`
    /// defines.
    #[inline]
    fn dependents(&self, l: usize) -> &[u32] {
        &self.dep_edges[self.dep_offsets[l] as usize..self.dep_offsets[l + 1] as usize]
    }
}

/// Chaotic iteration over one cyclic component, to the local greatest
/// fixpoint: a FIFO worklist over local member indices, seeded in
/// emission order, re-enqueueing only the dependents of constraints whose
/// set changed. The schedule is part of the printed output (`pops`), so
/// every store runs exactly this loop. Index-based scratch throughout — no
/// hashing on the solver's hottest path.
pub(crate) fn iterate_component<S: LatticeStore>(
    store: &mut S,
    cx: &ComponentCtx<'_>,
    stats: &mut SolveStats,
) {
    let k = cx.comp.len();
    let mut worklist: VecDeque<u32> = (0..k as u32).collect();
    let mut on_list = vec![true; k];
    while let Some(l) = worklist.pop_front() {
        on_list[l as usize] = false;
        stats.pops += 1;
        if store.update(&cx.constraints[cx.comp[l as usize] as usize]).changed() {
            for &d in cx.dependents(l as usize) {
                if !on_list[d as usize] {
                    on_list[d as usize] = true;
                    worklist.push_back(d);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Dense backend
// ---------------------------------------------------------------------------

/// Sentinel offset marking a variable still at symbolic ⊤.
const TOP_OFF: u32 = u32::MAX;

/// The flat backend: every explicit set is a `(offset, len)` window into
/// one contiguous arena. First writes append; later writes shrink in
/// place (the lattice only descends), leaving dead words behind the
/// shrunk window until freeze copies the live windows out. ⊤ is the
/// offset sentinel.
pub(crate) struct DenseStore {
    off: Vec<u32>,
    len: Vec<u32>,
    arena: Vec<u32>,
    scratch: Vec<u32>,
    /// Second scratch set, ping-ponged with `scratch` by the merge-union
    /// evaluation of `Union` constraints.
    scratch2: Vec<u32>,
}

impl DenseStore {
    pub(crate) fn new(num_vars: usize) -> Self {
        Self {
            off: vec![TOP_OFF; num_vars],
            len: vec![0; num_vars],
            // Most variables get a small first write; one reallocation-
            // amortised arena replaces per-set allocations entirely.
            arena: Vec::with_capacity(num_vars.saturating_mul(2)),
            scratch: Vec::new(),
            scratch2: Vec::new(),
        }
    }

    #[inline]
    fn is_top(&self, v: usize) -> bool {
        self.off[v] == TOP_OFF
    }

    #[inline]
    fn slice_bounds(&self, v: usize) -> (usize, usize) {
        (self.off[v] as usize, self.len[v] as usize)
    }

    fn make_top(&mut self, x: usize) -> ChangeResult {
        if self.off[x] == TOP_OFF {
            ChangeResult::Unchanged
        } else {
            // Cannot happen under descending evaluation, but keep the
            // store total: the abandoned window is dead arena.
            self.off[x] = TOP_OFF;
            self.len[x] = 0;
            ChangeResult::Changed
        }
    }

    /// Commits `self.scratch` as the new set of `x` if it differs from
    /// the current one.
    fn commit(&mut self, x: usize) -> ChangeResult {
        if self.off[x] != TOP_OFF {
            let (o, l) = self.slice_bounds(x);
            if self.arena[o..o + l] == self.scratch[..] {
                return ChangeResult::Unchanged;
            }
        }
        self.commit_changed(x)
    }

    /// Commits `self.scratch` as the new set of `x`, known to differ.
    fn commit_changed(&mut self, x: usize) -> ChangeResult {
        debug_assert!(self.scratch.windows(2).all(|w| w[0] < w[1]), "sets are sorted + dedup'd");
        #[cfg(debug_assertions)]
        if self.off[x] != TOP_OFF {
            let (o, l) = self.slice_bounds(x);
            let old = &self.arena[o..o + l];
            debug_assert!(
                self.scratch.iter().all(|e| old.binary_search(e).is_ok()),
                "LT(v{x}) must only shrink"
            );
        }
        let n = self.scratch.len();
        if self.off[x] != TOP_OFF && n <= self.len[x] as usize {
            let o = self.off[x] as usize;
            self.arena[o..o + n].copy_from_slice(&self.scratch);
        } else {
            // A first write, or (unreachable under descending evaluation)
            // a growing one whose abandoned window becomes dead arena.
            let o = self.arena.len();
            assert!(o + n < TOP_OFF as usize, "dense lattice arena overflow");
            self.arena.extend_from_slice(&self.scratch);
            self.off[x] = o as u32;
        }
        self.len[x] = n as u32;
        ChangeResult::Changed
    }
}

impl LatticeStore for DenseStore {
    fn update(&mut self, c: &Constraint) -> ChangeResult {
        let x = c.defined().index();
        match c {
            Constraint::Init { .. } => {
                self.scratch.clear();
                self.commit(x)
            }
            Constraint::Copy { source, .. } => {
                let s = source.index();
                if self.is_top(s) {
                    return self.make_top(x);
                }
                let (so, sl) = self.slice_bounds(s);
                if !self.is_top(x) {
                    let (xo, xl) = self.slice_bounds(x);
                    if self.arena[xo..xo + xl] == self.arena[so..so + sl] {
                        return ChangeResult::Unchanged;
                    }
                }
                self.scratch.clear();
                // Split borrows: scratch and arena are disjoint fields.
                let (so, sl) = self.slice_bounds(s);
                self.scratch.extend_from_slice(&self.arena[so..so + sl]);
                self.commit_changed(x)
            }
            Constraint::Union { elems, sources, .. } => {
                if sources.iter().any(|s| self.is_top(s.index())) {
                    return self.make_top(x); // {x} ∪ ⊤ = ⊤
                }
                self.scratch.clear();
                self.scratch.extend(elems.iter().map(|e| e.raw()));
                self.scratch.sort_unstable();
                self.scratch.dedup();
                // Fold each (sorted) source set in with a run-copying
                // merge, ping-ponging between the two scratch buffers —
                // no concat-sort-dedup over the whole accumulation.
                for s in sources {
                    let (o, l) = self.slice_bounds(s.index());
                    if l == 0 {
                        continue;
                    }
                    self.scratch2.clear();
                    union_merge(&mut self.scratch2, &self.scratch, &self.arena[o..o + l]);
                    std::mem::swap(&mut self.scratch, &mut self.scratch2);
                }
                self.commit(x)
            }
            Constraint::Inter { sources, .. } => {
                debug_assert!(!sources.is_empty(), "empty intersections are generated as Init");
                // ⊤ is the identity of ∩: seed from the smallest explicit
                // source so the working set only shrinks.
                let mut seed: Option<usize> = None;
                for s in sources {
                    let si = s.index();
                    if !self.is_top(si) && seed.is_none_or(|b| self.len[si] < self.len[b]) {
                        seed = Some(si);
                    }
                }
                let Some(seed) = seed else {
                    return self.make_top(x); // all sources still ⊤
                };
                self.scratch.clear();
                let (o, l) = self.slice_bounds(seed);
                self.scratch.extend_from_slice(&self.arena[o..o + l]);
                for s in sources {
                    let si = s.index();
                    if si == seed || self.is_top(si) {
                        continue;
                    }
                    if self.scratch.is_empty() {
                        break;
                    }
                    let (o, l) = self.slice_bounds(si);
                    intersect_in_place(&mut self.scratch, &self.arena[o..o + l]);
                }
                self.commit(x)
            }
        }
    }

    fn freeze(self, mut stats: SolveStats) -> Solution {
        let n = self.off.len();
        let mut frozen = Vec::new();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let total: usize =
            (0..n).map(|i| if self.off[i] == TOP_OFF { 0 } else { self.len[i] as usize }).sum();
        let mut data = Vec::with_capacity(total);
        for i in 0..n {
            if self.off[i] == TOP_OFF {
                frozen.push(i as u32);
            } else {
                let (o, l) = (self.off[i] as usize, self.len[i] as usize);
                data.extend_from_slice(&self.arena[o..o + l]);
            }
            offsets.push(data.len() as u32);
        }
        stats.frozen_tops = frozen.len();
        Solution::from_flat(offsets, data, frozen.into_boxed_slice(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::Constraint as C;
    use crate::fast_solver::solve_fast_impl;
    use crate::lt_set::RefStore;
    use crate::solver::solve_impl;
    use crate::var_index::VarId;

    fn v(i: u32) -> VarId {
        VarId::new(i)
    }

    fn vs(ids: &[u32]) -> Vec<VarId> {
        ids.iter().copied().map(VarId::new).collect()
    }

    /// Asserts two solutions are indistinguishable: sets, frozen ⊤s and
    /// the full deterministic statistics (pops included — the schedules
    /// must match, not just the limits).
    fn assert_same(dense: &Solution, reference: &Solution, n: usize) {
        assert_eq!(dense.stats, reference.stats, "stats diverge (pops/sccs/frozen)");
        for x in 0..n {
            let x = VarId::from_index(x);
            assert_eq!(dense.lt_set(x), reference.lt_set(x), "LT({x})");
            assert_eq!(dense.was_top(x), reference.was_top(x), "frozen({x})");
        }
    }

    #[test]
    fn change_result_predicate() {
        assert!(ChangeResult::Changed.changed());
        assert!(!ChangeResult::Unchanged.changed());
    }

    #[test]
    fn dense_store_shrinks_in_place() {
        let mut store = DenseStore::new(3);
        // First write appends.
        store.scratch = vec![1, 2, 3];
        assert!(store.commit(0).changed());
        let arena_len = store.arena.len();
        // Descending rewrite shrinks in place: no arena growth.
        store.scratch = vec![2];
        assert!(store.commit(0).changed());
        assert_eq!(store.arena.len(), arena_len);
        assert_eq!(store.len[0], 1);
        // Identical rewrite is a no-op.
        store.scratch = vec![2];
        assert!(!store.commit(0).changed());
    }

    #[test]
    fn dense_update_matches_reference_semantics() {
        // The example 3.4 kernel exercised constraint-by-constraint.
        let cs = [
            C::Init { x: v(0) },
            C::Union { x: v(1), elems: vs(&[0]), sources: vs(&[0]) },
            C::Inter { x: v(2), sources: vs(&[1, 3]) },
            C::Union { x: v(3), elems: vs(&[2]), sources: vs(&[2]) },
        ];
        let mut dense = DenseStore::new(4);
        let mut reference = RefStore::new(4);
        // Chaotic order, including re-evaluations.
        for &i in &[0usize, 1, 2, 3, 2, 3, 2, 1, 0, 3, 2] {
            let d = dense.update(&cs[i]);
            let r = reference.update(&cs[i]);
            assert_eq!(d, r, "change results diverge at constraint {i}");
        }
        let ds = dense.freeze(SolveStats::default());
        let rs = reference.freeze(SolveStats::default());
        assert_same(&ds, &rs, 4);
    }

    #[test]
    fn intersect_in_place_matches_merge() {
        let mut acc = vec![1, 3, 5, 7];
        intersect_in_place(&mut acc, &[2, 3, 4, 7, 9]);
        assert_eq!(acc, vec![3, 7]);
        let mut acc = vec![1, 2];
        intersect_in_place(&mut acc, &[]);
        assert!(acc.is_empty());
    }

    mod properties {
        use super::*;
        use crate::test_systems::{grounded_systems, systems};
        use proptest::prelude::*;

        /// Both solver strategies over the dense store and over the
        /// reference store.
        fn both_ways(cs: &[C], n: usize) -> [(Solution, Solution); 2] {
            [
                (solve_impl(cs, n, DenseStore::new(n)), solve_impl(cs, n, RefStore::new(n))),
                (
                    solve_fast_impl(cs, n, DenseStore::new(n)),
                    solve_fast_impl(cs, n, RefStore::new(n)),
                ),
            ]
        }

        proptest! {
            /// The dense store computes the reference algebra's solution —
            /// sets, frozen ⊤s, and the full deterministic statistics —
            /// for both solver strategies.
            #[test]
            fn dense_equals_reference((cs, n) in systems()) {
                for (d, r) in both_ways(&cs, n) {
                    prop_assert_eq!(&d.stats, &r.stats, "stats diverge (pops/sccs/frozen)");
                    for x in 0..n {
                        let x = VarId::from_index(x);
                        prop_assert_eq!(d.lt_set(x), r.lt_set(x), "LT({})", x);
                        prop_assert_eq!(d.was_top(x), r.was_top(x), "frozen({})", x);
                    }
                }
            }

            /// Same on fully grounded systems (the shape real constraint
            /// generation produces).
            #[test]
            fn dense_equals_reference_grounded((cs, n) in grounded_systems()) {
                for (d, r) in both_ways(&cs, n) {
                    prop_assert_eq!(&d.stats, &r.stats);
                    for x in 0..n {
                        let x = VarId::from_index(x);
                        prop_assert_eq!(d.lt_set(x), r.lt_set(x), "LT({})", x);
                    }
                }
            }
        }
    }

    /// A large cyclic component, solved by the one component evaluator
    /// and held to the reference algebra: a ring of φ-style `Inter`s
    /// threaded through `Union`s, grounded at one entry, at 48 and at
    /// 1,000 ring nodes (96 and 2,000 members).
    #[test]
    fn large_cycle_agrees_with_reference() {
        for k in [48u32, 1000] {
            let mut cs = vec![C::Init { x: v(0) }];
            for i in 0..k {
                let cur = 1 + 2 * i;
                let nxt = 1 + 2 * ((i + 1) % k);
                // cur = φ(ground, around-the-ring); cur+1 = {cur} ∪ cur.
                cs.push(C::Inter { x: v(cur), sources: vs(&[0, nxt + 1]) });
                cs.push(C::Union { x: v(cur + 1), elems: vs(&[cur]), sources: vs(&[cur]) });
            }
            let n = (1 + 2 * k) as usize;
            let d = solve_fast_impl(&cs, n, DenseStore::new(n));
            assert!(d.stats.cyclic_sccs >= 1, "the ring must condense into a cyclic component");
            // Sets, frozen ⊤s and the exact schedule (`pops`) of the
            // reference store's run.
            assert_same(&d, &solve_fast_impl(&cs, n, RefStore::new(n)), n);
            // And the worklist strategy reaches the same fixpoint.
            let w = solve_impl(&cs, n, RefStore::new(n));
            for x in 0..n {
                let x = VarId::from_index(x);
                assert_eq!(w.lt_set(x), d.lt_set(x), "k={k}: LT({x})");
                assert_eq!(w.was_top(x), d.was_top(x), "k={k}: frozen({x})");
            }
        }
    }
}
