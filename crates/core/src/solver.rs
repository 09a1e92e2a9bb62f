//! The fixpoint entry points — [`solve`], the one production solve, and
//! [`solve_worklist`], the paper's Section 3.4 worklist kept as its
//! reference — and the [`Solution`] / [`SolveStats`] types both produce.
//!
//! Every `LT(x)` starts at ⊤ = `V` (the set of all program variables) and
//! decreases monotonically until a fixed point — the greatest fixpoint
//! over the lattice `PV = ⟨V, ∩, ⊥ = ∅, ⊤ = V, ⊆⟩` (paper Theorem 3.7).
//! Rather than materialising `V` per variable (quadratic memory), ⊤ is
//! represented symbolically; the sets themselves live in the one lattice
//! store (`DenseStore`), shared by both schedules. [`solve`] condenses the
//! constraint graph into SCCs (see the `fast_solver` module); the worklist
//! differs only in scheduling, and no production path runs it.
//!
//! The worklist counts pops: the paper reports that, in practice, each
//! constraint is visited ≈ 2.12 times before the fixpoint, which is what
//! makes the cubic worst case behave linearly ([`SolveStats`] reproduces
//! that measurement; `scalability` prints it).
//!
//! Variables whose set is still ⊤ at the fixpoint can only belong to code
//! unreachable from any grounded definition (e.g. dead functions); the
//! store's freeze step conservatively demotes them to ∅ so that queries
//! never rely on vacuous facts.

use crate::constraints::Constraint;
use crate::fast_solver::solve_fast_impl;
use crate::lattice::{DenseStore, LatticeStore};
use crate::var_index::VarId;

/// Solves the constraint system over `num_vars` variables — the one
/// production fixpoint: SCC condensation over a `DenseStore`, exactly
/// one evaluation per constraint on acyclic systems.
pub fn solve(constraints: &[Constraint], num_vars: usize) -> Solution {
    solve_fast_impl(constraints, num_vars, DenseStore::new(num_vars))
}

/// The paper's §3.4 FIFO worklist over the same store: the reference
/// [`solve`] is tested against and the source of the paper's pop counts
/// (≈ 2 per constraint). Same [`Solution`], different schedule; only
/// tests and the `scalability` figure call it.
pub fn solve_worklist(constraints: &[Constraint], num_vars: usize) -> Solution {
    solve_impl(constraints, num_vars, DenseStore::new(num_vars))
}

/// Counters for the scalability study (paper §4.2 and Figure 11), shared
/// by both solver strategies. The worklist solver leaves the SCC fields
/// at zero; the per-phase and cache fields are filled by the
/// [`DisambiguationEngine`](crate::DisambiguationEngine) after the solve.
///
/// Equality deliberately **ignores the two wall-clock fields**
/// (`summary_build_ns`, `final_solve_ns`): every other counter is
/// deterministic for a given input, and the differential tests rely on
/// comparing stats across runs and solver strategies.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveStats {
    /// Number of constraints solved.
    pub constraints: usize,
    /// Number of variables in the system.
    pub variables: usize,
    /// Constraint evaluations until the fixed point: worklist pops for
    /// the baseline strategy (≈ 2 × constraints in practice), per-SCC
    /// evaluations for the condensation strategy.
    pub pops: u64,
    /// Variables still ⊤ at the fixpoint, demoted to ∅ by the freeze.
    pub frozen_tops: usize,
    /// Strongly connected components in the constraint dependency graph
    /// (SCC strategy only; 0 for the worklist).
    pub sccs: usize,
    /// Components with more than one constraint (or a self-loop).
    pub cyclic_sccs: usize,
    /// Cyclic components short-circuited as union-only (stay ⊤, frozen ∅).
    pub union_cycles: usize,
    /// Wall-clock nanoseconds the engine spent building interprocedural
    /// summaries (0 in intraprocedural mode). Excluded from equality.
    pub summary_build_ns: u64,
    /// Wall-clock nanoseconds of the module-wide fixpoint solve(s) —
    /// the initial solve plus any parameter-pair refinement re-solves.
    /// Excluded from equality.
    pub final_solve_ns: u64,
    /// Warm-run summary-cache hits (functions reused; see
    /// [`CacheOutcome`](crate::CacheOutcome)). 0 unless the build was
    /// handed a prior in-memory [`SummaryCache`](crate::SummaryCache), as
    /// the daemon does on a re-upload.
    pub cache_hits: u32,
    /// Warm-run summary-cache misses (functions absent from the cache).
    pub cache_misses: u32,
    /// Warm-run summary-cache invalidations (entries whose key changed).
    pub cache_invalidated: u32,
    /// Shared-store hits (functions whose content-addressed key was
    /// already solved by *any* module or process publishing into the
    /// store). 0 without `--shared-store`.
    pub store_hits: u32,
    /// Shared-store misses (keys absent from the store; solved cold and
    /// then published).
    pub store_misses: u32,
    /// Summaries this run newly inserted into the shared store.
    pub store_published: u32,
}

impl PartialEq for SolveStats {
    fn eq(&self, other: &Self) -> bool {
        // Everything but the wall-clock fields.
        (
            self.constraints,
            self.variables,
            self.pops,
            self.frozen_tops,
            self.sccs,
            self.cyclic_sccs,
            self.union_cycles,
        ) == (
            other.constraints,
            other.variables,
            other.pops,
            other.frozen_tops,
            other.sccs,
            other.cyclic_sccs,
            other.union_cycles,
        ) && (
            self.cache_hits,
            self.cache_misses,
            self.cache_invalidated,
            self.store_hits,
            self.store_misses,
            self.store_published,
        ) == (
            other.cache_hits,
            other.cache_misses,
            other.cache_invalidated,
            other.store_hits,
            other.store_misses,
            other.store_published,
        )
    }
}

impl Eq for SolveStats {}

impl SolveStats {
    /// Evaluations per constraint — the paper reports ≈ 2.12 on its
    /// corpus for the worklist; the SCC strategy achieves exactly 1.0 on
    /// acyclic systems.
    pub fn pops_per_constraint(&self) -> f64 {
        if self.constraints == 0 {
            0.0
        } else {
            self.pops as f64 / self.constraints as f64
        }
    }
}

/// The solved less-than relation, in one flat CSR:
/// `data[offsets[x]..offsets[x+1]]` is `LT(x)`, sorted ascending. Both
/// strategies produce it through the same lattice store, so downstream
/// consumers cannot tell them apart (the differential tests insist).
#[derive(Clone, Debug)]
pub struct Solution {
    offsets: Vec<u32>,
    data: Vec<u32>,
    /// Sorted raw ids that were still ⊤ pre-freeze (dead/ungrounded code).
    frozen: Box<[u32]>,
    /// Solver statistics.
    pub stats: SolveStats,
}

impl Solution {
    /// A solution over compacted CSR storage (a lattice store's freeze;
    /// `stats.frozen_tops` is already set by the caller).
    pub(crate) fn from_flat(
        offsets: Vec<u32>,
        data: Vec<u32>,
        frozen: Box<[u32]>,
        stats: SolveStats,
    ) -> Self {
        debug_assert_eq!(stats.frozen_tops, frozen.len());
        Self { offsets, data, frozen, stats }
    }

    /// Whether variable `a` is strictly less than `b` (i.e. `a ∈ LT(b)`).
    pub fn less_than(&self, a: VarId, b: VarId) -> bool {
        b.index() < self.num_vars() && self.lt_set(b).binary_search(&a.raw()).is_ok()
    }

    /// The `LT` set of `x` as a sorted slice of raw [`VarId`]s.
    pub fn lt_set(&self, x: VarId) -> &[u32] {
        &self.data[self.offsets[x.index()] as usize..self.offsets[x.index() + 1] as usize]
    }

    /// The `LT` set of `x` in ascending [`VarId`] order.
    pub fn lt_vars(&self, x: VarId) -> impl Iterator<Item = VarId> + '_ {
        self.lt_set(x).iter().map(|&i| VarId::new(i))
    }

    /// Whether `x` was still ⊤ at the fixpoint (and therefore frozen to
    /// ∅). Such variables sit in code unreachable from any grounded
    /// definition; the raw greatest fixpoint would keep them at `V`.
    pub fn was_top(&self, x: VarId) -> bool {
        self.frozen.binary_search(&(x.index() as u32)).is_ok()
    }

    /// Number of variables in the solution.
    pub fn num_vars(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Histogram entry: how many variables have an `LT` set of size `n`?
    /// The paper observes that over 95% of the sets hold ≤ 2 elements.
    pub fn size_histogram(&self) -> Vec<(usize, usize)> {
        let mut counts: std::collections::BTreeMap<usize, usize> = Default::default();
        for x in 0..self.num_vars() {
            *counts.entry(self.lt_set(VarId::from_index(x)).len()).or_default() += 1;
        }
        counts.into_iter().collect()
    }
}

/// The paper's FIFO worklist over `store`: seeded with every constraint
/// in order, re-enqueueing the readers of each variable whose set
/// changed. Reached through [`solve_worklist`].
pub(crate) fn solve_impl<S: LatticeStore>(
    constraints: &[Constraint],
    num_vars: usize,
    mut store: S,
) -> Solution {
    // dependents[v] = indexes of constraints whose RHS reads LT(v), in
    // CSR form (two counting passes; the nested-Vec equivalent is the
    // worklist solver's single biggest allocation cost).
    let mut dep_offsets = vec![0u32; num_vars + 1];
    for c in constraints {
        for r in c.reads() {
            dep_offsets[r.index() + 1] += 1;
        }
    }
    for i in 0..num_vars {
        dep_offsets[i + 1] += dep_offsets[i];
    }
    let mut cursor: Vec<u32> = dep_offsets[..num_vars].to_vec();
    let mut dep_edges = vec![0u32; dep_offsets[num_vars] as usize];
    for (ci, c) in constraints.iter().enumerate() {
        for r in c.reads() {
            dep_edges[cursor[r.index()] as usize] = ci as u32;
            cursor[r.index()] += 1;
        }
    }

    let mut stats =
        SolveStats { constraints: constraints.len(), variables: num_vars, ..Default::default() };

    // Seed with every constraint, in order.
    let mut worklist: std::collections::VecDeque<u32> = (0..constraints.len() as u32).collect();
    let mut on_list = vec![true; constraints.len()];

    while let Some(ci) = worklist.pop_front() {
        on_list[ci as usize] = false;
        stats.pops += 1;
        let c = &constraints[ci as usize];
        if store.update(c).changed() {
            let x = c.defined().index();
            for &d in &dep_edges[dep_offsets[x] as usize..dep_offsets[x + 1] as usize] {
                if !on_list[d as usize] {
                    on_list[d as usize] = true;
                    worklist.push_back(d);
                }
            }
        }
    }

    store.freeze(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::Constraint as C;

    fn v(i: u32) -> VarId {
        VarId::new(i)
    }

    fn vs(ids: &[u32]) -> Vec<VarId> {
        ids.iter().copied().map(VarId::new).collect()
    }

    /// The paper's Example 3.4 constraint system (from its Figure 6
    /// program) with the variable numbering
    /// x0=0, x1=1, x2=2, x3=3, x4=4, x5=5, x6=6, x1t=7, x1f=8, x4t=9, x4f=10.
    fn example_3_4() -> Vec<C> {
        vec![
            C::Init { x: v(0) },                                         // LT(x0) = ∅
            C::Union { x: v(1), elems: vs(&[0]), sources: vs(&[0]) },    // LT(x1) = {x0} ∪ LT(x0)
            C::Inter { x: v(2), sources: vs(&[1, 3]) },                  // LT(x2) = LT(x1) ∩ LT(x3)
            C::Union { x: v(3), elems: vs(&[2]), sources: vs(&[2]) },    // LT(x3) = {x2} ∪ LT(x2)
            C::Init { x: v(4) },                                         // LT(x4) = ∅
            C::Union { x: v(5), elems: vs(&[4]), sources: vs(&[2]) },    // LT(x5) = {x4} ∪ LT(x2)
            C::Union { x: v(7), elems: vs(&[9]), sources: vs(&[9, 1]) }, // LT(x1t)
            C::Copy { x: v(8), source: v(1) },                           // LT(x1f) = LT(x1)
            C::Union { x: v(10), elems: vec![], sources: vs(&[8, 4]) },  // LT(x4f)
            C::Copy { x: v(9), source: v(4) },                           // LT(x4t) = LT(x4)
            C::Inter { x: v(6), sources: vs(&[3, 9, 4]) },               // LT(x6)
        ]
    }

    /// The paper's Example 3.5 expected fixpoint, literally.
    #[test]
    fn example_3_5_fixpoint() {
        let sol = solve_worklist(&example_3_4(), 11);
        let set = |x: u32| sol.lt_set(v(x)).to_vec();
        assert_eq!(set(0), vec![] as Vec<u32>, "LT(x0) = ∅");
        assert_eq!(set(4), vec![] as Vec<u32>, "LT(x4) = ∅");
        assert_eq!(set(9), vec![] as Vec<u32>, "LT(x4t) = ∅");
        assert_eq!(set(6), vec![] as Vec<u32>, "LT(x6) = ∅");
        assert_eq!(set(1), vec![0], "LT(x1) = {{x0}}");
        assert_eq!(set(2), vec![0], "LT(x2) = {{x0}}");
        assert_eq!(set(10), vec![0], "LT(x4f) = {{x0}}");
        assert_eq!(set(8), vec![0], "LT(x1f) = {{x0}}");
        assert_eq!(set(3), vec![0, 2], "LT(x3) = {{x0, x2}}");
        assert_eq!(set(5), vec![0, 4], "LT(x5) = {{x0, x4}}");
        assert_eq!(set(7), vec![0, 9], "LT(x1t) = {{x0, x4t}}");
    }

    #[test]
    fn transitivity_through_union_chains() {
        // x1 = x0 + 1; x2 = x1 + 1; x3 = x2 + 1 → LT(x3) = {x0, x1, x2}.
        let cs = vec![
            C::Init { x: v(0) },
            C::Union { x: v(1), elems: vs(&[0]), sources: vs(&[0]) },
            C::Union { x: v(2), elems: vs(&[1]), sources: vs(&[1]) },
            C::Union { x: v(3), elems: vs(&[2]), sources: vs(&[2]) },
        ];
        let sol = solve_worklist(&cs, 4);
        assert_eq!(sol.lt_set(v(3)), &[0, 1, 2]);
        assert!(sol.less_than(v(0), v(3)), "transitive closure: x0 < x3");
        assert_eq!(sol.lt_vars(v(3)).collect::<Vec<_>>(), vs(&[0, 1, 2]));
    }

    #[test]
    fn loop_phi_reaches_fixpoint() {
        // i = φ(c, i2); i2 = i + 1, with c grounded at ∅.
        let cs = vec![
            C::Init { x: v(0) },                                      // c
            C::Inter { x: v(1), sources: vs(&[0, 2]) },               // i
            C::Union { x: v(2), elems: vs(&[1]), sources: vs(&[1]) }, // i2
        ];
        let sol = solve_worklist(&cs, 3);
        assert_eq!(sol.lt_set(v(1)), &[] as &[u32]);
        assert_eq!(sol.lt_set(v(2)), &[1]);
        assert!(sol.stats.pops >= cs.len() as u64);
    }

    #[test]
    fn tops_are_frozen_to_empty() {
        // A union cycle with no grounding (dead code): stays ⊤, frozen.
        let cs = vec![
            C::Union { x: v(0), elems: vs(&[1]), sources: vs(&[1]) },
            C::Union { x: v(1), elems: vs(&[0]), sources: vs(&[0]) },
        ];
        let sol = solve_worklist(&cs, 2);
        assert_eq!(sol.stats.frozen_tops, 2);
        assert!(!sol.less_than(v(0), v(1)), "frozen ⊤ must answer conservatively");
        assert!(!sol.less_than(v(1), v(0)));
        assert!(sol.was_top(v(0)) && sol.was_top(v(1)));
    }

    #[test]
    fn frozen_tracking_distinguishes_grounded_vars() {
        let cs =
            vec![C::Init { x: v(0) }, C::Union { x: v(1), elems: vs(&[0]), sources: vs(&[0]) }];
        let sol = solve_worklist(&cs, 3); // v2 is undefined → stays ⊤ → frozen
        assert!(!sol.was_top(v(0)) && !sol.was_top(v(1)));
        assert!(sol.was_top(v(2)));
        assert_eq!(sol.stats.frozen_tops, 1);
    }

    #[test]
    fn pops_stay_near_linear() {
        // A long chain: every constraint should be visited O(1) times.
        let n = 1000u32;
        let mut cs = vec![C::Init { x: v(0) }];
        for i in 1..n {
            cs.push(C::Union { x: v(i), elems: vs(&[i - 1]), sources: vs(&[i - 1]) });
        }
        let sol = solve_worklist(&cs, n as usize);
        assert!(
            sol.stats.pops_per_constraint() <= 3.0,
            "chain should be ~1 pop per constraint, got {}",
            sol.stats.pops_per_constraint()
        );
        assert_eq!(sol.lt_set(v(n - 1)).len(), n as usize - 1);
    }

    #[test]
    fn histogram_counts_set_sizes() {
        let cs = vec![
            C::Init { x: v(0) },
            C::Union { x: v(1), elems: vs(&[0]), sources: vs(&[0]) },
            C::Union { x: v(2), elems: vs(&[1]), sources: vs(&[1]) },
        ];
        let sol = solve_worklist(&cs, 3);
        let h = sol.size_histogram();
        assert_eq!(h, vec![(0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    fn empty_system() {
        let sol = solve_worklist(&[], 0);
        assert_eq!(sol.stats.pops, 0);
        assert_eq!(sol.stats.constraints, 0);
        assert_eq!(sol.num_vars(), 0);
    }
}
