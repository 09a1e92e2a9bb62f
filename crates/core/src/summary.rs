//! Interprocedural **strict-inequality summaries** — the layer that lets
//! `x < len`-style facts cross call boundaries.
//!
//! The paper's analysis is intraprocedural: every call result is grounded
//! at `LT(r) = ∅`, so a helper as trivial as `int next(int i) { return
//! i + 1; }` erases the `i < next(i)` fact its body proves. This module
//! distils, for every function, a **summary** — the set of formal
//! parameters that are strictly less than every value the function can
//! return — and propagates it bottom-up over the SCC condensation of the
//! direct call graph ([`sraa_ir::CallGraph`]):
//!
//! ```text
//!   condensed call graph, callees-first
//!   ┌────────┐      ┌───────────┐      ┌───────────┐
//!   │ leaf g │─────▶│ SCC {f,h} │─────▶│  main …   │
//!   └────────┘      └───────────┘      └───────────┘
//!    solve g's       iterate the        every call site
//!    constraints,    members' solves    r = g(a…) now yields
//!    distil S(g)     to a fixpoint      LT(r) ⊇ {a_j} ∪ LT(a_j)
//!                    (recursion)           for each j ∈ S(g)
//! ```
//!
//! # Per-SCC solves
//!
//! Each component is solved in isolation: its members' Figure-7
//! constraints (with summaries of *earlier* components applied at call
//! sites), plus `Init` grounding for the formal parameters. Grounded
//! params are what makes a distilled fact **context-free** — `param_j ∈
//! LT(ret)` must hold for every caller, so the solve must not assume any
//! caller facts. Variables are remapped into a compact per-component
//! space (`SccSpace`) so a solve costs `O(|SCC|)`, not `O(|module|)`.
//!
//! # Recursion
//!
//! Members of a recursive component read their *own* (and their
//! siblings') summaries at intra-SCC call sites. The fixpoint starts
//! **optimistically** (every parameter assumed `< ret`) and descends
//! until stable — the same greatest-fixpoint treatment the paper gives
//! φ-cycles (Theorem 3.7). Soundness is by induction on the height of a
//! terminating call tree: a fact consumed at height `h` is justified by
//! derivations over strictly smaller trees, bottoming out at
//! non-recursive return paths; claims about calls that never return are
//! vacuous (there is no runtime value to compare). The differential and
//! interpreter-based tests (`tests/interproc.rs`) check exactly this.
//!
//! # What a summary does *not* carry (yet)
//!
//! `ret < param_j` facts (e.g. `return n - 1`) would require editing the
//! *argument's* defining constraint at every call site; caller-specific
//! (context-sensitive) facts and indirect calls are also out of scope.
//! See ROADMAP "Open items".

use crate::constraints::{self, Constraint};
use crate::persist::{SummaryCache, SummaryKeys};
use crate::solver::{solve, Solution};
use crate::store::{SharedSummaryStore, StoreOutcome};
use crate::var_index::{VarId, VarIndex};
use sraa_ir::{CallGraph, Condensation, FuncId, InstKind, Module, Value};
use sraa_range::RangeAnalysis;

/// What one function guarantees about its return value, independent of
/// any calling context.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FunctionSummary {
    /// Sorted indices `j` of formal parameters with `param_j < ret` at
    /// every return site. (`pub(crate)` so `persist` can reconstruct
    /// summaries from their serialized form.)
    pub(crate) args_lt_ret: Box<[u32]>,
}

impl FunctionSummary {
    /// Sorted indices of parameters proven strictly less than every
    /// returned value.
    pub fn args_lt_ret(&self) -> &[u32] {
        &self.args_lt_ret
    }

    /// Number of facts in the summary.
    pub fn facts(&self) -> usize {
        self.args_lt_ret.len()
    }

    /// Whether the summary carries no facts (calls stay opaque).
    pub fn is_empty(&self) -> bool {
        self.args_lt_ret.is_empty()
    }
}

/// Statistics of one bottom-up summary computation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SummaryStats {
    /// Components of the condensed call graph.
    pub sccs: usize,
    /// Components containing a call cycle.
    pub recursive_sccs: usize,
    /// Total per-SCC solves (≥ `sccs` on a cold run; recursion iterates,
    /// and warm runs skip cache-hit components entirely).
    pub solves: u64,
    /// Total `param_j < ret` facts across all functions.
    pub facts: usize,
}

/// How a warm run used the in-memory summary cache, counted per
/// *function* (every function of the module falls in exactly one bucket).
///
/// Deterministic for a given `(module, cache)` pair — the differential
/// tests assert the exact counts against call-graph reverse reachability.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Functions whose cached key matched; their summaries were reused
    /// and their component's solve skipped.
    pub hits: u32,
    /// Functions with no cache entry under their name.
    pub misses: u32,
    /// Functions whose entry exists but whose key changed (the function,
    /// or something it can call, was edited).
    pub invalidated: u32,
}

impl CacheOutcome {
    /// Hits over all classified functions, in `[0, 1]`; `1.0` for an
    /// empty module (nothing *missed*).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.invalidated;
        if total == 0 {
            1.0
        } else {
            f64::from(self.hits) / f64::from(total)
        }
    }
}

/// Per-function summaries for a whole module, in [`FuncId`] order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModuleSummaries {
    /// Indexed by [`FuncId`]; constraint generation reads it at call
    /// sites.
    pub(crate) per_func: Vec<FunctionSummary>,
    /// Computation statistics (component counts, fixpoint iterations).
    pub stats: SummaryStats,
}

impl ModuleSummaries {
    /// Computes all summaries bottom-up over the condensed call graph.
    ///
    /// `module` must already be in e-SSA form with `ranges` computed for
    /// it (the same preconditions as constraint generation).
    ///
    /// Components are solved one at a time in [`Condensation`] order,
    /// callees first, so every call leaving a component reads its
    /// callee's final summary.
    pub fn compute(module: &Module, ranges: &RangeAnalysis, index: &VarIndex) -> Self {
        let cond = CallGraph::build(module).condense();
        Self::walk(module, ranges, index, &cond, None).0
    }

    /// [`ModuleSummaries::compute`] with a **warm path**: components whose
    /// members all hit the per-module `cache` (same name, same
    /// [`SummaryKeys`] key) reuse their stored summaries and skip the
    /// Init-grounded per-SCC solve entirely. Any component the cache
    /// cannot satisfy is then looked up in the content-addressed `store`
    /// by key before being solved cold. The cache wins when both would
    /// hit (it is free — no store lock traffic), so the two compose: the
    /// cache (a daemon's previous upload of the module) answers "did
    /// *this* module change", the store answers "has *anyone* already
    /// solved this exact function".
    ///
    /// Cold components solve as usual — against the already-installed
    /// summaries of their callees, reused or not — so the result is
    /// *identical* to a cold [`ModuleSummaries::compute`] (up to
    /// `stats.solves`, which records the work actually done; the
    /// differential suite in `tests/incremental.rs` holds this to
    /// byte-identical solutions). Computes (and returns) the
    /// [`SummaryKeys`] itself, sharing one call-graph + condensation
    /// build with the solve loop. Publishing to the store is the
    /// caller's job ([`crate::DisambiguationEngine`] publishes every
    /// `(key, summary)` pair after the solve).
    pub fn compute_incremental(
        module: &Module,
        ranges: &RangeAnalysis,
        index: &VarIndex,
        cache: Option<&SummaryCache>,
        store: Option<&SharedSummaryStore>,
    ) -> (Self, SummaryKeys, CacheOutcome, StoreOutcome) {
        let cg = CallGraph::build(module);
        let cond = cg.condense();
        let keys = SummaryKeys::compute_with(module, &cg, &cond);
        let reuse = Reuse { keys: &keys, cache, store };
        let (sums, outcome, store_outcome) = Self::walk(module, ranges, index, &cond, Some(reuse));
        (sums, keys, outcome, store_outcome)
    }

    /// The bottom-up walk shared by both entry points; `reuse` is `None`
    /// on the cold path, which then never needs keys.
    fn walk(
        module: &Module,
        ranges: &RangeAnalysis,
        index: &VarIndex,
        cond: &Condensation,
        reuse: Option<Reuse<'_>>,
    ) -> (Self, CacheOutcome, StoreOutcome) {
        let mut outcome = CacheOutcome::default();
        let mut store_outcome = StoreOutcome::default();
        let mut sums = ModuleSummaries {
            per_func: vec![FunctionSummary::default(); module.num_functions()],
            stats: SummaryStats {
                sccs: cond.len(),
                recursive_sccs: cond.num_recursive(),
                ..Default::default()
            },
        };

        for (ci, members) in cond.bottom_up() {
            // Warm path first: an all-members hit installs the cached
            // summaries and skips the solve. Partial hits cannot happen
            // within a component (members are mutually reachable, so one
            // edit re-keys them all) short of a hash collision; if one
            // ever did, the cold solve below recomputes everything soundly.
            if let Some(Reuse { keys, cache: Some(cache), .. }) = reuse {
                let mut all_hit = true;
                for &f in members {
                    match cache.get(&module.function(f).name) {
                        Some((k, _)) if k == keys.of(f) => outcome.hits += 1,
                        Some(_) => {
                            outcome.invalidated += 1;
                            all_hit = false;
                        }
                        None => {
                            outcome.misses += 1;
                            all_hit = false;
                        }
                    }
                }
                if all_hit {
                    for &f in members {
                        let cached = cache
                            .lookup(&module.function(f).name, keys.of(f))
                            .expect("classified as hit above");
                        sums.per_func[f.index()] = cached.clone();
                    }
                    continue;
                }
            }
            // Shared-store consult, after the per-module cache (a cache
            // hit is free; the store takes a shard lock). The key is
            // content-addressed across modules, so a hit here may come
            // from a different module name, another daemon, or another
            // machine. All-or-nothing per component, like the cache:
            // members share a key-invalidation fate.
            if let Some(Reuse { keys, store: Some(store), .. }) = reuse {
                let found: Option<Vec<FunctionSummary>> =
                    members.iter().map(|&f| store.get(keys.of(f))).collect();
                if let Some(found) = found {
                    store_outcome.hits += members.len() as u32;
                    for (&f, s) in members.iter().zip(found) {
                        sums.per_func[f.index()] = s;
                    }
                    continue;
                }
                store_outcome.misses += members.len() as u32;
            }
            sums.stats.solves += solve_scc(
                module,
                ranges,
                index,
                members,
                cond.is_recursive(ci),
                &mut sums.per_func,
            );
        }

        sums.stats.facts = sums.per_func.iter().map(FunctionSummary::facts).sum();
        (sums, outcome, store_outcome)
    }

    /// The summary of function `f`.
    pub fn of(&self, f: FuncId) -> &FunctionSummary {
        &self.per_func[f.index()]
    }

    /// Total `param_j < ret` facts across the module.
    pub fn facts(&self) -> usize {
        self.stats.facts
    }

    /// `(function, summary)` pairs in ascending [`FuncId`] order.
    pub fn iter(&self) -> impl Iterator<Item = (FuncId, &FunctionSummary)> {
        self.per_func.iter().enumerate().map(|(i, s)| (FuncId::from_index(i), s))
    }
}

/// What the warm path of [`ModuleSummaries::compute_incremental`] may
/// reuse: the module's keys plus the optional cache and store.
#[derive(Clone, Copy)]
struct Reuse<'a> {
    keys: &'a SummaryKeys,
    cache: Option<&'a SummaryCache>,
    store: Option<&'a SharedSummaryStore>,
}

/// Solves one cold component in place: `per_func` holds the final
/// summaries of every component below it, and the members' entries hold
/// the current iterate, which this function refines until it is stable.
/// Returns the number of per-SCC solves it took.
fn solve_scc(
    module: &Module,
    ranges: &RangeAnalysis,
    index: &VarIndex,
    members: &[FuncId],
    recursive: bool,
    per_func: &mut [FunctionSummary],
) -> u64 {
    // Optimistic start for recursion: assume every parameter of every
    // member is < ret, then descend (greatest fixpoint).
    if recursive {
        for &f in members {
            let n = module.function(f).params.len() as u32;
            per_func[f.index()] = FunctionSummary { args_lt_ret: (0..n).collect() };
        }
    }
    let mut solves = 0u64;
    let space = SccSpace::new(module, index, members);
    loop {
        let raw = constraints::generate_scoped(module, ranges, index, members, per_func);
        let local_cs: Vec<Constraint> = raw.iter().map(|c| space.remap(c)).collect();
        let solution = solve(&local_cs, space.len());
        solves += 1;
        let mut changed = false;
        for &f in members {
            let new = distil(module, index, &space, &solution, f);
            if new != per_func[f.index()] {
                per_func[f.index()] = new;
                changed = true;
            }
        }
        // Non-recursive components never read their own summary, so one
        // solve is the fixpoint. Recursive components iterate: the
        // optimistic start only ever *sheds* facts, so the descent is
        // bounded by the total fact count.
        if !recursive || !changed {
            break;
        }
    }
    solves
}

/// Distils `f`'s summary from a solved per-SCC system: `j` is a fact iff
/// every return site's value has `param_j` in its `LT` set. Functions
/// with no value-returning site get the empty summary — their return
/// value never exists, so claims about it would be vacuous (mirroring
/// the solver's ⊤-freeze philosophy).
fn distil(
    module: &Module,
    index: &VarIndex,
    space: &SccSpace,
    solution: &Solution,
    f: FuncId,
) -> FunctionSummary {
    let func = module.function(f);
    let mut ret_vals: Vec<Value> = Vec::new();
    for b in func.block_ids() {
        if let Some(t) = func.terminator(b) {
            if let InstKind::Ret(Some(v)) = func.inst(t).kind {
                ret_vals.push(v);
            }
        }
    }
    if ret_vals.is_empty() {
        return FunctionSummary::default();
    }
    let args_lt_ret: Vec<u32> = (0..func.params.len() as u32)
        .filter(|&j| {
            let p = space.local(index.id(f, func.param_value(j as usize)));
            ret_vals.iter().all(|&v| solution.less_than(p, space.local(index.id(f, v))))
        })
        .collect();
    FunctionSummary { args_lt_ret: args_lt_ret.into() }
}

/// Compact variable numbering for one SCC: the members' (contiguous,
/// per-function) [`VarIndex`] ranges packed side by side, so per-SCC
/// solves allocate `O(|SCC|)` lattice state instead of `O(|module|)`.
struct SccSpace {
    /// `(global_start, global_end, local_start)` per member, sorted by
    /// `global_start`.
    ranges: Vec<(u32, u32, u32)>,
    total: usize,
}

impl SccSpace {
    fn new(module: &Module, index: &VarIndex, members: &[FuncId]) -> Self {
        let mut ranges = Vec::with_capacity(members.len());
        let mut total = 0u32;
        for &f in members {
            let n = module.function(f).num_insts() as u32;
            if n == 0 {
                continue;
            }
            let start = index.id(f, Value::from_index(0)).raw();
            ranges.push((start, start + n, total));
            total += n;
        }
        ranges.sort_unstable_by_key(|r| r.0);
        SccSpace { ranges, total: total as usize }
    }

    fn len(&self) -> usize {
        self.total
    }

    /// Maps a module-wide id into the compact space. The id must belong
    /// to a member function — per-SCC constraints never mention anything
    /// else.
    fn local(&self, id: VarId) -> VarId {
        let g = id.raw();
        let i = self.ranges.partition_point(|&(start, _, _)| start <= g);
        let (start, end, local_start) = self.ranges[i.checked_sub(1).expect("id below all ranges")];
        debug_assert!(g < end, "id {g} outside the SCC's variable ranges");
        VarId::new(local_start + (g - start))
    }

    fn remap(&self, c: &Constraint) -> Constraint {
        match c {
            Constraint::Init { x } => Constraint::Init { x: self.local(*x) },
            Constraint::Copy { x, source } => {
                Constraint::Copy { x: self.local(*x), source: self.local(*source) }
            }
            Constraint::Union { x, elems, sources } => Constraint::Union {
                x: self.local(*x),
                elems: elems.iter().map(|&e| self.local(e)).collect(),
                sources: sources.iter().map(|&s| self.local(s)).collect(),
            },
            Constraint::Inter { x, sources } => Constraint::Inter {
                x: self.local(*x),
                sources: sources.iter().map(|&s| self.local(s)).collect(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summaries(src: &str) -> (Module, ModuleSummaries) {
        let mut m = sraa_minic::compile(src).unwrap();
        let (ranges, _) = sraa_essa::transform_module(&mut m);
        let index = VarIndex::new(&m);
        let sums = ModuleSummaries::compute(&m, &ranges, &index);
        (m, sums)
    }

    fn facts_of(m: &Module, sums: &ModuleSummaries, name: &str) -> Vec<u32> {
        sums.of(m.function_by_name(name).unwrap()).args_lt_ret().to_vec()
    }

    #[test]
    fn increment_helper_orders_its_argument() {
        let (m, sums) = summaries(
            r#"
            int next(int i) { return i + 1; }
            int main() { return next(3); }
            "#,
        );
        assert_eq!(facts_of(&m, &sums, "next"), vec![0]);
        assert_eq!(facts_of(&m, &sums, "main"), Vec::<u32>::new());
        assert_eq!(sums.facts(), 1);
        assert_eq!(sums.stats.recursive_sccs, 0);
    }

    #[test]
    fn facts_hold_on_every_return_path_or_not_at_all() {
        let (m, sums) = summaries(
            r#"
            int both(int i, int k) { if (k > 0) { return i + k; } return i + 1; }
            int one_side(int i, int k) { if (k > 0) { return i + k; } return i; }
            int main() { return both(1, 2) + one_side(1, 2); }
            "#,
        );
        // `both` proves i < ret on both paths (k>0 via the σ-range, +1
        // directly); k < ret only on the first path.
        assert_eq!(facts_of(&m, &sums, "both"), vec![0]);
        // `one_side` returns i itself on the else path: i < i is false.
        assert_eq!(facts_of(&m, &sums, "one_side"), Vec::<u32>::new());
    }

    #[test]
    fn pointer_advance_helper_is_summarised() {
        let (m, sums) = summaries(
            r#"
            int* advance(int* p, int k) { if (k > 0) { return p + k; } return p + 1; }
            int main() { int a[8]; int* q = advance(a, 3); return *q; }
            "#,
        );
        assert_eq!(facts_of(&m, &sums, "advance"), vec![0]);
    }

    #[test]
    fn summaries_chain_through_helpers_bottom_up() {
        // twice's fact needs next's summary to already be available.
        let (m, sums) = summaries(
            r#"
            int next(int i) { return i + 1; }
            int twice(int i) { return next(next(i)); }
            int main() { return twice(1); }
            "#,
        );
        assert_eq!(facts_of(&m, &sums, "next"), vec![0]);
        assert_eq!(facts_of(&m, &sums, "twice"), vec![0]);
    }

    #[test]
    fn recursion_reaches_the_optimistic_fixpoint() {
        // Every path either returns p + 1 directly or recurses on p + 1:
        // p < skipr(p, n) holds on every terminating execution.
        let (m, sums) = summaries(
            r#"
            int* skipr(int* p, int n) {
                if (n <= 0) { return p + 1; }
                return skipr(p + 1, n - 1);
            }
            int main() { int a[8]; int* q = skipr(a, 3); return *q; }
            "#,
        );
        assert_eq!(facts_of(&m, &sums, "skipr"), vec![0]);
        assert_eq!(sums.stats.recursive_sccs, 1);
        assert!(sums.stats.solves > sums.stats.sccs as u64, "recursion must iterate");
    }

    #[test]
    fn recursive_identity_sheds_the_optimistic_assumption() {
        // The base case returns p itself: p < p is false, so the
        // optimistic start must descend to the empty summary.
        let (m, sums) = summaries(
            r#"
            int* walk(int* p, int n) {
                if (n <= 0) { return p; }
                return walk(p + 1, n - 1);
            }
            int main() { int a[8]; int* q = walk(a, 3); return *q; }
            "#,
        );
        assert_eq!(facts_of(&m, &sums, "walk"), Vec::<u32>::new());
    }

    #[test]
    fn mutual_recursion_converges() {
        let (m, sums) = summaries(
            r#"
            int ping(int i, int n) { if (n <= 0) { return i + 1; } return pong(i + 1, n - 1); }
            int pong(int i, int n) { if (n <= 0) { return i + 2; } return ping(i, n - 1); }
            int main() { return ping(0, 4); }
            "#,
        );
        // ping: both paths bump i (directly, or pong's fact on i+1).
        assert_eq!(facts_of(&m, &sums, "ping"), vec![0]);
        // pong recurses on the *same* i, so its fact leans on ping's —
        // which holds — giving i < pong(i, n) too.
        assert_eq!(facts_of(&m, &sums, "pong"), vec![0]);
    }

    #[test]
    fn void_and_constant_returns_carry_no_facts() {
        let (m, sums) = summaries(
            r#"
            void sink(int* v, int i) { v[i] = 0; }
            int fortytwo(int i) { return 42; }
            int main() { int a[4]; sink(a, 1); return fortytwo(1); }
            "#,
        );
        assert_eq!(facts_of(&m, &sums, "sink"), Vec::<u32>::new());
        assert_eq!(facts_of(&m, &sums, "fortytwo"), Vec::<u32>::new());
    }

    #[test]
    fn warm_run_reuses_every_summary_and_skips_all_solves() {
        use crate::persist::SummaryKeys;
        let src = r#"
            int next(int i) { return i + 1; }
            int twice(int i) { return next(next(i)); }
            int main() { return twice(1); }
        "#;
        let mut m = sraa_minic::compile(src).unwrap();
        let (ranges, _) = sraa_essa::transform_module(&mut m);
        let index = VarIndex::new(&m);
        let cold = ModuleSummaries::compute(&m, &ranges, &index);
        let keys = SummaryKeys::compute(&m);
        let cache = SummaryCache::from_parts(&m, &cold, &keys);

        let (warm, warm_keys, outcome, _) =
            ModuleSummaries::compute_incremental(&m, &ranges, &index, Some(&cache), None);
        assert_eq!(warm_keys, keys, "keys must not depend on who builds the condensation");
        assert_eq!((outcome.hits, outcome.misses, outcome.invalidated), (3, 0, 0));
        assert_eq!(outcome.hit_rate(), 1.0);
        assert_eq!(warm.stats.solves, 0, "an all-hit warm run must not solve anything");
        for (f, s) in cold.iter() {
            assert_eq!(warm.of(f), s);
        }
        assert_eq!(warm.facts(), cold.facts());

        // Without a cache, the incremental entry point is exactly `compute`.
        let (cold2, _, zero, none) =
            ModuleSummaries::compute_incremental(&m, &ranges, &index, None, None);
        assert_eq!(cold2, cold);
        assert_eq!(zero, CacheOutcome::default());
        assert_eq!(none, StoreOutcome::default());
    }

    /// Walks the condensation the way [`ModuleSummaries::compute`] does,
    /// but solves every per-SCC system — remapped into its `SccSpace`,
    /// parameters Init-grounded, each iterate of a recursive descent — with
    /// both [`solve`] and its reference [`solve_worklist`]: the sets, the
    /// frozen ⊤s and the distilled summaries must agree at every step, and
    /// the walk must end where the production one does.
    fn assert_schedules_agree_per_scc(src: &str, name: &str) {
        use crate::solver::solve_worklist;
        let mut m = sraa_minic::compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let (ranges, _) = sraa_essa::transform_module(&mut m);
        let index = VarIndex::new(&m);
        let cond = CallGraph::build(&m).condense();
        let mut per_func = vec![FunctionSummary::default(); m.num_functions()];
        let mut solves = 0u64;
        for (ci, members) in cond.bottom_up() {
            let recursive = cond.is_recursive(ci);
            if recursive {
                for &f in members {
                    let n = m.function(f).params.len() as u32;
                    per_func[f.index()] = FunctionSummary { args_lt_ret: (0..n).collect() };
                }
            }
            let space = SccSpace::new(&m, &index, members);
            loop {
                let raw = constraints::generate_scoped(&m, &ranges, &index, members, &per_func);
                let cs: Vec<Constraint> = raw.iter().map(|c| space.remap(c)).collect();
                let (a, b) = (solve(&cs, space.len()), solve_worklist(&cs, space.len()));
                solves += 1;
                for v in (0..space.len()).map(VarId::from_index) {
                    assert_eq!(a.lt_set(v), b.lt_set(v), "{name}: component {ci}: LT({v})");
                    assert_eq!(a.was_top(v), b.was_top(v), "{name}: component {ci}: frozen {v}");
                }
                let mut changed = false;
                for &f in members {
                    let new = distil(&m, &index, &space, &a, f);
                    assert_eq!(
                        new,
                        distil(&m, &index, &space, &b, f),
                        "{name}: component {ci}: {f}"
                    );
                    changed |= new != per_func[f.index()];
                    per_func[f.index()] = new;
                }
                if !recursive || !changed {
                    break;
                }
            }
        }
        let sums = ModuleSummaries::compute(&m, &ranges, &index);
        assert_eq!(
            per_func, sums.per_func,
            "{name}: the walk must distil the production summaries"
        );
        assert_eq!(solves, sums.stats.solves, "{name}: and take as many per-SCC solves");
    }

    #[test]
    fn both_schedules_agree_on_every_per_scc_system() {
        for (i, src) in [
            r#"
            int next(int i) { return i + 1; }
            int twice(int i) { return next(next(i)); }
            int* skipr(int* p, int n) {
                if (n <= 0) { return p + 1; }
                return skipr(p + 1, n - 1);
            }
            int main() { int a[8]; int* q = skipr(a, twice(1)); return *q; }
            "#,
            r#"
            int ping(int i, int n) { if (n <= 0) { return i + 1; } return pong(i + 1, n - 1); }
            int pong(int i, int n) { if (n <= 0) { return i + 2; } return ping(i, n - 1); }
            int* walk(int* p, int n) {
                if (n <= 0) { return p; }
                return walk(p + 1, n - 1);
            }
            int main() { int a[8]; int* q = walk(a, ping(0, 4)); return *q; }
            "#,
            r#"
            int both(int i, int k) { if (k > 0) { return i + k; } return i + 1; }
            int one_side(int i, int k) { if (k > 0) { return i + k; } return i; }
            void sink(int* v, int i) { v[i] = 0; }
            int main() { int a[4]; sink(a, 1); return both(1, 2) + one_side(1, 2); }
            "#,
        ]
        .into_iter()
        .enumerate()
        {
            assert_schedules_agree_per_scc(src, &format!("hand-written program {i}"));
        }
    }

    /// The same per-component check on the synthetic corpora the summary
    /// layer is measured on: the call-heavy suite, a wide call graph and
    /// Csmith-style programs with helper calls.
    #[test]
    fn both_schedules_agree_per_scc_on_the_synthetic_corpora() {
        use sraa_synth::{call_suite, csmith_generate, wide_module, CsmithConfig};
        let csmith = (0u64..12).map(|seed| {
            csmith_generate(CsmithConfig { seed, max_ptr_depth: 3, num_stmts: 18, helpers: 2 })
        });
        for w in call_suite(6).into_iter().chain([wide_module(24, 80)]).chain(csmith) {
            assert_schedules_agree_per_scc(&w.source, &w.name);
        }
    }
}
