//! The `DisambiguationEngine` — one owner for the whole analysis stack.
//!
//! ```text
//!             e-SSA lowering        constraint generation
//! SSA module ───(sraa-essa)──▶ e-SSA ──(Figure 7, per function)──▶ ConstraintSystem
//!                                                                        │
//!                                     sraa_core::solve (SCC, DenseStore) │
//!                                                                        ▼
//!                  queries (point and batch API) ◀────────────────  Solution
//! ```
//!
//! Historically every consumer — the alias backends, the Pentagon
//! adapter, the optimisation passes, the PDG builder, the CLI — picked a
//! solver itself and re-plumbed the e-SSA → constraints → solve pipeline.
//! The engine centralises that: it owns the interned [`VarIndex`] arena,
//! runs constraint generation, solves through [`solve`] (SCC
//! condensation, the only production schedule), and answers every
//! disambiguation query from the solved relation. Consumers hold an
//! engine (usually behind an `Arc`) and ask questions; none of them
//! constructs solvers anymore. The engine reads no files and prints
//! nothing: summary reuse goes through caller-held
//! [`persist::SummaryCache`] and [`SharedSummaryStore`] handles, and a
//! failed publish to the store comes back as a value
//! ([`DisambiguationEngine::store_warning`]).

use crate::analysis::{derived_pointer, strip_copies};
use crate::constraints::{self, Constraint, GenConfig};
use crate::persist;
use crate::solver::{solve, Solution, SolveStats};
use crate::store::{SharedSummaryStore, StoreOutcome};
use crate::summary::{CacheOutcome, FunctionSummary, ModuleSummaries};
use crate::var_index::VarIndex;
use sraa_ir::{FuncId, Function, InstKind, Module, Type, Value};
use sraa_range::RangeAnalysis;

/// How much of the call graph the analysis sees.
///
/// * [`Contextuality::Intra`] — the paper's setting: every call result is
///   opaque (`LT(r) = ∅`); facts never cross call boundaries (the
///   pseudo-φs still flow caller facts *into* callees).
/// * [`Contextuality::Summaries`] — bottom-up interprocedural summaries
///   ([`ModuleSummaries`]): each function's context-free `param_j < ret`
///   facts are distilled over the condensed call graph (fixpoint inside
///   recursive components) and applied at every call site, so callers
///   inherit `x < len`-style facts through helpers. Strictly more
///   precise, never less (differentially tested); exposed as the
///   `--interproc` CLI flag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Contextuality {
    /// Intraprocedural (paper-faithful): calls are opaque.
    #[default]
    Intra,
    /// Interprocedural bottom-up summaries applied at call sites.
    Summaries,
}

/// Full engine configuration: constraint-generation options and the
/// interprocedural mode. The fixpoint is not configurable: it is always
/// [`solve`].
///
/// There is no file path in here: the engine never reads or writes a
/// summary cache or opens a store. Callers that reuse summaries keep a
/// previous build's [`persist::SummaryCache`] and/or open a
/// [`SharedSummaryStore`] themselves and pass them to
/// [`DisambiguationEngine::build_with_cache_and_store`].
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// Constraint-generation options (paper fidelity knobs).
    pub gen: GenConfig,
    /// Interprocedural mode (default: [`Contextuality::Intra`]).
    pub contextuality: Contextuality,
}

impl EngineConfig {
    /// This configuration with interprocedural summaries switched on.
    pub fn with_summaries(mut self) -> Self {
        self.contextuality = Contextuality::Summaries;
        self
    }
}

impl From<GenConfig> for EngineConfig {
    fn from(gen: GenConfig) -> Self {
        EngineConfig { gen, ..Default::default() }
    }
}

/// What the summary phase reused, and what went wrong publishing: the
/// inputs to the engine's cache and store counters.
#[derive(Default)]
struct Reused {
    cache: CacheOutcome,
    store: StoreOutcome,
    store_warning: Option<String>,
}

/// The solved less-than relation over a whole module plus the pointer
/// disambiguation criteria of the paper's Definition 3.11.
///
/// A plain immutable value: every query evaluates the criteria directly
/// (most `LT` sets hold at most two members, so a membership probe is
/// cheaper than any memo lookup), and construction does no file IO. The
/// engine is `Send + Sync` — share it behind an `Arc` instead of cloning
/// results.
#[derive(Clone, Debug)]
pub struct DisambiguationEngine {
    index: VarIndex,
    solution: Solution,
    ranges: RangeAnalysis,
    cfg: GenConfig,
    /// Interprocedural summaries, when built with
    /// [`Contextuality::Summaries`].
    summaries: Option<ModuleSummaries>,
    /// Why publishing to the shared store failed, if it did.
    store_warning: Option<String>,
}

impl DisambiguationEngine {
    /// Runs the full pipeline with default (paper-faithful constraints,
    /// intraprocedural) settings.
    ///
    /// The module is mutated: it is converted to e-SSA form first.
    pub fn run(module: &mut Module) -> Self {
        Self::build(module, EngineConfig::default())
    }

    /// Runs the full pipeline with an explicit configuration.
    pub fn build(module: &mut Module, cfg: EngineConfig) -> Self {
        let (ranges, _) = sraa_essa::transform_module(module);
        Self::on_prepared(module, &ranges, cfg)
    }

    /// Analyzes a module that is *already* in e-SSA form, with
    /// caller-provided ranges. Useful when the caller also needs the
    /// intermediate artifacts.
    ///
    /// In [`Contextuality::Summaries`] mode every summary is solved cold
    /// and no [`persist::SummaryKeys`] are computed, so this path never
    /// hashes function bodies.
    pub fn on_prepared(module: &Module, ranges: &RangeAnalysis, cfg: EngineConfig) -> Self {
        let index = VarIndex::new(module);
        // Interprocedural mode: distil per-function summaries bottom-up
        // over the condensed call graph first, then let module-wide
        // constraint generation apply them at every call site.
        let summary_t0 = std::time::Instant::now();
        let summaries = match cfg.contextuality {
            Contextuality::Intra => None,
            Contextuality::Summaries => Some(ModuleSummaries::compute(module, ranges, &index)),
        };
        Self::assemble(module, ranges, cfg, index, summaries, summary_t0, Reused::default())
    }

    /// Builds the engine in interprocedural mode, reusing summaries from
    /// a caller-held per-module `cache` and/or content-addressed `store`.
    ///
    /// This is the one summary-reuse path. The caller owns all IO: it
    /// keeps the in-memory cache (the daemon's resident copy — see
    /// [`DisambiguationEngine::export_summary_cache`] for the other half
    /// of the round trip) and opens the store (`--shared-store`). Every
    /// function is classified against the cache first; components the
    /// cache cannot satisfy are looked up in the store by key; the rest
    /// are solved cold. Every solved summary is published back to the
    /// store (insert-if-absent, so a warm run publishes nothing); if that
    /// fails, the build still succeeds and
    /// [`DisambiguationEngine::store_warning`] says why.
    /// Re-building against the cache of a previous build invalidates
    /// exactly the reverse-reachability closure of the edit. Outcomes
    /// land in the [`SolveStats`] cache and store counters.
    ///
    /// The module is mutated (converted to e-SSA form) and
    /// [`Contextuality::Summaries`] is implied.
    pub fn build_with_cache_and_store(
        module: &mut Module,
        cfg: EngineConfig,
        cache: Option<&persist::SummaryCache>,
        store: Option<&SharedSummaryStore>,
    ) -> Self {
        let (ranges, _) = sraa_essa::transform_module(module);
        Self::on_prepared_with_cache_and_store(module, &ranges, cfg, cache, store)
    }

    /// [`DisambiguationEngine::build_with_cache_and_store`] over a module
    /// already in e-SSA form, with caller-provided ranges.
    pub fn on_prepared_with_cache_and_store(
        module: &Module,
        ranges: &RangeAnalysis,
        mut cfg: EngineConfig,
        cache: Option<&persist::SummaryCache>,
        store: Option<&SharedSummaryStore>,
    ) -> Self {
        cfg.contextuality = Contextuality::Summaries;
        let index = VarIndex::new(module);
        let summary_t0 = std::time::Instant::now();
        let (sums, reuse) = Self::reuse_summaries(module, ranges, &index, cache, store);
        Self::assemble(module, ranges, cfg, index, Some(sums), summary_t0, reuse)
    }

    /// The engine's current summaries as an in-memory [`persist::SummaryCache`] —
    /// what a resident daemon hands back to
    /// [`DisambiguationEngine::build_with_cache_and_store`] on the next
    /// upload of the same module. `module` must be the (e-SSA) module
    /// this engine was built on. `None` for intraprocedural engines,
    /// which carry no summaries to cache.
    pub fn export_summary_cache(&self, module: &Module) -> Option<persist::SummaryCache> {
        let sums = self.summaries.as_ref()?;
        let keys = persist::SummaryKeys::compute(module);
        Some(persist::SummaryCache::from_parts(module, sums, &keys))
    }

    /// The summary phase of the reuse path: classify every component
    /// against `cache` and `store` (reusing hits, re-solving the rest),
    /// publish the result to `store`, and keep the hit/miss accounting
    /// honest when there was no usable cache at all.
    fn reuse_summaries(
        module: &Module,
        ranges: &RangeAnalysis,
        index: &VarIndex,
        cache: Option<&persist::SummaryCache>,
        store: Option<&SharedSummaryStore>,
    ) -> (ModuleSummaries, Reused) {
        let (sums, keys, mut outcome, mut store_outcome) =
            ModuleSummaries::compute_incremental(module, ranges, index, cache, store);
        let mut store_warning = None;
        if cache.is_none() {
            // No usable cache at all: every function was a miss, so a
            // first (or fallback) run reports an honest 0% hit rate
            // rather than a vacuous 100%.
            outcome.misses = module.num_functions() as u32;
        }
        if let Some(store) = store {
            // Publishing every pair, not just the cold-solved ones, is
            // deliberate: insert-if-absent makes it idempotent, and it
            // migrates summaries that arrived via the per-module cache
            // into the shared store.
            let entries: Vec<(u64, FunctionSummary)> =
                sums.iter().map(|(fid, s)| (keys.of(fid), s.clone())).collect();
            store_outcome.published = match store.publish(&entries) {
                Ok(n) => n as u32,
                Err(e) => {
                    store_warning =
                        Some(format!("cannot publish to {}: {e}", store.dir().display()));
                    0
                }
            };
        }
        (sums, Reused { cache: outcome, store: store_outcome, store_warning })
    }

    /// The tail of every construction path: constraint generation, the
    /// module-wide solve(s), and per-phase stats attribution.
    fn assemble(
        module: &Module,
        ranges: &RangeAnalysis,
        cfg: EngineConfig,
        index: VarIndex,
        summaries: Option<ModuleSummaries>,
        summary_t0: std::time::Instant,
        reuse: Reused,
    ) -> Self {
        let summary_build_ns =
            if summaries.is_some() { summary_t0.elapsed().as_nanos() as u64 } else { 0 };
        let mut sys = match &summaries {
            None => constraints::generate_with_index(module, ranges, &index),
            Some(sums) => constraints::generate_with_summaries(module, ranges, &index, sums),
        };
        let solve_t0 = std::time::Instant::now();
        let mut solution = solve(&sys.constraints, sys.num_vars);

        // Parameter-pair refinement (see `GenConfig::param_pairs`): when
        // every internal call site orders two arguments, the corresponding
        // formals are ordered for the whole frame. Each round may unlock
        // further pairs (arguments that are themselves parameters), so
        // iterate; the element sets only grow, bounded by #param².
        if cfg.gen.param_pairs {
            loop {
                let mut added = false;
                for info in &sys.param_info {
                    if info.sites.is_empty() {
                        continue;
                    }
                    for (i, &pi) in info.params.iter().enumerate() {
                        for (j, &pj) in info.params.iter().enumerate() {
                            if i == j || solution.less_than(pi, pj) {
                                continue;
                            }
                            let Some(&cu) = sys.param_union.get(&pj) else { continue };
                            let holds_everywhere = info.sites.iter().all(|site| {
                                matches!((site[i], site[j]), (Some(a), Some(b))
                                    if solution.less_than(a, b))
                            });
                            if holds_everywhere {
                                if let Constraint::Union { elems, .. } = &mut sys.constraints[cu] {
                                    elems.push(pi);
                                    added = true;
                                }
                            }
                        }
                    }
                }
                if !added {
                    break;
                }
                solution = solve(&sys.constraints, sys.num_vars);
            }
        }

        // Per-phase attribution (see `SolveStats`): wall clock split
        // between the summary build (includes the cache and store lookups) and
        // the module-wide solve(s), plus the deterministic cache counters.
        solution.stats.summary_build_ns = summary_build_ns;
        solution.stats.final_solve_ns = solve_t0.elapsed().as_nanos() as u64;
        solution.stats.cache_hits = reuse.cache.hits;
        solution.stats.cache_misses = reuse.cache.misses;
        solution.stats.cache_invalidated = reuse.cache.invalidated;
        solution.stats.store_hits = reuse.store.hits;
        solution.stats.store_misses = reuse.store.misses;
        solution.stats.store_published = reuse.store.published;

        Self {
            index,
            solution,
            ranges: ranges.clone(),
            cfg: cfg.gen,
            summaries,
            store_warning: reuse.store_warning,
        }
    }

    /// The interprocedural mode this engine was built with.
    pub fn contextuality(&self) -> Contextuality {
        if self.summaries.is_some() {
            Contextuality::Summaries
        } else {
            Contextuality::Intra
        }
    }

    /// The interprocedural summaries, when built with
    /// [`Contextuality::Summaries`].
    pub fn summaries(&self) -> Option<&ModuleSummaries> {
        self.summaries.as_ref()
    }

    /// Why publishing this build's summaries to the shared store failed
    /// (`cannot publish to <dir>: <error>`), or `None` if there was no
    /// store or the publish succeeded. The answers are unaffected either
    /// way; callers decide whether and where to report it.
    pub fn store_warning(&self) -> Option<&str> {
        self.store_warning.as_deref()
    }

    /// The interned variable arena.
    pub fn var_index(&self) -> &VarIndex {
        &self.index
    }

    /// The raw solved relation.
    pub fn solution(&self) -> &Solution {
        &self.solution
    }

    /// Whether `a < b` is proven: `a ∈ LT(b)`.
    pub fn less_than(&self, f: FuncId, a: Value, b: Value) -> bool {
        self.solution.less_than(self.index.id(f, a), self.index.id(f, b))
    }

    /// Cross-function variant (the relation is module-wide; meaningful for
    /// values related through the inter-procedural pseudo-φs).
    pub fn less_than_cross(&self, fa: FuncId, a: Value, fb: FuncId, b: Value) -> bool {
        self.solution.less_than(self.index.id(fa, a), self.index.id(fb, b))
    }

    /// The `LT` set of `v`, as `(function, value)` pairs in ascending
    /// [`VarId`](crate::VarId) order — byte-identical across runs.
    pub fn lt_set(&self, f: FuncId, v: Value) -> Vec<(FuncId, Value)> {
        self.solution.lt_vars(self.index.id(f, v)).map(|id| self.index.func_of(id)).collect()
    }

    /// Solver statistics (constraint count, evaluations, SCC shape, …).
    pub fn stats(&self) -> &SolveStats {
        &self.solution.stats
    }

    /// Histogram of `LT` set sizes (the paper observes ≥95% have ≤ 2).
    pub fn size_histogram(&self) -> Vec<(usize, usize)> {
        self.solution.size_histogram()
    }

    /// Always 0: the engine keeps no pair memo (see the type's docs). Kept
    /// for the benchmark harness, which reports it as
    /// `core.query.memo_entries`.
    pub fn cached_queries(&self) -> usize {
        0
    }

    /// The paper's Definition 3.11: can `p1` and `p2` be proven disjoint?
    ///
    /// * Criterion 1 — `p1 ∈ LT(p2)` or `p2 ∈ LT(p1)`;
    /// * Criterion 2 — `p1 = p + x1`, `p2 = p + x2` (same base, both
    ///   offsets variables) with `x1 ∈ LT(x2)` or `x2 ∈ LT(x1)`.
    ///
    /// Both pointers must live in function `f`. Non-pointer operands
    /// always answer `false`.
    pub fn no_alias(&self, func: &Function, f: FuncId, p1: Value, p2: Value) -> bool {
        let is_ptr = |v: Value| func.value_type(v).is_some_and(Type::is_ptr);
        if p1 == p2 || !is_ptr(p1) || !is_ptr(p2) {
            return false;
        }
        // Criterion 1.
        if self.less_than(f, p1, p2) || self.less_than(f, p2, p1) {
            return true;
        }
        // Criterion 2 (and, when enabled, the §3.6 range criterion).
        if let (Some((b1, x1)), Some((b2, x2))) =
            (derived_pointer(func, p1), derived_pointer(func, p2))
        {
            if strip_copies(func, b1) == strip_copies(func, b2) {
                let is_var = |x: Value| !matches!(func.inst(x).kind, InstKind::Const(_));
                if is_var(x1)
                    && is_var(x2)
                    && (self.less_than(f, x1, x2) || self.less_than(f, x2, x1))
                {
                    return true;
                }
            }
        }
        // §3.6 range criterion (opt-in): accumulate offset intervals along
        // the whole gep chain down to a common root object; disjoint total
        // intervals cannot overlap. This is the classic value-set
        // disambiguation the paper cites as complementary prior work.
        if self.cfg.range_offsets {
            let (r1, iv1) = self.root_and_offset(func, f, p1);
            let (r2, iv2) = self.root_and_offset(func, f, p2);
            if r1 == r2 && iv1.meet(&iv2).is_bottom() {
                return true;
            }
        }
        false
    }

    /// Batched pair-query API: disambiguates every unordered pair of
    /// `ptrs` (the `aa-eval` access pattern), returning the pairs proven
    /// disjoint, in input order.
    pub fn no_alias_pairs(
        &self,
        func: &Function,
        f: FuncId,
        ptrs: &[Value],
    ) -> Vec<(Value, Value)> {
        let mut out = Vec::new();
        for (i, &p1) in ptrs.iter().enumerate() {
            for &p2 in &ptrs[i + 1..] {
                if self.no_alias(func, f, p1, p2) {
                    out.push((p1, p2));
                }
            }
        }
        out
    }

    /// Walks copies and nested `gep`s down to the root pointer, summing
    /// the offsets' intervals.
    fn root_and_offset(
        &self,
        func: &Function,
        f: FuncId,
        p: Value,
    ) -> (Value, sraa_range::Interval) {
        let mut total = sraa_range::Interval::constant(0);
        let mut cur = strip_copies(func, p);
        while let InstKind::Gep { base, offset } = &func.inst(cur).kind {
            let r = match func.inst(*offset).kind {
                InstKind::Const(c) => sraa_range::Interval::constant(c),
                _ => self.ranges.range(f, *offset),
            };
            total = total.add(&r);
            cur = strip_copies(func, *base);
        }
        (cur, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_engine(src: &str) -> (Module, DisambiguationEngine) {
        let mut m = sraa_minic::compile(src).unwrap();
        let engine = DisambiguationEngine::run(&mut m);
        (m, engine)
    }

    #[test]
    fn no_alias_pairs_equals_the_point_queries_in_input_order() {
        let (m, engine) = build_engine(
            r#"
            void f(int* v, int N) {
                for (int i = 0, j = N; i < j; i++, j--) v[i] = v[j];
            }
            "#,
        );
        let fid = m.function_by_name("f").unwrap();
        let f = m.function(fid);
        let mut ptrs = Vec::new();
        for b in f.block_ids() {
            for (_, d) in f.block_insts(b) {
                match &d.kind {
                    InstKind::Load { ptr } => ptrs.push(*ptr),
                    InstKind::Store { ptr, .. } => ptrs.push(*ptr),
                    _ => {}
                }
            }
        }
        let pairs = engine.no_alias_pairs(f, fid, &ptrs);
        assert!(!pairs.is_empty(), "v[i]/v[j] must be disambiguated");
        let mut point = Vec::new();
        for (i, &p1) in ptrs.iter().enumerate() {
            for &p2 in &ptrs[i + 1..] {
                if engine.no_alias(f, fid, p1, p2) {
                    point.push((p1, p2));
                }
            }
        }
        assert_eq!(pairs, point);
        assert_eq!(engine.cached_queries(), 0, "the engine keeps no pair memo");
    }

    /// The engine is a plain value: cloneable and shareable across threads.
    const _: fn() = || {
        fn plain_value<T: Clone + Send + Sync>() {}
        plain_value::<DisambiguationEngine>();
    };

    #[test]
    fn summaries_mode_refines_call_results() {
        let src = r#"
            int* advance(int* p, int k) { if (k > 0) { return p + k; } return p + 1; }
            int f(int* p, int n) { int* q = advance(p, n); *q = 1; *p = 2; return *q; }
            int main() { int a[8]; return f(a, 3); }
        "#;
        let mut m1 = sraa_minic::compile(src).unwrap();
        let intra = DisambiguationEngine::build(&mut m1, EngineConfig::default());
        let mut m2 = sraa_minic::compile(src).unwrap();
        let inter = DisambiguationEngine::build(&mut m2, EngineConfig::default().with_summaries());
        assert_eq!(m1, m2, "contextuality must not perturb the e-SSA pipeline");
        assert_eq!(intra.contextuality(), Contextuality::Intra);
        assert_eq!(inter.contextuality(), Contextuality::Summaries);
        assert!(intra.summaries().is_none());
        assert_eq!(inter.summaries().unwrap().facts(), 1, "advance: p < ret");

        let fid = m1.function_by_name("f").unwrap();
        let f = m1.function(fid);
        let (p, q) = (f.param_value(0), {
            // The call result is the unique Call instruction in `f`.
            let mut q = None;
            for b in f.block_ids() {
                for (v, d) in f.block_insts(b) {
                    if matches!(d.kind, InstKind::Call { .. }) {
                        q = Some(v);
                    }
                }
            }
            q.unwrap()
        });
        assert!(!intra.no_alias(f, fid, p, q), "intra mode: the call is opaque");
        assert!(inter.no_alias(f, fid, p, q), "summaries: p < advance(p, n)");
        // Refinement: everything intra proves, summaries still proves.
        for a in f.value_ids() {
            for b in f.value_ids() {
                if intra.no_alias(f, fid, a, b) {
                    assert!(inter.no_alias(f, fid, a, b), "summaries lost {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn per_phase_timings_are_attributed_and_excluded_from_equality() {
        let src = r#"
            int* advance(int* p, int k) { if (k > 0) { return p + k; } return p + 1; }
            int main() { int a[8]; int* q = advance(a, 3); return *q; }
        "#;
        let mut m1 = sraa_minic::compile(src).unwrap();
        let intra = DisambiguationEngine::build(&mut m1, EngineConfig::default());
        let mut m2 = sraa_minic::compile(src).unwrap();
        let inter = DisambiguationEngine::build(&mut m2, EngineConfig::default().with_summaries());

        assert_eq!(intra.stats().summary_build_ns, 0, "no summary phase in intra mode");
        assert!(intra.stats().final_solve_ns > 0, "the final solve must be timed");
        assert!(inter.stats().summary_build_ns > 0, "the summary phase must be timed");
        assert!(inter.stats().final_solve_ns > 0);
        assert_eq!(
            (intra.stats().cache_hits, intra.stats().cache_misses),
            (0, 0),
            "no cache configured"
        );

        // Equality compares the deterministic counters only: two runs of
        // the same pipeline agree even though their timings differ …
        let mut a = *inter.stats();
        let mut b = a;
        b.summary_build_ns = a.summary_build_ns.wrapping_add(12_345);
        b.final_solve_ns = 0;
        assert_eq!(a, b, "wall-clock fields must not affect SolveStats equality");
        // … while any deterministic counter still distinguishes them.
        b.pops += 1;
        assert_ne!(a, b);
        a.cache_hits += 1;
        b.pops -= 1;
        assert_ne!(a, b);
    }

    #[test]
    fn failed_store_publish_comes_back_as_a_warning() {
        let src = "int next(int i) { return i + 1; } int main() { return next(3); }";
        let dir = std::env::temp_dir().join(format!("sraa_engine_publish_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = SharedSummaryStore::open(&dir, GenConfig::default()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        let mut m = sraa_minic::compile(src).unwrap();
        let engine = DisambiguationEngine::build_with_cache_and_store(
            &mut m,
            EngineConfig::default(),
            None,
            Some(&store),
        );
        assert_eq!(engine.stats().store_published, 0);
        let warning = engine.store_warning().expect("a failed publish must be reported");
        let expected = format!("cannot publish to {}: ", dir.display());
        assert!(warning.starts_with(&expected), "got: {warning}");
        assert_eq!(engine.summaries().unwrap().facts(), 1, "the answers do not depend on it");

        let mut m2 = sraa_minic::compile(src).unwrap();
        let plain = DisambiguationEngine::build_with_cache_and_store(
            &mut m2,
            EngineConfig::default(),
            None,
            None,
        );
        assert_eq!(plain.store_warning(), None);
    }

    #[test]
    fn clone_preserves_results() {
        let (m, engine) = build_engine("int f(int x) { return x + 1; }");
        let clone = engine.clone();
        let fid = m.function_by_name("f").unwrap();
        for v in m.function(fid).value_ids() {
            assert_eq!(engine.lt_set(fid, v), clone.lt_set(fid, v));
        }
        assert_eq!(engine.stats(), clone.stats());
    }
}
