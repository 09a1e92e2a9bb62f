//! Differential tests of the wavefront-parallel summary pipeline
//! (`--jobs`): for **every** worker count, the computed summaries, the
//! generated constraint stream, the solved `LT` relation and the
//! deterministic statistics must be identical to the serial run —
//! parallelism reorders *work*, never output. Covered here:
//!
//! * cold solves, serial vs parallel, on a module wide enough to cross
//!   the scheduler's spawn floor;
//! * warm (`--summary-cache`) runs, where only the cold *misses* fan out;
//! * the worklist oracle under parallel jobs (`scc ≡ worklist` must keep
//!   holding when solves run on worker threads);
//! * random csmith-with-helpers programs, cold and warm, via proptest.

use sraa_core::{
    persist, CacheOutcome, GenConfig, Jobs, ModuleSummaries, SolverKind, SummaryKeys, VarId,
    VarIndex,
};
use sraa_ir::Module;
use sraa_range::RangeAnalysis;
use sraa_synth::{csmith_generate, CsmithConfig};
use std::fmt::Write as _;
use std::num::NonZeroUsize;

fn jobs(n: usize) -> Jobs {
    Jobs::N(NonZeroUsize::new(n).expect("test worker counts are positive"))
}

/// A call graph wide enough to cross the scheduler's spawn floor: `width`
/// independent helpers (one wavefront layer of parallel components), one
/// recursive helper, and a `main` calling all of them.
fn wide_source(width: usize, depth: usize, salt: usize) -> String {
    let mut s = String::new();
    for i in 0..width {
        let _ = writeln!(s, "int wf{i}(int a, int b) {{");
        let _ = writeln!(s, "    int x0 = a + 1;");
        let _ = writeln!(s, "    int x1 = x0 + b;");
        for j in 2..depth {
            let _ = writeln!(s, "    int x{j} = x{} + {};", j - 1, (i + j + salt) % 9 + 1);
        }
        let _ = writeln!(s, "    return x{} + 1;", depth - 1);
        let _ = writeln!(s, "}}");
    }
    let _ = writeln!(s, "int rec(int i, int n) {{");
    let _ = writeln!(s, "    if (n <= 0) {{ return i + 1; }}");
    let _ = writeln!(s, "    return rec(wf0(i, 1), n - 1);");
    let _ = writeln!(s, "}}");
    s.push_str("int main() {\n    int s = 0;\n");
    for i in 0..width {
        let _ = writeln!(s, "    s = s + wf{i}({}, {});", i % 5, i % 3 + 1);
    }
    s.push_str("    s = s + rec(1, 3);\n    return s;\n}\n");
    s
}

struct Prepared {
    module: Module,
    ranges: RangeAnalysis,
    index: VarIndex,
}

fn prepare(src: &str) -> Prepared {
    let mut module = sraa_minic::compile(src).expect("test source compiles");
    let (ranges, _) = sraa_essa::transform_module(&mut module);
    let index = VarIndex::new(&module);
    Prepared { module, ranges, index }
}

fn cold(p: &Prepared, j: Jobs, solver: SolverKind) -> ModuleSummaries {
    ModuleSummaries::compute(&p.module, &p.ranges, GenConfig::default(), &p.index, solver, j)
}

fn warm(
    p: &Prepared,
    j: Jobs,
    cache: &persist::SummaryCache,
) -> (ModuleSummaries, SummaryKeys, CacheOutcome) {
    let (sums, keys, outcome, _) = ModuleSummaries::compute_incremental(
        &p.module,
        &p.ranges,
        GenConfig::default(),
        &p.index,
        SolverKind::Scc,
        j,
        Some(cache),
        None,
    );
    (sums, keys, outcome)
}

/// Asserts two summary computations are indistinguishable all the way
/// down: per-function summaries, deterministic statistics, the constraint
/// stream generated from them, and the solved `LT` relation.
fn assert_equivalent(p: &Prepared, a: &ModuleSummaries, b: &ModuleSummaries, what: &str) {
    for (f, sa) in a.iter() {
        assert_eq!(sa, b.of(f), "{what}: summary of {} differs", p.module.function(f).name);
    }
    assert_eq!(a.stats, b.stats, "{what}: deterministic summary stats differ");
    let gen = |sums| {
        sraa_core::generate_with_summaries(
            &p.module,
            &p.ranges,
            GenConfig::default(),
            &p.index,
            sums,
        )
    };
    let (sys_a, sys_b) = (gen(a), gen(b));
    assert_eq!(sys_a.constraints, sys_b.constraints, "{what}: constraint streams differ");
    assert_eq!(sys_a.num_vars, sys_b.num_vars);
    let (sol_a, sol_b) = (
        SolverKind::Scc.solve(&sys_a.constraints, sys_a.num_vars),
        SolverKind::Scc.solve(&sys_b.constraints, sys_b.num_vars),
    );
    for v in 0..sys_a.num_vars {
        let v = VarId::from_index(v);
        assert_eq!(sol_a.lt_set(v), sol_b.lt_set(v), "{what}: LT({v}) differs");
        assert_eq!(sol_a.was_top(v), sol_b.was_top(v), "{what}: frozen sets differ on {v}");
    }
}

#[test]
fn cold_solves_are_jobs_invariant_on_a_wide_module() {
    let p = prepare(&wide_source(24, 80, 0));
    let total_insts: usize = p.module.functions().map(|(_, f)| f.num_insts()).sum();
    // The scheduler only spawns above its instruction floor (2000); the
    // test is vacuous if this module ever shrinks below it.
    assert!(total_insts >= 2_000, "wide module too small: {total_insts} instructions");
    let serial = cold(&p, jobs(1), SolverKind::Scc);
    assert!(serial.facts() > 0, "the wide module must produce interprocedural facts");
    for n in [2, 4, 7] {
        let parallel = cold(&p, jobs(n), SolverKind::Scc);
        assert_equivalent(&p, &serial, &parallel, &format!("jobs=1 vs jobs={n}"));
    }
}

#[test]
fn warm_runs_are_jobs_invariant_including_their_outcome() {
    // Cache built from a *different* body variant: the warm run sees
    // real misses/invalidations, so its cold residue goes through the
    // wavefront scheduler rather than being all cache hits.
    let old = prepare(&wide_source(24, 80, 7));
    let old_sums = cold(&old, jobs(1), SolverKind::Scc);
    let old_keys = SummaryKeys::compute(&old.module);
    let bytes = persist::to_bytes(&old.module, &old_sums, &old_keys, GenConfig::default());
    let cache = persist::from_bytes(&bytes, GenConfig::default()).expect("cache round trip");

    let p = prepare(&wide_source(24, 80, 0));
    let baseline = cold(&p, jobs(1), SolverKind::Scc);
    let (warm1, keys1, out1) = warm(&p, jobs(1), &cache);
    assert!(out1.misses + out1.invalidated > 0, "the variant cache must not fully hit");
    for n in [2, 4] {
        let (warmn, keysn, outn) = warm(&p, jobs(n), &cache);
        assert_eq!(out1, outn, "hit/miss/invalidated counts must be jobs-invariant");
        assert_eq!(keys1, keysn);
        assert_equivalent(&p, &warm1, &warmn, &format!("warm jobs=1 vs jobs={n}"));
    }
    // And the warm result is still byte-identical to a fresh cold run.
    assert_equivalent(&p, &baseline, &warm1, "cold vs warm");
}

#[test]
fn solver_strategies_agree_under_parallel_jobs() {
    let p = prepare(&wide_source(24, 80, 3));
    let scc = cold(&p, jobs(4), SolverKind::Scc);
    let worklist = cold(&p, jobs(4), SolverKind::Worklist);
    assert_equivalent(&p, &scc, &worklist, "scc vs worklist at jobs=4");
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Random csmith programs with helper calls: cold summaries are
        /// identical at jobs=1 and jobs=3, whatever the seed, depth or
        /// helper count (most cases sit below the spawn floor and take
        /// the serial path — that degenerate case must stay identical
        /// too, not just the fan-out case).
        #[test]
        fn csmith_cold_solves_are_jobs_invariant(
            seed in 0u64..16,
            depth in 2u8..5,
            helpers in 1usize..4,
        ) {
            let w = csmith_generate(CsmithConfig {
                seed,
                max_ptr_depth: depth,
                num_stmts: 18,
                helpers,
            });
            let p = prepare(&w.source);
            let serial = cold(&p, jobs(1), SolverKind::Scc);
            let parallel = cold(&p, jobs(3), SolverKind::Scc);
            assert_equivalent(&p, &serial, &parallel, &w.name);
        }

        /// Warm runs against a cache from a *different seed* (a mix of
        /// hits and misses, depending on which helper bodies collide):
        /// outcome counts and results are jobs-invariant.
        #[test]
        fn csmith_warm_runs_are_jobs_invariant(
            seed in 0u64..12,
            helpers in 1usize..3,
        ) {
            let mk = |s| csmith_generate(CsmithConfig {
                seed: s,
                max_ptr_depth: 3,
                num_stmts: 18,
                helpers,
            });
            let old = prepare(&mk(seed + 100).source);
            let old_sums = cold(&old, jobs(1), SolverKind::Scc);
            let old_keys = SummaryKeys::compute(&old.module);
            let bytes =
                persist::to_bytes(&old.module, &old_sums, &old_keys, GenConfig::default());
            let cache = persist::from_bytes(&bytes, GenConfig::default()).unwrap();

            let p = prepare(&mk(seed).source);
            let (warm1, _, out1) = warm(&p, jobs(1), &cache);
            let (warm3, _, out3) = warm(&p, jobs(3), &cache);
            prop_assert_eq!(out1, out3);
            assert_equivalent(&p, &warm1, &warm3, "csmith warm");
        }

        /// `scc ≡ worklist` must keep holding when the per-SCC solves run
        /// on worker threads.
        #[test]
        fn csmith_solver_strategies_agree_under_parallel_jobs(seed in 0u64..12) {
            let w = csmith_generate(CsmithConfig {
                seed,
                max_ptr_depth: 3,
                num_stmts: 18,
                helpers: 2,
            });
            let p = prepare(&w.source);
            let scc = cold(&p, jobs(3), SolverKind::Scc);
            let worklist = cold(&p, jobs(3), SolverKind::Worklist);
            assert_equivalent(&p, &scc, &worklist, &w.name);
        }
    }
}
