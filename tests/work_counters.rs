//! Deterministic work counters, pinned exactly.
//!
//! Constraint evaluations, allocations, summary solves, no-alias counts
//! and cache/store outcomes do not depend on the machine, so each one is
//! held to the value it has today: work may only go down, precision and
//! reuse may only go up. A change that improves a counter should tighten
//! its bound here. Wall-clock time is the benchmark's job (`perfbench/`,
//! declared in `BENCHMARK.json`); `scalability` prints the §4.2 figures.
//!
//! Two corpora:
//!
//! * `scalability`'s at `SRAA_SUITE_N=10`: `test_suite(10)` plus the SPEC
//!   profiles, solved by both strategies;
//! * the call-heavy `call_suite(10)`, where the interprocedural summary
//!   layer, the summary cache and the shared store do their work.

use sraa_bench::{alloc_count, Prepared};
use sraa_core::{
    DisambiguationEngine, EngineConfig, GenConfig, ModuleSummaries, SharedSummaryStore, SolverKind,
    SummaryCache, VarIndex,
};
use std::sync::{Mutex, MutexGuard};

/// The allocation counter is process-wide, so the tests in this file run
/// one at a time: another test's heap traffic would otherwise land in the
/// solver's count.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Total constraint evaluations and heap allocations of one strategy
/// over the scalability corpus.
#[derive(Debug, Default)]
struct Work {
    evals: u64,
    allocs: u64,
}

#[test]
fn solver_work_on_the_scalability_corpus_stays_within_its_pins() {
    let _serial = serial();
    let mut ws = sraa_synth::test_suite(10);
    ws.extend(sraa_synth::spec_all());
    // Generate every system before counting: only the solves are measured.
    let systems: Vec<_> = ws
        .iter()
        .map(|w| {
            let mut m = sraa_minic::compile(&w.source).expect("workloads compile");
            let (ranges, _) = sraa_essa::transform_module(&mut m);
            sraa_core::generate(&m, &ranges, GenConfig::default())
        })
        .collect();
    assert_eq!(systems.len(), 26, "corpus: workloads");
    let constraints: usize = systems.iter().map(|s| s.constraints.len()).sum();
    assert_eq!(constraints, 316_460, "corpus: total constraints");

    let work = |kind: SolverKind| {
        let mut w = Work::default();
        for sys in &systems {
            let a0 = alloc_count();
            let sol = kind.solve(&sys.constraints, sys.num_vars);
            w.allocs += alloc_count() - a0;
            w.evals += sol.stats.pops;
        }
        w
    };
    let (worklist, scc) = (work(SolverKind::Worklist), work(SolverKind::Scc));
    assert!(worklist.evals <= 346_694, "worklist evals: {worklist:?}");
    assert!(scc.evals <= 320_597, "scc evals: {scc:?}");
    // The SCC strategy is the engine default because it does less work.
    assert!(scc.evals <= worklist.evals, "scc {scc:?} vs worklist {worklist:?}");
    // Allocation counts keep a 25% margin: the standard library's own
    // allocation pattern may differ between toolchains (stable vs MSRV).
    assert!(worklist.allocs <= 715 * 5 / 4, "worklist allocations: {worklist:?}");
    assert!(scc.allocs <= 9_712 * 5 / 4, "scc allocations: {scc:?}");
}

#[test]
fn summaries_gain_precision_within_their_solve_budget() {
    let _serial = serial();
    let calls = sraa_synth::call_suite(10);
    assert_eq!(calls.len(), 10, "corpus: call-heavy workloads");
    let (mut functions, mut intra_no_alias, mut summaries_no_alias, mut solves) = (0, 0, 0, 0);
    for w in &calls {
        let intra = Prepared::new(w);
        let inter = Prepared::with_engine_config(w, EngineConfig::default().with_summaries());
        functions += inter.module.num_functions();
        intra_no_alias += intra.eval(&[&intra.lt])[0].no_alias;
        summaries_no_alias += inter.eval(&[&inter.lt])[0].no_alias;
        solves += inter.lt.engine().summaries().expect("summaries mode").stats.solves;
    }
    assert_eq!(functions, 72, "corpus: call-heavy functions");
    assert!(intra_no_alias >= 26, "intra no-alias: {intra_no_alias}");
    assert!(summaries_no_alias >= 106, "summaries no-alias: {summaries_no_alias}");
    assert!(summaries_no_alias > intra_no_alias, "summaries must beat intra");
    assert!(solves <= 82, "summary solves: {solves}");
}

#[test]
fn unchanged_modules_hit_a_round_tripped_cache_completely() {
    let _serial = serial();
    let (cfg, solver) = (GenConfig::default(), SolverKind::Scc);
    let (mut functions, mut hits) = (0, 0);
    for w in &sraa_synth::call_suite(10) {
        let mut m = sraa_minic::compile(&w.source).expect("workloads compile");
        let (ranges, _) = sraa_essa::transform_module(&mut m);
        let index = VarIndex::new(&m);
        let (cold, keys, _, _) =
            ModuleSummaries::compute_incremental(&m, &ranges, cfg, &index, solver, None, None);
        // The cold run's summaries round-tripped into the in-memory cache
        // a daemon re-upload hands the engine.
        let cache = SummaryCache::from_parts(&m, &cold, &keys);
        let (warm, _, outcome, _) = ModuleSummaries::compute_incremental(
            &m,
            &ranges,
            cfg,
            &index,
            solver,
            Some(&cache),
            None,
        );
        assert_eq!((outcome.misses, outcome.invalidated), (0, 0), "{}: keys churned", w.name);
        assert_eq!(warm.stats.solves, 0, "{}: a warm run solves nothing", w.name);
        for (f, s) in cold.iter() {
            assert_eq!(warm.of(f), s, "{}: warm summary differs", w.name);
        }
        functions += m.num_functions();
        hits += outcome.hits as usize;
    }
    assert_eq!((hits, functions), (72, 72), "every function of every module hits");
}

#[test]
fn unchanged_modules_hit_a_populated_store_completely() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("sraa_work_counters_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cfg = EngineConfig::default().with_summaries();
    let build = |src: &str, store: &SharedSummaryStore| {
        let mut m = sraa_minic::compile(src).expect("workloads compile");
        let engine = DisambiguationEngine::build_with_cache_and_store(
            &mut m,
            cfg.clone(),
            None,
            Some(store),
        );
        (m.num_functions(), *engine.stats())
    };
    let calls = sraa_synth::call_suite(10);
    {
        let store = SharedSummaryStore::open(&dir, cfg.gen).expect("store opens");
        for w in &calls {
            build(&w.source, &store);
        }
    }
    // A fresh handle, as a second daemon or the next process would open.
    let store = SharedSummaryStore::open(&dir, cfg.gen).expect("store reopens");
    for w in &calls {
        let (functions, s) = build(&w.source, &store);
        assert_eq!(s.store_misses, 0, "{}: an unchanged module misses nothing", w.name);
        assert_eq!(s.store_published, 0, "{}: a warm run publishes nothing", w.name);
        assert_eq!(s.store_hits as usize, functions, "{}: every function hits", w.name);
    }
    std::fs::remove_dir_all(&dir).ok();
}
