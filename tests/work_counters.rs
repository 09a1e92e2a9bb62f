//! Deterministic work counters, pinned exactly.
//!
//! Constraint evaluations, allocations, summary solves, no-alias counts
//! and cache/store outcomes do not depend on the machine, so each one is
//! held to the value it has today: work may only go down, precision and
//! reuse may only go up. A change that improves a counter should tighten
//! its bound here. Wall-clock time is the benchmark's job (`perfbench/`,
//! declared in `BENCHMARK.json`); `scalability` prints the §4.2 figures.
//!
//! Three corpora:
//!
//! * `scalability`'s at `SRAA_SUITE_N=10`: `test_suite(10)` plus the SPEC
//!   profiles, solved by the engine's `solve` and the worklist reference;
//! * the call-heavy `call_suite(10)`, where the interprocedural summary
//!   layer, the summary cache and the shared store do their work;
//! * the Pentagon differential corpus (`test_suite(26)`, `call_suite(10)`
//!   and 24 Csmith programs, all in e-SSA form), where the dense Pentagon
//!   fixpoint's full facts are pinned: its footprint, every ordered-pair
//!   verdict of its fact table and its finite intervals at definitions.
//!
//! The `sraa eval` report (`render_eval`) has its allocations pinned on
//! `test_suite(10)` plus `call_suite(10)`.

use sraa_alias::{render_eval, AaEval, StrictInequalityAa};
use sraa_bench::{alloc_count, Prepared};
use sraa_core::{
    solve, solve_worklist, Constraint, DisambiguationEngine, EngineConfig, ModuleSummaries,
    SharedSummaryStore, Solution, SummaryCache, VarIndex,
};
use sraa_pentagon::PentagonAnalysis;
use sraa_range::Bound;
use std::sync::{Mutex, MutexGuard};

/// The allocation counter is process-wide, so the tests in this file run
/// one at a time: another test's heap traffic would otherwise land in the
/// solver's count.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Total constraint evaluations and heap allocations of one schedule
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
            sraa_core::generate(&m, &ranges)
        })
        .collect();
    assert_eq!(systems.len(), 26, "corpus: workloads");
    let constraints: usize = systems.iter().map(|s| s.constraints.len()).sum();
    assert_eq!(constraints, 316_460, "corpus: total constraints");

    let work = |solve: fn(&[Constraint], usize) -> Solution| {
        let mut w = Work::default();
        for sys in &systems {
            let a0 = alloc_count();
            let sol = solve(&sys.constraints, sys.num_vars);
            w.allocs += alloc_count() - a0;
            w.evals += sol.stats.pops;
        }
        w
    };
    let (worklist, scc) = (work(solve_worklist), work(solve));
    assert!(worklist.evals <= 346_694, "worklist evals: {worklist:?}");
    assert!(scc.evals <= 320_597, "scc evals: {scc:?}");
    // The engine solves with SCC condensation because it does less work.
    assert!(scc.evals <= worklist.evals, "scc {scc:?} vs worklist {worklist:?}");
    // Allocation counts keep a 25% margin: the standard library's own
    // allocation pattern may differ between toolchains (stable vs MSRV).
    assert!(worklist.allocs <= 715 * 5 / 4, "worklist allocations: {worklist:?}");
    assert!(scc.allocs <= 9_712 * 5 / 4, "scc allocations: {scc:?}");
}

/// The heap allocations of the `sraa eval --interproc` report: building
/// BA, CF, ST and PT, asking every analysis every pair, and formatting.
/// The LT engine is built before counting starts.
#[test]
fn eval_report_allocations_stay_within_their_pin() {
    let _serial = serial();
    let mut ws = sraa_synth::test_suite(10);
    ws.extend(sraa_synth::call_suite(10));
    let (mut allocs, mut queries) = (0, 0);
    for w in &ws {
        let mut m = sraa_minic::compile(&w.source).expect("workloads compile");
        let lt = StrictInequalityAa::with_engine_config(
            &mut m,
            EngineConfig::default().with_summaries(),
        );
        let a0 = alloc_count();
        let report = render_eval(&m, &lt);
        allocs += alloc_count() - a0;
        drop(report);
        queries += AaEval::num_queries(&m);
    }
    assert_eq!(queries, 133_216, "corpus: pair queries");
    assert!(allocs <= 70_688 * 5 / 4, "render_eval allocations: {allocs}");
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
    let (mut functions, mut hits) = (0, 0);
    for w in &sraa_synth::call_suite(10) {
        let mut m = sraa_minic::compile(&w.source).expect("workloads compile");
        let (ranges, _) = sraa_essa::transform_module(&mut m);
        let index = VarIndex::new(&m);
        let (cold, keys, _, _) =
            ModuleSummaries::compute_incremental(&m, &ranges, &index, None, None);
        // The cold run's summaries round-tripped into the in-memory cache
        // a daemon re-upload hands the engine.
        let cache = SummaryCache::from_parts(&m, &cold, &keys);
        let (warm, _, outcome, _) =
            ModuleSummaries::compute_incremental(&m, &ranges, &index, Some(&cache), None);
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

/// A 64-bit mix of one proven pair, summed into an order-independent
/// checksum (splitmix64's finaliser).
fn pair_hash(workload: usize, func: usize, a: usize, b: usize) -> u64 {
    let mut z = (workload as u64) << 48 ^ (func as u64) << 40 ^ (a as u64) << 20 ^ b as u64;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The dense Pentagon fixpoint's facts, all of them, on the differential
/// corpus of `sraa-alias`'s table-vs-replay test: the block-entry
/// footprint, the fact table's verdict on every ordered pair of every
/// function's values (R = all values), and the definitions whose interval
/// has a finite bound. A change to the state's representation must keep
/// every one of these exactly.
#[test]
fn pentagon_facts_on_the_differential_corpus_are_pinned() {
    let _serial = serial();
    let mut ws = sraa_synth::test_suite(26);
    ws.extend(sraa_synth::call_suite(10));
    for depth in 2..=7 {
        for seed in 1..=4 {
            ws.push(sraa_synth::csmith_generate(sraa_synth::CsmithConfig {
                seed,
                max_ptr_depth: depth,
                num_stmts: 40,
                helpers: 2,
            }));
        }
    }
    let (mut bindings, mut pairs, mut proven, mut checksum, mut finite) = (0, 0u64, 0u64, 0u64, 0);
    for (wi, w) in ws.iter().enumerate() {
        let mut m = sraa_minic::compile(&w.source).expect("workloads compile");
        let _ = sraa_essa::transform_module(&mut m);
        let pent = PentagonAnalysis::run(&m);
        bindings += pent.total_bindings();
        for (f, func) in m.functions() {
            let r: Vec<_> = func.value_ids().collect();
            let table = pent.fact_table(&m, f, &r);
            for &a in &r {
                for &b in &r {
                    pairs += 1;
                    if table.proves_lt(a, b) {
                        proven += 1;
                        checksum =
                            checksum.wrapping_add(pair_hash(wi, f.index(), a.index(), b.index()));
                    }
                }
                let iv = pent.interval_at_def(&m, f, a);
                if iv.is_some_and(|iv| {
                    matches!(iv.lo(), Bound::Fin(_)) || matches!(iv.hi(), Bound::Fin(_))
                }) {
                    finite += 1;
                }
            }
        }
    }
    assert_eq!(ws.len(), 60, "corpus: workloads");
    assert_eq!(bindings, 93_594, "Pentagon block-entry bindings");
    assert_eq!(pairs, 12_087_679, "corpus: ordered pairs");
    assert_eq!(proven, 277_164, "pairs the fact table proves ordered");
    assert_eq!(checksum, 0xb46a_6ddb_bcf1_e75e, "checksum of the proven pairs");
    assert_eq!(finite, 15_412, "definitions with a finite interval bound");
}
