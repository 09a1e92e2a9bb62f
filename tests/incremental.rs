//! Differential tests of the incremental engine: reused
//! [`ModuleSummaries`] keyed by body-hash ⊕ callee-key, from a previous
//! build's in-memory cache or from the on-disk shared store.
//!
//! Caching bugs are *silent-unsoundness* bugs — a stale summary would
//! quietly hand the optimiser wrong no-alias verdicts — so the contract
//! here is absolute: a **warm** run (cold → mutate k function bodies →
//! re-run against the cache) must be indistinguishable from a **fresh
//! cold** run. Indistinguishable means byte-identical: same per-function
//! summaries, same constraint stream, same solved `LT` sets, same frozen
//! set. On top of that, the hit/miss/invalidated counts must match the
//! call graph exactly: editing a set `M` of functions invalidates
//! precisely the functions that can *reach* `M` in the call graph
//! (reverse reachability), and nothing else.
//!
//! The committed golden fixture (`tests/fixtures/store_segment_v1.bin`)
//! pins the store's segment layout and the key scheme: if either
//! changes, the golden test fails and `sraa_core::FORMAT_VERSION` must be
//! bumped. Regenerate with
//! `SRAA_REGEN_GOLDEN=1 cargo test --test incremental`.

use sraa_core::{
    solve, CacheOutcome, EngineConfig, GenConfig, ModuleSummaries, SharedSummaryStore,
    SummaryCache, SummaryKeys, VarId, VarIndex,
};
use sraa_ir::{BinOp, CallGraph, FuncId, InstKind, Module, Type};
use sraa_range::RangeAnalysis;
use std::collections::BTreeSet;

/// Compile + e-SSA + cold summaries + keys for one source.
struct Prepared {
    module: Module,
    ranges: RangeAnalysis,
    index: VarIndex,
    sums: ModuleSummaries,
    keys: SummaryKeys,
}

fn prepare(src: &str) -> Prepared {
    let mut module = sraa_minic::compile(src).expect("generated source compiles");
    let (ranges, _) = sraa_essa::transform_module(&mut module);
    let index = VarIndex::new(&module);
    let sums = ModuleSummaries::compute(&module, &ranges, &index);
    let keys = SummaryKeys::compute(&module);
    Prepared { module, ranges, index, sums, keys }
}

/// `p`'s summaries as the in-memory cache a re-upload hands the engine.
fn cache_of(p: &Prepared) -> SummaryCache {
    SummaryCache::from_parts(&p.module, &p.sums, &p.keys)
}

/// Functions that can reach any function in `from` (inclusive) — the set
/// whose cache keys a mutation of `from` must change.
fn reverse_reachable(m: &Module, from: &BTreeSet<FuncId>) -> BTreeSet<FuncId> {
    let cg = CallGraph::build(m);
    let mut seen: BTreeSet<FuncId> = from.clone();
    let mut work: Vec<FuncId> = from.iter().copied().collect();
    while let Some(f) = work.pop() {
        for &caller in cg.callers(f) {
            if seen.insert(caller) {
                work.push(caller);
            }
        }
    }
    seen
}

/// The warm run on `p` against `cache`, plus its outcome.
fn warm(p: &Prepared, cache: &SummaryCache) -> (ModuleSummaries, CacheOutcome) {
    let (sums, keys, outcome, _) =
        ModuleSummaries::compute_incremental(&p.module, &p.ranges, &p.index, Some(cache), None);
    assert_eq!(keys, p.keys, "internally computed keys must match the standalone ones");
    (sums, outcome)
}

/// Asserts a warm result is *byte-identical* to the cold one, all the way
/// down to the solved relation: per-function summaries, the generated
/// constraint stream, every `LT` set, and the frozen-⊤ set.
fn assert_warm_equals_cold(p: &Prepared, warm_sums: &ModuleSummaries, name: &str) {
    for (f, cold) in p.sums.iter() {
        assert_eq!(
            warm_sums.of(f),
            cold,
            "{name}: summary of {} differs",
            p.module.function(f).name
        );
    }
    let gen = |sums| sraa_core::generate_with_summaries(&p.module, &p.ranges, &p.index, sums);
    let (sys_w, sys_c) = (gen(warm_sums), gen(&p.sums));
    assert_eq!(sys_w.constraints, sys_c.constraints, "{name}: constraint streams differ");
    assert_eq!(sys_w.num_vars, sys_c.num_vars);
    let (sol_w, sol_c) =
        (solve(&sys_w.constraints, sys_w.num_vars), solve(&sys_c.constraints, sys_c.num_vars));
    for v in 0..sys_c.num_vars {
        let v = VarId::from_index(v);
        assert_eq!(sol_w.lt_set(v), sol_c.lt_set(v), "{name}: LT({v}) differs warm vs cold");
        assert_eq!(sol_w.was_top(v), sol_c.was_top(v), "{name}: frozen sets differ on {v}");
    }
}

// ---------------------------------------------------------------------
// A synthetic module family with a *controllable* mutation surface: `n`
// helpers whose call structure is fixed by `structure` bits (helper i
// calls helper i+1 iff bit i is set) and whose bodies are selected by
// per-helper `variants` bits. Flipping a variant changes the body — and
// for leaves, even the distilled summary — without touching the call
// graph, so the expected invalidation set is exactly the reverse
// reachability closure of the mutated helpers.
// ---------------------------------------------------------------------

fn render(n: usize, structure: u64, variants: u64) -> String {
    let mut src = String::new();
    // Callees first so calls are to already-declared functions.
    for i in (0..n).rev() {
        let variant = (variants >> i) & 1;
        let calls_next = i + 1 < n && (structure >> i) & 1 == 1;
        let body = match (calls_next, variant) {
            (false, 0) => "if (n > 0) { return p + n; } return p + 1;".to_string(),
            (false, _) => "if (n > 1) { return p + n; } return p;".to_string(),
            (true, v) => format!("int* q = h{}(p, n); return q + {};", i + 1, v + 1),
        };
        src.push_str(&format!("int* h{i}(int* p, int n) {{ {body} }}\n"));
    }
    src.push_str("int main() {\n  int a[64];\n  int acc = 0;\n");
    for i in 0..n {
        src.push_str(&format!("  int* r{i} = h{i}(a, {});\n  acc += *r{i};\n", i + 2));
    }
    src.push_str("  return acc;\n}\n");
    src
}

/// One full cold → mutate → warm differential check; returns the outcome
/// so callers can layer extra assertions.
fn check_mutation(
    n: usize,
    structure: u64,
    variants: u64,
    mutated: &BTreeSet<usize>,
) -> CacheOutcome {
    let old = prepare(&render(n, structure, variants));
    let cache = cache_of(&old);

    let mut new_variants = variants;
    for &i in mutated {
        new_variants ^= 1 << i;
    }
    let fresh = prepare(&render(n, structure, new_variants));
    let (warm_sums, outcome) = warm(&fresh, &cache);
    assert_warm_equals_cold(&fresh, &warm_sums, "mutation");

    // Hit/miss accounting must mirror reverse reachability exactly.
    let mutated_ids: BTreeSet<FuncId> = mutated
        .iter()
        .map(|i| fresh.module.function_by_name(&format!("h{i}")).expect("helper exists"))
        .collect();
    let closure = reverse_reachable(&fresh.module, &mutated_ids);
    let total = fresh.module.num_functions();
    assert_eq!(
        outcome.invalidated as usize,
        closure.len(),
        "invalidations must equal the reverse-reachable closure of the mutation set"
    );
    assert_eq!(outcome.hits as usize, total - closure.len(), "everything else must hit");
    assert_eq!(outcome.misses, 0, "same function set: nothing can miss");
    // Invalidated keys really changed; unchanged functions kept theirs.
    for (f, _) in fresh.module.functions() {
        let name = &fresh.module.function(f).name;
        let old_f = old.module.function_by_name(name).expect("same function set");
        if closure.contains(&f) {
            assert_ne!(old.keys.of(old_f), fresh.keys.of(f), "{name}: stale key survived an edit");
        } else {
            assert_eq!(old.keys.of(old_f), fresh.keys.of(f), "{name}: key churned without an edit");
        }
    }
    outcome
}

#[test]
fn chain_mutation_invalidates_exactly_the_callers_above() {
    // h0 → h1 → h2 → h3 (all chained), main calls every helper. Mutating
    // h2 must invalidate {h2, h1, h0, main} and leave {h3} warm.
    let outcome = check_mutation(4, 0b0111, 0, &BTreeSet::from([2]));
    assert_eq!((outcome.hits, outcome.invalidated), (1, 4));
}

#[test]
fn leaf_mutation_with_no_callers_only_invalidates_itself_and_main() {
    // No helper-to-helper edges: each helper is only reachable from main.
    let outcome = check_mutation(3, 0, 0, &BTreeSet::from([1]));
    assert_eq!((outcome.hits, outcome.invalidated), (2, 2));
}

#[test]
fn unchanged_module_is_a_complete_hit() {
    let p = prepare(&render(5, 0b01101, 0b10010));
    let cache = cache_of(&p);
    let (warm_sums, outcome) = warm(&p, &cache);
    assert_warm_equals_cold(&p, &warm_sums, "unchanged");
    assert_eq!(outcome.hits as usize, p.module.num_functions());
    assert_eq!((outcome.misses, outcome.invalidated), (0, 0));
    assert_eq!(outcome.hit_rate(), 1.0);
    assert_eq!(warm_sums.stats.solves, 0, "a 100% warm run must skip every per-SCC solve");
}

/// Unique temp dir per test (tests run in parallel within one process).
fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sraa_incr_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The engine reuses summaries both ways a caller can hand them over:
/// through the segment files of a store directory (a fresh handle, as a
/// second process would open it) and through the previous build's
/// exported in-memory cache (what the daemon does on a re-upload).
#[test]
fn engine_warm_run_through_a_cache_file_matches_the_cold_engine() {
    use sraa_alias::AaEval;
    use sraa_core::DisambiguationEngine;
    let src = render(4, 0b0101, 0b0010);
    let dir = temp_dir("engine");
    let cfg = EngineConfig::default().with_summaries();
    let build = |cache: Option<&SummaryCache>, store: Option<&SharedSummaryStore>| {
        let mut m = sraa_minic::compile(&src).unwrap();
        let engine = match (cache, store) {
            (None, None) => DisambiguationEngine::build(&mut m, cfg.clone()),
            _ => {
                DisambiguationEngine::build_with_cache_and_store(&mut m, cfg.clone(), cache, store)
            }
        };
        (m, engine)
    };
    let open = || SharedSummaryStore::open(&dir, cfg.gen).expect("store opens");
    let (m_cold, cold) = build(None, None);
    let n = m_cold.num_functions() as u32;
    let (m_first, first) = build(None, Some(&open())); // cold, publishes a segment
    let (m_disk, disk) = build(None, Some(&open())); // warm from the segment file
    let prior = first.export_summary_cache(&m_first).expect("summaries mode");
    let (m_mem, mem) = build(Some(&prior), None); // warm from the exported cache
    let s = first.stats();
    assert_eq!((s.store_hits, s.store_misses, s.store_published), (0, n, n));
    let s = disk.stats();
    assert_eq!((s.store_hits, s.store_misses, s.store_published), (n, 0, 0));
    let s = mem.stats();
    assert_eq!((s.cache_hits, s.cache_misses, s.cache_invalidated), (n, 0, 0));

    // The never-cached engine derives its keys only on export; its cache
    // equals the one the reuse path exports from the keys it kept.
    let recomputed = cold.export_summary_cache(&m_cold).expect("summaries mode");
    for (_, f) in m_cold.functions() {
        assert_eq!(recomputed.get(&f.name), prior.get(&f.name), "{} differs", f.name);
    }

    // Every query result — LT sets and batch no-alias verdicts — is
    // identical to the never-cached engine's.
    for (m_warm, warm) in [(&m_disk, &disk), (&m_mem, &mem)] {
        assert_eq!(warm.summaries().map(|s| s.stats.solves), Some(0), "a warm run solves nothing");
        assert_eq!(warm.summaries().map(|s| s.facts()), cold.summaries().map(|s| s.facts()));
        for (fid, f) in m_cold.functions() {
            for v in f.value_ids() {
                assert_eq!(warm.lt_set(fid, v), cold.lt_set(fid, v), "LT({v}) differs");
            }
            let ptrs = AaEval::pointer_values(m_warm, fid);
            assert_eq!(warm.no_alias_pairs(f, fid, &ptrs), cold.no_alias_pairs(f, fid, &ptrs));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Golden format fixture.
// ---------------------------------------------------------------------

/// A hand-built module (no frontend, no e-SSA) so the fixture pins only
/// the fingerprint scheme, the key propagation, the summary distillation
/// and the byte format — not the MiniC pipeline.
fn golden_module() -> Module {
    let mut m = Module::new();
    let next = m.declare_function("next", vec![("i", Type::Int)], Some(Type::Int));
    let main_fn = m.declare_function("main", vec![], Some(Type::Int));
    {
        let f = m.function_mut(next);
        let i = f.param_value(0);
        let one = f.add_const(1);
        let entry = f.entry();
        let sum = f.append_inst(
            entry,
            InstKind::Binary { op: BinOp::Add, lhs: i, rhs: one },
            Some(Type::Int),
        );
        f.append_inst(entry, InstKind::Ret(Some(sum)), None);
    }
    {
        let f = m.function_mut(main_fn);
        let entry = f.entry();
        let three = f.add_const(3);
        let r = f.append_inst(
            entry,
            InstKind::Call { callee: next, args: vec![three] },
            Some(Type::Int),
        );
        f.append_inst(entry, InstKind::Ret(Some(r)), None);
    }
    sraa_ir::verify(&m).expect("golden module is well-formed");
    m
}

/// The golden module's summaries published into an empty store through
/// the public API: the one segment file that publish writes.
fn golden_segment() -> Vec<u8> {
    let m = golden_module();
    let ranges = sraa_range::analyze(&m);
    let index = VarIndex::new(&m);
    let sums = ModuleSummaries::compute(&m, &ranges, &index);
    assert_eq!(sums.of(m.function_by_name("next").unwrap()).args_lt_ret(), &[0], "i < next(i)");
    let keys = SummaryKeys::compute(&m);
    let entries: Vec<_> = m.functions().map(|(f, _)| (keys.of(f), sums.of(f).clone())).collect();

    static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let dir =
        temp_dir(&format!("golden{}", SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)));
    let store = SharedSummaryStore::open(&dir, GenConfig::default()).expect("store opens");
    assert_eq!(store.publish(&entries).expect("publish"), 2);
    let mut files: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    assert_eq!(files.len(), 1, "one publish writes one segment: {files:?}");
    let bytes = std::fs::read(files.pop().unwrap()).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

#[test]
fn golden_cache_fixture_round_trips_and_serialization_is_stable() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/store_segment_v1.bin");
    let bytes = golden_segment();
    // Byte-identical across *processes* too, not just within one run:
    // nothing about the key or the format may depend on ASLR, hash-map
    // iteration, or pointer identity.
    assert_eq!(bytes, golden_segment());

    if std::env::var_os("SRAA_REGEN_GOLDEN").is_some() {
        std::fs::write(fixture, &bytes).expect("write fixture");
        return;
    }
    let committed = std::fs::read(fixture).expect(
        "tests/fixtures/store_segment_v1.bin missing — regenerate with \
         SRAA_REGEN_GOLDEN=1 cargo test --test incremental",
    );
    assert_eq!(
        bytes, committed,
        "the published segment no longer matches the committed fixture. If the segment \
         layout or the key scheme changed intentionally, bump \
         sraa_core::FORMAT_VERSION and regenerate the fixture"
    );

    // The committed artifact loads as a store segment, keys intact.
    let dir = temp_dir("golden_load");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("seg-0000000000000001-00000000-0000.sraaseg"), &committed).unwrap();
    let store = SharedSummaryStore::open(&dir, GenConfig::default()).expect("store opens");
    assert_eq!((store.len(), store.skipped_segments()), (2, 0));
    let m = golden_module();
    let keys = SummaryKeys::compute(&m);
    let next = m.function_by_name("next").unwrap();
    let summary = store.get(keys.of(next)).expect("key matches fixture");
    assert_eq!(summary.args_lt_ret(), &[0]);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Property suite: random structures, variants and mutation sets — plus
// csmith modules for the unchanged-module contract.
// ---------------------------------------------------------------------

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Cold → mutate k helper bodies → warm must be byte-identical to
        /// a fresh cold run, with hit/miss counts matching the call
        /// graph's reverse-reachability closure of the mutation — for
        /// arbitrary call structures, body variants and mutation sets.
        #[test]
        fn warm_equals_cold_after_arbitrary_mutations(
            n in 2usize..7,
            structure in 0u64..64,
            variants in 0u64..64,
            raw_mutations in proptest::collection::btree_set(0usize..7, 1..4),
        ) {
            let mutated: BTreeSet<usize> =
                raw_mutations.into_iter().map(|i| i % n).collect();
            check_mutation(n, structure, variants, &mutated);
        }

        /// An unchanged csmith module (with helper calls) warm-runs at a
        /// 100% hit rate with zero solves and identical results.
        #[test]
        fn csmith_modules_hit_fully_when_unchanged(
            seed in 0u64..12,
            helpers in 1usize..3,
        ) {
            let w = sraa_synth::csmith_generate(sraa_synth::CsmithConfig {
                seed,
                max_ptr_depth: 3,
                num_stmts: 16,
                helpers,
            });
            let p = prepare(&w.source);
            let cache = cache_of(&p);
            let (warm_sums, outcome) = warm(&p, &cache);
            assert_warm_equals_cold(&p, &warm_sums, &w.name);
            prop_assert_eq!(outcome.hits as usize, p.module.num_functions());
            prop_assert_eq!(outcome.misses, 0);
            prop_assert_eq!(outcome.invalidated, 0);
            prop_assert_eq!(warm_sums.stats.solves, 0);
        }
    }
}
