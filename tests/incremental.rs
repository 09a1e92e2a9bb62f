//! Differential tests of the incremental engine (`--summary-cache`):
//! persistent [`ModuleSummaries`] keyed by body-hash ⊕ callee-key.
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
//! The committed golden fixture (`tests/fixtures/summary_cache_v1.bin`)
//! pins the byte format and the fingerprint scheme: if either changes,
//! the golden test fails and `persist::FORMAT_VERSION` must be bumped.
//! Regenerate with `SRAA_REGEN_GOLDEN=1 cargo test --test incremental`.

use sraa_core::{
    persist, CacheOutcome, EngineConfig, GenConfig, ModuleSummaries, SolverKind, SummaryKeys,
    VarId, VarIndex,
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
    let sums = ModuleSummaries::compute(
        &module,
        &ranges,
        GenConfig::default(),
        &index,
        SolverKind::Scc,
        sraa_core::Jobs::default(),
    );
    let keys = SummaryKeys::compute(&module);
    Prepared { module, ranges, index, sums, keys }
}

/// Serialize `p`'s summaries and load them back — the cache a warm run
/// would read from disk (exercising the full byte round trip each time).
fn cache_of(p: &Prepared) -> persist::SummaryCache {
    let bytes = persist::to_bytes(&p.module, &p.sums, &p.keys, GenConfig::default());
    persist::from_bytes(&bytes, GenConfig::default()).expect("round trip")
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
fn warm(p: &Prepared, cache: &persist::SummaryCache) -> (ModuleSummaries, CacheOutcome) {
    let (sums, keys, outcome, _) = ModuleSummaries::compute_incremental(
        &p.module,
        &p.ranges,
        GenConfig::default(),
        &p.index,
        SolverKind::Scc,
        sraa_core::Jobs::default(),
        Some(cache),
        None,
    );
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
    let gen = |sums| {
        sraa_core::generate_with_summaries(
            &p.module,
            &p.ranges,
            GenConfig::default(),
            &p.index,
            sums,
        )
    };
    let (sys_w, sys_c) = (gen(warm_sums), gen(&p.sums));
    assert_eq!(sys_w.constraints, sys_c.constraints, "{name}: constraint streams differ");
    assert_eq!(sys_w.num_vars, sys_c.num_vars);
    let (sol_w, sol_c) = (
        SolverKind::Scc.solve(&sys_w.constraints, sys_w.num_vars),
        SolverKind::Scc.solve(&sys_c.constraints, sys_c.num_vars),
    );
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

#[test]
fn engine_warm_run_through_a_cache_file_matches_the_cold_engine() {
    use sraa_alias::AaEval;
    let src = render(4, 0b0101, 0b0010);
    let path = std::env::temp_dir().join(format!("sraa_incr_engine_{}.bin", std::process::id()));
    std::fs::remove_file(&path).ok();

    // The caller owns the file: load it (absent on the first run), build
    // against it, write it back — what `sraa eval --summary-cache` does.
    let build = |cache: bool| {
        let mut m = sraa_minic::compile(&src).unwrap();
        let cfg = EngineConfig::default().with_summaries();
        if !cache {
            let engine = sraa_core::DisambiguationEngine::build(&mut m, cfg);
            return (m, engine);
        }
        let prior = persist::load(&path, cfg.gen).ok();
        let engine = sraa_core::DisambiguationEngine::build_with_cache_and_store(
            &mut m,
            cfg,
            prior.as_ref(),
            None,
        );
        let keys = SummaryKeys::compute(&m);
        persist::save(&path, &m, engine.summaries().unwrap(), &keys, GenConfig::default())
            .expect("cache written");
        (m, engine)
    };
    let (m_cold, cold) = build(false);
    let (_, first) = build(true); // cold, writes the cache
    let (m_warm, warm) = build(true); // warm, all hits
    assert_eq!(
        (first.stats().cache_hits, first.stats().cache_misses as usize),
        (0, m_cold.num_functions())
    );
    assert_eq!(warm.stats().cache_hits as usize, m_cold.num_functions());
    assert_eq!((warm.stats().cache_misses, warm.stats().cache_invalidated), (0, 0));
    assert_eq!(warm.summaries().map(|s| s.facts()), cold.summaries().map(|s| s.facts()));

    // Every query result — LT sets and batch no-alias verdicts — is
    // identical to the never-cached engine's.
    for (fid, f) in m_cold.functions() {
        for v in f.value_ids() {
            assert_eq!(warm.lt_set(fid, v), cold.lt_set(fid, v), "LT({v}) differs");
        }
        let ptrs = AaEval::pointer_values(&m_warm, fid);
        assert_eq!(warm.no_alias_pairs(f, fid, &ptrs), cold.no_alias_pairs(f, fid, &ptrs));
    }
    std::fs::remove_file(&path).ok();
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

fn golden_bytes() -> Vec<u8> {
    let m = golden_module();
    let ranges = sraa_range::analyze(&m);
    let index = VarIndex::new(&m);
    let sums = ModuleSummaries::compute(
        &m,
        &ranges,
        GenConfig::default(),
        &index,
        SolverKind::Scc,
        sraa_core::Jobs::default(),
    );
    assert_eq!(sums.of(m.function_by_name("next").unwrap()).args_lt_ret(), &[0], "i < next(i)");
    let keys = SummaryKeys::compute(&m);
    persist::to_bytes(&m, &sums, &keys, GenConfig::default())
}

#[test]
fn golden_cache_fixture_round_trips_and_serialization_is_stable() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/summary_cache_v1.bin");
    let bytes = golden_bytes();
    // Byte-identical across *processes* too, not just within one run:
    // nothing about the key or the format may depend on ASLR, hash-map
    // iteration, or pointer identity.
    assert_eq!(bytes, golden_bytes());

    if std::env::var_os("SRAA_REGEN_GOLDEN").is_some() {
        std::fs::write(fixture, &bytes).expect("write fixture");
        return;
    }
    let committed = std::fs::read(fixture).expect(
        "tests/fixtures/summary_cache_v1.bin missing — regenerate with \
         SRAA_REGEN_GOLDEN=1 cargo test --test incremental",
    );
    assert_eq!(
        bytes, committed,
        "the serialized cache no longer matches the committed fixture. If the byte \
         format or the fingerprint scheme changed intentionally, bump \
         persist::FORMAT_VERSION and regenerate the fixture"
    );

    // The committed artifact round-trips through the parser, keys intact.
    let cache = persist::from_bytes(&committed, GenConfig::default()).expect("fixture parses");
    assert_eq!(cache.len(), 2);
    let m = golden_module();
    let keys = SummaryKeys::compute(&m);
    let next = m.function_by_name("next").unwrap();
    let summary = cache.lookup("next", keys.of(next)).expect("key matches fixture");
    assert_eq!(summary.args_lt_ret(), &[0]);
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
