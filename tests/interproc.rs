//! Differential tests of the interprocedural summary layer
//! ([`sraa_core::ModuleSummaries`], `--interproc`).
//!
//! The contract under test: [`Contextuality::Summaries`] is a
//! **refinement** of [`Contextuality::Intra`] — it may only *add*
//! no-alias verdicts and less-than facts, never retract one — and on the
//! call-heavy workload family it genuinely does add them. Dynamic
//! soundness of the added facts (no-alias pairs never carry equal
//! values while simultaneously alive) is covered by `tests/soundness.rs`,
//! which runs both engines' claims against the interpreter. The SCC
//! solver and the worklist oracle must also agree on every summary.

use sraa_alias::{AaEval, StrictInequalityAa};
use sraa_core::{
    Contextuality, DisambiguationEngine, EngineConfig, GenConfig, ModuleSummaries, OnDemandProver,
    SolverKind, VarId, VarIndex,
};
use sraa_ir::Module;
use sraa_synth::{call_suite, csmith_generate, CsmithConfig};
use std::fmt::Write as _;

/// Builds both engines on identical copies of `source`.
fn both_engines(source: &str, name: &str) -> (Module, DisambiguationEngine, DisambiguationEngine) {
    let mut m1 =
        sraa_minic::compile(source).unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
    let intra = DisambiguationEngine::build(&mut m1, EngineConfig::default());
    let mut m2 = sraa_minic::compile(source).unwrap();
    let inter = DisambiguationEngine::build(&mut m2, EngineConfig::default().with_summaries());
    assert_eq!(m1, m2, "{name}: contextuality must not perturb the e-SSA pipeline");
    (m1, intra, inter)
}

/// Every verdict intra mode proves, summaries mode must still prove; the
/// return value is the number of *extra* no-alias pairs summaries adds.
fn assert_refines(m: &Module, intra: &DisambiguationEngine, inter: &DisambiguationEngine) -> u64 {
    let mut gained = 0;
    for (fid, f) in m.functions() {
        let ptrs = AaEval::pointer_values(m, fid);
        for (i, &a) in ptrs.iter().enumerate() {
            for &b in ptrs.iter().skip(i + 1) {
                let was = intra.no_alias(f, fid, a, b);
                let now = inter.no_alias(f, fid, a, b);
                assert!(
                    now || !was,
                    "{fid}: summaries lost the intra no-alias verdict for {a} vs {b}"
                );
                gained += (now && !was) as u64;
            }
        }
    }
    gained
}

#[test]
fn call_suite_gains_verdicts_and_never_loses_any() {
    let mut total_gain = 0;
    for w in call_suite(9) {
        let (m, intra, inter) = both_engines(&w.source, &w.name);
        total_gain += assert_refines(&m, &intra, &inter);
    }
    assert!(total_gain > 0, "summaries must add no-alias verdicts on the call-heavy suite");
}

#[test]
fn solver_strategies_agree_in_summaries_mode() {
    for w in call_suite(6) {
        let mut m1 = sraa_minic::compile(&w.source).unwrap();
        let scc = DisambiguationEngine::build(
            &mut m1,
            EngineConfig { solver: SolverKind::Scc, ..EngineConfig::default().with_summaries() },
        );
        let mut m2 = sraa_minic::compile(&w.source).unwrap();
        let wl = DisambiguationEngine::build(
            &mut m2,
            EngineConfig {
                solver: SolverKind::Worklist,
                ..EngineConfig::default().with_summaries()
            },
        );
        assert_eq!(scc.summaries(), wl.summaries(), "{}: summaries differ by solver", w.name);
        for (fid, f) in m1.functions() {
            let ptrs = AaEval::pointer_values(&m1, fid);
            for (i, &a) in ptrs.iter().enumerate() {
                for &b in ptrs.iter().skip(i + 1) {
                    assert_eq!(
                        scc.no_alias(f, fid, a, b),
                        wl.no_alias(f, fid, a, b),
                        "{}: {fid} {a} vs {b}",
                        w.name
                    );
                }
            }
        }
    }
}

/// A wide call graph: `width` independent straight-line helpers of
/// ~`depth` additions each, one recursive helper calling the first of
/// them, and a `main` calling all of them.
fn wide_source(width: usize, depth: usize) -> String {
    let mut s = String::new();
    for i in 0..width {
        let _ = writeln!(s, "int wf{i}(int a, int b) {{");
        let _ = writeln!(s, "    int x0 = a + 1;");
        let _ = writeln!(s, "    int x1 = x0 + b;");
        for j in 2..depth {
            let _ = writeln!(s, "    int x{j} = x{} + {};", j - 1, (i + j + 3) % 9 + 1);
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

/// The SCC solver and the worklist oracle must distil the same summaries
/// with the same statistics, and solve the module-wide system built on
/// them to the same `LT` sets. Returns the number of summary facts.
fn assert_solvers_agree_on_summaries(source: &str, name: &str) -> usize {
    let mut m = sraa_minic::compile(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let (ranges, _) = sraa_essa::transform_module(&mut m);
    let index = VarIndex::new(&m);
    let compute =
        |solver| ModuleSummaries::compute(&m, &ranges, GenConfig::default(), &index, solver);
    let scc = compute(SolverKind::Scc);
    assert_eq!(scc, compute(SolverKind::Worklist), "{name}: summaries or stats differ by solver");
    let sys = sraa_core::generate_with_summaries(&m, &ranges, GenConfig::default(), &index, &scc);
    let a = SolverKind::Scc.solve(&sys.constraints, sys.num_vars);
    let b = SolverKind::Worklist.solve(&sys.constraints, sys.num_vars);
    for v in (0..sys.num_vars).map(VarId::from_index) {
        assert_eq!(a.lt_set(v), b.lt_set(v), "{name}: LT({v}) differs by solver");
        assert_eq!(a.was_top(v), b.was_top(v), "{name}: frozen sets differ on {v}");
    }
    scc.facts()
}

#[test]
fn solver_strategies_agree_on_a_wide_module() {
    let facts = assert_solvers_agree_on_summaries(&wide_source(24, 80), "wide module");
    assert!(facts > 0, "the wide module must produce interprocedural facts");
}

#[test]
fn summaries_are_deterministic_across_builds() {
    let w = &call_suite(3)[2]; // the recursive-partition member
    let (_, _, e1) = both_engines(&w.source, &w.name);
    let (_, _, e2) = both_engines(&w.source, &w.name);
    assert_eq!(e1.summaries(), e2.summaries());
    assert_eq!(e1.contextuality(), Contextuality::Summaries);
}

#[test]
fn eval_totals_never_drop_on_spec_profiles() {
    // The SPEC-shaped corpus has call sites too (the `calls` archetype);
    // summaries must refine it just like the dedicated call suite.
    for w in sraa_synth::spec_all().into_iter().take(4) {
        let mut m1 = sraa_minic::compile(&w.source).unwrap();
        let intra = StrictInequalityAa::new(&mut m1);
        let mut m2 = sraa_minic::compile(&w.source).unwrap();
        let inter = StrictInequalityAa::interprocedural(&mut m2);
        let a = AaEval::run(&m1, &[&intra])[0].clone();
        let b = AaEval::run(&m2, &[&inter])[0].clone();
        assert_eq!(a.total(), b.total(), "{}", w.name);
        assert!(b.no_alias >= a.no_alias, "{}: {} -> {}", w.name, a.no_alias, b.no_alias);
    }
}

#[test]
fn ondemand_prover_agrees_on_summary_systems() {
    // The on-demand prover consumes whatever constraint system it is
    // given — including one with summaries applied at call sites. Its
    // answers must match the exhaustive fixpoint on that same system.
    let w = &call_suite(4)[0];
    let mut m = sraa_minic::compile(&w.source).unwrap();
    let (ranges, _) = sraa_essa::transform_module(&mut m);
    let index = VarIndex::new(&m);
    let sums = ModuleSummaries::compute(&m, &ranges, GenConfig::default(), &index, SolverKind::Scc);
    let sys = sraa_core::generate_with_summaries(&m, &ranges, GenConfig::default(), &index, &sums);
    let solution = SolverKind::Worklist.solve(&sys.constraints, sys.num_vars);
    let mut prover = OnDemandProver::new(&sys);
    for (fid, _) in m.functions() {
        let ptrs = AaEval::pointer_values(&m, fid);
        for &a in &ptrs {
            for &b in &ptrs {
                let (x, y) = (index.id(fid, a), index.id(fid, b));
                let expected = solution.was_top(y) || solution.less_than(x, y);
                assert_eq!(prover.less_than(x, y), expected, "{fid}: {a} < {b}");
            }
        }
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Summaries answers are a superset-consistent refinement of
        /// Intra on random csmith programs with helper calls: no pair
        /// ever flips from no-alias to may-alias, on any seed, depth or
        /// helper count. (These same programs execute trap-free — the
        /// interpreter-backed soundness of the claims is exercised in
        /// `tests/soundness.rs`.)
        #[test]
        fn summaries_refine_intra_on_csmith_programs(
            seed in 0u64..24,
            depth in 2u8..5,
            helpers in 1usize..3,
        ) {
            let w = csmith_generate(CsmithConfig {
                seed,
                max_ptr_depth: depth,
                num_stmts: 18,
                helpers,
            });
            let (m, intra, inter) = both_engines(&w.source, &w.name);
            assert_refines(&m, &intra, &inter);
        }

        /// `scc ≡ worklist` on the summaries and on the module-wide solve
        /// that applies them, over random csmith programs with helpers.
        #[test]
        fn csmith_solver_strategies_agree_on_summaries(seed in 0u64..12) {
            let w = csmith_generate(CsmithConfig {
                seed,
                max_ptr_depth: 3,
                num_stmts: 18,
                helpers: 2,
            });
            assert_solvers_agree_on_summaries(&w.source, &w.name);
        }
    }
}
