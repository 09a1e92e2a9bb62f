//! Cross-crate integration tests: the whole pipeline, end to end, over
//! generated workloads — frontend → e-SSA → ranges → constraints →
//! solving → alias queries → PDG.

use sraa_alias::{AaEval, AliasAnalysis, AliasResult, BasicAliasAnalysis, StrictInequalityAa};
use sraa_ir::{verify, InstKind, Interpreter, ModuleStats};
use sraa_pdg::DepGraph;

#[test]
fn whole_pipeline_on_every_fifth_suite_member() {
    for (k, w) in sraa_synth::test_suite(50).into_iter().enumerate() {
        if k % 5 != 0 {
            continue;
        }
        let mut m = sraa_minic::compile(&w.source).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        verify(&m).unwrap_or_else(|e| panic!("{} pre-essa: {e}", w.name));
        let lt = StrictInequalityAa::new(&mut m);
        verify(&m).unwrap_or_else(|e| panic!("{} post-essa: {e}", w.name));
        let ba = BasicAliasAnalysis::new(&m);

        let out = AaEval::run(&m, &[&ba, &lt]);
        assert_eq!(out[0].total(), out[1].total(), "{}", w.name);
        assert_eq!(out[0].total(), AaEval::num_queries(&m), "{}", w.name);

        // The PDG is buildable and bounded by the static access count.
        let g = DepGraph::build(&m, &ba);
        assert!(g.memory_nodes <= g.static_accesses, "{}", w.name);
        assert_eq!(g.static_accesses, ModuleStats::compute(&m).memory_accesses, "{}", w.name);
    }
}

#[test]
fn essa_preserves_behaviour_on_suite_members() {
    for (k, w) in sraa_synth::test_suite(20).into_iter().enumerate() {
        if k % 4 != 0 {
            continue;
        }
        let mut m = sraa_minic::compile(&w.source).unwrap();
        let before = Interpreter::new(&m)
            .with_step_limit(20_000_000)
            .run("main", &[])
            .unwrap_or_else(|e| panic!("{} baseline run: {e:?}", w.name));
        let _ = StrictInequalityAa::new(&mut m);
        let after = Interpreter::new(&m)
            .with_step_limit(20_000_000)
            .run("main", &[])
            .unwrap_or_else(|e| panic!("{} post-essa run: {e:?}", w.name));
        assert_eq!(before.result, after.result, "{}: e-SSA must not change results", w.name);
    }
}

#[test]
fn alias_results_are_symmetric_and_reflexive() {
    let w = sraa_synth::spec_generate_by_name("astar").unwrap();
    let mut m = sraa_minic::compile(&w.source).unwrap();
    let lt = StrictInequalityAa::new(&mut m);
    let ba = BasicAliasAnalysis::new(&m);
    for (fid, _) in m.functions().take(12) {
        let ptrs = AaEval::pointer_values(&m, fid);
        for (i, &p) in ptrs.iter().enumerate().take(20) {
            assert_eq!(ba.alias(&m, fid, p, p), AliasResult::MustAlias);
            assert_eq!(lt.alias(&m, fid, p, p), AliasResult::MustAlias);
            for &q in ptrs.iter().skip(i + 1).take(20) {
                assert_eq!(
                    ba.alias(&m, fid, p, q),
                    ba.alias(&m, fid, q, p),
                    "BA must be symmetric"
                );
                assert_eq!(
                    lt.alias(&m, fid, p, q),
                    lt.alias(&m, fid, q, p),
                    "LT must be symmetric"
                );
            }
        }
    }
}

#[test]
fn lt_never_contradicts_must_alias() {
    // Wherever BA proves MustAlias (same address), LT must not claim
    // NoAlias — the analyses would be inconsistent otherwise.
    for w in sraa_synth::spec_all().into_iter().take(5) {
        let mut m = sraa_minic::compile(&w.source).unwrap();
        let lt = StrictInequalityAa::new(&mut m);
        let ba = BasicAliasAnalysis::new(&m);
        for (fid, _) in m.functions() {
            let ptrs = AaEval::pointer_values(&m, fid);
            for (i, &p) in ptrs.iter().enumerate() {
                for &q in ptrs.iter().skip(i + 1) {
                    if ba.alias(&m, fid, p, q) == AliasResult::MustAlias {
                        assert_ne!(
                            lt.alias(&m, fid, p, q),
                            AliasResult::NoAlias,
                            "{}: {p} vs {q} in {fid}",
                            w.name
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn interpreters_are_deterministic() {
    let w = sraa_synth::csmith_generate(sraa_synth::CsmithConfig {
        seed: 99,
        max_ptr_depth: 4,
        num_stmts: 70,
        helpers: 0,
    });
    let m = sraa_minic::compile(&w.source).unwrap();
    let a = Interpreter::new(&m).run("main", &[]).unwrap();
    let b = Interpreter::new(&m).run("main", &[]).unwrap();
    assert_eq!(a, b);
}

#[test]
fn stencil_loops_disambiguate_via_gep_offsets() {
    // The `a[i] = a[i+1]` idiom: rule 2 on the offsets + criterion 2.
    let mut m = sraa_minic::compile(
        r#"
        void shift(int* a, int n) {
            for (int i = 0; i + 1 < n; i++) a[i] = a[i + 1];
        }
        "#,
    )
    .unwrap();
    let lt = StrictInequalityAa::new(&mut m);
    let fid = m.function_by_name("shift").unwrap();
    let f = m.function(fid);
    let (mut load, mut store) = (None, None);
    for b in f.block_ids() {
        for (_, d) in f.block_insts(b) {
            match d.kind {
                InstKind::Load { ptr } => load = Some(ptr),
                InstKind::Store { ptr, .. } => store = Some(ptr),
                _ => {}
            }
        }
    }
    assert_eq!(
        lt.alias(&m, fid, load.unwrap(), store.unwrap()),
        AliasResult::NoAlias,
        "i < i+1 separates the two accesses of one iteration"
    );
}

/// Lowering yields minimal SSA: no φ whose operands, other than the φ
/// itself, are all one value. The paper's rule 4 relies on it, because a
/// φ joins the less-than facts of its operands and a trivial φ loses the
/// facts of the value it forwards. The merge φs of `?:`, `&&` and `||`
/// are the known exception (ROADMAP item 9); this pins the programs that
/// keep one, so a lowering change that adds or removes one shows here.
#[test]
fn lowering_keeps_trivial_phis_only_in_the_known_programs() {
    let mut corpus = sraa_synth::test_suite(100);
    corpus.extend(sraa_synth::call_suite(12));
    corpus.extend(sraa_synth::csmith_figure12());
    for d in 2..=7u8 {
        for k in 0..8u64 {
            corpus.push(sraa_synth::csmith_generate(sraa_synth::CsmithConfig {
                seed: u64::from(d) * 100 + k,
                max_ptr_depth: d,
                num_stmts: 60,
                helpers: 1 + (k % 2) as usize,
            }));
        }
    }
    let trivial_phis = |w: &sraa_synth::Workload| {
        let m = sraa_minic::compile(&w.source).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let mut count = 0;
        for (_, f) in m.functions() {
            for b in f.block_ids() {
                for &v in &f.block(b).insts {
                    let InstKind::Phi { incomings } = &f.inst(v).kind else { continue };
                    let mut others = incomings.iter().map(|&(_, x)| x).filter(|&x| x != v);
                    let first = others.next();
                    if others.all(|x| Some(x) == first) {
                        count += 1;
                    }
                }
            }
        }
        count
    };
    // Two threads, one per interleaved half, keep the debug run near 10 s:
    // lowering the larger Figure 12 programs dominates it.
    let halves: [Vec<usize>; 2] = std::thread::scope(|s| {
        let odd = s.spawn(|| corpus.iter().skip(1).step_by(2).map(trivial_phis).collect());
        let even = corpus.iter().step_by(2).map(trivial_phis).collect();
        [even, odd.join().expect("the worker thread panicked")]
    });
    let trivial: Vec<(&str, usize)> = corpus
        .iter()
        .enumerate()
        .map(|(k, w)| (w.name.as_str(), halves[k % 2][k / 2]))
        .filter(|&(_, n)| n > 0)
        .collect();
    assert_eq!(
        trivial,
        [
            ("csmith_d2_s2017", 1),
            ("csmith_d2_s2018", 1),
            ("csmith_d3_s301_h2", 1),
            ("csmith_d3_s304_h1", 1),
            ("csmith_d3_s305_h2", 1),
        ]
    );
}
