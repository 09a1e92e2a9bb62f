//! End-to-end differential test of the engine's fixpoint, [`solve`]
//! (SCC condensation, see the `fast_solver` module docs), against the
//! paper's §3.4 worklist, [`solve_worklist`], kept as its reference.
//!
//! The paper's §6 leaves solver speed as an open problem; SCC
//! condensation answers it. Here both schedules run on the *real*
//! constraint systems of the evaluation corpus — all 16 calibrated SPEC
//! workloads plus a population of Csmith-style random programs — and
//! must produce identical less-than sets for every variable. Repeated
//! engine runs must also be byte-identical (no hash-iteration
//! nondeterminism).

use sraa_core::{generate, solve, solve_worklist, DisambiguationEngine, VarId};
use sraa_synth::{csmith_generate, spec_all, CsmithConfig};

fn assert_solvers_agree(source: &str, name: &str) {
    let mut module =
        sraa_minic::compile(source).unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
    let (ranges, _) = sraa_essa::transform_module(&mut module);
    let sys = generate(&module, &ranges);

    let base = solve_worklist(&sys.constraints, sys.num_vars);
    let fast = solve(&sys.constraints, sys.num_vars);

    for x in 0..sys.num_vars {
        let x = VarId::from_index(x);
        assert_eq!(base.lt_set(x), fast.lt_set(x), "{name}: solvers disagree on variable {x}");
        assert_eq!(base.was_top(x), fast.was_top(x), "{name}: frozen sets differ on {x}");
    }
    assert_eq!(base.stats.frozen_tops, fast.stats.frozen_tops, "{name}: frozen-⊤ counts differ");
    assert!(
        fast.stats.pops <= base.stats.pops,
        "{name}: fast solver did more work ({} evals vs {} pops)",
        fast.stats.pops,
        base.stats.pops
    );
}

#[test]
fn solvers_agree_on_all_spec_workloads() {
    for w in spec_all() {
        assert_solvers_agree(&w.source, &w.name);
    }
}

#[test]
fn solvers_agree_on_csmith_population() {
    for seed in 0..24 {
        let cfg = CsmithConfig {
            seed: 9_000 + seed,
            max_ptr_depth: (2 + seed % 6) as u8,
            num_stmts: 30 + (seed as usize % 4) * 15,
            helpers: 0,
        };
        let w = csmith_generate(cfg);
        assert_solvers_agree(&w.source, &w.name);
    }
}

#[test]
fn solvers_agree_on_figure_1_programs() {
    let ins_sort = r#"
        void ins_sort(int* v, int N) {
            for (int i = 0; i < N - 1; i++) {
                for (int j = i + 1; j < N; j++) {
                    if (v[i] > v[j]) {
                        int tmp = v[i];
                        v[i] = v[j];
                        v[j] = tmp;
                    }
                }
            }
        }
    "#;
    let partition = r#"
        void partition(int* v, int N) {
            int i; int j; int p; int tmp;
            p = v[N / 2];
            for (i = 0, j = N - 1;; i++, j--) {
                while (v[i] < p) i++;
                while (p < v[j]) j--;
                if (i >= j) break;
                tmp = v[i];
                v[i] = v[j];
                v[j] = tmp;
            }
        }
    "#;
    assert_solvers_agree(ins_sort, "fig1a-ins_sort");
    assert_solvers_agree(partition, "fig1b-partition");
}

/// Repeated runs of the full pipeline must be byte-identical: the solved
/// sets iterate in sorted `VarId` order and no `HashSet` iteration leaks
/// into results or statistics.
#[test]
fn repeated_runs_are_deterministic() {
    let w = spec_all().into_iter().next().expect("spec corpus is non-empty");
    let run = || {
        let mut m = sraa_minic::compile(&w.source).unwrap();
        let engine = DisambiguationEngine::run(&mut m);
        let mut rendered = String::new();
        for (fid, f) in m.functions() {
            for v in f.value_ids() {
                let set = engine.lt_set(fid, v);
                if !set.is_empty() {
                    rendered.push_str(&format!("{fid:?} {v}: {set:?}\n"));
                }
            }
        }
        // Deterministic stats only: the per-phase wall-clock fields
        // (`summary_build_ns` / `final_solve_ns`) vary run to run by
        // design and are likewise excluded from `SolveStats` equality.
        let s = engine.stats();
        rendered.push_str(&format!(
            "{} {} {} {} {} {} {} {} {} {}\n{:?}",
            s.constraints,
            s.variables,
            s.pops,
            s.frozen_tops,
            s.sccs,
            s.cyclic_sccs,
            s.union_cycles,
            s.cache_hits,
            s.cache_misses,
            s.cache_invalidated,
            engine.size_histogram()
        ));
        rendered
    };
    let first = run();
    for _ in 0..2 {
        assert_eq!(first, run(), "engine run is nondeterministic");
    }
}
