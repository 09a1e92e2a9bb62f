//! Dynamic validation of the paper's central guarantees, on randomly
//! generated programs executed under the IR interpreter:
//!
//! * **Adequacy / Corollary 3.10** — if `x′ ∈ LT(x)` and both values are
//!   simultaneously alive, then at run time `Σ(x′) < Σ(x)`.
//! * **No-alias soundness** — if any analysis (LT, BA, CF, PT, BA+LT)
//!   answers `NoAlias` for two pointers of one function, their concrete
//!   values differ whenever both are alive in the same activation.
//!
//! "Simultaneously alive" is checked exactly as the paper defines it: in
//! strict SSA two values interfere iff one is alive at the definition
//! point of the other, so every check fires at a definition point, against
//! the currently live values of the same frame.

use sraa_alias::{
    AliasAnalysis, AliasResult, AndersenAnalysis, BasicAliasAnalysis, Combined, StrictInequalityAa,
};
use sraa_core::EngineConfig;
use sraa_ir::{Cfg, Frame, FuncId, Interpreter, Liveness, Module, Observer, Type, Value};

/// What must hold when `watched`'s definition executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Check {
    /// `other < watched` (Corollary 3.10).
    StrictlyLess,
    /// `other != watched` (pointer disambiguation).
    Distinct,
}

struct FuncChecks {
    /// `watched value -> [(other value, check, tag)]`
    at_def: Vec<Vec<(Value, Check, &'static str)>>,
}

struct SoundnessObserver<'a> {
    checks: &'a [FuncChecks],
    violations: Vec<String>,
}

impl Observer for SoundnessObserver<'_> {
    fn on_def(&mut self, frame: &Frame, v: Value, val: i64) {
        let fc = &self.checks[frame_func(frame).index()];
        let Some(list) = fc.at_def.get(v.index()) else { return };
        for &(other, check, tag) in list {
            let Some(oval) = frame.get(other) else { continue };
            let ok = match check {
                Check::StrictlyLess => oval < val,
                Check::Distinct => oval != val,
            };
            if !ok {
                self.violations.push(format!(
                    "{tag}: {other}={oval} vs {v}={val} in {} ({check:?})",
                    frame_func(frame)
                ));
            }
        }
    }
}

fn frame_func(frame: &Frame) -> FuncId {
    frame.func
}

/// Builds the per-function check tables for a fully analysed module.
/// Every engine in `lts` contributes its strict-inequality facts (the
/// interprocedural engine claims strictly more of them than the
/// intraprocedural one — each claim faces the same dynamic bar).
fn build_checks(
    module: &Module,
    lts: &[(&'static str, &StrictInequalityAa)],
    analyses: &[(&'static str, &dyn AliasAnalysis)],
) -> Vec<FuncChecks> {
    let mut out = Vec::new();
    for (fid, f) in module.functions() {
        let cfg = Cfg::compute(f);
        let liveness = Liveness::compute(f, &cfg);
        let positions = f.positions();
        let mut at_def: Vec<Vec<(Value, Check, &'static str)>> = vec![Vec::new(); f.num_insts()];

        let values: Vec<Value> = f
            .block_ids()
            .flat_map(|b| f.block_insts(b).map(|(v, _)| v).collect::<Vec<_>>())
            .collect();

        for (i, &a) in values.iter().enumerate() {
            if !f.inst(a).has_result() {
                continue;
            }
            for &b in values.iter().skip(i + 1) {
                if !f.inst(b).has_result() {
                    continue;
                }
                // Which of the two is defined later (checked at its def)?
                // `values` is in block layout order, not execution order;
                // use liveness to decide in both directions.
                for (w, o) in [(a, b), (b, a)] {
                    // check fires at def(w), `o` must be live there
                    if !liveness.live_at_def(f, &positions, o, w) {
                        continue;
                    }
                    for (tag, lt) in lts {
                        if lt.engine().less_than(fid, o, w) {
                            at_def[w.index()].push((o, Check::StrictlyLess, tag));
                        }
                    }
                    let both_ptr = f.value_type(o).is_some_and(Type::is_ptr)
                        && f.value_type(w).is_some_and(Type::is_ptr);
                    if both_ptr {
                        for (tag, aa) in analyses {
                            if aa.alias(module, fid, o, w) == AliasResult::NoAlias {
                                at_def[w.index()].push((o, Check::Distinct, tag));
                            }
                        }
                    }
                }
            }
        }
        let _ = fid;
        out.push(FuncChecks { at_def });
    }
    out
}

fn check_workload(source: &str, name: &str) {
    let mut module = sraa_minic::compile(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let lt = StrictInequalityAa::new(&mut module);
    sraa_ir::verify(&module).unwrap_or_else(|e| panic!("{name}: {e}"));
    // The interprocedural engine analyses its own copy of the module (the
    // e-SSA pipeline is deterministic, so the copies are identical) and
    // must survive the same execution as the intraprocedural one.
    let mut module2 = sraa_minic::compile(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let lt_ip = StrictInequalityAa::with_engine_config(
        &mut module2,
        EngineConfig::default().with_summaries(),
    );
    assert_eq!(module, module2, "{name}: contextuality must not perturb the pipeline");
    let ba = BasicAliasAnalysis::new(&module);
    let cf = AndersenAnalysis::new(&module);
    // The dense Pentagon adapter runs on the same e-SSA module the LT
    // constructor produced; its no-alias verdicts face the same dynamic
    // bar as everyone else's.
    let pt = sraa_alias::PentagonAa::on_prepared(&module);
    // BA+LT as the chain `Combined` forms; the `eval` report derives the
    // same verdicts from its BA and LT columns.
    // ST is not checked: it gives every `globaladdr` instruction its own
    // object, so two addresses into one global can get `NoAlias`, and
    // `csmith_d2_s188` below executes such a pair (ROADMAP, item 12).
    let ba_lt =
        Combined::new(vec![Box::new(BasicAliasAnalysis::new(&module)), Box::new(lt.clone())]);
    let analyses: Vec<(&'static str, &dyn AliasAnalysis)> = vec![
        ("LT-aa", &lt),
        ("LT-ip-aa", &lt_ip),
        ("BA", &ba),
        ("CF", &cf),
        ("PT", &pt),
        ("BA+LT", &ba_lt),
    ];
    let checks = build_checks(&module, &[("LT", &lt), ("LT-ip", &lt_ip)], &analyses);
    let mut obs = SoundnessObserver { checks: &checks, violations: Vec::new() };
    let mut interp = Interpreter::new(&module).with_step_limit(5_000_000);
    match interp.run_observed("main", &[], &mut obs) {
        Ok(_) => {}
        Err(e) => panic!("{name}: execution failed: {e:?}"),
    }
    assert!(
        obs.violations.is_empty(),
        "{name}: {} dynamic soundness violation(s):\n{}\nsource:\n{source}",
        obs.violations.len(),
        obs.violations.join("\n")
    );
}

#[test]
fn csmith_programs_respect_all_no_alias_and_lt_claims() {
    for depth in 2..=7u8 {
        for seed in 0..8u64 {
            let w = sraa_synth::csmith_generate(sraa_synth::CsmithConfig {
                seed: seed * 31 + depth as u64,
                max_ptr_depth: depth,
                num_stmts: 60,
                // A third of the corpus contains helper calls, so the
                // interprocedural claims face call-crossing executions.
                helpers: (seed % 3) as usize,
            });
            check_workload(&w.source, &w.name);
        }
    }
}

#[test]
fn spec_profiles_respect_all_no_alias_and_lt_claims() {
    for w in sraa_synth::spec_all().into_iter().take(6) {
        check_workload(&w.source, &w.name);
    }
}

#[test]
fn call_heavy_suite_respects_all_no_alias_and_lt_claims() {
    // The population the summary layer is measured on: helper bounds
    // checks, chained helpers, recursive partitions. Every extra
    // no-alias / less-than fact the interprocedural engine claims is
    // checked against the concrete execution.
    for w in sraa_synth::call_suite(9) {
        check_workload(&w.source, &w.name);
    }
}

#[test]
fn paper_figure1_programs_respect_claims() {
    check_workload(
        r#"
        void ins_sort(int* v, int N) {
            int i; int j;
            for (i = 0; i < N - 1; i++)
                for (j = i + 1; j < N; j++)
                    if (v[i] > v[j]) { int t = v[i]; v[i] = v[j]; v[j] = t; }
        }
        void partition(int* v, int N) {
            int i; int j; int p; int tmp;
            p = v[N / 2];
            i = 0; j = N - 1;
            while (1) {
                while (v[i] < p) i++;
                while (p < v[j]) j--;
                if (i >= j) break;
                tmp = v[i]; v[i] = v[j]; v[j] = tmp;
                i++; j--;
            }
        }
        int main() {
            int a[16];
            for (int k = 0; k < 16; k++) a[k] = (16 - k) * 3 % 7;
            ins_sort(a, 16);
            for (int k = 0; k < 16; k++) a[k] = (k * 5 + 2) % 11;
            partition(a, 16);
            return a[0];
        }
        "#,
        "figure1",
    );
}

#[test]
fn interprocedural_param_pairs_hold_dynamically() {
    check_workload(
        r#"
        int g(int* v, int lo, int hi) { return v[lo] * 100 + v[hi]; }
        int main() {
            int a[32];
            for (int i = 0; i < 32; i++) a[i] = i;
            int acc = 0;
            for (int i = 0; i + 3 < 32; i++) acc += g(a, i, i + 3);
            return acc % 251;
        }
        "#,
        "param_pairs",
    );
}

/// Range-analysis soundness: every interval contains every value its
/// variable takes at run time, on random programs.
#[test]
fn range_analysis_contains_all_runtime_values() {
    use sraa_range::RangeAnalysis;

    struct RangeObserver<'a> {
        module: &'a Module,
        ranges: &'a RangeAnalysis,
        violations: Vec<String>,
    }
    impl Observer for RangeObserver<'_> {
        fn on_def(&mut self, frame: &Frame, v: Value, val: i64) {
            let f = self.module.function(frame.func);
            if f.value_type(v) != Some(Type::Int) {
                return; // pointers are untracked by the interval domain
            }
            let iv = self.ranges.range(frame.func, v);
            if !iv.contains(val) {
                self.violations.push(format!("{}: {v}={val} ∉ {iv}", frame.func));
            }
        }
    }

    for seed in 0..10u64 {
        let w = sraa_synth::csmith_generate(sraa_synth::CsmithConfig {
            seed: seed + 500,
            max_ptr_depth: 3,
            num_stmts: 50,
            helpers: 0,
        });
        let mut m = sraa_minic::compile(&w.source).unwrap();
        let (ranges, _) = sraa_essa::transform_module(&mut m);
        let mut obs = RangeObserver { module: &m, ranges: &ranges, violations: Vec::new() };
        let mut interp = Interpreter::new(&m).with_step_limit(5_000_000);
        interp.run_observed("main", &[], &mut obs).unwrap();
        assert!(
            obs.violations.is_empty(),
            "{}: {} range violations\n{}",
            w.name,
            obs.violations.len(),
            w.source
        );
    }
}

/// The §3.6 range-offset criterion (enabled for the Figure 12 experiment)
/// must also be dynamically sound: pointers it separates never carry equal
/// values while simultaneously alive.
#[test]
fn range_offset_criterion_is_dynamically_sound() {
    use sraa_core::GenConfig;

    for depth in [2u8, 4, 6] {
        for seed in 0..6u64 {
            let w = sraa_synth::csmith_generate(sraa_synth::CsmithConfig {
                seed: seed * 13 + depth as u64,
                max_ptr_depth: depth,
                num_stmts: 70,
                helpers: 0,
            });
            let mut module = sraa_minic::compile(&w.source).unwrap();
            let lt = StrictInequalityAa::with_engine_config(
                &mut module,
                GenConfig { range_offsets: true, ..Default::default() }.into(),
            );
            let analyses: Vec<(&'static str, &dyn AliasAnalysis)> = vec![("LT+ranges", &lt)];
            let checks = build_checks(&module, &[("LT+ranges", &lt)], &analyses);
            let mut obs = SoundnessObserver { checks: &checks, violations: Vec::new() };
            let mut interp = Interpreter::new(&module).with_step_limit(5_000_000);
            interp.run_observed("main", &[], &mut obs).unwrap();
            assert!(obs.violations.is_empty(), "{}: {:?}\n{}", w.name, obs.violations, w.source);
        }
    }
}
