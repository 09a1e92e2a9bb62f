//! The `aa-eval` driver: all-pairs alias queries.
//!
//! LLVM's `aa-eval` pass, which the paper uses for its precision numbers
//! (§4.1), "tries to disambiguate every pair of pointers in the program":
//! within each function it collects every pointer-typed value and issues
//! one query per unordered pair, tallying `NoAlias` / `MayAlias` /
//! `MustAlias` verdicts per analysis.

use crate::{
    AliasAnalysis, AliasResult, AndersenAnalysis, BasicAliasAnalysis, PentagonAa,
    SteensgaardAnalysis, StrictInequalityAa,
};
use sraa_ir::{FuncId, Module, ModuleStats, Type, Value};

/// Per-analysis tallies over one module.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalSummary {
    /// Analysis display name.
    pub name: String,
    /// `NoAlias` verdicts.
    pub no_alias: u64,
    /// `MayAlias` verdicts.
    pub may_alias: u64,
    /// `MustAlias` verdicts.
    pub must_alias: u64,
}

impl EvalSummary {
    fn named(name: &str) -> Self {
        EvalSummary { name: name.to_string(), ..Default::default() }
    }

    fn tally(&mut self, verdict: AliasResult) {
        match verdict {
            AliasResult::NoAlias => self.no_alias += 1,
            AliasResult::MayAlias => self.may_alias += 1,
            AliasResult::MustAlias => self.must_alias += 1,
        }
    }

    /// Total queries answered.
    pub fn total(&self) -> u64 {
        self.no_alias + self.may_alias + self.must_alias
    }

    /// Percentage of queries answered `NoAlias` — the paper's precision
    /// metric ("the higher the percentage, the more precise").
    pub fn no_alias_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.no_alias as f64 / self.total() as f64 * 100.0
        }
    }
}

/// All-pairs query driver.
#[derive(Clone, Copy, Debug, Default)]
pub struct AaEval;

impl AaEval {
    /// The pointer-typed values of `func` that `aa-eval` queries.
    pub fn pointer_values(module: &Module, func: FuncId) -> Vec<Value> {
        let f = module.function(func);
        let mut out = Vec::new();
        for b in f.block_ids() {
            for (v, data) in f.block_insts(b) {
                if data.ty.is_some_and(Type::is_ptr) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Total number of queries the module generates (one per unordered
    /// pair of pointer values, per function).
    pub fn num_queries(module: &Module) -> u64 {
        module
            .functions()
            .map(|(fid, _)| {
                let n = Self::pointer_values(module, fid).len() as u64;
                // `n.saturating_sub(1)`: pointer-free functions (integer
                // helpers) must contribute 0, not a debug-mode underflow.
                n * n.saturating_sub(1) / 2
            })
            .sum()
    }

    /// Runs every analysis over every pair, returning one summary per
    /// analysis (in input order).
    pub fn run(module: &Module, analyses: &[&dyn AliasAnalysis]) -> Vec<EvalSummary> {
        let mut summaries: Vec<EvalSummary> =
            analyses.iter().map(|a| EvalSummary::named(&a.name())).collect();
        for (fid, _) in module.functions() {
            let ptrs = Self::pointer_values(module, fid);
            for i in 0..ptrs.len() {
                for j in i + 1..ptrs.len() {
                    for (a, s) in analyses.iter().zip(&mut summaries) {
                        s.tally(a.alias(module, fid, ptrs[i], ptrs[j]));
                    }
                }
            }
        }
        summaries
    }
}

/// Renders the `sraa eval` report — header line plus one verdict row per
/// analysis (BA, LT, CF, ST, PT, BA+LT) — for a module already analysed
/// by `lt`. This is the single source of truth for that text: the CLI's
/// one-shot `eval` prints it, and the resident daemon (`sraa serve`)
/// pre-renders it at upload time so an `eval` query is a string lookup
/// whose reply stays byte-identical to `sraa eval`.
///
/// One pass over each function's pairs asks BA, LT, CF, ST and PT once
/// each, calling the concrete analyses directly. BA+LT is not asked: it
/// is BA's verdict where BA decides and LT's where BA says `MayAlias`,
/// which is what a [`Combined`](crate::Combined) of BA then LT answers.
/// The header's query count is the BA row's total.
///
/// The module must be in e-SSA form (it is after building `lt`).
pub fn render_eval(module: &Module, lt: &StrictInequalityAa) -> String {
    let ba = BasicAliasAnalysis::new(module);
    let cf = AndersenAnalysis::new(module);
    let st = SteensgaardAnalysis::new(module);
    let pt = PentagonAa::on_prepared(module); // the engine already produced e-SSA
    let mut rows = ["BA", "LT", "CF", "ST", "PT", "BA+LT"].map(EvalSummary::named);
    for (fid, _) in module.functions() {
        let ptrs = AaEval::pointer_values(module, fid);
        for (i, &p1) in ptrs.iter().enumerate() {
            for &p2 in &ptrs[i + 1..] {
                let ba_verdict = ba.alias(module, fid, p1, p2);
                let lt_verdict = lt.alias(module, fid, p1, p2);
                let ba_lt =
                    if ba_verdict != AliasResult::MayAlias { ba_verdict } else { lt_verdict };
                rows[0].tally(ba_verdict);
                rows[1].tally(lt_verdict);
                rows[2].tally(cf.alias(module, fid, p1, p2));
                rows[3].tally(st.alias(module, fid, p1, p2));
                rows[4].tally(pt.alias(module, fid, p1, p2));
                rows[5].tally(ba_lt);
            }
        }
    }
    format_report(module, &rows)
}

/// The report's text for `rows`, whose first row has answered every pair.
fn format_report(module: &Module, rows: &[EvalSummary]) -> String {
    use std::fmt::Write;
    let stats = ModuleStats::compute(module);
    let mut out = String::new();
    writeln!(
        out,
        "{} function(s), {} instruction(s), {} queries",
        stats.functions,
        stats.instructions,
        rows[0].total()
    )
    .expect("String write");
    writeln!(out, "{:<8} {:>10} {:>10} {:>10} {:>8}", "analysis", "no-alias", "may", "must", "%no")
        .expect("String write");
    for s in rows {
        writeln!(
            out,
            "{:<8} {:>10} {:>10} {:>10} {:>7.2}%",
            s.name,
            s.no_alias,
            s.may_alias,
            s.must_alias,
            s.no_alias_rate()
        )
        .expect("String write");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Combined;
    use sraa_core::EngineConfig;

    #[test]
    fn totals_agree_across_analyses() {
        let mut m = sraa_minic::compile(
            r#"
            int f(int* v, int n) {
                int s = 0;
                for (int i = 0; i < n; i++) s += v[i] + v[i + 1];
                return s;
            }
            int main() { int a[16]; return f(a, 15); }
            "#,
        )
        .unwrap();
        let lt = StrictInequalityAa::new(&mut m);
        let ba = BasicAliasAnalysis::new(&m);
        let out = AaEval::run(&m, &[&ba, &lt]);
        assert_eq!(out[0].total(), out[1].total());
        assert_eq!(out[0].total(), AaEval::num_queries(&m));
        assert!(out[0].total() > 0);
    }

    #[test]
    fn combination_dominates_both_parts() {
        let mut m = sraa_minic::compile(
            r#"
            void mix(int* v, int n) {
                int* w = malloc(8);
                for (int i = 0; i + 1 < n; i++) {
                    v[i] = v[i + 1];
                    w[i % 8] = v[i];
                }
            }
            int main() { int a[32]; mix(a, 31); return 0; }
            "#,
        )
        .unwrap();
        let lt = StrictInequalityAa::new(&mut m);
        let ba = BasicAliasAnalysis::new(&m);
        let ba2 = BasicAliasAnalysis::new(&m);
        let lt2 = lt.clone();
        let combined = Combined::new(vec![Box::new(ba2), Box::new(lt2)]);
        let out = AaEval::run(&m, &[&ba, &lt, &combined]);
        let (ba_s, lt_s, both) = (&out[0], &out[1], &out[2]);
        assert!(both.no_alias >= ba_s.no_alias);
        assert!(both.no_alias >= lt_s.no_alias);
        assert_eq!(both.name, "BA+LT");
    }

    #[test]
    fn render_eval_reports_every_analysis() {
        let mut m =
            sraa_minic::compile("int main() { int a[4]; a[0] = 1; a[1] = 2; return a[0] + a[1]; }")
                .unwrap();
        let lt = StrictInequalityAa::new(&mut m);
        let text = render_eval(&m, &lt);
        assert!(text.starts_with("1 function(s)"), "header first: {text}");
        for name in ["analysis", "BA", "LT", "CF", "ST", "PT", "BA+LT"] {
            assert!(text.contains(name), "missing row {name}: {text}");
        }
        assert_eq!(text.lines().count(), 8, "header + column row + 6 analyses");
        // Deterministic: two renders of the same engine agree byte-for-byte.
        assert_eq!(text, render_eval(&m, &lt));
    }

    /// The one-pass report equals `AaEval::run` over the six analyses,
    /// with BA+LT asked of the `Combined` chain it is derived from, and its
    /// header counts every pair. The corpus: the synthetic suite, the
    /// call-heavy suite and the programs `sraa gen <seed> 3 --helpers 2`
    /// prints for seeds 1 to 12.
    #[test]
    fn one_pass_report_equals_the_run_of_every_analysis() {
        let mut ws = sraa_synth::test_suite(26);
        ws.extend(sraa_synth::call_suite(10));
        ws.extend((1..=12).map(|seed| {
            sraa_synth::csmith_generate(sraa_synth::CsmithConfig {
                seed,
                max_ptr_depth: 3,
                num_stmts: 80,
                helpers: 2,
            })
        }));
        for w in &ws {
            let mut m = sraa_minic::compile(&w.source).unwrap();
            let lt = StrictInequalityAa::with_engine_config(
                &mut m,
                EngineConfig::default().with_summaries(),
            );
            let ba = BasicAliasAnalysis::new(&m);
            let cf = AndersenAnalysis::new(&m);
            let st = SteensgaardAnalysis::new(&m);
            let pt = PentagonAa::on_prepared(&m);
            let ba_lt =
                Combined::new(vec![Box::new(BasicAliasAnalysis::new(&m)), Box::new(lt.clone())]);
            let rows = AaEval::run(&m, &[&ba, &lt, &cf, &st, &pt, &ba_lt]);
            assert_eq!(rows[0].total(), AaEval::num_queries(&m), "{}: header count", w.name);
            assert_eq!(render_eval(&m, &lt), format_report(&m, &rows), "{}", w.name);
        }
    }

    #[test]
    fn no_alias_rate_is_a_percentage() {
        let s = EvalSummary { name: "X".into(), no_alias: 3, may_alias: 1, must_alias: 0 };
        assert!((s.no_alias_rate() - 75.0).abs() < 1e-9);
        let empty = EvalSummary::default();
        assert_eq!(empty.no_alias_rate(), 0.0);
    }
}
