//! The dense Pentagon domain packaged as an [`AliasAnalysis`] — **PT**
//! in the comparison harness.
//!
//! The paper's Section 5 remarks that *"Pentagons, like the ABCD
//! algorithm, could be used to disambiguate pointers like we do"*. This
//! adapter does exactly that: it applies the paper's Definition 3.11
//! criteria with [`sraa_pentagon::PentagonAnalysis`] as the less-than
//! oracle instead of the sparse constraint solution. It asks the oracle
//! through one [`sraa_pentagon::FactTable`] per function, built once at
//! construction, so the dense fixpoint is computed once and then served
//! sparsely.
//!
//! Like the sparse analysis, it needs the program in e-SSA form —
//! without σ-renaming, a branch refinement post-dates the definitions
//! of the values it constrains, and the def-point queries that make
//! Definition 3.11 sound cannot see it (demonstrated by
//! `figure_1b_needs_live_range_splitting` in `sraa-pentagon`). The
//! constructor performs the conversion, mirroring
//! [`StrictInequalityAa::new`](crate::StrictInequalityAa::new).

use crate::{AliasAnalysis, AliasResult};
use sraa_core::{derived_pointer, strip_copies};
use sraa_ir::{FuncId, Function, InstKind, Module, Type, Value};
use sraa_pentagon::{FactTable, PentagonAnalysis};

/// Pentagon-based alias analysis (dense interval × strict-upper-bound
/// domain behind the paper's disambiguation criteria).
///
/// Construction runs the dense fixpoint, then tabulates each function's
/// facts at the definitions of its query set `R`: its pointer-typed
/// values and the variable offsets they are derived with. Every
/// [`alias`](AliasAnalysis::alias) query is then a few array reads.
#[derive(Debug)]
pub struct PentagonAa {
    analysis: PentagonAnalysis,
    funcs: Vec<FuncFacts>,
}

// The adapter holds no interior mutability, so one instance can serve
// queries from several threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PentagonAa>();
};

/// One function's query-time data.
#[derive(Debug)]
struct FuncFacts {
    /// Pentagon order facts over `R`.
    table: FactTable,
    /// Per value: `None` unless pointer-typed.
    ptrs: Vec<Option<PtrInfo>>,
}

/// What Definition 3.11 reads about one pointer.
#[derive(Clone, Copy, Debug)]
struct PtrInfo {
    /// `(copy-stripped base, offset)` when the pointer is a `gep` with a
    /// variable offset — the only shape criterion 2 applies to.
    derived: Option<(Value, Value)>,
}

impl FuncFacts {
    fn new(analysis: &PentagonAnalysis, module: &Module, f: FuncId) -> Self {
        let func = module.function(f);
        let mut ptrs = vec![None; func.num_insts()];
        let mut queries = Vec::new();
        for v in func.value_ids() {
            if !func.value_type(v).is_some_and(Type::is_ptr) {
                continue;
            }
            let derived = variable_offset(func, v);
            queries.push(v);
            queries.extend(derived.map(|(_, x)| x));
            ptrs[v.index()] = Some(PtrInfo { derived });
        }
        Self { table: analysis.fact_table(module, f, &queries), ptrs }
    }

    fn ptr(&self, v: Value) -> Option<PtrInfo> {
        self.ptrs.get(v.index()).copied().flatten()
    }

    fn ordered(&self, a: Value, b: Value) -> bool {
        self.table.proves_lt(a, b) || self.table.proves_lt(b, a)
    }

    /// Definition 3.11 with the Pentagon oracle.
    fn no_alias(&self, p1: Value, p2: Value) -> bool {
        let (Some(i1), Some(i2)) = (self.ptr(p1), self.ptr(p2)) else { return false };
        // Criterion 1: the pointers themselves are ordered.
        if self.ordered(p1, p2) {
            return true;
        }
        // Criterion 2: same base, strictly ordered variable offsets.
        match (i1.derived, i2.derived) {
            (Some((b1, x1)), Some((b2, x2))) => b1 == b2 && self.ordered(x1, x2),
            _ => false,
        }
    }
}

/// `p`'s copy-stripped base and offset, when `p` is derived by a `gep`
/// whose offset is not a constant.
fn variable_offset(func: &Function, p: Value) -> Option<(Value, Value)> {
    let (base, offset) = derived_pointer(func, p)?;
    let is_var = !matches!(func.inst(offset).kind, InstKind::Const(_));
    is_var.then(|| (strip_copies(func, base), offset))
}

impl PentagonAa {
    /// Converts `module` to e-SSA form and runs the dense fixpoint.
    pub fn new(module: &mut Module) -> Self {
        let _ = sraa_essa::transform_module(module);
        Self::on_prepared(module)
    }

    /// Runs the dense fixpoint on a module that is *already* in e-SSA
    /// form (e.g. one transformed by
    /// [`StrictInequalityAa::new`](crate::StrictInequalityAa::new), so
    /// both analyses answer queries about the same program).
    pub fn on_prepared(module: &Module) -> Self {
        let analysis = PentagonAnalysis::run(module);
        let funcs = module.functions().map(|(f, _)| FuncFacts::new(&analysis, module, f)).collect();
        Self { analysis, funcs }
    }

    /// Access to the underlying Pentagon analysis.
    pub fn analysis(&self) -> &PentagonAnalysis {
        &self.analysis
    }
}

impl AliasAnalysis for PentagonAa {
    fn name(&self) -> String {
        "PT".to_string()
    }

    fn alias(&self, _module: &Module, func: FuncId, p1: Value, p2: Value) -> AliasResult {
        if p1 == p2 {
            return AliasResult::MustAlias;
        }
        match self.funcs.get(func.index()) {
            Some(ff) if ff.no_alias(p1, p2) => AliasResult::NoAlias,
            _ => AliasResult::MayAlias,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StrictInequalityAa;

    /// `PT`'s total `NoAlias` count over [`corpus`], recorded with the
    /// replay-backed adapter the fact table replaced.
    const PT_NO_ALIAS_ON_CORPUS: u64 = 26_490;

    /// `ST`'s, `CF`'s and `BA+LT`'s total `NoAlias` counts over [`corpus`]
    /// (intraprocedural LT), recorded while ST still walked union-find
    /// chains, CF intersected a cloned set and BA+LT asked BA twice.
    const ST_CF_BA_LT_NO_ALIAS_ON_CORPUS: (u64, u64, u64) = (251_100, 388_292, 142_702);

    fn pointer_operands(m: &Module, name: &str) -> (FuncId, Vec<Value>) {
        let fid = m.function_by_name(name).unwrap();
        let f = m.function(fid);
        let mut ptrs = Vec::new();
        for b in f.block_ids() {
            for (_, d) in f.block_insts(b) {
                match &d.kind {
                    InstKind::Load { ptr } => ptrs.push(*ptr),
                    InstKind::Store { ptr, .. } => ptrs.push(*ptr),
                    _ => {}
                }
            }
        }
        (fid, ptrs)
    }

    #[test]
    fn pentagon_disambiguates_the_motivating_loop() {
        let mut m = sraa_minic::compile(
            r#"
            void f(int* v, int N) {
                for (int i = 0, j = N; i < j; i++, j--) v[i] = v[j];
            }
            "#,
        )
        .unwrap();
        let pt = PentagonAa::new(&mut m);
        let (fid, ptrs) = pointer_operands(&m, "f");
        assert_eq!(pt.alias(&m, fid, ptrs[0], ptrs[1]), AliasResult::NoAlias);
    }

    #[test]
    fn pentagon_and_lt_agree_on_figure_1a() {
        let src = r#"
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
        let mut m = sraa_minic::compile(src).unwrap();
        let lt = StrictInequalityAa::new(&mut m);
        let pt = PentagonAa::on_prepared(&m);
        let (fid, ptrs) = pointer_operands(&m, "ins_sort");
        let mut lt_no = 0;
        let mut pt_no = 0;
        for (i, &p1) in ptrs.iter().enumerate() {
            for &p2 in &ptrs[i + 1..] {
                if lt.alias(&m, fid, p1, p2) == AliasResult::NoAlias {
                    lt_no += 1;
                }
                if pt.alias(&m, fid, p1, p2) == AliasResult::NoAlias {
                    pt_no += 1;
                }
            }
        }
        assert!(lt_no > 0 && pt_no > 0, "both must disambiguate v[i]/v[j] pairs");
    }

    /// The differential corpus: the synthetic suite, the call-heavy
    /// suite and Csmith programs with helpers at every pointer depth.
    fn corpus() -> Vec<sraa_synth::Workload> {
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
        ws
    }

    /// The fact table answers exactly as the replay reference on every
    /// ordered pair of the query set `R`, and the `PT` column's total is
    /// the one the replay-backed adapter produced on this corpus.
    #[test]
    fn fact_table_matches_the_replay_on_every_query_pair() {
        let (mut pairs, mut no_alias) = (0u64, 0u64);
        for w in corpus() {
            let mut m = sraa_minic::compile(&w.source).unwrap();
            let pt = PentagonAa::new(&mut m);
            for (f, func) in m.functions() {
                let ff = &pt.funcs[f.index()];
                let mut r: Vec<Value> = Vec::new();
                for v in func.value_ids() {
                    if let Some(info) = ff.ptr(v) {
                        r.push(v);
                        r.extend(info.derived.map(|(_, x)| x));
                    }
                }
                r.sort_unstable();
                r.dedup();
                // One replay per definition; `proves_lt` would replay
                // both definitions per pair.
                let after: Vec<_> =
                    r.iter().map(|&v| pt.analysis.state_after_def(&m, f, v)).collect();
                for (&a, sa) in r.iter().zip(&after) {
                    for (&b, sb) in r.iter().zip(&after) {
                        let replay = PentagonAnalysis::lt_at_defs(a, sa.as_ref(), b, sb.as_ref());
                        assert_eq!(
                            ff.table.proves_lt(a, b),
                            replay,
                            "{} {}: table vs replay on {a} < {b}",
                            w.name,
                            func.name
                        );
                        pairs += 1;
                    }
                }
            }
            no_alias += crate::AaEval::run(&m, &[&pt])[0].no_alias;
        }
        assert_eq!(pairs, 2_991_135, "the query sets changed size");
        assert_eq!(no_alias, PT_NO_ALIAS_ON_CORPUS, "PT verdicts moved");
    }

    /// The other baselines of the `sraa eval` report keep their verdicts
    /// on the same corpus.
    #[test]
    fn baseline_no_alias_totals_on_the_corpus_are_pinned() {
        let mut totals = (0, 0, 0);
        for w in corpus() {
            let mut m = sraa_minic::compile(&w.source).unwrap();
            let lt = StrictInequalityAa::new(&mut m);
            let st = crate::SteensgaardAnalysis::new(&m);
            let cf = crate::AndersenAnalysis::new(&m);
            let ba_lt = crate::Combined::new(vec![
                Box::new(crate::BasicAliasAnalysis::new(&m)),
                Box::new(lt),
            ]);
            let s = crate::AaEval::run(&m, &[&st, &cf, &ba_lt]);
            totals.0 += s[0].no_alias;
            totals.1 += s[1].no_alias;
            totals.2 += s[2].no_alias;
        }
        assert_eq!(totals, ST_CF_BA_LT_NO_ALIAS_ON_CORPUS, "ST, CF or BA+LT verdicts moved");
    }

    #[test]
    fn pentagon_never_contradicts_must_alias() {
        let mut m = sraa_minic::compile("void g(int* p) { int* q = p; *q = 1; *p = 2; }").unwrap();
        let pt = PentagonAa::new(&mut m);
        let (fid, ptrs) = pointer_operands(&m, "g");
        for &p1 in &ptrs {
            for &p2 in &ptrs {
                assert_ne!(pt.alias(&m, fid, p1, p2), AliasResult::NoAlias);
            }
        }
    }
}
