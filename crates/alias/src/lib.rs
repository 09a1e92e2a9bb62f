//! `sraa-alias` — the alias-analysis framework of the reproduction.
//!
//! The paper's evaluation compares three pointer disambiguation methods
//! (its Section 4):
//!
//! * **BA** — LLVM's `basic-aa` heuristics, "relying mostly on the fact
//!   that pointers derived from different allocation sites cannot alias":
//!   [`BasicAliasAnalysis`];
//! * **LT** — the strict-inequalities analysis of the paper:
//!   [`StrictInequalityAa`] (wrapping [`sraa_core`]);
//! * **CF** — an inclusion-based (Andersen-style) points-to baseline, the
//!   stand-in for Chen's CFL pass used in the paper's Figure 10:
//!   [`AndersenAnalysis`].
//!
//! [`Combined`] chains analyses the way LLVM's `AAResults` does: the first
//! non-`MayAlias` answer wins (BA+LT, BA+CF). [`AaEval`] reimplements the
//! `aa-eval` pass: query every pair of pointer values per function and
//! tally the verdicts — the measurement underlying the paper's Figures 8,
//! 9 and 10.

pub mod aa_eval;
pub mod andersen;
pub mod basic;
pub mod lt;
pub mod pentagon;
mod points_to;
pub mod steensgaard;

pub use aa_eval::{render_eval, AaEval, EvalSummary};
pub use andersen::AndersenAnalysis;
pub use basic::BasicAliasAnalysis;
pub use lt::StrictInequalityAa;
pub use pentagon::PentagonAa;
pub use steensgaard::SteensgaardAnalysis;

use sraa_ir::{FuncId, Module, Value};

/// Verdict of one alias query, mirroring LLVM's `AliasResult`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AliasResult {
    /// The two locations never overlap (while simultaneously alive).
    NoAlias,
    /// The analysis cannot tell.
    MayAlias,
    /// The two locations are provably identical.
    MustAlias,
}

/// A pointer disambiguation method.
///
/// Queries are *function-scoped*, like LLVM's `aa-eval`: both values must
/// belong to `func` and have pointer type; anything else must answer
/// [`AliasResult::MayAlias`].
pub trait AliasAnalysis {
    /// Short name used in reports ("BA", "LT", "CF", "BA+LT", …).
    fn name(&self) -> String;

    /// Do `p1` and `p2` (both in `func`) alias?
    fn alias(&self, module: &Module, func: FuncId, p1: Value, p2: Value) -> AliasResult;
}

/// Chains analyses: the first definitive (non-`MayAlias`) answer wins —
/// the way LLVM aggregates its alias analyses.
pub struct Combined {
    parts: Vec<Box<dyn AliasAnalysis>>,
}

impl Combined {
    /// Combines the given analyses, queried in order.
    pub fn new(parts: Vec<Box<dyn AliasAnalysis>>) -> Self {
        Self { parts }
    }
}

impl AliasAnalysis for Combined {
    fn name(&self) -> String {
        self.parts.iter().map(|p| p.name()).collect::<Vec<_>>().join("+")
    }

    fn alias(&self, module: &Module, func: FuncId, p1: Value, p2: Value) -> AliasResult {
        for p in &self.parts {
            match p.alias(module, func, p1, p2) {
                AliasResult::MayAlias => continue,
                definitive => return definitive,
            }
        }
        AliasResult::MayAlias
    }
}

/// The pessimistic baseline: every distinct pair *may* alias; only a
/// value and itself *must*. The floor any real analysis is measured
/// against (LLVM's historical `-no-aa`), used by the optimisation-client
/// experiment to show what disambiguation buys at all.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoAa;

impl AliasAnalysis for NoAa {
    fn name(&self) -> String {
        "none".to_string()
    }

    fn alias(&self, _module: &Module, _func: FuncId, p1: Value, p2: Value) -> AliasResult {
        if p1 == p2 {
            AliasResult::MustAlias
        } else {
            AliasResult::MayAlias
        }
    }
}

/// The pointer operand of every load and store of function `name`, in
/// layout order: the accesses the analyses' unit tests query.
#[cfg(test)]
fn mem_ptrs(module: &Module, name: &str) -> (FuncId, Vec<Value>) {
    let fid = module.function_by_name(name).unwrap();
    let f = module.function(fid);
    let mut out = Vec::new();
    for b in f.block_ids() {
        for (_, d) in f.block_insts(b) {
            if let sraa_ir::InstKind::Load { ptr } | sraa_ir::InstKind::Store { ptr, .. } = d.kind {
                out.push(ptr);
            }
        }
    }
    (fid, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Always(AliasResult, &'static str);
    impl AliasAnalysis for Always {
        fn name(&self) -> String {
            self.1.to_string()
        }
        fn alias(&self, _: &Module, _: FuncId, _: Value, _: Value) -> AliasResult {
            self.0
        }
    }

    #[test]
    fn combined_takes_first_definitive_answer() {
        let m = Module::new();
        let f = FuncId::from_index(0);
        let v = Value::from_index(0);
        let c = Combined::new(vec![
            Box::new(Always(AliasResult::MayAlias, "A")),
            Box::new(Always(AliasResult::NoAlias, "B")),
            Box::new(Always(AliasResult::MustAlias, "C")),
        ]);
        assert_eq!(c.alias(&m, f, v, v), AliasResult::NoAlias);
        assert_eq!(c.name(), "A+B+C");
    }

    #[test]
    fn combined_of_mays_is_may() {
        let m = Module::new();
        let f = FuncId::from_index(0);
        let v = Value::from_index(0);
        let c = Combined::new(vec![Box::new(Always(AliasResult::MayAlias, "A"))]);
        assert_eq!(c.alias(&m, f, v, v), AliasResult::MayAlias);
    }
}
