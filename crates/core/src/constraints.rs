//! Constraint generation — the paper's Figure 7.
//!
//! Four constraint kinds describe the less-than sets:
//!
//! | rule | syntax                        | constraint                              |
//! |------|-------------------------------|-----------------------------------------|
//! | 1    | `x = •`                       | `LT(x) = ∅`                             |
//! | 2    | `x1 = x2 + n`, `n > 0`        | `LT(x1) = {x2} ∪ LT(x2)`                |
//! | 3    | `x1 = x2 − n ‖ ⟨x3 = x2⟩`     | `LT(x3) = {x1} ∪ LT(x2)`, `LT(x1) = ∅`  |
//! | 4    | `x = φ(x1, …, xn)`            | `LT(x) = LT(x1) ∩ … ∩ LT(xn)`           |
//! | 5    | `(x1 < x2)?` σ-copies         | see below                               |
//!
//! Rule 5, for `(x1 < x2)?` with σ-copies `x1t,x2t` / `x1f,x2f`:
//! `LT(x2t) = {x1t} ∪ LT(x2) ∪ LT(x1t)`, `LT(x1t) = LT(x1)`,
//! `LT(x2f) = LT(x2)`, `LT(x1f) = LT(x1) ∪ LT(x2f)`.
//! (The paper's Example 3.4 writes the last one with `∩`, but its
//! Example 3.5 fixpoint — `LT(x4f) = {x0}` — only follows with `∪`, which
//! also matches rule 5 as printed in Figure 7; we implement `∪`.)
//!
//! Whether `x1 = x2 ± x3` is an addition or a subtraction is decided by
//! the sign of the operands' intervals (paper §3.2); `n` may be a constant
//! or a variable with a strictly-positive/negative range. `gep` is pointer
//! addition and follows the same rules.
//!
//! Inter-procedural pseudo-φs (paper §4): each formal parameter gets
//! `LT(xf) = ∩ LT(aᵢ)` over every internal call site's actual argument.
//!
//! Generation is `O(|V|)`: one pass over the instructions, function by
//! function in [`FuncId`] order, followed by the parameters' pseudo-φs.
//! Constraints address variables by interned [`VarId`]s.

use crate::summary::{FunctionSummary, ModuleSummaries};
use crate::var_index::{VarId, VarIndex};
use sraa_ir::{BinOp, CopyOrigin, FuncId, Function, InstKind, Module, Pred, Value};
use sraa_range::RangeAnalysis;

/// A normalised constraint over interned [`VarId`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Constraint {
    /// `LT(x) = ∅` — rule 1 (and the empty cases of rules 2/3).
    Init {
        /// Defined variable.
        x: VarId,
    },
    /// `LT(x) = {elems…} ∪ ⋃ LT(s)` — rules 2, 3 (copy side) and 5.
    Union {
        /// Defined variable.
        x: VarId,
        /// Individual new elements.
        elems: Vec<VarId>,
        /// Sets to union in.
        sources: Vec<VarId>,
    },
    /// `LT(x) = ∩ LT(s)` — rule 4 and the inter-procedural pseudo-φs.
    Inter {
        /// Defined variable.
        x: VarId,
        /// Sets to intersect (never empty).
        sources: Vec<VarId>,
    },
    /// `LT(x) = LT(s)` — the trivial copy case.
    Copy {
        /// Defined variable.
        x: VarId,
        /// Source variable.
        source: VarId,
    },
}

impl Constraint {
    /// The variable the constraint defines.
    pub fn defined(&self) -> VarId {
        match self {
            Constraint::Init { x }
            | Constraint::Union { x, .. }
            | Constraint::Inter { x, .. }
            | Constraint::Copy { x, .. } => *x,
        }
    }

    /// The variables whose `LT` sets the right-hand side reads.
    pub fn reads(&self) -> &[VarId] {
        match self {
            Constraint::Init { .. } => &[],
            Constraint::Union { sources, .. } | Constraint::Inter { sources, .. } => sources,
            Constraint::Copy { source, .. } => std::slice::from_ref(source),
        }
    }
}

/// Options controlling constraint generation.
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// Enables sound extensions beyond the paper's Figure 7:
    /// non-*strict* increments propagate the source's set
    /// (`x1 = x2 + n, n ≥ 0 ⇒ LT(x1) ⊇ LT(x2)`), and likewise for
    /// non-negative `gep` offsets. Off by default for paper fidelity;
    /// the ablation benchmark measures its effect.
    pub extended: bool,
    /// Parameter-pair refinement: if at *every* internal call site of `g`
    /// the argument for formal `xi` is provably less than the argument
    /// for formal `xj`, then `xi ∈ LT(xj)` (parameters are immutable for
    /// the frame's lifetime, so the entry-time relation is frame-wide).
    /// This completes the paper's inter-procedural pseudo-φs — without
    /// it, `LT(xf)` only ever holds *caller* names, which no callee-side
    /// query mentions. Enabled by default; the `ablation` benchmark
    /// measures what LT loses without it.
    pub param_pairs: bool,
    /// Third disambiguation criterion: same base, offsets with
    /// *disjoint intervals* (`p+x1` vs `p+x2` with `R(x1) ∩ R(x2) = ∅`).
    /// The paper's §3.6 lists this range-based criterion as complementary
    /// prior work its artifact builds on, and its Figure 12 result on
    /// constant-heavy Csmith code depends on it. Off by default so that
    /// the `aa-eval` numbers isolate the strict-inequality contribution;
    /// the PDG experiment (fig12) turns it on.
    pub range_offsets: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        Self { extended: false, param_pairs: true, range_offsets: false }
    }
}

/// The generated constraint system plus the call-graph metadata the
/// parameter-pair refinement needs.
#[derive(Clone, Debug)]
pub struct ConstraintSystem {
    /// The constraints.
    pub constraints: Vec<Constraint>,
    /// Variable universe size: module variables plus one synthetic
    /// variable per pseudo-φ (holding the raw intersection, so the
    /// refinement can union extra elements into the parameter's set).
    pub num_vars: usize,
    /// Per function: interned param ids and per-call-site argument columns
    /// (`None` marks a constant/untracked argument).
    pub param_info: Vec<ParamInfo>,
    /// Param id → index of its `Union` wrapper constraint.
    pub param_union: std::collections::HashMap<VarId, usize>,
}

/// Call-site summary of one function.
#[derive(Clone, Debug)]
pub struct ParamInfo {
    /// Interned id of each formal parameter.
    pub params: Vec<VarId>,
    /// One entry per internal call site: the interned ids of the actual
    /// arguments (`None` for constants).
    pub sites: Vec<Vec<Option<VarId>>>,
}

/// One call site recorded during per-function generation: the callee and
/// the interned actual-argument column.
type CallRecord = (FuncId, Vec<Option<VarId>>);

/// Generates the constraint system for a module in e-SSA form.
pub fn generate(module: &Module, ranges: &RangeAnalysis, cfg: GenConfig) -> ConstraintSystem {
    let index = VarIndex::new(module);
    generate_with_index(module, ranges, cfg, &index)
}

/// [`generate`] with a caller-provided [`VarIndex`].
pub fn generate_with_index(
    module: &Module,
    ranges: &RangeAnalysis,
    cfg: GenConfig,
    index: &VarIndex,
) -> ConstraintSystem {
    generate_module(module, ranges, cfg, index, None)
}

/// [`generate_with_index`] with interprocedural summaries applied at call
/// sites: a call result `r = g(a₁, …)` whose callee summary proves
/// `param_j < ret` contributes `LT(r) ⊇ {a_j} ∪ LT(a_j)` instead of the
/// intraprocedural `LT(r) = ∅`.
pub fn generate_with_summaries(
    module: &Module,
    ranges: &RangeAnalysis,
    cfg: GenConfig,
    index: &VarIndex,
    summaries: &ModuleSummaries,
) -> ConstraintSystem {
    generate_module(module, ranges, cfg, index, Some(&summaries.per_func))
}

/// Constraints for a *subset* of functions only — the per-SCC systems the
/// bottom-up summary computation solves. Formal parameters are grounded
/// with `Init` (a summary fact must hold in every calling context, so
/// params carry no caller facts here), and no pseudo-φ constraints are
/// emitted. Output order: functions in `funcs` order, then the param
/// `Init`s, all deterministic.
pub(crate) fn generate_scoped(
    module: &Module,
    ranges: &RangeAnalysis,
    cfg: GenConfig,
    index: &VarIndex,
    funcs: &[FuncId],
    summaries: &[FunctionSummary],
) -> Vec<Constraint> {
    let mut out = Vec::new();
    let mut calls = Vec::new();
    let summaries = Some(summaries);
    for &fid in funcs {
        let f = module.function(fid);
        FuncGen { f, fid, ranges, cfg, index, summaries, out: &mut out, calls: &mut calls }.run();
    }
    for &fid in funcs {
        let f = module.function(fid);
        for i in 0..f.params.len() {
            out.push(Constraint::Init { x: index.id(fid, f.param_value(i)) });
        }
    }
    out
}

/// The module-wide system: every function's Figure-7 constraints in
/// [`FuncId`] order, then the pseudo-φs of every formal parameter.
fn generate_module(
    module: &Module,
    ranges: &RangeAnalysis,
    cfg: GenConfig,
    index: &VarIndex,
    summaries: Option<&[FunctionSummary]>,
) -> ConstraintSystem {
    let num_funcs = module.num_functions();
    let mut out = Vec::new();
    let mut calls = Vec::new();
    for (fid, f) in module.functions() {
        FuncGen { f, fid, ranges, cfg, index, summaries, out: &mut out, calls: &mut calls }.run();
    }
    let mut call_sites: Vec<Vec<Vec<Option<VarId>>>> = vec![Vec::new(); num_funcs];
    for (callee, site) in calls {
        call_sites[callee.index()].push(site);
    }

    // Pseudo-φ constraints for formal parameters. `LT(xf) = ∩ᵢ LT(aᵢ)`
    // is encoded through a synthetic variable `t`:
    //   Inter { t, sources: args }, Union { xf, elems: [], sources: [t] }
    // so the parameter-pair refinement can later push extra elements into
    // the Union without disturbing the intersection.
    let mut num_vars = index.len();
    let mut param_info = Vec::with_capacity(num_funcs);
    let mut param_union = std::collections::HashMap::new();
    for (fid, f) in module.functions() {
        let sites = std::mem::take(&mut call_sites[fid.index()]);
        let params: Vec<VarId> =
            (0..f.params.len()).map(|i| index.id(fid, f.param_value(i))).collect();
        for (i, &x) in params.iter().enumerate() {
            let column: Vec<Option<VarId>> = sites.iter().map(|s| s[i]).collect();
            if column.is_empty() || column.iter().any(Option::is_none) {
                // No internal caller, or some call passes a constant /
                // untracked value: the intersection collapses to ∅.
                out.push(Constraint::Init { x });
            } else {
                let t = VarId::from_index(num_vars);
                num_vars += 1;
                out.push(Constraint::Inter {
                    x: t,
                    sources: column.into_iter().map(Option::unwrap).collect(),
                });
                param_union.insert(x, out.len());
                out.push(Constraint::Union { x, elems: vec![], sources: vec![t] });
            }
        }
        param_info.push(ParamInfo { params, sites });
    }

    ConstraintSystem { constraints: out, num_vars, param_info, param_union }
}

struct FuncGen<'a> {
    f: &'a Function,
    fid: FuncId,
    ranges: &'a RangeAnalysis,
    cfg: GenConfig,
    index: &'a VarIndex,
    /// Interprocedural summaries, indexed by [`FuncId`], to apply at call
    /// sites; `None` runs the paper's intraprocedural rules (calls are
    /// opaque).
    summaries: Option<&'a [FunctionSummary]>,
    out: &'a mut Vec<Constraint>,
    calls: &'a mut Vec<CallRecord>,
}

impl FuncGen<'_> {
    fn id(&self, v: Value) -> VarId {
        self.index.id(self.fid, v)
    }

    fn is_const(&self, v: Value) -> bool {
        matches!(self.f.inst(v).kind, InstKind::Const(_))
    }

    /// Strictly positive: constant > 0, or interval `[l, u]` with `l > 0`.
    fn strictly_positive(&self, v: Value) -> bool {
        match self.f.inst(v).kind {
            InstKind::Const(c) => c > 0,
            _ => self.ranges.range(self.fid, v).is_strictly_positive(),
        }
    }

    fn strictly_negative(&self, v: Value) -> bool {
        match self.f.inst(v).kind {
            InstKind::Const(c) => c < 0,
            _ => self.ranges.range(self.fid, v).is_strictly_negative(),
        }
    }

    fn non_negative(&self, v: Value) -> bool {
        match self.f.inst(v).kind {
            InstKind::Const(c) => c >= 0,
            _ => self.ranges.range(self.fid, v).is_non_negative(),
        }
    }

    fn run(&mut self) {
        for b in self.f.block_ids() {
            for (v, data) in self.f.block_insts(b) {
                if !data.has_result() {
                    if let InstKind::Call { callee, args } = &data.kind {
                        self.record_call(*callee, args);
                    }
                    continue;
                }
                match &data.kind {
                    // Constants have no LT set — they are not variables.
                    InstKind::Const(_) => {}
                    // Params get their pseudo-φ constraint later.
                    InstKind::Param(_) => {}
                    InstKind::Binary { op, lhs, rhs } => {
                        self.binary(v, *op, *lhs, *rhs);
                    }
                    InstKind::Gep { base, offset } => {
                        // Pointer addition: p1 = p + n.
                        self.addition_like(v, *base, *offset);
                    }
                    InstKind::Phi { incomings } => {
                        let mut sources = Vec::with_capacity(incomings.len());
                        let mut grounded = true;
                        for (_, x) in incomings {
                            if self.is_const(*x) {
                                grounded = false; // constants have LT = ∅
                            } else {
                                sources.push(self.id(*x));
                            }
                        }
                        if grounded && !sources.is_empty() {
                            self.out.push(Constraint::Inter { x: self.id(v), sources });
                        } else {
                            self.out.push(Constraint::Init { x: self.id(v) });
                        }
                    }
                    InstKind::Copy { src, origin } => self.copy(v, *src, *origin, b),
                    InstKind::Call { callee, args } => {
                        self.record_call(*callee, args);
                        self.call_result(v, *callee, args);
                    }
                    InstKind::Cmp { .. }
                    | InstKind::Alloca { .. }
                    | InstKind::Malloc { .. }
                    | InstKind::GlobalAddr(_)
                    | InstKind::Load { .. }
                    | InstKind::Opaque => {
                        self.out.push(Constraint::Init { x: self.id(v) });
                    }
                    InstKind::Store { .. }
                    | InstKind::Br { .. }
                    | InstKind::Jump(_)
                    | InstKind::Ret(_) => unreachable!("no result"),
                }
            }
        }
    }

    /// Constraint for a call *result*. Intraprocedurally a call is opaque
    /// (`LT(r) = ∅`); with summaries, every callee-proven `param_j < ret`
    /// fact materialises the actual argument: `LT(r) ⊇ {a_j} ∪ LT(a_j)`.
    fn call_result(&mut self, v: Value, callee: FuncId, args: &[Value]) {
        let x = self.id(v);
        if let Some(sums) = self.summaries {
            let ids: Vec<VarId> = sums[callee.index()]
                .args_lt_ret()
                .iter()
                .filter_map(|&j| args.get(j as usize).copied())
                .filter(|&a| !self.is_const(a))
                .map(|a| self.id(a))
                .collect();
            if !ids.is_empty() {
                self.out.push(Constraint::Union { x, elems: ids.clone(), sources: ids });
                return;
            }
        }
        self.out.push(Constraint::Init { x });
    }

    fn record_call(&mut self, callee: FuncId, args: &[Value]) {
        let site: Vec<Option<VarId>> = args
            .iter()
            .map(|a| (!self.is_const(*a)).then(|| self.index.id(self.fid, *a)))
            .collect();
        self.calls.push((callee, site));
    }

    fn binary(&mut self, v: Value, op: BinOp, lhs: Value, rhs: Value) {
        match op {
            BinOp::Add => self.addition_like(v, lhs, rhs),
            BinOp::Sub => {
                // x1 = x2 − n: with n > 0 this is rule 3 (LT(x1) = ∅; the
                // SubSplit copy carries the information). With n < 0 it is
                // an addition of |n|.
                if self.strictly_negative(rhs) {
                    self.union_from(v, lhs);
                } else {
                    self.out.push(Constraint::Init { x: self.id(v) });
                }
            }
            BinOp::Mul | BinOp::Div | BinOp::Rem => {
                self.out.push(Constraint::Init { x: self.id(v) });
            }
        }
    }

    /// `v = a + b` (integer add or gep): pick the rule by operand signs.
    fn addition_like(&mut self, v: Value, a: Value, b: Value) {
        if self.strictly_positive(b) && !self.is_const(a) {
            self.union_from(v, a); // rule 2: a < v
        } else if self.strictly_positive(a) && !self.is_const(b) {
            self.union_from(v, b);
        } else if self.cfg.extended && self.non_negative(b) && !self.is_const(a) {
            // Extension: v = a + n, n ≥ 0 ⇒ anything < a is < v.
            self.out.push(Constraint::Copy { x: self.id(v), source: self.id(a) });
        } else if self.cfg.extended && self.non_negative(a) && !self.is_const(b) {
            self.out.push(Constraint::Copy { x: self.id(v), source: self.id(b) });
        } else {
            // Subtraction (handled via the SubSplit copy) or unknown.
            self.out.push(Constraint::Init { x: self.id(v) });
        }
    }

    /// `LT(v) = {src} ∪ LT(src)`.
    fn union_from(&mut self, v: Value, src: Value) {
        let s = self.id(src);
        self.out.push(Constraint::Union { x: self.id(v), elems: vec![s], sources: vec![s] });
    }

    fn copy(&mut self, v: Value, src: Value, origin: CopyOrigin, block: sraa_ir::BlockId) {
        if self.is_const(src) {
            self.out.push(Constraint::Init { x: self.id(v) });
            return;
        }
        match origin {
            CopyOrigin::Plain => {
                self.out.push(Constraint::Copy { x: self.id(v), source: self.id(src) });
            }
            CopyOrigin::SubSplit { sub } => {
                // Rule 3: LT(x3) = {x1} ∪ LT(x2) where x1 is the
                // subtraction result and x2 the copied minuend.
                let x1 = self.id(sub);
                self.out.push(Constraint::Union {
                    x: self.id(v),
                    elems: vec![x1],
                    sources: vec![self.id(src)],
                });
            }
            CopyOrigin::SigmaTrue { cmp } | CopyOrigin::SigmaFalse { cmp } => {
                let InstKind::Cmp { pred, lhs, rhs } = self.f.inst(cmp).kind else {
                    self.out.push(Constraint::Copy { x: self.id(v), source: self.id(src) });
                    return;
                };
                let taken = matches!(origin, CopyOrigin::SigmaTrue { .. });
                let pred = if taken { pred } else { pred.negated() };
                // Normalise so the relation reads `small REL large` with
                // REL ∈ {<, ≤, =, ≠} and identify which side `src` is.
                let (pred, small, large) = match pred {
                    Pred::Gt => (Pred::Lt, rhs, lhs),
                    Pred::Ge => (Pred::Le, rhs, lhs),
                    p => (p, lhs, rhs),
                };
                let x = self.id(v);
                let src_id = self.id(src);
                if src == large {
                    // σ-copy of the *larger* side.
                    match pred {
                        Pred::Lt => {
                            // LT(large_t) = {small_t} ∪ LT(large) ∪ LT(small_t)
                            match self.find_sibling(block, origin, small) {
                                Some(small_t) if !self.is_const(small) => {
                                    let st = self.id(small_t);
                                    self.out.push(Constraint::Union {
                                        x,
                                        elems: vec![st],
                                        sources: vec![src_id, st],
                                    });
                                }
                                _ => self.out.push(Constraint::Copy { x, source: src_id }),
                            }
                        }
                        Pred::Le => {
                            // LT(large_t) = LT(large) ∪ LT(small_t)
                            match self.find_sibling(block, origin, small) {
                                Some(small_t) if !self.is_const(small) => {
                                    let st = self.id(small_t);
                                    self.out.push(Constraint::Union {
                                        x,
                                        elems: vec![],
                                        sources: vec![src_id, st],
                                    });
                                }
                                _ => self.out.push(Constraint::Copy { x, source: src_id }),
                            }
                        }
                        Pred::Eq => self.equality_copy(v, src, small, large),
                        _ => self.out.push(Constraint::Copy { x, source: src_id }),
                    }
                } else if src == small {
                    match pred {
                        Pred::Eq => self.equality_copy(v, src, small, large),
                        // LT(small_t) = LT(small) for < and ≤ alike.
                        _ => self.out.push(Constraint::Copy { x, source: src_id }),
                    }
                } else {
                    self.out.push(Constraint::Copy { x, source: src_id });
                }
            }
        }
    }

    /// On an equality edge both copies may merge their sources' sets:
    /// `LT(x_edge) = LT(a) ∪ LT(b)`.
    fn equality_copy(&mut self, v: Value, src: Value, a: Value, b: Value) {
        let other = if src == a { b } else { a };
        let mut sources = vec![self.id(src)];
        if !self.is_const(other) {
            // The *original* other side (not its σ-copy) is the honest
            // source: both relate to the same runtime value here.
            sources.push(self.id(other));
        }
        self.out.push(Constraint::Union { x: self.id(v), elems: vec![], sources });
    }

    /// Finds the σ-copy of `of` in `block` carrying the same origin.
    fn find_sibling(
        &self,
        block: sraa_ir::BlockId,
        origin: CopyOrigin,
        of: Value,
    ) -> Option<Value> {
        for (v, data) in self.f.block_insts(block) {
            if let InstKind::Copy { src, origin: o } = &data.kind {
                if *o == origin && *src == of {
                    return Some(v);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sraa_range::analyze;

    fn prepare(src: &str) -> (Module, RangeAnalysis) {
        let mut m = sraa_minic::compile(src).unwrap();
        sraa_essa::transform_module(&mut m);
        let ranges = analyze(&m);
        (m, ranges)
    }

    /// Constraint count is linear in instruction count (paper Figure 11):
    /// at most one constraint per value-producing instruction plus two per
    /// formal parameter (the pseudo-φ encoding).
    #[test]
    fn constraint_count_is_linear() {
        let (m, ranges) = prepare(
            r#"
            int f(int* v, int n) {
                int s = 0;
                for (int i = 0; i < n; i++) s += v[i];
                return s;
            }
            int main() { int a[4]; return f(a, 4); }
            "#,
        );
        let sys = generate(&m, &ranges, GenConfig::default());
        let mut value_count = 0usize;
        let mut param_count = 0usize;
        for (_, f) in m.functions() {
            param_count += f.params.len();
            for b in f.block_ids() {
                for (_, d) in f.block_insts(b) {
                    if d.has_result() && !matches!(d.kind, InstKind::Const(_)) {
                        value_count += 1;
                    }
                }
            }
        }
        assert!(
            sys.constraints.len() <= value_count + param_count,
            "{} constraints for {value_count} variables + {param_count} params",
            sys.constraints.len()
        );
        // Every variable is defined by at most one constraint.
        let mut defined = std::collections::HashSet::new();
        for c in &sys.constraints {
            assert!(defined.insert(c.defined()), "duplicate constraint for {}", c.defined());
        }
    }

    #[test]
    fn increment_generates_union_rule2() {
        let (m, ranges) = prepare("int f(int x) { return x + 1; }");
        let sys = generate(&m, &ranges, GenConfig::default());
        let ix = VarIndex::new(&m);
        let fid = m.function_by_name("f").unwrap();
        let f = m.function(fid);
        let x = ix.id(fid, f.param_value(0));
        assert!(
            sys.constraints.iter().any(|c| matches!(
                c,
                Constraint::Union { elems, sources, .. }
                    if elems.contains(&x) && sources.contains(&x)
            )),
            "x+1 must yield LT(r) = {{x}} ∪ LT(x): {:?}",
            sys.constraints
        );
    }

    #[test]
    fn subtraction_generates_rule3_pair() {
        let (m, ranges) = prepare("int f(int x) { int y = x - 1; return y + x; }");
        let sys = generate(&m, &ranges, GenConfig::default());
        let ix = VarIndex::new(&m);
        // The SubSplit copy must carry {sub_result} ∪ LT(x).
        let mut found = false;
        for (fid, f) in m.functions() {
            for b in f.block_ids() {
                for (v, d) in f.block_insts(b) {
                    if matches!(d.kind, InstKind::Copy { origin: CopyOrigin::SubSplit { .. }, .. })
                    {
                        let id = ix.id(fid, v);
                        found |= sys.constraints.iter().any(|c| {
                            matches!(c, Constraint::Union { x, elems, .. }
                                if *x == id && !elems.is_empty())
                        });
                    }
                }
            }
        }
        assert!(found, "{:?}", sys.constraints);
    }

    #[test]
    fn params_get_pseudo_phi_from_call_sites() {
        let (m, ranges) = prepare(
            r#"
            int g(int a) { return a; }
            int main() { int x = input(); int y = x + 1; return g(y); }
            "#,
        );
        let sys = generate(&m, &ranges, GenConfig::default());
        let ix = VarIndex::new(&m);
        let g = m.function_by_name("g").unwrap();
        let a = ix.id(g, m.function(g).param_value(0));
        // The param is defined by a Union wrapper over a synthetic Inter.
        let ci = sys.param_union[&a];
        let Constraint::Union { sources, .. } = &sys.constraints[ci] else { panic!() };
        let t = sources[0];
        assert!(t.index() >= ix.len(), "synthetic variable lives beyond the module ids");
        assert!(sys.constraints.iter().any(
            |c| matches!(c, Constraint::Inter { x, sources } if *x == t && sources.len() == 1)
        ));
    }

    #[test]
    fn uncalled_function_params_are_init() {
        let (m, ranges) = prepare("int g(int a) { return a; }");
        let sys = generate(&m, &ranges, GenConfig::default());
        let ix = VarIndex::new(&m);
        let g = m.function_by_name("g").unwrap();
        let a = ix.id(g, m.function(g).param_value(0));
        assert!(sys.constraints.iter().any(|c| matches!(c, Constraint::Init { x } if *x == a)));
        assert!(!sys.param_union.contains_key(&a));
    }

    #[test]
    fn extended_mode_adds_nonstrict_copies() {
        let src = "int f(int x, int n) { if (n >= 0) { return x + n; } return 0; }";
        let (m, ranges) = prepare(src);
        let base = generate(&m, &ranges, GenConfig::default());
        let ext = generate(&m, &ranges, GenConfig { extended: true, ..Default::default() });
        let copies = |sys: &ConstraintSystem| {
            sys.constraints.iter().filter(|c| matches!(c, Constraint::Copy { .. })).count()
        };
        assert!(
            copies(&ext) > copies(&base),
            "extended mode must turn x+n (n≥0) into a copy: {} vs {}",
            copies(&ext),
            copies(&base)
        );
    }

    #[test]
    fn call_sites_recorded_with_const_markers() {
        let (m, ranges) = prepare(
            r#"
            int g(int a, int b) { return a + b; }
            int main() { int x = input(); return g(x, 3); }
            "#,
        );
        let sys = generate(&m, &ranges, GenConfig::default());
        let g = m.function_by_name("g").unwrap();
        let info = &sys.param_info[g.index()];
        assert_eq!(info.sites.len(), 1);
        assert!(info.sites[0][0].is_some(), "x is a variable");
        assert!(info.sites[0][1].is_none(), "3 is a constant");
    }
}
