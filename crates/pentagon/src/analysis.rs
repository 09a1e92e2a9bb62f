//! The dense Pentagon dataflow analysis.
//!
//! A classic forward Kleene iteration over the CFG, per function:
//! block-entry states are joined over incoming edges (with interval
//! widening at retreating edges), instruction transfer runs through the
//! block body, and each outgoing edge applies *branch refinement*
//! (learning `a < b` from the comparison guarding the branch) plus the
//! φ-bindings of the successor. No program transformation is needed —
//! this is exactly the density the paper's Section 5 contrasts with its
//! own sparse, e-SSA-based formulation:
//!
//! > "the original work on Pentagons describe a dense analysis, whereas
//! > we use a different program representation to achieve sparsity."
//!
//! The fixpoint keeps one state per block entry. A query needs the state
//! right after a definition, which two paths provide:
//!
//! * [`PentagonAnalysis::fact_table`] walks each block once and tabulates
//!   the facts at the definitions of a chosen query set (the serving path
//!   of the `PT` alias analysis);
//! * [`PentagonAnalysis::proves_lt`] and
//!   [`PentagonAnalysis::interval_at_def`] replay the block prefix up to
//!   the definition on every call. They answer for any value, and are the
//!   reference the table is tested against.
//!
//! The two formulations prove the same kind of facts — both infer
//! `x2 > x1` from `x1 = x2 − x3, x3 > 0`, unlike ABCD — and the
//! comparison harness (`cargo run -p sraa-bench --bin pentagon_vs_lt`)
//! measures where their answers and costs diverge in practice.

use crate::facts::FactTable;
use crate::state::PentagonState;
use sraa_ir::{BinOp, BlockId, Cfg, FuncId, Function, InstData, InstKind, Module, Pred, Value};
use sraa_range::{Bound, Interval};
use std::collections::VecDeque;

/// How many joins a retreating-edge target absorbs before switching to
/// widening (a small delay buys loop-bound precision, as usual).
const WIDEN_AFTER: u32 = 3;

/// Per-function fixpoint results: the abstract state at each block entry
/// (`None` for unreachable blocks).
#[derive(Debug, Default)]
struct FuncStates {
    entry: Vec<Option<PentagonState>>,
}

/// The module-wide Pentagon analysis: the fixpoint's block-entry states.
///
/// Build with [`PentagonAnalysis::run`]. Tabulate the order facts of a
/// function's query set with [`fact_table`](Self::fact_table), or ask
/// about any value by replay: order facts with
/// [`proves_lt`](Self::proves_lt), numeric facts with
/// [`interval_at_def`](Self::interval_at_def). Every query takes the
/// module that was analyzed, because it re-runs block transfers from a
/// block-entry state.
///
/// # Example
///
/// ```
/// use sraa_pentagon::PentagonAnalysis;
/// use sraa_ir::InstKind;
///
/// let module = sraa_minic::compile(r#"
///     int f(int a) {
///         int b = a + 1;
///         return b;
///     }
/// "#).unwrap();
/// let pent = PentagonAnalysis::run(&module);
/// let fid = module.function_by_name("f").unwrap();
/// let func = module.function(fid);
/// let b = func
///     .value_ids()
///     .find(|&v| matches!(func.inst(v).kind, InstKind::Binary { .. }))
///     .unwrap();
/// let a = func.param_value(0);
/// assert!(pent.proves_lt(&module, fid, a, b), "a < a + 1");
///
/// let table = pent.fact_table(&module, fid, &[a, b]);
/// assert!(table.proves_lt(a, b) && !table.proves_lt(b, a));
/// ```
#[derive(Debug)]
pub struct PentagonAnalysis {
    funcs: Vec<FuncStates>,
}

impl PentagonAnalysis {
    /// Runs the dense fixpoint on every function of the module.
    ///
    /// Unlike the sparse strict-inequalities pipeline, the module is
    /// **not** mutated: density needs no e-SSA conversion.
    pub fn run(module: &Module) -> Self {
        let funcs = module.functions().map(|(_, func)| analyze_function(func)).collect();
        Self { funcs }
    }

    /// Tabulates the facts [`proves_lt`](Self::proves_lt) reads for every
    /// pair of values in `queries` (the query set `R`) of function `f`.
    ///
    /// One forward walk per reachable block that defines a member of `R`,
    /// from the block-entry state to the last such definition: a φ's
    /// facts are the entry state's, any other value's are those right
    /// after its transfer. Each state is kept only as its restriction to
    /// `R`, so the table's verdicts equal the replay's on `R × R`.
    /// `queries` must be values of `f`.
    pub fn fact_table(&self, module: &Module, f: FuncId, queries: &[Value]) -> FactTable {
        let func = module.function(f);
        let mut table = FactTable::new(func.num_insts(), queries);
        let Some(fs) = self.funcs.get(f.index()) else { return table };
        for b in func.block_ids() {
            let Some(Some(entry)) = fs.entry.get(b.index()) else { continue };
            let Some(last) =
                func.block_insts(b).map(|(v, _)| v).filter(|&v| table.contains(v)).last()
            else {
                continue;
            };
            let mut st = entry.clone();
            for (v, data) in func.block_insts(b) {
                if !data.kind.is_phi() {
                    transfer(&mut st, v, data);
                }
                table.record(v, &st);
                if v == last {
                    break;
                }
            }
        }
        table
    }

    /// Does the analysis prove `a < b` wherever the two values are
    /// simultaneously alive?
    ///
    /// Mirrors the paper's Corollary 3.10 reasoning for SSA values: any
    /// moment at which both are alive extends a moment at which one of
    /// them was *just defined* (SSA values are immutable within an
    /// activation), so it suffices that the fact holds in the state after
    /// `def(a)` whenever `b` is bound there, and in the state after
    /// `def(b)` whenever `a` is bound there — with at least one of the
    /// two points providing positive evidence. Validated dynamically by
    /// `tests/soundness.rs` at the workspace root.
    ///
    /// Each call replays both definitions' block prefixes; for many
    /// queries over one function, build a [`fact_table`](Self::fact_table).
    pub fn proves_lt(&self, module: &Module, f: FuncId, a: Value, b: Value) -> bool {
        if a == b {
            return false;
        }
        let after_a = self.state_after_def(module, f, a);
        let after_b = self.state_after_def(module, f, b);
        Self::lt_at_defs(a, after_a.as_ref(), b, after_b.as_ref())
    }

    /// [`proves_lt`](Self::proves_lt) given the states right after
    /// `def(a)` and `def(b)` (`None` for an unreachable definition).
    pub fn lt_at_defs(
        a: Value,
        after_a: Option<&PentagonState>,
        b: Value,
        after_b: Option<&PentagonState>,
    ) -> bool {
        if a == b {
            return false;
        }
        let mut evidence = false;
        for (st, other) in [(after_a, b), (after_b, a)] {
            match st {
                Some(st) if st.binds(other) => {
                    if st.proves_lt(a, b) {
                        evidence = true;
                    } else {
                        return false;
                    }
                }
                // Unreachable definition, or `other` unbound there: the
                // point contributes no simultaneously-alive pairs.
                _ => {}
            }
        }
        evidence
    }

    /// The interval of `v` in the state right after its definition
    /// (`None` when its block is unreachable), by replay.
    pub fn interval_at_def(&self, module: &Module, f: FuncId, v: Value) -> Option<Interval> {
        self.state_after_def(module, f, v).and_then(|st| st.interval(v))
    }

    /// Total number of variable bindings across all stored block-entry
    /// states — the dense footprint the sparse analysis avoids.
    pub fn total_bindings(&self) -> usize {
        self.funcs
            .iter()
            .flat_map(|fs| fs.entry.iter())
            .filter_map(|st| st.as_ref().map(PentagonState::num_bound))
            .sum()
    }

    /// The state right after `def(v)`: the block-entry state with the
    /// block prefix up to `v` replayed (`None` when the block is
    /// unreachable). Each call replays afresh.
    pub fn state_after_def(&self, module: &Module, f: FuncId, v: Value) -> Option<PentagonState> {
        let fs = self.funcs.get(f.index())?;
        let func = module.function(f);
        let block = func.inst(v).block?;
        let mut st = fs.entry.get(block.index())?.clone()?;
        for (iv, data) in func.block_insts(block) {
            if data.kind.is_phi() {
                // φs are bound on incoming edges; their facts are already
                // in the entry state.
                if iv == v {
                    break;
                }
                continue;
            }
            transfer(&mut st, iv, data);
            if iv == v {
                break;
            }
        }
        Some(st)
    }
}

/// The intra-procedural fixpoint for one function.
fn analyze_function(func: &Function) -> FuncStates {
    let cfg = Cfg::compute(func);
    let rpo = cfg.reverse_postorder();
    let mut rpo_index = vec![u32::MAX; func.num_blocks()];
    for (i, &b) in rpo.iter().enumerate() {
        rpo_index[b.index()] = i as u32;
    }

    let mut entry: Vec<Option<PentagonState>> = vec![None; func.num_blocks()];
    entry[func.entry().index()] = Some(PentagonState::new());
    let mut widen_counts = vec![0u32; func.num_blocks()];

    let mut worklist: VecDeque<BlockId> = VecDeque::from([func.entry()]);
    let mut on_list = vec![false; func.num_blocks()];
    on_list[func.entry().index()] = true;

    while let Some(b) = worklist.pop_front() {
        on_list[b.index()] = false;
        let mut st = entry[b.index()].clone().expect("queued blocks have entry states");

        for (v, data) in func.block_insts(b) {
            if !data.kind.is_phi() {
                transfer(&mut st, v, data);
            }
        }

        // At most two outgoing edges, each with the branch refinement
        // (condition, taken) it learns.
        let edges = match func.terminator(b).map(|t| &func.inst(t).kind) {
            Some(InstKind::Br { cond, then_bb, else_bb }) => {
                [Some((*then_bb, Some((*cond, true)))), Some((*else_bb, Some((*cond, false))))]
            }
            Some(InstKind::Jump(t)) => [Some((*t, None)), None],
            _ => [None, None],
        };
        let last = edges.iter().flatten().count();

        for (i, (succ, refinement)) in edges.into_iter().flatten().enumerate() {
            // The last edge takes the out-state itself; earlier ones copy it.
            let mut es = if i + 1 == last { std::mem::take(&mut st) } else { st.clone() };
            if let Some((cond, taken)) = refinement {
                if !refine_edge(&mut es, func, cond, taken) {
                    continue; // provably infeasible edge
                }
            }
            bind_phis(&mut es, func, b, succ);

            let retreating = rpo_index[succ.index()] <= rpo_index[b.index()];
            let slot = &mut entry[succ.index()];
            let new = match slot.as_ref() {
                None => es,
                Some(old) => {
                    if retreating {
                        widen_counts[succ.index()] += 1;
                        if widen_counts[succ.index()] >= WIDEN_AFTER {
                            old.widen(&es)
                        } else {
                            old.join(&es)
                        }
                    } else {
                        old.join(&es)
                    }
                }
            };
            if slot.as_ref() != Some(&new) {
                *slot = Some(new);
                if !on_list[succ.index()] {
                    on_list[succ.index()] = true;
                    worklist.push_back(succ);
                }
            }
        }
    }

    FuncStates { entry }
}

/// The per-instruction abstract transformer (non-φ, value-producing
/// instructions; everything else is a no-op on the state).
fn transfer(st: &mut PentagonState, v: Value, data: &InstData) {
    if !data.has_result() {
        return; // stores and terminators bind nothing
    }
    match &data.kind {
        InstKind::Const(c) => st.bind(v, Interval::constant(*c)),
        InstKind::Copy { src, .. } => st.bind_equal(v, *src),
        InstKind::Cmp { .. } => st.bind(v, Interval::finite(0, 1)),
        InstKind::Binary { op, lhs, rhs } => {
            let il = st.interval(*lhs).unwrap_or(Interval::TOP);
            let ir = st.interval(*rhs).unwrap_or(Interval::TOP);
            let iv = il.binary(*op, &ir);
            match relation(*op, *lhs, il, *rhs, ir) {
                Relation::Equal(src) => st.bind_equal(v, src),
                Relation::Above(src) => {
                    st.bind(v, iv);
                    st.record_lt(src, v);
                }
                Relation::Below(src) => {
                    st.bind(v, iv);
                    st.record_lt(v, src);
                }
                Relation::None => st.bind(v, iv),
            }
        }
        InstKind::Gep { base, offset } => {
            // Addresses are not tracked numerically, but their order is:
            // a gep with a sign-definite offset orders the derived pointer
            // against its base (the same reading of pointer arithmetic the
            // sparse analysis uses).
            let io = st.interval(*offset).unwrap_or(Interval::TOP);
            if io == Interval::constant(0) {
                st.bind_equal(v, *base);
            } else if io.is_strictly_positive() {
                st.bind(v, Interval::TOP);
                st.record_lt(*base, v);
            } else if io.is_strictly_negative() {
                st.bind(v, Interval::TOP);
                st.record_lt(v, *base);
            } else {
                st.bind(v, Interval::TOP);
            }
        }
        // External/unknown values: ⊤ interval, no order facts.
        InstKind::Param(_)
        | InstKind::Load { .. }
        | InstKind::Call { .. }
        | InstKind::Opaque
        | InstKind::Alloca { .. }
        | InstKind::Malloc { .. }
        | InstKind::GlobalAddr(_) => st.bind(v, Interval::TOP),
        InstKind::Phi { .. } => unreachable!("φs are bound on edges"),
        InstKind::Store { .. } | InstKind::Br { .. } | InstKind::Jump(_) | InstKind::Ret(_) => {
            unreachable!("no result")
        }
    }
}

/// The ordering a binary instruction `v = lhs op rhs` implies.
enum Relation {
    /// `v = src` exactly.
    Equal(Value),
    /// `src < v`.
    Above(Value),
    /// `v < src`.
    Below(Value),
    /// No definite ordering.
    None,
}

fn relation(op: BinOp, lhs: Value, il: Interval, rhs: Value, ir: Interval) -> Relation {
    match op {
        BinOp::Add => {
            if ir == Interval::constant(0) {
                Relation::Equal(lhs)
            } else if il == Interval::constant(0) {
                Relation::Equal(rhs)
            } else if ir.is_strictly_positive() {
                Relation::Above(lhs)
            } else if ir.is_strictly_negative() {
                Relation::Below(lhs)
            } else if il.is_strictly_positive() {
                Relation::Above(rhs)
            } else if il.is_strictly_negative() {
                Relation::Below(rhs)
            } else {
                Relation::None
            }
        }
        BinOp::Sub => {
            if ir == Interval::constant(0) {
                Relation::Equal(lhs)
            } else if ir.is_strictly_positive() {
                Relation::Below(lhs)
            } else if ir.is_strictly_negative() {
                Relation::Above(lhs)
            } else {
                Relation::None
            }
        }
        BinOp::Mul | BinOp::Div | BinOp::Rem => Relation::None,
    }
}

/// Applies the refinement a branch edge learns from its comparison.
/// Returns `false` when the refined state is empty — the edge is
/// statically infeasible and must not be propagated.
#[must_use]
fn refine_edge(st: &mut PentagonState, func: &Function, cond: Value, taken: bool) -> bool {
    // The condition may be a (σ-)copy of the comparison.
    let InstKind::Cmp { pred, lhs, rhs } = &func.inst(func.strip_copies(cond)).kind else {
        return true; // opaque condition: nothing to learn
    };
    let p = if taken { *pred } else { pred.negated() };
    let (p, a, b) = match p {
        Pred::Gt => (Pred::Lt, *rhs, *lhs),
        Pred::Ge => (Pred::Le, *rhs, *lhs),
        other => (other, *lhs, *rhs),
    };
    let ia = st.interval(a).unwrap_or(Interval::TOP);
    let ib = st.interval(b).unwrap_or(Interval::TOP);
    match p {
        Pred::Lt => {
            st.record_lt(a, b);
            st.refine_interval(a, Interval::new(Bound::NegInf, dec(ib.hi())))
                && st.refine_interval(b, Interval::new(inc(ia.lo()), Bound::PosInf))
        }
        Pred::Le => {
            st.record_le(a, b);
            st.refine_interval(a, Interval::new(Bound::NegInf, ib.hi()))
                && st.refine_interval(b, Interval::new(ia.lo(), Bound::PosInf))
        }
        Pred::Eq => {
            let m = ia.meet(&ib);
            st.record_le(a, b);
            st.record_le(b, a);
            st.refine_interval(a, m) && st.refine_interval(b, m)
        }
        Pred::Ne => true, // intervals cannot express a hole
        Pred::Gt | Pred::Ge => unreachable!("normalised above"),
    }
}

fn dec(b: Bound) -> Bound {
    match b {
        Bound::Fin(v) => v.checked_sub(1).map_or(Bound::NegInf, Bound::Fin),
        inf => inf,
    }
}

fn inc(b: Bound) -> Bound {
    match b {
        Bound::Fin(v) => v.checked_add(1).map_or(Bound::PosInf, Bound::Fin),
        inf => inf,
    }
}

/// Binds the φs of `succ` from their `pred`-edge incomings, with parallel
/// copy semantics: all sources are snapshotted in the pre-edge state
/// before any φ is rebound, and facts about φs of the same batch are
/// dropped (their snapshot-time values no longer exist).
fn bind_phis(st: &mut PentagonState, func: &Function, pred: BlockId, succ: BlockId) {
    let mut batch: Vec<(Value, Value)> = Vec::new();
    for (v, data) in func.block_insts(succ) {
        if let InstKind::Phi { incomings } = &data.kind {
            if let Some((_, u)) = incomings.iter().find(|(from, _)| *from == pred) {
                batch.push((v, *u));
            }
        } else {
            break; // φs are grouped at the block head
        }
    }
    if batch.is_empty() {
        return;
    }
    let mut stale: Vec<Value> = batch.iter().map(|&(v, _)| v).collect();
    stale.sort_unstable();
    let snaps: Vec<_> = batch.iter().map(|&(v, u)| (v, st.snapshot(u))).collect();
    for &(v, _) in &batch {
        st.purge(v);
    }
    for (v, snap) in snaps {
        st.bind_snapshot(v, &snap, &stale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compiled(src: &str) -> (Module, PentagonAnalysis) {
        let m = sraa_minic::compile(src).unwrap();
        let p = PentagonAnalysis::run(&m);
        (m, p)
    }

    /// All load/store addresses of `name`, in block order.
    fn addresses(m: &Module, name: &str) -> (FuncId, Vec<Value>) {
        let fid = m.function_by_name(name).unwrap();
        let f = m.function(fid);
        let mut out = Vec::new();
        for b in f.block_ids() {
            for (_, d) in f.block_insts(b) {
                match &d.kind {
                    InstKind::Load { ptr } => out.push(*ptr),
                    InstKind::Store { ptr, .. } => out.push(*ptr),
                    _ => {}
                }
            }
        }
        (fid, out)
    }

    #[test]
    fn straight_line_increment() {
        let (m, p) = compiled("int f(int a) { int b = a + 1; return b; }");
        let fid = m.function_by_name("f").unwrap();
        let func = m.function(fid);
        let a = func.param_value(0);
        let b = func
            .value_ids()
            .find(|&v| matches!(func.inst(v).kind, InstKind::Binary { .. }))
            .unwrap();
        assert!(p.proves_lt(&m, fid, a, b));
        assert!(!p.proves_lt(&m, fid, b, a));
    }

    #[test]
    fn subtraction_of_positive_orders_downward() {
        // The paper's §5 marker: Pentagons infer x2 > x1 from
        // x1 = x2 − x3, x3 > 0 (ABCD does not).
        let (m, p) = compiled(
            "int f(int x2, int x3) { if (x3 > 0) { int x1 = x2 - x3; return x1; } return 0; }",
        );
        let fid = m.function_by_name("f").unwrap();
        let func = m.function(fid);
        let x2 = func.param_value(0);
        let x1 = func
            .value_ids()
            .find(|&v| matches!(func.inst(v).kind, InstKind::Binary { op: BinOp::Sub, .. }))
            .unwrap();
        assert!(p.proves_lt(&m, fid, x1, x2));
    }

    /// Compiles *and σ-splits* (e-SSA). The dense pentagon works on any
    /// SSA form, but branch refinements only become visible to def-point
    /// queries when the guarded values have post-branch names — which is
    /// exactly what the paper's live-range splitting provides.
    fn compiled_essa(src: &str) -> (Module, PentagonAnalysis) {
        let mut m = sraa_minic::compile(src).unwrap();
        let _ = sraa_essa::transform_module(&mut m);
        let p = PentagonAnalysis::run(&m);
        (m, p)
    }

    /// The σ-copies of the true/false edge of the first comparison.
    fn sigma_copies(func: &Function, true_edge: bool) -> Vec<Value> {
        func.value_ids()
            .filter(|&v| match func.inst(v).kind {
                InstKind::Copy { origin: sraa_ir::CopyOrigin::SigmaTrue { .. }, .. } => true_edge,
                InstKind::Copy { origin: sraa_ir::CopyOrigin::SigmaFalse { .. }, .. } => !true_edge,
                _ => false,
            })
            .collect()
    }

    #[test]
    fn branch_refinement_true_edge() {
        let (m, p) = compiled_essa("int f(int a, int b) { if (a < b) { return a; } return 0; }");
        let fid = m.function_by_name("f").unwrap();
        let func = m.function(fid);
        // The σ-copies a_t, b_t on the true edge: a_t < b_t must hold.
        let sigmas = sigma_copies(func, true);
        let [at, bt] = sigmas[..] else { panic!("expected 2 σ-copies, got {sigmas:?}") };
        assert!(
            p.proves_lt(&m, fid, at, bt) || p.proves_lt(&m, fid, bt, at),
            "the guarded σ names must be ordered"
        );
    }

    #[test]
    fn false_edge_learns_the_negation() {
        let (m, p) = compiled_essa("int f(int a, int b) { if (a >= b) { return 0; } return a; }");
        let fid = m.function_by_name("f").unwrap();
        let func = m.function(fid);
        // False edge of (a >= b) is a < b: the σ names are strictly
        // ordered there.
        let sigmas = sigma_copies(func, false);
        let [af, bf] = sigmas[..] else { panic!("expected 2 σ-copies, got {sigmas:?}") };
        assert!(p.proves_lt(&m, fid, af, bf) || p.proves_lt(&m, fid, bf, af), "!(a >= b) is a < b");
    }

    #[test]
    fn loop_counter_gets_widened_interval() {
        let (m, p) = compiled(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s = s + i; } return s; }",
        );
        let fid = m.function_by_name("f").unwrap();
        let func = m.function(fid);
        // The φ for i at the loop head: interval must contain [0, +∞) and
        // the analysis must have terminated (we are running this test).
        let phi =
            func.value_ids().find(|&v| matches!(func.inst(v).kind, InstKind::Phi { .. })).unwrap();
        let iv = p.interval_at_def(&m, fid, phi).unwrap();
        assert!(iv.contains(0));
        assert!(iv.contains(1 << 40), "widened upper bound");
        assert_eq!(iv.lo(), Bound::Fin(0), "lower bound stays");
    }

    #[test]
    fn figure_1a_inner_loop_offsets_are_ordered() {
        let (m, p) = compiled(
            r#"
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
            "#,
        );
        let (fid, addrs) = addresses(&m, "ins_sort");
        let func = m.function(fid);
        // Every pair (v[i], v[j]) must be provably ordered via its
        // offsets: find the gep offsets and check i < j.
        let mut checked = 0;
        for (x, &p1) in addrs.iter().enumerate() {
            for &p2 in &addrs[x + 1..] {
                let (
                    InstKind::Gep { base: b1, offset: o1 },
                    InstKind::Gep { base: b2, offset: o2 },
                ) = (&func.inst(p1).kind, &func.inst(p2).kind)
                else {
                    continue;
                };
                if b1 != b2 {
                    continue;
                }
                if o1 == o2 {
                    continue;
                }
                assert!(
                    p.proves_lt(&m, fid, *o1, *o2) || p.proves_lt(&m, fid, *o2, *o1),
                    "offsets of v[i]/v[j] must be ordered"
                );
                checked += 1;
            }
        }
        assert!(checked >= 4, "saw only {checked} cross pairs");
    }

    const FIGURE_1B: &str = r#"
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

    /// Counts same-base pointer pairs of `name` whose gep offsets are
    /// provably ordered (looking through copies, as Definition 3.11 does).
    fn ordered_offset_pairs(m: &Module, p: &PentagonAnalysis, name: &str) -> usize {
        let (fid, addrs) = addresses(m, name);
        let func = m.function(fid);
        let mut proven = 0;
        for (x, &p1) in addrs.iter().enumerate() {
            for &p2 in &addrs[x + 1..] {
                let (
                    InstKind::Gep { base: b1, offset: o1 },
                    InstKind::Gep { base: b2, offset: o2 },
                ) = (
                    &func.inst(func.strip_copies(p1)).kind,
                    &func.inst(func.strip_copies(p2)).kind,
                )
                else {
                    continue;
                };
                if func.strip_copies(*b1) != func.strip_copies(*b2) || o1 == o2 {
                    continue;
                }
                if p.proves_lt(m, fid, *o1, *o2) || p.proves_lt(m, fid, *o2, *o1) {
                    proven += 1;
                }
            }
        }
        proven
    }

    /// On plain SSA, the `i ≥ j → break` refinement of Figure 1 (b)
    /// post-dates the definitions of the φs `i` and `j`, so a def-point
    /// query cannot use it — *this is the paper's argument for live-range
    /// splitting*, observed as a real precision gap of the dense
    /// formulation.
    #[test]
    fn figure_1b_needs_live_range_splitting() {
        let (m, p) = compiled(FIGURE_1B);
        assert_eq!(
            ordered_offset_pairs(&m, &p, "partition"),
            0,
            "plain-SSA def-point queries must not see the guard"
        );
    }

    /// After e-SSA conversion the swap block uses σ-renamed `i`/`j` whose
    /// definitions sit *on the refined edge*: the same dense pentagon now
    /// proves the Figure 1 (b) disambiguation.
    #[test]
    fn figure_1b_provable_on_essa() {
        let (m, p) = compiled_essa(FIGURE_1B);
        assert!(
            ordered_offset_pairs(&m, &p, "partition") >= 1,
            "σ-renamed swap offsets must be ordered"
        );
    }

    #[test]
    fn unreachable_code_has_no_facts() {
        let (m, p) = compiled("int f(int a) { return a; int b = a + 1; return b; }");
        let fid = m.function_by_name("f").unwrap();
        let func = m.function(fid);
        let b = func
            .value_ids()
            .find(|&v| matches!(func.inst(v).kind, InstKind::Binary { .. }))
            .expect("the dead increment is still lowered");
        let a = func.param_value(0);
        assert_eq!(p.interval_at_def(&m, fid, b), None, "dead code has no state");
        assert!(!p.proves_lt(&m, fid, a, b), "no facts in dead code");
        assert!(!p.fact_table(&m, fid, &[a, b]).proves_lt(a, b), "no facts in dead code");
    }

    #[test]
    fn infeasible_edge_is_pruned() {
        // 3 < 2 is statically false: the then-branch is unreachable, so
        // the constant store inside it must not pollute the exit state.
        let (m, p) = compiled(
            "int f() { int a = 3; int b = 2; int r = 0; if (a < b) { r = 1; } return r; }",
        );
        let fid = m.function_by_name("f").unwrap();
        let func = m.function(fid);
        // r at the return: φ(0, 1) would be [0,1]; with pruning it is [0,0].
        let ret_block = func
            .block_ids()
            .find(|&b| {
                matches!(func.terminator(b).map(|t| &func.inst(t).kind), Some(InstKind::Ret(_)))
            })
            .unwrap();
        let ret = func.terminator(ret_block).unwrap();
        let InstKind::Ret(Some(rv)) = func.inst(ret).kind else { panic!("f returns a value") };
        let iv = p.interval_at_def(&m, fid, rv).expect("the return value is reachable");
        assert_eq!(iv, Interval::constant(0), "infeasible edge leaked: {iv:?}");
    }

    #[test]
    fn dense_footprint_counts_block_entry_bindings() {
        // A single-block function stores no bindings (only the empty
        // entry state); any additional block inherits every live value.
        let (_, p0) = compiled("int f(int a) { int b = a + 1; return b; }");
        assert_eq!(p0.total_bindings(), 0);
        let (_, p) = compiled("int f(int a) { int b = 0; if (a > 0) { b = a; } return b; }");
        assert!(p.total_bindings() > 0, "multi-block functions pay the dense footprint");
    }
}
