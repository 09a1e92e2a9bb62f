//! `sraa-essa` — the e-SSA / live-range-splitting program representation.
//!
//! The paper (its Section 3.2 and Figure 5) converts programs into a
//! representation with the *Static Single Information* property (Tavares
//! et al.): the live range of a variable is split at every program point
//! where new less-than information appears, so a sparse analysis can bind
//! one abstract state to each variable name. Three situations create
//! information:
//!
//! 1. a definition (SSA already gives a fresh name);
//! 2. a subtraction `x1 = x2 − n` with `n > 0` — a parallel copy
//!    `⟨x3 = x2⟩` splits `x2`'s live range (rule 3 of Figure 7 then knows
//!    `x1 < x3`);
//! 3. a conditional `(x1 < x2)?` — σ-copies `⟨x1t, x2t⟩` / `⟨x1f, x2f⟩`
//!    on the out-edges split both operands.
//!
//! This crate implements both splits as IR-to-IR transforms plus the
//! dominator-tree renaming that rewrites every dominated use (the paper's
//! "rename x to xt at any block l if lt dom l"). It corresponds to the
//! `vSSA` pass of the paper's LLVM artifact.
//!
//! # Example
//!
//! ```
//! let mut m = sraa_minic::compile(
//!     "int f(int a, int b) { if (a < b) return b - a; return 0; }").unwrap();
//! let (_, stats) = sraa_essa::transform_module(&mut m);
//! assert!(stats.sigma_copies >= 4); // a_t, b_t, a_f, b_f
//! sraa_ir::verify(&m).unwrap();
//! ```

use sraa_ir::{
    BinOp, BlockId, Cfg, CopyOrigin, DomTree, FuncId, Function, InstKind, Module, Value,
};
use sraa_range::RangeAnalysis;
use std::collections::HashMap;

/// Counters describing what a transform did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EssaStats {
    /// σ-copies inserted on branch edges.
    pub sigma_copies: usize,
    /// Parallel copies inserted at subtractions / negative geps.
    pub sub_splits: usize,
    /// Critical edges split to host σ-copies.
    pub edges_split: usize,
}

impl std::ops::AddAssign for EssaStats {
    fn add_assign(&mut self, o: Self) {
        self.sigma_copies += o.sigma_copies;
        self.sub_splits += o.sub_splits;
        self.edges_split += o.edges_split;
    }
}

/// Runs the full e-SSA pipeline on a module:
/// σ-splitting at branches, then range analysis (σ-refined), then
/// live-range splitting at subtractions guided by the ranges.
///
/// Returns the range analysis, already extended to cover the copies the
/// second phase inserted, plus the combined statistics.
pub fn transform_module(module: &mut Module) -> (RangeAnalysis, EssaStats) {
    let mut stats = EssaStats::default();
    stats += split_at_branches(module);
    let mut ranges = sraa_range::analyze(module);
    let fids: Vec<FuncId> = module.functions().map(|(id, _)| id).collect();
    for fid in fids {
        stats += split_at_subtractions_in(module.function_mut(fid), fid, &mut ranges);
    }
    (ranges, stats)
}

/// Inserts σ-copies for both operands of every comparison-guarded branch,
/// in every function of `module` (Figure 5 (b) of the paper).
fn split_at_branches(module: &mut Module) -> EssaStats {
    let mut stats = EssaStats::default();
    let fids: Vec<FuncId> = module.functions().map(|(id, _)| id).collect();
    for fid in fids {
        stats += split_at_branches_in(module.function_mut(fid));
    }
    stats
}

/// σ-splitting for a single function.
fn split_at_branches_in(f: &mut Function) -> EssaStats {
    let mut stats = EssaStats::default();

    // Collect the work first: (branch block, cmp, then target, else target).
    let mut branches: Vec<(BlockId, Value, BlockId, BlockId)> = Vec::new();
    for b in f.block_ids() {
        let Some(term) = f.terminator(b) else { continue };
        let InstKind::Br { cond, then_bb, else_bb } = f.inst(term).kind else { continue };
        if then_bb == else_bb {
            continue;
        }
        if matches!(f.inst(cond).kind, InstKind::Cmp { .. }) {
            branches.push((b, cond, then_bb, else_bb));
        }
    }

    let cfg = Cfg::compute(f);
    let mut new_defs: Vec<(Value, Value)> = Vec::new(); // (copy, original)
    for (b, cmp, then_bb, else_bb) in branches {
        let InstKind::Cmp { lhs, rhs, .. } = f.inst(cmp).kind else { unreachable!() };
        for (target, is_true) in [(then_bb, true), (else_bb, false)] {
            // Where do the σ-copies live? Directly in the target if this
            // edge is its only in-edge; otherwise on a freshly split edge.
            let host = if cfg.preds(target).len() > 1 {
                stats.edges_split += 1;
                f.split_edge(b, target)
            } else {
                target
            };
            let mut at = f.block(host).first_non_phi(f);
            for op in [lhs, rhs] {
                if matches!(f.inst(op).kind, InstKind::Const(_)) {
                    continue; // constants carry no live range to split
                }
                let origin = if is_true {
                    CopyOrigin::SigmaTrue { cmp }
                } else {
                    CopyOrigin::SigmaFalse { cmp }
                };
                let copy = f.insert_copy(host, at, op, origin);
                at += 1;
                new_defs.push((copy, op));
                stats.sigma_copies += 1;
            }
        }
    }

    rename_dominated_uses(f, &new_defs);
    stats
}

/// Splits the live range of the minuend at every subtraction whose
/// subtrahend is provably positive — `x1 = x2 − n, n > 0` — and at every
/// `gep` with a provably negative offset (the pointer analogue). Also
/// recognises additions of provably *negative* values, as the paper's
/// range-analysis-driven classification prescribes.
///
/// New copies inherit their source's interval via
/// [`RangeAnalysis::extend_copy`], keeping `ranges` usable afterwards.
fn split_at_subtractions_in(
    f: &mut Function,
    fid: FuncId,
    ranges: &mut RangeAnalysis,
) -> EssaStats {
    let mut stats = EssaStats::default();

    // (instruction, operand whose live range splits)
    let mut work: Vec<(Value, Value)> = Vec::new();
    for b in f.block_ids() {
        for (v, data) in f.block_insts(b) {
            match &data.kind {
                InstKind::Binary { op: BinOp::Sub, lhs, rhs }
                    if is_strictly_positive(f, fid, ranges, *rhs) =>
                {
                    work.push((v, *lhs));
                }
                InstKind::Binary { op: BinOp::Add, lhs, rhs } => {
                    // x1 = x2 + n with n < 0 is a subtraction in disguise.
                    if is_strictly_negative(f, fid, ranges, *rhs) {
                        work.push((v, *lhs));
                    } else if is_strictly_negative(f, fid, ranges, *lhs) {
                        work.push((v, *rhs));
                    }
                }
                InstKind::Gep { base, offset } if is_strictly_negative(f, fid, ranges, *offset) => {
                    work.push((v, *base));
                }
                _ => {}
            }
        }
    }

    let mut new_defs: Vec<(Value, Value)> = Vec::new();
    for (sub, split_op) in work {
        // Do not split constants: they have no live range.
        if matches!(f.inst(split_op).kind, InstKind::Const(_)) {
            continue;
        }
        let block = f.inst(sub).block.expect("worklist instructions are attached");
        // Positions shift as copies are inserted; scan the (short) block.
        let at =
            f.block(block).insts.iter().position(|&x| x == sub).expect("sub is in its block") + 1;
        let copy = f.insert_copy(block, at, split_op, CopyOrigin::SubSplit { sub });
        ranges.extend_copy(fid, copy, split_op);
        new_defs.push((copy, split_op));
        stats.sub_splits += 1;
    }

    rename_dominated_uses(f, &new_defs);
    stats
}

fn is_strictly_positive(f: &Function, fid: FuncId, ranges: &RangeAnalysis, v: Value) -> bool {
    match f.inst(v).kind {
        InstKind::Const(c) => c > 0,
        _ => ranges.range(fid, v).is_strictly_positive(),
    }
}

fn is_strictly_negative(f: &Function, fid: FuncId, ranges: &RangeAnalysis, v: Value) -> bool {
    match f.inst(v).kind {
        InstKind::Const(c) => c < 0,
        _ => ranges.range(fid, v).is_strictly_negative(),
    }
}

/// Rewrites every use of each original value that is dominated by its new
/// copy — the paper's "rename x to x′ at any block l if l′ dom l". This is
/// the classic stack-based dominator-tree walk of SSA renaming, applied to
/// the freshly inserted copies.
///
/// φ operands count as uses on the incoming edge: they are rewritten when
/// the walk processes the predecessor block.
fn rename_dominated_uses(f: &mut Function, new_defs: &[(Value, Value)]) {
    if new_defs.is_empty() {
        return;
    }
    let is_new_def: HashMap<Value, Value> = new_defs.iter().copied().collect();
    let cfg = Cfg::compute(f);
    let dt = DomTree::compute(f, &cfg);

    let mut stacks: HashMap<Value, Vec<Value>> = HashMap::new();
    // Iterative DFS over the dominator tree with explicit pop records.
    enum Step {
        Enter(BlockId),
        Exit(BlockId),
    }
    let mut agenda = vec![Step::Enter(f.entry())];
    let mut pushed_in: Vec<Vec<Value>> = vec![Vec::new(); f.num_blocks()];

    while let Some(step) = agenda.pop() {
        match step {
            Step::Enter(b) => {
                let insts: Vec<Value> = f.block(b).insts.clone();
                for v in insts {
                    // 1. Rewrite ordinary operands with the active copies.
                    //    (φ operands are handled from the predecessor.)
                    let stacks_ref = &stacks;
                    f.inst_mut(v).kind.for_each_operand_mut(|op| {
                        if let Some(stack) = stacks_ref.get(op) {
                            if let Some(&top) = stack.last() {
                                *op = top;
                            }
                        }
                    });
                    // 2. If this is one of the new copies, activate it.
                    if let Some(&orig) = is_new_def.get(&v) {
                        stacks.entry(orig).or_default().push(v);
                        pushed_in[b.index()].push(orig);
                    }
                }
                // 3. Rewrite φ incomings of successors along this edge.
                for s in f.successors(b) {
                    let phis: Vec<Value> = f
                        .block(s)
                        .insts
                        .iter()
                        .copied()
                        .filter(|&p| f.inst(p).kind.is_phi())
                        .collect();
                    for p in phis {
                        let stacks_ref = &stacks;
                        f.inst_mut(p).kind.for_each_phi_operand_mut(|pred, val| {
                            if *pred == b {
                                if let Some(stack) = stacks_ref.get(val) {
                                    if let Some(&top) = stack.last() {
                                        *val = top;
                                    }
                                }
                            }
                        });
                    }
                }
                agenda.push(Step::Exit(b));
                for &c in dt.children(b) {
                    agenda.push(Step::Enter(c));
                }
            }
            Step::Exit(b) => {
                for orig in pushed_in[b.index()].drain(..) {
                    stacks.get_mut(&orig).expect("pushed earlier").pop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sraa_ir::{verify, FunctionBuilder, Pred, Type};

    fn compile(src: &str) -> Module {
        sraa_minic::compile(src).expect("test source must compile")
    }

    fn count_copies(f: &Function, pred: impl Fn(&CopyOrigin) -> bool) -> usize {
        f.block_ids()
            .flat_map(|b| {
                f.block_insts(b)
                    .filter(|(_, d)| match &d.kind {
                        InstKind::Copy { origin, .. } => pred(origin),
                        _ => false,
                    })
                    .map(|_| ())
                    .collect::<Vec<_>>()
            })
            .count()
    }

    #[test]
    fn branch_split_inserts_four_sigmas() {
        let mut m = compile("int f(int a, int b) { if (a < b) return a; return b; }");
        let stats = split_at_branches(&mut m);
        assert_eq!(stats.sigma_copies, 4, "a_t, b_t, a_f, b_f");
        verify(&m).unwrap();
        let f = m.function(m.function_by_name("f").unwrap());
        assert_eq!(count_copies(f, |o| matches!(o, CopyOrigin::SigmaTrue { .. })), 2);
        assert_eq!(count_copies(f, |o| matches!(o, CopyOrigin::SigmaFalse { .. })), 2);
    }

    #[test]
    fn sigma_copies_rename_dominated_uses() {
        // The return in the true branch must use the σ-copy, not `a`.
        let mut m = compile("int f(int a, int b) { if (a < b) return a + b; return 0; }");
        split_at_branches(&mut m);
        verify(&m).unwrap();
        let fid = m.function_by_name("f").unwrap();
        let f = m.function(fid);
        // Find the add: both operands must now be σ-copies.
        let mut found = false;
        for b in f.block_ids() {
            for (_, data) in f.block_insts(b) {
                if let InstKind::Binary { op: BinOp::Add, lhs, rhs } = data.kind {
                    found = true;
                    for op in [lhs, rhs] {
                        assert!(
                            matches!(
                                f.inst(op).kind,
                                InstKind::Copy { origin: CopyOrigin::SigmaTrue { .. }, .. }
                            ),
                            "operand {op} of the add must be a true-edge σ-copy"
                        );
                    }
                }
            }
        }
        assert!(found, "the add must still exist");
    }

    #[test]
    fn critical_edges_are_split() {
        // bb0 branches to bb2 which also receives bb1: the bb0→bb2 edge is
        // critical, so the σ-copies must live on a freshly split edge
        // block. (The MiniC lowering never creates such CFGs, but IR built
        // directly with a `FunctionBuilder` can.)
        //
        //   bb0: %c = cmp lt %x, %y; br %c, bb1, bb2
        //   bb1: jump bb2
        //   bb2: ret %x
        let mut m = Module::new();
        let fid =
            m.declare_function("f", vec![("x", Type::Int), ("y", Type::Int)], Some(Type::Int));
        let mut b = FunctionBuilder::new(m.function_mut(fid));
        let (bb1, bb2) = (b.create_block(), b.create_block());
        let (x, y) = (b.param(0), b.param(1));
        let c = b.cmp(Pred::Lt, x, y);
        b.br(c, bb1, bb2);
        b.switch_to(bb1);
        b.jump(bb2);
        b.switch_to(bb2);
        b.ret(Some(x));
        b.finish();
        verify(&m).unwrap();
        let stats = split_at_branches(&mut m);
        assert_eq!(stats.edges_split, 1, "only the bb0→bb2 edge is critical: {stats:?}");
        verify(&m).unwrap();
        // The copies on the split edge dominate nothing, so bb2 still
        // returns the original %x.
        let f = m.function(m.function_by_name("f").unwrap());
        let ret_bb = f
            .block_ids()
            .find(|&b| matches!(f.terminator(b).map(|t| &f.inst(t).kind), Some(InstKind::Ret(_))))
            .unwrap();
        let term = f.terminator(ret_bb).unwrap();
        let InstKind::Ret(Some(rv)) = f.inst(term).kind else { panic!() };
        assert!(matches!(f.inst(rv).kind, InstKind::Param(0)));
    }

    #[test]
    fn constants_get_no_sigma() {
        let mut m = compile("int f(int a) { if (a < 10) return 1; return 2; }");
        let stats = split_at_branches(&mut m);
        assert_eq!(stats.sigma_copies, 2, "only `a` is split, on each edge");
        verify(&m).unwrap();
    }

    #[test]
    fn subtraction_split_follows_figure5a() {
        // x1 = x2 - 1: uses of x2 after the subtraction become the copy.
        let mut m = compile("int f(int x2) { int x1 = x2 - 1; return x2 + x1; }");
        let (_, stats) = transform_module(&mut m);
        assert_eq!(stats.sub_splits, 1);
        verify(&m).unwrap();
        let fid = m.function_by_name("f").unwrap();
        let f = m.function(fid);
        for b in f.block_ids() {
            for (_, data) in f.block_insts(b) {
                if let InstKind::Binary { op: BinOp::Add, lhs, .. } = data.kind {
                    assert!(
                        matches!(
                            f.inst(lhs).kind,
                            InstKind::Copy { origin: CopyOrigin::SubSplit { .. }, .. }
                        ),
                        "x2's use after the subtraction must be the split copy"
                    );
                }
            }
        }
    }

    #[test]
    fn negative_gep_splits_pointer() {
        let mut m = compile("int f(int* p) { int* q = p - 1; return *q + *p; }");
        let (_, stats) = transform_module(&mut m);
        // The gep offset is the negated constant 1 → provably negative…
        // (frontend lowers `p - 1` to `gep p, (0 - 1)`).
        assert!(stats.sub_splits >= 1, "pointer decrement must split p: {stats:?}");
        verify(&m).unwrap();
    }

    #[test]
    fn full_pipeline_on_paper_figure1a() {
        let mut m = compile(
            r#"
            void ins_sort(int* v, int N) {
                int i; int j;
                for (i = 0; i < N - 1; i++)
                    for (j = i + 1; j < N; j++)
                        if (v[i] > v[j]) {
                            int tmp = v[i];
                            v[i] = v[j];
                            v[j] = tmp;
                        }
            }
            "#,
        );
        let (_, stats) = transform_module(&mut m);
        verify(&m).unwrap();
        assert!(stats.sigma_copies >= 8, "three comparisons worth of σs: {stats:?}");
    }

    #[test]
    fn transform_preserves_program_semantics() {
        let src = r#"
            int main() {
                int a[10];
                int i;
                for (i = 0; i < 10; i++) a[i] = i * i;
                int s = 0;
                for (i = 10 - 1; i >= 0; i--) s += a[i];
                return s;
            }
        "#;
        let mut m = compile(src);
        let before = sraa_ir::Interpreter::new(&m).run("main", &[]).unwrap().result;
        let (_, _) = transform_module(&mut m);
        verify(&m).unwrap();
        let after = sraa_ir::Interpreter::new(&m).run("main", &[]).unwrap().result;
        assert_eq!(before, after, "e-SSA must not change observable behaviour");
        assert_eq!(before, Some((0..10).map(|i| i * i).sum()));
    }

    #[test]
    fn ranges_extended_for_new_copies() {
        let mut m = compile("int f(int x) { if (x > 5) { int y = x - 1; return y; } return 0; }");
        let (ranges, _) = transform_module(&mut m);
        let fid = m.function_by_name("f").unwrap();
        let f = m.function(fid);
        for b in f.block_ids() {
            for (v, data) in f.block_insts(b) {
                if data.has_result() {
                    // No panic and a usable interval for every value,
                    // including the freshly inserted copies.
                    let _ = ranges.range(fid, v);
                }
            }
        }
        verify(&m).unwrap();
    }

    #[test]
    fn idempotent_verification_after_double_branch_split() {
        // Applying σ-splitting twice must still verify (copies of copies).
        let mut m = compile("int f(int a, int b) { if (a < b) return a; return b; }");
        split_at_branches(&mut m);
        split_at_branches(&mut m);
        verify(&m).unwrap();
    }
}

#[cfg(test)]
mod ssi_tests {
    use super::*;

    /// Checks the Static Single Information property this crate establishes
    /// (paper Definition 3.2, specialised to the less-than analysis): every
    /// comparison-guarded conditional branch carries σ-copies of each
    /// non-constant comparison operand on *both* out-edges (directly in the
    /// target when the edge is the target's only in-edge, or on a split edge
    /// block otherwise). The error names the first missing σ-copy.
    fn verify_ssi(f: &Function) -> Result<(), String> {
        let cfg = Cfg::compute(f);
        for b in f.block_ids() {
            let Some(term) = f.terminator(b) else { continue };
            let InstKind::Br { cond, then_bb, else_bb } = f.inst(term).kind else { continue };
            if then_bb == else_bb {
                continue;
            }
            let InstKind::Cmp { lhs, rhs, .. } = f.inst(cond).kind else { continue };
            for (target, truthy) in [(then_bb, true), (else_bb, false)] {
                // Split edges host their copies in an intermediate block that
                // only the transform knows; we check the single-predecessor
                // case (the common one) and skip split edges.
                if cfg.preds(target).len() > 1 {
                    continue;
                }
                for op in [lhs, rhs] {
                    if matches!(f.inst(op).kind, InstKind::Const(_)) {
                        continue;
                    }
                    let found = f.block_insts(target).any(|(_, d)| match (&d.kind, truthy) {
                        (InstKind::Copy { origin: CopyOrigin::SigmaTrue { cmp }, .. }, true) => {
                            *cmp == cond
                        }
                        (InstKind::Copy { origin: CopyOrigin::SigmaFalse { cmp }, .. }, false) => {
                            *cmp == cond
                        }
                        _ => false,
                    });
                    if !found {
                        return Err(format!(
                            "missing σ-copy for {op} on the {} edge of {b} (cmp {cond})",
                            if truthy { "true" } else { "false" }
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    #[test]
    fn verify_ssi_accepts_transformed_modules() {
        let mut m = sraa_minic::compile(
            r#"
            int f(int* v, int n) {
                int s = 0;
                for (int i = 0; i < n; i++)
                    for (int j = i + 1; j < n; j++)
                        if (v[i] > v[j]) s++;
                return s;
            }
            "#,
        )
        .unwrap();
        let fid = m.function_by_name("f").unwrap();
        assert!(
            verify_ssi(m.function(fid)).is_err(),
            "before the transform the SSI property does not hold"
        );
        split_at_branches(&mut m);
        verify_ssi(m.function(fid)).expect("after the transform it must");
    }

    #[test]
    fn verify_ssi_holds_on_random_programs() {
        for seed in 0..10u64 {
            let w = sraa_synth::csmith_generate(sraa_synth::CsmithConfig {
                seed: seed + 42,
                max_ptr_depth: 3,
                num_stmts: 50,
                helpers: 0,
            });
            let mut m = sraa_minic::compile(&w.source).unwrap();
            transform_module(&mut m);
            for (fid, _) in m.functions() {
                verify_ssi(m.function(fid)).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            }
            sraa_ir::verify(&m).unwrap();
        }
    }
}
