//! Inter-procedural interval analysis over the SSA IR.
//!
//! The fixpoint engine is the classic ascending Kleene iteration with
//! widening, followed by bounded narrowing (Cousot & Cousot). On e-SSA
//! form (after [`sraa-essa`] live-range splitting) σ-copies carry branch
//! refinements, which is precisely the program representation Rodrigues et
//! al.'s range analysis — the one the paper uses — operates on.
//!
//! Inter-procedurality mirrors the paper's Section 4: formal parameters
//! behave like φ-functions over the actual arguments of every call site
//! (functions with no internal caller keep ⊤ parameters). This is realised
//! by re-analysing the module a few rounds with parameter/return summaries
//! from the previous round; every round is individually sound, so stopping
//! at any round is safe.
//!
//! [`sraa-essa`]: https://crates.io/crates/sraa-essa

use crate::interval::{Bound, Interval};
use sraa_ir::{
    BinOp, Cfg, CopyOrigin, DefUse, FuncId, Function, InstKind, Module, Pred, Type, Value,
};

/// Inter-procedural rounds. Every round is sound on its own, so the
/// analysis may stop after any of them.
const MAX_ROUNDS: usize = 3;
/// Widening threshold: evaluations of a value before widening kicks in.
const WIDEN_AFTER: usize = 8;
/// Narrowing sweeps after the ascending phase.
const NARROW_PASSES: usize = 2;

/// Result of the range analysis: an interval per (function, value).
#[derive(Clone, Debug)]
pub struct RangeAnalysis {
    per_func: Vec<Vec<Interval>>,
}

impl RangeAnalysis {
    /// The interval of `v` in function `f`.
    ///
    /// Values the analysis does not track (pointers, detached
    /// instructions) report ⊤.
    pub fn range(&self, f: FuncId, v: Value) -> Interval {
        self.per_func
            .get(f.index())
            .and_then(|rs| rs.get(v.index()))
            .copied()
            .unwrap_or(Interval::TOP)
    }

    /// Extends the result with a copy's range after a transform inserted
    /// new copy instructions (they inherit their source's interval).
    pub fn extend_copy(&mut self, f: FuncId, new_value: Value, src: Value) {
        let src_range = self.range(f, src);
        let rs = &mut self.per_func[f.index()];
        if rs.len() <= new_value.index() {
            rs.resize(new_value.index() + 1, Interval::TOP);
        }
        rs[new_value.index()] = src_range;
    }
}

/// Analyzes `module`, propagating argument and return summaries across
/// calls, as the paper does.
pub fn analyze(module: &Module) -> RangeAnalysis {
    let nf = module.num_functions();
    // Which functions have at least one internal call site?
    let mut internally_called = vec![false; nf];
    for (_, f) in module.functions() {
        for b in f.block_ids() {
            for (_, data) in f.block_insts(b) {
                if let InstKind::Call { callee, .. } = &data.kind {
                    internally_called[callee.index()] = true;
                }
            }
        }
    }

    let mut summaries = Summaries {
        params: module.functions().map(|(_, f)| vec![Interval::TOP; f.params.len()]).collect(),
        rets: vec![Interval::TOP; nf],
    };

    let mut results: Vec<Vec<Interval>> = Vec::new();
    for _ in 0..MAX_ROUNDS {
        results = module
            .functions()
            .map(|(fid, f)| analyze_function(f, fid, module, &summaries))
            .collect();
        let next = collect_summaries(module, &results, &internally_called);
        if next == summaries {
            break;
        }
        summaries = next;
    }
    RangeAnalysis { per_func: results }
}

#[derive(Clone, PartialEq)]
struct Summaries {
    /// Per function, per parameter: join of argument intervals over all
    /// internal call sites (⊤ for externally callable functions).
    params: Vec<Vec<Interval>>,
    /// Per function: join of returned intervals.
    rets: Vec<Interval>,
}

fn collect_summaries(
    module: &Module,
    results: &[Vec<Interval>],
    internally_called: &[bool],
) -> Summaries {
    let nf = module.num_functions();
    let mut params: Vec<Vec<Interval>> = module
        .functions()
        .map(|(fid, f)| {
            if internally_called[fid.index()] {
                vec![Interval::BOTTOM; f.params.len()]
            } else {
                vec![Interval::TOP; f.params.len()]
            }
        })
        .collect();
    let mut rets = vec![Interval::BOTTOM; nf];

    for (fid, f) in module.functions() {
        let env = &results[fid.index()];
        let get = |v: Value| env.get(v.index()).copied().unwrap_or(Interval::TOP);
        for b in f.block_ids() {
            for (_, data) in f.block_insts(b) {
                match &data.kind {
                    InstKind::Call { callee, args } if internally_called[callee.index()] => {
                        for (i, a) in args.iter().enumerate() {
                            let slot = &mut params[callee.index()][i];
                            *slot = slot.join(&get(*a));
                        }
                    }
                    InstKind::Ret(Some(v)) => {
                        let slot = &mut rets[fid.index()];
                        *slot = slot.join(&get(*v));
                    }
                    _ => {}
                }
            }
        }
    }
    // Functions that never return a value (or are never analysed) stay ⊥;
    // make them ⊤ so call results are conservative.
    for r in &mut rets {
        if r.is_bottom() {
            *r = Interval::TOP;
        }
    }
    Summaries { params, rets }
}

fn analyze_function(
    f: &Function,
    fid: FuncId,
    module: &Module,
    summaries: &Summaries,
) -> Vec<Interval> {
    let nv = f.num_insts();
    let mut env = vec![Interval::BOTTOM; nv];
    let def_use = DefUse::compute(f);
    let cfg_graph = Cfg::compute(f);

    // Extra users for σ-copies: the copy's range depends on *both* cmp
    // operands, not just its source.
    let mut extra_users: Vec<Vec<Value>> = vec![Vec::new(); nv];
    for b in f.block_ids() {
        for (v, data) in f.block_insts(b) {
            if let InstKind::Copy {
                origin: CopyOrigin::SigmaTrue { cmp } | CopyOrigin::SigmaFalse { cmp },
                ..
            } = &data.kind
            {
                if let InstKind::Cmp { lhs, rhs, .. } = &f.inst(*cmp).kind {
                    extra_users[lhs.index()].push(v);
                    extra_users[rhs.index()].push(v);
                }
            }
        }
    }

    // Seed the worklist in reverse post-order for fast convergence.
    let mut worklist: Vec<Value> = Vec::new();
    for &b in cfg_graph.reverse_postorder().iter() {
        for (v, data) in f.block_insts(b) {
            if data.has_result() {
                worklist.push(v);
            }
        }
    }
    worklist.reverse(); // treat as a stack: pop from the end = RPO order

    let mut visits = vec![0usize; nv];
    let mut on_list = vec![true; nv];
    while let Some(v) = worklist.pop() {
        on_list[v.index()] = false;
        let new = eval(f, fid, module, summaries, &env, v);
        let old = env[v.index()];
        let next = if visits[v.index()] >= WIDEN_AFTER { old.widen(&new) } else { new };
        // Ascending phase: never lose information already gained.
        let next = old.join(&next);
        if next != old {
            visits[v.index()] += 1;
            env[v.index()] = next;
            for u in def_use.uses(v) {
                if f.inst(u.user).has_result() && !on_list[u.user.index()] {
                    on_list[u.user.index()] = true;
                    worklist.push(u.user);
                }
            }
            for &u in &extra_users[v.index()] {
                if !on_list[u.index()] {
                    on_list[u.index()] = true;
                    worklist.push(u);
                }
            }
        }
    }

    // Narrowing sweeps in RPO.
    for _ in 0..NARROW_PASSES {
        let mut changed = false;
        for &b in &cfg_graph.reverse_postorder() {
            for (v, data) in f.block_insts(b) {
                if !data.has_result() {
                    continue;
                }
                let new = eval(f, fid, module, summaries, &env, v);
                let next = env[v.index()].narrow(&new);
                if next != env[v.index()] {
                    env[v.index()] = next;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    env
}

fn eval(
    f: &Function,
    fid: FuncId,
    module: &Module,
    summaries: &Summaries,
    env: &[Interval],
    v: Value,
) -> Interval {
    let get = |x: Value| env[x.index()];
    let data = f.inst(v);
    // Pointers are not tracked by the interval domain.
    if data.ty.is_some_and(Type::is_ptr) {
        return Interval::TOP;
    }
    match &data.kind {
        InstKind::Const(c) => Interval::constant(*c),
        InstKind::Param(i) => summaries.params[fid.index()][*i as usize],
        InstKind::Binary { op, lhs, rhs } => {
            let a = get(*lhs);
            let b = get(*rhs);
            // ptr − ptr (or any op with an untracked pointer operand) is ⊤.
            if f.value_type(*lhs).is_some_and(Type::is_ptr)
                || f.value_type(*rhs).is_some_and(Type::is_ptr)
            {
                return Interval::TOP;
            }
            match op {
                BinOp::Add => a.add(&b),
                BinOp::Sub => a.sub(&b),
                BinOp::Mul => a.mul(&b),
                BinOp::Div => Interval::TOP,
                BinOp::Rem => a.rem(&b),
            }
        }
        InstKind::Cmp { .. } => Interval::finite(0, 1),
        InstKind::Phi { incomings } => {
            let mut r = Interval::BOTTOM;
            for (_, x) in incomings {
                r = r.join(&get(*x));
            }
            r
        }
        InstKind::Copy { src, origin } => {
            let base = get(*src);
            match origin {
                CopyOrigin::Plain | CopyOrigin::SubSplit { .. } => base,
                CopyOrigin::SigmaTrue { cmp } => {
                    base.meet(&sigma_refinement(f, env, *cmp, *src, true))
                }
                CopyOrigin::SigmaFalse { cmp } => {
                    base.meet(&sigma_refinement(f, env, *cmp, *src, false))
                }
            }
        }
        InstKind::Call { callee, .. } => {
            let _ = module;
            summaries.rets[callee.index()]
        }
        InstKind::Load { .. } | InstKind::Opaque => Interval::TOP,
        InstKind::Alloca { .. }
        | InstKind::Malloc { .. }
        | InstKind::GlobalAddr(_)
        | InstKind::Gep { .. } => Interval::TOP,
        InstKind::Store { .. } | InstKind::Br { .. } | InstKind::Jump(_) | InstKind::Ret(_) => {
            Interval::TOP
        }
    }
}

/// The interval implied for `src` by taking the `taken` edge of the branch
/// guarded by comparison `cmp`.
fn sigma_refinement(
    f: &Function,
    env: &[Interval],
    cmp: Value,
    src: Value,
    taken: bool,
) -> Interval {
    let InstKind::Cmp { pred, lhs, rhs } = &f.inst(cmp).kind else {
        return Interval::TOP;
    };
    // Pointer comparisons refine nothing in the interval domain.
    if f.value_type(*lhs).is_some_and(Type::is_ptr) {
        return Interval::TOP;
    }
    let pred = if taken { *pred } else { pred.negated() };
    let (other, pred) = if src == *lhs {
        (*rhs, pred)
    } else if src == *rhs {
        (*lhs, pred.swapped())
    } else {
        return Interval::TOP;
    };
    let o = env[other.index()];
    if o.is_bottom() {
        return Interval::TOP; // other side not evaluated yet
    }
    // Here `src PRED other` holds.
    match pred {
        Pred::Lt => Interval::new(Bound::NegInf, dec(o.hi())),
        Pred::Le => Interval::new(Bound::NegInf, o.hi()),
        Pred::Gt => Interval::new(inc(o.lo()), Bound::PosInf),
        Pred::Ge => Interval::new(o.lo(), Bound::PosInf),
        Pred::Eq => o,
        Pred::Ne => Interval::TOP,
    }
}

fn dec(b: Bound) -> Bound {
    match b {
        Bound::Fin(v) => Bound::Fin(v.saturating_sub(1)),
        other => other,
    }
}

fn inc(b: Bound) -> Bound {
    match b {
        Bound::Fin(v) => Bound::Fin(v.saturating_add(1)),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sraa_ir::FunctionBuilder;

    #[test]
    fn constants_and_arithmetic_fold() {
        let mut m = Module::new();
        let fid = m.declare_function("f", vec![], Some(Type::Int));
        let (a, b, s, p);
        {
            let f = m.function_mut(fid);
            let mut bld = FunctionBuilder::new(f);
            a = bld.iconst(3);
            b = bld.iconst(4);
            s = bld.binary(BinOp::Add, a, b);
            p = bld.binary(BinOp::Mul, s, s);
            bld.ret(Some(p));
            bld.finish();
        }
        let ra = analyze(&m);
        assert_eq!(ra.range(fid, a), Interval::constant(3));
        assert_eq!(ra.range(fid, s), Interval::constant(7));
        assert_eq!(ra.range(fid, p), Interval::constant(49));
    }

    #[test]
    fn loop_counter_widens_to_infinity_without_sigma() {
        // i = phi(0, i+1) — without branch refinement the upper bound is +inf.
        let mut m = Module::new();
        let fid = m.declare_function("f", vec![], None);
        let i;
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let entry = b.current_block();
            let l = b.create_block();
            let z = b.iconst(0);
            let one = b.iconst(1);
            b.jump(l);
            b.switch_to(l);
            i = b.phi(Type::Int);
            let i2 = b.binary(BinOp::Add, i, one);
            b.jump(l);
            b.set_phi_incomings(i, vec![(entry, z), (l, i2)]);
            b.finish();
        }
        let ra = analyze(&m);
        let r = ra.range(fid, i);
        assert_eq!(r.lo(), Bound::Fin(0), "the counter never goes below 0: {r}");
        assert_eq!(r.hi(), Bound::PosInf, "unbounded above: {r}");
    }

    #[test]
    fn sigma_copy_refines_true_branch() {
        // if (x < 10) then x_t has range [-inf, 9], x_f has [10, +inf].
        let mut m = Module::new();
        let fid = m.declare_function("f", vec![("x", Type::Int)], Some(Type::Int));
        let (c, xt, xf);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let t = b.create_block();
            let e = b.create_block();
            let x = b.param(0);
            let ten = b.iconst(10);
            c = b.cmp(Pred::Lt, x, ten);
            b.br(c, t, e);
            b.switch_to(t);
            xt = b.copy(x);
            b.ret(Some(xt));
            b.switch_to(e);
            xf = b.copy(x);
            b.ret(Some(xf));
            b.finish();
        }
        // Rewrite origins to σ-copies (normally the essa pass does this).
        for (v, origin) in
            [(xt, CopyOrigin::SigmaTrue { cmp: c }), (xf, CopyOrigin::SigmaFalse { cmp: c })]
        {
            match &mut m.function_mut(fid).inst_mut(v).kind {
                InstKind::Copy { origin: slot, .. } => *slot = origin,
                _ => unreachable!(),
            }
        }
        let ra = analyze(&m);
        assert_eq!(ra.range(fid, xt).hi(), Bound::Fin(9));
        assert_eq!(ra.range(fid, xf).lo(), Bound::Fin(10));
    }

    #[test]
    fn interprocedural_params_join_call_sites() {
        // g(x) receives 3 and 5 → x ∈ [3, 5].
        let mut m = Module::new();
        let g = m.declare_function("g", vec![("x", Type::Int)], Some(Type::Int));
        {
            let f = m.function_mut(g);
            let mut b = FunctionBuilder::new(f);
            let x = b.param(0);
            b.ret(Some(x));
            b.finish();
        }
        let main = m.declare_function("main", vec![], Some(Type::Int));
        {
            let f = m.function_mut(main);
            let mut b = FunctionBuilder::new(f);
            let three = b.iconst(3);
            let five = b.iconst(5);
            let r1 = b.call(g, vec![three], Some(Type::Int));
            let r2 = b.call(g, vec![five], Some(Type::Int));
            let s = b.binary(BinOp::Add, r1, r2);
            b.ret(Some(s));
            b.finish();
        }
        let ra = analyze(&m);
        let xp = m.function(g).param_value(0);
        assert_eq!(ra.range(g, xp), Interval::finite(3, 5));
        // And the call results use g's return summary.
        let s_range = ra.range(main, Value::from_index(m.function(main).num_insts() - 2));
        assert!(s_range.contains(8), "3+5 via return summaries: {s_range}");
    }

    #[test]
    fn entry_functions_keep_top_params() {
        let mut m = Module::new();
        let fid = m.declare_function("main", vec![("argc", Type::Int)], None);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            b.ret(None);
            b.finish();
        }
        let ra = analyze(&m);
        assert!(ra.range(fid, m.function(fid).param_value(0)).is_top());
    }

    #[test]
    fn extend_copy_inherits_range() {
        let mut m = Module::new();
        let fid = m.declare_function("f", vec![], None);
        let c;
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            c = b.iconst(7);
            b.ret(None);
            b.finish();
        }
        let mut ra = analyze(&m);
        // Simulate a transform adding a copy of c.
        let f = m.function_mut(fid);
        let cp = f.new_inst(InstKind::Copy { src: c, origin: CopyOrigin::Plain }, Some(Type::Int));
        ra.extend_copy(fid, cp, c);
        assert_eq!(ra.range(fid, cp), Interval::constant(7));
    }
}
