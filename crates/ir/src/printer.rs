//! Textual printing of modules, functions and instructions.
//!
//! The format is what `sraa compile` prints, and it is used by tests,
//! examples and the debugging output of the analyses. Result types are
//! printed explicitly:
//!
//! ```text
//! global @buf: int[64]
//!
//! func @f(%v0: int*, %v1: int) -> int {
//! bb0:
//!   %v2: int = const 0
//!   %v3: int = cmp lt %v1, %v2
//!   br %v3, bb1, bb2
//! ...
//! }
//! ```

use crate::function::Function;
use crate::ids::Value;
use crate::inst::{CopyOrigin, InstKind};
use crate::module::Module;
use std::fmt::{self, Write};

/// Prints a whole module.
pub fn print_module(m: &Module) -> String {
    let mut s = String::new();
    for (_, g) in m.globals() {
        let _ = writeln!(s, "global @{}: {}[{}]", g.name, g.elem_ty, g.count);
    }
    if m.num_globals() > 0 {
        s.push('\n');
    }
    for (_, f) in m.functions() {
        s.push_str(&print_function(f, m));
        s.push('\n');
    }
    s
}

/// Prints a single function. `module` provides callee and global names.
pub fn print_function(f: &Function, module: &Module) -> String {
    let mut s = String::new();
    let _ = write!(s, "func @{}(", f.name);
    for (i, (_, ty)) in f.params.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "{}: {}", f.param_value(i), ty);
    }
    s.push(')');
    if let Some(rt) = f.ret_ty {
        let _ = write!(s, " -> {rt}");
    }
    s.push_str(" {\n");
    for b in f.block_ids() {
        let _ = writeln!(s, "{b}:");
        for (v, data) in f.block_insts(b) {
            if matches!(data.kind, InstKind::Param(_)) {
                continue; // params appear in the signature
            }
            s.push_str("  ");
            let _ = writeln!(s, "{}", DisplayInst { f, module, v });
        }
    }
    s.push_str("}\n");
    s
}

/// Displays one instruction (without trailing newline).
pub struct DisplayInst<'a> {
    /// Enclosing function.
    pub f: &'a Function,
    /// Enclosing module (for callee/global names).
    pub module: &'a Module,
    /// The instruction to print.
    pub v: Value,
}

impl fmt::Display for DisplayInst<'_> {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        let data = self.f.inst(self.v);
        if let Some(ty) = data.ty {
            write!(out, "{}: {} = ", self.v, ty)?;
        }
        match &data.kind {
            InstKind::Const(c) => write!(out, "const {c}"),
            InstKind::Param(i) => write!(out, "param {i}"),
            InstKind::Binary { op, lhs, rhs } => write!(out, "{op} {lhs}, {rhs}"),
            InstKind::Cmp { pred, lhs, rhs } => write!(out, "cmp {pred} {lhs}, {rhs}"),
            InstKind::Phi { incomings } => {
                write!(out, "phi")?;
                for (i, (b, v)) in incomings.iter().enumerate() {
                    if i > 0 {
                        write!(out, ",")?;
                    }
                    write!(out, " [{b}: {v}]")?;
                }
                Ok(())
            }
            InstKind::Copy { src, origin } => {
                write!(out, "copy {src}")?;
                match origin {
                    CopyOrigin::Plain => Ok(()),
                    CopyOrigin::SigmaTrue { cmp } => write!(out, " sigma_t({cmp})"),
                    CopyOrigin::SigmaFalse { cmp } => write!(out, " sigma_f({cmp})"),
                    CopyOrigin::SubSplit { sub } => write!(out, " subsplit({sub})"),
                }
            }
            InstKind::Alloca { count } => write!(out, "alloca {count}"),
            InstKind::Malloc { count } => write!(out, "malloc {count}"),
            InstKind::GlobalAddr(g) => {
                write!(out, "globaladdr @{}", self.module.global(*g).name)
            }
            InstKind::Gep { base, offset } => write!(out, "gep {base}, {offset}"),
            InstKind::Load { ptr } => write!(out, "load {ptr}"),
            InstKind::Store { ptr, value } => write!(out, "store {ptr}, {value}"),
            InstKind::Call { callee, args } => {
                write!(out, "call @{}(", self.module.function(*callee).name)?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(out, ", ")?;
                    }
                    write!(out, "{a}")?;
                }
                write!(out, ")")
            }
            InstKind::Opaque => write!(out, "opaque"),
            InstKind::Br { cond, then_bb, else_bb } => {
                write!(out, "br {cond}, {then_bb}, {else_bb}")
            }
            InstKind::Jump(b) => write!(out, "jump {b}"),
            InstKind::Ret(v) => match v {
                Some(v) => write!(out, "ret {v}"),
                None => write!(out, "ret"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, Pred};
    use crate::types::Type;

    #[test]
    fn prints_a_small_function() {
        let mut m = Module::new();
        let g = m.declare_global("buf", Type::Int, 8);
        let callee = m.declare_function("id", vec![("x", Type::Int)], Some(Type::Int));
        {
            let f = m.function_mut(callee);
            let mut b = FunctionBuilder::new(f);
            let x = b.param(0);
            b.ret(Some(x));
            b.finish();
        }
        let fid = m.declare_function("main", vec![], Some(Type::Int));
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let c = b.iconst(3);
            let p = b.global_addr(g, Type::Int);
            let q = b.gep(p, c);
            let l = b.load(q);
            let neg = b.iconst(-3);
            let s = b.binary(BinOp::Add, l, neg);
            let cc = b.cmp(Pred::Lt, l, s);
            let r = b.call(callee, vec![cc], Some(Type::Int));
            b.store(q, r);
            b.ret(Some(r));
            b.finish();
        }
        let text = print_module(&m);
        assert!(text.contains("global @buf: int[8]"));
        assert!(text.contains("func @main() -> int {"));
        // The CLI's printer golden cannot show this: MiniC has no negative literal.
        assert!(text.contains("= const -3"), "got: {text}");
        assert!(text.contains("= globaladdr @buf"));
        assert!(text.contains("= call @id("));
        assert!(text.contains("cmp lt"));
        assert!(text.contains("store "));
        assert!(text.contains("ret "));
    }

    #[test]
    fn phi_and_copy_formatting() {
        let mut m = Module::new();
        let fid = m.declare_function("f", vec![("n", Type::Int)], None);
        let f = m.function_mut(fid);
        let mut b = FunctionBuilder::new(f);
        let entry = b.current_block();
        let bb = b.create_block();
        let n = b.param(0);
        b.jump(bb);
        b.switch_to(bb);
        let p = b.phi(Type::Int);
        b.set_phi_incomings(p, vec![(entry, n), (bb, p)]);
        let _c = b.copy(p);
        b.jump(bb);
        b.finish();
        let text = print_function(m.function(fid), &m);
        assert!(text.contains("phi [bb0:"), "got: {text}");
        assert!(text.contains("copy "));
    }
}
