//! Stable content fingerprints of function bodies.
//!
//! The incremental summary engine (`sraa-core::persist`) keys reused
//! summaries — in memory and in the on-disk shared store — by a hash of
//! everything a function's summary can depend on. The per-body half of
//! that key lives here:
//! [`body_fingerprint`] folds a function's signature, block structure and
//! instruction stream into one 64-bit [FNV-1a] value.
//!
//! Two properties matter more than hash quality:
//!
//! * **Determinism across runs, machines and endiannesses.** Every
//!   multi-byte field is fed to the hasher in little-endian byte order via
//!   [`Fnv64`]'s typed writers; nothing iterates a hash map. The committed
//!   golden store-segment fixture in `tests/incremental.rs` pins the
//!   value — changing the fingerprint scheme is a store-format break and
//!   must bump `sraa_core::FORMAT_VERSION`.
//! * **Stability under unrelated edits.** Callees are hashed by *name*,
//!   not [`FuncId`], so editing one function does not perturb the
//!   fingerprints of untouched ones even if ids were ever renumbered.
//!   Function and parameter *names* are excluded for the same reason —
//!   the analysis never reads them. (A function's own name is the
//!   in-memory cache's *lookup key* instead; see `sraa-core::persist`.)
//!
//! [FNV-1a]: https://en.wikipedia.org/wiki/Fowler%E2%80%93Noll%E2%80%93Vo_hash_function

use crate::ids::FuncId;
use crate::inst::{CopyOrigin, InstKind};
use crate::module::Module;
use crate::types::Type;

/// Incremental FNV-1a hasher over explicit little-endian encodings.
///
/// Deliberately *not* [`std::hash::Hasher`]: the std trait hashes
/// platform-dependent `usize`s and makes no cross-version stability
/// promise, both of which would silently poison an on-disk store.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET_BASIS)
    }

    /// Folds raw bytes into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// Folds one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Folds a `u32` in little-endian byte order.
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds an `i64` in little-endian byte order.
    pub fn write_i64(&mut self, v: i64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_u32(s.len() as u32);
        self.write(s.as_bytes());
    }

    /// The current hash value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

fn write_type(h: &mut Fnv64, ty: Type) {
    match ty {
        Type::Int => h.write_u8(0),
        Type::Ptr(depth) => {
            h.write_u8(1);
            h.write_u8(depth);
        }
    }
}

fn write_type_opt(h: &mut Fnv64, ty: Option<Type>) {
    match ty {
        None => h.write_u8(0),
        Some(t) => {
            h.write_u8(1);
            write_type(h, t);
        }
    }
}

fn write_origin(h: &mut Fnv64, origin: CopyOrigin) {
    match origin {
        CopyOrigin::Plain => h.write_u8(0),
        CopyOrigin::SigmaTrue { cmp } => {
            h.write_u8(1);
            h.write_u32(cmp.index() as u32);
        }
        CopyOrigin::SigmaFalse { cmp } => {
            h.write_u8(2);
            h.write_u32(cmp.index() as u32);
        }
        CopyOrigin::SubSplit { sub } => {
            h.write_u8(3);
            h.write_u32(sub.index() as u32);
        }
    }
}

/// Content fingerprint of one function body (signature, blocks, attached
/// instruction stream). Everything the strict-inequality analysis reads
/// from the function is covered; names are not (see the module docs).
pub fn body_fingerprint(module: &Module, fid: FuncId) -> u64 {
    let f = module.function(fid);
    let mut h = Fnv64::new();

    h.write_u32(f.params.len() as u32);
    for (_, ty) in &f.params {
        write_type(&mut h, *ty);
    }
    write_type_opt(&mut h, f.ret_ty);

    h.write_u32(f.num_blocks() as u32);
    for b in f.block_ids() {
        h.write_u32(f.block(b).insts.len() as u32);
        for (v, data) in f.block_insts(b) {
            h.write_u32(v.index() as u32);
            write_type_opt(&mut h, data.ty);
            match &data.kind {
                InstKind::Const(c) => {
                    h.write_u8(0);
                    h.write_i64(*c);
                }
                InstKind::Param(i) => {
                    h.write_u8(1);
                    h.write_u32(*i);
                }
                InstKind::Binary { op, lhs, rhs } => {
                    h.write_u8(2);
                    h.write_u8(*op as u8);
                    h.write_u32(lhs.index() as u32);
                    h.write_u32(rhs.index() as u32);
                }
                InstKind::Cmp { pred, lhs, rhs } => {
                    h.write_u8(3);
                    h.write_u8(*pred as u8);
                    h.write_u32(lhs.index() as u32);
                    h.write_u32(rhs.index() as u32);
                }
                InstKind::Phi { incomings } => {
                    h.write_u8(4);
                    h.write_u32(incomings.len() as u32);
                    for (bb, x) in incomings {
                        h.write_u32(bb.index() as u32);
                        h.write_u32(x.index() as u32);
                    }
                }
                InstKind::Copy { src, origin } => {
                    h.write_u8(5);
                    h.write_u32(src.index() as u32);
                    write_origin(&mut h, *origin);
                }
                InstKind::Alloca { count } => {
                    h.write_u8(6);
                    h.write_u32(count.index() as u32);
                }
                InstKind::Malloc { count } => {
                    h.write_u8(7);
                    h.write_u32(count.index() as u32);
                }
                InstKind::GlobalAddr(g) => {
                    // Globals are hashed by name and layout so a changed
                    // array size invalidates every function touching it.
                    let global = module.global(*g);
                    h.write_u8(8);
                    h.write_str(&global.name);
                    write_type(&mut h, global.elem_ty);
                    h.write_u32(global.count);
                }
                InstKind::Gep { base, offset } => {
                    h.write_u8(9);
                    h.write_u32(base.index() as u32);
                    h.write_u32(offset.index() as u32);
                }
                InstKind::Load { ptr } => {
                    h.write_u8(10);
                    h.write_u32(ptr.index() as u32);
                }
                InstKind::Store { ptr, value } => {
                    h.write_u8(11);
                    h.write_u32(ptr.index() as u32);
                    h.write_u32(value.index() as u32);
                }
                InstKind::Call { callee, args } => {
                    // By name, not FuncId: renumbering elsewhere in the
                    // module must not invalidate this body.
                    h.write_u8(12);
                    h.write_str(&module.function(*callee).name);
                    h.write_u32(args.len() as u32);
                    for a in args {
                        h.write_u32(a.index() as u32);
                    }
                }
                InstKind::Opaque => h.write_u8(13),
                InstKind::Br { cond, then_bb, else_bb } => {
                    h.write_u8(14);
                    h.write_u32(cond.index() as u32);
                    h.write_u32(then_bb.index() as u32);
                    h.write_u32(else_bb.index() as u32);
                }
                InstKind::Jump(bb) => {
                    h.write_u8(15);
                    h.write_u32(bb.index() as u32);
                }
                InstKind::Ret(v) => {
                    h.write_u8(16);
                    match v {
                        None => h.write_u8(0),
                        Some(x) => {
                            h.write_u8(1);
                            h.write_u32(x.index() as u32);
                        }
                    }
                }
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Function;

    fn two_fn_module(ret_const: i64) -> Module {
        let mut m = Module::new();
        let g = m.declare_function("g", vec![("x", Type::Int)], Some(Type::Int));
        let f = m.declare_function("f", vec![], Some(Type::Int));
        {
            let gf: &mut Function = m.function_mut(g);
            let x = gf.param_value(0);
            let c = gf.add_const(ret_const);
            let entry = gf.entry();
            let sum = gf.append_inst(
                entry,
                InstKind::Binary { op: crate::BinOp::Add, lhs: x, rhs: c },
                Some(Type::Int),
            );
            gf.append_inst(entry, InstKind::Ret(Some(sum)), None);
        }
        {
            let ff: &mut Function = m.function_mut(f);
            let entry = ff.entry();
            let c = ff.add_const(3);
            let r =
                ff.append_inst(entry, InstKind::Call { callee: g, args: vec![c] }, Some(Type::Int));
            ff.append_inst(entry, InstKind::Ret(Some(r)), None);
        }
        m
    }

    #[test]
    fn identical_bodies_hash_identically() {
        let a = two_fn_module(1);
        let b = two_fn_module(1);
        for (fid, _) in a.functions() {
            assert_eq!(body_fingerprint(&a, fid), body_fingerprint(&b, fid));
        }
    }

    #[test]
    fn a_changed_constant_changes_only_that_body() {
        let a = two_fn_module(1);
        let b = two_fn_module(2);
        let g = a.function_by_name("g").unwrap();
        let f = a.function_by_name("f").unwrap();
        assert_ne!(body_fingerprint(&a, g), body_fingerprint(&b, g));
        // The caller's *body* is untouched — invalidation through the call
        // edge is the summary key's job (sraa-core::persist), not the
        // body fingerprint's.
        assert_eq!(body_fingerprint(&a, f), body_fingerprint(&b, f));
    }

    #[test]
    fn fnv64_is_byte_order_explicit() {
        let mut a = Fnv64::new();
        a.write_u32(0x0102_0304);
        let mut b = Fnv64::new();
        b.write(&[0x04, 0x03, 0x02, 0x01]);
        assert_eq!(a.finish(), b.finish(), "u32s must be folded little-endian");
        assert_ne!(Fnv64::new().finish(), a.finish());
    }

    #[test]
    fn distinct_kinds_with_equal_operands_do_not_collide() {
        let mk = |load: bool| {
            let mut m = Module::new();
            let f = m.declare_function("f", vec![("p", Type::Ptr(1))], None);
            let func = m.function_mut(f);
            let p = func.param_value(0);
            let entry = func.entry();
            if load {
                func.append_inst(entry, InstKind::Load { ptr: p }, Some(Type::Int));
            } else {
                func.append_inst(entry, InstKind::Alloca { count: p }, Some(Type::Ptr(1)));
            }
            func.append_inst(entry, InstKind::Ret(None), None);
            m
        };
        let (a, b) = (mk(true), mk(false));
        let f = a.function_by_name("f").unwrap();
        assert_ne!(body_fingerprint(&a, f), body_fingerprint(&b, f));
    }
}
