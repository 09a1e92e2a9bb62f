//! The pointer facts of a module: the one IR walk behind both points-to
//! baselines.
//!
//! Andersen's analysis ([`AndersenAnalysis`](crate::AndersenAnalysis),
//! CF) and Steensgaard's ([`SteensgaardAnalysis`](crate::SteensgaardAnalysis),
//! ST) read the same constraints off the IR and differ only in how they
//! solve them: CF keeps each [`Fact::Copy`] as an inclusion edge, ST
//! unifies its two sides. [`PointerFacts::walk`] hands every fact to the
//! consumer exactly once, in instruction order, without collecting them.

use sraa_core::VarIndex;
use sraa_ir::{GlobalId, InstKind, Module, Type, Value};

/// The object an address-of fact names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Site {
    /// The address of a global.
    Global(GlobalId),
    /// The `k`-th `alloca` or `malloc` of the module, in walk order.
    Alloc(usize),
}

/// One pointer fact; variables are flat [`VarIndex`] ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fact {
    /// `dst = &site` (alloca, malloc or globaladdr).
    AddrOf { dst: u32, site: Site },
    /// `dst` may point wherever `src` points: copy, gep (field-
    /// insensitive), each φ incoming, actual → formal, `ret` → call result.
    Copy { dst: u32, src: u32 },
    /// `dst = *ptr`.
    Load { dst: u32, ptr: u32 },
    /// `*ptr = src`.
    Store { ptr: u32, src: u32 },
    /// `dst` may point at anything the module cannot see: an opaque
    /// value, or a pointer parameter of a function no call reaches.
    Unknown { dst: u32 },
}

/// A module's pointer facts, ready to walk.
pub(crate) struct PointerFacts<'m> {
    module: &'m Module,
    index: &'m VarIndex,
    /// Whether some call in the module reaches each function: only then
    /// do its pointer parameters get their values from call sites.
    internally_called: Vec<bool>,
    /// Number of `alloca`/`malloc` sites, so [`Site::Alloc`] ids are
    /// `0..num_allocs`.
    pub(crate) num_allocs: usize,
}

impl<'m> PointerFacts<'m> {
    /// Scans `module` once for the called functions and the allocation
    /// sites; `index` numbers its values.
    pub(crate) fn new(module: &'m Module, index: &'m VarIndex) -> Self {
        let mut internally_called = vec![false; module.num_functions()];
        let mut num_allocs = 0;
        for (_, f) in module.functions() {
            for b in f.block_ids() {
                for (_, d) in f.block_insts(b) {
                    match &d.kind {
                        InstKind::Call { callee, .. } => internally_called[callee.index()] = true,
                        InstKind::Alloca { .. } | InstKind::Malloc { .. } => num_allocs += 1,
                        _ => {}
                    }
                }
            }
        }
        PointerFacts { module, index, internally_called, num_allocs }
    }

    /// Passes every fact of the module to `emit`, once, in instruction
    /// order (a call's actual → formal copies in argument order, then one
    /// `ret` → result copy per returning block of the callee).
    pub(crate) fn walk(&self, mut emit: impl FnMut(Fact)) {
        let index = self.index;
        let mut allocs = 0;
        for (fid, f) in self.module.functions() {
            let id = |v: Value| index.id(fid, v).raw();
            let is_ptr = |v: Value| f.value_type(v).is_some_and(Type::is_ptr);
            for b in f.block_ids() {
                for (v, data) in f.block_insts(b) {
                    let dst = id(v);
                    match &data.kind {
                        InstKind::Alloca { .. } | InstKind::Malloc { .. } => {
                            emit(Fact::AddrOf { dst, site: Site::Alloc(allocs) });
                            allocs += 1;
                        }
                        InstKind::GlobalAddr(g) => {
                            emit(Fact::AddrOf { dst, site: Site::Global(*g) });
                        }
                        InstKind::Copy { src, .. } | InstKind::Gep { base: src, .. }
                            if is_ptr(v) =>
                        {
                            emit(Fact::Copy { dst, src: id(*src) });
                        }
                        InstKind::Phi { incomings } if is_ptr(v) => {
                            for (_, x) in incomings {
                                emit(Fact::Copy { dst, src: id(*x) });
                            }
                        }
                        InstKind::Load { ptr } if is_ptr(v) => {
                            emit(Fact::Load { dst, ptr: id(*ptr) });
                        }
                        InstKind::Store { ptr, value } if is_ptr(*value) => {
                            emit(Fact::Store { ptr: id(*ptr), src: id(*value) });
                        }
                        InstKind::Param(_) if is_ptr(v) && !self.internally_called[fid.index()] => {
                            emit(Fact::Unknown { dst });
                        }
                        InstKind::Opaque if is_ptr(v) => emit(Fact::Unknown { dst }),
                        InstKind::Call { callee, args } => {
                            let cf = self.module.function(*callee);
                            for (i, a) in args.iter().enumerate() {
                                if is_ptr(*a) {
                                    let formal = index.id(*callee, cf.param_value(i)).raw();
                                    emit(Fact::Copy { dst: formal, src: id(*a) });
                                }
                            }
                            if is_ptr(v) {
                                for cb in cf.block_ids() {
                                    let ret = cf.terminator(cb).map(|t| &cf.inst(t).kind);
                                    if let Some(InstKind::Ret(Some(r))) = ret {
                                        emit(Fact::Copy { dst, src: index.id(*callee, *r).raw() });
                                    }
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
    }
}
