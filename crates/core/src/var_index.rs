//! Interned variable identities for the module-wide constraint universe.
//!
//! The less-than analysis is inter-procedural (paper Section 4): its
//! constraint system spans all functions at once, with pseudo-φs binding
//! formal to actual parameters. Constraints therefore address variables by
//! an interned, dense module-wide [`VarId`] rather than per-function
//! [`Value`]s — [`VarIndex`] is the arena that mints them and maps back.
//!
//! Every layer of the engine speaks `VarId`: constraint generation
//! ([`crate::constraints`]), both fixpoint schedules
//! ([`solve`](crate::solve) and its reference,
//! [`solve_worklist`](crate::solve_worklist)) and the query layer ([`crate::DisambiguationEngine`]). No layer passes raw
//! integers or ad-hoc ids across an API boundary.

use sraa_ir::{FuncId, Module, Value};

/// An interned variable in the module-wide constraint universe.
///
/// A `VarId` is either a real program value (minted by [`VarIndex::id`])
/// or a synthetic solver variable (pseudo-φ intermediates, minted past
/// [`VarIndex::len`] by constraint generation). Ids are dense: solvers
/// index their lattice state by [`VarId::index`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(u32);

impl VarId {
    /// Wraps a raw id.
    pub const fn new(raw: u32) -> Self {
        VarId(raw)
    }

    /// A `VarId` from a dense array index.
    pub const fn from_index(i: usize) -> Self {
        VarId(i as u32)
    }

    /// The raw `u32` — the representation stored inside `LT` sets.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The dense array index of this variable.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for VarId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for VarId {
    fn from(raw: u32) -> Self {
        VarId(raw)
    }
}

/// Dense module-wide variable numbering: `id = offset(func) + value index`.
#[derive(Clone, Debug)]
pub struct VarIndex {
    offsets: Vec<usize>,
    total: usize,
}

impl VarIndex {
    /// Builds the numbering for `module`.
    pub fn new(module: &Module) -> Self {
        let mut offsets = Vec::with_capacity(module.num_functions());
        let mut total = 0usize;
        for (_, f) in module.functions() {
            offsets.push(total);
            total += f.num_insts();
        }
        Self { offsets, total }
    }

    /// Total number of variable slots.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the module has no values at all.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The interned id of `v` in function `f`.
    pub fn id(&self, f: FuncId, v: Value) -> VarId {
        VarId::from_index(self.offsets[f.index()] + v.index())
    }

    /// Inverse mapping: which function does `id` belong to?
    pub(crate) fn func_of(&self, id: VarId) -> (FuncId, Value) {
        let id = id.index();
        let fi = match self.offsets.binary_search(&id) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (FuncId::from_index(fi), Value::from_index(id - self.offsets[fi]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sraa_ir::Type;

    #[test]
    fn round_trips_ids() {
        let mut m = Module::new();
        let f1 = m.declare_function("a", vec![("x", Type::Int), ("y", Type::Int)], None);
        let f2 = m.declare_function("b", vec![("z", Type::Int)], None);
        // Touch the functions so they have a few values.
        m.function_mut(f1).add_const(1);
        m.function_mut(f2).add_const(2);
        let ix = VarIndex::new(&m);
        assert_eq!(ix.len(), 3 + 2); // 2 params + const, 1 param + const
        for (fid, f) in m.functions() {
            for v in f.value_ids() {
                let id = ix.id(fid, v);
                assert_eq!(ix.func_of(id), (fid, v));
            }
        }
    }

    #[test]
    fn empty_module() {
        let ix = VarIndex::new(&Module::new());
        assert!(ix.is_empty());
        assert_eq!(ix.len(), 0);
    }

    #[test]
    fn var_ids_are_ordered_and_printable() {
        let a = VarId::new(3);
        let b = VarId::from_index(7);
        assert!(a < b);
        assert_eq!(b.index(), 7);
        assert_eq!(a.raw(), 3);
        assert_eq!(format!("{a}"), "v3");
        assert_eq!(VarId::from(9u32), VarId::new(9));
    }
}
