//! `BasicAliasAnalysis` — the reproduction of LLVM's `basic-aa` (the
//! paper's **BA** baseline).
//!
//! The paper describes it as "several heuristics to disambiguate pointers,
//! relying mostly on the fact that pointers derived from different
//! allocation sites cannot alias in well-formed programs". The heuristics
//! implemented here are the load-bearing ones:
//!
//! 1. identical pointers must alias;
//! 2. pointers based on *different identified objects* (distinct
//!    `alloca`/`malloc` sites, distinct globals) do not alias;
//! 3. a non-escaping local allocation cannot alias a pointer that comes
//!    from outside the function (parameters, loaded pointers, call
//!    results);
//! 4. same base object with distinct constant offsets → the accesses are
//!    disjoint scalar cells (`NoAlias`); equal constant offsets →
//!    `MustAlias`.
//!
//! Like LLVM's, this analysis is *intra-procedural* — a fact the paper
//! leans on when comparing PDG precision in its Figure 12.

use crate::{AliasAnalysis, AliasResult};
use sraa_ir::{FuncId, Function, GlobalId, InstKind, Module, Type, Value};

/// The identified object a pointer is based on, if any.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Object {
    /// A stack allocation site (the `alloca` instruction).
    Alloca(Value),
    /// A heap allocation site (the `malloc` instruction).
    Malloc(Value),
    /// A module global (canonicalised by id: two `globaladdr`s of the same
    /// global are the same object).
    Global(GlobalId),
    /// A formal parameter.
    Param(Value),
    /// A pointer loaded from memory.
    Loaded(Value),
    /// A pointer returned by a call.
    FromCall(Value),
    /// Anything else (φ merges, opaque values, pointer arithmetic on
    /// integers, …).
    Other(Value),
}

impl Object {
    fn is_identified(self) -> bool {
        matches!(self, Object::Alloca(_) | Object::Malloc(_) | Object::Global(_))
    }

    fn is_local_allocation(self) -> bool {
        matches!(self, Object::Alloca(_) | Object::Malloc(_))
    }

    fn is_external(self) -> bool {
        matches!(self, Object::Param(_) | Object::Loaded(_) | Object::FromCall(_))
    }
}

/// Per-function decomposition of every pointer value.
#[derive(Clone, Debug)]
struct FuncInfo {
    /// `(object, constant element offset if statically known)` per value.
    decomp: Vec<Option<(Object, Option<i64>)>>,
    /// Allocation sites whose address escapes the function.
    escaped: Vec<bool>,
}

/// LLVM-`basic-aa`-style heuristic alias analysis. Build once per module
/// with [`BasicAliasAnalysis::new`]; queries are then O(1).
#[derive(Clone, Debug)]
pub struct BasicAliasAnalysis {
    funcs: Vec<FuncInfo>,
}

impl BasicAliasAnalysis {
    /// Precomputes base-object decompositions and escape information.
    pub fn new(module: &Module) -> Self {
        let funcs = module.functions().map(|(_, f)| analyze_function(f)).collect();
        Self { funcs }
    }
}

fn analyze_function(f: &Function) -> FuncInfo {
    let n = f.num_insts();
    let mut decomp: Vec<Option<(Object, Option<i64>)>> = vec![None; n];

    // Values are visited in block layout order, so operands are decomposed
    // before their users (SSA dominance); φs and cross-block cases fall
    // back to `Other`.
    for b in f.block_ids() {
        for (v, data) in f.block_insts(b) {
            if !data.ty.is_some_and(Type::is_ptr) {
                continue;
            }
            let d = match &data.kind {
                InstKind::Alloca { .. } => (Object::Alloca(v), Some(0)),
                InstKind::Malloc { .. } => (Object::Malloc(v), Some(0)),
                InstKind::GlobalAddr(g) => (Object::Global(*g), Some(0)),
                InstKind::Param(_) => (Object::Param(v), Some(0)),
                InstKind::Load { .. } => (Object::Loaded(v), Some(0)),
                InstKind::Call { .. } => (Object::FromCall(v), Some(0)),
                InstKind::Copy { src, .. } => match decomp.get(src.index()).copied().flatten() {
                    Some(d) => d,
                    None => (Object::Other(v), Some(0)),
                },
                InstKind::Gep { base, offset } => {
                    match decomp.get(base.index()).copied().flatten() {
                        Some((obj, Some(off))) => {
                            let coff = match f.inst(*offset).kind {
                                InstKind::Const(c) => Some(c),
                                _ => None,
                            };
                            (obj, coff.and_then(|c| off.checked_add(c)))
                        }
                        Some((obj, None)) => (obj, None),
                        None => (Object::Other(v), None),
                    }
                }
                _ => (Object::Other(v), None),
            };
            decomp[v.index()] = Some(d);
        }
    }

    // Escape analysis: an allocation escapes if (a pointer based on it) is
    // stored *as a value*, passed to a call, or returned.
    let mut escaped = vec![false; n];
    let mut mark = |decomp: &[Option<(Object, Option<i64>)>], v: Value| {
        if let Some((Object::Alloca(site) | Object::Malloc(site), _)) =
            decomp.get(v.index()).copied().flatten()
        {
            escaped[site.index()] = true;
        }
    };
    for b in f.block_ids() {
        for (_, data) in f.block_insts(b) {
            match &data.kind {
                InstKind::Store { value, .. } if f.value_type(*value).is_some_and(Type::is_ptr) => {
                    mark(&decomp, *value);
                }
                InstKind::Call { args, .. } => {
                    for a in args {
                        if f.value_type(*a).is_some_and(Type::is_ptr) {
                            mark(&decomp, *a);
                        }
                    }
                }
                InstKind::Ret(Some(v)) if f.value_type(*v).is_some_and(Type::is_ptr) => {
                    mark(&decomp, *v);
                }
                // A φ of pointers obscures the object: treat its operands
                // as escaped so rule 3 stays conservative.
                InstKind::Phi { incomings } if data.ty.is_some_and(Type::is_ptr) => {
                    for (_, x) in incomings {
                        mark(&decomp, *x);
                    }
                }
                _ => {}
            }
        }
    }

    FuncInfo { decomp, escaped }
}

impl AliasAnalysis for BasicAliasAnalysis {
    fn name(&self) -> String {
        "BA".to_string()
    }

    fn alias(&self, _module: &Module, func: FuncId, p1: Value, p2: Value) -> AliasResult {
        if p1 == p2 {
            return AliasResult::MustAlias;
        }
        let info = &self.funcs[func.index()];
        let (Some(Some((o1, off1))), Some(Some((o2, off2)))) =
            (info.decomp.get(p1.index()), info.decomp.get(p2.index()))
        else {
            return AliasResult::MayAlias;
        };
        let (o1, o2, off1, off2) = (*o1, *o2, *off1, *off2);

        if o1 == o2 {
            // Same base object: constant offsets decide.
            return match (off1, off2) {
                (Some(a), Some(b)) if a == b => AliasResult::MustAlias,
                (Some(a), Some(b)) if a != b => AliasResult::NoAlias,
                _ => AliasResult::MayAlias,
            };
        }

        // Distinct identified objects never alias.
        if o1.is_identified() && o2.is_identified() {
            return AliasResult::NoAlias;
        }

        // A non-escaping local allocation cannot be reached from outside.
        let non_escaping = |o: Object| match o {
            Object::Alloca(site) | Object::Malloc(site) => !info.escaped[site.index()],
            _ => false,
        };
        if (o1.is_local_allocation() && non_escaping(o1) && o2.is_external())
            || (o2.is_local_allocation() && non_escaping(o2) && o1.is_external())
        {
            return AliasResult::NoAlias;
        }

        AliasResult::MayAlias
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prepared(src: &str) -> (Module, BasicAliasAnalysis) {
        let m = sraa_minic::compile(src).unwrap();
        let ba = BasicAliasAnalysis::new(&m);
        (m, ba)
    }

    #[test]
    fn distinct_mallocs_do_not_alias() {
        let (m, ba) = prepared(
            "int main() { int* p = malloc(4); int* q = malloc(4); *p = 1; *q = 2; return *p; }",
        );
        let (fid, ptrs) = crate::mem_ptrs(&m, "main");
        assert_eq!(ba.alias(&m, fid, ptrs[0], ptrs[1]), AliasResult::NoAlias);
    }

    #[test]
    fn distinct_globals_do_not_alias() {
        let (m, ba) = prepared("int a[4]; int b[4]; int main() { a[0] = 1; b[0] = 2; return 0; }");
        let (fid, ptrs) = crate::mem_ptrs(&m, "main");
        assert_eq!(ba.alias(&m, fid, ptrs[0], ptrs[1]), AliasResult::NoAlias);
    }

    #[test]
    fn same_array_constant_offsets() {
        let (m, ba) =
            prepared("int main() { int a[8]; a[1] = 1; a[2] = 2; a[1] = 3; return a[1]; }");
        let (fid, ptrs) = crate::mem_ptrs(&m, "main");
        // a[1] vs a[2]: disjoint; a[1] vs a[1]: must.
        assert_eq!(ba.alias(&m, fid, ptrs[0], ptrs[1]), AliasResult::NoAlias);
        assert_eq!(ba.alias(&m, fid, ptrs[0], ptrs[2]), AliasResult::MustAlias);
    }

    #[test]
    fn variable_offsets_on_same_array_may_alias() {
        let (m, ba) = prepared("int f(int* v, int i, int j) { return v[i] + v[j]; }");
        let (fid, ptrs) = crate::mem_ptrs(&m, "f");
        assert_eq!(
            ba.alias(&m, fid, ptrs[0], ptrs[1]),
            AliasResult::MayAlias,
            "BA cannot see i < j — that is the paper's whole point"
        );
    }

    #[test]
    fn local_alloca_vs_parameter() {
        let (m, ba) = prepared("int f(int* p) { int a[4]; a[0] = 1; *p = 2; return a[0]; }");
        let (fid, ptrs) = crate::mem_ptrs(&m, "f");
        assert_eq!(ba.alias(&m, fid, ptrs[0], ptrs[1]), AliasResult::NoAlias);
    }

    #[test]
    fn escaped_alloca_vs_loaded_pointer_may_alias() {
        let (m, ba) = prepared(
            r#"
            int g(int* p) { return *p; }
            int f(int** slot) {
                int a[4];
                g(a);              // a escapes via the call
                int* q = *slot;
                a[0] = 1;
                *q = 2;
                return a[0];
            }
            "#,
        );
        let (fid, ptrs) = crate::mem_ptrs(&m, "f");
        // load *slot produces q; then a[0] store vs *q store.
        let a0 = ptrs[ptrs.len() - 3];
        let q = ptrs[ptrs.len() - 2];
        assert_eq!(ba.alias(&m, fid, a0, q), AliasResult::MayAlias);
    }

    #[test]
    fn identical_pointer_is_must() {
        let (m, ba) = prepared("int f(int* p) { return *p; }");
        let (fid, ptrs) = crate::mem_ptrs(&m, "f");
        assert_eq!(ba.alias(&m, fid, ptrs[0], ptrs[0]), AliasResult::MustAlias);
    }
}
