//! Inclusion-based (Andersen-style) points-to analysis — the stand-in for
//! **CF**, the CFL/Andersen baseline of the paper's Figure 10.
//!
//! The paper compares BA+LT against BA+CF, where CF is Chen's
//! inclusion-based CFL alias analysis for LLVM 4.0. Any
//! inclusion-based points-to fills that role: it disambiguates pointers
//! that reach *different memory objects* (across copies, φs, loads and
//! stores, inter-procedurally), and is completely blind to offsets within
//! one object — the exact complement of the LT analysis.
//!
//! Field-insensitive formulation (one abstract "contents" cell per
//! object), solved with the standard worklist:
//!
//! ```text
//! v = alloca/malloc/global    pts(v) ⊇ {o_v}
//! v = copy/φ/gep(b)           pts(v) ⊇ pts(b)
//! v = load p                  ∀o ∈ pts(p):  pts(v) ⊇ pts(cont(o))
//! store p, x                  ∀o ∈ pts(p):  pts(cont(o)) ⊇ pts(x)
//! formal xf, call g(…aᵢ…)     pts(xf) ⊇ pts(aᵢ)
//! v = call g(…)               pts(v) ⊇ pts(r) for every `ret r` in g
//! param of entry / opaque     pts(v) ⊇ {unknown}
//! ```
//!
//! `unknown` is an object standing for everything the module cannot see;
//! any query touching it answers `MayAlias`.
//!
//! The left-hand column is read off the IR by the crate's one pointer-fact
//! walk (`points_to`), which [`SteensgaardAnalysis`](crate::SteensgaardAnalysis)
//! consumes too; this module only numbers the objects and solves.

use crate::points_to::{Fact, PointerFacts, Site};
use crate::{AliasAnalysis, AliasResult};
use sraa_core::VarIndex;
use sraa_ir::{DenseBitSet, FuncId, Module, Value};

/// Andersen-style points-to analysis over a whole module.
#[derive(Clone, Debug)]
pub struct AndersenAnalysis {
    index: VarIndex,
    /// Points-to set per node (pointer variables then contents cells).
    pts: Vec<DenseBitSet>,
    unknown: usize,
}

impl AndersenAnalysis {
    /// Builds and solves the inclusion constraint system for `module`.
    pub fn new(module: &Module) -> Self {
        let index = VarIndex::new(module);
        let facts = PointerFacts::new(module, &index);
        // Objects: one per global (canonical across functions), one per
        // allocation site, then `unknown`. Node layout: [0, nv) = pointer
        // variables; [nv, nv + objects) = contents cells.
        let globals = module.num_globals();
        let unknown = globals + facts.num_allocs;
        let num_objects = unknown + 1;
        let nv = index.len();
        let n_nodes = nv + num_objects;
        let mut pts: Vec<DenseBitSet> = vec![DenseBitSet::new(num_objects); n_nodes];
        let mut edges: Vec<Vec<u32>> = vec![Vec::new(); n_nodes]; // src → dst
        let mut loads: Vec<Vec<u32>> = vec![Vec::new(); n_nodes]; // (p, dst)
        let mut stores: Vec<Vec<u32>> = vec![Vec::new(); n_nodes]; // (p, src)
        let cont = |o: usize| nv + o;

        // The unknown object's contents point to unknown.
        pts[cont(unknown)].insert(unknown);

        // Base constraints and copy edges.
        facts.walk(|fact| match fact {
            Fact::AddrOf { dst, site } => {
                let o = match site {
                    Site::Global(g) => g.index(),
                    Site::Alloc(k) => globals + k,
                };
                pts[dst as usize].insert(o);
            }
            Fact::Copy { dst, src } => edges[src as usize].push(dst),
            Fact::Load { dst, ptr } => loads[ptr as usize].push(dst),
            Fact::Store { ptr, src } => stores[ptr as usize].push(src),
            Fact::Unknown { dst } => {
                pts[dst as usize].insert(unknown);
            }
        });

        // Worklist propagation.
        let mut on_list = vec![false; n_nodes];
        let mut worklist: Vec<usize> = Vec::new();
        for n in 0..n_nodes {
            if !pts[n].is_empty() {
                on_list[n] = true;
                worklist.push(n);
            }
        }
        while let Some(n) = worklist.pop() {
            on_list[n] = false;
            // Resolve complex constraints for newly discovered objects.
            let objs: Vec<usize> = pts[n].iter().collect();
            let mut new_edges: Vec<(usize, usize)> = Vec::new();
            for &dst in &loads[n] {
                for &o in &objs {
                    new_edges.push((cont(o), dst as usize));
                }
            }
            for &src in &stores[n] {
                for &o in &objs {
                    new_edges.push((src as usize, cont(o)));
                }
            }
            for (s, d) in new_edges {
                if !edges[s].contains(&(d as u32)) {
                    edges[s].push(d as u32);
                    // Propagate immediately.
                    let snap = pts[s].clone();
                    if pts[d].union_with(&snap) && !on_list[d] {
                        on_list[d] = true;
                        worklist.push(d);
                    }
                }
            }
            // Propagate along copy edges.
            let outs = edges[n].clone();
            let snap = pts[n].clone();
            for d in outs {
                let d = d as usize;
                if pts[d].union_with(&snap) && !on_list[d] {
                    on_list[d] = true;
                    worklist.push(d);
                }
            }
        }

        AndersenAnalysis { index, pts, unknown }
    }

    /// The points-to set of `v` (object indices; internal numbering).
    fn pts_of(&self, f: FuncId, v: Value) -> &DenseBitSet {
        &self.pts[self.index.id(f, v).index()]
    }
}

impl AliasAnalysis for AndersenAnalysis {
    fn name(&self) -> String {
        "CF".to_string()
    }

    fn alias(&self, _module: &Module, func: FuncId, p1: Value, p2: Value) -> AliasResult {
        if p1 == p2 {
            return AliasResult::MustAlias;
        }
        let a = self.pts_of(func, p1);
        let b = self.pts_of(func, p2);
        if a.is_empty() || b.is_empty() {
            // A pointer with an empty set never dereferences a visible
            // object (dead or int-derived); stay conservative.
            return AliasResult::MayAlias;
        }
        if a.contains(self.unknown) || b.contains(self.unknown) {
            return AliasResult::MayAlias;
        }
        if a.intersects(b) {
            AliasResult::MayAlias
        } else {
            AliasResult::NoAlias
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prepared(src: &str) -> (Module, AndersenAnalysis) {
        let m = sraa_minic::compile(src).unwrap();
        let an = AndersenAnalysis::new(&m);
        (m, an)
    }

    #[test]
    fn separate_allocations_no_alias() {
        let (m, an) = prepared(
            "int main() { int* p = malloc(4); int* q = malloc(4); *p = 1; *q = 2; return 0; }",
        );
        let (fid, ptrs) = crate::mem_ptrs(&m, "main");
        assert_eq!(an.alias(&m, fid, ptrs[0], ptrs[1]), AliasResult::NoAlias);
    }

    #[test]
    fn flow_through_memory_is_tracked() {
        // q is loaded from a slot that stores p: they must may-alias.
        let (m, an) = prepared(
            r#"
            int main() {
                int* p = malloc(4);
                int** slot = malloc(1);
                slot[0] = p;
                int* q = slot[0];
                *q = 1;
                *p = 2;
                return 0;
            }
            "#,
        );
        let (fid, ptrs) = crate::mem_ptrs(&m, "main");
        // last two accesses: *q and *p.
        let q = ptrs[ptrs.len() - 2];
        let p = ptrs[ptrs.len() - 1];
        assert_eq!(an.alias(&m, fid, q, p), AliasResult::MayAlias);
    }

    #[test]
    fn same_array_different_offsets_may_alias() {
        // Field-insensitive: CF cannot separate v[i] from v[j].
        let (m, an) = prepared("int main() { int a[8]; a[1] = 1; a[2] = 2; return 0; }");
        let (fid, ptrs) = crate::mem_ptrs(&m, "main");
        assert_eq!(an.alias(&m, fid, ptrs[0], ptrs[1]), AliasResult::MayAlias);
    }

    #[test]
    fn interprocedural_points_to() {
        // g's parameter receives only `a`, so it cannot alias `b` in g's
        // caller-side view… and inside g, p vs a fresh local differs.
        let (m, an) = prepared(
            r#"
            int g(int* p) { int local[2]; local[0] = 1; *p = 2; return local[0]; }
            int main() { int a[4]; return g(a); }
            "#,
        );
        let (fid, ptrs) = crate::mem_ptrs(&m, "g");
        // local[0] store vs *p store.
        assert_eq!(an.alias(&m, fid, ptrs[0], ptrs[1]), AliasResult::NoAlias);
    }

    #[test]
    fn entry_params_are_unknown() {
        let (m, an) = prepared("int f(int* p, int* q) { *p = 1; *q = 2; return 0; }");
        let (fid, ptrs) = crate::mem_ptrs(&m, "f");
        assert_eq!(
            an.alias(&m, fid, ptrs[0], ptrs[1]),
            AliasResult::MayAlias,
            "uncalled function's params may point anywhere"
        );
    }

    #[test]
    fn global_reached_from_two_paths() {
        let (m, an) = prepared(
            r#"
            int g[8];
            int f(int c) {
                int* p = g + 1;
                int* q = g + 2;
                *p = 1;
                *q = 2;
                return 0;
            }
            "#,
        );
        let (fid, ptrs) = crate::mem_ptrs(&m, "f");
        assert_eq!(
            an.alias(&m, fid, ptrs[0], ptrs[1]),
            AliasResult::MayAlias,
            "both point into the same global object"
        );
    }
}
