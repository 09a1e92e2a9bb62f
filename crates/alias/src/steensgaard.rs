//! Steensgaard-style unification-based points-to analysis.
//!
//! The paper's related-work discussion places its contribution between the
//! two classic points-to families: inclusion-based (Andersen \[3\], our
//! [`AndersenAnalysis`](crate::AndersenAnalysis)) and unification-based
//! (Steensgaard \[34\], this module). Steensgaard's runs in almost-linear
//! time by *unifying* the two sides of every assignment instead of
//! tracking subset constraints — cheaper and strictly less precise than
//! Andersen's, and like both of them completely blind to offsets within
//! one object. Including it rounds out the baseline family for the
//! benchmark harness.
//!
//! Formulation: every pointer variable and every abstract object gets a
//! union-find node; each equivalence class owns (lazily) a *pointee*
//! class. `p = q` unifies `p` and `q`; `p = *q` unifies `p` with
//! `pointee(q)`; `*p = q` unifies `pointee(p)` with `q`; allocation sites
//! attach their object to `pointee(p)`. Classes reached by external
//! pointers are poisoned as `unknown`.
//!
//! The union-find links roots by class size and halves paths on every
//! `find`, which gives Steensgaard's almost-linear bound; the cascade of
//! pointee merges runs off an explicit worklist, so no program shape can
//! deepen the stack. Once solved, the union-find is compressed into one
//! table entry per variable (the class it may point into, if a query can
//! use it), so a query is one read per pointer.

use crate::{AliasAnalysis, AliasResult};
use sraa_core::VarIndex;
use sraa_ir::{FuncId, InstKind, Module, Type, Value};

/// Unification-based (Steensgaard) points-to analysis.
#[derive(Clone, Debug)]
pub struct SteensgaardAnalysis {
    index: VarIndex,
    /// Per variable: the root of its pointee class, or [`NO_CLASS`] when
    /// that class is unknown, holds no allocation site, or was never
    /// created (the variable is never dereferenced).
    classes: Vec<u32>,
}

/// A variable no query can separate from anything.
const NO_CLASS: u32 = u32::MAX;

/// The union-find the constraints are solved on; [`Unifier::finish`]
/// compresses it into the query table.
struct Unifier {
    parent: Vec<u32>,
    /// Class size, meaningful at roots.
    size: Vec<u32>,
    /// Pointee class per class representative (dense, by node id).
    pointee: Vec<Option<u32>>,
    /// Class contains at least one concrete allocation site.
    has_object: Vec<bool>,
    /// Class may contain objects the module cannot see.
    unknown: Vec<bool>,
    /// Pairs of classes still to merge, kept to reuse its buffer.
    pending: Vec<(u32, u32)>,
}

impl Unifier {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            pointee: vec![None; n],
            has_object: vec![false; n],
            unknown: vec![false; n],
            pending: Vec::new(),
        }
    }

    /// Solves the unification constraints of `module` over the nodes of
    /// `index`.
    fn solve(module: &Module, index: &VarIndex) -> Self {
        let mut u = Unifier::new(index.len());
        let id = |f: FuncId, v: Value| index.id(f, v).raw();

        let mut internally_called = vec![false; module.num_functions()];
        for (_, f) in module.functions() {
            for b in f.block_ids() {
                for (_, d) in f.block_insts(b) {
                    if let InstKind::Call { callee, .. } = &d.kind {
                        internally_called[callee.index()] = true;
                    }
                }
            }
        }

        for (fid, f) in module.functions() {
            let is_ptr = |v: Value| f.value_type(v).is_some_and(Type::is_ptr);
            for b in f.block_ids() {
                for (v, data) in f.block_insts(b) {
                    let vid = id(fid, v);
                    match &data.kind {
                        InstKind::Alloca { .. }
                        | InstKind::Malloc { .. }
                        | InstKind::GlobalAddr(_) => {
                            let pointee = u.pointee_of(vid);
                            u.has_object[pointee as usize] = true;
                        }
                        InstKind::Copy { src, .. } | InstKind::Gep { base: src, .. }
                            if is_ptr(v) =>
                        {
                            u.unify(vid, id(fid, *src));
                        }
                        InstKind::Phi { incomings } if is_ptr(v) => {
                            for (_, x) in incomings {
                                u.unify(vid, id(fid, *x));
                            }
                        }
                        InstKind::Load { ptr } if is_ptr(v) => {
                            let pointee = u.pointee_of(id(fid, *ptr));
                            u.unify(vid, pointee);
                        }
                        InstKind::Store { ptr, value } if is_ptr(*value) => {
                            let pointee = u.pointee_of(id(fid, *ptr));
                            u.unify(pointee, id(fid, *value));
                        }
                        InstKind::Param(_) if is_ptr(v) && !internally_called[fid.index()] => {
                            let pointee = u.pointee_of(vid);
                            u.unknown[pointee as usize] = true;
                        }
                        InstKind::Opaque if is_ptr(v) => {
                            let pointee = u.pointee_of(vid);
                            u.unknown[pointee as usize] = true;
                        }
                        InstKind::Call { callee, args } => {
                            let cf = module.function(*callee);
                            for (i, arg) in args.iter().enumerate() {
                                if f.value_type(*arg).is_some_and(Type::is_ptr) {
                                    u.unify(id(*callee, cf.param_value(i)), id(fid, *arg));
                                }
                            }
                            if is_ptr(v) {
                                for cb in cf.block_ids() {
                                    if let Some(t) = cf.terminator(cb) {
                                        if let InstKind::Ret(Some(r)) = cf.inst(t).kind {
                                            u.unify(vid, id(*callee, r));
                                        }
                                    }
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        u
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// The root of the pointee class of `node`'s class, created empty if
    /// the class has none yet.
    fn pointee_of(&mut self, node: u32) -> u32 {
        let root = self.find(node) as usize;
        if let Some(p) = self.pointee[root] {
            return self.find(p);
        }
        let fresh = self.parent.len() as u32;
        self.parent.push(fresh);
        self.size.push(1);
        self.pointee.push(None);
        self.has_object.push(false);
        self.unknown.push(false);
        self.pointee[root] = Some(fresh);
        fresh
    }

    /// Steensgaard's join: unifies two classes *and their pointees,
    /// transitively* — this cascading merge is what makes the analysis
    /// almost linear and is exactly where it loses precision to Andersen's.
    fn unify(&mut self, a: u32, b: u32) {
        self.pending.push((a, b));
        while let Some((a, b)) = self.pending.pop() {
            let (mut ra, mut rb) = (self.find(a) as usize, self.find(b) as usize);
            if ra == rb {
                continue;
            }
            if self.size[ra] < self.size[rb] {
                std::mem::swap(&mut ra, &mut rb);
            }
            // Merge the smaller class rb into ra.
            self.parent[rb] = ra as u32;
            self.size[ra] += self.size[rb];
            self.has_object[ra] |= self.has_object[rb];
            self.unknown[ra] |= self.unknown[rb];
            match (self.pointee[ra], self.pointee[rb]) {
                (None, Some(p)) => self.pointee[ra] = Some(p),
                (Some(pa), Some(pb)) => self.pending.push((pa, pb)),
                _ => {}
            }
        }
    }

    /// The query table: per variable node, the root of its pointee class
    /// if that class holds an allocation site and nothing unknown.
    fn finish(mut self, variables: usize) -> Vec<u32> {
        (0..variables as u32)
            .map(|x| {
                let root = self.find(x) as usize;
                // A variable that is never dereferenced has no pointee.
                let class = self.pointee[root].map(|p| self.find(p));
                class
                    .filter(|&c| self.has_object[c as usize] && !self.unknown[c as usize])
                    .unwrap_or(NO_CLASS)
            })
            .collect()
    }
}

impl SteensgaardAnalysis {
    /// Builds and solves the unification constraints for `module`.
    pub fn new(module: &Module) -> Self {
        let index = VarIndex::new(module);
        let classes = Unifier::solve(module, &index).finish(index.len());
        SteensgaardAnalysis { index, classes }
    }
}

impl AliasAnalysis for SteensgaardAnalysis {
    fn name(&self) -> String {
        "ST".to_string()
    }

    fn alias(&self, _module: &Module, func: FuncId, p1: Value, p2: Value) -> AliasResult {
        if p1 == p2 {
            return AliasResult::MustAlias;
        }
        let c1 = self.classes[self.index.id(func, p1).index()];
        let c2 = self.classes[self.index.id(func, p2).index()];
        if c1 != NO_CLASS && c2 != NO_CLASS && c1 != c2 {
            AliasResult::NoAlias
        } else {
            AliasResult::MayAlias
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AndersenAnalysis;

    fn prepared(src: &str) -> (Module, SteensgaardAnalysis) {
        let m = sraa_minic::compile(src).unwrap();
        let st = SteensgaardAnalysis::new(&m);
        (m, st)
    }

    fn mem_ptrs(m: &Module, name: &str) -> (FuncId, Vec<Value>) {
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
    fn distinct_mallocs_do_not_alias() {
        let (m, st) = prepared(
            "int main() { int* p = malloc(4); int* q = malloc(4); *p = 1; *q = 2; return 0; }",
        );
        let (fid, ptrs) = mem_ptrs(&m, "main");
        assert_eq!(st.alias(&m, fid, ptrs[0], ptrs[1]), AliasResult::NoAlias);
    }

    #[test]
    fn unification_merges_where_andersen_does_not() {
        // The φ that merges p and q makes Steensgaard unify all three
        // variables — and hence the *pointees* of p and q — while Andersen
        // only adds both objects to r's set and keeps p and q apart. The
        // classic precision gap between the two families.
        let src = r#"
            int main() {
                int* p = malloc(4);
                int* q = malloc(4);
                int* r = p;
                if (input() > 0) r = q;
                *p = 1; *q = 2; *r = 3;
                return 0;
            }
        "#;
        let (m, st) = prepared(src);
        let an = AndersenAnalysis::new(&m);
        let (fid, ptrs) = mem_ptrs(&m, "main");
        // *p vs *q:
        assert_eq!(
            an.alias(&m, fid, ptrs[0], ptrs[1]),
            AliasResult::NoAlias,
            "Andersen keeps p and q apart"
        );
        assert_eq!(
            st.alias(&m, fid, ptrs[0], ptrs[1]),
            AliasResult::MayAlias,
            "Steensgaard unifies them through r"
        );
    }

    #[test]
    fn flow_through_memory_is_tracked() {
        let (m, st) = prepared(
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
        let (fid, ptrs) = mem_ptrs(&m, "main");
        let q = ptrs[ptrs.len() - 2];
        let p = ptrs[ptrs.len() - 1];
        assert_eq!(st.alias(&m, fid, q, p), AliasResult::MayAlias);
    }

    #[test]
    fn entry_params_are_unknown() {
        let (m, st) = prepared("int f(int* p, int* q) { *p = 1; *q = 2; return 0; }");
        let (fid, ptrs) = mem_ptrs(&m, "f");
        assert_eq!(st.alias(&m, fid, ptrs[0], ptrs[1]), AliasResult::MayAlias);
    }

    /// `n` sequential `if (x > k) { y = y + 1; p = p + 1; *p = y; }`: one
    /// long function whose pointer copies all land in one class.
    fn branches(n: usize) -> String {
        let mut src =
            String::from("int main() {\n int a[8]; int* p = a; int y = 0; int x = input();\n");
        for k in 0..n {
            src += &format!(" if (x > {k}) {{ y = y + 1; p = p + 1; *p = y; }}\n");
        }
        src + " return y;\n}\n"
    }

    /// A long run of branches puts every copy of `p` in one class. Union
    /// by size bounds every chain by log2 of the node count, and after
    /// `new` each variable's class is one table read that agrees with a
    /// full walk of the solved union-find.
    #[test]
    fn a_thousand_branches_leave_no_chain_to_walk() {
        let mut m = sraa_minic::compile(&branches(1000)).unwrap();
        let _ = sraa_essa::transform_module(&mut m);
        let index = VarIndex::new(&m);
        let u = Unifier::solve(&m, &index);
        let root = |mut x: u32| {
            let mut steps = 0u32;
            while u.parent[x as usize] != x {
                x = u.parent[x as usize];
                steps += 1;
            }
            (x, steps)
        };
        let nodes = u.parent.len() as u32;
        let deepest = (0..nodes).map(|x| root(x).1).max().unwrap();
        assert!(1 << deepest <= nodes, "{nodes} nodes, a chain of {deepest} steps");

        let st = SteensgaardAnalysis::new(&m);
        assert_eq!(st.classes.len(), index.len(), "one table entry per value");
        for x in 0..index.len() as u32 {
            let walked = u.pointee[root(x).0 as usize]
                .map(|p| root(p).0)
                .filter(|&c| u.has_object[c as usize] && !u.unknown[c as usize]);
            assert_eq!(st.classes[x as usize], walked.unwrap_or(NO_CLASS), "node {x}");
        }
    }

    #[test]
    fn never_more_precise_than_andersen() {
        // Differential check on a workload: every Steensgaard NoAlias must
        // also be an Andersen NoAlias (unification ⊆ inclusion precision).
        let w = sraa_synth::spec_generate_by_name("astar").unwrap();
        let m = sraa_minic::compile(&w.source).unwrap();
        let st = SteensgaardAnalysis::new(&m);
        let an = AndersenAnalysis::new(&m);
        for (fid, _) in m.functions().take(10) {
            let ptrs = crate::AaEval::pointer_values(&m, fid);
            for (i, &p) in ptrs.iter().enumerate().take(30) {
                for &q in ptrs.iter().skip(i + 1).take(30) {
                    if st.alias(&m, fid, p, q) == AliasResult::NoAlias {
                        assert_eq!(
                            an.alias(&m, fid, p, q),
                            AliasResult::NoAlias,
                            "ST claims NoAlias where CF does not: {p} vs {q} in {fid}"
                        );
                    }
                }
            }
        }
    }
}
