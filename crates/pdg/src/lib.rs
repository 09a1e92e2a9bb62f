//! `sraa-pdg` — the Program Dependence Graph with memory nodes.
//!
//! The paper's applicability study (its §4.3 and Figure 12) measures how an
//! alias analysis improves the PDG built by the FlowTracker system: "The
//! PDG is a graph whose vertices represent program variables and memory
//! locations … The more memory nodes the PDG contains, the more precise it
//! is, because if two locations alias, they fall into the same node."
//!
//! [`DepGraph::build`] reproduces that construction: every value is a
//! vertex; every memory access (`load`/`store`) is assigned to a *memory
//! node* — an equivalence class of accesses the given alias analysis could
//! not prove disjoint (union-find over all non-`NoAlias` pairs). Data
//! dependence edges connect operand definitions to users, stores to their
//! memory node and memory nodes to the loads they may feed.
//!
//! Classes are per function: like the paper (whose Csmith programs have a
//! single function plus `main`), we do not merge accesses across function
//! boundaries for either analysis — this keeps the intra-procedural BA and
//! the inter-procedural LT comparable (see the paper's own caveat in §4.3).
//!
//! Besides data dependences, the graph carries Ferrante-style *control
//! dependence* edges (branch terminator → every instruction of each block
//! that is control-dependent on it), computed from post-dominators.
//!
//! The builder is parameterised by any [`AliasAnalysis`]; when driven by
//! the strict-inequality backend it queries the shared
//! `sraa_core::DisambiguationEngine`, where each pair of the class
//! construction's all-pairs access pattern is a few membership probes on
//! small `LT` sets.

use sraa_alias::{AliasAnalysis, AliasResult};
use sraa_ir::{Cfg, FuncId, InstKind, Module, PostDomTree, Value};

/// A vertex of the dependence graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Node {
    /// An SSA value (`function`, `value`).
    Value(FuncId, Value),
    /// A memory node: equivalence class `class` of aliasing accesses.
    Memory(usize),
}

/// The program dependence graph.
#[derive(Clone, Debug)]
pub struct DepGraph {
    /// Vertices.
    pub nodes: Vec<Node>,
    /// Directed data-dependence edges, as indices into `nodes`.
    pub edges: Vec<(usize, usize)>,
    /// Directed control-dependence edges (branch → dependent instruction).
    pub control_edges: Vec<(usize, usize)>,
    /// Number of memory nodes — the paper's Figure 12 metric.
    pub memory_nodes: usize,
    /// Number of static memory accesses ("Static Locations" in Figure 12,
    /// the upper bound on memory nodes).
    pub static_accesses: usize,
}

impl DepGraph {
    /// Builds the PDG of `module` with `aa` deciding memory-node merging.
    pub fn build(module: &Module, aa: &dyn AliasAnalysis) -> DepGraph {
        let mut nodes = Vec::new();
        let mut edges = Vec::new();
        let mut control_edges = Vec::new();
        let mut value_node = Vec::new(); // (fid, v) -> node index, via per-func offset
        let mut offsets = Vec::new();
        for (_, f) in module.functions() {
            offsets.push(nodes.len());
            for v in f.value_ids() {
                value_node.push(nodes.len());
                nodes.push(Node::Value(FuncId::from_index(offsets.len() - 1), v));
            }
            let _ = f;
        }
        let node_of = |fid: FuncId, v: Value| value_node[offsets[fid.index()] + v.index()];

        // Collect accesses and build per-function alias classes.
        let mut memory_nodes = 0usize;
        let mut static_accesses = 0usize;
        for (fid, f) in module.functions() {
            let mut accesses: Vec<(Value, Value, bool)> = Vec::new(); // (inst, ptr, is_store)
            for b in f.block_ids() {
                for (v, data) in f.block_insts(b) {
                    match &data.kind {
                        InstKind::Load { ptr } => accesses.push((v, *ptr, false)),
                        InstKind::Store { ptr, .. } => accesses.push((v, *ptr, true)),
                        _ => {}
                    }
                }
            }
            static_accesses += accesses.len();

            // Union-find over accesses.
            let mut parent: Vec<usize> = (0..accesses.len()).collect();
            fn find(parent: &mut Vec<usize>, i: usize) -> usize {
                if parent[i] != i {
                    let r = find(parent, parent[i]);
                    parent[i] = r;
                }
                parent[i]
            }
            for i in 0..accesses.len() {
                for j in i + 1..accesses.len() {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri == rj {
                        continue;
                    }
                    if aa.alias(module, fid, accesses[i].1, accesses[j].1) != AliasResult::NoAlias {
                        parent[ri] = rj;
                    }
                }
            }

            // Materialise memory nodes and dependence edges.
            let mut class_node: std::collections::HashMap<usize, usize> = Default::default();
            for (i, &(inst, _, is_store)) in accesses.iter().enumerate() {
                let root = find(&mut parent, i);
                let mem = *class_node.entry(root).or_insert_with(|| {
                    let n = nodes.len();
                    nodes.push(Node::Memory(memory_nodes));
                    memory_nodes += 1;
                    n
                });
                if is_store {
                    edges.push((node_of(fid, inst), mem));
                } else {
                    edges.push((mem, node_of(fid, inst)));
                }
            }

            // Ordinary def → use edges.
            for b in f.block_ids() {
                for (v, data) in f.block_insts(b) {
                    data.kind.for_each_operand(|op| {
                        edges.push((node_of(fid, op), node_of(fid, v)));
                    });
                }
            }

            // Control-dependence edges (Ferrante et al.): the governing
            // branch's terminator controls every instruction of the block.
            let cfg = Cfg::compute(f);
            let pdt = PostDomTree::compute(f, &cfg);
            for (b_idx, controllers) in pdt.control_dependence(f, &cfg).iter().enumerate() {
                let b = sraa_ir::BlockId::from_index(b_idx);
                for &a in controllers {
                    let Some(branch) = f.terminator(a) else { continue };
                    for (v, _) in f.block_insts(b) {
                        control_edges.push((node_of(fid, branch), node_of(fid, v)));
                    }
                }
            }
        }

        DepGraph { nodes, edges, control_edges, memory_nodes, static_accesses }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sraa_alias::{BasicAliasAnalysis, Combined, StrictInequalityAa};

    fn graph_counts(src: &str) -> (usize, usize, usize) {
        // (BA nodes, BA+LT nodes, static accesses)
        let mut m = sraa_minic::compile(src).unwrap();
        let lt = StrictInequalityAa::new(&mut m);
        let ba = BasicAliasAnalysis::new(&m);
        let g_ba = DepGraph::build(&m, &ba);
        let combined =
            Combined::new(vec![Box::new(BasicAliasAnalysis::new(&m)), Box::new(lt.clone())]);
        let g_both = DepGraph::build(&m, &combined);
        assert_eq!(g_ba.static_accesses, g_both.static_accesses);
        (g_ba.memory_nodes, g_both.memory_nodes, g_ba.static_accesses)
    }

    #[test]
    fn distinct_arrays_get_distinct_nodes_under_ba() {
        let (ba, both, stat) = graph_counts(
            r#"
            int main() {
                int a[4]; int b[4];
                a[0] = 1;
                b[0] = 2;
                return a[0] + b[0];
            }
            "#,
        );
        assert_eq!(stat, 4);
        assert!(ba >= 2, "two allocation sites must split: {ba}");
        assert!(both >= ba);
    }

    #[test]
    fn lt_splits_vi_vj_nodes_ba_does_not() {
        let (ba, both, _) = graph_counts(
            r#"
            void f(int* v, int n) {
                for (int i = 0, j = n; i < j; i++, j--) v[i] = v[j];
            }
            "#,
        );
        assert!(both > ba, "LT must add memory nodes: BA={ba}, BA+LT={both}");
    }

    #[test]
    fn memory_nodes_bounded_by_static_accesses() {
        let (ba, both, stat) = graph_counts(
            r#"
            int g[16];
            int main() {
                int s = 0;
                for (int i = 0; i + 2 < 16; i++) {
                    g[i] = i;
                    s += g[i + 1] * g[i + 2];
                }
                return s;
            }
            "#,
        );
        assert!(ba <= stat && both <= stat);
        assert!(both >= ba);
    }

    #[test]
    fn single_node_without_any_analysis() {
        // A degenerate analysis that always answers MayAlias yields at
        // most one memory node per function ("In the absence of any alias
        // information, the PDG contains at most one memory node").
        struct NoInfo;
        impl AliasAnalysis for NoInfo {
            fn name(&self) -> String {
                "none".into()
            }
            fn alias(&self, _: &Module, _: FuncId, _: Value, _: Value) -> AliasResult {
                AliasResult::MayAlias
            }
        }
        let m = sraa_minic::compile(
            "int main() { int a[4]; int b[4]; a[0] = 1; b[1] = 2; return a[0] + b[3]; }",
        )
        .unwrap();
        let g = DepGraph::build(&m, &NoInfo);
        assert_eq!(g.memory_nodes, 1);
    }

    #[test]
    fn control_dependence_edges_exist_for_branches() {
        let m = sraa_minic::compile(
            "int main() { int a[4]; int x = input(); if (x < 2) a[0] = 1; return a[0]; }",
        )
        .unwrap();
        let ba = BasicAliasAnalysis::new(&m);
        let g = DepGraph::build(&m, &ba);
        assert!(
            !g.control_edges.is_empty(),
            "the guarded store must be control-dependent on the branch"
        );
        // Every control edge source is a value node (the branch terminator).
        for &(s, _) in &g.control_edges {
            assert!(matches!(g.nodes[s], Node::Value(..)));
        }
    }

    #[test]
    fn edges_connect_defs_to_uses_and_memory() {
        let m = sraa_minic::compile("int main() { int a[2]; a[0] = 7; return a[0]; }").unwrap();
        let ba = BasicAliasAnalysis::new(&m);
        let g = DepGraph::build(&m, &ba);
        assert!(!g.edges.is_empty());
        // At least one edge into a memory node (the store) and one out
        // (the load).
        let mem_in = g.edges.iter().any(|&(_, d)| matches!(g.nodes[d], Node::Memory(_)));
        let mem_out = g.edges.iter().any(|&(s, _)| matches!(g.nodes[s], Node::Memory(_)));
        assert!(mem_in && mem_out);
    }
}
