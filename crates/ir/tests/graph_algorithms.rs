//! The graph algorithms against their textbook definitions, on random
//! graphs: dominators and post-dominators against the set-intersection
//! fixpoint, strongly connected components against mutual reachability.
//! Each test draws a few hundred graphs from a fixed seed sequence and
//! also checks that the draw covered the shapes that matter (unreachable
//! blocks, self-loops, blocks that never return, inactive nodes).

use sraa_ir::{scc, InstKind, Module, PostDomTree, Pred, Type};
use sraa_ir::{BlockId, CallGraph, Cfg, DomTree, FuncId, Function, FunctionBuilder};
use std::collections::BTreeSet;

const DRAWS: u64 = 400;

/// One step of splitmix64.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: usize) -> usize {
    (next(state) % n as u64) as usize
}

/// A function of 1 to 12 blocks, each of which returns, jumps or
/// branches to blocks drawn at random (itself included).
fn random_function(seed: u64) -> Function {
    let mut s = seed;
    let n = 1 + below(&mut s, 12);
    let mut f = Function::new("r", vec![("x", Type::Int)], None);
    let mut b = FunctionBuilder::new(&mut f);
    let mut blocks = vec![b.current_block()];
    blocks.extend((1..n).map(|_| b.create_block()));
    let x = b.param(0);
    for &bb in &blocks {
        b.switch_to(bb);
        match below(&mut s, 4) {
            0 => b.ret(None),
            1 => b.jump(blocks[below(&mut s, n)]),
            _ => {
                let c = b.cmp(Pred::Lt, x, x);
                b.br(c, blocks[below(&mut s, n)], blocks[below(&mut s, n)]);
            }
        }
    }
    b.finish();
    f
}

/// `dom[v]`: the nodes that dominate `v` in the graph `succs` from
/// `root`, as the greatest fixpoint of `dom(v) = {v} ∪ ⋂ dom(p)` over
/// the reached predecessors `p`; `None` where the root does not reach.
fn naive_dominators(succs: &[Vec<usize>], root: usize) -> Vec<Option<BTreeSet<usize>>> {
    let n = succs.len();
    let reached = reachable_from(succs, root, &vec![true; n]);
    let mut preds = vec![Vec::new(); n];
    for (u, ss) in succs.iter().enumerate() {
        ss.iter().for_each(|&v| preds[v].push(u));
    }
    let all: BTreeSet<usize> = (0..n).filter(|&v| reached[v]).collect();
    let mut dom: Vec<Option<BTreeSet<usize>>> = (0..n)
        .map(|v| reached[v].then(|| if v == root { BTreeSet::from([root]) } else { all.clone() }))
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for v in (0..n).filter(|&v| v != root && reached[v]) {
            let mut meet: Option<BTreeSet<usize>> = None;
            for &p in preds[v].iter().filter(|&&p| reached[p]) {
                let dp = dom[p].as_ref().unwrap();
                meet = Some(match meet {
                    None => dp.clone(),
                    Some(m) => m.intersection(dp).copied().collect(),
                });
            }
            let mut new = meet.unwrap_or_default();
            new.insert(v);
            if dom[v].as_ref() != Some(&new) {
                dom[v] = Some(new);
                changed = true;
            }
        }
    }
    dom
}

/// The immediate dominator in `dom`: the strict dominator of `v` that
/// every other strict dominator dominates.
fn naive_idom(dom: &[Option<BTreeSet<usize>>], v: usize) -> Option<usize> {
    let dv = dom[v].as_ref()?;
    dv.iter().copied().find(|&d| d != v && dom[d].as_ref().unwrap().len() == dv.len() - 1)
}

/// Nodes reachable from `root` through `active` nodes only.
fn reachable_from(succs: &[Vec<usize>], root: usize, active: &[bool]) -> Vec<bool> {
    let mut seen = vec![false; succs.len()];
    let mut stack = vec![root];
    seen[root] = true;
    while let Some(u) = stack.pop() {
        for &v in &succs[u] {
            if active[v] && !seen[v] {
                seen[v] = true;
                stack.push(v);
            }
        }
    }
    seen
}

fn is_ret(f: &Function, b: BlockId) -> bool {
    f.terminator(b).is_some_and(|t| matches!(f.inst(t).kind, InstKind::Ret(_)))
}

#[test]
fn dom_tree_matches_the_set_fixpoint() {
    let (mut unreachable, mut self_loops) = (0, 0);
    for seed in 0..DRAWS {
        let f = random_function(seed);
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        let n = f.num_blocks();
        let succs: Vec<Vec<usize>> =
            f.block_ids().map(|b| cfg.succs(b).iter().map(|s| s.index()).collect()).collect();
        let dom = naive_dominators(&succs, f.entry().index());
        for b in f.block_ids() {
            let bi = b.index();
            unreachable += usize::from(dom[bi].is_none());
            self_loops += usize::from(succs[bi].contains(&bi));
            assert_eq!(dt.rpo_index(b).is_some(), dom[bi].is_some(), "seed {seed}: {b} reached");
            let idom = naive_idom(&dom, bi).map(BlockId::from_index);
            assert_eq!(dt.idom(b), idom, "seed {seed}: idom({b})");
            for a in (0..n).map(BlockId::from_index) {
                let expected = dom[bi].as_ref().is_some_and(|d| d.contains(&a.index()));
                assert_eq!(dt.dominates(a, b), expected, "seed {seed}: {a} dom {b}");
                assert_eq!(dt.strictly_dominates(a, b), expected && a != b, "seed {seed}");
            }
        }
    }
    assert!(unreachable > 0 && self_loops > 0, "{unreachable} unreachable, {self_loops} loops");
}

/// Post-dominators are the dominators of the reversed CFG, rooted at a
/// virtual exit that every `ret` block flows into.
#[test]
fn post_dom_tree_matches_the_set_fixpoint_with_a_virtual_exit() {
    let (mut unreachable, mut self_loops, mut never_return) = (0, 0, 0);
    for seed in 0..DRAWS {
        let f = random_function(seed);
        let cfg = Cfg::compute(&f);
        let pdt = PostDomTree::compute(&f, &cfg);
        let n = f.num_blocks();
        let exit = n;
        let mut reversed: Vec<Vec<usize>> =
            f.block_ids().map(|b| cfg.preds(b).iter().map(|p| p.index()).collect()).collect();
        reversed.push(f.block_ids().filter(|&b| is_ret(&f, b)).map(|b| b.index()).collect());
        let pdom = naive_dominators(&reversed, exit);
        for b in f.block_ids() {
            let bi = b.index();
            unreachable += usize::from(!cfg.is_reachable(b));
            self_loops += usize::from(cfg.succs(b).contains(&b));
            never_return += usize::from(pdom[bi].is_none());
            let ipdom = naive_idom(&pdom, bi).filter(|&d| d != exit).map(BlockId::from_index);
            assert_eq!(pdt.ipdom(b), ipdom, "seed {seed}: ipdom({b})");
            for a in (0..n).map(BlockId::from_index) {
                let expected = pdom[bi].as_ref().is_some_and(|d| d.contains(&a.index()));
                assert_eq!(pdt.post_dominates(a, b), expected, "seed {seed}: {a} pdom {b}");
            }
        }
    }
    assert!(
        unreachable > 0 && self_loops > 0 && never_return > 0,
        "{unreachable} unreachable, {self_loops} loops, {never_return} never return"
    );
}

/// A random directed graph of 0 to 14 nodes and its `active` mask. Edges
/// join active nodes only: the callers condense a graph whose inactive
/// nodes are already solved, so nothing points at them.
fn random_graph(seed: u64) -> (Vec<Vec<usize>>, Vec<bool>) {
    let mut s = seed;
    let n = below(&mut s, 15);
    let active: Vec<bool> = (0..n).map(|_| below(&mut s, 5) != 0).collect();
    let mut succs = vec![Vec::new(); n];
    if n > 0 {
        for _ in 0..below(&mut s, 3 * n + 1) {
            let (u, v) = (below(&mut s, n), below(&mut s, n));
            if active[u] && active[v] {
                succs[u].push(v);
            }
        }
    }
    (succs, active)
}

/// Checks `comps` (in emission order) against mutual reachability over
/// the active nodes, and that every edge points into its own or an
/// earlier component.
fn check_components(succs: &[Vec<usize>], active: &[bool], comps: &[Vec<usize>], what: &str) {
    let n = succs.len();
    let mut comp_of = vec![usize::MAX; n];
    for (k, comp) in comps.iter().enumerate() {
        for &v in comp {
            assert!(active[v], "{what}: inactive node {v} emitted");
            assert_eq!(comp_of[v], usize::MAX, "{what}: node {v} emitted twice");
            comp_of[v] = k;
        }
    }
    let reach: Vec<Vec<bool>> = (0..n).map(|u| reachable_from(succs, u, active)).collect();
    for u in (0..n).filter(|&u| active[u]) {
        assert_ne!(comp_of[u], usize::MAX, "{what}: active node {u} not emitted");
        for v in (0..n).filter(|&v| active[v]) {
            let mutual = reach[u][v] && reach[v][u];
            assert_eq!(comp_of[u] == comp_of[v], mutual, "{what}: {u} and {v}");
        }
        for &v in &succs[u] {
            assert!(comp_of[v] <= comp_of[u], "{what}: edge {u}->{v} points at a later component");
        }
    }
}

/// A module of `succs.len()` functions where `f_u` calls `f_v` for every
/// edge `u -> v`.
fn call_module(succs: &[Vec<usize>]) -> Module {
    let mut m = Module::new();
    for i in 0..succs.len() {
        m.declare_function(format!("f{i}"), vec![], Some(Type::Int));
    }
    for (u, callees) in succs.iter().enumerate() {
        let f = m.function_mut(FuncId::from_index(u));
        let entry = f.entry();
        for &v in callees {
            let call = InstKind::Call { callee: FuncId::from_index(v), args: vec![] };
            f.append_inst(entry, call, Some(Type::Int));
        }
        let zero = f.add_const(0);
        f.append_inst(entry, InstKind::Ret(Some(zero)), None);
    }
    m
}

#[test]
fn tarjan_matches_mutual_reachability() {
    let (mut cycles, mut inactive) = (0, 0);
    for seed in 0..DRAWS {
        let (succs, active) = random_graph(seed);
        let sccs = scc::tarjan(
            succs.len(),
            |v| succs[v as usize].iter().map(|&w| w as u32),
            |v| active[v as usize],
        );
        let comps: Vec<Vec<usize>> =
            sccs.iter().map(|c| c.iter().map(|&v| v as usize).collect()).collect();
        check_components(&succs, &active, &comps, &format!("seed {seed}"));
        cycles += comps.iter().filter(|c| c.len() > 1).count();
        inactive += active.iter().filter(|&&a| !a).count();
    }
    assert!(cycles > 0 && inactive > 0, "{cycles} cycles, {inactive} inactive nodes");
}

/// The call graph's edge lists, and its condensation checked like
/// [`scc::tarjan`] plus members, recursion flags and callee components.
#[test]
fn call_graph_and_condensation_match_their_definitions() {
    let (mut cycles, mut self_calls, mut duplicates) = (0, 0, 0);
    for seed in 0..DRAWS {
        let (succs, _) = random_graph(seed);
        let n = succs.len();
        let cg = CallGraph::build(&call_module(&succs));
        let f = FuncId::from_index;
        for (u, ss) in succs.iter().enumerate() {
            let mut callees: Vec<FuncId> = ss.iter().map(|&v| f(v)).collect();
            callees.sort_unstable();
            callees.dedup();
            duplicates += ss.len() - callees.len();
            assert_eq!(cg.callees(f(u)), callees, "seed {seed}: callees of f{u}");
            let callers: Vec<FuncId> = (0..n).filter(|&w| succs[w].contains(&u)).map(f).collect();
            assert_eq!(cg.callers(f(u)), callers, "seed {seed}: callers of f{u}");
        }

        let cond = cg.condense();
        let comps: Vec<Vec<usize>> =
            cond.bottom_up().map(|(_, c)| c.iter().map(|f| f.index()).collect()).collect();
        check_components(&succs, &vec![true; n], &comps, &format!("seed {seed}"));
        assert_eq!(cond.is_empty(), n == 0);
        let mut recursive = 0;
        for (k, comp) in comps.iter().enumerate() {
            assert!(comp.windows(2).all(|w| w[0] < w[1]), "seed {seed}: members sorted");
            assert!(comp.iter().all(|&u| cond.component_of(f(u)) == k), "seed {seed}: {k}");
            let self_call = comp.len() == 1 && succs[comp[0]].contains(&comp[0]);
            let is_recursive = comp.len() > 1 || self_call;
            cycles += usize::from(comp.len() > 1);
            self_calls += usize::from(self_call);
            recursive += usize::from(is_recursive);
            assert_eq!(cond.is_recursive(k), is_recursive, "seed {seed}: {k}");
            let mut callee_comps: Vec<u32> = comp
                .iter()
                .flat_map(|&u| &succs[u])
                .map(|&v| cond.component_of(f(v)) as u32)
                .filter(|&c| c as usize != k)
                .collect();
            callee_comps.sort_unstable();
            callee_comps.dedup();
            assert_eq!(cond.callee_components(k), callee_comps, "seed {seed}: {k}");
        }
        assert_eq!(cond.num_recursive(), recursive, "seed {seed}");
    }
    assert!(cycles > 0 && self_calls > 0 && duplicates > 0, "{cycles} {self_calls} {duplicates}");
}
