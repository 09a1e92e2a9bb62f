//! Strongly connected components of an abstract graph (iterative Tarjan).
//!
//! The one SCC routine of the workspace: [`CallGraph::condense`]
//! condenses the call graph with it, and the LT solver condenses the
//! residual constraint dependency graph that its topological peel
//! leaves. The graph is given as a node count and a successor accessor,
//! so neither caller copies its edges into another representation, and
//! the DFS keeps its frames on the heap, so a chain tens of thousands of
//! nodes deep cannot overflow the call stack.
//!
//! [`CallGraph::condense`]: crate::CallGraph::condense

/// Components in one flat compressed-sparse-row layout: component `k`
/// is `members[offsets[k]..offsets[k + 1]]`. Singleton components
/// dominate real graphs, so one `Vec` per component would be the
/// allocator's hottest path.
#[derive(Clone, Debug)]
pub struct Sccs {
    /// `offsets[k]..offsets[k + 1]` indexes component `k` in `members`;
    /// one more entry than there are components.
    pub offsets: Vec<u32>,
    /// The members of every component, component after component.
    pub members: Vec<u32>,
}

impl Sccs {
    /// The components in emission order, each a slice of node ids.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        self.offsets.windows(2).map(|w| &self.members[w[0] as usize..w[1] as usize])
    }
}

/// The strongly connected components of the graph over nodes `0..n`
/// whose edges are `v -> w` for every `w` in `succ(v)`, restricted to the
/// nodes where `active` holds. Every successor of an active node must be
/// active.
///
/// Components are emitted dependencies-first: every edge leaving
/// component `k` points into a component emitted before `k` (a reverse
/// topological order of the condensed DAG). Roots are tried in ascending
/// id order and members are listed in the order Tarjan pops them, so the
/// output depends only on the graph.
pub fn tarjan<I>(n: usize, succ: impl Fn(u32) -> I, active: impl Fn(u32) -> bool) -> Sccs
where
    I: Iterator<Item = u32>,
{
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut sccs = Sccs { offsets: vec![0], members: Vec::new() };

    // Explicit DFS frames: a node and the successors it has left to try.
    let mut frames: Vec<(u32, I)> = Vec::new();
    for root in 0..n as u32 {
        if !active(root) || index[root as usize] != UNVISITED {
            continue;
        }
        let mut discovered = Some(root);
        loop {
            if let Some(v) = discovered.take() {
                index[v as usize] = next_index;
                lowlink[v as usize] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v as usize] = true;
                frames.push((v, succ(v)));
            }
            let Some((v, succs)) = frames.last_mut() else { break };
            let v = *v as usize;
            if let Some(w) = succs.next() {
                debug_assert!(active(w), "edge {v} -> {w} leaves the active nodes");
                if index[w as usize] == UNVISITED {
                    discovered = Some(w);
                } else if on_stack[w as usize] {
                    lowlink[v] = lowlink[v].min(index[w as usize]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v]);
            }
            if lowlink[v] == index[v] {
                // `v` is a component root: pop its component.
                loop {
                    let w = stack.pop().expect("Tarjan stack underflow");
                    on_stack[w as usize] = false;
                    sccs.members.push(w);
                    if w as usize == v {
                        break;
                    }
                }
                sccs.offsets.push(sccs.members.len() as u32);
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn components(sccs: &Sccs) -> Vec<Vec<u32>> {
        sccs.iter().map(<[u32]>::to_vec).collect()
    }

    #[test]
    fn a_chain_is_emitted_dependencies_first() {
        // 2 -> 1 -> 0: the node with no successors comes first.
        let succs = [vec![], vec![0], vec![1]];
        let sccs = tarjan(3, |v| succs[v as usize].iter().copied(), |_| true);
        assert_eq!(components(&sccs), vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn a_cycle_is_one_component_before_its_dependents() {
        // 1 <-> 2, 3 -> 1, 0 alone and inactive.
        let succs = [vec![], vec![2], vec![1], vec![1]];
        let sccs = tarjan(4, |v| succs[v as usize].iter().copied(), |v| v != 0);
        assert_eq!(components(&sccs), vec![vec![2, 1], vec![3]]);
        assert!(tarjan(0, |_| std::iter::empty(), |_| true).iter().next().is_none());
    }

    #[test]
    fn a_deep_chain_does_not_overflow_the_stack() {
        let n = 200_000u32;
        let sccs = tarjan(n as usize, |v| (v + 1..n).take(1), |_| true);
        assert_eq!(sccs.iter().len(), n as usize);
        assert!(sccs.members.iter().rev().copied().eq(0..n), "deepest node first");
    }
}
