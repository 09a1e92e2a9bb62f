//! An ABCD-style *on-demand* less-than prover.
//!
//! The paper (§5) contrasts its design with Bodík et al.'s ABCD: "we chose
//! to compute a transitive closure of less-than relations, whereas ABCD
//! works on demand". This module implements the on-demand alternative over
//! the *same* constraint system, so the two strategies can be compared;
//! the differential and property tests prove they answer identically.
//!
//! A query `y ∈ LT(x)?` runs a backwards proof search over the constraint
//! defining `x`:
//!
//! * `Init`              — fail;
//! * `Copy {s}`          — prove `y ∈ LT(s)`;
//! * `Union {es, ss}`    — succeed if `y ∈ es`, else prove some `y ∈ LT(s)`;
//! * `Inter {ss}`        — prove `y ∈ LT(s)` for *every* `s`.
//!
//! Cycles (loops through φs) are handled *coinductively*: a pair currently
//! on the proof stack is assumed to hold, which computes exactly the
//! greatest fixpoint the worklist solver computes (paper Theorem 3.7).
//! Results are memoised, with the usual assumption-tracking care: a `true`
//! that leaned on an unresolved outer assumption must not be cached.

use crate::constraints::{Constraint, ConstraintSystem};
use crate::var_index::VarId;
use std::collections::HashMap;

/// On-demand prover over a generated [`ConstraintSystem`].
///
/// Kept as a differential oracle for the exhaustive solvers and for the
/// paper's §5 contrast with ABCD — the engine never uses it to answer
/// queries. Queries take `&mut self` because the prover memoises; build
/// it once and reuse it.
#[derive(Clone, Debug)]
pub struct OnDemandProver<'a> {
    sys: &'a ConstraintSystem,
    /// Variable id → index of its defining constraint.
    def_of: Vec<Option<u32>>,
    memo: HashMap<(u32, u32), bool>,
    /// Statistics: constraint visits performed across all queries.
    pub visits: u64,
}

impl<'a> OnDemandProver<'a> {
    /// Prepares the prover (O(#constraints)).
    pub fn new(sys: &'a ConstraintSystem) -> Self {
        let mut def_of = vec![None; sys.num_vars];
        for (i, c) in sys.constraints.iter().enumerate() {
            def_of[c.defined().index()] = Some(i as u32);
        }
        Self { sys, def_of, memo: HashMap::new(), visits: 0 }
    }

    /// Does `a < b` hold (`a ∈ LT(b)`)?
    pub fn less_than(&mut self, a: VarId, b: VarId) -> bool {
        let mut stack = Vec::new();
        self.prove(a.raw(), b.raw(), &mut stack).0
    }

    /// Returns `(holds, lowest stack depth of any assumption used)`;
    /// `usize::MAX` when the proof is assumption-free.
    fn prove(&mut self, y: u32, x: u32, stack: &mut Vec<(u32, u32)>) -> (bool, usize) {
        if let Some(&r) = self.memo.get(&(y, x)) {
            return (r, usize::MAX);
        }
        if let Some(depth) = stack.iter().position(|&p| p == (y, x)) {
            // Coinductive hypothesis: assume the pair holds (greatest
            // fixpoint semantics, mirroring the ⊤ initialisation of the
            // worklist solver).
            return (true, depth);
        }
        self.visits += 1;
        let my_depth = stack.len();
        stack.push((y, x));
        // Borrow the constraints through the shared `'a` reference, not
        // through `self`, so the recursive `prove` calls below need no
        // per-frame clone of the source lists.
        let sys = self.sys;
        let (holds, mut lowest) = match self.def_of[x as usize] {
            None => (false, usize::MAX),
            Some(ci) => match &sys.constraints[ci as usize] {
                Constraint::Init { .. } => (false, usize::MAX),
                Constraint::Copy { source, .. } => {
                    let s = source.raw();
                    self.prove(y, s, stack)
                }
                Constraint::Union { elems, sources, .. } => {
                    if elems.contains(&VarId::new(y)) {
                        (true, usize::MAX)
                    } else {
                        let mut lowest = usize::MAX;
                        let mut holds = false;
                        for s in sources {
                            let (h, l) = self.prove(y, s.raw(), stack);
                            if h {
                                holds = true;
                                lowest = l;
                                break;
                            }
                        }
                        (holds, lowest)
                    }
                }
                Constraint::Inter { sources, .. } => {
                    let mut lowest = usize::MAX;
                    let mut holds = true;
                    for s in sources {
                        let (h, l) = self.prove(y, s.raw(), stack);
                        lowest = lowest.min(l);
                        if !h {
                            holds = false;
                            break;
                        }
                    }
                    (holds, lowest)
                }
            },
        };
        stack.pop();
        // An assumption at `my_depth` was the pair itself — discharged
        // coinductively by this very frame.
        if lowest >= my_depth {
            lowest = usize::MAX;
        }
        // Negative answers never lean on assumptions (assumptions only
        // ever help); positive answers are cacheable once all their
        // assumptions are discharged.
        if !holds || lowest == usize::MAX {
            self.memo.insert((y, x), holds);
        }
        (holds, lowest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::GenConfig;
    use crate::solver::solve_worklist;

    fn v(i: u32) -> VarId {
        VarId::new(i)
    }

    fn vs(ids: &[u32]) -> Vec<VarId> {
        ids.iter().copied().map(VarId::new).collect()
    }

    fn bare_system(constraints: Vec<Constraint>, num_vars: usize) -> ConstraintSystem {
        ConstraintSystem {
            constraints,
            num_vars,
            param_info: vec![],
            param_union: Default::default(),
        }
    }

    /// On-demand answers must equal the closure's answers — on the paper's
    /// Example 3.4 system.
    #[test]
    fn agrees_with_solver_on_paper_example() {
        use Constraint as C;
        let constraints = vec![
            C::Init { x: v(0) },
            C::Union { x: v(1), elems: vs(&[0]), sources: vs(&[0]) },
            C::Inter { x: v(2), sources: vs(&[1, 3]) },
            C::Union { x: v(3), elems: vs(&[2]), sources: vs(&[2]) },
            C::Init { x: v(4) },
            C::Union { x: v(5), elems: vs(&[4]), sources: vs(&[2]) },
            C::Union { x: v(7), elems: vs(&[9]), sources: vs(&[9, 1]) },
            C::Copy { x: v(8), source: v(1) },
            C::Union { x: v(10), elems: vec![], sources: vs(&[8, 4]) },
            C::Copy { x: v(9), source: v(4) },
            C::Inter { x: v(6), sources: vs(&[3, 9, 4]) },
        ];
        let sys = bare_system(constraints, 11);
        let solution = solve_worklist(&sys.constraints, sys.num_vars);
        let mut prover = OnDemandProver::new(&sys);
        for x in 0..11 {
            for y in 0..11 {
                assert_eq!(
                    prover.less_than(v(y), v(x)),
                    solution.less_than(v(y), v(x)),
                    "disagreement on {y} < {x}"
                );
            }
        }
    }

    /// Differential test over real programs: identical verdicts on every
    /// pair of variables of the first functions.
    #[test]
    fn agrees_with_solver_on_compiled_programs() {
        for src in [
            "int f(int* v, int n) { for (int i = 0; i < n; i++) { for (int j = i + 1; j < n; j++) { v[i] = v[j]; } } return 0; }",
            "int g(int x) { int y = x - 1; int z = y + 2; if (z < x) return z; return x; }",
            "int h(int* p, int n) { int* pe = p + n; int s = 0; for (int* pi = p; pi < pe; pi++) s += *pi; return s; }",
        ] {
            let mut m = sraa_minic::compile(src).unwrap();
            let (ranges, _) = sraa_essa::transform_module(&mut m);
            let sys = crate::constraints::generate(&m, &ranges, GenConfig::default());
            let solution = solve_worklist(&sys.constraints, sys.num_vars);
            let mut prover = OnDemandProver::new(&sys);
            let n = sys.num_vars.min(160) as u32;
            for x in 0..n {
                for y in 0..n {
                    assert_eq!(
                        prover.less_than(v(y), v(x)),
                        solution.less_than(v(y), v(x)),
                        "disagreement on {y} < {x} for: {src}"
                    );
                }
            }
        }
    }

    /// The coinductive cycle rule matches the solver's greatest fixpoint
    /// on φ-loops (i = φ(c, i+1)).
    #[test]
    fn phi_cycles_resolve_coinductively() {
        use Constraint as C;
        let sys = bare_system(
            vec![
                C::Init { x: v(0) },
                C::Inter { x: v(1), sources: vs(&[0, 2]) },
                C::Union { x: v(2), elems: vs(&[1]), sources: vs(&[1]) },
            ],
            3,
        );
        let mut prover = OnDemandProver::new(&sys);
        assert!(prover.less_than(v(1), v(2)), "i < i+1");
        assert!(!prover.less_than(v(2), v(1)));
        assert!(!prover.less_than(v(0), v(1)));
        // Memoisation must not corrupt later queries.
        assert!(prover.less_than(v(1), v(2)));
        assert!(!prover.less_than(v(2), v(2)));
    }

    /// Ungrounded union cycles stay ⊤ in the solver (then frozen); the
    /// prover's coinduction answers `true` for them — this is the one
    /// *documented* divergence, matching the unfrozen gfp. Such cycles can
    /// only exist in code unreachable from any grounded definition.
    #[test]
    fn ungrounded_cycles_are_the_documented_divergence() {
        use Constraint as C;
        let sys = bare_system(
            vec![
                C::Union { x: v(0), elems: vs(&[1]), sources: vs(&[1]) },
                C::Union { x: v(1), elems: vs(&[0]), sources: vs(&[0]) },
            ],
            2,
        );
        let solution = solve_worklist(&sys.constraints, sys.num_vars);
        let mut prover = OnDemandProver::new(&sys);
        // Solver freezes ⊤ → ∅ (conservative); prover reports the raw gfp.
        assert!(!solution.less_than(v(0), v(1)));
        assert!(solution.was_top(v(1)), "the solution records the frozen ⊤");
        assert!(prover.less_than(v(0), v(1)), "raw greatest fixpoint keeps the cycle at ⊤");
    }

    mod properties {
        use super::*;
        use crate::test_systems::grounded_systems;
        use proptest::prelude::*;

        proptest! {
            /// On random *grounded* constraint graphs (every variable has
            /// a defining constraint — the invariant real constraint
            /// generation upholds), the on-demand prover answers exactly
            /// the exhaustive fixpoint, modulo the documented freeze
            /// divergence: where the exhaustive solution froze a ⊤ (an
            /// ungrounded cycle), the prover reports the raw greatest
            /// fixpoint, i.e. `true` for every candidate.
            #[test]
            fn on_demand_equals_exhaustive_fixpoint((cs, n) in grounded_systems()) {
                let sys = ConstraintSystem {
                    constraints: cs,
                    num_vars: n,
                    param_info: vec![],
                    param_union: Default::default(),
                };
                let solution = solve_worklist(&sys.constraints, sys.num_vars);
                let mut prover = OnDemandProver::new(&sys);
                for x in 0..n as u32 {
                    for y in 0..n as u32 {
                        let expected = solution.was_top(v(x)) || solution.less_than(v(y), v(x));
                        prop_assert_eq!(
                            prover.less_than(v(y), v(x)),
                            expected,
                            "disagreement on {} < {} (frozen: {})",
                            y, x, solution.was_top(v(x))
                        );
                    }
                }
            }
        }
    }
}
