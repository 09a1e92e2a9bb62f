//! `sraa-pentagon` — the Pentagon abstract domain, dense.
//!
//! The paper's Section 5 singles out Logozzo & Fähndrich's *Pentagons*
//! as the closest prior abstract domain to its less-than analysis: the
//! combination of integer intervals with per-variable *strict upper
//! bound* sets ("`y ∈ s(x)` ⇒ `x < y`"). Pentagons prove the same kind
//! of ordering facts — including `x2 > x1` from `x1 = x2 − x3, x3 > 0`,
//! which ABCD misses — but as originally described they are a **dense**
//! analysis: one abstract state per program point, no live-range
//! splitting, and explicit invalidation when a loop re-defines a name.
//!
//! This crate implements that dense formulation faithfully over the
//! workspace IR:
//!
//! * [`PentagonState`] — the per-point state (intervals × strict upper
//!   bounds) with the join/widen/refine/transfer algebra, stored as flat
//!   vectors sorted by value, so joins and widenings are linear merges;
//! * [`PentagonAnalysis`] — the forward Kleene fixpoint with branch
//!   refinement, infeasible-edge pruning and loop widening, which keeps
//!   one state per block entry and answers queries about any value by
//!   replaying the block prefix up to its definition;
//! * [`FactTable`] — the same facts tabulated once per function at the
//!   definitions of a query set, so a query is a few bit tests: the dense
//!   fixpoint served sparsely.
//!
//! Two claims from the paper's Section 5 become measurable with it:
//!
//! 1. *"Logozzo and Fähndrich build less-than and range relations
//!    together, whereas our analysis first builds range information,
//!    then uses it to compute less-than relations … decoupling both
//!    analyses leads to simpler implementations."* — compare this
//!    crate's transfer functions with `sraa-core`'s four constraint
//!    rules.
//! 2. *"We have not found thus far examples in which one approach yields
//!    better results than the other."* — the `pentagon_vs_lt` harness
//!    (`cargo run -p sraa-bench --bin pentagon_vs_lt`) runs both over
//!    the evaluation corpus and reports agreements and divergences.
//!
//! The alias-analysis adapter lives in `sraa-alias`
//! (`PentagonAa`), next to the other disambiguation methods.

pub mod analysis;
pub mod facts;
pub mod state;

pub use analysis::PentagonAnalysis;
pub use facts::FactTable;
pub use state::PentagonState;
