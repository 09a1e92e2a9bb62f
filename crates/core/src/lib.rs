//! `sraa-core` — **Pointer Disambiguation via Strict Inequalities**
//! (Maalej, Paisante, Ramos, Gonnord & Pereira — CGO 2017).
//!
//! This crate is the paper's primary contribution: a sparse, inter-
//! procedural *less-than* dataflow analysis whose invariant is
//!
//! > if `x′ ∈ LT(x)`, then `x′ < x` at every program point where both
//! > variables are simultaneously alive (paper Corollary 3.10),
//!
//! and the observation that makes it an alias analysis:
//!
//! > if `p1 < p2`, then `p1` and `p2` cannot alias.
//!
//! # Architecture — the `DisambiguationEngine`
//!
//! Everything hangs off one pipeline, owned end to end by the
//! [`DisambiguationEngine`]:
//!
//! ```text
//!   ┌──────────┐  σ/sub splits  ┌─────────┐  Figure 7, per function  ┌───────────────┐
//!   │SSA module│───(sraa-essa)─▶│  e-SSA  │─────────────────────────▶│ConstraintSystem│
//!   └──────────┘                └─────────┘                          └───────┬───────┘
//!                                                                           │
//!                            solve: SCC condensation (§6 answer),           │
//!                            one DenseStore arena                           │
//!                                           ┌───────────────────────────────┘
//!                                           ▼
//!                                      ┌──────────┐   point and batch pair queries
//!                                      │ Solution │──▶ queries: less_than · lt_set ·
//!                                      └──────────┘            no_alias · histograms
//! ```
//!
//! 1. **e-SSA conversion** ([`sraa_essa`]) splits live ranges at
//!    conditionals (σ-copies) and subtractions, giving the analysis the
//!    Static Single Information property — one abstract state per name.
//! 2. **Range analysis** ([`sraa_range`]) classifies `x1 = x2 + x3` as
//!    addition/subtraction by operand signs.
//! 3. **Constraint generation** ([`constraints`], the paper's Figure 7) —
//!    `O(|V|)`, one pass per function; variables are interned
//!    [`VarId`]s.
//! 4. **Fixpoint solving** over the lattice `⟨V, ∩, ∅, V, ⊆⟩`, descending
//!    from ⊤, through [`solve`]: SCC condensation with topological
//!    scheduling, the one production schedule. The paper's FIFO worklist,
//!    [`solve_worklist`], is kept beside it as the reference the
//!    differential tests compare against and for the paper's pop counts;
//!    no production path calls it. Both propagate change-by-change
//!    through one flat CSR/bitset lattice arena and return the same
//!    [`Solution`].
//! 5. **Disambiguation** (paper Definition 3.11):
//!    [`no_alias`](DisambiguationEngine::no_alias) — `p1 ∈ LT(p2)` ∨
//!    `p2 ∈ LT(p1)` (criterion 1), or both derived from one base with
//!    strictly ordered variable offsets (criterion 2) — evaluated
//!    directly on every query (a few membership probes on `LT` sets that
//!    are almost always tiny), with a batch all-pairs API.
//!
//! The engine is a plain immutable value built on the calling thread: it
//! keeps no query memo, spawns no threads, reads and writes no files and
//! prints nothing. Summary reuse goes through caller-held
//! [`SummaryCache`] and [`SharedSummaryStore`] handles, and a failed
//! publish to the store is returned as a value
//! ([`DisambiguationEngine::store_warning`]).
//!
//! Consumers (the `sraa-alias` backends, `sraa-pentagon`, the `sraa-opt`
//! passes, `sraa-pdg`, the `sraa` CLI) hold an engine — usually behind an
//! `Arc` — and query it; none of them constructs solvers.
//!
//! # Example — the paper's motivating loop
//!
//! ```
//! use sraa_core::{DisambiguationEngine, EngineConfig};
//!
//! let mut module = sraa_minic::compile(r#"
//!     void f(int* v, int N) {
//!         for (int i = 0, j = N; i < j; i++, j--) v[i] = v[j];
//!     }
//! "#).unwrap();
//! let lt = DisambiguationEngine::build(&mut module, EngineConfig::default());
//!
//! // find the store (v[i]) and load (v[j]) addresses:
//! let fid = module.function_by_name("f").unwrap();
//! let f = module.function(fid);
//! let mut load_ptr = None;
//! let mut store_ptr = None;
//! for b in f.block_ids() {
//!     for (_, d) in f.block_insts(b) {
//!         match d.kind {
//!             sraa_ir::InstKind::Load { ptr } => load_ptr = Some(ptr),
//!             sraa_ir::InstKind::Store { ptr, .. } => store_ptr = Some(ptr),
//!             _ => {}
//!         }
//!     }
//! }
//! assert!(lt.no_alias(f, fid, load_ptr.unwrap(), store_ptr.unwrap()),
//!         "v[i] and v[j] cannot alias while i < j");
//! ```

pub mod analysis;
pub mod constraints;
pub mod engine;
pub(crate) mod fast_solver;
pub(crate) mod lattice;
#[cfg(test)]
pub(crate) mod lt_set;
pub mod persist;
pub(crate) mod setops;
pub mod solver;
pub mod store;
pub mod summary;
#[cfg(test)]
pub(crate) mod test_systems;
pub mod var_index;

pub use analysis::derived_pointer;
pub use constraints::{generate, generate_with_summaries, Constraint, ConstraintSystem, GenConfig};
pub use engine::{Contextuality, DisambiguationEngine, EngineConfig};
pub use persist::{SummaryCache, SummaryKeys, FORMAT_VERSION};
pub use solver::{solve, solve_worklist, Solution, SolveStats};
pub use store::{SharedSummaryStore, StoreOutcome};
pub use summary::{CacheOutcome, FunctionSummary, ModuleSummaries, SummaryStats};
pub use var_index::{VarId, VarIndex};
