//! `sraa-range` — interval range analysis for the `sraa` SSA IR.
//!
//! The paper's less-than analysis (its Section 3.2) "uses range analysis to
//! know that one, or the two, terms of an addition are negative": given
//! `x1 = x2 + x3` with `R(x3) = [l, u]`, the instruction is treated as an
//! addition when `l > 0`, a subtraction when `u < 0`, and generates no
//! constraint otherwise. This crate provides that `R(·)`, in the style the
//! paper cites (Cousot intervals, computed sparsely on e-SSA form with the
//! branch refinements of Rodrigues et al.).
//!
//! # Example
//!
//! ```
//! use sraa_minic::compile;
//!
//! let m = compile("int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += 1; return s; }")
//!     .unwrap();
//! let ranges = sraa_range::analyze(&m);
//! let f = m.function_by_name("f").unwrap();
//! // Every value has an interval; constants are singletons.
//! for v in m.function(f).value_ids() {
//!     let _ = ranges.range(f, v);
//! }
//! ```

pub mod analysis;
pub mod interval;

pub use analysis::{analyze, RangeAnalysis};
pub use interval::{Bound, Interval};
