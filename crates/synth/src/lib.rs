//! `sraa-synth` — deterministic workload generators for the evaluation.
//!
//! The paper evaluates on three program populations, none of which can be
//! redistributed here: SPEC CPU 2006 (proprietary), the LLVM test-suite
//! (huge) and Csmith-generated C (tool-specific). This crate synthesises
//! stand-ins for all three:
//!
//! * [`spec`] — 16 named profiles reproducing the *shape* of Figure 9/10
//!   (which analysis wins on which benchmark, and by roughly how much);
//! * [`suite`] — a 100-benchmark size ladder for Figure 8 and the
//!   Figure 11 scalability study;
//! * [`csmith`] — single-function random programs with pointer nesting
//!   depths 2–7 for Figure 12, guaranteed trap-free so the dynamic
//!   soundness property tests can execute them (an optional
//!   [`CsmithConfig::helpers`] knob adds helper functions and call
//!   sites, for the interprocedural differential tests);
//! * [`calls`] — the call-heavy family (helper bounds checks, chained
//!   helpers, recursive partitions) that measures the interprocedural
//!   summary layer (`sraa eval --interproc`), beyond the paper.
//!
//! Everything is deterministic: same seed, same program.

pub mod calls;
pub mod csmith;
pub mod optk;
pub mod spec;
pub mod suite;

/// A generated benchmark: a name and its MiniC source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Workload {
    /// Benchmark name (unique within a generated set).
    pub name: String,
    /// MiniC source text, compilable by [`sraa_minic::compile`].
    pub source: String,
}

pub use calls::{call_suite, wide_module};
pub use csmith::{generate as csmith_generate, CsmithConfig};
pub use optk::{all as optk_all, generate as optk_generate};
pub use spec::{
    all as spec_all, generate_by_name as spec_generate_by_name, profiles as spec_profiles, Profile,
};
pub use suite::{csmith_figure12, test_suite};
