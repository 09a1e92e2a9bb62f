//! `sraa-ir` — the SSA intermediate representation substrate for the
//! strict-inequalities pointer-disambiguation analyses.
//!
//! The CGO 2017 paper "Pointer Disambiguation via Strict Inequalities"
//! implements its analyses as LLVM 3.7 passes. This crate provides the
//! corresponding substrate from scratch: a typed, strict-SSA, load/store IR
//! with φ-functions, GEP-style pointer arithmetic, allocation sites,
//! comparisons and conditional branches — i.e. exactly the IR surface the
//! paper's constraint rules (its Figure 2/4 core language, embedded in full
//! LLVM IR) consume.
//!
//! Beyond the representation itself the crate ships the classic analyses and
//! tools every pass in the pipeline needs:
//!
//! * [`mod@cfg`] — control-flow graph, reverse post-order;
//! * [`callgraph`] — the direct call graph and its SCC condensation in
//!   bottom-up (callees-first) order, the substrate of the
//!   interprocedural summary layer;
//! * [`scc`] — strongly connected components of any graph (iterative
//!   Tarjan), shared by the call-graph condensation and the LT solver;
//! * [`dom`] — dominator and post-dominator trees (one Cooper–Harvey–Kennedy
//!   solve) and dominance queries;
//! * [`fingerprint`] — endianness-stable content hashes of function
//!   bodies, the per-body half of the incremental summary key;
//! * [`liveness`] — SSA live-in/live-out sets;
//! * [`defuse`] — def-use chains;
//! * [`verifier`] — SSA and type well-formedness checks;
//! * [`printer`] — the textual format that `sraa compile` prints;
//! * [`interp`] — a concrete interpreter with an observable trace, used by
//!   the property-based tests to validate the paper's adequacy theorem
//!   (Theorem 3.9) and the no-alias answers dynamically.
//!
//! # Example
//!
//! ```
//! use sraa_ir::{FunctionBuilder, Module, Type, BinOp, Pred};
//!
//! let mut module = Module::new();
//! let f = module.declare_function("iota_sum", vec![("n", Type::Int)], Some(Type::Int));
//! let mut b = FunctionBuilder::new(module.function_mut(f));
//! let entry = b.current_block();
//! let header = b.create_block();
//! let body = b.create_block();
//! let exit = b.create_block();
//!
//! let n = b.param(0);
//! let zero = b.iconst(0);
//! let one = b.iconst(1);
//! b.jump(header);
//!
//! b.switch_to(header);
//! let i = b.phi(Type::Int);
//! let s = b.phi(Type::Int);
//! let c = b.cmp(Pred::Lt, i, n);
//! b.br(c, body, exit);
//!
//! b.switch_to(body);
//! let s2 = b.binary(BinOp::Add, s, i);
//! let i2 = b.binary(BinOp::Add, i, one);
//! b.jump(header);
//!
//! b.switch_to(exit);
//! b.ret(Some(s));
//!
//! b.set_phi_incomings(i, vec![(entry, zero), (body, i2)]);
//! b.set_phi_incomings(s, vec![(entry, zero), (body, s2)]);
//! b.finish();
//!
//! sraa_ir::verify(&module).unwrap();
//! ```

pub mod bitset;
pub mod builder;
pub mod callgraph;
pub mod cfg;
pub mod defuse;
pub mod dom;
pub mod fingerprint;
pub mod function;
pub mod ids;
pub mod inst;
pub mod interp;
pub mod liveness;
pub mod loops;
pub mod module;
pub mod printer;
pub mod scc;
pub mod stats;
pub mod types;
pub mod verifier;

pub use bitset::{BitMatrix, DenseBitSet};
pub use builder::FunctionBuilder;
pub use callgraph::{CallGraph, Condensation};
pub use cfg::Cfg;
pub use defuse::DefUse;
pub use dom::{DomTree, PostDomTree};
pub use fingerprint::{body_fingerprint, Fnv64};
pub use function::{Block, Function};
pub use ids::{BlockId, FuncId, GlobalId, Value};
pub use inst::{BinOp, CopyOrigin, InstData, InstKind, Pred};
pub use interp::{ExecError, Frame, Interpreter, Observer, Trace};
pub use liveness::Liveness;
pub use loops::{Loop, LoopForest};
pub use module::{Global, Module};
pub use stats::ModuleStats;
pub use types::Type;
pub use verifier::{verify, verify_function, VerifyError};
