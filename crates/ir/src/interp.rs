//! A concrete interpreter for the IR.
//!
//! The interpreter exists to *validate the static analyses dynamically*:
//! the paper proves (its Theorem 3.9 / Corollary 3.10) that whenever
//! `x' ∈ LT(x)` and both variables are simultaneously alive, the run-time
//! value of `x'` is strictly smaller than that of `x`. Our property-based
//! tests execute randomly generated programs under this interpreter and
//! check exactly that, as well as the no-alias verdicts of the alias
//! analyses against concrete addresses.
//!
//! The memory model is a flat 64-bit address space with bump allocation:
//! every `alloca`/`malloc`/global gets a fresh, never-reused range, and all
//! scalars occupy [`Type::SIZE`] bytes. Addresses start above 0 so null is
//! never a valid location.

use crate::function::Function;
use crate::ids::{BlockId, FuncId, Value};
use crate::inst::{BinOp, InstKind};
use crate::module::Module;
use crate::types::Type;
use std::collections::HashMap;
use std::fmt;

/// Execution failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The step budget was exhausted (possible non-termination).
    StepLimit,
    /// Division or remainder by zero.
    DivByZero,
    /// A load or store touched an address outside every live allocation.
    OutOfBounds {
        /// Offending address.
        addr: i64,
    },
    /// Call stack exceeded the recursion limit.
    StackOverflow,
    /// The requested entry function does not exist.
    NoSuchFunction(String),
    /// Wrong number of entry arguments.
    ArityMismatch,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::StepLimit => write!(f, "step limit exhausted"),
            ExecError::DivByZero => write!(f, "division by zero"),
            ExecError::OutOfBounds { addr } => write!(f, "memory access out of bounds at {addr}"),
            ExecError::StackOverflow => write!(f, "call stack overflow"),
            ExecError::NoSuchFunction(n) => write!(f, "no such function `{n}`"),
            ExecError::ArityMismatch => write!(f, "entry argument count mismatch"),
        }
    }
}

impl std::error::Error for ExecError {}

/// A function activation record, exposed to [`Observer`]s.
#[derive(Clone, Debug)]
pub struct Frame {
    /// The executing function.
    pub func: FuncId,
    regs: Vec<Option<i64>>,
}

impl Frame {
    /// The concrete value of `v` in this frame, if defined yet.
    pub fn get(&self, v: Value) -> Option<i64> {
        self.regs.get(v.index()).copied().flatten()
    }
}

/// Hooks invoked during execution. All methods default to no-ops.
pub trait Observer {
    /// Called after a value-producing instruction assigns `value` to `v`.
    fn on_def(&mut self, frame: &Frame, v: Value, value: i64) {
        let _ = (frame, v, value);
    }

    /// Called on every memory access (after the address is computed,
    /// before the trap check). `inst` is the load or store instruction.
    fn on_access(&mut self, frame: &Frame, inst: Value, addr: i64, is_store: bool) {
        let _ = (frame, inst, addr, is_store);
    }
}

/// An [`Observer`] that observes nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// Result of a successful execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Instructions executed.
    pub steps: u64,
    /// Value returned by the entry function, if any.
    pub result: Option<i64>,
}

/// Interprets a [`Module`]. See the module docs for the memory model.
#[derive(Debug)]
pub struct Interpreter<'m> {
    module: &'m Module,
    step_limit: u64,
    recursion_limit: usize,
    memory: HashMap<i64, i64>,
    /// Live allocations as (start, size_in_bytes), bump-allocated.
    allocations: Vec<(i64, i64)>,
    bump: i64,
    global_base: Vec<i64>,
    external_base: Option<i64>,
    steps: u64,
}

impl<'m> Interpreter<'m> {
    /// Creates an interpreter with globals pre-allocated.
    pub fn new(module: &'m Module) -> Self {
        let mut interp = Self {
            module,
            step_limit: 1_000_000,
            recursion_limit: 128,
            memory: HashMap::new(),
            allocations: Vec::new(),
            bump: 64, // null page
            global_base: Vec::new(),
            external_base: None,
            steps: 0,
        };
        for (_, g) in module.globals() {
            let base = interp.allocate(g.count as i64);
            interp.global_base.push(base);
        }
        interp
    }

    /// Sets the instruction budget (default one million).
    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// Lazily allocates the buffer behind pointer-typed [`InstKind::Opaque`]
    /// values (64 scalar cells; all opaque pointers land in its first 8).
    fn external_buffer(&mut self) -> i64 {
        match self.external_base {
            Some(b) => b,
            None => {
                let b = self.allocate(64);
                self.external_base = Some(b);
                b
            }
        }
    }

    fn allocate(&mut self, count: i64) -> i64 {
        let count = count.max(0);
        let base = self.bump;
        let size = count * Type::SIZE;
        self.allocations.push((base, size));
        // Pad between allocations so "one past the end" of one object is
        // never the base of the next (mirrors real allocator slack and
        // avoids false must-alias at object boundaries).
        self.bump += size + Type::SIZE;
        base
    }

    fn check_access(&self, addr: i64) -> Result<(), ExecError> {
        // Allocations are bump-allocated in increasing order: binary search.
        let idx = self.allocations.partition_point(|&(start, _)| start <= addr);
        if idx > 0 {
            let (start, size) = self.allocations[idx - 1];
            if addr >= start
                && addr + Type::SIZE <= start + size
                && (addr - start) % Type::SIZE == 0
            {
                return Ok(());
            }
        }
        Err(ExecError::OutOfBounds { addr })
    }

    /// Runs function `name` with integer `args`, without observation.
    ///
    /// # Errors
    ///
    /// Propagates any [`ExecError`] raised during execution.
    pub fn run(&mut self, name: &str, args: &[i64]) -> Result<Trace, ExecError> {
        self.run_observed(name, args, &mut NullObserver)
    }

    /// Runs function `name` with integer `args`, reporting events to `obs`.
    ///
    /// # Errors
    ///
    /// Propagates any [`ExecError`] raised during execution.
    pub fn run_observed(
        &mut self,
        name: &str,
        args: &[i64],
        obs: &mut dyn Observer,
    ) -> Result<Trace, ExecError> {
        let fid = self
            .module
            .function_by_name(name)
            .ok_or_else(|| ExecError::NoSuchFunction(name.to_string()))?;
        self.steps = 0;
        let result = self.call(fid, args, 0, obs)?;
        Ok(Trace { steps: self.steps, result })
    }

    fn call(
        &mut self,
        fid: FuncId,
        args: &[i64],
        depth: usize,
        obs: &mut dyn Observer,
    ) -> Result<Option<i64>, ExecError> {
        if depth > self.recursion_limit {
            return Err(ExecError::StackOverflow);
        }
        let f = self.module.function(fid);
        if args.len() != f.params.len() {
            return Err(ExecError::ArityMismatch);
        }
        let mut frame = Frame { func: fid, regs: vec![None; f.num_insts()] };

        let mut block = f.entry();
        let mut prev: Option<BlockId> = None;
        loop {
            match self.exec_block(f, fid, block, prev, &mut frame, args, depth, obs)? {
                Flow::Jump(next) => {
                    prev = Some(block);
                    block = next;
                }
                Flow::Return(v) => return Ok(v),
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_block(
        &mut self,
        f: &Function,
        fid: FuncId,
        block: BlockId,
        prev: Option<BlockId>,
        frame: &mut Frame,
        args: &[i64],
        depth: usize,
        obs: &mut dyn Observer,
    ) -> Result<Flow, ExecError> {
        // φ-functions read their incomings w.r.t. the edge taken, all
        // "in parallel" (before any is written back).
        let insts: Vec<Value> = f.block(block).insts.clone();
        let mut phi_writes: Vec<(Value, i64)> = Vec::new();
        for &v in &insts {
            if let InstKind::Phi { incomings } = &f.inst(v).kind {
                let pred = prev.expect("phi in entry block");
                let (_, arg) = incomings
                    .iter()
                    .find(|(b, _)| *b == pred)
                    .expect("phi must cover the incoming edge (verifier)");
                let val = frame.get(*arg).expect("phi operand must be defined");
                phi_writes.push((v, val));
            }
        }
        for (v, val) in phi_writes {
            frame.regs[v.index()] = Some(val);
            obs.on_def(frame, v, val);
            self.tick()?;
        }

        for &v in &insts {
            let data = f.inst(v);
            let get = |frame: &Frame, x: Value| frame.get(x).expect("operand must be defined");
            match &data.kind {
                InstKind::Phi { .. } => continue, // handled above
                InstKind::Const(c) => {
                    self.define(frame, v, *c, obs)?;
                }
                InstKind::Param(i) => {
                    let val = args[*i as usize];
                    self.define(frame, v, val, obs)?;
                }
                InstKind::Binary { op, lhs, rhs } => {
                    let a = get(frame, *lhs);
                    let b = get(frame, *rhs);
                    // Pointer ± int scales the int by the element size;
                    // ptr − ptr yields an element count.
                    let val = match op {
                        BinOp::Add => {
                            if f.value_type(*lhs).is_some_and(Type::is_ptr) {
                                a.wrapping_add(b.wrapping_mul(Type::SIZE))
                            } else {
                                a.wrapping_add(b)
                            }
                        }
                        BinOp::Sub => {
                            match (
                                f.value_type(*lhs).is_some_and(Type::is_ptr),
                                f.value_type(*rhs).is_some_and(Type::is_ptr),
                            ) {
                                (true, true) => a.wrapping_sub(b) / Type::SIZE,
                                (true, false) => a.wrapping_sub(b.wrapping_mul(Type::SIZE)),
                                _ => a.wrapping_sub(b),
                            }
                        }
                        BinOp::Mul => a.wrapping_mul(b),
                        BinOp::Div => {
                            if b == 0 {
                                return Err(ExecError::DivByZero);
                            }
                            a.wrapping_div(b)
                        }
                        BinOp::Rem => {
                            if b == 0 {
                                return Err(ExecError::DivByZero);
                            }
                            a.wrapping_rem(b)
                        }
                    };
                    self.define(frame, v, val, obs)?;
                }
                InstKind::Cmp { pred, lhs, rhs } => {
                    let val = pred.eval(get(frame, *lhs), get(frame, *rhs)) as i64;
                    self.define(frame, v, val, obs)?;
                }
                InstKind::Copy { src, .. } => {
                    let val = get(frame, *src);
                    self.define(frame, v, val, obs)?;
                }
                InstKind::Alloca { count } | InstKind::Malloc { count } => {
                    let n = get(frame, *count);
                    let base = self.allocate(n);
                    self.define(frame, v, base, obs)?;
                }
                InstKind::GlobalAddr(g) => {
                    let base = self.global_base[g.index()];
                    self.define(frame, v, base, obs)?;
                }
                InstKind::Gep { base, offset } => {
                    let val = get(frame, *base)
                        .wrapping_add(get(frame, *offset).wrapping_mul(Type::SIZE));
                    self.define(frame, v, val, obs)?;
                }
                InstKind::Load { ptr } => {
                    let addr = get(frame, *ptr);
                    obs.on_access(frame, v, addr, false);
                    self.check_access(addr)?;
                    let val = self.memory.get(&addr).copied().unwrap_or(0);
                    self.define(frame, v, val, obs)?;
                }
                InstKind::Store { ptr, value } => {
                    let addr = get(frame, *ptr);
                    obs.on_access(frame, v, addr, true);
                    self.check_access(addr)?;
                    let val = get(frame, *value);
                    self.memory.insert(addr, val);
                    self.tick()?;
                }
                InstKind::Call { callee, args: actuals } => {
                    let vals: Vec<i64> = actuals.iter().map(|&a| get(frame, a)).collect();
                    self.tick()?;
                    let r = self.call(*callee, &vals, depth + 1, obs)?;
                    if data.has_result() {
                        let val = r.expect("verifier ensures result presence");
                        frame.regs[v.index()] = Some(val);
                        obs.on_def(frame, v, val);
                    }
                }
                InstKind::Opaque => {
                    let val = if data.ty.is_some_and(Type::is_ptr) {
                        // Pointer-typed external input: a valid pointer
                        // into a dedicated "external" buffer, so programs
                        // may dereference it (modelling I/O buffers).
                        let base = self.external_buffer();
                        let off = (self.steps as i64 % 8) * Type::SIZE;
                        base + off
                    } else {
                        // Deterministic pseudo-input from the step count.
                        (self.steps as i64).wrapping_mul(2654435761) % 1024
                    };
                    self.define(frame, v, val, obs)?;
                }
                InstKind::Br { cond, then_bb, else_bb } => {
                    self.tick()?;
                    let c = get(frame, *cond);
                    return Ok(Flow::Jump(if c != 0 { *then_bb } else { *else_bb }));
                }
                InstKind::Jump(t) => {
                    self.tick()?;
                    return Ok(Flow::Jump(*t));
                }
                InstKind::Ret(rv) => {
                    self.tick()?;
                    return Ok(Flow::Return(rv.map(|x| get(frame, x))));
                }
            }
        }
        unreachable!("verifier guarantees every block ends in a terminator (@{} {})", fid, block)
    }

    fn define(
        &mut self,
        frame: &mut Frame,
        v: Value,
        val: i64,
        obs: &mut dyn Observer,
    ) -> Result<(), ExecError> {
        frame.regs[v.index()] = Some(val);
        obs.on_def(frame, v, val);
        self.tick()
    }

    fn tick(&mut self) -> Result<(), ExecError> {
        self.steps += 1;
        if self.steps > self.step_limit {
            Err(ExecError::StepLimit)
        } else {
            Ok(())
        }
    }
}

enum Flow {
    Jump(BlockId),
    Return(Option<i64>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::Pred;

    fn sum_module() -> Module {
        // main(n): s = 0; for (i = 0; i < n; i++) s += i; return s;
        let mut m = Module::new();
        let fid = m.declare_function("main", vec![("n", Type::Int)], Some(Type::Int));
        let f = m.function_mut(fid);
        let mut b = FunctionBuilder::new(f);
        let entry = b.current_block();
        let header = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        let n = b.param(0);
        let zero = b.iconst(0);
        let one = b.iconst(1);
        b.jump(header);
        b.switch_to(header);
        let i = b.phi(Type::Int);
        let s = b.phi(Type::Int);
        let c = b.cmp(Pred::Lt, i, n);
        b.br(c, body, exit);
        b.switch_to(body);
        let s2 = b.binary(BinOp::Add, s, i);
        let i2 = b.binary(BinOp::Add, i, one);
        b.jump(header);
        b.switch_to(exit);
        b.ret(Some(s));
        b.set_phi_incomings(i, vec![(entry, zero), (body, i2)]);
        b.set_phi_incomings(s, vec![(entry, zero), (body, s2)]);
        b.finish();
        m
    }

    #[test]
    fn computes_triangular_numbers() {
        let m = sum_module();
        crate::verifier::verify(&m).unwrap();
        for n in [0i64, 1, 5, 10] {
            let mut interp = Interpreter::new(&m);
            let t = interp.run("main", &[n]).unwrap();
            assert_eq!(t.result, Some(n * (n - 1) / 2), "sum below {n}");
        }
    }

    #[test]
    fn memory_reads_back_stores() {
        // main(): p = alloca 4; p[2] = 7; return p[2] + p[0] (p[0] is 0).
        let mut m = Module::new();
        let fid = m.declare_function("main", vec![], Some(Type::Int));
        let f = m.function_mut(fid);
        let mut b = FunctionBuilder::new(f);
        let four = b.iconst(4);
        let two = b.iconst(2);
        let seven = b.iconst(7);
        let zero = b.iconst(0);
        let p = b.alloca(Type::Int, four);
        let p2 = b.gep(p, two);
        b.store(p2, seven);
        let x = b.load(p2);
        let p0 = b.gep(p, zero);
        let y = b.load(p0);
        let r = b.binary(BinOp::Add, x, y);
        b.ret(Some(r));
        b.finish();
        let mut interp = Interpreter::new(&m);
        assert_eq!(interp.run("main", &[]).unwrap().result, Some(7));
    }

    #[test]
    fn out_of_bounds_traps() {
        let mut m = Module::new();
        let fid = m.declare_function("main", vec![], Some(Type::Int));
        let f = m.function_mut(fid);
        let mut b = FunctionBuilder::new(f);
        let one = b.iconst(1);
        let ten = b.iconst(10);
        let p = b.alloca(Type::Int, one);
        let q = b.gep(p, ten);
        let x = b.load(q);
        b.ret(Some(x));
        b.finish();
        let mut interp = Interpreter::new(&m);
        assert!(matches!(interp.run("main", &[]), Err(ExecError::OutOfBounds { .. })));
    }

    #[test]
    fn step_limit_stops_infinite_loops() {
        let mut m = Module::new();
        let fid = m.declare_function("main", vec![], None);
        let f = m.function_mut(fid);
        let mut b = FunctionBuilder::new(f);
        let l = b.create_block();
        b.jump(l);
        b.switch_to(l);
        b.jump(l);
        b.finish();
        let mut interp = Interpreter::new(&m).with_step_limit(100);
        assert_eq!(interp.run("main", &[]), Err(ExecError::StepLimit));
    }

    #[test]
    fn calls_pass_arguments_and_return() {
        let mut m = Module::new();
        let sq = m.declare_function("square", vec![("x", Type::Int)], Some(Type::Int));
        {
            let f = m.function_mut(sq);
            let mut b = FunctionBuilder::new(f);
            let x = b.param(0);
            let r = b.binary(BinOp::Mul, x, x);
            b.ret(Some(r));
            b.finish();
        }
        let fid = m.declare_function("main", vec![], Some(Type::Int));
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let five = b.iconst(5);
            let r = b.call(sq, vec![five], Some(Type::Int));
            b.ret(Some(r));
            b.finish();
        }
        let mut interp = Interpreter::new(&m);
        assert_eq!(interp.run("main", &[]).unwrap().result, Some(25));
    }

    #[test]
    fn div_by_zero_traps() {
        let mut m = Module::new();
        let fid = m.declare_function("main", vec![], Some(Type::Int));
        let f = m.function_mut(fid);
        let mut b = FunctionBuilder::new(f);
        let one = b.iconst(1);
        let zero = b.iconst(0);
        let r = b.binary(BinOp::Div, one, zero);
        b.ret(Some(r));
        b.finish();
        let mut interp = Interpreter::new(&m);
        assert_eq!(interp.run("main", &[]), Err(ExecError::DivByZero));
    }

    #[test]
    fn observer_sees_defs_in_order() {
        struct Collect(Vec<(Value, i64)>);
        impl Observer for Collect {
            fn on_def(&mut self, _f: &Frame, v: Value, val: i64) {
                self.0.push((v, val));
            }
        }
        let m = sum_module();
        let mut interp = Interpreter::new(&m);
        let mut obs = Collect(Vec::new());
        interp.run_observed("main", &[3], &mut obs).unwrap();
        assert!(!obs.0.is_empty());
        // Each observed def must be visible in increasing step order; the
        // first observed value is the parameter n = 3.
        let param_val = obs.0.iter().find(|(v, _)| v.index() == 0).unwrap().1;
        assert_eq!(param_val, 3);
    }

    #[test]
    fn distinct_allocations_do_not_overlap() {
        let mut m = Module::new();
        let fid = m.declare_function("main", vec![], Some(Type::Int));
        let f = m.function_mut(fid);
        let mut b = FunctionBuilder::new(f);
        let four = b.iconst(4);
        let p = b.alloca(Type::Int, four);
        let q = b.malloc(Type::Int, four);
        let d = b.binary(BinOp::Sub, q, p);
        b.ret(Some(d));
        b.finish();
        let mut interp = Interpreter::new(&m);
        let d = interp.run("main", &[]).unwrap().result.unwrap();
        assert!(d.unsigned_abs() >= 4, "allocations must be at least 4 elements apart");
    }
}
