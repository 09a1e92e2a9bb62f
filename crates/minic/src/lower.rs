//! Lowering from the MiniC AST to the SSA IR.
//!
//! SSA construction follows Braun et al., "Simple and Efficient
//! Construction of Static Single Assignment Form" (CC 2013): scalar locals
//! are kept in per-block definition maps; reads reach backwards through
//! sealed blocks, inserting φ-functions on demand; blocks are sealed once
//! all their predecessors are known. An on-demand φ is removed as soon as
//! its operands show it trivial (Braun et al.'s `tryRemoveTrivialPhi`),
//! and so are the φs that become trivial through that removal. The merge
//! φs of `?:`, `&&` and `||` are built whole and only re-checked when an
//! operand φ is removed, so one whose arms yield the same value stays:
//! `c ? x : x` keeps `phi [t: x], [f: x]`.
//!
//! Pointer arithmetic (`p + i`, `p[i]`, `&a[i]`) lowers to `gep`
//! instructions, the canonical derived-pointer form the paper's
//! disambiguation criterion 2 (its Definition 3.11) consumes.

use crate::ast::*;
use crate::CompileError;
use sraa_ir::{BinOp, BlockId, FuncId, Function, GlobalId, InstKind, Module, Pred, Type, Value};
use std::collections::{HashMap, HashSet};

/// Lowers a parsed program into an IR module.
///
/// # Errors
///
/// Reports semantic problems (unknown names, type mismatches, `break`
/// outside a loop, …) with source line numbers.
pub fn lower_program(prog: &Program) -> Result<Module, CompileError> {
    let mut module = Module::new();
    let mut globals: HashMap<String, (GlobalId, Ty, u32)> = HashMap::new();
    let mut funcs: HashMap<String, (FuncId, Vec<Ty>, Ty)> = HashMap::new();

    for g in &prog.globals {
        if globals.contains_key(&g.name) {
            return Err(err(g.line, format!("duplicate global `{}`", g.name)));
        }
        let ir_ty =
            g.elem_ty.to_ir().ok_or_else(|| err(g.line, "globals cannot be void".to_string()))?;
        let id = module.declare_global(g.name.clone(), ir_ty, g.count);
        globals.insert(g.name.clone(), (id, g.elem_ty, g.count));
    }

    for f in &prog.funcs {
        if funcs.contains_key(&f.name) || globals.contains_key(&f.name) {
            return Err(err(f.line, format!("duplicate definition of `{}`", f.name)));
        }
        let params: Vec<(&str, Type)> = f
            .params
            .iter()
            .map(|(n, t)| {
                t.to_ir()
                    .map(|ir| (n.as_str(), ir))
                    .ok_or_else(|| err(f.line, "void parameter".to_string()))
            })
            .collect::<Result<_, _>>()?;
        let fid = module.declare_function(f.name.clone(), params, f.ret.to_ir());
        funcs.insert(f.name.clone(), (fid, f.params.iter().map(|(_, t)| *t).collect(), f.ret));
    }

    for f in &prog.funcs {
        let (fid, _, _) = funcs[&f.name];
        let mut lower = FnLower::new(module.function_mut(fid), &globals, &funcs, f.ret);
        lower.run(f)?;
    }

    Ok(module)
}

/// The type of the address of a memory object with `elem` elements.
fn addr_ty(elem: Ty, line: u32) -> Result<Ty, CompileError> {
    elem.addr_of().ok_or_else(|| {
        err(line, format!("cannot take the address of a {elem}: pointer nesting too deep"))
    })
}

fn err(line: u32, message: String) -> CompileError {
    CompileError { line, message }
}

/// How a name is bound in the current scope.
#[derive(Clone, Debug)]
enum Binding {
    /// SSA-tracked scalar; the key indexes the Braun definition maps.
    Scalar { key: String, ty: Ty },
    /// A local array: the name denotes the alloca'd base pointer.
    Array { ptr: Value, elem: Ty },
}

/// An assignable location.
enum Place {
    /// A scalar SSA variable.
    Ssa { key: String, ty: Ty },
    /// A memory cell: `addr` points at a value of type `elem`.
    Mem { addr: Value, elem: Ty },
}

/// A suspended step of a variable lookup ([`FnLower::lookup_var`]).
enum Lookup {
    /// Record the value found as the variable's definition in this block.
    Record(BlockId),
    /// Collect one operand per predecessor for `phi`, then drop it if it
    /// is trivial.
    FillPhi { phi: Value, preds: Vec<BlockId>, incomings: Vec<(BlockId, Value)> },
}

struct FnLower<'a> {
    f: &'a mut Function,
    globals: &'a HashMap<String, (GlobalId, Ty, u32)>,
    funcs: &'a HashMap<String, (FuncId, Vec<Ty>, Ty)>,
    ret: Ty,
    // Braun state --------------------------------------------------------
    defs: HashMap<String, HashMap<BlockId, Value>>,
    var_tys: HashMap<String, Ty>,
    sealed: HashSet<BlockId>,
    incomplete: HashMap<BlockId, Vec<(String, Value)>>,
    preds: Vec<Vec<BlockId>>,
    // Lowering cursor ----------------------------------------------------
    cur: BlockId,
    terminated: bool,
    scopes: Vec<HashMap<String, Binding>>,
    loops: Vec<(BlockId, BlockId)>, // (continue target, break target)
    consts: HashMap<i64, Value>,
    fresh: u32,
}

impl<'a> FnLower<'a> {
    fn new(
        f: &'a mut Function,
        globals: &'a HashMap<String, (GlobalId, Ty, u32)>,
        funcs: &'a HashMap<String, (FuncId, Vec<Ty>, Ty)>,
        ret: Ty,
    ) -> Self {
        let entry = f.entry();
        Self {
            f,
            globals,
            funcs,
            ret,
            defs: HashMap::new(),
            var_tys: HashMap::new(),
            sealed: HashSet::from([entry]),
            incomplete: HashMap::new(),
            preds: vec![Vec::new()],
            cur: entry,
            terminated: false,
            scopes: vec![HashMap::new()],
            loops: Vec::new(),
            consts: HashMap::new(),
            fresh: 0,
        }
    }

    fn run(&mut self, def: &FuncDef) -> Result<(), CompileError> {
        for (i, (name, ty)) in def.params.iter().enumerate() {
            let key = self.declare_scalar(name.clone(), *ty);
            let pv = self.f.param_value(i);
            self.write_var(&key, self.f.entry(), pv);
        }
        self.lower_stmts(&def.body)?;
        if !self.terminated {
            match self.ret {
                Ty::Void => self.terminate(InstKind::Ret(None)),
                Ty::Int => {
                    let z = self.iconst(0);
                    self.terminate(InstKind::Ret(Some(z)));
                }
                Ty::Ptr(_) => {
                    let p = self.emit(InstKind::Opaque, self.ret.to_ir());
                    self.terminate(InstKind::Ret(Some(p)));
                }
            }
        }
        Ok(())
    }

    // ---- block / CFG helpers -------------------------------------------

    fn new_block(&mut self) -> BlockId {
        let b = self.f.add_block();
        self.preds.push(Vec::new());
        b
    }

    fn seal(&mut self, b: BlockId) {
        if !self.sealed.insert(b) {
            return;
        }
        if let Some(pending) = self.incomplete.remove(&b) {
            for (key, phi) in pending {
                self.add_phi_operands(&key, phi, b);
            }
        }
    }

    fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
        self.terminated = false;
    }

    fn add_edge(&mut self, from: BlockId, to: BlockId) {
        self.preds[to.index()].push(from);
    }

    fn emit(&mut self, kind: InstKind, ty: Option<Type>) -> Value {
        debug_assert!(!self.terminated, "emitting into a terminated block");
        self.f.append_inst(self.cur, kind, ty)
    }

    fn terminate(&mut self, kind: InstKind) {
        debug_assert!(kind.is_terminator());
        for s in kind.successors() {
            self.add_edge(self.cur, s);
        }
        self.f.append_inst(self.cur, kind, None);
        self.terminated = true;
    }

    fn iconst(&mut self, c: i64) -> Value {
        if let Some(&v) = self.consts.get(&c) {
            return v;
        }
        let v = self.f.add_const(c);
        self.consts.insert(c, v);
        v
    }

    /// A value usable from anywhere: inserted into the entry block, before
    /// its terminator if it already has one. Used for "undefined" reads.
    fn emit_in_entry(&mut self, kind: InstKind, ty: Option<Type>) -> Value {
        let entry = self.f.entry();
        let v = self.f.new_inst(kind, ty);
        let at = match self.f.terminator(entry) {
            Some(_) => self.f.block(entry).insts.len() - 1,
            None => self.f.block(entry).insts.len(),
        };
        self.f.attach_inst(entry, at, v);
        v
    }

    // ---- Braun SSA construction ----------------------------------------

    fn declare_scalar(&mut self, name: String, ty: Ty) -> String {
        self.fresh += 1;
        let key = format!("{name}#{}", self.fresh);
        self.var_tys.insert(key.clone(), ty);
        self.scopes
            .last_mut()
            .expect("scope stack is never empty")
            .insert(name, Binding::Scalar { key: key.clone(), ty });
        key
    }

    fn write_var(&mut self, key: &str, block: BlockId, value: Value) {
        self.defs.entry(key.to_string()).or_default().insert(block, value);
    }

    /// The value of variable `key` at the end of `block` (Braun et al.'s
    /// `readVariable`). The lookup walks predecessor chains back to a
    /// definition, which can be as long as the number of joins between
    /// the definition and the use, so it keeps its suspended steps on a
    /// heap stack rather than the call stack.
    fn read_var(&mut self, key: &str, block: BlockId) -> Value {
        self.lookup_var(key, Vec::new(), Some(block))
    }

    fn insert_phi(&mut self, block: BlockId) -> Value {
        // The φ type is filled in by the caller's variable type.
        let v = self.f.new_inst(InstKind::Phi { incomings: vec![] }, None);
        self.f.attach_inst(block, 0, v);
        v
    }

    /// Fills the operands of an on-demand φ, then removes it if trivial
    /// (Braun et al.'s `tryRemoveTrivialPhi`). Returns the value that
    /// replaces the φ — the φ itself when it is genuine.
    fn add_phi_operands(&mut self, key: &str, phi: Value, block: BlockId) -> Value {
        let fill = self.fill_phi(key, phi, block);
        self.lookup_var(key, vec![fill], None)
    }

    /// A [`Lookup::FillPhi`] step for `phi`, which takes `key`'s type.
    fn fill_phi(&mut self, key: &str, phi: Value, block: BlockId) -> Lookup {
        self.f.inst_mut(phi).ty = self.var_tys[key].to_ir();
        let preds = self.preds[block.index()].clone();
        Lookup::FillPhi { phi, incomings: Vec::with_capacity(preds.len()), preds }
    }

    /// Runs the suspended lookups in `stack` to completion, first looking
    /// up `key` in block `want` if given, and returns the last value
    /// produced. This is the recursion of Braun et al.'s `readVariable`
    /// and `addPhiOperands`, in the same order, with the call stack made
    /// explicit.
    fn lookup_var(
        &mut self,
        key: &str,
        mut stack: Vec<Lookup>,
        mut want: Option<BlockId>,
    ) -> Value {
        let mut got: Option<Value> = None;
        loop {
            // Descend: answer `want` locally, or suspend on its predecessors.
            if let Some(b) = want.take() {
                if let Some(&v) = self.defs.get(key).and_then(|m| m.get(&b)) {
                    got = Some(v);
                } else if !self.sealed.contains(&b) {
                    // Unknown predecessors: placeholder φ, completed at seal time.
                    let phi = self.insert_phi(b);
                    self.incomplete.entry(b).or_default().push((key.to_string(), phi));
                    self.write_var(key, b, phi);
                    got = Some(phi);
                } else if let [p] = self.preds[b.index()][..] {
                    stack.push(Lookup::Record(b));
                    want = Some(p);
                    continue;
                } else if self.preds[b.index()].is_empty() {
                    // Read of an undefined variable (or dead code): a benign
                    // default — zero for ints, an opaque value for pointers.
                    let v = match self.var_tys[key] {
                        Ty::Int | Ty::Void => self.iconst(0),
                        Ty::Ptr(_) => {
                            self.emit_in_entry(InstKind::Opaque, self.var_tys[key].to_ir())
                        }
                    };
                    self.write_var(key, b, v);
                    got = Some(v);
                } else {
                    let phi = self.insert_phi(b);
                    self.write_var(key, b, phi);
                    stack.push(Lookup::Record(b));
                    let fill = self.fill_phi(key, phi, b);
                    stack.push(fill);
                }
            }
            // Ascend: hand the value to the innermost suspended step.
            match stack.last_mut() {
                None => return got.expect("a lookup produces a value"),
                Some(Lookup::Record(b)) => {
                    let b = *b;
                    stack.pop();
                    self.write_var(key, b, got.expect("a recorded lookup has a value"));
                }
                Some(Lookup::FillPhi { phi, preds, incomings }) => {
                    if let Some(v) = got.take() {
                        incomings.push((preds[incomings.len()], v));
                    }
                    if let Some(&p) = preds.get(incomings.len()) {
                        want = Some(p);
                        continue;
                    }
                    let (phi, incomings) = (*phi, std::mem::take(incomings));
                    stack.pop();
                    if let InstKind::Phi { incomings: slots } = &mut self.f.inst_mut(phi).kind {
                        *slots = incomings;
                    }
                    got = Some(self.try_remove_trivial_phi(phi));
                }
            }
        }
    }

    /// Braun et al.'s trivial-φ elimination: a φ whose operands are all
    /// either itself or one single value `same` is replaced by `same`
    /// everywhere, yielding *minimal* SSA — the input the paper's analyses
    /// expect (LLVM's mem2reg produces minimal SSA too). A trivial φ left
    /// in place would destroy less-than facts through the intersection
    /// rule 4 of Figure 7.
    ///
    /// Removing one φ may make the φs that use it trivial in turn; they
    /// are retried depth-first, as in the paper's recursion, from an
    /// explicit stack.
    fn try_remove_trivial_phi(&mut self, phi: Value) -> Value {
        let Some((same, users)) = self.remove_if_trivial(phi) else { return phi };
        let mut stack = vec![users.into_iter()];
        while let Some(users) = stack.last_mut() {
            match users.next() {
                Some(u) => {
                    if let Some((_, more)) = self.remove_if_trivial(u) {
                        stack.push(more.into_iter());
                    }
                }
                None => {
                    stack.pop();
                }
            }
        }
        same
    }

    /// Replaces `phi` by its single operand if it is trivial, returning
    /// that operand and the other φs that used `phi`; `None` if `phi` is
    /// genuine (or not a φ).
    fn remove_if_trivial(&mut self, phi: Value) -> Option<(Value, Vec<Value>)> {
        let incomings = match &self.f.inst(phi).kind {
            InstKind::Phi { incomings } => incomings.clone(),
            _ => return None,
        };
        let mut same: Option<Value> = None;
        for (_, op) in &incomings {
            if *op == phi || Some(*op) == same {
                continue;
            }
            if same.is_some() {
                return None; // merges at least two distinct values: genuine
            }
            same = Some(*op);
        }
        let same = same?; // self-only φ (dead loop)

        // Collect φ users before rewriting (they may become trivial too).
        let mut phi_users: Vec<Value> = Vec::new();
        for b in self.f.block_ids() {
            for (u, d) in self.f.block_insts(b) {
                if u == phi {
                    continue;
                }
                if let InstKind::Phi { incomings } = &d.kind {
                    if incomings.iter().any(|(_, x)| *x == phi) {
                        phi_users.push(u);
                    }
                }
            }
        }
        // Replace all uses of the φ throughout the function.
        for b in self.f.block_ids() {
            let insts: Vec<Value> = self.f.block(b).insts.clone();
            for u in insts {
                if u == phi {
                    continue;
                }
                let kind = &mut self.f.inst_mut(u).kind;
                kind.for_each_operand_mut(|op| {
                    if *op == phi {
                        *op = same;
                    }
                });
                kind.for_each_phi_operand_mut(|_, op| {
                    if *op == phi {
                        *op = same;
                    }
                });
            }
        }
        // Fix the Braun definition maps.
        for map in self.defs.values_mut() {
            for v in map.values_mut() {
                if *v == phi {
                    *v = same;
                }
            }
        }
        // Orphan the φ; all its uses are gone.
        self.f.detach_inst(phi);
        Some((same, phi_users))
    }

    fn lookup(&self, name: &str) -> Option<Binding> {
        for scope in self.scopes.iter().rev() {
            if let Some(b) = scope.get(name) {
                return Some(b.clone());
            }
        }
        None
    }

    // ---- statements ------------------------------------------------------

    fn lower_stmts(&mut self, stmts: &[Stmt]) -> Result<(), CompileError> {
        for s in stmts {
            if self.terminated {
                // Dead code after return/break: lower into a fresh
                // unreachable block to keep going (C allows it).
                let dead = self.new_block();
                self.seal(dead);
                self.switch_to(dead);
            }
            self.lower_stmt(s)?;
        }
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<(), CompileError> {
        match stmt {
            Stmt::Block(body) => {
                self.scopes.push(HashMap::new());
                let r = self.lower_stmts(body);
                self.scopes.pop();
                r
            }
            Stmt::DeclScalar { name, ty, init, line } => {
                let init_val = match init {
                    Some(e) => {
                        let (v, vt) = self.lower_expr(e, Some(*ty))?;
                        self.coerce(v, vt, *ty, *line)?
                    }
                    None => match ty {
                        Ty::Int => self.iconst(0),
                        Ty::Ptr(_) => self.emit(InstKind::Opaque, ty.to_ir()),
                        Ty::Void => return Err(err(*line, "void variable".into())),
                    },
                };
                let key = self.declare_scalar(name.clone(), *ty);
                self.write_var(&key, self.cur, init_val);
                Ok(())
            }
            Stmt::DeclArray { name, elem_ty, count, line } => {
                let (n, nt) = self.lower_expr(count, Some(Ty::Int))?;
                if nt != Ty::Int {
                    return Err(err(*line, "array size must be an int".into()));
                }
                if *elem_ty == Ty::Void {
                    return Err(err(*line, "void array element".to_string()));
                }
                let ptr =
                    self.emit(InstKind::Alloca { count: n }, addr_ty(*elem_ty, *line)?.to_ir());
                self.scopes
                    .last_mut()
                    .expect("scope stack is never empty")
                    .insert(name.clone(), Binding::Array { ptr, elem: *elem_ty });
                Ok(())
            }
            Stmt::Assign { target, op, value, line } => {
                let place = self.lower_place(target)?;
                let target_ty = match &place {
                    Place::Ssa { ty, .. } => *ty,
                    Place::Mem { elem, .. } => *elem,
                };
                let new_val = match op {
                    AssignOp::Set => {
                        let (v, vt) = self.lower_expr(value, Some(target_ty))?;
                        self.coerce(v, vt, target_ty, *line)?
                    }
                    AssignOp::Add | AssignOp::Sub => {
                        let cur_val = self.read_place(&place);
                        let (rhs, rt) = self.lower_expr(value, Some(Ty::Int))?;
                        self.combine(
                            if *op == AssignOp::Add { BinOpAst::Add } else { BinOpAst::Sub },
                            cur_val,
                            target_ty,
                            rhs,
                            rt,
                            *line,
                        )?
                        .0
                    }
                };
                match place {
                    Place::Ssa { key, .. } => self.write_var(&key, self.cur, new_val),
                    Place::Mem { addr, .. } => {
                        self.emit(InstKind::Store { ptr: addr, value: new_val }, None);
                    }
                }
                Ok(())
            }
            Stmt::If { cond, then, els, .. } => {
                let c = self.lower_cond(cond)?;
                let then_bb = self.new_block();
                let else_bb = self.new_block();
                let merge = self.new_block();
                self.terminate(InstKind::Br { cond: c, then_bb, else_bb });

                self.switch_to(then_bb);
                self.seal(then_bb);
                self.scopes.push(HashMap::new());
                self.lower_stmts(then)?;
                self.scopes.pop();
                if !self.terminated {
                    self.terminate(InstKind::Jump(merge));
                }

                self.switch_to(else_bb);
                self.seal(else_bb);
                self.scopes.push(HashMap::new());
                self.lower_stmts(els)?;
                self.scopes.pop();
                if !self.terminated {
                    self.terminate(InstKind::Jump(merge));
                }

                self.seal(merge);
                self.switch_to(merge);
                Ok(())
            }
            Stmt::DoWhile { body, cond, .. } => {
                let body_bb = self.new_block();
                let cond_bb = self.new_block();
                let exit = self.new_block();
                self.terminate(InstKind::Jump(body_bb));

                self.switch_to(body_bb); // unsealed: back edge unknown
                self.loops.push((cond_bb, exit));
                self.scopes.push(HashMap::new());
                self.lower_stmts(body)?;
                self.scopes.pop();
                self.loops.pop();
                if !self.terminated {
                    self.terminate(InstKind::Jump(cond_bb));
                }

                self.switch_to(cond_bb);
                self.seal(cond_bb);
                let c = self.lower_cond(cond)?;
                self.terminate(InstKind::Br { cond: c, then_bb: body_bb, else_bb: exit });
                self.seal(body_bb);
                self.seal(exit);
                self.switch_to(exit);
                Ok(())
            }
            Stmt::While { cond, body, .. } => {
                let header = self.new_block();
                let body_bb = self.new_block();
                let exit = self.new_block();
                self.terminate(InstKind::Jump(header));

                self.switch_to(header); // unsealed: latch unknown
                let c = self.lower_cond(cond)?;
                let cond_end = self.cur; // && / || may have split blocks
                let _ = cond_end;
                self.terminate(InstKind::Br { cond: c, then_bb: body_bb, else_bb: exit });

                self.switch_to(body_bb);
                self.seal(body_bb);
                self.loops.push((header, exit));
                self.scopes.push(HashMap::new());
                self.lower_stmts(body)?;
                self.scopes.pop();
                self.loops.pop();
                if !self.terminated {
                    self.terminate(InstKind::Jump(header));
                }
                self.seal(header);
                self.seal(exit);
                self.switch_to(exit);
                Ok(())
            }
            Stmt::For { init, cond, step, body, .. } => {
                self.scopes.push(HashMap::new()); // `for (int i = …)` scope
                self.lower_stmts(init)?;
                let header = self.new_block();
                let body_bb = self.new_block();
                let step_bb = self.new_block();
                let exit = self.new_block();
                self.terminate(InstKind::Jump(header));

                self.switch_to(header); // unsealed: step edge unknown
                match cond {
                    Some(c) => {
                        let cv = self.lower_cond(c)?;
                        self.terminate(InstKind::Br { cond: cv, then_bb: body_bb, else_bb: exit });
                    }
                    None => self.terminate(InstKind::Jump(body_bb)),
                }

                self.switch_to(body_bb);
                self.seal(body_bb);
                self.loops.push((step_bb, exit));
                self.scopes.push(HashMap::new());
                self.lower_stmts(body)?;
                self.scopes.pop();
                self.loops.pop();
                if !self.terminated {
                    self.terminate(InstKind::Jump(step_bb));
                }

                self.switch_to(step_bb);
                self.seal(step_bb);
                self.lower_stmts(step)?;
                if !self.terminated {
                    self.terminate(InstKind::Jump(header));
                }
                self.seal(header);
                self.seal(exit);
                self.switch_to(exit);
                self.scopes.pop();
                Ok(())
            }
            Stmt::Return { value, line } => {
                match (value, self.ret) {
                    (None, Ty::Void) => self.terminate(InstKind::Ret(None)),
                    (Some(_), Ty::Void) => {
                        return Err(err(*line, "void function returns a value".into()))
                    }
                    (None, _) => return Err(err(*line, "missing return value".into())),
                    (Some(e), rt) => {
                        let (v, vt) = self.lower_expr(e, Some(rt))?;
                        let v = self.coerce(v, vt, rt, *line)?;
                        self.terminate(InstKind::Ret(Some(v)));
                    }
                }
                Ok(())
            }
            Stmt::Break { line } => {
                let (_, exit) =
                    *self.loops.last().ok_or_else(|| err(*line, "break outside loop".into()))?;
                self.terminate(InstKind::Jump(exit));
                Ok(())
            }
            Stmt::Continue { line } => {
                let (cont, _) =
                    *self.loops.last().ok_or_else(|| err(*line, "continue outside loop".into()))?;
                self.terminate(InstKind::Jump(cont));
                Ok(())
            }
            Stmt::ExprStmt { expr, .. } => {
                // Calls (even void ones) are lowered for effect.
                if let Expr::Call { name, args, line } = expr {
                    self.lower_call(name, args, *line, true)?;
                } else {
                    self.lower_expr(expr, None)?;
                }
                Ok(())
            }
        }
    }

    // ---- places (lvalues) ----------------------------------------------

    fn lower_place(&mut self, e: &Expr) -> Result<Place, CompileError> {
        match e {
            Expr::Var { name, line } => {
                if let Some(b) = self.lookup(name) {
                    return match b {
                        Binding::Scalar { key, ty } => Ok(Place::Ssa { key, ty }),
                        Binding::Array { .. } => {
                            Err(err(*line, format!("cannot assign to array `{name}`")))
                        }
                    };
                }
                if let Some(&(gid, elem, count)) = self.globals.get(name) {
                    if count != 1 {
                        return Err(err(*line, format!("cannot assign to array `{name}`")));
                    }
                    let addr = self.emit(InstKind::GlobalAddr(gid), addr_ty(elem, *line)?.to_ir());
                    return Ok(Place::Mem { addr, elem });
                }
                Err(err(*line, format!("unknown variable `{name}`")))
            }
            Expr::Unary { op: UnOp::Deref, expr, line } => {
                let (p, pt) = self.lower_expr(expr, None)?;
                let elem = pt.deref().ok_or_else(|| {
                    err(*line, format!("cannot dereference a value of type {pt}"))
                })?;
                Ok(Place::Mem { addr: p, elem })
            }
            Expr::Index { base, index, line } => {
                let (addr, elem) = self.lower_index_addr(base, index, *line)?;
                Ok(Place::Mem { addr, elem })
            }
            other => Err(err(other.line(), "expression is not assignable".into())),
        }
    }

    fn read_place(&mut self, place: &Place) -> Value {
        match place {
            Place::Ssa { key, .. } => self.read_var(key, self.cur),
            Place::Mem { addr, elem } => self.emit(InstKind::Load { ptr: *addr }, elem.to_ir()),
        }
    }

    /// Lowers `base[index]` to a `gep`, returning `(address, element type)`.
    fn lower_index_addr(
        &mut self,
        base: &Expr,
        index: &Expr,
        line: u32,
    ) -> Result<(Value, Ty), CompileError> {
        let (b, bt) = self.lower_expr(base, None)?;
        let elem =
            bt.deref().ok_or_else(|| err(line, format!("cannot index a value of type {bt}")))?;
        let (i, it) = self.lower_expr(index, Some(Ty::Int))?;
        if it != Ty::Int {
            return Err(err(line, "array index must be an int".into()));
        }
        let addr = self.emit(InstKind::Gep { base: b, offset: i }, bt.to_ir());
        Ok((addr, elem))
    }

    // ---- expressions ------------------------------------------------------

    /// Lowers a boolean context expression to a non-zero-is-true int value.
    fn lower_cond(&mut self, e: &Expr) -> Result<Value, CompileError> {
        let (v, t) = self.lower_expr(e, Some(Ty::Int))?;
        match t {
            Ty::Int => Ok(v),
            other => Err(err(e.line(), format!("condition must be an int, got {other}"))),
        }
    }

    fn lower_expr(&mut self, e: &Expr, expected: Option<Ty>) -> Result<(Value, Ty), CompileError> {
        match e {
            Expr::Int(v) => Ok((self.iconst(*v), Ty::Int)),
            Expr::Var { name, line } => {
                if let Some(b) = self.lookup(name) {
                    return Ok(match b {
                        Binding::Scalar { key, ty } => (self.read_var(&key, self.cur), ty),
                        Binding::Array { ptr, elem } => {
                            (ptr, elem.addr_of().expect("checked at declaration"))
                        }
                    });
                }
                if let Some(&(gid, elem, count)) = self.globals.get(name) {
                    let ty = addr_ty(elem, *line)?;
                    let addr = self.emit(InstKind::GlobalAddr(gid), ty.to_ir());
                    return Ok(if count == 1 {
                        // Scalar global: rvalue is its current contents.
                        (self.emit(InstKind::Load { ptr: addr }, elem.to_ir()), elem)
                    } else {
                        (addr, ty)
                    });
                }
                Err(err(*line, format!("unknown variable `{name}`")))
            }
            Expr::Unary { op, expr, line } => match op {
                UnOp::Neg => {
                    let (v, t) = self.lower_expr(expr, Some(Ty::Int))?;
                    if t != Ty::Int {
                        return Err(err(*line, "cannot negate a pointer".into()));
                    }
                    let z = self.iconst(0);
                    Ok((
                        self.emit(
                            InstKind::Binary { op: BinOp::Sub, lhs: z, rhs: v },
                            Some(Type::Int),
                        ),
                        Ty::Int,
                    ))
                }
                UnOp::Not => {
                    let (v, t) = self.lower_expr(expr, Some(Ty::Int))?;
                    if t != Ty::Int {
                        return Err(err(*line, "`!` requires an int".into()));
                    }
                    let z = self.iconst(0);
                    Ok((
                        self.emit(
                            InstKind::Cmp { pred: Pred::Eq, lhs: v, rhs: z },
                            Some(Type::Int),
                        ),
                        Ty::Int,
                    ))
                }
                UnOp::Deref => {
                    let (p, pt) = self.lower_expr(expr, None)?;
                    let elem = pt.deref().ok_or_else(|| {
                        err(*line, format!("cannot dereference a value of type {pt}"))
                    })?;
                    Ok((self.emit(InstKind::Load { ptr: p }, elem.to_ir()), elem))
                }
                UnOp::AddrOf => match self.lower_place(expr)? {
                    Place::Mem { addr, elem } => Ok((addr, addr_ty(elem, *line)?)),
                    Place::Ssa { .. } => Err(err(
                        *line,
                        "cannot take the address of a scalar local (not in memory)".into(),
                    )),
                },
            },
            Expr::Binary { op, lhs, rhs, line } => {
                let (l, lt) = self.lower_expr(lhs, None)?;
                let (r, rt) = self.lower_expr(rhs, None)?;
                self.combine(*op, l, lt, r, rt, *line)
            }
            Expr::And { lhs, rhs, line } | Expr::Or { lhs, rhs, line } => {
                let is_and = matches!(e, Expr::And { .. });
                let (l, lt) = self.lower_expr(lhs, Some(Ty::Int))?;
                if lt != Ty::Int {
                    return Err(err(*line, "logical operators require int operands".into()));
                }
                let rhs_bb = self.new_block();
                let merge = self.new_block();
                let short_bb = self.cur;
                if is_and {
                    self.terminate(InstKind::Br { cond: l, then_bb: rhs_bb, else_bb: merge });
                } else {
                    self.terminate(InstKind::Br { cond: l, then_bb: merge, else_bb: rhs_bb });
                }

                self.switch_to(rhs_bb);
                self.seal(rhs_bb);
                let (r, rt) = self.lower_expr(rhs, Some(Ty::Int))?;
                if rt != Ty::Int {
                    return Err(err(*line, "logical operators require int operands".into()));
                }
                let z = self.iconst(0);
                let norm =
                    self.emit(InstKind::Cmp { pred: Pred::Ne, lhs: r, rhs: z }, Some(Type::Int));
                let rhs_end = self.cur;
                self.terminate(InstKind::Jump(merge));

                self.seal(merge);
                self.switch_to(merge);
                let short_val = self.iconst(if is_and { 0 } else { 1 });
                let phi = self.f.new_inst(
                    InstKind::Phi { incomings: vec![(short_bb, short_val), (rhs_end, norm)] },
                    Some(Type::Int),
                );
                self.f.attach_inst(merge, 0, phi);
                Ok((phi, Ty::Int))
            }
            Expr::Ternary { cond, then_e, else_e, line } => {
                let c = self.lower_cond(cond)?;
                let then_bb = self.new_block();
                let else_bb = self.new_block();
                let merge = self.new_block();
                self.terminate(InstKind::Br { cond: c, then_bb, else_bb });

                self.switch_to(then_bb);
                self.seal(then_bb);
                let (tv, tt) = self.lower_expr(then_e, expected)?;
                let then_end = self.cur;
                self.terminate(InstKind::Jump(merge));

                self.switch_to(else_bb);
                self.seal(else_bb);
                let (ev, et) = self.lower_expr(else_e, expected.or(Some(tt)))?;
                let else_end = self.cur;
                self.terminate(InstKind::Jump(merge));

                if tt != et {
                    return Err(err(*line, format!("ternary arms disagree: {tt} vs {et}")));
                }
                self.seal(merge);
                self.switch_to(merge);
                let phi = self.f.new_inst(
                    InstKind::Phi { incomings: vec![(then_end, tv), (else_end, ev)] },
                    tt.to_ir(),
                );
                self.f.attach_inst(merge, 0, phi);
                Ok((phi, tt))
            }
            Expr::Index { base, index, line } => {
                let (addr, elem) = self.lower_index_addr(base, index, *line)?;
                Ok((self.emit(InstKind::Load { ptr: addr }, elem.to_ir()), elem))
            }
            Expr::Call { name, args, line } => {
                let (v, t) = self.lower_call(name, args, *line, false)?;
                Ok((
                    v.ok_or_else(|| err(*line, format!("void call to `{name}` used as value")))?,
                    t,
                ))
            }
            Expr::Malloc { count, line } => {
                let elem = expected
                    .and_then(Ty::deref)
                    .ok_or_else(|| err(*line, "cannot infer malloc element type here".into()))?;
                let (n, nt) = self.lower_expr(count, Some(Ty::Int))?;
                if nt != Ty::Int {
                    return Err(err(*line, "malloc count must be an int".into()));
                }
                let ty = addr_ty(elem, *line)?;
                Ok((self.emit(InstKind::Malloc { count: n }, ty.to_ir()), ty))
            }
            Expr::Input { .. } => Ok((self.emit(InstKind::Opaque, Some(Type::Int)), Ty::Int)),
            Expr::InputPtr { .. } => {
                Ok((self.emit(InstKind::Opaque, Some(Type::Ptr(1))), Ty::Ptr(1)))
            }
        }
    }

    fn lower_call(
        &mut self,
        name: &str,
        args: &[Expr],
        line: u32,
        _for_effect: bool,
    ) -> Result<(Option<Value>, Ty), CompileError> {
        let (fid, param_tys, ret) = self
            .funcs
            .get(name)
            .cloned()
            .ok_or_else(|| err(line, format!("unknown function `{name}`")))?;
        if param_tys.len() != args.len() {
            return Err(err(
                line,
                format!("`{name}` expects {} argument(s), got {}", param_tys.len(), args.len()),
            ));
        }
        let mut vals = Vec::with_capacity(args.len());
        for (a, pt) in args.iter().zip(&param_tys) {
            let (v, vt) = self.lower_expr(a, Some(*pt))?;
            vals.push(self.coerce(v, vt, *pt, line)?);
        }
        let v = self.emit(InstKind::Call { callee: fid, args: vals }, ret.to_ir());
        Ok((ret.to_ir().map(|_| v), ret))
    }

    /// Applies a binary operator with C-like pointer-arithmetic typing.
    fn combine(
        &mut self,
        op: BinOpAst,
        l: Value,
        lt: Ty,
        r: Value,
        rt: Ty,
        line: u32,
    ) -> Result<(Value, Ty), CompileError> {
        use BinOpAst::*;
        let cmp = |p: Pred| InstKind::Cmp { pred: p, lhs: l, rhs: r };
        match op {
            Lt | Le | Gt | Ge | Eq | Ne => {
                if lt != rt {
                    return Err(err(line, format!("cannot compare {lt} with {rt}")));
                }
                let pred = match op {
                    Lt => Pred::Lt,
                    Le => Pred::Le,
                    Gt => Pred::Gt,
                    Ge => Pred::Ge,
                    Eq => Pred::Eq,
                    _ => Pred::Ne,
                };
                Ok((self.emit(cmp(pred), Some(Type::Int)), Ty::Int))
            }
            Add | Sub => match (lt, rt) {
                (Ty::Int, Ty::Int) => {
                    let k = if op == Add { BinOp::Add } else { BinOp::Sub };
                    Ok((
                        self.emit(InstKind::Binary { op: k, lhs: l, rhs: r }, Some(Type::Int)),
                        Ty::Int,
                    ))
                }
                (Ty::Ptr(_), Ty::Int) => {
                    // Pointer arithmetic lowers to gep; `p - i` negates.
                    let off = if op == Add {
                        r
                    } else {
                        let z = self.iconst(0);
                        self.emit(
                            InstKind::Binary { op: BinOp::Sub, lhs: z, rhs: r },
                            Some(Type::Int),
                        )
                    };
                    Ok((self.emit(InstKind::Gep { base: l, offset: off }, lt.to_ir()), lt))
                }
                (Ty::Int, Ty::Ptr(_)) if op == Add => {
                    Ok((self.emit(InstKind::Gep { base: r, offset: l }, rt.to_ir()), rt))
                }
                (Ty::Ptr(a), Ty::Ptr(b)) if op == Sub && a == b => Ok((
                    self.emit(InstKind::Binary { op: BinOp::Sub, lhs: l, rhs: r }, Some(Type::Int)),
                    Ty::Int,
                )),
                _ => Err(err(line, format!("invalid operands {lt} {op:?} {rt}"))),
            },
            Mul | Div | Rem => {
                if lt != Ty::Int || rt != Ty::Int {
                    return Err(err(line, format!("invalid operands {lt} {op:?} {rt}")));
                }
                let k = match op {
                    Mul => BinOp::Mul,
                    Div => BinOp::Div,
                    _ => BinOp::Rem,
                };
                Ok((
                    self.emit(InstKind::Binary { op: k, lhs: l, rhs: r }, Some(Type::Int)),
                    Ty::Int,
                ))
            }
        }
    }

    fn coerce(&mut self, v: Value, from: Ty, to: Ty, line: u32) -> Result<Value, CompileError> {
        if from == to {
            Ok(v)
        } else {
            Err(err(line, format!("type mismatch: expected {to}, got {from}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn lower(src: &str) -> Module {
        let m = lower_program(&parse_program(src).unwrap()).unwrap();
        sraa_ir::verify(&m).unwrap_or_else(|e| panic!("verify failed: {e}\nsource: {src}"));
        m
    }

    fn run(src: &str) -> i64 {
        let m = lower(src);
        let mut i = sraa_ir::Interpreter::new(&m);
        i.run("main", &[]).unwrap().result.unwrap()
    }

    #[test]
    fn loop_phis_are_constructed() {
        let m = lower("int main() { int s = 0; for (int i = 0; i < 10; i++) s += i; return s; }");
        let f = m.function(m.function_by_name("main").unwrap());
        let phis = f
            .block_ids()
            .flat_map(|b| f.block_insts(b).map(|(_, d)| d.kind.is_phi()))
            .filter(|&x| x)
            .count();
        assert!(phis >= 2, "loop must introduce φs for i and s, got {phis}");
    }

    #[test]
    fn executes_nested_control_flow() {
        assert_eq!(
            run(r#"
            int main() {
                int n = 0;
                for (int i = 0; i < 5; i++) {
                    if (i % 2 == 0) n += 10; else n += 1;
                }
                return n;
            }"#),
            32
        );
    }

    #[test]
    fn break_and_continue() {
        assert_eq!(
            run(r#"
            int main() {
                int s = 0;
                for (int i = 0; i < 100; i++) {
                    if (i == 5) break;
                    if (i % 2 == 1) continue;
                    s += i;
                }
                return s;
            }"#),
            2 + 4
        );
    }

    #[test]
    fn while_with_complex_condition() {
        assert_eq!(
            run(r#"
            int main() {
                int i = 0; int j = 10;
                while (i < j && j > 0) { i++; j--; }
                return i * 100 + j;
            }"#),
            505
        );
    }

    #[test]
    fn shadowing_in_nested_scopes() {
        assert_eq!(
            run(r#"
            int main() {
                int x = 1;
                { int x = 2; { int x = 3; } x = x + 10; }
                return x;
            }"#),
            1
        );
    }

    #[test]
    fn pointer_arithmetic_lowered_to_gep() {
        let m = lower("int f(int* p, int i) { return p[i] + *(p + i + 1); }");
        let f = m.function(m.function_by_name("f").unwrap());
        let geps = f
            .block_ids()
            .flat_map(|b| f.block_insts(b).map(|(_, d)| matches!(d.kind, InstKind::Gep { .. })))
            .filter(|&x| x)
            .count();
        assert_eq!(geps, 3, "p[i], p+i, (p+i)+1");
    }

    #[test]
    fn address_of_element_then_deref() {
        assert_eq!(
            run(r#"
            int main() {
                int a[3];
                a[1] = 5;
                int* p = &a[1];
                return *p;
            }"#),
            5
        );
    }

    #[test]
    fn recursion_works() {
        assert_eq!(
            run(r#"
            int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
            int main() { return fact(6); }
            "#),
            720
        );
    }

    #[test]
    fn uninitialised_int_reads_zero() {
        assert_eq!(run("int main() { int x; return x; }"), 0);
    }

    #[test]
    fn dead_code_after_return_is_tolerated() {
        assert_eq!(run("int main() { return 3; int y = 4; return y; }"), 3);
    }

    #[test]
    fn global_scalar_assignment() {
        assert_eq!(run("int g; int main() { g = 1; g += 41; return g; }"), 42);
    }

    #[test]
    fn rejects_pointer_int_comparison() {
        let prog = parse_program("int f(int* p, int x) { return p < x; }").unwrap();
        assert!(lower_program(&prog).is_err());
    }

    #[test]
    fn address_of_a_maximal_depth_pointer_is_a_compile_error() {
        let deepest = format!("int{}", "*".repeat(crate::MAX_PTR_DEPTH.into()));
        // Values of the deepest type are fine; their address has no type.
        let ok = format!("{deepest} g; int main() {{ {deepest} p; return 0; }}");
        assert!(lower_program(&parse_program(&ok).unwrap()).is_ok());
        for body in ["&g;", "g;", &format!("{deepest} a[2];")] {
            let src = format!("{deepest} g; int main() {{ {body} return 0; }}");
            let e = lower_program(&parse_program(&src).unwrap()).expect_err(body);
            assert!(e.message.contains("pointer nesting too deep"), "{body}: {e}");
        }
    }

    #[test]
    fn rejects_break_outside_loop() {
        let prog = parse_program("int main() { break; return 0; }").unwrap();
        let e = lower_program(&prog).unwrap_err();
        assert!(e.message.contains("break"), "{e}");
    }

    #[test]
    fn malloc_type_inference_from_decl() {
        let m = lower("int main() { int** m = malloc(3); m[0] = malloc(2); return 0; }");
        let f = m.function(m.function_by_name("main").unwrap());
        let mallocs: Vec<Type> = f
            .block_ids()
            .flat_map(|b| {
                f.block_insts(b)
                    .filter(|(_, d)| matches!(d.kind, InstKind::Malloc { .. }))
                    .map(|(_, d)| d.ty.unwrap())
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(mallocs, vec![Type::Ptr(2), Type::Ptr(1)]);
    }
}
