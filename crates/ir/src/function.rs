//! Functions and basic blocks.

use crate::ids::{BlockId, Value};
use crate::inst::{CopyOrigin, InstData, InstKind};
use crate::types::Type;

/// A basic block: an ordered list of instructions ending in a terminator.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Block {
    /// Instructions in execution order. The last one is the terminator once
    /// the block is complete; φ-functions form a prefix.
    pub insts: Vec<Value>,
}

impl Block {
    /// Index of the first non-φ instruction.
    pub fn first_non_phi(&self, func: &Function) -> usize {
        self.insts.iter().position(|&v| !func.inst(v).kind.is_phi()).unwrap_or(self.insts.len())
    }
}

/// A function: an arena of instructions plus a list of basic blocks.
///
/// Instructions are identified by [`Value`]; value-producing instructions
/// *are* their result value, as in LLVM. The entry block is always
/// `BlockId 0`; parameters and constants are materialised as instructions
/// in the entry block so that every value has a defining instruction.
#[derive(Clone, Debug, PartialEq)]
pub struct Function {
    /// Function name (unique within a module).
    pub name: String,
    /// Parameter names and types, in order.
    pub params: Vec<(String, Type)>,
    /// Return type (`None` = void).
    pub ret_ty: Option<Type>,
    /// Instruction arena.
    insts: Vec<InstData>,
    /// Basic blocks; index 0 is the entry.
    blocks: Vec<Block>,
    /// Param index → defining `Param` instruction.
    param_values: Vec<Value>,
}

impl Function {
    /// Creates a function with an empty entry block and one `Param`
    /// instruction per parameter.
    pub fn new<S: Into<String>>(
        name: impl Into<String>,
        params: Vec<(S, Type)>,
        ret_ty: Option<Type>,
    ) -> Self {
        let mut f = Self {
            name: name.into(),
            params: params.into_iter().map(|(n, t)| (n.into(), t)).collect(),
            ret_ty,
            insts: Vec::new(),
            blocks: vec![Block::default()],
            param_values: Vec::new(),
        };
        for (i, (_, ty)) in f.params.clone().iter().enumerate() {
            let v = f.append_inst(BlockId::from_index(0), InstKind::Param(i as u32), Some(*ty));
            f.param_values.push(v);
        }
        f
    }

    /// The entry block id (always index 0).
    pub fn entry(&self) -> BlockId {
        BlockId::from_index(0)
    }

    /// The value defined by the `index`-th parameter.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn param_value(&self, index: usize) -> Value {
        self.param_values[index]
    }

    /// Number of instructions in the arena (including detached ones).
    pub fn num_insts(&self) -> usize {
        self.insts.len()
    }

    /// Number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Immutable access to an instruction.
    pub fn inst(&self, v: Value) -> &InstData {
        &self.insts[v.index()]
    }

    /// Mutable access to an instruction.
    pub fn inst_mut(&mut self, v: Value) -> &mut InstData {
        &mut self.insts[v.index()]
    }

    /// Follows `Copy` chains to the underlying value: σ-copies and
    /// live-range splits denote the same run-time value as their source.
    #[inline]
    pub fn strip_copies(&self, mut v: Value) -> Value {
        while let InstKind::Copy { src, .. } = self.inst(v).kind {
            v = src;
        }
        v
    }

    /// Result type of a value, if it produces one.
    pub fn value_type(&self, v: Value) -> Option<Type> {
        self.inst(v).ty
    }

    /// Immutable access to a block.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.index()]
    }

    /// Iterates over all block ids in layout order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len()).map(BlockId::from_index)
    }

    /// Iterates over all instruction ids in arena order.
    pub fn value_ids(&self) -> impl Iterator<Item = Value> {
        (0..self.insts.len()).map(Value::from_index)
    }

    /// Appends a fresh block, returning its id.
    pub fn add_block(&mut self) -> BlockId {
        self.blocks.push(Block::default());
        BlockId::from_index(self.blocks.len() - 1)
    }

    /// Creates a new instruction and appends it to `block`.
    pub fn append_inst(&mut self, block: BlockId, kind: InstKind, ty: Option<Type>) -> Value {
        let v = self.new_inst(kind, ty);
        self.attach_inst(block, self.blocks[block.index()].insts.len(), v);
        v
    }

    /// Creates a detached instruction (not yet in any block).
    pub fn new_inst(&mut self, kind: InstKind, ty: Option<Type>) -> Value {
        self.insts.push(InstData::new(kind, ty));
        Value::from_index(self.insts.len() - 1)
    }

    /// Inserts a detached instruction into `block` at position `index`.
    ///
    /// # Panics
    ///
    /// Panics if the instruction is already attached.
    pub fn attach_inst(&mut self, block: BlockId, index: usize, v: Value) {
        assert!(self.insts[v.index()].block.is_none(), "{v} is already attached");
        self.insts[v.index()].block = Some(block);
        self.blocks[block.index()].insts.insert(index, v);
    }

    /// Detaches an instruction from its block (it remains in the arena as
    /// an orphan). The caller is responsible for having rewritten all its
    /// uses first; the verifier flags uses of detached values.
    pub fn detach_inst(&mut self, v: Value) {
        if let Some(b) = self.insts[v.index()].block.take() {
            self.blocks[b.index()].insts.retain(|&x| x != v);
        }
    }

    /// The terminator of `block`, if the block is complete.
    pub fn terminator(&self, block: BlockId) -> Option<Value> {
        let last = *self.blocks[block.index()].insts.last()?;
        self.inst(last).kind.is_terminator().then_some(last)
    }

    /// Successor blocks of `block` (empty for return blocks).
    pub fn successors(&self, block: BlockId) -> Vec<BlockId> {
        match self.terminator(block) {
            Some(t) => self.inst(t).kind.successors(),
            None => vec![],
        }
    }

    /// Splits the CFG edge `pred → succ`, returning the new block that now
    /// sits on the edge (containing only a jump to `succ`).
    ///
    /// φ-functions in `succ` are updated to receive their `pred` incoming
    /// from the new block instead. Used by the e-SSA transform when a σ-copy
    /// must be placed on an edge whose target has several predecessors.
    ///
    /// # Panics
    ///
    /// Panics if `pred` has no terminator targeting `succ`.
    pub fn split_edge(&mut self, pred: BlockId, succ: BlockId) -> BlockId {
        let term = self.terminator(pred).expect("pred must be terminated");
        assert!(
            self.inst(term).kind.successors().contains(&succ),
            "{pred} does not branch to {succ}"
        );
        let mid = self.add_block();
        self.inst_mut(term).kind.replace_successor(succ, mid);
        self.append_inst(mid, InstKind::Jump(succ), None);
        // Re-route φ incomings in succ.
        let phis: Vec<Value> = self.blocks[succ.index()]
            .insts
            .iter()
            .copied()
            .filter(|&v| self.inst(v).kind.is_phi())
            .collect();
        for phi in phis {
            self.inst_mut(phi).kind.for_each_phi_operand_mut(|b, _| {
                if *b == pred {
                    *b = mid;
                }
            });
        }
        mid
    }

    /// Computes, for every attached instruction, its position within its
    /// block (φ prefix included). Detached instructions get `u32::MAX`.
    ///
    /// Positions order instructions within one block for dominance queries;
    /// they are recomputed on demand after edits.
    pub fn positions(&self) -> Vec<u32> {
        let mut pos = vec![u32::MAX; self.insts.len()];
        for b in &self.blocks {
            for (i, &v) in b.insts.iter().enumerate() {
                pos[v.index()] = i as u32;
            }
        }
        pos
    }

    /// Convenience: creates an `Int` constant in the entry block.
    ///
    /// Constants are not uniqued; the builder layer uniques them.
    pub fn add_const(&mut self, c: i64) -> Value {
        let v = self.new_inst(InstKind::Const(c), Some(Type::Int));
        // Constants go at the head of the entry block, after other
        // consts/params, but before any computation: position right after
        // the last Const/Param prefix instruction.
        let entry = self.entry();
        let idx = self.blocks[entry.index()]
            .insts
            .iter()
            .position(|&i| !matches!(self.inst(i).kind, InstKind::Const(_) | InstKind::Param(_)))
            .unwrap_or(self.blocks[entry.index()].insts.len());
        self.attach_inst(entry, idx, v);
        v
    }

    /// Convenience: inserts a copy of `src` with `origin` into `block` at
    /// `index`, inheriting `src`'s type.
    pub fn insert_copy(
        &mut self,
        block: BlockId,
        index: usize,
        src: Value,
        origin: CopyOrigin,
    ) -> Value {
        let ty = self.value_type(src);
        let v = self.new_inst(InstKind::Copy { src, origin }, ty);
        self.attach_inst(block, index, v);
        v
    }

    /// Iterates `(value, data)` over all attached instructions of `block`.
    pub fn block_insts(&self, b: BlockId) -> impl Iterator<Item = (Value, &InstData)> {
        self.blocks[b.index()].insts.iter().map(move |&v| (v, self.inst(v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Pred;

    fn sample() -> Function {
        // entry: br c, b1, b2 ; b1: jump b2 ; b2: phi, ret
        let mut f = Function::new("t", vec![("x", Type::Int)], Some(Type::Int));
        let entry = f.entry();
        let b1 = f.add_block();
        let b2 = f.add_block();
        let x = f.param_value(0);
        let c0 = f.add_const(0);
        let c = f.append_inst(
            entry,
            InstKind::Cmp { pred: Pred::Lt, lhs: x, rhs: c0 },
            Some(Type::Int),
        );
        f.append_inst(entry, InstKind::Br { cond: c, then_bb: b1, else_bb: b2 }, None);
        f.append_inst(b1, InstKind::Jump(b2), None);
        let phi = f.append_inst(
            b2,
            InstKind::Phi { incomings: vec![(entry, c0), (b1, x)] },
            Some(Type::Int),
        );
        f.append_inst(b2, InstKind::Ret(Some(phi)), None);
        f
    }

    #[test]
    fn entry_is_block_zero_and_params_materialise() {
        let f = sample();
        assert_eq!(f.entry().index(), 0);
        assert!(matches!(f.inst(f.param_value(0)).kind, InstKind::Param(0)));
        assert_eq!(f.value_type(f.param_value(0)), Some(Type::Int));
    }

    #[test]
    fn terminators_and_successors() {
        let f = sample();
        assert_eq!(f.successors(f.entry()).len(), 2);
        assert_eq!(f.successors(BlockId::from_index(2)), vec![]);
    }

    #[test]
    fn split_edge_reroutes_phi() {
        let mut f = sample();
        let entry = f.entry();
        let b2 = BlockId::from_index(2);
        let mid = f.split_edge(entry, b2);
        assert_eq!(f.successors(mid), vec![b2]);
        assert!(f.successors(entry).contains(&mid));
        assert!(!f.successors(entry).contains(&b2));
        // The phi in b2 must now name `mid` as an incoming block.
        let phi = f.block(b2).insts[0];
        let mut blocks = vec![];
        if let InstKind::Phi { incomings } = &f.inst(phi).kind {
            for (b, _) in incomings {
                blocks.push(*b);
            }
        }
        assert!(blocks.contains(&mid));
        assert!(!blocks.contains(&entry));
    }

    #[test]
    fn positions_reflect_block_order() {
        let f = sample();
        let pos = f.positions();
        let entry_insts = &f.block(f.entry()).insts;
        for w in entry_insts.windows(2) {
            assert!(pos[w[0].index()] < pos[w[1].index()]);
        }
    }

    #[test]
    fn consts_stay_in_prefix() {
        let mut f = sample();
        let c = f.add_const(42);
        let entry = f.entry();
        let idx = f.block(entry).insts.iter().position(|&v| v == c).unwrap();
        // Must come before the cmp (a non-const, non-param instruction).
        let cmp_idx = f
            .block(entry)
            .insts
            .iter()
            .position(|&v| matches!(f.inst(v).kind, InstKind::Cmp { .. }))
            .unwrap();
        assert!(idx < cmp_idx);
    }

    #[test]
    fn first_non_phi_skips_phi_prefix() {
        let f = sample();
        let b2 = BlockId::from_index(2);
        assert_eq!(f.block(b2).first_non_phi(&f), 1);
        assert_eq!(f.block(f.entry()).first_non_phi(&f), 0);
    }
}
