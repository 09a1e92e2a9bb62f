//! Dead-store elimination, parameterised by an alias oracle.
//!
//! A store is dead when the stored value can never be observed: a later
//! store *must-aliasing* the same address overwrites it before any
//! *may-aliasing* read. The pass walks each block backwards keeping the
//! set of "pending overwrites" — addresses that will certainly be
//! re-stored before anything that might read them runs:
//!
//! * a later `Store q` adds `q` to the pending set;
//! * a `Load p` evicts every pending `q` unless the oracle proves
//!   `p`/`q` disjoint — this is where extra `NoAlias` answers remove
//!   more stores;
//! * a `Call` evicts everything (the callee may read any memory);
//! * an earlier `Store p` with a pending **must**-alias is dead.
//!
//! Scope is a single block: block exits conservatively assume memory is
//! read afterwards, so the pending set starts empty. Like the
//! redundant-load pass, this is the simplest sound client that turns
//! disambiguation precision into removed instructions.

use crate::{must_alias, OptStats};
use sraa_alias::{AliasAnalysis, AliasResult};
use sraa_ir::{FuncId, InstKind, Module, Value};

/// Runs dead-store elimination over every function, driven by `aa`.
/// Returns the number of stores removed.
pub fn eliminate_dead_stores(module: &mut Module, aa: &dyn AliasAnalysis) -> OptStats {
    let fids: Vec<FuncId> = module.functions().map(|(id, _)| id).collect();
    let mut stats = OptStats::default();
    for fid in fids {
        stats += eliminate_in_function(module, fid, aa);
    }
    stats
}

fn eliminate_in_function(module: &mut Module, fid: FuncId, aa: &dyn AliasAnalysis) -> OptStats {
    let func = module.function(fid);
    let mut dead: Vec<Value> = Vec::new();

    for b in func.block_ids() {
        let insts: Vec<Value> = func.block_insts(b).map(|(v, _)| v).collect();
        // Addresses certainly overwritten before any possible read.
        let mut pending: Vec<Value> = Vec::new();
        for &v in insts.iter().rev() {
            match &func.inst(v).kind {
                InstKind::Store { ptr, .. } => {
                    if pending.iter().any(|&q| must_alias(module, fid, aa, q, *ptr)) {
                        dead.push(v);
                        // The overwriting store still covers this address
                        // for anything even earlier.
                    } else {
                        pending.push(*ptr);
                    }
                }
                InstKind::Load { ptr } => {
                    pending.retain(|&q| aa.alias(module, fid, q, *ptr) == AliasResult::NoAlias);
                }
                InstKind::Call { .. } => pending.clear(),
                _ => {}
            }
        }
    }

    let n = dead.len();
    let func = module.function_mut(fid);
    for v in dead {
        func.detach_inst(v);
    }
    OptStats { stores_eliminated: n, ..OptStats::default() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sraa_alias::BasicAliasAnalysis;
    use sraa_ir::Interpreter;

    fn run_main(module: &Module) -> Option<i64> {
        Interpreter::new(module).run("main", &[]).expect("execution").result
    }

    fn count_stores(module: &Module) -> usize {
        module
            .functions()
            .map(|(_, f)| {
                f.block_ids()
                    .flat_map(|b| f.block_insts(b))
                    .filter(|(_, d)| matches!(d.kind, InstKind::Store { .. }))
                    .count()
            })
            .sum()
    }

    #[test]
    fn overwritten_store_is_removed() {
        let mut m = sraa_minic::compile(
            r#"
            int main() {
                int a[1];
                a[0] = 1;
                a[0] = 2;
                return a[0];
            }
            "#,
        )
        .unwrap();
        let ba = BasicAliasAnalysis::new(&m);
        let stats = eliminate_dead_stores(&mut m, &ba);
        assert_eq!(stats.stores_eliminated, 1);
        sraa_ir::verify(&m).unwrap();
        assert_eq!(run_main(&m), Some(2));
    }

    #[test]
    fn intervening_aliasing_load_keeps_the_store() {
        let mut m = sraa_minic::compile(
            r#"
            int main() {
                int a[1];
                a[0] = 1;
                int x = a[0];
                a[0] = 2;
                return a[0] + x;
            }
            "#,
        )
        .unwrap();
        let ba = BasicAliasAnalysis::new(&m);
        let stats = eliminate_dead_stores(&mut m, &ba);
        assert_eq!(stats.stores_eliminated, 0);
        assert_eq!(run_main(&m), Some(3));
    }

    #[test]
    fn disjoint_load_does_not_keep_the_store() {
        // The read of b[0] cannot observe a[0] (distinct allocations):
        // the first a-store is still dead.
        let mut m = sraa_minic::compile(
            r#"
            int main() {
                int a[1];
                int b[1];
                b[0] = 9;
                a[0] = 1;
                int x = b[0];
                a[0] = 2;
                return a[0] + x;
            }
            "#,
        )
        .unwrap();
        let before = count_stores(&m);
        let ba = BasicAliasAnalysis::new(&m);
        let stats = eliminate_dead_stores(&mut m, &ba);
        assert_eq!(stats.stores_eliminated, 1, "only the dead a-store goes");
        assert_eq!(count_stores(&m), before - 1);
        assert_eq!(run_main(&m), Some(11));
    }

    #[test]
    fn call_between_stores_keeps_both() {
        let mut m = sraa_minic::compile(
            r#"
            int g(int* p) { return *p; }
            int main() {
                int a[1];
                a[0] = 1;
                int x = g(a);
                a[0] = 2;
                return a[0] + x;
            }
            "#,
        )
        .unwrap();
        let ba = BasicAliasAnalysis::new(&m);
        let stats = eliminate_dead_stores(&mut m, &ba);
        assert_eq!(stats.stores_eliminated, 0);
        assert_eq!(run_main(&m), Some(3));
    }

    #[test]
    fn store_in_other_block_is_not_touched() {
        // DSE scope is one block: the early store lives in the entry
        // block, the overwrite in the loop — must both survive.
        let mut m = sraa_minic::compile(
            r#"
            int main() {
                int a[1];
                a[0] = 7;
                for (int i = 0; i < 1; i++) { a[0] = 9; }
                return a[0];
            }
            "#,
        )
        .unwrap();
        let before = count_stores(&m);
        let ba = BasicAliasAnalysis::new(&m);
        let stats = eliminate_dead_stores(&mut m, &ba);
        assert_eq!(stats.stores_eliminated, 0);
        assert_eq!(count_stores(&m), before);
        assert_eq!(run_main(&m), Some(9));
    }
}
