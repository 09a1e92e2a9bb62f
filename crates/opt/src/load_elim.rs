//! Redundant-load elimination (store-to-load and load-to-load
//! forwarding), parameterised by an alias oracle.
//!
//! The pass keeps a set of *available memory facts* — "address `p`
//! currently holds SSA value `v`" — established by stores and loads. A
//! later load whose address **must** alias an available fact is replaced
//! by the remembered value; a store whose address **may** alias a fact
//! kills it. The alias oracle therefore controls both edges of the
//! trade-off:
//!
//! * more `MustAlias` answers ⇒ more loads forwarded;
//! * more `NoAlias` answers ⇒ fewer facts killed by unrelated stores —
//!   this is where the paper's strict-inequality analysis pays off
//!   (`v[i] = …` cannot kill the fact for `v[j]` when `i < j`).
//!
//! Facts flow through *single-predecessor* chains only (extended basic
//! blocks): a merge point may be reached around a killing store, and a
//! loop header may be re-entered after one, so both start empty. This is
//! deliberately the simplest sound scope — the experiment compares
//! oracles, not scheduling.

use crate::{must_alias, OptStats};
use sraa_alias::{AliasAnalysis, AliasResult};
use sraa_ir::{Cfg, FuncId, InstKind, Module, Value};

/// An available fact: the memory at `ptr` holds `value`.
#[derive(Clone, Copy, Debug)]
struct Avail {
    ptr: Value,
    value: Value,
}

/// Runs redundant-load elimination over every function, driven by `aa`.
/// Returns the number of loads removed.
///
/// The oracle is queried on the module *as given*; run the pass after
/// the oracle's constructor (which, for the strict-inequality analysis,
/// converts the module to e-SSA form).
pub fn eliminate_redundant_loads(module: &mut Module, aa: &dyn AliasAnalysis) -> OptStats {
    let fids: Vec<FuncId> = module.functions().map(|(id, _)| id).collect();
    let mut stats = OptStats::default();
    for fid in fids {
        stats += eliminate_in_function(module, fid, aa);
    }
    stats
}

fn eliminate_in_function(module: &mut Module, fid: FuncId, aa: &dyn AliasAnalysis) -> OptStats {
    // Phase 1 (read-only): walk blocks in reverse postorder, carry facts
    // across single-predecessor edges, and record the loads to forward.
    let func = module.function(fid);
    let cfg = Cfg::compute(func);
    let rpo = cfg.reverse_postorder();

    let mut out_facts: Vec<Option<Vec<Avail>>> = vec![None; func.num_blocks()];
    let mut replacements: Vec<(Value, Value)> = Vec::new();

    for &b in &rpo {
        let mut facts: Vec<Avail> = match cfg.preds(b) {
            [only] if *only != b => out_facts[only.index()].clone().unwrap_or_default(),
            _ => Vec::new(),
        };
        for (v, data) in func.block_insts(b) {
            match &data.kind {
                InstKind::Load { ptr } => {
                    if let Some(hit) =
                        facts.iter().find(|f| must_alias(module, fid, aa, f.ptr, *ptr))
                    {
                        replacements.push((v, hit.value));
                        // The fact stays; `v` is going away.
                    } else {
                        facts.push(Avail { ptr: *ptr, value: v });
                    }
                }
                InstKind::Store { ptr, value } => {
                    facts.retain(|f| aa.alias(module, fid, f.ptr, *ptr) == AliasResult::NoAlias);
                    facts.push(Avail { ptr: *ptr, value: *value });
                }
                // Calls may read or write anything reachable.
                InstKind::Call { .. } => facts.clear(),
                _ => {}
            }
        }
        out_facts[b.index()] = Some(facts);
    }

    // Phase 2 (mutation): rewrite uses, detach the forwarded loads.
    if replacements.is_empty() {
        return OptStats::default();
    }
    let map: std::collections::HashMap<Value, Value> = replacements.iter().copied().collect();
    let func = module.function_mut(fid);
    let values: Vec<Value> = func.value_ids().collect();
    for v in values {
        let data = func.inst_mut(v);
        data.kind.for_each_operand_mut(|op| {
            if let Some(&r) = map.get(op) {
                *op = r;
            }
        });
        data.kind.for_each_phi_operand_mut(|_, op| {
            if let Some(&r) = map.get(op) {
                *op = r;
            }
        });
    }
    for &(load, _) in &replacements {
        func.detach_inst(load);
    }
    OptStats { loads_eliminated: replacements.len(), ..OptStats::default() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sraa_alias::BasicAliasAnalysis;
    use sraa_ir::Interpreter;

    fn count_loads(module: &Module) -> usize {
        module
            .functions()
            .map(|(_, f)| {
                f.block_ids()
                    .flat_map(|b| f.block_insts(b))
                    .filter(|(_, d)| matches!(d.kind, InstKind::Load { .. }))
                    .count()
            })
            .sum()
    }

    fn run_main(module: &Module) -> Option<i64> {
        Interpreter::new(module).run("main", &[]).expect("execution").result
    }

    #[test]
    fn forwards_store_to_load_same_address() {
        let mut m = sraa_minic::compile(
            r#"
            int main() {
                int a[4];
                a[0] = 41;
                return a[0] + 1;
            }
            "#,
        )
        .unwrap();
        let before = run_main(&m);
        let ba = BasicAliasAnalysis::new(&m);
        let stats = eliminate_redundant_loads(&mut m, &ba);
        assert_eq!(stats.loads_eliminated, 1);
        sraa_ir::verify(&m).unwrap();
        assert_eq!(run_main(&m), before);
        assert_eq!(before, Some(42));
    }

    #[test]
    fn forwards_load_to_load() {
        let mut m = sraa_minic::compile(
            r#"
            int f(int* p) { return *p + *p; }
            int main() { int a[1]; a[0] = 21; return f(a); }
            "#,
        )
        .unwrap();
        let before = run_main(&m);
        let ba = BasicAliasAnalysis::new(&m);
        let stats = eliminate_redundant_loads(&mut m, &ba);
        assert_eq!(stats.loads_eliminated, 1, "second *p reuses the first");
        sraa_ir::verify(&m).unwrap();
        assert_eq!(run_main(&m), before);
    }

    #[test]
    fn aliasing_store_kills_the_fact() {
        // The store *q may alias *p under BA (both are parameters), so
        // the second load of *p must survive.
        let mut m = sraa_minic::compile(
            r#"
            int f(int* p, int* q) { int x = *p; *q = 7; return x + *p; }
            int main() { int a[1]; a[0] = 1; return f(a, a); }
            "#,
        )
        .unwrap();
        let before = run_main(&m);
        let loads = count_loads(&m);
        let ba = BasicAliasAnalysis::new(&m);
        let stats = eliminate_redundant_loads(&mut m, &ba);
        assert_eq!(stats.loads_eliminated, 0);
        assert_eq!(count_loads(&m), loads);
        assert_eq!(run_main(&m), before);
    }

    #[test]
    fn disjoint_allocations_do_not_kill() {
        // BA knows distinct allocation sites cannot alias: the store to
        // b[] keeps the fact for a[0] alive.
        let mut m = sraa_minic::compile(
            r#"
            int main() {
                int a[2];
                int b[2];
                a[0] = 5;
                b[0] = 9;
                return a[0];
            }
            "#,
        )
        .unwrap();
        let before = run_main(&m);
        let ba = BasicAliasAnalysis::new(&m);
        let stats = eliminate_redundant_loads(&mut m, &ba);
        assert_eq!(stats.loads_eliminated, 1, "b-store must not kill the a-fact");
        assert_eq!(run_main(&m), before);
    }

    #[test]
    fn call_kills_everything() {
        let mut m = sraa_minic::compile(
            r#"
            void touch(int* p) { *p = 3; }
            int main() {
                int a[1];
                a[0] = 1;
                touch(a);
                return a[0];
            }
            "#,
        )
        .unwrap();
        let ba = BasicAliasAnalysis::new(&m);
        let stats = eliminate_redundant_loads(&mut m, &ba);
        assert_eq!(stats.loads_eliminated, 0, "the call may write a[0]");
        assert_eq!(run_main(&m), Some(3));
    }

    #[test]
    fn facts_do_not_cross_merge_points() {
        // Both branches reach the final load; one of them stores to the
        // same slot. Facts must not flow through the merge.
        let mut m = sraa_minic::compile(
            r#"
            int f(int c) {
                int a[1];
                a[0] = 1;
                if (c) { a[0] = 2; }
                return a[0];
            }
            int main() { return f(1); }
            "#,
        )
        .unwrap();
        let ba = BasicAliasAnalysis::new(&m);
        let _ = eliminate_redundant_loads(&mut m, &ba);
        sraa_ir::verify(&m).unwrap();
        assert_eq!(run_main(&m), Some(2), "must observe the branch store");
    }

    #[test]
    fn structural_gep_equality_forwards() {
        // Two textual occurrences of v[i] produce two gep instructions;
        // the pass value-numbers them.
        let mut m = sraa_minic::compile(
            r#"
            int f(int* v, int i) { return v[i] + v[i]; }
            int main() { int a[4]; a[2] = 10; return f(a, 2); }
            "#,
        )
        .unwrap();
        let before = run_main(&m);
        let ba = BasicAliasAnalysis::new(&m);
        let stats = eliminate_redundant_loads(&mut m, &ba);
        assert_eq!(stats.loads_eliminated, 1);
        assert_eq!(run_main(&m), before);
    }
}
