//! Dense Pentagons vs the paper's sparse less-than analysis.
//!
//! The paper's §5 compares itself to Logozzo & Fähndrich's Pentagon
//! domain in prose; this example makes the comparison executable on the
//! paper's own Figure 1 programs. Both analyses prove the same ordering
//! facts here — the differences are *where the facts live* (per-point
//! states vs per-name sets) and what that costs.
//!
//! `PentagonAa::on_prepared` runs the dense fixpoint and then tabulates
//! each function's facts at the definitions of its pointers and offsets
//! (`sraa_pentagon::FactTable`), so its queries cost as little as the
//! sparse analysis's. The footprint line counts the fixpoint's
//! block-entry bindings, the density itself, and not that table.
//!
//! Run with `cargo run --example pentagon_vs_sparse`.

use sraa::alias::{AliasAnalysis, AliasResult, PentagonAa, StrictInequalityAa};
use sraa::ir::InstKind;

const FIGURE_1: [(&str, &str); 2] = [
    (
        "ins_sort",
        r#"
        void ins_sort(int* v, int N) {
            for (int i = 0; i < N - 1; i++)
                for (int j = i + 1; j < N; j++)
                    if (v[i] > v[j]) { int t = v[i]; v[i] = v[j]; v[j] = t; }
        }
        "#,
    ),
    (
        "partition",
        r#"
        void partition(int* v, int N) {
            int i; int j; int p; int tmp;
            p = v[N / 2];
            for (i = 0, j = N - 1;; i++, j--) {
                while (v[i] < p) i++;
                while (p < v[j]) j--;
                if (i >= j) break;
                tmp = v[i];
                v[i] = v[j];
                v[j] = tmp;
            }
        }
        "#,
    ),
];

fn main() {
    for (name, source) in FIGURE_1 {
        let mut module = sraa::minic::compile(source).expect("valid MiniC");
        // One e-SSA conversion; both analyses run on the same program.
        let lt = StrictInequalityAa::new(&mut module);
        let pt = PentagonAa::on_prepared(&module);

        let fid = module.function_by_name(name).unwrap();
        let f = module.function(fid);
        let mut ptrs = Vec::new();
        for b in f.block_ids() {
            for (_, d) in f.block_insts(b) {
                match &d.kind {
                    InstKind::Load { ptr } => ptrs.push(*ptr),
                    InstKind::Store { ptr, .. } => ptrs.push(*ptr),
                    _ => {}
                }
            }
        }

        let (mut total, mut lt_no, mut pt_no, mut both) = (0u32, 0u32, 0u32, 0u32);
        for (i, &p1) in ptrs.iter().enumerate() {
            for &p2 in &ptrs[i + 1..] {
                total += 1;
                let a = lt.alias(&module, fid, p1, p2) == AliasResult::NoAlias;
                let b = pt.alias(&module, fid, p1, p2) == AliasResult::NoAlias;
                lt_no += a as u32;
                pt_no += b as u32;
                both += (a && b) as u32;
            }
        }
        println!("{name}: {total} access pairs");
        println!("  sparse LT  no-alias: {lt_no}");
        println!("  dense  PT  no-alias: {pt_no}   (agreeing on {both})");
        println!(
            "  dense footprint: {} variable bindings across block-entry states",
            pt.analysis().total_bindings()
        );
        println!();
    }

    println!("Both formulations disambiguate the paper's examples; the sparse");
    println!("one stores each fact once per *name*, the dense one once per");
    println!("*program point* — the footprint line is the paper's argument.");
}
