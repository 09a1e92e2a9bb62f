//! Sparse strict-inequalities (LT) vs dense Pentagons (PT) — the
//! comparison the paper's Section 5 makes in prose, measured.
//!
//! Two of the paper's claims become checkable:
//!
//! 1. *"We have not found thus far examples in which one approach yields
//!    better results than the other"* — per benchmark, this harness
//!    counts the `aa-eval` pairs on which the two analyses disagree, in
//!    both directions.
//! 2. Density costs: per-benchmark analysis construction time and the
//!    dense footprint (total variable bindings stored across block-entry
//!    states) against the sparse pipeline's solve time.
//!
//! `lt-ms` covers e-SSA conversion and the sparse solve. `pt-ms` covers
//! the dense fixpoint, run on flat sorted-vector states, plus the
//! per-definition fact table (`sraa_pentagon::FactTable`), that is, all
//! the work `PT`'s queries need; the queries themselves are timed by
//! neither column. `pt-bound` counts the fixpoint's block-entry bindings
//! only, not the table; it depends on the abstract states, not on how
//! they are stored. The `totals:` line sums every column but the
//! timings, so it changes only when an analysis's answers do.
//!
//! Both analyses run on the *same* e-SSA module, so the only variable is
//! the analysis machinery. Run with
//! `cargo run --release -p sraa-bench --bin pentagon_vs_lt`.

use sraa_alias::{AaEval, AliasAnalysis, AliasResult, PentagonAa, StrictInequalityAa};
use std::io::{self, Write};
use std::time::Instant;

fn main() {
    sraa_bench::print_and_exit(run)
}

fn run(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "{:<12} {:>9} {:>9} {:>9} {:>8} {:>8} {:>9} {:>9} {:>10}",
        "benchmark", "queries", "LT-no", "PT-no", "LT>PT", "PT>LT", "lt-ms", "pt-ms", "pt-bound"
    )?;

    let mut totals = (0u64, 0u64, 0u64, 0u64, 0u64, 0usize);
    for w in sraa_synth::spec_all() {
        let mut module = sraa_minic::compile(&w.source)
            .unwrap_or_else(|e| panic!("workload {} failed to compile: {e}", w.name));

        let t0 = Instant::now();
        let lt = StrictInequalityAa::new(&mut module); // converts to e-SSA
        let lt_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t1 = Instant::now();
        let pt = PentagonAa::on_prepared(&module); // same e-SSA module
        let pt_ms = t1.elapsed().as_secs_f64() * 1e3;

        // Per-pair divergence, both directions.
        let mut queries = 0u64;
        let (mut lt_no, mut pt_no, mut lt_only, mut pt_only) = (0u64, 0u64, 0u64, 0u64);
        for (fid, _) in module.functions() {
            let ptrs = AaEval::pointer_values(&module, fid);
            for i in 0..ptrs.len() {
                for j in i + 1..ptrs.len() {
                    queries += 1;
                    let a = lt.alias(&module, fid, ptrs[i], ptrs[j]);
                    let b = pt.alias(&module, fid, ptrs[i], ptrs[j]);
                    let a_no = a == AliasResult::NoAlias;
                    let b_no = b == AliasResult::NoAlias;
                    lt_no += a_no as u64;
                    pt_no += b_no as u64;
                    lt_only += (a_no && !b_no) as u64;
                    pt_only += (b_no && !a_no) as u64;
                }
            }
        }

        let pt_bound = pt.analysis().total_bindings();
        writeln!(
            out,
            "{:<12} {:>9} {:>9} {:>9} {:>8} {:>8} {:>9.1} {:>9.1} {:>10}",
            w.name, queries, lt_no, pt_no, lt_only, pt_only, lt_ms, pt_ms, pt_bound
        )?;
        totals.0 += queries;
        totals.1 += lt_no;
        totals.2 += pt_no;
        totals.3 += lt_only;
        totals.4 += pt_only;
        totals.5 += pt_bound;
    }

    writeln!(out)?;
    writeln!(
        out,
        "totals: queries={} LT-no={} PT-no={} LT-only={} PT-only={} PT-bound={}",
        totals.0, totals.1, totals.2, totals.3, totals.4, totals.5
    )?;
    let agree = totals.0 - totals.3 - totals.4;
    writeln!(
        out,
        "agreement: {:.3}% of queries ({} pairs decided differently)",
        agree as f64 / totals.0.max(1) as f64 * 100.0,
        totals.3 + totals.4
    )?;
    Ok(())
}
