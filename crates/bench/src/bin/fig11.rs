//! Figure 11 — scalability of constraint generation: the number of
//! constraints is linear in the number of IR instructions. The paper
//! reports R² = 0.992 over its 50 largest benchmarks.

use sraa_bench::{r_squared, suite_n, Prepared};
use std::io::{self, Write};

fn main() {
    sraa_bench::print_and_exit(run)
}

fn run(out: &mut dyn Write) -> io::Result<()> {
    // The 50 largest of suite + spec, like the paper's selection.
    let mut ws = sraa_synth::test_suite(suite_n());
    ws.extend(sraa_synth::spec_all());

    let mut rows: Vec<(String, usize, usize)> = Vec::new(); // (name, instrs, constraints)
    for w in &ws {
        let p = Prepared::new(w);
        rows.push((p.name.clone(), p.stats.instructions, p.lt.engine().stats().constraints));
    }
    rows.sort_by_key(|(_, instrs, _)| *instrs);
    let rows: Vec<_> = rows.into_iter().rev().take(50).rev().collect();

    writeln!(out, "{:<22} {:>14} {:>14}", "benchmark", "# instructions", "# constraints")?;
    for (name, instrs, cs) in &rows {
        writeln!(out, "{name:<22} {instrs:>14} {cs:>14}")?;
    }

    let xs: Vec<f64> = rows.iter().map(|(_, i, _)| *i as f64).collect();
    let ys: Vec<f64> = rows.iter().map(|(_, _, c)| *c as f64).collect();
    let r2 = r_squared(&xs, &ys);
    writeln!(out)?;
    writeln!(out, "R²(constraints, instructions) = {r2:.4}   (paper: 0.992)")?;
    assert!(r2 > 0.9, "constraint generation must look linear, got R² = {r2}");
    Ok(())
}
