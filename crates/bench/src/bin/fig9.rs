//! Figure 9 — the SPEC CPU 2006 precision table: per benchmark, the total
//! query count and the percentage of no-alias answers for BA, LT and
//! BA+LT. Rows where LT lifts BA by ≥ 10 percentage points are flagged
//! with `*`, matching the highlighting of the paper's table.

use sraa_bench::Prepared;
use std::io::{self, Write};

fn main() {
    sraa_bench::print_and_exit(run)
}

fn run(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "{:<12} {:>10} {:>8} {:>8} {:>9}  flag",
        "benchmark", "# queries", "BA", "LT", "BA+LT"
    )?;
    for w in sraa_synth::spec_all() {
        let p = Prepared::new(&w);
        let evals = p.eval(&[&p.ba, &p.lt, &p.ba_plus_lt()]);
        let (ba, lt, both) = (&evals[0], &evals[1], &evals[2]);
        // The paper highlights benchmarks where LT increases BA's
        // precision "by 10% or higher" — a relative gain; with that
        // reading its four highlighted rows (lbm, milc, bzip2, gobmk)
        // match the table.
        let rel_gain = (both.no_alias_rate() - ba.no_alias_rate()) / ba.no_alias_rate().max(1e-9);
        let flag = if rel_gain >= 0.10 { "*" } else { "" };
        writeln!(
            out,
            "{:<12} {:>10} {:>7.2}% {:>7.2}% {:>8.2}%  {}",
            p.name,
            ba.total(),
            ba.no_alias_rate(),
            lt.no_alias_rate(),
            both.no_alias_rate(),
            flag
        )?;
    }
    writeln!(out)?;
    writeln!(out, "(*) = LT raises BA's precision by 10% or more,")?;
    writeln!(out, "      the paper highlights exactly lbm, milc, bzip2 and gobmk.")?;
    Ok(())
}
