//! Figure 8 — effectiveness of LT vs BA on the synthetic 100-benchmark
//! test suite: per benchmark, the total number of alias queries and the
//! number answered "no-alias" by LT, BA and BA+LT.
//!
//! Paper headline checks printed at the end: LT alone rarely beats BA, but
//! BA+LT improves on BA suite-wide (the paper reports +9.49% no-alias
//! answers over its corpus), with LT ≫ BA on array-arithmetic-heavy
//! members.

use sraa_bench::{suite_n, Prepared};
use std::io::{self, Write};

fn main() {
    sraa_bench::print_and_exit(run)
}

fn run(out: &mut dyn Write) -> io::Result<()> {
    let suite = sraa_synth::test_suite(suite_n());
    writeln!(
        out,
        "{:<22} {:>12} {:>10} {:>10} {:>10}",
        "benchmark", "queries", "LT", "BA", "BA+LT"
    )?;
    let mut tot_q = 0u64;
    let mut tot_lt = 0u64;
    let mut tot_ba = 0u64;
    let mut tot_both = 0u64;
    for w in &suite {
        let p = Prepared::new(w);
        let evals = p.eval(&[&p.lt, &p.ba, &p.ba_plus_lt()]);
        let (lt, ba, both) = (&evals[0], &evals[1], &evals[2]);
        writeln!(
            out,
            "{:<22} {:>12} {:>10} {:>10} {:>10}",
            p.name,
            lt.total(),
            lt.no_alias,
            ba.no_alias,
            both.no_alias
        )?;
        tot_q += lt.total();
        tot_lt += lt.no_alias;
        tot_ba += ba.no_alias;
        tot_both += both.no_alias;
    }
    writeln!(out)?;
    writeln!(out, "suite totals: queries={tot_q} LT={tot_lt} BA={tot_ba} BA+LT={tot_both}")?;
    let gain = (tot_both as f64 - tot_ba as f64) / tot_ba.max(1) as f64 * 100.0;
    writeln!(
        out,
        "LT increases BA's no-alias answers by {gain:.2}% \
         (paper: +9.49% on the LLVM test suite)"
    )?;
    Ok(())
}
