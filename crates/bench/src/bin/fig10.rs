//! Figure 10 — how LT and CF (Andersen) each increase BA's capacity to
//! disambiguate pointers on the SPEC workloads: %BA, %(BA+LT), %(BA+CF).
//!
//! The paper's conclusions to check for shape: there is no clear winner —
//! BA+LT wins big on lbm/milc/gobmk, BA+CF wins elsewhere (omnetpp), and
//! the two are complementary.

use sraa_bench::Prepared;
use std::io::{self, Write};

fn main() {
    sraa_bench::print_and_exit(run)
}

fn run(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "{:<12} {:>8} {:>9} {:>9}", "benchmark", "%BA", "%(BA+LT)", "%(BA+CF)")?;
    let mut lt_wins = 0usize;
    let mut cf_wins = 0usize;
    for w in sraa_synth::spec_all() {
        let p = Prepared::new(&w);
        let evals = p.eval(&[&p.ba, &p.ba_plus_lt(), &p.ba_plus_cf()]);
        let (ba, lt, cf) = (&evals[0], &evals[1], &evals[2]);
        writeln!(
            out,
            "{:<12} {:>7.2}% {:>8.2}% {:>8.2}%",
            p.name,
            ba.no_alias_rate(),
            lt.no_alias_rate(),
            cf.no_alias_rate()
        )?;
        if lt.no_alias > cf.no_alias {
            lt_wins += 1;
        } else if cf.no_alias > lt.no_alias {
            cf_wins += 1;
        }
    }
    writeln!(out)?;
    writeln!(
        out,
        "BA+LT more precise on {lt_wins} benchmark(s), BA+CF on {cf_wins}: \
         the analyses are complementary (paper §4.1, Figure 10)."
    )?;
    Ok(())
}
