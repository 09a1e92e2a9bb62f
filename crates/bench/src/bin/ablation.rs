//! Ablation of the two switches in [`GenConfig`], each measured against
//! the default configuration on the SPEC stand-ins:
//!
//! * `param_pairs` — the parameter-pair completion of the paper's
//!   inter-procedural pseudo-φs: how much precision does LT lose without
//!   it?
//! * `range_offsets` — the §3.6 disjoint-offset-interval criterion: what
//!   does it add on top of LT?
//!
//! The `totals:` line is exact and deterministic; CI pins it.

use sraa_bench::Prepared;
use sraa_core::GenConfig;
use std::io::{self, Write};

fn main() {
    sraa_bench::print_and_exit(run)
}

fn run(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "{:<12} {:>10} {:>11} {:>10} {:>10}",
        "benchmark", "LT", "LT-nopairs", "LT-ranges", "queries"
    )?;
    let mut faithful = 0u64;
    let mut nopairs = 0u64;
    let mut ranges = 0u64;
    for w in sraa_synth::spec_all() {
        let base = Prepared::with_config(&w, GenConfig::default());
        let nop = Prepared::with_config(&w, GenConfig { param_pairs: false, ..Default::default() });
        let rng =
            Prepared::with_config(&w, GenConfig { range_offsets: true, ..Default::default() });
        let b = &base.eval(&[&base.lt])[0];
        let n = &nop.eval(&[&nop.lt])[0];
        let r = &rng.eval(&[&rng.lt])[0];
        writeln!(
            out,
            "{:<12} {:>10} {:>11} {:>10} {:>10}",
            w.name,
            b.no_alias,
            n.no_alias,
            r.no_alias,
            b.total()
        )?;
        faithful += b.no_alias;
        nopairs += n.no_alias;
        ranges += r.no_alias;
    }
    writeln!(out)?;
    writeln!(
        out,
        "totals: faithful={faithful} without-param-pairs={nopairs} with-range-criterion={ranges}"
    )?;
    writeln!(
        out,
        "param-pair contribution: {:+.2}%, range criterion: {:+.2}%",
        (faithful as f64 - nopairs as f64) / faithful.max(1) as f64 * 100.0,
        (ranges as f64 - faithful as f64) / faithful.max(1) as f64 * 100.0
    )?;
    Ok(())
}
